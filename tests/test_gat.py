"""Tests for the distributed GAT forward pass."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps.gat import (
    DistributedGAT,
    GatHead,
    elu,
    gat_forward_reference,
    leaky_relu,
    make_heads,
)
from repro.errors import ReproError
from repro.sparse.generate import erdos_renyi
from repro.types import Elision, Phase


@pytest.fixture
def graph(rng):
    n = 140
    adj = erdos_renyi(n, n, 6, seed=4, values="ones")
    X = rng.standard_normal((n, 12))
    return adj, X


CONFIGS = [
    (Elision.NONE, 4, 2),
    (Elision.NONE, 6, 3),
    (Elision.REPLICATION_REUSE, 4, 2),
    (Elision.REPLICATION_REUSE, 8, 2),
    (Elision.REPLICATION_REUSE, 8, 4),
]


class TestForwardPass:
    @pytest.mark.parametrize(
        "el,p,c", CONFIGS, ids=[f"{e.value}-p{p}c{c}" for e, p, c in CONFIGS]
    )
    def test_matches_reference(self, el, p, c, graph):
        adj, X = graph
        gat = DistributedGAT(p=p, c=c, n_heads=3, r_in=12, r_head=6, elision=el, seed=5)
        out = gat.forward(adj, X)
        ref = gat_forward_reference(adj, X, gat.heads)
        np.testing.assert_allclose(out.output, ref, rtol=1e-9, atol=1e-12)

    def test_single_head(self, graph):
        adj, X = graph
        gat = DistributedGAT(p=4, c=1, n_heads=1, r_in=12, r_head=8, seed=1)
        out = gat.forward(adj, X)
        assert out.output.shape == (adj.nrows, 8)
        np.testing.assert_allclose(
            out.output, gat_forward_reference(adj, X, gat.heads), rtol=1e-9
        )

    def test_without_elu(self, graph):
        adj, X = graph
        gat = DistributedGAT(p=4, c=2, n_heads=2, r_in=12, r_head=4, apply_elu=False, seed=2)
        out = gat.forward(adj, X)
        ref = gat_forward_reference(adj, X, gat.heads, apply_elu=False)
        np.testing.assert_allclose(out.output, ref, rtol=1e-9)

    def test_attention_rows_sum_to_one_in_reference(self, graph):
        """Edge softmax invariant used by the distributed path."""
        adj, X = graph
        heads = make_heads(1, 12, 4, seed=0)
        H = X @ heads[0].W
        uL = H @ heads[0].a_left
        uR = H @ heads[0].a_right
        e = leaky_relu(uL[adj.rows] + uR[adj.cols], 0.2)
        ex = np.exp(e)
        rowsum = np.zeros(adj.nrows)
        np.add.at(rowsum, adj.rows, ex)
        attn = ex / rowsum[adj.rows]
        check = np.zeros(adj.nrows)
        np.add.at(check, adj.rows, attn)
        present = np.unique(adj.rows)
        np.testing.assert_allclose(check[present], 1.0)


class TestValidation:
    def test_local_kernel_fusion_rejected(self):
        """The paper: LKF is incompatible with softmax edge normalization."""
        with pytest.raises(ReproError):
            DistributedGAT(p=4, elision=Elision.LOCAL_KERNEL_FUSION)

    def test_rectangular_adjacency_rejected(self, rng):
        gat = DistributedGAT(p=2, r_in=4, r_head=2)
        S = erdos_renyi(10, 12, 2, seed=0)
        with pytest.raises(ReproError):
            gat.forward(S, rng.standard_normal((10, 4)))

    def test_wrong_feature_width_rejected(self, graph, rng):
        adj, _ = graph
        gat = DistributedGAT(p=2, r_in=12, r_head=4)
        with pytest.raises(ReproError):
            gat.forward(adj, rng.standard_normal((adj.nrows, 5)))


class TestCommunicationBehavior:
    def test_reuse_gathers_once_per_forward(self, graph):
        """Replication reuse all-gathers X once; the unoptimized variant
        gathers per head per kernel — more replication words."""
        adj, X = graph
        g_none = DistributedGAT(p=4, c=2, n_heads=3, r_in=12, r_head=6,
                                elision=Elision.NONE, seed=5)
        g_reuse = DistributedGAT(p=4, c=2, n_heads=3, r_in=12, r_head=6,
                                 elision=Elision.REPLICATION_REUSE, seed=5)
        w_none = g_none.forward(adj, X).report.phase_words(Phase.REPLICATION)
        w_reuse = g_reuse.forward(adj, X).report.phase_words(Phase.REPLICATION)
        assert w_reuse < w_none

    def test_softmax_reductions_counted_outside_fusedmm(self, graph):
        adj, X = graph
        gat = DistributedGAT(p=4, c=2, n_heads=2, r_in=12, r_head=6, seed=0)
        rep = gat.forward(adj, X).report
        assert rep.phase_words(Phase.OTHER) > 0  # softmax allreduces

    @pytest.mark.parametrize(
        "el,group", [(Elision.NONE, 2), (Elision.REPLICATION_REUSE, 4)],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_one_softmax_all_reduce_per_head(self, el, group, graph, allreduce_calls):
        """At p = 8, c = 2 each head's edge softmax is one all-reduce of
        ``(segments, 2)`` ``(max, scaled sum)`` records — along the fiber
        (2 ranks) without elision, the layer (4) under replication reuse —
        and it is all the OTHER phase receives: ``2 log2 group`` messages
        per head."""
        adj, X = graph
        n_heads = 3
        gat = DistributedGAT(p=8, c=2, n_heads=n_heads, r_in=12, r_head=6,
                             elision=el, seed=5)
        with gat:
            rep = gat.forward(adj, X).report
        for rank, prof in enumerate(rep.per_rank):
            mine = [(size, shape) for w, size, shape in allreduce_calls if w == rank]
            assert len(mine) == n_heads
            assert all(size == group and shape[1:] == (2,) for size, shape in mine)
            other = prof.counters[Phase.OTHER]
            assert other.messages_received == n_heads * 2 * (group.bit_length() - 1)

    def test_reuse_counts_in_closed_form(self):
        """Replication reuse at p = 8, c = 2 on a graph p divides: the one
        gather of X moves ``(c − 1)·(n/p)·r_in`` REPLICATION words per rank
        in ``c − 1`` messages, and each head's two rounds ``(2·p/c − 1)``
        shifts of an ``n/p x r_head`` block — the score round's read-only
        block ``p/c − 1`` hops, the aggregation accumulator all ``p/c``."""
        p, c, n, r_in, r_head, n_heads = 8, 2, 512, 32, 16, 2
        adj = erdos_renyi(n, n, 8, seed=1, values="ones")
        X = np.random.default_rng(2).standard_normal((n, r_in))
        with DistributedGAT(p=p, c=c, n_heads=n_heads, r_in=r_in, r_head=r_head,
                            elision=Elision.REPLICATION_REUSE, seed=3) as gat:
            rep = gat.forward(adj, X).report
        block, hops = n // p, 2 * (p // c) - 1
        for prof in rep.per_rank:
            repl = prof.counters[Phase.REPLICATION]
            prop = prof.counters[Phase.PROPAGATION]
            assert (repl.words_received, repl.messages_received) == (
                (c - 1) * block * r_in, c - 1
            )
            assert (prop.words_received, prop.messages_received) == (
                n_heads * hops * block * r_head, n_heads * hops
            )
            assert (prop.words_sent, prop.messages_sent) == (
                prop.words_received, prop.messages_received
            )
        assert (repl.words_received, prop.words_received) == (2048, 14336)


class TestResidentSession:
    """Both variants reach ranks through one cached ``Session``."""

    @pytest.mark.parametrize(
        "el", [Elision.NONE, Elision.REPLICATION_REUSE], ids=lambda e: e.value
    )
    def test_second_forward_builds_nothing_and_spawns_nothing(self, el, graph):
        adj, X = graph
        p = 4
        base = threading.active_count()
        with DistributedGAT(p=p, c=2, n_heads=2, r_in=12, r_head=6,
                            elision=el, seed=5) as gat:
            first = gat.forward(adj, X)
            sess = gat._sess
            builds, ctx_builds = sess.plan_builds, sess.context_builds
            assert builds == 1  # the orientation this variant runs on
            assert threading.active_count() == base + p
            second = gat.forward(adj, X)
            assert gat._sess is sess
            assert sess.plan_builds == builds
            assert sess.context_builds == ctx_builds
            assert threading.active_count() == base + p
            assert np.array_equal(first.output, second.output)
            # the report covers one forward pass, not the session's life
            assert second.report.comm_words == first.report.comm_words
        assert threading.active_count() == base

    def test_both_variants_share_one_session(self, graph):
        adj, X = graph
        base = threading.active_count()
        with DistributedGAT(p=4, c=2, n_heads=2, r_in=12, r_head=6,
                            elision=Elision.NONE, seed=5) as gat:
            none = gat.forward(adj, X)
            sess = gat._sess
            gat.elision = Elision.REPLICATION_REUSE
            reuse = gat.forward(adj, X)
            assert gat._sess is sess
            # forward orientation for NONE + transposed sibling for reuse
            assert sess.plan_builds == 2
            assert threading.active_count() == base + 4
            np.testing.assert_allclose(none.output, reuse.output, rtol=1e-9)
            assert reuse.report.label == "gat/replication-reuse"
        assert threading.active_count() == base

    def test_close_is_idempotent_and_forward_replans(self, graph):
        adj, X = graph
        gat = DistributedGAT(p=4, c=2, n_heads=1, r_in=12, r_head=6, seed=5)
        first = gat.forward(adj, X)
        sess = gat._sess
        gat.close()
        gat.close()
        assert sess.closed and gat._sess is None
        assert np.array_equal(gat.forward(adj, X).output, first.output)
        gat.close()


class TestActivations:
    def test_leaky_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(leaky_relu(x, 0.1), [-0.2, 0.0, 3.0])

    def test_elu(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = elu(x)
        assert out[0] == pytest.approx(np.expm1(-1.0))
        assert out[1] == 0.0 and out[2] == 2.0

    def test_make_heads_shapes(self):
        heads = make_heads(4, 16, 8, seed=1)
        assert len(heads) == 4
        for h in heads:
            assert h.W.shape == (16, 8)
            assert h.a_left.shape == (8,) and h.a_right.shape == (8,)
