"""Tests for the MPI-like communicator: point-to-point, ring collectives,
the all-reduce schedules, traffic accounting, splits and failure
handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommError
from repro.runtime.comm import Communicator, payload_words
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.profile import RankProfile
from repro.runtime.spmd import run_spmd
from repro.types import Phase

from tests.conftest import require_world_size


class TestPayloadWords:
    def test_none_is_zero(self):
        assert payload_words(None) == 0

    def test_scalar_is_one(self):
        assert payload_words(3) == 1
        assert payload_words(2.5) == 1
        assert payload_words(np.float64(1.0)) == 1

    def test_array_counts_elements(self):
        assert payload_words(np.zeros((3, 4))) == 12
        assert payload_words(np.zeros(7, dtype=np.int64)) == 7

    def test_nested_structures(self):
        payload = (np.zeros(3), [np.zeros(2), 5], {"k": np.zeros(4)})
        assert payload_words(payload) == 3 + 2 + 1 + 4

    def test_index_arrays_count_as_words(self):
        # paper convention: a COO nonzero in flight costs 3 words
        nz = (np.zeros(10, np.int64), np.zeros(10, np.int64), np.zeros(10))
        assert payload_words(nz) == 30


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(5.0), tag=1)
                return None
            return comm.recv(0, tag=1)

        results, _ = run_spmd(2, body)
        np.testing.assert_array_equal(results[1], np.arange(5.0))

    def test_sends_are_isolated(self):
        """Mutating the sender's buffer after send must not affect receipt."""

        def body(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(1, buf, tag=1)
                buf[:] = -1.0
                return None
            return comm.recv(0, tag=1)

        results, _ = run_spmd(2, body)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_message_ordering_fifo(self):
        def body(comm):
            if comm.rank == 0:
                for k in range(10):
                    comm.send(1, k, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(10)]

        results, _ = run_spmd(2, body)
        assert results[1] == list(range(10))

    def test_tags_do_not_crosstalk(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=1)
                comm.send(1, "b", tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        results, _ = run_spmd(2, body)
        assert results[1] == ("a", "b")

    def test_out_of_range_dest_raises(self):
        def body(comm):
            with pytest.raises(CommError):
                comm.send(5, 1, tag=0)

        run_spmd(2, body)

    def test_shift_ring(self):
        def body(comm):
            got = comm.shift(np.array([comm.rank]), displacement=1)
            return int(got[0])

        results, _ = run_spmd(5, body)
        assert results == [(r - 1) % 5 for r in range(5)]

    def test_shift_negative_displacement(self):
        def body(comm):
            got = comm.shift(np.array([comm.rank]), displacement=-1)
            return int(got[0])

        results, _ = run_spmd(5, body)
        assert results == [(r + 1) % 5 for r in range(5)]

    def test_shift_self_when_size_one(self):
        def body(comm):
            return comm.shift(np.array([42.0]))[0]

        results, _ = run_spmd(1, body)
        assert results[0] == 42.0


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_allgather_values(self, p):
        def body(comm):
            return comm.allgather(comm.rank * 10)

        results, _ = run_spmd(p, body)
        for r in range(p):
            assert results[r] == [10 * k for k in range(p)]

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_allgather_traffic_matches_ring_cost(self, p):
        """Each rank receives (p-1)/p of the gathered payload in p-1 msgs."""
        W = 6

        def body(comm):
            with comm.profile.track(Phase.PROPAGATION):
                comm.allgather(np.zeros(W))

        _, report = run_spmd(p, body)
        assert report.phase_words(Phase.PROPAGATION) == (p - 1) * W
        assert report.phase_messages(Phase.PROPAGATION) == p - 1

    def test_untracked_allgather_counts_nothing(self):
        """``tracked=False`` (communicator construction's metadata ring)
        gathers the same values and leaves the traffic counters alone."""
        def body(comm):
            with comm.profile.track(Phase.PROPAGATION):
                return comm.allgather(comm.rank * 10, tracked=False)

        results, report = run_spmd(4, body)
        assert all(res == [0, 10, 20, 30] for res in results)
        assert report.phase_words(Phase.PROPAGATION) == 0
        assert report.phase_messages(Phase.PROPAGATION) == 0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_reduce_scatter_sums(self, p):
        def body(comm):
            blocks = [np.full(3, float(comm.rank + k)) for k in range(p)]
            return comm.reduce_scatter(blocks)

        results, _ = run_spmd(p, body)
        for r in range(p):
            expected = sum(q + r for q in range(p))
            np.testing.assert_allclose(results[r], np.full(3, expected))

    def test_reduce_scatter_custom_op(self):
        def body(comm):
            blocks = [np.array([float(comm.rank * 10 + k)]) for k in range(3)]
            return comm.reduce_scatter(blocks, op=np.maximum)

        results, _ = run_spmd(3, body)
        for r in range(3):
            assert results[r][0] == 20.0 + r  # max over ranks of rank*10+r

    def test_reduce_scatter_wrong_block_count(self):
        def body(comm):
            with pytest.raises(CommError):
                comm.reduce_scatter([np.zeros(1)])

        run_spmd(2, body)

    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_allreduce_sum(self, p):
        def body(comm):
            return comm.allreduce(np.arange(10.0) + comm.rank)

        results, _ = run_spmd(p, body)
        expected = np.arange(10.0) * p + sum(range(p))
        for r in range(p):
            np.testing.assert_allclose(results[r], expected)

    def test_allreduce_max(self):
        def body(comm):
            return comm.allreduce(np.array([float(comm.rank), -float(comm.rank)]), op=np.maximum)

        results, _ = run_spmd(4, body)
        np.testing.assert_allclose(results[0], [3.0, 0.0])

    def test_allreduce_scalar(self):
        def body(comm):
            return comm.allreduce_scalar(float(comm.rank + 1))

        results, _ = run_spmd(4, body)
        assert all(v == 10.0 for v in results)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_bcast(self, p):
        def body(comm):
            return comm.bcast({"x": np.arange(3)}, root=0)

        results, _ = run_spmd(p, body)
        for r in range(p):
            np.testing.assert_array_equal(results[r]["x"], np.arange(3))

    def test_barrier_completes_and_is_untracked(self):
        def body(comm):
            comm.barrier()
            return comm.profile.total().messages_received

        results, _ = run_spmd(4, body)
        assert all(v == 0 for v in results)

    def test_reduction_is_deterministic(self):
        """Ring order is fixed, so float sums are bit-identical across runs."""

        def run_once():
            def body(comm):
                rng = np.random.default_rng(comm.rank)
                blocks = [rng.standard_normal(17) for _ in range(4)]
                return comm.reduce_scatter(blocks)

            results, _ = run_spmd(4, body)
            return results

        a = run_once()
        b = run_once()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


#: group sizes of the all-reduce tests: the powers of two reduce by
#: recursive halving / doubling, the others by the ring
ALLREDUCE_GROUPS = [1, 2, 3, 4, 5, 6, 8]


def _contribution(rank, shape):
    return np.random.default_rng([rank, *shape]).standard_normal(shape)


def _ring_words(W, P, r):
    """Words rank ``r`` receives in the ring reduce-scatter + all-gather of
    ``W`` words cut at ``k * W // P``: every block but two."""
    b = np.diff(np.arange(P + 1) * W // P)
    return 2 * W - b[(r - 1) % P] - b[r]


class TestAllreduceSchedule:
    """``Communicator.allreduce``: ``2 log2 P`` messages per rank on a
    power-of-two group, ``2 (P - 1)`` on any other, the ring's words, and
    the same bits on every rank."""

    @pytest.mark.parametrize("p", ALLREDUCE_GROUPS)
    def test_results_and_traffic(self, exec_backend, p):
        require_world_size(exec_backend, p)
        shapes = [(W,) for W in sorted({0, 1, p - 1, 2048, 2049})] + [(33, 62)]
        ops = (np.add, np.maximum)

        def body(comm):
            out = []
            for shape in shapes:
                for op in ops:
                    before = comm.profile.total()
                    got = comm.allreduce(_contribution(comm.rank, shape), op=op)
                    after = comm.profile.total()
                    out.append((
                        got,
                        after.messages_received - before.messages_received,
                        after.words_received - before.words_received,
                    ))
            return out

        results, _ = run_spmd(p, body, backend=exec_backend)
        log2 = p.bit_length() - 1
        messages = 2 * log2 if p == 1 << log2 else 2 * (p - 1)
        calls = [(shape, op) for shape in shapes for op in ops]
        for i, (shape, op) in enumerate(calls):
            first = results[0][i][0]
            assert first.shape == shape
            want = op.reduce(np.stack([_contribution(r, shape) for r in range(p)]))
            np.testing.assert_allclose(first, want, rtol=1e-12, atol=1e-12)
            W = int(np.prod(shape))
            ring = [_ring_words(W, p, r) for r in range(p)]
            words = [results[r][i][2] for r in range(p)]
            for r in range(p):
                assert results[r][i][0].tobytes() == first.tobytes(), (shape, r)
                assert results[r][i][1] == messages, (shape, r)
            # the rank sums always agree; rank by rank when P divides W
            assert sum(words) == sum(ring), shape
            if W % p == 0:
                assert words == ring, shape

    @pytest.mark.parametrize("p", range(1, 9))
    def test_records_stay_whole(self, exec_backend, p):
        """A ``(W, k)`` array is cut along axis 0 only: ``op`` always sees
        whole ``k``-word records (here it keeps the record with the larger
        key, which a split record would break), every rank returns the
        same bits, and the call takes the messages of one ``W``-element
        all-reduce and, rank by rank, ``k`` times its words."""
        require_world_size(exec_backend, p)
        rows = sorted({0, 1, p - 1, 2049})
        widths = (2, 3)

        def keep_larger_key(a, b):
            assert a.shape == b.shape and a.shape[1:] in {(k,) for k in widths}
            return np.where((a[:, 0] >= b[:, 0])[:, None], a, b)

        def measured(comm, arr, op):
            before = comm.profile.total()
            got = comm.allreduce(arr, op=op)
            after = comm.profile.total()
            return (
                got,
                after.messages_received - before.messages_received,
                after.words_received - before.words_received,
            )

        def body(comm):
            out = {}
            for W in rows:
                out[W] = measured(comm, _contribution(comm.rank, (W,)), np.add)
                for k in widths:
                    recs = _contribution(comm.rank, (W, k))
                    out[W, k, "add"] = measured(comm, recs, np.add)
                    out[W, k, "key"] = measured(comm, recs, keep_larger_key)
            return out

        results, _ = run_spmd(p, body, backend=exec_backend)
        log2 = p.bit_length() - 1
        messages = 2 * log2 if p == 1 << log2 else 2 * (p - 1)
        for W in rows:
            for k in widths:
                stack = np.stack([_contribution(r, (W, k)) for r in range(p)])
                larger = np.take_along_axis(
                    stack, stack[:, :, :1].argmax(axis=0)[None], axis=0
                )[0]
                want = {"add": stack.sum(axis=0), "key": larger}
                for kind in ("add", "key"):
                    first = results[0][W, k, kind][0]
                    assert first.shape == (W, k)
                    np.testing.assert_allclose(first, want[kind], rtol=1e-12)
                    for r in range(p):
                        got, msgs, words = results[r][W, k, kind]
                        assert got.tobytes() == first.tobytes(), (W, k, kind, r)
                        assert msgs == results[r][W][1] == messages
                        assert words == k * results[r][W][2], (W, k, kind, r)
                        if W % p == 0:
                            assert words == k * _ring_words(W, p, r)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_lower_rank_first(self, exec_backend, p):
        """Every block is reduced over the same halving tree, the lower
        rank's operand first: a non-commutative ``op`` shows the order."""
        require_world_size(exec_backend, p)

        def op(a, b):
            return 3.0 * a + b

        def body(comm):
            return comm.allreduce(np.full(2 * p + 1, float(comm.rank)), op=op)

        results, _ = run_spmd(p, body, backend=exec_backend)
        level = [float(r) for r in range(p)]
        while len(level) > 1:
            h = len(level) // 2
            level = [op(level[i], level[i + h]) for i in range(h)]
        for got in results:
            np.testing.assert_array_equal(got, np.full(2 * p + 1, level[0]))

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_record_op_lower_rank_first(self, exec_backend, p):
        """A non-commutative ``op`` on ``(rows, 2)`` records that mixes a
        record's words: each record is reduced whole, over the same
        halving tree, the lower rank's record first."""
        require_world_size(exec_backend, p)

        def op(a, b):
            return np.stack((3.0 * a[:, 0] + b[:, 1], a[:, 1] - b[:, 0]), axis=1)

        def body(comm):
            mine = np.tile([float(comm.rank), 10.0 + comm.rank], (2 * p + 1, 1))
            return comm.allreduce(mine, op=op)

        results, _ = run_spmd(p, body, backend=exec_backend)
        level = [np.array([[float(r), 10.0 + r]]) for r in range(p)]
        while len(level) > 1:
            h = len(level) // 2
            level = [op(level[i], level[i + h]) for i in range(h)]
        for got in results:
            np.testing.assert_array_equal(got, np.tile(level[0], (2 * p + 1, 1)))

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8])
    def test_duplicated_message_is_a_comm_error(self, exec_backend, p):
        """A duplicated reduce-scatter message repeats a stamp (at the
        latest the next call on the tag receives it): the retryable
        ``CommError``, not a broadcasting ``ValueError`` or a stale
        segment reduced in."""
        if exec_backend != "threads":
            pytest.skip("the fault plan is armed per process: threads only")
        faults = FaultPlan([FaultSpec("dup", tag=103, rank=0, times=1)])

        def body(comm):
            for W in (2049, 5):
                comm.allreduce(np.ones(W))

        with pytest.raises(RuntimeError) as err:
            run_spmd(p, body, faults=faults, deadline_ms=20_000)
        assert isinstance(err.value.__cause__, CommError)
        assert "lost or duplicated" in str(err.value.__cause__)


class TestSplit:
    def test_split_into_layers(self):
        def body(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            total = sub.allreduce_scalar(float(comm.rank))
            return (sub.size, total)

        results, _ = run_spmd(6, body)
        for r in range(6):
            assert results[r][0] == 3
            expected = sum(q for q in range(6) if q % 2 == r % 2)
            assert results[r][1] == expected

    def test_split_rank_ordering_by_key(self):
        def body(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        results, _ = run_spmd(4, body)
        assert results == [3, 2, 1, 0]

    def test_nested_splits_do_not_crosstalk(self):
        def body(comm):
            half = comm.split(color=comm.rank // 2, key=comm.rank)
            pair_sum = half.allreduce_scalar(float(comm.rank))
            again = comm.split(color=comm.rank % 2, key=comm.rank)
            stripe_sum = again.allreduce_scalar(float(comm.rank))
            return (pair_sum, stripe_sum)

        results, _ = run_spmd(4, body)
        assert results[0] == (1.0, 2.0)  # {0,1} and {0,2}
        assert results[3] == (5.0, 4.0)  # {2,3} and {1,3}

    def test_duplicated_metadata_is_a_comm_error(self):
        """A duplicated metadata message would take another rank's entry
        in the all-gather: its receiver raises on the repeated stamp
        instead of building a wrong group."""
        faults = FaultPlan([FaultSpec("dup", tag=108, rank=0, times=1)])

        def body(comm):
            return comm.split(color=comm.rank % 2, key=comm.rank).group

        with pytest.raises(RuntimeError) as err:
            run_spmd(4, body, faults=faults, deadline_ms=20_000)
        assert isinstance(err.value.__cause__, CommError)
        assert "lost or duplicated" in str(err.value.__cause__)

    def test_metadata_of_another_split_is_a_comm_error(self):
        """A duplicate of one split's last metadata message waits in its
        receiver's mailbox and takes the next split's first entry: the
        stale stamp raises in the next split."""
        faults = FaultPlan([FaultSpec("dup", tag=108, rank=0, index=2)])

        def body(comm):
            comm.split(color=0, key=comm.rank)
            comm.split(color=0, key=comm.rank)

        with pytest.raises(RuntimeError) as err:
            run_spmd(4, body, faults=faults, deadline_ms=20_000)
        assert isinstance(err.value.__cause__, CommError)
        assert "lost or duplicated" in str(err.value.__cause__)


class TestFailureHandling:
    def test_failing_rank_aborts_world(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            # rank 0 would otherwise block forever
            comm.recv(1, tag=9)

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, body)

    def test_profiles_length_validation(self):
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: None, profiles=[RankProfile()])


class TestSendOwned:
    def test_transfers_without_copy_and_send_still_isolates(self):
        def body(comm):
            mine = np.arange(4.0) + comm.rank
            handed = mine.copy()
            peer = 1 - comm.rank
            comm.send(peer, mine, tag=5)
            comm.send_owned(peer, handed, tag=6)
            return mine, handed, comm.recv(peer, tag=5), comm.recv(peer, tag=6)

        results, _ = run_spmd(2, body)
        for rank, (mine, handed, copied, owned) in enumerate(results):
            peer_mine, peer_handed = results[1 - rank][:2]
            assert np.array_equal(copied, peer_mine)
            assert not np.shares_memory(copied, peer_mine)
            assert owned is peer_handed  # handed over, not copied

    def test_duplicated_delivery_is_its_own_copy(self):
        """The duplicate of a handed-over payload carries the same stamp
        (so ``recv`` would raise on it) and shares no memory with the
        first delivery: read off the transport beneath the communicator."""
        faults = FaultPlan([FaultSpec("dup", tag=6, rank=0, times=1)])

        def body(comm):
            if comm.rank == 0:
                comm.send_owned(1, np.arange(3.0), tag=6)
                return None
            key = (comm.comm_id, 0, 6)
            return comm.world.collect(1, key), comm.world.collect(1, key)

        results, _ = run_spmd(2, body, faults=faults)
        (seq, first), (dup_seq, second) = results[1]
        assert seq == dup_seq == 0
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
