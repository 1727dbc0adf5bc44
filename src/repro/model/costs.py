"""Closed-form communication costs (paper Table III).

Every function returns per-rank costs in the paper's convention — the
maximum number of 8-byte *words received* and messages per processor over
a full FusedMM — split into the replication (fiber collectives) and
propagation (cyclic shifts) components so the Figure 5 breakdown can be
modeled as well.

The paper's table rows are reproduced term for term; rows the paper omits
(the un-elided sparse-shifting variant benchmarked in Figure 4, and the
un-elided 2.5D dense-replicating variant) are derived with the same
method: an extra all-gather of the replicated dense input.

All formulas assume ``m ~= n`` (as the paper's analysis does) and are
parameterized by ``phi = nnz(S) / (n r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError
from repro.types import Elision

#: canonical cost-row keys: "<algorithm>/<elision>"
PAPER_COST_ROWS: Tuple[str, ...] = (
    "1.5d-dense-shift/none",
    "1.5d-dense-shift/replication-reuse",
    "1.5d-dense-shift/local-kernel-fusion",
    "1.5d-sparse-shift/none",
    "1.5d-sparse-shift/replication-reuse",
    "2.5d-dense-replicate/none",
    "2.5d-dense-replicate/replication-reuse",
    "2.5d-sparse-replicate/none",
)


@dataclass(frozen=True)
class CostBreakdown:
    """Per-rank FusedMM communication costs split by phase."""

    replication_words: float
    propagation_words: float
    replication_messages: float
    propagation_messages: float

    @property
    def words(self) -> float:
        return self.replication_words + self.propagation_words

    @property
    def messages(self) -> float:
        return self.replication_messages + self.propagation_messages

    def time(self, machine, flops: float = 0.0) -> float:
        """alpha-beta(-gamma) time of this cost on ``machine``."""
        return machine.time(self.words, self.messages, flops)


def row_key(algorithm: str, elision: Elision) -> str:
    return f"{algorithm}/{elision.value}"


def fusedmm_flops(nnz: int, r: int, p: int) -> float:
    """Per-rank FLOPs of one load-balanced FusedMM: an SDDMM (2 nnz r) and
    an SpMM (2 nnz r) divided over p ranks."""
    return 4.0 * nnz * r / p


def fusedmm_cost(key: str, n: int, r: int, p: int, c: int, phi: float) -> CostBreakdown:
    """Table III cost of one FusedMM call for the given row ``key``.

    ``n`` is the sparse-matrix side length, ``r`` the embedding width,
    ``p`` the processor count, ``c`` the replication factor and ``phi``
    the nonzero ratio ``nnz/(n r)``.
    """
    if c < 1 or p < 1 or c > p or p % c:
        raise ReproError(f"invalid (p, c) = ({p}, {c})")
    nr = float(n) * r
    ag = nr * (c - 1) / p  # one all-gather / reduce-scatter of the dense panel
    ag_m = float(c - 1)

    if key.startswith("1.5d"):
        shifts_round_m = p / c  # p/c cyclic shifts per kernel round
        if key == "1.5d-dense-shift/none":
            return CostBreakdown(2 * ag, 2 * nr / c, 2 * ag_m, 2 * shifts_round_m)
        if key == "1.5d-dense-shift/replication-reuse":
            return CostBreakdown(ag, 2 * nr / c, ag_m, 2 * shifts_round_m)
        if key == "1.5d-dense-shift/local-kernel-fusion":
            return CostBreakdown(2 * ag, nr / c, 2 * ag_m, shifts_round_m)
        if key == "1.5d-sparse-shift/none":
            return CostBreakdown(2 * ag, 6 * phi * nr / c, 2 * ag_m, 2 * shifts_round_m)
        if key == "1.5d-sparse-shift/replication-reuse":
            # paper Eq. (2): 6 nnz / c + n r (c-1) / p
            return CostBreakdown(ag, 6 * phi * nr / c, ag_m, 2 * shifts_round_m)
    else:
        q = math.isqrt(p // c)
        if q * q * c != p:
            raise ReproError(f"2.5D rows need p/c a perfect square, got p={p}, c={c}")
        if key == "2.5d-dense-replicate/none":
            prop = (6 * phi + 2) * nr * q / p  # = (6 phi + 2) nr / sqrt(p c)
            return CostBreakdown(2 * ag, prop, 2 * ag_m, 4 * q)
        if key == "2.5d-dense-replicate/replication-reuse":
            prop = (6 * phi + 2) * nr * q / p
            return CostBreakdown(ag, prop, ag_m, 4 * q)
        if key == "2.5d-sparse-replicate/none":
            # fiber: all-gather + reduce-scatter + all-gather of the VALUES
            # only (1 word per nonzero): 3 phi nr (c-1)/p
            repl = 3 * phi * nr * (c - 1) / p
            prop = 4 * nr * q / p  # = 4 nr / sqrt(p c)
            return CostBreakdown(repl, prop, 3 * ag_m, 4 * q)
    raise ReproError(f"unknown cost row {key!r}; options: {PAPER_COST_ROWS}")


#: per algorithm and round: the read-only lanes of one propagation round,
#: as the size of their home payload — ``"piece"`` a dense block / piece
#: (``n r / p`` words), ``"chunk"`` a cold sparse chunk (``3 nnz / p``).
#: Accumulator lanes (an SpMMB's dense output, a 2.5D sparse-replicating
#: SpMM's output piece, an SDDMM's chunk values) are not listed: they
#: keep every hop.  A local-kernel-fusion round reads B as an SDDMM does.
_READ_ONLY_LANES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "1.5d-dense-shift": {"sddmm": ("piece",), "spmm_a": ("piece",), "spmm_b": ()},
    "1.5d-sparse-shift": {"sddmm": (), "spmm_a": ("chunk",), "spmm_b": ("chunk",)},
    "2.5d-dense-replicate": {
        "sddmm": ("piece",), "spmm_a": ("chunk", "piece"), "spmm_b": ("chunk",),
    },
    "2.5d-sparse-replicate": {
        "sddmm": ("piece", "piece"), "spmm_a": ("piece",), "spmm_b": ("piece",),
    },
}

#: (elision, FusedMM variant) -> the rounds its rank procedure runs; the
#: variant that is not an elision's native one runs the native procedure
#: on the transposed sibling, the same rounds (m ~= n)
_FUSED_ROUNDS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("none", "a"): ("sddmm", "spmm_a"),
    ("none", "b"): ("sddmm", "spmm_b"),
    ("replication-reuse", "a"): ("sddmm", "spmm_b"),
    ("replication-reuse", "b"): ("sddmm", "spmm_b"),
    ("local-kernel-fusion", "a"): ("sddmm",),
    ("local-kernel-fusion", "b"): ("sddmm",),
}


def _ring_size(algorithm: str, p: int, c: int) -> int:
    """Ranks on one propagation ring: a 1.5D layer, a 2.5D grid row."""
    return p // c if algorithm.startswith("1.5d") else math.isqrt(p // c)


def _home_hops(
    algorithm: str, rounds: Tuple[str, ...], table: CostBreakdown,
    n: int, r: int, p: int, c: int, phi: float,
) -> CostBreakdown:
    """The part of ``table``'s propagation that ``rounds`` do not move:
    one hop of words and one message per read-only lane, or everything
    on a one-rank ring."""
    if _ring_size(algorithm, p, c) == 1:
        return CostBreakdown(
            0.0, table.propagation_words, 0.0, table.propagation_messages
        )
    size = {"piece": float(n) * r / p, "chunk": 3 * phi * n * r / p}
    lanes = [lane for mode in rounds for lane in _READ_ONLY_LANES[algorithm][mode]]
    return CostBreakdown(0.0, sum(size[lane] for lane in lanes), 0.0, len(lanes))


def home_hops(
    key: str, variant: str, n: int, r: int, p: int, c: int, phi: float
) -> CostBreakdown:
    """Table III traffic a *cold* FusedMM call does not move.

    Table III charges every propagation round a full ring of shifts (``p/c``
    on 1.5D, ``q`` on 2.5D), but a lane the round only reads comes home on
    its last shift carrying a block its owner never gave up, so
    ``ring_loop`` takes the home payload instead of that message.  This
    counts one hop of words and one message per read-only lane per round
    of ``key``'s FusedMMA (``variant="a"``) or FusedMMB (``"b"``) — and on
    a one-rank ring every hop is a home hop: all of the propagation.  A
    cold call moves exactly ``fusedmm_cost(...) − home_hops(...)``;
    warm chunk rounds save more (``CarriedCoords``).
    """
    table = fusedmm_cost(key, n, r, p, c, phi)  # validates key and grid
    algorithm, elision = key.split("/", 1)
    rounds = _FUSED_ROUNDS.get((elision, variant))
    if rounds is None:
        raise ReproError(f"unknown FusedMM variant {variant!r}; options: 'a', 'b'")
    return _home_hops(algorithm, rounds, table, n, r, p, c, phi)


def fusedmm_cost_paper(
    key: str, n: int, r: int, p: int, c: int, phi: float
) -> Tuple[float, float]:
    """(words, messages) exactly as printed in the paper's Table III.

    Provided separately from :func:`fusedmm_cost` so tests can check the
    two agree — our implemented algorithms realize the table's costs.
    """
    nr = float(n) * r
    sq_pc = math.sqrt(p * c)
    sq_p_over_c = math.sqrt(p / c)
    table: Dict[str, Tuple[float, float]] = {
        "1.5d-dense-shift/replication-reuse": (
            nr * (2 / c + (c - 1) / p),
            2 * p / c + (c - 1),
        ),
        "1.5d-dense-shift/local-kernel-fusion": (
            nr * (1 / c + 2 * (c - 1) / p),
            p / c + 2 * (c - 1),
        ),
        "1.5d-sparse-shift/replication-reuse": (
            nr * (6 * phi / c + (c - 1) / p),
            2 * p / c + (c - 1),
        ),
        "2.5d-dense-replicate/replication-reuse": (
            nr
            / sq_pc
            * (6 * phi + 2 + c**1.5 / math.sqrt(p) - math.sqrt(c) / math.sqrt(p)),
            4 * sq_p_over_c + (c - 1),
        ),
        "2.5d-sparse-replicate/none": (
            nr / math.sqrt(p) * (4 / math.sqrt(c) + 3 * phi * (c - 1) / math.sqrt(p)),
            4 * sq_p_over_c + 3 * (c - 1),
        ),
    }
    if key not in table:
        raise ReproError(f"row {key!r} is not printed in the paper's Table III")
    return table[key]


# ----------------------------------------------------------------------
# sparse-communication extension (comm="sparse", repro.comm_sparse)
# ----------------------------------------------------------------------


def expected_unique(universe: float, draws: float) -> float:
    """E[#distinct bins hit] by ``draws`` uniform draws over ``universe``.

    The Erdős–Rényi coverage expectation ``u (1 - (1 - 1/u)^d)`` that
    turns a nonzero count into the number of dense rows a need list will
    actually request.  Saturates at ``universe`` (dense-like inputs gain
    nothing from sparse communication) and degrades gracefully to
    ``draws`` when the matrix is hypersparse.
    """
    u, d = float(universe), float(draws)
    if u <= 0.0 or d <= 0.0:
        return 0.0
    return u * -math.expm1(d * math.log1p(-1.0 / u)) if u > 1.0 else u


def sparse_comm_discount(
    algorithm: str, n: int, r: int, p: int, c: int, phi: float
) -> float:
    """Fraction of the dense-row traffic that survives under need lists.

    For the 1.5D sparse-shifting layout the fiber collectives move the
    rows one *layer*'s ``nnz/c`` nonzeros touch out of ``n``; for the
    2.5D sparse-replicating layout the neighborhood exchanges move the
    rows one *coarse block*'s ``nnz/q^2`` nonzeros touch out of ``n/q``
    (times the ``(q-1)/q`` fraction a ring would also not ship).  Dense
    families have no sparse path, so their discount is 1.
    """
    nnz = phi * float(n) * r
    if algorithm == "1.5d-sparse-shift":
        return expected_unique(n, nnz / c) / float(n) if n else 1.0
    if algorithm == "2.5d-sparse-replicate":
        q = math.isqrt(p // c)
        if q * q * c != p:
            raise ReproError(f"2.5D rows need p/c a perfect square, got p={p}, c={c}")
        if q == 1 or n == 0:
            return 1.0
        block_rows = n / q
        return expected_unique(block_rows, nnz / (q * q)) / block_rows
    return 1.0


def fusedmm_buffer_words(
    key: str, n: int, r: int, p: int, c: int, phi: float, sparse_comm: bool = False
) -> float:
    """Peak per-rank *panel buffer* words of one FusedMM call (memory term).

    Models the largest transient dense buffer each implementation holds —
    the quantity :class:`~repro.runtime.profile.RankProfile` tracks as
    ``peak_buffer_bytes`` (in 8-byte words here):

    * 1.5D families gather an ``n x (r c / p)`` panel; under packed
      sparse communication it shrinks to the expected need-list coverage
      of ``n`` (the stream-compaction win).
    * The 2.5D dense-replicating family and the *dense-comm* path of the
      sparse-replicating family only ever hold piece-sized circulating
      buffers (``n r / p`` words).
    * The 2.5D sparse-comm path trades the ``q``-phase ring for one-shot
      strip-wide gathers: two packed ``coverage * (n/q) x (r/c)`` panels
      (A and B).  This can *exceed* the dense path's footprint when
      coverage is high — exactly why ``choose_comm_mode`` weighs this
      term and not traffic alone.
    """
    nr = float(n) * r
    algorithm = key.split("/", 1)[0]
    if algorithm.startswith("1.5d"):
        panel = nr * c / p
        if sparse_comm and algorithm == "1.5d-sparse-shift":
            panel *= sparse_comm_discount(algorithm, n, r, p, c, phi)
        return panel
    q = math.isqrt(p // c)
    if q * q * c != p:
        raise ReproError(f"2.5D rows need p/c a perfect square, got p={p}, c={c}")
    if not (sparse_comm and algorithm == "2.5d-sparse-replicate"):
        return nr / p  # circulating piece buffers only
    disc = sparse_comm_discount(algorithm, n, r, p, c, phi)
    return 2.0 * disc * nr / (q * c)


def fusedmm_cost_sparse(
    key: str, n: int, r: int, p: int, c: int, phi: float
) -> CostBreakdown:
    """Table III row under need-list sparse communication.

    The dense-row-moving term of the row (fiber replication for the 1.5D
    sparse-shifting family, Cannon propagation for the 2.5D
    sparse-replicating family) is scaled by the expected need-list
    coverage; everything already proportional to ``nnz`` is unchanged.
    """
    dense = fusedmm_cost(key, n, r, p, c, phi)
    algorithm = key.split("/", 1)[0]
    disc = sparse_comm_discount(algorithm, n, r, p, c, phi)
    if algorithm == "1.5d-sparse-shift":
        return CostBreakdown(
            replication_words=dense.replication_words * disc,
            propagation_words=dense.propagation_words,
            replication_messages=dense.replication_messages,
            propagation_messages=dense.propagation_messages,
        )
    if algorithm == "2.5d-sparse-replicate":
        q = math.isqrt(p // c)
        # one neighborhood gather replaces q ring shifts: (q-1)/q of the
        # strip-wide rows arrive, from q-1 direct messages per exchange —
        # and a fused call makes three exchanges, not the table's four
        # panel moves: the SDDMM round's panel of the SpMM's input side
        # feeds the SpMM round (gather A, gather B, reduce the output)
        moved = 0.75 * (q - 1) / max(q, 1)
        prop = dense.propagation_words * disc * moved
        prop_m = dense.propagation_messages * moved
        return CostBreakdown(
            replication_words=dense.replication_words,
            propagation_words=prop,
            replication_messages=dense.replication_messages,
            propagation_messages=prop_m,
        )
    raise ReproError(
        f"no sparse-communication cost row for {key!r} "
        f"(only the sparse-shifting / sparse-replicating families qualify)"
    )


def kernel_cost(
    algorithm: str, mode: str, n: int, r: int, p: int, c: int, phi: float
) -> CostBreakdown:
    """Cost of one *single* (non-fused) cold kernel call, as implemented.

    Every unified kernel is one propagation round plus the fiber
    collectives its mode requires: SDDMM and SpMMB replicate the input A
    (all-gather); SpMMA reduces the output (reduce-scatter); the 2.5D
    sparse-replicating kernels move value arrays instead.  The round's
    read-only lanes skip their hop home (:func:`home_hops`), and a
    one-rank ring moves nothing.
    """
    nr = float(n) * r
    ag = nr * (c - 1) / p
    ag_m = float(c - 1)
    if algorithm == "1.5d-dense-shift":
        full = CostBreakdown(ag, nr / c, ag_m, p / c)
    elif algorithm == "1.5d-sparse-shift":
        full = CostBreakdown(ag, 3 * phi * nr / c, ag_m, p / c)
    elif algorithm == "2.5d-dense-replicate":
        q = math.isqrt(p // c)
        full = CostBreakdown(ag, (3 * phi + 1) * nr * q / p, ag_m, 2 * q)
    elif algorithm == "2.5d-sparse-replicate":
        q = math.isqrt(p // c)
        nfiber = 2.0 if mode == "sddmm" else 1.0
        full = CostBreakdown(
            nfiber * phi * nr * (c - 1) / p, 2 * nr * q / p, nfiber * ag_m, 2 * q
        )
    else:
        raise ReproError(f"unknown algorithm {algorithm!r}")
    saved = _home_hops(algorithm, (mode,), full, n, r, p, c, phi)
    return CostBreakdown(
        full.replication_words,
        full.propagation_words - saved.propagation_words,
        full.replication_messages,
        full.propagation_messages - saved.propagation_messages,
    )
