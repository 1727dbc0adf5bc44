"""The fault plane sits at the transport seam, not behind it.

A worker pool handed a :class:`~repro.runtime.faults.FaultPlan` arms each
rank with :meth:`FaultPlan.rank_view`: a ``Transport`` decorator the
rank's communicators send through, and the site hook of its profiles.
Three things pin that:

* the armed rank, with an empty plan, honours the ``World`` contract
  (ARCHITECTURE.md, "The Transport contract") — per-key FIFO, abort,
  deadline, reset — by forwarding to the pool's transport;
* a ``drop`` bites on every send path, so none bypasses the decorator;
* an AST gate like ``test_layering.py``: only ``runtime/faults.py``
  knows what a fault does, no transport or communicator holds a plan,
  and the mpi fault rule is stated once, in ``resolve()``.
"""

from __future__ import annotations

import ast
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.comm_sparse import TAG_SPARSE_AG, CommPlan, PackedIndex, PeerExchange
from repro.comm_sparse.collectives import sparse_allgatherv_packed
from repro.errors import SpmdAbort, SpmdTimeout
from repro.runtime.backend import Transport, World
from repro.runtime.faults import FaultPlan, RankFaults
from repro.runtime.spmd import WorkerPool, run_spmd

SRC = Path(repro.__file__).parent
KEY = ((0,), 0, 7)
OTHER = ((0,), 0, 8)


def armed_world(nranks: int = 2):
    world = World(nranks)
    return world, FaultPlan([]).rank_view(0, world)


class TestArmedTransportContract:
    def test_is_a_transport_forwarding_the_surface(self):
        world, armed = armed_world(3)
        assert isinstance(armed, Transport)
        assert armed.nranks == 3
        assert armed.abort_event is world.abort_event
        assert armed.blocked is world.blocked
        assert armed.active_profiles is world.active_profiles

    def test_per_key_fifo(self):
        _, armed = armed_world()
        for i in range(4):
            armed.deliver(1, KEY, np.array([float(i)]))
            armed.deliver(1, OTHER, np.array([-1.0]))
        got = [float(armed.collect(1, KEY)[0]) for _ in range(4)]
        assert got == [0.0, 1.0, 2.0, 3.0]
        assert float(armed.collect(1, OTHER)[0]) == -1.0

    def test_abort_wakes_a_blocked_collect(self):
        world, armed = armed_world()
        raised = []

        def waiter():
            try:
                armed.collect(1, KEY)
            except SpmdAbort as exc:
                raised.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        deadline = time.monotonic() + 5.0
        while 1 not in world.blocked and time.monotonic() < deadline:
            time.sleep(0.005)
        armed.abort()
        t.join(timeout=5.0)
        assert not t.is_alive() and len(raised) == 1
        with pytest.raises(SpmdAbort):
            armed.deliver(1, KEY, None)

    def test_deadline_raises_timeout_with_dump(self):
        world, armed = armed_world()
        armed.deadline = time.perf_counter() + 0.1
        assert world.deadline == armed.deadline  # set on the pool's transport
        with pytest.raises(SpmdTimeout) as err:
            armed.collect(1, KEY)
        [entry] = err.value.dump
        assert (entry["rank"], entry["tag"]) == (1, 7)
        assert entry["waiting_for_comm_rank"] == 0

    def test_reset_restores_a_usable_transport(self):
        world, armed = armed_world()
        armed.deliver(1, KEY, np.array([1.0]))  # undelivered at the abort
        armed.deadline = time.perf_counter() + 60.0
        armed.abort()
        armed.reset()
        assert not world.abort_event.is_set() and armed.deadline is None
        armed.deliver(1, KEY, np.array([2.0]))
        assert float(armed.collect(1, KEY)[0]) == 2.0


class TestPoolsArmRanks:
    def test_disarmed_ranks_sit_on_the_bare_transport(self):
        with WorkerPool(2) as pool:
            assert all(pool.comm(r).world is pool.world for r in range(2))

    def test_armed_ranks_and_their_splits_send_through_the_decorator(self):
        with WorkerPool(2, faults=FaultPlan([])) as pool:
            for r in range(2):
                assert isinstance(pool.comm(r).world, RankFaults)
            results, _ = pool.run(lambda comm: comm.split(0, comm.rank).world)
            assert all(w is pool.comm(r).world for r, w in enumerate(results))


def _need_list_gather(comm):
    """A two-rank packed need-list all-gather (``send_owned`` legs)."""
    r, width = comm.rank, 2
    peer = PeerExchange(
        peer=1 - r,
        send_rows=np.array([0], dtype=np.int64),
        recv_rows=np.array([1 - r], dtype=np.int64),
        send_width=width,
        recv_width=width,
    )
    plan = CommPlan(key="pair", size=2, rank=r, peers=(peer,))
    out = np.zeros((2, width))
    return sparse_allgatherv_packed(
        comm, plan, PackedIndex.from_rows(np.arange(2), 2),
        np.full((1, width), float(r)), out,
    )


#: (send path, tag rank 0 sends it on, SPMD body on two ranks)
SEND_PATHS = [
    (
        "send-recv", 7,
        lambda comm: comm.send(1, np.ones(2), tag=7)
        if comm.rank == 0 else comm.recv(0, tag=7),
    ),
    ("shift", 5, lambda comm: comm.shift(np.ones(2), tag=5)),
    ("allgather", 101, lambda comm: comm.allgather(np.ones(2), tag=101)),
    ("alltoallv", 109, lambda comm: comm.alltoallv([np.ones(1)] * 2, tag=109)),
    ("untracked split metadata", 108, lambda comm: comm.split(0, comm.rank).rank),
    ("packed need-list exchange", TAG_SPARSE_AG, _need_list_gather),
]


class TestDropBitesOnEverySendPath:
    @pytest.mark.parametrize(
        "tag,body", [p[1:] for p in SEND_PATHS], ids=[p[0] for p in SEND_PATHS]
    )
    def test_drop(self, tag, body):
        run_spmd(2, body, deadline_ms=5_000)  # completes without the fault
        plan = FaultPlan.drop_message(tag=tag, rank=0, times=None)
        with pytest.raises(SpmdTimeout):
            run_spmd(2, body, deadline_ms=300, faults=plan)
        assert plan.fired_log[0] == (0, "drop", f"tag={tag}")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _class(rel: str, name: str) -> ast.ClassDef:
    tree = ast.parse((SRC / rel).read_text())
    return next(
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name
    )


class TestTheGate:
    ACTIONS = {"drop", "delay", "dup", "crash", "straggler", "exhaust"}

    def test_only_faults_py_knows_what_a_fault_does(self):
        offenders = []
        for rel, tree in _modules():
            if rel == "runtime/faults.py":
                continue
            for node in ast.walk(tree):
                # FaultPlan.on_send(rank, tag); RankProfile.on_send(words)
                # is the traffic counter
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and (node.func.attr, len(node.args))
                    in (("on_send", 2), ("on_site", 3))
                    or isinstance(node, ast.Attribute) and node.attr == "action"
                    or isinstance(node, ast.Constant) and node.value in self.ACTIONS
                    or isinstance(node, ast.Name)
                    and node.id in ("InjectedCrash", "InjectedExhaustion")
                ):
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize(
        "rel,name",
        [
            ("runtime/backend.py", "Transport"),
            ("runtime/backend.py", "World"),
            ("runtime/backend_mpi.py", "MpiTransport"),
            ("runtime/comm.py", "Communicator"),
        ],
    )
    def test_no_transport_or_communicator_holds_a_plan(self, rel, name):
        names = {
            getattr(node, field)
            for node in ast.walk(_class(rel, name))
            for field in ("attr", "id", "arg")
            if isinstance(getattr(node, field, None), str)
        }
        assert not {
            n for n in names
            if any(part.startswith("fault") for part in n.lower().split("_"))
        }

    def test_the_mpi_fault_rule_is_stated_once_in_resolve(self):
        hits = [
            rel
            for rel, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("fault injection is thread-backend-only")
        ]
        assert hits == ["model/resolve.py"]
