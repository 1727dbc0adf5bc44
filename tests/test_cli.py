"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.types import Phase


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "--p", "16"]) == 0
        out = capsys.readouterr().out
        assert "1.5d-dense-shift" in out
        assert "local-kernel-fusion" in out
        assert "[1, 4, 16]" in out  # 2.5D feasibility at p=16

    def test_predict(self, capsys):
        assert main(["predict", "--n", "65536", "--r", "128",
                     "--nnz-per-row", "8", "--p", "64"]) == 0
        out = capsys.readouterr().out
        assert "predicted winner:" in out
        assert "phi=" in out

    def test_predict_low_phi_prefers_sparse_shift(self, capsys):
        main(["predict", "--n", "65536", "--r", "256",
              "--nnz-per-row", "4", "--p", "256"])
        out = capsys.readouterr().out
        assert "predicted winner: 1.5d-sparse-shift" in out

    def test_predict_agrees_with_the_session(self, capsys):
        """``predict`` prints the joint candidate table and the triple
        ``plan(algorithm="auto", ...)`` resolves to (its dense-rows-only
        winner used to contradict ``run`` on this shape)."""
        import repro

        flags = ["--n", "2048", "--r", "64", "--nnz-per-row", "8", "--p", "4",
                 "--elision", "none", "--comm", "auto"]
        assert main(["predict", *flags]) == 0
        out = capsys.readouterr().out
        S = repro.erdos_renyi(2048, 2048, 8, seed=0)
        with repro.plan(S, 64, p=4, elision="none", comm="auto") as sess:
            plan = sess.explain()
        assert (
            f"predicted winner: {plan.why['algorithm']['row']}  c={plan.c}  "
            f"comm={plan.comm_mode.value}\n"
        ) in out
        assert "2.5d-sparse-replicate/none  c=4  comm=sparse\n" in out
        assert "placement=spread  (grain 524,288 FLOPs per local kernel call" in out
        assert "layout=natural  (shape statistics only" in out
        # one line per (row, c, comm) candidate
        table = plan.why["algorithm"]["candidates"]
        assert sum(" ms " in line for line in out.splitlines()) == len(table)

    def test_run_executes(self, capsys):
        assert main(["run", "--n", "256", "--r", "16", "--p", "4",
                     "--algorithm", "1.5d-dense-shift",
                     "--elision", "local-kernel-fusion"]) == 0
        out = capsys.readouterr().out
        assert "output shape: (256, 16)" in out
        assert "modeled time" in out
        assert "placement=packed" in out and '"placement": "packed"' in out
        # an ER operand's blocks are balanced: both statistics, one line
        assert "layout=natural  (block imbalance 1." in out
        assert "union proxy" in out and '"layout": "natural"' in out

    def test_run_trace_out_writes_phase_spans_for_every_rank(self, tmp_path, capsys):
        """`run --trace-out` end to end: the file the CLI leaves behind is
        a Chrome trace-event document with duration spans for all three
        paper phases on each of the p ranks."""
        out = tmp_path / "trace.json"
        assert main(["run", "--n", "256", "--r", "16", "--p", "4",
                     "--algorithm", "1.5d-sparse-shift", "--comm", "sparse",
                     "--calls", "2",
                     "--trace-out", str(out)]) == 0
        assert str(out) in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        for rank in range(4):
            phases = {e["name"] for e in events
                      if e["ph"] == "X" and e["tid"] == rank
                      and e["cat"] == "phase"}
            assert {Phase.REPLICATION.value, Phase.PROPAGATION.value,
                    Phase.COMPUTATION.value} <= phases, (rank, phases)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
