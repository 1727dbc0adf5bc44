#!/usr/bin/env python3
"""Do two result files of ``run.py`` agree within the benchmark's bounds?

    python3 benchmarks/e2e/compare.py REFERENCE.json CANDIDATE.json [--symmetric]

For every workload x end-to-end metric the candidate may be worse than the
reference by at most the metric's bound (direction-aware).  Counts the
program makes (``exact`` in ``e2ebench/spec.py``) must be *equal* when both
files were taken on one seed.  ``--symmetric`` also checks the reference
against the candidate: "two runs of the same code agree".  Exits non-zero
naming metric x workload on every violation.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2ebench.agree import compare  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reference", type=Path)
    ap.add_argument("candidate", type=Path)
    ap.add_argument("--symmetric", action="store_true")
    args = ap.parse_args(argv)
    violations = compare(json.loads(args.reference.read_text()),
                         json.loads(args.candidate.read_text()), args.symmetric)
    for v in violations:
        print(f"VIOLATION {v}")
    if not violations:
        print("agree: every workload x end-to-end metric within its bound")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
