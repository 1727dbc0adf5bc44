"""Do two result files of ``run.py`` agree within the benchmark's bounds?"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from e2ebench import spec


def _worse_by(metric: spec.Metric, ref: float, cand: float) -> float:
    """Share of ``ref`` by which ``cand`` is worse (negative = better)."""
    delta = cand - ref if metric.better == "lower" else ref - cand
    if ref == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(ref)


def compare(
    reference: Dict[str, Any], candidate: Dict[str, Any], symmetric: bool = False
) -> List[str]:
    """Violations of ``candidate`` against ``reference``, as readable lines."""
    same_seed = reference["provenance"]["seed"] == candidate["provenance"]["seed"]
    out: List[str] = []
    for name in spec.WORKLOAD_NAMES:
        try:
            ref = reference["workloads"][name]["untraced"]["end_to_end"]
            cand = candidate["workloads"][name]["untraced"]["end_to_end"]
        except KeyError:
            out.append(f"* x {name}: workload missing from one file")
            continue
        for m in spec.END_TO_END:
            a, b = ref.get(m.name), cand.get(m.name)
            where = f"{m.name} x {name}"
            if a is None or b is None:
                out.append(f"{where}: missing ({a!r} vs {b!r})")
            elif m.name == "failed_frac" and b > 0:
                out.append(f"{where}: {b:.3g} of the candidate's ops failed")
            elif m.exact and same_seed:
                # equal counts; the per-op division may round differently
                # when the two runs timed different numbers of ops
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0):
                    out.append(f"{where}: exact count changed, {a!r} -> {b!r}")
            else:
                sides = [(a, b)] + ([(b, a)] if symmetric else [])
                worst = max(_worse_by(m, x, y) for x, y in sides)
                if worst > m.bound:
                    out.append(f"{where}: {a:.6g} vs {b:.6g} {m.unit}, worse by "
                               f"{worst:.1%} > bound {m.bound:.0%}")
    return out
