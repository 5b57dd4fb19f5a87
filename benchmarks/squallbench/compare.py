"""``compare A.json B.json``: is B worse than A, metric by metric?

One row per workload and end-to-end metric with both values, the
relative change, the bound and a verdict:

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       it is;
- ``unresolved``  the quartile spread recorded in either summary is
                  wider than the bound, so the pair cannot tell.

Summaries taken on different core counts, seeds, sizes or benchmark
versions are refused: like is only compared with like.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

#: a summary's keys that must match before two summaries are compared
LIKE_FOR_LIKE = ("version", "cpu_count", "seed", "seconds", "sizes", "quick")


class NotComparable(ValueError):
    pass


def load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def compare(first: Dict[str, object], second: Dict[str, object],
            catalogue) -> List[Dict[str, object]]:
    """Rows of the comparison; raises :class:`NotComparable`."""
    for key in LIKE_FOR_LIKE:
        if first.get(key) != second.get(key):
            raise NotComparable(
                f"{key} differs: {first.get(key)!r} vs {second.get(key)!r}")
    rows: List[Dict[str, object]] = []
    for workload, metrics_a in first["end_to_end"].items():
        metrics_b = second["end_to_end"][workload]
        for name, _unit, better, bound, _meaning in catalogue:
            a, b = metrics_a[name], metrics_b[name]
            change = (b["value"] - a["value"]) / a["value"]
            worse_by = change if better == "lower" else -change
            spread = max((entry["q3"] - entry["q1"]) / entry["value"]
                         for entry in (a, b))
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": a["unit"],
                "first": a["value"], "second": b["value"],
                "change": change, "spread": spread, "bound": bound,
                "verdict": verdict,
            })
    return rows


def main(argv: List[str]) -> int:
    from benchmarks.squallbench.metrics import END_TO_END

    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[0]), load(argv[1]), END_TO_END)
    except NotComparable as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<20}{'metric':<18}{'first':>14}{'second':>14}"
          f"{'change':>9}{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<18}"
              f"{row['first']:>14.4f}{row['second']:>14.4f}"
              f"{row['change']:>+9.1%}{row['spread']:>9.1%}"
              f"{row['bound']:>7.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
