"""Sample summaries and the two-sided comparison of benchmark result files.

A timing is reported as its median, the highest percentile of a fixed
ladder that still has at least ten samples beyond it, and the sample count.
The comparison pairs the i-th record of each side per workload and applies
the rules for claiming a gain or showing no regression: the change must win
at least nine pairs in ten with a median gap wider than the parent's own
quartile spread to count as improved; otherwise it is no worse, worse, or,
when the parent's spread exceeds the bound, unresolved.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
WIN_SHARE = 0.9


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: list[float]) -> dict:
    """Median, quartiles, sample count and the tail percentile, if any."""
    q1, median, q3 = quartiles(values)
    doc = {"n": len(values), "median": median, "q1": q1, "q3": q3, "tail_pct": None, "tail": None}
    for pct in PERCENTILE_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            doc["tail_pct"] = pct
            doc["tail"] = percentile(values, pct)
            break
    return doc


def format_timing(doc: dict) -> str:
    tail = (f"p{doc['tail_pct']:g} {doc['tail']:.6g}" if doc["tail_pct"] is not None
            else f"no tail percentile (needs >= {TAIL_MIN_BEYOND} samples beyond)")
    return f"median {doc['median']:.6g}, {tail}, n={doc['n']}"


def verdict(old: list[float], new: list[float], better: str, bound: float,
            more_failures: bool = False) -> str:
    """improved / no worse / worse / unresolved for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    q1, old_median, q3 = quartiles(old)
    new_median = quartiles(new)[1]
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gap = sign * (new_median - old_median)
    if not more_failures and wins >= WIN_SHARE * len(pairs) and gap > (q3 - q1):
        return "improved"
    every_run_better = all(sign * (b - a) > 0 for a in old for b in new)
    if old_median and (q3 - q1) / abs(old_median) > bound and not every_run_better:
        return "unresolved"
    if gap < -bound * abs(old_median):
        return "worse"
    return "no worse"


def load_records(path: Path) -> dict[str, list[dict]]:
    """Untraced result records of a JSONL file, grouped by workload in file order."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                groups[record["workload"]].append(record)
    return groups


def compare(old_path: Path, new_path: Path, manifest: dict) -> list[str]:
    """Table lines comparing two result files, per workload and end-to-end metric."""
    old, new = load_records(old_path), load_records(new_path)
    lines = [f"{'workload':16s} {'metric':20s} {'old median [q1, q3]':>34s} "
             f"{'new median [q1, q3]':>34s}  n(old/new)  verdict"]
    for workload in sorted(set(old) & set(new)):
        failed_old = sum(r["failed"] for r in old[workload])
        failed_new = sum(r["failed"] for r in new[workload])
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old[workload] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, metric["better"], metric["bound"], failed_new > failed_old)
            lines.append(
                f"{workload:16s} {name:20s} {qa[1]:12.6g} [{qa[0]:9.6g}, {qa[2]:9.6g}] "
                f"{qb[1]:12.6g} [{qb[0]:9.6g}, {qb[2]:9.6g}]  {len(a):>4d}/{len(b):<4d}  {result}"
            )
        lines.append(f"{workload:16s} failures: old {failed_old}, new {failed_new}")
    for workload in sorted(set(old) ^ set(new)):
        lines.append(f"{workload:16s} only in {'old' if workload in old else 'new'} file; not compared")
    return lines
