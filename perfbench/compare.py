"""Compare two sets of benchmark runs, a parent's and a change's.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out``.  Make them by running
the parent and the change alternately, with the same workloads, seeds and
``--seconds``; the k-th record of a workload in one file is paired with the
k-th in the other.

One row per (workload, metric).  End-to-end metrics come from untraced
records and are judged against their bound in BENCHMARK.json:

- ``unresolved``: the parent's own spread (interquartile range over median)
  is wider than the bound, and not every change run beats every parent run;
- ``REGRESSED``: the change's median is worse by more than the bound;
- ``gain``: the change wins at least nine tenths of the pairs, ties counting
  for neither side, over at least ten pairs, and the medians differ by more
  than the parent's interquartile range;
- ``within bound`` otherwise.

Per-layer metrics come from traced records.  They have no bound; their rows
read ``gain``, ``loss`` (the same pair rule the other way) or ``no clear
change``.  The exit code is 1 when any row reads REGRESSED.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    records = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                records[(record["workload"], record["trace"])].append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_rule(parent, change, lower_is_better: bool) -> bool:
    """The change wins at least nine tenths of the pairs and the medians
    differ, in its favour, by more than the parent's interquartile range."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, med, q3 = quartiles(parent)
    gap = sign * (med - statistics.median(change))
    return wins >= WIN_SHARE * len(pairs) and gap > q3 - q1


def verdict(parent, change, lower_is_better: bool, bound: float | None) -> str:
    q1, med, q3 = quartiles(parent)
    if bound is None:
        if pair_rule(parent, change, lower_is_better):
            return "gain"
        if pair_rule(parent, change, not lower_is_better):
            return "loss"
        return "no clear change"
    worse = statistics.median(change) - med
    if not lower_is_better:
        worse = -worse
    spread = (q3 - q1) / med if med else 0.0
    if spread > bound:
        beats = all((c < p) if lower_is_better else (c > p) for c in change for p in parent)
        return "better in every run" if beats else "unresolved"
    if med and worse / abs(med) > bound:
        return "REGRESSED"
    if pair_rule(parent, change, lower_is_better):
        return "gain"
    return "within bound"


def main(parent_path: str, change_path: str, bench: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    groups = [(0, bench["end_to_end"]), (1, bench["per_layer"])]
    print(f"{'workload':<16} {'metric':<46} {'parent median [q1, q3]':>30} "
          f"{'change median':>14} {'delta':>8}  n  verdict")
    regressed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in groups:
            p_runs = parent.get((workload, trace), [])
            c_runs = change.get((workload, trace), [])
            if not p_runs or not c_runs:
                continue
            for metric in metrics:
                name = metric["name"]
                p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
                c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
                if not p or not c:
                    continue
                q1, med, q3 = quartiles(p)
                c_med = statistics.median(c)
                delta = f"{(c_med - med) / med:+.1%}" if med else "n/a"
                result = verdict(p, c, metric["better"] == "lower", metric.get("bound"))
                regressed |= result == "REGRESSED"
                print(f"{workload:<16} {name:<46} "
                      f"{f'{med:.4g} [{q1:.4g}, {q3:.4g}]':>30} {c_med:>14.4g} "
                      f"{delta:>8} {min(len(p), len(c)):>2}  {result}")
    return 1 if regressed else 0
