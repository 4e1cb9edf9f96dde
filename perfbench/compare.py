#!/usr/bin/env python3
"""Compare two benchmark result files.

    python3 perfbench/compare.py BASE.json HEAD.json

Each file is what `run.py collect` writes. For every (workload, metric)
the table gives each side's median with its quartiles, the head/base
median ratio, the metric's bound from BENCHMARK.json, and a verdict:

- better / worse: the medians differ by more than the bound (worse) or by
  more than the base's own quartile spread (better), with at least nine
  in ten head-vs-base run pairs on that side;
- unchanged: within the bound, and not a resolved gain;
- unresolved: a side's quartile spread exceeds the bound, unless every
  head run beats (or loses to) every base run.

Per-layer metrics have no bound; they get a ratio and, for counts, the
verdict "same" or "differs" (counts must repeat exactly).
"""

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path("BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    """BENCHMARK.json, or an empty spec when run outside the repo root."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: tuple
    head: tuple
    ratio: float
    bound: float
    verdict: str


def pair_share(base, head, lower_better):
    """Share of (base run, head run) pairs the head run wins."""
    wins = sum((h < b) if lower_better else (h > b) for b in base for h in head)
    return wins / (len(base) * len(head))


def verdict(base, head, bound, lower_better):
    bq, hq = quartiles(base), quartiles(head)
    b_med, h_med = bq[1], hq[1]
    # Positive `gain` is an improvement, whichever way the metric points.
    gain = (b_med - h_med) / b_med if lower_better else (h_med - b_med) / b_med
    b_spread = (bq[2] - bq[0]) / abs(b_med) if b_med else 0.0
    h_spread = (hq[2] - hq[0]) / abs(h_med) if h_med else 0.0
    wins = pair_share(base, head, lower_better)
    losses = pair_share(base, head, not lower_better)
    if max(b_spread, h_spread) > bound:
        if wins == 1.0:
            return "better"
        if losses == 1.0:
            return "worse"
        return "unresolved"
    if -gain > bound and losses >= 0.9:
        return "worse"
    if gain > b_spread and wins >= 0.9:
        return "better"
    return "unchanged"


def group(results):
    """{(workload, metric): (unit, [values])} over every run."""
    out = {}
    for run in results["runs"]:
        for name, m in run["result"]["metrics"].items():
            if m["value"] is None:
                continue
            unit, values = out.setdefault((run["workload"], name), (m["unit"], []))
            values.append(m["value"])
    return out


def compare(base_results, head_results, spec):
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}
    base, head = group(base_results), group(head_results)
    rows = []
    for key in sorted(base.keys() & head.keys()):
        workload, metric = key
        unit, b = base[key]
        _, h = head[key]
        bq, hq = quartiles(b), quartiles(h)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        if metric in e2e:
            bound = e2e[metric]["bound"]
            v = verdict(b, h, bound, e2e[metric]["better"] == "lower")
        else:
            bound = None
            if unit == "count":
                v = "same" if sorted(b) == sorted(h) and len(set(b)) == 1 else "differs"
            else:
                v = "-"
        rows.append(Row(workload, metric, unit, bq, hq, ratio, bound, v))
    return rows


def fmt(q):
    return f"{q[1]:.6g} ({q[0]:.6g}–{q[2]:.6g})"


def render(rows):
    lines = ["| workload | metric | unit | base median (q1–q3) | head median (q1–q3) "
             "| head/base | bound | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        bound = "-" if r.bound is None else f"±{r.bound:g}"
        lines.append(f"| {r.workload} | {r.metric} | {r.unit} | {fmt(r.base)} | "
                     f"{fmt(r.head)} | {r.ratio:.4f} | {bound} | {r.verdict} |")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: compare.py BASE.json HEAD.json")
    base, head = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(base, head, load_spec())
    print(f"base: {argv[0]}\nhead: {argv[1]}\n")
    print(render(rows))
    counts = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
