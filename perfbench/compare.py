"""Side-by-side report of two ``--out`` files, metric by metric and workload by workload.

For each metric it prints each side's median and quartiles over the runs in
the file, the ratio CHANGE/BASE with the base it divides by, and a verdict.
An end-to-end metric is "unresolved" when either side's quartile spread,
as a share of its median, exceeds the metric's bound in BENCHMARK.json,
unless every CHANGE run reads better (or worse) than every BASE run.
Tracing overhead is the traced runs' ``trace.ops_per_min`` against the
untraced runs' end-to-end ``ops_per_min`` in the same file.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """workload -> metric -> list of values, over every run in the file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            row = out[doc["workload"]]
            for source in (doc["result"]["metrics"], doc.get("detail", {})):
                for name, m in source.items():
                    row[name].append(m["value"])
    return out


def summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(spec, base, change) -> str:
    if spec is None:
        return ""
    lower = spec["better"] == "lower"
    bmed, bq1, bq3 = summary(base)
    cmed, cq1, cq3 = summary(change)
    if lower:
        all_better, all_worse = max(change) < min(base), min(change) > max(base)
    else:
        all_better, all_worse = min(change) > max(base), max(change) < min(base)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > spec["bound"] and not (all_better or all_worse):
        return f"unresolved (spread {spread:.1%} > bound {spec['bound']:.0%})"
    if not bmed:
        return "n/a (base is 0)"
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if worse > spec["bound"]:
        return f"REGRESSED by {worse:.1%} (bound {spec['bound']:.0%})"
    return "improved" if worse < 0 and all_better else "within bound"


def overhead(rows) -> str:
    plain, traced = rows.get("ops_per_min"), rows.get("trace.ops_per_min")
    if not plain or not traced or not summary(plain)[0]:
        return "n/a"
    return f"{1.0 - summary(traced)[0] / summary(plain)[0]:.1%}"


def main(base_path, change_path, bench_path) -> int:
    with open(bench_path) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, change = load(base_path), load(change_path)
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, {}), change.get(workload, {})
        print(f"== {workload}: tracing overhead base {overhead(b)}, change {overhead(c)}")
        for name in sorted(set(b) | set(c), key=lambda n: (n not in specs, n)):
            if name not in b or name not in c:
                side = "base" if name in b else "change"
                print(f"  {name}: only in {side}")
                continue
            bm, bq1, bq3 = summary(b[name])
            cm, cq1, cq3 = summary(c[name])
            ratio = f"{cm / bm:.3f}x of {bm:.6g}" if bm else "n/a (base is 0)"
            print(f"  {name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b[name])}"
                  f" | change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] n={len(c[name])}"
                  f" | {ratio} {verdict(specs.get(name), b[name], c[name])}")
    return 0
