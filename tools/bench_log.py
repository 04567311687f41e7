#!/usr/bin/env python3
"""Append perfbench result records to the repository's benchmark logs, and summarise them.

    python3 tools/bench_log.py --label change .perfbench/results/long-tail-encode-seed1-trace0.json
    python3 tools/bench_log.py --summary zipf-train

Each record `perfbench/run.py --trace 0` wrote goes to
`BENCH_<workload>.json` at the root of the checkout, a JSON list with the
oldest run first, as {commit, label, seed, variant, environment, metrics}.
The commit is the one the run recorded. The per-pass times and the
host-speed kernel samples stay out. A traced run, or one with failed
operations, is refused, so every logged run measured correct output.

`--summary WORKLOAD` prints, for each label and commit in the log, the
median and quartiles of every end-to-end metric `BENCHMARK.json` names.
Then, for each change commit over a parent commit, it pairs the runs
labelled `parent` and `change` that share a seed and prints, per metric,
the pairs the change won (ties count for neither), both medians and the
spread of the parent's runs, the distance between their quartiles
(`statistics.quantiles(values, n=4)`, as `perfbench/README.md` takes it).
A metric is marked `gain` when there are at least ten pairs, the change
won at least nine in ten of them and its median moved the better way by
more than that spread. It is marked `worse` when the change's median is
worse than the parent's by more than the metric's `bound` in
`BENCHMARK.json`, taken as a fraction of the parent's median.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEPT = ("seed", "variant", "environment", "metrics")


def append(result: Path, label: str, out_dir: Path = ROOT) -> Path:
    """Append one result record to its workload's log; returns the log's path."""
    record = json.loads(result.read_text(encoding="utf-8"))
    if record.get("trace"):
        raise ValueError(f"{result}: a traced run carries no end-to-end metrics")
    if record["failed"]:
        raise ValueError(f"{result}: {record['failed']} of {record['attempted']} operations failed")
    entry = {"commit": record["environment"]["git_commit"], "label": label}
    entry.update((key, record[key]) for key in KEPT)
    log = out_dir / f"BENCH_{record['workload']}.json"
    entries = json.loads(log.read_text(encoding="utf-8")) if log.exists() else []
    entries.append(entry)
    log.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return log


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3f}"


def summary(workload: str, log_dir: Path = ROOT) -> list[str]:
    """The lines `--summary` prints for one workload's log."""
    entries = json.loads((log_dir / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    groups: dict[tuple[str, str], list[dict]] = {}
    for entry in entries:
        groups.setdefault((entry["label"], entry["commit"]), []).append(entry)
    lines = []
    for (label, commit), runs in groups.items():
        lines.append(f"{label} {commit[:8]}: {len(runs)} runs, median [q1, q3]")
        for m in metrics:
            values = [run["metrics"][m["name"]] for run in runs if m["name"] in run["metrics"]]
            if values:
                q1, median, q3 = quartiles(values)
                lines.append(f"  {m['name']:<15} {_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}] {m['unit']}")

    by_seed: dict[int, dict[str, list[dict]]] = {}
    for entry in entries:
        if entry["label"] in ("parent", "change"):
            by_seed.setdefault(entry["seed"], {"parent": [], "change": []})[entry["label"]].append(entry)
    pairs: dict[tuple[str, str], list[tuple[dict, dict]]] = {}
    for sides in by_seed.values():
        for parent, change in zip(sides["parent"], sides["change"]):
            pairs.setdefault((parent["commit"], change["commit"]), []).append((parent, change))
    for (parent_commit, change_commit), group in pairs.items():
        lines.append(f"change {change_commit[:8]} over parent {parent_commit[:8]}: "
                     f"{len(group)} pairs sharing a seed")
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            both = [(p["metrics"][name], c["metrics"][name]) for p, c in group
                    if name in p["metrics"] and name in c["metrics"]]
            if not both:
                continue
            wins = sum(sign * (c - p) > 0 for p, c in both)
            q1, parent_median, q3 = quartiles([p for p, _ in both])
            change_median = statistics.median(c for _, c in both)
            moved = f" ({change_median / parent_median - 1:+.1%})" if parent_median else ""
            moved_past_spread = sign * (change_median - parent_median) > q3 - q1
            gain = len(both) >= 10 and wins >= 0.9 * len(both) and moved_past_spread
            worse = sign * (change_median - parent_median) < -m["bound"] * abs(parent_median)
            lines.append(f"  {name:<15} won {wins}/{len(both)}: {_fmt(parent_median)} -> "
                         f"{_fmt(change_median)} {m['unit']}{moved}, parent spread {_fmt(q3 - q1)}"
                         + ("  gain" if gain else "  worse" if worse else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", type=Path, help="perfbench result records, appended in order")
    parser.add_argument("--label", help="what the runs measured, such as parent or change")
    parser.add_argument("--summary", metavar="WORKLOAD", help="summarise BENCH_<WORKLOAD>.json instead")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where the BENCH_*.json logs live")
    args = parser.parse_args(argv)
    if args.summary is None and not (args.results and args.label):
        parser.error("give result records and --label, or --summary WORKLOAD")
    if args.summary is not None and (args.results or args.label):
        parser.error("--summary takes no result records or --label")
    try:
        if args.summary is not None:
            print("\n".join(summary(args.summary, args.out_dir)))
        for result in args.results:
            print(append(result, args.label, args.out_dir))
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_log: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
