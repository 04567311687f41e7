#!/usr/bin/env python3
"""Append perfbench result records to the repository's benchmark logs.

    python3 tools/bench_log.py --label change .perfbench/results/long-tail-encode-seed1-trace0.json

Each record `perfbench/run.py --trace 0` wrote goes to
`BENCH_<workload>.json` at the root of the checkout, a JSON list with the
oldest run first, as {commit, label, seed, variant, environment, metrics}.
The commit is the one the run recorded. The per-pass times and the
host-speed kernel samples stay out. A traced run, or one with failed
operations, is refused, so every logged run measured correct output.
"""

import argparse
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path, help="perfbench result records, appended in order")
    parser.add_argument("--label", required=True, help="what the runs measured, such as parent or change")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where the BENCH_*.json logs live")
    args = parser.parse_args(argv)
    try:
        for result in args.results:
            print(append(result, args.label, args.out_dir))
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_log: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
