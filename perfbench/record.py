#!/usr/bin/env python3
"""Record perfbench/reference.json from the current checkout.

    python3 perfbench/record.py

Runs one pass of every input variant of every workload and stores the
values check.py compares: input digests, vocabulary digests, ULM
log-probs, and digests of the encode outputs and evaluate reports. Run it
only at a commit whose outputs are known to be right; a later commit that
changes an output then fails the benchmark's check.
"""

from __future__ import annotations

import json
import re
import shutil

import check
from run import STATE, Run, Setup
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    work = STATE / "record"
    try:
        for wl in WORKLOADS.values():
            for variant in range(wl.variants):
                setup = Setup(wl, variant, work)
                run = Run(wl, setup, work / "out", None)
                run.run_pass()
                if run.failures:
                    raise SystemExit("\n".join(run.failures))
                configs = {}
                for cfg in wl.configs:
                    reports = {gold: wl.report(cfg, gold, run.out) for gold, _ in wl.golds}
                    configs[cfg.name] = check.observe(
                        wl.artifact(cfg, run.out), wl.encoded(cfg, run.out), reports)
                reference.setdefault(wl.name, {})[str(variant)] = {
                    "inputs": setup.digests, "configs": configs}
                print(f"recorded {wl.name} variant {variant}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one line per list of log-probs
    text = re.sub(r"\[\s+([-0-9.e,\s]+?)\s+\]",
                  lambda m: "[" + ",".join(x.strip() for x in m.group(1).split(",")) + "]", text)
    check.REFERENCE.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
