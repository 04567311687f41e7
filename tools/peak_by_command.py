#!/usr/bin/env python3
"""Peak memory of one benchmark pass, command by command.

    python3 tools/peak_by_command.py mini-latin --seed 1

Writes the workload's inputs through `perfbench/workloads.py` into a
temporary directory (a bundled workload reads its files where they are),
then runs one pass of the workload's commands in this process through
`morphtok.cli.main`, calling each as `perfbench/run.py` does and in its
order. After each command it prints the process's peak resident set size
(`ru_maxrss`) and how much that command raised it, so the command that
sets the benchmark's `peak_rss_mib` can be seen. Nothing under
`perfbench/` is written.

Lines that start with "#" are headers; every other line is one command:
peak MiB, rise MiB, command kind, configuration.
"""

import argparse
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from morphtok import cli  # noqa: E402
from run import call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ru_maxrss is in KiB on Linux and in bytes on macOS
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * RSS_UNIT / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="picks the input variant, as in perfbench")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="peak-by-command-") as tmp:
        work = Path(tmp)
        inputs = wl.inputs(ROOT, work, args.seed)
        out = work / "out"
        out.mkdir()
        before = peak_mib()
        print(f"# {wl.name} seed {args.seed} (input variant {wl.variant(args.seed)}): "
              "peak RSS in MiB after each command, and the rise it caused")
        print(f"# before the first command: {before:.1f}")
        for cfg in wl.configs:
            for kind, argv in wl.commands(cfg, inputs, out):
                rc, err = call(cli, kind, argv, None)
                if rc != 0:
                    print(f"{wl.name}/{cfg.name}: {kind} exited {rc}: {err}", file=sys.stderr)
                    return 1
                after = peak_mib()
                print(f"{after:10.1f} {after - before:+7.1f}  {kind:<8} {cfg.name}")
                before = after
    return 0


if __name__ == "__main__":
    sys.exit(main())
