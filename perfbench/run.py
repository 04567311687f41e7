#!/usr/bin/env python3
"""Benchmark of morphtok's train -> save -> load -> encode -> evaluate pipeline.

Run from the root of a morphtok checkout:

    python3 perfbench/run.py --workload mini-latin --seed 1 --seconds 38 --trace 0

The package is imported from the checkout's ``src/``; nothing is installed.
One process drives ``morphtok.cli.main`` in-process, one command after the
other (a closed loop with one caller, no threads, no subprocesses). A pass
runs every configuration of the workload: train, encode, then evaluate
against each gold set. Passes repeat until ``--seconds`` would be exceeded
by one more. While a command runs, a timer samples a fixed calibration
kernel, and each stage's time is normalised by those samples to a
reference host speed (see ``calibrate.py``), so drift of the host's speed
cancels out. A stage metric is the stage's mean time per pass, so
normalised; ``pipeline_s`` is the sum of the stages. After every pass the
outputs are checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced one and prints the per-layer metrics, plus
the ratio of traced to untraced pipeline time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, input digests, workload properties, every pass, failures
and the trace) goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import check
import layers
from workloads import WORKLOADS, Workload, properties, read_words

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "pipeline_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "wp_train_s": ("s", "lower"),
    "ulm_train_s": ("s", "lower"),
    "wp_encode_wps": ("words/s", "higher"),
    "ulm_encode_wps": ("words/s", "higher"),
    "evaluate_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def import_morphtok():
    """Import morphtok.cli from this checkout's src/, dropping earlier imports."""
    src = ROOT / "src"
    if not (src / "morphtok" / "cli.py").is_file():
        raise BenchError(f"no morphtok package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "morphtok" or n.startswith("morphtok.")]:
        del sys.modules[name]
    cli = importlib.import_module("morphtok.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"morphtok imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, kind: str, argv: list[str], probe) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = probe.command(kind, cli.main, argv) if probe else cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


class Setup:
    """Inputs of one run: written (or located), digested and described."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.cli = import_morphtok()
        self.inputs = wl.inputs(ROOT, work, seed)
        if not self.inputs.is_dir():
            raise BenchError(f"workload input directory {self.inputs} is missing")
        self.digests = {p.name: check.sha256_file(p)
                        for p in sorted(self.inputs.iterdir()) if p.is_file()}
        self.properties = properties(wl, self.inputs)
        self.words = {cfg.name: len(read_words(self.inputs / wl.encode_file(cfg)))
                      for cfg in wl.configs}


class Run:
    """Repeated passes of one workload, with their checks.

    `expected` maps configuration names to reference values; None skips
    the output checks (used when recording the reference).
    """

    def __init__(self, wl: Workload, setup: Setup, out: Path, expected: dict | None):
        self.wl = wl
        self.setup = setup
        self.out = out
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, probe=None, speed: calibrate.HostSpeed | None = None) -> dict:
        """One pass over every configuration: its seconds and the seconds of
        each command, keyed ``<stage>|<config>|<argument index>``. With
        `speed`, the host speed is sampled under those keys, and the time
        the samples took is left out."""
        wl, setup = self.wl, self.setup
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        commands: dict[str, float] = {}
        for cfg in wl.configs:
            for i, (kind, argv) in enumerate(wl.commands(cfg, setup.inputs, self.out)):
                stage = kind if kind == "evaluate" else f"{kind}:{cfg.algorithm}"
                label = f"{stage}|{cfg.name}|{i}"
                if speed:
                    (rc, err), seconds = speed.measure(label, call, setup.cli, kind, argv, probe)
                else:
                    t0 = time.perf_counter()
                    rc, err = call(setup.cli, kind, argv, probe)
                    seconds = time.perf_counter() - t0
                commands[label] = seconds
                self.attempted += 1
                if rc != 0:
                    self.failures.append(f"{wl.name}/{cfg.name}: {kind} exited {rc}: {err}")
        if self.expected is not None:
            self.check()
        return {"pipeline_s": sum(commands.values()), "commands": commands}

    def end_to_end(self, passes: list[dict], speed: calibrate.HostSpeed) -> dict[str, float]:
        """A stage's time is its mean raw time per pass, normalised by the
        samples taken during all its commands in all passes; pooling the
        samples of a stage keeps its short commands from going unsampled.
        Pipeline time is the sum of the stages."""
        raw: dict[str, float] = defaultdict(float)
        labels: dict[str, list[str]] = defaultdict(list)
        for label in passes[0]["commands"]:
            stage = label.split("|")[0]
            raw[stage] += statistics.fmean(p["commands"][label] for p in passes)
            labels[stage].append(label)
        stages = {stage: speed.normalise(raw[stage], *labels[stage]) for stage in raw}
        words: dict[str, int] = defaultdict(int)
        for cfg in self.wl.configs:
            words[cfg.algorithm] += self.setup.words[cfg.name]
        return {
            "pipeline_s": sum(stages.values()),
            "wp_train_s": stages["train:wordpiece"],
            "ulm_train_s": stages["train:ulm"],
            "wp_encode_wps": words["wordpiece"] / stages["encode:wordpiece"],
            "ulm_encode_wps": words["ulm"] / stages["encode:ulm"],
            "evaluate_s": stages["evaluate"],
        }

    def check(self) -> None:
        """Compare this pass's outputs with the reference; counted as operations."""
        for cfg in self.wl.configs:
            reports = {gold: self.wl.report(cfg, gold, self.out) for gold, _ in self.wl.golds}
            n, failed = check.compare(
                self.expected.get(cfg.name), self.wl.artifact(cfg, self.out),
                self.wl.encoded(cfg, self.out), reports, f"{self.wl.name}/{cfg.name}")
            self.attempted += n
            self.failures += failed

    def traced_pass(self, ulm_module) -> tuple[float, dict, dict]:
        """A pass with every layer recorder installed: (pipeline seconds,
        per-layer metrics but the overhead ratio, trace dump)."""
        probe = layers.LayerProbe()
        probe.install()
        try:
            timings = self.run_pass(probe)
        finally:
            probe.uninstall()
        em_step_s = probe.em_step_seconds(ulm_module)
        return timings["pipeline_s"], probe.metrics(em_step_s), probe.tracer.dump()


def repeat(seconds: float, step) -> None:
    """Call step() until one more call would pass `seconds`; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "morphtok").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "src_sha256": source.hexdigest(),
    }


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    with calibrate.HostSpeed() as speed:
        setup_raw = []
        for i in range(SETUP_REPEATS):
            setup, raw = speed.measure(f"setup|{i}", Setup, wl, seed, work)
            setup_raw.append(raw)
        setup_times = [speed.normalise(raw, f"setup|{i}") for i, raw in enumerate(setup_raw)]
        run, record = prepare(wl, seed, work, setup)
        record.update(trace=int(trace), seconds=seconds, setup_s_repeats=setup_times,
                      setup_raw_s_repeats=setup_raw)
        if not trace:
            passes = []
            repeat(seconds, lambda: passes.append(run.run_pass(speed=speed)))

    if trace:
        ulm_module = importlib.import_module("morphtok.ulm")
        untraced, traced, layer_rows = [], [], []

        def step():
            untraced.append(run.run_pass()["pipeline_s"])
            pipeline, metrics, dump = run.traced_pass(ulm_module)
            traced.append(pipeline)
            layer_rows.append(metrics)
            record["trace_dump"] = dump

        repeat(seconds, step)
        metrics = medians(layer_rows)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        record.update(untraced_pipeline_s=untraced, traced_pipeline_s=traced, layer_passes=layer_rows)
    else:
        metrics = run.end_to_end(passes, speed)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: metrics[name] for name in END_TO_END}
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        record.update(passes=passes, kernel_samples_s=speed.samples)

    failed = len(run.failures)
    record.update(attempted=run.attempted, failed=failed, failures=run.failures,
                  failed_ops=failed / run.attempted, metrics=metrics)
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def prepare(wl: Workload, seed: int, work: Path, setup: Setup) -> tuple[Run, dict]:
    """The run of a workload, with its input check, and the start of its record."""
    variant = wl.variant(seed)
    recorded = check.load_reference().get(wl.name, {}).get(str(variant), {})
    run = Run(wl, setup, work / "out", recorded.get("configs", {}))
    run.attempted += 1
    if recorded.get("inputs") != setup.digests:
        run.failures.append(f"{wl.name}: inputs of variant {variant} differ from the recorded ones")

    record = {
        "workload": wl.name, "seed": seed, "variant": variant,
        "environment": environment(), "inputs_sha256": setup.digests,
        "properties": setup.properties, "reference_kernel_s": calibrate.REFERENCE_S,
    }
    return run, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = STATE / f"work-{wl.name}-{os.getpid()}"
    try:
        out = benchmark(wl, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record, result = out["record"], out["result"]
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {wl.name} seed {args.seed} (input variant {record['variant']}), "
          f"{record['attempted']} operations, record in {results / name}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"{'failed_ops':34s} {record['failed_ops']:>14.6g} share of attempted")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
