"""tools/bench_log.py appends perfbench result records to BENCH_<workload>.json."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_log.py"
spec = importlib.util.spec_from_file_location("bench_log", TOOL)
bench_log = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_log)


def result_record(seed, commit="abc123", trace=0, failures=()):
    """A record shaped like the one `perfbench/run.py` writes."""
    return {
        "workload": "long-tail-encode", "seed": seed, "variant": seed % 2, "trace": trace,
        "environment": {"python": "3.11.7", "git_commit": commit, "src_sha256": "f00d"},
        "inputs_sha256": {"corpus.txt": "beef"},
        "passes": [{"pipeline_s": 1.7}],
        "kernel_samples_s": {"train|0": [0.00017, 0.00018]},
        "attempted": 40, "failed": len(failures), "failures": list(failures),
        "metrics": {"pipeline_s": 1.7, "ulm_encode_wps": 68000.0},
    }


def write(path, record):
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_appends_in_order_without_samples(tmp_path):
    first = write(tmp_path / "a.json", result_record(1))
    second = write(tmp_path / "b.json", result_record(2, commit="def456"))
    assert bench_log.main(["--label", "parent", "--out-dir", str(tmp_path), str(first)]) == 0
    assert bench_log.main(["--label", "change", "--out-dir", str(tmp_path), str(second)]) == 0
    entries = json.loads((tmp_path / "BENCH_long-tail-encode.json").read_text(encoding="utf-8"))
    assert entries == [
        {"commit": "abc123", "label": "parent", "seed": 1, "variant": 1,
         "environment": result_record(1)["environment"], "metrics": result_record(1)["metrics"]},
        {"commit": "def456", "label": "change", "seed": 2, "variant": 0,
         "environment": result_record(2, commit="def456")["environment"],
         "metrics": result_record(2)["metrics"]},
    ]


def test_command_line(tmp_path):
    record = write(tmp_path / "a.json", result_record(3))
    proc = subprocess.run([sys.executable, str(TOOL), "--label", "change",
                           "--out-dir", str(tmp_path), str(record)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    log = tmp_path / "BENCH_long-tail-encode.json"
    assert proc.stdout.strip() == str(log)
    assert [e["commit"] for e in json.loads(log.read_text(encoding="utf-8"))] == ["abc123"]


def test_traced_record_is_refused(tmp_path):
    record = write(tmp_path / "a.json", result_record(1, trace=1))
    assert bench_log.main(["--label", "x", "--out-dir", str(tmp_path), str(record)]) == 2
    assert not (tmp_path / "BENCH_long-tail-encode.json").exists()


def test_record_with_failed_operations_is_refused(tmp_path):
    good = write(tmp_path / "a.json", result_record(1))
    bad = write(tmp_path / "b.json", result_record(2, failures=["long-tail-encode/ulm: encode output differs"]))
    assert bench_log.main(["--label", "x", "--out-dir", str(tmp_path), str(good), str(bad)]) == 2
    entries = json.loads((tmp_path / "BENCH_long-tail-encode.json").read_text(encoding="utf-8"))
    assert [e["seed"] for e in entries] == [1]


def log_entry(label, commit, seed, **metrics):
    """An entry of a BENCH_<workload>.json log."""
    return {"commit": commit, "label": label, "seed": seed, "variant": seed % 2,
            "environment": {"python": "3.11.7", "git_commit": commit}, "metrics": metrics}


def write_log(tmp_path, entries):
    (tmp_path / "BENCH_zipf-train.json").write_text(json.dumps(entries), encoding="utf-8")


def test_summary_gives_median_and_quartiles_per_label(tmp_path):
    write_log(tmp_path, [log_entry("parent", "aaaa1111ffff", s, pipeline_s=float(s), peak_rss_mib=60.0)
                         for s in (5, 1, 4, 2, 3)]
              + [log_entry("change", "bbbb2222ffff", 9, pipeline_s=2.5, ulm_encode_wps=261585.4)])
    assert bench_log.summary("zipf-train", tmp_path) == [
        "parent aaaa1111: 5 runs, median [q1, q3]",
        "  pipeline_s      3.000 [1.500, 4.500] s",
        "  peak_rss_mib    60.000 [60.000, 60.000] MiB",
        "change bbbb2222: 1 runs, median [q1, q3]",
        "  pipeline_s      2.500 [2.500, 2.500] s",
        "  ulm_encode_wps  261,585 [261,585, 261,585] words/s",
    ]  # seeds 5 and 9 share no run, so no pairs


def test_summary_counts_wins_over_pairs_sharing_a_seed(tmp_path):
    entries = [log_entry("parent", "p0", 20, pipeline_s=3.0), log_entry("change", "c0", 20, pipeline_s=2.0)]
    for s in range(1, 11):
        parent = {"pipeline_s": 2.0 + 0.01 * s, "peak_rss_mib": 70.0 + 0.1 * (s % 3), "ulm_encode_wps": 1000.0}
        change = {"pipeline_s": parent["pipeline_s"] + (0.1 if s == 10 else -0.5),
                  "peak_rss_mib": parent["peak_rss_mib"], "ulm_encode_wps": 1000.0 + s}
        entries += [log_entry("parent", "p1", s, **parent), log_entry("change", "c1", s, **change)]
    entries.append(log_entry("change", "c1", 11, pipeline_s=1.0))  # no parent run shares its seed
    write_log(tmp_path, entries)
    lines = bench_log.summary("zipf-train", tmp_path)
    first = lines.index("change c0 over parent p0: 1 pairs sharing a seed")
    # one pair is too few to mark a gain, however large
    assert lines[first + 1] == "  pipeline_s      won 1/1: 3.000 -> 2.000 s (-33.3%), parent spread 0.000"
    start = lines.index("change c1 over parent p1: 10 pairs sharing a seed")
    pipeline, wps, rss = lines[start + 1:start + 4]  # in BENCHMARK.json's order
    assert pipeline.startswith("  pipeline_s      won 9/10: 2.055 -> 1.555 s") and pipeline.endswith("gain")
    assert wps.startswith("  ulm_encode_wps  won 10/10: 1,000 -> 1,006 words/s") and wps.endswith("gain")
    assert rss.startswith("  peak_rss_mib    won 0/10: 70.100 -> 70.100 MiB (+0.0%)")  # ties win nothing
    assert not rss.endswith("gain")


def test_summary_marks_worse_past_the_bound(tmp_path):
    # BENCHMARK.json bounds pipeline_s and ulm_encode_wps at 25% of the
    # parent's median and peak_rss_mib at 10%, whichever way is worse
    parent = {"pipeline_s": 2.0, "setup_s": 1.0, "ulm_encode_wps": 1000.0, "peak_rss_mib": 70.0}
    for change, marks in (
        ({"pipeline_s": 2.4, "setup_s": 0.5, "ulm_encode_wps": 800.0, "peak_rss_mib": 75.0},
         ["", "gain", "", ""]),  # within each bound; a gain is never worse
        ({"pipeline_s": 2.6, "setup_s": 1.3, "ulm_encode_wps": 700.0, "peak_rss_mib": 78.0},
         ["worse"] * 4),
    ):
        write_log(tmp_path, [log_entry(label, commit, s, **metrics) for s in range(1, 11)
                             for label, commit, metrics in (("parent", "p1", parent), ("change", "c1", change))])
        lines = bench_log.summary("zipf-train", tmp_path)
        start = lines.index("change c1 over parent p1: 10 pairs sharing a seed")
        assert [line.rpartition("  ")[2] if line.endswith(("gain", "worse")) else ""
                for line in lines[start + 1:start + 5]] == marks


def test_summary_command_line(tmp_path, capsys):
    write_log(tmp_path, [log_entry("parent", "aaaa1111", 1, pipeline_s=2.0)])
    assert bench_log.main(["--summary", "zipf-train", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "  pipeline_s      2.000 [2.000, 2.000] s"
    assert bench_log.main(["--summary", "mini-latin", "--out-dir", str(tmp_path)]) == 2  # no such log
    for argv in (["--summary", "zipf-train", "--label", "x"], ["--label", "x"], []):
        with pytest.raises(SystemExit):
            bench_log.main(argv)


@pytest.mark.parametrize("workload", ["mini-latin", "zipf-train", "long-tail-encode"])
def test_committed_log_is_summarised(workload):
    # every run in the repository's log carries every end-to-end metric
    # BENCHMARK.json names, so a malformed append fails here, not in a later summary
    entries = json.loads((bench_log.ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    benchmark = json.loads((bench_log.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["end_to_end"]]
    assert entries
    for entry in entries:
        assert entry.keys() == {"commit", "label", *bench_log.KEPT}, entry
        assert [name for name in names if name not in entry["metrics"]] == [], entry["commit"]
    lines = bench_log.summary(workload)
    for entry in entries:
        assert any(line.startswith(f"{entry['label']} {entry['commit'][:8]}: ") for line in lines)
