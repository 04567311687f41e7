"""tools/bench_log.py appends perfbench result records to BENCH_<workload>.json."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
