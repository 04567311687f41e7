"""tools/peak_by_command.py prints the peak memory after each command of a benchmark pass."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_by_command.py"
GUIDANCE = ("baseline", "morphseed", "morphpretok-acontextual", "morphpretok-contextual")


def test_one_line_per_mini_latin_command():
    proc = subprocess.run([sys.executable, str(TOOL), "mini-latin", "--seed", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # mini-latin's 8 configurations, each trained, encoded and evaluated on two gold sets
    expected = [(kind, f"{algorithm}-{guidance}") for algorithm in ("wordpiece", "ulm") for guidance in GUIDANCE
                for kind in ("train", "encode", "evaluate", "evaluate")]
    rows = [line.split() for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert [(kind, name) for _, _, kind, name in rows] == expected
    peaks = [float(peak) for peak, _, _, _ in rows]
    assert peaks == sorted(peaks)  # a peak never falls
    assert all(float(rise) >= 0 for _, rise, _, _ in rows)
