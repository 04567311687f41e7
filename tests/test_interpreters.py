"""Byte identity on every supported Python.

The package imports only the standard library, so any interpreter from
3.10 on runs ``python -m morphtok.cli`` from this checkout without
installing anything. Float code can still round differently between
versions (3.12's ``sum()`` compensates, for one), so each other
interpreter found here trains the acceptance, exact-pruning and golden
artifacts and encodes the unseen text, and every byte must match what
this suite pins.
"""

import glob
import os
import platform
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from test_acceptance import ARTIFACT_SHA256, CONFIGS, train_args
from test_config_schema import (EXACT_PRUNING_SHA256, GOLDEN, GOLDEN_ENCODINGS, GOLDEN_RUNS, MINI,
                                digest_and_lines, exact_pruning_args, unseen_text, write_inputs)

ROOT = Path(__file__).resolve().parents[1]
PYENV = os.path.expanduser("~/.pyenv/versions/3.1[0-3].*/bin/python3")
ON_PATH = [f"python3.{minor}" for minor in range(10, 14)]
MAX_PARALLEL = 3


def other_interpreters() -> dict[str, str]:
    """Version -> path of each interpreter found that runs and is not this one."""
    candidates = sorted(glob.glob(PYENV)) + [path for name in ON_PATH if (path := shutil.which(name))]
    found = {}
    for path in candidates:
        try:
            probe = subprocess.run([path, "-c", "import platform; print(platform.python_version())"],
                                   capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = probe.stdout.strip()
        if probe.returncode == 0 and version != platform.python_version():
            found.setdefault(version, path)
    return found


def mismatches(python: str, workdir: Path) -> list[str]:
    """What `python` produces differently from the pinned bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(*args) -> None:
        done = subprocess.run([python, "-m", "morphtok.cli", *args], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, f"{python} {' '.join(args)}: {done.stderr}"

    workdir.mkdir()
    write_inputs(workdir)
    (workdir / "unseen.txt").write_text(unseen_text(), encoding="utf-8")
    wrong = []
    for algo, guidance in CONFIGS:
        out = workdir / f"{algo}-{guidance}.tok"
        cli(*train_args(algo, guidance, out))
        if not digest_and_lines(out)[0].startswith(ARTIFACT_SHA256[(algo, guidance)]):
            wrong.append(f"{algo}/{guidance} artifact")
    for guidance, digest in EXACT_PRUNING_SHA256.items():
        out = workdir / f"ulm-{guidance}-exact.tok"
        cli(*exact_pruning_args(guidance, out))
        if not digest_and_lines(out)[0].startswith(digest):
            wrong.append(f"ulm/{guidance} exact-pruning artifact")
    for name, args in GOLDEN_RUNS.items():
        cli("train", *args, "--output", name)
        for produced in (name, f"{name}.manifest"):
            if (workdir / produced).read_bytes() != (GOLDEN / produced).read_bytes():
                wrong.append(f"golden {produced}")
    for name in ("wp-unseen", "ulm-unseen"):
        artifact, _, flags, digest, lines = GOLDEN_ENCODINGS[name]
        out = workdir / f"{name}.txt"
        cli("encode", "--artifact", str(GOLDEN / artifact), "--input", "unseen.txt",
            "--lexicon", str(MINI / "lexicon.tsv"), "--output", out.name, *flags)
        if digest_and_lines(out) != (digest, lines):
            wrong.append(f"{name} encoding")
    return wrong


def test_bytes_match_on_every_other_interpreter(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip(f"no other Python 3.10-3.13 found; searched {PYENV} and {', '.join(ON_PATH)} on PATH")
    with ThreadPoolExecutor(max_workers=MAX_PARALLEL) as pool:
        results = pool.map(lambda item: (item[0], mismatches(item[1], tmp_path / item[0])),
                           interpreters.items())
        failures = {version: wrong for version, wrong in results if wrong}
    print(f"byte identity checked under Python {', '.join(sorted(interpreters))}")
    assert not failures, failures
