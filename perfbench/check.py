"""Output correctness: compare a pass's outputs with recorded reference values.

For each workload input variant and configuration, ``reference.json`` holds:

- the SHA-256 of the artifact's sorted vocabulary (for ULM, with the
  protected flag of each piece) and its entry count;
- for ULM, every log-probability in sorted piece order, compared within
  ``LOGPROB_TOLERANCE`` so that float re-association alone does not fail;
- the SHA-256 of the ``encode`` output and of each ``evaluate --format kv``
  report, compared exactly.

The artifact is parsed here, not with morphtok's loader, so a loader bug
cannot hide a training change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

LOGPROB_TOLERANCE = 1e-12  # the ULM log-prob gate of ROADMAP item 2
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SEPARATOR = "# ---"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _vocabulary(path: Path):
    """(digest of the sorted pieces, entry count, log-probs in that order or None)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    body = [line for line in lines[lines.index(SEPARATOR) + 1 :] if line]
    if "\t" in body[0]:
        rows = sorted(line.split("\t") for line in body)
        pieces = [f"{piece}\t{flag}" for piece, _, flag in rows]
        log_probs = [float(lp) for _, lp, _ in rows]
    else:
        pieces, log_probs = sorted(body), None
    digest = hashlib.sha256("\n".join(pieces).encode("utf-8")).hexdigest()
    return digest, len(pieces), log_probs


def observe(artifact: Path, encoded: Path, reports: dict[str, Path]) -> dict:
    """The values the check compares, for one configuration's outputs."""
    digest, entries, log_probs = _vocabulary(artifact)
    observed = {
        "vocab_sha256": digest,
        "entries": entries,
        "encode_sha256": sha256_file(encoded),
        "evaluate_sha256": {gold: sha256_file(path) for gold, path in sorted(reports.items())},
    }
    if log_probs is not None:
        observed["log_probs"] = log_probs
    return observed


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def compare(expected: dict | None, artifact: Path, encoded: Path, reports: dict[str, Path],
            label: str) -> tuple[int, list[str]]:
    """Check one configuration's outputs: (checks attempted, failure messages).

    One check for the artifact, one for the encode output, one per report.
    A missing output fails its check.
    """
    failures = []
    attempted = 2 + len(reports)
    if expected is None:
        return attempted, [f"{label}: no reference values recorded"] * attempted

    try:
        digest, entries, log_probs = _vocabulary(artifact)
    except (OSError, ValueError, IndexError):
        failures.append(f"{label}: artifact missing or unreadable")
    else:
        if digest != expected["vocab_sha256"]:
            failures.append(f"{label}: vocabulary differs from reference "
                            f"({entries} entries, reference {expected['entries']})")
        elif log_probs is not None:
            worst = max(abs(a - b) for a, b in zip(log_probs, expected["log_probs"]))
            if worst > LOGPROB_TOLERANCE:
                failures.append(f"{label}: log-probs differ from reference by up to {worst:.3e}")

    if not encoded.is_file():
        failures.append(f"{label}: encode output missing")
    elif sha256_file(encoded) != expected["encode_sha256"]:
        failures.append(f"{label}: encode output differs from reference")

    for gold, path in sorted(reports.items()):
        if not path.is_file():
            failures.append(f"{label}: evaluate report for {gold} missing")
        elif sha256_file(path) != expected["evaluate_sha256"][gold]:
            failures.append(f"{label}: evaluate report for {gold} differs from reference")
    return attempted, failures
