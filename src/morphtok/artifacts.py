"""Tokenizer artifact files and encode-time pipeline assembly.

An artifact is a human-readable text file:

    # morphtok tokenizer v1
    # kind wordpiece
    # guidance morphseed
    # vocab_size 30000
    # ...
    # ---
    <one vocabulary entry per line>

After kind and guidance, the header keys are the fields of the trainer
config dataclass, in declaration order (unigram artifacts add the decode
``boost`` last), so the dataclass is the one schema for header, loader
and digest. Every key is required on load.

WordPiece entries are bare pieces (continuations carry the literal "##"
prefix). Unigram entries are ``piece<TAB>logprob<TAB>protected_flag``
with ``repr`` floats, so probabilities reload bit-exactly. Everything
after the ``# ---`` separator is an entry, so entries never need
escaping (words cannot contain whitespace, hence no entry can start
with "# ").
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
import warnings

from .corpus import MorphLexicon
from .errors import LoaderError
from .presegment import presegment_word
from .ulm import UlmTokenizer, UlmTrainerConfig, UlmVocabulary
from .wordpiece import WordPieceTokenizer, WpTrainerConfig, WpVocabulary

FORMAT_VERSION = "morphtok tokenizer v1"
SEPARATOR = "# ---"

GUIDANCE_MODES = (
    "baseline",
    "morphseed",
    "morphpretok-acontextual",
    "morphpretok-contextual",
)
PRETOK_MODES = ("morphpretok-acontextual", "morphpretok-contextual")
CONFIG_CLASSES = {"wordpiece": WpTrainerConfig, "ulm": UlmTrainerConfig}

# header value text of a config field, by field type, and back
_ENCODE = {int: str, float: repr, bool: lambda v: "1" if v else "0", str | None: lambda v: v or ""}
_DECODE = {int: int, float: float, bool: {"1": True, "0": False}.__getitem__, str | None: lambda t: t or None}


def config_fields(config_class) -> list[tuple[str, type, object]]:
    """``(name, type, default)`` of each trainer option, in declaration order.

    These are the artifact header keys and the ``train`` CLI options; a
    field with ``metadata={"option": False}`` is neither.
    """
    types = typing.get_type_hints(config_class)
    return [
        (f.name, types[f.name], f.default)
        for f in dataclasses.fields(config_class)
        if f.metadata.get("option", True)
    ]


def _header_pairs(model) -> list[tuple[str, str]]:
    pairs = [("kind", model_kind(model)), ("guidance", model.guidance)]
    for name, typ, _ in config_fields(type(model.config)):
        pairs.append((name, _ENCODE[typ](getattr(model.config, name))))
    if isinstance(model, UlmTokenizer):
        pairs.append(("boost", repr(model.vocab.boost)))
    return pairs


def model_kind(model) -> str:
    """Return 'wordpiece' or 'ulm' for a tokenizer object."""
    return "wordpiece" if isinstance(model, WordPieceTokenizer) else "ulm"


def config_digest(model) -> str:
    text = "\n".join(f"{k} {v}" for k, v in _header_pairs(model))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def save_tokenizer(model, path) -> None:
    """Write a tokenizer artifact; identical models produce identical bytes."""
    lines = [f"# {FORMAT_VERSION}"]
    for key, value in _header_pairs(model):
        lines.append(f"# {key} {value}".rstrip())
    lines.append(f"# config_digest {config_digest(model)}")
    lines.append(SEPARATOR)
    if isinstance(model, WordPieceTokenizer):
        lines.extend(sorted(model.vocab.entries))
    else:
        for piece in sorted(model.vocab.log_probs):
            flag = "1" if piece in model.vocab.protected else "0"
            lines.append(f"{piece}\t{model.vocab.log_probs[piece]!r}\t{flag}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tokenizer(path):
    """Load an artifact back into a tokenizer; rejects other versions."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != f"# {FORMAT_VERSION}":
        raise LoaderError(f"{path}: not a {FORMAT_VERSION!r} file")
    header: dict[str, str] = {}
    body_start = None
    for idx, line in enumerate(lines[1:], start=1):
        if line == SEPARATOR:
            body_start = idx + 1
            break
        if not line.startswith("# "):
            raise LoaderError(f"{path}:{idx + 1}: malformed header line")
        key, _, value = line[2:].partition(" ")
        header[key] = value
    if body_start is None:
        raise LoaderError(f"{path}: truncated artifact (missing {SEPARATOR!r} separator)")
    entries = lines[body_start:]
    if not entries:
        raise LoaderError(f"{path}: artifact has no vocabulary entries")

    kind = header.get("kind")
    guidance = header.get("guidance", "baseline")
    if guidance not in GUIDANCE_MODES:
        raise LoaderError(f"{path}: unknown guidance mode {guidance!r}")
    if kind not in CONFIG_CLASSES:
        raise LoaderError(f"{path}: unknown tokenizer kind {kind!r}")

    try:
        config_class = CONFIG_CLASSES[kind]
        cfg = config_class(
            **{name: _DECODE[typ](header[name]) for name, typ, _ in config_fields(config_class)}
        )
        if kind == "wordpiece":
            return WordPieceTokenizer(WpVocabulary(set(entries)), cfg, guidance)
        log_probs: dict[str, float] = {}
        protected = set()
        for offset, line in enumerate(entries):
            parts = line.split("\t")
            if len(parts) != 3:
                raise LoaderError(
                    f"{path}:{body_start + offset + 1}: expected piece<TAB>logprob<TAB>flag"
                )
            piece, lp, flag = parts
            log_probs[piece] = float(lp)
            if flag == "1":
                protected.add(piece)
        total = sum(math.exp(lp) for lp in log_probs.values())
        if abs(total - 1.0) > 1e-6:
            raise LoaderError(f"{path}: entry probabilities sum to {total}, expected 1")
        vocab = UlmVocabulary(log_probs, frozenset(protected), float(header["boost"]))
        return UlmTokenizer(vocab, cfg, guidance)
    except (KeyError, ValueError, OverflowError) as exc:
        if isinstance(exc, LoaderError):
            raise
        raise LoaderError(f"{path}: malformed artifact header or entries ({exc})") from None


def word_encoder(
    model,
    lexicon: MorphLexicon | None = None,
    pos_mapping: dict[str, tuple[str, ...]] | None = None,
    on_warning=None,
):
    """Build a ``callable(word, pos=None) -> pieces`` for a loaded model.

    Morph-pretokenization artifacts presegment each word before encoding
    when a lexicon is available; contextual artifacts use the POS tag
    when one is passed and fall back to the first analysis otherwise.
    Without a lexicon such artifacts encode raw words, which degrades
    segmentation quality, so a warning is emitted once.
    """
    warn = on_warning or (lambda msg: warnings.warn(msg, stacklevel=3))
    needs_preseg = model.guidance in PRETOK_MODES
    if needs_preseg and lexicon is None:
        warn(
            f"artifact guidance is {model.guidance!r} but no lexicon was supplied; "
            "encoding raw words without presegmentation"
        )
    delimiter = model.config.morph_delimiter
    contextual = model.guidance == "morphpretok-contextual"

    def encode(word: str, pos: str | None = None) -> list[str]:
        if needs_preseg and lexicon is not None:
            word = presegment_word(
                word,
                lexicon,
                pos=pos if contextual else None,
                mapping=pos_mapping,
                delimiter=delimiter or "@",
            )
        return model.encode_word(word)

    return encode
