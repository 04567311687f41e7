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
config dataclass in declaration order (unigram artifacts add the decode
``boost`` last), so the dataclass is the one schema for header, loader
and digest. Every key is required on load, once, and no other is
accepted; ``config_digest`` must match.

WordPiece entries are bare pieces (continuations carry the literal "##"
prefix). Unigram entries are ``piece<TAB>logprob<TAB>protected_flag``
with ``repr`` floats, so probabilities reload bit-exactly. Every
non-blank line after the ``# ---`` separator is an entry, so entries
never need escaping (words cannot contain whitespace, hence no entry
can start with "# ", and one with whitespace fails to load). No piece
is listed twice.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import typing
import warnings

from .corpus import DEFAULT_DELIMITER, MorphLexicon, iter_lines
from .errors import LoaderError, loader_error
from .presegment import ACONTEXTUAL, CONTEXTUAL, presegment_word
from .ulm import UlmTokenizer, UlmTrainerConfig, UlmVocabulary
from .wordpiece import WordPieceTokenizer, WpTrainerConfig, WpVocabulary

FORMAT_VERSION = "morphtok tokenizer v1"
SEPARATOR = "# ---"

# each guidance mode -> the presegmentation it trains and encodes with
GUIDANCE_MODES = {
    "baseline": None,
    "morphseed": None,
    "morphpretok-acontextual": ACONTEXTUAL,
    "morphpretok-contextual": CONTEXTUAL,
}
CONFIG_CLASSES = {"wordpiece": WpTrainerConfig, "ulm": UlmTrainerConfig}

# header value text of a config field, by field type, and back
_ENCODE = {int: str, float: repr, bool: lambda v: "1" if v else "0", str | None: lambda v: v or ""}
_DECODE = {int: int, float: float, bool: {"1": True, "0": False}.__getitem__, str | None: lambda t: t or None}


@functools.cache
def config_fields(config_class) -> tuple[tuple[str, type, object], ...]:
    """``(name, type, default)`` of each trainer option, in declaration order.

    These are the artifact header keys and the ``train`` CLI options.
    Computed once per class, since every save, load and digest reads them.
    """
    types = typing.get_type_hints(config_class)
    return tuple((f.name, types[f.name], f.default) for f in dataclasses.fields(config_class))


def text_delimiter(model) -> str:
    """The delimiter `model`'s text is escaped and presegmented with: its config's,
    else the default, as ``train`` escapes a corpus it does not presegment."""
    return model.config.morph_delimiter or DEFAULT_DELIMITER


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


def _parsed(decode, text: str, what: str, path, lineno: int):
    """`decode(text)`, or a LoaderError at ``path:lineno`` naming `what`."""
    try:
        return decode(text)
    except (KeyError, ValueError):
        raise loader_error(path, lineno, f"{what} {text!r} does not parse") from None


def _new_piece(piece: str, seen, path, lineno: int) -> str:
    """`piece`, or a LoaderError at ``path:lineno`` if it holds whitespace or
    is in `seen`. Every piece is part of a corpus word, and no corpus word
    holds whitespace, so such an entry is a line that was never a piece,
    such as a header line."""
    if piece.split() != [piece]:
        raise loader_error(path, lineno, f"piece {piece!r} contains whitespace")
    if piece in seen:
        raise loader_error(path, lineno, f"repeated piece {piece!r}")
    return piece


def load_tokenizer(path):
    """Load an artifact back into a tokenizer; rejects other versions, a missing, unknown or repeated
    header key, a value that does not parse or that its trainer config rejects, a malformed or repeated
    entry and a config digest that does not match, each fault of one line at ``path:lineno``."""
    # no header line or entry is blank, so blank lines (as after the last "\n") are skipped
    lines = ((lineno, line) for lineno, line in iter_lines(path) if line)
    if next(lines, (1, ""))[1] != f"# {FORMAT_VERSION}":
        raise LoaderError(f"{path}: not a {FORMAT_VERSION!r} file")
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}  # key -> its line number
    for lineno, line in lines:
        if line == SEPARATOR:
            break
        if not line.startswith("# "):
            raise loader_error(path, lineno, "malformed header line")
        key, _, value = line[2:].partition(" ")
        if key in header:
            raise loader_error(path, lineno, f"repeated header key {key!r}")
        header[key], header_lines[key] = value, lineno
    else:
        raise LoaderError(f"{path}: truncated artifact (missing {SEPARATOR!r} separator)")
    entries = list(lines)
    if not entries:
        raise LoaderError(f"{path}: artifact has no vocabulary entries")

    if missing := [key for key in ("kind", "guidance") if key not in header]:
        raise LoaderError(f"{path}: missing header key {missing[0]!r}")
    kind, guidance = header["kind"], header["guidance"]
    if guidance not in GUIDANCE_MODES:
        raise loader_error(path, header_lines["guidance"], f"unknown guidance mode {guidance!r}")
    if kind not in CONFIG_CLASSES:
        raise loader_error(path, header_lines["kind"], f"unknown tokenizer kind {kind!r}")
    config_class = CONFIG_CLASSES[kind]
    keys = ["kind", "guidance", *(name for name, _, _ in config_fields(config_class))]
    keys += ["boost", "config_digest"] if kind == "ulm" else ["config_digest"]
    if unknown := [key for key in header if key not in keys]:
        raise loader_error(path, header_lines[unknown[0]], f"unknown header key {unknown[0]!r}")
    if missing := [key for key in keys if key not in header]:
        raise LoaderError(f"{path}: missing header key {missing[0]!r}")
    values = {}
    for name, typ, _ in config_fields(config_class):
        value = values[name] = _parsed(_DECODE[typ], header[name], name, path, header_lines[name])
        try:
            config_class(**{name: value})  # its __post_init__ judges the value alone
        except ValueError as exc:
            raise loader_error(path, header_lines[name], str(exc)) from None
    cfg = config_class(**values)
    if kind == "wordpiece":
        pieces: dict[str, None] = {}
        for lineno, piece in entries:
            pieces[_new_piece(piece, pieces, path, lineno)] = None
        # a set made whole is sized for its entries; one grown by add() can be twice as large
        model = WordPieceTokenizer(WpVocabulary(set(pieces)), cfg, guidance)
    else:
        log_probs: dict[str, float] = {}
        protected = set()
        for lineno, line in entries:
            parts = line.split("\t")
            if len(parts) != 3:
                raise loader_error(path, lineno, "expected piece<TAB>logprob<TAB>flag")
            piece, lp, flag = parts
            if not piece or flag not in ("0", "1"):
                raise loader_error(path, lineno, "expected a non-empty piece and a flag of 0 or 1")
            piece = _new_piece(piece, log_probs, path, lineno)
            lp = log_probs[piece] = _parsed(float, lp, "log-prob", path, lineno)
            if not lp <= 0:  # no probability exceeds 1
                raise loader_error(path, lineno, f"log-prob must be a number <= 0, got {lp}")
            if flag == "1":
                protected.add(piece)
        total = sum(math.exp(lp) for lp in log_probs.values())
        if not abs(total - 1.0) <= 1e-6:
            raise LoaderError(f"{path}: entry probabilities sum to {total}, expected 1")
        boost = _parsed(float, header["boost"], "boost", path, header_lines["boost"])
        if not math.isfinite(boost):
            raise loader_error(path, header_lines["boost"], f"boost must be finite, got {boost}")
        model = UlmTokenizer(UlmVocabulary(log_probs, frozenset(protected), boost), cfg, guidance)
    stored, digest = header["config_digest"], config_digest(model)
    if stored != digest:
        raise LoaderError(f"{path}: config_digest {stored} does not match the header's {digest}")
    return model


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
    mode = GUIDANCE_MODES[model.guidance]
    if mode and lexicon is None:
        warn(
            f"artifact guidance is {model.guidance!r} but no lexicon was supplied; "
            "encoding raw words without presegmentation"
        )
        mode = None
    delimiter = text_delimiter(model)
    contextual = mode == CONTEXTUAL

    def encode(word: str, pos: str | None = None) -> list[str]:
        if mode:
            word = presegment_word(
                word,
                lexicon,
                pos=pos if contextual else None,
                mapping=pos_mapping,
                delimiter=delimiter,
            )
        return model.encode_word(word)

    return encode
