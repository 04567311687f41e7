"""File loading for corpora, lexica, suffix lists, and gold sets.

All inputs are UTF-8 plain text:

- corpus: one sentence per line, words separated by whitespace
- tagged corpus: TSV ``word<TAB>UD_POS``, blank line between sentences
- morphological lexicon: TSV ``word<TAB>index<TAB>pos<TAB>seg`` where
  ``seg`` joins morphemes with "@" (``advers@ari``)
- suffix list: one suffix per line
- gold segmentation set: TSV ``word<TAB>pos_or_dash<TAB>seg``

The "@" character doubles as the morpheme delimiter, so a literal "@"
in raw text is escaped to ``\\@`` on ingest and unescaped whenever text
leaves the toolkit. Only the delimiter itself is escaped; a raw
backslash immediately followed by the delimiter is indistinguishable
from an escape and is not supported.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field

from .errors import LoaderError, loader_error
from .morphology import ANALYZER_TAGS, UD_TAGS, MorphAnalysis

DEFAULT_DELIMITER = "@"
CONTINUATION_PREFIX = "##"
UNK_TOKEN = "[UNK]"


def escape_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    """Escape literal delimiter characters in raw text ("@" -> "\\@")."""
    return text.replace(delimiter, "\\" + delimiter)


def unescape_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    """Inverse of :func:`escape_delimiter`."""
    return text.replace("\\" + delimiter, delimiter)


def split_on_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> list[str]:
    """Split on unescaped delimiters only; escaped ones stay in the parts."""
    parts = []
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] == delimiter:
            current.append(text[i : i + 2])
            i += 2
        elif ch == delimiter:
            parts.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    parts.append("".join(current))
    return parts


def _iter_lines(path):
    """Yield (lineno, text) pairs, decoding per line so errors carry a location."""
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise loader_error(path, lineno, f"invalid UTF-8 ({exc.reason})") from None


@dataclass
class Corpus:
    """Sentences of whitespace-free words; treat as read-only after construction."""

    sentences: list[list[str]]

    def iter_words(self):
        for sentence in self.sentences:
            yield from sentence

    def word_counts(self) -> Counter:
        """Token frequency per word type."""
        counts = Counter()
        for sentence in self.sentences:
            counts.update(sentence)
        return counts

    @property
    def n_words(self) -> int:
        return sum(len(s) for s in self.sentences)


def load_corpus(path, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER) -> Corpus:
    """Load a one-sentence-per-line corpus.

    Words are split on runs of whitespace (so doubled spaces never yield
    empty words), optionally lowercased, and literal delimiter
    characters are escaped. Blank lines are skipped; an empty file gives
    a corpus with zero sentences.
    """
    sentences = []
    for _, line in _iter_lines(path):
        words = line.split()
        if not words:
            continue
        if lowercase:
            words = [w.lower() for w in words]
        sentences.append([escape_delimiter(w, delimiter) for w in words])
    return Corpus(sentences)


@dataclass
class TaggedCorpus:
    """Sentences of (word, UD tag) pairs."""

    sentences: list[list[tuple[str, str]]]

    def to_corpus(self) -> Corpus:
        return Corpus([[w for w, _ in sentence] for sentence in self.sentences])

    @property
    def n_words(self) -> int:
        return sum(len(s) for s in self.sentences)


def load_tagged_corpus(
    path, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER
) -> TaggedCorpus:
    """Load a POS-tagged corpus: ``word<TAB>UD_POS`` rows, blank line between sentences."""
    sentences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for lineno, line in _iter_lines(path):
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise loader_error(path, lineno, f"expected 2 tab-separated fields, got {len(parts)}")
        word, tag = parts[0].strip(), parts[1].strip()
        if not word:
            raise loader_error(path, lineno, "empty word")
        if tag not in UD_TAGS:
            raise loader_error(path, lineno, f"unknown UD POS tag: {tag!r}")
        if lowercase:
            word = word.lower()
        current.append((escape_delimiter(word, delimiter), tag))
    if current:
        sentences.append(current)
    return TaggedCorpus(sentences)


@dataclass
class MorphLexicon:
    """Analyses per surface form, in file order; `rejected` lists skipped rows."""

    entries: dict[str, list[MorphAnalysis]] = field(default_factory=dict)
    rejected: list[str] = field(default_factory=list)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def analyses(self, word: str) -> list[MorphAnalysis]:
        return self.entries.get(word, [])


def load_lexicon(path, delimiter: str = DEFAULT_DELIMITER) -> MorphLexicon:
    """Load a morphological lexicon.

    Rows are ``word<TAB>index<TAB>pos<TAB>seg``. A row whose morphemes do
    not concatenate to the word, whose POS is unknown, or that is
    otherwise malformed is skipped and recorded in ``rejected`` rather
    than aborting the load. Analyses keep file order per word; the
    "first analysis" used by acontextual selection is the first row.
    """
    lexicon = MorphLexicon()

    def reject(lineno, reason):
        lexicon.rejected.append(f"{path}:{lineno}: {reason}")

    for lineno, line in _iter_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            reject(lineno, f"expected 4 tab-separated fields, got {len(parts)}")
            continue
        word, index, pos, seg = (p.strip() for p in parts)
        if not word:
            reject(lineno, "empty word")
            continue
        try:
            int(index)
        except ValueError:
            reject(lineno, f"analysis index is not an integer: {index!r}")
            continue
        if pos not in ANALYZER_TAGS:
            reject(lineno, f"unknown analyzer POS tag: {pos!r}")
            continue
        word = escape_delimiter(word, delimiter)
        morphemes = split_on_delimiter(seg, delimiter)
        if any(not m for m in morphemes):
            reject(lineno, "empty morpheme in segmentation")
            continue
        if "".join(morphemes) != word:
            reject(lineno, f"segmentation {seg!r} does not concatenate to {word!r}")
            continue
        lexicon.entries.setdefault(word, []).append(MorphAnalysis(tuple(morphemes), pos))
    return lexicon


def load_suffixes(path) -> list[str]:
    """Load a suffix list, one per line; duplicates are skipped, order kept."""
    suffixes: list[str] = []
    seen = set()
    for lineno, line in _iter_lines(path):
        suffix = line.strip()
        if not suffix or suffix.startswith("#"):
            continue
        if any(ch.isspace() for ch in suffix):
            raise loader_error(path, lineno, f"suffix contains whitespace: {suffix!r}")
        if suffix in seen:
            continue
        seen.add(suffix)
        suffixes.append(suffix)
    return suffixes


@dataclass(frozen=True)
class GoldItem:
    word: str
    pos: str | None
    pieces: tuple[str, ...]


@dataclass
class GoldSegmentationSet:
    items: list[GoldItem] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def load_gold_set(path, delimiter: str = DEFAULT_DELIMITER) -> GoldSegmentationSet:
    """Load gold segmentations: ``word<TAB>pos_or_dash<TAB>seg`` rows.

    A "-" in the POS column means no tag. Bad rows are skipped and
    recorded, mirroring :func:`load_lexicon`.
    """
    gold = GoldSegmentationSet()

    def reject(lineno, reason):
        gold.rejected.append(f"{path}:{lineno}: {reason}")

    for lineno, line in _iter_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            reject(lineno, f"expected 3 tab-separated fields, got {len(parts)}")
            continue
        word, pos, seg = (p.strip() for p in parts)
        if not word:
            reject(lineno, "empty word")
            continue
        if pos == "-":
            tag = None
        elif pos in UD_TAGS:
            tag = pos
        else:
            reject(lineno, f"unknown UD POS tag: {pos!r}")
            continue
        word = escape_delimiter(word, delimiter)
        pieces = split_on_delimiter(seg, delimiter)
        if any(not p for p in pieces):
            reject(lineno, "empty piece in segmentation")
            continue
        if "".join(pieces) != word:
            reject(lineno, f"segmentation {seg!r} does not concatenate to {word!r}")
            continue
        gold.items.append(GoldItem(word, tag, tuple(pieces)))
    return gold


def reservoir_indices(n: int, fraction: float, seed: int) -> list[int]:
    """Pick round(fraction * n) sorted indices out of range(n) by reservoir draw.

    The draw depends only on (seed, n), so identical inputs give
    identical samples. fraction = 1 keeps everything.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
    if n == 0:
        return []
    if fraction == 1:
        return list(range(n))
    k = max(1, int(round(fraction * n)))
    rng = random.Random(seed)
    reservoir = list(range(min(k, n)))
    for i in range(k, n):
        j = rng.randrange(i + 1)
        if j < k:
            reservoir[j] = i
    return sorted(reservoir)


def sample_sentences(corpus, fraction: float, seed: int):
    """Reservoir-sample a fraction of sentences, preserving corpus order.

    Returns a corpus of the type given (:class:`Corpus` or
    :class:`TaggedCorpus`); fraction = 1 returns `corpus` itself.
    """
    if fraction == 1:
        return corpus
    keep = reservoir_indices(len(corpus.sentences), fraction, seed)
    return dataclasses.replace(corpus, sentences=[corpus.sentences[i] for i in keep])
