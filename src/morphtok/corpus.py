"""File loading for corpora, lexica, suffix lists, and gold sets.

All inputs are UTF-8 plain text:

- corpus: one sentence per line, words separated by whitespace
- tagged corpus: TSV ``word<TAB>UD_POS``, blank line between sentences
- morphological lexicon: TSV ``word<TAB>index<TAB>pos<TAB>seg`` where
  ``seg`` joins morphemes with "@" (``advers@ari``)
- suffix list: one suffix per line
- gold segmentation set: TSV ``word<TAB>pos_or_dash<TAB>seg``
- POS mapping override: TSV ``UD_TAG<TAB>Analyzer1,Analyzer2,...``

The "@" character doubles as the morpheme delimiter, so a literal "@"
in raw text is escaped to ``\\@`` on ingest and unescaped whenever text
leaves the toolkit. Only the delimiter itself is escaped; a raw
backslash immediately followed by the delimiter is indistinguishable
from an escape and is not supported.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import LoaderError, loader_error
from .morphology import ANALYZER_TAGS, UD_TAGS, MorphAnalysis

DEFAULT_DELIMITER = "@"
CONTINUATION_PREFIX = "##"
UNK_TOKEN = "[UNK]"


def check_delimiter(delimiter: str | None) -> str | None:
    """`delimiter` if it is None or one character other than "\\" (which
    escapes it in text) and whitespace (which separates words); else ValueError."""
    if delimiter is not None and (len(delimiter) != 1 or delimiter == "\\" or delimiter.isspace()):
        raise ValueError(
            f"morph delimiter must be one character other than '\\' and whitespace, got {delimiter!r}"
        )
    return delimiter


def check_sample_fraction(fraction: float) -> float:
    """`fraction` if it is in (0, 1], else ValueError; NaN is not."""
    if not 0 < fraction <= 1:
        raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
    return fraction


def escape_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    """Escape literal delimiter characters in raw text ("@" -> "\\@")."""
    return text.replace(delimiter, "\\" + delimiter)


def unescape_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    """Inverse of :func:`escape_delimiter`."""
    return text.replace("\\" + delimiter, delimiter)


def split_on_delimiter(text: str, delimiter: str = DEFAULT_DELIMITER) -> list[str]:
    """Split on unescaped delimiters only; escaped ones stay in the parts."""
    return _delimiter_pattern(delimiter).split(text)


@functools.cache
def _delimiter_pattern(delimiter: str) -> re.Pattern:
    # only the delimiter is ever escaped, so a backslash before one always escapes it
    return re.compile(r"(?<!\\)" + re.escape(delimiter))


def morph_segments(word: str, delimiter: str | None, task: str) -> list[str]:
    """A word's morpheme segments (the word alone without a delimiter);
    `task` ("encode", "train on") words the error for an empty one."""
    if not word:
        raise ValueError(f"cannot {task} an empty word")
    segments = split_on_delimiter(word, delimiter) if delimiter else [word]
    if not all(segments):
        raise ValueError(f"cannot {task} {word!r}: empty morpheme segment")
    return segments


def prefix_trie(entries) -> dict:
    """Prefix trie of the entries: nested dicts keyed by character; the node
    that completes an entry holds it under the key ""."""
    root: dict = {}
    for entry in entries:
        node = root
        for ch in entry:
            node = node.setdefault(ch, {})
        node[""] = entry
    return root


def decode_lines(raw_lines, source):
    """Yield (lineno, text) pairs from byte lines without their "\\n",
    decoding per line so errors carry a location in `source`; a byte-order
    mark that starts line 1 is dropped."""
    for lineno, raw in enumerate(raw_lines, start=1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            yield lineno, raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise loader_error(source, lineno, f"invalid UTF-8 ({exc.reason})") from None


def iter_lines(path):
    """``(lineno, text)`` pairs of a UTF-8 file, as :func:`decode_lines` gives
    them; the buffer is decoded whole, and re-scanned by line only on failure."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:  # yields the lines before the bad one, then locates it
        return decode_lines(data.split(b"\n"), path)
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return enumerate(lines, start=1)


@dataclass
class Corpus:
    """Sentences of whitespace-free words; treat as read-only after construction.

    A loaded corpus holds one string per word type: every token of a type
    is the same object, however often it occurs.
    """

    sentences: list[list[str]]

    def word_counts(self) -> Counter:
        """Token frequency per word type, keyed in order of first occurrence."""
        return Counter(chain.from_iterable(self.sentences))

    @property
    def n_words(self) -> int:
        return sum(len(s) for s in self.sentences)


def load_corpus(path, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER) -> Corpus:
    """Load a one-sentence-per-line corpus.

    Words are split on runs of whitespace (so doubled spaces never yield
    empty words), optionally lowercased, and literal delimiter
    characters are escaped. Blank lines are skipped; an empty file gives
    a corpus with zero sentences. Tokens of one type share one string.
    """
    return Corpus(_shared_types(corpus_sentences(iter_lines(path), lowercase, delimiter)))


def _shared_types(sentences) -> list[list]:
    """The sentences with every token replaced by the first equal one seen,
    so a held corpus costs one object per type and a pointer per token."""
    share = {}.setdefault  # local to one load, unlike sys.intern's process-wide table
    return [list(map(share, s, s)) for s in sentences]


def corpus_sentences(lines, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER):
    """Sentences of words from ``(lineno, text)`` pairs, as :func:`load_corpus` reads them."""
    # the delimiter is one character other than "\" and whitespace, so neither
    # lowercasing nor escaping a whole line moves a word boundary
    for _, line in lines:
        if lowercase:
            line = line.lower()
        words = escape_delimiter(line, delimiter).split()
        if words:
            yield words


@dataclass
class TaggedCorpus:
    """Sentences of (word, UD tag) pairs; treat as read-only after construction.

    A loaded corpus holds one tuple per (word, tag) type: every token of a
    type is the same object, however often it occurs. Only a type first read
    after the memo of :func:`tagged_sentences` is full has a tuple per token.
    """

    sentences: list[list[tuple[str, str]]]

    def to_corpus(self) -> Corpus:
        return Corpus([[w for w, _ in sentence] for sentence in self.sentences])

    @property
    def n_words(self) -> int:
        return sum(len(s) for s in self.sentences)


# the most distinct inputs a memo of `encode`'s output texts or of parsed
# tagged rows keeps, and the most characters it keeps for them; an input that
# would overrun either is worked out again when it recurs, so memory stays
# bounded on endless input however long its lines
ENCODE_MEMO_CAP = 1 << 16
ENCODE_MEMO_CHARS = 1 << 20


def tagged_sentences(lines, source, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER):
    """Sentences of (word, UD tag) pairs from ``(lineno, text)`` pairs of
    ``word<TAB>UD_POS`` rows, each yielded at the blank line that ends it;
    errors are located at ``source:lineno``. Tokens of one (word, tag) type
    share one tuple, until the memo of parsed rows is full."""
    # a valid row's text -> its pair, so a repeated row costs one lookup; a
    # bad row is never kept, so it fails at its own line. `pairs` shares one
    # tuple among rows that differ only in whitespace, or case under `lowercase`
    rows: dict[str, tuple[str, str]] = {}
    pairs: dict[tuple[str, str], tuple[str, str]] = {}
    held = 0  # characters in the kept rows' texts and words
    current: list[tuple[str, str]] = []
    for lineno, line in lines:
        pair = rows.get(line)
        if pair is None:
            if not line.strip():
                if current:
                    yield current
                    current = []
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise loader_error(source, lineno, f"expected 2 tab-separated fields, got {len(parts)}")
            word, tag = parts[0].strip(), parts[1].strip()
            if not word:
                raise loader_error(source, lineno, "empty word")
            # as in a plain corpus, which is split on it, no word holds whitespace;
            # no whitespace is alphanumeric, so most words need no split
            if not word.isalnum() and word.split() != [word]:
                raise loader_error(source, lineno, f"word contains whitespace: {word!r}")
            if tag not in UD_TAGS:
                raise loader_error(source, lineno, f"unknown UD POS tag: {tag!r}")
            if lowercase:
                word = word.lower()
            pair = (escape_delimiter(word, delimiter), tag)
            size = len(line) + len(pair[0])
            if len(rows) < ENCODE_MEMO_CAP and held + size <= ENCODE_MEMO_CHARS:
                pair = rows[line] = pairs.setdefault(pair, pair)
                held += size
            else:
                pair = pairs.get(pair, pair)
        current.append(pair)
    if current:
        yield current


def load_tagged_corpus(
    path, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER
) -> TaggedCorpus:
    """Load a POS-tagged corpus: ``word<TAB>UD_POS`` rows, blank line between
    sentences, read as :func:`tagged_sentences` reads them."""
    return TaggedCorpus(list(tagged_sentences(iter_lines(path), path, lowercase, delimiter)))


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


def _segmented_rows(path, n_fields: int, delimiter: str, piece: str, rejected: list[str], parse):
    """``(word, parse(*middle), pieces)`` of each ``word<TAB>middle...<TAB>seg`` row of
    `n_fields` stripped fields, skipping blank and "#" lines; a malformed row, or
    one whose `parse` raises ValueError, is recorded in `rejected` and skipped."""
    for lineno, line in iter_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            if len(parts) != n_fields:
                raise ValueError(f"expected {n_fields} tab-separated fields, got {len(parts)}")
            word, *middle, seg = (p.strip() for p in parts)
            if not word:
                raise ValueError("empty word")
            parsed = parse(*middle)
            word = escape_delimiter(word, delimiter)
            pieces = split_on_delimiter(seg, delimiter)
            if not all(pieces):
                raise ValueError(f"empty {piece} in segmentation")
            if "".join(pieces) != word:
                raise ValueError(f"segmentation {seg!r} does not concatenate to {word!r}")
        except ValueError as exc:
            rejected.append(f"{path}:{lineno}: {exc}")
            continue
        yield word, parsed, tuple(pieces)


def _analyzer_pos(index: str, pos: str) -> str:
    try:
        int(index)
    except ValueError:
        raise ValueError(f"analysis index is not an integer: {index!r}") from None
    if pos not in ANALYZER_TAGS:
        raise ValueError(f"unknown analyzer POS tag: {pos!r}")
    return pos


def load_lexicon(path, delimiter: str = DEFAULT_DELIMITER) -> MorphLexicon:
    """Load a morphological lexicon.

    Rows are ``word<TAB>index<TAB>pos<TAB>seg``. A row whose morphemes do
    not concatenate to the word, whose POS is unknown, or that is
    otherwise malformed is skipped and recorded in ``rejected`` rather
    than aborting the load. Analyses keep file order per word; the
    "first analysis" used by acontextual selection is the first row.
    """
    lexicon = MorphLexicon()
    rows = _segmented_rows(path, 4, delimiter, "morpheme", lexicon.rejected, _analyzer_pos)
    for word, pos, morphemes in rows:
        lexicon.entries.setdefault(word, []).append(MorphAnalysis(morphemes, pos))
    return lexicon


def load_suffixes(path, lowercase: bool = False, delimiter: str = DEFAULT_DELIMITER) -> list[str]:
    """Load a suffix list, one per line, each optionally lowercased and then
    escaped as a corpus word is; duplicates after that are skipped, order kept."""
    suffixes: dict[str, None] = {}
    for lineno, line in iter_lines(path):
        suffix = line.strip()
        if not suffix or suffix.startswith("#"):
            continue
        if any(ch.isspace() for ch in suffix):
            raise loader_error(path, lineno, f"suffix contains whitespace: {suffix!r}")
        if lowercase:
            suffix = suffix.lower()
        suffixes[escape_delimiter(suffix, delimiter)] = None
    return list(suffixes)


def load_pos_mapping(path) -> dict[str, tuple[str, ...]]:
    """Load a POS mapping override: TSV lines ``UD_TAG<TAB>Analyzer1,Analyzer2,...``.

    The file must cover every UD tag exactly once; per-tag order is kept.
    """
    mapping: dict[str, tuple[str, ...]] = {}
    for lineno, line in iter_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise loader_error(path, lineno, f"expected 2 tab-separated fields, got {len(parts)}")
        ud_tag, csv = parts
        if ud_tag not in UD_TAGS:
            raise loader_error(path, lineno, f"unknown UD POS tag: {ud_tag!r}")
        if ud_tag in mapping:
            raise loader_error(path, lineno, f"duplicate UD POS tag: {ud_tag!r}")
        tags = tuple(t.strip() for t in csv.split(","))
        if not tags or any(not t for t in tags):
            raise loader_error(path, lineno, "empty analyzer tag list")
        for t in tags:
            if t not in ANALYZER_TAGS:
                raise loader_error(path, lineno, f"unknown analyzer POS tag: {t!r}")
        mapping[ud_tag] = tags
    missing = UD_TAGS - mapping.keys()
    if missing:
        raise LoaderError(f"{path}: mapping does not cover UD tags: {', '.join(sorted(missing))}")
    return mapping


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


def _ud_tag_or_dash(pos: str) -> str | None:
    if pos != "-" and pos not in UD_TAGS:
        raise ValueError(f"unknown UD POS tag: {pos!r}")
    return None if pos == "-" else pos


def load_gold_set(path, delimiter: str = DEFAULT_DELIMITER) -> GoldSegmentationSet:
    """Load gold segmentations: ``word<TAB>pos_or_dash<TAB>seg`` rows.

    A "-" in the POS column means no tag. Bad rows are skipped and
    recorded, mirroring :func:`load_lexicon`.
    """
    gold = GoldSegmentationSet()
    rows = _segmented_rows(path, 3, delimiter, "piece", gold.rejected, _ud_tag_or_dash)
    gold.items.extend(GoldItem(*row) for row in rows)
    return gold


def reservoir_indices(n: int, fraction: float, seed: int) -> list[int]:
    """Pick round(fraction * n) sorted indices out of range(n) by reservoir draw.

    The draw depends only on (seed, n), so identical inputs give
    identical samples. fraction = 1 keeps everything.
    """
    check_sample_fraction(fraction)
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
