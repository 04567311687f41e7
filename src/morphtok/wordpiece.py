"""WordPiece-style tokenizer: PMI-greedy merge training, longest-match encoding.

Training starts from single characters (word-initial form plus "##"
continuation form) and repeatedly merges the adjacent symbol pair with
the highest score

    score(a, b) = count(ab) / (count(a) * count(b))

where counts come from the current segmentations of all word types,
weighted by token frequency. Ties break on pair count, then on the
lexicographically larger pair, making every run reproducible.

With a morph delimiter configured, each word is split into morpheme
segments first. Segments after the first are symbol-initialized
entirely in continuation form, so nothing is ever merged across a
morpheme boundary, and any subword materialized right after a boundary
enters the vocabulary as a "##" entry.

Encoding finds each longest match by walking a prefix trie of the
vocabulary (`corpus.prefix_trie`), one character at a time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import CONTINUATION_PREFIX, UNK_TOKEN, Corpus, morph_segments, prefix_trie


@dataclass
class WpTrainerConfig:
    """Trainer options. Each field is a ``train`` CLI option and an artifact
    header key, in this order (see :func:`morphtok.artifacts.config_fields`);
    ``option: False`` marks the one input that comes from a file instead."""

    vocab_size: int = 30000
    min_pair_frequency: int = 2
    seed_suffixes: tuple[str, ...] | None = field(default=None, metadata={"option": False})
    morph_delimiter: str | None = None


@dataclass
class WpVocabulary:
    entries: set[str] = field(default_factory=set)
    _tries: tuple[dict, dict] | None = field(default=None, init=False, repr=False, compare=False)

    def __contains__(self, piece: str) -> bool:
        return piece in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def tries(self) -> tuple[dict, dict]:
        """Prefix tries for the word-initial position and for later ones ("##"
        entries keyed by body). A word may start with "##", so the first
        trie holds the second under "##" too."""
        if self._tries is None:
            continuation = prefix_trie(self.entries, CONTINUATION_PREFIX)
            initial = prefix_trie(e for e in self.entries if not e.startswith(CONTINUATION_PREFIX))
            first, second = CONTINUATION_PREFIX
            initial.setdefault(first, {})[second] = continuation
            self._tries = (initial, continuation)
        return self._tries


def _word_units(word: str, freq: int, delimiter: str | None):
    """Symbol sequences for one word, one unit per morpheme segment."""
    units = []
    for k, seg in enumerate(morph_segments(word, delimiter, "train on")):
        symbols = []
        for i, ch in enumerate(seg):
            if k == 0 and i == 0:
                symbols.append(ch)
            else:
                symbols.append(CONTINUATION_PREFIX + ch)
        units.append((symbols, freq))
    return units


def wp_train(corpus: Corpus, cfg: WpTrainerConfig) -> WpVocabulary:
    """Train a WordPiece vocabulary.

    Merging stops when the vocabulary reaches cfg.vocab_size or no
    remaining pair occurs at least cfg.min_pair_frequency times.
    """
    word_counts = corpus.word_counts()
    if not word_counts:
        raise ValueError("cannot train on an empty corpus")

    units: list[tuple[list[str], int]] = []
    for word, freq in word_counts.items():
        units.extend(_word_units(word, freq, cfg.morph_delimiter))

    vocab = {UNK_TOKEN}
    for symbols, _ in units:
        for s in symbols:  # one character, bare or "##"-prefixed: add both forms
            vocab.add(s[-1])
            vocab.add(CONTINUATION_PREFIX + s[-1])
    if cfg.seed_suffixes:
        for suffix in cfg.seed_suffixes:
            vocab.add(CONTINUATION_PREFIX + suffix)
    if cfg.vocab_size < len(vocab):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} is smaller than the initial inventory "
            f"({len(vocab)} characters, seeds, and specials)"
        )

    symbol_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    where: defaultdict = defaultdict(set)  # pair -> unit indices containing it

    def unit_pairs(symbols):
        return zip(symbols, symbols[1:])

    for uid, (symbols, freq) in enumerate(units):
        for s in symbols:
            symbol_counts[s] += freq
        for pair in unit_pairs(symbols):
            pair_counts[pair] += freq
            where[pair].add(uid)

    min_pc = cfg.min_pair_frequency
    while len(vocab) < cfg.vocab_size:
        best = None
        best_key = None
        for pair, pc in pair_counts.items():
            if pc < min_pc:
                continue
            key = (pc / (symbol_counts[pair[0]] * symbol_counts[pair[1]]), pc, pair)
            if best_key is None or key > best_key:
                best_key = key
                best = pair
        if best is None:
            break
        a, b = best
        merged = a + b[len(CONTINUATION_PREFIX) :]
        vocab.add(merged)

        for uid in list(where[best]):
            symbols, freq = units[uid]
            old_pairs = set(unit_pairs(symbols))
            for s in symbols:
                symbol_counts[s] -= freq
            for pair in unit_pairs(symbols):
                pair_counts[pair] -= freq

            new_symbols = []
            i = 0
            n = len(symbols)
            while i < n:
                if i + 1 < n and symbols[i] == a and symbols[i + 1] == b:
                    new_symbols.append(merged)
                    i += 2
                else:
                    new_symbols.append(symbols[i])
                    i += 1
            units[uid] = (new_symbols, freq)

            new_pairs = set(unit_pairs(new_symbols))
            for s in new_symbols:
                symbol_counts[s] += freq
            for pair in unit_pairs(new_symbols):
                pair_counts[pair] += freq
            for pair in old_pairs - new_pairs:
                where[pair].discard(uid)
            for pair in new_pairs - old_pairs:
                where[pair].add(uid)

        for pair in [p for p, c in pair_counts.items() if c <= 0]:
            del pair_counts[pair]
            where.pop(pair, None)

    return WpVocabulary(vocab)


def wp_encode(word: str, vocab: WpVocabulary, morph_delimiter: str | None = None) -> list[str]:
    """Greedy longest-match encoding; an unmatchable position maps the
    whole word to the unknown token. Each match walks a prefix trie and
    stops at the first character that continues no entry.

    The word-initial position matches bare entries, every later position
    matches "##" entries. Delimiter boundaries are hard: each morpheme
    segment is encoded on its own, segments after the first entirely in
    continuation form.
    """
    pieces = []
    for k, seg in enumerate(morph_segments(word, morph_delimiter, "encode")):
        whole = CONTINUATION_PREFIX + seg if k else seg
        if whole in vocab.entries:  # its own longest match: one probe, no walk
            pieces.append(whole)
            continue
        initial, continuation = vocab.tries()  # built on the first walk
        n = len(seg)
        i = 0
        while i < n:
            node = continuation if k or i else initial
            match = None
            for j in range(i, n):
                node = node.get(seg[j])
                if node is None:
                    break
                if "" in node:
                    match, end = node, j + 1
            if match is None:
                return [UNK_TOKEN]
            pieces.append(match[""])
            i = end
    return pieces


@dataclass
class WordPieceTokenizer:
    vocab: WpVocabulary
    config: WpTrainerConfig
    guidance: str = "baseline"

    def encode_word(self, word: str) -> list[str]:
        return wp_encode(word, self.vocab, self.config.morph_delimiter)
