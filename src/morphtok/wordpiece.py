"""WordPiece-style tokenizer: PMI-greedy merge training, longest-match encoding.

Training starts from single characters (word-initial form plus "##"
continuation form) and repeatedly merges the adjacent symbol pair with
the highest score

    score(a, b) = count(ab) / (count(a) * count(b))

where counts come from the current segmentations of all distinct
(morpheme segment, word-initial) units, weighted by token frequency:
a segment that recurs across words is one unit, trained once.
Ties break on pair count, then on the lexicographically larger pair,
making every run reproducible.

The best pair comes off a heap (`heapq`, keyed on the negated score and
count) instead of a scan over every pair. Its keys are validated
lazily: a popped key that no longer matches the current counts is
dropped, because a fresh one was pushed when they changed. The heap pops
the smallest of equal keys, so every current key tied with the top is
popped and the largest pair wins. Merging (a, b) into ab rewrites only
the pairs at each merge site, (x, a) to (x, ab) and (b, y) to (ab, y),
and (b, a) to (ab, ab) between adjacent sites, and changes only the
counts of a, b and ab. A smaller count(a) or count(b) *raises* the score
of every pair that contains a or b, even where that pair's own count is
unchanged, and a key recomputed only on pop would never see the rise.
So after each merge every live pair that contains a, b or ab goes back
on the heap, with every pair whose count moved. The heap is rebuilt from
the live pairs once most of its keys are stale.

With a morph delimiter configured, each word is split into morpheme
segments first. Segments after the first are symbol-initialized
entirely in continuation form, so nothing is ever merged across a
morpheme boundary, and any subword materialized right after a boundary
enters the vocabulary as a "##" entry.

Encoding finds each longest match by walking the one prefix trie of the
vocabulary (`corpus.prefix_trie`), one character at a time.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import CONTINUATION_PREFIX, UNK_TOKEN, Corpus, check_delimiter, morph_segments, prefix_trie


@dataclass
class WpTrainerConfig:
    """Trainer options. Each field is a ``train`` CLI option, a config file key and an
    artifact header key, in this order (see :func:`morphtok.artifacts.config_fields`);
    the corpus and the seed suffixes are trainer input, passed beside the config."""

    vocab_size: int = 30000
    min_pair_frequency: int = 2
    morph_delimiter: str | None = None

    def __post_init__(self):
        check_delimiter(self.morph_delimiter)
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.min_pair_frequency < 1:
            raise ValueError(f"min_pair_frequency must be positive, got {self.min_pair_frequency}")


@dataclass
class WpVocabulary:
    entries: set[str] = field(default_factory=set)

    def __contains__(self, piece: str) -> bool:
        return piece in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def trie(self) -> dict:
        """Prefix trie of the entries (see :func:`morphtok.corpus.prefix_trie`);
        its "##" node holds the "##" entries keyed by body."""
        return prefix_trie(self.entries)


def wp_train(corpus: Corpus, cfg: WpTrainerConfig, *, seed_suffixes=()) -> WpVocabulary:
    """Train a WordPiece vocabulary; each of `seed_suffixes` enters it as a "##" entry.

    Merging stops when the vocabulary reaches cfg.vocab_size or no
    remaining pair occurs at least cfg.min_pair_frequency times.
    """
    word_counts = corpus.word_counts()
    if not word_counts:
        raise ValueError("cannot train on an empty corpus")

    segments: Counter = Counter()  # (segment, starts its word) -> frequency
    for word, freq in word_counts.items():
        for k, seg in enumerate(morph_segments(word, cfg.morph_delimiter, "train on")):
            segments[seg, not k] += freq
    # one unit, (symbols, frequency), per key; only a word's first symbol is bare
    units = [([ch if initial and not i else CONTINUATION_PREFIX + ch for i, ch in enumerate(seg)], freq)
             for (seg, initial), freq in segments.items()]

    vocab = {UNK_TOKEN}
    for symbols, _ in units:
        for s in symbols:  # one character, bare or "##"-prefixed: add both forms
            vocab.add(s[-1])
            vocab.add(CONTINUATION_PREFIX + s[-1])
    vocab.update(CONTINUATION_PREFIX + suffix for suffix in seed_suffixes)
    if cfg.vocab_size < len(vocab):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} is smaller than the initial inventory "
            f"({len(vocab)} characters, seeds, and specials)"
        )

    symbol_counts: Counter = Counter()
    pair_counts: dict = {}
    where: defaultdict = defaultdict(set)  # pair -> units that may contain it
    pairs_of: defaultdict = defaultdict(set)  # symbol -> live pairs it is in
    for uid, (symbols, freq) in enumerate(units):
        for s in symbols:
            symbol_counts[s] += freq
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            where[pair].add(uid)
            pairs_of[pair[0]].add(pair)
            pairs_of[pair[1]].add(pair)

    def heap_key(pair):
        pc = pair_counts[pair]
        return (-(pc / (symbol_counts[pair[0]] * symbol_counts[pair[1]])), -pc, pair)

    def current(key):
        return key[2] in pair_counts and heap_key(key[2]) == key

    min_pc = cfg.min_pair_frequency
    heap: list = []
    while len(vocab) < cfg.vocab_size:
        if not heap or len(heap) > 4 * len(pair_counts):  # mostly stale keys: rebuild
            heap = [heap_key(pair) for pair, pc in pair_counts.items() if pc >= min_pc]
            heapq.heapify(heap)
        while heap and not current(heap[0]):
            heapq.heappop(heap)
        if not heap:
            break
        # the heap pops the smallest pair of a tie; the larger pair must win
        top = heapq.heappop(heap)
        tied = [top]
        while heap and heap[0][:2] == top[:2]:
            key = heapq.heappop(heap)
            if current(key):
                tied.append(key)
        best = max(tied, key=lambda k: k[2])[2]
        for key in tied:
            if key[2] != best:
                heapq.heappush(heap, key)

        a, b = best
        merged = a + b[len(CONTINUATION_PREFIX) :]
        vocab.add(merged)

        delta: dict = {}  # pair -> change of its count
        for uid in where.pop(best):
            symbols, freq = units[uid]
            n = len(symbols)
            out = []
            moves = []  # (old pair, new pair) at each side of each merge site
            i = end = 0  # end: where the last merge site ended
            while i < n:
                if symbols[i] != a or i + 1 == n or symbols[i + 1] != b:
                    out.append(symbols[i])
                    i += 1
                    continue
                if i:  # the pair on the left; right after the last site it was (b, a)
                    x = out[-1]
                    moves.append(((b if i == end else x, a), (x, merged)))
                i = end = i + 2
                if i < n and not (symbols[i] == a and i + 1 < n and symbols[i + 1] == b):
                    moves.append(((b, symbols[i]), (merged, symbols[i])))
                out.append(merged)
            sites = n - len(out)
            if sites:
                units[uid] = (out, freq)
                delta[best] = delta.get(best, 0) - sites * freq
                symbol_counts[a] -= sites * freq
                symbol_counts[b] -= sites * freq
                symbol_counts[merged] += sites * freq
                for old, new in moves:
                    delta[old] = delta.get(old, 0) - freq
                    delta[new] = delta.get(new, 0) + freq
                    where[new].add(uid)

        for pair, change in delta.items():
            pc = pair_counts.get(pair, 0) + change
            if pc:
                pair_counts[pair] = pc
                pairs_of[pair[0]].add(pair)
                pairs_of[pair[1]].add(pair)
            else:
                pair_counts.pop(pair, None)
                where.pop(pair, None)
                pairs_of[pair[0]].discard(pair)
                pairs_of[pair[1]].discard(pair)
        # a count that fell raises the score of every pair with that symbol, so
        # those pairs go back on the heap; every pair whose count moved holds
        # a, b or the merged symbol, so it is among them unless it died
        for pair in pairs_of[a] | pairs_of[b] | pairs_of[merged]:
            if pair_counts.get(pair, 0) >= min_pc:
                heapq.heappush(heap, heap_key(pair))

    return WpVocabulary(vocab)


def wp_encode(word: str, vocab: WpVocabulary, morph_delimiter: str | None = None) -> list[str]:
    """Greedy longest-match encoding; an unmatchable position maps the
    whole word to the unknown token. Each match walks a prefix trie and
    stops at the first character that continues no entry.

    The word-initial position walks from the trie's root, every later one
    from its "##" node, which holds only "##" entries. Delimiter boundaries
    are hard: each morpheme segment is encoded on its own, segments after
    the first entirely in continuation form.
    """
    pieces = []
    for k, seg in enumerate(morph_segments(word, morph_delimiter, "encode")):
        whole = CONTINUATION_PREFIX + seg if k else seg
        if whole in vocab.entries:  # its own longest match: one probe, no walk
            pieces.append(whole)
            continue
        trie = vocab.trie  # built on the first walk
        first, second = CONTINUATION_PREFIX
        continuation = trie.get(first, {}).get(second, {})
        n = len(seg)
        i = 0
        while i < n:
            node = continuation if k or i else trie
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
