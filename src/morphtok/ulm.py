"""Unigram language model tokenizer.

A vocabulary assigns each subword piece a log-probability. A word is
modeled as the sum over all segmentations of the product of its piece
probabilities; decoding picks the single best path through the word's
segmentation lattice (Viterbi).

Training seeds the vocabulary with frequent substrings, then alternates
EM steps (forward-backward expected counts, renormalize) with pruning of
low-utility entries until the target size is reached. Seeded suffixes
are protected from pruning and can carry a decode-time log-prob boost;
single characters are never pruned so every training word stays
segmentable.

With a morph delimiter configured, words split into morpheme segments
and each segment gets its own lattice, so no piece ever spans a
morpheme boundary.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import UNK_TOKEN, Corpus, split_on_delimiter

NEG_INF = float("-inf")


@dataclass
class UlmTrainerConfig:
    """Trainer options; the field order is the artifact header order, as for
    :class:`morphtok.wordpiece.WpTrainerConfig`."""

    vocab_size: int = 30000
    shrinking_factor: float = 0.75
    seed_size: int = 1_000_000
    max_piece_length: int = 16
    em_iterations_per_round: int = 2
    seed_suffixes: tuple[str, ...] | None = field(default=None, metadata={"option": False})
    seed_weight: float = 0.5
    exact_pruning: bool = False
    morph_delimiter: str | None = None


@dataclass
class UlmVocabulary:
    """Pieces with log-probabilities; probabilities sum to 1 (within float error).

    `protected` marks entries exempt from pruning (seeded suffixes);
    `boost` is added to protected entries' log-probs at decode time only.
    """

    log_probs: dict[str, float]
    protected: frozenset[str] = frozenset()
    boost: float = 0.0
    unk_token: str = UNK_TOKEN
    _max_len: int | None = field(default=None, init=False, repr=False, compare=False)

    def __contains__(self, piece: str) -> bool:
        return piece in self.log_probs

    def __len__(self) -> int:
        return len(self.log_probs)

    def max_piece_length(self) -> int:
        if self._max_len is None:
            self._max_len = max((len(p) for p in self.log_probs), default=0)
        return self._max_len


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


def _split_units(word_freqs, morph_delimiter: str | None) -> Counter:
    """Frequency-weighted morpheme segments (whole words when no delimiter)."""
    units: Counter = Counter()
    for word, freq in word_freqs.items():
        if not word:
            raise ValueError("cannot train on an empty word")
        segments = split_on_delimiter(word, morph_delimiter) if morph_delimiter else [word]
        if any(not s for s in segments):
            raise ValueError(f"empty morpheme segment in {word!r}")
        for seg in segments:
            units[seg] += freq
    return units


def _adjacency(unit: str, pieces, max_len: int) -> list[list[tuple[int, str]]]:
    """Lattice edges grouped by start position: out[i] lists (end, piece)."""
    n = len(unit)
    out: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for i in range(n):
        top = min(i + max_len, n)
        row = out[i]
        for j in range(i + 1, top + 1):
            piece = unit[i:j]
            if piece in pieces:
                row.append((j, piece))
    return out


def _better(cand, cur) -> bool:
    """Path preference: higher score, then fewer pieces, then smaller sequence."""
    if cand[0] != cur[0]:
        return cand[0] > cur[0]
    if cand[1] != cur[1]:
        return cand[1] < cur[1]
    return cand[2] < cur[2]


def _viterbi(unit, adjacency, log_probs, protected=frozenset(), boost=0.0):
    """Best (score, piece_count, pieces, weights) over the lattice, or None.

    A path scores the correctly-rounded sum (math.fsum) of its edge
    weights, so two orderings of one piece multiset score identically
    and fall through to the piece-count and lexicographic tie-breaks.
    Left-to-right accumulation would instead let intermediate rounding
    pick between such paths by accident.
    """
    n = len(unit)
    best: list[tuple[float, int, tuple[str, ...], tuple[float, ...]] | None]
    best = [None] * (n + 1)
    best[0] = (0.0, 0, (), ())
    for i in range(n):
        b = best[i]
        if b is None:
            continue
        _, count_i, seq_i, weights_i = b
        for j, piece in adjacency[i]:
            w = log_probs[piece]
            if boost and piece in protected:
                w += boost
            weights = weights_i + (w,)
            cand = (math.fsum(weights), count_i + 1, seq_i + (piece,), weights)
            cur = best[j]
            if cur is None or _better(cand, cur):
                best[j] = cand
    return best[n]


def ulm_encode(word: str, vocab: UlmVocabulary, morph_delimiter: str | None = None) -> list[str]:
    """Viterbi-decode a word; any unreachable position maps the whole word
    to the unknown token. Protected entries receive the vocabulary's
    boost on their lattice edges."""
    if not word:
        raise ValueError("cannot encode an empty word")
    segments = split_on_delimiter(word, morph_delimiter) if morph_delimiter else [word]
    if any(not s for s in segments):
        raise ValueError(f"empty morpheme segment in {word!r}")
    max_len = vocab.max_piece_length()
    pieces: list[str] = []
    for seg in segments:
        adjacency = _adjacency(seg, vocab.log_probs, max_len)
        res = _viterbi(seg, adjacency, vocab.log_probs, vocab.protected, vocab.boost)
        if res is None:
            return [vocab.unk_token]
        pieces.extend(res[2])
    return pieces


def _forward(n, adjacency, log_probs):
    contrib: list[list[float]] = [[] for _ in range(n + 1)]
    alpha = [NEG_INF] * (n + 1)
    alpha[0] = 0.0
    for i in range(n):
        if i > 0:
            alpha[i] = _logsumexp(contrib[i]) if contrib[i] else NEG_INF
        ai = alpha[i]
        if ai == NEG_INF:
            continue
        for j, piece in adjacency[i]:
            contrib[j].append(ai + log_probs[piece])
    alpha[n] = _logsumexp(contrib[n]) if contrib[n] else NEG_INF
    return alpha


def _backward(n, adjacency, log_probs):
    beta = [NEG_INF] * (n + 1)
    beta[n] = 0.0
    for i in range(n - 1, -1, -1):
        vals = []
        for j, piece in adjacency[i]:
            bj = beta[j]
            if bj != NEG_INF:
                vals.append(log_probs[piece] + bj)
        beta[i] = _logsumexp(vals) if vals else NEG_INF
    return beta


def _expected_counts(unit_counts, log_probs, adjacency_map):
    """Forward-backward posterior piece counts, frequency-weighted.

    Returns (counts, corpus log-likelihood, unlatticizable units); the
    latter contribute nothing to counts and stand for UNK fallbacks.
    """
    counts = {p: 0.0 for p in log_probs}
    ll = 0.0
    unk: list[str] = []
    for unit, freq in unit_counts.items():
        n = len(unit)
        adjacency = adjacency_map[unit]
        alpha = _forward(n, adjacency, log_probs)
        log_z = alpha[n]
        if log_z == NEG_INF:
            unk.append(unit)
            continue
        beta = _backward(n, adjacency, log_probs)
        ll += freq * log_z
        for i in range(n):
            ai = alpha[i]
            if ai == NEG_INF:
                continue
            for j, piece in adjacency[i]:
                bj = beta[j]
                if bj == NEG_INF:
                    continue
                counts[piece] += freq * math.exp(ai + log_probs[piece] + bj - log_z)
    return counts, ll, unk


def _em_step_units(unit_counts, log_probs, adjacency_map):
    counts, ll, unk = _expected_counts(unit_counts, log_probs, adjacency_map)
    total = math.fsum(counts.values())
    if total <= 0:
        raise ValueError("EM step found no probability mass; vocabulary cannot cover the corpus")
    log_total = math.log(total)
    new = {p: (math.log(c) - log_total if c > 0.0 else NEG_INF) for p, c in counts.items()}
    return new, ll, unk


def _adjacency_map(unit_counts, log_probs):
    max_len = max((len(p) for p in log_probs), default=0)
    return {u: _adjacency(u, log_probs, max_len) for u in unit_counts}


def em_step(word_freqs, log_probs, morph_delimiter: str | None = None):
    """One EM step over a word-frequency mapping.

    Returns (new_log_probs, log_likelihood, unlatticizable_units) where
    the likelihood is computed under the input parameters, so iterating
    this function yields a non-decreasing likelihood sequence.
    """
    unit_counts = _split_units(word_freqs, morph_delimiter)
    return _em_step_units(unit_counts, log_probs, _adjacency_map(unit_counts, log_probs))


def ulm_marginal_counts(corpus: Corpus, vocab: UlmVocabulary, morph_delimiter: str | None = None):
    """Expected piece counts over a corpus under the current model.

    Boost never applies here; it is a decode-time device. Returns
    (counts for every entry, words that fell back to UNK).
    """
    word_freqs = corpus.word_counts()
    unit_counts = _split_units(word_freqs, morph_delimiter)
    counts, _, unk = _expected_counts(
        unit_counts, vocab.log_probs, _adjacency_map(unit_counts, vocab.log_probs)
    )
    return counts, unk


def corpus_log_likelihood(corpus: Corpus, vocab: UlmVocabulary, morph_delimiter: str | None = None) -> float:
    """Frequency-weighted sum of per-word marginal log-probabilities.

    Unlatticizable words are skipped (they carry no finite likelihood)."""
    word_freqs = corpus.word_counts()
    unit_counts = _split_units(word_freqs, morph_delimiter)
    _, ll, _ = _expected_counts(
        unit_counts, vocab.log_probs, _adjacency_map(unit_counts, vocab.log_probs)
    )
    return ll


def _seed_log_probs(unit_counts, cfg: UlmTrainerConfig, protected) -> dict[str, float]:
    """Initial vocabulary: most frequent substrings plus mandatory entries.

    Initial probabilities are proportional to frequency * length (the
    character mass a piece accounts for); seeds absent from the corpus
    count as if seen once.
    """
    substr_freq: Counter = Counter()
    for unit, freq in unit_counts.items():
        n = len(unit)
        for i in range(n):
            top = min(i + cfg.max_piece_length, n)
            for j in range(i + 1, top + 1):
                substr_freq[unit[i:j]] += freq
    chars = {ch for unit in unit_counts for ch in unit}
    ranked = sorted(substr_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    selected = {piece for piece, _ in ranked[: cfg.seed_size]}
    selected |= chars
    selected |= set(protected)
    weights = {p: max(substr_freq.get(p, 0), 1) * len(p) for p in sorted(selected)}
    log_total = math.log(sum(weights.values()))
    return {p: math.log(w) - log_total for p, w in weights.items()}


def _alternative_score(piece: str, log_probs, max_len: int):
    """Best segmentation score of a piece's own string without the piece itself."""
    n = len(piece)
    adjacency: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for i in range(n):
        top = min(i + max_len, n)
        for j in range(i + 1, top + 1):
            sub = piece[i:j]
            if sub != piece and sub in log_probs:
                adjacency[i].append((j, sub))
    res = _viterbi(piece, adjacency, log_probs)
    return None if res is None else res[0]


def _approximate_utilities(prunable, unit_counts, adjacency_map, log_probs):
    """Likelihood loss if an entry is removed, under current Viterbi segmentations.

    usage(p) * (logprob(p) - best alternative for p's string); unused
    entries cost nothing to remove.
    """
    usage: Counter = Counter()
    for unit, freq in unit_counts.items():
        res = _viterbi(unit, adjacency_map[unit], log_probs)
        if res is None:
            continue
        for piece in res[2]:
            usage[piece] += freq
    max_len = max(len(p) for p in log_probs)
    utilities = {}
    for p in prunable:
        f = usage.get(p, 0)
        if f == 0:
            utilities[p] = 0.0
            continue
        alt = _alternative_score(p, log_probs, max_len)
        utilities[p] = math.inf if alt is None else f * (log_probs[p] - alt)
    return utilities


def _exact_utilities(prunable, unit_counts, adjacency_map, log_probs):
    """Exact marginal-likelihood loss per entry (recomputes affected lattices)."""
    log_z = {}
    touched: dict[str, set[str]] = {}
    for unit in unit_counts:
        adjacency = adjacency_map[unit]
        alpha = _forward(len(unit), adjacency, log_probs)
        log_z[unit] = alpha[len(unit)]
        for row in adjacency:
            for _, piece in row:
                touched.setdefault(piece, set()).add(unit)
    utilities = {}
    for p in prunable:
        util = 0.0
        for unit in sorted(touched.get(p, ())):
            full = log_z[unit]
            if full == NEG_INF:
                continue
            adjacency = [
                [(j, piece) for j, piece in row if piece != p] for row in adjacency_map[unit]
            ]
            alpha = _forward(len(unit), adjacency, log_probs)
            without = alpha[len(unit)]
            if without == NEG_INF:
                util = math.inf
                break
            util += unit_counts[unit] * (full - without)
        utilities[p] = util
    return utilities


def _prune(log_probs, unit_counts, adjacency_map, cfg: UlmTrainerConfig, exempt):
    overshoot = len(log_probs) - cfg.vocab_size
    if overshoot <= 0:
        return log_probs
    prunable = [p for p in log_probs if p not in exempt]
    if not prunable:
        return log_probs
    k = int(len(prunable) * (1 - cfg.shrinking_factor))
    k = max(1, min(k, overshoot, len(prunable)))
    if cfg.exact_pruning:
        utilities = _exact_utilities(prunable, unit_counts, adjacency_map, log_probs)
    else:
        utilities = _approximate_utilities(prunable, unit_counts, adjacency_map, log_probs)
    drop = set(sorted(prunable, key=lambda p: (utilities[p], p))[:k])
    return {p: lp for p, lp in log_probs.items() if p not in drop}


def ulm_train(corpus: Corpus, cfg: UlmTrainerConfig) -> UlmVocabulary:
    """Train a unigram LM vocabulary down to cfg.vocab_size entries."""
    if not 0 < cfg.shrinking_factor < 1:
        raise ValueError(f"shrinking_factor must be in (0, 1), got {cfg.shrinking_factor}")
    if cfg.max_piece_length < 1 or cfg.seed_size < 1:
        raise ValueError("max_piece_length and seed_size must be positive")
    word_freqs = corpus.word_counts()
    if not word_freqs:
        raise ValueError("cannot train on an empty corpus")
    unit_counts = _split_units(word_freqs, cfg.morph_delimiter)

    protected = tuple(dict.fromkeys(cfg.seed_suffixes)) if cfg.seed_suffixes else ()
    chars = {ch for unit in unit_counts for ch in unit}
    exempt = chars | set(protected)
    if cfg.vocab_size < len(exempt):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} is below the characters + protected count ({len(exempt)})"
        )

    log_probs = _seed_log_probs(unit_counts, cfg, protected)
    while len(log_probs) > cfg.vocab_size:
        adjacency_map = _adjacency_map(unit_counts, log_probs)
        for _ in range(cfg.em_iterations_per_round):
            log_probs, _, _ = _em_step_units(unit_counts, log_probs, adjacency_map)
        log_probs = _prune(log_probs, unit_counts, adjacency_map, cfg, exempt)

    adjacency_map = _adjacency_map(unit_counts, log_probs)
    for _ in range(cfg.em_iterations_per_round):
        log_probs, _, _ = _em_step_units(unit_counts, log_probs, adjacency_map)

    boost = cfg.seed_weight if protected else 0.0
    return UlmVocabulary(log_probs, frozenset(protected), boost)


@dataclass
class UlmTokenizer:
    vocab: UlmVocabulary
    config: UlmTrainerConfig
    guidance: str = "baseline"

    def encode_word(self, word: str) -> list[str]:
        return ulm_encode(word, self.vocab, self.config.morph_delimiter)
