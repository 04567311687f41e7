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

`_viterbi` walks the prefix trie of a `UlmVocabulary`, the one home of
its trie, depth and exact weights, for decoding and for the best
alternative of an entry approximate pruning would drop, never as deep as
the entry, so no trie is edited: pruning reads the round's `UlmVocabulary`.
EM reads each edge more than once, through one index of the training
units (`_unit_index`): a forward value depends only on a unit's prefix
and a backward value only on its suffix, so each distinct prefix and
suffix is scored once per step, by one recurrence, and training keeps
the index across pruning rounds. Exact pruning reads the same index: the
forward value of a prefix without one entry also depends only on the
prefix, so it is scored once per entry, and `_prefix_forward` serves
both. So does the usage count of approximate pruning: a best path, too,
depends only on the prefix, and `_best_paths` finds every prefix's in
one pass. The index holds each edge as two items of a flat list, its
piece and then its other end's id, so an edge is no object of its own.

Paths rank by the exact sum of their edge weights, then by fewer pieces,
then by the smaller piece sequence; a -inf entry makes the sum -inf.
Viterbi keeps that sum as an integer over one power-of-two scale, with a
back-pointer per position, so decoding is linear in the unit length
except where two paths tie exactly on sum and piece count. There
`_smaller_path` decides, for `_viterbi` and `_best_paths` alike.

With a morph delimiter configured, words split into morpheme segments
and each segment is decoded, and trained on, as a unit of its own, so no
piece ever spans a morpheme boundary.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import UNK_TOKEN, Corpus, check_delimiter, morph_segments, prefix_trie

NEG_INF = float("-inf")


@dataclass
class UlmTrainerConfig:
    """Trainer options, each a ``train`` CLI option, a config file key and an
    artifact header key in this order, as for :class:`morphtok.wordpiece.WpTrainerConfig`."""

    vocab_size: int = 30000
    shrinking_factor: float = 0.75
    seed_size: int = 1_000_000
    max_piece_length: int = 16
    em_iterations_per_round: int = 2
    seed_weight: float = 0.5
    exact_pruning: bool = False
    morph_delimiter: str | None = None

    def __post_init__(self):
        check_delimiter(self.morph_delimiter)
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if not math.isfinite(self.seed_weight):
            raise ValueError(f"seed_weight must be finite, got {self.seed_weight}")
        if not 0 < self.shrinking_factor < 1:
            raise ValueError(f"shrinking_factor must be in (0, 1), got {self.shrinking_factor}")
        if self.max_piece_length < 1 or self.seed_size < 1 or self.em_iterations_per_round < 1:
            raise ValueError("max_piece_length, seed_size and em_iterations_per_round must be positive")


@dataclass
class UlmVocabulary:
    """Pieces with log-probabilities; probabilities sum to 1 (within float error).

    `protected` marks entries exempt from pruning (seeded suffixes);
    `boost` is added to protected entries' log-probs at decode time only.
    """

    log_probs: dict[str, float]
    protected: frozenset[str] = frozenset()
    boost: float = 0.0

    def __contains__(self, piece: str) -> bool:
        return piece in self.log_probs

    def __len__(self) -> int:
        return len(self.log_probs)

    @functools.cached_property
    def trie(self) -> dict:
        """Prefix trie of the entries (see :func:`morphtok.corpus.prefix_trie`)."""
        return prefix_trie(self.log_probs)

    @functools.cached_property
    def depth(self) -> int:
        """Length of the longest entry, which bounds every walk of `trie`."""
        return max(map(len, self.log_probs), default=0)

    @functools.cached_property
    def weights(self) -> dict[str, int | None]:
        """Exact decode-time edge weights over one power-of-two scale (see `_exact_weights`)."""
        return _exact_weights(self.log_probs, self.protected, self.boost)[0]


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    # left to right, so the sum rounds alike on every Python: from 3.12 on,
    # builtin sum() compensates float rounding
    total = 0.0
    for v in values:
        total += math.exp(v - m)
    return m + math.log(total)


def _split_units(word_freqs, morph_delimiter: str | None) -> Counter:
    """Frequency-weighted morpheme segments (whole words when no delimiter)."""
    units: Counter = Counter()
    for word, freq in word_freqs.items():
        for seg in morph_segments(word, morph_delimiter, "train on"):
            units[seg] += freq
    return units


def _ids(chars, ids_of, edges):
    """Ids of the successive prefixes of `chars`, the empty one first, in the tree
    `ids_of`, one map of (parent id, character) -> child id; a new id, len(edges), gets an edge list."""
    ids = [0]
    for ch in chars:
        i = ids_of.setdefault((ids[-1], ch), len(edges))
        if i == len(edges):
            edges.append([])
        ids.append(i)
    return ids


def _unit_index(units, trie):
    """The segmentation edges of `units` over the entries of `trie`, by prefix
    and suffix: (into, out, positions). into[p] is the flat list of prefix p's
    in-edges by start position, out[s] of suffix s's out-edges shortest first,
    each edge its piece, then its other end's id; positions holds each unit's
    prefix and suffix ids at 0..n. Id 0 is the empty prefix or suffix; an
    edge's other end has the smaller id. The edges from each position are
    found by walking `trie` from it. Ids keyed by (parent id, character), not
    by substring, keep the build linear in the units' length."""
    into, out, positions = [[]], [[]], []
    prefix_ids, suffix_ids = {}, {}
    for unit in units:
        old_prefixes, old_suffixes = len(into), len(out)  # ids from these on are the unit's own
        pids = _ids(unit, prefix_ids, into)
        sids = _ids(reversed(unit), suffix_ids, out)[::-1]
        for i in range(len(unit)):
            node = trie
            for j in range(i + 1, len(unit) + 1):
                node = node.get(unit[j - 1])
                if node is None:
                    break
                piece = node.get("")
                if piece is None:
                    continue
                if sids[i] >= old_suffixes:
                    out[sids[i]] += piece, sids[j]
                if pids[j] >= old_prefixes:
                    into[pids[j]] += piece, pids[i]
        positions.append((pids, sids))
    return into, out, positions


def _exact_weights(log_probs, protected=frozenset(), boost=0.0) -> tuple[dict[str, int | None], int]:
    """Edge weights as exact integers over one power-of-two `scale`: piece ->
    weight * scale, or None for -inf. A protected piece's boost is added to
    its float log-prob first, as a decode always did.

    The scale is 2**k, where k >= 0 is 53 less the `frexp` exponent of the
    least finite non-zero magnitude, so each weight times 2.0**k is an
    integer, exactly. Where 2.0**k or the largest magnitude times it would
    overflow a float, the scale is the largest `as_integer_ratio`
    denominator instead. Either way weight / scale is the weight."""
    weights = {p: lp + boost if boost and p in protected else lp for p, lp in log_probs.items()}
    least = min((abs(w) for w in weights.values() if w and w != NEG_INF), default=0.0)
    most = max((abs(w) for w in weights.values() if w != NEG_INF), default=0.0)
    k = max(0, 53 - math.frexp(least)[1]) if least else 0
    if k < 1024 and most * 2.0**k < math.inf:
        scaled, scale = 2.0**k, 1 << k
        for p, w in weights.items():  # in place, so no second dict of every entry is held
            weights[p] = None if w == NEG_INF else int(w * scaled)
        return weights, scale
    scale = max((w.as_integer_ratio()[1] for w in weights.values() if w != NEG_INF), default=1)
    for p, w in weights.items():
        weights[p] = None if w == NEG_INF else (r := w.as_integer_ratio())[0] * (scale // r[1])
    return weights, scale


def _smaller_path(u, pu, v, pv, back, last):
    """Of two paths into one node that tie exactly on sum and piece count,
    the one ending in edge `pu` from node u and the one ending in `pv` from
    v, True when the first is the smaller piece sequence. `back` and `last`
    hold each node's best path as its last edge's start and piece; a node
    comes after its back-pointer in their order. The two paths share every
    piece up to their last common node, and the first pieces after it decide."""
    while u != v:
        if u > v:
            u, pu = back[u], last[u]
        else:
            v, pv = back[v], last[v]
    return pu < pv


def _viterbi(unit, trie, depth, weights):
    """The pieces of the unit's best segmentation, or None. From each
    reachable position it walks `trie` at most `depth` characters deep,
    the longest entry, and relaxes each edge it finds.

    Paths rank by the exact sum of their edge weights, then by fewer
    pieces, then by the smaller piece sequence. Each node keeps its best
    path's sum as an integer over one scale (see `_exact_weights`), NEG_INF
    past a -inf edge; unlike a rounded sum, it keeps its order when two
    paths gain one edge, so one path per node finds the best on finite
    weights. With a back-pointer per node an edge costs O(1) outside exact
    ties of sum and count, which `_smaller_path` decides.
    """
    n = len(unit)
    count = [0] * (n + 1)
    total: list[int | float | None] = [None] * (n + 1)
    back = [0] * (n + 1)
    last: list[str] = [""] * (n + 1)
    total[0] = 0
    for i in range(n):
        t_i = total[i]
        if t_i is None:
            continue
        dead = t_i == NEG_INF
        c = count[i] + 1
        node, j = trie, i
        for ch in unit[i:i + depth]:
            node = node.get(ch)
            if node is None:
                break
            j += 1
            piece = node.get("")
            if piece is None:
                continue
            w = weights[piece]
            t = NEG_INF if dead or w is None else t_i + w
            cur = total[j]
            if cur is not None and t <= cur:
                if t < cur or c > count[j]:
                    continue
                if c == count[j] and not _smaller_path(i, piece, back[j], last[j], back, last):
                    continue  # exact tie: the smaller piece sequence wins
            count[j], total[j], back[j], last[j] = c, t, i, piece
    if total[n] is None:
        return None
    pieces = []
    j = n
    while j:
        pieces.append(last[j])
        j = back[j]
    pieces.reverse()
    return pieces


def ulm_encode(word: str, vocab: UlmVocabulary, morph_delimiter: str | None = None) -> list[str]:
    """Viterbi-decode a word; any unreachable position maps the whole word
    to the unknown token. Protected entries receive the vocabulary's
    boost on their edges."""
    trie, depth, weights = vocab.trie, vocab.depth, vocab.weights
    pieces: list[str] = []
    for seg in morph_segments(word, morph_delimiter, "encode"):
        best = _viterbi(seg, trie, depth, weights)
        if best is None:
            return [UNK_TOKEN]
        pieces.extend(best)
    return pieces


def _prefix_forward(edges, alpha, log_probs, without=None):
    """Forward value of a prefix: the logsumexp, in start order, of alpha[f] + log_probs[p]
    over its in-edges, the flat pairs p, f, with entry `without` read as -inf. A -inf
    term adds exp(-inf) = 0.0, so an edge of `without` or from a dead f adds nothing."""
    it = iter(edges)
    vals = [alpha[next(it)] + (log_probs[p] if p != without else NEG_INF) for p in it]
    return _logsumexp(vals) if vals else NEG_INF


def _forward_values(into, log_probs):
    """Forward value of every prefix id of a `_unit_index`, id 0 the empty
    prefix; over its `out` in place of `into`, the backward value of every suffix id."""
    alpha = [0.0]
    for edges in into[1:]:
        alpha.append(_prefix_forward(edges, alpha, log_probs))
    return alpha


def _expected_counts(unit_counts, log_probs, index=None):
    """Forward-backward posterior piece counts, frequency-weighted, over
    `index` (see `_unit_index`), which is built here when not given.

    Each prefix id gets one forward value and each suffix id one backward
    value; every value and sum is the one, in the same order, that
    forward-backward over each unit's own lattice gives.

    Returns (counts, corpus log-likelihood, unlatticizable units); the
    latter contribute nothing to counts and stand for UNK fallbacks.
    """
    if index is None:
        index = _unit_index(unit_counts, prefix_trie(log_probs))
    into, out, positions = index
    alpha = _forward_values(into, log_probs)
    beta = _forward_values(out, log_probs)
    counts = {p: 0.0 for p in log_probs}
    ll = 0.0
    unk: list[str] = []
    exp = math.exp
    for (unit, freq), (pids, sids) in zip(unit_counts.items(), positions):
        log_z = alpha[pids[-1]]
        if log_z == NEG_INF:
            unk.append(unit)
            continue
        ll += freq * log_z
        for pid, sid in zip(pids, sids):
            ai = alpha[pid]
            if ai == NEG_INF:
                continue
            it = iter(out[sid])
            for piece in it:  # each piece, then its suffix id; a -inf backward value adds exp(-inf) = 0.0
                counts[piece] += freq * exp(ai + log_probs[piece] + beta[next(it)] - log_z)
    return counts, ll, unk


def _em_step_units(unit_counts, log_probs, index=None):
    counts, ll, unk = _expected_counts(unit_counts, log_probs, index)
    total = math.fsum(counts.values())
    if total <= 0:
        raise ValueError("EM step found no probability mass; vocabulary cannot cover the corpus")
    log_total = math.log(total)
    new = {p: (math.log(c) - log_total if c > 0.0 else NEG_INF) for p, c in counts.items()}
    return new, ll, unk


def em_step(word_freqs, log_probs, morph_delimiter: str | None = None):
    """One EM step over a word-frequency mapping.

    Returns (new_log_probs, log_likelihood, unlatticizable_units) where
    the likelihood is computed under the input parameters, so iterating
    this function yields a non-decreasing likelihood sequence.
    """
    return _em_step_units(_split_units(word_freqs, morph_delimiter), log_probs)


def ulm_marginal_counts(corpus: Corpus, vocab: UlmVocabulary, morph_delimiter: str | None = None):
    """Expected piece counts over a corpus under the current model.

    Boost never applies here; it is a decode-time device. Returns
    (counts for every entry, words that fell back to UNK).
    """
    unit_counts = _split_units(corpus.word_counts(), morph_delimiter)
    counts, _, unk = _expected_counts(unit_counts, vocab.log_probs)
    return counts, unk


def corpus_log_likelihood(corpus: Corpus, vocab: UlmVocabulary, morph_delimiter: str | None = None) -> float:
    """Frequency-weighted sum of per-word marginal log-probabilities.

    Unlatticizable words are skipped (they carry no finite likelihood)."""
    unit_counts = _split_units(corpus.word_counts(), morph_delimiter)
    return _expected_counts(unit_counts, vocab.log_probs)[1]


def _seed_log_probs(unit_counts, cfg: UlmTrainerConfig, exempt) -> dict[str, float]:
    """Initial vocabulary: most frequent substrings plus the `exempt` entries.

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
    ranked = sorted(substr_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    selected = {piece for piece, _ in ranked[: cfg.seed_size]} | exempt
    weights = {p: max(substr_freq.get(p, 0), 1) * len(p) for p in sorted(selected)}
    log_total = math.log(sum(weights.values()))
    return {p: math.log(w) - log_total for p, w in weights.items()}


def _best_paths(into, weights):
    """Best path to every prefix id of a `_unit_index` over `weights`, in
    `_viterbi`'s order: (total, back, last) per id as `_viterbi` keeps them
    per position, total None where no path reaches. A best path depends
    only on its prefix and an in-edge comes from a smaller id, so one pass
    in id order reads each prefix's in-edges in start order, as `_viterbi`
    relaxes a position's. Ids along a unit's chain grow with its positions,
    so `_smaller_path` walks them alike."""
    n = len(into)
    count = [0] * n
    total: list[int | float | None] = [None] * n
    back = [0] * n
    last: list[str] = [""] * n
    total[0] = 0
    for q in range(1, n):
        cur = None  # q's best so far: sum cur, count c_q, last edge p_q from f_q
        it = iter(into[q])
        for piece in it:
            f = next(it)
            t_f = total[f]
            if t_f is None:
                continue
            w = weights[piece]
            t = NEG_INF if w is None or t_f == NEG_INF else t_f + w
            c = count[f] + 1
            if cur is not None and t <= cur:
                if t < cur or c > c_q:
                    continue
                if c == c_q and not _smaller_path(f, piece, f_q, p_q, back, last):
                    continue
            cur, c_q, f_q, p_q = t, c, f, piece
        if cur is not None:
            total[q], count[q], back[q], last[q] = cur, c_q, f_q, p_q
    return total, back, last


def _approximate_utilities(prunable, unit_counts, vocab, index):
    """Likelihood loss if an entry is removed, under current Viterbi segmentations.

    usage(p) * (logprob(p) - the fsum of p's best alternative); unused entries
    cost nothing to remove. `index` (see `_unit_index`) holds the entries of
    `vocab`, an unboosted `UlmVocabulary`. Usage comes from `_best_paths`:
    each unit's frequency is pushed back from its final prefix id along the
    back-pointers, in reverse id order. Only the alternative of a used
    entry, whose string the index lacks, is decoded by `_viterbi`, at most
    len(p) - 1 characters deep: every edge of p's segmentations but p's own.
    """
    log_probs, weights, trie = vocab.log_probs, vocab.weights, vocab.trie
    into, _, positions = index
    total, back, last = _best_paths(into, weights)
    through = [0] * len(into)  # frequency of the units whose best path runs through each prefix id
    for freq, (pids, _) in zip(unit_counts.values(), positions):
        through[pids[-1]] += freq
    usage: Counter = Counter()
    for q in range(len(into) - 1, 0, -1):
        f = through[q]
        if f and total[q] is not None:
            usage[last[q]] += f
            through[back[q]] += f
    utilities = {}
    for p in prunable:
        f = usage.get(p, 0)
        if f == 0:
            utilities[p] = 0.0
            continue
        alt = _viterbi(p, trie, len(p) - 1, weights)
        utilities[p] = math.inf if alt is None else f * (log_probs[p] - math.fsum(log_probs[q] for q in alt))
    return utilities


def _exact_utilities(prunable, unit_counts, index, log_probs):
    """Exact marginal-likelihood loss per entry p, over the units' `index`
    (see `_unit_index`) of the entries of `log_probs`: over the units p occurs
    in, in sorted order, the sum of frequency * (forward value with p - without
    p), or inf if one has no path without p. A forward value depends only on
    the prefix, so one dict of them per p serves all its units; each value
    and sum is the one the unit's own lattice gave."""
    into, _, positions = index
    alpha = _forward_values(into, log_probs)
    prefixes = {unit: pids for unit, (pids, _) in zip(unit_counts, positions)}
    touched: dict[str, list[str]] = {}  # entry -> the units it occurs in, sorted
    for unit in sorted(prefixes):
        for piece in {p for pid in prefixes[unit] for p in into[pid][::2]}:
            touched.setdefault(piece, []).append(unit)
    utilities = {}
    for p in prunable:
        util = 0.0
        without = {}  # forward values without p, by prefix id
        for unit in touched.get(p, ()):
            pids = prefixes[unit]
            full = alpha[pids[-1]]
            if full == NEG_INF:
                continue
            start = unit.find(p) + len(p)  # the shortest prefix p occurs in
            for k, pid in enumerate(pids):
                if pid not in without:
                    without[pid] = alpha[pid] if k < start else _prefix_forward(into[pid], without, log_probs, p)
            if without[pids[-1]] == NEG_INF:
                util = math.inf
                break
            util += unit_counts[unit] * (full - without[pids[-1]])
        utilities[p] = util
    return utilities


def _prune(vocab, unit_counts, index, cfg: UlmTrainerConfig, exempt):
    """The log-probs of `vocab`, an unboosted `UlmVocabulary`, less their least
    useful non-exempt entries; called only while it holds more than
    cfg.vocab_size entries, all of `exempt` among them. `index` holds its
    entries; approximate pruning reads `vocab.trie` too."""
    log_probs = vocab.log_probs
    overshoot = len(log_probs) - cfg.vocab_size
    prunable = [p for p in log_probs if p not in exempt]
    k = max(1, min(int(len(prunable) * (1 - cfg.shrinking_factor)), overshoot))
    if cfg.exact_pruning:
        utilities = _exact_utilities(prunable, unit_counts, index, log_probs)
    else:
        utilities = _approximate_utilities(prunable, unit_counts, vocab, index)
    drop = set(sorted(prunable, key=lambda p: (utilities[p], p))[:k])
    return {p: lp for p, lp in log_probs.items() if p not in drop}


def ulm_train(corpus: Corpus, cfg: UlmTrainerConfig, *, seed_suffixes=()) -> UlmVocabulary:
    """Train a unigram LM vocabulary down to cfg.vocab_size entries; each of
    `seed_suffixes` is seeded, protected from pruning and boosted."""
    word_freqs = corpus.word_counts()
    if not word_freqs:
        raise ValueError("cannot train on an empty corpus")
    unit_counts = _split_units(word_freqs, cfg.morph_delimiter)

    protected = frozenset(seed_suffixes)
    chars = {ch for unit in unit_counts for ch in unit}
    exempt = chars | protected
    if cfg.vocab_size < len(exempt):
        raise ValueError(
            f"vocab_size {cfg.vocab_size} is below the characters + protected count ({len(exempt)})"
        )

    log_probs = _seed_log_probs(unit_counts, cfg, exempt)
    index = _unit_index(unit_counts, prefix_trie(log_probs))
    while True:  # EM keeps every key, so the round's index fits all its steps
        for _ in range(cfg.em_iterations_per_round):
            log_probs, _, _ = _em_step_units(unit_counts, log_probs, index)
        if len(log_probs) <= cfg.vocab_size:
            break
        log_probs = _prune(UlmVocabulary(log_probs), unit_counts, index, cfg, exempt)
        for edges in index[0] + index[1]:  # the pruned entries' edges leave the index
            it = iter(edges)
            edges[:] = [x for pair in zip(it, it) if pair[0] in log_probs for x in pair]

    boost = cfg.seed_weight if protected else 0.0
    return UlmVocabulary(log_probs, protected, boost)


@dataclass
class UlmTokenizer:
    vocab: UlmVocabulary
    config: UlmTrainerConfig
    guidance: str = "baseline"

    def encode_word(self, word: str) -> list[str]:
        return ulm_encode(word, self.vocab, self.config.morph_delimiter)
