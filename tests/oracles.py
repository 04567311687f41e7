"""Reference implementations used to cross-check the package.

Everything here is deliberately naive and shares no code with the
package internals: exhaustive enumeration instead of dynamic
programming, Fraction arithmetic instead of floats, linear scans
instead of cached indexes.
"""

import math
from collections import Counter, defaultdict
from fractions import Fraction

CONTINUATION = "##"
NEG_INF = float("-inf")


def split_on_delimiter_oracle(text, delimiter="@"):
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


def corpus_sentences_oracle(lines, lowercase=False, delimiter="@"):
    """Sentences of words from lines, each word lowercased and escaped on its own."""
    sentences = []
    for line in lines:
        words = line.split()
        if words:
            if lowercase:
                words = [w.lower() for w in words]
            sentences.append([w.replace(delimiter, "\\" + delimiter) for w in words])
    return sentences


def greedy_segment(segment, entries, first_is_continuation):
    """Longest-prefix-first WordPiece walk; None when a position is stuck."""
    pieces = []
    i = 0
    n = len(segment)
    while i < n:
        continuation = first_is_continuation or i > 0
        match = None
        for j in range(n, i, -1):
            cand = segment[i:j]
            if continuation:
                cand = CONTINUATION + cand
            if cand in entries:
                match = (j, cand)
                break
        if match is None:
            return None
        i, piece = match
        pieces.append(piece)
    return pieces


def wp_encode_oracle(word, entries, unk="[UNK]", delimiter=None):
    """Reference WordPiece encoding. Words must not contain escapes."""
    segments = word.split(delimiter) if delimiter else [word]
    out = []
    for k, seg in enumerate(segments):
        pieces = greedy_segment(seg, entries, k > 0)
        if pieces is None:
            return [unk]
        out.extend(pieces)
    return out


def wp_train_oracle(word_counts, vocab_size, min_pair_frequency=2, seed_suffixes=None, delimiter=None):
    """Reference WordPiece training: the entries of the vocabulary, found by
    scanning every pair for the best score at each merge and recounting
    each affected word's pairs and symbols from scratch. Words must not
    contain empty morph segments. A vocab_size below the initial inventory
    returns that inventory."""
    units = []
    for word, freq in word_counts.items():
        for k, seg in enumerate(word.split(delimiter) if delimiter else [word]):
            units.append(([ch if k == 0 and i == 0 else CONTINUATION + ch for i, ch in enumerate(seg)], freq))

    vocab = {"[UNK]"}
    for symbols, _ in units:
        for s in symbols:
            vocab.add(s[-1])
            vocab.add(CONTINUATION + s[-1])
    for suffix in seed_suffixes or ():
        vocab.add(CONTINUATION + suffix)

    symbol_counts = Counter()
    pair_counts = Counter()
    where = defaultdict(set)  # pair -> unit indices containing it

    def unit_pairs(symbols):
        return zip(symbols, symbols[1:])

    for uid, (symbols, freq) in enumerate(units):
        for s in symbols:
            symbol_counts[s] += freq
        for pair in unit_pairs(symbols):
            pair_counts[pair] += freq
            where[pair].add(uid)

    min_pc = min_pair_frequency
    while len(vocab) < vocab_size:
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
        merged = a + b[len(CONTINUATION) :]
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

    return vocab


def lattice_oracle(text, vocab):
    """Every (end, piece) edge from each position of text, shortest first,
    by slicing every substring."""
    n = len(text)
    return [[(j, text[i:j]) for j in range(i + 1, n + 1) if text[i:j] in vocab] for i in range(n)]


def enumerate_segmentations(text, vocab):
    """Every tiling of text by vocabulary pieces, in DFS order."""
    results = []

    def rec(i, acc):
        if i == len(text):
            results.append(tuple(acc))
            return
        for j in range(i + 1, len(text) + 1):
            sub = text[i:j]
            if sub in vocab:
                acc.append(sub)
                rec(j, acc)
                acc.pop()

    rec(0, [])
    return results


def _exact_sum(weights):
    """Exact sum of float weights as a Fraction, or -inf when one is -inf."""
    if -math.inf in weights:
        return -math.inf
    return sum(map(Fraction, weights), Fraction(0))


def _path_score(seq, log_probs, protected, boost):
    """Exact sum of edge weights, so a path's rank hangs on no rounding:
    reorderings of one piece multiset score identically, and ties resolve
    by count and order."""
    weights = []
    for piece in seq:
        w = log_probs[piece]
        if boost and piece in protected:
            w = w + boost
        weights.append(w)
    return _exact_sum(weights)


def _prefer(a, b):
    """True when path a beats b: higher score, fewer pieces, smaller sequence."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def viterbi_oracle(word, log_probs, protected=frozenset(), boost=0.0, delimiter=None):
    """Best segmentation by exhaustive enumeration, or None if uncoverable."""
    segments = word.split(delimiter) if delimiter else [word]
    out = []
    for seg in segments:
        best = None
        for seq in enumerate_segmentations(seg, log_probs):
            cand = (_path_score(seq, log_probs, protected, boost), len(seq), seq)
            if best is None or _prefer(cand, best):
                best = cand
        if best is None:
            return None
        out.extend(best[2])
    return out


def viterbi_lattice_oracle(lattice, log_probs, protected=frozenset(), boost=0.0):
    """Best (score, piece_count, pieces, weights) over the lattice, or None.

    Each node keeps its best whole path. Paths rank by the exact sum of
    their edge weights, then by fewer pieces, then by the smaller
    sequence; the score is math.fsum of the weights, that sum correctly
    rounded.
    """
    n = len(lattice)
    best: list[tuple[float, int, tuple[str, ...], tuple[float, ...]] | None]
    best = [None] * (n + 1)
    best[0] = (0.0, 0, (), ())
    exact = [None] * (n + 1)  # each node's best path's exact sum
    exact[0] = Fraction(0)
    for i in range(n):
        b = best[i]
        if b is None:
            continue
        _, count_i, seq_i, weights_i = b
        for j, piece in lattice[i]:
            w = log_probs[piece]
            if boost and piece in protected:
                w += boost
            weights = weights_i + (w,)
            cand = (math.fsum(weights), count_i + 1, seq_i + (piece,), weights)
            sum_j = _exact_sum([exact[i], w])
            cur = best[j]
            if cur is None or _prefer((sum_j, *cand[1:3]), (exact[j], *cur[1:3])):
                best[j] = cand
                exact[j] = sum_j
    return best[n]


def viterbi_exact_lattice_oracle(lattice, weights, scale):
    """Best (score, piece_count, pieces) over the lattice, or None: the
    decoder that read a whole lattice, row by row, before the trie walk.

    Paths rank by the exact sum of their edge weights, then by fewer
    pieces, then by the smaller piece sequence. Each node keeps its best
    path's sum as an integer over `scale` (see `_exact_weights`), NEG_INF
    past a -inf edge; unlike a rounded sum, it keeps its order when two
    paths gain one edge, so one path per node finds the best on finite
    weights. The score is the sum correctly rounded, as math.fsum gives.
    With a back-pointer per node an edge costs O(1) outside exact ties of
    sum and count. There the two paths into a node share every piece up
    to their last common node, and the first pieces after it decide.
    """
    n = len(lattice)
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
        for j, piece in lattice[i]:
            w = weights[piece]
            t = NEG_INF if dead or w is None else t_i + w
            cur = total[j]
            if cur is not None and t <= cur:
                if t < cur or c > count[j]:
                    continue
                if c == count[j]:  # exact tie: the smaller piece sequence wins
                    u, pu, v, pv = i, piece, back[j], last[j]
                    while u != v:
                        if u > v:
                            u, pu = back[u], last[u]
                        else:
                            v, pv = back[v], last[v]
                    if pu >= pv:
                        continue
            count[j], total[j], back[j], last[j] = c, t, i, piece
    t = total[n]
    if t is None:
        return None
    pieces = []
    j = n
    while j:
        pieces.append(last[j])
        j = back[j]
    pieces.reverse()
    return NEG_INF if t == NEG_INF else t / scale, count[n], pieces


def approximate_utilities_oracle(prunable, unit_counts, lattice, weights, scale, log_probs):
    """Pruning utilities as the lattice decoder gave them. `lattice(text)`
    builds a lattice; an entry's alternative decodes the lattice of its own
    string without its own edge, the longest from position 0."""
    usage = Counter()
    for unit, freq in unit_counts.items():
        res = viterbi_exact_lattice_oracle(lattice(unit), weights, scale)
        if res is None:
            continue
        for piece in res[2]:
            usage[piece] += freq
    utilities = {}
    for p in prunable:
        f = usage.get(p, 0)
        if f == 0:
            utilities[p] = 0.0
            continue
        without = lattice(p)
        without[0].pop()
        alt = viterbi_exact_lattice_oracle(without, weights, scale)
        utilities[p] = math.inf if alt is None else f * (log_probs[p] - alt[0])
    return utilities


def _logsumexp_left_to_right(values):
    """log(sum(exp(values))), summed left to right: from Python 3.12 on,
    builtin sum() compensates float rounding."""
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    total = 0.0
    for v in values:
        total += math.exp(v - m)
    return m + math.log(total)


def forward_oracle(lattice, log_probs):
    """Forward log-marginals of one unit's lattice, position by position."""
    n = len(lattice)
    contrib = [[] for _ in range(n + 1)]
    alpha = [NEG_INF] * (n + 1)
    alpha[0] = 0.0
    for i in range(n):
        if i > 0:
            alpha[i] = _logsumexp_left_to_right(contrib[i]) if contrib[i] else NEG_INF
        ai = alpha[i]
        if ai == NEG_INF:
            continue
        for j, piece in lattice[i]:
            contrib[j].append(ai + log_probs[piece])
    alpha[n] = _logsumexp_left_to_right(contrib[n]) if contrib[n] else NEG_INF
    return alpha


def backward_oracle(lattice, log_probs):
    """Backward log-marginals of one unit's lattice, position by position."""
    n = len(lattice)
    beta = [NEG_INF] * (n + 1)
    beta[n] = 0.0
    for i in range(n - 1, -1, -1):
        vals = []
        for j, piece in lattice[i]:
            bj = beta[j]
            if bj != NEG_INF:
                vals.append(log_probs[piece] + bj)
        beta[i] = _logsumexp_left_to_right(vals) if vals else NEG_INF
    return beta


def expected_counts_oracle(unit_counts, log_probs):
    """(counts, log-likelihood, uncoverable units) as forward-backward over
    each unit's own lattice gave them, unit by unit: the same floats in the
    same order as the package's expected counts, which share the work of
    units with a common prefix or suffix."""
    counts = {p: 0.0 for p in log_probs}
    ll = 0.0
    unk = []
    for unit, freq in unit_counts.items():
        lattice = lattice_oracle(unit, log_probs)
        alpha = forward_oracle(lattice, log_probs)
        log_z = alpha[-1]
        if log_z == NEG_INF:
            unk.append(unit)
            continue
        beta = backward_oracle(lattice, log_probs)
        ll += freq * log_z
        for i, row in enumerate(lattice):
            ai = alpha[i]
            if ai == NEG_INF:
                continue
            for j, piece in row:
                bj = beta[j]
                if bj == NEG_INF:
                    continue
                counts[piece] += freq * math.exp(ai + log_probs[piece] + bj - log_z)
    return counts, ll, unk


def exact_utilities_oracle(prunable, unit_counts, log_probs):
    """Exact marginal-likelihood loss per entry as the per-unit lattices gave
    it: each touched unit's forward pass rerun without the entry's edges,
    units in sorted order, an entry some unit needs costing inf."""
    lattices = {unit: lattice_oracle(unit, log_probs) for unit in unit_counts}
    log_z = {}
    touched = {}
    for unit, lattice in lattices.items():
        log_z[unit] = forward_oracle(lattice, log_probs)[-1]
        for row in lattice:
            for _, piece in row:
                touched.setdefault(piece, set()).add(unit)
    utilities = {}
    for p in prunable:
        util = 0.0
        for unit in sorted(touched.get(p, ())):
            full = log_z[unit]
            if full == NEG_INF:
                continue
            without_p = [[(j, piece) for j, piece in row if piece != p] for row in lattices[unit]]
            without = forward_oracle(without_p, log_probs)[-1]
            if without == NEG_INF:
                util = math.inf
                break
            util += unit_counts[unit] * (full - without)
        utilities[p] = util
    return utilities


def strip_markers(pieces):
    out = [pieces[0]]
    for p in pieces[1:]:
        out.append(p[len(CONTINUATION):] if p.startswith(CONTINUATION) else p)
    return out


def boundary_set(pieces):
    cuts = set()
    acc = 0
    for p in pieces[:-1]:
        acc += len(p)
        cuts.add(acc)
    return cuts


def prf_oracle(n_inter, n_pred, n_gold):
    """Precision/recall/F1 as exact rationals."""
    if n_pred == 0 and n_gold == 0:
        return Fraction(1), Fraction(1), Fraction(1)
    p = Fraction(n_inter, n_pred) if n_pred else Fraction(0)
    r = Fraction(n_inter, n_gold) if n_gold else Fraction(0)
    f = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f


def eval_oracle(pairs):
    """Corpus metrics over (pred_pieces, gold_pieces) pairs, markers already
    stripped. Returns a dict of Fractions (morphscore None when nothing
    qualifies)."""
    n = len(pairs)
    em = Fraction(0)
    inter = pred_b = gold_b = 0
    pieces = gold_pieces = 0
    ms_hits = ms_n = 0
    for pred, gold in pairs:
        em += int(list(pred) == list(gold))
        pb, gb = boundary_set(pred), boundary_set(gold)
        inter += len(pb & gb)
        pred_b += len(pb)
        gold_b += len(gb)
        pieces += len(pred)
        gold_pieces += len(gold)
        if len(gold) >= 2 and len(pred) >= 2:
            cut = sum(len(p) for p in gold[:-1])
            ms_n += 1
            ms_hits += int(cut in pb)
    p, r, f = prf_oracle(inter, pred_b, gold_b)
    return {
        "exact_match": em / n,
        "precision": p,
        "recall": r,
        "f1": f,
        "fertility": Fraction(pieces, n),
        "gold_fertility": Fraction(gold_pieces, n),
        "morphscore": Fraction(ms_hits, ms_n) if ms_n else None,
    }


def em_step_oracle(word_freqs, probs):
    """One exact EM step over Fraction probabilities.

    probs maps piece -> Fraction; returns (expected_counts, new_probs),
    both exact. Words no segmentation can cover are skipped, mirroring
    the UNK fallback.
    """
    counts = {p: Fraction(0) for p in probs}
    for word, freq in word_freqs.items():
        segs = enumerate_segmentations(word, probs)
        z = Fraction(0)
        weights = []
        for seq in segs:
            w = Fraction(1)
            for piece in seq:
                w *= probs[piece]
            weights.append(w)
            z += w
        if z == 0:
            continue
        for seq, w in zip(segs, weights):
            for piece in seq:
                counts[piece] += freq * w / z
    total = sum(counts.values())
    new_probs = {p: c / total for p, c in counts.items()}
    return counts, new_probs
