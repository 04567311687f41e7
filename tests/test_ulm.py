"""Unigram-LM seeding, EM, pruning, and Viterbi decoding."""

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphtok import ulm
from morphtok.corpus import Corpus, load_corpus, load_suffixes, prefix_trie
from morphtok.ulm import (
    UlmTrainerConfig,
    UlmVocabulary,
    _approximate_utilities,
    _best_paths,
    _exact_utilities,
    _exact_weights,
    _expected_counts,
    _logsumexp,
    _seed_log_probs,
    _unit_index,
    _viterbi,
    corpus_log_likelihood,
    em_step,
    ulm_encode,
    ulm_marginal_counts,
    ulm_train,
)

from oracles import (
    approximate_utilities_oracle,
    em_step_oracle,
    exact_utilities_oracle,
    expected_counts_oracle,
    lattice_oracle,
    viterbi_exact_lattice_oracle,
    viterbi_lattice_oracle,
    viterbi_oracle,
)
from trie_steps import counting, trie_depth

UNK = "[UNK]"
MINI = Path(__file__).resolve().parent.parent / "data" / "mini-latin"


def scored(pieces, log_probs, protected=frozenset(), boost=0.0):
    """(score, piece_count, pieces) of a path, or None: the score is the
    correctly rounded exact sum of its decode-time log-probs."""
    if pieces is None:
        return None
    weights = [log_probs[p] + boost if boost and p in protected else log_probs[p] for p in pieces]
    return math.fsum(weights), len(pieces), pieces


def decode(word, log_probs, protected=frozenset(), boost=0.0):
    """`_viterbi` over a fresh trie of `log_probs`, as `ulm_encode` calls it, scored."""
    vocab = UlmVocabulary(log_probs, protected, boost)
    return scored(_viterbi(word, vocab.trie, vocab.depth, vocab.weights), log_probs, protected, boost)


def vocab_from(probs, protected=(), boost=0.0):
    return UlmVocabulary(
        {p: math.log(v) for p, v in probs.items()},
        protected=frozenset(protected),
        boost=boost,
    )


class TestViterbi:
    def test_documented_three_piece_case(self):
        # log .5 + log .3 = -1.897 < log .2 = -1.609: the single piece wins
        vocab = vocab_from({"a": 0.5, "b": 0.3, "ab": 0.2})
        assert ulm_encode("ab", vocab) == ["ab"]

    def test_split_wins_when_product_is_larger(self):
        vocab = vocab_from({"a": 0.5, "b": 0.4, "ab": 0.1})
        assert ulm_encode("ab", vocab) == ["a", "b"]

    def test_single_char(self):
        vocab = vocab_from({"a": 1.0})
        assert ulm_encode("a", vocab) == ["a"]

    def test_uncoverable_word_is_unk(self):
        vocab = vocab_from({"a": 1.0})
        assert ulm_encode("ax", vocab) == [UNK]

    def test_tie_prefers_fewer_pieces(self):
        # equal log-probs make every k-piece path score exactly -k
        lp = {p: math.log(0.25) for p in ("a", "b", "ab")}
        vocab = UlmVocabulary(lp)
        assert ulm_encode("ab", vocab) == ["ab"]

    def test_tie_prefers_smaller_sequence(self):
        # "aaaa" as two pieces: (a, aaa), (aa, aa), (aaa, a) all tie
        lp = {p: -1.0 for p in ("a", "aa", "aaa")}
        vocab = UlmVocabulary(lp)
        assert ulm_encode("aaaa", vocab) == ["a", "aaa"]

    def test_tie_prefers_smaller_sequence_over_first_arrival(self):
        # (ba, bbab, a) and (babb, a, ba) both score -5.5 in 3 pieces; the
        # second reaches the end first, from position 5
        lp = {"a": -1.5, "aab": -1.5, "b": -1.5, "ba": -2.0, "babb": -2.0, "bb": -2.0, "bba": -2.0, "bbab": -2.0}
        assert ulm_encode("babbaba", UlmVocabulary(lp)) == ["ba", "bbab", "a"]

    def test_delimiter_splits_lattice(self):
        vocab = vocab_from({"ab": 0.8, "a": 0.1, "b": 0.1})
        assert ulm_encode("ab@ab", vocab, morph_delimiter="@") == ["ab", "ab"]

    def test_delimiter_blocks_spanning_piece(self):
        vocab = vocab_from({"abab": 0.9, "ab": 0.05, "a": 0.025, "b": 0.025})
        assert ulm_encode("ab@ab", vocab, morph_delimiter="@") == ["ab", "ab"]

    def test_unk_when_one_segment_uncoverable(self):
        vocab = vocab_from({"ab": 0.9, "a": 0.1})
        assert ulm_encode("ab@zz", vocab, morph_delimiter="@") == [UNK]

    def test_empty_word_is_error(self):
        with pytest.raises(ValueError):
            ulm_encode("", vocab_from({"a": 1.0}))


class TestVocabularyTables:
    def test_built_once_and_left_out_of_comparison(self, monkeypatch):
        tries = []
        monkeypatch.setattr(ulm, "prefix_trie", lambda entries: tries.append(1) or prefix_trie(entries))
        log_probs, protected = {"a": -1.0, "ab": -0.5, "b": -2.0}, frozenset({"b"})
        vocab = UlmVocabulary(log_probs, protected, 0.5)
        assert ulm_encode("abab", vocab) == ["ab", "ab"]
        assert ulm_encode("ba", vocab) == ["b", "a"]
        assert len(tries) == 1
        assert vocab.depth == 2
        assert vocab.weights == _exact_weights(log_probs, protected, 0.5)[0]
        assert vocab == UlmVocabulary(dict(log_probs), protected, 0.5)  # whose tables are not built
        assert "trie" not in repr(vocab)


class TestBoost:
    # gap between ["cano"] and ["can","o"] is under 0.5 nats by construction
    LP = {"cano": -2.0, "can": -1.2, "o": -1.1, "c": -6.0, "a": -6.0, "n": -6.0}

    def test_gap_is_under_half_nat(self):
        assert 0 < self.LP["cano"] - (self.LP["can"] + self.LP["o"]) < 0.5

    def test_unboosted_keeps_whole_word(self):
        vocab = UlmVocabulary(dict(self.LP), protected=frozenset({"o"}), boost=0.0)
        assert ulm_encode("cano", vocab) == ["cano"]

    def test_boost_flips_to_suffix_path(self):
        vocab = UlmVocabulary(dict(self.LP), protected=frozenset({"o"}), boost=0.5)
        assert ulm_encode("cano", vocab) == ["can", "o"]

    def test_zero_boost_matches_unprotected_decode(self):
        protected = UlmVocabulary(dict(self.LP), protected=frozenset({"o"}), boost=0.0)
        plain = UlmVocabulary(dict(self.LP))
        for word in ("cano", "can", "o", "cancano"):
            assert ulm_encode(word, protected) == ulm_encode(word, plain)

    def test_oracle_agrees_with_boost(self):
        vocab = UlmVocabulary(dict(self.LP), protected=frozenset({"o"}), boost=0.5)
        assert ulm_encode("cano", vocab) == viterbi_oracle(
            "cano", self.LP, protected=frozenset({"o"}), boost=0.5
        )


# log-probs that force exact path ties: dyadic values, whose sums are exact;
# values whose sums round (-0.1 + -0.7 != -0.8); and -inf
TIE_PRONE = [-1.0, -0.5, -1.5, -0.1, -0.7, -1.1, -2.3, -0.8, -3.0, float("-inf")]


@st.composite
def ulm_instance(draw, max_word=10):
    """Log-probs over pieces of "ab", some protected, a boost and a word.
    Half the instances draw every log-prob from TIE_PRONE, half as floats.
    Sizes and strings come from a seeded `random.Random`, whose choices
    spread evenly where hypothesis's lean to the small and the first, so
    long words, large vocabularies and mixed weights are common."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pieces = sorted({"".join(rng.choices("ab", k=rng.randint(1, 4))) for _ in range(rng.randint(1, 50))})
    if rng.random() < 0.5:
        logs = [rng.choice(TIE_PRONE) for _ in pieces]
    else:
        logs = draw(st.lists(st.floats(min_value=-12.0, max_value=-0.05),
                             min_size=len(pieces), max_size=len(pieces)))
    protected = frozenset(p for p in pieces if rng.random() < 0.3)
    boost = rng.choice([0.0, 0.5])
    word = "".join(rng.choices("ab", k=rng.randint(1, max_word)))
    return dict(zip(pieces, logs)), protected, boost, word


# at position 2, (a, b) sums exactly above (ab,), yet (a, b, b, a, babb) and
# (ab, b, a, babb) both round to -1.3, where fewer pieces used to win
ULP_PREFIX = ({"a": -1.0, "b": -0.1, "ab": -1.1, "babb": -0.1}, frozenset({"a", "ab"}), 0.5, "abbababb")
# (b, a) sums exactly above -3.0, which it rounds to, tying (ba,) in score
ROUNDS_TO_TIE = ({"a": -2.3, "b": -0.7, "ba": -3.0}, frozenset(), 0.0, "ba")
# only -inf entries cover the word: every path sums to -inf
DEAD_ONLY = ({"a": -math.inf, "abba": -math.inf, "bb": -math.inf, "b": -1.0, "ab": -0.5},
             frozenset({"bb"}), 0.5, "babbbaaba")


class TestViterbiOracle:
    @given(ulm_instance())
    @example(ULP_PREFIX)
    @example(ROUNDS_TO_TIE)
    @settings(max_examples=300)
    def test_matches_enumeration(self, case):
        log_probs, protected, boost, word = case
        vocab = UlmVocabulary(log_probs, protected, boost)
        expected = viterbi_oracle(word, log_probs, protected, boost)
        got = ulm_encode(word, vocab)
        assert got == (expected if expected is not None else [UNK])

    @given(ulm_instance(max_word=300))
    @example(ULP_PREFIX)
    @example(ROUNDS_TO_TIE)
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_fsum_decoder(self, case):
        # the decoder that keeps each node's whole path and fsums it per edge
        log_probs, protected, boost, word = case
        lattice = lattice_oracle(word, log_probs)
        expected = viterbi_lattice_oracle(lattice, log_probs, protected, boost)
        got = decode(word, log_probs, protected, boost)
        if expected is None:
            assert got is None
        else:
            score, count, pieces = got
            assert (score, count, tuple(pieces)) == expected[:3]

    @given(ulm_instance(max_word=300))
    @example(ULP_PREFIX)
    @example(ROUNDS_TO_TIE)
    @example(DEAD_ONLY)
    @settings(max_examples=200, deadline=None)
    def test_matches_lattice_decoder(self, case):
        # the decoder that read a lattice built before it, row by row
        log_probs, protected, boost, word = case
        lattice = lattice_oracle(word, log_probs)
        expected = viterbi_exact_lattice_oracle(lattice, *_exact_weights(log_probs, protected, boost))
        assert decode(word, log_probs, protected, boost) == expected

    def test_exact_sum_is_fsum(self):
        # pruning scores the alternative (a, b, c) of "abc" by its exact sum,
        # rounded once; left to right, -0.1 + -0.7 + -1.1 rounds twice
        log_probs = {"a": -0.1, "abc": -1.0, "b": -0.7, "c": -1.1}
        index = _unit_index({"abc": 1}, prefix_trie(log_probs))
        got = _approximate_utilities(["abc"], {"abc": 1}, UlmVocabulary(log_probs), index)
        assert got == {"abc": -1.0 - math.fsum([-0.1, -0.7, -1.1])}
        assert got["abc"] != -1.0 - ((-0.1 + -0.7) + -1.1)


class TestExactWeights:
    @pytest.mark.parametrize("log_probs, scale", [
        # 2**k from the least magnitude's frexp exponent; the largest
        # as_integer_ratio denominator would be 2**55
        ({"a": -0.1, "b": -7.3, "c": 0.0, "d": -math.inf}, 2**56),
        ({"a": 1e300, "b": -1e300, "c": 0.0, "d": -math.inf}, 1),  # k = 0
        ({"a": -(2.0**-970), "b": -1.0}, 2**1022),
        ({"a": -(2.0**-971), "b": -1.0}, 2**1023),  # the largest k whose 2.0**k is a float
        # the as_integer_ratio branch: 2.0**k overflows, or the largest weight times it
        ({"a": -(2.0**-972), "b": -1.0}, 2**972),
        ({"a": 5e-324, "b": -1.0, "c": 0.0, "d": -math.inf}, 2**1074),
        ({"a": 1e300, "b": -1e300, "c": -0.75, "d": 0.0, "e": -math.inf}, 4),
    ], ids=["frexp", "frexp-huge", "frexp-k1022", "frexp-k1023", "ratio-k1024", "ratio-subnormal", "ratio-huge"])
    def test_weights_are_the_floats(self, log_probs, scale):
        weights, got_scale = _exact_weights(log_probs)
        assert got_scale == scale
        for p, w in log_probs.items():
            assert weights[p] is None if w == -math.inf else Fraction(weights[p], scale) == Fraction(w)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-math.inf), max_size=12))
    @settings(max_examples=300)
    def test_any_floats(self, floats):
        log_probs = {str(k): w for k, w in enumerate(floats)}
        weights, scale = _exact_weights(log_probs)
        assert scale & (scale - 1) == 0
        for p, w in log_probs.items():
            assert weights[p] is None if w == -math.inf else Fraction(weights[p], scale) == Fraction(w)


MINI_ULM = UlmTrainerConfig(vocab_size=1200, seed_size=8000, max_piece_length=10)


@pytest.fixture(scope="module")
def mini_vocab():
    """The mini-latin baseline ULM vocabulary at 1200 entries."""
    return ulm_train(load_corpus(MINI / "corpus.txt"), MINI_ULM)


def live_word(vocab, n, rng):
    """A word of n characters cut from random live pieces of `vocab`."""
    live = sorted(p for p, lp in vocab.log_probs.items() if lp != float("-inf"))
    word = ""
    while len(word) < n:
        word += rng.choice(live)
    return word[:n]


class ReadCountingStr(str):
    """A word that counts the characters its indexes and slices hand out."""

    read = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        self.read += len(out)
        return out


class TestDecodeWork:
    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    def test_trie_lookups_bounded_by_longest_entry(self, mini_vocab, monkeypatch, n):
        # from each position the walk reads at most `depth` characters, plus
        # the lookup that ends it, so a long word costs work linear in its length;
        # counting the characters read also catches a walk that copies the rest
        # of the word from each position, though it stops after `depth` of them
        steps = [0]
        monkeypatch.setattr(ulm, "prefix_trie", lambda *args: counting(prefix_trie(*args), steps))
        vocab = UlmVocabulary(mini_vocab.log_probs, mini_vocab.protected, mini_vocab.boost)
        depth = vocab.depth
        assert trie_depth(vocab.trie) == depth == 10
        word = ReadCountingStr(live_word(vocab, n, random.Random(n)))
        pieces = ulm_encode(word, vocab)
        assert "".join(pieces) == word
        assert 0 < steps[0] <= n * (depth + 1)
        assert 0 < word.read <= n * depth

    def test_memory_per_character_stays_flat(self, mini_vocab):
        # words of 1k, 2k and 4k characters from live pieces of the mini-latin
        # baseline vocabulary; a decoder that copies each node's path per edge
        # allocates in proportion to the path, so its bytes per character grow
        vocab = mini_vocab
        rng = random.Random(0)
        ulm_encode("a", vocab)  # build the trie and weights outside the measurement
        per_char = {}
        for n in (1000, 2000, 4000):
            word = live_word(vocab, n, rng)
            # CPython reuses up to 2,000 freed 2-tuples without an allocation
            # tracemalloc sees; holding more empties that free list, so any
            # 2-tuples decoding the 1k word allocates are counted like the others'
            held = [(k, k) for k in range(5000)]
            tracemalloc.start()
            try:
                pieces = ulm_encode(word, vocab)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del held
            assert "".join(pieces) == word
            per_char[n] = peak / n
        assert per_char[4000] <= 1.5 * per_char[1000], per_char


@st.composite
def pieces_and_unit(draw):
    """Pieces that share prefixes, some longer than the unit, over an
    alphabet with non-ASCII characters."""
    alphabet = "abéж"
    stems = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=8), min_size=1, max_size=5))
    pieces = {stem[:k] for stem in stems for k in range(1, len(stem) + 1) if draw(st.booleans())}
    pieces |= draw(st.sets(st.text(alphabet=alphabet, min_size=1, max_size=3), max_size=8))
    return pieces, draw(st.text(alphabet=alphabet, min_size=1, max_size=6))


class TestLattice:
    @given(pieces_and_unit())
    @settings(max_examples=300)
    def test_trie_walk_matches_slicing(self, case):
        # the index's in-edges of each prefix are the lattice edges that end
        # there, by start; its out-edges of each suffix the lattice row there;
        # each edge is its piece, then its other end's id, in one flat list
        pieces, unit = case
        into, out, [(pids, sids)] = _unit_index({unit: 1}, prefix_trie(pieces))
        lattice = lattice_oracle(unit, pieces)
        for j in range(1, len(unit) + 1):
            ending = [x for i, row in enumerate(lattice) for end, piece in row if end == j for x in (piece, pids[i])]
            assert into[pids[j]] == ending
        for i, row in enumerate(lattice):
            assert out[sids[i]] == [x for end, piece in row for x in (piece, sids[end])]


class TestLogSumExp:
    def test_sums_left_to_right(self):
        # each small term is below half an ulp of 1.0, so a plain left-to-right
        # sum drops both where a compensated one (builtin sum from Python 3.12)
        # keeps their total
        assert _logsumexp([0.0, -36.84, -36.84]) == 0.0


class TestMarginalCounts:
    def test_single_path(self):
        counts, unk = ulm_marginal_counts(Corpus([["aa"]]), vocab_from({"a": 1.0}))
        assert counts["a"] == pytest.approx(2.0, abs=1e-12)
        assert unk == []

    def test_two_path_posterior_matches_exact(self):
        probs = {"a": Fraction(2, 3), "aa": Fraction(1, 3)}
        exact, _ = em_step_oracle({"aa": 1}, probs)
        vocab = vocab_from({p: float(v) for p, v in probs.items()})
        counts, _ = ulm_marginal_counts(Corpus([["aa"]]), vocab)
        for piece in probs:
            assert counts[piece] == pytest.approx(float(exact[piece]), abs=1e-12)

    def test_frequency_weighting(self):
        corpus = Corpus([["aa", "aa", "aa"]])
        counts, _ = ulm_marginal_counts(corpus, vocab_from({"a": 1.0}))
        assert counts["a"] == pytest.approx(6.0, abs=1e-12)

    def test_uncoverable_word_reported(self):
        counts, unk = ulm_marginal_counts(Corpus([["ax"]]), vocab_from({"a": 1.0}))
        assert unk == ["ax"]
        assert counts["a"] == 0.0

    def test_empty_corpus_all_zero(self):
        counts, unk = ulm_marginal_counts(Corpus([]), vocab_from({"a": 1.0}))
        assert counts == {"a": 0.0}
        assert unk == []


@st.composite
def em_instance(draw):
    """Log-probs over pieces of "ab", drawn as in `ulm_instance`, and units
    with frequencies; a unit with a "c" in it has no segmentation."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pieces = sorted({"".join(rng.choices("ab", k=rng.randint(1, 4))) for _ in range(rng.randint(1, 30))})
    if rng.random() < 0.5:
        logs = [rng.choice(TIE_PRONE) for _ in pieces]
    else:
        logs = draw(st.lists(st.floats(min_value=-12.0, max_value=-0.05),
                             min_size=len(pieces), max_size=len(pieces)))
    units = {}
    for _ in range(rng.randint(1, 8)):
        alphabet = "abc" if rng.random() < 0.1 else "ab"
        units["".join(rng.choices(alphabet, k=rng.randint(1, 12)))] = rng.randint(1, 5)
    return dict(zip(pieces, logs)), units


class TestExpectedCounts:
    @given(em_instance())
    # a unit that is a prefix of another
    @example(({"a": -1.0, "b": -0.5, "ab": -1.5, "ba": -0.7}, {"ab": 2, "abba": 1}))
    # two units that share a suffix
    @example(({"a": -0.1, "b": -0.7, "ab": -1.1, "bab": -2.3}, {"aab": 1, "bab": 3}))
    # a -inf entry, one unit only it covers
    @example(({"a": -1.0, "b": -math.inf, "ab": -0.5, "bb": -1.1}, {"ab": 1, "bb": 2, "aba": 1, "b": 3}))
    # a unit no entry covers
    @example(({"a": -1.0, "ab": -0.5}, {"ab": 1, "abc": 2, "b": 1}))
    # the live prefix "a" meets the suffix "b", whose backward value is -inf
    @example(({"a": -1.0, "ab": -0.7, "b": -math.inf}, {"aab": 1}))
    # an in-edge ("a") of the prefix "ba" leaves the dead prefix "b"
    @example(({"a": -1.0, "ba": -0.5, "b": -math.inf}, {"baa": 2}))
    @settings(max_examples=300, deadline=None)
    def test_matches_lattice_forward_backward(self, case):
        # every count is the float each unit's own lattice gave, summed in the same order
        log_probs, unit_counts = case
        counts, ll, unk = _expected_counts(unit_counts, log_probs)
        expected_counts, expected_ll, expected_unk = expected_counts_oracle(unit_counts, log_probs)
        assert list(counts.items()) == list(expected_counts.items())
        assert ll == expected_ll
        assert unk == expected_unk


class TestExactUtilities:
    @given(em_instance())
    # a unit that is a prefix of another
    @example(({"a": -1.0, "b": -0.5, "ab": -1.5, "ba": -0.7}, {"ab": 2, "abba": 1}))
    # a -inf entry; without "ab" or "bb" their units have only -inf paths left
    @example(({"a": -1.0, "b": -math.inf, "ab": -0.5, "bb": -1.1}, {"ab": 1, "bb": 2, "aba": 1, "b": 3}))
    # a unit only "ab" covers
    @example(({"a": -1.0, "ab": -0.5}, {"ab": 2, "a": 1}))
    @settings(max_examples=300, deadline=None)
    def test_matches_lattice_oracle(self, case):
        # every utility is the float each unit's own lattice gave, summed in the same order
        log_probs, unit_counts = case
        prunable = list(log_probs)
        index = _unit_index(unit_counts, prefix_trie(log_probs))
        got = _exact_utilities(prunable, unit_counts, index, log_probs)
        assert got == exact_utilities_oracle(prunable, unit_counts, log_probs)


def index_paths(units, log_probs, protected=frozenset(), boost=0.0):
    """Each unit's best (score, piece_count, pieces) from `_best_paths` over the
    units' index, read back from its final prefix id, or None; and the same
    from `_viterbi`, scored, in the unit order of `units`."""
    weights, scale = _exact_weights(log_probs, protected, boost)
    vocab = UlmVocabulary(log_probs, protected, boost)
    into, _, positions = _unit_index(units, vocab.trie)
    total, back, last = _best_paths(into, weights)
    got, decoded = [], []
    for unit, (pids, _) in zip(units, positions):
        q = pids[-1]
        t = total[q]
        pieces = []
        while q:
            pieces.append(last[q])
            q = back[q]
        got.append(None if t is None else (-math.inf if t == -math.inf else t / scale, len(pieces), pieces[::-1]))
        decoded.append(scored(_viterbi(unit, vocab.trie, vocab.depth, weights), log_probs, protected, boost))
    return got, decoded


class TestIndexPaths:
    # every unit's path from the one pass over the index is the one `_viterbi`
    # finds; where the best sum is finite, also the one enumeration finds (on
    # -inf paths `_viterbi` keeps a known gap to the oracle, so only it is asked)

    @given(ulm_instance())
    @example(ULP_PREFIX)
    @example(ROUNDS_TO_TIE)
    @example(DEAD_ONLY)
    @settings(max_examples=300, deadline=None)
    def test_matches_decoder_on_every_prefix(self, case):
        # the word and each of its prefixes as units, with protected entries
        # boosted, so the walk back from every prefix id is checked
        log_probs, protected, boost, word = case
        units = {word[:k]: 1 for k in range(len(word), 0, -1)}
        got, decoded = index_paths(units, log_probs, protected, boost)
        assert got == decoded
        for unit, path in zip(units, got):
            if path is not None and path[0] != -math.inf:
                assert path[2] == viterbi_oracle(unit, log_probs, protected, boost)

    @given(em_instance())
    # a unit that is a prefix of another
    @example(({"a": -1.0, "b": -0.5, "ab": -1.5, "ba": -0.7}, {"ab": 2, "abba": 1}))
    # every path ties on sum and count: the smaller sequence decides through shared prefixes
    @example(({"a": -1.0, "aa": -2.0, "b": -1.0, "ab": -2.0}, {"aaab": 1, "aaaa": 1, "aab": 1}))
    # a -inf entry, one unit only it covers
    @example(({"a": -1.0, "b": -math.inf, "ab": -0.5, "bb": -1.1}, {"ab": 1, "bb": 2, "aba": 1, "b": 3}))
    # a subnormal puts the scale at 2**1074, past a float: no weight may be added to -inf
    @example(({"a": -math.inf, "b": -1.0, "ab": -5e-324}, {"ab": 1, "abb": 2}))
    @settings(max_examples=300, deadline=None)
    def test_matches_decoder_on_shared_prefixes(self, case):
        log_probs, unit_counts = case
        got, decoded = index_paths(unit_counts, log_probs)
        assert got == decoded
        for unit, path in zip(unit_counts, got):
            if path is not None and path[0] != -math.inf:
                assert path[2] == viterbi_oracle(unit, log_probs)

    @given(em_instance())
    # paths of several pieces, through prefixes units share
    @example(({"a": -1.0, "b": -0.5, "ab": -1.5, "ba": -0.7}, {"ab": 2, "abba": 1, "abab": 3}))
    @settings(max_examples=300, deadline=None)
    def test_usage_matches_lattice_decoder(self, case):
        # usage pushed back along the index's back-pointers is the per-unit
        # decode's; a -inf entry whose alternative is -inf has utility nan
        log_probs, unit_counts = case
        index = _unit_index(unit_counts, prefix_trie(log_probs))
        got = _approximate_utilities(list(log_probs), unit_counts, UlmVocabulary(log_probs), index)
        expected = approximate_utilities_oracle(list(log_probs), unit_counts,
                                                lambda text: lattice_oracle(text, log_probs),
                                                *_exact_weights(log_probs), log_probs)
        assert list(got) == list(expected)
        assert all(u == v or u != u and v != v for u, v in zip(got.values(), expected.values()))


class TestEmStep:
    def test_counts_match_fraction_oracle(self):
        word_freqs = Counter({"abab": 3, "ab": 2, "ba": 1})
        probs = {
            "a": Fraction(1, 4),
            "b": Fraction(1, 4),
            "ab": Fraction(1, 4),
            "ba": Fraction(1, 8),
            "abab": Fraction(1, 8),
        }
        _, exact_new = em_step_oracle(word_freqs, probs)
        log_probs = {p: math.log(float(v)) for p, v in probs.items()}
        new, _, unk = em_step(word_freqs, log_probs)
        assert unk == []
        for piece, target in exact_new.items():
            assert math.exp(new[piece]) == pytest.approx(float(target), abs=1e-9)

    def test_likelihood_is_monotone(self):
        word_freqs = Counter({"abab": 3, "ab": 2, "aab": 1, "b": 5})
        log_probs = {
            p: math.log(v)
            for p, v in {"a": 0.3, "b": 0.3, "ab": 0.2, "aa": 0.1, "abab": 0.1}.items()
        }
        lls = []
        for _ in range(12):
            log_probs, ll, _ = em_step(word_freqs, log_probs)
            lls.append(ll)
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9

    def test_probabilities_renormalize(self):
        word_freqs = Counter({"ab": 1})
        new, _, _ = em_step(word_freqs, {"a": math.log(0.5), "b": math.log(0.3), "ab": math.log(0.2)})
        total = sum(math.exp(lp) for lp in new.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unseen_piece_goes_to_neg_inf(self):
        new, _, _ = em_step(Counter({"ab": 1}), {"a": math.log(0.4), "b": math.log(0.4), "zz": math.log(0.2)})
        assert new["zz"] == float("-inf")

    def test_monotone_with_delimiter(self):
        word_freqs = Counter({"ab@ab": 2, "ab": 1})
        log_probs = {p: math.log(v) for p, v in {"a": 0.4, "b": 0.4, "ab": 0.2}.items()}
        prev = None
        for _ in range(8):
            log_probs, ll, _ = em_step(word_freqs, log_probs, morph_delimiter="@")
            if prev is not None:
                assert ll >= prev - 1e-9
            prev = ll


class FirstPrune(Exception):
    """Raised in place of the first pruning round, carrying its arguments."""


def first_pruning_round(seeded):
    """The arguments of the first pruning round of mini-latin at vocab 1200:
    (vocab, unit_counts, index, cfg, exempt)."""
    def stop(*args):
        raise FirstPrune(*args)

    suffixes = load_suffixes(MINI / "suffixes.txt") if seeded else ()
    with pytest.MonkeyPatch.context() as patch, pytest.raises(FirstPrune) as stopped:
        patch.setattr(ulm, "_prune", stop)
        ulm_train(load_corpus(MINI / "corpus.txt"), MINI_ULM, seed_suffixes=suffixes)
    return stopped.value.args


class ReadCountingDict(dict):
    """A dict that counts the values its subscripts hand out."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestPruning:
    @pytest.mark.parametrize("seeded", [False, True], ids=["baseline", "morphseed"])
    def test_approximate_utilities_match_lattice_decoder(self, seeded):
        # the first pruning round of mini-latin at vocab 1200; under morphseed
        # the seeded suffixes are exempt (their boost applies only to encode);
        # exact utilities must match their lattice oracle there too
        vocab, unit_counts, index, _, exempt = first_pruning_round(seeded)
        log_probs = vocab.log_probs
        prunable = [p for p in log_probs if p not in exempt]

        expected = approximate_utilities_oracle(prunable, unit_counts, lambda text: lattice_oracle(text, log_probs),
                                                *_exact_weights(log_probs), log_probs)
        got = _approximate_utilities(prunable, unit_counts, vocab, index)
        assert got == expected
        assert sum(u != 0 for u in got.values()) > 300  # entries in use, whose alternatives were decoded
        assert vocab.trie == prefix_trie(log_probs)  # the trie is as built

        exact = _exact_utilities(prunable, unit_counts, index, log_probs)
        assert exact == exact_utilities_oracle(prunable, unit_counts, log_probs)
        assert sum(u > 0 for u in exact.values()) > 300

    def test_usage_pass_reads_each_in_edge_once(self, monkeypatch):
        # one weight per in-edge of the index at most, and `_viterbi` only for
        # the alternatives of the used prunable entries, none per training unit
        vocab, unit_counts, index, _, exempt = first_pruning_round(False)
        log_probs, into = vocab.log_probs, index[0]
        weights = ReadCountingDict(_exact_weights(log_probs)[0])
        _best_paths(into, weights)
        assert 0 < weights.reads <= sum(map(len, into)) // 2  # each edge is two list items

        used = {p for unit in unit_counts for p in decode(unit, log_probs)[2]}
        prunable = [p for p in log_probs if p not in exempt]
        decoded = []

        def counted(unit, *args):
            decoded.append(unit)
            return _viterbi(unit, *args)

        monkeypatch.setattr(ulm, "_viterbi", counted)
        _approximate_utilities(prunable, unit_counts, vocab, index)
        assert decoded == [p for p in prunable if p in used]
        assert len(decoded) > 300

    def test_alternatives_decoded_from_the_unedited_trie(self, monkeypatch):
        # each used entry's alternative is decoded from the round's trie with
        # every entry, its own among them, in place: a walk shorter than the
        # entry leaves its own edge out, and nothing edits the trie
        vocab, unit_counts, index, _, exempt = first_pruning_round(False)
        prunable = [p for p in vocab.log_probs if p not in exempt]
        built = prefix_trie(vocab.log_probs)
        decoded = []

        def checked(unit, trie, depth, weights):
            assert trie is vocab.trie and trie == built
            assert depth == len(unit) - 1
            decoded.append(unit)
            return _viterbi(unit, trie, depth, weights)

        monkeypatch.setattr(ulm, "_viterbi", checked)
        _approximate_utilities(prunable, unit_counts, vocab, index)
        assert len(decoded) > 300
        assert vocab.trie == built

    @pytest.mark.parametrize("exact", [False, True], ids=["approximate", "exact"])
    def test_one_trie_per_vocabulary_read(self, monkeypatch, exact):
        # the index build reads a trie of the seed vocabulary, and approximate
        # pruning the trie of each round's vocabulary; exact pruning reads
        # only the index, so no trie is built after seeding
        tries, rounds = [], []
        prune = ulm._prune
        monkeypatch.setattr(ulm, "prefix_trie", lambda entries: tries.append(1) or prefix_trie(entries))
        monkeypatch.setattr(ulm, "_prune", lambda *args: rounds.append(1) or prune(*args))
        ulm_train(load_corpus(MINI / "corpus.txt"), replace(MINI_ULM, exact_pruning=exact))
        assert len(rounds) == 3
        assert len(tries) == (1 if exact else 1 + len(rounds))

    @pytest.mark.parametrize("seeded", [False, True], ids=["baseline", "morphseed"])
    def test_carried_index_matches_fresh_index(self, monkeypatch, seeded):
        # training builds the index once and filters each pruning round's
        # dropped entries out of it; every EM step, the first after each
        # round's pruning among them, must see the index of the kept entries
        em_step_units = ulm._em_step_units
        sizes = []

        def checked(unit_counts, log_probs, index):
            assert index == _unit_index(unit_counts, prefix_trie(log_probs))
            sizes.append(len(log_probs))
            return em_step_units(unit_counts, log_probs, index)

        suffixes = load_suffixes(MINI / "suffixes.txt") if seeded else ()
        monkeypatch.setattr(ulm, "_em_step_units", checked)
        vocab = ulm_train(load_corpus(MINI / "corpus.txt"), MINI_ULM, seed_suffixes=suffixes)
        assert sizes[-1] == len(vocab)
        assert len(set(sizes)) > 3  # pruning rounds the index was carried through


class TestIndexWork:
    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    def test_trie_lookups_bounded_by_longest_entry(self, mini_vocab, n):
        # one training word of n characters: the index walks the vocabulary
        # trie at most `depth` characters deep from each position
        steps = [0]
        depth = mini_vocab.depth
        word = live_word(mini_vocab, n, random.Random(n))
        into, out, positions = _unit_index({word: 1}, counting(mini_vocab.trie, steps))
        assert positions == [(list(range(n + 1)), list(range(n, -1, -1)))]
        assert len(into) == len(out) == n + 1
        assert 0 < steps[0] <= n * (depth + 1)

    def test_memory_per_character_stays_flat(self, mini_vocab):
        # an index keyed by each prefix and suffix string would hold
        # characters in proportion to the word's length squared
        trie = mini_vocab.trie
        rng = random.Random(0)
        per_char = {}
        for n in (1000, 2000, 4000):
            word = live_word(mini_vocab, n, rng)
            held = [(k, k) for k in range(5000)]  # empties the 2-tuple free list, as in TestDecodeWork
            tracemalloc.start()
            try:
                into, _, _ = _unit_index({word: 1}, trie)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del held
            assert sum(map(len, into)) // 2 > n  # each edge is two list items
            per_char[n] = peak / n
        assert per_char[4000] <= 1.5 * per_char[1000], per_char

    def test_index_bytes_per_edge(self):
        # the index of the mini-latin seed vocabulary: on Python 3.11 an edge
        # held as a (piece, id) tuple costs about 119 bytes at the build's
        # peak, and as two items of a flat list about 61, the id maps included
        units = ulm._split_units(load_corpus(MINI / "corpus.txt").word_counts(), None)
        trie = prefix_trie(_seed_log_probs(units, MINI_ULM, {ch for unit in units for ch in unit}))
        held = [(k, k) for k in range(5000)]  # empties the 2-tuple free list, as in TestDecodeWork
        tracemalloc.start()
        try:
            into, out, _ = _unit_index(units, trie)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del held
        edges = (sum(map(len, into)) + sum(map(len, out))) // 2  # each edge is two list items
        assert edges > 10_000
        assert peak <= 80 * edges, peak / edges


class TestSeedWork:
    def test_memory_per_character_stays_flat(self):
        # one training word of 1k, 2k and 4k characters; seeding counts every
        # substring up to max_piece_length, at most 16 per character, and the
        # default seed_size keeps them all
        cfg = UlmTrainerConfig()
        rng = random.Random(0)
        per_char = {}
        for n in (1000, 2000, 4000):
            word = "".join(rng.choices("abcdefghilmnoprstuv", k=n))
            tracemalloc.start()
            try:
                log_probs = _seed_log_probs({word: 1}, cfg, set(word))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert n < len(log_probs) <= n * cfg.max_piece_length
            per_char[n] = peak / n
        assert per_char[4000] <= 1.5 * per_char[1000], per_char


class TestTraining:
    def test_two_entry_fixed_point(self):
        # exact EM fixed point p(a) = p(aa) = 1/2; Viterbi then prefers "aa"
        vocab = ulm_train(Corpus([["aa"]] * 4), UlmTrainerConfig(vocab_size=2, seed_size=8, max_piece_length=2))
        assert set(vocab.log_probs) == {"a", "aa"}
        assert math.exp(vocab.log_probs["a"]) == pytest.approx(0.5, abs=1e-9)
        assert math.exp(vocab.log_probs["aa"]) == pytest.approx(0.5, abs=1e-9)
        assert ulm_encode("aa", vocab) == ["aa"]

    def test_fixed_point_agrees_with_fraction_oracle(self):
        probs = {"a": Fraction(1, 2), "aa": Fraction(1, 2)}
        _, new = em_step_oracle({"aa": 4}, probs)
        assert new == probs

    def test_chars_always_survive(self):
        corpus = Corpus([["abc", "abd", "abe"]] * 5)
        vocab = ulm_train(corpus, UlmTrainerConfig(vocab_size=6, seed_size=100, max_piece_length=3))
        for ch in "abcde":
            assert ch in vocab.log_probs

    def test_protected_suffixes_survive_aggressive_pruning(self):
        corpus = Corpus([["portas", "portat", "portamus", "amat"]] * 10)
        cfg = UlmTrainerConfig(vocab_size=12, seed_size=500, max_piece_length=8, shrinking_factor=0.5)
        suffixes = ("as", "at", "amus")
        vocab = ulm_train(corpus, cfg, seed_suffixes=suffixes)
        assert vocab.protected == set(suffixes)
        for suffix in suffixes:
            assert suffix in vocab.log_probs
        assert vocab.boost == 0.5

    def test_unseeded_training_has_zero_boost(self):
        vocab = ulm_train(Corpus([["aa"]] * 4), UlmTrainerConfig(vocab_size=2, seed_size=8, max_piece_length=2))
        assert vocab.boost == 0.0
        assert vocab.protected == frozenset()

    def test_seeded_suffix_absent_from_corpus_still_present(self):
        vocab = ulm_train(
            Corpus([["portas"]] * 3),
            UlmTrainerConfig(vocab_size=12, seed_size=50, max_piece_length=6),
            seed_suffixes=("orum",),
        )
        assert "orum" in vocab.log_probs

    def test_vocab_size_below_floor_is_error(self):
        with pytest.raises(ValueError, match="characters"):
            ulm_train(Corpus([["abcdef"]]), UlmTrainerConfig(vocab_size=3, seed_size=10))

    def test_delimiter_excludes_spanning_substrings(self):
        vocab = ulm_train(
            Corpus([["can@o"]] * 4),
            UlmTrainerConfig(vocab_size=6, seed_size=50, max_piece_length=6, morph_delimiter="@"),
        )
        assert "cano" not in vocab.log_probs
        assert "can" in vocab.log_probs
        assert "o" in vocab.log_probs

    def test_determinism(self):
        corpus = Corpus([["portas", "portat", "amat"], ["amamus", "portamus", "portas"]])
        cfg = UlmTrainerConfig(vocab_size=15, seed_size=80, max_piece_length=6)
        a = ulm_train(corpus, cfg)
        b = ulm_train(corpus, cfg)
        assert a.log_probs == b.log_probs

    def test_exact_pruning_reaches_target(self):
        corpus = Corpus([["portas", "portat", "amat", "amamus"]] * 5)
        cfg = UlmTrainerConfig(vocab_size=12, seed_size=200, max_piece_length=8, exact_pruning=True)
        vocab = ulm_train(corpus, cfg)
        assert len(vocab) <= 12
        for ch in "portasmu":
            assert ch in vocab.log_probs

    def test_final_probabilities_sum_to_one(self):
        corpus = Corpus([["portas", "portat", "amat"]] * 4)
        vocab = ulm_train(corpus, UlmTrainerConfig(vocab_size=14, seed_size=100, max_piece_length=6))
        total = math.fsum(math.exp(lp) for lp in vocab.log_probs.values() if lp != float("-inf"))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCorpusLogLikelihood:
    def test_matches_exact_marginals(self):
        corpus = Corpus([["ab", "ab", "a"]])
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 4), "ab": Fraction(1, 4)}
        vocab = vocab_from({p: float(v) for p, v in probs.items()})
        z_ab = Fraction(1, 2) * Fraction(1, 4) + Fraction(1, 4)
        z_a = Fraction(1, 2)
        expected = 2 * math.log(float(z_ab)) + math.log(float(z_a))
        assert corpus_log_likelihood(corpus, vocab) == pytest.approx(expected, abs=1e-9)
