"""WordPiece training and greedy longest-match encoding."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphtok import corpus, presegment, wordpiece
from morphtok.corpus import Corpus, prefix_trie
from morphtok.wordpiece import WpTrainerConfig, WpVocabulary, wp_encode, wp_train

from oracles import strip_markers, wp_encode_oracle, wp_train_oracle
from trie_steps import counting, trie_depth

MINI = Path(__file__).resolve().parent.parent / "data" / "mini-latin"


def train(sentences, **kwargs):
    return wp_train(Corpus(sentences), WpTrainerConfig(**kwargs))


class TestTraining:
    def test_first_merge_of_abab(self):
        # chars a, b in both forms plus [UNK] = 5 entries; one merge allowed.
        # all three adjacent pairs tie on score and count; the documented
        # tie-break picks (a, ##b), creating "ab".
        vocab = train([["abab"], ["abab"]], vocab_size=6)
        assert vocab.entries == {"[UNK]", "a", "##a", "b", "##b", "ab"}

    def test_merge_chain_reaches_full_word(self):
        vocab = train([["abab"], ["abab"]], vocab_size=8)
        assert "abab" in vocab.entries

    def test_vocab_size_stops_merging(self):
        vocab = train([["abab"], ["abab"]], vocab_size=5)
        assert len(vocab.entries) == 5
        assert "ab" not in vocab.entries

    def test_inventory_overflow_is_error(self):
        with pytest.raises(ValueError, match="initial inventory"):
            train([["abc"]], vocab_size=4)

    def test_min_pair_frequency_stops_merging(self):
        # every pair occurs once; the default threshold of 2 blocks all merges
        vocab = train([["xy"]], vocab_size=100)
        assert vocab.entries == {"[UNK]", "x", "##x", "y", "##y"}

    def test_min_pair_frequency_one_allows_single_occurrence(self):
        vocab = train([["xy"]], vocab_size=100, min_pair_frequency=1)
        assert "xy" in vocab.entries

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train([])

    def test_seeded_suffixes_present_as_continuations(self):
        cfg = WpTrainerConfig(vocab_size=40)
        vocab = wp_train(Corpus([["portas", "portat"]]), cfg, seed_suffixes=("orum", "ibus"))
        assert "##orum" in vocab.entries
        assert "##ibus" in vocab.entries
        # seeds count toward the initial inventory but never appear bare
        assert "orum" not in vocab.entries

    def test_determinism(self):
        sentences = [["portas", "portat", "portamus"], ["amat", "amamus", "portas"]]
        a = train(sentences, vocab_size=30)
        b = train(sentences, vocab_size=30)
        assert a.entries == b.entries


@st.composite
def training_case(draw):
    """Words over a small alphabet, so runs such as "aaaa", "abab" and
    "xabab" and exact score ties are common; an optional delimiter and
    seed suffixes; and a vocab_size from the initial inventory to past
    the point where merging stops."""
    alphabet = draw(st.sampled_from(["ab", "abx", "abc", "abcd"]))
    delimiter = draw(st.sampled_from([None, "@"]))
    segment = st.text(alphabet=alphabet, min_size=1, max_size=6)
    word = st.lists(segment, min_size=1, max_size=3 if delimiter else 1).map("@".join)
    sentences = draw(st.lists(st.lists(word, min_size=1, max_size=5), min_size=1, max_size=6))
    seeds = draw(st.just(()) | st.lists(st.text(alphabet=alphabet, min_size=2, max_size=4),
                                      min_size=1, max_size=3, unique=True).map(tuple))
    min_pair_frequency = draw(st.integers(1, 3))
    word_counts = Corpus(sentences).word_counts()
    initial = len(wp_train_oracle(word_counts, 0, min_pair_frequency, seeds, delimiter))
    final = len(wp_train_oracle(word_counts, 10**9, min_pair_frequency, seeds, delimiter))
    vocab_size = draw(st.integers(initial, final + 2))
    return sentences, WpTrainerConfig(vocab_size, min_pair_frequency, delimiter), seeds


class TestTrainOracle:
    """Heap-driven training merges exactly what a scan over every pair
    merges; equal vocabularies at every size pin the merge order."""

    @given(training_case())
    @example(([["aaaa", "abab"], ["xabab", "abab"]], WpTrainerConfig(12, 1), ()))
    @example(([["ab@abab", "abab@ab"], ["aaaa@aa"]], WpTrainerConfig(11, 1, "@"), ()))
    # "ab" both starts a word and follows a boundary: two units, "a ##b" and "##a ##b"
    @example(([["ab@ab", "ab"], ["xab@ab", "ab@x"]], WpTrainerConfig(12, 1, "@"), ()))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case):
        sentences, cfg, seeds = case
        expected = wp_train_oracle(Corpus(sentences).word_counts(), cfg.vocab_size,
                                   cfg.min_pair_frequency, seeds, cfg.morph_delimiter)
        assert wp_train(Corpus(sentences), cfg, seed_suffixes=seeds).entries == expected

    # entries when merging runs out of pairs (as at the recorded vocab_size 1200)
    EXHAUSTED = {"baseline": 686, "morphseed": 691, "morphpretok-acontextual": 281}

    @pytest.mark.parametrize("vocab_size", [200, 300, 500])
    @pytest.mark.parametrize("guidance", sorted(EXHAUSTED))
    def test_mini_latin_stops_on_vocab_size(self, guidance, vocab_size):
        # the recorded artifacts all stop when no pair is left; these stop
        # on vocab_size mid-run, except presegmented ones above 281
        training = corpus.load_corpus(MINI / "corpus.txt")
        seeds, delimiter = (), None
        if guidance == "morphseed":
            seeds = tuple(corpus.load_suffixes(MINI / "suffixes.txt"))
        elif guidance == "morphpretok-acontextual":
            delimiter = "@"
            training = presegment.presegment_acontextual(training, corpus.load_lexicon(MINI / "lexicon.tsv"), "@")
        cfg = WpTrainerConfig(vocab_size, morph_delimiter=delimiter)
        entries = wp_train(training, cfg, seed_suffixes=seeds).entries
        assert len(entries) == min(vocab_size, self.EXHAUSTED[guidance])
        assert entries == wp_train_oracle(training.word_counts(), vocab_size, 2, seeds, delimiter)


class TestDelimiterTraining:
    SENTENCES = [["port@as", "port@at"], ["port@amus", "am@at"], ["am@amus", "port@as"]]

    def test_no_piece_crosses_a_boundary(self):
        vocab = train(self.SENTENCES, vocab_size=60, morph_delimiter="@")
        # every training word splits exactly at its delimiters when encoded
        for sentence in self.SENTENCES:
            for word in sentence:
                pieces = wp_encode(word, vocab, morph_delimiter="@")
                segments = word.split("@")
                joined = strip_markers(pieces)
                # reconstruct segment boundaries from the pieces
                cuts = set()
                acc = 0
                for p in joined[:-1]:
                    acc += len(p)
                    cuts.add(acc)
                expected = set()
                acc = 0
                for seg in segments[:-1]:
                    acc += len(seg)
                    expected.add(acc)
                assert expected <= cuts

    def test_whole_unsegmented_word_never_in_vocab(self):
        vocab = train(self.SENTENCES, vocab_size=60, morph_delimiter="@")
        assert "portas" not in vocab.entries
        assert "portat" not in vocab.entries

    def test_continuation_morphemes_enter_as_marked_entries(self):
        vocab = train(self.SENTENCES, vocab_size=60, morph_delimiter="@")
        assert "##as" in vocab.entries
        assert "##amus" in vocab.entries
        assert "port" in vocab.entries

    def test_marked_morpheme_emitted_atomically(self):
        vocab = train(self.SENTENCES, vocab_size=60, morph_delimiter="@")
        assert wp_encode("port@amus", vocab, morph_delimiter="@") == ["port", "##amus"]


class TestEncoding:
    VOCAB = WpVocabulary(entries={"[UNK]", "un", "##able", "##believ", "a", "##a", "b", "##b"})

    def test_longest_match_walk(self):
        assert wp_encode("unbelievable", self.VOCAB) == ["un", "##believ", "##able"]

    def test_dead_end_is_whole_word_unk(self):
        assert wp_encode("unbelievablezz", self.VOCAB) == ["[UNK]"]

    def test_unknown_leading_char_is_unk(self):
        assert wp_encode("xun", self.VOCAB) == ["[UNK]"]

    def test_single_char(self):
        assert wp_encode("a", self.VOCAB) == ["a"]

    def test_empty_word_is_error(self):
        with pytest.raises(ValueError):
            wp_encode("", self.VOCAB)

    def test_empty_segment_is_error(self):
        with pytest.raises(ValueError):
            wp_encode("a@@b", self.VOCAB, morph_delimiter="@")

    def test_delimited_segments_encode_independently(self):
        vocab = WpVocabulary(entries={"[UNK]", "ab", "##ab", "##a", "##b", "a", "b"})
        assert wp_encode("ab@ab", vocab, morph_delimiter="@") == ["ab", "##ab"]

    def test_unk_segment_sinks_whole_word(self):
        vocab = WpVocabulary(entries={"[UNK]", "ab", "##ab", "a", "b"})
        assert wp_encode("ab@zz", vocab, morph_delimiter="@") == ["[UNK]"]


@st.composite
def vocab_and_word(draw):
    alphabet = "abc"
    pieces = draw(
        st.sets(
            st.text(alphabet=alphabet, min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        )
    )
    entries = set()
    for p in pieces:
        if draw(st.booleans()):
            entries.add(p)
        if draw(st.booleans()):
            entries.add("##" + p)
    for ch in alphabet:
        if draw(st.booleans()):
            entries.add(ch)
        if draw(st.booleans()):
            entries.add("##" + ch)
    entries.add("[UNK]")
    word = draw(st.text(alphabet=alphabet, min_size=1, max_size=10))
    return entries, word


class TestEncodeOracle:
    @given(vocab_and_word())
    @settings(max_examples=300)
    def test_matches_reference(self, case):
        entries, word = case
        vocab = WpVocabulary(entries=entries)
        assert wp_encode(word, vocab) == wp_encode_oracle(word, entries)

    @given(vocab_and_word())
    @settings(max_examples=150)
    def test_non_unk_reconstructs_word(self, case):
        entries, word = case
        vocab = WpVocabulary(entries=entries)
        pieces = wp_encode(word, vocab)
        if pieces != ["[UNK]"]:
            assert "".join(strip_markers(pieces)) == word

    @given(vocab_and_word())
    @settings(max_examples=150)
    def test_delimited_matches_reference(self, case):
        entries, word = case
        vocab = WpVocabulary(entries=entries)
        token = word + "@" + word
        assert wp_encode(token, vocab, morph_delimiter="@") == wp_encode_oracle(
            token, entries, delimiter="@"
        )


@st.composite
def trie_vocab_and_word(draw):
    """Entries that share prefixes, some longer than the word, over an
    alphabet with non-ASCII characters and "#", so a word may itself start
    with "##"."""
    alphabet = "abé#"
    stems = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=8), min_size=1, max_size=5))
    entries = {"[UNK]"}
    for stem in stems:
        for k in range(1, len(stem) + 1):
            if draw(st.booleans()):
                entries.add(stem[:k])
            if draw(st.booleans()):
                entries.add("##" + stem[:k])
    return entries, draw(st.text(alphabet=alphabet, min_size=1, max_size=6))


class TestTrieWalk:
    @given(trie_vocab_and_word(), st.booleans())
    @settings(max_examples=300)
    def test_matches_reference(self, case, delimited):
        entries, word = case
        vocab = WpVocabulary(entries=entries)
        if delimited:
            word = word + "@" + word
        delimiter = "@" if delimited else None
        assert wp_encode(word, vocab, delimiter) == wp_encode_oracle(word, entries, delimiter=delimiter)


class TestLongWords:
    def test_probes_bounded_by_longest_entry(self, monkeypatch):
        # each match walks at most `depth` characters deep (plus the lookup
        # that ends the walk), so a long word costs time linear in its length
        rng = random.Random(0)
        bodies = ["".join(p) for n in range(1, 7) for p in itertools.product("ab", repeat=n)]
        entries = {"[UNK]", "a", "b", "##a", "##b"}
        entries |= {b for b in bodies if rng.random() < 0.5}
        entries |= {"##" + b for b in bodies if rng.random() < 0.7}
        word = "".join(rng.choice("ab") for _ in range(4000))
        steps = [0]
        monkeypatch.setattr(wordpiece, "prefix_trie", lambda entries: counting(prefix_trie(entries), steps))
        vocab = WpVocabulary(entries=entries)
        trie = vocab.trie
        depth = 6
        assert trie_depth(trie["#"]["#"]) == depth
        assert trie_depth(trie["a"]) < depth and trie_depth(trie["b"]) < depth

        pieces = wp_encode(word, vocab)
        assert 0 < steps[0] <= len(word) * (depth + 1)
        assert pieces == wp_encode_oracle(word, entries)
        assert "".join(strip_markers(pieces)) == word

    def test_continuation_entries_keyed_by_body(self):
        entries = {"[UNK]", "ab", "##ab", "##abc"}
        vocab = WpVocabulary(entries=entries)
        trie = vocab.trie
        # one trie holds every entry under its full text, so the node of "##"
        # is the subtree of the "##" entries keyed by body
        assert trie["#"]["#"] == {"a": {"b": {"": "##ab", "c": {"": "##abc"}}}}
        assert trie["a"]["b"][""] == "ab"
        assert trie["["]["U"]["N"]["K"]["]"][""] == "[UNK]"
        # a word may start with "##": its first match walks through that node
        for word in ("##abcab", "ab##ab"):
            assert wp_encode(word, vocab) == wp_encode_oracle(word, entries)
        assert wp_encode("##abcab", vocab) == ["##abc", "##ab"]
        assert wp_encode("abab", WpVocabulary(entries={"[UNK]", "ab"})) == ["[UNK]"]  # no "##" node

    def test_one_trie_built_per_vocabulary(self, monkeypatch):
        built = []
        monkeypatch.setattr(wordpiece, "prefix_trie", lambda entries: built.append(1) or prefix_trie(entries))
        vocab = WpVocabulary(entries={"[UNK]", "a", "b", "##a", "##b", "ab"})
        for word in ("abab", "ba", "ab@ba", "##a"):
            wp_encode(word, vocab, "@")
        assert vocab.trie is vocab.trie
        assert len(built) == 1
