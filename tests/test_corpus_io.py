"""Corpus, lexicon, suffix, gold-set loading and the delimiter escape rule."""

import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morphtok import corpus
from morphtok.corpus import (
    Corpus,
    corpus_sentences,
    decode_lines,
    escape_delimiter,
    iter_lines,
    load_corpus,
    load_gold_set,
    load_lexicon,
    load_suffixes,
    load_tagged_corpus,
    reservoir_indices,
    sample_sentences,
    split_on_delimiter,
    unescape_delimiter,
)
from morphtok.errors import LoaderError
from oracles import corpus_sentences_oracle, split_on_delimiter_oracle

MINI = Path(__file__).resolve().parent.parent / "data" / "mini-latin"

# delimiters the CLI accepts, regex metacharacters and cased letters among them
DELIMITERS = "@#|.*+?^$()[]{}Ii"
# whitespace str.split() splits on, final and medial sigma, a character whose
# lowercase is two characters, a cased delimiter, combining marks, a
# zero-width space and the escape character
TRICKY = " \t\x0b\x0c\r\x1c\x85\xa0\u1680\u2000\u2028\u2029\u202f\u205f\u3000ΣσςİI\u0301\u0345\u200b\\"
BOM = "\ufeff"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestEscaping:
    def test_escape_inserts_backslash(self):
        assert escape_delimiter("a@b", "@") == "a\\@b"

    def test_unescape_inverts(self):
        assert unescape_delimiter("a\\@b", "@") == "a@b"

    def test_no_delimiter_is_identity(self):
        assert escape_delimiter("plain", "@") == "plain"

    @given(st.text(alphabet="ab@", max_size=20))
    def test_round_trip(self, text):
        assert unescape_delimiter(escape_delimiter(text, "@"), "@") == text

    @given(st.lists(st.text(alphabet="a\\@#", max_size=6), min_size=1, max_size=6), st.sampled_from("@#"))
    def test_unescaping_joined_pieces_unescapes_each(self, pieces, delimiter):
        # `encode` unescapes a word's pieces once, after joining them with spaces
        expected = " ".join(unescape_delimiter(p, delimiter) for p in pieces)
        assert unescape_delimiter(" ".join(pieces), delimiter) == expected

    def test_split_skips_escaped(self):
        assert split_on_delimiter("a\\@b@c", "@") == ["a\\@b", "c"]

    def test_split_plain(self):
        assert split_on_delimiter("can@o", "@") == ["can", "o"]

    def test_split_no_delimiter(self):
        assert split_on_delimiter("cano", "@") == ["cano"]

    @given(st.sampled_from(DELIMITERS), st.text(alphabet="ab\\" + DELIMITERS))
    @example("@", "a\\\\@b@@\\")
    def test_split_matches_scanning_loop(self, delimiter, text):
        assert split_on_delimiter(text, delimiter) == split_on_delimiter_oracle(text, delimiter)

    @given(st.lists(st.text(alphabet=st.characters() | st.sampled_from(TRICKY + DELIMITERS))),
           st.booleans(), st.sampled_from("@#Ii"))
    @example(["I"], True, "i")
    @example(["ΑΣ ΒΣ\u2028Σ"], True, "@")
    def test_line_escape_matches_per_word_escape(self, lines, lowercase, delimiter):
        # a whole line lowercased and escaped at once gives the words that
        # lowercasing and escaping each word on its own gives
        got = list(corpus_sentences(enumerate(lines, start=1), lowercase, delimiter))
        assert got == corpus_sentences_oracle(lines, lowercase, delimiter)


class TestLoadCorpus:
    def test_sentences_and_words(self, tmp_path):
        path = write(tmp_path, "c.txt", "Arma virumque cano\n\ncano arma\n")
        corpus = load_corpus(path)
        assert corpus.sentences == [["Arma", "virumque", "cano"], ["cano", "arma"]]
        assert corpus.n_words == 5

    def test_lowercase(self, tmp_path):
        path = write(tmp_path, "c.txt", "Arma CANO\n")
        corpus = load_corpus(path, lowercase=True)
        assert corpus.sentences == [["arma", "cano"]]

    def test_delimiter_chars_escaped_on_ingest(self, tmp_path):
        path = write(tmp_path, "c.txt", "user@example\n")
        corpus = load_corpus(path)
        assert corpus.sentences == [["user\\@example"]]
        assert split_on_delimiter(corpus.sentences[0][0], "@") == ["user\\@example"]

    def test_word_counts(self, tmp_path):
        path = write(tmp_path, "c.txt", "b a b\na c a\n")
        counts = load_corpus(path).word_counts()
        assert list(counts.items()) == [("b", 2), ("a", 3), ("c", 1)]  # keyed by first occurrence

    def test_bad_encoding_reports_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"fine line\n\xff\xfe broken\n")
        with pytest.raises(LoaderError, match=r":2:"):
            load_corpus(path)


def pairs_and_error(lines):
    """The ``(lineno, text)`` pairs a reader yields and the message of the
    error that ends it, if any."""
    pairs = []
    try:
        for pair in lines:
            pairs.append(pair)
    except LoaderError as exc:
        return pairs, str(exc)
    return pairs, None


# ASCII, whole and cut multi-byte sequences, line ends and an invalid byte
FRAGMENTS = [b"a", b" ", b"\t", b"\n", b"\r", b"\r\n", "é".encode(), "€".encode(), b"\xc3", b"\xa9",
             b"\xe2\x82", b"\xff"]


def objects_per_type(sentences) -> dict:
    """Each token type -> the ids of the objects that hold it."""
    ids: dict = {}
    for sentence in sentences:
        for token in sentence:
            ids.setdefault(token, set()).add(id(token))
    return ids


def retained_bytes(load):
    """``(result, bytes still allocated once load() returns)`` under tracemalloc."""
    held = [(k, k) for k in range(5000)]  # empties the 2-tuple free list, as in TestIndexWork
    tracemalloc.start()
    try:
        result = load()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del held
    return result, retained


class TestSharedTypes:
    # a loaded corpus holds each type once, however often it occurs
    def test_one_string_per_word(self, tmp_path):
        # longer than one character, which CPython caches anyway
        path = write(tmp_path, "c.txt", "cano arma cano\narma virum arma\n\ncano cano\n")
        ids = objects_per_type(load_corpus(path).sentences)
        assert ids.keys() == {"arma", "cano", "virum"}
        assert all(len(objs) == 1 for objs in ids.values()), ids

    def test_one_string_per_lowercased_word(self, tmp_path):
        path = write(tmp_path, "c.txt", "Amat amat\nAMAT rosa\n")
        sentences = load_corpus(path, lowercase=True).sentences
        assert sentences == [["amat", "amat"], ["amat", "rosa"]]
        assert sentences[0][0] is sentences[0][1] is sentences[1][0]

    def test_one_tuple_per_tagged_type(self, tmp_path):
        path = write(tmp_path, "t.tsv", "amat\tVERB\nrosa\tNOUN\n\namat\tVERB\namat\tNOUN\nrosa\tNOUN\n")
        sentences = load_tagged_corpus(path).sentences
        ids = objects_per_type(sentences)
        assert ids.keys() == {("amat", "VERB"), ("rosa", "NOUN"), ("amat", "NOUN")}
        assert all(len(objs) == 1 for objs in ids.values()), ids

    def test_one_tuple_per_tagged_type_across_row_texts(self, tmp_path):
        # rows that differ in surrounding whitespace, or in case under lowercase
        path = write(tmp_path, "t.tsv", "amat\tVERB\n amat \tVERB\nAMAT\tVERB\n\namat\tVERB \n")
        sentences = load_tagged_corpus(path, lowercase=True).sentences
        assert sentences == [[("amat", "VERB")] * 3, [("amat", "VERB")]]
        assert len(objects_per_type(sentences)[("amat", "VERB")]) == 1

    def test_sample_keeps_shared_tokens(self):
        sampled = sample_sentences(load_corpus(MINI / "corpus.txt"), 0.5, 3)
        assert sampled.n_words > 10_000
        assert all(len(objs) == 1 for objs in objects_per_type(sampled.sentences).values())

    def test_bytes_per_token(self, tmp_path):
        # 10-word lines of 50 types: a string per token would cost about 70
        # bytes each; a pointer per token and a list per line cost about 19
        rng = random.Random(0)
        words = [f"verbum{k}" for k in range(50)]
        lines = (" ".join(rng.choices(words, k=10)) for _ in range(2000))
        path = write(tmp_path, "c.txt", "\n".join(lines) + "\n")
        corpus, retained = retained_bytes(lambda: load_corpus(path))
        assert corpus.n_words == 20_000
        assert retained <= 24 * corpus.n_words, retained / corpus.n_words

    def test_bytes_per_tagged_row(self):
        # mini-latin's 50k rows: a tuple and two strings per row would cost
        # about 185 bytes each
        corpus, retained = retained_bytes(lambda: load_tagged_corpus(MINI / "tagged.tsv"))
        assert corpus.n_words > 40_000
        assert retained <= 32 * corpus.n_words, retained / corpus.n_words


class TestIterLines:
    @given(st.lists(st.sampled_from(FRAGMENTS)).map(b"".join) | st.binary())
    @example(b"")
    @example(b"\xef\xbb\xbfab\n\xef\xbb\xbfcd\n")
    @example(b"\xef\xbb\xbfab\n\xffcd\n")
    @example(b"ab\r")
    @example(b"port\xc3\n\xa9as\n")
    @example(b"fine\r\n\xffbad\nlater\n")
    def test_matches_per_line_decode(self, data):
        # the whole-buffer decode yields what a per-line decode yields, and
        # fails on the same line with the same message
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(data)
            expected = pairs_and_error(decode_lines(data.split(b"\n"), path))
            assert pairs_and_error(iter_lines(path)) == expected


class TestTaggedCorpus:
    def test_blank_line_splits_sentences(self, tmp_path):
        path = write(tmp_path, "t.tsv", "arma\tNOUN\ncano\tVERB\n\nrosa\tNOUN\n")
        tagged = load_tagged_corpus(path)
        assert tagged.sentences == [[("arma", "NOUN"), ("cano", "VERB")], [("rosa", "NOUN")]]
        assert tagged.to_corpus().sentences == [["arma", "cano"], ["rosa"]]

    def test_unknown_tag_is_fatal(self, tmp_path):
        path = write(tmp_path, "t.tsv", "arma\tNOUNS\n")
        with pytest.raises(LoaderError, match="NOUNS"):
            load_tagged_corpus(path)

    @pytest.mark.parametrize("word", ["ad hoc", "ad\u00a0hoc"])
    def test_word_with_whitespace_is_fatal(self, tmp_path, word):
        # a plain corpus would read it as two words
        path = write(tmp_path, "t.tsv", f"arma\tNOUN\n{word}\tADV\n")
        with pytest.raises(LoaderError) as exc:
            load_tagged_corpus(path)
        assert str(exc.value) == f"{path}:2: word contains whitespace: {word!r}"

    def test_wrong_field_count_is_fatal(self, tmp_path):
        path = write(tmp_path, "t.tsv", "arma NOUN\n")
        with pytest.raises(LoaderError, match=r":1:"):
            load_tagged_corpus(path)

    @pytest.mark.parametrize("row, message", [
        ("amat\tVERBS", "unknown UD POS tag: 'VERBS'"),
        ("amat VERB", "expected 2 tab-separated fields, got 1"),
        ("\tVERB", "empty word"),
        ("am at\tVERB", "word contains whitespace: 'am at'"),
    ])
    def test_repeated_row_keeps_checks(self, tmp_path, row, message):
        # a valid row read again is not parsed again, but a bad row after it is judged at its line
        path = write(tmp_path, "t.tsv", f"amat\tVERB\namat\tVERB\n\n{row}\n")
        with pytest.raises(LoaderError) as exc:
            load_tagged_corpus(path)
        assert str(exc.value) == f"{path}:4: {message}"

    def test_each_distinct_row_parsed_once(self, monkeypatch):
        # counted by the escape of each parsed row's word
        escaped = []
        escape = corpus.escape_delimiter

        def counting_escape(text, delimiter):
            escaped.append(text)
            return escape(text, delimiter)

        monkeypatch.setattr(corpus, "escape_delimiter", counting_escape)
        tagged = load_tagged_corpus(MINI / "tagged.tsv")
        lines = (MINI / "tagged.tsv").read_text(encoding="utf-8").split("\n")
        assert tagged.n_words == sum(1 for line in lines if line.strip()) > 40_000
        assert len(escaped) == len({line for line in lines if line.strip()}) == 376


class TestByteOrderMark:
    # a byte-order mark that starts a file is no text; elsewhere it is a character
    def test_plain_corpus(self, tmp_path):
        path = write(tmp_path, "c.txt", BOM + "amat rosa\n" + BOM + "rosa\n")
        assert load_corpus(path).sentences == [["amat", "rosa"], [BOM + "rosa"]]

    def test_tagged_corpus(self, tmp_path):
        path = write(tmp_path, "t.tsv", BOM + "amat\tVERB\nrosa\tNOUN\n")
        assert load_tagged_corpus(path).sentences == [[("amat", "VERB"), ("rosa", "NOUN")]]

    def test_segmented_rows(self, tmp_path):
        path = write(tmp_path, "g.tsv", BOM + "amat\tVERB\tam@at\nrosa\t-\tros@a\n")
        gold = load_gold_set(path)
        assert gold.rejected == []
        assert [item.word for item in gold.items] == ["amat", "rosa"]


class TestLexicon:
    GOOD = "cano\t1\tVerb\tcan@o\ncano\t2\tNoun\tcano\nrosa\t1\tNoun\tros@a\n"

    def test_entries_grouped_in_file_order(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", self.GOOD))
        assert len(lex) == 2
        analyses = lex.analyses("cano")
        assert [a.morphemes for a in analyses] == [("can", "o"), ("cano",)]
        assert [a.pos for a in analyses] == ["Verb", "Noun"]

    def test_concatenation_mismatch_rejected(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "x\t1\tNoun\ty@z\n"))
        assert len(lex) == 0
        assert len(lex.rejected) == 1
        assert "concatenate" in lex.rejected[0]

    def test_unknown_pos_rejected(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "cano\t1\tVERB\tcan@o\n"))
        assert len(lex) == 0
        assert "VERB" in lex.rejected[0]

    def test_bad_index_rejected(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "cano\tx\tVerb\tcan@o\n"))
        assert "index" in lex.rejected[0]

    def test_field_count_rejected(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "cano\t1\tVerb\n"))
        assert "4 tab-separated fields" in lex.rejected[0]

    def test_empty_morpheme_rejected(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "cano\t1\tVerb\tcan@@o\n"))
        assert "empty morpheme" in lex.rejected[0]

    def test_comments_and_blanks_skipped(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "# header\n\n" + self.GOOD))
        assert len(lex) == 2

    def test_contains(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", self.GOOD))
        assert "cano" in lex
        assert "xyzzy" not in lex


class TestSuffixes:
    def test_order_kept_duplicates_dropped(self, tmp_path):
        path = write(tmp_path, "s.txt", "orum\nae\n# comment\norum\nus\n")
        assert load_suffixes(path) == ["orum", "ae", "us"]

    def test_read_as_corpus_words_are(self, tmp_path):
        # optionally lowercased, then the delimiter escaped, then de-duplicated
        path = write(tmp_path, "s.txt", "AS\nas\nA@b\na@b\nx#y\n")
        assert load_suffixes(path) == ["AS", "as", "A\\@b", "a\\@b", "x#y"]
        assert load_suffixes(path, lowercase=True) == ["as", "a\\@b", "x#y"]
        assert load_suffixes(path, True, "#") == ["as", "a@b", "x\\#y"]

    def test_whitespace_is_fatal(self, tmp_path):
        path = write(tmp_path, "s.txt", "or um\n")
        with pytest.raises(LoaderError, match="whitespace"):
            load_suffixes(path)


class TestGoldSet:
    def test_loads_pos_and_dash(self, tmp_path):
        path = write(tmp_path, "g.tsv", "cano\tVERB\tcan@o\nrosa\t-\trosa\n")
        gold = load_gold_set(path)
        assert gold.items[0].pieces == ("can", "o")
        assert gold.items[0].pos == "VERB"
        assert gold.items[1].pos is None
        assert gold.items[1].pieces == ("rosa",)

    def test_unknown_tag_rejected(self, tmp_path):
        gold = load_gold_set(write(tmp_path, "g.tsv", "cano\tVerb\tcan@o\n"))
        assert not gold.items
        assert "Verb" in gold.rejected[0]

    def test_concat_mismatch_rejected(self, tmp_path):
        gold = load_gold_set(write(tmp_path, "g.tsv", "cano\tVERB\tca@o\n"))
        assert "concatenate" in gold.rejected[0]


class TestSampling:
    def test_fraction_one_is_identity(self):
        corpus = Corpus([["a"], ["b"]])
        assert sample_sentences(corpus, 1.0, 7) is corpus

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            reservoir_indices(10, 0.0, 1)
        with pytest.raises(ValueError):
            reservoir_indices(10, 1.5, 1)

    def test_deterministic_given_seed(self):
        assert reservoir_indices(100, 0.3, 42) == reservoir_indices(100, 0.3, 42)

    def test_sorted_and_sized(self):
        keep = reservoir_indices(200, 0.25, 9)
        assert keep == sorted(keep)
        assert len(keep) == 50
        assert len(set(keep)) == 50

    def test_keeps_at_least_one(self):
        assert len(reservoir_indices(3, 0.01, 0)) == 1

    def test_order_preserved(self):
        corpus = Corpus([[w] for w in "abcdefghij"])
        sampled = sample_sentences(corpus, 0.5, 3)
        flat = [s[0] for s in sampled.sentences]
        assert flat == sorted(flat, key="abcdefghij".index)
