"""Presegmentation pipeline: word rewriting, stats, and the strip round-trip."""

from hypothesis import given
from hypothesis import strategies as st

from morphtok import presegment
from morphtok.corpus import Corpus, MorphLexicon, TaggedCorpus
from morphtok.morphology import MorphAnalysis, disambiguate
from morphtok.presegment import (
    presegment_acontextual,
    presegment_contextual,
    presegment_word,
    strip_delimiters,
)


def A(seg, pos):
    return MorphAnalysis(tuple(seg.split("@")), pos)


def make_lexicon(entries):
    lex = MorphLexicon()
    for word, analyses in entries.items():
        lex.entries[word] = list(analyses)
    return lex


LEX = make_lexicon(
    {
        "cano": [A("can@o", "Verb")],
        "rosa": [A("ros@a", "Noun"), A("rosa", "Invariable")],
        "adversari": [A("adversar@i", "Adjective"), A("advers@ari", "Verb")],
    }
)


class TestAcontextual:
    def test_first_analysis_applied(self):
        corpus = Corpus([["cano", "xyzzy"], ["rosa"]])
        preseg = presegment_acontextual(corpus, LEX)
        assert preseg.sentences == [["can@o", "xyzzy"], ["ros@a"]]

    def test_stats(self):
        corpus = Corpus([["cano", "xyzzy", "rosa", "cano"]])
        stats = presegment_acontextual(corpus, LEX).stats
        assert stats.total_words == 4
        assert stats.out_of_lexicon == 1
        assert stats.rule_counts["SingleAnalysis"] == 2
        assert stats.rule_counts["FirstAnalysis"] == 1
        assert stats.analyses_seen == 4
        assert stats.out_of_lexicon + sum(stats.rule_counts.values()) == stats.total_words

    def test_custom_delimiter(self):
        preseg = presegment_acontextual(Corpus([["cano"]]), LEX, delimiter="|")
        assert preseg.sentences == [["can|o"]]
        assert preseg.delimiter == "|"


class TestContextual:
    def test_pos_picks_analysis(self):
        tagged = TaggedCorpus([[("adversari", "VERB"), ("adversari", "NOUN")]])
        preseg = presegment_contextual(tagged, LEX)
        assert preseg.sentences == [["advers@ari", "adversar@i"]]

    def test_no_match_stays_whole(self):
        tagged = TaggedCorpus([[("adversari", "ADV")]])
        preseg = presegment_contextual(tagged, LEX)
        assert preseg.sentences == [["adversari"]]
        assert preseg.stats.rule_counts["NoMatchUnsegmented"] == 1

    def test_out_of_lexicon_passthrough(self):
        tagged = TaggedCorpus([[("xyzzy", "NOUN")]])
        preseg = presegment_contextual(tagged, LEX)
        assert preseg.sentences == [["xyzzy"]]
        assert preseg.stats.out_of_lexicon == 1

    def test_rule_counts_sum_to_total(self):
        tagged = TaggedCorpus(
            [[("adversari", "VERB"), ("rosa", "NOUN"), ("cano", "VERB"), ("xyzzy", "X")]]
        )
        stats = presegment_contextual(tagged, LEX).stats
        assert stats.total_words == 4
        assert stats.out_of_lexicon + sum(stats.rule_counts.values()) == 4

    def test_stats_kv_shape(self):
        tagged = TaggedCorpus([[("cano", "VERB")]])
        kv = presegment_contextual(tagged, LEX).stats.to_kv()
        assert "total_words 1" in kv
        assert "rule_SingleAnalysis 1" in kv


class TestPresegmentWord:
    def test_acontextual_default(self):
        assert presegment_word("rosa", LEX) == "ros@a"

    def test_contextual_with_pos(self):
        assert presegment_word("adversari", LEX, pos="VERB") == "advers@ari"

    def test_no_match_unchanged(self):
        assert presegment_word("adversari", LEX, pos="ADV") == "adversari"

    def test_unknown_word_unchanged(self):
        assert presegment_word("xyzzy", LEX) == "xyzzy"


def per_token_reference(tagged, lexicon):
    """Contextual presegmentation word by word: the output and the
    (total, out of lexicon, analyses seen, rule counts) tallies."""
    sentences, oov, seen, rules = [], 0, 0, {}
    for sentence in tagged.sentences:
        sentences.append([presegment_word(w, lexicon, pos=t) for w, t in sentence])
        for word, tag in sentence:
            analyses = lexicon.analyses(word)
            if not analyses:
                oov += 1
                continue
            seen += len(analyses)
            rule = disambiguate(word, analyses, tag).rule.value
            rules[rule] = rules.get(rule, 0) + 1
    total = sum(len(s) for s in tagged.sentences)
    return sentences, (total, oov, seen, rules)


class TestTypeLevel:
    """Corpus presegmentation chooses once per distinct token and tallies
    every token."""

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["cano", "rosa", "adversari", "x"]),
                    st.sampled_from(["NOUN", "VERB", "ADV"]),
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_per_token_reference(self, sentences):
        tagged = TaggedCorpus(sentences)
        preseg = presegment_contextual(tagged, LEX)
        stats = preseg.stats
        expected_sentences, expected_stats = per_token_reference(tagged, LEX)
        assert preseg.sentences == expected_sentences
        tallies = (stats.total_words, stats.out_of_lexicon, stats.analyses_seen, dict(stats.rule_counts))
        assert tallies == expected_stats

    def test_disambiguates_each_distinct_pair_once(self, monkeypatch):
        calls = []

        def counting(word, analyses, tag, mapping=None):
            calls.append((word, tag))
            return disambiguate(word, analyses, tag, mapping)

        monkeypatch.setattr(presegment, "disambiguate", counting)
        tagged = TaggedCorpus(
            [[("adversari", "VERB"), ("adversari", "NOUN"), ("xyzzy", "X")],
             [("adversari", "VERB"), ("rosa", "NOUN"), ("adversari", "NOUN")]]
        )
        stats = presegment_contextual(tagged, LEX).stats
        assert calls == [("adversari", "VERB"), ("adversari", "NOUN"), ("rosa", "NOUN")]
        assert (stats.total_words, stats.out_of_lexicon, stats.analyses_seen) == (6, 1, 10)
        assert stats.rule_counts == {"PosMatched": 5}


class TestStripRoundTrip:
    def test_basic(self):
        corpus = Corpus([["cano", "xyzzy"], ["rosa", "adversari"]])
        assert strip_delimiters(presegment_acontextual(corpus, LEX)).sentences == corpus.sentences

    def test_escaped_delimiter_survives(self):
        # a word carrying a literal "@" (escaped on ingest) is out-of-lexicon
        corpus = Corpus([["user\\@example"]])
        stripped = strip_delimiters(presegment_acontextual(corpus, LEX))
        assert stripped.sentences == [["user\\@example"]]

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["cano", "rosa", "adversari", "arma", "virum", "x"]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_property_acontextual(self, sentences):
        corpus = Corpus(sentences)
        assert strip_delimiters(presegment_acontextual(corpus, LEX)).sentences == sentences

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["cano", "rosa", "adversari", "arma", "x"]),
                    st.sampled_from(["NOUN", "VERB", "ADV", "X", "ADJ"]),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_property_contextual(self, sentences):
        tagged = TaggedCorpus(sentences)
        stripped = strip_delimiters(presegment_contextual(tagged, LEX))
        assert stripped.sentences == [[w for w, _ in s] for s in sentences]
