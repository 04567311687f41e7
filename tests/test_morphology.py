"""POS mapping table and the analysis disambiguation protocol."""

import pytest

from morphtok.corpus import load_pos_mapping
from morphtok.errors import LoaderError
from morphtok.morphology import (
    ANALYZER_TAGS,
    DEFAULT_POS_MAPPING,
    UD_TAGS,
    DisambiguationRule,
    MorphAnalysis,
    acontextual_choice,
    disambiguate,
    map_pos,
)


def A(seg, pos):
    return MorphAnalysis(tuple(seg.split("@")), pos)


class TestPosMapping:
    # the full published table, asserted row by row
    EXPECTED = {
        "NOUN": ("Noun", "Adjective"),
        "PROPN": ("Noun", "Adjective"),
        "VERB": ("Verb",),
        "ADJ": ("Adjective", "Noun"),
        "PRON": ("Pronoun", "Noun", "Invariable"),
        "ADV": ("Invariable",),
        "ADP": ("Preposition", "Invariable"),
        "CCONJ": ("Conjunction", "Invariable"),
        "SCONJ": ("Conjunction", "Invariable"),
        "PART": ("Interjection", "Invariable"),
        "INTJ": ("Interjection", "Invariable"),
        "DET": ("Pronoun", "Adjective"),
        "X": ("Invariable", "Other"),
        "AUX": ("Verb",),
        "PUNCT": ("Invariable",),
        "NUM": ("Noun", "Adjective", "Invariable"),
    }

    def test_full_table(self):
        assert DEFAULT_POS_MAPPING == self.EXPECTED

    def test_sixteen_ud_tags(self):
        assert len(UD_TAGS) == 16

    def test_every_target_is_a_known_analyzer_tag(self):
        for targets in DEFAULT_POS_MAPPING.values():
            for tag in targets:
                assert tag in ANALYZER_TAGS

    def test_map_pos(self):
        assert map_pos("VERB") == ("Verb",)
        assert map_pos("PRON") == ("Pronoun", "Noun", "Invariable")

    def test_map_pos_unknown_tag(self):
        with pytest.raises(ValueError, match="XYZ"):
            map_pos("XYZ")

    def test_override_mapping(self):
        assert map_pos("VERB", {"VERB": ("Noun",)}) == ("Noun",)


class TestPosMappingLoader:
    def make(self, tmp_path, rows):
        path = tmp_path / "map.tsv"
        path.write_text("".join(f"{k}\t{','.join(v)}\n" for k, v in rows), encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.make(tmp_path, DEFAULT_POS_MAPPING.items())
        assert load_pos_mapping(path) == DEFAULT_POS_MAPPING

    def test_missing_tag_is_fatal(self, tmp_path):
        rows = [(k, v) for k, v in DEFAULT_POS_MAPPING.items() if k != "NUM"]
        with pytest.raises(LoaderError, match="NUM"):
            load_pos_mapping(self.make(tmp_path, rows))

    def test_duplicate_tag_is_fatal(self, tmp_path):
        rows = list(DEFAULT_POS_MAPPING.items()) + [("VERB", ("Verb",))]
        with pytest.raises(LoaderError, match="duplicate"):
            load_pos_mapping(self.make(tmp_path, rows))

    def test_unknown_analyzer_tag_is_fatal(self, tmp_path):
        rows = [(k, v) for k, v in DEFAULT_POS_MAPPING.items() if k != "VERB"]
        rows.append(("VERB", ("Verbish",)))
        with pytest.raises(LoaderError, match="Verbish"):
            load_pos_mapping(self.make(tmp_path, rows))


class TestMorphAnalysis:
    def test_surface(self):
        assert A("can@o", "Verb").surface == "cano"

    def test_empty_morpheme_rejected(self):
        with pytest.raises(ValueError):
            MorphAnalysis(("can", ""), "Verb")

    def test_unknown_pos_rejected(self):
        with pytest.raises(ValueError):
            MorphAnalysis(("can", "o"), "VERB")


class TestAcontextualChoice:
    def test_first_analysis_wins(self):
        analyses = [A("adversar@i", "Adjective"), A("advers@ari", "Verb")]
        assert acontextual_choice(analyses) == ("adversar", "i")

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            acontextual_choice([])


class TestDisambiguate:
    ADVERSARI = [A("adversar@i", "Adjective"), A("advers@ari", "Verb")]

    def test_single_analysis_ignores_pos(self):
        out = disambiguate("rosa", [A("rosa", "Noun")], "VERB")
        assert out.chosen == ("rosa",)
        assert out.rule is DisambiguationRule.SINGLE_ANALYSIS
        assert out.candidate_count == 1

    def test_duplicate_segmentations_count_as_single(self):
        analyses = [A("ros@a", "Noun"), A("ros@a", "Adjective")]
        out = disambiguate("rosa", analyses, "VERB")
        assert out.rule is DisambiguationRule.SINGLE_ANALYSIS
        assert out.chosen == ("ros", "a")

    def test_pos_match_selects_verb_reading(self):
        out = disambiguate("adversari", self.ADVERSARI, "VERB")
        assert out.chosen == ("advers", "ari")
        assert out.rule is DisambiguationRule.POS_MATCHED
        assert out.candidate_count == 2

    def test_pos_match_selects_adjective_reading_via_noun_scan(self):
        # NOUN maps to (Noun, Adjective): no Noun analysis, Adjective matches
        out = disambiguate("adversari", self.ADVERSARI, "NOUN")
        assert out.chosen == ("adversar", "i")
        assert out.rule is DisambiguationRule.POS_MATCHED

    def test_scan_order_honors_mapping_priority(self):
        # ADJ maps to (Adjective, Noun): Adjective is scanned first
        analyses = [A("port@a", "Noun"), A("por@ta", "Adjective")]
        out = disambiguate("porta", analyses, "ADJ")
        assert out.chosen == ("por", "ta")
        assert out.rule is DisambiguationRule.POS_MATCHED

    def test_no_match_is_unsegmented(self):
        out = disambiguate("adversari", self.ADVERSARI, "ADV")
        assert out.chosen is None
        assert out.rule is DisambiguationRule.NO_MATCH_UNSEGMENTED
        assert out.candidate_count == 2

    def test_same_pos_tie_equal_counts_takes_longer_suffix(self):
        analyses = [A("adversar@i", "Verb"), A("advers@ari", "Verb")]
        out = disambiguate("adversari", analyses, "VERB")
        assert out.chosen == ("advers", "ari")
        assert out.rule is DisambiguationRule.TIE_LONGER_SUFFIX

    def test_same_pos_tie_takes_more_subwords(self):
        analyses = [A("inordin@at@o", "Verb"), A("inordin@ato", "Verb")]
        out = disambiguate("inordinato", analyses, "VERB")
        assert out.chosen == ("inordin", "at", "o")
        assert out.rule is DisambiguationRule.TIE_MORE_SUBWORDS

    def test_more_subwords_order_independent(self):
        analyses = [A("inordin@ato", "Verb"), A("inordin@at@o", "Verb")]
        out = disambiguate("inordinato", analyses, "VERB")
        assert out.chosen == ("inordin", "at", "o")

    def test_longer_suffix_beats_shorter_at_equal_counts(self):
        # final morphemes "cd" vs "bcd": the three-letter suffix wins
        analyses = [A("ab@cd", "Verb"), A("a@bcd", "Verb")]
        out = disambiguate("abcd", analyses, "VERB")
        assert out.chosen == ("a", "bcd")
        assert out.rule is DisambiguationRule.TIE_LONGER_SUFFIX

    def test_equal_suffix_lengths_resolve_by_input_order(self):
        # same piece count, same final morpheme: the first candidate wins
        first = [A("a@bc@de", "Verb"), A("ab@c@de", "Verb")]
        out = disambiguate("abcde", first, "VERB")
        assert out.chosen == ("a", "bc", "de")
        swapped = [A("ab@c@de", "Verb"), A("a@bc@de", "Verb")]
        out = disambiguate("abcde", swapped, "VERB")
        assert out.chosen == ("ab", "c", "de")

    def test_mixed_counts_prefers_count_over_suffix(self):
        # 3-piece candidate beats 2-piece even though the 2-piece suffix is longer
        analyses = [A("in@ord@o", "Verb"), A("inor@do", "Verb")]
        out = disambiguate("inordo", analyses, "VERB")
        assert out.chosen == ("in", "ord", "o")
        assert out.rule is DisambiguationRule.TIE_MORE_SUBWORDS

    def test_candidate_count_is_distinct_segmentations(self):
        analyses = [A("ros@a", "Noun"), A("ros@a", "Adjective"), A("rosa", "Verb")]
        out = disambiguate("rosa", analyses, "NOUN")
        assert out.candidate_count == 2

    def test_concat_mismatch_is_error(self):
        with pytest.raises(ValueError):
            disambiguate("other", self.ADVERSARI, "VERB")

    def test_unknown_tag_is_error(self):
        with pytest.raises(ValueError):
            disambiguate("adversari", self.ADVERSARI, "Verbish")
