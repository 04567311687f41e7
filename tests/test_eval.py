"""Segmentation metrics and the evaluation harness.

The 5-word mixed fixture's expected values were hand-computed from the
boundary sets before the assertions were written:
EM 1/5, P 3/6, R 3/5, F1 6/11, fertility 11/5, gold fertility 2,
morphscore 2/3 over the three scored words.
"""

import random
from fractions import Fraction

import pytest

from morphtok.corpus import GoldItem, GoldSegmentationSet, MorphLexicon
from morphtok.evaluation import (
    EvalReport,
    boundaries,
    boundary_prf,
    build_gold_set,
    evaluate,
    exact_match,
    fertility,
    format_comparison,
    morphscore,
    normalize_pieces,
    piece_overlap_prf,
)
from morphtok.morphology import MorphAnalysis

from oracles import eval_oracle


class TestNormalize:
    def test_strips_continuation_markers(self):
        assert normalize_pieces(["port", "##as"]) == ["port", "as"]

    def test_first_piece_kept_verbatim(self):
        assert normalize_pieces(["##port", "##as"]) == ["##port", "as"]

    def test_plain_pieces_unchanged(self):
        assert normalize_pieces(["can", "o"]) == ["can", "o"]


class TestBoundaries:
    def test_internal_positions(self):
        assert boundaries(["can", "t", "o"]) == {3, 4}

    def test_unsegmented_is_empty(self):
        assert boundaries(["cano"]) == set()


class TestExactMatch:
    def test_identity(self):
        assert exact_match(["can", "o"], ["can", "o"]) == 1

    def test_different_split(self):
        assert exact_match(["c", "an", "o"], ["can", "o"]) == 0

    def test_unsegmented_vs_split(self):
        assert exact_match(["cano"], ["can", "o"]) == 0

    def test_markers_normalized(self):
        assert exact_match(["can", "##o"], ["can", "o"]) == 1

    def test_word_mismatch_is_error(self):
        with pytest.raises(ValueError):
            exact_match(["can", "o"], ["cant", "o"])


class TestBoundaryPrf:
    def test_documented_half_case(self):
        # pred can|t|o {3,4} vs gold cant|o {4}
        p, r, f = boundary_prf(["can", "t", "o"], ["cant", "o"])
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2 / 3, abs=1e-15)

    def test_identity_is_ones(self):
        assert boundary_prf(["can", "o"], ["can", "o"]) == (1.0, 1.0, 1.0)

    def test_both_unsegmented_is_ones(self):
        assert boundary_prf(["cano"], ["cano"]) == (1.0, 1.0, 1.0)

    def test_pred_unsegmented_gold_split_is_zero(self):
        assert boundary_prf(["cano"], ["can", "o"]) == (0.0, 0.0, 0.0)

    def test_symmetry_swaps_p_and_r(self):
        p, r, f = boundary_prf(["can", "t", "o"], ["cant", "o"])
        p2, r2, f2 = boundary_prf(["cant", "o"], ["can", "t", "o"])
        assert (p2, r2, f2) == (r, p, f)


class TestPieceOverlap:
    def test_multiset_intersection(self):
        # shared multiset over "aba" is exactly one "a"
        p, r, _ = piece_overlap_prf(["ab", "a"], ["a", "ba"])
        assert p == pytest.approx(1 / 2)
        assert r == pytest.approx(1 / 2)

    def test_identity(self):
        assert piece_overlap_prf(["can", "o"], ["can", "o"]) == (1.0, 1.0, 1.0)


class TestFertility:
    def test_mean_pieces(self):
        assert fertility([["po", "rt"], ["a", "m", "o"]]) == 2.5

    def test_unsegmented_is_one(self):
        assert fertility([["a"], ["b"]]) == 1.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            fertility([])


class TestMorphScore:
    def test_hit(self):
        assert morphscore(["cant", "o"], 4) == 1

    def test_two_split_pred_hits_designated(self):
        assert morphscore(["can", "t", "o"], 4) == 1

    def test_miss(self):
        assert morphscore(["ca", "nto"], 4) == 0

    def test_unsegmented_excluded(self):
        assert morphscore(["canto"], 4) is None

    def test_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            morphscore(["can", "o"], 4)
        with pytest.raises(ValueError):
            morphscore(["can", "o"], 0)


def gold_set(items):
    return GoldSegmentationSet(items=[GoldItem(w, pos, tuple(pieces)) for w, pos, pieces in items])


FIXTURE = gold_set(
    [
        ("portas", "NOUN", ["port", "as"]),
        ("amat", "VERB", ["am", "at"]),
        ("rosa", "NOUN", ["rosa"]),
        ("cano", "VERB", ["can", "o"]),
        ("inordinato", "VERB", ["inordin", "at", "o"]),
    ]
)

PREDICTIONS = {
    "portas": ["port", "##as"],
    "amat": ["[UNK]"],
    "rosa": ["ro", "##sa"],
    "cano": ["c", "##a", "##n", "##o"],
    "inordinato": ["inordin", "##ato"],
}


def fixture_encoder(word, pos=None):
    return list(PREDICTIONS[word])


class TestEvaluate:
    def test_mixed_fixture_hand_values(self):
        report = evaluate(fixture_encoder, FIXTURE)
        assert report.n_words == 5
        assert report.exact_match == pytest.approx(1 / 5, abs=1e-15)
        assert report.boundary_precision == pytest.approx(1 / 2, abs=1e-15)
        assert report.boundary_recall == pytest.approx(3 / 5, abs=1e-15)
        assert report.boundary_f1 == pytest.approx(6 / 11, abs=1e-12)
        assert report.fertility == pytest.approx(11 / 5, abs=1e-15)
        assert report.gold_fertility == pytest.approx(2.0, abs=1e-15)
        assert report.morphscore == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect_encoder(self):
        gold_by_word = {item.word: list(item.pieces) for item in FIXTURE.items}
        report = evaluate(lambda w, pos=None: gold_by_word[w], FIXTURE)
        assert report.exact_match == 1.0
        assert report.boundary_f1 == 1.0
        assert report.fertility == report.gold_fertility

    def test_never_splitting_encoder(self):
        report = evaluate(lambda w, pos=None: [w], FIXTURE)
        assert report.exact_match == pytest.approx(1 / 5)  # only "rosa"
        assert report.fertility == 1.0
        assert report.morphscore is None

    def test_unk_counts_as_unsegmented_and_can_match(self):
        gold = gold_set([("rosa", None, ["rosa"])])
        report = evaluate(lambda w, pos=None: ["[UNK]"], gold)
        assert report.exact_match == 1.0
        assert report.fertility == 1.0

    def test_reconstruction_mismatch_is_error(self):
        gold = gold_set([("rosa", None, ["rosa"])])
        with pytest.raises(ValueError, match="reconstruct"):
            evaluate(lambda w, pos=None: ["ro"], gold)

    def test_contextual_requires_tags(self):
        gold = gold_set([("rosa", None, ["rosa"]), ("cano", "VERB", ["can", "o"])])
        with pytest.raises(ValueError, match="rosa"):
            evaluate(fixture_encoder, gold, mode="contextual")

    def test_contextual_passes_tag_through(self):
        seen = []

        def encoder(word, pos=None):
            seen.append(pos)
            return [word]

        gold = gold_set([("rosa", "NOUN", ["rosa"])])
        evaluate(encoder, gold, mode="contextual")
        assert seen == ["NOUN"]
        evaluate(encoder, gold, mode="acontextual")
        assert seen == ["NOUN", None]

    def test_empty_gold_set_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(fixture_encoder, GoldSegmentationSet())

    def test_unknown_mode_is_error(self):
        with pytest.raises(ValueError, match="mode"):
            evaluate(fixture_encoder, FIXTURE, mode="both")

    def test_piece_overlap_flag(self):
        report = evaluate(fixture_encoder, FIXTURE, piece_overlap=True)
        # shared pieces: portas 2 (port, as), cano 1 (o), inordinato 1 (inordin)
        assert report.boundary_precision == pytest.approx(4 / 11, abs=1e-15)
        assert report.boundary_recall == pytest.approx(4 / 10, abs=1e-15)


class TestEvaluateAgainstOracle:
    def test_random_fixture_matches_reference(self):
        rng = random.Random(20240817)
        items = []
        preds = {}
        for i in range(60):
            word = "".join(rng.choice("abcdef") for _ in range(rng.randint(2, 9)))
            word = f"{word}{i}"  # force uniqueness
            cuts = sorted(rng.sample(range(1, len(word)), rng.randint(0, 2)))
            gold = [word[a:b] for a, b in zip([0] + cuts, cuts + [len(word)])]
            pcuts = sorted(rng.sample(range(1, len(word)), rng.randint(0, 3)))
            pred = [word[a:b] for a, b in zip([0] + pcuts, pcuts + [len(word)])]
            items.append((word, None, gold))
            preds[word] = pred
        gold = gold_set(items)
        report = evaluate(lambda w, pos=None: list(preds[w]), gold)
        expected = eval_oracle([(preds[w], g) for w, _, g in items])
        assert report.exact_match == pytest.approx(float(expected["exact_match"]), abs=1e-12)
        assert report.boundary_precision == pytest.approx(float(expected["precision"]), abs=1e-12)
        assert report.boundary_recall == pytest.approx(float(expected["recall"]), abs=1e-12)
        assert report.boundary_f1 == pytest.approx(float(expected["f1"]), abs=1e-12)
        assert report.fertility == pytest.approx(float(expected["fertility"]), abs=1e-12)
        assert Fraction(report.exact_match).limit_denominator(10**6) == expected["exact_match"]


class TestBuildGoldSet:
    def make_lexicon(self):
        lex = MorphLexicon()
        lex.entries["adversari"] = [
            MorphAnalysis(("adversar", "i"), "Adjective"),
            MorphAnalysis(("advers", "ari"), "Verb"),
        ]
        lex.entries["rosa"] = [MorphAnalysis(("ros", "a"), "Noun")]
        return lex

    def test_contextual_disambiguates(self):
        gold = build_gold_set([("adversari", "VERB")], self.make_lexicon())
        assert gold.items[0].pieces == ("advers", "ari")

    def test_no_match_becomes_unsegmented_gold(self):
        gold = build_gold_set([("adversari", "ADV")], self.make_lexicon())
        assert gold.items[0].pieces == ("adversari",)

    def test_acontextual_takes_first_analysis(self):
        gold = build_gold_set([("adversari", "VERB")], self.make_lexicon(), contextual=False)
        assert gold.items[0].pieces == ("adversar", "i")

    def test_unique_word_pos_pairs(self):
        pairs = [("adversari", "VERB"), ("adversari", "VERB"), ("adversari", "NOUN")]
        gold = build_gold_set(pairs, self.make_lexicon())
        assert len(gold.items) == 2

    def test_out_of_lexicon_recorded(self):
        gold = build_gold_set([("xyzzy", "NOUN")], self.make_lexicon())
        assert not gold.items
        assert "xyzzy" in gold.rejected[0]


class TestFormatComparison:
    def reports(self):
        return [
            evaluate(fixture_encoder, FIXTURE, name="first"),
            evaluate(lambda w, pos=None: [w], FIXTURE, name="second"),
        ]

    def test_basic_table_columns(self):
        text = format_comparison(self.reports())
        header = next(l for l in text.splitlines() if "EM" in l)
        assert "Fert." in header
        assert "Recall" not in header
        assert "first" in text and "second" in text

    def test_extended_table_columns(self):
        text = format_comparison(self.reports(), extended=True)
        header = next(l for l in text.splitlines() if "EM" in l)
        for col in ("Recall", "Precision", "F1", "Fertility"):
            assert col in header

    def test_exact_table_text(self):
        # a name wider than every cell, and a report with no MorphScore
        reports = [
            EvalReport("wordpiece-morphpretok-contextual", 3, 2 / 3, 0.75, 0.5, 0.6, 5 / 3, 2.0, 0.5),
            EvalReport("ulm", 3, 0.0, 1.0, 0.0, 0.0, 1.0, 1.5),
        ]
        note = "# exact match macro over gold words; boundary metrics micro-pooled; markers stripped\n"
        gold = "# gold fertility 1.5000, 2.0000 over 3 words\n"
        assert format_comparison(reports) == note + (
            "tokenizer                         EM     Fert.\n"
            "wordpiece-morphpretok-contextual  66.67  1.6667\n"
            "ulm                               0.00   1.0000\n"
        ) + gold
        assert format_comparison(reports, extended=True) == note + (
            "tokenizer                         EM     Recall  Precision  F1     Fertility\n"
            "wordpiece-morphpretok-contextual  66.67  50.00   75.00      60.00  1.6667\n"
            "ulm                               0.00   0.00    100.00     0.00   1.0000\n"
        ) + gold

    def test_aggregation_note_present(self):
        text = format_comparison(self.reports())
        assert text.splitlines()[0].startswith("#")

    def test_kv_shape(self):
        kv = self.reports()[0].to_kv()
        for key in ("exact_match", "boundary_f1", "fertility", "gold_fertility", "morphscore"):
            assert f"{key} " in kv

    def test_kv_without_morphscore(self):
        report = EvalReport("t", 2, 0.5, 1.0, 0.25, 0.4, 1.5, 2.0)
        assert report.to_kv() == (
            "name t\nn_words 2\nexact_match 0.5\nboundary_precision 1.0\nboundary_recall 0.25\n"
            "boundary_f1 0.4\nfertility 1.5\ngold_fertility 2.0\n"
        )
