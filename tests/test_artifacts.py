"""Tokenizer artifact serialization: byte-stable round-trips and validation."""

import math

import pytest

from morphtok.artifacts import (
    config_digest,
    load_tokenizer,
    model_kind,
    save_tokenizer,
    word_encoder,
)
from morphtok.corpus import Corpus, MorphLexicon
from morphtok.errors import LoaderError
from morphtok.morphology import MorphAnalysis
from morphtok.ulm import UlmTokenizer, UlmTrainerConfig, UlmVocabulary, ulm_train
from morphtok.wordpiece import WordPieceTokenizer, WpTrainerConfig, WpVocabulary, wp_train


def wp_model():
    corpus = Corpus([["portas", "portat", "portamus"], ["amat", "portas"]])
    cfg = WpTrainerConfig(vocab_size=30)
    return WordPieceTokenizer(wp_train(corpus, cfg), cfg, "baseline")


def ulm_model():
    corpus = Corpus([["portas", "portat", "amat"]] * 3)
    cfg = UlmTrainerConfig(
        vocab_size=14, seed_size=60, max_piece_length=6, seed_suffixes=("as", "at")
    )
    return UlmTokenizer(ulm_train(corpus, cfg), cfg, "morphseed")


class TestRoundTrip:
    def test_wordpiece_bytes_stable(self, tmp_path):
        model = wp_model()
        p1, p2 = tmp_path / "a.tok", tmp_path / "b.tok"
        save_tokenizer(model, p1)
        save_tokenizer(load_tokenizer(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ulm_bytes_stable(self, tmp_path):
        model = ulm_model()
        p1, p2 = tmp_path / "a.tok", tmp_path / "b.tok"
        save_tokenizer(model, p1)
        save_tokenizer(load_tokenizer(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wordpiece_fields_survive(self, tmp_path):
        model = wp_model()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        loaded = load_tokenizer(path)
        assert model_kind(loaded) == "wordpiece"
        assert loaded.vocab.entries == model.vocab.entries
        assert loaded.config.vocab_size == 30
        assert loaded.guidance == "baseline"

    def test_ulm_fields_survive_exactly(self, tmp_path):
        model = ulm_model()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        loaded = load_tokenizer(path)
        assert loaded.vocab.log_probs == model.vocab.log_probs
        assert loaded.vocab.protected == model.vocab.protected
        assert loaded.vocab.boost == model.vocab.boost
        assert loaded.config.shrinking_factor == model.config.shrinking_factor

    def test_negative_infinity_round_trips(self, tmp_path):
        vocab = UlmVocabulary({"a": 0.0, "zz": float("-inf")})
        model = UlmTokenizer(vocab, UlmTrainerConfig(), "baseline")
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        assert load_tokenizer(path).vocab.log_probs["zz"] == float("-inf")

    def test_encodings_identical_after_reload(self, tmp_path):
        model = ulm_model()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        loaded = load_tokenizer(path)
        for word in ("portas", "portat", "amat", "amamus", "port", "zzz"):
            assert loaded.encode_word(word) == model.encode_word(word)


class TestValidation:
    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text("# morphtok tokenizer v2\n# ---\na\n", encoding="utf-8")
        with pytest.raises(LoaderError, match="v1"):
            load_tokenizer(path)

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text("# morphtok tokenizer v1\n# kind wordpiece\n", encoding="utf-8")
        with pytest.raises(LoaderError, match="truncated"):
            load_tokenizer(path)

    def test_malformed_header_line_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text("# morphtok tokenizer v1\nnot a header\n# ---\na\n", encoding="utf-8")
        with pytest.raises(LoaderError, match=":2:"):
            load_tokenizer(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text(
            "# morphtok tokenizer v1\n# kind bpe\n# guidance baseline\n# ---\na\n",
            encoding="utf-8",
        )
        with pytest.raises(LoaderError, match="bpe"):
            load_tokenizer(path)

    def test_unknown_guidance_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text(
            "# morphtok tokenizer v1\n# kind wordpiece\n# guidance mystery\n# ---\na\n",
            encoding="utf-8",
        )
        with pytest.raises(LoaderError, match="mystery"):
            load_tokenizer(path)

    def test_probability_sum_checked(self, tmp_path):
        model = ulm_model()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        text = path.read_text(encoding="utf-8")
        first_entry = text.index("\n# ---\n") + len("\n# ---\n")
        head, _, rest = text[first_entry:].partition("\t")
        broken = text[:first_entry] + head + "\t" + "0.0" + "\t" + rest.split("\t", 1)[1]
        path.write_text(broken, encoding="utf-8")
        with pytest.raises(LoaderError, match="sum"):
            load_tokenizer(path)

    def test_bad_entry_field_count_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        save_tokenizer(ulm_model(), path)
        path.write_text(
            path.read_text(encoding="utf-8") + "extra line without tabs\n", encoding="utf-8"
        )
        with pytest.raises(LoaderError, match="piece<TAB>logprob<TAB>flag"):
            load_tokenizer(path)

    def test_overflowing_logprob_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        save_tokenizer(ulm_model(), path)
        path.write_text(
            path.read_text(encoding="utf-8") + "zz\t100000.0\t0\n", encoding="utf-8"
        )
        with pytest.raises(LoaderError):
            load_tokenizer(path)

    def test_missing_config_key_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        save_tokenizer(ulm_model(), path)
        lacks_exact_pruning = "".join(
            line
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("# exact_pruning ")
        )
        # every config field is a required header key
        for text in (
            "# morphtok tokenizer v1\n# kind wordpiece\n# guidance baseline\n# ---\na\n",
            lacks_exact_pruning,
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(LoaderError, match="malformed"):
                load_tokenizer(path)


class TestDigest:
    def test_stable_for_same_config(self):
        assert config_digest(wp_model()) == config_digest(wp_model())

    def test_differs_across_kinds(self):
        assert config_digest(wp_model()) != config_digest(ulm_model())

    def test_tracks_config_changes(self):
        model = wp_model()
        base = config_digest(model)
        model.config.min_pair_frequency = 3
        assert config_digest(model) != base

    def test_recorded_in_header(self, tmp_path):
        model = wp_model()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        assert f"# config_digest {config_digest(model)}\n" in path.read_text(encoding="utf-8")


class TestWordEncoder:
    def make_lexicon(self):
        lex = MorphLexicon()
        lex.entries["portas"] = [MorphAnalysis(("port", "as"), "Verb")]
        lex.entries["adversari"] = [
            MorphAnalysis(("adversar", "i"), "Adjective"),
            MorphAnalysis(("advers", "ari"), "Verb"),
        ]
        return lex

    def train_pretok(self, guidance):
        corpus = Corpus([["port@as", "port@at", "advers@ari", "adversar@i"]] * 2)
        cfg = WpTrainerConfig(vocab_size=90, morph_delimiter="@")
        return WordPieceTokenizer(wp_train(corpus, cfg), cfg, guidance)

    def test_presegments_with_lexicon(self):
        model = self.train_pretok("morphpretok-acontextual")
        encode = word_encoder(model, self.make_lexicon())
        assert encode("portas") == ["port", "##as"]

    def test_contextual_uses_pos(self):
        model = self.train_pretok("morphpretok-contextual")
        encode = word_encoder(model, self.make_lexicon())
        assert encode("adversari", "VERB") == ["advers", "##ari"]
        # without a tag the first analysis applies
        assert encode("adversari") == ["adversar", "##i"]

    def test_warns_once_without_lexicon(self):
        model = self.train_pretok("morphpretok-acontextual")
        messages = []
        encode = word_encoder(model, on_warning=messages.append)
        encode("portas")
        encode("portas")
        assert len(messages) == 1
        assert "lexicon" in messages[0]

    def test_baseline_never_warns(self):
        corpus = Corpus([["portas", "portat"]])
        cfg = WpTrainerConfig(vocab_size=30)
        model = WordPieceTokenizer(wp_train(corpus, cfg), cfg, "baseline")
        messages = []
        encode = word_encoder(model, on_warning=messages.append)
        encode("portas")
        assert messages == []
