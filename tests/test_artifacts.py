"""Tokenizer artifact serialization: byte-stable round-trips and validation."""

import math
import typing
from pathlib import Path

import pytest

from morphtok import artifacts, cli
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


GOLDEN = Path(__file__).resolve().parent / "golden"


def wp_model():
    corpus = Corpus([["portas", "portat", "portamus"], ["amat", "portas"]])
    cfg = WpTrainerConfig(vocab_size=30)
    return WordPieceTokenizer(wp_train(corpus, cfg), cfg, "baseline")


def ulm_model():
    corpus = Corpus([["portas", "portat", "amat"]] * 3)
    cfg = UlmTrainerConfig(vocab_size=14, seed_size=60, max_piece_length=6)
    return UlmTokenizer(ulm_train(corpus, cfg, seed_suffixes=("as", "at")), cfg, "morphseed")


def assert_load_fails(tmp_path, capsys, path, message):
    """Loading the artifact at `path` fails with `message`, and so does
    `encode` with it, exiting 2."""
    with pytest.raises(LoaderError) as exc:
        load_tokenizer(path)
    assert str(exc.value) == message
    words = tmp_path / "words.txt"
    words.write_text("amat\n", encoding="utf-8")
    assert cli.main(["encode", "--artifact", str(path), "--input", str(words)]) == 2
    assert message in capsys.readouterr().err


def assert_appended_entry_fails(tmp_path, capsys, entry, problem):
    """An artifact with `entry` appended fails to load with `problem` at its line."""
    path = tmp_path / "a.tok"
    save_tokenizer(ulm_model(), path)
    text = path.read_text(encoding="utf-8")
    lineno = text.count("\n") + 1  # the appended line
    path.write_text(text + entry + "\n", encoding="utf-8")
    assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: {problem}")


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

    @pytest.mark.parametrize("make", [wp_model, ulm_model], ids=["wordpiece", "ulm-morphseed"])
    def test_loaded_model_equals_trained(self, tmp_path, make):
        # the artifact holds the whole model: config, guidance and vocabulary,
        # with the seeded ULM's protected entries and boost
        model = make()
        path = tmp_path / "a.tok"
        save_tokenizer(model, path)
        assert load_tokenizer(path) == model

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
        with pytest.raises(LoaderError, match=":2: unknown tokenizer kind 'bpe'"):
            load_tokenizer(path)

    def test_unknown_guidance_rejected(self, tmp_path):
        path = tmp_path / "a.tok"
        path.write_text(
            "# morphtok tokenizer v1\n# kind wordpiece\n# guidance mystery\n# ---\na\n",
            encoding="utf-8",
        )
        with pytest.raises(LoaderError, match=":3: unknown guidance mode 'mystery'"):
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

    def test_overflowing_logprob_rejected(self, tmp_path, capsys):
        # no probability exceeds 1, and exp() of this one would overflow
        problem = "log-prob must be a number <= 0, got 100000.0"
        assert_appended_entry_fails(tmp_path, capsys, "zz\t100000.0\t0", problem)

    def test_nan_logprob_rejected(self, tmp_path, capsys):
        # NaN passes a plain `> 1e-6` test of the probability sum
        assert_appended_entry_fails(tmp_path, capsys, "zz\tnan\t0", "log-prob must be a number <= 0, got nan")

    @pytest.mark.parametrize("boost", ["inf", "nan"])
    def test_non_finite_boost_rejected(self, tmp_path, capsys, boost):
        path = tmp_path / "a.tok"
        save_tokenizer(ulm_model(), path)
        text = path.read_text(encoding="utf-8")
        assert "# boost 0.5\n" in text
        lineno = text.count("\n", 0, text.index("# boost 0.5\n")) + 1
        path.write_text(text.replace("# boost 0.5\n", f"# boost {boost}\n"), encoding="utf-8")
        assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: boost must be finite, got {boost}")

    @pytest.mark.parametrize("bad, offset, problem", [
        ("a\t-25.02269599401323\tx\n", 0, "expected a non-empty piece and a flag of 0 or 1"),
        ("\t-25.0\t0\na\t-25.02269599401323\t0\n", 0, "expected a non-empty piece and a flag of 0 or 1"),
        ("a\t-25.02269599401323\t0\na\t-30.0\t1\n", 1, "repeated piece 'a'"),
    ], ids=["bad-flag", "empty-piece", "repeated-piece"])
    def test_malformed_ulm_entry_rejected(self, tmp_path, capsys, bad, offset, problem):
        # none may load: an unknown flag would read as unprotected and drop the
        # boost, and a repeat, if the later line won, would load "a" boosted
        first_entry = "a\t-25.02269599401323\t0\n"
        text = (GOLDEN / "ulm.tok").read_text(encoding="utf-8")
        lineno = text.count("\n", 0, text.index(first_entry)) + 1 + offset  # the bad line
        path = tmp_path / "ulm.tok"
        path.write_text(text.replace(first_entry, bad, 1), encoding="utf-8")
        assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: {problem}")

    def test_repeated_wordpiece_entry_rejected(self, tmp_path, capsys):
        # as a repeated unigram piece is: a set would load the repeat silently
        text = (GOLDEN / "wp.tok").read_text(encoding="utf-8")
        last = text.splitlines(keepends=True)[-1]
        lineno = text.count("\n") + 1  # the appended line
        path = tmp_path / "wp.tok"
        path.write_text(text + last, encoding="utf-8")
        assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: repeated piece {last.rstrip()!r}")

    @pytest.mark.parametrize("golden", ["wp.tok", "ulm.tok"])
    def test_unknown_or_repeated_header_key_rejected(self, tmp_path, capsys, golden):
        # neither may load: an unknown key would be ignored, and a repeated
        # key's later value would win, here with the config digest still
        # matching; only a unigram artifact knows `boost`
        text = (GOLDEN / golden).read_text(encoding="utf-8")
        size_line = next(line for line in text.splitlines(keepends=True) if line.startswith("# vocab_size "))
        at = text.index("# config_digest ")
        lineno = text.count("\n", 0, at) + 1  # the inserted line
        path = tmp_path / golden
        boost = "repeated header key 'boost'" if golden == "ulm.tok" else "unknown header key 'boost'"
        for inserted, problem in (("# bogus_key 7\n", "unknown header key 'bogus_key'"),
                                  (size_line, "repeated header key 'vocab_size'"), ("# boost 0.5\n", boost)):
            path.write_text(text[:at] + inserted + text[at:], encoding="utf-8")
            assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: {problem}")

    def test_missing_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.tok"
        save_tokenizer(ulm_model(), path)
        lacks_exact_pruning = "".join(
            line
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("# exact_pruning ")
        )
        golden = (GOLDEN / "ulm.tok").read_text(encoding="utf-8")
        assert "# shrinking_factor 0.75\n" in golden
        # every config field is a required header key; a header key is a
        # whole-file fact, so the message names the key, not a line
        for text, key in (
            ("# morphtok tokenizer v1\n# kind wordpiece\n# guidance baseline\n# ---\na\n", "vocab_size"),
            (lacks_exact_pruning, "exact_pruning"),
            (golden.replace("# shrinking_factor 0.75\n", ""), "shrinking_factor"),
        ):
            path.write_text(text, encoding="utf-8")
            assert_load_fails(tmp_path, capsys, path, f"{path}: missing header key '{key}'")

    @pytest.mark.parametrize("golden, old, new, problem", [
        ("ulm.tok", "a\t-25.02269599401323\t0\n", "a\t[UNK]\t0\n", "log-prob '[UNK]' does not parse"),
        ("ulm.tok", "# boost 0.5\n", "# boost half\n", "boost 'half' does not parse"),
        ("wp.tok", "# vocab_size 40\n", "# vocab_size 4O\n", "vocab_size '4O' does not parse"),
    ], ids=["log-prob", "boost", "header-int"])
    def test_value_that_does_not_parse_located(self, tmp_path, capsys, golden, old, new, problem):
        text = (GOLDEN / golden).read_text(encoding="utf-8")
        lineno = text.count("\n", 0, text.index(old)) + 1
        path = tmp_path / golden
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: {problem}")

    @pytest.mark.parametrize("golden, line", [
        ("wp.tok", "# kind wordpiece"),
        ("wp.tok", "po rt"),
        ("wp.tok", "amat "),
        ("wp.tok", "## "),
        ("ulm.tok", "am at\t-30.0\t0"),
        ("ulm.tok", "am \t-30.0\t0"),
    ], ids=["wp-header-line", "wp-space", "wp-trailing-space", "wp-bare-prefix", "ulm-space", "ulm-trailing-space"])
    def test_entry_with_whitespace_rejected(self, tmp_path, capsys, golden, line):
        # no trained piece contains whitespace, so such a line is not a piece
        text = (GOLDEN / golden).read_text(encoding="utf-8")
        lineno = text.count("\n") + 1  # the appended line
        path = tmp_path / golden
        path.write_text(text + line + "\n", encoding="utf-8")
        piece = line.split("\t")[0]
        assert_load_fails(tmp_path, capsys, path, f"{path}:{lineno}: piece {piece!r} contains whitespace")

    @pytest.mark.parametrize("edit, match", [
        (("# guidance morphpretok-contextual\n", ""), "guidance"),
        (("# min_pair_frequency 2\n", "# min_pair_frequency 7\n"), "config_digest"),
    ], ids=["guidance-deleted", "config-edited"])
    def test_header_edited_after_training_rejected(self, tmp_path, edit, match):
        # a contextual artifact must not load as baseline, nor load a config
        # that is not the one it was trained with
        model = wp_model()
        path = tmp_path / "a.tok"
        save_tokenizer(WordPieceTokenizer(model.vocab, model.config, "morphpretok-contextual"), path)
        text = path.read_text(encoding="utf-8")
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
        with pytest.raises(LoaderError, match=match):
            load_tokenizer(path)


def mutation_sites():
    """``(golden, line index, field)`` of each header value of both golden
    artifacts, and of the log-prob and the flag of the first ULM entry."""
    sites = []
    for golden in ("wp.tok", "ulm.tok"):
        lines = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
        end = lines.index(artifacts.SEPARATOR)
        sites += [(golden, i, lines[i][2:].partition(" ")[0]) for i in range(1, end)]
    return sites + [("ulm.tok", end + 1, "log-prob"), ("ulm.tok", end + 1, "flag")]


# mutants that must exit 2 at their own line: values a trainer config
# rejects, a non-finite boost, and log-probs that are NaN or above 0
LOCATED_MUTANTS = {
    ("wp.tok", "morph_delimiter", "xy"), ("ulm.tok", "seed_weight", "inf"), ("ulm.tok", "boost", "1e400"),
    *((golden, field, value) for golden, field in (("wp.tok", "vocab_size"), ("wp.tok", "min_pair_frequency"),
                                                    ("ulm.tok", "vocab_size")) for value in ("-1", "0")),
    *(("ulm.tok", "log-prob", value) for value in ("nan", "inf", "1e400", "1000.0")),
}


@pytest.mark.parametrize("golden, index, field", mutation_sites())
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1000.0", "-1", "0", "xy", ""],
                         ids=lambda value: value or "empty")
def test_mutated_value_loads_or_exits_2_at_its_line(tmp_path, capsys, golden, index, field, value):
    # every edit loads or exits 2, never 3; a rejected value is reported at
    # its line, and only the digest or the probability sum fails a whole file
    lines = (GOLDEN / golden).read_text(encoding="utf-8").splitlines(keepends=True)
    if field in ("log-prob", "flag"):
        parts = lines[index].rstrip("\n").split("\t")
        parts[1 if field == "log-prob" else 2] = value
        lines[index] = "\t".join(parts) + "\n"
    else:
        lines[index] = f"# {field} {value}".rstrip() + "\n"
    path = tmp_path / golden
    path.write_text("".join(lines), encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("portas amat portamus\n", encoding="utf-8")
    code = cli.main(["encode", "--artifact", str(path), "--input", str(words)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    located = err.startswith(f"error: {path}:{index + 1}: ")
    if (golden, field, value) in LOCATED_MUTANTS:
        assert code == 2 and located, err
    elif code == 2:  # or a whole-file fact, which no one line is at fault for
        fact = "entry probabilities sum to" if field == "log-prob" else "does not match the header's"
        assert located or fact in err, err


class TestDelimiterRule:
    @pytest.mark.parametrize("config_class", [WpTrainerConfig, UlmTrainerConfig])
    @pytest.mark.parametrize("delimiter", ["xy", "", "\\", " ", "\t"])
    def test_config_rejects_delimiter(self, config_class, delimiter):
        with pytest.raises(ValueError, match="morph delimiter must be one character"):
            config_class(morph_delimiter=delimiter)

    @pytest.mark.parametrize("config_class", [WpTrainerConfig, UlmTrainerConfig])
    def test_config_accepts_one_character(self, config_class):
        assert config_class(morph_delimiter="#").morph_delimiter == "#"
        assert config_class().morph_delimiter is None


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


class TestConfigFields:
    def test_type_hints_evaluated_once_per_class(self, monkeypatch):
        calls = []
        get_type_hints = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints", lambda cls: calls.append(cls) or get_type_hints(cls))
        artifacts.config_fields.cache_clear()
        for _ in range(3):
            for name in ("wp.tok", "ulm.tok"):
                artifacts.load_tokenizer(GOLDEN / name)
        assert sorted(c.__name__ for c in calls) == ["UlmTrainerConfig", "WpTrainerConfig"]

    def test_fields_are_immutable(self):
        assert isinstance(artifacts.config_fields(WpTrainerConfig), tuple)


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
