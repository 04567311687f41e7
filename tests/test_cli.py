"""Command line behavior: subcommand contracts and exit codes."""

import io

import pytest

from morphtok import artifacts, cli

CORPUS = "portas portat portamus\nportat amat amamus\nportas amat portamus\n"
LEXICON = (
    "portas\t1\tVerb\tport@as\n"
    "portat\t1\tVerb\tport@at\n"
    "portamus\t1\tVerb\tport@amus\n"
    "amat\t1\tVerb\tam@at\n"
    "amamus\t1\tVerb\tam@amus\n"
)
TAGGED = (
    "portas\tVERB\nportat\tVERB\nportamus\tVERB\n\n"
    "portat\tVERB\namat\tVERB\namamus\tVERB\n"
)
SUFFIXES = "as\nat\namus\n"
GOLD = "portas\tVERB\tport@as\nportat\tVERB\tport@at\namat\tVERB\tam@at\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("corpus.txt", CORPUS),
        ("lexicon.tsv", LEXICON),
        ("tagged.tsv", TAGGED),
        ("suffixes.txt", SUFFIXES),
        ("gold.tsv", GOLD),
    ]:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name.split(".")[0]] = str(p)
    paths["dir"] = tmp_path
    return paths


def train_args(files, out, algorithm="wordpiece", guidance="baseline", *extra):
    args = ["train", "--algorithm", algorithm, "--guidance", guidance,
            "--corpus", files["corpus"], "--output", out, "--vocab-size", "40"]
    if guidance.startswith("morphpretok"):
        args += ["--lexicon", files["lexicon"]]
    if guidance == "morphseed":
        args += ["--suffixes", files["suffixes"]]
    args += list(extra)
    return args


class TestTrain:
    def test_wordpiece_baseline(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        assert cli.main(train_args(files, out)) == 0
        assert "trained wordpiece" in capsys.readouterr().out
        model = artifacts.load_tokenizer(out)
        assert artifacts.model_kind(model) == "wordpiece"
        assert (files["dir"] / "wp.tok.manifest").exists()

    def test_ulm_with_overrides(self, files):
        out = str(files["dir"] / "ulm.tok")
        code = cli.main(
            train_args(files, out, "ulm", "baseline", "--seed-size", "100", "--max-piece-length", "6")
        )
        assert code == 0
        model = artifacts.load_tokenizer(out)
        assert model.config.seed_size == 100

    def test_pretok_guidance(self, files):
        out = str(files["dir"] / "wp.tok")
        assert cli.main(train_args(files, out, "wordpiece", "morphpretok-acontextual")) == 0
        model = artifacts.load_tokenizer(out)
        assert model.config.morph_delimiter == "@"
        assert "##as" in model.vocab.entries

    def test_contextual_guidance_needs_tagged(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--guidance", "morphpretok-contextual",
             "--lexicon", files["lexicon"], "--output", out, "--vocab-size", "40"]
        )
        assert code == 2
        assert "tagged" in capsys.readouterr().err

    def test_contextual_guidance_trains(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--guidance", "morphpretok-contextual",
             "--tagged-corpus", files["tagged"], "--lexicon", files["lexicon"],
             "--output", out, "--vocab-size", "40"]
        )
        assert code == 0

    def test_manifest_contents(self, files):
        out = str(files["dir"] / "wp.tok")
        cli.main(train_args(files, out))
        manifest = (files["dir"] / "wp.tok.manifest").read_text(encoding="utf-8")
        assert "corpus_sha256 " in manifest
        assert "option_vocab_size 40" in manifest
        assert "config_digest " in manifest

    def test_missing_corpus_is_input_error(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--corpus", str(files["dir"] / "no.txt"),
             "--output", out]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_morphseed_without_suffixes_is_error(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--guidance", "morphseed",
             "--corpus", files["corpus"], "--output", out, "--vocab-size", "40"]
        )
        assert code == 2

    def test_suffixes_with_baseline_warns_and_ignores(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out) + ["--suffixes", files["suffixes"]])
        assert code == 0
        assert "ignored" in capsys.readouterr().err
        model = artifacts.load_tokenizer(out)
        assert "##amus" not in model.vocab.entries or True  # vocab may derive it by merges
        assert model.guidance == "baseline"

    def test_vocab_too_small_is_input_error(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out)[:-1] + ["5"])
        assert code == 2

    def test_config_file_with_flag_override(self, files):
        cfg = files["dir"] / "train.cfg"
        cfg.write_text("vocab_size 35\nmin_pair_frequency 3\n", encoding="utf-8")
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--corpus", files["corpus"],
             "--output", out, "--config", str(cfg), "--min-pair-frequency", "2"]
        )
        assert code == 0
        model = artifacts.load_tokenizer(out)
        assert model.config.vocab_size == 35  # from file
        assert model.config.min_pair_frequency == 2  # flag wins

    def test_unknown_config_key_is_input_error(self, files, capsys):
        cfg = files["dir"] / "train.cfg"
        cfg.write_text("vocab_sizes 35\n", encoding="utf-8")
        out = str(files["dir"] / "wp.tok")
        code = cli.main(
            ["train", "--algorithm", "wordpiece", "--corpus", files["corpus"],
             "--output", out, "--config", str(cfg)]
        )
        assert code == 2
        assert "vocab_sizes" in capsys.readouterr().err

    def test_sample_fraction(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out, "wordpiece", "baseline",
                                   "--sample-fraction", "0.5", "--seed", "7"))
        assert code == 0
        manifest = (files["dir"] / "wp.tok.manifest").read_text(encoding="utf-8")
        assert "sentences 2" in manifest  # round(0.5 * 3) = 2

    def test_multichar_delimiter_rejected(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out) + ["--morph-delimiter", "@@"])
        assert code == 2

    @pytest.mark.parametrize("delimiter", ["\\", " ", "\t"])
    def test_escape_or_space_delimiter_rejected(self, files, capsys, delimiter):
        # "\" escapes the delimiter in raw text; whitespace splits words
        out = str(files["dir"] / "wp.tok")
        guidance = "morphpretok-acontextual"
        code = cli.main(train_args(files, out, "wordpiece", guidance, "--morph-delimiter", delimiter))
        assert code == 2
        assert "--morph-delimiter: bad value for 'morph_delimiter'" in capsys.readouterr().err
        cfg = files["dir"] / "train.cfg"
        cfg.write_text(f"morph_delimiter {delimiter}\n", encoding="utf-8")
        code = cli.main(train_args(files, out, "wordpiece", guidance, "--config", str(cfg)))
        assert code == 2
        assert f"{cfg}:1: " in capsys.readouterr().err  # a bad value, or none once stripped
        assert not (files["dir"] / "wp.tok").exists()

    def test_lexicon_without_usable_rows_is_input_error(self, files, capsys):
        lexicon = files["dir"] / "broken.tsv"
        lexicon.write_text(LEXICON.replace("\t1\t", "\t"), encoding="utf-8")
        out = str(files["dir"] / "wp.tok")
        args = train_args(files, out, "wordpiece", "morphpretok-acontextual")
        args[args.index(files["lexicon"])] = str(lexicon)
        assert cli.main(args) == 2
        assert "no usable lexicon rows (5 malformed)" in capsys.readouterr().err
        assert not (files["dir"] / "wp.tok").exists()


class TestPresegment:
    def test_acontextual_writes_delimited_corpus(self, files):
        out = files["dir"] / "preseg.txt"
        stats = files["dir"] / "stats.kv"
        code = cli.main(
            ["presegment", "--mode", "acontextual", "--corpus", files["corpus"],
             "--lexicon", files["lexicon"], "--output", str(out), "--stats-output", str(stats)]
        )
        assert code == 0
        assert "port@as port@at port@amus" in out.read_text(encoding="utf-8")
        assert "total_words 9" in stats.read_text(encoding="utf-8")

    def test_contextual_needs_tagged(self, files):
        code = cli.main(
            ["presegment", "--mode", "contextual", "--corpus", files["corpus"],
             "--lexicon", files["lexicon"], "--output", str(files["dir"] / "x.txt")]
        )
        assert code == 2

    def test_escape_delimiter_rejected(self, files, capsys):
        code = cli.main(
            ["presegment", "--mode", "acontextual", "--corpus", files["corpus"],
             "--lexicon", files["lexicon"], "--morph-delimiter", "\\",
             "--output", str(files["dir"] / "x.txt")]
        )
        assert code == 2
        assert "--morph-delimiter: bad value" in capsys.readouterr().err

    def test_contextual(self, files):
        out = files["dir"] / "preseg.txt"
        code = cli.main(
            ["presegment", "--mode", "contextual", "--tagged-corpus", files["tagged"],
             "--lexicon", files["lexicon"], "--output", str(out)]
        )
        assert code == 0
        assert "port@as" in out.read_text(encoding="utf-8")


class TestEncode:
    @pytest.fixture
    def artifact(self, files):
        out = str(files["dir"] / "wp.tok")
        cli.main(train_args(files, out, "wordpiece", "morphpretok-acontextual"))
        return out

    def test_sentence_granularity(self, files, artifact):
        out = files["dir"] / "enc.txt"
        code = cli.main(
            ["encode", "--artifact", artifact, "--input", files["corpus"],
             "--lexicon", files["lexicon"], "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0].split()[:2] == ["port", "##as"]

    def test_word_granularity(self, files, artifact):
        out = files["dir"] / "enc.txt"
        code = cli.main(
            ["encode", "--artifact", artifact, "--input", files["corpus"],
             "--lexicon", files["lexicon"], "--granularity", "word", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 9
        assert lines[0] == "port ##as"

    def test_strip_markers_reproduces_input(self, files, artifact):
        out = files["dir"] / "roundtrip.txt"
        code = cli.main(
            ["encode", "--artifact", artifact, "--input", files["corpus"],
             "--lexicon", files["lexicon"], "--strip-markers", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == CORPUS

    def test_stdin(self, files, artifact, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("portas amat\n"))
        code = cli.main(["encode", "--artifact", artifact, "--lexicon", files["lexicon"]])
        assert code == 0
        assert capsys.readouterr().out == "port ##as am ##at\n"

    def test_missing_lexicon_warns(self, files, artifact, capsys):
        out = files["dir"] / "enc.txt"
        code = cli.main(
            ["encode", "--artifact", artifact, "--input", files["corpus"], "--output", str(out)]
        )
        assert code == 0
        assert "warning:" in capsys.readouterr().err

    def test_missing_artifact_is_input_error(self, files):
        code = cli.main(["encode", "--artifact", str(files["dir"] / "no.tok"),
                         "--input", files["corpus"]])
        assert code == 2


class TestEvaluate:
    @pytest.fixture
    def two_artifacts(self, files):
        a = str(files["dir"] / "a.tok")
        b = str(files["dir"] / "b.tok")
        cli.main(train_args(files, a, "wordpiece", "morphpretok-acontextual"))
        cli.main(train_args(files, b, "wordpiece", "baseline"))
        return a, b

    def test_side_by_side_table(self, files, two_artifacts, capsys):
        a, b = two_artifacts
        code = cli.main(
            ["evaluate", "--artifact", a, "--artifact", b, "--gold", files["gold"],
             "--lexicon", files["lexicon"]]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wordpiece-morphpretok-acontextual" in out
        assert "wordpiece-baseline" in out
        assert "EM" in out

    def test_kv_format(self, files, two_artifacts, capsys):
        a, _ = two_artifacts
        code = cli.main(
            ["evaluate", "--artifact", a, "--gold", files["gold"],
             "--lexicon", files["lexicon"], "--format", "kv"]
        )
        assert code == 0
        assert "exact_match " in capsys.readouterr().out

    def test_extended_table(self, files, two_artifacts, capsys):
        a, _ = two_artifacts
        code = cli.main(
            ["evaluate", "--artifact", a, "--gold", files["gold"],
             "--lexicon", files["lexicon"], "--extended"]
        )
        assert code == 0
        assert "Precision" in capsys.readouterr().out

    def test_contextual_mode(self, files, two_artifacts, capsys):
        a, _ = two_artifacts
        code = cli.main(
            ["evaluate", "--artifact", a, "--gold", files["gold"],
             "--lexicon", files["lexicon"], "--mode", "contextual"]
        )
        assert code == 0

    def test_missing_gold_is_input_error(self, files, two_artifacts):
        a, _ = two_artifacts
        code = cli.main(["evaluate", "--artifact", a, "--gold", str(files["dir"] / "no.tsv")])
        assert code == 2


class TestExitCodes:
    def test_internal_error_is_three(self, files, monkeypatch, capsys):
        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(artifacts, "load_tokenizer", boom)
        monkeypatch.setattr(cli.artifacts, "load_tokenizer", boom)
        code = cli.main(["encode", "--artifact", "x.tok", "--input", files["corpus"]])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_argparse_rejects_unknown_choice(self, files):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--algorithm", "bpe", "--corpus", files["corpus"],
                      "--output", "x.tok"])
        assert exc.value.code == 2
