"""Command line behavior: subcommand contracts and exit codes."""

import io
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from morphtok import artifacts, cli, corpus
from morphtok.morphology import DEFAULT_POS_MAPPING

ROOT = Path(__file__).resolve().parents[1]
MINI = ROOT / "data" / "mini-latin"

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


def src_env():
    """The environment of a `python -m morphtok.cli` child that imports this
    checkout and buffers its output as Python does by default."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


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

    def test_suffixes_with_baseline_warns_and_ignores(self, tmp_path, capsys):
        # an ignored suffix list leaves the artifact as it is without one
        args = ["train", "--algorithm", "wordpiece", "--corpus", str(MINI / "corpus.txt"),
                "--vocab-size", "300", "--output"]
        with_suffixes, without = tmp_path / "with.tok", tmp_path / "without.tok"
        assert cli.main(args + [str(with_suffixes), "--suffixes", str(MINI / "suffixes.txt")]) == 0
        assert "--suffixes is ignored with guidance 'baseline'" in capsys.readouterr().err
        assert cli.main(args + [str(without)]) == 0
        assert with_suffixes.read_bytes() == without.read_bytes()
        assert artifacts.load_tokenizer(with_suffixes).guidance == "baseline"

    @pytest.mark.parametrize("flag", ["--tagged-corpus", "--pos-mapping", "--lexicon", "--corpus", "malformed"])
    def test_unread_input_warns_and_is_ignored(self, tmp_path, capsys, flag):
        # an input the guidance mode does not read leaves the artifact as it is
        # without it; "malformed" gives baseline training unreadable files it must not open
        mapping = tmp_path / "pos-mapping.tsv"
        mapping.write_text("".join(f"{ud}\t{','.join(tags)}\n" for ud, tags in DEFAULT_POS_MAPPING.items()),
                           encoding="utf-8")
        inputs = {"--corpus": MINI / "corpus.txt", "--tagged-corpus": MINI / "tagged.tsv",
                  "--lexicon": MINI / "lexicon.tsv", "--pos-mapping": mapping}
        if flag == "malformed":
            bad = tmp_path / "bad.tsv"
            bad.write_bytes(b"no\ttabs\xff here\n")
            unread = {"--lexicon": bad, "--pos-mapping": bad, "--suffixes": tmp_path / "nonexistent"}
        else:
            unread = {flag: inputs[flag]}
        reads = ["--tagged-corpus", "--lexicon"] if flag == "--corpus" else ["--corpus"]
        guidance = "morphpretok-contextual" if flag == "--corpus" else "baseline"
        args = ["train", "--algorithm", "wordpiece", "--guidance", guidance, "--vocab-size", "300"]
        args += [arg for name in reads for arg in (name, str(inputs[name]))]
        with_flag, without = tmp_path / "with.tok", tmp_path / "without.tok"
        unread_args = [arg for name, path in unread.items() for arg in (name, str(path))]
        assert cli.main(args + ["--output", str(with_flag)] + unread_args) == 0
        err = capsys.readouterr().err
        for name in unread:
            assert f"warning: {name} is ignored with guidance '{guidance}'" in err
        assert cli.main(args + ["--output", str(without)]) == 0
        assert "is ignored" not in capsys.readouterr().err
        assert with_flag.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize("guidance", ["morphpretok-acontextual", "morphpretok-contextual"])
    def test_pretok_without_lexicon_is_input_error(self, files, capsys, guidance):
        out = files["dir"] / "wp.tok"
        code = cli.main(["train", "--algorithm", "wordpiece", "--guidance", guidance,
                         "--corpus", files["corpus"], "--tagged-corpus", files["tagged"],
                         "--output", str(out), "--vocab-size", "40"])
        assert code == 2
        assert f"guidance '{guidance}' requires --lexicon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--pos-mapping"])
    def test_invalid_utf8_in_option_file_is_located(self, files, capsys, flag):
        bad = files["dir"] / "bad.tsv"
        bad.write_bytes("# café\n".encode("utf-8") + b"VERB\tVerb\xff\n")
        out = files["dir"] / "wp.tok"
        # contextual presegmentation, which reads the POS mapping
        args = train_args(files, str(out), "wordpiece", "morphpretok-contextual", "--tagged-corpus", files["tagged"])
        assert cli.main(args + [flag, str(bad)]) == 2
        assert f"error: {bad}:2: invalid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_tagged_word_with_whitespace_is_located(self, files, capsys):
        # trained on, it would give the artifact a piece with whitespace, which
        # the loader rejects
        tagged = files["dir"] / "spaced.tsv"
        tagged.write_text("portas\tVERB\nad hoc\tADV\n", encoding="utf-8")
        out = files["dir"] / "wp.tok"
        args = train_args(files, str(out), "wordpiece", "morphpretok-contextual", "--tagged-corpus", str(tagged))
        assert cli.main(args) == 2
        assert f"error: {tagged}:2: word contains whitespace: 'ad hoc'" in capsys.readouterr().err
        assert not out.exists()

    def test_without_corpus_is_input_error(self, files, capsys):
        out = files["dir"] / "wp.tok"
        code = cli.main(["train", "--algorithm", "wordpiece", "--output", str(out)])
        assert code == 2
        assert "--corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_too_small_is_input_error(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out)[:-1] + ["5"])
        assert code == 2

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_em_iterations_below_one_is_input_error(self, files, capsys, rounds):
        # with no EM step a round prunes seed frequencies, and the artifact's
        # probabilities no longer sum to 1
        out = files["dir"] / "ulm.tok"
        code = cli.main(train_args(files, str(out), "ulm", "baseline", "--seed-size", "100",
                                   "--em-iterations-per-round", rounds))
        assert code == 2
        assert "em_iterations_per_round must be positive" in capsys.readouterr().err
        assert not out.exists()

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

    def test_repeated_config_key_is_input_error(self, files, capsys):
        # "vocab-size" names the key "vocab_size" does; the later line must not win
        cfg = files["dir"] / "train.cfg"
        cfg.write_text("vocab_size 35\n# a comment\nvocab-size 40\n", encoding="utf-8")
        out = files["dir"] / "wp.tok"
        code = cli.main(["train", "--algorithm", "wordpiece", "--corpus", files["corpus"],
                         "--output", str(out), "--config", str(cfg)])
        assert code == 2
        assert f"error: {cfg}:3: repeated config key 'vocab_size'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
    def test_morphseed_without_a_suffix_is_input_error(self, files, capsys, algorithm):
        # blank and comment lines only: the artifact would be the baseline's
        # under the morphseed label
        Path(files["suffixes"]).write_text("\n# none yet\n  \n", encoding="utf-8")
        out = files["dir"] / "seeded.tok"
        assert cli.main(train_args(files, str(out), algorithm, "morphseed")) == 2
        assert f"error: {files['suffixes']}: no suffix" in capsys.readouterr().err
        assert not out.exists()
        assert not (files["dir"] / "seeded.tok.manifest").exists()

    def test_suffixes_read_as_the_corpus_is(self, files):
        # lowercased with --lowercase and "@" escaped, as corpus words are, so
        # every seed is a piece the training words can reach
        Path(files["corpus"]).write_text(CORPUS.upper() + "A@B A@B\n", encoding="utf-8")
        Path(files["suffixes"]).write_text("AS\nAt\na@b\n", encoding="utf-8")
        wp, unigram = files["dir"] / "wp.tok", files["dir"] / "ulm.tok"
        assert cli.main(train_args(files, str(wp), "wordpiece", "morphseed", "--lowercase")) == 0
        assert cli.main(train_args(files, str(unigram), "ulm", "morphseed", "--lowercase")) == 0
        entries = artifacts.load_tokenizer(wp).vocab.entries
        assert {"##as", "##at", "##a\\@b"} <= entries
        assert not {"##AS", "##At", "##a@b"} & entries
        vocab = artifacts.load_tokenizer(unigram).vocab
        assert vocab.protected == {"as", "at", "a\\@b"}
        assert all(vocab.log_probs[suffix] > float("-inf") for suffix in vocab.protected)

    @pytest.mark.parametrize("algorithm, flags, config_line, ignored, manifest_line", [
        ("wordpiece", ["--seed-size", "5", "--exact-pruning"], "shrinking-factor 0.3",
         ["--exact-pruning", "--seed-size", "--shrinking-factor"], "option_seed_size 5"),
        # a flag and a config key naming one option: one warning, and the flag wins
        ("ulm", ["--min-pair-frequency", "7"], "min_pair_frequency 9",
         ["--min-pair-frequency"], "option_min_pair_frequency 7"),
    ], ids=["wordpiece", "ulm"])
    def test_other_algorithm_option_warns_and_is_ignored(self, files, capsys, algorithm, flags, config_line,
                                                         ignored, manifest_line):
        # the option, whether a flag or a config key gives it, reaches no
        # trainer; the manifest records it as it records every option
        plain, other = files["dir"] / "plain.tok", files["dir"] / "other.tok"
        cfg = files["dir"] / "train.cfg"
        cfg.write_text(config_line + "\n", encoding="utf-8")
        assert cli.main(train_args(files, str(plain), algorithm)) == 0
        plain_err = capsys.readouterr().err.splitlines()
        assert cli.main(train_args(files, str(other), algorithm, "baseline", *flags, "--config", str(cfg))) == 0
        assert other.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {flag} is ignored with --algorithm {algorithm}" for flag in ignored] + plain_err
        assert manifest_line in (files["dir"] / "other.tok.manifest").read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("key, value, problem", [
        ("shrinking_factor", "7", "shrinking_factor must be in (0, 1), got 7.0"),
        ("seed_size", "0", "max_piece_length, seed_size and em_iterations_per_round must be positive"),
        ("vocab_size", "-5", "vocab_size must be positive, got -5"),
        ("min_pair_frequency", "-3", "min_pair_frequency must be positive, got -3"),
        ("sample_fraction", "nan", "sample fraction must be in (0, 1], got nan"),
        ("sample_fraction", "0", "sample fraction must be in (0, 1], got 0.0"),
        ("sample_fraction", "1.5", "sample fraction must be in (0, 1], got 1.5"),
    ])
    @pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
    def test_bad_option_value_rejected_before_input_is_read(self, tmp_path, capsys, key, value, problem,
                                                            algorithm):
        # the corpus does not exist, so only a check at the flag or config
        # line can report the value; a ULM option is judged under wordpiece too
        out, flag = tmp_path / "a.tok", "--" + key.replace("_", "-")
        common = ["train", "--algorithm", algorithm, "--corpus", str(tmp_path / "nope.txt"), "--output", str(out)]
        assert cli.main(common + [flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag}: bad value for {key!r}: {problem}\n"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"# one option\n{key} {value}\n", encoding="utf-8")
        assert cli.main(common + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: bad value for {key!r}: {problem}\n"
        assert not out.exists()

    def test_sample_fraction(self, files):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out, "wordpiece", "baseline",
                                   "--sample-fraction", "0.5", "--seed", "7"))
        assert code == 0
        manifest = (files["dir"] / "wp.tok.manifest").read_text(encoding="utf-8")
        assert "sentences 2" in manifest  # round(0.5 * 3) = 2

    def test_multichar_delimiter_rejected(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        code = cli.main(train_args(files, out) + ["--morph-delimiter", "@@"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --morph-delimiter: bad value for 'morph_delimiter': morph delimiter must be "
            "one character other than '\\' and whitespace, got '@@'\n"
        )

    @pytest.mark.parametrize("guidance", ["baseline", "morphseed"])
    def test_delimiter_without_presegmentation_warns_and_is_ignored(self, files, capsys, guidance):
        # the artifact records no delimiter, so `encode` escapes "@" in "ab@cd"
        # as training must have, whatever --morph-delimiter said
        Path(files["corpus"]).write_text(CORPUS + "ab@cd ab@cd ab@cd\n", encoding="utf-8")
        with_flag, without = files["dir"] / "with.tok", files["dir"] / "without.tok"
        assert cli.main(train_args(files, str(with_flag), "wordpiece", guidance, "--morph-delimiter", "#")) == 0
        assert f"warning: --morph-delimiter is ignored with guidance '{guidance}'" in capsys.readouterr().err
        assert cli.main(train_args(files, str(without), "wordpiece", guidance)) == 0
        assert "is ignored" not in capsys.readouterr().err
        assert with_flag.read_bytes() == without.read_bytes()

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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_seed_weight_rejected(self, files, capsys, weight):
        # the artifact's own `encode` would refuse its boost; "=" lets "-inf" be a value
        out = files["dir"] / "ulm.tok"
        assert cli.main(train_args(files, str(out), "ulm", "morphseed", f"--seed-weight={weight}")) == 2
        assert f"seed_weight must be finite, got {float(weight)}" in capsys.readouterr().err
        assert not out.exists()

    def test_lexicon_without_usable_rows_is_input_error(self, files, capsys):
        lexicon = files["dir"] / "broken.tsv"
        lexicon.write_text(LEXICON.replace("\t1\t", "\t"), encoding="utf-8")
        out = str(files["dir"] / "wp.tok")
        args = train_args(files, out, "wordpiece", "morphpretok-acontextual")
        args[args.index(files["lexicon"])] = str(lexicon)
        assert cli.main(args) == 2
        assert "no usable lexicon rows (5 malformed)" in capsys.readouterr().err
        assert not (files["dir"] / "wp.tok").exists()

    @pytest.mark.parametrize("command", ["train", "presegment", "encode", "evaluate"])
    def test_lexicon_of_another_delimiter_is_input_error(self, tmp_path, capsys, command):
        # with the other delimiter only the 10 unsegmented rows of 377 parse
        lexicon = MINI / "lexicon.tsv"
        out = tmp_path / "out"
        pretok = ["--algorithm", "wordpiece", "--guidance", "morphpretok-acontextual",
                  "--vocab-size", "1200"]
        if command in ("train", "presegment"):  # "@" lexicon, "#" flag
            args = ["--corpus", str(MINI / "corpus.txt"), "--lexicon", str(lexicon),
                    "--morph-delimiter", "#", "--output", str(out)]
            args = ["train", *pretok, *args] if command == "train" \
                else ["presegment", "--mode", "acontextual", *args]
            named = "--morph-delimiter '#'"
        else:  # "#" lexicon, "@" artifact
            artifact = str(tmp_path / "wp.tok")
            assert cli.main(["train", *pretok, "--corpus", str(MINI / "corpus.txt"),
                             "--lexicon", str(lexicon), "--output", artifact]) == 0
            hashed = tmp_path / "lexicon.tsv"
            hashed.write_text(lexicon.read_text(encoding="utf-8").replace("@", "#"), encoding="utf-8")
            lexicon = hashed
            args = ["--artifact", artifact, "--lexicon", str(lexicon), "--output", str(out)]
            args = ["encode", "--input", str(MINI / "corpus.txt"), *args] if command == "encode" \
                else ["evaluate", "--gold", str(MINI / "gold-acontextual.tsv"), *args]
            named = "the artifact's morph delimiter '@'"
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"{lexicon}: 367 of 377 lexicon rows are malformed, the first at {lexicon}:1: " in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
    def test_underfilled_vocabulary_warns(self, files, capsys, algorithm):
        out = str(files["dir"] / "small.tok")
        args = train_args(files, out, algorithm, "baseline", "--seed-size", "100") if algorithm == "ulm" \
            else train_args(files, out, algorithm)
        args[args.index("--vocab-size") + 1] = "1000"
        assert cli.main(args) == 0
        entries = len(artifacts.load_tokenizer(out).vocab)
        assert entries < 1000
        err = capsys.readouterr().err
        assert f"warning: vocabulary has {entries} entries, fewer than the 1000 asked for" in err
        manifest = (files["dir"] / "small.tok.manifest").read_text(encoding="utf-8")
        assert f"vocab_entries {entries}\n" in manifest

    def test_filled_vocabulary_does_not_warn(self, files, capsys):
        out = str(files["dir"] / "wp.tok")
        args = train_args(files, out)
        args[args.index("--vocab-size") + 1] = "20"
        assert cli.main(args) == 0
        assert len(artifacts.load_tokenizer(out).vocab) == 20
        assert "warning" not in capsys.readouterr().err


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

    def test_acontextual_needs_corpus(self, files, capsys):
        out = files["dir"] / "x.txt"
        code = cli.main(
            ["presegment", "--mode", "acontextual", "--tagged-corpus", files["tagged"],
             "--lexicon", files["lexicon"], "--output", str(out)]
        )
        assert code == 2
        assert "--corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_escape_delimiter_rejected(self, files, capsys):
        code = cli.main(
            ["presegment", "--mode", "acontextual", "--corpus", files["corpus"],
             "--lexicon", files["lexicon"], "--morph-delimiter", "\\",
             "--output", str(files["dir"] / "x.txt")]
        )
        assert code == 2
        assert "--morph-delimiter: bad value" in capsys.readouterr().err

    def test_empty_delimiter_rejected(self, files, capsys):
        # as `train` rejects it, rather than falling back to "@"
        out = files["dir"] / "x.txt"
        code = cli.main(
            ["presegment", "--mode", "acontextual", "--corpus", files["corpus"],
             "--lexicon", files["lexicon"], "--morph-delimiter", "", "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --morph-delimiter: bad value for 'morph_delimiter': morph delimiter must be "
            "one character other than '\\' and whitespace, got ''\n"
        )
        assert not out.exists()

    def test_contextual(self, files):
        out = files["dir"] / "preseg.txt"
        code = cli.main(
            ["presegment", "--mode", "contextual", "--tagged-corpus", files["tagged"],
             "--lexicon", files["lexicon"], "--output", str(out)]
        )
        assert code == 0
        assert "port@as" in out.read_text(encoding="utf-8")


    @pytest.mark.parametrize("mode", ["acontextual", "contextual"])
    def test_unread_input_warns_and_is_ignored(self, tmp_path, capsys, mode):
        # the corpus a mode does not read (and, for acontextual, the POS
        # mapping) leaves the output and the stats as they are without it
        mapping = tmp_path / "pos-mapping.tsv"
        mapping.write_text("".join(f"{ud}\t{','.join(tags)}\n" for ud, tags in DEFAULT_POS_MAPPING.items()),
                           encoding="utf-8")
        inputs = {"--corpus": MINI / "corpus.txt", "--tagged-corpus": MINI / "tagged.tsv",
                  "--lexicon": MINI / "lexicon.tsv", "--pos-mapping": mapping}
        unread = ["--tagged-corpus", "--pos-mapping"] if mode == "acontextual" else ["--corpus"]
        outputs = {}
        for run, names in (("with", inputs), ("without", [n for n in inputs if n not in unread])):
            out, stats = tmp_path / f"{run}.txt", tmp_path / f"{run}.kv"
            args = ["presegment", "--mode", mode, "--output", str(out), "--stats-output", str(stats)]
            assert cli.main(args + [arg for name in names for arg in (name, str(inputs[name]))]) == 0
            outputs[run] = (out.read_bytes(), stats.read_bytes(), capsys.readouterr().err)
        for flag in unread:
            assert f"warning: {flag} is ignored with mode '{mode}'" in outputs["with"][2]
        assert "is ignored" not in outputs["without"][2]
        assert outputs["with"][:2] == outputs["without"][:2]


class TestEncode:
    @pytest.fixture
    def artifact(self, files):
        out = str(files["dir"] / "wp.tok")
        cli.main(train_args(files, out, "wordpiece", "morphpretok-acontextual"))
        return out

    @pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
    def test_artifact_multichar_delimiter_is_input_error(self, files, capsys, algorithm):
        # the config rejects the delimiter the header names, before its digest is checked
        path = files["dir"] / "xy.tok"
        assert cli.main(train_args(files, str(path), algorithm, "morphpretok-acontextual")) == 0
        text = path.read_text(encoding="utf-8")
        assert "# morph_delimiter @\n" in text
        lineno = text.count("\n", 0, text.index("# morph_delimiter @\n")) + 1
        path.write_text(text.replace("# morph_delimiter @\n", "# morph_delimiter xy\n"), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["encode", "--artifact", str(path), "--input", files["corpus"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: morph delimiter must be one character")

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
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"portas amat\n")))
        code = cli.main(["encode", "--artifact", artifact, "--lexicon", files["lexicon"]])
        assert code == 0
        assert capsys.readouterr().out == "port ##as am ##at\n"

    def test_stdin_byte_order_mark_is_dropped(self, files, artifact, capsys, monkeypatch):
        # only where it starts the input; elsewhere it is a character of a word
        text = "\ufeffportas amat\n\ufeffamat\n".encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        assert cli.main(["encode", "--artifact", artifact, "--lexicon", files["lexicon"]]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == "port ##as am ##at"
        assert second != "am ##at"

    def test_stdin_streams_line_by_line(self, files, artifact, monkeypatch):
        stdout = io.StringIO()
        written_before_second_line = []

        def stdin():
            yield b"portas amat\n"
            written_before_second_line.append(stdout.getvalue())
            yield b"amat\n"

        monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=stdin()))
        monkeypatch.setattr("sys.stdout", stdout)
        assert cli.main(["encode", "--artifact", artifact, "--lexicon", files["lexicon"]]) == 0
        assert written_before_second_line == ["port ##as am ##at\n"]
        assert stdout.getvalue() == "port ##as am ##at\nam ##at\n"

    def test_tagged_stdin_streams_sentence_by_sentence(self, files, artifact, monkeypatch):
        stdout = io.StringIO()
        written_before_second_sentence = []

        def stdin():
            yield b"portas\tVERB\n"
            yield b"amat\tVERB\n"
            yield b"\n"
            written_before_second_sentence.append(stdout.getvalue())
            yield b"amat\tVERB\n"

        monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=stdin()))
        monkeypatch.setattr("sys.stdout", stdout)
        args = ["encode", "--artifact", artifact, "--lexicon", files["lexicon"], "--tagged"]
        assert cli.main(args) == 0
        assert written_before_second_sentence == ["port ##as am ##at\n"]
        assert stdout.getvalue() == "port ##as am ##at\nam ##at\n"

    def test_tagged_stdin_error_is_located(self, files, artifact, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"portas\tVERB\n\namat\tVERBISH\n")))
        args = ["encode", "--artifact", artifact, "--lexicon", files["lexicon"], "--tagged"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "port ##as\n"
        assert "error: <stdin>:3: unknown UD POS tag: 'VERBISH'" in captured.err

    @pytest.mark.parametrize("tagged, text", [
        (False, b"portas amat\nport\xffas amat\n"),
        (True, b"portas\tVERB\n\nport\xffas\tVERB\n"),
    ])
    def test_invalid_utf8_on_stdin_is_located(self, files, artifact, monkeypatch, capsys, tagged, text):
        # the same bytes from --input fail alike; stdin must not encode them as [UNK]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        path = files["dir"] / "bad.txt"
        path.write_bytes(text)
        args = ["encode", "--artifact", artifact, "--lexicon", files["lexicon"]] + ["--tagged"] * tagged
        lineno = 3 if tagged else 2
        for source, extra in [("<stdin>", []), (path, ["--input", str(path)])]:
            assert cli.main(args + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ("port ##as\n" if tagged else "port ##as am ##at\n")
            assert f"error: {source}:{lineno}: invalid UTF-8" in captured.err

    @pytest.mark.parametrize("index", [2, -2], ids=["header", "last-entry"])
    def test_invalid_utf8_in_artifact_is_located(self, files, artifact, capsys, index):
        lines = Path(artifact).read_bytes().split(b"\n")  # the last is the empty one after "\n"
        lines[index] += b"\xff"
        Path(artifact).write_bytes(b"\n".join(lines))
        assert cli.main(["encode", "--artifact", artifact, "--input", files["corpus"]]) == 2
        lineno = index % len(lines) + 1
        assert f"error: {artifact}:{lineno}: invalid UTF-8 (invalid start byte)" in capsys.readouterr().err

    def test_stdin_pipe_answers_each_line(self, files, artifact):
        # a caller may wait for each line's encoding before sending the next
        proc = subprocess.Popen(
            [sys.executable, "-m", "morphtok.cli", "encode", "--artifact", artifact,
             "--lexicon", files["lexicon"]],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=src_env(),
        )
        try:
            answers = []
            for line in (b"portas amat\n", b"amat\n"):
                proc.stdin.write(line)
                proc.stdin.flush()
                reader = threading.Thread(target=lambda: answers.append(proc.stdout.readline()))
                reader.start()
                reader.join(timeout=60)
                assert not reader.is_alive(), f"no answer to {line!r} while stdin is open"
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert answers == [b"port ##as am ##at\n", b"am ##at\n"]

    def test_closed_pipe_exits_quietly(self, files, artifact):
        # far more output than a pipe buffers, so writing must meet the closed pipe
        big = files["dir"] / "big.txt"
        big.write_text(CORPUS * 20000, encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "morphtok.cli", "encode", "--artifact", artifact,
             "--input", str(big), "--lexicon", files["lexicon"]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == b"port ##as port ##at port ##amus\n"
        assert (code, err) == (0, b"")

    def test_memo_cap_keeps_output(self, files, monkeypatch):
        artifact = str(files["dir"] / "mini.tok")
        lexicon = str(MINI / "lexicon.tsv")
        assert cli.main(["train", "--algorithm", "ulm", "--guidance", "morphpretok-acontextual",
                         "--corpus", str(MINI / "corpus.txt"), "--lexicon", lexicon,
                         "--vocab-size", "400", "--seed-size", "3000", "--max-piece-length", "8",
                         "--output", artifact]) == 0
        calls = []
        word_encoder = artifacts.word_encoder

        def counting_word_encoder(*args, **kwargs):
            encode = word_encoder(*args, **kwargs)

            def counted(word, pos=None):
                calls.append(word)
                return encode(word, pos)

            return counted

        monkeypatch.setattr(artifacts, "word_encoder", counting_word_encoder)
        long_word = "portas" * 200  # not in the lexicon, so encoded as it is
        source = files["dir"] / "corpus-and-long.txt"
        source.write_text((MINI / "corpus.txt").read_text(encoding="utf-8")
                          + f"{long_word} amat {long_word}\n", encoding="utf-8")
        texts = {}
        limits = [(cli.ENCODE_MEMO_CAP, cli.ENCODE_MEMO_CHARS), (2, cli.ENCODE_MEMO_CHARS),
                  (cli.ENCODE_MEMO_CAP, len(long_word) - 1)]
        for cap, chars in limits:
            monkeypatch.setattr(cli, "ENCODE_MEMO_CAP", cap)
            monkeypatch.setattr(cli, "ENCODE_MEMO_CHARS", chars)
            calls.clear()
            out = files["dir"] / f"enc-{cap}-{chars}.txt"
            assert cli.main(["encode", "--artifact", artifact, "--input", str(source),
                             "--lexicon", lexicon, "--output", str(out)]) == 0
            texts[cap, chars] = out.read_text(encoding="utf-8")
            n_tokens = len(texts[cap, chars].split())
            distinct = len(set(calls))
            if cap == 2:  # only the first two words are kept
                assert len(calls) > distinct
            elif chars < len(long_word):  # the long word never fits, short ones do until full
                assert calls.count(long_word) == 2
                assert distinct < len(calls) < n_tokens
            else:
                assert len(calls) == distinct < n_tokens
        assert texts[limits[0]] == texts[limits[1]] == texts[limits[2]]

    def test_row_memo_cap_keeps_output(self, files, monkeypatch):
        artifact = str(files["dir"] / "base.tok")
        assert cli.main(train_args(files, artifact)) == 0
        parsed = []  # the word of each tagged row parsed, counted by its escape
        escape = corpus.escape_delimiter

        def counting_escape(text, delimiter):
            parsed.append(text)
            return escape(text, delimiter)

        monkeypatch.setattr(corpus, "escape_delimiter", counting_escape)
        rng = random.Random(0)
        syllables = ["por", "ta", "mus", "am", "at", "as"]
        rows = sorted({"".join(rng.choices(syllables, k=rng.randint(1, 4))) + "\t" + rng.choice(["VERB", "NOUN"])
                       for _ in range(300)})
        long_row = "portas" * 200 + "\tNOUN"
        sentences = [rng.choices(rows, k=rng.randint(1, 8)) for _ in range(400)]
        sentences[5:5] = [[long_row, "amat\tVERB", long_row]]
        data = "\n\n".join("\n".join(s) for s in sentences).encode("utf-8") + b"\n"
        n_rows = sum(map(len, sentences))
        distinct = len({row for s in sentences for row in s})
        assert distinct > 100
        long_size = len(long_row) + len(long_row.split("\t")[0])
        texts = {}
        limits = [(corpus.ENCODE_MEMO_CAP, corpus.ENCODE_MEMO_CHARS), (2, corpus.ENCODE_MEMO_CHARS),
                  (corpus.ENCODE_MEMO_CAP, long_size - 1)]
        for cap, chars in limits:
            for module in (corpus, cli):
                monkeypatch.setattr(module, "ENCODE_MEMO_CAP", cap)
                monkeypatch.setattr(module, "ENCODE_MEMO_CHARS", chars)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            parsed.clear()
            out = files["dir"] / f"enc-{cap}-{chars}.txt"
            assert cli.main(["encode", "--artifact", artifact, "--tagged", "--output", str(out)]) == 0
            texts[cap, chars] = out.read_text(encoding="utf-8")
            if cap == 2:  # only the first two rows are kept; every other row is parsed each time
                first_two = list(dict.fromkeys(row for s in sentences for row in s))[:2]
                assert len(parsed) == n_rows - sum(row in first_two for s in sentences for row in s) + 2
            elif chars < long_size:  # the long row never fits, short ones do until full
                assert parsed.count("portas" * 200) == 2
                assert distinct < len(parsed) < n_rows
            else:
                assert len(parsed) == distinct
        assert texts[limits[0]] == texts[limits[1]] == texts[limits[2]]
        assert len(texts[limits[0]].splitlines()) == len(sentences)

    def test_same_word_two_tags_encode_apart(self, tmp_path, capsys):
        artifact = str(tmp_path / "ctx.tok")
        lexicon = str(MINI / "lexicon.tsv")
        assert cli.main(["train", "--algorithm", "wordpiece", "--guidance", "morphpretok-contextual",
                         "--tagged-corpus", str(MINI / "tagged.tsv"), "--lexicon", lexicon,
                         "--vocab-size", "1200", "--output", artifact]) == 0
        tagged = tmp_path / "two.tsv"
        tagged.write_text("vulneramus\tVERB\n\nvulneramus\tNOUN\n\nvulneramus\tVERB\n",
                          encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["encode", "--artifact", artifact, "--input", str(tagged), "--tagged",
                         "--lexicon", lexicon]) == 0
        assert capsys.readouterr().out == "vulner ##amus\nvulneram ##us\nvulner ##amus\n"

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

    def test_lexicon_loaded_once_per_delimiter(self, files, two_artifacts, monkeypatch):
        # the two pretok artifacts' "@" share one load; the baseline reads no lexicon
        a, b = two_artifacts
        c = str(files["dir"] / "c.tok")
        assert cli.main(train_args(files, c, "ulm", "morphpretok-acontextual")) == 0
        loaded = []
        load_lexicon = cli.load_lexicon
        monkeypatch.setattr(cli, "load_lexicon", lambda *a: loaded.append(a) or load_lexicon(*a))
        assert cli.main(["evaluate", "--artifact", a, "--artifact", b, "--artifact", c,
                         "--gold", files["gold"], "--lexicon", files["lexicon"]]) == 0
        assert loaded == [(files["lexicon"], "@")]

    def test_missing_gold_is_input_error(self, files, two_artifacts):
        a, _ = two_artifacts
        code = cli.main(["evaluate", "--artifact", a, "--gold", str(files["dir"] / "no.tsv")])
        assert code == 2


class TestArtifactInputs:
    """`encode` and `evaluate` read --lexicon and --pos-mapping only for an
    artifact whose guidance presegments with them."""

    @pytest.fixture
    def bad(self, files):
        path = files["dir"] / "bad.tsv"
        path.write_text("x\ty\n", encoding="utf-8")  # neither a lexicon row nor a mapping row
        return str(path)

    def artifact(self, files, guidance):
        out = str(files["dir"] / f"{guidance}.tok")
        extra = ("--tagged-corpus", files["tagged"]) if guidance == "morphpretok-contextual" else ()
        assert cli.main(train_args(files, out, "wordpiece", guidance, *extra)) == 0
        return out

    @pytest.mark.parametrize("guidance, unread", [
        ("baseline", ("--lexicon", "--pos-mapping")),
        ("morphseed", ("--lexicon", "--pos-mapping")),
        ("morphpretok-acontextual", ("--pos-mapping",)),
    ])
    def test_encode_warns_and_does_not_open_unread_input(self, files, bad, capsys, guidance, unread):
        args = ["encode", "--artifact", self.artifact(files, guidance), "--input", files["corpus"]]
        if "--lexicon" not in unread:
            args += ["--lexicon", files["lexicon"]]
        capsys.readouterr()
        assert cli.main(args) == 0
        expected = capsys.readouterr().out
        assert cli.main(args + [arg for flag in unread for arg in (flag, bad)]) == 0
        out, err = capsys.readouterr()
        assert out == expected
        for flag in unread:
            assert f"warning: {flag} is ignored with guidance '{guidance}'" in err

    def test_evaluate_reads_input_only_for_artifacts_that_use_it(self, files, bad, capsys):
        # one --lexicon serves a mixed comparison, so evaluate does not warn
        args = ["evaluate", "--gold", files["gold"], "--format", "kv",
                "--artifact", self.artifact(files, "baseline")]
        capsys.readouterr()
        assert cli.main(args) == 0
        expected = capsys.readouterr().out
        assert cli.main(args + ["--lexicon", bad, "--pos-mapping", bad]) == 0
        assert capsys.readouterr() == (expected, "")

        args += ["--artifact", self.artifact(files, "morphpretok-acontextual"), "--lexicon", files["lexicon"]]
        capsys.readouterr()
        assert cli.main(args) == 0
        expected = capsys.readouterr().out
        assert cli.main(args + ["--pos-mapping", bad]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("command", ["encode", "evaluate"])
    @pytest.mark.parametrize("guidance, flag, message", [
        ("morphpretok-acontextual", "--lexicon", ": no usable lexicon rows (1 malformed)"),
        ("morphpretok-contextual", "--pos-mapping", ":1: unknown UD POS tag: 'x'"),
    ])
    def test_malformed_input_the_artifact_reads_is_input_error(self, files, bad, capsys, command, guidance,
                                                                flag, message):
        inputs = {"--lexicon": files["lexicon"], flag: bad}  # flag's file is the malformed one
        args = ["--artifact", self.artifact(files, guidance), *(arg for item in inputs.items() for arg in item)]
        args = ["encode", "--input", files["corpus"], *args] if command == "encode" \
            else ["evaluate", "--gold", files["gold"], *args]
        capsys.readouterr()
        assert cli.main(args) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err


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
