"""The trainer config dataclasses are the one option schema.

The artifact header, ``load_tokenizer``, ``config_digest``, the ``train``
flags, the config-file keys and the manifest ``option_*`` lines are all
derived from ``WpTrainerConfig`` / ``UlmTrainerConfig``. These tests
freeze the bytes that derivation must reproduce and walk every field
through each consumer.
"""

import dataclasses
from pathlib import Path

import pytest

from morphtok import artifacts, cli
from morphtok.corpus import Corpus
from morphtok.ulm import UlmTokenizer, UlmTrainerConfig, ulm_train
from morphtok.wordpiece import WordPieceTokenizer, WpTrainerConfig, wp_train

GOLDEN = Path(__file__).resolve().parent / "golden"

# inputs of the golden artifacts; changing a byte here invalidates them
CORPUS = "portas portat portamus\nportat amat amamus\nportas amat portamus\n"
LEXICON = (
    "portas\t1\tVerb\tport@as\n"
    "portat\t1\tVerb\tport@at\n"
    "portamus\t1\tVerb\tport@amus\n"
    "amat\t1\tVerb\tam@at\n"
    "amamus\t1\tVerb\tam@amus\n"
)
SUFFIXES = "as\nat\namus\n"

GOLDEN_RUNS = {
    "wp.tok": ["--algorithm", "wordpiece", "--guidance", "morphpretok-acontextual",
               "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--vocab-size", "40"],
    "ulm.tok": ["--algorithm", "ulm", "--guidance", "morphseed", "--corpus", "corpus.txt",
                "--suffixes", "suffixes.txt", "--vocab-size", "30", "--seed-size", "100",
                "--max-piece-length", "6", "--exact-pruning"],
}

# the train options and their defaults, as the CLI has always offered them
TRAIN_DEFAULTS = {
    "vocab_size": 30000,
    "min_pair_frequency": 2,
    "shrinking_factor": 0.75,
    "seed_size": 1_000_000,
    "max_piece_length": 16,
    "em_iterations_per_round": 2,
    "seed_weight": 0.5,
    "morph_delimiter": "@",
    "sample_fraction": 1.0,
    "seed": 0,
    "lowercase": False,
    "exact_pruning": False,
}


def write_inputs(directory: Path, delimiter: str = "@") -> None:
    (directory / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    (directory / "lexicon.tsv").write_text(LEXICON.replace("@", delimiter), encoding="utf-8")
    (directory / "suffixes.txt").write_text(SUFFIXES, encoding="utf-8")


def option_fields(config_class):
    return [f for f in dataclasses.fields(config_class) if f.metadata.get("option", True)]


def other_value(field):
    """A value of the field's type that differs from its default."""
    default = field.default
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2
    assert default is None, field.name  # str | None
    return "#"


def model_with(config_class, **changes):
    corpus = Corpus([["portas", "portat", "amat"]] * 3)
    if config_class is WpTrainerConfig:
        cfg = WpTrainerConfig(vocab_size=30)
        vocab = wp_train(corpus, cfg)
        return WordPieceTokenizer(vocab, dataclasses.replace(cfg, **changes), "baseline")
    cfg = UlmTrainerConfig(vocab_size=14, seed_size=60, max_piece_length=6)
    vocab = ulm_train(corpus, cfg)
    return UlmTokenizer(vocab, dataclasses.replace(cfg, **changes), "baseline")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_artifact_and_manifest_bytes(name, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", *GOLDEN_RUNS[name], "--output", name]) == 0
    for produced in (name, f"{name}.manifest"):
        assert (tmp_path / produced).read_bytes() == (GOLDEN / produced).read_bytes(), produced


def test_train_options_unchanged():
    assert {key: default for key, (_, default) in cli.TRAIN_OPTIONS.items()} == TRAIN_DEFAULTS
    for config_class in (WpTrainerConfig, UlmTrainerConfig):
        options = option_fields(config_class)
        others = [f.name for f in dataclasses.fields(config_class) if f not in options]
        assert others == ["seed_suffixes"]  # read from the --suffixes file


@pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
def test_every_field_reaches_header_digest_and_cli(algorithm, tmp_path, monkeypatch):
    config_class = artifacts.CONFIG_CLASSES[algorithm]
    base_digest = artifacts.config_digest(model_with(config_class))
    monkeypatch.chdir(tmp_path)
    for field in option_fields(config_class):
        value = other_value(field)
        model = model_with(config_class, **{field.name: value})

        path = tmp_path / f"{field.name}.tok"
        artifacts.save_tokenizer(model, path)
        assert getattr(artifacts.load_tokenizer(path).config, field.name) == value, field.name
        assert artifacts.config_digest(model) != base_digest, field.name

        # the CLI stores the delimiter only when training on presegmented text
        delimiter = value if field.name == "morph_delimiter" else "@"
        write_inputs(tmp_path, delimiter)
        text = ("1" if value else "0") if isinstance(value, bool) else str(value)
        flag = ["--" + field.name.replace("_", "-")]
        if not isinstance(value, bool):
            flag.append(text)
        (tmp_path / "train.cfg").write_text(f"{field.name} {text}\n", encoding="utf-8")
        common = ["train", "--algorithm", algorithm, "--guidance", "morphpretok-acontextual",
                  "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--output", "cli.tok"]
        for source in (flag, ["--config", "train.cfg"]):
            where = (field.name, source)
            assert cli.main(common + source) == 0, where
            assert getattr(artifacts.load_tokenizer("cli.tok").config, field.name) == value, where
            manifest = Path("cli.tok.manifest").read_text(encoding="utf-8")
            assert f"option_{field.name} {value}\n" in manifest, where
