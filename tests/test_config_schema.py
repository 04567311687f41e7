"""The trainer config dataclasses are the one option schema.

The artifact header, ``load_tokenizer``, ``config_digest``, the ``train``
flags, the config-file keys and the manifest ``option_*`` lines are all
derived from ``WpTrainerConfig`` / ``UlmTrainerConfig``. These tests
freeze the bytes that derivation must reproduce and walk every field
through each consumer.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from morphtok import artifacts, cli
from morphtok.corpus import Corpus
from morphtok.ulm import UlmTokenizer, UlmTrainerConfig, ulm_train
from morphtok.wordpiece import WordPieceTokenizer, WpTrainerConfig, wp_train

GOLDEN = Path(__file__).resolve().parent / "golden"
MINI = Path(__file__).resolve().parents[1] / "data" / "mini-latin"

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
        # every field is an option: a flag, a config key and a header key; the
        # corpus and the suffix list are trainer input beside the config
        fields = dataclasses.fields(config_class)
        assert not any(f.metadata for f in fields)
        names = [f.name for f in fields]
        assert [name for name, _, _ in artifacts.config_fields(config_class)] == names
        assert set(names) <= cli.TRAIN_OPTIONS.keys()


@pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
def test_every_field_reaches_header_digest_and_cli(algorithm, tmp_path, monkeypatch):
    config_class = artifacts.CONFIG_CLASSES[algorithm]
    base_digest = artifacts.config_digest(model_with(config_class))
    monkeypatch.chdir(tmp_path)
    for field in dataclasses.fields(config_class):
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


# SHA-256 and line count of `encode` output, recorded before `encode` kept a
# memo of each word's output text: the bundled corpus through wp.tok, and the
# tagged corpus through a contextual artifact trained with CONTEXTUAL_RUN;
# "ulm" (the bundled corpus through ulm.tok) was recorded before the ULM
# lattice core was unified, and the two "unseen" entries (`unseen_text`) before
# both decoders walked a prefix trie
GOLDEN_ENCODINGS = {
    "sentence": ("wp.tok", "corpus", [],
                 "d375eb9a7f489c3d13b45e5b17367b079c157e754947f33705d7a469c9285c58", 6709),
    "word": ("wp.tok", "corpus", ["--granularity", "word"],
             "12441192800db10d79b8ad34e326d320ce1c151e1c388675559502dc11d0eedc", 50003),
    "strip-markers": ("wp.tok", "corpus", ["--strip-markers"],
                      "12731aeda5e6a2b34a60b0d720e0d5801a020e7f64ac3e755cf6bdbc2dbcc082", 6709),
    "ulm": ("ulm.tok", "corpus", [],
            "baeb65a46264ceb157baf67f6c4c421f8eb4467a3e961a6a0a9afd1c0fcdbcee", 6709),
    "wp-unseen": ("wp.tok", "unseen", [],
                  "b56ae1352a418aeb0049db399488eb603ef8e2932b4093250b3ad7da4f4cc117", 402),
    "ulm-unseen": ("ulm.tok", "unseen", [],
                   "47b27b787f05005c3ec645bbd575c97f77a50e2984b824a2d7e7d0562e247b78", 402),
}
CONTEXTUAL_RUN = ["--algorithm", "wordpiece", "--guidance", "morphpretok-contextual",
                  "--tagged-corpus", str(MINI / "tagged.tsv"), "--lexicon", str(MINI / "lexicon.tsv"),
                  "--vocab-size", "200"]
CONTEXTUAL_ENCODING = ("bcbc34c667def069c54599addf393e93c8cfc536bd57911f1e3cccd91fa0fd26", 6709)

# SHA-256 and line count of contextual `presegment` of the tagged corpus, its
# text and its --stats-output, recorded before the tagged-row reader parsed
# each distinct row once
CONTEXTUAL_PRESEGMENT = {
    "output": ("c48802ab9579b4e63b720a250e2d01274955889e7e7423e364bcadbcfe45f9f4", 6709),
    "stats": ("cb9beb9d9f28fb9561dbb114e4adf0190e6fa78e14265419cac032633aec6668", 6),
}

# SHA-256 and line count of `evaluate --format kv` for both golden artifacts,
# recorded before the report lines were derived from the report's fields
GOLDEN_KV = {
    "acontextual": ("gold-acontextual.tsv",
                    "9f76260934abd43be0795a4aa247b6ad18baa4e71030811556e9534d277b00fa", 19),
    "contextual": ("gold-contextual.tsv",
                   "b1e90a4b11eefa130bb28560af2aa01e99c33d42b54c896e0ea3861bacd9e0ee", 19),
}

# baseline artifacts small enough that decoding splits words: the bundled
# corpus encodes to 168,103 WordPiece and 77,473 ULM pieces, so longest-match
# and Viterbi path choice shows in the output; SHA-256 and line count of the
# bundled corpus and of `unseen_text`, recorded before the delimiter was split
# with one pattern
PATH_CHOICE_RUNS = {
    "wordpiece": (["--algorithm", "wordpiece", "--vocab-size", "300"], {
        "corpus": ("96c55af98773e643274718c9104b66ac80add3b91b434c3c0fdef43d6dcb81d4", 6709),
        "unseen": ("a0208e0c2d4e430e4bfe5528d93fef12917642a0a07f676451156902494457b1", 402),
    }),
    "ulm": (["--algorithm", "ulm", "--vocab-size", "300", "--seed-size", "8000", "--max-piece-length", "10"], {
        "corpus": ("538832c81284a4d359f9010b4b8ca4e2ccfdf0ed8118918c9bd0a93602a47efe", 6709),
        "unseen": ("aa1d80386f0b7a111376d4e4e2dcdb10779a7622944abf2fc57a1764e2ceaeaa", 402),
    }),
}

# SHA-256 prefixes of ULM artifacts trained with --exact-pruning on the bundled
# corpus (vocab 1200, seed size 8000, max piece length 10), recorded while exact
# pruning built a lattice per unit; tests/golden/ulm.tok is a 30-entry vocabulary
EXACT_PRUNING_SHA256 = {
    "baseline": "c09ed24ed8bbf125",
    "morphpretok-acontextual": "893a4a1f4a90ab02",
}


def exact_pruning_args(guidance: str, output: Path) -> list[str]:
    """The `train` command line of one EXACT_PRUNING_SHA256 run."""
    args = ["train", "--algorithm", "ulm", "--guidance", guidance, "--corpus", str(MINI / "corpus.txt"),
            "--vocab-size", "1200", "--seed-size", "8000", "--max-piece-length", "10", "--exact-pruning",
            "--output", str(output)]
    if guidance == "morphpretok-acontextual":
        args += ["--lexicon", str(MINI / "lexicon.tsv")]
    return args


def digest_and_lines(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def unseen_text(seed: int = 6) -> str:
    """Text whose words the golden artifacts mostly never saw: syllable
    words, words with a character outside every vocabulary ("ж"), tie-rich
    "amam..." repeats, a few known and "@"-bearing words, and two long words
    (1,961 and 2,201 characters), so decoding walks far past any entry."""
    rng = random.Random(seed)
    syllables = ["por", "ta", "mus", "am", "at", "as", "tu", "so", "ra", "um", "pa", "mo", "sa", "rum", "os"]
    lines = []
    for _ in range(400):
        words = []
        for _ in range(rng.randint(1, 12)):
            word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 6)))
            kind = rng.random()
            if kind < 0.05:
                cut = rng.randint(0, len(word))
                word = word[:cut] + "ж" + word[cut:]
            elif kind < 0.15:
                word = "am" * rng.randint(1, 40) + rng.choice(["", "a", "at", "us", "m"])
            elif kind < 0.2:
                word = rng.choice(["portas", "portat", "portamus", "amat", "amamus"])
            elif kind < 0.22:
                word = word + "@" + rng.choice(syllables)
            words.append(word)
        lines.append(" ".join(words))
    lines.append("".join(rng.choice(syllables) for _ in range(900)))
    lines.append("am" * 1100 + "a")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_ENCODINGS))
def test_golden_encode_output(name, tmp_path):
    artifact, source, flags, digest, lines = GOLDEN_ENCODINGS[name]
    text = MINI / "corpus.txt"
    if source == "unseen":
        text = tmp_path / "unseen.txt"
        text.write_text(unseen_text(), encoding="utf-8")
    out = tmp_path / "encoded.txt"
    assert cli.main(["encode", "--artifact", str(GOLDEN / artifact), "--input", str(text),
                     "--lexicon", str(MINI / "lexicon.tsv"), "--output", str(out), *flags]) == 0
    assert digest_and_lines(out) == (digest, lines)


def test_golden_contextual_encode_output(tmp_path):
    artifact = str(tmp_path / "ctx.tok")
    assert cli.main(["train", *CONTEXTUAL_RUN, "--output", artifact]) == 0
    out = tmp_path / "encoded.txt"
    assert cli.main(["encode", "--artifact", artifact, "--input", str(MINI / "tagged.tsv"), "--tagged",
                     "--lexicon", str(MINI / "lexicon.tsv"), "--output", str(out)]) == 0
    assert digest_and_lines(out) == CONTEXTUAL_ENCODING


def mixed_case_tagged() -> str:
    """The bundled tagged corpus with every other line's word upper-cased, so
    rows that differ only in case read as one pair under --lowercase."""
    lines = (MINI / "tagged.tsv").read_text(encoding="utf-8").split("\n")
    for i in range(1, len(lines), 2):
        word, tab, tag = lines[i].partition("\t")
        lines[i] = word.upper() + tab + tag
    return "\n".join(lines)


def test_golden_contextual_presegment_output(tmp_path):
    out, stats = tmp_path / "preseg.txt", tmp_path / "preseg.stats"
    assert cli.main(["presegment", "--mode", "contextual", "--tagged-corpus", str(MINI / "tagged.tsv"),
                     "--lexicon", str(MINI / "lexicon.tsv"), "--output", str(out),
                     "--stats-output", str(stats)]) == 0
    assert digest_and_lines(out) == CONTEXTUAL_PRESEGMENT["output"]
    assert digest_and_lines(stats) == CONTEXTUAL_PRESEGMENT["stats"]


def test_golden_lowercase_tagged_encode_output(tmp_path):
    artifact = str(tmp_path / "ctx.tok")
    assert cli.main(["train", *CONTEXTUAL_RUN, "--output", artifact]) == 0
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(mixed_case_tagged(), encoding="utf-8")
    out = tmp_path / "encoded.txt"
    assert cli.main(["encode", "--artifact", artifact, "--input", str(mixed), "--tagged", "--lowercase",
                     "--lexicon", str(MINI / "lexicon.tsv"), "--output", str(out)]) == 0
    # the bundled corpus is all lower case, so --lowercase gives back its encoding
    # (recorded so before the tagged-row reader parsed each distinct row once)
    assert digest_and_lines(out) == CONTEXTUAL_ENCODING


@pytest.mark.parametrize("algorithm", sorted(PATH_CHOICE_RUNS))
def test_golden_path_choice_encode_output(algorithm, tmp_path):
    flags, expected = PATH_CHOICE_RUNS[algorithm]
    artifact = str(tmp_path / "baseline.tok")
    assert cli.main(["train", *flags, "--guidance", "baseline", "--corpus", str(MINI / "corpus.txt"),
                     "--output", artifact]) == 0
    unseen = tmp_path / "unseen.txt"
    unseen.write_text(unseen_text(), encoding="utf-8")
    for source, text in (("corpus", MINI / "corpus.txt"), ("unseen", unseen)):
        out = tmp_path / f"{source}.out"
        assert cli.main(["encode", "--artifact", artifact, "--input", str(text), "--output", str(out)]) == 0
        assert digest_and_lines(out) == expected[source], source


@pytest.mark.parametrize("mode", sorted(GOLDEN_KV))
def test_golden_kv_report_bytes(mode, tmp_path):
    gold, digest, lines = GOLDEN_KV[mode]
    out = tmp_path / "report.kv"
    assert cli.main(["evaluate", "--artifact", str(GOLDEN / "wp.tok"), "--artifact", str(GOLDEN / "ulm.tok"),
                     "--gold", str(MINI / gold), "--mode", mode, "--lexicon", str(MINI / "lexicon.tsv"),
                     "--format", "kv", "--output", str(out)]) == 0
    assert digest_and_lines(out) == (digest, lines)


@pytest.mark.parametrize("guidance", sorted(EXACT_PRUNING_SHA256))
def test_exact_pruning_artifact_bytes(guidance, tmp_path):
    out = tmp_path / "exact.tok"
    assert cli.main(exact_pruning_args(guidance, out)) == 0
    assert digest_and_lines(out)[0].startswith(EXACT_PRUNING_SHA256[guidance])
