"""The benchmark's workloads: their inputs, configurations and CLI commands."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

GUIDANCE = ("baseline", "morphseed", "morphpretok-acontextual", "morphpretok-contextual")
PRETOK = ("morphpretok-acontextual", "morphpretok-contextual")
LONG_WORD = 500  # characters; the threshold of the long_char_share property


@dataclass(frozen=True)
class Config:
    algorithm: str
    guidance: str

    @property
    def name(self) -> str:
        return f"{self.algorithm}-{self.guidance}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple
    train_args: tuple
    ulm_args: tuple
    golds: tuple  # (gold file, evaluate mode)
    encode_input: str  # the text non-contextual configs encode
    # input variants with recorded reference values; the seed picks one
    variants: int = 1
    generate: object = None  # (out dir, variant) -> None; None: bundled data
    bundled: str = ""

    def variant(self, seed: int) -> int:
        return seed % self.variants

    def inputs(self, root: Path, work: Path, seed: int) -> Path:
        """Write (or locate) the input files; returns their directory."""
        if self.generate is None:
            return root / self.bundled
        out = work / "inputs"
        out.mkdir(parents=True, exist_ok=True)
        self.generate(out, self.variant(seed))
        return out

    def commands(self, cfg: Config, inputs: Path, out: Path):
        """(kind, argv) of one configuration: train, encode, one evaluate per gold."""
        artifact = self.artifact(cfg, out)
        lexicon = ["--lexicon", str(inputs / "lexicon.tsv")] if cfg.guidance in PRETOK else []
        contextual = cfg.guidance == "morphpretok-contextual"

        train = ["train", "--algorithm", cfg.algorithm, "--guidance", cfg.guidance,
                 "--output", str(artifact), *self.train_args]
        if cfg.algorithm == "ulm":
            train += self.ulm_args
        if contextual:
            train += ["--tagged-corpus", str(inputs / "tagged.tsv")]
        else:
            train += ["--corpus", str(inputs / "corpus.txt")]
        if cfg.guidance == "morphseed":
            train += ["--suffixes", str(inputs / "suffixes.txt")]
        yield "train", train + lexicon

        encode = ["encode", "--artifact", str(artifact), "--output", str(self.encoded(cfg, out)),
                  "--input", str(inputs / self.encode_file(cfg))]
        if contextual:
            encode.append("--tagged")
        yield "encode", encode + lexicon

        for gold, mode in self.golds:
            yield "evaluate", ["evaluate", "--artifact", str(artifact), "--gold", str(inputs / gold),
                               "--mode", mode, "--format", "kv",
                               "--output", str(self.report(cfg, gold, out))] + lexicon

    def encode_file(self, cfg: Config) -> str:
        return "tagged.tsv" if cfg.guidance == "morphpretok-contextual" else self.encode_input

    @staticmethod
    def artifact(cfg: Config, out: Path) -> Path:
        return out / f"{cfg.name}.tok"

    @staticmethod
    def encoded(cfg: Config, out: Path) -> Path:
        return out / f"{cfg.name}.enc"

    @staticmethod
    def report(cfg: Config, gold: str, out: Path) -> Path:
        return out / f"{cfg.name}.{gold}.kv"


def _configs(algorithms, guidances) -> tuple:
    return tuple(Config(a, g) for a in algorithms for g in guidances)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="mini-latin",
            why="the paper's setting: bundled corpus, the 8 acceptance configs, the only "
                "contextual disambiguation; 351 types in 50k tokens, so encode repeats words",
            configs=_configs(("wordpiece", "ulm"), GUIDANCE),
            train_args=("--vocab-size", "1200", "--seed", "0"),
            ulm_args=("--seed-size", "8000", "--max-piece-length", "10"),
            golds=(("gold-acontextual.tsv", "acontextual"), ("gold-contextual.tsv", "contextual")),
            encode_input="corpus.txt",
            bundled="data/mini-latin",
        ),
        Workload(
            name="zipf-train",
            why="training dominates: 4k Zipf-weighted types, 200k tokens, vocab 3000; "
                "encode and evaluate only a 20k-token held-out slice",
            configs=_configs(("wordpiece", "ulm"), ("baseline", "morphpretok-acontextual")),
            train_args=("--vocab-size", "3000", "--seed", "0"),
            ulm_args=("--seed-size", "12000", "--max-piece-length", "10"),
            golds=(("gold-eval.tsv", "acontextual"),),
            encode_input="eval.txt",
            variants=2,
            generate=lambda out, variant: gen.zipf_train(
                out, seed=20261017, spelling=variant, n_types=4000, n_tokens=200_000,
                n_eval_tokens=20_000),
        ),
        Workload(
            name="long-tail-encode",
            why="encode of unseen words (distinct ratio ~1) defeats any per-type memo; "
                "8-40 character words plus 500-2000 character ones",
            configs=_configs(("wordpiece", "ulm"), ("baseline",)),
            train_args=("--vocab-size", "1000", "--seed", "0"),
            ulm_args=("--seed-size", "8000", "--max-piece-length", "10"),
            golds=(("gold-eval.tsv", "acontextual"),),
            encode_input="eval.txt",
            variants=2,
            generate=lambda out, variant: gen.long_tail_encode(
                out, seed=20261018, spelling=variant, n_types=1000, n_tokens=20_000,
                n_eval_tokens=25_000, n_gold=5000, long_lengths=(500, 1000, 2000)),
        ),
    )
}


def read_words(path: Path) -> list[str]:
    """Words of a corpus file, or of a tagged file's first column."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".tsv":
        return [line.split("\t", 1)[0] for line in text.split("\n") if line]
    return text.split()


def text_stats(words: list[str], lexicon: set[str]) -> dict:
    counts = Counter(words)
    lengths = sorted(len(w) for w in words)
    cuts = statistics.quantiles(lengths, n=100, method="inclusive")
    chars = sum(lengths)
    return {
        "tokens": len(words),
        "types": len(counts),
        "distinct_ratio": len(counts) / len(words),
        "length_p50": cuts[49],
        "length_p90": cuts[89],
        "length_p99": cuts[98],
        "length_max": lengths[-1],
        "long_char_share": sum(n for n in lengths if n >= LONG_WORD) / chars,
        "lexicon_coverage": sum(c for w, c in counts.items() if w in lexicon) / len(words),
    }


def properties(wl: Workload, inputs: Path) -> dict:
    """Word statistics of the training text and of each encoded text."""
    lexicon = set(read_words(inputs / "lexicon.tsv"))
    texts = {"train:corpus.txt": inputs / "corpus.txt"}
    for cfg in wl.configs:
        name = wl.encode_file(cfg)
        texts[f"encode:{name}"] = inputs / name
    return {label: text_stats(read_words(path), lexicon) for label, path in texts.items()}

