"""Per-layer metrics of the traced run.

Layers are morphtok's modules. Each recorded name is the place where the
caller resolves a public function, so the recorder sees every call the
CLI makes into that layer. ``_s`` metrics are self times: a layer's time
minus the time of traced calls nested inside it (for example
``presegment.word_s`` excludes the ``morphology`` disambiguation it calls).
"""

from __future__ import annotations

import os
import time

from tracer import Tracer

UNK = "[UNK]"
LOADERS = tuple(
    f"morphtok.cli.{name}"
    for name in ("load_corpus", "load_tagged_corpus", "load_lexicon", "load_suffixes", "load_gold_set")
)
PRESEG_CORPUS = ("morphtok.presegment.presegment_acontextual", "morphtok.presegment.presegment_contextual")
PRESEG_WORD = "morphtok.artifacts.presegment_word"
DISAMBIGUATE = "morphtok.presegment.disambiguate"
TRAIN = {"wordpiece": "morphtok.wordpiece.wp_train", "ulm": "morphtok.ulm.ulm_train"}
ENCODE = {"wordpiece": "morphtok.wordpiece.wp_encode", "ulm": "morphtok.ulm.ulm_encode"}
SAVE = "morphtok.artifacts.save_tokenizer"
LOAD = "morphtok.artifacts.load_tokenizer"
EVALUATE = "morphtok.evaluation.evaluate"
CLI_COMMANDS = ("train", "encode", "evaluate")
# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

# name -> (unit, better); the order is the order of BENCHMARK.json
METRICS = {
    "corpus.load_s": ("s", "lower"),
    "corpus.load_calls": ("count", "lower"),
    "corpus.bytes_read": ("B", "lower"),
    "morphology.disambiguate_calls": ("count", "lower"),
    "morphology.disambiguate_s": ("s", "lower"),
    "morphology.distinct_ratio": ("ratio", "lower"),
    "presegment.corpus_s": ("s", "lower"),
    "presegment.corpus_words": ("count", "lower"),
    "presegment.word_calls": ("count", "lower"),
    "presegment.word_s": ("s", "lower"),
    "presegment.oov_ratio": ("ratio", "lower"),
}
for _algo in ("wordpiece", "ulm"):
    METRICS.update({
        f"{_algo}.train_s": ("s", "lower"),
        f"{_algo}.vocab_entries": ("count", "higher"),
        f"{_algo}.fill_ratio": ("ratio", "higher"),
    })
    if _algo == "ulm":
        METRICS["ulm.em_step_s"] = ("s", "lower")
    METRICS.update({
        f"{_algo}.encode_s": ("s", "lower"),
        f"{_algo}.encode_calls": ("count", "lower"),
        f"{_algo}.encode_chars": ("count", "lower"),
        f"{_algo}.encode_unk_ratio": ("ratio", "lower"),
        f"{_algo}.encode_distinct_ratio": ("ratio", "lower"),
        f"{_algo}.encode_word_p50_us": ("us", "lower"),
        f"{_algo}.encode_word_tail_us": ("us", "lower"),
        f"{_algo}.encode_word_tail_pct": ("%", "higher"),
    })
METRICS.update({
    "artifacts.save_s": ("s", "lower"),
    "artifacts.load_s": ("s", "lower"),
    "artifacts.bytes": ("B", "lower"),
    "artifacts.entries": ("count", "higher"),
    "evaluation.evaluate_self_s": ("s", "lower"),
    "evaluation.words": ("count", "higher"),
    "cli.train_self_s": ("s", "lower"),
    "cli.encode_self_s": ("s", "lower"),
    "cli.evaluate_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class EncodeCounts:
    def __init__(self):
        self.chars = 0
        self.unk = 0
        self.distinct: set[str] = set()

    def observe(self, args, kwargs, result) -> None:
        word = args[0]
        self.chars += len(word)
        self.distinct.add(word)
        if result == [UNK]:
            self.unk += 1


class LayerProbe:
    """The recorders of one traced pass and the counts they gather."""

    def __init__(self):
        self.tracer = Tracer()
        self.bytes_read = 0
        self.preseg_corpus_words = 0
        self.preseg_oov = 0
        self.disambiguated: set[tuple[str, str]] = set()
        self.encode = {algo: EncodeCounts() for algo in ENCODE}
        self.trained = {algo: [0, 0] for algo in TRAIN}  # [entries, requested]
        self.ulm_trainings = []  # (training corpus, config, vocabulary)
        self.artifact_bytes = 0
        self.artifact_entries = 0
        self.evaluated_words = 0

    def install(self) -> None:
        t = self.tracer
        for name in LOADERS:
            t.install(name, observe=self._loaded)
        for name in PRESEG_CORPUS:
            t.install(name, observe=self._presegmented)
        t.install(PRESEG_WORD, per_word=True, observe=self._presegment_word)
        t.install(DISAMBIGUATE, per_word=True, observe=self._disambiguated)
        for algo in TRAIN:
            t.install(TRAIN[algo], observe=self._trained(algo))
            t.install(ENCODE[algo], per_word=True, observe=self.encode[algo].observe)
        t.install(SAVE, observe=self._saved)
        t.install(LOAD)
        t.install(EVALUATE, observe=self._evaluated)

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def command(self, name: str, fn, argv):
        """Run one CLI call inside a ``cli.<command>`` span."""
        return self.tracer.span(f"cli.{name}", fn, argv)

    # observers: run after the call, outside its timed interval

    def _loaded(self, args, kwargs, result) -> None:
        self.bytes_read += os.path.getsize(args[0])

    def _presegmented(self, args, kwargs, result) -> None:
        self.preseg_corpus_words += result.stats.total_words

    def _presegment_word(self, args, kwargs, result) -> None:
        word, lexicon = args[0], args[1]
        if word not in lexicon:
            self.preseg_oov += 1

    def _disambiguated(self, args, kwargs, result) -> None:
        self.disambiguated.add((args[0], args[2]))

    def _trained(self, algo):
        def observe(args, kwargs, result):
            corpus, cfg = args[0], args[1]
            self.trained[algo][0] += len(result)
            self.trained[algo][1] += cfg.vocab_size
            if algo == "ulm":
                self.ulm_trainings.append((corpus, cfg, result))

        return observe

    def _saved(self, args, kwargs, result) -> None:
        model, path = args[0], args[1]
        self.artifact_bytes += os.path.getsize(path)
        self.artifact_entries += len(model.vocab)

    def _evaluated(self, args, kwargs, result) -> None:
        self.evaluated_words += result.n_words

    def em_step_seconds(self, ulm_module) -> float:
        """One public em_step per ULM training, on the trained vocabulary
        over the training word counts: a forward-backward probe."""
        total = 0.0
        for corpus, cfg, vocab in self.ulm_trainings:
            counts = corpus.word_counts()
            start = time.perf_counter()
            ulm_module.em_step(counts, vocab.log_probs, cfg.morph_delimiter)
            total += time.perf_counter() - start
        self.ulm_trainings.clear()
        return total

    def metrics(self, em_step_s: float) -> dict[str, float]:
        """Every metric of METRICS but trace.overhead_ratio."""
        t = self.tracer
        calls = t.calls
        m = {
            "corpus.load_s": t.self_seconds(*LOADERS),
            "corpus.load_calls": t.span_count(*LOADERS),
            "corpus.bytes_read": self.bytes_read,
        }
        n_dis = calls[DISAMBIGUATE].calls
        m["morphology.disambiguate_calls"] = n_dis
        m["morphology.disambiguate_s"] = t.self_seconds(DISAMBIGUATE)
        m["morphology.distinct_ratio"] = _ratio(len(self.disambiguated), n_dis)
        n_pw = calls[PRESEG_WORD].calls
        m["presegment.corpus_s"] = t.self_seconds(*PRESEG_CORPUS)
        m["presegment.corpus_words"] = self.preseg_corpus_words
        m["presegment.word_calls"] = n_pw
        m["presegment.word_s"] = t.self_seconds(PRESEG_WORD)
        m["presegment.oov_ratio"] = _ratio(self.preseg_oov, n_pw)
        for algo in TRAIN:
            entries, requested = self.trained[algo]
            m[f"{algo}.train_s"] = t.self_seconds(TRAIN[algo])
            m[f"{algo}.vocab_entries"] = entries
            m[f"{algo}.fill_ratio"] = _ratio(entries, requested)
            if algo == "ulm":
                m["ulm.em_step_s"] = em_step_s
            stats = calls[ENCODE[algo]]
            n = stats.calls
            counts = self.encode[algo]
            tail_pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 0.0)
            m[f"{algo}.encode_s"] = t.self_seconds(ENCODE[algo])
            m[f"{algo}.encode_calls"] = n
            m[f"{algo}.encode_chars"] = counts.chars
            m[f"{algo}.encode_unk_ratio"] = _ratio(counts.unk, n)
            m[f"{algo}.encode_distinct_ratio"] = _ratio(len(counts.distinct), n)
            m[f"{algo}.encode_word_p50_us"] = stats.quantile_us(0.5)
            m[f"{algo}.encode_word_tail_us"] = stats.quantile_us(tail_pct / 100)
            m[f"{algo}.encode_word_tail_pct"] = tail_pct
        m["artifacts.save_s"] = t.self_seconds(SAVE)
        m["artifacts.load_s"] = t.self_seconds(LOAD)
        m["artifacts.bytes"] = self.artifact_bytes
        m["artifacts.entries"] = self.artifact_entries
        m["evaluation.evaluate_self_s"] = t.self_seconds(EVALUATE)
        m["evaluation.words"] = self.evaluated_words
        for command in CLI_COMMANDS:
            m[f"cli.{command}_self_s"] = t.self_seconds(f"cli.{command}")
        return m
