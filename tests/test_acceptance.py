"""Acceptance suite: one test per shipped guarantee.

Each test covers one numbered guarantee and prints a single
"criterion N ... PASS" line with its measured detail (visible under
``pytest -s`` or ``-rA``; the ``-v`` test line carries the verdict
either way). The bundled corpus under data/mini-latin is generated by
tools/make_mini_corpus.py with a fixed seed, so its gold statistics are
known by construction and frozen here.
"""

import hashlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from morphtok import artifacts, cli, corpus, evaluation, presegment, ulm, wordpiece
from morphtok.morphology import DisambiguationRule, MorphAnalysis, disambiguate
from oracles import enumerate_segmentations, eval_oracle, viterbi_oracle, wp_encode_oracle

DATA = Path(__file__).resolve().parent.parent / "data" / "mini-latin"
GUIDANCES = ("baseline", "morphseed", "morphpretok-acontextual", "morphpretok-contextual")
CONFIGS = [(algo, g) for algo in ("wordpiece", "ulm") for g in GUIDANCES]

# Mini-corpus training knobs: small enough to finish in seconds, large
# enough that every morpheme fits in the vocabulary.
COMMON_ARGS = ["--vocab-size", "1200", "--seed", "0"]
ULM_ARGS = ["--seed-size", "8000", "--max-piece-length", "10"]

# Gold fertility of the bundled fixtures, known by construction.
GOLD_CTX_FERTILITY = 743 / 376
GOLD_ACTX_FERTILITY = 692 / 351


def train_args(algo, guidance, out_path):
    """The `train` command line of one acceptance configuration."""
    args = ["train", "--algorithm", algo, "--guidance", guidance, "--output", str(out_path)]
    args += COMMON_ARGS
    if algo == "ulm":
        args += ULM_ARGS
    if guidance == "morphpretok-contextual":
        args += ["--tagged-corpus", str(DATA / "tagged.tsv")]
    else:
        args += ["--corpus", str(DATA / "corpus.txt")]
    if guidance.startswith("morphpretok"):
        args += ["--lexicon", str(DATA / "lexicon.tsv")]
    if guidance == "morphseed":
        args += ["--suffixes", str(DATA / "suffixes.txt")]
    return args


def train_config(algo, guidance, out_path):
    assert cli.main(train_args(algo, guidance, out_path)) == 0, f"training failed for {algo}/{guidance}"


@pytest.fixture(scope="session")
def mini():
    return {
        "corpus": corpus.load_corpus(DATA / "corpus.txt"),
        "tagged": corpus.load_tagged_corpus(DATA / "tagged.tsv"),
        "lexicon": corpus.load_lexicon(DATA / "lexicon.tsv"),
        "suffixes": corpus.load_suffixes(DATA / "suffixes.txt"),
        "gold_ctx": corpus.load_gold_set(DATA / "gold-contextual.tsv"),
        "gold_actx": corpus.load_gold_set(DATA / "gold-acontextual.tsv"),
    }


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """Every configuration trained twice, timed; shared across criteria."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    t0 = time.monotonic()
    for algo, guidance in CONFIGS:
        pair = []
        for run in ("a", "b"):
            out = root / f"{algo}-{guidance}-{run}.tok"
            train_config(algo, guidance, out)
            pair.append(out)
        paths[(algo, guidance)] = tuple(pair)
    return {"paths": paths, "seconds": time.monotonic() - t0}


def load_first(trained, algo, guidance):
    return artifacts.load_tokenizer(trained["paths"][(algo, guidance)][0])


def test_criterion_1_decode_oracle_equivalence():
    """Both decoders match brute-force enumeration on randomized instances."""
    rng = random.Random(101)
    t0 = time.monotonic()

    for i in range(1000):
        alphabet = "ab" if i % 2 else "abc"
        pieces = set()
        for _ in range(rng.randint(2, 50)):
            k = rng.randint(1, 3)
            pieces.add("".join(rng.choice(alphabet) for _ in range(k)))
        log_probs = {p: rng.uniform(-12.0, -0.05) for p in pieces}
        protected = frozenset(p for p in pieces if rng.random() < 0.2)
        boost = rng.choice([0.0, 0.5, 1.0]) if i % 3 == 0 else 0.0
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))

        vocab = ulm.UlmVocabulary(log_probs=log_probs, protected=protected, boost=boost)
        expected = viterbi_oracle(word, log_probs, protected=protected, boost=boost)
        got = ulm.ulm_encode(word, vocab)
        assert got == (expected if expected is not None else [corpus.UNK_TOKEN]), (word, i)

    for i in range(1000):
        alphabet = "ab" if i % 2 else "abc"
        entries = {"[UNK]"}
        for ch in alphabet:
            if rng.random() < 0.9:
                entries.add(ch)
            if rng.random() < 0.9:
                entries.add("##" + ch)
        for _ in range(rng.randint(0, 40)):
            k = rng.randint(1, 4)
            sub = "".join(rng.choice(alphabet) for _ in range(k))
            if rng.random() < 0.5:
                entries.add(sub)
            if rng.random() < 0.5:
                entries.add("##" + sub)
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        delimiter = None
        if i % 4 == 0 and len(word) >= 2:
            cut = rng.randint(1, len(word) - 1)
            word = word[:cut] + "@" + word[cut:]
            delimiter = "@"

        vocab = wordpiece.WpVocabulary(entries=entries)
        got = wordpiece.wp_encode(word, vocab, morph_delimiter=delimiter)
        assert got == wp_encode_oracle(word, entries, delimiter=delimiter), (word, i)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"criterion 1 (decode oracle equivalence): PASS, 1000+1000 instances, "
          f"0 mismatches, {elapsed:.2f}s")


# SHA-256 prefixes of the first-run artifacts, recorded before the ULM
# lattice core was unified; a refactor must leave every byte in place
ARTIFACT_SHA256 = {
    ("wordpiece", "baseline"): "1d3ec63a6fb0",
    ("wordpiece", "morphseed"): "04afff1a4f09",
    ("wordpiece", "morphpretok-acontextual"): "35033b0365b7",
    ("wordpiece", "morphpretok-contextual"): "38b625b7f4ae",
    ("ulm", "baseline"): "4ab000084639",
    ("ulm", "morphseed"): "f39b85a69f99",
    ("ulm", "morphpretok-acontextual"): "982b3b1b7533",
    ("ulm", "morphpretok-contextual"): "d783d0ae5c1e",
}


def test_criterion_2_trainer_determinism(trained):
    """Two runs per configuration produce byte-identical artifacts, and
    the first run's bytes are the recorded ones.

    Training is single-threaded by construction, so the result cannot
    depend on a worker count; the repeated-run check still guards
    against ordering or hash-iteration leaks.
    """
    for (algo, guidance), (a, b) in sorted(trained["paths"].items()):
        first = a.read_bytes()
        assert first == b.read_bytes(), f"{algo}/{guidance} not deterministic"
        digest = hashlib.sha256(first).hexdigest()
        assert digest.startswith(ARTIFACT_SHA256[(algo, guidance)]), f"{algo}/{guidance} bytes moved"
    assert trained["seconds"] < 300.0, f"training took {trained['seconds']:.0f}s"
    print(f"criterion 2 (trainer determinism): PASS, 8/8 configurations byte-identical "
          f"and equal to the recorded digests, "
          f"16 trainings in {trained['seconds']:.1f}s")


def segment_spans(segments):
    """(start, end) offsets of each segment in the concatenated word."""
    spans = []
    pos = 0
    for seg in segments:
        spans.append((pos, pos + len(seg)))
        pos += len(seg)
    return spans


def test_criterion_3_morpheme_boundary_guarantee(trained, mini):
    """Re-encoding presegmented words keeps every delimiter boundary."""
    preseg_by_guidance = {
        "morphpretok-acontextual": presegment.presegment_acontextual(
            mini["corpus"], mini["lexicon"]),
        "morphpretok-contextual": presegment.presegment_contextual(
            mini["tagged"], mini["lexicon"]),
    }
    words_checked = 0
    atoms_checked = 0
    for algo in ("wordpiece", "ulm"):
        for guidance, preseg_corpus in preseg_by_guidance.items():
            model = load_first(trained, algo, guidance)
            delimited = sorted(
                {w for sent in preseg_corpus.sentences for w in sent if "@" in w})
            assert delimited, "presegmentation produced no delimited words"
            for word in delimited:
                segments = corpus.split_on_delimiter(word)
                cuts = {end for _, end in segment_spans(segments)[:-1]}
                norm = evaluation.normalize_pieces(model.encode_word(word))
                assert "".join(norm) == "".join(segments), (algo, guidance, word)
                bounds = evaluation.boundaries(norm)
                assert cuts <= bounds, (algo, guidance, word, norm)
                words_checked += 1

                if algo != "wordpiece":
                    continue
                # Delimiter-initial morphemes present in the vocabulary
                # must come out as a single piece.
                pieces = model.encode_word(word)
                piece_spans = segment_spans(evaluation.normalize_pieces(pieces))
                for (start, end), seg in zip(segment_spans(segments)[1:], segments[1:]):
                    if "##" + seg not in model.vocab.entries:
                        continue
                    covering = [pieces[k] for k, (s, e) in enumerate(piece_spans)
                                if start <= s and e <= end]
                    assert covering == ["##" + seg], (word, seg, pieces)
                    atoms_checked += 1
    assert atoms_checked > 0, "no vocabulary morpheme was exercised"
    print(f"criterion 3 (morpheme-boundary guarantee): PASS, {words_checked} "
          f"presegmented words re-encoded, {atoms_checked} atomic emissions, 0 violations")


def test_criterion_4_seeding_guarantees(trained, mini):
    """Seeded suffixes enter (WP) and survive (ULM); boost flips a near-tie."""
    suffixes = mini["suffixes"]
    assert suffixes

    wp_model = load_first(trained, "wordpiece", "morphseed")
    missing = [s for s in suffixes if "##" + s not in wp_model.vocab.entries]
    assert not missing, f"suffixes absent from WordPiece vocabulary: {missing}"

    ulm_model = load_first(trained, "ulm", "morphseed")
    dropped = [s for s in suffixes if s not in ulm_model.vocab.log_probs]
    assert not dropped, f"suffixes pruned from ULM vocabulary: {dropped}"
    unprotected = [s for s in suffixes if s not in ulm_model.vocab.protected]
    assert not unprotected, f"suffixes not marked protected: {unprotected}"

    # Constructed near-tie: the one-piece path beats the two-piece path
    # by less than 0.5 in log space, so a 0.5 boost on the protected
    # suffix flips the decode and a 0.0 boost does not.
    log_probs = {"cano": -2.0, "can": -1.2, "o": -1.1, "c": -6.0, "a": -6.0, "n": -6.0}
    paths = {seq: sum(log_probs[p] for p in seq)
             for seq in map(tuple, enumerate_segmentations("cano", log_probs))}
    ranked = sorted(paths, key=paths.get, reverse=True)
    assert ranked[0] == ("cano",) and ranked[1] == ("can", "o")
    gap = paths[ranked[0]] - paths[ranked[1]]
    assert 0.0 < gap < 0.5, f"constructed gap {gap} outside (0, 0.5)"

    flat = ulm.UlmVocabulary(log_probs=log_probs, protected=frozenset({"o"}), boost=0.0)
    boosted = ulm.UlmVocabulary(log_probs=log_probs, protected=frozenset({"o"}), boost=0.5)
    assert ulm.ulm_encode("cano", flat) == ["cano"]
    assert ulm.ulm_encode("cano", boosted) == ["can", "o"]
    print(f"criterion 4 (seeding guarantees): PASS, {len(suffixes)}/{len(suffixes)} "
          f"suffixes seeded and retained, boost flip at gap {gap:.2f}")


def test_criterion_5_disambiguation_protocol():
    """Worked examples and the three selection-protocol rules."""
    A = MorphAnalysis

    # Same piece count, same POS bucket: the longer suffix wins, so the
    # infinitive reading beats the adjective-style split.
    tie = disambiguate(
        "adversari",
        [A(("adversar", "i"), "Verb"), A(("advers", "ari"), "Verb")],
        "VERB",
    )
    assert tie.chosen == ("advers", "ari")
    assert tie.rule is DisambiguationRule.TIE_LONGER_SUFFIX

    # Same surface through the bundled lexicon's analyses: the POS tag
    # routes between the adjective and verb readings.
    lexed = [A(("adversar", "i"), "Adjective"), A(("advers", "ari"), "Verb")]
    assert disambiguate("adversari", lexed, "VERB").chosen == ("advers", "ari")
    assert disambiguate("adversari", lexed, "ADJ").chosen == ("adversar", "i")

    # Different piece counts: more pieces win.
    more = disambiguate(
        "inordinato",
        [A(("inordin", "ato"), "Verb"), A(("inordin", "at", "o"), "Verb")],
        "VERB",
    )
    assert more.chosen == ("inordin", "at", "o")
    assert more.rule is DisambiguationRule.TIE_MORE_SUBWORDS

    # Rule: a unique analysis is used regardless of the predicted tag.
    single = disambiguate("rosa", [A(("ros", "a"), "Noun")], "VERB")
    assert single.chosen == ("ros", "a")
    assert single.rule is DisambiguationRule.SINGLE_ANALYSIS

    # Rule: several analyses but none matching the tag leaves the word
    # unsegmented.
    nomatch = disambiguate(
        "porta",
        [A(("port", "a"), "Noun"), A(("porta",), "Adjective")],
        "ADP",
    )
    assert nomatch.chosen is None
    assert nomatch.rule is DisambiguationRule.NO_MATCH_UNSEGMENTED

    # Rule: the tag's analyzer categories are scanned in a fixed order,
    # so NOUN prefers the noun reading and ADJ the adjective one even
    # though both buckets are populated.
    both = [A(("proba", "ta"), "Adjective"), A(("prob", "ata"), "Noun")]
    assert disambiguate("probata", both, "NOUN").chosen == ("prob", "ata")
    assert disambiguate("probata", both, "ADJ").chosen == ("proba", "ta")

    print("criterion 5 (disambiguation protocol): PASS, both worked examples "
          "and all three protocol rules")


def test_criterion_6_metric_oracles(mini):
    """Evaluation metrics match a brute-force rational implementation."""
    rng = random.Random(606)
    words = set()
    while len(words) < 200:
        words.add("".join(rng.choice("abcdef") for _ in range(rng.randint(2, 10))))

    def random_split(word, max_pieces):
        cuts = sorted(rng.sample(range(1, len(word)),
                                 rng.randint(0, min(max_pieces - 1, len(word) - 1))))
        edges = [0, *cuts, len(word)]
        return tuple(word[a:b] for a, b in zip(edges, edges[1:]))

    gold = corpus.GoldSegmentationSet()
    preds = {}
    pairs = []
    for word in sorted(words):
        gold_pieces = random_split(word, 4)
        pred_pieces = gold_pieces if rng.random() < 0.3 else random_split(word, 5)
        gold.items.append(corpus.GoldItem(word, None, gold_pieces))
        preds[word] = list(pred_pieces)
        pairs.append((list(pred_pieces), list(gold_pieces)))

    report = evaluation.evaluate(lambda w, pos: preds[w], gold, name="fixture")
    oracle = eval_oracle(pairs)

    assert report.exact_match == float(oracle["exact_match"])
    assert report.boundary_precision == float(oracle["precision"])
    assert report.boundary_recall == float(oracle["recall"])
    assert abs(report.boundary_f1 - float(oracle["f1"])) <= 1e-12
    assert report.fertility == float(oracle["fertility"])
    assert report.gold_fertility == float(oracle["gold_fertility"])
    if oracle["morphscore"] is None:
        assert report.morphscore is None
    else:
        assert report.morphscore == float(oracle["morphscore"])

    gold_ctx = mini["gold_ctx"]
    by_pair = {(i.word, i.pos): list(i.pieces) for i in gold_ctx.items}
    ctx_report = evaluation.evaluate(
        lambda w, pos: by_pair[(w, pos)], gold_ctx, mode="contextual")
    assert ctx_report.gold_fertility == GOLD_CTX_FERTILITY
    assert Fraction(743, 376) == Fraction(
        sum(len(i.pieces) for i in gold_ctx.items), len(gold_ctx.items))

    gold_actx = mini["gold_actx"]
    by_word = {i.word: list(i.pieces) for i in gold_actx.items}
    actx_report = evaluation.evaluate(lambda w, pos: by_word[w], gold_actx)
    assert actx_report.gold_fertility == GOLD_ACTX_FERTILITY

    print("criterion 6 (metric oracles): PASS, 200-word fixture exact, bundled "
          f"gold fertility {GOLD_CTX_FERTILITY:.6f} / {GOLD_ACTX_FERTILITY:.6f}")


def test_criterion_7_guidance_trend(trained, mini):
    """Contextual-gold EM orders the four guidance modes as published."""
    t0 = time.monotonic()
    em = {}
    lines = []
    for algo, guidance in CONFIGS:
        model = load_first(trained, algo, guidance)
        encoder = artifacts.word_encoder(
            model, lexicon=mini["lexicon"], on_warning=lambda msg: None)
        report = evaluation.evaluate(
            encoder, mini["gold_ctx"], mode="contextual", name=f"{algo}-{guidance}")
        em[(algo, guidance)] = report.exact_match
        lines.append(f"  {algo:10s} {guidance:26s} EM {report.exact_match:.4f}")
    for algo in ("wordpiece", "ulm"):
        ctx = em[(algo, "morphpretok-contextual")]
        actx = em[(algo, "morphpretok-acontextual")]
        seeded = em[(algo, "morphseed")]
        base = em[(algo, "baseline")]
        assert ctx >= actx, f"{algo}: contextual {ctx} < acontextual {actx}"
        assert actx > seeded, f"{algo}: acontextual {actx} <= morphseed {seeded}"
        assert seeded >= base, f"{algo}: morphseed {seeded} < baseline {base}"
    elapsed = time.monotonic() - t0
    assert trained["seconds"] + elapsed < 600.0
    print("criterion 7 (guidance trend): PASS, contextual >= acontextual > "
          "morphseed >= baseline for both algorithms")
    for line in lines:
        print(line)


def test_criterion_7_strict_order_at_vocab_300(tmp_path, mini):
    """Below the corpus's 351 word types, where guidance can act, contextual-gold
    EM orders the four guidance modes strictly, for both algorithms."""
    em = {}
    for algo, guidance in CONFIGS:
        out = tmp_path / f"{algo}-{guidance}.tok"
        # the later flag overrides COMMON_ARGS' acceptance budget
        assert cli.main(train_args(algo, guidance, out) + ["--vocab-size", "300"]) == 0
        encoder = artifacts.word_encoder(
            artifacts.load_tokenizer(out), lexicon=mini["lexicon"], on_warning=lambda msg: None)
        em[algo, guidance] = evaluation.evaluate(encoder, mini["gold_ctx"], mode="contextual").exact_match
    for algo in ("wordpiece", "ulm"):
        order = [em[algo, guidance] for guidance in GUIDANCES]
        assert all(a < b for a, b in zip(order, order[1:])), f"{algo}: EM by {GUIDANCES}: {order}"
    print("criterion 7 (strict order at vocab 300): PASS, contextual > acontextual > "
          "morphseed > baseline for both algorithms")
    for (algo, guidance), value in em.items():
        print(f"  {algo:10s} {guidance:26s} EM {value:.4f}")


def test_criterion_8_em_log_likelihood_monotone():
    """EM never decreases the corpus log-likelihood (within 1e-9)."""
    rng = random.Random(808)
    for trial in range(50):
        word_freqs = {}
        for _ in range(rng.randint(3, 8)):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            word_freqs[w] = word_freqs.get(w, 0) + rng.randint(1, 5)
        pieces = {"a", "b"}
        for w in word_freqs:
            for i in range(len(w)):
                for j in range(i + 1, min(i + 4, len(w)) + 1):
                    pieces.add(w[i:j])
        raw = {p: rng.uniform(0.05, 1.0) for p in pieces}
        total = sum(raw.values())
        log_probs = {p: math.log(v / total) for p, v in raw.items()}

        lls = []
        for _ in range(4):
            log_probs, ll, unk = ulm.em_step(word_freqs, log_probs)
            assert not unk
            lls.append(ll)
        for before, after in zip(lls, lls[1:]):
            assert after >= before - 1e-9, f"trial {trial}: {lls}"
    print("criterion 8 (EM monotonicity): PASS, 50 corpora, 4 steps each, "
          "log-likelihood non-decreasing within 1e-9")


def test_criterion_9_round_trips(trained, mini):
    """Presegment/strip, save/load/encode, and encode/strip identities."""
    actx = presegment.presegment_acontextual(mini["corpus"], mini["lexicon"])
    assert presegment.strip_delimiters(actx).sentences == mini["corpus"].sentences
    ctx = presegment.presegment_contextual(mini["tagged"], mini["lexicon"])
    plain = corpus.Corpus([[w for w, _ in sent] for sent in mini["tagged"].sentences])
    assert presegment.strip_delimiters(ctx).sentences == plain.sentences

    types = sorted(mini["corpus"].word_counts())
    rng = random.Random(909)
    sample = [rng.choice(types) for _ in range(1000)]

    resaved_checked = 0
    for (algo, guidance), (path_a, _) in sorted(trained["paths"].items()):
        first = artifacts.load_tokenizer(path_a)
        copy_path = path_a.with_suffix(".copy.tok")
        artifacts.save_tokenizer(first, copy_path)
        second = artifacts.load_tokenizer(copy_path)
        for word in sample:
            assert first.encode_word(word) == second.encode_word(word), (algo, guidance, word)
            resaved_checked += 1

        encoder = artifacts.word_encoder(
            first, lexicon=mini["lexicon"], on_warning=lambda msg: None)
        unk = corpus.UNK_TOKEN
        for word in types:
            pieces = encoder(word)
            if pieces == [unk]:
                continue
            rebuilt = "".join(evaluation.normalize_pieces(pieces))
            assert rebuilt == word, (algo, guidance, word, pieces)

    print(f"criterion 9 (round-trips): PASS, presegment/strip identity on "
          f"{len(mini['corpus'].sentences)} sentences, {resaved_checked} save/load "
          f"encodes identical, encode/strip identity on {len(types)} types x 8 artifacts")
