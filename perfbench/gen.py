"""Seeded synthetic inputs for the zipf-train and long-tail-encode workloads.

Every word is a stem built from consonant-vowel syllables plus one of the
mini-latin suffixes, so its segmentation is known by construction. A slice
of stems is deliberately ambiguous in the way ``data/mini-latin`` is: the
surface ``stem+atis`` (or ``stem+amus``) reads as a verb ``stem@atis`` or as
a noun ``stem+at@is``, with the noun analysis listed first in the lexicon.

Two seeds drive a corpus. The *structure* seed fixes the word shapes, the
Zipf ranks and the sentences. The *spelling* seed draws a permutation of
the consonants and of the vowels that is applied to every file. Different
spellings are different inputs with the same type count, length
distribution and frequency profile, so timings taken on them compare.

The generator writes, into a directory it is given:

- ``corpus.txt`` and ``tagged.tsv``: the training text, raw and POS-tagged;
- ``lexicon.tsv``, ``suffixes.txt``: every generated surface and its analyses;
- ``gold-acontextual.tsv``, ``gold-contextual.tsv``: gold for the training types;
- ``eval.txt``, ``gold-eval.tsv``: the text the workload encodes and the
  gold for (a sample of) its ordinary words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfglmnprstv"
VOWELS = "aeiou"

# analyzer POS -> (UD tag, suffixes); the suffix classes of data/mini-latin
PARADIGMS = {
    "Verb": ("VERB", ("o", "as", "at", "amus", "atis", "ant", "abam", "abat", "are", "avit")),
    "Noun": ("NOUN", ("a", "ae", "am", "arum", "is")),
    "Adjective": ("ADJ", ("us", "a", "um", "i", "ae")),
}
# verb suffix, noun-stem extension, noun suffix
AMBIGUOUS_PATTERNS = (("atis", "at", "is"), ("amus", "am", "us"))
AMBIGUOUS_SHARE = 0.05
VERB_READING_SHARE = 0.7  # UD tag VERB vs NOUN on an ambiguous surface


@dataclass
class Entry:
    """One surface form: lexicon analyses in order and gold per UD tag."""

    analyses: list  # [(analyzer POS, morphemes)]
    gold_by_tag: dict  # {UD tag: morphemes}


def _syllables(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n))


def _stem(rng: random.Random, length: int) -> str:
    """A stem of exactly `length` characters ending in a consonant."""
    return _syllables(rng, (length + 1) // 2)[: length - 1] + rng.choice(CONSONANTS)


class Lexicon:
    """The generated surfaces; a stem whose paradigm collides is skipped."""

    def __init__(self):
        self.entries: dict[str, Entry] = {}
        self.stems: set[str] = set()

    def add_paradigm(self, rng: random.Random, stem: str, limit: int | None = None) -> list[str]:
        """Add up to `limit` surfaces of one stem; returns them, or [] on a collision."""
        if stem in self.stems:
            return []
        if rng.random() < AMBIGUOUS_SHARE:
            verb_suf, noun_ext, noun_suf = rng.choice(AMBIGUOUS_PATTERNS)
            verb, noun = (stem, verb_suf), (stem + noun_ext, noun_suf)
            new = {stem + verb_suf: Entry([("Noun", noun), ("Verb", verb)],
                                          {"VERB": verb, "NOUN": noun})}
        else:
            pos = rng.choice(sorted(PARADIGMS))
            ud, suffixes = PARADIGMS[pos]
            new = {stem + s: Entry([(pos, (stem, s))], {ud: (stem, s)}) for s in suffixes}
        surfaces = list(new)
        if limit is not None and limit < len(surfaces):
            surfaces = rng.sample(surfaces, limit)
        if any(s in self.entries for s in surfaces):
            return []
        self.stems.add(stem)
        for s in surfaces:
            self.entries[s] = new[s]
        return surfaces

    def grow(self, rng: random.Random, n_types: int, min_len: int = 2, max_len: int = 7) -> list[str]:
        """Add stems until `n_types` new surfaces exist; returns them."""
        surfaces: list[str] = []
        while len(surfaces) < n_types:
            stem = _stem(rng, rng.randint(min_len, max_len))
            surfaces += self.add_paradigm(rng, stem, limit=n_types - len(surfaces))
        return surfaces

    def tag(self, rng: random.Random, word: str) -> str:
        tags = self.entries[word].gold_by_tag
        if len(tags) == 1:
            return next(iter(tags))
        return "VERB" if rng.random() < VERB_READING_SHARE else "NOUN"


def _zipf_cum_weights(n: int, exponent: float = 1.0, offset: float = 2.7) -> list[float]:
    cum, total = [], 0.0
    for rank in range(n):
        total += 1.0 / (rank + offset) ** exponent
        cum.append(total)
    return cum


def _sentences(rng: random.Random, tokens: list) -> list[list]:
    out, i = [], 0
    while i < len(tokens):
        n = rng.randint(4, 11)
        out.append(tokens[i : i + n])
        i += n
    return out


def _zipf_text(rng, lexicon: Lexicon, ranked: list[str], n_tokens: int) -> list[list]:
    """Sentences of (word, UD tag) drawn with Zipf weights over `ranked`."""
    words = rng.choices(ranked, cum_weights=_zipf_cum_weights(len(ranked)), k=n_tokens)
    return _sentences(rng, [(w, lexicon.tag(rng, w)) for w in words])


class Writer:
    """Writes the input files of one corpus under one spelling."""

    def __init__(self, out: Path, lexicon: Lexicon, spelling: int):
        rng = random.Random(spelling)
        table = {}
        for alphabet in (CONSONANTS, VOWELS):
            letters = list(alphabet)
            rng.shuffle(letters)
            table.update(zip(alphabet, letters))
        self.table = str.maketrans(table)
        self.out = out
        self.lexicon = lexicon

    def spell(self, text: str) -> str:
        return text.translate(self.table)

    def text(self, name: str, sentences) -> None:
        with open(self.out / name, "w", encoding="utf-8", newline="\n") as fh:
            for sentence in sentences:
                fh.write(self.spell(" ".join(w for w, _ in sentence)) + "\n")

    def tagged(self, name: str, sentences) -> None:
        with open(self.out / name, "w", encoding="utf-8", newline="\n") as fh:
            for i, sentence in enumerate(sentences):
                if i:
                    fh.write("\n")
                for word, tag in sentence:
                    fh.write(f"{self.spell(word)}\t{tag}\n")

    def gold(self, name: str, pairs) -> None:
        """Gold rows for (word, UD tag) pairs; a None tag writes the first analysis."""
        rows = []
        for word, tag in pairs:
            entry = self.lexicon.entries[word]
            seg = entry.gold_by_tag[tag] if tag else entry.analyses[0][1]
            rows.append(f"{self.spell(word)}\t{tag or '-'}\t{self.spell('@'.join(seg))}\n")
        (self.out / name).write_text("".join(sorted(rows)), encoding="utf-8")

    def lexicon_files(self) -> None:
        rows = []
        for word, entry in self.lexicon.entries.items():
            for idx, (pos, seg) in enumerate(entry.analyses, start=1):
                rows.append((self.spell(word), idx, f"{pos}\t{self.spell('@'.join(seg))}"))
        rows.sort()
        (self.out / "lexicon.tsv").write_text(
            "".join(f"{w}\t{i}\t{rest}\n" for w, i, rest in rows), encoding="utf-8")
        suffixes = {s for _, sufs in PARADIGMS.values() for s in sufs}
        suffixes |= {p[2] for p in AMBIGUOUS_PATTERNS}
        (self.out / "suffixes.txt").write_text(
            "".join(sorted(self.spell(s) + "\n" for s in suffixes)), encoding="utf-8")

    def training(self, train) -> None:
        self.text("corpus.txt", train)
        self.tagged("tagged.tsv", train)
        self.lexicon_files()
        pairs = {(w, t) for sentence in train for w, t in sentence}
        self.gold("gold-contextual.tsv", pairs)
        self.gold("gold-acontextual.tsv", {(w, None) for w, _ in pairs})


def zipf_train(out: Path, seed: int, spelling: int, n_types: int, n_tokens: int,
               n_eval_tokens: int) -> None:
    """A Zipf-weighted training corpus over `n_types` surfaces, plus held-out
    sentences from the same distribution as the encode and evaluate text."""
    rng = random.Random(seed)
    lexicon = Lexicon()
    ranked = lexicon.grow(rng, n_types)
    rng.shuffle(ranked)
    train = _zipf_text(rng, lexicon, ranked, n_tokens)
    held_out = _zipf_text(rng, lexicon, ranked, n_eval_tokens)
    writer = Writer(out, lexicon, spelling)
    writer.training(train)
    writer.text("eval.txt", held_out)
    writer.gold("gold-eval.tsv", {(w, None) for s in held_out for w, _ in s})


def long_tail_encode(out: Path, seed: int, spelling: int, n_types: int, n_tokens: int,
                     n_eval_tokens: int, n_gold: int, long_lengths) -> None:
    """A small training corpus, then `n_eval_tokens` of text in which every
    ordinary word is a new surface of 8 to 40 characters, with one word of
    each length in `long_lengths` spread through it. Gold covers `n_gold`
    of the ordinary words."""
    rng = random.Random(seed)
    lexicon = Lexicon()
    ranked = lexicon.grow(rng, n_types)
    rng.shuffle(ranked)
    train = _zipf_text(rng, lexicon, ranked, n_tokens)

    unseen: list[str] = []
    while len(unseen) < n_eval_tokens:
        # stem of 7..36 characters plus a 1..4 character suffix; the squared
        # draw makes short words the bulk
        length = 7 + int(30 * rng.random() ** 2)
        unseen += lexicon.add_paradigm(rng, _stem(rng, length), limit=1)
    tokens = [(w, lexicon.tag(rng, w)) for w in unseen]
    step = len(tokens) // (len(long_lengths) + 1)
    for k, length in enumerate(long_lengths, start=1):
        tokens.insert(k * step, (_syllables(rng, length // 2), "X"))

    writer = Writer(out, lexicon, spelling)
    writer.training(train)
    writer.text("eval.txt", _sentences(rng, tokens))
    writer.gold("gold-eval.tsv", {(w, None) for w in rng.sample(unseen, n_gold)})
