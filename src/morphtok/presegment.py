"""Rewrite corpus words as delimiter-joined morpheme sequences.

Acontextual mode takes the first lexicon analysis of every known word;
contextual mode disambiguates with the token's UD tag. Out-of-lexicon
words pass through unchanged in both modes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .corpus import DEFAULT_DELIMITER, Corpus, MorphLexicon, TaggedCorpus, split_on_delimiter
from .morphology import DisambiguationRule, acontextual_choice, disambiguate

ACONTEXTUAL = "acontextual"
CONTEXTUAL = "contextual"

# stats key for ambiguous words resolved by file order (acontextual mode only)
FIRST_ANALYSIS = "FirstAnalysis"


@dataclass
class PresegStats:
    """Per-word tallies; rule counts plus out_of_lexicon always sum to total_words."""

    total_words: int = 0
    out_of_lexicon: int = 0
    rule_counts: Counter = field(default_factory=Counter)
    analyses_seen: int = 0

    def to_kv(self) -> str:
        lines = [
            f"total_words {self.total_words}",
            f"out_of_lexicon {self.out_of_lexicon}",
            f"analyses_seen {self.analyses_seen}",
        ]
        for rule in sorted(self.rule_counts):
            lines.append(f"rule_{rule} {self.rule_counts[rule]}")
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        total = self.total_words or 1
        lines = [f"words          {self.total_words}"]
        lines.append(
            f"out of lexicon {self.out_of_lexicon} ({100 * self.out_of_lexicon / total:.2f}%)"
        )
        for rule in sorted(self.rule_counts):
            n = self.rule_counts[rule]
            lines.append(f"{rule:<14} {n} ({100 * n / total:.2f}%)")
        lines.append(f"analyses seen  {self.analyses_seen}")
        return "\n".join(lines) + "\n"


@dataclass
class PresegmentedCorpus(Corpus):
    """A corpus whose in-lexicon words carry morpheme boundaries."""

    delimiter: str = DEFAULT_DELIMITER
    stats: PresegStats = field(default_factory=PresegStats)


def _classify_acontextual(analyses) -> str:
    distinct = {a.morphemes for a in analyses}
    return DisambiguationRule.SINGLE_ANALYSIS.value if len(distinct) == 1 else FIRST_ANALYSIS


def choose_morphemes(
    word: str,
    analyses,
    pos: str | None = None,
    mapping: dict[str, tuple[str, ...]] | None = None,
) -> tuple[tuple[str, ...], DisambiguationRule | None]:
    """The morphemes of a word with lexicon analyses, and the rule that chose
    them: the contextual protocol with a POS tag (``(word,)`` when no
    analysis matches it), the first analysis, with rule None, without one."""
    if pos is not None:
        outcome = disambiguate(word, analyses, pos, mapping)
        return outcome.chosen or (word,), outcome.rule
    return acontextual_choice(analyses), None


def _presegment(word: str, lexicon: MorphLexicon, pos, mapping, delimiter: str):
    """``(presegmented word, analyses, rule)`` of one word, as
    :func:`choose_morphemes` picks it; a word without analyses comes back
    unchanged."""
    analyses = lexicon.analyses(word)
    if not analyses:
        return word, analyses, None
    morphemes, rule = choose_morphemes(word, analyses, pos, mapping)
    return delimiter.join(morphemes), analyses, rule


def _presegment_tokens(sentences, presegment_token, delimiter: str) -> PresegmentedCorpus:
    """Presegment every token of `sentences`, calling `presegment_token`
    (which returns a :func:`_presegment` result) once per distinct token;
    the stats still count every token."""
    counts = Counter(chain.from_iterable(sentences))
    chosen = {token: presegment_token(token) for token in counts}
    stats = PresegStats(total_words=sum(counts.values()))
    for token, n in counts.items():
        _, analyses, rule = chosen[token]
        if not analyses:
            stats.out_of_lexicon += n
            continue
        stats.analyses_seen += n * len(analyses)
        stats.rule_counts[rule.value if rule else _classify_acontextual(analyses)] += n
    out = [[chosen[token][0] for token in sentence] for sentence in sentences]
    return PresegmentedCorpus(out, delimiter=delimiter, stats=stats)


def presegment_acontextual(
    corpus: Corpus, lexicon: MorphLexicon, delimiter: str = DEFAULT_DELIMITER
) -> PresegmentedCorpus:
    """Replace every in-lexicon word with its first analysis, delimiter-joined."""
    return _presegment_tokens(
        corpus.sentences,
        lambda word: _presegment(word, lexicon, None, None, delimiter),
        delimiter,
    )


def presegment_contextual(
    tagged: TaggedCorpus,
    lexicon: MorphLexicon,
    mapping: dict[str, tuple[str, ...]] | None = None,
    delimiter: str = DEFAULT_DELIMITER,
) -> PresegmentedCorpus:
    """Replace in-lexicon words with their POS-disambiguated segmentation.

    Words whose analyses all mismatch the context tag stay unsegmented,
    per the disambiguation protocol.
    """
    return _presegment_tokens(
        tagged.sentences,
        lambda token: _presegment(token[0], lexicon, token[1], mapping, delimiter),
        delimiter,
    )


def presegment_word(
    word: str,
    lexicon: MorphLexicon,
    pos: str | None = None,
    mapping: dict[str, tuple[str, ...]] | None = None,
    delimiter: str = DEFAULT_DELIMITER,
) -> str:
    """Single-word presegmentation for encode-time use.

    With a POS tag the contextual protocol applies; without one the
    first analysis is taken. Unknown words come back unchanged.
    """
    return _presegment(word, lexicon, pos, mapping, delimiter)[0]


def strip_delimiters(preseg: PresegmentedCorpus) -> Corpus:
    """Remove morpheme boundaries, recovering the pre-presegmentation corpus."""
    delimiter = preseg.delimiter
    return Corpus(
        [
            ["".join(split_on_delimiter(w, delimiter)) for w in sentence]
            for sentence in preseg.sentences
        ]
    )
