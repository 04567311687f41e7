"""Rewrite corpus words as delimiter-joined morpheme sequences.

Acontextual mode takes the first lexicon analysis of every known word;
contextual mode disambiguates with the token's UD tag. Out-of-lexicon
words pass through unchanged in both modes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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

    mode: str = ACONTEXTUAL
    delimiter: str = DEFAULT_DELIMITER
    stats: PresegStats = field(default_factory=PresegStats)


def _classify_acontextual(analyses) -> str:
    distinct = {a.morphemes for a in analyses}
    return DisambiguationRule.SINGLE_ANALYSIS.value if len(distinct) == 1 else FIRST_ANALYSIS


def presegment_acontextual(
    corpus: Corpus, lexicon: MorphLexicon, delimiter: str = DEFAULT_DELIMITER
) -> PresegmentedCorpus:
    """Replace every in-lexicon word with its first analysis, delimiter-joined."""
    stats = PresegStats()
    sentences = []
    for sentence in corpus.sentences:
        out = []
        for word in sentence:
            stats.total_words += 1
            analyses = lexicon.analyses(word)
            if not analyses:
                stats.out_of_lexicon += 1
                out.append(word)
                continue
            stats.analyses_seen += len(analyses)
            stats.rule_counts[_classify_acontextual(analyses)] += 1
            out.append(delimiter.join(acontextual_choice(analyses)))
        sentences.append(out)
    return PresegmentedCorpus(sentences, mode=ACONTEXTUAL, delimiter=delimiter, stats=stats)


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
    stats = PresegStats()
    sentences = []
    for sentence in tagged.sentences:
        out = []
        for word, tag in sentence:
            stats.total_words += 1
            analyses = lexicon.analyses(word)
            if not analyses:
                stats.out_of_lexicon += 1
                out.append(word)
                continue
            stats.analyses_seen += len(analyses)
            outcome = disambiguate(word, analyses, tag, mapping)
            stats.rule_counts[outcome.rule.value] += 1
            out.append(delimiter.join(outcome.chosen) if outcome.chosen else word)
        sentences.append(out)
    return PresegmentedCorpus(sentences, mode=CONTEXTUAL, delimiter=delimiter, stats=stats)


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
    analyses = lexicon.analyses(word)
    if not analyses:
        return word
    return delimiter.join(choose_morphemes(word, analyses, pos, mapping))


def choose_morphemes(
    word: str,
    analyses,
    pos: str | None = None,
    mapping: dict[str, tuple[str, ...]] | None = None,
) -> tuple[str, ...]:
    """The morphemes of a word with lexicon analyses: the contextual
    protocol with a POS tag (``(word,)`` when no analysis matches it),
    the first analysis without one."""
    if pos is not None:
        return disambiguate(word, analyses, pos, mapping).chosen or (word,)
    return acontextual_choice(analyses)


def strip_delimiters(preseg: PresegmentedCorpus) -> Corpus:
    """Remove morpheme boundaries, recovering the pre-presegmentation corpus."""
    delimiter = preseg.delimiter
    return Corpus(
        [
            ["".join(split_on_delimiter(w, delimiter)) for w in sentence]
            for sentence in preseg.sentences
        ]
    )
