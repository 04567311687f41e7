"""POS-aware selection between competing morphological analyses.

A lexicon may list several analyses for one surface form, e.g. an
adjective reading ``adversar + i`` next to an infinitive ``advers + ari``.
Given the UD tag of the token in context, :func:`disambiguate` picks one
segmentation with a fixed protocol; :func:`acontextual_choice` ignores
context and takes the first listed analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# Analyzer-side POS inventory (the tag set morphological lexica use).
ANALYZER_TAGS = frozenset(
    {
        "Noun",
        "Adjective",
        "Verb",
        "Pronoun",
        "Invariable",
        "Preposition",
        "Conjunction",
        "Interjection",
        "Other",
    }
)

# UD tag -> analyzer tags, scanned in list order during disambiguation.
# Both the row order and the per-row order are part of the contract.
DEFAULT_POS_MAPPING: dict[str, tuple[str, ...]] = {
    "NOUN": ("Noun", "Adjective"),
    "PROPN": ("Noun", "Adjective"),
    "VERB": ("Verb",),
    "ADJ": ("Adjective", "Noun"),
    "PRON": ("Pronoun", "Noun", "Invariable"),
    "ADV": ("Invariable",),
    "ADP": ("Preposition", "Invariable"),
    "CCONJ": ("Conjunction", "Invariable"),
    "SCONJ": ("Conjunction", "Invariable"),
    "PART": ("Interjection", "Invariable"),
    "INTJ": ("Interjection", "Invariable"),
    "DET": ("Pronoun", "Adjective"),
    "X": ("Invariable", "Other"),
    "AUX": ("Verb",),
    "PUNCT": ("Invariable",),
    "NUM": ("Noun", "Adjective", "Invariable"),
}

UD_TAGS = frozenset(DEFAULT_POS_MAPPING)


@dataclass(frozen=True)
class MorphAnalysis:
    """One analyzer reading of a surface form: its morphemes and its POS."""

    morphemes: tuple[str, ...]
    pos: str

    def __post_init__(self):
        if not self.morphemes or any(not m for m in self.morphemes):
            raise ValueError("analysis morphemes must be non-empty strings")
        if self.pos not in ANALYZER_TAGS:
            raise ValueError(f"unknown analyzer POS tag: {self.pos!r}")

    @property
    def surface(self) -> str:
        return "".join(self.morphemes)


class DisambiguationRule(enum.Enum):
    SINGLE_ANALYSIS = "SingleAnalysis"
    POS_MATCHED = "PosMatched"
    NO_MATCH_UNSEGMENTED = "NoMatchUnsegmented"
    TIE_LONGER_SUFFIX = "TieLongerSuffix"
    TIE_MORE_SUBWORDS = "TieMoreSubwords"


@dataclass(frozen=True)
class DisambiguationOutcome:
    """Result of disambiguation: `chosen` is None only for NO_MATCH_UNSEGMENTED."""

    chosen: tuple[str, ...] | None
    rule: DisambiguationRule
    candidate_count: int


def map_pos(ud_tag: str, mapping: dict[str, tuple[str, ...]] | None = None) -> tuple[str, ...]:
    """Analyzer tags compatible with a UD tag, in scan order."""
    mapping = DEFAULT_POS_MAPPING if mapping is None else mapping
    try:
        return tuple(mapping[ud_tag])
    except KeyError:
        raise ValueError(f"unknown UD POS tag: {ud_tag!r}") from None


def acontextual_choice(analyses: list[MorphAnalysis]) -> tuple[str, ...]:
    """Context-free selection: the first listed analysis wins."""
    if not analyses:
        raise ValueError("no analyses to choose from")
    return analyses[0].morphemes


def _unique_segmentations(analyses) -> list[tuple[str, ...]]:
    seen = []
    for a in analyses:
        if a.morphemes not in seen:
            seen.append(a.morphemes)
    return seen


def disambiguate(
    word: str,
    analyses: list[MorphAnalysis],
    ud_tag: str,
    mapping: dict[str, tuple[str, ...]] | None = None,
) -> DisambiguationOutcome:
    """Pick one segmentation for `word` given its UD tag in context.

    Protocol, applied in order:

    1. If all analyses share a single segmentation, use it (the tag is
       not consulted at all).
    2. Scan the analyzer tags mapped from `ud_tag` in order; the first
       tag with at least one matching analysis fixes the candidate set.
       A unique segmentation in that set wins directly.
    3. No analyzer tag matches: leave the word unsegmented.

    Candidate sets with several segmentations under the same matched tag
    are resolved by subword count first (more subwords win when counts
    differ), then by the longer final morpheme, then by input order.
    """
    if not analyses:
        raise ValueError(f"no analyses for {word!r}")
    for a in analyses:
        if a.surface != word:
            raise ValueError(f"analysis {a.morphemes!r} does not concatenate to {word!r}")

    distinct = _unique_segmentations(analyses)
    if len(distinct) == 1:
        return DisambiguationOutcome(distinct[0], DisambiguationRule.SINGLE_ANALYSIS, 1)

    bucket: list[MorphAnalysis] = []
    for analyzer_tag in map_pos(ud_tag, mapping):
        bucket = [a for a in analyses if a.pos == analyzer_tag]
        if bucket:
            break
    if not bucket:
        return DisambiguationOutcome(
            None, DisambiguationRule.NO_MATCH_UNSEGMENTED, len(distinct)
        )

    segs = _unique_segmentations(bucket)
    if len(segs) == 1:
        return DisambiguationOutcome(segs[0], DisambiguationRule.POS_MATCHED, len(distinct))

    # more subwords first, then the longer final morpheme; max() keeps the
    # first maximum, which implements the input-order tie-break
    chosen = max(segs, key=lambda s: (len(s), len(s[-1])))
    same_count = all(len(s) == len(chosen) for s in segs)
    rule = DisambiguationRule.TIE_LONGER_SUFFIX if same_count else DisambiguationRule.TIE_MORE_SUBWORDS
    return DisambiguationOutcome(chosen, rule, len(distinct))
