"""Segmentation quality metrics against gold morpheme segmentations.

Conventions shared by every metric:

- continuation markers ("##" on non-initial pieces) are stripped before
  any comparison, so WordPiece and unigram output are scored alike
- exact match is macro-averaged per gold word; boundary precision,
  recall, and F1 are micro-pooled over all internal split positions
- fertility is total pieces divided by total words
- an unknown-token fallback counts as one unsegmented piece
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import CONTINUATION_PREFIX, UNK_TOKEN, GoldItem, GoldSegmentationSet, MorphLexicon
from .presegment import ACONTEXTUAL, CONTEXTUAL, choose_morphemes


def normalize_pieces(pieces) -> list[str]:
    """Strip continuation markers; piece content and order are untouched."""
    out = []
    for i, p in enumerate(pieces):
        if i > 0 and p.startswith(CONTINUATION_PREFIX):
            out.append(p[len(CONTINUATION_PREFIX) :])
        else:
            out.append(p)
    return out


def boundaries(pieces) -> set[int]:
    """Internal split positions of a normalized segmentation (cumulative lengths)."""
    cuts = set()
    pos = 0
    for p in pieces[:-1]:
        pos += len(p)
        cuts.add(pos)
    return cuts


def _normalized_pair(pred, gold):
    pred_norm, gold_norm = normalize_pieces(pred), normalize_pieces(gold)
    if "".join(pred_norm) != "".join(gold_norm):
        raise ValueError(
            f"segmentations cover different words: {''.join(pred_norm)!r} vs {''.join(gold_norm)!r}"
        )
    return pred_norm, gold_norm


def _word_tallies(pred_norm, gold_norm, piece_overlap: bool = False):
    """Integer tallies of one word, both segmentations already normalized:
    ``(exact-match hit, intersection, predicted count, gold count,
    MorphScore hit, MorphScore scored)``. The counts are of internal
    boundaries, or of pieces with `piece_overlap`."""
    pred_cuts = boundaries(pred_norm)
    if piece_overlap:
        inter = sum((Counter(pred_norm) & Counter(gold_norm)).values())
        n_pred, n_gold = len(pred_norm), len(gold_norm)
    else:
        gold_cuts = boundaries(gold_norm)
        inter, n_pred, n_gold = len(pred_cuts & gold_cuts), len(pred_cuts), len(gold_cuts)
    cut = designated_boundary(gold_norm)
    scored = cut is not None and len(pred_norm) > 1
    hit = scored and cut in pred_cuts
    return int(pred_norm == gold_norm), inter, n_pred, n_gold, int(hit), int(scored)


def exact_match(pred, gold) -> int:
    """1 if both segmentations are identical after marker stripping, else 0."""
    return _word_tallies(*_normalized_pair(pred, gold))[0]


def _prf(inter: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = inter / n_pred if n_pred else 0.0
    r = inter / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def boundary_prf(pred, gold) -> tuple[float, float, float]:
    """Precision/recall/F1 over internal boundary positions.

    An unsegmented prediction scores precision 1 only against an
    unsegmented gold; swapping the arguments swaps precision and recall.
    """
    return _prf(*_word_tallies(*_normalized_pair(pred, gold))[1:4])


def piece_overlap_prf(pred, gold) -> tuple[float, float, float]:
    """Multiset piece-overlap precision/recall/F1 (position-blind variant)."""
    return _prf(*_word_tallies(*_normalized_pair(pred, gold), piece_overlap=True)[1:4])


def fertility(segmentations) -> float:
    """Mean pieces per word over a collection of segmentations."""
    total_pieces = 0
    total_words = 0
    for seg in segmentations:
        total_pieces += len(seg)
        total_words += 1
    if total_words == 0:
        raise ValueError("fertility of an empty collection is undefined")
    return total_pieces / total_words


def morphscore(pred, gold_boundary: int):
    """1 if the designated gold boundary appears among the predicted
    boundaries, 0 if not, None when the prediction is a single piece
    (unsegmented predictions are excluded from this metric)."""
    pred_norm = normalize_pieces(pred)
    word = "".join(pred_norm)
    if not 1 <= gold_boundary <= len(word) - 1:
        raise ValueError(f"gold boundary {gold_boundary} out of range for word length {len(word)}")
    gold_norm = [word[:gold_boundary], word[gold_boundary:]]
    *_, hit, scored = _word_tallies(pred_norm, gold_norm)
    return hit if scored else None


def designated_boundary(gold_pieces) -> int | None:
    """The gold boundary MorphScore checks: the last internal split
    (the suffix juncture), or None for unsegmented gold."""
    if len(gold_pieces) < 2:
        return None
    return sum(len(p) for p in gold_pieces[:-1])


@dataclass
class EvalReport:
    name: str
    n_words: int
    exact_match: float
    boundary_precision: float
    boundary_recall: float
    boundary_f1: float
    fertility: float
    gold_fertility: float
    morphscore: float | None = None

    def to_kv(self) -> str:
        lines = [
            f"name {self.name}",
            f"n_words {self.n_words}",
            f"exact_match {self.exact_match!r}",
            f"boundary_precision {self.boundary_precision!r}",
            f"boundary_recall {self.boundary_recall!r}",
            f"boundary_f1 {self.boundary_f1!r}",
            f"fertility {self.fertility!r}",
            f"gold_fertility {self.gold_fertility!r}",
        ]
        if self.morphscore is not None:
            lines.append(f"morphscore {self.morphscore!r}")
        return "\n".join(lines) + "\n"


def evaluate(
    encoder,
    gold_set: GoldSegmentationSet,
    mode: str = ACONTEXTUAL,
    name: str = "tokenizer",
    piece_overlap: bool = False,
    unk_token: str = UNK_TOKEN,
) -> EvalReport:
    """Score ``encoder(word, pos) -> pieces`` against a gold set.

    Contextual mode requires a POS tag on every gold item and passes it
    to the encoder; acontextual mode passes None. UNK fallbacks count as
    unsegmented single pieces and are excluded from MorphScore.
    """
    if mode not in (ACONTEXTUAL, CONTEXTUAL):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if not gold_set.items:
        raise ValueError("cannot evaluate against an empty gold set")
    if mode == CONTEXTUAL:
        missing = [item.word for item in gold_set.items if item.pos is None]
        if missing:
            shown = ", ".join(missing[:5])
            raise ValueError(
                f"contextual evaluation requires POS tags; {len(missing)} items lack one ({shown})"
            )

    em_sum = inter_sum = pred_sum = gold_sum = ms_hits = ms_scored = 0
    pieces_total = 0
    gold_pieces_total = 0
    for item in gold_set.items:
        pred = encoder(item.word, item.pos if mode == CONTEXTUAL else None)
        gold_norm = normalize_pieces(item.pieces)
        if pred == [unk_token]:
            pred_norm = [item.word]
        else:
            pred_norm = normalize_pieces(pred)
            if "".join(pred_norm) != item.word:
                raise ValueError(
                    f"encoder output {pred!r} does not reconstruct word {item.word!r}"
                )
        em, inter, n_pred, n_gold, hit, scored = _word_tallies(pred_norm, gold_norm, piece_overlap)
        em_sum += em
        inter_sum += inter
        pred_sum += n_pred
        gold_sum += n_gold
        ms_hits += hit
        ms_scored += scored
        pieces_total += len(pred_norm)
        gold_pieces_total += len(gold_norm)

    n = len(gold_set.items)
    precision, recall, f1 = _prf(inter_sum, pred_sum, gold_sum)
    return EvalReport(
        name=name,
        n_words=n,
        exact_match=em_sum / n,
        boundary_precision=precision,
        boundary_recall=recall,
        boundary_f1=f1,
        fertility=pieces_total / n,
        gold_fertility=gold_pieces_total / n,
        morphscore=ms_hits / ms_scored if ms_scored else None,
    )


def build_gold_set(
    word_pos_pairs,
    lexicon: MorphLexicon,
    mapping: dict[str, tuple[str, ...]] | None = None,
    contextual: bool = True,
) -> GoldSegmentationSet:
    """Derive a gold set from the lexicon for unique (word, pos) pairs.

    Contextual gold applies the disambiguation protocol (words whose
    analyses all mismatch the tag become unsegmented gold); acontextual
    gold takes the first analysis. Out-of-lexicon words are skipped and
    recorded in ``rejected``.
    """
    gold = GoldSegmentationSet()
    seen = set()
    for word, pos in word_pos_pairs:
        key = (word, pos if contextual else None)
        if key in seen:
            continue
        seen.add(key)
        analyses = lexicon.analyses(word)
        if not analyses:
            gold.rejected.append(f"{word}: not in lexicon")
            continue
        if contextual and pos is None:
            raise ValueError(f"contextual gold requires a POS tag for {word!r}")
        tag = pos if contextual else None
        gold.items.append(GoldItem(word, tag, choose_morphemes(word, analyses, tag, mapping)))
    return gold


def _fmt_pct(x: float) -> str:
    return f"{100 * x:.2f}"


def format_comparison(reports, extended: bool = False) -> str:
    """Side-by-side table: EM and fertility, plus boundary metrics when extended.

    Exact match is macro over gold words; boundary metrics micro-pooled;
    EM and boundary figures are percentages.
    """
    if not reports:
        raise ValueError("no reports to format")
    if extended:
        cols = ["EM", "Recall", "Precision", "F1", "Fertility"]
        rows = [
            [
                r.name,
                _fmt_pct(r.exact_match),
                _fmt_pct(r.boundary_recall),
                _fmt_pct(r.boundary_precision),
                _fmt_pct(r.boundary_f1),
                f"{r.fertility:.4f}",
            ]
            for r in reports
        ]
    else:
        cols = ["EM", "Fert."]
        rows = [[r.name, _fmt_pct(r.exact_match), f"{r.fertility:.4f}"] for r in reports]
    header = ["tokenizer"] + cols
    widths = [max(len(header[c]), max(len(row[c]) for row in rows)) for c in range(len(header))]
    lines = [
        "# exact match macro over gold words; boundary metrics micro-pooled; markers stripped",
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(header)).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    gold_ferts = {f"{r.gold_fertility:.4f}" for r in reports}
    lines.append(f"# gold fertility {', '.join(sorted(gold_ferts))} over {reports[0].n_words} words")
    return "\n".join(lines) + "\n"
