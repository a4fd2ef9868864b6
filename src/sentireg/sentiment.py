"""Valence-lexicon sentiment scoring and state-level aggregation.

A document's raw score sums the valences of matched tokens, with negators
and amplifiers in the two preceding tokens flipping or scaling each hit.
The raw sum is scaled by the square root of the stream length and clamped
to [-2, +2], so long rambling texts do not dominate.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .atomic import atomic_open
from .corpus import Document, TokenStream, _tsv_pairs, load_wordlist

__all__ = [
    "Lexicon",
    "SentimentScore",
    "SentimentClass",
    "StateSentimentSummary",
    "score",
    "classify",
    "to_binary",
    "aggregate_by_state",
    "load_lexicon",
    "write_scored_csv",
    "write_state_summary_csv",
]

SHIFTER_WINDOW = 2  # tokens before a valence hit that negators/amplifiers act from


class SentimentClass(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    NEUTRAL = "Neutral"


@dataclass(frozen=True)
class Lexicon:
    valences: dict[str, float]
    negators: frozenset[str]
    amplifiers: dict[str, float]

    def __post_init__(self):
        for term, v in self.valences.items():
            if not math.isfinite(v) or not -2.0 <= v <= 2.0:
                raise ValueError(f"valence for {term!r} out of [-2, +2]: {v}")
        overlap = (self.negators | set(self.amplifiers)) & set(self.valences)
        if overlap:
            raise ValueError(f"negators/amplifiers overlap valence terms: {sorted(overlap)}")
        for term, m in self.amplifiers.items():
            if not m > 1.0:
                raise ValueError(f"amplifier multiplier for {term!r} must exceed 1: {m}")


@dataclass(frozen=True)
class SentimentScore:
    value: float
    label: SentimentClass
    matched_count: int


@dataclass(frozen=True)
class StateSentimentSummary:
    state: str
    n_docs: int
    mean_score: float
    share_positive: float
    share_negative: float
    share_neutral: float


def classify(value: float) -> SentimentClass:
    """Sign-based three-way classification; exactly zero is neutral."""
    if math.isnan(value):
        raise ValueError("cannot classify NaN")
    if value > 0:
        return SentimentClass.POSITIVE
    if value < 0:
        return SentimentClass.NEGATIVE
    return SentimentClass.NEUTRAL


def to_binary(label: SentimentClass) -> int:
    """Positive -> 1; negative and neutral -> 0."""
    return 1 if label is SentimentClass.POSITIVE else 0


def score(stream: TokenStream | Sequence[str], lexicon: Lexicon) -> SentimentScore:
    """Score a normalized (lowercased) token stream, or the sequence of its
    normalized words, against the lexicon."""
    words = stream.normalized if isinstance(stream, TokenStream) else stream
    valences, negators, amplifiers = lexicon.valences, lexicon.negators, lexicon.amplifiers
    hits = [i for i, word in enumerate(words) if word in valences]
    raw = 0.0
    for i in hits:
        window = words[max(0, i - SHIFTER_WINDOW) : i]
        sign = -1.0 if sum(w in negators for w in window) % 2 else 1.0
        amp = 1.0
        for w in window:
            amp *= amplifiers.get(w, 1.0)
        raw += valences[words[i]] * sign * amp
    value = raw / math.sqrt(max(1, len(words)))
    value = max(-2.0, min(2.0, value))
    return SentimentScore(value=value, label=classify(value), matched_count=len(hits))


def aggregate_by_state(
    scored: list[tuple[Document, SentimentScore]],
) -> list[StateSentimentSummary]:
    """One summary per state present, sorted by state code."""
    by_state: dict[str, list[SentimentScore]] = {}
    for doc, s in scored:
        by_state.setdefault(doc.state, []).append(s)
    summaries = []
    for state in sorted(by_state):
        scores = by_state[state]
        n = len(scores)
        counts = {c: sum(1 for s in scores if s.label is c) for c in SentimentClass}
        summaries.append(
            StateSentimentSummary(
                state=state,
                n_docs=n,
                mean_score=sum(s.value for s in scores) / n,
                share_positive=counts[SentimentClass.POSITIVE] / n,
                share_negative=counts[SentimentClass.NEGATIVE] / n,
                share_neutral=counts[SentimentClass.NEUTRAL] / n,
            )
        )
    return summaries


def load_lexicon(
    valences_path: str | Path,
    negators_path: str | Path | None = None,
    amplifiers_path: str | Path | None = None,
) -> Lexicon:
    """Load a lexicon from TSVs: term<TAB>valence, one negator per line,
    and term<TAB>multiplier."""
    valences = {term: float(v) for term, v in _tsv_pairs(valences_path, "term<TAB>valence")}
    negators = set() if negators_path is None else {
        line.split("\t")[0] for line in load_wordlist(negators_path)}
    amplifiers = {} if amplifiers_path is None else {
        term: float(m) for term, m in _tsv_pairs(amplifiers_path, "term<TAB>multiplier")}
    return Lexicon(valences=valences, negators=frozenset(negators), amplifiers=amplifiers)


def write_scored_csv(
    path: str | Path, scored: list[tuple[Document, SentimentScore]]
) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["id", "state", "score", "class", "binary"])
        for doc, s in scored:
            w.writerow([doc.id, doc.state, f"{s.value:.12g}", s.label.value, to_binary(s.label)])


def write_state_summary_csv(
    path: str | Path, summaries: list[StateSentimentSummary]
) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["state", "n_docs", "mean_score", "share_positive",
                    "share_negative", "share_neutral"])
        for s in summaries:
            w.writerow([s.state, s.n_docs, f"{s.mean_score:.12g}",
                        f"{s.share_positive:.12g}", f"{s.share_negative:.12g}",
                        f"{s.share_neutral:.12g}"])
