"""Valence-lexicon sentiment scoring and state-level aggregation.

A document's raw score sums the valences of matched tokens, with negators
and amplifiers in the two preceding tokens flipping or scaling each hit.
The raw sum is scaled by the square root of the stream length and clamped
to [-2, +2], so long rambling texts do not dominate.

`score` scores one document; `score_batch` scores many as columns, in the
same arithmetic order, so its values equal a `score` loop's bit for bit. The
pipeline scores the corpus with it, writing scored.csv chunk by chunk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .corpus import Document, TokenStream, _tsv_pairs, load_wordlist, write_rows

__all__ = [
    "Lexicon",
    "SentimentScore",
    "SentimentClass",
    "StateSentimentSummary",
    "ScoredChunk",
    "SCORED_COLUMNS",
    "score",
    "score_batch",
    "classify",
    "to_binary",
    "aggregate_by_state",
    "aggregate_scores",
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
            if not 1.0 < m < math.inf:
                raise ValueError(f"amplifier multiplier for {term!r} must be finite, over 1: {m}")


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


def score_batch(
    docs: Sequence[Sequence[str]], lexicon: Lexicon
) -> tuple[np.ndarray, np.ndarray]:
    """Score many documents' normalized words at once: each one's value and
    matched count, equal to `score`'s bit for bit.

    One pass over the flattened words looks up each word's lexicon entry.
    A hit's shifter window is the entries of the two words before it, with
    code 0 (no entry) before its document's start, so no window crosses
    into the previous document. `np.bincount` sums each document's hits in
    token order, as `score` does.
    """
    terms = list(dict.fromkeys([*lexicon.valences, *lexicon.negators, *lexicon.amplifiers]))
    code = {term: j for j, term in enumerate(terms, start=1)}
    valence = np.array([0.0] + [lexicon.valences.get(t, 0.0) for t in terms])
    is_hit = np.array([False] + [t in lexicon.valences for t in terms])
    is_negator = np.array([False] + [t in lexicon.negators for t in terms])
    amplifier = np.array([1.0] + [lexicon.amplifiers.get(t, 1.0) for t in terms])

    k = len(docs)
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=k)
    n = int(lengths.sum())
    codes = np.fromiter(map(code.get, chain.from_iterable(docs), repeat(0)),
                        dtype=np.intp, count=n)
    hits = np.flatnonzero(is_hit[codes])
    doc = np.repeat(np.arange(k), lengths)[hits]
    pos = hits - (np.cumsum(lengths) - lengths)[doc]
    prev1 = np.where(pos >= 1, codes[np.maximum(hits - 1, 0)], 0)
    prev2 = np.where(pos >= 2, codes[np.maximum(hits - 2, 0)], 0)
    sign = np.where(is_negator[prev1] ^ is_negator[prev2], -1.0, 1.0)
    hit_value = valence[codes[hits]] * sign * (amplifier[prev2] * amplifier[prev1])
    raw = np.bincount(doc, weights=hit_value, minlength=k)
    value = np.clip(raw / np.sqrt(np.maximum(lengths, 1)), -2.0, 2.0)
    return value, np.bincount(doc, minlength=k)


def aggregate_scores(states: Sequence[str], values: np.ndarray) -> list[StateSentimentSummary]:
    """One summary per state present, sorted by state code, from each
    document's state and score value."""
    if len(states) == 0:
        return []
    names, index = np.unique(np.asarray(states, dtype=str), return_inverse=True)
    k = len(names)
    n = np.bincount(index, minlength=k)
    # bincount adds each state's values in document order, like a running sum.
    mean = np.bincount(index, weights=values, minlength=k) / n
    shares = [np.bincount(index[mask], minlength=k) / n
              for mask in (values > 0, values < 0, values == 0)]
    return [StateSentimentSummary(state, *row) for state, *row
            in zip(names.tolist(), n.tolist(), mean.tolist(), *(s.tolist() for s in shares))]


def aggregate_by_state(
    scored: list[tuple[Document, SentimentScore]],
) -> list[StateSentimentSummary]:
    """One summary per state present, sorted by state code."""
    return aggregate_scores([doc.state for doc, _ in scored],
                            np.array([s.value for _, s in scored], dtype=float))


def load_lexicon(
    valences_path: str | Path,
    negators_path: str | Path | None = None,
    amplifiers_path: str | Path | None = None,
) -> Lexicon:
    """Load a lexicon from TSVs: term<TAB>valence, one negator per line,
    and term<TAB>multiplier."""
    valences = dict(_tsv_pairs(valences_path, "term<TAB>valence", float))
    negators = set() if negators_path is None else {
        line.split("\t")[0] for line in load_wordlist(negators_path)}
    amplifiers = {} if amplifiers_path is None else dict(
        _tsv_pairs(amplifiers_path, "term<TAB>multiplier", float))
    return Lexicon(valences=valences, negators=frozenset(negators), amplifiers=amplifiers)


SCORED_COLUMNS = ("id", "state", "text_width", "score", "class", "binary")


class ScoredChunk(NamedTuple):
    """Consecutive scored documents as columns."""
    id: Sequence[str]
    state: Sequence[str]
    text_width: Sequence[int]
    value: np.ndarray


# The sign of a score -> its class and binary outcome.
_CLASS_OF_SIGN = {1: (SentimentClass.POSITIVE.value, "1"),
                  -1: (SentimentClass.NEGATIVE.value, "0"),
                  0: (SentimentClass.NEUTRAL.value, "0")}


def write_scored_csv(path: str | Path, chunks: Iterable[ScoredChunk]) -> None:
    """One line per document, chunk by chunk, in SCORED_COLUMNS order."""
    with atomic_open(path) as fh:
        write_rows(fh, [SCORED_COLUMNS])
        for c in chunks:
            signs = np.sign(c.value).astype(int).tolist()
            write_rows(fh, ((doc_id, state, str(width), f"{value:.12g}", *_CLASS_OF_SIGN[sign])
                            for doc_id, state, width, value, sign
                            in zip(c.id, c.state, c.text_width, c.value.tolist(), signs)))


def write_state_summary_csv(
    path: str | Path, summaries: list[StateSentimentSummary]
) -> None:
    with atomic_open(path) as fh:
        write_rows(fh, [("state", "n_docs", "mean_score", "share_positive",
                         "share_negative", "share_neutral")])
        write_rows(fh, ((s.state, str(s.n_docs), f"{s.mean_score:.12g}",
                         f"{s.share_positive:.12g}", f"{s.share_negative:.12g}",
                         f"{s.share_neutral:.12g}") for s in summaries))
