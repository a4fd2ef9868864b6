"""Valence-lexicon sentiment scoring and state-level aggregation.

A document's raw score sums the valences of matched tokens, with negators
and amplifiers in the two preceding tokens flipping or scaling each hit.
The raw sum is scaled by the square root of the stream length and clamped
to [-2, +2], so long rambling texts do not dominate.

`score` scores one document; `score_batch` scores many as columns, in the
same arithmetic order, so its values equal a `score` loop's bit for bit.
Both it and `score_blocks` hand the words' lexicon codes to `_score_codes`.
`score_blocks` scores a plain tokens.csv in byte blocks: one numpy pass per
block checks that csv.reader and str.split would see the same fields and
words (ASCII, no quote, control bytes only at line ends, three commas a line,
a non-empty id and state with no space, a width of 1 to 12 digits with no
leading zero, tokens joined by single spaces), one split gives every word,
and each scored.csv line is gathered from its input line's bytes and the
text of its distinct value. Any other file is left to the pipeline's
per-record path, which scores `read_columns` chunks with `score_batch`.
Either path adds each chunk to a `StateTotals`, the per-state running sums
of the state summary.
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
from .corpus import (TOKENS_COLUMNS, Document, TokenStream, _NotPlain, _tsv_pairs, load_wordlist,
                     plain_blocks, write_rows)

__all__ = [
    "Lexicon",
    "SentimentScore",
    "SentimentClass",
    "StateSentimentSummary",
    "ScoredChunk",
    "SCORED_COLUMNS",
    "TOKENS_COLUMNS",
    "StateTotals",
    "score",
    "score_batch",
    "score_blocks",
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


class _CodedLexicon(NamedTuple):
    """A lexicon over term codes: `code[term]` numbers each term from 1, and
    code 0, a word with no entry, has valence 0 and multiplier 1."""
    code: dict[str, int]
    valence: np.ndarray
    is_hit: np.ndarray
    is_negator: np.ndarray
    amplifier: np.ndarray


def _code_lexicon(lexicon: Lexicon) -> _CodedLexicon:
    terms = list(dict.fromkeys([*lexicon.valences, *lexicon.negators, *lexicon.amplifiers]))
    return _CodedLexicon(
        code={term: j for j, term in enumerate(terms, start=1)},
        valence=np.array([0.0] + [lexicon.valences.get(t, 0.0) for t in terms]),
        is_hit=np.array([False] + [t in lexicon.valences for t in terms]),
        is_negator=np.array([False] + [t in lexicon.negators for t in terms]),
        amplifier=np.array([1.0] + [lexicon.amplifiers.get(t, 1.0) for t in terms]),
    )


def _score_codes(
    codes: np.ndarray, lengths: np.ndarray, coded: _CodedLexicon
) -> tuple[np.ndarray, np.ndarray]:
    """Each document's value and matched count, from `codes`, the lexicon
    codes of every document's words one document after another, and
    `lengths`, each document's word count. Two amplifiers can multiply to
    inf, so a value can be NaN (inf - inf, or 0 * inf); the callers check.

    A hit's shifter window is the entries of the two words before it, with
    code 0 (no entry) before its document's start, so no window crosses
    into the previous document. `np.bincount` sums each document's hits in
    token order, as `score` does.
    """
    k = len(lengths)
    hits = np.flatnonzero(coded.is_hit[codes])
    doc = np.repeat(np.arange(k), lengths)[hits]
    pos = hits - (np.cumsum(lengths) - lengths)[doc]
    prev1 = np.where(pos >= 1, codes[np.maximum(hits - 1, 0)], 0)
    prev2 = np.where(pos >= 2, codes[np.maximum(hits - 2, 0)], 0)
    sign = np.where(coded.is_negator[prev1] ^ coded.is_negator[prev2], -1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf products, 0 * inf
        amp = coded.amplifier[prev2] * coded.amplifier[prev1]
        hit_value = coded.valence[codes[hits]] * sign * amp
    raw = np.bincount(doc, weights=hit_value, minlength=k)
    value = np.clip(raw / np.sqrt(np.maximum(lengths, 1)), -2.0, 2.0)
    return value, np.bincount(doc, minlength=k)


def score_batch(
    docs: Sequence[Sequence[str]], lexicon: Lexicon
) -> tuple[np.ndarray, np.ndarray]:
    """Score many documents' normalized words at once: each one's value and
    matched count, equal to `score`'s bit for bit. One pass over the
    flattened words looks up each word's code; `_score_codes` does the rest."""
    coded = _code_lexicon(lexicon)
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    codes = np.fromiter(map(coded.code.get, chain.from_iterable(docs), repeat(0)),
                        dtype=np.intp, count=int(lengths.sum()))
    return _score_codes(codes, lengths, coded)


class StateTotals:
    """Running per-state document counts, value sums and sign counts, added a
    chunk of documents at a time. `np.add.at` adds each value in turn, so a
    state's sum over chunks in document order is the one a single
    `np.bincount` over all documents gives, bit for bit."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.n = np.zeros(0, np.int64)
        self.total = np.zeros(0)
        self.signs = np.zeros((0, 3), np.int64)  # positive, negative, zero

    def add(self, states: Sequence[str], values: np.ndarray) -> None:
        for state in dict.fromkeys(states):
            self.index.setdefault(state, len(self.index))
        if (grow := len(self.index) - len(self.n)):
            self.n, self.total = np.pad(self.n, (0, grow)), np.pad(self.total, (0, grow))
            self.signs = np.pad(self.signs, ((0, grow), (0, 0)))
        i = np.fromiter(map(self.index.__getitem__, states), np.intp, len(states))
        np.add.at(self.n, i, 1)
        np.add.at(self.total, i, values)
        for column, mask in enumerate((values > 0, values < 0, values == 0)):
            np.add.at(self.signs[:, column], i[mask], 1)

    def summaries(self) -> list[StateSentimentSummary]:
        """One summary per state added, sorted by state code."""
        states = sorted(self.index)
        rows = [self.index[state] for state in states]
        n = self.n[rows]
        shares = (self.signs[rows] / n[:, None]).T.tolist()
        return [StateSentimentSummary(state, *row) for state, *row
                in zip(states, n.tolist(), (self.total[rows] / n).tolist(), *shares)]


def aggregate_scores(states: Sequence[str], values: np.ndarray) -> list[StateSentimentSummary]:
    """One summary per state present, sorted by state code, from each
    document's state and score value."""
    totals = StateTotals()
    totals.add(states, np.asarray(values, dtype=float))
    return totals.summaries()


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


SCORE_BLOCK_BYTES = 1 << 16  # tokens.csv bytes score_blocks reads at a time
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")


def score_blocks(tokens_path: str | Path, scored_path: str | Path,
                 lexicon: Lexicon) -> StateTotals | None:
    """Write scored.csv for tokens.csv from a numpy pass per block, the bytes
    the per-record path writes, and return the state totals. None, with
    scored.csv untouched and no temp file left, unless the header is exactly
    TOKENS_COLUMNS, corpus.plain_blocks frames every block, and in each line
    only the line end is a control byte, the id and state are non-empty with
    no space, the width is 1 to 12 ASCII digits with no leading zero, and the
    tokens are words joined by single spaces, and no score is NaN."""
    blocks = plain_blocks(tokens_path, SCORE_BLOCK_BYTES)
    if next(blocks) != list(TOKENS_COLUMNS):
        return None
    coded, totals = _code_lexicon(lexicon), StateTotals()
    try:
        with atomic_open(scored_path) as fh:
            write_rows(fh, [SCORED_COLUMNS])
            for block in blocks:
                if block is None:
                    raise _NotPlain
                fh.write(_score_block(*block, coded, totals))
    except _NotPlain:
        return None
    return totals


def _score_block(buf: np.ndarray, edges: np.ndarray, coded: _CodedLexicon,
                 totals: StateTotals) -> str:
    """A framed tokens.csv block's scored.csv lines; adds its documents to totals."""
    starts, c1, c2, c3, ends = edges.T  # line start - 1, three commas, line end
    width = c3 - c2 - 1
    at = c3[:, None] - np.arange(min(width.max(), 12), 0, -1)  # a width's last 12 bytes
    digit = buf[np.maximum(at, 0)] - 48  # uint8: any byte but a digit is above 9
    space = np.flatnonzero(buf == 32)
    line = np.searchsorted(ends, space)
    if (np.count_nonzero(buf < 32) != len(edges) + np.count_nonzero(buf == 13)
            or (c1 - starts < 2).any() or (c2 - c1 < 2).any()
            or ((width < 1) | (width > 12) | ((digit > 9) & (at > c2[:, None])).any(1)
                | ((buf[c2 + 1] == 48) & (width > 1))).any()
            or ((space <= c3[line] + 1) | (buf[space + 1] <= 32)).any()):
        raise _NotPlain
    # With commas as spaces, line i splits into its id, state, width and n[i] tokens.
    n = np.bincount(line, minlength=len(edges)) + (ends - c3 > 1)
    words = buf.tobytes().translate(_COMMA_TO_SPACE).decode().split()
    first = np.cumsum(n + 3) - (n + 3)
    token = np.ones(len(words), bool)
    token[first[:, None] + np.arange(3)] = False
    codes = np.fromiter(map(coded.code.get, words, repeat(0)), np.intp, len(words))
    value, _ = _score_codes(codes[token], n, coded)
    if np.isnan(value).any():  # the per-record path names its line
        raise _NotPlain
    totals.add(list(map(words.__getitem__, (first + 1).tolist())), value)
    # Each line is its own id,state,width bytes, then the tail of its value,
    # formatted once per distinct value (by bits): two segments, gathered
    # from buf and the tails that follow it.
    bits, inverse = np.unique(value.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    tails = [f",{v:.12g},{','.join(_CLASS_OF_SIGN[sign])}\r\n" for v, sign
             in zip(distinct.tolist(), np.sign(distinct).astype(int).tolist())]
    tail_len = np.fromiter(map(len, tails), np.intp, len(tails))
    tail_start = len(buf) + np.cumsum(tail_len) - tail_len
    start = np.column_stack((starts + 1, tail_start[inverse])).ravel()
    size = np.column_stack((c3 - starts - 1, tail_len[inverse])).ravel()
    src = np.repeat(start - (np.cumsum(size) - size), size) + np.arange(size.sum())
    tail = np.frombuffer("".join(tails).encode(), np.uint8)
    return np.concatenate((buf, tail))[src].tobytes().decode()


def write_state_summary_csv(
    path: str | Path, summaries: list[StateSentimentSummary]
) -> None:
    with atomic_open(path) as fh:
        write_rows(fh, [("state", "n_docs", "mean_score", "share_positive",
                         "share_negative", "share_neutral")])
        write_rows(fh, ((s.state, str(s.n_docs), f"{s.mean_score:.12g}",
                         f"{s.share_positive:.12g}", f"{s.share_negative:.12g}",
                         f"{s.share_neutral:.12g}") for s in summaries))
