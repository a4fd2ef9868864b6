"""Valence-lexicon sentiment scoring and state-level aggregation.

A document's raw score sums the valences of matched tokens, with negators
and amplifiers in the two preceding tokens flipping or scaling each hit.
The raw sum is scaled by the square root of the stream length and clamped
to [-2, +2], so long rambling texts do not dominate.

`score` scores one document; `score_batch` scores many as columns, in the
same arithmetic order, so its values equal a `score` loop's bit for bit.
`write_scored` scores a tokens.csv into scored.csv, in byte blocks where the
file is plain and in chunks of records otherwise; both paths hand the words'
lexicon codes to `_score_codes` and add each chunk to a `StateTotals`, the
per-state running sums of the state summary.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat, starmap
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .corpus import (TOKENS_COLUMNS, Document, SchemaError, TokenStream, _NotPlain, _tsv_pairs,
                     ascii_int, load_wordlist, plain_blocks, read_columns, write_rows)

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
    "write_scored",
    "classify",
    "to_binary",
    "aggregate_by_state",
    "aggregate_scores",
    "load_lexicon",
    "write_scored_csv",
    "write_state_summary_csv",
]

SHIFTER_WINDOW = 2  # tokens before a valence hit that negators/amplifiers act from
# A hit's two shifters multiply to at most 1e200, so with |valence| <= 2 a hit
# is at most 2e200 in size: no sum of hits overflows, and no score is NaN.
MAX_AMPLIFIER = 1e100


class SentimentClass(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    NEUTRAL = "Neutral"


def _valence_problem(term: str, v: float) -> str | None:
    if not -2.0 <= v <= 2.0:  # NaN too
        return f"valence for {term!r} out of [-2, +2]: {v}"
    return None


def _amplifier_problem(term: str, m: float) -> str | None:
    if not 1.0 < m <= MAX_AMPLIFIER:  # NaN too
        return (f"amplifier multiplier for {term!r} must be over 1 and at most "
                f"{MAX_AMPLIFIER:g}: {m}")
    return None


@dataclass(frozen=True)
class Lexicon:
    valences: dict[str, float]
    negators: frozenset[str]
    amplifiers: dict[str, float]

    def __post_init__(self):
        for problem in map(_valence_problem, self.valences, self.valences.values()):
            if problem:
                raise ValueError(problem)
        overlap = (self.negators | set(self.amplifiers)) & set(self.valences)
        if overlap:
            raise ValueError(f"negators/amplifiers overlap valence terms: {sorted(overlap)}")
        for problem in map(_amplifier_problem, self.amplifiers, self.amplifiers.values()):
            if problem:
                raise ValueError(problem)


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
    `lengths`, each document's word count.

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
    and term<TAB>multiplier. A value that is not a number, or is out of its
    range, is a SchemaError naming the file and the line."""
    valences = dict(_tsv_pairs(valences_path, "term<TAB>valence", float, _valence_problem))
    negators = set() if negators_path is None else {
        line.split("\t")[0] for line in load_wordlist(negators_path)}
    amplifiers = {} if amplifiers_path is None else dict(
        _tsv_pairs(amplifiers_path, "term<TAB>multiplier", float, _amplifier_problem))
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


SCORE_BLOCK_BYTES = 1 << 16  # tokens.csv bytes write_scored reads at a time
SCORE_CHUNK_DOCS = 1024  # records the per-record path scores at a time; bounds its memory
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")


def write_scored(tokens: str | Path, scored: str | Path, lexicon: Lexicon) -> StateTotals:
    """Score each document of tokens.csv, write scored.csv in SCORED_COLUMNS
    order, and return the documents' state totals. A text width that is not
    ASCII digits is a SchemaError naming its line, as is a CSV error, and
    scored.csv is replaced only when every line is read.

    A plain tokens.csv is read in blocks of SCORE_BLOCK_BYTES, to the same
    bytes: one split gives every word, and each scored.csv line is gathered
    from its input line's bytes and the text of its distinct value. The file
    is plain when corpus.plain_blocks frames every block of it with the header
    TOKENS_COLUMNS, no character is a space str.split splits at but the
    ASCII space, and in each line the id and state are non-empty with no
    space, the width is 1 to 12 ASCII digits with no leading zero, and the
    tokens are words joined by single spaces. Words may be any UTF-8. Any
    other file is read again from its start, SCORE_CHUNK_DOCS records at a
    time.
    """
    try:
        return _score_blocks(tokens, scored, lexicon)
    except _NotPlain:
        pass
    totals = StateTotals()
    write_scored_csv(scored, _scored_chunks(tokens, lexicon, totals))
    return totals


def _scored_chunks(path: str | Path, lexicon: Lexicon,
                   totals: StateTotals) -> Iterator[ScoredChunk]:
    """tokens.csv's records scored SCORE_CHUNK_DOCS at a time; adds each chunk
    to totals. Each width is checked as it is read."""
    def record(line: int, doc_id: str, state: str, width: str, tokens: str) -> tuple:
        try:
            return doc_id, state, ascii_int(width), tokens.split()
        except ValueError:
            raise SchemaError(f"{path}:{line}: text_width must be an integer, "
                              f"got {width!r}") from None

    rows = starmap(record, read_columns(path, TOKENS_COLUMNS))
    while chunk := list(islice(rows, SCORE_CHUNK_DOCS)):
        ids, states, widths, words = zip(*chunk)
        value, _ = score_batch(words, lexicon)
        totals.add(states, value)
        yield ScoredChunk(ids, states, widths, value)


def _score_blocks(tokens: str | Path, scored: str | Path, lexicon: Lexicon) -> StateTotals:
    """write_scored's block path; _NotPlain, with scored.csv untouched and no
    temp file left, where the file is not plain."""
    coded, totals = _code_lexicon(lexicon), StateTotals()
    with atomic_open(scored) as fh:
        write_rows(fh, [SCORED_COLUMNS])
        for block in plain_blocks(tokens, TOKENS_COLUMNS, SCORE_BLOCK_BYTES):
            fh.write(_score_block(*block, coded, totals))
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
    if ((c1 - starts < 2).any() or (c2 - c1 < 2).any()
            or ((width < 1) | (width > 12) | ((digit > 9) & (at > c2[:, None])).any(1)
                | ((buf[c2 + 1] == 48) & (width > 1))).any()
            or ((space <= c3[line] + 1) | (buf[space + 1] <= 32)).any()):
        raise _NotPlain
    # With commas as spaces, line i splits into its id, state, width and n[i] tokens.
    n = np.bincount(line, minlength=len(edges)) + (ends - c3 > 1)
    text = buf.tobytes().translate(_COMMA_TO_SPACE).decode()
    if not text.isascii() and _NON_ASCII_SPACE.search(text):  # str.split splits at U+00A0
        raise _NotPlain
    words = text.split()
    first = np.cumsum(n + 3) - (n + 3)
    token = np.ones(len(words), bool)
    token[first[:, None] + np.arange(3)] = False
    codes = np.fromiter(map(coded.code.get, words, repeat(0)), np.intp, len(words))
    value, _ = _score_codes(codes[token], n, coded)
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
