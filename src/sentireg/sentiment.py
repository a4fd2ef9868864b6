"""Valence-lexicon sentiment scoring and state-level aggregation.

A document's raw score sums the valences of matched tokens, with negators
and amplifiers in the two preceding tokens flipping or scaling each hit.
The raw sum is scaled by the square root of the stream length and clamped
to [-2, +2], so long rambling texts do not dominate.

`score` scores one document; `score_batch` scores many as columns, in the
same arithmetic order, so its values equal a `score` loop's bit for bit.
`write_scored` scores a tokens.csv into scored.csv with corpus.read_batches,
in byte blocks and then in chunks of records; both paths hand the words'
lexicon codes to `_score_codes` and add each chunk to a `StateTotals`, the
per-state running sums of the state summary.

The per-record path looks each word up in a dict, as `score_batch` does. The
block path makes no Python object per word. Each word's span comes from the
block's spaces and line edges; its bytes are read as little-endian uint64
words, each shifted together from the two aligned words of the block it
spans (`_aligned`, `_packed`), folded into a key, and looked up in `_Probe`,
a table built once per run. A slot holds a term's code, and the code counts
only where the term's length and packed words are the word's, so a word
gets exactly `code.get(word, 0)`. `StateTotals` adds with `np.bincount`,
each state's running total first and then the chunk's values in document
order.
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
                     ascii_int, load_wordlist, read_batches, write_rows)

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
    # sorted: a frozenset's order, and so the codes, would vary with PYTHONHASHSEED
    terms = list(dict.fromkeys([*lexicon.valences, *sorted(lexicon.negators),
                                *lexicon.amplifiers]))
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
    return _score_docs(docs, _code_lexicon(lexicon))


def _score_docs(docs: Sequence[Sequence[str]], coded: _CodedLexicon
                ) -> tuple[np.ndarray, np.ndarray]:
    """score_batch over a lexicon already coded."""
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    codes = np.fromiter(map(coded.code.get, chain.from_iterable(docs), repeat(0)),
                        dtype=np.intp, count=int(lengths.sum()))
    return _score_codes(codes, lengths, coded)


class StateTotals:
    """Running per-state document counts, value sums and sign counts, added a
    chunk of documents at a time. Each `np.bincount` sums a state's running
    total and then the chunk's values in document order, the additions
    `np.add.at` would make, so a state's sum over chunks is the one a single
    `np.bincount` over all documents gives, bit for bit."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.n = np.zeros(0, np.int64)
        self.total = np.zeros(0)
        self.signs = np.zeros((0, 3), np.int64)  # positive, negative, zero

    def add(self, states: Sequence[str], values: np.ndarray) -> None:
        """Adds documents by their states and values."""
        names = list(dict.fromkeys(states))
        number = dict(zip(names, range(len(names))))
        self.add_numbered(names, np.fromiter(map(number.__getitem__, states), np.intp,
                                             len(states)), values)

    def add_numbered(self, names: Sequence[str], which: np.ndarray, values: np.ndarray) -> None:
        """Adds documents by their values and `which`, each one's index in
        `names`, the distinct states."""
        rows = np.array([self.index.setdefault(s, len(self.index)) for s in names], np.intp)
        i, k, seen = rows[which], len(self.index), np.arange(len(self.n))
        self.total = np.bincount(np.concatenate((seen, i)),
                                 np.concatenate((self.total, values)), minlength=k)
        n = np.bincount(i, minlength=k)
        n[seen] += self.n
        kind = (values < 0) + 2 * (values == 0) + 3 * np.isnan(values)  # a NaN is no sign
        signs = np.bincount(4 * i + kind, minlength=4 * k).reshape(k, 4)[:, :3]
        signs[seen] += self.signs
        self.n, self.signs = n, signs

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


def write_scored_csv(path: str | Path, chunks: Iterable[ScoredChunk | str]) -> None:
    """One line per document, chunk by chunk, in SCORED_COLUMNS order; a
    chunk that is a str is those lines, written as it is."""
    with atomic_open(path) as fh:
        write_rows(fh, [SCORED_COLUMNS])
        for c in chunks:
            if isinstance(c, str):
                fh.write(c)
                continue
            signs = np.sign(c.value).astype(int).tolist()
            write_rows(fh, ((doc_id, state, str(width), f"{value:.12g}", *_CLASS_OF_SIGN[sign])
                            for doc_id, state, width, value, sign
                            in zip(c.id, c.state, c.text_width, c.value.tolist(), signs)))


SCORE_BLOCK_BYTES = 1 << 16  # tokens.csv bytes write_scored reads at a time
SCORE_CHUNK_DOCS = 1024  # records the per-record path scores at a time; bounds its memory
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")


def write_scored(tokens: str | Path, scored: str | Path, lexicon: Lexicon) -> StateTotals:
    """Score each document of tokens.csv, write scored.csv in SCORED_COLUMNS
    order, and return the documents' state totals. A text width that is not
    ASCII digits is a SchemaError naming its line, as is a CSV error, and
    scored.csv is replaced only when every line is read.

    corpus.read_batches reads tokens.csv in blocks of SCORE_BLOCK_BYTES up to
    the first that is not plain, then as records, SCORE_CHUNK_DOCS at a
    time, to the same bytes. In a block, each word's code is probed from its
    bytes, and each line is gathered from its input line's bytes and the
    text of its distinct value. A block is plain when plain_blocks frames it
    with the header TOKENS_COLUMNS, no character is a space str.split splits
    at but the ASCII space, and in each line the id and state are non-empty
    with no space, the width is 1 to 12 ASCII digits with no leading zero,
    and the tokens are words joined by single spaces, of any UTF-8.
    """
    coded, totals = _code_lexicon(lexicon), StateTotals()  # once for either path
    probe = _probe(coded.code)
    write_scored_csv(scored, read_batches(
        tokens, TOKENS_COLUMNS, TOKENS_COLUMNS, SCORE_BLOCK_BYTES,
        lambda buf, edges: _score_block(buf, edges, coded, probe, totals),
        lambda rows: _scored_chunks(tokens, rows, coded, totals)))
    return totals


def _scored_chunks(path: str | Path, records: Iterable[tuple], coded: _CodedLexicon,
                   totals: StateTotals) -> Iterator[ScoredChunk]:
    """tokens.csv's records (read_columns') scored SCORE_CHUNK_DOCS at a
    time; adds each chunk to totals. Each width is checked as it is read."""
    def record(line: int, doc_id: str, state: str, width: str, tokens: str) -> tuple:
        try:
            return doc_id, state, ascii_int(width), tokens.split()
        except ValueError:
            raise SchemaError(f"{path}:{line}: text_width must be an integer, "
                              f"got {width!r}") from None

    rows = starmap(record, records)
    while chunk := list(islice(rows, SCORE_CHUNK_DOCS)):
        ids, states, widths, words = zip(*chunk)
        value, _ = _score_docs(words, coded)
        totals.add(states, value)
        yield ScoredChunk(ids, states, widths, value)


# A count of low bytes -> the uint64 mask that keeps them.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_FOLD = np.uint64(0x9E3779B97F4A7C15)  # odd: folds a string's words into one key
_SLOT_MULT = np.uint64(0xE220A8397B1DCDAF)  # odd: a key times it, shifted, is its slot
PROBE_SLOTS_PER_TERM = 32
PROBE_MAX_SLOTS = 1 << 15  # int16 slots: 64 KiB, for lexicons up to 16384 terms


def _aligned(buf: np.ndarray, words: int) -> np.ndarray:
    """buf as little-endian uint64 words, zero-padded so that `words` + 1
    words can be read from any of its bytes' word."""
    aligned = np.zeros(len(buf) // 8 + words + 1, np.dtype("<u8"))
    aligned.view(np.uint8)[:len(buf)] = buf
    return aligned


def _packed(aligned: np.ndarray, start: np.ndarray, length: np.ndarray,
            words: int) -> list[np.ndarray]:
    """The byte strings of _aligned(buf, words) at `start` with `length`
    bytes, as `words` uint64 arrays: word k of string i is its bytes 8k to
    8k + 7, little-endian, with every byte past its length zero. Each word
    is shifted together from the two aligned words it spans (an unaligned
    view would do, but np.take copies all of one to read it)."""
    at = start >> 3
    low = ((start & 7) << 3).view(np.uint64)  # the bits before the string in its first word
    high = 63 - low  # hi << high << 1 is hi << (64 - low), and 0 where low is 0
    packed, lo = [], np.take(aligned, at)
    for k in range(words):
        hi = np.take(aligned, at + (k + 1))
        word = lo >> low | hi << high << 1
        packed.append(word & _LOW_BYTES[np.clip(length - 8 * k, 0, 8)])
        lo = hi
    return packed


def _fold(packed: list[np.ndarray]) -> np.ndarray:
    """One uint64 key per string of packed words, by wraparound array arithmetic."""
    key = packed[0]
    for word in packed[1:]:
        key = key * _FOLD + word
    return key


class _Probe(NamedTuple):
    """An exact lookup of a byte string's lexicon code. The string is packed
    into `words` uint64 words and folded into a key, and the key times
    _SLOT_MULT, shifted right by `shift`, is its slot. `table` holds each
    term's code at its slot, or, where terms share a slot, at the first free
    one after it: at most `rounds` - 1 after, with the first `rounds` - 1
    slots repeated at the end. A code read from a slot counts only when its
    term's `length` and `packed` words are the string's, and code 0 has
    length -1."""
    words: int
    length: np.ndarray
    packed: list[np.ndarray]
    shift: np.uint64
    table: np.ndarray
    rounds: int


def _probe(code: dict[str, int]) -> _Probe:
    """The probe of a coded lexicon's terms, numbered 1, 2, ... in `code`.

    The table has the power of two of slots at or above PROBE_SLOTS_PER_TERM
    per term, up to PROBE_MAX_SLOTS (or twice the terms, where more). Each
    bundled term gets its own slot, so a lookup reads one; terms that share
    a slot take the next free ones, and a lookup reads `rounds` slots."""
    terms = [t.encode() for t in code]
    length = np.array([-1] + list(map(len, terms)), np.intp)
    words = max(1, -(-int(length.max()) // 8))
    size = length[1:]
    packed = _packed(_aligned(np.frombuffer(b"".join(terms), np.uint8), words),
                     np.cumsum(size) - size, size, words)
    key = _fold(packed)
    bits = min((PROBE_SLOTS_PER_TERM * len(terms) - 1).bit_length(),
               max(PROBE_MAX_SLOTS.bit_length() - 1, (2 * len(terms) - 1).bit_length()))
    shift = np.uint64(64 - bits)
    table, rounds = [0] * (1 << bits), 1
    for c, at in enumerate((key * _SLOT_MULT >> shift).tolist(), start=1):
        r = 0
        while table[(at + r) % len(table)]:
            r += 1
        table[(at + r) % len(table)] = c
        rounds = max(rounds, r + 1)
    return _Probe(words, length, [np.insert(word, 0, 0) for word in packed], shift,
                  np.array(table + table[:rounds - 1], np.int16 if len(terms) < 2**15
                           else np.int32), rounds)


def _probe_codes(probe: _Probe, aligned: np.ndarray, start: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """Each byte string's code, `code.get(string, 0)` for the code probe was
    built from, from _aligned(buf, words) with words at least probe.words."""
    packed = _packed(aligned, start, length, probe.words)
    slot = (_fold(packed) * _SLOT_MULT >> probe.shift).view(np.int64)
    codes = np.zeros(len(start), probe.table.dtype)
    for r in range(probe.rounds):
        c = np.take(probe.table, slot + r)
        same = np.take(probe.length, c) == length
        for term_word, word in zip(probe.packed, packed):
            same &= np.take(term_word, c) == word
        codes = np.where(same, c, codes)
    return codes


def _score_block(buf: np.ndarray, edges: np.ndarray, coded: _CodedLexicon, probe: _Probe,
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
    data = buf.tobytes()
    if not data.isascii() and _NON_ASCII_SPACE.search(data.decode()):  # str.split splits at U+00A0
        raise _NotPlain
    # Line i's n[i] tokens start after its third comma and after each of its
    # spaces, and end at the next space or at the line end.
    full = ends - c3 > 1
    n = np.bincount(line, minlength=len(edges)) + full
    first = np.cumsum(n) - n
    head = np.zeros(len(space) + np.count_nonzero(full), bool)
    head[first[full]] = True
    start = np.empty(len(head), np.intp)
    start[head] = c3[full] + 1
    start[~head] = space + 1
    end = np.empty_like(start)
    end[:-1] = start[1:] - 1
    end[first[full] + n[full] - 1] = ends[full]
    state_len = c2 - c1 - 1
    state_words = -(-int(state_len.max()) // 8)
    aligned = _aligned(buf, max(probe.words, state_words))
    value, _ = _score_codes(_probe_codes(probe, aligned, start, end - start), n, coded)
    # Lines are numbered by their states' packed bytes, which no zero byte
    # is in, and each distinct state is decoded once.
    state = _packed(aligned, c1 + 1, state_len, state_words)
    state = state[0] if state_words == 1 else np.column_stack(state).view(
        np.dtype((np.void, 8 * state_words)))
    _, one, which = np.unique(state.reshape(-1), return_index=True, return_inverse=True)
    totals.add_numbered([data[s:e].decode() for s, e in zip((c1[one] + 1).tolist(),
                                                             c2[one].tolist())],
                        which.reshape(-1), value)
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
