"""State covariates, regional dummies, and the analysis table.

Fourteen state-level predictors are joined onto each scored document by
its state code. Family-household percentage and population density enter
the model as natural logs; Census region enters as three dummies with
South as the omitted baseline.

Every regressor but TW is a state value, so the joined table has few
distinct covariate rows. `join` keeps the table normalized: one covariate
row and CSV text per state, each covariate pattern (distinct row, numbered
by first occurrence) as a state number and a text width, and each
document's pattern and outcome, built once from the distinct (state, width)
keys; `read_scored` gives join's table for a scored.csv, in blocks up to
the first that is not plain. analysis_table.csv is written from that a
chunk of rows at a time, and patterns.csv holds each pattern with its row
count m and y_sum; no patterns x predictors matrix is made.
"""

from __future__ import annotations

import io
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import count, filterfalse
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .atomic import atomic_open
from .corpus import (REGION_OF_STATE, STATE_CODES, SchemaError, _NotPlain, ascii_int,
                     read_batches, read_columns, write_rows)
from .sentiment import SCORED_COLUMNS

__all__ = [
    "REGIONS",
    "REGION_OF_STATE",
    "StateCovariates",
    "AnalysisRow",
    "AnalysisTable",
    "Patterns",
    "ANALYSIS_COLUMNS",
    "PATTERN_COLUMNS",
    "load_covariates",
    "region_dummies",
    "join",
    "read_scored",
    "MissingStatesError",
    "descriptive_stats",
    "write_analysis_csv",
    "read_analysis_csv",
    "write_patterns_csv",
    "read_patterns_csv",
    "write_descriptives_csv",
]

REGIONS = ("Northeast", "Midwest", "South", "West")

_PERCENT_FIELDS = ("FHH_pct", "EDU2", "EDU3", "AGE2", "WP", "OCH", "PWHI", "LF", "PR")


@dataclass(frozen=True)
class StateCovariates:
    state: str
    FHH_pct: float   # family households, percent
    AFS: float       # average family size, persons
    EDU2: float      # high school graduate / some college, percent
    EDU3: float      # associate degree, percent
    AGE2: float      # age under 18, percent
    WP: float        # white persons, percent
    OCH: float       # owner-occupied housing, percent
    PWHI: float      # under 65 without health insurance, percent
    LF: float        # age 16+ in labor force, percent
    POPDEN: float    # persons per square mile
    CASES: float     # cases per 1M people
    PR: float        # poverty rate, percent
    MHHI: float      # median household income, dollars
    GR: float        # median gross rent, dollars
    region: str

    def __post_init__(self):
        if self.state not in STATE_CODES:
            raise ValueError(f"unknown state code {self.state!r}")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        for name in _PERCENT_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{self.state}: {name}={v} outside [0, 100]")
        for name in ("FHH_pct", "AFS", "POPDEN"):  # FHH_pct and POPDEN enter as logs
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{self.state}: {name} must be finite and positive, got {v}")
        for name in ("CASES", "MHHI", "GR"):
            if not 0 <= (v := getattr(self, name)) < math.inf:
                raise ValueError(f"{self.state}: {name} must be finite and nonnegative, got {v}")


# Column order mirrors the fitted model's regressor order.
ANALYSIS_COLUMNS = (
    "sentiment", "TW", "NE", "MW", "WEST", "L_FHH", "AFS", "EDU2", "EDU3",
    "AGE2", "WP", "OCH", "PWHI", "LF", "L_POPDEN", "CASES", "PR", "MHHI", "GR",
)


@dataclass(frozen=True)
class AnalysisRow:
    sentiment: int
    TW: float
    NE: int
    MW: int
    WEST: int
    L_FHH: float
    AFS: float
    EDU2: float
    EDU3: float
    AGE2: float
    WP: float
    OCH: float
    PWHI: float
    LF: float
    L_POPDEN: float
    CASES: float
    PR: float
    MHHI: float
    GR: float


# StateCovariates' field order: load_covariates passes the fields positionally.
_COVARIATE_COLUMNS = (
    "state", "FHH_pct", "AFS", "EDU2", "EDU3", "AGE2", "WP", "OCH", "PWHI",
    "LF", "POPDEN", "CASES", "PR", "MHHI", "GR", "region",
)


def load_covariates(path: str | Path) -> dict[str, StateCovariates]:
    """Read the state covariate CSV into a map keyed by state code."""
    covars: dict[str, StateCovariates] = {}
    for lineno, state, *values, region in read_columns(path, _COVARIATE_COLUMNS):
        if state in covars:
            raise SchemaError(f"{path}:{lineno}: duplicate state {state!r}")
        try:
            covars[state] = StateCovariates(state, *map(float, values), region)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    return covars


def region_dummies(region: str) -> tuple[int, int, int]:
    """One-hot (NE, MW, WEST); South is the omitted baseline."""
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    return (int(region == "Northeast"), int(region == "Midwest"), int(region == "West"))


class Patterns(NamedTuple):
    """Covariate patterns: distinct covariate rows with their counts."""
    X: np.ndarray      # patterns x predictors, ANALYSIS_COLUMNS[1:] order
    m: np.ndarray      # rows with this covariate vector
    y_sum: np.ndarray  # of those, rows with sentiment 1


@dataclass(eq=False)
class AnalysisTable(Sequence):
    """The joined table, one AnalysisRow per document, stored normalized.

    rows[s] holds state row s's values in ANALYSIS_COLUMNS[2:] order and
    texts[s] the same values as analysis_table.csv writes them. Pattern j
    is text width width[j] on state row state[j], and document i has
    pattern pattern[i] and outcome y[i]. Each document holds 5 bytes:
    pattern is np.int32 (there are never more patterns than rows) and y
    np.bool_; each pattern an np.intp and a float.
    """
    rows: np.ndarray
    texts: list[str]
    state: np.ndarray
    width: np.ndarray
    pattern: np.ndarray
    y: np.ndarray

    def __post_init__(self):  # y indexes as a mask: an int y would index rows
        if self.pattern.dtype != np.int32 or self.y.dtype != np.bool_:
            raise TypeError(f"pattern must be int32 and y bool, not {self.pattern.dtype} "
                            f"and {self.y.dtype}")

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i: int | slice) -> AnalysisRow | list[AnalysisRow]:
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        j = self.pattern[i]
        ne, mw, west, *rest = self.rows[self.state[j]].tolist()
        return AnalysisRow(int(self.y[i]), float(self.width[j]), int(ne), int(mw), int(west),
                           *rest)

    @property
    def X(self) -> np.ndarray:
        """Each pattern's values in ANALYSIS_COLUMNS[1:] order, made anew on
        each call; join, its writers and descriptive_stats never make it."""
        return np.column_stack([self.width, self.rows[self.state]])

    @property
    def text(self) -> list[str]:
        """Each pattern's values as analysis_table.csv writes them, made anew
        on each call."""
        return [f"{w!r},{self.texts[s]}" for w, s in zip(self.width.tolist(), self.state.tolist())]

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each pattern's row count m and positives y_sum, counted a chunk of
        rows at a time: a chunk is as long as the larger of
        ANALYSIS_CHUNK_ROWS and the pattern count, so each bincount's work
        is mostly rows."""
        n = len(self.width)
        m, y_sum = np.zeros(n, np.int64), np.zeros(n, np.int64)
        step = max(ANALYSIS_CHUNK_ROWS, n)
        for i in range(0, len(self.y), step):
            pattern = self.pattern[i:i + step]
            m += np.bincount(pattern, minlength=n)
            y_sum += np.bincount(pattern[self.y[i:i + step]], minlength=n)
        return m, y_sum

    @cached_property
    def patterns(self) -> Patterns:
        """The patterns with their row counts, X made once per table."""
        return Patterns(self.X, *self.counts)


# csv.writer's default line terminator; the CSV artifacts all end rows with it.
_EOL = "\r\n"

PATTERN_COLUMNS = ("m", "y_sum") + ANALYSIS_COLUMNS[1:]


class MissingStatesError(SchemaError):
    """Documents have states with no covariate row."""


# A binary as scored.csv holds it, and its outcome.
_OUTCOME = {"0": 0, "1": 1}


def _state_rows(states: list[str],
                covars: dict[str, StateCovariates]) -> tuple[np.ndarray, list[str]]:
    """Each state's covariate row, in ANALYSIS_COLUMNS[2:] order, and its
    CSV text; a MissingStatesError lists any state not in covars."""
    if missing := sorted(s for s in states if s not in covars):
        raise MissingStatesError(f"no covariate row for state(s): {missing}")
    rows = [(*region_dummies(c.region), math.log(c.FHH_pct), c.AFS, c.EDU2, c.EDU3, c.AGE2,
             c.WP, c.OCH, c.PWHI, c.LF, math.log(c.POPDEN), c.CASES, c.PR, c.MHHI, c.GR)
            for c in map(covars.get, states)]
    texts = [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return np.array(rows, dtype=float).reshape(len(rows), len(ANALYSIS_COLUMNS) - 2), texts


def _patterns(texts: list[str], state: np.ndarray,
              width: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The covariate patterns of distinct (state[k], width[k]) keys in
    first-seen order, given each state's CSV text: each key's pattern
    number, and each pattern's state and width, its first key's. Keys share
    a pattern when their widths and their states' texts are equal (repr
    round-trips, so equal texts are equal values); patterns are numbered by
    first key.
    """
    first_with: dict[str, int] = {}  # covariate text -> the first state with it
    same_as = np.array([first_with.setdefault(text, k) for k, text in enumerate(texts)],
                       np.intp)[state]
    # A stable sort by (covariates, width): each run of equal pairs starts
    # at its first key, and `run` numbers every key's run.
    by = np.lexsort((width, same_as))
    starts = np.ones(len(by), bool)
    starts[1:] = (same_as[by[1:]] != same_as[by[:-1]]) | (width[by[1:]] != width[by[:-1]])
    run = np.empty(len(by), np.intp)
    run[by] = np.cumsum(starts) - 1
    first = by[starts]
    order = np.argsort(first)  # the runs in first-occurrence order
    key = first[order]  # each pattern's first key
    return np.argsort(order)[run], state[key], width[key]


def join(records: Iterable[tuple], covars: dict[str, StateCovariates]) -> AnalysisTable:
    """Attach state covariates to each document's (line, state, text width,
    binary sentiment) record, as read_columns yields them from scored.csv.
    Each distinct (state, width) key is read once. A width must be ASCII
    digits that convert to float, and a binary exactly "0" or "1"; anything
    else is a ValueError whose message starts with the record's line. Any
    document whose state has no covariate row is a MissingStatesError whose
    message lists every such state, for an audit.
    """
    keys = _Keys(covars)
    keys.records(records)
    return keys.table()


class _Keys:
    """The documents' (state, text width) keys, numbered in first-seen
    order, and each document's key number and outcome in one buffer each,
    from join's records or read_batches' blocks and then records. A block's
    keys are packed into int64s, and a record's is its state and width text:
    a key in a block and again in a record is numbered twice, and _patterns
    gives both one pattern."""

    def __init__(self, covars: dict[str, StateCovariates]):
        self.covars, self.number, self.states, self.codes = covars, {}, {}, {}
        self.state, self.width, self.key, self.y = array("q"), array("d"), array("i"), bytearray()
        # The packed keys seen, sorted, and their numbers; each ends in a
        # sentinel above every key, so a search always lands on an entry.
        self.known, self.numbers = np.array([np.iinfo(np.int64).max]), np.array([-1], np.intc)

    def records(self, records: Iterable[tuple]) -> tuple:
        """Adds each (line, state, width, binary) record; returns no batch."""
        for line, s, w, binary in records:
            if (s, w) not in self.number:
                try:  # a width whose state has no covariate row is not read
                    width = float(ascii_int(w)) if s in self.covars else 0.0
                except (ValueError, OverflowError) as exc:  # not an integer, or past float
                    want = "an integer" if isinstance(exc, ValueError) else "within float range"
                    raise ValueError(f"{line}: text_width must be {want}, got {w!r}") from None
                self.number[s, w] = len(self.state)
                self.state.append(self.states.setdefault(s, len(self.states)))
                self.width.append(width)
            self.key.append(self.number[s, w])
            try:
                self.y.append(_OUTCOME[binary])
            except KeyError:
                raise ValueError(f"{line}: binary must be 0 or 1, got {binary!r}") from None
        return ()

    def block(self, buf: np.ndarray, edges: np.ndarray) -> None:
        """Adds a plain_blocks block of scored.csv; _NotPlain, with nothing
        added, unless each line has a state of at most 2 bytes, a width of 1
        to 12 digits (a float exactly, and the low 40 bits of a packed key)
        and a binary of 0 or 1."""
        (ss, se), (ws, we), (bs, be) = ((edges[:, c] + 1, edges[:, c + 1]) for c in _JOIN_FIELDS)
        ls, lw, binary = se - ss, we - ws, buf[bs] - 48  # uint8: any byte but "0" or "1" is above 1
        at = we[:, None] - np.arange(min(lw.max(), 12), 0, -1)
        digits = np.where(at >= ws[:, None], buf[np.maximum(at, 0)] - 48, 0)
        if ((ls > 2) | (lw < 1) | (lw > 12) | (be - bs != 1) | (binary > 1)
                | (digits > 9).any(1)).any():
            raise _NotPlain
        state = (buf[ss].astype(np.int64) << 8 | buf[ss + (ls > 1)]) * (ls > 0)
        key = digits @ 10 ** np.arange(at.shape[1] - 1, -1, -1) | state << 40 | ls << 56
        keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        at = np.searchsorted(self.known, keys)
        number, fresh = self.numbers[at], self.known[at] != keys
        new = np.flatnonzero(fresh)[np.argsort(first[fresh])]  # first seen first
        number[new] = np.arange(len(self.state), len(self.state) + len(new))
        self.known = np.insert(self.known, at[fresh], keys[fresh])
        self.numbers = np.insert(self.numbers, at[fresh], number[fresh])
        codes = (keys[new] >> 40).tolist()  # each new key's state: its length and bytes
        for c in set(codes).difference(self.codes):  # each state decoded once
            self.codes[c] = self.states.setdefault(
                (c & 0xFFFF).to_bytes(2, "big")[:c >> 16].decode(), len(self.states))
        self.state.extend(map(self.codes.__getitem__, codes))
        self.width.frombytes((keys[new] & 0xFFFFFFFFFF).astype(float).tobytes())
        self.key.frombytes(number[inverse].tobytes())
        self.y += binary.tobytes()

    def table(self) -> AnalysisTable:
        """The table of the documents added, made in the buffers of key and y."""
        rows, texts = _state_rows(list(self.states), self.covars)
        number, pattern_state, pattern_width = _patterns(
            texts, np.frombuffer(self.state, np.int64), np.frombuffer(self.width))
        pattern = np.frombuffer(self.key, np.intc)
        for i in range(0, len(pattern), ANALYSIS_CHUNK_ROWS):
            chunk = pattern[i:i + ANALYSIS_CHUNK_ROWS]
            chunk[:] = number[chunk]
        return AnalysisTable(rows, texts, pattern_state, pattern_width, pattern,
                             np.frombuffer(self.y, np.bool_))


JOIN_BLOCK_BYTES = 1 << 16  # scored.csv bytes read_scored reads at a time
JOIN_COLUMNS = ("state", "text_width", "binary")
_JOIN_FIELDS = [SCORED_COLUMNS.index(c) for c in JOIN_COLUMNS]


def read_scored(path: str | Path, covars: dict[str, StateCovariates]) -> AnalysisTable:
    """join(read_columns(path, JOIN_COLUMNS), covars): scored.csv's table, or
    the error that names its line, read with corpus.read_batches in blocks
    of JOIN_BLOCK_BYTES (_Keys.block) and then records."""
    keys = _Keys(covars)
    for _ in read_batches(path, SCORED_COLUMNS, JOIN_COLUMNS, JOIN_BLOCK_BYTES, keys.block,
                          keys.records):
        pass
    return keys.table()


def descriptive_stats(table: AnalysisTable) -> dict[str, dict[str, float]]:
    """Per-variable mean, sample sd (n-1), min, max over the analysis table's
    rows, computed once per distinct value with its row count as weight.
    Each covariate column is gathered per pattern, one column at a time."""
    n = len(table)
    if n < 2:
        raise ValueError("descriptive statistics need at least 2 rows")
    m, y_sum = table.counts
    positives = float(y_sum.sum())
    w = np.array([n - positives, positives])
    stats = {"sentiment": _weighted_stats(np.array([0.0, 1.0])[w > 0], w[w > 0], n)}
    w = m.astype(float)  # one weight vector for every covariate column
    kept = w > 0
    w, state = w[kept], table.state[kept]
    stats["TW"] = _weighted_stats(table.width[kept], w, n)
    for j, name in enumerate(ANALYSIS_COLUMNS[2:]):
        stats[name] = _weighted_stats(table.rows[state, j], w, n)
    return stats


def _weighted_stats(x: np.ndarray, w: np.ndarray, n: int) -> dict[str, float]:
    """Mean, sample sd, min and max of values x with row counts w, n in all."""
    mean = float(w @ x) / n
    return {
        "mean": mean,
        "sd": math.sqrt(float(w @ (x - mean) ** 2) / (n - 1)),
        "min": float(x.min()),
        "max": float(x.max()),
    }


ANALYSIS_CHUNK_ROWS = 1024  # documents or patterns the table's loops take at a time


def write_analysis_csv(path: str | Path, table: AnalysisTable) -> None:
    """One line per document: its outcome and its pattern's width, then its
    state's CSV text. The lines are formatted and written
    ANALYSIS_CHUNK_ROWS documents at a time, one write a chunk, so what is
    held grows with neither the documents nor the patterns. A chunk formats
    each of its distinct widths once, after an outcome of 0 and of 1, and
    joins those heads and the states' texts in one call."""
    tails, step = [text + _EOL for text in table.texts], ANALYSIS_CHUNK_ROWS
    with atomic_open(path) as fh:
        fh.write(",".join(ANALYSIS_COLUMNS) + _EOL)
        for i in range(0, len(table), step):
            pattern = table.pattern[i:i + step]
            widths, which = np.unique(table.width[pattern], return_inverse=True)
            heads = [f"{b},{w!r}," for w in widths.tolist() for b in (0, 1)]
            parts = [""] * (2 * len(pattern))
            parts[0::2] = map(heads.__getitem__, (2 * which + table.y[i:i + step]).tolist())
            parts[1::2] = map(tails.__getitem__, table.state[pattern].tolist())
            fh.write("".join(parts))


def read_analysis_csv(path: str | Path) -> list[AnalysisRow]:
    types = [int if f.type == "int" else float for f in fields(AnalysisRow)]
    return [AnalysisRow(*(t(v) for t, v in zip(types, values)))
            for _, *values in read_columns(path, ANALYSIS_COLUMNS)]


def write_patterns_csv(path: str | Path, table: AnalysisTable) -> None:
    """One line per covariate pattern, in pattern order: m, y_sum, then the
    covariates as analysis_table.csv writes them, formatted and written
    ANALYSIS_CHUNK_ROWS patterns at a time."""
    (m, y_sum), step = table.counts, ANALYSIS_CHUNK_ROWS
    tails = [text + _EOL for text in table.texts]
    with atomic_open(path) as fh:
        fh.write(",".join(PATTERN_COLUMNS) + _EOL)
        for i in range(0, len(m), step):
            fh.write("".join([f"{a},{b},{w!r},{tails[s]}" for a, b, w, s in zip(
                m[i:i + step].tolist(), y_sum[i:i + step].tolist(),
                table.width[i:i + step].tolist(), table.state[i:i + step].tolist())]))


class _Written(NamedTuple):
    """patterns.csv as write_patterns_csv wrote it, and the arrays it
    encodes: each pattern's state and width, m and y_sum, and each state's
    covariate row; about 32 bytes a pattern beside the file's."""
    data: bytes
    state: np.ndarray
    width: np.ndarray
    m: np.ndarray
    y_sum: np.ndarray
    rows: np.ndarray


_loadtxt = partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)


PATTERN_CHUNK_CHARS = 1 << 16  # patterns.csv characters read_patterns_csv reads at a time


def _line_chunks(fh: TextIO) -> Iterator[str]:
    """The rest of fh in pieces of whole lines, read PATTERN_CHUNK_CHARS
    characters at a time and cut after the last LF of each read; the last
    piece lacks an LF when the file does not end in one."""
    rest = ""
    for chunk in iter(partial(fh.read, PATTERN_CHUNK_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _parse_lines(fh: TextIO, lead: int) -> Patterns | None:
    """The columns of _loadtxt's array for the rest of fh, its lines split
    at LF alone, as _read_patterns gives them, or None where it must be
    parsed whole: where a line has fewer than four fields, an m,y_sum,TW
    head holds a CR, a tail is blank or not of the 17 covariate fields, or
    _loadtxt refuses a field, so that its error names the line. A CR that
    ends a line ends it for np.loadtxt, in a list of lines as in the whole
    body; any other CR would end a head.

    The lines are read a piece of _line_chunks at a time. Each piece's
    heads are parsed in one call, and each distinct covariate tail (a
    state's, on each of its widths' lines) once, where it first appears;
    only the parsed heads and each line's tail number are kept."""
    distinct: dict[str, int] = {}
    tails, heads, numbers = [], [], []
    try:
        for piece in _line_chunks(fh):
            lines = piece.split("\n")
            if not lines[-1]:
                lines.pop()
            try:
                tail = list(map(itemgetter(3), map(methodcaller("split", ",", 3), lines)))
            except IndexError:  # a blank line, or one of fewer than four fields
                return None
            head = list(map(str.removesuffix, lines, map(",".__add__, tail)))
            new = list(filterfalse(distinct.__contains__, dict.fromkeys(tail)))
            if "\r" in "".join(head) or {"", "\r"}.intersection(new):
                return None  # a blank tail would be skipped
            try:
                if new:
                    tails.append(_loadtxt(new))
                heads.append(_loadtxt(head))
            except ValueError:
                return None
            distinct.update(zip(new, count(len(distinct))))
            numbers.append(np.fromiter(map(distinct.__getitem__, tail), np.intp, len(tail)))
    except UnicodeDecodeError:  # decoded ahead of the lines: at or after the first not yet read
        line = 2 + sum(map(len, numbers))
        raise SchemaError(f"{fh.name}:{line}: not UTF-8 at or after this line") from None
    if not heads or {t.shape[1] for t in tails} != {len(PATTERN_COLUMNS) - 3}:
        return None
    rows = np.concatenate(tails)
    n = sum(map(len, numbers))
    X, m, y_sum = np.empty((n, lead + 1 + rows.shape[1])), np.empty(n), np.empty(n)
    at = 0
    for head, number in zip(heads, numbers):
        part = slice(at, at + len(number))
        m[part], y_sum[part], X[part, lead] = head.T
        X[part, lead + 1:] = rows[number]
        at += len(number)
    return Patterns(X, m, y_sum)


def read_patterns_csv(path: str | Path) -> Patterns:
    """patterns.csv's columns, each field parsed as np.loadtxt parses it, or
    a SchemaError that names the file. The header must be exactly
    PATTERN_COLUMNS, after an optional BOM; blank lines are skipped. The
    body is read a piece at a time (_parse_lines); a body that must be
    parsed whole, such as one with a blank line or in error, is read again
    whole and parsed by one np.loadtxt call."""
    return _read_patterns(path, 0)


def _read_patterns(path: str | Path, lead: int) -> Patterns:
    """read_patterns_csv's Patterns, with X, m and y_sum each an array of
    its own, and `lead` columns left unset before X's: a design's
    intercept is filled in place, with no second copy of X."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = 1
        try:
            if fh.readline().rstrip("\r\n") != ",".join(PATTERN_COLUMNS):
                raise SchemaError(f"{path}: header must be {','.join(PATTERN_COLUMNS)}")
            start, line = fh.tell(), 2
            if (patterns := _parse_lines(fh, lead)) is not None:
                return patterns
            fh.seek(start)
            body = fh.read()
        except UnicodeDecodeError:  # decoded ahead of the lines: at or after line
            raise SchemaError(f"{path}:{line}: not UTF-8 at or after this line") from None
    if not body.strip():
        raise SchemaError(f"{path}: no covariate patterns")
    try:
        data = _loadtxt(io.StringIO(body))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if data.shape[1] != len(PATTERN_COLUMNS):
        raise SchemaError(f"{path}: malformed row, {data.shape[1]} fields")
    X = np.empty((len(data), lead + data.shape[1] - 2))
    X[:, lead:] = data[:, 2:]
    return Patterns(X, data[:, 0].copy(), data[:, 1].copy())


def _holds(path: Path, data: bytes) -> bool:
    """Whether path holds exactly data, compared PATTERN_CHUNK_CHARS bytes at a
    time (bytes slices: memoryview's == compares byte by byte, 20 times slower)."""
    step = PATTERN_CHUNK_CHARS
    with open(path, "rb") as fh:
        return all(fh.read(step) == data[at:at + step]
                   for at in range(0, len(data), step)) and not fh.read(1)


def _read_written(path: Path, written: _Written | None, lead: int) -> Patterns | None:
    """_read_patterns(path, lead) built from written's arrays with no parse,
    in its dtypes, shapes and C order, where path holds exactly
    written.data; None where written is None or the bytes differ."""
    if written is None or not _holds(path, written.data):
        return None
    X = np.empty((len(written.state), lead + 1 + written.rows.shape[1]))
    X[:, lead], X[:, lead + 1:] = written.width, written.rows[written.state]
    return Patterns(X, written.m.astype(float), written.y_sum.astype(float))


def write_descriptives_csv(path: str | Path, stats: dict[str, dict[str, float]]) -> None:
    with atomic_open(path) as fh:
        write_rows(fh, [("variable", "mean", "sd", "min", "max")])
        write_rows(fh, ((name, f"{s['mean']:.12g}", f"{s['sd']:.12g}",
                         f"{s['min']:.12g}", f"{s['max']:.12g}") for name, s in stats.items()))
