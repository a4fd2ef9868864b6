"""State covariates, regional dummies, and the analysis table.

Fourteen state-level predictors are joined onto each scored document by
its state code. Family-household percentage and population density enter
the model as natural logs; Census region enters as three dummies with
South as the omitted baseline.

Every regressor but TW is a state value, so the joined table has few
distinct covariate rows. `join` builds each one once and keeps the table
as covariate patterns (distinct rows, numbered by first occurrence) plus
each document's pattern and outcome; `join_blocks` reads a plain scored.csv
a block at a time and gives join's table. analysis_table.csv is written from
that, and patterns.csv holds each pattern with its row count m and y_sum.
"""

from __future__ import annotations

import io
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .corpus import STATE_CODES, SchemaError, ascii_int, plain_blocks, read_columns, write_rows

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
    "join_blocks",
    "MissingStatesError",
    "descriptive_stats",
    "write_analysis_csv",
    "read_analysis_csv",
    "write_patterns_csv",
    "read_patterns_csv",
    "write_descriptives_csv",
]

REGIONS = ("Northeast", "Midwest", "South", "West")

REGION_OF_STATE = {
    # Northeast
    "CT": "Northeast", "ME": "Northeast", "MA": "Northeast", "NH": "Northeast",
    "RI": "Northeast", "VT": "Northeast", "NJ": "Northeast", "NY": "Northeast",
    "PA": "Northeast",
    # Midwest
    "IL": "Midwest", "IN": "Midwest", "MI": "Midwest", "OH": "Midwest",
    "WI": "Midwest", "IA": "Midwest", "KS": "Midwest", "MN": "Midwest",
    "MO": "Midwest", "NE": "Midwest", "ND": "Midwest", "SD": "Midwest",
    # South
    "DE": "South", "FL": "South", "GA": "South", "MD": "South", "NC": "South",
    "SC": "South", "VA": "South", "DC": "South", "WV": "South", "AL": "South",
    "KY": "South", "MS": "South", "TN": "South", "AR": "South", "LA": "South",
    "OK": "South", "TX": "South",
    # West
    "AZ": "West", "CO": "West", "ID": "West", "MT": "West", "NV": "West",
    "NM": "West", "UT": "West", "WY": "West", "AK": "West", "CA": "West",
    "HI": "West", "OR": "West", "WA": "West",
}

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


class AnalysisTable(Sequence):
    """The joined table, one AnalysisRow per document, stored by pattern.

    covariates[j] holds pattern j's values in ANALYSIS_COLUMNS[1:] order
    and text[j] the same values as analysis_table.csv writes them; row i
    has covariates pattern[i] and outcome y[i].
    """

    def __init__(self, covariates: list[tuple], text: list[str],
                 pattern: np.ndarray, y: np.ndarray):
        self.covariates = covariates
        self.text = text
        self.pattern = pattern
        self.y = y

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i: int) -> AnalysisRow:
        return AnalysisRow(int(self.y[i]), *self.covariates[self.pattern[i]])

    @cached_property
    def patterns(self) -> Patterns:
        n = len(self.text)
        return Patterns(
            X=np.array(self.covariates, dtype=float).reshape(n, len(ANALYSIS_COLUMNS) - 1),
            m=np.bincount(self.pattern, minlength=n),
            y_sum=np.bincount(self.pattern, weights=self.y, minlength=n).astype(int),
        )


# csv.writer's default line terminator; the CSV artifacts all end rows with it.
_EOL = "\r\n"

PATTERN_COLUMNS = ("m", "y_sum") + ANALYSIS_COLUMNS[1:]


def _state_row(c: StateCovariates) -> tuple[tuple, str]:
    """A state's regressors, in ANALYSIS_COLUMNS[2:] order, and their CSV text."""
    values = (*region_dummies(c.region), math.log(c.FHH_pct), c.AFS, c.EDU2, c.EDU3,
              c.AGE2, c.WP, c.OCH, c.PWHI, c.LF, math.log(c.POPDEN), c.CASES, c.PR,
              c.MHHI, c.GR)
    return values, ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


class MissingStatesError(SchemaError):
    """Documents have states with no covariate row."""


# A binary as sentireg writes it, in scored.csv or in memory, and its outcome.
_OUTCOME = {"0": 0, "1": 1, 0: 0, 1: 1}


def join(records: Iterable[tuple], covars: dict[str, StateCovariates]) -> AnalysisTable:
    """Attach state covariates to each document's (line, state, text width,
    binary sentiment) record, as read_columns yields them from scored.csv.
    Each distinct (state, width) key's pattern is built once. A width must be
    an integer or a string of ASCII digits, either converting to float, and a
    binary 0 or 1 or exactly "0" or "1"; anything else is a ValueError whose
    message starts with the record's line. Patterns are keyed by their CSV
    text, which tells two covariate vectors apart exactly when their float
    values differ (repr round-trips). Any document whose state has no
    covariate row is a MissingStatesError whose message lists every such
    state, for an audit.
    """
    state_rows = {state: _state_row(c) for state, c in covars.items()}
    by_key: dict[tuple, int] = {}
    by_text: dict[str, int] = {}
    covariates: list[tuple] = []
    missing: set[str] = set()

    def new_pattern(line: int, key: tuple) -> int:
        state, width = key
        if state not in state_rows:
            missing.add(state)
            return -1
        values, text = state_rows[state]
        try:
            width = float(ascii_int(width) if isinstance(width, str) else operator.index(width))
        except (ValueError, OverflowError) as exc:  # not an integer, or past float
            want = "an integer" if isinstance(exc, ValueError) else "within float range"
            raise ValueError(f"{line}: text_width must be {want}, got {width!r}") from None
        j = by_key[key] = by_text.setdefault(repr(width) + "," + text, len(by_text))
        if j == len(covariates):
            covariates.append((width, *values))
        return j

    pattern, y = [], []
    for line, state, width, binary in records:
        key = state, width
        pattern.append(by_key[key] if key in by_key else new_pattern(line, key))
        try:
            y.append(_OUTCOME[binary])
        except KeyError:
            raise ValueError(f"{line}: binary must be 0 or 1, got {binary!r}") from None
    if missing:
        raise MissingStatesError(f"no covariate row for state(s): {sorted(missing)}")
    return AnalysisTable(covariates, list(by_text), np.array(pattern, dtype=np.intp),
                         np.array(y, dtype=np.int64))


JOIN_BLOCK_BYTES = 1 << 16  # scored.csv bytes join_blocks reads at a time
JOIN_COLUMNS = ("state", "text_width", "binary")


def join_blocks(path: str | Path, covars: dict[str, StateCovariates]) -> AnalysisTable | None:
    """join(read_columns(path, JOIN_COLUMNS), covars), the same table or error,
    from a numpy pass per block; None unless corpus.plain_blocks frames every
    block and each line has a state of at most 2 bytes, a width of 1 to 12
    digits (a float exactly, and the low 40 bits of a packed key) and a binary
    of 0 or 1. join builds the distinct keys' patterns in first-seen order."""
    seen, ids, y = {}, [np.empty(0, np.intp)], [np.empty(0, np.int64)]  # seen: key -> number

    def take(buf: np.ndarray, edges: np.ndarray) -> bool:
        (ss, se), (ws, we), (bs, be) = ((edges[:, c] + 1, edges[:, c + 1]) for c in cols)
        ls, lw, binary = se - ss, we - ws, buf[bs] - 48  # uint8: any byte but "0" or "1" is above 1
        at = we[:, None] - np.arange(min(lw.max(), 12), 0, -1)
        digits = np.where(at >= ws[:, None], buf[np.maximum(at, 0)] - 48, 0)
        if ((ls > 2) | (lw < 1) | (lw > 12) | (be - bs != 1) | (binary > 1)
                | (digits > 9).any(1)).any():
            return False
        state = (buf[ss].astype(np.int64) << 8 | buf[ss + (ls > 1)]) * (ls > 0)
        key = digits @ 10 ** np.arange(at.shape[1] - 1, -1, -1) | state << 40 | ls << 56
        keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order, number = np.argsort(first), np.empty(len(keys), np.intp)
        number[order] = [seen.setdefault(kk, len(seen)) for kk in keys[order].tolist()]
        ids.append(number[inverse])
        y.append(binary.astype(np.int64))
        return True

    blocks = plain_blocks(path, JOIN_BLOCK_BYTES)
    names = next(blocks)
    if names is None or not set(JOIN_COLUMNS) <= set(names):
        return None
    cols = [names.index(c) for c in JOIN_COLUMNS]
    if not all(block is not None and take(*block) for block in blocks):
        return None
    distinct = join([(0, (kk >> 40 & 0xFFFF).to_bytes(2, "big")[:kk >> 56].decode(),
                      kk & 0xFFFFFFFFFF, 0) for kk in seen], covars)
    return AnalysisTable(distinct.covariates, distinct.text,
                         distinct.pattern[np.concatenate(ids)], np.concatenate(y))


def descriptive_stats(table: AnalysisTable) -> dict[str, dict[str, float]]:
    """Per-variable mean, sample sd (n-1), min, max over the analysis table's
    rows, computed once per distinct value with its row count as weight."""
    n = len(table)
    if n < 2:
        raise ValueError("descriptive statistics need at least 2 rows")
    X, m, y_sum = table.patterns
    positives = float(y_sum.sum())
    columns = {"sentiment": (np.array([0.0, 1.0]), np.array([n - positives, positives]))}
    for j, name in enumerate(ANALYSIS_COLUMNS[1:]):
        columns[name] = (X[:, j], m.astype(float))
    stats = {}
    for name, (x, w) in columns.items():
        x, w = x[w > 0], w[w > 0]
        mean = float(w @ x) / n
        stats[name] = {
            "mean": mean,
            "sd": math.sqrt(float(w @ (x - mean) ** 2) / (n - 1)),
            "min": float(x.min()),
            "max": float(x.max()),
        }
    return stats


ANALYSIS_CHUNK_ROWS = 4096  # documents write_analysis_csv looks up at a time


def write_analysis_csv(path: str | Path, table: AnalysisTable) -> None:
    """One line per document: its outcome, then its pattern's CSV text. Each
    of the 2 x patterns distinct lines is formatted once; the documents' line
    numbers become Python ints ANALYSIS_CHUNK_ROWS at a time, not all at once."""
    lines = [f"{y},{text}{_EOL}" for y in (0, 1) for text in table.text]
    line = table.pattern + len(table.text) * table.y
    with atomic_open(path) as fh:
        fh.write(",".join(ANALYSIS_COLUMNS) + _EOL)
        for i in range(0, len(line), ANALYSIS_CHUNK_ROWS):
            fh.writelines(map(lines.__getitem__, line[i:i + ANALYSIS_CHUNK_ROWS].tolist()))


def read_analysis_csv(path: str | Path) -> list[AnalysisRow]:
    types = [int if f.type == "int" else float for f in fields(AnalysisRow)]
    return [AnalysisRow(*(t(v) for t, v in zip(types, values)))
            for _, *values in read_columns(path, ANALYSIS_COLUMNS)]


def write_patterns_csv(path: str | Path, table: AnalysisTable) -> None:
    """One line per covariate pattern, in pattern order: m, y_sum, then the
    covariates as analysis_table.csv writes them."""
    patterns = table.patterns
    with atomic_open(path) as fh:
        fh.write(",".join(PATTERN_COLUMNS) + _EOL)
        fh.writelines(f"{m},{y_sum},{text}{_EOL}" for m, y_sum, text
                      in zip(patterns.m.tolist(), patterns.y_sum.tolist(), table.text))


def read_patterns_csv(path: str | Path) -> Patterns:
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(PATTERN_COLUMNS):
            raise SchemaError(f"{path}: header must be {','.join(PATTERN_COLUMNS)}")
        body = fh.read()
    if not body.strip():
        raise SchemaError(f"{path}: no covariate patterns")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if data.shape[1] != len(PATTERN_COLUMNS):
        raise SchemaError(f"{path}: malformed row, {data.shape[1]} fields")
    return Patterns(X=data[:, 2:], m=data[:, 0], y_sum=data[:, 1])


def write_descriptives_csv(path: str | Path, stats: dict[str, dict[str, float]]) -> None:
    with atomic_open(path) as fh:
        write_rows(fh, [("variable", "mean", "sd", "min", "max")])
        write_rows(fh, ((name, f"{s['mean']:.12g}", f"{s['sd']:.12g}",
                         f"{s['min']:.12g}", f"{s['max']:.12g}") for name, s in stats.items()))
