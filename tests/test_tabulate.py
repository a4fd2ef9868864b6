import codecs
import csv
import dataclasses
import io
import math
import re
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import tabulate as tab_mod
from sentireg.corpus import SchemaError
from sentireg.pipeline import PipelineConfig, default_data_path, stage_join
from sentireg.sentiment import SCORED_COLUMNS
from sentireg.tabulate import (
    ANALYSIS_COLUMNS,
    AnalysisTable,
    PATTERN_COLUMNS,
    REGION_OF_STATE,
    StateCovariates,
    descriptive_stats,
    join,
    load_covariates,
    read_analysis_csv,
    read_patterns_csv,
    region_dummies,
    write_analysis_csv,
    write_patterns_csv,
)

from handover import handovers, records_only

COVARIATES_FIXTURE = default_data_path("state_covariates.csv")


def make_covariates(state="NC", **overrides):
    base = dict(
        state=state, FHH_pct=65.4, AFS=3.2, EDU2=47.0, EDU3=8.3, AGE2=22.0,
        WP=70.0, OCH=62.0, PWHI=10.0, LF=63.0, POPDEN=200.0, CASES=5000.0,
        PR=13.0, MHHI=60000.0, GR=1000.0, region=REGION_OF_STATE[state],
    )
    base.update(overrides)
    return StateCovariates(**base)


def record(state, y, width=100, line=2):
    """A scored.csv record as join reads it: (line, state, text width, binary)."""
    return (line, state, str(width), str(y))


class TestLoadCovariates:
    def test_bundled_fixture_covers_all_states(self):
        covars = load_covariates(COVARIATES_FIXTURE)
        assert len(covars) == 51
        assert set(covars) == set(REGION_OF_STATE)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cov.csv"
        with open(COVARIATES_FIXTURE, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        idx = header.index("GR")
        stripped = [",".join(v for i, v in enumerate(line.split(",")) if i != idx)
                    for line in lines]
        p.write_text("\n".join(stripped), encoding="utf-8")
        with pytest.raises(SchemaError, match="GR"):
            load_covariates(p)

    def test_duplicate_state(self, tmp_path):
        p = tmp_path / "cov.csv"
        with open(COVARIATES_FIXTURE, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        p.write_text("\n".join(lines + [lines[1]]), encoding="utf-8")
        with pytest.raises(SchemaError, match="duplicate"):
            load_covariates(p)

    def test_negative_afs_rejected(self):
        with pytest.raises(ValueError, match="AFS"):
            make_covariates(AFS=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("CASES", math.inf), ("MHHI", math.nan), ("GR", -1.0), ("AFS", math.inf),
        ("POPDEN", math.inf), ("FHH_pct", 0.0),
    ])
    def test_non_finite_or_log_of_zero_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_covariates(**{field: value})

    def test_percentage_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="WP"):
            make_covariates(WP=120.0)


class TestRegionDummies:
    def test_one_hot(self):
        assert region_dummies("Northeast") == (1, 0, 0)
        assert region_dummies("Midwest") == (0, 1, 0)
        assert region_dummies("West") == (0, 0, 1)

    def test_south_is_baseline(self):
        assert region_dummies("South") == (0, 0, 0)

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            region_dummies("Atlantis")


class TestJoin:
    def test_mechanical_join(self):
        covars = {"NC": make_covariates("NC")}
        (row,) = join([record("NC", 1)], covars)
        assert row.sentiment == 1
        assert row.TW == 100.0
        assert (row.NE, row.MW, row.WEST) == region_dummies(covars["NC"].region)
        assert row.AFS == covars["NC"].AFS

    def test_natural_log_transforms(self):
        covars = {"NC": make_covariates("NC", FHH_pct=65.4)}
        (row,) = join([record("NC", 0)], covars)
        assert row.L_FHH == pytest.approx(math.log(65.4))
        assert row.L_FHH == pytest.approx(4.1805, abs=5e-5)
        assert math.exp(row.L_FHH) == pytest.approx(65.4, abs=1e-12)
        assert math.exp(row.L_POPDEN) == pytest.approx(200.0, abs=1e-10)

    def test_covariates_repeated_per_state(self):
        covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", FHH_pct=55.0)}
        rows = join([record("NC", 1), record("CA", 0), record("NC", 1)], covars)
        assert len(rows) == 3
        assert rows[0].L_FHH == rows[2].L_FHH
        assert rows[1].L_FHH == pytest.approx(math.log(55.0))

    def test_missing_state_is_hard_error(self):
        with pytest.raises(SchemaError, match="WY"):
            join([record("WY", 1)], {"NC": make_covariates("NC")})

    def test_csv_string_records(self):
        # scored.csv's fields arrive as strings; each (state, width) key is one pattern.
        covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", FHH_pct=55.0)}
        records = [record(s, i % 2, width=w) for i, (s, w)
                   in enumerate([("NC", 7), ("CA", 11), ("NC", 7), ("CA", 3), ("NC", 11)])]
        read = join(iter(records), covars)
        assert read.X[:, 0].tolist() == [7.0, 11.0, 3.0, 11.0]
        assert read.pattern.dtype == np.int32 and read.pattern.tolist() == [0, 1, 0, 2, 3]
        assert read.y.dtype == np.bool_ and read.y.tolist() == [0, 1, 0, 1, 0]

    def test_non_integer_width_rejected(self):
        with pytest.raises(ValueError):
            join([(2, "NC", "7.5", "1")], {"NC": make_covariates("NC")})

    # int() takes " 1", "+1" and "01" too; a binary must be one sentireg writes.
    @pytest.mark.parametrize("binary", ["5", "-3", "2", " 1", "+1", "01", "1.0", "", "0.7"])
    def test_binary_outside_0_1_rejected(self, binary):
        message = f"^4: binary must be 0 or 1, got {re.escape(repr(binary))}$"
        with pytest.raises(ValueError, match=message):
            join([record("NC", 1), record("NC", "0", line=3), record("NC", binary, line=4)],
                 {"NC": make_covariates("NC")})

    @pytest.mark.parametrize("width, want", [("", "must be an integer"), ("x7", "must be an integer"),
                                             ("9" * 400, "must be within float range")])
    def test_bad_width_names_its_line(self, width, want):
        with pytest.raises(ValueError, match=f"^5: text_width {want}, got "):
            join([record("NC", "1"), record("NC", "0", width=width, line=5)],
                 {"NC": make_covariates("NC")})

    def test_missing_states_all_listed(self):
        records = [record("WY", 1), record("NC", 0), record("AK", 1), record("WY", 0)]
        with pytest.raises(SchemaError, match=r"\['AK', 'WY'\]"):
            join(records, {"NC": make_covariates("NC")})

    def test_at_most_one_dummy_set(self):
        covars = load_covariates(COVARIATES_FIXTURE)
        rows = join([record(s, i % 2) for i, s in enumerate(sorted(covars))], covars)
        for row in rows:
            assert row.NE + row.MW + row.WEST in (0, 1)


def unique_patterns(states, state, width, covars):
    """_patterns' numbering and first keys as np.unique(axis=0) gives them:
    the distinct (first state with equal covariates, width) rows, numbered
    by first key."""
    texts = [repr(dataclasses.astuple(covars[s])[1:]) for s in states]
    same_as = np.array([texts.index(t) for t in texts])[state]
    _, first, inverse = np.unique(np.column_stack([same_as, width]), axis=0,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse.reshape(-1)], first[order]


@st.composite
def pattern_keys(draw):
    """States some of which share every covariate, and (state, width) keys
    with repeated widths, as join passes them to _patterns."""
    states = draw(st.lists(st.sampled_from(sorted(REGION_OF_STATE)), min_size=1, max_size=6,
                           unique=True))
    covars = {s: make_covariates(s, MHHI=draw(st.sampled_from([50000.0, 61000.5])),
                                 region="South") for s in states}
    n = draw(st.integers(1, 40))
    state = np.array(draw(st.lists(st.integers(0, len(states) - 1), min_size=n, max_size=n)),
                     np.intp)
    width = np.array(draw(st.lists(st.sampled_from([0.0, 3.0, 7.0, 45.0]), min_size=n,
                                   max_size=n)))
    return states, state, width, covars


@settings(max_examples=300, deadline=None)
@given(pattern_keys())
def test_patterns_number_keys_as_np_unique_does(keys):
    states, state, width, covars = keys
    rows, texts = tab_mod._state_rows(states, covars)
    number, pattern_state, pattern_width = tab_mod._patterns(texts, state, width)
    want, first = unique_patterns(*keys)
    assert number.tolist() == want.tolist()
    # Each pattern's row and text are its first key's, as join gives them.
    table = AnalysisTable(rows, texts, pattern_state, pattern_width, np.zeros(0, np.int32),
                          np.zeros(0, np.bool_))
    firsts = join([record(states[state[k]], 0, width=int(width[k])) for k in first], covars)
    assert table.X.tolist() == firsts.X.tolist() and table.text == firsts.text


class TestDescriptiveStats:
    def _rows(self, tw_values, sentiments=None):
        covars = {"NC": make_covariates("NC")}
        sentiments = sentiments or [i % 2 for i in range(len(tw_values))]
        return join(
            [record("NC", s, width=w) for w, s in zip(tw_values, sentiments)],
            covars,
        )

    def test_hand_example(self):
        stats = descriptive_stats(self._rows([1, 2, 3]))
        assert stats["TW"] == {"mean": 2.0, "sd": 1.0, "min": 1.0, "max": 3.0}

    def test_constant_column_sd_zero(self):
        stats = descriptive_stats(self._rows([5, 5, 5]))
        assert stats["TW"]["sd"] == 0.0

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        tw = rng.integers(6, 296, size=40).tolist()
        stats = descriptive_stats(self._rows(tw))
        x = np.array(tw, dtype=float)
        mean = sum(x) / len(x)
        sd = math.sqrt(sum((v - mean) ** 2 for v in x) / (len(x) - 1))
        assert stats["TW"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert stats["TW"]["sd"] == pytest.approx(sd, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            descriptive_stats(self._rows([5]))

    def test_min_mean_max_ordering(self):
        stats = descriptive_stats(self._rows([10, 20, 30, 40]))
        for s in stats.values():
            assert s["min"] <= s["mean"] <= s["max"]
            assert s["sd"] >= 0


# Published descriptive envelope (min, max) for each model variable; the
# bundled fixture must fall inside it for every column.
ENVELOPE = {
    "sentiment": (0.0, 1.0), "TW": (6.0, 296.0),
    "NE": (0.0, 1.0), "MW": (0.0, 1.0), "WEST": (0.0, 1.0),
    "L_FHH": (3.77, 4.32), "AFS": (2.85, 3.62), "EDU2": (30.02, 59.14),
    "EDU3": (3.01, 11.48), "AGE2": (18.10, 29.50), "WP": (25.60, 94.60),
    "OCH": (41.80, 72.90), "PWHI": (3.20, 20.00), "LF": (53.10, 69.70),
    "L_POPDEN": (0.18, 9.20), "CASES": (458.0, 19479.0), "PR": (7.60, 19.70),
    "MHHI": (48.49, 82604.0), "GR": (711.0, 1566.0),
}


def test_fixture_inside_published_envelope():
    covars = load_covariates(COVARIATES_FIXTURE)
    rng = np.random.default_rng(3)
    docs = [record(state, width=int(rng.integers(6, 297)), y=int(rng.integers(0, 2)))
            for state in sorted(covars)]
    stats = descriptive_stats(join(docs, covars))
    for name in ANALYSIS_COLUMNS:
        lo, hi = ENVELOPE[name]
        assert lo <= stats[name]["min"], f"{name} min below envelope"
        assert stats[name]["max"] <= hi, f"{name} max above envelope"


def test_analysis_csv_round_trip(tmp_path):
    covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA")}
    rows = join([record("NC", 1), record("CA", 0)], covars)
    path = tmp_path / "analysis.csv"
    write_analysis_csv(path, rows)
    assert read_analysis_csv(path) == list(rows)


def test_read_analysis_csv_missing_column(tmp_path):
    path = tmp_path / "analysis.csv"
    path.write_text(textwrap.dedent("""\
        sentiment,TW
        1,100
    """), encoding="utf-8")
    with pytest.raises(SchemaError):
        read_analysis_csv(path)


def test_read_analysis_csv_short_row(tmp_path):
    path = tmp_path / "analysis.csv"
    path.write_text(",".join(ANALYSIS_COLUMNS) + "\n1,100,0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"analysis\.csv:2: malformed row"):
        read_analysis_csv(path)


def test_patterns_csv_is_covariate_patterns_of_analysis_csv(tmp_path):
    # Few states and widths over many documents, so patterns repeat; two
    # states share every covariate, so one pattern spans two states.
    covars = {"NC": make_covariates("NC"), "SC": make_covariates("SC"),
              "CA": make_covariates("CA", FHH_pct=55.0)}
    rng = np.random.default_rng(19)
    states = sorted(covars)
    table = join([record(states[rng.integers(3)], width=int(rng.integers(6, 12)),
                         y=int(rng.integers(0, 2))) for _ in range(300)], covars)
    write_analysis_csv(tmp_path / "analysis.csv", table)
    write_patterns_csv(tmp_path / "patterns.csv", table)
    rows = read_analysis_csv(tmp_path / "analysis.csv")
    X = np.array([[getattr(r, c) for c in ANALYSIS_COLUMNS[1:]] for r in rows])
    # Group by value in first-occurrence order; several columns are constant
    # here, which a DesignMatrix refuses, so covariate_patterns cannot serve.
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(X.tolist()):
        groups.setdefault(tuple(row), []).append(i)
    patterns = read_patterns_csv(tmp_path / "patterns.csv")
    assert len(groups) < 20
    assert patterns.m.tolist() == [len(g) for g in groups.values()]
    assert patterns.y_sum.tolist() == [sum(rows[i].sentiment for i in g) for g in groups.values()]
    assert np.array_equal(patterns.X, X[[g[0] for g in groups.values()]])
    stats = descriptive_stats(table)
    for j, name in enumerate(ANALYSIS_COLUMNS[1:]):
        assert stats[name]["mean"] == pytest.approx(X[:, j].mean(), rel=1e-13)
        assert stats[name]["sd"] == pytest.approx(X[:, j].std(ddof=1), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("text", [
    "m,y_sum,TW\n1,0,5.0\n",
    "m,y_sum," + ",".join(ANALYSIS_COLUMNS[1:]) + "\n1,0\n",
    "m,y_sum," + ",".join(ANALYSIS_COLUMNS[1:]) + "\n1,0," + ",".join(["x"] * 18) + "\n",
])
def test_read_patterns_csv_malformed(tmp_path, text):
    path = tmp_path / "patterns.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError):
        read_patterns_csv(path)


def test_read_patterns_csv_header_only(tmp_path):
    path = tmp_path / "patterns.csv"
    path.write_text("m,y_sum," + ",".join(ANALYSIS_COLUMNS[1:]) + "\r\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="no covariate patterns"):
        read_patterns_csv(path)


# The reader decodes ahead of the lines, so the line named is the first it
# had not yet read: at or before the bad one. In pieces that is past every
# piece it parsed; a body read whole (here after a blank line) is named from
# line 2, and a bad byte in the first 8 KiB read from the header.
@pytest.mark.parametrize("blank, bad, named", [(False, 3000, (3, 3000)), (True, 3000, (2, 2)),
                                               (False, 20, (1, 1))],
                         ids=["pieces", "whole body", "first read"])
def test_read_patterns_csv_names_a_byte_that_is_not_utf8(tmp_path, blank, bad, named):
    lines = [",".join(PATTERN_COLUMNS)] + [f"1,0,{i}.0,{PATTERN_TAILS[0]}" for i in range(4000)]
    lines[bad - 1] = lines[bad - 1].replace(",0,", ",\xff,", 1)
    if blank:
        lines.insert(1, "")
    path = tmp_path / "patterns.csv"
    path.write_bytes("\r\n".join(lines).encode("latin-1"))
    with pytest.raises(SchemaError) as raised:
        read_patterns_csv(path)
    match = re.fullmatch(re.escape(str(path)) + r":(\d+): not UTF-8 at or after this line",
                         str(raised.value))
    assert match, raised.value
    assert named[0] <= int(match.group(1)) <= named[1]


def test_read_patterns_csv_equals_float_parse(tmp_path):
    # Every field parsed by Python's float(), the reader's former method.
    covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", MHHI=80123.45)}
    table = join([record(state, i % 2, width=w) for i, (state, w)
                  in enumerate([("NC", 7), ("CA", 11), ("NC", 7), ("CA", 3)])], covars)
    write_patterns_csv(tmp_path / "patterns.csv", table)
    with open(tmp_path / "patterns.csv", newline="", encoding="utf-8") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    patterns = read_patterns_csv(tmp_path / "patterns.csv")
    data = np.column_stack([patterns.m, patterns.y_sum, patterns.X])
    assert data.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("change, holds", [
    (lambda data: data, True),
    (lambda data: data[:9] + b"X" + data[10:], False),
    (lambda data: data[:-1] + b"X", False),
    (lambda data: data + b"\n", False),
    (lambda data: data[:-1], False),
    (lambda data: data[:14], False),
    (lambda data: b"", False),
], ids=["equal", "byte changed", "last byte changed", "one longer", "one shorter",
        "one piece shorter", "empty"])
def test_holds_compares_the_file_a_piece_at_a_time(tmp_path, monkeypatch, change, holds):
    # Pieces of 7 bytes: the 47-byte data ends inside its seventh.
    monkeypatch.setattr(tab_mod, "PATTERN_CHUNK_CHARS", 7)
    data = b"m,y_sum,TW\r\n1,0,2.0\r\n2,1,3.5\r\n3,3,4.25\r\n4,0,5\r\n"
    path = tmp_path / "patterns.csv"
    path.write_bytes(change(data))
    assert tab_mod._holds(path, data) is holds
    with pytest.raises(FileNotFoundError):
        tab_mod._holds(tmp_path / "missing.csv", data)


def test_holds_keeps_no_copy_of_the_file(tmp_path):
    data = bytes(range(256)) * 8192  # 2 MiB
    path = tmp_path / "patterns.csv"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        assert tab_mod._holds(path, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * tab_mod.PATTERN_CHUNK_CHARS


def loadtxt_reader(path):
    """read_patterns_csv as it parsed the body: in one np.loadtxt call."""
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
    return tab_mod.Patterns(X=data[:, 2:], m=data[:, 0], y_sum=data[:, 1])


def read_both(body: str):
    """read_patterns_csv's and the whole-body reader's arrays, or SchemaError,
    for a patterns.csv of body."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "patterns.csv"
        path.write_bytes((",".join(PATTERN_COLUMNS) + "\r\n" + body).encode())
        results = []
        for read in (read_patterns_csv, loadtxt_reader):
            try:
                results.append([(a.dtype, a.shape, a.tobytes()) for a in read(path)])
            except SchemaError:
                results.append(SchemaError)
        return results


# Covariate tails as join writes them (NC's and SC's are equal), and one
# spelled another way.
PATTERN_TAILS = [text.split(",", 1)[1] for text in join(
    [record(s, 0) for s in ("NC", "SC", "CA")],
    {"NC": make_covariates("NC"), "SC": make_covariates("SC"),
     "CA": make_covariates("CA", FHH_pct=55.0)}).text]
PATTERN_TAILS.append(PATTERN_TAILS[0].replace("0,0,0,", "0.0,0,-0,", 1))
ODD_PATTERN_FIELDS = ["1_9", "944.0 # x", '"19"', " 7 ", "\t3", "nan", "1e400", "", "x",
                      "7\r", "\r"]


@st.composite
def pattern_bodies(draw) -> str:
    lines = [[draw(st.sampled_from(["1", "12", "0", "3.0"])), draw(st.sampled_from(["0", "1"])),
              draw(st.sampled_from(["7.0", "45.0", "8"]))] + tail.split(",")
             for tail in draw(st.lists(st.sampled_from(PATTERN_TAILS), min_size=1, max_size=8))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(["field"] * 4 + ["blank", "whitespace", "short", "long"]))
        if odd == "field":
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(ODD_PATTERN_FIELDS))
        elif odd in ("blank", "whitespace"):
            lines.insert(i, [""] if odd == "blank" else [draw(st.sampled_from([" ", "\t", "  "]))])
        else:
            lines[i] = lines[i][:-1] if odd == "short" else lines[i] + ["1"]
    text = "".join(",".join(line) + draw(st.sampled_from(["\r\n", "\n"])) for line in lines)
    end = draw(st.sampled_from(["whole", "whole", "unterminated", "cut"]))
    if end == "unterminated":
        text = text.rstrip("\r\n")
    elif end == "cut":  # inside the last line's covariates
        text = text.rstrip("\r\n")[:-draw(st.integers(1, 60))]
    return text


ROW = "1,0,7.0," + PATTERN_TAILS[0]


# Whatever the body, read_patterns_csv gives the whole-body reader's arrays
# or, exactly when it does, a SchemaError.
@settings(max_examples=300, deadline=None)
@given(pattern_bodies())
@example(f"{ROW}\r\n\r\n{ROW}\r\n")                         # a blank line, accepted
@example(f"{ROW}\n \n{ROW}\n")                              # a whitespace-only line
@example(f"1_9,0,7.0,{PATTERN_TAILS[0]}\n")
@example(f"{ROW}\n{ROW[:-1]}944.0 # x\n")
@example(f'"19",0,7.0,{PATTERN_TAILS[0]}\n')
@example(f" 1 ,0, 7.0 ,{PATTERN_TAILS[0]} \n2,1,8.0,{PATTERN_TAILS[0]}\r\n")
@example(f"{ROW}\n{ROW.rsplit(',', 1)[0]}\n")               # a short row
@example(f"{ROW}\n{ROW},1\n")                               # a long row
@example(f"{ROW}\r\n{ROW[:-30]}")                           # cut inside its tail
@example(f"{ROW[:-30]}")                                    # the only line, cut
@example(f"nan,1e400,7.0,{PATTERN_TAILS[0]}\r\n")
@example(f"{ROW}\r{ROW}\r\n")                               # a bare CR
@example(f"{ROW}\r")                                        # a CR at the end
@example(f"1,0,7.0\r,{PATTERN_TAILS[0]}\r\n")               # a CR ending a head
@example(f"1,0,7.0,\r\n{ROW}\r\n")                          # a tail of a CR alone
@example("1,0,7.0,\n")                                      # the only tail, blank
def test_read_patterns_csv_equals_the_whole_body_parse(body):
    ours, oracle = read_both(body)
    assert ours == oracle


# The same, read a few characters to a few lines at a time: a read may end
# inside a line or between its CR and LF, and a later piece hold the first
# odd line or a new tail.
@settings(max_examples=300, deadline=None)
@given(pattern_bodies(), st.integers(min_value=1, max_value=400))
@example(f"{ROW}\r\n{ROW.replace(',0,0,0,', ',0.0,0,-0,', 1)}\r\n", 200)
@example(f"{ROW}\r\n\r\n{ROW}\r\n", 200)
@example(f"{ROW}\r\n{ROW},1\r\n", 200)
def test_read_patterns_csv_in_pieces_equals_the_whole_body_parse(body, chunk_chars):
    with mock.patch.object(tab_mod, "PATTERN_CHUNK_CHARS", chunk_chars):
        ours, oracle = read_both(body)
    assert ours == oracle


def test_read_patterns_csv_parses_each_distinct_tail_once(monkeypatch):
    parsed, loadtxt = [], tab_mod._loadtxt
    monkeypatch.setattr(tab_mod, "_loadtxt", lambda lines: parsed.append(lines) or loadtxt(lines))
    rows = [f"{i},0,{w}.0,{tail}" for i, (w, tail) in enumerate(
        [(7, PATTERN_TAILS[0]), (7, PATTERN_TAILS[2]), (8, PATTERN_TAILS[0])])]
    ours, oracle = read_both("\r\n".join(rows) + "\r\n")
    assert ours == oracle
    assert parsed == [[PATTERN_TAILS[0] + "\r", PATTERN_TAILS[2] + "\r"],
                      ["0,0,7.0", "1,0,7.0", "2,0,8.0"]]


# -- the patterns join hands to fit and diagnose, against patterns.csv's parse --

PERCENT = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 100.0]), st.floats(0.0, 100.0))
POSITIVE = st.one_of(st.sampled_from([1e-300, 1e300]), st.floats(1e-300, 1e300))
NONNEGATIVE = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1e300]), st.floats(0.0, 1e300))
COVARIATE_VALUES = {"FHH_pct": st.floats(1e-300, 100.0), "AFS": POSITIVE, "POPDEN": POSITIVE,
                    "CASES": NONNEGATIVE, "MHHI": NONNEGATIVE, "GR": NONNEGATIVE}


def covariates_file_row(state, **overrides):
    """A state covariates file's row for make_covariates(state, **overrides)."""
    c = make_covariates(state, **overrides)
    return [repr(v) if isinstance(v, float) else v
            for v in (getattr(c, name) for name in tab_mod._COVARIATE_COLUMNS)]


@st.composite
def covariate_rows(draw):
    states = draw(st.lists(st.sampled_from(sorted(REGION_OF_STATE)), min_size=1, max_size=4,
                           unique=True))
    return [covariates_file_row(state, **{name: draw(COVARIATE_VALUES.get(name, PERCENT))
                                    for name in tab_mod._COVARIATE_COLUMNS[1:-1]})
            for state in states]


SCORED_KEYS = st.lists(st.tuples(st.integers(0, 3), st.text("0123456789", min_size=1, max_size=12),
                                 st.sampled_from("01")), min_size=2, max_size=40)


# The design read_design builds from what stage_join holds is, in every
# byte, dtype, shape and layout, the one it parses from patterns.csv.
@settings(max_examples=150, deadline=None)
@given(covariate_rows(), SCORED_KEYS)
@example([covariates_file_row("NC", CASES=-0.0), covariates_file_row("SC", CASES=0.0)],
         [(0, "7", "1"), (1, "7", "0"), (0, "999999999999", "1"), (1, "07", "1")])
@example([covariates_file_row("NC", FHH_pct=1e-300, AFS=1e300, POPDEN=1e-300, CASES=1e-300,
                        MHHI=1e300, GR=1e-300)],
         [(0, "1", "0"), (0, "000000000001", "1"), (0, "123456789012", "0")])
def test_join_hands_over_the_patterns_that_patterns_csv_parses_to(rows, keys):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "covariates.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([tab_mod._COVARIATE_COLUMNS, *rows])
        (tmp / "scored.csv").write_text("".join(
            [",".join(SCORED_COLUMNS) + "\r\n"] + [f"t{i},{rows[s % len(rows)][0]},{w},0.5,Positive,{b}\r\n"
                                                for i, (s, w, b) in enumerate(keys)]))
        config = PipelineConfig(corpus=tmp / "corpus.csv", covariates=tmp / "covariates.csv",
                                out=tmp)
        with np.errstate(all="ignore"):  # descriptive_stats on values near 1e300
            stage_join(config)
        held = tab_mod._read_written(tmp / "patterns.csv", config._patterns, 1)
        parsed = tab_mod._read_patterns(tmp / "patterns.csv", 1)
    held.X[:, 0] = parsed.X[:, 0] = 1.0  # the intercept read_design fills
    for ours, theirs in zip(held, parsed):
        assert (ours.dtype, ours.shape, ours.flags.c_contiguous, ours.tobytes()) == (
            theirs.dtype, theirs.shape, theirs.flags.c_contiguous, theirs.tobytes())


# -- read_scored: the block path against the per-record join -------------------

SCORED_HEADERS = ["id,state,text_width,score,class,binary"] * 4 + [
    "binary,text_width,state", "state,id,binary,text_width", "binary,state,text_width,id,class,score"]
# Fields as sentireg writes them, then odd ones: states with no covariate
# row, and the forms the kernel leaves to the per-record join. A file is drawn
# plain and gets a few odd lines, which often sit in a later block than plain ones.
PLAIN_FIELDS = {"id": ["t1", "t22", "t333", "x\x00"], "state": ["NC", "CA"],
                "text_width": ["7", "63", "007", "0", "999999999999"], "score": ["0.5"],
                "class": ["Positive"], "binary": ["0", "1"]}
ODD_FIELDS = {"id": ['"a,b"', '"q""t"', "é1"], "state": ["WY", "", "N", "NCX", "é"],
              "text_width": ["+5", " 5", "5_0", "1" * 13, "", "x7", "9" * 400],
              "binary": ["01", " 1", "2", ""]}


@st.composite
def scored_files(draw) -> bytes:
    header = draw(st.sampled_from(SCORED_HEADERS)).split(",")
    lines = [[draw(st.sampled_from(PLAIN_FIELDS[c])) for c in header]
             for _ in range(draw(st.integers(0, 10)))]
    eols = [draw(st.sampled_from(["\r\n", "\n"])) for _ in range(len(lines) + 1)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(["field"] * 4 + ["bare CR", "blank", "extra", "short"]))
        if odd == "bare CR":
            eols[i + 1] = "\r"
        elif odd != "field":
            lines[i] = {"blank": [], "extra": lines[i] + ["x"], "short": lines[i][:-1]}[odd]
        elif len(lines[i]) == len(header):  # not made blank, longer or shorter before
            c = draw(st.sampled_from(sorted(set(header) & set(ODD_FIELDS))))
            lines[i][header.index(c)] = draw(st.sampled_from(ODD_FIELDS[c]))
    text = "".join(",".join(line) + eol for line, eol in zip([header] + lines, eols))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line without a terminator
    return ("\ufeff" if draw(st.integers(0, 4)) == 0 else "").encode() + text.encode()


def joined(run):
    """What a join gives: the table's fields, or the error's type and text."""
    try:
        table = run()
    except Exception as exc:
        return type(exc), str(exc)
    return (table.X.tolist(), table.X.shape, table.X.dtype, table.text,
            table.pattern.dtype, table.pattern.tolist(), table.y.dtype, table.y.tolist())


def join_both(data: bytes, block_bytes: int, field_limit: int = csv.field_size_limit()):
    """For a scored.csv of data: whether read_scored read all of it in
    blocks, no block declined and no record read after them; its result;
    and its result with every block declined, which forces the per-record
    join, no block taken."""
    covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", FHH_pct=55.0)}
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tab_mod, "JOIN_BLOCK_BYTES", block_bytes):
            path = Path(tmp) / "scored.csv"
            path.write_bytes(data)
            with handovers() as reads:
                result = joined(lambda: tab_mod.read_scored(path, covars))
            with records_only():
                per_record = joined(lambda: tab_mod.read_scored(path, covars))
            (read,) = reads
            return not read["declined"] and read["records"] == 0, result, per_record
    finally:
        csv.field_size_limit(old_limit)


def read_in_blocks(path: Path, covars: dict) -> AnalysisTable:
    """read_scored's table of a scored.csv that it reads all in blocks."""
    with handovers() as reads:
        table = tab_mod.read_scored(path, covars)
    assert [(read["declined"], read["records"]) for read in reads] == [(False, 0)]
    return table


PLAIN = b"id,state,text_width,score,class,binary\r\n" + b"".join(
    b"t%d,%s,%d,s,c,%d\r\n" % (i, b"NC" if i % 3 else b"CA", 7 + i % 4, i % 2) for i in range(12))


# The block path either declines and the per-record join runs, or gives the
# per-record join's table or error.
@settings(max_examples=300, deadline=None)
@given(scored_files(), st.integers(min_value=8, max_value=64),
       st.sampled_from([csv.field_size_limit()] * 3 + [40]))
@example(PLAIN, 40, csv.field_size_limit())
@example(PLAIN + b'"q,t",NC,7,s,c,1\r\n', 40, csv.field_size_limit())  # in a later block
@example(PLAIN + "é,NC,7,s,c,1\r\n".encode(), 40, csv.field_size_limit())
@example(PLAIN + b"t,WY,7,s,c,1\r\n", 40, csv.field_size_limit())
def test_join_blocks_equals_the_per_record_join(data, block_bytes, field_limit):
    _, result, per_record = join_both(data, block_bytes, field_limit)
    assert result == per_record


@pytest.mark.parametrize("tail, widths", [
    (b"", [7.0, 8.0, 9.0, 10.0]),
    (b"t,CA,007,s,c,1\nt,NC,999999999999,s,c,0", [7.0, 8.0, 9.0, 10.0, 999999999999.0]),
])
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
def test_join_blocks_reads_plain_blocks(tail, widths, bom):
    # LF and CRLF mixed, a last line without one, blocks of a line or two,
    # after a byte-order mark or none
    took, result, per_record = join_both(bom + PLAIN + tail, 40)
    assert took and result == per_record
    assert sorted({c[0] for c in result[0]}) == widths


@pytest.mark.parametrize("change", [
    lambda d: d.replace(b"\r\n", b"\r", 1),              # a bare CR
    lambda d: d + b"\r\n",                               # a blank line
    lambda d: d + b"t,NC,7,s,c,1\r",                      # a CR at the end of the file
    lambda d: d + b'"t",NC,7,s,c,1\r\n',                  # a quote
    lambda d: d + b"t,NC,7,s,c,1,x\r\n",                  # an extra field
    lambda d: d + b"t,NCX,7,s,c,1\r\n",                   # a state of 3 bytes
    lambda d: d + b"t,NC,+5,s,c,1\r\n",                   # a width int() takes
    lambda d: d + b"t,NC,1234567890123,s,c,1\r\n",        # 13 digits
    lambda d: d + b"t,NC,,s,c,1\r\n",                     # an empty width
    lambda d: d + b"t,NC,7,s,c,01\r\n",                   # a binary int() takes
    lambda d: d + b"t\r1,NC,7,s,c,1\r\n",                 # a bare CR inside a field
    lambda d: d + b"t\x00,NC,7,s,c,1\r\n",                # a NUL, which csv.reader reads as data
    lambda d: d + b"t\xe9,NC,7,s,c,1\r\n",                # a byte that is not UTF-8
    lambda d: d.replace(b"score,class,", b"", 1),         # no score and class columns
    lambda d: d.replace(b"text_width,score", b"score,text_width", 1),  # another order
])
def test_join_blocks_declines_what_is_not_plain(change):
    took, result, per_record = join_both(change(PLAIN), 40)
    assert not took and result == per_record


# In 40-byte blocks the long line is carried over a block boundary; in 4096,
# one block holds it.
@pytest.mark.parametrize("block_bytes", [40, 4096])
@pytest.mark.parametrize("data", [b"id,state,text_width,score,class,binary,c" + b"c" * 40 + b"\r\n",
                                  PLAIN + b"t" * 48 + b",NC,7,s,c,1\r\n"])
def test_join_blocks_declines_a_field_over_the_limit(data, block_bytes):
    took, result, per_record = join_both(data, block_bytes, field_limit=40)
    assert not took and result == per_record and per_record[0] is SchemaError
    assert per_record[1].endswith("field larger than field limit (40)")


def test_join_blocks_lists_missing_states_as_join_does():
    took, result, per_record = join_both(PLAIN + b"t,WY,7,s,c,1\r\nt,,7,s,c,0\r\n", 40)
    assert took and result == per_record == (
        tab_mod.MissingStatesError, "no covariate row for state(s): ['', 'WY']")


def test_patterns_are_built_once_per_table():
    table = join([record("NC", 1), record("NC", 0, width=7)], {"NC": make_covariates("NC")})
    assert table.patterns is table.patterns
    assert table.patterns.m.tolist() == [1, 1] and table.patterns.y_sum.tolist() == [1, 0]


# NC and SC share every covariate, so one pattern spans both states; CA differs.
SHARED_COVARIATES = {"NC": make_covariates("NC"), "SC": make_covariates("SC"),
                     "CA": make_covariates("CA", FHH_pct=55.0)}


def covariate_row(c: StateCovariates, width: str) -> tuple:
    """A document's regressors, from its state's covariates by hand."""
    return (float(int(width)), int(c.region == "Northeast"), int(c.region == "Midwest"),
            int(c.region == "West"), math.log(c.FHH_pct), c.AFS, c.EDU2, c.EDU3, c.AGE2, c.WP,
            c.OCH, c.PWHI, c.LF, math.log(c.POPDEN), c.CASES, c.PR, c.MHHI, c.GR)


# Both join paths group the documents' covariate rows by value, in
# first-occurrence order. In blocks of a line or two, a later block often
# brings a key that sorts before every key seen (CA after NC or SC).
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(SHARED_COVARIATES)),
                          st.sampled_from(["7", "007", "9", "12", "0"]), st.sampled_from("01")),
                max_size=30),
       st.integers(min_value=8, max_value=64))
@example([("SC", "12", "0"), ("NC", "9", "1"), ("CA", "7", "1"), ("NC", "012", "0")], 24)
def test_both_join_paths_group_covariate_rows_by_value(docs, block_bytes):
    groups: dict[tuple, list[int]] = {}
    for i, (state, width, _) in enumerate(docs):
        groups.setdefault(covariate_row(SHARED_COVARIATES[state], width), []).append(i)
    number = {row: j for j, row in enumerate(groups)}
    want_X = np.array(list(groups), dtype=float).reshape(len(groups), len(ANALYSIS_COLUMNS) - 1)
    data = "id,state,text_width,score,class,binary\r\n" + "".join(
        f"t{i},{state},{width},0.5,Positive,{binary}\r\n"
        for i, (state, width, binary) in enumerate(docs))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tab_mod, "JOIN_BLOCK_BYTES", block_bytes):
        path = Path(tmp) / "scored.csv"
        path.write_text(data, encoding="utf-8", newline="")
        blocks = read_in_blocks(path, SHARED_COVARIATES)
    per_record = join([(i + 2, *doc) for i, doc in enumerate(docs)], SHARED_COVARIATES)
    for table in (blocks, per_record):
        assert table.pattern.tolist() == [
            number[covariate_row(SHARED_COVARIATES[s], w)] for s, w, _ in docs]
        assert table.text == [",".join(map(repr, row)) for row in groups]
        X, m, y_sum = table.patterns
        assert (X.dtype, X.shape, X.tobytes()) == (want_X.dtype, want_X.shape, want_X.tobytes())
        assert m.tolist() == [len(g) for g in groups.values()]
        assert y_sum.tolist() == [sum(int(docs[i][2]) for i in g) for g in groups.values()]


def test_analysis_table_refuses_other_dtypes():
    # patterns and write_analysis_csv take y as a mask: an int y would index rows.
    patterns = (np.zeros((1, len(ANALYSIS_COLUMNS) - 2)), ["0"], np.zeros(1, np.intp),
                np.zeros(1))
    with pytest.raises(TypeError, match="pattern must be int32 and y bool"):
        AnalysisTable(*patterns, np.zeros(2, np.int32), np.array([0, 1]))
    with pytest.raises(TypeError):
        AnalysisTable(*patterns, np.zeros(2, np.intp), np.zeros(2, np.bool_))
    assert len(AnalysisTable(*patterns, np.zeros(2, np.int32), np.zeros(2, np.bool_))) == 2


def test_analysis_table_slices_as_a_list_of_its_rows():
    covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", MHHI=80123.45)}
    table = join([record(state, i % 2, width=w) for i, (state, w) in enumerate(
        [("NC", 7), ("CA", 11), ("NC", 7), ("CA", 3), ("NC", 9)])], covars)
    rows = list(table)
    assert len(rows) == 5 and rows[1].TW == 11.0 and rows[3].sentiment == 1
    for part in (slice(1, 3), slice(None), slice(-2, None), slice(None, -1),
                 slice(None, None, 2), slice(4, 0, -2), slice(None, None, -1), slice(7, 9)):
        assert table[part] == rows[part], part
    assert table[-1] == rows[-1]


# NC and SC share every covariate; CA and NY differ, with long reprs.
WRITER_COVARIATES = {**SHARED_COVARIATES,
                     "NY": make_covariates("NY", FHH_pct=61.7, POPDEN=421.3, MHHI=72108.25)}


def normalized_writers_oracle(docs) -> dict[str, bytes]:
    """analysis_table.csv, patterns.csv and descriptives.csv for docs of
    (state, width text, binary) as join wrote them when it held each
    pattern's CSV text, f"{w!r},{state text}", and its row of a matrix made
    by np.column_stack, and descriptive_stats took each column of that."""
    texts, rows, number, first = {}, {}, {}, []
    for state, width, _ in docs:
        c = WRITER_COVARIATES[state]
        row = covariate_row(c, width)[1:]
        texts[state] = ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        rows[state] = row
        key = (row, float(int(width)))
        if key not in number:
            number[key] = len(number)
            first.append((state, float(int(width))))
    text = [f"{w!r},{texts[s]}" for s, w in first]
    X = np.column_stack([np.array([w for _, w in first]),
                         np.array([rows[s] for s, _ in first], dtype=float)])
    pattern = [number[covariate_row(WRITER_COVARIATES[s], w)[1:], float(int(w))]
               for s, w, _ in docs]
    y = [int(b) for _, _, b in docs]
    m = np.bincount(pattern, minlength=len(text))
    y_sum = np.bincount(pattern, weights=y, minlength=len(text)).astype(np.int64)
    n, positives = len(docs), float(y_sum.sum())
    w = np.array([n - positives, positives])
    stats = {"sentiment": tab_mod._weighted_stats(np.array([0.0, 1.0])[w > 0], w[w > 0], n)}
    w = m.astype(float)
    kept = w > 0
    for j, name in enumerate(ANALYSIS_COLUMNS[1:]):
        stats[name] = tab_mod._weighted_stats(X[kept, j], w[kept], n)
    with tempfile.TemporaryDirectory() as tmp:
        tab_mod.write_descriptives_csv(Path(tmp) / "descriptives.csv", stats)
        descriptives = (Path(tmp) / "descriptives.csv").read_bytes()
    eol = "\r\n"
    return {
        "analysis_table.csv": (",".join(ANALYSIS_COLUMNS) + eol + "".join(
            f"{b},{text[j]}{eol}" for b, j in zip(y, pattern))).encode(),
        "patterns.csv": (",".join(PATTERN_COLUMNS) + eol + "".join(
            f"{a},{b},{t}{eol}" for a, b, t in zip(m.tolist(), y_sum.tolist(), text))).encode(),
        "descriptives.csv": descriptives,
    }


# Both join paths' tables write the bytes of the old per-pattern texts and
# matrix: states that share a covariate row, repeated widths, widths of up
# to 12 digits, and chunks of a few rows, so a chunk repeats widths.
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(WRITER_COVARIATES)),
                          st.one_of(st.sampled_from(["7", "007", "45", "0"]),
                                    st.integers(0, 10**12 - 1).map(str)),
                          st.sampled_from("01")),
                min_size=2, max_size=40),
       st.sampled_from([1, 3, 1024]))
@example([("NC", "999999999999", "1"), ("SC", "7", "0"), ("NC", "007", "1"),
          ("NY", "100000000000", "0")], 3)
def test_normalized_writers_write_the_old_bytes(docs, chunk_rows):
    want = normalized_writers_oracle(docs)
    data = "id,state,text_width,score,class,binary\r\n" + "".join(
        f"t{i},{state},{width},0.5,Positive,{binary}\r\n"
        for i, (state, width, binary) in enumerate(docs))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tab_mod, "ANALYSIS_CHUNK_ROWS", chunk_rows):
        tmp = Path(tmp)
        (tmp / "scored.csv").write_text(data, encoding="utf-8", newline="")
        blocks = read_in_blocks(tmp / "scored.csv", WRITER_COVARIATES)
        per_record = join([(i + 2, *doc) for i, doc in enumerate(docs)], WRITER_COVARIATES)
        for table in (blocks, per_record):
            write_analysis_csv(tmp / "analysis_table.csv", table)
            write_patterns_csv(tmp / "patterns.csv", table)
            tab_mod.write_descriptives_csv(tmp / "descriptives.csv", descriptive_stats(table))
            assert {name: (tmp / name).read_bytes() for name in want} == want
