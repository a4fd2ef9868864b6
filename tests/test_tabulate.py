import csv
import math
import re
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import tabulate as tab_mod
from sentireg.corpus import SchemaError, _NotPlain
from sentireg.pipeline import default_data_path
from sentireg.tabulate import (
    ANALYSIS_COLUMNS,
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
        assert [c[0] for c in read.covariates] == [7.0, 11.0, 3.0, 11.0]
        assert read.pattern.tolist() == [0, 1, 0, 2, 3]
        assert read.y.dtype == np.int64 and read.y.tolist() == [0, 1, 0, 1, 0]

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
    return (table.covariates, table.text, table.pattern.dtype, table.pattern.tolist(),
            table.y.dtype, table.y.tolist())


def not_plain(*args):
    raise _NotPlain


def join_both(data: bytes, block_bytes: int, field_limit: int = csv.field_size_limit()):
    """Whether read_scored took the block path for a scored.csv of data; its
    result; and its result with plain_blocks declining every file, which
    forces the per-record join."""
    covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", FHH_pct=55.0)}
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tab_mod, "JOIN_BLOCK_BYTES", block_bytes):
            path = Path(tmp) / "scored.csv"
            path.write_bytes(data)
            declined, kernel = [], tab_mod._join_blocks

            def recorded(*args):
                try:
                    return kernel(*args)
                except _NotPlain:
                    declined.append(True)
                    raise

            with mock.patch.object(tab_mod, "_join_blocks", recorded):
                result = joined(lambda: tab_mod.read_scored(path, covars))
            with mock.patch.object(tab_mod, "plain_blocks", not_plain):
                per_record = joined(lambda: tab_mod.read_scored(path, covars))
            return not declined, result, per_record
    finally:
        csv.field_size_limit(old_limit)


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
def test_join_blocks_reads_plain_blocks(tail, widths):
    # LF and CRLF mixed, a last line without one, blocks of a line or two
    took, result, per_record = join_both(PLAIN + tail, 40)
    assert took and result == per_record
    assert sorted({c[0] for c in result[0]}) == widths


@pytest.mark.parametrize("change", [
    lambda d: "\ufeff".encode() + d,                      # a byte-order mark
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
