import csv
import math
import re
import textwrap

import numpy as np
import pytest

from sentireg.corpus import SchemaError
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
    return (line, state, width, y)


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
        # scored.csv's fields arrive as strings and give the same table as ints.
        covars = {"NC": make_covariates("NC"), "CA": make_covariates("CA", FHH_pct=55.0)}
        records = [record(s, i % 2, width=w) for i, (s, w)
                   in enumerate([("NC", 7), ("CA", 11), ("NC", 7), ("CA", 3), ("NC", 11)])]
        typed = join(records, covars)
        read = join(iter([(line, s, str(w), str(y)) for line, s, w, y in records]), covars)
        assert read.text == typed.text and read.covariates == typed.covariates
        assert read.pattern.tolist() == typed.pattern.tolist() == [0, 1, 0, 2, 3]
        assert read.y.dtype == np.int64 and read.y.tolist() == typed.y.tolist()

    def test_non_integer_width_rejected(self):
        with pytest.raises(ValueError):
            join([(2, "NC", "7.5", "1")], {"NC": make_covariates("NC")})

    # int() takes " 1", "+1", "01" and 0.7 too; a binary must be one sentireg writes.
    @pytest.mark.parametrize("binary", [5, -3, "2", " 1", "+1", "01", "1.0", "", 0.7, None])
    def test_binary_outside_0_1_rejected(self, binary):
        message = f"^4: binary must be 0 or 1, got {re.escape(repr(binary))}$"
        with pytest.raises(ValueError, match=message):
            join([record("NC", 1), record("NC", "0", line=3), record("NC", binary, line=4)],
                 {"NC": make_covariates("NC")})
        with pytest.raises(TypeError):
            join([(2, "NC", 7.5, 1)], {"NC": make_covariates("NC")})

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
