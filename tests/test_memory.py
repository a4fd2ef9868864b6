"""Memory guards: what preprocess and join hold grows by a few bytes a row,
whatever the corpus's vocabulary; what join holds grows by a few words a
pattern; what the pattern artifacts' writer and reader hold does not grow
with the patterns, or stays within a few times the file; fit's and
diagnose's design is made once and never copied; and what diagnose holds
beside it grows by a few words a pattern. Most tests take the
traced heap's peak (tracemalloc, which numpy's buffers report to) at two
sizes and bound its growth per extra row or pattern, so the parts equal at
both sizes cancel."""

import codecs
import csv
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sentireg import corpus as corpus_mod
from sentireg import pipeline as pipeline_mod
from sentireg import tabulate as tab_mod
from sentireg.corpus import WordNormalizer
from sentireg.diagnostics import marginal_effects
from sentireg.logit import DesignMatrix, LogitFit
from sentireg.pipeline import (PipelineConfig, default_data_path, read_design, stage_diagnose,
                               stage_fit, stage_join)
from sentireg.sentiment import SCORED_COLUMNS

from handover import handovers

ROOT = Path(__file__).resolve().parents[1]
SIZES = (5_000, 20_000)


def corpus_generator(path: str):
    """A corpus generator of this checkout, loaded from its file: the
    paper's tweet shape (scripts/make_fixtures.py) or the benchmark's
    corpus whose vocabulary grows with it (perfbench/widevocab.py)."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak(run) -> int:
    """How far the traced heap grew above where it stood while run() ran."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def bytes_per_extra_row(run_at, sizes=SIZES) -> float:
    """The growth of run_at(n)'s traced peak per row from sizes[0] to sizes[1],
    each run once untraced first so that caches it fills are full."""
    peaks = []
    for n in sizes:
        run = run_at(n)
        run()
        peaks.append(traced_peak(run))
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
def test_preprocess_holds_under_16_bytes_per_row(tmp_path, bom):
    # A set of every id held about 180 bytes a row; a hash of each holds 8.
    # A corpus with a byte-order mark takes the block path too.
    fixtures, normalize = corpus_generator("scripts/make_fixtures.py"), WordNormalizer()

    def run_at(n):
        corpus = tmp_path / "corpus.csv"
        fixtures.write_corpus_csv(corpus, fixtures.make_corpus(7, n_docs=n))
        corpus.write_bytes(bom + corpus.read_bytes())

        def run():
            with handovers() as reads:
                corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", normalize)
            assert [(r["declined"], r["records"]) for r in reads] == [(False, 0)]  # blocks only

        return run

    assert bytes_per_extra_row(run_at) < 16


def test_preprocess_on_a_growing_vocabulary_holds_under_16_bytes_per_row(tmp_path):
    # Both sizes hold more distinct words than MEMO_WORDS; each run builds
    # its memo afresh. An unbounded memo held about 520 bytes a row. The
    # texts are quoted, so CorpusReader reads them, in batches.
    generator = corpus_generator("perfbench/widevocab.py")

    def run_at(n):
        corpus = tmp_path / "corpus.csv"
        generator.write_corpus_csv(corpus, generator.make_corpus(7, n))
        return lambda: corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", WordNormalizer())

    assert bytes_per_extra_row(run_at, (4_000, 12_000)) < 16


def test_per_record_preprocess_holds_under_16_bytes_per_row(tmp_path):
    # Another column order sends the corpus to CorpusReader, which held a
    # set of every id (about 180 bytes a row) and now holds a hash of each.
    fixtures = corpus_generator("scripts/make_fixtures.py")

    def run_at(n):
        corpus = tmp_path / "corpus.csv"
        with open(corpus, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("state", "id", "text")] + [
                (state, doc_id, text) for doc_id, state, text in fixtures.make_corpus(7, n)])
        return lambda: corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", WordNormalizer())

    assert bytes_per_extra_row(run_at) < 16


def test_join_holds_under_8_bytes_per_row(tmp_path, monkeypatch):
    # Five states and seven widths: 35 keys, so only per-row state grows. An
    # intp pattern number and an int64 outcome per row, each copied as the
    # blocks are joined and again for the analysis_table.csv line numbers,
    # held about 34 bytes a row. An int32 and a bool in per-block arrays,
    # joined into a copy and counted and written a chunk at a time, held
    # about 10 from 2e4 to 2e5 rows. One buffer each, grown as the blocks
    # are read and renumbered in place, holds about 5.2; the per-block
    # arrays and the joined copy, or a wider type, put back, cross 8.
    monkeypatch.setattr(tab_mod, "JOIN_BLOCK_BYTES", 4096)  # a small per-block part
    covars = tab_mod.load_covariates(default_data_path("state_covariates.csv"))
    states = ("NC", "CA", "NY", "TX", "OH")

    def run_at(n):
        lines = [",".join(SCORED_COLUMNS)] + [
            f"t{i},{states[i % 5]},{10 + i % 7},0.5,Positive,{int(i % 3 == 0)}" for i in range(n)]
        (tmp_path / "scored.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")

        def run():
            with handovers() as reads:
                table = tab_mod.read_scored(tmp_path / "scored.csv", covars)
            assert [(r["declined"], r["records"]) for r in reads] == [(False, 0)]  # blocks only
            assert table.counts[0].sum() == n
            tab_mod.write_analysis_csv(tmp_path / "analysis_table.csv", table)

        return run

    assert bytes_per_extra_row(run_at, (20_000, 200_000)) < 8


def test_join_holds_under_128_bytes_per_pattern(tmp_path):
    # 20 000 documents over 500 or 10 500 patterns, all 51 states at ever
    # more widths, through the whole join stage. A patterns x 18 matrix, a
    # second one stacked to make it and a CSV text per pattern held about
    # 550 bytes a pattern; a state number, a width and two counts hold 32,
    # and the per-key arrays of numbering them a few times that for a while.
    covariates = default_data_path("state_covariates.csv")
    states = sorted(tab_mod.load_covariates(covariates))
    config = PipelineConfig(corpus=tmp_path / "corpus.csv", covariates=covariates, out=tmp_path)

    def run_at(n_patterns):
        lines = [",".join(SCORED_COLUMNS)] + [
            f"t{i},{states[k % 51]},{1 + k // 51},0.5,Positive,{i % 2}"
            for i, k in enumerate(np.arange(20_000) % n_patterns)]
        (tmp_path / "scored.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        return lambda: stage_join(config)

    assert bytes_per_extra_row(run_at, (500, 10_500)) < 128


@pytest.mark.parametrize("n_patterns", [5_100, 20_400])
def test_join_hands_fit_under_200_bytes_per_pattern(tmp_path, n_patterns):
    # 51 states at 100 or 400 widths, two documents each. What stage_join
    # leaves on its config for fit and diagnose: patterns.csv's bytes, about
    # 125 a pattern here, and a state, a width and two counts, 32. The
    # patterns x 18 matrix beside them would add 144, and any per-document
    # array 5 or more.
    covariates = default_data_path("state_covariates.csv")
    lines = [",".join(SCORED_COLUMNS)] + [
        f"t{i},{state},{width},0.5,Positive,{i % 2}" for i, (state, width) in enumerate(
            (s, w) for s in sorted(tab_mod.load_covariates(covariates))
            for w in range(1, n_patterns // 51 + 1) for _ in range(2))]
    (tmp_path / "scored.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    config = PipelineConfig(corpus=tmp_path / "corpus.csv", covariates=covariates, out=tmp_path)
    stage_join(config)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stage_join(config)  # what it held from the first join is not traced
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(config._patterns.state) == n_patterns
    assert (tmp_path / "patterns.csv").stat().st_size < held < 200 * n_patterns


def pattern_table(n_patterns: int, n_rows: int = 20_000) -> tab_mod.AnalysisTable:
    """A table of n_rows documents over n_patterns patterns of 51 states
    whose texts are as long as a real state's, at 8-digit widths."""
    rng = np.random.default_rng(5)
    text = "0,0,0,4.1805,3.2,47.0,8.3,22.0,70.0,62.0,10.0,63.0,5.3,5000.0,13.0,60000.0,1000.0"
    return tab_mod.AnalysisTable(
        rows=np.zeros((51, len(tab_mod.ANALYSIS_COLUMNS) - 2)), texts=[text] * 51,
        state=np.arange(n_patterns) % 51, width=10_000_000.0 + np.arange(n_patterns),
        pattern=rng.integers(0, n_patterns, n_rows).astype(np.int32),
        y=rng.integers(0, 2, n_rows).astype(np.bool_))


def test_write_analysis_csv_holds_nothing_per_pattern(tmp_path):
    # Two lines formatted ahead for each pattern held about 310 bytes a pattern.
    peaks = [traced_peak(lambda: tab_mod.write_analysis_csv(tmp_path / "analysis.csv", table))
             for table in map(pattern_table, (500, 10_500))]
    assert (peaks[1] - peaks[0]) / 10_000 < 8


def test_read_patterns_csv_holds_under_2_5_times_the_file(tmp_path):
    # 51 states at 150 widths, about as many patterns as wide-vocab's. The
    # whole body with its lines, heads and tails lists held 7 times the
    # file; the parsed array alone is about 1.3 times it.
    covars = tab_mod.load_covariates(default_data_path("state_covariates.csv"))
    table = tab_mod.join([(2, state, str(width), "1") for state in sorted(covars)
                          for width in range(1, 151)], covars)
    path = tmp_path / "patterns.csv"
    tab_mod.write_patterns_csv(path, table)
    tab_mod.read_patterns_csv(path)
    assert traced_peak(lambda: tab_mod.read_patterns_csv(path)) < 2.5 * path.stat().st_size


def test_read_design_holds_under_1_9_times_the_design(tmp_path):
    # 51 states at 100 widths: 5 100 patterns. The patterns.csv array, an
    # intercept column and the design stacked from them held about 2.18
    # times the design; the file read into the design itself, with m and
    # y_sum and the parse's per-line parts, about 1.7.
    covars = tab_mod.load_covariates(default_data_path("state_covariates.csv"))
    table = tab_mod.join([(2, state, str(width), str(width % 2)) for state in sorted(covars)
                          for width in range(1, 101)], covars)
    tab_mod.write_patterns_csv(tmp_path / "patterns.csv", table)
    config = PipelineConfig(corpus=tmp_path / "corpus.csv", covariates=tmp_path / "c.csv",
                            out=tmp_path)
    design = read_design(config)
    assert design.X.shape == (5_100, 19)
    assert traced_peak(lambda: read_design(config)) < 1.9 * design.X.nbytes


def test_marginal_effects_makes_no_copy_of_the_design():
    # A scratch copy of X held 1 times X's bytes; the n-vectors of the
    # products, a few at a time, hold under a half on a 19-column design.
    rng = np.random.default_rng(3)
    n, kinds = 20_000, dict.fromkeys(("NE", "MW", "WEST"), "discrete")
    kinds.update({f"x{j}": "continuous" for j in range(15)})
    X = np.column_stack([np.ones(n), *(rng.integers(0, 2, (3, n))),
                         rng.standard_normal((n, 15))])
    m = rng.integers(1, 5, n)
    design = DesignMatrix(X=X, y=rng.binomial(m, 0.4), m=m, names=("Constant", *kinds))
    result = LogitFit(names=design.names, beta=np.full(19, 0.01), cov=np.eye(19) * 1e-4,
                      std_err=np.full(19, 0.01), z=np.ones(19), p=np.full(19, 0.3),
                      ll=-1.0, ll0=-2.0, n_obs=design.n_obs, n_iter=1, converged=True)
    marginal_effects(result, design, kinds)
    assert traced_peak(lambda: marginal_effects(result, design, kinds)) < 0.5 * X.nbytes


def test_diagnose_holds_under_100_bytes_per_pattern_beside_the_design(tmp_path, monkeypatch):
    # 51 states at 100 or 400 widths: 5 100 or 20 400 patterns, fitted, then
    # diagnosed with the design already read. qq_export's list of
    # (quantile, residual) tuples, formatted all at once, held about 160
    # bytes a pattern; its two arrays, formatted 1024 lines at a time, and
    # the other diagnostics' n-vectors hold about 73.
    covars = tab_mod.load_covariates(default_data_path("state_covariates.csv"))
    rng = np.random.default_rng(1)

    def run_at(n_patterns):
        rows = [(i, state, str(width), str(int(rng.random() < 0.4))) for i, (state, width)
                in enumerate((s, w) for s in sorted(covars)
                             for w in range(1, n_patterns // 51 + 1) for _ in range(2))]
        tab_mod.write_patterns_csv(tmp_path / "patterns.csv", tab_mod.join(rows, covars))
        config = PipelineConfig(corpus=tmp_path / "corpus.csv", covariates=tmp_path / "c.csv",
                                out=tmp_path)
        stage_fit(config)
        design = read_design(config)
        assert len(design.X) == n_patterns
        monkeypatch.setattr(pipeline_mod, "read_design", lambda config: design)
        return lambda: stage_diagnose(config)

    assert bytes_per_extra_row(run_at, (5_100, 20_400)) < 100
