"""Memory guards: what preprocess and join hold grows by a few bytes a row,
whatever the corpus's vocabulary, and what the pattern artifacts' writer and
reader hold does not grow with the patterns, or stays within a few times the
file. Most tests take the traced heap's peak (tracemalloc, which numpy's
buffers report to) at two sizes and bound its growth per extra row or
pattern, so the parts equal at both sizes cancel."""

import codecs
import csv
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sentireg import corpus as corpus_mod
from sentireg import tabulate as tab_mod
from sentireg.corpus import WordNormalizer
from sentireg.pipeline import default_data_path
from sentireg.sentiment import SCORED_COLUMNS

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
def test_preprocess_holds_under_16_bytes_per_row(tmp_path, monkeypatch, bom):
    # A set of every id held about 180 bytes a row; a hash of each holds 8.
    # A corpus with a byte-order mark takes the block path too.
    monkeypatch.setattr(corpus_mod, "CorpusReader", None)  # the block path only
    fixtures, normalize = corpus_generator("scripts/make_fixtures.py"), WordNormalizer()

    def run_at(n):
        corpus = tmp_path / "corpus.csv"
        fixtures.write_corpus_csv(corpus, fixtures.make_corpus(7, n_docs=n))
        corpus.write_bytes(bom + corpus.read_bytes())
        return lambda: corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", normalize)

    assert bytes_per_extra_row(run_at) < 16


def test_preprocess_on_a_growing_vocabulary_holds_under_16_bytes_per_row(tmp_path, monkeypatch):
    # Both sizes hold more distinct words than MEMO_WORDS; each run builds
    # its memo afresh. An unbounded memo held about 520 bytes a row.
    monkeypatch.setattr(corpus_mod, "CorpusReader", None)  # the block path only
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


def test_join_holds_under_16_bytes_per_row(tmp_path, monkeypatch):
    # Five states and seven widths: 35 keys, so only per-row state grows. An
    # intp pattern number and an int64 outcome per row, each copied as the
    # blocks are joined and again for the analysis_table.csv line numbers,
    # held about 34 bytes a row; an int32 and a bool, counted and written a
    # chunk at a time, hold about 11 (the blocks' arrays and the joined one
    # are held at once). Any one of those copies or wider types, put back,
    # crosses 18.
    monkeypatch.setattr(tab_mod, "JOIN_BLOCK_BYTES", 4096)  # a small per-block part
    monkeypatch.setattr(tab_mod, "join", None)  # the block path only
    covars = tab_mod.load_covariates(default_data_path("state_covariates.csv"))
    states = ("NC", "CA", "NY", "TX", "OH")

    def run_at(n):
        lines = [",".join(SCORED_COLUMNS)] + [
            f"t{i},{states[i % 5]},{10 + i % 7},0.5,Positive,{int(i % 3 == 0)}" for i in range(n)]
        (tmp_path / "scored.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")

        def run():
            table = tab_mod.read_scored(tmp_path / "scored.csv", covars)
            assert table.patterns.m.sum() == n
            tab_mod.write_analysis_csv(tmp_path / "analysis_table.csv", table)

        return run

    assert bytes_per_extra_row(run_at) < 16


def pattern_table(n_patterns: int, n_rows: int = 20_000) -> tab_mod.AnalysisTable:
    """A table of n_rows documents over n_patterns patterns whose texts are
    all as long as a real pattern's."""
    rng = np.random.default_rng(5)
    tail = ",0,0,0,4.1805,3.2,47.0,8.3,22.0,70.0,62.0,10.0,63.0,5.3,5000.0,13.0,60000.0,1000.0"
    return tab_mod.AnalysisTable(
        X=np.zeros((n_patterns, len(tab_mod.ANALYSIS_COLUMNS) - 1)),
        text=[f"{k:08d}.0{tail}" for k in range(n_patterns)],
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
