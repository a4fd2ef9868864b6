"""Per-row memory guards: what preprocess and join hold grows by a few bytes
a row. Each test takes the traced heap's peak (tracemalloc, which numpy's
buffers report to) at two corpus sizes and bounds its growth per extra row,
so the per-block and per-pattern parts, equal at both sizes, cancel."""

import codecs
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from sentireg import corpus as corpus_mod
from sentireg import tabulate as tab_mod
from sentireg.corpus import WordNormalizer
from sentireg.pipeline import default_data_path
from sentireg.sentiment import SCORED_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
SIZES = (5_000, 20_000)


def make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "scripts" / "make_fixtures.py")
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


def bytes_per_extra_row(run_at) -> float:
    """The growth of run_at(n)'s traced peak per row from SIZES[0] to SIZES[1],
    each run once untraced first so that caches it fills are full."""
    peaks = []
    for n in SIZES:
        run = run_at(n)
        run()
        peaks.append(traced_peak(run))
    return (peaks[1] - peaks[0]) / (SIZES[1] - SIZES[0])


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
def test_preprocess_holds_under_16_bytes_per_row(tmp_path, monkeypatch, bom):
    # A set of every id held about 180 bytes a row; a hash of each holds 8.
    # A corpus with a byte-order mark takes the block path too.
    monkeypatch.setattr(corpus_mod, "CorpusReader", None)  # the block path only
    fixtures, normalize = make_fixtures(), WordNormalizer()

    def run_at(n):
        corpus = tmp_path / "corpus.csv"
        fixtures.write_corpus_csv(corpus, fixtures.make_corpus(7, n_docs=n))
        corpus.write_bytes(bom + corpus.read_bytes())
        return lambda: corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", normalize)

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
