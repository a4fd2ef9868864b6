"""Tests of the benchmark itself: the wide-vocab generator, the transparency
of the span wrappers, and the metric names against BENCHMARK.json."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SMALL = 400


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load("run")
widevocab = _load("widevocab")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_widevocab_same_seed_same_bytes(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        widevocab.write_corpus_csv(path, widevocab.make_corpus(seed, SMALL))
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()


def test_widevocab_bytes_do_not_depend_on_hash_seed():
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import widevocab; "
            "print(hashlib.sha256(repr(widevocab.make_corpus(9, 300)).encode()).hexdigest())")
    digests = {
        subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True,
                       check=True, env={"PYTHONHASHSEED": hs}).stdout
        for hs in ("1", "2")
    }
    assert len(digests) == 1


def test_widevocab_has_the_properties_it_exists_for():
    from sentireg import corpus
    from sentireg.pipeline import default_data_path

    docs = widevocab.make_corpus(3, run.WORKLOADS["wide-vocab"].n_docs)
    kept = [text for _, state, text in docs if state in corpus.STATE_CODES]
    assert 0 < len(docs) - len(kept) < 0.02 * len(docs)
    words = [[w.lower() for w in corpus.tokenize(text).normalized] for text in kept]
    assert all(8 <= len(ws) <= 45 for ws in words)
    flat = [w for ws in words for w in ws]
    assert len(set(flat)) / len(flat) >= 0.25

    lemmas = corpus.load_tsv_map(default_data_path("lemmas.tsv"))
    rules = corpus.load_stem_rules(default_data_path("stem_rules.tsv"))
    stream = corpus.TokenStream("x", tuple(corpus.Token(w, w, i) for i, w in enumerate(flat)))
    stemmed = corpus.stem(stream, rules).normalized
    assert sum(w in lemmas for w in flat) > 0.01 * len(flat)
    assert sum(w not in lemmas and s != w for w, s in zip(flat, stemmed)) > 0.01 * len(flat)


@pytest.mark.parametrize("corpus_kind", ["tweets", "wide-vocab"])
def test_traced_and_memory_runs_write_the_same_bytes(tmp_path, corpus_kind):
    corpus_csv = tmp_path / "corpus.csv"
    run.write_corpus(corpus_kind, 7, SMALL, corpus_csv)
    digests = {}
    for mode in ("plain", "trace", "mem"):
        out = tmp_path / mode
        out.mkdir()
        result = run.launch(corpus_csv, out, run.STAGES, mode)
        assert result.error is None, result.error
        digests[mode] = run.checks.artifact_digests(out)
        if mode != "mem":
            assert list(result.result["stage_s"]) == list(run.STAGES)
            assert result.result["cal_s"] and min(result.result["cal_s"]) > 0
    assert len(digests["plain"]) == len(run.checks.ARTIFACTS)
    assert digests["plain"] == digests["trace"] == digests["mem"]


@pytest.mark.parametrize("workload,trace", [
    ("tweets", False), ("tweets", True), ("wide-vocab", True), ("refit", True),
])
def test_printed_metrics_are_the_declared_ones(tmp_path, workload, trace):
    result = run.measure(workload, seed=7, seconds=0, trace=trace,
                         work=tmp_path / workload, n_docs=SMALL)
    assert result["correct"], result["errors"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tweets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
