"""Time and size each pipeline stage, and one whole run, at a corpus size.

    python scripts/scale_probe.py N [--corpus tweets|wide-vocab|late-quote|quoted] [--work DIR]

Writes an N-document corpus as corpus.csv in DIR (a temp directory by
default): make_fixtures.make_corpus(7, n_docs=N), the paper's tweet shape
with about a hundred words, or with --corpus wide-vocab the benchmark's
perfbench/widevocab.make_corpus(7, N), whose vocabulary grows with N (it is
read, not changed). --corpus late-quote is the tweet corpus with one more
row last, whose id "x,1" csv.writer quotes in corpus.csv, tokens.csv and
scored.csv alike: each of preprocess, score and join reads its blocks and
then hands the last line over to csv.reader. --corpus quoted is the tweet
corpus with a comma appended to every text, so csv.writer quotes every text
in corpus.csv, as real tweets with commas and quotes are quoted: preprocess
reads all of it with csv.reader, in record batches. Then it runs each stage
of sentireg.pipeline in order, each in a fresh Python process, and one
run_pipeline in another fresh process on its own output directory. Before
them it compiles this checkout's src/ in a child that may write bytecode
(PYTHONDONTWRITEBYTECODE unset), so that no stage child spends time and
memory compiling a changed module. Each child imports sentireg from this
checkout's src/ with BLAS pinned to one thread, and reports the seconds its
stage took and its max RSS (resource.getrusage, which counts the import
baseline too). Linux
carries a process's max RSS over into the processes it starts, so the
corpus is written in a child too, and this process imports nothing that
would raise the children's. Prints one JSON line:

    {"n_docs": N, "corpus": "tweets", "stages": {"preprocess": {"s": ...,
     "max_rss_mb": ...}, ...}, "run_pipeline": {"s": ..., "max_rss_mb": ...}}

Exits non-zero when a child fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("preprocess", "score", "join", "fit", "diagnose")
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


CORPORA = {"tweets": ROOT / "scripts" / "make_fixtures.py",
           "wide-vocab": ROOT / "perfbench" / "widevocab.py",
           "late-quote": ROOT / "scripts" / "make_fixtures.py",
           "quoted": ROOT / "scripts" / "make_fixtures.py"}
LATE_ROW = ("x,1", "NC", "good day")  # the late-quote corpus's last row


def child(stage: str, work: Path, n_docs: int, corpus: str) -> None:
    """Write the corpus, or run one stage (or "run" for run_pipeline) and
    print its seconds and max RSS."""
    if stage == "corpus":
        sys.path.insert(0, str(CORPORA[corpus].parent))
        generator = importlib.import_module(CORPORA[corpus].stem)
        docs = generator.make_corpus(7, n_docs) + [LATE_ROW] * (corpus == "late-quote")
        if corpus == "quoted":
            docs = [(doc_id, state, text + ",") for doc_id, state, text in docs]
        return generator.write_corpus_csv(work / "corpus.csv", docs)
    sys.path.insert(0, str(ROOT / "src"))
    from sentireg import pipeline

    out = work / ("run" if stage == "run" else "staged")
    config = pipeline.PipelineConfig(
        corpus=work / "corpus.csv", out=out,
        covariates=pipeline.default_data_path("state_covariates.csv"))
    out.mkdir(exist_ok=True)
    call = pipeline.run_pipeline if stage == "run" else getattr(pipeline, f"stage_{stage}")
    start = time.perf_counter()
    call(config)
    seconds = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"s": round(seconds, 3), "max_rss_mb": round(rss_kb / 1024, 1)}))


def launch(stage: str, work: Path, n_docs: int, corpus: str) -> dict | None:
    """Run child(stage) in a fresh process; what it printed, read as JSON."""
    proc = subprocess.run([sys.executable, __file__, str(n_docs), "--child", stage,
                           "--corpus", corpus, "--work", str(work)],
                          capture_output=True, text=True, env={**os.environ, **BLAS_ENV})
    if proc.returncode:
        raise SystemExit(f"{stage} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def compile_src() -> None:
    """Write src/'s bytecode, in a child whose environment allows it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], env=env,
                   check=True)


def probe(n_docs: int, work: Path, corpus: str) -> dict:
    compile_src()
    launch("corpus", work, n_docs, corpus)
    return {"n_docs": n_docs, "corpus": corpus,
            "stages": {stage: launch(stage, work, n_docs, corpus) for stage in STAGES},
            "run_pipeline": launch("run", work, n_docs, corpus)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_docs", type=int, metavar="N")
    parser.add_argument("--corpus", choices=tuple(CORPORA), default="tweets",
                        help="corpus generator (default: tweets)")
    parser.add_argument("--work", type=Path, help="directory for the corpus and artifacts")
    parser.add_argument("--child", choices=("corpus", *STAGES, "run"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.work, args.n_docs, args.corpus)
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
        result = probe(args.n_docs, args.work, args.corpus)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = probe(args.n_docs, Path(tmp), args.corpus)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
