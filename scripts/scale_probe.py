"""Time and size each pipeline stage, and one whole run, at a corpus size.

    python scripts/scale_probe.py N [--corpus tweets|wide-vocab|late-quote|mid-quote|quoted]
                                    [--work DIR]

Writes an N-document corpus as corpus.csv in DIR (a temp directory by
default): make_fixtures.make_corpus(7, n_docs=N), the paper's tweet shape
with about a hundred words, or with --corpus wide-vocab the benchmark's
perfbench/widevocab.make_corpus(7, N), whose vocabulary grows with N (it is
read, not changed). --corpus late-quote is the tweet corpus with one more
row last, whose id "x,1" csv.writer quotes in corpus.csv, tokens.csv and
scored.csv alike: each of preprocess, score and join reads its blocks and
then hands the last line over to csv.reader. --corpus mid-quote is the
tweet corpus with a row of id "y,2" after document N // 2: from about 4000
documents, where that row lies past score's and join's first 64 KiB block,
each of preprocess, score and join hands over to csv.reader in the middle
of the file, and join numbers covariate patterns on both sides of the
hand-over. --corpus quoted is the tweet
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
     "max_rss_mb": ...}, ...}, "unfitted_diagnose": {...}, "run_pipeline": {...}}

"unfitted_diagnose" is one more diagnose child, in DIR/unfitted: it starts
from a copy of DIR/staged's six artifacts up to join's, with no fit run
there, as diagnose fits the patterns.csv it reads.

Then it compares the ten artifacts in DIR/staged and in DIR/unfitted with
DIR/run byte for byte: the staged children, a config each, parse
patterns.csv in fit and diagnose, while run_pipeline's one config hands
join's patterns to them in memory. Exits non-zero when a child fails, or
naming each directory and artifact that differs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("preprocess", "score", "join", "fit", "diagnose")
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ARTIFACTS = ("tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv",
             "descriptives.csv", "patterns.csv", "fit_report.json", "fit_report.txt",
             "margins.csv", "qq.csv")


CORPORA = {"tweets": ROOT / "scripts" / "make_fixtures.py",
           "wide-vocab": ROOT / "perfbench" / "widevocab.py",
           "late-quote": ROOT / "scripts" / "make_fixtures.py",
           "mid-quote": ROOT / "scripts" / "make_fixtures.py",
           "quoted": ROOT / "scripts" / "make_fixtures.py"}
LATE_ROW = ("x,1", "NC", "good day")  # the late-quote corpus's last row
MID_ROW = ("y,2", "NC", "good day")  # the mid-quote corpus's row after document N // 2


def child(stage: str, work: Path, n_docs: int, corpus: str) -> None:
    """Write the corpus, or run one stage (or "run" for run_pipeline) and
    print its seconds and max RSS."""
    if stage == "corpus":
        sys.path.insert(0, str(CORPORA[corpus].parent))
        generator = importlib.import_module(CORPORA[corpus].stem)
        docs = generator.make_corpus(7, n_docs) + [LATE_ROW] * (corpus == "late-quote")
        if corpus == "mid-quote":
            docs.insert(n_docs // 2, MID_ROW)
        if corpus == "quoted":
            docs = [(doc_id, state, text + ",") for doc_id, state, text in docs]
        return generator.write_corpus_csv(work / "corpus.csv", docs)
    sys.path.insert(0, str(ROOT / "src"))
    from sentireg import pipeline

    out = work / (stage if stage in ("run", "unfitted") else "staged")
    config = pipeline.PipelineConfig(
        corpus=work / "corpus.csv", out=out,
        covariates=pipeline.default_data_path("state_covariates.csv"))
    out.mkdir(exist_ok=True)
    call = {"run": pipeline.run_pipeline, "unfitted": pipeline.stage_diagnose}.get(
        stage) or getattr(pipeline, f"stage_{stage}")
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


def differing(work: Path) -> list[str]:
    """Each artifact of work/staged and work/unfitted, as "dir/name", whose
    bytes differ from work/run's."""
    return [f"{where}/{name}" for where in ("staged", "unfitted") for name in ARTIFACTS
            if (work / where / name).read_bytes() != (work / "run" / name).read_bytes()]


def probe(n_docs: int, work: Path, corpus: str) -> tuple[dict, list[str]]:
    compile_src()
    launch("corpus", work, n_docs, corpus)
    stages = {stage: launch(stage, work, n_docs, corpus) for stage in STAGES}
    (work / "unfitted").mkdir(exist_ok=True)
    for name in ARTIFACTS[:6]:
        shutil.copy(work / "staged" / name, work / "unfitted" / name)
    result = {"n_docs": n_docs, "corpus": corpus, "stages": stages,
              "unfitted_diagnose": launch("unfitted", work, n_docs, corpus),
              "run_pipeline": launch("run", work, n_docs, corpus)}
    return result, differing(work)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_docs", type=int, metavar="N")
    parser.add_argument("--corpus", choices=tuple(CORPORA), default="tweets",
                        help="corpus generator (default: tweets)")
    parser.add_argument("--work", type=Path, help="directory for the corpus and artifacts")
    parser.add_argument("--child", choices=("corpus", *STAGES, "unfitted", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.work, args.n_docs, args.corpus)
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
        result, differ = probe(args.n_docs, args.work, args.corpus)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result, differ = probe(args.n_docs, Path(tmp), args.corpus)
    print(json.dumps(result))
    if differ:
        raise SystemExit(f"artifacts differ from run_pipeline's: {', '.join(differ)}")


if __name__ == "__main__":
    main()
