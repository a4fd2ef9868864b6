"""sentireg benchmark: runs one workload, prints every metric with its unit,
and checks the outputs.

    python3 perfbench/run.py --workload tweets|wide-vocab|refit \
        --seed N --seconds S --trace 0|1

The corpus is generated from the seed and written to `.perfbench_work/`.
For `refit`, the preprocess and score stages then run once, untimed. Then, for
about `--seconds` seconds (at least three runs), a closed loop with one
client starts one fresh single-threaded Python process at a time
(`perfbench/child.py`), each running the workload's timed
`sentireg.pipeline.stage_*` functions in order on its own output directory.
BLAS is pinned to one thread. With `--trace 0` the end-to-end metrics are
medians over those runs. With `--trace 1` untraced and traced runs
alternate, one last run measures per-stage tracemalloc peaks, and the
per-layer metrics are medians over the traced runs. The tracing overhead is
`trace.overhead_s`, the traced minus the untraced median `run_s`.

Every time reported is in reference seconds. The host this benchmark was
built on is shared, and how fast it runs Python drifts by up to 1.8x over
milliseconds to minutes. So each run also times a fixed calibration loop
every 80 ms all through its stages (`child.HostSpeed`), and its times are
scaled by `CAL_REF_S` over the mean of those samples. On that host (2-vCPU
Xeon, 2.1 GHz) a run's wall time and the mean of its samples correlate at
0.98, and the scaling cut the spread between runs of one invocation from
12% to 3% of their mean on `wide-vocab`. The wall-clock seconds and the
samples are kept in `result.json`.

A run fails if a stage raises, if its artifacts differ in any byte from the
first run's, or if the output checks in `checks.py` fail. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import widevocab  # noqa: E402
from spans import FUNCTION_SPANS  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
DEFAULT_SEED = 7
MIN_RUNS = 3
# The calibration loop's median time on the 2-vCPU Xeon host the baseline
# was measured on, so that reference seconds there read about as wall seconds.
CAL_REF_S = 0.0038
CHILD_TIMEOUT_S = 150
STAGES = ("preprocess", "score", "join", "fit", "diagnose")


@dataclass(frozen=True)
class Workload:
    corpus: str                      # "tweets" or "wide-vocab"
    n_docs: int
    prepared: tuple[str, ...] = ()   # stages run once, untimed, before the loop

    @property
    def timed(self) -> tuple[str, ...]:
        return tuple(s for s in STAGES if s not in self.prepared)


WORKLOADS = {
    "tweets": Workload("tweets", 20_000),
    "wide-vocab": Workload("wide-vocab", 10_000),
    "refit": Workload("tweets", 20_000, prepared=("preprocess", "score")),
}


def write_corpus(kind: str, seed: int, n_docs: int, path: Path) -> None:
    if kind == "tweets":
        spec = importlib.util.spec_from_file_location(
            "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
        fixtures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fixtures)
        docs = fixtures.make_corpus(seed, n_docs=n_docs)
    else:
        docs = widevocab.make_corpus(seed, n_docs)
    widevocab.write_corpus_csv(path, docs)


@dataclass
class Run:
    mode: str
    wall_s: float
    result: dict | None = None
    error: str | None = None


def launch(corpus_csv: Path, out: Path, stages: tuple[str, ...], mode: str) -> Run:
    cmd = [sys.executable, str(HERE / "child.py"), "--corpus", str(corpus_csv),
           "--out", str(out), "--stages", ",".join(stages), "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env={**os.environ, **BLAS_ENV}, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Run(mode, time.perf_counter() - t0, error=f"timed out after {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return Run(mode, wall, error=f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return Run(mode, wall, result=json.loads(proc.stdout.strip().splitlines()[-1]))


def environment() -> dict:
    import numpy
    import sentireg

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sentireg": sentireg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def workload_counters(out: Path, corpus_csv: Path) -> dict[str, tuple[float, str]]:
    """Counts and ratios of the work the layers did, read from the artifacts."""
    from sentireg.corpus import tokenize
    from sentireg.pipeline import default_data_path
    from sentireg.sentiment import load_lexicon

    with open(out / "tokens.csv", newline="", encoding="utf-8") as fh:
        kept = {r["id"]: r["tokens"].split() for r in csv.DictReader(fh)}
    with open(corpus_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    words = [w.lower() for r in rows if r["id"] in kept for w in tokenize(r["text"]).normalized]
    tokens = [t for ts in kept.values() for t in ts]
    valences = load_lexicon(default_data_path("lexicon.tsv")).valences
    matched = sum(t in valences for t in tokens)
    with open(out / "scored.csv", newline="", encoding="utf-8") as fh:
        binary = [int(r["binary"]) for r in csv.DictReader(fh)]
    report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    n_patterns = report["diagnostics"]["pearson"]["n_patterns"]
    return {
        "corpus.docs": (len(kept), "count"),
        "corpus.docs_dropped": (len(rows) - len(kept), "count"),
        "corpus.tokens": (len(tokens), "count"),
        "corpus.distinct_word_share": (len(set(words)) / len(words), "ratio"),
        "sentiment.match_rate": (matched / len(tokens), "ratio"),
        "sentiment.positive_share": (sum(binary) / len(binary), "ratio"),
        "logit.fit.n_iter": (report["n_iter"], "count"),
        "diagnostics.n_patterns": (n_patterns, "count"),
        "diagnostics.pattern_share": (n_patterns / report["n_obs"], "ratio"),
    }


def to_reference(result: dict) -> float:
    """Factor that turns a run's wall seconds into reference seconds."""
    return CAL_REF_S / statistics.mean(result["cal_s"])


def end_to_end_metrics(runs: list[Run], n_docs: int) -> dict[str, tuple[float, str]]:
    ok = [r.result for r in runs if r.error is None and r.mode == "plain"]
    run_s = statistics.median(r["run_s"] * to_reference(r) for r in ok)
    return {
        "run_s": (run_s, "s"),
        "docs_per_s": (n_docs / run_s, "docs/s"),
        "setup_s": (statistics.median(r["setup_s"] * to_reference(r) for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }


def per_layer_metrics(runs: list[Run], wl: Workload, out: Path,
                      corpus_csv: Path) -> dict[str, tuple[float, str]]:
    ok = [r for r in runs if r.error is None]
    traced = [r.result for r in ok if r.mode == "trace"]
    plain = [r.result for r in ok if r.mode == "plain"]
    mem = [r.result for r in ok if r.mode == "mem"]

    def med(key: str, field: str) -> float:
        scale = (lambda t: 1) if field == "calls" else to_reference
        return statistics.median(t["spans"].get(key, {}).get(field, 0) * scale(t)
                                 for t in traced)

    metrics: dict[str, tuple[float, str]] = {}
    for fn in FUNCTION_SPANS:
        metrics[f"{fn}.s"] = (med(fn, "s"), "s")
        metrics[f"{fn}.calls"] = (med(fn, "calls"), "count")
    for stage in STAGES:
        metrics[f"pipeline.{stage}.s"] = (med(f"pipeline.{stage}", "s"), "s")
        metrics[f"pipeline.{stage}.self_s"] = (med(f"pipeline.{stage}", "self_s"), "s")
        peak = mem[0]["peak_mb"].get(stage, 0.0) if mem else 0.0
        metrics[f"pipeline.{stage}.peak_mb"] = (peak, "MB")
    for name in checks.ARTIFACTS:
        metrics[f"pipeline.bytes_written.{name}"] = ((out / name).stat().st_size, "bytes")
    metrics.update(workload_counters(out, corpus_csv))

    traced_s = statistics.median(t["run_s"] * to_reference(t) for t in traced)
    plain_s = statistics.median(p["run_s"] * to_reference(p) for p in plain)
    # Spans include the calibration samples' time, run_s does not.
    stage_share = statistics.median(
        sum(t["spans"][f"pipeline.{s}"]["s"] for s in wl.timed) / (t["run_s"] + t["busy_s"])
        for t in traced)
    metrics.update({
        "trace.run_s": (traced_s, "s"),
        "trace.untraced_run_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.stage_share": (stage_share, "ratio"),
        "trace.spans": (statistics.median(t["n_spans"] for t in traced), "count"),
        "host.cal_s": (statistics.median(c for r in traced + plain for c in r["cal_s"]), "s"),
        "fail_share": (sum(r.error is not None for r in runs) / len(runs), "ratio"),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path | None = None, n_docs: int | None = None) -> dict:
    """Run one workload and return the result object, plus `env` and `errors`.

    `work` and `n_docs` default to the benchmark's own directory and size;
    the tests pass smaller ones.
    """
    wl = WORKLOADS[workload]
    n_docs = n_docs or wl.n_docs
    work = work or WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus_csv = work / "corpus.csv"
    write_corpus(wl.corpus, seed, n_docs, corpus_csv)

    prepared = work / "prepared"
    prepared.mkdir()
    if wl.prepared:
        prep = launch(corpus_csv, prepared, wl.prepared, "plain")
        if prep.error is not None:
            raise RuntimeError(f"preparation failed: {prep.error}")

    runs: list[Run] = []
    errors: list[str] = []
    first: tuple[Path, dict] | None = None

    def run_once(mode: str) -> None:
        nonlocal first
        out = work / f"run-{len(runs)}"
        shutil.copytree(prepared, out)
        run = launch(corpus_csv, out, wl.timed, mode)
        if run.error is None:
            digests = checks.artifact_digests(out)
            if first is None:
                first = (out, digests)
            elif digests != first[1]:
                differ = sorted(k for k in digests if digests[k] != first[1].get(k))
                run.error = f"artifacts differ from the first run's: {differ}"
        if run.error is not None:
            errors.append(f"run {len(runs)} ({mode}): {run.error}")
        runs.append(run)
        if first is None or out != first[0]:
            shutil.rmtree(out)

    modes = ("plain", "trace") if trace else ("plain",)
    min_runs = 2 if trace else MIN_RUNS
    start = time.perf_counter()
    while True:
        for mode in modes:
            run_once(mode)
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / (len(runs) / len(modes))
        if len(runs) >= min_runs and elapsed + per_cycle > seconds:
            break
    if trace:
        run_once("mem")

    if first is None:
        raise RuntimeError("every run failed:\n" + "\n".join(errors))
    out = first[0]
    check_errors = checks.score_equations(out)
    if seed == DEFAULT_SEED and n_docs == wl.n_docs:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        check_errors += checks.compare_reference(checks.summarize(out),
                                                 reference["corpora"][wl.corpus])
    if check_errors:
        # Every successful run wrote the same bytes, so every one fails the check.
        for run in runs:
            run.error = run.error or "output check failed"
        errors += [f"output check: {e}" for e in check_errors]

    failed = sum(r.error is not None for r in runs)
    if failed == len(runs):
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(runs, wl, out, corpus_csv)
    else:
        metrics = end_to_end_metrics(runs, n_docs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(),
        "errors": errors,
        "runs": [{"mode": r.mode, "wall_s": r.wall_s, "error": r.error,
                  **{k: (r.result or {}).get(k)
                     for k in ("setup_s", "run_s", "stage_s", "cal_s", "peak_rss_mb")}}
                 for r in runs],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "sentireg" / "__init__.py",
                           ROOT / "scripts" / "make_fixtures.py") if not p.is_file()]
    if missing:
        print(f"cannot run: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in result["errors"]:
        print(f"FAILED {line}")
    ok = [r for r in result["runs"] if r["error"] is None]
    print(f"workload {args.workload}, seed {args.seed}: {len(ok)} successful runs, wall-clock run_s "
          + " ".join(f"{r['mode']}:{r['run_s']:.3f}" for r in ok))
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    (WORK / args.workload / "result.json").write_text(
        json.dumps({**summary, "seed": args.seed, "trace": args.trace,
                    **{k: result[k] for k in ("env", "errors", "runs")}}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
