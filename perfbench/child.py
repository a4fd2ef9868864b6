"""One measured run of the sentireg chain, in a fresh process.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/child.py --corpus CSV --out DIR
        --stages preprocess,score,... --mode plain|trace|mem --t0 SECONDS

`--t0` is the parent's `time.perf_counter()` just before it started this
process. On Linux that clock is system-wide, so set-up time runs from
process start until `sentireg` is imported and its bundled resources are
loaded. The run then calls the named `sentireg.pipeline.stage_*` functions
in order and prints one JSON line: set-up seconds, seconds per stage, peak
resident memory and, per mode, the calibration samples taken during the stages
(`plain`, `trace`, see `HostSpeed`), span totals (`trace`) or per-stage
tracemalloc peaks (`mem`). A stage that raises ends the process with a traceback and a
non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

CAL_TEXT = " ".join(f"Word{i % 251} #Tag{i % 13}" for i in range(400))
CAL_ROUNDS = 20
SAMPLE_EVERY_S = 0.08


def calibrate() -> float:
    """Seconds a fixed pure-Python loop of string and dict work takes, a
    few milliseconds on a quiet host."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(CAL_ROUNDS):
        for word in CAL_TEXT.split():
            key = word.lower().strip("#")
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class HostSpeed:
    """Times `calibrate` once at entry and then every SAMPLE_EVERY_S seconds
    of wall time, from a SIGALRM handler in the main thread, until exit.

    The host the baseline was measured on is shared. Over milliseconds to
    minutes it moves between a quiet state and one in which Python runs
    about 1.8x slower. Samples taken all through a run's stages tell how
    much of each state the run saw, and run.py scales the run's times by
    their mean. The samples' own time is in `busy_s`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.busy_s += time.perf_counter() - t

    def __enter__(self) -> HostSpeed:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--stages", required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "mem"), default="plain")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import sentireg
    from sentireg import corpus, diagnostics, logit, pipeline, sentiment, tabulate

    config = pipeline.PipelineConfig(
        corpus=args.corpus, covariates=pipeline.default_data_path("state_covariates.csv"),
        out=args.out,
    )
    corpus.load_wordlist(config.stopwords)
    corpus.load_wordlist(config.slang)
    corpus.load_stem_rules(config.stem_rules)
    corpus.load_tsv_map(config.lemmas)
    sentiment.load_lexicon(config.lexicon, config.negators, config.amplifiers)
    tabulate.load_covariates(config.covariates)
    setup_s = time.perf_counter() - args.t0

    stages = args.stages.split(",")
    funcs = [getattr(pipeline, f"stage_{name}") for name in stages]
    result: dict = {"setup_s": setup_s}

    tracer = None
    if args.mode == "trace":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, [sentireg, corpus, sentiment, tabulate, logit, diagnostics, pipeline])
    if args.mode == "mem":
        tracemalloc.start()
        peaks = {}
        start = time.perf_counter()
        for name, fn in zip(stages, funcs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(config)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        result["run_s"] = time.perf_counter() - start
        tracemalloc.stop()
        result["peak_mb"] = peaks
    else:
        # Stage times leave out the sampler's time; spans include it.
        stage_s = {}
        with HostSpeed() as host:
            for name, fn in zip(stages, funcs):
                t, busy = time.perf_counter(), host.busy_s
                with tracer.span(f"pipeline.{name}") if tracer else nullcontext():
                    fn(config)
                stage_s[name] = time.perf_counter() - t - (host.busy_s - busy)
        result.update(run_s=sum(stage_s.values()), stage_s=stage_s, cal_s=host.samples,
                      busy_s=host.busy_s)
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["n_spans"] = len(tracer.start)

    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
