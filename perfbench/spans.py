"""In-memory span recorder that wraps sentireg's public functions from outside.

A span is a name, the index of the span that was open when it started, and
its start and end times. Spans are kept in flat arrays until the run ends,
so recording one costs two clock reads and a few appends.

`install` replaces a function at every module attribute bound to it, which
is where callers look it up: `pipeline` calls `corpus_mod.preprocess`,
`corpus.preprocess` calls its module's `tokenize`, and `diagnostics`, which
imports `predict_prob` by name, calls its own binding of it. Nothing under
`src/` is edited.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from types import ModuleType

# Public functions of each layer module that a run of the chain reaches.
# sentireg.special is not wrapped: its time counts in the calling span.
TRACED = {
    "corpus": ("load_corpus", "load_wordlist", "load_stem_rules", "load_tsv_map",
               "preprocess", "tokenize", "lowercase", "remove_stopwords",
               "lemmatize", "stem"),
    "sentiment": ("load_lexicon", "score", "aggregate_by_state", "write_scored_csv",
                  "write_state_summary_csv"),
    "tabulate": ("load_covariates", "join", "descriptive_stats", "write_analysis_csv",
                 "read_analysis_csv", "write_descriptives_csv"),
    "logit": ("fit", "predict_prob", "log_likelihood", "lr_test", "pseudo_r2"),
    "diagnostics": ("covariate_patterns", "pearson_chi2", "classification_summary",
                    "qq_export", "marginal_effects", "write_margins_csv", "write_qq_csv"),
}

FUNCTION_SPANS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(i)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(i)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds (minus direct
        children) and number of calls."""
        n = len(self.start)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            rec = out[self.names[self.name_id[i]]]
            rec["s"] += dur
            rec["self_s"] += dur - child_s[i]
            rec["calls"] += 1
        return out


def install(tracer: Tracer, modules: list[ModuleType]) -> None:
    """Wrap every function in TRACED at each attribute of `modules` bound to it."""
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    for layer, fns in TRACED.items():
        for fn_name in fns:
            original = getattr(by_name[layer], fn_name)
            wrapped = tracer.wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
