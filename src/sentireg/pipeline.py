"""File-based pipeline: ingest -> preprocess -> score -> join -> fit -> diagnose.

Each stage reads the previous stage's artifact and writes its own, so a
monolithic run and a staged run produce byte-identical files. Preprocess
writes tokens.csv with corpus.write_tokens, score writes scored.csv with
sentiment.write_scored, and join reads scored.csv alone, as it carries each
text width, with tabulate.read_scored. Each reads its input with
corpus.read_batches, in byte blocks and then record by record.
Join writes the row-level analysis_table.csv and its covariate patterns,
patterns.csv; fit and diagnose read only patterns.csv, with tabulate's
patterns reader, which parses each distinct covariate tail once, straight
into one design array.
Every artifact is written atomically. The run manifest records content
hashes of every input and artifact.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import diagnostics as diag_mod
from . import logit as logit_mod
from . import sentiment as sent_mod
from . import tabulate as tab_mod
from .atomic import atomic_open

__all__ = [
    "PipelineConfig",
    "default_data_path",
    "stage_preprocess",
    "stage_score",
    "stage_join",
    "stage_fit",
    "stage_diagnose",
    "run_pipeline",
    "MARGIN_KINDS",
]

# Regional dummies change discretely; every other regressor is continuous.
MARGIN_KINDS = {name: ("discrete" if name in ("NE", "MW", "WEST") else "continuous")
                for name in tab_mod.ANALYSIS_COLUMNS[1:]}

# PipelineConfig's resource-file fields and their bundled defaults.
_RESOURCES = {
    "lexicon": "lexicon.tsv", "negators": "negators.txt",
    "amplifiers": "amplifiers.tsv", "stopwords": "stopwords.txt",
    "slang": "slang.txt", "stem_rules": "stem_rules.tsv",
    "lemmas": "lemmas.tsv",
}


def default_data_path(name: str) -> Path:
    """Path to a bundled data file (lexicons, rules, fixtures)."""
    return Path(__file__).resolve().parent / "data" / name


@dataclass
class PipelineConfig:
    corpus: Path
    covariates: Path
    out: Path
    lexicon: Path | None = None
    negators: Path | None = None
    amplifiers: Path | None = None
    stopwords: Path | None = None
    slang: Path | None = None
    stem_rules: Path | None = None
    lemmas: Path | None = None
    cutoff: float = 0.5
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        self.corpus = Path(self.corpus)
        self.covariates = Path(self.covariates)
        self.out = Path(self.out)
        for field, filename in _RESOURCES.items():
            value = getattr(self, field)
            setattr(self, field, default_data_path(filename) if value is None else Path(value))
        if not 0.0 < self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in (0, 1), got {self.cutoff}")

    def input_paths(self) -> dict[str, Path]:
        return {"corpus": self.corpus, "covariates": self.covariates,
                **{field: getattr(self, field) for field in _RESOURCES}}


def _sha256(path: Path) -> str:
    """The file's sha256, read in 1 MiB blocks so no whole file is held."""
    import hashlib  # only the run manifest hashes: a stage process does not load it
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def stage_preprocess(config: PipelineConfig) -> Path:
    """Tokenize and normalize the corpus as read; writes tokens.csv."""
    normalize = corpus_mod.WordNormalizer(
        stopwords=corpus_mod.load_wordlist(config.stopwords),
        slang=corpus_mod.load_wordlist(config.slang),
        stem_rules=corpus_mod.load_stem_rules(config.stem_rules),
        lemmas=corpus_mod.load_tsv_map(config.lemmas),
    )
    out = config.out / "tokens.csv"
    corpus_mod.write_tokens(config.corpus, out, normalize)
    return out


def stage_score(config: PipelineConfig) -> tuple[Path, Path]:
    """Score normalized token streams; writes scored.csv and state_summary.csv."""
    lexicon = sent_mod.load_lexicon(config.lexicon, config.negators, config.amplifiers)
    scored_path = config.out / "scored.csv"
    summary_path = config.out / "state_summary.csv"
    totals = sent_mod.write_scored(config.out / "tokens.csv", scored_path, lexicon)
    sent_mod.write_state_summary_csv(summary_path, totals.summaries())
    return scored_path, summary_path


def stage_join(config: PipelineConfig) -> tuple[Path, Path, Path]:
    """Join scored documents with state covariates; reads scored.csv alone and
    writes analysis_table.csv, descriptives.csv and patterns.csv."""
    covars = tab_mod.load_covariates(config.covariates)
    scored_path = config.out / "scored.csv"
    try:
        table = tab_mod.read_scored(scored_path, covars)
    except tab_mod.MissingStatesError as exc:
        raise corpus_mod.SchemaError(f"{scored_path}: {exc} in {config.covariates}") from None
    except corpus_mod.SchemaError:
        raise
    except ValueError as exc:  # a bad field, its message starting with the line
        raise corpus_mod.SchemaError(f"{scored_path}:{exc}") from None
    table_path = config.out / "analysis_table.csv"
    desc_path = config.out / "descriptives.csv"
    patterns_path = config.out / "patterns.csv"
    stats = tab_mod.descriptive_stats(table)  # may raise: before any artifact is replaced
    tab_mod.write_analysis_csv(table_path, table)
    tab_mod.write_descriptives_csv(desc_path, stats)
    tab_mod.write_patterns_csv(patterns_path, table)
    return table_path, desc_path, patterns_path


def read_design(config: PipelineConfig) -> logit_mod.DesignMatrix:
    """patterns.csv -> grouped design matrix with intercept, one row per
    covariate pattern, in the report's column order. The file is read
    into one patterns x 19 array whose intercept column is then filled;
    m and y_sum are arrays of their own."""
    path = config.out / "patterns.csv"
    X, m, y_sum = tab_mod._read_patterns(path, 1)
    X[:, 0] = 1.0
    try:
        return logit_mod.DesignMatrix(X=X, y=y_sum, m=m,
                                      names=("Constant",) + tab_mod.ANALYSIS_COLUMNS[1:])
    except ValueError as exc:
        raise corpus_mod.SchemaError(f"{path}: {exc}") from None


def fit_report_dict(result: logit_mod.LogitFit) -> dict:
    lr = logit_mod.lr_test(result)
    return {
        "coefficients": [
            {"name": result.names[j], "coef": float(result.beta[j]),
             "std_err": float(result.std_err[j]), "z": float(result.z[j]),
             "p": float(result.p[j])}
            for j in range(len(result.beta))
        ],
        "cov": [[float(v) for v in row] for row in result.cov],
        "ll": result.ll, "ll0": result.ll0,
        "lr_chi2": lr["chi2"], "df": lr["df"], "lr_p": lr["p"],
        "pseudo_r2": logit_mod.pseudo_r2(result),
        "n_obs": result.n_obs, "n_iter": result.n_iter, "converged": result.converged,
    }


_REPORT_NUMBERS = ("ll", "ll0", "lr_chi2", "df", "lr_p", "pseudo_r2", "n_obs", "n_iter")
_COEFFICIENT_NUMBERS = ("coef", "std_err", "z", "p")


def _finite(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")


def fit_from_report(report: dict, names: tuple[str, ...]) -> logit_mod.LogitFit:
    """The fit a fit_report.json holds, for a design whose columns are
    names; a ValueError where the report lacks a key fit_report_dict
    writes, its coefficients are not names in order, its cov is not
    len(names) square, or a number in it is not finite."""
    if not isinstance(report, dict):
        raise ValueError(f"must hold an object, not {type(report).__name__}")
    if missing := [key for key in ("coefficients", "cov", "converged", *_REPORT_NUMBERS)
                   if key not in report]:
        raise ValueError(f"missing key(s) {missing}")
    coefs = report["coefficients"]
    if not (isinstance(coefs, list) and all(
            isinstance(c, dict) and {"name", *_COEFFICIENT_NUMBERS} <= c.keys() for c in coefs)):
        raise ValueError("coefficients must be a list of objects with a name, "
                         + ", ".join(_COEFFICIENT_NUMBERS))
    if (got := tuple(c["name"] for c in coefs)) != names:
        raise ValueError(f"coefficients {list(got)} are not the design's {list(names)}")
    cov = report["cov"]
    if not (isinstance(cov, list) and len(cov) == len(names)
            and all(isinstance(row, list) and len(row) == len(names) for row in cov)):
        raise ValueError(f"cov must be {len(names)} rows of {len(names)} numbers")
    for i, row in enumerate(cov):
        for j, v in enumerate(row):
            _finite(v, f"cov[{i}][{j}]")
    for c in coefs:
        for key in _COEFFICIENT_NUMBERS:
            _finite(c[key], f"{c['name']} {key}")
    for key in _REPORT_NUMBERS:
        _finite(report[key], key)
    return logit_mod.LogitFit(
        names=names,
        beta=np.array([c["coef"] for c in coefs], dtype=float),
        cov=np.array(cov, dtype=float),
        std_err=np.array([c["std_err"] for c in coefs], dtype=float),
        z=np.array([c["z"] for c in coefs], dtype=float),
        p=np.array([c["p"] for c in coefs], dtype=float),
        ll=report["ll"], ll0=report["ll0"], n_obs=report["n_obs"],
        n_iter=report["n_iter"], converged=report["converged"],
    )


def _human_report(report: dict) -> str:
    lines = [f"{'Sentiment':<12}{'Coef.':>12}{'Std. Err.':>12}{'z':>10}{'P>z':>8}"]
    for c in report["coefficients"][1:] + report["coefficients"][:1]:
        lines.append(f"{c['name']:<12}{c['coef']:>12.6g}{c['std_err']:>12.6g}"
                     f"{c['z']:>10.3f}{c['p']:>8.3f}")
    lines.append(f"LR chi2({report['df']}) = {report['lr_chi2']:.3f}")
    lines.append(f"Prob > chi2 = {report['lr_p']:.3f}")
    lines.append(f"Pseudo R2 = {report['pseudo_r2']:.3f}")
    lines.append(f"Log-likelihood = {report['ll']:.3f}")
    if diag := report.get("diagnostics"):
        pearson, cls = diag["pearson"], diag["classification"]
        lines.append("")
        lines.append(f"Number of observations = {report['n_obs']}")
        lines.append(f"Number of covariate patterns = {pearson['n_patterns']}")
        lines.append(f"Pearson chi2({pearson['df']}) = {pearson['chi2']:.2f}")
        p = pearson["p"]
        lines.append(f"Prob > chi2 = {'n/a' if p is None else format(p, '.4f')}")
        lines.append("")
        lines.append(f"Correctly classified = {100 * cls['accuracy']:.2f}%")
        for label in ("sensitivity", "specificity"):
            v = cls[label]
            lines.append(f"{label.capitalize()} = "
                         f"{'n/a' if v is None else format(100 * v, '.2f') + '%'}")
    return "\n".join(lines) + "\n"


def _write_reports(config: PipelineConfig, report: dict) -> tuple[Path, Path]:
    json_path, txt_path = config.out / "fit_report.json", config.out / "fit_report.txt"
    with atomic_open(json_path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with atomic_open(txt_path) as fh:
        fh.write(_human_report(report))
    return json_path, txt_path


def stage_fit(config: PipelineConfig) -> tuple[Path, Path]:
    """Fit the binary logit on patterns.csv; writes fit_report.json and
    fit_report.txt. Raises logit.ConvergenceError, and writes no report,
    when Newton-Raphson has not converged within config.max_iter iterations."""
    design = read_design(config)
    result = logit_mod.fit(design, tol=config.tol, max_iter=config.max_iter)
    if not result.converged:
        raise logit_mod.ConvergenceError(
            f"no convergence after n_iter={result.n_iter} Newton iterations "
            f"(max_iter={config.max_iter}, tol={config.tol})")
    return _write_reports(config, fit_report_dict(result))


def stage_diagnose(config: PipelineConfig) -> tuple[Path, Path]:
    """Goodness-of-fit, classification, QQ, and margins for an existing fit;
    appends to the fit report and writes margins.csv and qq.csv."""
    path = config.out / "fit_report.json"
    text = path.read_text(encoding="utf-8")
    design = read_design(config)  # its rows are the covariate patterns already
    try:
        report = json.loads(text)
        result = fit_from_report(report, design.names)
    except ValueError as exc:
        raise corpus_mod.SchemaError(f"{path}: {exc}") from None
    pearson = diag_mod.pearson_chi2(result, design)
    cls = diag_mod.classification_summary(result, design, cutoff=config.cutoff)
    effects = diag_mod.marginal_effects(result, design, MARGIN_KINDS)

    margins_path, qq_path = config.out / "margins.csv", config.out / "qq.csv"
    diag_mod.write_margins_csv(margins_path, effects)
    diag_mod.write_qq_csv(qq_path, diag_mod.qq_export(result, design))

    report["diagnostics"] = {
        "pearson": pearson,
        "classification": {
            "tp": cls.tp, "tn": cls.tn, "fp": cls.fp, "fn": cls.fn,
            "accuracy": cls.accuracy, "sensitivity": cls.sensitivity,
            "specificity": cls.specificity, "cutoff": cls.cutoff,
        },
    }
    _write_reports(config, report)
    return margins_path, qq_path


_STAGES = (
    ("preprocess", stage_preprocess),
    ("score", stage_score),
    ("join", stage_join),
    ("fit", stage_fit),
    ("diagnose", stage_diagnose),
)


class StageError(RuntimeError):
    """Wraps a stage failure with the name of the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        self.stage, self.cause = stage, cause
        super().__init__(f"stage '{stage}' failed: {cause}")


def run_pipeline(config: PipelineConfig) -> Path:
    """Run every stage in order and write run_manifest.json; returns the
    output directory."""
    config.out.mkdir(parents=True, exist_ok=True)
    timings = {}
    for name, stage in _STAGES:
        start = time.perf_counter()
        try:
            stage(config)
        except Exception as exc:
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start

    artifacts = ["tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv",
                 "descriptives.csv", "patterns.csv", "fit_report.json", "fit_report.txt",
                 "margins.csv", "qq.csv"]
    manifest = {
        "inputs": {name: _sha256(path) for name, path in config.input_paths().items()},
        "artifacts": {name: _sha256(config.out / name) for name in artifacts},
        "options": {"cutoff": config.cutoff, "tol": config.tol,
                    "max_iter": config.max_iter},
        "versions": {"sentireg": __version__,
                     "python": platform.python_version()},
        "timings_sec": timings,
    }
    with atomic_open(config.out / "run_manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config.out
