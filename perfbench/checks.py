"""Output checks for benchmark runs.

Three checks, all on artifacts a run wrote:

- `artifact_digests`: sha256 of every artifact, so each run can be compared
  byte for byte with the first run of the same invocation.
- `score_equations`: for any seed, the logit score equations X'(y - p) at
  the reported beta, computed here with numpy from analysis_table.csv. The
  check uses the Newton decrement g'A^-1 g with A = X'WX, after scaling A to
  unit diagonal, so it does not depend on the units of the columns.
- `compare_reference`: for the default seed, `summarize(out)` against
  reference.json. The reference is `summarize` of the artifacts written by
  the commit that introduced the benchmark. The per-document digest reads
  columns by name and sorts by id, so adding a column to scored.csv leaves it
  unchanged. Margin standard errors get a 2e-3 relative tolerance: the
  closed-form delta-method SEs differ from the shipped finite-difference ones
  by at most 9.2e-4, while dropping or sign-flipping a term of the closed
  form moves some SE on the tweets corpus by 18% or more.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv",
             "descriptives.csv", "fit_report.json", "fit_report.txt", "margins.csv",
             "qq.csv")

BETA_TOL_SE = 1e-6      # |beta - ref| in units of the reference SE
REL_TOL = 1e-6          # SE, Pearson chi2 and margin dydx, relative
MARGIN_SE_REL_TOL = 2e-3
DECREMENT_TOL = 1e-8


def artifact_digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out / name).exists()}


def doc_digest(scored_csv: Path) -> str:
    """sha256 over sorted (id, score, binary) triples, read by column name."""
    with open(scored_csv, newline="", encoding="utf-8") as fh:
        triples = sorted((r["id"], float(r["score"]), int(r["binary"]))
                         for r in csv.DictReader(fh))
    text = "".join(f"{i},{s:.12g},{b}\n" for i, s, b in triples)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(out: Path) -> dict:
    report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    cls = report["diagnostics"]["classification"]
    with open(out / "margins.csv", newline="", encoding="utf-8") as fh:
        margins = {r["variable"]: {"dydx": float(r["dydx"]), "std_err": float(r["std_err"])}
                   for r in csv.DictReader(fh)}
    return {
        "doc_digest": doc_digest(out / "scored.csv"),
        "beta": {c["name"]: c["coef"] for c in report["coefficients"]},
        "std_err": {c["name"]: c["std_err"] for c in report["coefficients"]},
        "pearson_chi2": report["diagnostics"]["pearson"]["chi2"],
        "classification": {k: cls[k] for k in ("tp", "tn", "fp", "fn")},
        "margins": margins,
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def compare_reference(got: dict, ref: dict) -> list[str]:
    """Every difference from the reference beyond its tolerance."""
    errors = []
    if got["doc_digest"] != ref["doc_digest"]:
        errors.append("per-document (id, score, binary) digest differs")
    if set(got["beta"]) != set(ref["beta"]) or set(got["margins"]) != set(ref["margins"]):
        return errors + ["coefficient or margin names differ"]
    for name, b in ref["beta"].items():
        if abs(got["beta"][name] - b) > BETA_TOL_SE * ref["std_err"][name]:
            errors.append(f"beta[{name}] = {got['beta'][name]!r}, reference {b!r}")
        if _rel(got["std_err"][name], ref["std_err"][name]) > REL_TOL:
            errors.append(f"std_err[{name}] = {got['std_err'][name]!r}, "
                          f"reference {ref['std_err'][name]!r}")
    if _rel(got["pearson_chi2"], ref["pearson_chi2"]) > REL_TOL:
        errors.append(f"Pearson chi2 = {got['pearson_chi2']!r}, reference {ref['pearson_chi2']!r}")
    if got["classification"] != ref["classification"]:
        errors.append(f"classification {got['classification']}, reference {ref['classification']}")
    for name, m in ref["margins"].items():
        g = got["margins"][name]
        if _rel(g["dydx"], m["dydx"]) > REL_TOL:
            errors.append(f"margin dydx[{name}] = {g['dydx']!r}, reference {m['dydx']!r}")
        if _rel(g["std_err"], m["std_err"]) > MARGIN_SE_REL_TOL:
            errors.append(f"margin std_err[{name}] = {g['std_err']!r}, "
                          f"reference {m['std_err']!r}")
    return errors


def score_equations(out: Path) -> list[str]:
    """Check that the reported beta solves the likelihood equations."""
    report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    if not report["converged"]:
        return [f"fit did not converge in {report['n_iter']} iterations"]
    with open(out / "analysis_table.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    names = [c["name"] for c in report["coefficients"]]
    if names[0] != "Constant" or header[0] != "sentiment" or set(names[1:]) != set(header[1:]):
        return ["analysis_table.csv columns do not match the fitted coefficients"]
    cols = {name: j for j, name in enumerate(header)}
    y = data[:, 0]
    if not (0 < y.sum() < len(y)):
        return ["the outcome has a single class"]
    X = np.column_stack([np.ones(len(y))] + [data[:, cols[n]] for n in names[1:]])
    beta = np.array([c["coef"] for c in report["coefficients"]])
    eta = X @ beta
    p = np.exp(-np.logaddexp(0.0, -eta))
    g = X.T @ (y - p)
    A = X.T @ (X * (p * (1.0 - p))[:, None])
    d = np.sqrt(np.diag(A))
    decrement = float((g / d) @ np.linalg.solve(A / np.outer(d, d), g / d))
    if not math.isfinite(decrement) or decrement > DECREMENT_TOL:
        return [f"score equations not solved: Newton decrement {decrement:.3g} > {DECREMENT_TOL}"]
    return []
