import ast
import contextlib
import csv
import hashlib
import importlib.resources
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sentireg
from sentireg import corpus as corpus_mod
from sentireg import diagnostics as diag_mod
from sentireg import pipeline
from sentireg import sentiment as sent_mod
from sentireg import tabulate as tab_mod
from sentireg.cli import EXIT_ESTIMATION, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from sentireg.diagnostics import MarginalEffect, covariate_patterns, write_margins_csv
from sentireg.logit import DesignMatrix
from sentireg.pipeline import (
    PipelineConfig,
    StageError,
    default_data_path,
    run_pipeline,
)
from sentireg.tabulate import (
    ANALYSIS_COLUMNS,
    load_covariates,
    read_analysis_csv,
    read_patterns_csv,
)

from handover import handovers, records_only

CORPUS = default_data_path("fixture_corpus.csv")
COVARIATES = default_data_path("state_covariates.csv")

ARTIFACTS = [
    "tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv",
    "descriptives.csv", "patterns.csv", "fit_report.json", "fit_report.txt", "margins.csv",
    "qq.csv",
]

# sha256 of the bundled fixture's artifacts. The two join artifacts are as
# written when join still built one row object per document; the other four
# as written when every CSV row still went through csv.writer; qq.csv as
# written when qq_export called norm_ppf once per point. Building each
# covariate pattern once, joining rows without csv.writer, reading scored.csv
# in blocks and computing the QQ positions on arrays must not change a byte.
PINNED_SHA256 = {
    "analysis_table.csv": "39773e15b072140a667520368543e0f59724523f15d82a9190661a9c5de2e3a7",
    "descriptives.csv": "f55530e61a0f0740760d587f1d7c3693d9b1e9e046025ec3ffc72ad114df2c36",
    "tokens.csv": "67fabf662a885786bb50a05d1cb39e809b9babf41f884e0a5ead0bc3132300aa",
    "scored.csv": "feec296488c52eecdd3d7053ce03bd6f3f76ec82dd0de54d99b9bbab53e94f21",
    "state_summary.csv": "99e82986533986b68bfaa1e9e2e6fed8b108c502f77d015f5696169f53eb689f",
    "patterns.csv": "44328263c403195067457bf460e01f53ee5f0be08dcae5ddc0983163c18a791a",
    "qq.csv": "b907ac70e9409b7db2e4cb071f3086e66cbb868e2590a22a677dac892915aaa9",
}


def in_blocks(reads: list[dict]) -> bool:
    """Whether each read (handover.handovers) took its whole file in blocks."""
    return all(not read["declined"] and read["records"] == 0 for read in reads)


def test_default_data_path_names_the_package_resource():
    # default_data_path is built from the module's own path, so that a stage
    # process need not import importlib.resources; it names the same file as
    # the package resource, for every bundled file.
    data = importlib.resources.files("sentireg") / "data"
    names = {entry.name for entry in data.iterdir()}
    assert {*pipeline._RESOURCES.values(), "fixture_corpus.csv", "state_covariates.csv"} <= names
    for name in names:
        assert default_data_path(name) == Path(str(data / name)).resolve()
        assert default_data_path(name).is_file()


def run_fixture(out):
    config = PipelineConfig(corpus=CORPUS, covariates=COVARIATES, out=out)
    run_pipeline(config)
    return out


class TestRunPipeline:
    def test_all_artifacts_produced(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        for name in ARTIFACTS + ["run_manifest.json"]:
            assert (out / name).exists(), name

    def test_fit_report_schema(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        report = json.loads((out / "fit_report.json").read_text())
        assert {"coefficients", "cov", "ll", "ll0", "lr_chi2", "df", "lr_p",
                "pseudo_r2", "n_iter", "converged", "diagnostics"} <= set(report)
        for c in report["coefficients"]:
            assert {"name", "coef", "std_err", "z", "p"} == set(c)
        assert report["converged"] is True
        assert {"pearson", "classification"} == set(report["diagnostics"])

    def test_missing_covariates_names_join_stage(self, tmp_path):
        config = PipelineConfig(
            corpus=CORPUS, covariates=tmp_path / "nope.csv", out=tmp_path / "out"
        )
        with pytest.raises(StageError, match="join"):
            run_pipeline(config)

    def test_rerun_is_bit_identical(self, tmp_path):
        out1 = run_fixture(tmp_path / "a")
        out2 = run_fixture(tmp_path / "b")
        for name in ARTIFACTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["inputs"] == m2["inputs"]
        assert m1["artifacts"] == m2["artifacts"]

    def test_manifest_lists_all_inputs(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["inputs"]) == {
            "corpus", "covariates", "lexicon", "negators", "amplifiers",
            "stopwords", "slang", "stem_rules", "lemmas",
        }
        assert all(len(h) == 64 for h in manifest["inputs"].values())

    def test_manifest_records_package_version(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["versions"]["sentireg"] == sentireg.__version__

    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == sentireg.__version__

    def test_sources_parse_at_the_declared_python_floor(self):
        # Grammar only: a library call newer than the floor still parses.
        root = Path(__file__).resolve().parents[1]
        floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                          (root / "pyproject.toml").read_text(encoding="utf-8"))
        version = (int(floor.group(1)), int(floor.group(2)))
        assert version == (3, 10)
        sources = sorted((root / "src" / "sentireg").glob("*.py"))
        assert sources
        for path in sources:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=version)

    def test_manifest_hashes_are_whole_file_sha256(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name in ARTIFACTS:
            assert manifest["artifacts"][name] == hashlib.sha256(
                (out / name).read_bytes()).hexdigest(), name
        # Files that end on, just past and short of a 1 MiB block.
        for size in (0, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) - 1):
            path = tmp_path / f"{size}.bin"
            path.write_bytes(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
            assert pipeline._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestCli:
    def _args(self, command, out, **extra):
        args = [command, "--corpus", str(CORPUS), "--covariates", str(COVARIATES),
                "--out", str(out)]
        for k, v in extra.items():
            args += [f"--{k.replace('_', '-')}", str(v)]
        return args

    def test_run_exit_zero(self, tmp_path):
        assert main(self._args("run", tmp_path / "out")) == EXIT_OK

    def test_staged_equals_monolithic(self, tmp_path):
        mono = tmp_path / "mono"
        staged = tmp_path / "staged"
        assert main(self._args("run", mono)) == EXIT_OK
        for command in ("preprocess", "score", "join", "fit", "diagnose"):
            assert main(self._args(command, staged)) == EXIT_OK
        for name in ARTIFACTS:
            assert (mono / name).read_bytes() == (staged / name).read_bytes(), name

    def test_missing_corpus_file_is_io_error(self, tmp_path):
        args = ["run", "--corpus", str(tmp_path / "nope.csv"),
                "--covariates", str(COVARIATES), "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_IO

    def test_bad_schema_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,text\na,hello\n", encoding="utf-8")
        args = ["run", "--corpus", str(bad), "--covariates", str(COVARIATES),
                "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_SCHEMA

    def test_diagnose_without_fit_names_missing_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["diagnose", "--out", str(out)]) == EXIT_IO
        assert "fit_report.json" in capsys.readouterr().err

    def test_single_class_corpus_is_estimation_error(self, tmp_path):
        # every tweet scores positive -> y has one class -> exit 3
        rows = []
        with open(CORPUS, encoding="utf-8") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                # pad with varying filler so text width is not constant
                rows.append({"id": row["id"], "state": row["state"],
                             "text": "great wonderful happy " + "blah " * (i % 7)})
        corpus = tmp_path / "one_class.csv"
        with open(corpus, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=["id", "state", "text"])
            w.writeheader()
            w.writerows(rows)
        args = ["run", "--corpus", str(corpus), "--covariates", str(COVARIATES),
                "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_ESTIMATION

    def test_degenerate_fit_is_estimation_error(self, tmp_path, capsys):
        # A fit whose probabilities saturate at exactly 1 is quasi-complete
        # separation: exit 3, not the schema error's 2.
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join", "fit"):
            assert main(self._args(command, out)) == EXIT_OK
        report_path = out / "fit_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["coefficients"][0]["coef"] = 1000.0
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(self._args("diagnose", out)) == EXIT_ESTIMATION
        assert "degenerate fitted probability" in capsys.readouterr().err

    def _swap_tw_ne(report):
        c = report["coefficients"]
        c[1]["name"], c[2]["name"] = c[2]["name"], c[1]["name"]
        return report

    def _nan_coef(report):
        report["coefficients"][3]["coef"] = math.nan
        return report

    # A fit_report.json that is not the fit of patterns.csv's design is a
    # schema error that names the file, not a KeyError, a numpy message or
    # margins of the wrong columns.
    @pytest.mark.parametrize("broken, want", [
        (lambda report: {}, "missing key"),
        (lambda report: [1, 2], "must hold an object"),
        (lambda report: {**report, "cov": report["cov"][:3]}, "cov must be 19 rows of 19"),
        (_swap_tw_ne, "are not the design's"),
        (_nan_coef, "MW coef must be a finite number, got nan"),
    ], ids=["empty", "list", "3-row cov", "TW and NE swapped", "nan coef"])
    def test_diagnose_checks_the_fit_report(self, tmp_path, capsys, broken, want):
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join", "fit"):
            assert main(self._args(command, out)) == EXIT_OK
        report_path = out / "fit_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.write_text(json.dumps(broken(report)), encoding="utf-8")
        capsys.readouterr()
        assert main(self._args("diagnose", out)) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"{report_path}: " in err and want in err
        assert not (out / "margins.csv").exists()

    def test_invalid_cutoff_rejected(self, tmp_path):
        assert main(self._args("run", tmp_path / "out", cutoff="1.5")) == EXIT_SCHEMA

    def test_fit_without_convergence_is_estimation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join"):
            assert main(self._args(command, out)) == EXIT_OK
        assert main(self._args("fit", out, max_iter=1)) == EXIT_ESTIMATION
        assert "n_iter=1" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()
        assert not (out / "fit_report.txt").exists()

    def test_truncated_tokens_row_is_schema_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tokens.csv").write_text("id,state,text_width,tokens\na,NC,5,great\nb,NC\n",
                                        encoding="utf-8")
        assert main(["score", "--out", str(out)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("command, name, tail", [
        ("join", "covariates.csv", "ZZ,65.0,3.1\n"),
        ("preprocess", "corpus.csv", f"zz,NC,{'x' * 140_000}\n"),
        ("score", "tokens.csv", f"zz,NC,5,{'x' * 140_000}\n"),
        ("join", "scored.csv", f"zz,NC,{'1' * 140_000},0.0,Neutral,0\n"),
        ("preprocess", "corpus.csv", 'zz,NC,"unterminated\nrest of the file\n'),
    ], ids=["covariates-short-row", "corpus-field-over-limit", "tokens-field-over-limit",
            "scored-field-over-limit", "corpus-unterminated-quote"])
    def test_malformed_csv_names_file_and_line(self, tmp_path, capsys, command, name, tail):
        # A bad record appended to a good file: the error names the line it starts on.
        inputs = {"corpus.csv": tmp_path / "corpus.csv", "covariates.csv": tmp_path / "covariates.csv"}
        shutil.copy(CORPUS, inputs["corpus.csv"])
        shutil.copy(COVARIATES, inputs["covariates.csv"])
        out = tmp_path / "out"
        args = ["--corpus", str(inputs["corpus.csv"]), "--covariates", str(inputs["covariates.csv"]),
                "--out", str(out)]
        for stage in ("preprocess", "score")[:("preprocess", "score", "join").index(command)]:
            assert main([stage, *args]) == EXIT_OK
        path = inputs.get(name, out / name)
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "a", newline="", encoding="utf-8") as fh:
            fh.write(tail)
        assert main([command, *args]) == EXIT_SCHEMA
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_byte_order_mark_is_accepted(self, tmp_path):
        corpus, covariates = tmp_path / "corpus.csv", tmp_path / "covariates.csv"
        corpus.write_bytes(b"\xef\xbb\xbf" + CORPUS.read_bytes())
        covariates.write_bytes(b"\xef\xbb\xbf" + COVARIATES.read_bytes())
        plain = run_fixture(tmp_path / "plain")
        bom = tmp_path / "bom"
        assert main(["run", "--corpus", str(corpus), "--covariates", str(covariates),
                     "--out", str(bom)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (bom / name).read_bytes() == (plain / name).read_bytes(), name

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        # The reader decodes ahead of the parser, so the line named is at or
        # before the bad one, never past it.
        corpus, out = tmp_path / "corpus.csv", tmp_path / "out"
        lines = [b"id,state,text"] + [f"d{i},NC,reopen the economy {i}".encode()
                                      for i in range(2000)]
        bad = 1500
        lines[bad - 1] = "e1,NC,café reopens".encode("latin-1")
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["preprocess", "--corpus", str(corpus), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        match = re.search(re.escape(str(corpus)) + r":(\d+): not UTF-8", err)
        assert match, err
        assert 1 < int(match.group(1)) <= bad
        assert list(out.iterdir()) == []

    def test_corpus_error_late_in_file_keeps_previous_tokens(self, tmp_path, capsys):
        # Rows before the duplicate id are already streamed to the temp file.
        out = tmp_path / "out"
        assert main(self._args("preprocess", out)) == EXIT_OK
        before = (out / "tokens.csv").read_bytes()
        corpus = tmp_path / "corpus.csv"
        data = CORPUS.read_bytes()
        corpus.write_bytes(data + data.splitlines(keepends=True)[1])
        line = data.count(b"\n") + 1
        assert main(["preprocess", "--corpus", str(corpus), "--out", str(out)]) == EXIT_SCHEMA
        assert f"{corpus}:{line}: duplicate id" in capsys.readouterr().err
        assert (out / "tokens.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    def test_corpus_declined_in_its_last_block_keeps_previous_tokens(self, tmp_path, capsys,
                                                                      monkeypatch):
        # Preprocess writes every block; then the repeated id's hash makes
        # CorpusReader read the file again and stop at the repeated id.
        out = tmp_path / "out"
        assert main(self._args("preprocess", out)) == EXIT_OK
        before = (out / "tokens.csv").read_bytes()
        corpus = tmp_path / "corpus.csv"
        data = CORPUS.read_bytes()
        corpus.write_bytes(data + b"t001,NC,a repeated id\r\n")
        monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", 256)
        assert len(data) > 4 * corpus_mod.PREPROCESS_BLOCK_BYTES
        assert main(["preprocess", "--corpus", str(corpus), "--out", str(out)]) == EXIT_SCHEMA
        line = data.count(b"\n") + 1
        assert f"{corpus}:{line}: duplicate id 't001'" in capsys.readouterr().err
        assert (out / "tokens.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    @pytest.mark.parametrize("multiplier", ["1e200", "inf", "1e100"])
    def test_amplifier_over_the_bound_is_refused_at_load(self, tmp_path, capsys, multiplier):
        # Over 1e100, two amplifiers before each hit could multiply to inf, and a
        # positive and a negative hit sum to NaN; at 1e100 the score is finite.
        out = tmp_path / "out"
        assert main(self._args("run", out)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        tokens = out / "tokens.csv"
        lines = tokens.read_bytes().splitlines(keepends=True)
        lines[5] = b"t,NC,28,very very good very very bad\r\n"
        tokens.write_bytes(b"".join(lines))
        amplifiers = tmp_path / "amplifiers.tsv"
        amplifiers.write_text(f"very\t{multiplier}\n", encoding="utf-8")
        if multiplier == "1e100":
            assert main(self._args("score", out, amplifiers=amplifiers)) == EXIT_OK
            with open(out / "scored.csv", newline="", encoding="utf-8") as fh:
                assert all(math.isfinite(float(row["score"])) for row in csv.DictReader(fh))
            return
        assert main(self._args("score", out, amplifiers=amplifiers)) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "amplifier multiplier for 'very' must be over 1 and at most 1e+100: " in err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "tokens.csv"}
        assert after == {name: data for name, data in before.items() if name != "tokens.csv"}

    def test_byte_order_mark_in_resource_files_is_skipped(self, tmp_path):
        # Each list's first line is an entry the fixture uses, so a BOM kept
        # on it would change tokens.csv and scored.csv.
        def entries(name):
            return [line for line in default_data_path(name).read_bytes().splitlines(True)
                    if not line.startswith(b"#")]

        lexicon = entries("lexicon.tsv")
        hopeful = next(line for line in lexicon if line.startswith(b"hopeful\t"))
        files = {"stopwords": b"".join(entries("stopwords.txt")),
                 "lexicon": hopeful + b"".join(line for line in lexicon if line != hopeful)}
        assert files["stopwords"].startswith(b"a\n")
        runs = {}
        for bom in (b"", b"\xef\xbb\xbf"):
            out = tmp_path / ("bom" if bom else "plain")
            out.mkdir()
            extra = {}
            for name, data in files.items():
                extra[name] = out / f"{name}.in"
                extra[name].write_bytes(bom + data)
            for command in ("preprocess", "score"):
                assert main(self._args(command, out, **extra)) == EXIT_OK
            runs[bom] = out
        for name in ("tokens.csv", "scored.csv"):
            assert (runs[b""] / name).read_bytes() == (runs[b"\xef\xbb\xbf"] / name).read_bytes()

    def test_byte_order_mark_in_patterns_csv_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join", "fit", "diagnose"):
            assert main(self._args(command, out)) == EXIT_OK
        plain = {name: (out / name).read_bytes()
                 for name in ("fit_report.json", "fit_report.txt", "margins.csv", "qq.csv")}
        path = out / "patterns.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for command in ("fit", "diagnose"):
            assert main(self._args(command, out)) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in plain} == plain

    def test_long_patterns_header_is_schema_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join"):
            assert main(self._args(command, out)) == EXIT_OK
        path = out / "patterns.csv"
        body = path.read_bytes().split(b"\r\n", 1)[1]
        path.write_bytes(b"m" * 140_000 + b"\r\n" + body)
        assert main(self._args("fit", out)) == EXIT_SCHEMA
        assert f"{path}: header must be" in capsys.readouterr().err

    @pytest.mark.parametrize("binary, width, field", [("99999999999999999999", "5", "binary"),
                                                      ("1", "9" * 400, "text_width")],
                             ids=["binary-past-int64", "width-past-float"])
    def test_join_number_out_of_range_is_schema_error(self, tmp_path, capsys,
                                                      binary, width, field):
        out = tmp_path / "out"
        for command in ("preprocess", "score"):
            assert main(self._args(command, out)) == EXIT_OK
        path = out / "scored.csv"
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["zz", "NC", width, "0.5", "Positive", binary])
        assert main(self._args("join", out)) == EXIT_SCHEMA
        assert f"{path}:{line}: {field} " in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["scored.csv", "state_summary.csv",
                                                         "tokens.csv"]

    def test_join_state_without_covariate_row_names_both_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("preprocess", "score"):
            assert main(self._args(command, out)) == EXIT_OK
        covariates = tmp_path / "covariates.csv"
        lines = COVARIATES.read_bytes().splitlines(keepends=True)
        covariates.write_bytes(b"".join(line for line in lines if not line.startswith(b"NC,")))
        args = self._args("join", out)
        args[args.index("--covariates") + 1] = str(covariates)
        assert main(args) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"{out / 'scored.csv'}: " in err and str(covariates) in err
        assert "['NC']" in err

    @staticmethod
    def _set_field(path, line, column, value):
        """Rewrite one field of a CSV artifact, on the record at `line`."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[line - 1][rows[0].index(column)] = value
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

    # " 1", "+1", "01" and "0.7" pass int() or float(), but sentireg writes none of them.
    @pytest.mark.parametrize("binary", ["5", "-3", " 1", "+1", "01", "0.7"])
    def test_join_binary_outside_0_1_names_file_and_line(self, tmp_path, capsys, binary):
        out = tmp_path / "out"
        for command in ("preprocess", "score", "join"):
            assert main(self._args(command, out)) == EXIT_OK
        joined = {name: (out / name).read_bytes()
                  for name in ("analysis_table.csv", "descriptives.csv", "patterns.csv")}
        path = out / "scored.csv"
        self._set_field(path, 5, "binary", binary)
        assert main(self._args("join", out)) == EXIT_SCHEMA
        assert f"{path}:5: binary must be 0 or 1, got '{binary}'" in capsys.readouterr().err
        for name, data in joined.items():
            assert (out / name).read_bytes() == data, name

    # int() takes "5_0", " 5", "+5" and "\u0663", but sentireg writes a width
    # as ASCII digits only.
    @pytest.mark.parametrize("command, name, column, value", [
        ("score", "tokens.csv", "text_width", ""),
        ("score", "tokens.csv", "text_width", "5.0"),
        ("join", "scored.csv", "text_width", ""),
        ("join", "scored.csv", "binary", ""),
        ("join", "scored.csv", "binary", "x"),
        *((command, name, "text_width", value)
          for command, name in (("score", "tokens.csv"), ("join", "scored.csv"))
          for value in ("5_0", " 5", "+5", "\u0663")),
    ])
    def test_non_integer_field_names_file_and_line(self, tmp_path, capsys,
                                                   command, name, column, value):
        out = tmp_path / "out"
        for stage in ("preprocess", "score")[:("preprocess", "score", "join").index(command)]:
            assert main(self._args(stage, out)) == EXIT_OK
        before = sorted(p.name for p in out.iterdir())
        path = out / name
        self._set_field(path, 7, column, value)
        assert main(self._args(command, out)) == EXIT_SCHEMA
        must = "be 0 or 1" if column == "binary" else "be an integer"
        assert f"{path}:7: {column} must {must}, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("scored_before", [False, True])
    def test_tokens_declined_in_its_last_block_replaces_nothing(self, tmp_path, capsys,
                                                                 monkeypatch, scored_before):
        # Score's kernel writes the first blocks, then declines the last one; the
        # per-record path then stops at its bad width.
        out = tmp_path / "out"
        for stage in ("preprocess", "score")[:1 + scored_before]:
            assert main(self._args(stage, out)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "tokens.csv"}
        path = out / "tokens.csv"
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"zz,NC,+5,great day\r\n")
        monkeypatch.setattr(sent_mod, "SCORE_BLOCK_BYTES", 256)
        assert path.stat().st_size > 4 * sent_mod.SCORE_BLOCK_BYTES
        assert main(self._args("score", out)) == EXIT_SCHEMA
        assert f"{path}:{line}: text_width must be an integer, got '+5'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "tokens.csv"} == before
        assert (not scored_before) == (sorted(p.name for p in out.iterdir()) == ["tokens.csv"])

    def test_bad_width_past_the_first_score_chunk_names_its_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "tokens.csv"
        rows = [["id", "state", "text_width", "tokens"]]
        rows += [[f"d{i}", "NC", str(5 + i % 7), "great day"] for i in range(3000)]
        rows[2500][2] = "x"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert sent_mod.SCORE_CHUNK_DOCS < 2500
        assert main(["score", "--out", str(out)]) == EXIT_SCHEMA
        assert f"{path}:2501: text_width must be an integer, got 'x'" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    def test_first_bad_line_of_a_score_chunk_is_named_first(self, tmp_path, capsys):
        # A bad width on line 3 is named before the unterminated quote on line 4.
        out = tmp_path / "out"
        out.mkdir()
        path = out / "tokens.csv"
        path.write_bytes(b'id,state,text_width,tokens\r\nd1,NC,5,great day\r\n'
                         b'd2,NC,x,great day\r\nd3,NC,5,"great day\r\n')
        assert main(["score", "--out", str(out)]) == EXIT_SCHEMA
        assert f"{path}:3: text_width must be an integer, got 'x'" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    @pytest.mark.parametrize("column, value, expected", [
        ("m", "-2", "m must hold positive whole observation counts"),
        ("m", "inf", "m must hold positive whole observation counts"),
        ("m", "1e300", "m must hold positive whole observation counts"),
        ("TW", "nan", "design matrix contains non-finite entries"),
    ])
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_bad_patterns_value_names_file(self, tmp_path, capsys, command,
                                           column, value, expected):
        out = tmp_path / "out"
        for stage in ("preprocess", "score", "join", "fit"):
            assert main(self._args(stage, out)) == EXIT_OK
        reports = {name: (out / name).read_bytes() for name in ("fit_report.json", "fit_report.txt")}
        path = out / "patterns.csv"
        self._set_field(path, 3, column, value)
        assert main(self._args(command, out)) == EXIT_SCHEMA
        assert f"{path}: {expected}" in capsys.readouterr().err
        for name, data in reports.items():
            assert (out / name).read_bytes() == data, name

    @pytest.mark.parametrize("limits", [{"max_iter": -1, "tol": -1}, {"max_iter": 0},
                                        {"tol": "nan"}])
    def test_fit_limits_that_cannot_stop_the_loop_are_schema_errors(self, tmp_path, capsys,
                                                                    limits):
        out = tmp_path / "out"
        for stage in ("preprocess", "score", "join"):
            assert main(self._args(stage, out)) == EXIT_OK
        assert main(self._args("fit", out, **limits)) == EXIT_SCHEMA
        assert f"{next(iter(limits))} must be" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    @pytest.mark.parametrize("option, data, expected", [
        ("lexicon", "good\t1\nbad\tabc\n", "term<TAB>valence, got 'abc'"),
        ("amplifiers", "# multipliers\nvery\t1.5\nsuper\t\n", "term<TAB>multiplier, got ''"),
    ])
    def test_non_numeric_resource_value_names_file_and_line(self, tmp_path, capsys,
                                                              option, data, expected):
        out = tmp_path / "out"
        assert main(self._args("preprocess", out)) == EXIT_OK
        path = tmp_path / f"{option}.tsv"
        path.write_text(data, encoding="utf-8")
        assert main(self._args("score", out, **{option: path})) == EXIT_SCHEMA
        assert f"{path}:{data.count(chr(10))}: expected {expected}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    @pytest.mark.parametrize("option, data, expected", [
        ("lexicon", "nice\t1\ngood\t3\n", "valence for 'good' out of [-2, +2]: 3.0"),
        ("amplifiers", "# multipliers\nreally\t1.5\nvery\t1e200\n",
         "amplifier multiplier for 'very' must be over 1 and at most 1e+100: 1e+200"),
    ])
    def test_resource_value_out_of_range_names_file_and_line(self, tmp_path, capsys,
                                                               option, data, expected):
        out = tmp_path / "out"
        assert main(self._args("preprocess", out)) == EXIT_OK
        path = tmp_path / f"{option}.tsv"
        path.write_text(data, encoding="utf-8")
        assert main(self._args("score", out, **{option: path})) == EXIT_SCHEMA
        assert f"{path}:{data.count(chr(10))}: {expected}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]

    @pytest.mark.parametrize("command, option, data", [
        ("score", "lexicon", "good\t1\nbad\t-1\n# again\ngood\t-1\n"),
        ("score", "amplifiers", "very\t1.5\nreally\t1.2\nvery\t1.5\n"),
        ("preprocess", "lemmas", "ran\trun\n\nran\trun\n"),
    ])
    def test_a_key_listed_twice_names_file_and_line(self, tmp_path, capsys,
                                                     command, option, data):
        out = tmp_path / "out"
        assert main(self._args("preprocess", out)) == EXIT_OK
        tokens = (out / "tokens.csv").read_bytes()
        path = tmp_path / f"{option}.tsv"
        path.write_text(data, encoding="utf-8")
        assert main(self._args(command, out, **{option: path})) == EXIT_SCHEMA
        key = data.split("\t")[0]
        assert (f"{path}:{data.count(chr(10))}: duplicate key {key!r}, first on line 1"
                in capsys.readouterr().err)
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]
        assert (out / "tokens.csv").read_bytes() == tokens

    @pytest.mark.parametrize("command, option, data", [
        ("preprocess", "stopwords", "the\nand\n" + "filler\n" * 3000 + "caf\xe9\n"),
        ("score", "lexicon", "good\t1\n" + "".join(f"x{i}\t0.5\n" for i in range(3000))
         + "caf\xe9\t1\n"),
    ], ids=["stopwords", "lexicon"])
    def test_non_utf8_resource_file_names_file_and_line(self, tmp_path, capsys,
                                                          command, option, data):
        out = tmp_path / "out"
        if command == "score":
            assert main(self._args("preprocess", out)) == EXIT_OK
        path = tmp_path / f"{option}.in"
        path.write_bytes(data.encode("latin-1"))
        bad = data.count("\n")
        assert main(self._args(command, out, **{option: path})) == EXIT_SCHEMA
        err = capsys.readouterr().err
        match = re.search(re.escape(str(path)) + r":(\d+): not UTF-8 at or after this line", err)
        assert match, err
        assert 1 < int(match.group(1)) <= bad

    def test_preprocess_uses_each_calls_word_lists(self, tmp_path):
        # Two preprocess calls in one process must not share normalizations:
        # each writes what a fresh process writes for its own stopword list.
        stoplists = {"empty": tmp_path / "empty.txt",
                     "bundled": default_data_path("stopwords.txt")}
        stoplists["empty"].write_text("# no stopwords\n", encoding="utf-8")
        src = str(Path(sentireg.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        tokens = {}
        for name, stoplist in stoplists.items():
            out = tmp_path / name
            assert main(["preprocess", "--corpus", str(CORPUS), "--out", str(out),
                         "--stopwords", str(stoplist)]) == EXIT_OK
            fresh = tmp_path / f"{name}-fresh"
            subprocess.run([sys.executable, "-m", "sentireg.cli", "preprocess",
                            "--corpus", str(CORPUS), "--out", str(fresh),
                            "--stopwords", str(stoplist)], env=env, check=True, timeout=120)
            tokens[name] = (out / "tokens.csv").read_bytes()
            assert tokens[name] == (fresh / "tokens.csv").read_bytes()
        assert tokens["empty"] != tokens["bundled"]


# Runs the five stages on the fixture after `import sentireg` and prints the
# modules they load that the import did not.
LATE_IMPORTS = """
import sys, tempfile
import sentireg
from sentireg import pipeline
with tempfile.TemporaryDirectory() as tmp:
    config = pipeline.PipelineConfig(corpus=sys.argv[1], covariates=sys.argv[2], out=tmp)
    loaded = set(sys.modules)
    for stage in ("preprocess", "score", "join", "fit", "diagnose"):
        getattr(pipeline, f"stage_{stage}")(config)
    print(sorted(set(sys.modules) - loaded))
"""


def test_stages_load_no_module_that_import_sentireg_did_not():
    # Each stage runs in a fresh process (`sentireg <stage>`), so a module
    # first loaded inside one is loaded in every run of it: numpy.ma, for
    # one, which a bare np.unique(x) loads on numpy 2, costs milliseconds.
    src = str(Path(sentireg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LATE_IMPORTS, str(CORPUS), str(COVARIATES)],
                          env=env, check=True, timeout=120, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"


class TestStageOutputs:
    def test_scored_csv_schema(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        with open(out / "scored.csv", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["id", "state", "text_width", "score", "class", "binary"]
            rows = list(reader)
        assert len(rows) == 40
        for row in rows:
            assert row["binary"] in ("0", "1")
            assert -2.0 <= float(row["score"]) <= 2.0

    def test_scored_csv_carries_tokens_text_width(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        columns = {}
        for name in ("tokens.csv", "scored.csv"):
            with open(out / name, encoding="utf-8") as fh:
                columns[name] = [(r["id"], r["state"], r["text_width"])
                                 for r in csv.DictReader(fh)]
        assert columns["scored.csv"] == columns["tokens.csv"]

    def test_join_reads_scored_csv_alone(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        config = PipelineConfig(corpus=CORPUS, covariates=COVARIATES, out=out)
        before = {name: (out / name).read_bytes() for name in
                  ("analysis_table.csv", "descriptives.csv", "patterns.csv")}
        (out / "tokens.csv").unlink()
        pipeline.stage_join(config)
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name

    @pytest.mark.parametrize("chunk_docs", [1, 3])
    def test_score_chunk_size_leaves_bytes_unchanged(self, tmp_path, monkeypatch, chunk_docs):
        default = run_fixture(tmp_path / "default")
        out = tmp_path / "chunked"
        out.mkdir()
        (out / "tokens.csv").write_bytes((default / "tokens.csv").read_bytes())
        monkeypatch.setattr(sent_mod, "SCORE_CHUNK_DOCS", chunk_docs)
        with records_only():  # the chunked path
            pipeline.stage_score(PipelineConfig(corpus=CORPUS, covariates=COVARIATES, out=out))
        for name in ("scored.csv", "state_summary.csv"):
            assert (out / name).read_bytes() == (default / name).read_bytes(), name

    def test_state_summary_shares(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        with open(out / "state_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["n_docs"]) for r in rows) == 40
        states = [r["state"] for r in rows]
        assert states == sorted(states)
        for r in rows:
            total = (float(r["share_positive"]) + float(r["share_negative"])
                     + float(r["share_neutral"]))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_qq_rows_match_pattern_count(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        report = json.loads((out / "fit_report.json").read_text())
        with open(out / "qq.csv", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
        assert n_rows == report["diagnostics"]["pearson"]["n_patterns"]

    def test_diagnose_writes_qq_csv_through_the_public_functions(self, tmp_path, monkeypatch):
        # qq.csv is qq_export's rows as write_qq_csv writes them, one call each
        out = run_fixture(tmp_path / "run")
        calls = []
        for name in ("qq_export", "write_qq_csv"):
            def counted(*args, fn=getattr(diag_mod, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(diag_mod, name, counted)
        pipeline.stage_diagnose(PipelineConfig(corpus=CORPUS, covariates=COVARIATES, out=out))
        assert calls == ["qq_export", "write_qq_csv"]
        assert hashlib.sha256((out / "qq.csv").read_bytes()).hexdigest() == PINNED_SHA256["qq.csv"]

    def test_margins_cover_all_predictors(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        with open(out / "margins.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        names = [r["variable"] for r in rows]
        assert "Constant" not in names
        assert len(names) == 18
        kinds = {r["variable"]: r["kind"] for r in rows}
        assert kinds["NE"] == kinds["MW"] == kinds["WEST"] == "discrete"
        assert kinds["TW"] == "continuous"

    def test_patterns_csv_groups_analysis_table(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        rows = read_analysis_csv(out / "analysis_table.csv")
        X = np.array([[1.0, *(getattr(r, c) for c in ANALYSIS_COLUMNS[1:])]
                      for r in rows])
        design = DesignMatrix(X=X, y=[r.sentiment for r in rows],
                              names=("Constant",) + ANALYSIS_COLUMNS[1:])
        expected, pattern = covariate_patterns(design)
        patterns = read_patterns_csv(out / "patterns.csv")
        assert patterns.m.tolist() == expected.m.tolist()
        assert patterns.y_sum.tolist() == expected.y.tolist()
        assert np.array_equal(patterns.X, expected.X[:, 1:])
        assert np.array_equal(X, expected.X[pattern])

    def test_join_reads_the_fixture_scored_csv_in_blocks(self, tmp_path):
        # scored.csv as score writes it is plain: join takes the block path
        out = run_fixture(tmp_path / "run")
        covars = load_covariates(COVARIATES)
        with handovers() as reads:
            assert len(tab_mod.read_scored(out / "scored.csv", covars)) == 40
        assert len(reads) == 1 and in_blocks(reads)

    @pytest.mark.parametrize("block_bytes", [256, 1 << 16])
    def test_score_reads_the_fixture_tokens_csv_in_blocks(self, tmp_path, monkeypatch,
                                                          block_bytes):
        # tokens.csv as preprocess writes it is plain: score takes the block path,
        # and both paths write the pinned bytes
        out = run_fixture(tmp_path / "run")
        monkeypatch.setattr(sent_mod, "SCORE_BLOCK_BYTES", block_bytes)
        lexicon = sent_mod.load_lexicon(default_data_path("lexicon.tsv"),
                                        default_data_path("negators.txt"),
                                        default_data_path("amplifiers.tsv"))
        with handovers() as reads:
            totals = sent_mod.write_scored(out / "tokens.csv", tmp_path / "scored.csv", lexicon)
        assert len(reads) == 1 and in_blocks(reads)
        assert totals.n.sum() == 40
        assert (tmp_path / "scored.csv").read_bytes() == (out / "scored.csv").read_bytes()
        with records_only():
            pipeline.stage_score(PipelineConfig(corpus=CORPUS, covariates=COVARIATES, out=out))
        for name in ("scored.csv", "state_summary.csv"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == PINNED_SHA256[name]

    def test_row_level_join_artifacts_unchanged(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        for name, digest in PINNED_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_human_report_mentions_fit_statistics(self, tmp_path):
        out = run_fixture(tmp_path / "run")
        text = (out / "fit_report.txt").read_text()
        for needle in ("LR chi2(", "Prob > chi2", "Pseudo R2", "Log-likelihood",
                       "Pearson chi2(", "Correctly classified"):
            assert needle in text


class TestAtomicWrites:
    def test_failed_write_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "margins.csv"
        effect = MarginalEffect("x", "continuous", 0.1, 0.01, 10.0, 0.0)
        write_margins_csv(path, [effect])
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            # the second item fails after the header and first row are written
            write_margins_csv(path, [effect, effect, None])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["margins.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(AttributeError):
            write_margins_csv(tmp_path / "margins.csv", [None])
        assert list(tmp_path.iterdir()) == []


# -- which path each stage takes on realistic text ----------------------------

def load_generator(path: str):
    """A corpus generator of this repository, read from its file:
    perfbench/widevocab.py or scripts/make_fixtures.py."""
    spec = importlib.util.spec_from_file_location(
        Path(path).stem, Path(__file__).resolve().parents[1] / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STAGE_OUTPUTS = ("tokens.csv", "scored.csv", "state_summary.csv", "analysis_table.csv")


def preprocess_score_and_join(corpus: Path, out: Path,
                              forced: bool = False) -> tuple[dict[str, bytes], list[dict]]:
    """tokens.csv, scored.csv, state_summary.csv and analysis_table.csv as
    the three stages write them, and each stage's read (handover.handovers);
    with `forced`, every stage reads records only."""
    out.mkdir()
    config = PipelineConfig(corpus=corpus, covariates=COVARIATES, out=out)
    with records_only() if forced else contextlib.nullcontext(), handovers() as reads:
        pipeline.stage_preprocess(config)
        pipeline.stage_score(config)
        pipeline.stage_join(config)
    return {name: (out / name).read_bytes() for name in STAGE_OUTPUTS}, reads


def test_wide_vocab_corpus_stays_on_the_block_paths(tmp_path):
    # Most of its texts are quoted, as csv.writer quotes a text with a comma,
    # so preprocess reads them with CorpusReader; the files it writes are
    # plain, and score and join read them in blocks.
    widevocab = load_generator("perfbench/widevocab.py")
    corpus = tmp_path / "corpus.csv"
    widevocab.write_corpus_csv(corpus, widevocab.make_corpus(7, 500))
    assert corpus.read_bytes().count(b',"') > 250  # quoted texts, in every block
    blocks, reads = preprocess_score_and_join(corpus, tmp_path / "blocks")
    assert len(reads) == 3 and reads[0]["declined"] and in_blocks(reads[1:])
    assert blocks == preprocess_score_and_join(corpus, tmp_path / "records", forced=True)[0]


def test_an_accented_line_alone_takes_the_per_record_code(tmp_path, monkeypatch):
    lines = CORPUS.read_bytes().splitlines(keepends=True)
    accented = lines[20].decode().rstrip("\r\n").split(",")[2] + " café très"
    lines[20] = lines[20].rstrip(b"\r\n") + " café très\r\n".encode()
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(b"".join(lines))
    texts = []
    words = corpus_mod.WordNormalizer.words

    def recorded(self, text):
        texts.append(text)
        return words(self, text)

    monkeypatch.setattr(corpus_mod.WordNormalizer, "words", recorded)
    blocks, reads = preprocess_score_and_join(corpus, tmp_path / "blocks")
    assert len(reads) == 3 and in_blocks(reads)
    assert texts == [accented]
    assert "café".encode() in blocks["tokens.csv"]  # so score reads UTF-8 words in blocks
    assert blocks == preprocess_score_and_join(corpus, tmp_path / "records", forced=True)[0]


# -- the hand-over from blocks to csv.reader, late in the file -----------------

def body_lines(path: Path) -> int:
    """The lines after a CSV file's header, each one record."""
    return path.read_bytes().count(b"\n") - 1


# tweets seed 7 with a quoted text last, a quoted id last, and a quoted id
# in the middle: csv.writer quotes the id in tokens.csv and scored.csv too.
LATE_ROWS = {"late-text": (20_000, ("zz1", "NC", "good, very good")),
             "late-id": (20_000, ("x,1", "NC", "good day")),
             "mid-id": (10_000, ("y,2", "NC", "good day"))}


@pytest.mark.parametrize("variant", sorted(LATE_ROWS))
def test_a_late_quote_hands_each_line_to_one_reader(tmp_path, variant):
    # Each stage reads its blocks up to the read that holds the quote and
    # csv.reader reads every line after them once; the ten artifacts are
    # those of a run that reads records only.
    fixtures = load_generator("scripts/make_fixtures.py")
    at, row = LATE_ROWS[variant]
    docs = fixtures.make_corpus(7, n_docs=20_000)
    corpus = tmp_path / "corpus.csv"
    fixtures.write_corpus_csv(corpus, docs[:at] + [row] + docs[at:])
    artifacts = {}
    for forced in (False, True):
        out = tmp_path / ("records" if forced else "blocks")
        config = PipelineConfig(corpus=corpus, covariates=COVARIATES, out=out)
        with records_only() if forced else contextlib.nullcontext(), handovers() as reads:
            run_pipeline(config)
        artifacts[forced] = {name: (out / name).read_bytes() for name in ARTIFACTS}
        if forced:
            continue
        files = [corpus, out / "tokens.csv", out / "scored.csv"]
        assert [read["records"] for read in reads] == [
            body_lines(path) - read["start"][1] for path, read in zip(files, reads)]
        quoted = [True] + [variant != "late-text"] * 2  # a quote in each file
        assert [read["declined"] for read in reads] == quoted
        for read, handed in zip(reads, quoted):  # all lines but one read's before the quote
            assert read["start"][1] > at - 2500 * handed
    assert artifacts[False] == artifacts[True]


@pytest.mark.parametrize("command, name, tail, error", [
    ("preprocess", "corpus.csv", b'u1,NC,"good, day"\r\n,NC,x\r\n', "empty id"),
    ("score", "tokens.csv", b'"x,1",NC,7,good\r\ny,NC,+5,good\r\n',
     "text_width must be an integer, got '+5'"),
    ("join", "scored.csv", b'"x,1",NC,7,0.5,Positive,1\r\ny,NC,7,0.5,Positive,2\r\n',
     "binary must be 0 or 1, got '2'"),
])
def test_an_error_after_a_hand_over_names_its_line_in_the_file(tmp_path, monkeypatch, capsys,
                                                               command, name, tail, error):
    # The blocks end at the read that holds the quoted field; the lines after
    # them are numbered on from the blocks', so the bad line is named by its
    # line in the file, as a read of the whole file named it.
    out = run_fixture(tmp_path / "out")
    path = tmp_path / name if command == "preprocess" else out / name
    path.write_bytes((CORPUS if command == "preprocess" else path).read_bytes() + tail)
    for module, constant in ((corpus_mod, "PREPROCESS_BLOCK_BYTES"),
                             (sent_mod, "SCORE_BLOCK_BYTES"), (tab_mod, "JOIN_BLOCK_BYTES")):
        monkeypatch.setattr(module, constant, 256)
    with handovers() as reads:
        assert main([command, "--corpus", str(tmp_path / "corpus.csv"), "--covariates",
                     str(COVARIATES), "--out", str(out)]) == EXIT_SCHEMA
    line = body_lines(path) + 1
    assert f"{path}:{line}: {error}\n" in capsys.readouterr().err
    (read,) = reads
    assert read["declined"] and read["start"][1] > 0
    assert read["records"] == line - 1 - read["start"][1]  # each line after the blocks once
