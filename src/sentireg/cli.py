"""Command-line entry point.

Subcommands mirror the pipeline stages (preprocess, score, join, fit,
diagnose) plus `run`, which executes all of them. Exit codes: 0 success,
2 input/schema error, 3 estimation error, 4 I/O error, 1 any other
(unexpected) error. A fit that has not converged within --max-iter Newton
iterations is an estimation error (logit.ConvergenceError): exit 3, and
no fit report is written.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import SchemaError
from .logit import EstimationError
from .pipeline import _STAGES, PipelineConfig, StageError, run_pipeline

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4

_STAGE_FUNCS = dict(_STAGES)


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", help="corpus CSV (columns: id,state,text)")
    parser.add_argument("--covariates", help="state covariate CSV (one row per state)")
    parser.add_argument("--out", required=True, help="output directory for stage artifacts")
    parser.add_argument("--lexicon", help="valence lexicon TSV (term<TAB>valence)")
    parser.add_argument("--negators", help="negator word list, one per line")
    parser.add_argument("--amplifiers", help="amplifier TSV (term<TAB>multiplier)")
    parser.add_argument("--stopwords", help="stopword list, one per line, '#' comments")
    parser.add_argument("--slang", help="slang/abusive word list, same format as stopwords")
    parser.add_argument("--stem-rules", dest="stem_rules",
                        help="ordered suffix rules TSV (suffix<TAB>replacement)")
    parser.add_argument("--lemmas", help="lemma dictionary TSV (surface<TAB>lemma)")
    parser.add_argument("--cutoff", type=float, default=0.5,
                        help="classification probability cutoff in (0,1), default 0.5")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="convergence tolerance on the log-likelihood change")
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=100,
                        help="maximum Newton iterations")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentireg",
        description="Score sentiment of state-tagged text, join state covariates, "
                    "and fit a binary logit with full diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "run the full pipeline and write every artifact"),
        ("preprocess", "tokenize/normalize the corpus into tokens.csv"),
        ("score", "score tokens.csv into scored.csv and state_summary.csv"),
        ("join", "join scored.csv (alone; it carries text_width) with covariates "
                 "into analysis_table.csv and patterns.csv"),
        ("fit", "fit the logit on patterns.csv"),
        ("diagnose", "fit patterns.csv as fit does; goodness-of-fit, classification, QQ, margins"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_args(p)
    return parser


def _make_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        corpus=args.corpus or "", covariates=args.covariates or "", out=args.out,
        lexicon=args.lexicon, negators=args.negators, amplifiers=args.amplifiers,
        stopwords=args.stopwords, slang=args.slang, stem_rules=args.stem_rules,
        lemmas=args.lemmas, cutoff=args.cutoff, tol=args.tol,
        max_iter=args.max_iter,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    needs = {"run": ("corpus", "covariates"), "preprocess": ("corpus",),
             "join": ("covariates",)}.get(args.command, ())
    if not all(getattr(args, name) for name in needs):
        print(f"{args.command} requires {' and '.join('--' + n for n in needs)}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        config = _make_config(args)
        if args.command == "run":
            run_pipeline(config)
        else:
            config.out.mkdir(parents=True, exist_ok=True)
            _STAGE_FUNCS[args.command](config)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify_error(exc.cause)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify_error(exc)
    return EXIT_OK


def _classify_error(exc: Exception) -> int:
    if isinstance(exc, EstimationError):
        return EXIT_ESTIMATION
    if isinstance(exc, (SchemaError, ValueError)):
        return EXIT_SCHEMA
    if isinstance(exc, (FileNotFoundError, OSError)):
        return EXIT_IO
    return 1


if __name__ == "__main__":
    sys.exit(main())
