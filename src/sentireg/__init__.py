"""Lexicon sentiment scoring of state-tagged text, state covariate joins,
and binary logit estimation with goodness-of-fit diagnostics."""

# Assigned before the submodule imports: pipeline reads it while the
# package is still initialising.
__version__ = "0.1.0"

from .corpus import (
    Document,
    Token,
    TokenStream,
    bag_of_words,
    lemmatize,
    load_corpus,
    lowercase,
    preprocess,
    remove_stopwords,
    stem,
    tokenize,
)
from .diagnostics import (
    classification_summary,
    covariate_patterns,
    marginal_effects,
    pearson_chi2,
    qq_export,
)
from .logit import (
    DesignMatrix,
    LogitFit,
    classify_threshold,
    fit,
    log_likelihood,
    log_odds,
    lr_test,
    predict_prob,
    pseudo_r2,
)
from .pipeline import PipelineConfig, run_pipeline
from .sentiment import Lexicon, SentimentScore, aggregate_by_state, classify, score, to_binary
from .tabulate import (
    AnalysisRow,
    StateCovariates,
    descriptive_stats,
    join,
    load_covariates,
    region_dummies,
)
