"""Regenerate the bundled data fixtures.

Writes lexicon.tsv, state_covariates.csv, and fixture_corpus.csv into
src/sentireg/data/. Lexicon terms are normalized through the same
preprocessing pipeline the scorer sees, so dictionary hits line up with
normalized tokens. The corpus seed is searched until the full pipeline
fit converges without separation or collinearity. All three files are
written to a temporary directory first and copied into src/sentireg/data/
together only once a seed is accepted, so a failed search changes nothing.

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import csv
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "sentireg" / "data"
FIXTURES = ("lexicon.tsv", "state_covariates.csv", "fixture_corpus.csv")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sentireg import corpus as corpus_mod  # noqa: E402
from sentireg.pipeline import PipelineConfig, StageError, run_pipeline  # noqa: E402
from sentireg.tabulate import REGION_OF_STATE  # noqa: E402

# Raw valence list; values span [-2, +2].
RAW_VALENCES = {
    # strongly positive
    "excellent": 2.0, "amazing": 1.9, "wonderful": 1.9, "fantastic": 1.9,
    "outstanding": 1.8, "superb": 1.8, "brilliant": 1.8, "thrilled": 1.8,
    "delighted": 1.7, "love": 1.7, "joy": 1.7, "celebrate": 1.6,
    "victory": 1.6, "triumph": 1.6, "perfect": 1.6, "awesome": 1.8,
    # positive
    "great": 1.4, "happy": 1.4, "glad": 1.3, "hopeful": 1.3, "optimistic": 1.3,
    "confident": 1.2, "encouraging": 1.2, "positive": 1.2, "good": 1.1,
    "strong": 1.0, "support": 1.0, "thrive": 1.2, "recover": 1.1,
    "recovery": 1.2, "improve": 1.1, "improvement": 1.1, "progress": 1.1,
    "succeed": 1.2, "success": 1.3, "successful": 1.3, "win": 1.2,
    "benefit": 1.0, "boost": 1.0, "gain": 0.9, "grow": 0.9, "growth": 1.0,
    "healthy": 1.0, "heal": 1.0, "relief": 1.0, "relieved": 1.1,
    "safe": 0.9, "safely": 0.9, "safety": 0.8, "secure": 0.8,
    "ready": 0.7, "eager": 0.8, "excited": 1.2, "exciting": 1.2,
    "proud": 1.1, "grateful": 1.3, "thankful": 1.3, "thank": 1.0,
    "welcome": 0.8, "freedom": 1.0, "free": 0.8, "open": 0.6,
    "opportunity": 0.9, "promising": 1.1, "smart": 0.8, "wise": 0.9,
    "calm": 0.7, "stable": 0.7, "steady": 0.6, "normal": 0.5,
    "comfort": 0.8, "comfortable": 0.8, "enjoy": 1.0, "fun": 1.0,
    "nice": 0.8, "fine": 0.5, "okay": 0.4, "alive": 0.6, "revive": 1.0,
    "rebuild": 0.8, "reunite": 0.9, "flourish": 1.3, "prosper": 1.2,
    "prosperity": 1.2, "booming": 1.3, "jobs": 0.6, "paycheck": 0.5,
    "solution": 0.7, "cure": 1.0, "vaccine": 0.6, "immunity": 0.5,
    "protect": 0.6, "protection": 0.6, "care": 0.5, "help": 0.6,
    "helpful": 0.8, "kind": 0.7, "generous": 0.9, "brave": 0.9,
    "courage": 0.9, "resilient": 1.0, "together": 0.5, "unity": 0.8,
    # strongly negative
    "terrible": -1.8, "horrible": -1.9, "awful": -1.8, "disaster": -1.9,
    "catastrophe": -2.0, "catastrophic": -2.0, "devastating": -1.9,
    "devastated": -1.9, "tragic": -1.8, "tragedy": -1.8, "nightmare": -1.8,
    "dreadful": -1.7, "horrific": -1.9, "deadly": -1.7, "fatal": -1.7,
    "hate": -1.6, "furious": -1.6, "outrage": -1.6, "outrageous": -1.6,
    "disgusting": -1.7, "appalling": -1.7, "collapse": -1.5, "ruin": -1.5,
    # negative
    "bad": -1.1, "sad": -1.1, "angry": -1.2, "anger": -1.2, "fear": -1.2,
    "afraid": -1.2, "scared": -1.3, "scary": -1.2, "terrified": -1.6,
    "panic": -1.4, "worry": -1.0, "worried": -1.1, "anxious": -1.1,
    "anxiety": -1.1, "stress": -1.0, "stressed": -1.1, "depressed": -1.4,
    "depression": -1.3, "grief": -1.4, "mourn": -1.3, "cry": -1.0,
    "pain": -1.1, "painful": -1.2, "suffer": -1.3, "suffering": -1.3,
    "sick": -1.0, "illness": -1.0, "disease": -0.9, "infection": -1.0,
    "infected": -1.1, "outbreak": -1.1, "epidemic": -1.1, "pandemic": -0.9,
    "virus": -0.8, "death": -1.5, "die": -1.5, "dying": -1.6, "dead": -1.4,
    "kill": -1.5, "lose": -1.0, "loss": -1.1, "lost": -1.0, "fail": -1.2,
    "failure": -1.3, "broke": -1.0, "broken": -1.1, "bankrupt": -1.4,
    "bankruptcy": -1.4, "unemployed": -1.2, "unemployment": -1.2,
    "layoff": -1.2, "poverty": -1.2, "poor": -0.9, "struggle": -1.0,
    "struggling": -1.1, "crisis": -1.2, "chaos": -1.3, "danger": -1.2,
    "dangerous": -1.3, "risk": -0.8, "risky": -0.9, "threat": -1.1,
    "unsafe": -1.2, "reckless": -1.3, "foolish": -1.1, "stupid": -1.2,
    "wrong": -0.9, "mistake": -0.9, "blame": -0.9, "shame": -1.0,
    "shameful": -1.2, "disappointed": -1.1, "disappointing": -1.1,
    "frustrated": -1.1, "frustrating": -1.1, "upset": -1.0, "hurt": -1.0,
    "harm": -1.0, "harmful": -1.1, "damage": -1.0, "destroy": -1.4,
    "destruction": -1.4, "doom": -1.4, "hopeless": -1.4, "helpless": -1.3,
    "desperate": -1.2, "miserable": -1.4, "gloomy": -1.0, "grim": -1.1,
    "bleak": -1.1, "selfish": -1.1, "greedy": -1.1, "lie": -1.0,
    "ignorant": -1.1, "irresponsible": -1.2, "surge": -0.7, "spike": -0.7,
    "spread": -0.6, "lockdown": -0.5, "quarantine": -0.4, "restriction": -0.4,
}

# Neutral filler vocabulary for fixture tweets (no valence).
FILLER = [
    "state", "today", "governor", "plan", "phase", "week", "month",
    "business", "school", "store", "restaurant", "office", "park",
    "city", "county", "community", "family", "friends", "neighbors",
    "news", "report", "update", "order", "guidelines", "rules",
    "economy", "reopen", "reopening", "back", "home", "outside",
    "watching", "reading", "thinking", "talking", "waiting", "planning",
]

POSITIVE_TEMPLATES = [
    "So {amp} {pos} to see our {f1} {f2} again #reopen",
    "Feeling {pos} and {pos2} about the {f1} reopening this {f2}",
    "Our {f1} is finally open and it feels {pos} http://news.example/a1",
    "{amp} {pos} news from the {f1} today we can {f2} again",
    "What a {pos} day the {f1} reopened and everyone is {pos2}",
    "The {f1} plan looks {pos} I am {pos2} about this {f2}",
    "Reopening went {pos} our {f1} can finally {f2} #recovery",
]

NEGATIVE_TEMPLATES = [
    "This reopening is {amp} {neg} our {f1} is not ready",
    "Feeling {neg} and {neg2} about the {f1} reopening this {f2}",
    "The {f1} reopened too soon this is {neg} http://news.example/b2",
    "{amp} {neg} decision by the {f1} people will {neg2}",
    "Cases keep rising and the {f1} plan is {neg} #staysafe",
    "I am {neg2} this {f1} reopening is a {neg} idea",
    "Not {pos} at all the {f1} situation is {neg} and {neg2}",
]

NEUTRAL_TEMPLATES = [
    "The {f1} announced a new {f2} schedule for next week",
    "Watching the {f1} briefing about the {f2} today",
    "The {f1} posted reopening {f2} on the website http://gov.example/c3",
    "Phase two starts at the {f1} this {f2}",
]

POS_WORDS = ["great", "happy", "hopeful", "good", "excited", "optimistic",
             "wonderful", "encouraging", "relieved", "grateful"]
NEG_WORDS = ["terrible", "worried", "scared", "bad", "dangerous", "reckless",
             "awful", "anxious", "frustrated", "devastating"]
AMPS = ["very", "really", "extremely", "truly"]

ENVELOPES = {
    "FHH_pct": (45.0, 74.0), "AFS": (2.9, 3.6), "EDU2": (32.0, 58.0),
    "EDU3": (3.5, 11.0), "AGE2": (18.5, 29.0), "WP": (30.0, 93.0),
    "OCH": (43.0, 72.0), "PWHI": (3.5, 19.0), "LF": (54.0, 69.0),
    "CASES": (500.0, 19000.0), "PR": (8.0, 19.0),
    "MHHI": (48500.0, 82500.0), "GR": (720.0, 1550.0),
}


def write_lexicon(dest: Path) -> None:
    rules = corpus_mod.load_stem_rules(DATA / "stem_rules.tsv")
    lemmas = corpus_mod.load_tsv_map(DATA / "lemmas.tsv")
    normalized: dict[str, float] = {}
    for word, valence in RAW_VALENCES.items():
        stream = corpus_mod.preprocess(word, stem_rules=rules, lemmas=lemmas)
        term = stream.normalized[0]
        # first writer wins on stem collisions
        normalized.setdefault(term, valence)
    with open(dest / "lexicon.tsv", "w", encoding="utf-8") as fh:
        fh.write("# Valence lexicon: normalized term<TAB>valence in [-2, +2].\n")
        for term in sorted(normalized):
            fh.write(f"{term}\t{normalized[term]}\n")
    print(f"lexicon.tsv: {len(normalized)} terms")


def write_covariates(dest: Path, seed: int = 20200508) -> None:
    rng = random.Random(seed)
    states = sorted(REGION_OF_STATE)
    with open(dest / "state_covariates.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "FHH_pct", "AFS", "EDU2", "EDU3", "AGE2", "WP", "OCH",
                    "PWHI", "LF", "POPDEN", "CASES", "PR", "MHHI", "GR", "region"])
        for state in states:
            row = {k: rng.uniform(*bounds) for k, bounds in ENVELOPES.items()}
            popden = math.exp(rng.uniform(1.5, 8.5))
            w.writerow([
                state, f"{row['FHH_pct']:.2f}", f"{row['AFS']:.2f}",
                f"{row['EDU2']:.2f}", f"{row['EDU3']:.2f}", f"{row['AGE2']:.2f}",
                f"{row['WP']:.2f}", f"{row['OCH']:.2f}", f"{row['PWHI']:.2f}",
                f"{row['LF']:.2f}", f"{popden:.2f}", f"{row['CASES']:.0f}",
                f"{row['PR']:.2f}", f"{row['MHHI']:.0f}", f"{row['GR']:.0f}",
                REGION_OF_STATE[state],
            ])
    print("state_covariates.csv: 51 states")


def make_corpus(seed: int, n_docs: int = 40) -> list[tuple[str, str, str]]:
    rng = random.Random(seed)
    by_region: dict[str, list[str]] = {}
    for state, region in REGION_OF_STATE.items():
        by_region.setdefault(region, []).append(state)
    # every region represented so no dummy column is constant
    states = [rng.choice(sorted(by_region[r])) for r in sorted(by_region)]
    pool = sorted(REGION_OF_STATE)
    states += [rng.choice(pool) for _ in range(n_docs - len(states))]
    rng.shuffle(states)

    docs = []
    for i, state in enumerate(states):
        u = rng.random()
        if u < 0.45:
            template = rng.choice(POSITIVE_TEMPLATES)
        elif u < 0.85:
            template = rng.choice(NEGATIVE_TEMPLATES)
        else:
            template = rng.choice(NEUTRAL_TEMPLATES)
        text = template.format(
            pos=rng.choice(POS_WORDS), pos2=rng.choice(POS_WORDS),
            neg=rng.choice(NEG_WORDS), neg2=rng.choice(NEG_WORDS),
            amp=rng.choice(AMPS), f1=rng.choice(FILLER), f2=rng.choice(FILLER),
        )
        docs.append((f"t{i + 1:03d}", state, text))
    return docs


def write_corpus_csv(path: Path, docs: list[tuple[str, str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "state", "text"])
        w.writerows(docs)


def pipeline_ok(stage: Path) -> bool:
    """Whether the full pipeline on the fixtures staged in `stage` converges
    without separation."""
    import json

    with tempfile.TemporaryDirectory() as tmp:
        config = PipelineConfig(
            corpus=stage / "fixture_corpus.csv", covariates=stage / "state_covariates.csv",
            lexicon=stage / "lexicon.tsv", out=Path(tmp),
        )
        try:
            run_pipeline(config)
        except StageError as exc:
            print(f"  rejected: {exc}")
            return False
        report = json.loads((Path(tmp) / "fit_report.json").read_text())
        max_beta = max(abs(c["coef"]) for c in report["coefficients"])
        if not report["converged"] or max_beta > 25:
            print(f"  rejected: converged={report['converged']} max|beta|={max_beta:.2f}")
            return False
        print(f"  ok: ll={report['ll']:.3f} max|beta|={max_beta:.2f} "
              f"iters={report['n_iter']}")
        return True


def write_fixtures() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        stage = Path(tmp)
        write_lexicon(stage)
        write_covariates(stage)
        for seed in range(1, 200):
            write_corpus_csv(stage / "fixture_corpus.csv", make_corpus(seed))
            print(f"seed {seed}:")
            if pipeline_ok(stage):
                for name in FIXTURES:
                    shutil.copyfile(stage / name, DATA / name)
                print(f"fixture_corpus.csv frozen from seed {seed}")
                return
    raise SystemExit("no workable seed found")


if __name__ == "__main__":
    write_fixtures()
