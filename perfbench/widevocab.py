"""Seeded generator for the `wide-vocab` workload's corpus.

The paper's tweet-shaped corpus (`scripts/make_fixtures.make_corpus`) has a
vocabulary of about a hundred words and a few dozen text widths, so any
per-word cache hits almost always and covariate patterns compress well.
This corpus is the opposite on both counts while staying valid input:

- one-off handles, hashtags and misspellings, plus a Zipf-distributed
  vocabulary, so distinct lowercased words are over a quarter of tokens;
- inflected lexicon words and irregular forms from the lemma list, so both
  the lemma and the stem paths of the normalizer fire;
- negators, amplifiers, URLs, punctuation and mixed case;
- 8 to 45 word tokens per document, so text widths spread and covariate
  patterns are a large share of rows;
- a few rows from territories without a state code, which the loader drops.

Only the standard library is used, and the same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import random
import string
from itertools import accumulate
from pathlib import Path

# 50 states plus DC; every one appears in the first 51 rows, so every
# census region is represented and no dummy column is constant.
STATES = (
    "AK", "AL", "AR", "AZ", "CA", "CO", "CT", "DC", "DE", "FL", "GA", "HI",
    "IA", "ID", "IL", "IN", "KS", "KY", "LA", "MA", "MD", "ME", "MI", "MN",
    "MO", "MS", "MT", "NC", "ND", "NE", "NH", "NJ", "NM", "NV", "NY", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VA", "VT", "WA",
    "WI", "WV", "WY",
)
TERRITORIES = ("PR", "GU", "VI", "AS", "MP")
TERRITORY_SHARE = 0.005

POSITIVE = (
    "great", "happy", "hopeful", "good", "excited", "love", "wonderful", "safe",
    "recover", "support", "thrive", "proud", "grateful", "enjoy", "improve",
    "celebrate", "win", "heal", "boost", "relief", "amazing", "glad", "optimistic",
    "strong", "calm", "success", "progress", "welcome", "comfort", "protect",
)
NEGATIVE = (
    "terrible", "worry", "scared", "bad", "dangerous", "awful", "anxious",
    "frustrate", "devastate", "fear", "hate", "fail", "struggle", "suffer",
    "lose", "hurt", "damage", "panic", "crisis", "risk", "sad", "angry",
    "reckless", "stress", "disaster", "chaos", "threat", "broken", "sick", "grim",
)
# Forms the lemma dictionary maps (the other path is the suffix stemmer).
IRREGULAR = (
    "better", "best", "worse", "worst", "died", "dying", "dies", "deaths",
    "feeling", "felt", "feels", "reopening", "reopened", "going", "went",
    "said", "thought", "lives", "children", "people", "businesses", "cases",
)
NEGATORS = ("not", "no", "never", "don't", "can't", "isn't", "without", "hardly")
AMPLIFIERS = ("very", "really", "extremely", "totally", "truly", "deeply")
COMMON = (
    "the", "a", "and", "is", "to", "of", "in", "for", "on", "with", "it",
    "this", "that", "we", "our", "they", "you", "i", "my", "at", "be", "are",
    "was", "will", "just", "now", "today", "state", "governor", "plan", "week",
    "school", "store", "county", "city", "family", "news", "update", "order",
    "economy", "home", "back", "open", "work", "time", "going", "still", "here",
)
SUFFIXES = ("", "", "s", "ed", "ing", "es", "ly")
PUNCT = ("", "", "", "", "!", ",", ".", "...", "?", "!!")

SYLLABLES = tuple(c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou") + (
    "an", "en", "in", "on", "ar", "er", "or", "al", "el", "il", "ex", "st",
)
N_SYNTHETIC = 8000
ALNUM = string.ascii_lowercase + string.digits


def _synthetic_vocabulary() -> tuple[list[str], list[float]]:
    """A fixed pseudo-English vocabulary and its Zipf cumulative weights."""
    rng = random.Random(20070054)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < N_SYNTHETIC:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    cum = list(accumulate(1.0 / (rank + 1) ** 1.05 for rank in range(N_SYNTHETIC)))
    return words, cum


def _inflect(rng: random.Random, base: str) -> str:
    suffix = rng.choice(SUFFIXES)
    if suffix and base.endswith("e") and suffix[0] in "ei":
        base = base[:-1]
    return base + suffix


def _misspell(rng: random.Random, word: str) -> str:
    i = rng.randrange(len(word))
    edit = rng.randrange(4)
    if edit == 0 and len(word) > 1:  # swap two neighbours
        i = min(i, len(word) - 2)
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if edit == 1:  # double a letter
        return word[:i] + word[i] + word[i:]
    if edit == 2 and len(word) > 3:  # drop a letter
        return word[:i] + word[i + 1:]
    return word[:i] + rng.choice(string.ascii_lowercase) + word[i + 1:]


def _tag(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(ALNUM) for _ in range(n))


def _filler(rng: random.Random, vocab: list[str], cum: list[float]) -> str:
    u = rng.random()
    if u < 0.28:
        return rng.choice(COMMON)
    if u < 0.58:
        return rng.choices(vocab, cum_weights=cum)[0]
    if u < 0.72:
        return "@" + rng.choice(string.ascii_lowercase) + _tag(rng, 7)
    if u < 0.84:
        return "#" + rng.choices(vocab, cum_weights=cum)[0] + rng.choice(COMMON) + _tag(rng, 2)
    if u < 0.93:
        return _misspell(rng, rng.choice(POSITIVE + NEGATIVE + COMMON[20:]))
    return rng.choice(IRREGULAR)


def _sentiment_phrase(rng: random.Random, pool: tuple[str, ...]) -> list[str]:
    phrase = []
    if rng.random() < 0.2:
        phrase.append(rng.choice(NEGATORS))
    if rng.random() < 0.3:
        phrase.append(rng.choice(AMPLIFIERS))
    phrase.append(_inflect(rng, rng.choice(pool)) if rng.random() < 0.4 else rng.choice(pool))
    return phrase


def _document(rng: random.Random, vocab: list[str], cum: list[float]) -> str:
    n_words = rng.randint(8, 45)
    mood = rng.random()
    pool = POSITIVE if mood < 0.45 else NEGATIVE if mood < 0.85 else None
    phrases: list[list[str]] = []
    if pool is not None:
        for _ in range(rng.randint(1, 3)):
            phrases.append(_sentiment_phrase(rng, pool))
    words = [w for p in phrases for w in p][:n_words]
    while len(words) < n_words:
        words.insert(rng.randint(0, len(words)), _filler(rng, vocab, cum))
    out = []
    for i, word in enumerate(words):
        r = rng.random()
        if i == 0 or r < 0.05:
            word = word[:1].upper() + word[1:]
        elif r < 0.08:
            word = word.upper()
        out.append(word + rng.choice(PUNCT))
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        url = rng.choice(("https://t.co/", "http://news.example/", "https://www.example.org/p/"))
        out.insert(rng.randint(0, len(out)), url + _tag(rng, 10))
    return " ".join(out)


def make_corpus(seed: int, n_docs: int) -> list[tuple[str, str, str]]:
    """(id, state, text) rows; the same seed and size give the same rows."""
    if n_docs < len(STATES):
        raise ValueError(f"need at least {len(STATES)} documents, got {n_docs}")
    rng = random.Random(seed)
    vocab, cum = _synthetic_vocabulary()
    states = list(STATES) + [rng.choice(STATES) for _ in range(n_docs - len(STATES))]
    for i in range(len(STATES), n_docs):
        if rng.random() < TERRITORY_SHARE:
            states[i] = rng.choice(TERRITORIES)
    return [(f"w{i + 1:06d}", state, _document(rng, vocab, cum))
            for i, state in enumerate(states)]


def write_corpus_csv(path: str | Path, docs: list[tuple[str, str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "state", "text"])
        w.writerows(docs)
