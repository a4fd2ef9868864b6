"""Corpus ingestion and text processing.

Raw documents come in as CSV rows (id, state, text). Everything downstream
works on token streams: tokenize, lowercase, drop stopwords/slang, stem or
lemmatize, then count (bag of words, document-term matrix, n-grams) or tag.
`preprocess` runs those steps in one pass: what becomes of a token depends
only on its surface form, so a `WordNormalizer` memo normalizes each
distinct surface once; it splits an ASCII text with no apostrophe by lower,
translate and split, which give the word regex's tokens. All functions here
are pure; the same input always yields the same output.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

__all__ = [
    "STATE_CODES",
    "Document",
    "Token",
    "TokenStream",
    "BagOfWords",
    "DocumentTermMatrix",
    "PosTaggedStream",
    "CorpusLoadResult",
    "SchemaError",
    "read_columns",
    "CorpusReader",
    "load_corpus",
    "tokenize",
    "lowercase",
    "remove_stopwords",
    "stem",
    "lemmatize",
    "bag_of_words",
    "build_dtm",
    "ngrams",
    "pos_tag",
    "preprocess",
    "WordNormalizer",
    "load_wordlist",
    "load_tsv_map",
    "load_stem_rules",
    "POS_TAGS",
]

# 50 states plus DC
STATE_CODES = frozenset({
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
    "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
    "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
    "WV", "WI", "WY",
})

POS_TAGS = ("NOUN", "VERB", "ADJ", "ART", "PRON", "OTHER")

class SchemaError(ValueError):
    """An input file does not match its documented schema."""


def read_columns(path: str | Path, columns: Sequence[str]) -> Iterator[tuple]:
    """(line number, *fields) for each non-blank record of a CSV table: the
    named columns' fields in the order named, numbered by the line on which
    the record starts. Other columns are ignored.

    Every CSV that sentireg reads goes through here. The file is UTF-8, with
    or without a byte-order mark, and parsed strictly. A SchemaError naming
    the file, and the line where one applies, is raised for an empty file, a
    missing column, a record too short for the named columns, any CSV
    syntax error (a stray or unterminated quote, or a field over
    csv.field_size_limit(), 131072 by default) and a byte that is not UTF-8.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        start = 1
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header row required")
            missing = set(columns) - set(header)
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {sorted(missing)}")
            # Each row gets its line number in front, so one call builds the record.
            pick = itemgetter(0, *(header.index(c) + 1 for c in columns))
            start = reader.line_num + 1
            for row in reader:
                if row:
                    row.insert(0, start)
                    try:
                        record = pick(row)
                    except IndexError:
                        raise SchemaError(f"{path}:{start}: malformed row") from None
                    yield record
                start = reader.line_num + 1
        except csv.Error as exc:
            raise SchemaError(f"{path}:{start}: {exc}") from None
        except UnicodeDecodeError:  # decoded ahead of the parser: at or after start
            raise SchemaError(f"{path}:{start}: not UTF-8 at or after this line") from None


@dataclass(frozen=True)
class Document:
    id: str
    state: str
    text: str
    text_width: int

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.state not in STATE_CODES:
            raise ValueError(f"unknown state code {self.state!r}")
        if self.text_width != len(self.text):
            raise ValueError("text_width must equal the character count of text")


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    position: int


@dataclass(frozen=True)
class TokenStream:
    doc_id: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def normalized(self) -> list[str]:
        return [t.normalized for t in self.tokens]


@dataclass(frozen=True)
class BagOfWords:
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class DocumentTermMatrix:
    """Sparse doc x term count matrix; only nonzero cells are stored."""

    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    cells: dict[tuple[int, int], int]  # (row, col) -> count > 0

    def row_sum(self, i: int) -> int:
        return sum(v for (r, _), v in self.cells.items() if r == i)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * len(self.terms) for _ in self.doc_ids]
        for (r, c), v in self.cells.items():
            dense[r][c] = v
        return dense


@dataclass(frozen=True)
class PosTaggedStream:
    doc_id: str
    pairs: tuple[tuple[Token, str], ...]


@dataclass(frozen=True)
class CorpusLoadResult:
    documents: list[Document]
    dropped: int  # rows discarded for unknown state codes


class CorpusReader:
    """(id, state, text) for each row of a corpus CSV (columns id, state,
    text; extras ignored) whose state is a US state or DC, read as iterated.
    Other rows are counted in `dropped`, afresh on each pass; an empty or
    duplicate id is a SchemaError naming its line. Only the ids seen so far
    are held."""

    def __init__(self, path: str | Path):
        self.path, self.dropped = path, 0

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        path, seen = self.path, set()
        self.dropped = 0
        for lineno, doc_id, state, text in read_columns(path, ("id", "state", "text")):
            if not doc_id:
                raise SchemaError(f"{path}:{lineno}: empty id")
            if doc_id in seen:
                raise SchemaError(f"{path}:{lineno}: duplicate id {doc_id!r}")
            seen.add(doc_id)
            if state in STATE_CODES:
                yield doc_id, state, text
            else:
                self.dropped += 1


def load_corpus(path: str | Path) -> CorpusLoadResult:
    """CorpusReader's rows as a list of Documents, with its drop count."""
    rows = CorpusReader(path)
    documents = [Document(doc_id, state, text, len(text)) for doc_id, state, text in rows]
    return CorpusLoadResult(documents=documents, dropped=rows.dropped)


# A token is a maximal run of letters/digits with internal apostrophes;
# everything else separates. The leading # or @ of hashtags/mentions is
# therefore stripped while the word itself survives.
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
# URLs are dropped wholesale before tokenization.
_URL_RE = re.compile(r"(?<!\S)http\S*", re.IGNORECASE)


# On ASCII, [^\W_] is [A-Za-z0-9] and ’ cannot occur, so in an ASCII text with
# no ' a token is a maximal run of letters and digits: what split() returns
# once _ASCII_GAPS has made every other character a space.
_ASCII_GAPS = {c: " " for c in range(128) if not (chr(c).isalnum() or chr(c) == "'")}


def _surfaces(text: str) -> list[str]:
    # Exact: under IGNORECASE only ASCII h/t/p match "http", and lower() keeps them.
    if "http" in text.lower():
        text = _URL_RE.sub(" ", text)
    return _WORD_RE.findall(text)


def tokenize(text: str, doc_id: str = "") -> TokenStream:
    """Split text into tokens, removing URLs, punctuation, and special characters."""
    tokens = tuple(
        Token(surface=m, normalized=m, position=i) for i, m in enumerate(_surfaces(text))
    )
    return TokenStream(doc_id=doc_id, tokens=tokens)


def lowercase(stream: TokenStream) -> TokenStream:
    return TokenStream(
        doc_id=stream.doc_id,
        tokens=tuple(replace(t, normalized=t.normalized.lower()) for t in stream.tokens),
    )


def remove_stopwords(stream: TokenStream, stoplist: set[str]) -> TokenStream:
    """Drop tokens whose lowercased surface is in the stoplist; positions are kept."""
    return TokenStream(
        doc_id=stream.doc_id,
        tokens=tuple(t for t in stream.tokens if t.surface.lower() not in stoplist),
    )


def _stem_word(word: str, rules: list[tuple[str, str]], min_stem: int = 3) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix) and len(word) > len(suffix):
            candidate = word[: -len(suffix)] + repl
            if len(candidate) >= min_stem:
                return candidate
    return word


def stem(stream: TokenStream, rules: list[tuple[str, str]], min_stem: int = 3) -> TokenStream:
    """Apply the first suffix rule (in table order) that leaves a stem of
    at least min_stem characters; tokens matching no rule pass through."""
    return TokenStream(
        doc_id=stream.doc_id,
        tokens=tuple(
            replace(t, normalized=_stem_word(t.normalized, rules, min_stem))
            for t in stream.tokens
        ),
    )


def lemmatize(stream: TokenStream, dictionary: dict[str, str]) -> TokenStream:
    """Replace dictionary hits by their lemma; misses pass through unchanged."""
    return TokenStream(
        doc_id=stream.doc_id,
        tokens=tuple(
            replace(t, normalized=dictionary.get(t.normalized, t.normalized))
            for t in stream.tokens
        ),
    )


def bag_of_words(stream: TokenStream) -> BagOfWords:
    return BagOfWords(counts=dict(Counter(stream.normalized)))


def build_dtm(corpus: list[TokenStream]) -> DocumentTermMatrix:
    if not corpus:
        raise ValueError("cannot build a document-term matrix from an empty corpus")
    vocab = sorted({term for s in corpus for term in s.normalized})
    index = {term: j for j, term in enumerate(vocab)}
    cells: dict[tuple[int, int], int] = {}
    for i, s in enumerate(corpus):
        for term, count in Counter(s.normalized).items():
            cells[(i, index[term])] = count
    return DocumentTermMatrix(
        doc_ids=tuple(s.doc_id for s in corpus), terms=tuple(vocab), cells=cells
    )


def ngrams(stream: TokenStream, n: int) -> list[tuple[str, ...]]:
    """All contiguous n-token windows, in order, over normalized forms."""
    if n < 1:
        raise ValueError("n must be at least 1")
    words = stream.normalized
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def pos_tag(stream: TokenStream, tag_lexicon: dict[str, str]) -> PosTaggedStream:
    """Lexicon-lookup tagging; unknown tokens get OTHER."""
    pairs = tuple((t, tag_lexicon.get(t.normalized, "OTHER")) for t in stream.tokens)
    return PosTaggedStream(doc_id=stream.doc_id, pairs=pairs)


class WordNormalizer(dict):
    """Memo from a token's surface form to its normalized form, or to None
    when the token is dropped. For w = surface.lower(): None if w is a
    stopword or slang word, else lemmas[w] if w is in lemmas, else w
    stemmed by stem_rules, which is w itself without rules. As a value
    depends only on w, `words` keys the memo by the surface, lower-cased in
    ASCII texts, with the same values. The memo holds only for the word
    lists it was built from: build one per set of lists.
    """

    def __init__(self, *, stopwords: set[str] | None = None, slang: set[str] | None = None,
                 stem_rules: list[tuple[str, str]] | None = None,
                 lemmas: dict[str, str] | None = None):
        super().__init__()
        self._stopwords = stopwords or set()
        self._slang = slang or set()
        self._lemmas = lemmas or {}
        self._rules = stem_rules or []
        self._suffixes = tuple(suffix for suffix, _ in self._rules)

    def __missing__(self, surface: str) -> str | None:
        word = surface.lower()
        if word in self._stopwords or word in self._slang:
            value = None
        elif word in self._lemmas:
            value = self._lemmas[word]
        else:  # with no rule's suffix, _stem_word(word) is word
            value = _stem_word(word, self._rules) if word.endswith(self._suffixes) else word
        self[surface] = value
        return value

    def words(self, text: str) -> list[str]:
        """Normalized forms of the tokens of text that are kept, in order.

        An ASCII text is lower-cased first: there lower() maps only A-Z to
        a-z, changing no character's class, so _URL_RE matches the same
        spans and each token is _surfaces(text)'s token lower-cased."""
        if text.isascii():
            text = text.lower()
            if "http" in text:
                text = _URL_RE.sub(" ", text)
            surfaces = (_WORD_RE.findall(text) if "'" in text
                        else text.translate(_ASCII_GAPS).split())
        else:
            surfaces = _surfaces(text)
        return [w for w in map(self.__getitem__, surfaces) if w is not None]


def preprocess(
    text: str,
    *,
    doc_id: str = "",
    stopwords: set[str] | None = None,
    slang: set[str] | None = None,
    stem_rules: list[tuple[str, str]] | None = None,
    lemmas: dict[str, str] | None = None,
) -> TokenStream:
    """Run the full pipeline: URL strip -> tokenize -> lowercase ->
    stopword/slang removal -> lemmatize and/or stem -> ready for counting.
    Kept tokens retain their positions in the tokenized text.

    Words in lemmas are lemmatized and the rest stemmed by stem_rules;
    either step is skipped when its argument is omitted.
    """
    normalize = WordNormalizer(
        stopwords=stopwords, slang=slang, stem_rules=stem_rules, lemmas=lemmas,
    )
    kept = [(i, s, normalize[s]) for i, s in enumerate(_surfaces(text))]
    return TokenStream(doc_id=doc_id, tokens=tuple(
        Token(surface=s, normalized=w, position=i) for i, s, w in kept if w is not None))


def _content_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for each line of a UTF-8
    resource file, with or without a byte-order mark, that is neither blank
    nor a '#' comment. A byte that is not UTF-8 is a SchemaError naming the
    file and the first line not yet read."""
    with open(path, encoding="utf-8-sig") as fh:
        lineno = 0
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line.strip() and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError:  # decoded ahead of the lines: at or after lineno + 1
            raise SchemaError(f"{path}:{lineno + 1}: not UTF-8 at or after this line") from None


def _tsv_pairs(path: str | Path, expected: str,
               value: Callable[[str], object] = str) -> Iterator[tuple[str, object]]:
    """The two tab-separated fields of each content line, the second passed
    through value; any other field count, or a ValueError from value, is a
    SchemaError that says the line should be `expected`."""
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise SchemaError(f"{path}:{lineno}: expected {expected}")
        try:
            converted = value(parts[1])
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: expected {expected}, "
                              f"got {parts[1]!r}") from None
        yield parts[0], converted


def load_wordlist(path: str | Path) -> set[str]:
    """Newline-delimited word list; blank lines and '#' comments ignored."""
    words = (line.strip() for _, line in _content_lines(path))
    return {w for w in words if not w.startswith("#")}


def load_tsv_map(path: str | Path) -> dict[str, str]:
    """Two-column TSV (key<TAB>value) into a dict; comments and blanks ignored."""
    return dict(_tsv_pairs(path, "two tab-separated fields"))


def load_stem_rules(path: str | Path) -> list[tuple[str, str]]:
    """Ordered suffix rules from a TSV (suffix<TAB>replacement), file order kept."""
    rules: list[tuple[str, str]] = []
    for lineno, line in _content_lines(path):
        suffix, _, repl = line.partition("\t")
        if not suffix or "\t" in repl:
            raise SchemaError(f"{path}:{lineno}: expected suffix<TAB>replacement")
        rules.append((suffix, repl))
    return rules
