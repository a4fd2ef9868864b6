"""Corpus ingestion, text processing, and the CSV reader and writer.

Raw documents come in as CSV rows (id, state, text). Everything downstream
works on token streams: tokenize, lowercase, drop stopwords/slang, stem or
lemmatize, then count (bag of words). `preprocess` runs those steps in one
pass: what becomes of a token depends only on its surface form, so a
`WordNormalizer` memo normalizes each distinct surface once; it splits an
ASCII text with no apostrophe by lower, a byte-table translate and split,
which give the word regex's tokens. Every CSV is read by `read_columns` and
written by `write_rows`; `plain_blocks` frames a file that csv.reader would
split at its commas and line ends as numpy byte blocks, for the block kernels
of preprocess, score and join. `preprocess_blocks` writes tokens.csv for a
plain corpus a block at a time: the kept texts of a block, each after a line
mark, are lower-cased, stripped of URLs and split at once, and one pass
through the memo gives every line's words. Every other function is pure.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import TextIO

import numpy as np

from .atomic import atomic_open

__all__ = [
    "STATE_CODES",
    "Document",
    "Token",
    "TokenStream",
    "BagOfWords",
    "CorpusLoadResult",
    "SchemaError",
    "TOKENS_COLUMNS",
    "read_columns",
    "plain_blocks",
    "ascii_int",
    "write_rows",
    "CorpusReader",
    "load_corpus",
    "tokenize",
    "lowercase",
    "remove_stopwords",
    "stem",
    "lemmatize",
    "bag_of_words",
    "preprocess",
    "preprocess_blocks",
    "WordNormalizer",
    "load_wordlist",
    "load_tsv_map",
    "load_stem_rules",
]

# 50 states plus DC
STATE_CODES = frozenset({
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
    "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
    "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
    "WV", "WI", "WY",
})


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


def plain_blocks(path: str | Path, block_bytes: int) -> Iterator:
    """A CSV file's header names, then (buf, edges) for each block of whole
    lines, read block_bytes at a time, while read_columns would split the
    file at exactly its commas and line ends; None, and nothing after it, at
    the header or the first block where it might not.

    That holds while the header and every line are ASCII with no quote and no
    CR outside a CRLF line end, the header has a comma, every line has the
    header's comma count, and no line without its end is longer than
    csv.field_size_limit(), so no field is. An unterminated last line is
    framed as if it ended in CRLF, so a CR in it is not plain. `buf` is the
    block as uint8; line i's field c starts at `edges[i, c] + 1` and ends at
    `edges[i, c + 1]`: at its comma, or at the CR or LF that ends the line.
    """
    limit = csv.field_size_limit()

    def frame(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
        if not block.isascii() or b'"' in block:
            return None
        buf = np.frombuffer(block, np.uint8)
        seps = np.flatnonzero((buf == 44) | (buf == 10))
        if len(seps) % (k + 1):
            return None
        grid = seps.reshape(-1, k + 1)  # each line's commas, then its LF
        ends = grid[:, k]
        cr = buf[ends - 1] == 13
        starts = np.r_[0, ends[:-1] + 1]
        if ((buf[grid] != [44] * k + [10]).any() or (ends - cr - starts).max() > limit
                or np.count_nonzero(buf == 13) != np.count_nonzero(cr)):
            return None
        return buf, np.column_stack((starts - 1, grid[:, :k], ends - cr))

    with open(path, "rb") as fh:
        header = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if (not header.isascii() or b'"' in header or b"\r" in header or b"," not in header
                or len(header) > limit):
            yield None
            return
        names = header.decode().split(",")
        yield names
        k, carry = len(names) - 1, b""
        for chunk in iter(lambda: fh.read(block_bytes), b""):
            cut = (data := carry + chunk).rfind(b"\n") + 1
            carry = data[cut:]
            if len(carry) > limit:
                yield None
                return
            if cut:
                yield (block := frame(data[:cut]))
                if block is None:
                    return
        if carry:
            yield frame(carry + b"\r\n")


def ascii_int(text: str) -> int:
    """The int a field of ASCII digits spells, as sentireg writes a count.
    Any other text is a ValueError, such as " 5", "+5", "5_0" or "\u0663",
    which int() would take, or more digits than int() converts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


WRITE_CHUNK_ROWS = 256  # rows write_rows joins at a time; bounds its buffers


def write_rows(fh: TextIO, rows: Iterable[Sequence[str]]) -> None:
    """Write rows of two or more str fields as csv.writer(fh).writerows does,
    byte for byte. csv.writer quotes only a field that holds '"', ",", CR or LF
    (or is a row's lone field, empty), so a chunk joined by "," and "\r\n" with no
    '"' and no other ",", CR or LF is written as joined; any other goes to csv.writer."""
    rows = iter(rows)
    while chunk := list(islice(rows, WRITE_CHUNK_ROWS)):
        body = "\r\n".join(map(",".join, chunk))
        if ('"' not in body and body.count("\n") == len(chunk) - 1 == body.count("\r")
                and body.count(",") == sum(map(len, chunk)) - len(chunk)):
            fh.writelines((body, "\r\n"))  # no copy of body
        else:
            csv.writer(fh).writerows(chunk)


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
# URLs are dropped wholesale before tokenization. The literal comes first, so
# the engine looks for "http" before it tries the lookbehind: the same spans as
# r"(?<!\S)http\S*", which tries the lookbehind at every character.
_URL_RE = re.compile(r"http(?<!\Shttp)\S*", re.IGNORECASE)


# On ASCII, [^\W_] is [A-Za-z0-9] and ’ cannot occur, so in an ASCII text with
# no ' a token is a maximal run of letters and digits: what split() returns once
# the bytes.translate table _ASCII_GAPS has made every other byte a space.
_ASCII_GAPS = bytes(c if c > 127 or chr(c).isalnum() or chr(c) == "'" else 32 for c in range(256))


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
                        else text.encode().translate(_ASCII_GAPS).decode().split())
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


PREPROCESS_BLOCK_BYTES = 1 << 14  # corpus bytes preprocess_blocks reads at a time
TOKENS_COLUMNS = ("id", "state", "text_width", "tokens")
# '×' is a surface of its own before each kept text: no token holds it.
_LINE_MARK = "\xd7"
# _URL_RE over bytes, and _WORD_RE or the line mark on ASCII lower case
_URL_BYTES_RE = re.compile(rb"http(?<!\Shttp)\S*")
_WORD_OR_MARK_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*|" + _LINE_MARK)


class _NotPlain(Exception):
    """A block that a block kernel leaves to the per-record path."""


def preprocess_blocks(corpus_path: str | Path, tokens_path: str | Path,
                      normalize: WordNormalizer) -> bool:
    """Write tokens.csv for a corpus from a numpy pass per block, the bytes the
    per-record path (CorpusReader, normalize.words, write_rows) writes; True.
    False, with tokens.csv untouched and no temp file left, unless the header
    is exactly id,state,text, plain_blocks frames every block, the only control
    bytes are line ends, every id is non-empty and none repeats, no kept word
    holds a quote, comma, CR or LF, and normalize keeps the line mark as it is.
    A corpus declined after its first block is read again by the caller."""
    blocks = plain_blocks(corpus_path, PREPROCESS_BLOCK_BYTES)
    if next(blocks) != ["id", "state", "text"] or normalize[_LINE_MARK] != _LINE_MARK:
        return False
    seen: set[str] = set()  # every id, as CorpusReader keeps them
    try:
        with atomic_open(tokens_path) as fh:
            write_rows(fh, [TOKENS_COLUMNS])
            for block in blocks:
                if block is None:
                    raise _NotPlain
                fh.write(_preprocess_block(*block, normalize, seen))
    except _NotPlain:
        return False
    return True


def _preprocess_block(buf: np.ndarray, edges: np.ndarray, normalize: WordNormalizer,
                      seen: set[str]) -> str:
    """A framed corpus block's tokens.csv lines; adds its ids to seen."""
    if np.count_nonzero(buf < 32) != len(edges) + np.count_nonzero(buf == 13):
        raise _NotPlain
    # Each line is id,state,text and its end: with the ends as commas, one split.
    fields = buf.tobytes().replace(b"\r\n", b",").replace(b"\n", b",").decode().split(",")
    ids, states, texts = fields[0:-1:3], fields[1::3], fields[2::3]
    n_seen = len(seen)
    seen.update(ids)
    if "" in ids or len(seen) != n_seen + len(ids):
        raise _NotPlain
    keep = list(map(STATE_CODES.__contains__, states))
    texts = list(compress(texts, keep))
    # The kept texts, each after a line mark, split into the words and the marks.
    block = f" {_LINE_MARK} ".join(["", *texts]).encode("latin-1").lower()
    if b"http" in block:
        block = _URL_BYTES_RE.sub(b" ", block)
    if b"'" in block:
        surfaces = _WORD_OR_MARK_RE.findall(block.decode("latin-1"))
    else:
        surfaces = block.translate(_ASCII_GAPS).decode("latin-1").split()
    joined = " ".join([w for w in map(normalize.__getitem__, surfaces) if w is not None])
    if joined.count(_LINE_MARK) != len(texts) or any(c in joined for c in '",\r\n'):
        raise _NotPlain
    # Each text's kept words are " " and the words joined, or nothing.
    words = (" " + joined).split(" " + _LINE_MARK)[1:]
    return "".join([f"{doc_id},{state},{len(text)},{w[1:]}\r\n" for doc_id, state, text, w
                    in zip(compress(ids, keep), compress(states, keep), texts, words)])


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
