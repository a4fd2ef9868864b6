"""Corpus ingestion, text processing, and the CSV reader and writer.

Raw documents come in as CSV rows (id, state, text). Everything downstream
works on token streams: tokenize, lowercase, drop stopwords/slang, stem or
lemmatize, then count (bag of words). `preprocess` runs those steps in one
pass: what becomes of a token depends only on its surface form, so a
`WordNormalizer` memo normalizes each distinct surface once; it splits an
ASCII text by lower, a blank for each apostrophe not inside a word, a
byte-table translate and split, which give the word regex's tokens. Every
CSV is read by `read_columns` and written by `write_rows`. `write_tokens`,
score and join read a CSV with `read_batches`: as numpy byte blocks of
whole lines up to the first that `plain_blocks` declines (a quote, or a
line csv.reader would read otherwise than at its commas and line ends),
then the lines after them with csv.reader. Every other function is pure.
"""

from __future__ import annotations

import codecs
import csv
import encodings.utf_8_sig  # noqa: F401  every reader's codec, loaded with the package
import io
import re
from array import array
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import chain, compress, filterfalse, islice
from operator import itemgetter
from pathlib import Path
from typing import TextIO

import numpy as np

from .atomic import atomic_open

__all__ = [
    "REGION_OF_STATE",
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
    "read_batches",
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
    "write_tokens",
    "WordNormalizer",
    "load_wordlist",
    "load_tsv_map",
    "load_stem_rules",
]

# 50 states plus DC, each with its Census region
REGION_OF_STATE = {
    # Northeast
    "CT": "Northeast", "ME": "Northeast", "MA": "Northeast", "NH": "Northeast",
    "RI": "Northeast", "VT": "Northeast", "NJ": "Northeast", "NY": "Northeast",
    "PA": "Northeast",
    # Midwest
    "IL": "Midwest", "IN": "Midwest", "MI": "Midwest", "OH": "Midwest",
    "WI": "Midwest", "IA": "Midwest", "KS": "Midwest", "MN": "Midwest",
    "MO": "Midwest", "NE": "Midwest", "ND": "Midwest", "SD": "Midwest",
    # South
    "DE": "South", "FL": "South", "GA": "South", "MD": "South", "NC": "South",
    "SC": "South", "VA": "South", "DC": "South", "WV": "South", "AL": "South",
    "KY": "South", "MS": "South", "TN": "South", "AR": "South", "LA": "South",
    "OK": "South", "TX": "South",
    # West
    "AZ": "West", "CO": "West", "ID": "West", "MT": "West", "NV": "West",
    "NM": "West", "UT": "West", "WY": "West", "AK": "West", "CA": "West",
    "HI": "West", "OR": "West", "WA": "West",
}
STATE_CODES = frozenset(REGION_OF_STATE)


class SchemaError(ValueError):
    """An input file does not match its documented schema."""


def read_columns(path: str | Path, columns: Sequence[str],
                 start: tuple[int, int] = (0, 0)) -> Iterator[tuple]:
    """(line number, *fields) for each non-blank record of a CSV table: the
    named columns' fields in the order named, numbered by the line on which
    the record starts. Other columns are ignored. From `start`, the bytes
    and lines after a header line that plain_blocks took, only the records
    after those lines are read.

    Every CSV that sentireg reads goes through here. The file is UTF-8, with
    or without a byte-order mark, and parsed strictly. A SchemaError naming
    the file, and the line where one applies, is raised for an empty file, a
    missing column, a record too short for the named columns, any CSV
    syntax error (a stray or unterminated quote, or a field over
    csv.field_size_limit(), 131072 by default) and a byte that is not UTF-8.
    """
    offset, lines = start
    with open(path, "rb") as raw:
        line = 1
        try:
            head = [raw.readline().decode("utf-8-sig")] if offset else []
            raw.seek(offset, 1)
            text = io.TextIOWrapper(raw, "utf-8" if offset else "utf-8-sig", newline="")
            reader = csv.reader(chain(head, text), strict=True)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header row required")
            missing = set(columns) - set(header)
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {sorted(missing)}")
            # Each row gets its line number in front, so one call builds the record.
            pick = itemgetter(0, *(header.index(c) + 1 for c in columns))
            line = reader.line_num + 1 + lines
            for row in reader:
                if row:
                    row.insert(0, line)
                    try:
                        record = pick(row)
                    except IndexError:
                        raise SchemaError(f"{path}:{line}: malformed row") from None
                    yield record
                line = reader.line_num + 1 + lines
        except csv.Error as exc:
            raise SchemaError(f"{path}:{line}: {exc}") from None
        except UnicodeDecodeError:  # decoded ahead of the parser: at or after line
            if offset:  # where the reads began sets the line: name it as from the header
                deque(read_columns(path, columns), 0)
            raise SchemaError(f"{path}:{line}: not UTF-8 at or after this line") from None


class _NotPlain(Exception):
    """A file, or a block of it, that a block path leaves to the per-record path."""


def plain_blocks(path: str | Path, header: Sequence[str],
                 block_bytes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(buf, edges) for each block of _record_blocks(path, header,
    block_bytes) that read_columns would split at exactly its commas and
    line ends; _NotPlain at the header or the first other block. `buf` is
    the block as uint8; line i's field c starts at `edges[i, c] + 1` and
    ends at `edges[i, c + 1]`: at its comma, or at the CR or LF that ends the
    line.

    A block is plain when it is UTF-8 with no quote and each of its lines
    has len(header) fields, no control byte but its LF and a CR before it,
    and at most csv.field_size_limit() bytes before its line end. No byte of
    a multi-byte UTF-8 character is a comma, CR or LF."""
    n, limit = len(header), csv.field_size_limit()
    for block in _record_blocks(path, header, block_bytes):
        if not block.isascii():
            try:  # no byte of a multi-byte character is below 0x80
                block.decode()
            except UnicodeDecodeError:
                raise _NotPlain from None
        buf = np.frombuffer(block, np.uint8)
        at = np.flatnonzero((buf == 44) | (buf == 10))  # the commas and LFs
        lf = buf[at] == 10
        ends = at[n - 1::n]  # each line's LF, where every line has n fields
        if len(at) % n or np.count_nonzero(lf) != len(ends) or not lf[n - 1::n].all():
            raise _NotPlain
        cr = buf[ends - 1] == 13
        starts = np.concatenate(([-1], ends[:-1]))
        # Every LF ends a line, so the count of control bytes is the lines
        # and their CRs only when there is no other control byte.
        if (np.count_nonzero(buf < 32) != len(ends) + np.count_nonzero(cr)
                or (ends - cr - starts - 1 > limit).any()):
            raise _NotPlain
        grid = at.reshape(-1, n)  # each line's commas, then its LF
        yield buf, np.column_stack((starts, grid[:, :-1], ends - cr))


def _record_blocks(path: str | Path, header: Sequence[str], block_bytes: int) -> Iterator[bytes]:
    """Each block of whole lines of a CSV file after its header line, read
    block_bytes at a time: a block ends at the last LF read so far, and an
    unterminated last line gets a CRLF, so a CR at its end is a bare CR.
    _NotPlain unless the header line, after a UTF-8 byte-order mark if any,
    is exactly `header`; at the first read that holds a quote; and at a line
    longer than plain_blocks takes, over csv.field_size_limit() bytes before
    its line end."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        line = fh.readline().removeprefix(codecs.BOM_UTF8).removesuffix(b"\n").removesuffix(b"\r")
        if line != ",".join(header).encode() or len(line) > limit:
            raise _NotPlain
        pieces, size = [], 0  # the bytes after the last cut
        for chunk in iter(lambda: fh.read(block_bytes), b""):
            if b'"' in chunk:
                raise _NotPlain
            cut = chunk.rfind(b"\n")
            if cut < 0:
                pieces.append(chunk)
                size += len(chunk)
                if size > limit + 1:  # a CR may end the line
                    raise _NotPlain
                continue
            pieces.append(chunk[:cut + 1])
            yield b"".join(pieces)
            pieces, size = [chunk[cut + 1:]], len(chunk) - cut - 1
        if size:
            yield b"".join(pieces) + b"\r\n"


def read_batches(path: str | Path, header: Sequence[str], columns: Sequence[str],
                 block_bytes: int, block: Callable[[np.ndarray, np.ndarray], object],
                 records: Callable[[Iterator[tuple]], Iterable]) -> Iterator:
    """block(buf, edges) for each block plain_blocks(path, header,
    block_bytes) frames, up to the first that it or `block` (which changes
    nothing before it declines) declines with _NotPlain; then the batches of
    records(rows), rows being read_columns' records of `columns` on the
    lines after the blocks taken. No line is parsed twice."""
    offset = lines = 0
    try:
        for buf, edges in plain_blocks(path, header, block_bytes):
            yield block(buf, edges)
            offset, lines = offset + len(buf), lines + len(edges)
    except _NotPlain:
        pass
    yield from records(read_columns(path, columns, (offset, lines)))


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


_id_hash = hash  # an id's 64 bits for the repeat checks
CORPUS_COLUMNS = ("id", "state", "text")


class CorpusReader:
    """(id, state, text) for each row of a corpus CSV (columns id, state,
    text; extras ignored) whose state is a US state or DC, read as iterated.
    Other rows are counted in `dropped`, afresh on each pass; an empty or
    duplicate id is a SchemaError naming its line.

    Each id is held as its 8-byte _id_hash, not as itself, and the hashes
    are sorted once the last row is read. Where two are equal (a repeated
    id, or a collision, which is not an error), or another error stops the
    read, the file is read again with a set of the ids themselves, which
    names the first bad line: a repeated id before that error is named
    first, as a reader that checked each row in turn would name it."""

    def __init__(self, path: str | Path):
        self.path, self.dropped = path, 0

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        return self.rows(read_columns(self.path, CORPUS_COLUMNS), array("q"))

    def rows(self, records: Iterable[tuple], hashes: array) -> Iterator[tuple[str, str, str]]:
        """The rows kept of read_columns' `records` of this file, checked as
        __iter__ checks them, with `hashes` the _id_hash of each id before."""
        self.dropped = 0
        try:
            for lineno, doc_id, state, text in records:
                if not doc_id:
                    raise SchemaError(f"{self.path}:{lineno}: empty id")
                hashes.append(_id_hash(doc_id))
                if state in STATE_CODES:
                    yield doc_id, state, text
                else:
                    self.dropped += 1
        except SchemaError:
            self._check_ids()
            raise
        hashes = np.asarray(hashes)  # int64, a view of the array, sorted in place
        hashes.sort()
        if (hashes[1:] == hashes[:-1]).any():  # a repeated id, or a collision of two hashes
            self._check_ids()

    def _check_ids(self) -> None:
        """Read the file again with a set of the ids and raise the SchemaError
        of its first repeated id or other error; return at its first empty id,
        whose error `rows` raises, or where there is none, as after a
        collision of two ids' hashes."""
        seen = set()
        for lineno, doc_id, _, _ in read_columns(self.path, CORPUS_COLUMNS):
            if not doc_id:
                return
            if doc_id in seen:
                raise SchemaError(f"{self.path}:{lineno}: duplicate id {doc_id!r}")
            seen.add(doc_id)


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


# On ASCII lower case, [^\W_] is [a-z0-9] and ’ cannot occur, so a token is a
# maximal run of [a-z0-9] with single apostrophes inside it: what split()
# returns once every apostrophe that is not between two of [a-z0-9] is a
# space and the bytes.translate table _ASCII_GAPS has made every other byte
# but a letter, digit or apostrophe a space.
_LONE_APOSTROPHE_RE = re.compile(rb"'(?:(?<![a-z0-9]')|(?![a-z0-9]))")
_ASCII_GAPS = bytes(c if c > 127 or chr(c).isalnum() or chr(c) == "'" else 32 for c in range(256))


def _ascii_surfaces(data: bytes) -> bytes:
    """ASCII lower case with a space for every byte that no token holds."""
    if b"'" in data:
        data = _LONE_APOSTROPHE_RE.sub(b" ", data)
    return data.translate(_ASCII_GAPS)


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


MEMO_WORDS = 1 << 14  # words a WordNormalizer holds before it is cleared


class WordNormalizer(dict):
    """Memo from a token's surface form to its normalized form, or to None
    when the token is dropped. For w = surface.lower(): None if w is a
    stopword or slang word, else lemmas[w] if w is in lemmas, else w
    stemmed by stem_rules, which is w itself without rules. As a value
    depends only on w, `words` keys the memo by the surface and
    write_tokens by the surface lower-cased, with the same values. The memo
    holds only for the word lists it was built from: build one per set of
    lists.

    The memo is a bounded cache, so its size does not grow with a corpus's
    vocabulary: a miss clears it once it holds more than MEMO_WORDS words,
    and write_tokens clears it before a batch of texts once it does. A
    value is a pure function of the word, so a clear changes no output.
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
        self._dropped = frozenset(self._stopwords | self._slang)
        self._lemma_words = frozenset(self._lemmas)

    def __missing__(self, surface: str) -> str | None:
        if len(self) > MEMO_WORDS:
            self.clear()
        word = surface.lower()
        if word in self._stopwords or word in self._slang:
            value = None
        elif word in self._lemmas:
            value = self._lemmas[word]
        else:  # with no rule's suffix, _stem_word(word) is word
            value = _stem_word(word, self._rules) if word.endswith(self._suffixes) else word
        self[surface] = value
        return value

    def fill(self, surfaces: Iterable[str]) -> None:
        """Memoize at once each lower-case surface the memo lacks, to the
        value __missing__ gives it, sorting the new words with set operations.
        Each surface is checked against the memo as it comes, repeats too:
        no set of every surface is built first."""
        new = set(filterfalse(self.__contains__, surfaces))
        dropped = new & self._dropped
        lemmatized = new & self._lemma_words - dropped
        rules, suffixes, lemmas = self._rules, self._suffixes, self._lemmas
        self.update(dict.fromkeys(dropped))
        self.update({w: lemmas[w] for w in lemmatized})
        self.update({w: _stem_word(w, rules) if w.endswith(suffixes) else w
                     for w in new - dropped - lemmatized})

    def forms_avoid(self, chars: str) -> bool:
        """Whether no lemma and no stem rule's replacement holds any of chars,
        so that no word without them normalizes to a form with one."""
        forms = [*self._lemmas.values(), *(repl for _, repl in self._rules)]
        return not any(c in form for form in forms for c in chars)

    def words(self, text: str) -> list[str]:
        """Normalized forms of the tokens of text that are kept, in order."""
        return [w for w in map(self.__getitem__, _surfaces(text)) if w is not None]


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


PREPROCESS_BLOCK_BYTES = 1 << 14  # corpus bytes, or text characters, write_tokens takes at a time
TOKENS_COLUMNS = ("id", "state", "text_width", "tokens")
# '×' is a surface of its own before each kept text: no ASCII token holds it.
_LINE_MARK = "\xd7"
# _URL_RE over the bytes of ASCII lower case: in a bytes pattern \s lacks 0x1C-0x1F
_URL_BYTES_RE = re.compile(rb"http(?<![^\s\x1c-\x1f]http)[^\s\x1c-\x1f]*")
_LF_TO_COMMA = bytes.maketrans(b"\n", b",")


def write_tokens(corpus: str | Path, tokens: str | Path, normalize: WordNormalizer) -> None:
    """Write tokens.csv for a corpus: for each row CorpusReader keeps, its id,
    state, text width and normalize.words(text) joined by spaces. An error
    names its line, and tokens.csv is replaced only when every row is read.

    read_batches gives the rows a batch at a time: each block plain_blocks
    frames up to one with an empty id, split at its commas and line ends at
    once, then CorpusReader.rows' rows in batches of about
    PREPROCESS_BLOCK_BYTES characters of text. A batch's ASCII texts, each
    after a line mark, are lower-cased, stripped of URLs and split at once,
    and one pass through the memo gives their words (_block_words). A text
    that is not ASCII goes through normalize.words alone, as does every text
    when the word lists could write the line mark.

    What is held grows by an 8-byte id hash a row, in one array for both
    kinds of batch, whatever the vocabulary; the output is written a batch
    at a time. The memo is cleared before a batch once it holds over
    MEMO_WORDS words, and filled a batch at a time (WordNormalizer.fill)
    after a batch that changed its size: one whose words all hit it costs
    no extra pass."""
    reader, hashes = CorpusReader(corpus), array("q")

    def block(buf: np.ndarray, edges: np.ndarray) -> tuple:
        # Every CR ends a line: with them dropped, each LF is a separator like a comma.
        fields = buf.tobytes().translate(_LF_TO_COMMA, b"\r").decode().split(",")
        ids, states = fields[0:-1:3], fields[1::3]
        if "" in ids:
            raise _NotPlain
        hashes.extend(map(_id_hash, ids))
        keep = list(map(STATE_CODES.__contains__, states))
        return compress(ids, keep), compress(states, keep), list(compress(fields[2::3], keep)), True

    def records(rows: Iterator[tuple]) -> Iterator[tuple]:
        batch, size = [], 0
        for row in reader.rows(rows, hashes):
            batch.append(row)
            size += len(row[2])
            if size >= PREPROCESS_BLOCK_BYTES:
                yield *zip(*batch), False
                batch, size = [], 0
        if batch:
            yield *zip(*batch), False

    # Whether the line mark stays itself and no word normalizes to a form with it.
    marks = normalize[_LINE_MARK] == _LINE_MARK and normalize.forms_avoid(_LINE_MARK)
    # Whether no form holds a character csv.writer quotes a field for, as no
    # surface does.
    plain_forms, grew = normalize.forms_avoid('",\r\n'), True
    with atomic_open(tokens) as fh:
        write_rows(fh, [TOKENS_COLUMNS])
        for ids, states, texts, plain in read_batches(corpus, CORPUS_COLUMNS, CORPUS_COLUMNS,
                                                      PREPROCESS_BLOCK_BYTES, block, records):
            if len(normalize) > MEMO_WORDS:
                normalize.clear()
                grew = True
            size = len(normalize)
            if marks and "".join(texts).isascii():
                words = _block_words(texts, normalize, grew)
            else:
                batched = [marks and text.isascii() for text in texts]
                batch = iter(_block_words(list(compress(texts, batched)), normalize, grew))
                words = [next(batch) if b else " ".join(normalize.words(text))
                         for b, text in zip(batched, texts)]
            if plain and plain_forms:  # no field to quote: these are csv.writer's bytes
                fh.write("".join([f"{doc_id},{state},{len(text)},{w}\r\n"
                                  for doc_id, state, text, w in zip(ids, states, texts, words)]))
            else:
                write_rows(fh, zip(ids, states, map(str, map(len, texts)), words))
            grew = len(normalize) != size  # a miss may have cleared it too


def _block_words(texts: Sequence[str], normalize: WordNormalizer, fill: bool) -> list[str]:
    """Each ASCII text's kept words joined by spaces, as normalize.words gives
    them, from one lower, URL strip and split of all the texts at once. In
    ASCII, lower() maps only A-Z to a-z, changing no character's class, so
    _URL_BYTES_RE matches _URL_RE's spans and each token is _surfaces(text)'s
    token lower-cased, which the memo maps to the same value."""
    data = f" {_LINE_MARK} ".join(["", *texts]).encode("latin-1").lower()
    if b"http" in data:
        data = _URL_BYTES_RE.sub(b" ", data)
    surfaces = _ascii_surfaces(data).decode("latin-1").split()
    if fill:
        normalize.fill(surfaces)
    joined = " ".join([w for w in map(normalize.__getitem__, surfaces) if w is not None])
    # Each text's kept words are " " and the words joined, or nothing.
    return [w[1:] for w in (" " + joined).split(" " + _LINE_MARK)[1:]]


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


def _tsv_pairs(path: str | Path, expected: str, value: Callable[[str], object] = str,
               check: Callable[[str, object], str | None] = lambda key, value: None,
               ) -> Iterator[tuple[str, object]]:
    """The two tab-separated fields of each content line, the second passed
    through value; any other field count, or a ValueError from value, is a
    SchemaError that says the line should be `expected`. A problem that
    check(key, value) names, or a key already on an earlier line, is a
    SchemaError naming the line too."""
    seen: dict[str, int] = {}
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise SchemaError(f"{path}:{lineno}: expected {expected}")
        if (first := seen.setdefault(parts[0], lineno)) != lineno:
            raise SchemaError(f"{path}:{lineno}: duplicate key {parts[0]!r}, "
                              f"first on line {first}")
        try:
            converted = value(parts[1])
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: expected {expected}, "
                              f"got {parts[1]!r}") from None
        if problem := check(parts[0], converted):
            raise SchemaError(f"{path}:{lineno}: {problem}")
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
