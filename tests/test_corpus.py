import csv
import hashlib
import io
import itertools
import re
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import corpus as corpus_mod
from sentireg import pipeline
from sentireg.corpus import (
    _ASCII_GAPS,
    _URL_RE,
    _WORD_RE,
    CorpusReader,
    SchemaError,
    _surfaces,
    TokenStream,
    WordNormalizer,
    _stem_word,
    bag_of_words,
    lemmatize,
    load_corpus,
    load_stem_rules,
    load_tsv_map,
    load_wordlist,
    lowercase,
    preprocess,
    remove_stopwords,
    stem,
    tokenize,
    write_rows,
)
from sentireg.pipeline import PipelineConfig, default_data_path

STEM_RULES = load_stem_rules(default_data_path("stem_rules.tsv"))
LEMMAS = load_tsv_map(default_data_path("lemmas.tsv"))

# The four ways to normalize a kept word: lemmatize dictionary hits and stem
# the rest, only lemmatize, only stem, or neither. An omitted list is None.
EACH_NORMALIZATION = pytest.mark.parametrize(
    "lemmas, stem_rules", [(LEMMAS, STEM_RULES), (LEMMAS, None), (None, STEM_RULES), (None, None)],
    ids=["lemma_then_stem", "lemma", "stem", "none"])


def stream_of(*words: str) -> TokenStream:
    return tokenize(" ".join(words))


class TestTokenize:
    def test_worked_example(self):
        s = tokenize("we have collected data from twitter")
        assert [t.surface for t in s.tokens] == [
            "we", "have", "collected", "data", "from", "twitter",
        ]

    def test_empty(self):
        assert tokenize("").tokens == ()

    def test_punctuation_stripped(self):
        assert [t.surface for t in tokenize("Reopen NOW!!").tokens] == ["Reopen", "NOW"]

    def test_positions_increasing(self):
        s = tokenize("a b c d")
        assert [t.position for t in s.tokens] == [0, 1, 2, 3]

    def test_urls_removed_hashtags_kept(self):
        s = tokenize("reopen http://t.co/xyz now #economy @gov")
        assert [t.surface for t in s.tokens] == ["reopen", "now", "economy", "gov"]

    def test_apostrophes_internal(self):
        assert [t.surface for t in tokenize("don't stop").tokens] == ["don't", "stop"]


class TestLoadCorpus:
    def _write(self, tmp_path, body):
        p = tmp_path / "corpus.csv"
        p.write_text(textwrap.dedent(body), encoding="utf-8")
        return p

    def test_unknown_state_dropped_and_counted(self, tmp_path):
        p = self._write(tmp_path, """\
            id,state,text
            a,NC,hello
            b,ZZ,bogus
            c,CA,hi there
            d,WY,yo
        """)
        result = load_corpus(p)
        assert len(result.documents) == 3
        assert result.dropped == 1

    def test_header_only(self, tmp_path):
        p = self._write(tmp_path, "id,state,text\n")
        result = load_corpus(p)
        assert result.documents == [] and result.dropped == 0

    def test_text_width(self, tmp_path):
        p = self._write(tmp_path, """\
            id,state,text
            a,NC,we have collected data from twitter
        """)
        (doc,) = load_corpus(p).documents
        assert doc.text_width == len("we have collected data from twitter") == 35

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path, "id,text\na,hello\n")
        with pytest.raises(SchemaError, match="state"):
            load_corpus(p)

    def test_duplicate_id(self, tmp_path):
        p = self._write(tmp_path, "id,state,text\na,NC,x\na,CA,y\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_corpus(p)

    def test_errors_name_the_line_a_record_starts_on(self, tmp_path):
        p = self._write(tmp_path, 'id,state,text\na,NC,"two\nlines"\n\na,CA,y\n')
        with pytest.raises(SchemaError, match=r"corpus\.csv:5: duplicate id"):
            load_corpus(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.csv")

    def test_reader_streams_kept_rows_and_counts_drops(self, tmp_path):
        p = self._write(tmp_path, """\
            id,state,text
            a,NC,hello
            b,ZZ,bogus
            c,PR,territory
            d,WY,yo
        """)
        rows = CorpusReader(p)
        assert next(iter(rows)) == ("a", "NC", "hello")
        assert rows.dropped == 0
        assert list(rows) == [("a", "NC", "hello"), ("d", "WY", "yo")]
        assert rows.dropped == 2

    def test_reader_counts_drops_of_each_pass(self, tmp_path):
        p = self._write(tmp_path, """\
            id,state,text
            a,ZZ,bogus
            b,NC,hello
            c,PR,territory
        """)
        rows = CorpusReader(p)
        for _ in range(2):
            assert list(rows) == [("b", "NC", "hello")]
            assert rows.dropped == 2


def test_wordlist_byte_order_mark_is_skipped(tmp_path):
    p = tmp_path / "stopwords.txt"
    p.write_bytes(b"\xef\xbb\xbfthe\nand\n")
    assert load_wordlist(p) == {"the", "and"}


class TestNormalization:
    def test_lowercase(self):
        s = lowercase(stream_of("An", "an", "COVID19"))
        assert s.normalized == ["an", "an", "covid19"]

    @pytest.mark.parametrize("word", ["computes", "computing", "computed"])
    def test_stem_comput(self, word):
        s = stem(lowercase(stream_of(word)), STEM_RULES)
        assert s.normalized == ["comput"]

    @pytest.mark.parametrize("word", ["read", "reading"])
    def test_stem_read(self, word):
        s = stem(lowercase(stream_of(word)), STEM_RULES)
        assert s.normalized == ["read"]

    def test_stem_no_rule(self):
        assert stem(lowercase(stream_of("data")), STEM_RULES).normalized == ["data"]

    def test_stem_minimum_length_guard(self):
        # stripping 's' from 'is' would leave 1 char; rule must not apply
        assert stem(lowercase(stream_of("is")), STEM_RULES).normalized == ["is"]

    @pytest.mark.parametrize("word", ["computes", "computing", "computed"])
    def test_lemmatize_compute(self, word):
        assert lemmatize(lowercase(stream_of(word)), LEMMAS).normalized == ["compute"]

    @pytest.mark.parametrize("word", ["reads", "reading"])
    def test_lemmatize_read(self, word):
        assert lemmatize(lowercase(stream_of(word)), LEMMAS).normalized == ["read"]

    def test_lemmatize_oov_passthrough(self):
        assert lemmatize(lowercase(stream_of("zxqv")), LEMMAS).normalized == ["zxqv"]


class TestStopwords:
    def test_filter(self):
        s = remove_stopwords(stream_of("we", "have", "data"), {"we", "have"})
        assert [t.surface for t in s.tokens] == ["data"]

    def test_empty_stoplist(self):
        s = remove_stopwords(stream_of("data"), set())
        assert [t.surface for t in s.tokens] == ["data"]

    def test_case_insensitive(self):
        assert remove_stopwords(stream_of("The", "the"), {"the"}).tokens == ()

    def test_positions_retained(self):
        s = remove_stopwords(stream_of("we", "have", "data"), {"we", "have"})
        assert s.tokens[0].position == 2


class TestCounting:
    def test_paper_bow_example(self):
        sent = ("Although the order of the words is ignored, multiplicity is "
                "counted and used to determine the focal point of the text analysis")
        s = lowercase(tokenize(sent))
        assert len(s) == 22
        bow = bag_of_words(s)
        assert len(bow.counts) == 17
        assert bow.counts["the"] == 4
        assert bow.counts["of"] == 2
        assert bow.counts["is"] == 2
        assert all(v == 1 for k, v in bow.counts.items() if k not in ("the", "of", "is"))

    def test_bow_empty(self):
        assert bag_of_words(tokenize("")).counts == {}

    def test_bow_multiset(self):
        assert bag_of_words(stream_of("a", "a", "b")).counts == {"a": 2, "b": 1}


class TestPreprocessPipeline:
    def test_lemma_then_stem_misses(self):
        s = preprocess("computing zapped", stem_rules=STEM_RULES, lemmas=LEMMAS)
        # 'computing' is a dictionary hit, 'zapped' falls through to the stemmer
        assert s.normalized == ["compute", "zapp"]

    def test_stopwords_removed_before_normalizing(self):
        s = preprocess("the economy reopens", stopwords={"the"},
                       stem_rules=STEM_RULES, lemmas=LEMMAS)
        assert s.normalized == ["economy", "reopen"]


# -- properties -------------------------------------------------------------

def four_pass_preprocess(text, stopwords, slang, lemmas, stem_rules):
    """preprocess composed from the step-by-step wrappers, one full pass per
    step; lemma hits are not stemmed."""
    stream = lowercase(tokenize(text))
    stream = remove_stopwords(stream, stopwords)
    stream = remove_stopwords(stream, slang)
    if lemmas is None:
        return stream if stem_rules is None else stem(stream, stem_rules)
    lemmatized = lemmatize(stream, lemmas)
    if stem_rules is None:
        return lemmatized
    stemmed = stem(stream, stem_rules)
    return TokenStream(stream.doc_id, tuple(
        lem if t.normalized in lemmas else stm
        for t, lem, stm in zip(stream.tokens, lemmatized.tokens, stemmed.tokens)
    ))


# Upper case, both apostrophes, digits, '_', hashtags and mentions, URLs,
# lemma hits, stem-rule suffixes, and characters whose lower() changes
# length ('İ' lowers to 'i' plus a combining dot). Stop and slang lists are
# drawn from DROP_WORDS, whose surface forms are sampled as often as the rest.
DROP_WORDS = ["the", "we", "is", "don't", "reopens", "i̇stanbul", "covid19", "computing"]
TEXT_FRAGMENTS = sorted(LEMMAS) + [
    "Reopening", "STUDIES", "Don’t", "snake_case", "#Reopen", "@Gov", "http://t.co/x",
    "HTTPS://A.b/c", "İNG", "ıng", "Straße",
]
fragment_strategy = st.one_of(
    st.sampled_from(["The", "the", "WE", "is", "Don't", "reopens", "İstanbul", "COVID19",
                     "#computing"]),
    st.sampled_from(TEXT_FRAGMENTS),
    st.sampled_from(sorted(LEMMAS)).map(str.upper),
    st.text(alphabet="aAeEgGiIİınNsSdD09'’_#@.:/ ", max_size=12),
)
droplist_strategy = st.sets(st.sampled_from(DROP_WORDS))


@EACH_NORMALIZATION
@given(st.lists(fragment_strategy, max_size=12).map(" ".join),
       droplist_strategy, droplist_strategy)
def test_preprocess_equals_four_pass_composition(lemmas, stem_rules, text, stopwords, slang):
    fast = preprocess(text, stopwords=stopwords, slang=slang, stem_rules=stem_rules,
                      lemmas=lemmas)
    oracle = four_pass_preprocess(text, stopwords, slang, lemmas, stem_rules)
    assert [(t.surface, t.normalized, t.position) for t in fast.tokens] == [
        (t.surface, t.normalized, t.position) for t in oracle.tokens
    ]


words_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
    max_size=30,
)


@given(st.text(max_size=200))
def test_tokenize_join_round_trip(text):
    first = tokenize(text)
    rejoined = " ".join(t.surface for t in first.tokens)
    second = tokenize(rejoined)
    assert [t.surface for t in second.tokens] == [t.surface for t in first.tokens]


@given(words_strategy, st.sets(st.sampled_from(["a", "b", "the", "we", "data"])))
def test_stopword_removal_length_identity(words, stoplist):
    s = stream_of(*words) if words else tokenize("")
    kept = remove_stopwords(s, stoplist)
    removed = sum(1 for t in s.tokens if t.surface.lower() in stoplist)
    assert len(kept) + removed == len(s)


@given(words_strategy)
def test_bow_total_equals_stream_length(words):
    s = stream_of(*words) if words else tokenize("")
    assert bag_of_words(s).total == len(s)


@given(st.lists(st.sampled_from([
    "http", "HTTP", "hTtP", "Https://a.b/c", "http://", "ht", "tp", "h", "t", "p", "s", "://",
    "x.co/y", "İ", "ı", "ſ", "\u212a", "Å", "ß", "é", " ", "\n", "\t", "#", "@",
]), max_size=16).map("".join))
def test_url_precheck_equals_unconditional_strip(text):
    assert _surfaces(text) == _WORD_RE.findall(_URL_RE.sub(" ", text))


@settings(max_examples=500)
@given(st.lists(st.sampled_from(["http", "HtTp", *"hHtTpP:/x \t\n\x1c\x1f\xa0İ\u212aſ"]),
                max_size=16).map("".join))
def test_url_pattern_equals_the_lookbehind_first_form(text):
    # _URL_RE checks its lookbehind only after the literal; same spans
    lookbehind_first = re.compile(r"(?<!\S)http\S*", re.IGNORECASE)
    assert _URL_RE.sub(" ", text) == lookbehind_first.sub(" ", text)


def test_only_ascii_letters_match_the_url_pattern_letters():
    # Why _surfaces may skip the URL regex on texts without "http": every
    # code point that matches h, t or p under IGNORECASE lowers to it.
    every = "".join(map(chr, range(0x110000)))
    for letter in "htp":
        assert {c.lower() for c in re.findall(letter, every, re.IGNORECASE)} == {letter}


# -- the ASCII fast path of WordNormalizer.words ------------------------------

ASCII = "".join(map(chr, range(128)))


def test_ascii_gaps_are_the_characters_no_token_holds():
    assert len(_ASCII_GAPS) == 256
    for c in ASCII:
        byte = _ASCII_GAPS[ord(c)]
        assert byte in (ord(c), ord(" ")), repr(c)
        assert (byte == ord(" ")) == (c != "'" and not _WORD_RE.match(c)), repr(c)


def test_words_equal_the_word_pattern_on_every_short_ascii_string():
    normalize = WordNormalizer()
    for n in (0, 1, 2):
        for chars in itertools.product(ASCII, repeat=n):
            text = "".join(chars)
            assert normalize.words(text) == [s.lower() for s in _WORD_RE.findall(text)], text


def regex_words(text, stopwords, slang, lemmas, stem_rules):
    """WordNormalizer.words without the memo or the ASCII path: every surface
    the Unicode regex finds, lower-cased, then dropped, lemmatized or stemmed."""
    lemmas, rules = lemmas or {}, stem_rules or []
    words = []
    for surface in _WORD_RE.findall(_URL_RE.sub(" ", text)):
        w = surface.lower()
        if w not in stopwords and w not in slang:
            words.append(lemmas[w] if w in lemmas else _stem_word(w, rules))
    return words


# ASCII letters of both cases, digits, '_', both apostrophes, punctuation,
# ASCII whitespace that str.split() splits on, URLs in either case, stem-rule
# suffixes and lemma hits, and non-ASCII letters whose case mapping is
# unusual ('İ' and 'ß' lower or upper to two characters, 'ſ' and Kelvin 'K'
# match ASCII letters under IGNORECASE), so texts fall on both paths.
MIXED_FRAGMENTS = st.one_of(
    st.text(alphabet="aAeEgGiInNsSdDtT09_'’#@.,! \t\x0b\x1céİſ\u212aß", max_size=10),
    st.sampled_from(["http", "HTTP://a.b", "Reopening", "STUDIES", "Don't", "café",
                     *sorted(LEMMAS)[:20]]),
)


@EACH_NORMALIZATION
@given(st.lists(st.lists(MIXED_FRAGMENTS, max_size=8).map(" ".join), max_size=6),
       droplist_strategy, droplist_strategy)
def test_words_equal_the_regex_oracle(lemmas, stem_rules, texts, stopwords, slang):
    # One normalizer for every text, so memo keys written from an ASCII text
    # are read for a non-ASCII one and the other way round.
    normalize = WordNormalizer(stopwords=stopwords, slang=slang, stem_rules=stem_rules,
                               lemmas=lemmas)
    for text in texts + texts[::-1]:
        assert normalize.words(text) == regex_words(text, stopwords, slang, lemmas, stem_rules)


def test_words_without_stem_rules_pass_words_through():
    normalize = WordNormalizer(stem_rules=[])
    assert normalize.words("Reopening STUDIES") == ["reopening", "studies"]


# -- write_rows, the joined fast path beside csv.writer ------------------------

# Every character csv.writer quotes a field for, a space, an apostrophe and a
# non-ASCII letter; a field may be empty.
CSV_FIELDS = st.text(alphabet=[",", '"', "\r", "\n", " ", "'", "é", "a"], max_size=4)


@given(st.lists(st.lists(st.lists(CSV_FIELDS, min_size=2, max_size=6), max_size=5),
                max_size=4),
       st.integers(min_value=1, max_value=3))
def test_write_rows_equals_csv_writer(calls, chunk_rows):
    expected, written = io.StringIO(), io.StringIO()
    with mock.patch.object(corpus_mod, "WRITE_CHUNK_ROWS", chunk_rows):
        for rows in calls:
            csv.writer(expected).writerows(rows)
            write_rows(written, rows)
    assert written.getvalue() == expected.getvalue()


def test_write_rows_joins_a_chunk_with_nothing_to_quote(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.writer called on a chunk with nothing to quote")

    monkeypatch.setattr(corpus_mod.csv, "writer", refuse)
    buf = io.StringIO()
    write_rows(buf, iter([("id", "tokens"), ("s1", "reopen economy"), ("s2", "")]))
    assert buf.getvalue() == "id,tokens\r\ns1,reopen economy\r\ns2,\r\n"


# -- write_tokens: the block path against the per-record path ----------------

CORPUS_HEADERS = ["id,state,text"] * 8 + ["state,id,text", "id,state,text,x"]
TEXT_PARTS = ["good", "Bad", "not", "very", "the", "Reopening", "STUDIES", "computing", "42",
              "don't", "it''s", "''", "'", "http://a.b/c", "HTTPS://X.Y", "xhttp://q", "http",
              "#reopen", "@gov", "a.b", "x_y", "\x7f", ""]
PLAIN_CORPUS_FIELDS = {"id": ["t1", "t22", "t-3", "http://i"], "state": ["NC", "CA", "WY", "DC"]}
ODD_CORPUS_FIELDS = {"id": ["", '"q,t"', "é1", "dup"], "state": ["PR", "ny", "NYC", ""],
                     "text": ['"good, bad"', '"say ""hi"""', "café", "good\tbad", "good\x1cbad",
                              "good\x7fbad", ""]}
# Word lists with values the per-record path writes as they are (an empty
# word, a space) or quoted (a comma), a value holding the line mark, a mark
# that normalizes to another word, and a stopword list that drops the mark;
# the first is the bundled lists.
WORD_LISTS = [{}, {"lemmas": "good\t\nbad\tx y\n"}, {"lemmas": "bad\ta,b\n"},
              {"lemmas": "not\t×\n"}, {"lemmas": "×\t×x\n"}, {"stopwords": "the\n×\n"}]


@st.composite
def corpus_files(draw) -> bytes:
    header = draw(st.sampled_from(CORPUS_HEADERS)).split(",")

    def field(column):
        if column == "text":
            parts = draw(st.lists(st.sampled_from(TEXT_PARTS), max_size=5))
            return draw(st.sampled_from([" ", " ", ""])).join(parts)
        return draw(st.sampled_from(PLAIN_CORPUS_FIELDS.get(column, ["x"])))

    lines = [[field(c) for c in header] for _ in range(draw(st.integers(0, 10)))]
    for i, line in enumerate(lines):  # unique ids unless made odd below
        line[header.index("id")] += f"-{i}"
    ids = [line[header.index("id")] for line in lines]
    eols = [draw(st.sampled_from(["\r\n"] * 3 + ["\n"])) for _ in range(len(lines) + 1)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(["field"] * 4 + ["bare CR", "blank", "extra", "short"]))
        if odd == "bare CR":
            eols[i + 1] = "\r"
        elif odd != "field":
            lines[i] = {"blank": [], "extra": lines[i] + ["x"], "short": lines[i][:-1]}[odd]
        elif len(lines[i]) == len(header):  # not made blank, longer or shorter before
            c = draw(st.sampled_from(sorted(set(header) & set(ODD_CORPUS_FIELDS))))
            value = draw(st.sampled_from(ODD_CORPUS_FIELDS[c]))
            if value == "dup":  # a repeated id
                value = draw(st.sampled_from(ids))
            lines[i][header.index(c)] = value
    text = "".join(",".join(line) + eol for line, eol in zip([header] + lines, eols))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line without a terminator
    return draw(st.sampled_from([""] * 9 + ["\ufeff"])).encode() + text.encode()


def preprocessed(run, out):
    """tokens.csv's bytes after a preprocess run, or the error's type and text."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    return (out / "tokens.csv").read_bytes()


def not_plain(*args):
    raise corpus_mod._NotPlain


def preprocess_both(data: bytes, block_bytes: int, field_limit: int, word_lists: dict):
    """Whether write_tokens took the block path for a corpus of data;
    stage_preprocess's result; and its result with plain_blocks declining
    every file, which forces the per-record path."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(corpus_mod, "PREPROCESS_BLOCK_BYTES", block_bytes):
            tmp, out = Path(tmp), Path(tmp) / "out"
            out.mkdir()
            (tmp / "corpus.csv").write_bytes(data)
            lists = {name: tmp / name for name in word_lists}
            for name, path in lists.items():
                path.write_text(word_lists[name], encoding="utf-8")
            config = PipelineConfig(corpus=tmp / "corpus.csv", covariates=tmp / "c.csv",
                                    out=out, **lists)
            declined, kernel = [], corpus_mod._preprocess_blocks

            def recorded(*args):
                try:
                    return kernel(*args)
                except corpus_mod._NotPlain:
                    declined.append(True)  # declined: nothing written, not even a temp file
                    assert list(out.iterdir()) == []
                    raise

            with mock.patch.object(corpus_mod, "_preprocess_blocks", recorded):
                stage = preprocessed(lambda: pipeline.stage_preprocess(config), out)
            (out / "tokens.csv").unlink(missing_ok=True)
            with mock.patch.object(corpus_mod, "plain_blocks", not_plain):
                per_record = preprocessed(lambda: pipeline.stage_preprocess(config), out)
            return not declined, stage, per_record
    finally:
        csv.field_size_limit(old_limit)


PLAIN_CORPUS = b"id,state,text\r\n" + b"".join(
    b"t%d,%s,%s\r\n" % (i, [b"NC", b"CA", b"PR"][i % 3],
                        b" ".join([b"Not", b"very", b"good", b"http://x.y", b"day's"][i % 5:]))
    for i in range(12))


# Through stage_preprocess, the block path either declines and the
# per-record path runs, or writes the per-record path's bytes.
@settings(max_examples=300, deadline=None)
@given(corpus_files(), st.integers(min_value=8, max_value=64),
       st.sampled_from([csv.field_size_limit()] * 4 + [30]),
       st.sampled_from(WORD_LISTS[:1] * 4 + WORD_LISTS[1:]))
@example(PLAIN_CORPUS, 40, csv.field_size_limit(), {})
@example(PLAIN_CORPUS + b't,NC,"a, b"\r\n', 40, csv.field_size_limit(), {})  # a later block
@example(PLAIN_CORPUS + b"t1,NC,x\r\n", 40, csv.field_size_limit(), {})  # a repeated id
@example(PLAIN_CORPUS + "t,NC,café\r\n".encode(), 40, csv.field_size_limit(), WORD_LISTS[1])
def test_preprocess_blocks_equals_the_per_record_path(data, block_bytes, field_limit,
                                                      word_lists):
    _, stage, per_record = preprocess_both(data, block_bytes, field_limit, word_lists)
    assert stage == per_record


@pytest.mark.parametrize("tail", [b"", b"t,CA,\r\nu,NC,http first\nv,ny,dropped\r\n",
                                  b"t,NC,it's ''quoted'' https://a", b"t,NC,\x7fdel\x7f"])
def test_preprocess_blocks_reads_plain_blocks(tail):
    # CRLF and LF, an empty text, a dropped state, apostrophes, a URL and a
    # last line without an end, in blocks of a line or two
    took, stage, per_record = preprocess_both(PLAIN_CORPUS + tail, 40, csv.field_size_limit(), {})
    assert took and stage == per_record
    kept = 8 + tail.count(b",NC,") + tail.count(b",CA,")
    assert stage.count(b"\r\n") == stage.count(b"\n") == 1 + kept


@pytest.mark.parametrize("change", [
    lambda d: "\ufeff".encode() + d,                      # a byte-order mark
    lambda d: d.replace(b"state,text", b"text,state", 1),  # another order
    lambda d: d.replace(b"\r\n", b",x\r\n", 1),          # an extra column
    lambda d: d.replace(b"\r\n", b"\r", 2)[:-2] + b"\r\n",  # a bare CR
    lambda d: d + b"t,NC,good\r",                         # a CR at the end of the file
    lambda d: d + b"\r\n",                                # a blank line
    lambda d: d + b't,NC,"good"\r\n',                     # a quote
    lambda d: d + "t,NC,café\r\n".encode(),               # non-ASCII text
    lambda d: d + b",NC,good\r\n",                        # an empty id
    lambda d: d + b"t0,PR,good\r\n",                      # a repeated id, on a dropped line
    lambda d: d + b"t,NC,good\tday\r\n",                  # a tab
    lambda d: d + b"t,NC,good\x1cday\r\n",                # a separator str.split splits at
])
def test_preprocess_blocks_declines_what_is_not_plain(change):
    took, stage, per_record = preprocess_both(change(PLAIN_CORPUS), 40, csv.field_size_limit(), {})
    assert not took and stage == per_record


@pytest.mark.parametrize("block_bytes", [256, 1 << 14])
def test_preprocess_blocks_takes_the_fixture(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(corpus_mod, "CorpusReader", None)  # the per-record path cannot run
    config = PipelineConfig(corpus=default_data_path("fixture_corpus.csv"),
                            covariates=tmp_path / "c.csv", out=tmp_path)
    normalize = WordNormalizer(stopwords=load_wordlist(config.stopwords),
                               slang=load_wordlist(config.slang),
                               stem_rules=load_stem_rules(config.stem_rules),
                               lemmas=load_tsv_map(config.lemmas))
    corpus_mod.write_tokens(config.corpus, tmp_path / "tokens.csv", normalize)
    assert hashlib.sha256((tmp_path / "tokens.csv").read_bytes()).hexdigest() == (
        "67fabf662a885786bb50a05d1cb39e809b9babf41f884e0a5ead0bc3132300aa")
