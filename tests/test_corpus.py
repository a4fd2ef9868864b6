import codecs
import contextlib
import csv
import hashlib
import io
import itertools
import re
import tempfile
import textwrap
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import corpus as corpus_mod
from sentireg import pipeline
from sentireg.corpus import (
    _ASCII_GAPS,
    _URL_RE,
    _WORD_RE,
    CorpusReader,
    STATE_CODES,
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
    read_columns,
    remove_stopwords,
    stem,
    tokenize,
    write_rows,
)
from sentireg.pipeline import PipelineConfig, default_data_path

from handover import handovers

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

    # The reader keeps a hash of each id and names a repeat once the file is
    # read, or another error stops it: the first bad line is named either way.
    @pytest.mark.parametrize("body, error", [
        ("a,NC,x\nb,CA,y\na,NY,z\n", "corpus.csv:4: duplicate id 'a'"),
        ("a,NC,x\na,CA,y\n,NY,z\n", "corpus.csv:3: duplicate id 'a'"),  # before an empty id
        ("a,NC,x\n,CA,y\na,NY,z\n", "corpus.csv:3: empty id"),           # after one
        ("a,NC,x\na,CA,y\nb,NY\n", "corpus.csv:3: duplicate id 'a'"),    # before a short row
        ('a,NC,x\na,CA,y\nb,NY,"z\n', "corpus.csv:3: duplicate id 'a'"),  # an unterminated quote
        ('a,NC,x\nb,CA,"y"z\na,NY,z\n', "corpus.csv:3: ',' expected"),   # a stray quote first
    ])
    def test_reader_names_the_first_bad_line(self, tmp_path, body, error):
        p = self._write(tmp_path, "id,state,text\n" + body)
        with pytest.raises(SchemaError, match=re.escape(error)):
            list(CorpusReader(p))

    def test_reader_takes_a_hash_collision_for_no_repeat(self, tmp_path, monkeypatch):
        p = self._write(tmp_path, "id,state,text\na,NC,x\nb,PR,y\nc,CA,z\n")
        monkeypatch.setattr(corpus_mod, "_id_hash", lambda doc_id: 0)
        rows = CorpusReader(p)
        assert list(rows) == [("a", "NC", "x"), ("c", "CA", "z")] and rows.dropped == 1
        p.write_text("id,state,text\na,NC,x\nb,PR,y\nb,CA,z\n")
        with pytest.raises(SchemaError, match=re.escape("corpus.csv:4: duplicate id 'b'")):
            list(rows)


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


# -- the ASCII path of write_tokens: _block_words -----------------------------

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


@settings(max_examples=300)
@given(st.lists(st.text(alphabet=st.sampled_from(list("aZ09'_ .,-\t#")) | st.characters(
    max_codepoint=127), max_size=12), max_size=5))
def test_the_apostrophe_rule_equals_the_word_pattern_on_ascii(texts):
    # As the block path splits texts: each after a line mark set off by
    # spaces, all lower-cased and split at once, then cut at the marks.
    data = f" {corpus_mod._LINE_MARK} ".join(["", *texts]).encode("latin-1").lower()
    split = " ".join(corpus_mod._ascii_surfaces(data).decode("latin-1").split())
    assert [part.split() for part in split.split(corpus_mod._LINE_MARK)[1:]] == [
        _WORD_RE.findall(text.lower()) for text in texts]


# Letters, digits, apostrophes and URL parts, with every ASCII byte that a
# str pattern's \s matches: in a bytes pattern \s does not match 0x1C-0x1F.
ASCII_URL_TEXTS = st.lists(st.sampled_from(
    ["a", "B", "7", "'", "http", "://", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
     "\x1e", "\x1f"]), max_size=10).map("".join)


@settings(max_examples=300)
@given(st.lists(ASCII_URL_TEXTS, max_size=4), st.booleans())
@example(["http://a\x1cb"], False)  # _URL_RE ends the URL at 0x1C
@example(["a\x1fhttp://b"], True)  # and a URL may start after 0x1F
def test_block_words_equal_words_on_ascii_texts(texts, fill):
    normalize = WordNormalizer(stem_rules=STEM_RULES, lemmas=LEMMAS)
    assert corpus_mod._block_words(texts, normalize, fill) == [
        " ".join(normalize.words(text)) for text in texts]


def regex_words(text, stopwords, slang, lemmas, stem_rules):
    """WordNormalizer.words without the memo: every surface
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
    # One normalizer for every text, so memo keys written for one text are
    # read for the others.
    normalize = WordNormalizer(stopwords=stopwords, slang=slang, stem_rules=stem_rules,
                               lemmas=lemmas)
    for text in texts + texts[::-1]:
        assert normalize.words(text) == regex_words(text, stopwords, slang, lemmas, stem_rules)


def test_words_without_stem_rules_pass_words_through():
    normalize = WordNormalizer(stem_rules=[])
    assert normalize.words("Reopening STUDIES") == ["reopening", "studies"]


@EACH_NORMALIZATION
@given(st.lists(st.lists(st.sampled_from(sorted(LEMMAS)[:20] + DROP_WORDS + [
    "reopening", "studies", "ies", "ing", "s", "xs"]) | st.text(alphabet="abegins'", max_size=6),
    max_size=12), max_size=4), droplist_strategy, droplist_strategy)
def test_fill_equals_missing(lemmas, stem_rules, batches, stopwords, slang):
    # Batches of lower-case surfaces, some in the memo already, as the block
    # path fills them: every key and value is the one __missing__ gives.
    lists = {"stopwords": stopwords, "slang": slang, "stem_rules": stem_rules, "lemmas": lemmas}
    filled, missed = WordNormalizer(**lists), WordNormalizer(**lists)
    for batch in batches:
        filled.fill(batch)
        for word in batch:
            missed[word]
        assert filled == missed


def test_a_miss_clears_a_full_memo(monkeypatch):
    monkeypatch.setattr(corpus_mod, "MEMO_WORDS", 4)
    normalize = WordNormalizer(stem_rules=[("s", "")])
    for i in range(20):
        assert normalize[f"Word{i}s"] == f"word{i}"
        assert len(normalize) <= 5


@pytest.mark.parametrize("columns", [("id", "state", "text"), ("state", "id", "text")],
                         ids=["block-path", "per-record-path"])
def test_a_bounded_memo_writes_the_same_tokens(tmp_path, monkeypatch, columns):
    # 300 documents of about 900 distinct words, some of them not ASCII, in
    # blocks of a few lines, with the memo cleared past 8 words.
    docs = [{"id": f"t{i}", "state": "NC",
             "text": f"Word{i} word{i % 7}s día{i} {'studies' if i % 2 else 'Reopening'}"}
            for i in range(300)]
    corpus = tmp_path / "corpus.csv"
    with open(corpus, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(docs)
    lists = {"stem_rules": [("ies", "y"), ("s", "")], "lemmas": {"reopening": "reopen"}}
    corpus_mod.write_tokens(corpus, tmp_path / "unbounded.csv", WordNormalizer(**lists))
    monkeypatch.setattr(corpus_mod, "MEMO_WORDS", 8)
    monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", 256)
    normalize = WordNormalizer(**lists)
    with handovers() as reads:
        corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", normalize)
    if columns[0] == "id":  # the block path only
        assert [(read["declined"], read["records"]) for read in reads] == [(False, 0)]
    else:
        assert [(read["start"], read["records"]) for read in reads] == [((0, 0), 300)]
    assert (tmp_path / "tokens.csv").read_bytes() == (tmp_path / "unbounded.csv").read_bytes()
    assert len(normalize) < 50


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


# -- write_tokens: blocks, then CorpusReader, against a reference --------------

CORPUS_HEADERS = ["id,state,text"] * 8 + ["state,id,text", "id,state,text,x"]
TEXT_PARTS = ["good", "Bad", "not", "very", "the", "Reopening", "STUDIES", "computing", "42",
              "don't", "it''s", "''", "'", "'tis", "goin'", "http://a.b/c", "HTTPS://X.Y",
              "xhttp://q", "http", "#reopen", "@gov", "a.b", "x_y", "\x7f", "",
              "café", "Ärger", "x’y", "İ", "a,b", 'say "hi"', "\r\n", "\n", "\r", "\x1c"]
PLAIN_CORPUS_FIELDS = {"id": ["t1", "t22", "t-3", "http://i"], "state": ["NC", "CA", "WY", "DC"]}
ODD_CORPUS_FIELDS = {"id": ["", '"q,t"', "é1", "dup", '"a""b"', '"t\n1"', 't"1'],
                     "state": ["PR", "ny", "NYC", "", '"NC"', "é"],
                     "text": ['"good, bad"', '"say ""hi"""', "café", "good\tbad", "good\x1cbad",
                              "good\x7fbad", "", '"good\tbad"', '"a\x1cb"', 'go"od',
                              '5" x "y', 'a""b', '\x00"a', '"go"od', '"unterminated']}
# Word lists with values write_tokens writes as they are (an empty
# word, a space) or quoted (a comma), a value holding the line mark, a mark
# that normalizes to another word, and a stopword list that drops the mark;
# the first is the bundled lists. Under the last three every text goes
# through WordNormalizer.words alone.
WORD_LISTS = [{}, {"lemmas": "good\t\nbad\tx y\n"}, {"lemmas": "bad\ta,b\n"},
              {"lemmas": "not\t×\n"}, {"lemmas": "×\t×x\n"}, {"stopwords": "the\n×\n"}]


def quoted(field: str) -> str:
    """A field as csv.writer quotes it."""
    return '"' + field.replace('"', '""') + '"'


@st.composite
def corpus_files(draw) -> bytes:
    header = draw(st.sampled_from(CORPUS_HEADERS)).split(",")

    def field(column):
        if column == "text":
            parts = draw(st.lists(st.sampled_from(TEXT_PARTS), max_size=5))
            text = draw(st.sampled_from([" ", " ", ""])).join(parts)
            # quoted where csv.writer would quote it, and at times where it need not be
            return quoted(text) if any(c in text for c in ',"\r\n') or draw(
                st.integers(0, 4)) == 0 else text
        return draw(st.sampled_from(PLAIN_CORPUS_FIELDS.get(column, ["x"])))

    lines = [[field(c) for c in header] for _ in range(draw(st.integers(0, 10)))]
    for i, line in enumerate(lines):  # unique ids unless made odd below
        line[header.index("id")] += f"-{i}"
    ids = [line[header.index("id")] for line in lines]
    eols = [draw(st.sampled_from(["\r\n"] * 3 + ["\n"])) for _ in range(len(lines) + 1)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3])) if lines else 0):
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


def reference_tokens(path: Path, normalize: WordNormalizer):
    """tokens.csv's bytes built without write_tokens: CorpusReader's rows as
    csv.reader reads them, one normalize.words call per kept text, and
    csv.writer; or CorpusReader's error's type and text."""
    try:
        rows = [(doc_id, state, str(len(text)), " ".join(normalize.words(text)))
                for doc_id, state, text in CorpusReader(path)]
    except SchemaError as exc:
        return SchemaError, str(exc)
    out = io.StringIO()
    csv.writer(out).writerows([corpus_mod.TOKENS_COLUMNS, *rows])
    return out.getvalue().encode()


def kept_texts(path: Path) -> list[str] | None:
    """The texts of the rows csv.reader reads with a state CorpusReader
    keeps, ids unchecked; None where read_columns raises."""
    try:
        return [text for _, _, state, text in read_columns(path, ("id", "state", "text"))
                if state in STATE_CODES]
    except SchemaError:
        return None


@contextlib.contextmanager
def recording(normalized: list):
    """Append (whether CorpusReader has begun to read records, text) to
    normalized for each text that write_tokens gives _block_words or
    WordNormalizer.words."""
    reading, block_words, words = [], corpus_mod._block_words, WordNormalizer.words

    class Reader(CorpusReader):
        def batches(self, records, hashes):
            reading.append(True)
            return super().batches(records, hashes)

    def logged_block_words(texts, normalize, fill):
        normalized.extend((bool(reading), text) for text in texts)
        return block_words(texts, normalize, fill)

    def logged_words(self, text):
        normalized.append((bool(reading), text))
        return words(self, text)

    with mock.patch.object(corpus_mod, "CorpusReader", Reader), \
            mock.patch.object(corpus_mod, "_block_words", logged_block_words), \
            mock.patch.object(WordNormalizer, "words", logged_words):
        yield


def preprocess_both(data: bytes, block_bytes: int, field_limit: int, word_lists: dict):
    """For a corpus of data: stage_preprocess's result and the reference
    (reference_tokens), each tokens.csv's bytes or an error's type and text;
    the texts write_tokens normalized, each after whether CorpusReader had
    begun to read the file (recording); and kept_texts."""
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
            normalized = []
            with recording(normalized):
                stage = preprocessed(lambda: pipeline.stage_preprocess(config), out)
            if not isinstance(stage, bytes):  # nothing left behind, not even a temp file
                assert list(out.iterdir()) == []
            normalize = WordNormalizer(stopwords=load_wordlist(config.stopwords),
                                       slang=load_wordlist(config.slang),
                                       stem_rules=load_stem_rules(config.stem_rules),
                                       lemmas=load_tsv_map(config.lemmas))
            return (stage, reference_tokens(config.corpus, normalize), normalized,
                    kept_texts(config.corpus))
    finally:
        csv.field_size_limit(old_limit)


def block_rule(data: bytes, block_bytes: int, field_limit: int) -> tuple[int, int]:
    """The fewest and the most kept texts that write_tokens may read in
    blocks from a corpus of data, by the rule: blocks are read up to the
    first line that holds a quote, an empty id, a byte that is not UTF-8 or
    a control byte but its line end, has other than three fields, or is over
    field_limit bytes before its line end. The lines that end before the
    read of block_bytes that holds its start are read in blocks; it and the
    lines after it are not. Without such a line every kept text is."""
    body = data.removeprefix(codecs.BOM_UTF8)
    header, _, rest = body.partition(b"\n")
    if header.removesuffix(b"\r") != b"id,state,text":
        return 0, 0
    start = offset = len(data) - len(rest)
    lines, kept_ends = rest.split(b"\n"), []
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        if last and not line:
            break
        bare = line if last else line.removesuffix(b"\r")  # a CR at the file's end is bare
        fields = bare.split(b",")
        try:
            bare.decode()
        except UnicodeDecodeError:
            break
        if (b'"' in bare or min(bare, default=32) < 32 or len(fields) != 3 or not fields[0]
                or len(bare) > field_limit):
            read = start + (offset - start) // block_bytes * block_bytes
            return sum(end < read for end in kept_ends), len(kept_ends)
        if fields[1].decode() in STATE_CODES:
            kept_ends.append(offset + len(line))
        offset += len(line) + 1
    return len(kept_ends), len(kept_ends)


def check_routing(data, block_bytes, field_limit, word_lists=None):
    """Preprocess a corpus of data (preprocess_both); assert that it writes
    the reference's bytes or error, reads blocks by block_rule, and gives each
    kept text to _block_words or words once. Returns stage_preprocess's
    result, the count of texts read in blocks, and kept_texts."""
    stage, reference, normalized, kept = preprocess_both(data, block_bytes, field_limit,
                                                         word_lists or {})
    assert stage == reference
    in_blocks = sum(not began for began, _ in normalized)
    low, high = block_rule(data, block_bytes, field_limit)
    assert low <= in_blocks <= high, (low, in_blocks, high)
    assert all(began for began, _ in normalized[in_blocks:])  # then CorpusReader's rows
    texts = Counter(text for _, text in normalized)
    if isinstance(stage, bytes):
        assert texts == Counter(kept)
    elif kept is not None:  # a repeated id: what was normalized, was normalized once
        assert not texts - Counter(kept)
    return stage, in_blocks, kept


PLAIN_CORPUS = b"id,state,text\r\n" + b"".join(
    b"t%d,%s,%s\r\n" % (i, [b"NC", b"CA", b"PR"][i % 3],
                        b" ".join([b"Not", b"very", b"good", b"http://x.y", b"day's"][i % 5:]))
    for i in range(12))

MIXED_IDS_CORPUS = (b'id,state,text\r\nt0,NC,"good, day"\r\nt1,CA,not bad\r\nt2,NY,very good\r\n'
                    b'"a,1",NC,bad day\r\n"b""2",CA,good\r\n"c\r3",NY,"not, bad"\r\n'
                    b'"d\n4",NC,day\r\nt5,CA,fine day\r\n')


# Through stage_preprocess, write_tokens writes the reference's bytes or
# error, reading the corpus in blocks up to its first line that is not
# plain and the rest with CorpusReader.
@settings(max_examples=300, deadline=None)
@given(corpus_files(), st.integers(min_value=8, max_value=64),
       st.sampled_from([csv.field_size_limit()] * 4 + [30]),
       st.sampled_from(WORD_LISTS[:1] * 4 + WORD_LISTS[1:]))
@example(PLAIN_CORPUS, 40, csv.field_size_limit(), {})
@example(PLAIN_CORPUS + b't,NC,"a, b"\r\n', 40, csv.field_size_limit(), {})  # a later block
@example(PLAIN_CORPUS + b"t1,NC,x\r\n", 40, csv.field_size_limit(), {})  # a repeated id
@example(PLAIN_CORPUS + "t,NC,café\r\n".encode(), 40, csv.field_size_limit(), WORD_LISTS[1])
# a quoted field over two reads, with a quote csv.reader reads as a
# character after it; a "" pair split between two reads
@example(b'id,state,text\r\nt,NC,"a\r\nb,"\r\nu,NC,5" x\r\n', 11, csv.field_size_limit(), {})
@example(b'id,state,text\r\nt,NC,"a""b"\r\nu"1,NC,x\r\n', 8, csv.field_size_limit(), {})
# one block each: quoted texts, one with 0x1F; CRLF and LF line ends mixed,
# without quotes and with; a bare CR inside an unquoted text
@example(b'id,state,text\r\nt0,NC,"good, day"\r\nt1,CA,"a\x1fb good"\r\nt2,NY,plain words here\r\n',
         4096, csv.field_size_limit(), {})
@example(PLAIN_CORPUS + b"t,NC,good day\nu,CA,Bad\r\nv,NY,x\n", 4096, csv.field_size_limit(), {})
@example(b'id,state,text\nt0,NC,"a, b"\r\nt1,CA,c\nt2,NY,"d\r\ne"\r\nt3,NC,f\n', 4096,
         csv.field_size_limit(), {})
@example(b"id,state,text\r\nt0,NC,good\rday\r\nt1,CA,not bad\r\n", 4096, csv.field_size_limit(),
         {})
# record batches of 16 characters of text: the first with plain ids, written
# as joined, then two that mix plain ids with ids csv.writer quotes, for a
# comma, a quote, a CR and an LF; and the same with a lemma whose form holds
# a comma, so every batch goes to csv.writer
@example(MIXED_IDS_CORPUS, 16, csv.field_size_limit(), {})
@example(MIXED_IDS_CORPUS, 16, csv.field_size_limit(), WORD_LISTS[2])
def test_preprocess_blocks_equals_the_per_record_path(data, block_bytes, field_limit,
                                                      word_lists):
    check_routing(data, block_bytes, field_limit, word_lists)


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
@pytest.mark.parametrize("tail", [b"", b"t,CA,\r\nu,NC,http first\nv,ny,dropped\r\n",
                                  b"t,NC,it's ''quoted'' https://a", b"t,NC,\x7fdel\x7f"])
def test_preprocess_blocks_reads_plain_blocks(tail, bom):
    # CRLF and LF, an empty text, a dropped state, apostrophes, a URL and a
    # last line without an end, in blocks of a line or two, after a
    # byte-order mark or none: every kept text is read in blocks.
    stage, in_blocks, kept = check_routing(bom + PLAIN_CORPUS + tail, 40,
                                           csv.field_size_limit())
    assert in_blocks == len(kept) == 8 + tail.count(b",NC,") + tail.count(b",CA,")
    assert stage.count(b"\r\n") == stage.count(b"\n") == 1 + len(kept)


@pytest.mark.parametrize("tail", [
    b"t,NC,good\r",                        # a CR at the end of the file
    b"\r\n",                               # a blank line
    b't,NC,"good"\r\n',                    # a quote
    "t,NC,café\r\n".encode(),              # non-ASCII text
    b"t,NC,good\tday\r\n",                 # a tab
    b"t,NC,good\x1cday\r\n",               # a separator str.split splits at
    b"t,NC,http://a\x1cb\r\n",             # and the URL pattern stops at
    b"t,NC,good\ru,NC,day\r\n",            # a bare CR
    b't,NC,"a, ""b""\r\nc\nd"\r\n',        # a quoted comma, "" pair, CRLF and LF
    b't,NC,go"od\r\n',                     # a quote csv.reader reads as a character
    b't"1,NC,a 5" x ""y""\r\nu,NC,"z"\r\n',  # more of them, and a quoted field after
    b't,NC,"it\'s"\r\nu,NC,\'tis goin\'\r\n',  # apostrophes at a text's edges
    b"t,NC,good,x\r\n",                    # an extra field
    b'"t,1",NC,good\r\n',                  # an id csv.writer quotes
    "t,é,café\r\nu,NC,\"Ärger, x’y\"\r\n".encode(),  # a non-ASCII state, a quoted text
])
def test_preprocess_blocks_takes_quotes_utf8_and_odd_lines(tail):
    # The plain lines before the tail are read in blocks, and the tail by
    # CorpusReader unless it is plain too.
    stage, _, _ = check_routing(PLAIN_CORPUS + tail, 40, csv.field_size_limit())
    assert isinstance(stage, bytes)


# A tweet-shaped corpus of 600 lines in blocks of 1024 bytes.
LONG_CORPUS = b"id,state,text\r\n" + b"".join(
    b"t%d,%s,%s\r\n" % (i, [b"NC", b"CA", b"PR"][i % 3],
                        b" ".join([b"Not", b"very", b"good", b"http://x.y", b"day's"][i % 5:]))
    for i in range(600))


@pytest.mark.parametrize("last, error", [
    (b'u,NC,"good, very good"\r\n', None),   # a quoted text with a comma
    (b"\r\n", None),                         # a blank line
    (b"u,NC,good\tday\r\n", None),           # a tab
    (b"u,NC,good\rv,CA,day\r\n", None),      # a bare CR
    (b"t7,CA,again\r\n", "duplicate id 't7'"),  # a repeated id
], ids=["quoted-comma", "blank", "tab", "bare-CR", "repeated-id"])
def test_a_corpus_plain_but_its_last_line_is_read_once(last, error):
    # The blocks before the last line's read are written as read, and
    # CorpusReader reads on from the next row: no text is normalized twice.
    stage, in_blocks, kept = check_routing(LONG_CORPUS + last, 1024, csv.field_size_limit())
    assert in_blocks >= 400 - 1024 // 20
    if error is None:
        assert isinstance(stage, bytes)
    else:  # read to its end in blocks; then CorpusReader names the line
        assert stage == (SchemaError, f"{stage[1].split(':')[0]}:602: {error}")
        assert in_blocks == len(kept)


@pytest.mark.parametrize("collide", [False, True], ids=["hashes", "colliding-hashes"])
def test_an_id_repeated_across_the_hand_over_is_named_as_corpus_reader_names_it(
        collide, monkeypatch):
    # t7 in a plain block, a quoted text in a later read, then t7 again: the
    # blocks' id hashes and the records' are checked as one array, and the
    # error names the repeat's line. With every id hashed alike and no id
    # repeated, the ids are compared and the bytes stand.
    if collide:
        monkeypatch.setattr(corpus_mod, "_id_hash", lambda doc_id: 0)
    quoted = LONG_CORPUS + b'u,NC,"good, very good"\r\nv,CA,day\r\n'
    with handovers() as reads:
        stage, in_blocks, kept = check_routing(quoted + b"t7,CA,again\r\n", 1024,
                                               csv.field_size_limit())
    assert stage == (SchemaError, f"{stage[1].split(':')[0]}:604: duplicate id 't7'")
    assert reads[0]["declined"] and reads[0]["start"][1] > 7 and in_blocks >= 400 - 1024 // 20
    assert reads[0]["records"] == 603 - reads[0]["start"][1]  # the lines after the blocks, once
    stage, _, _ = check_routing(quoted, 1024, csv.field_size_limit())
    monkeypatch.undo()
    assert stage == check_routing(quoted, 1024, csv.field_size_limit())[0]
    assert isinstance(stage, bytes)


def test_quoted_texts_are_split_with_their_block(tmp_path, monkeypatch):
    # A comma, a "" pair and line ends in a quoted text: CorpusReader reads
    # them, and they are split with the rest of their batch.
    def refuse(*args):
        raise AssertionError("a text went through words alone")

    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(PLAIN_CORPUS + b't,NC,"Good, ""very"" good\r\nday\nhttp://x\ry"\r\n'
                       + b'u,NC,"it\'s"\n')
    calls, block_words = [], corpus_mod._block_words

    def recorded(texts, normalize, fill):
        calls.append(list(texts))
        return block_words(texts, normalize, fill)

    monkeypatch.setattr(corpus_mod, "_block_words", recorded)
    monkeypatch.setattr(WordNormalizer, "words", refuse)
    corpus_mod.write_tokens(corpus, tmp_path / "tokens.csv", WordNormalizer())
    assert (tmp_path / "tokens.csv").read_bytes().endswith(
        b"t,NC,33,good very good day y\r\nu,NC,4,it's\r\n")
    assert calls[-1][-2:] == ['Good, "very" good\r\nday\nhttp://x\ry', "it's"]


@pytest.mark.parametrize("change, error", [
    (lambda d: d.replace(b"state,text", b"text,state", 1), None),  # another order
    (lambda d: d.replace(b"\r\n", b",x\r\n", 1), None),          # an extra column
    (lambda d: d.replace(b"\r\n", b"\r", 2)[:-2] + b"\r\n", None),  # a header ending in a bare CR
    (lambda d: d + b",NC,good\r\n", "empty id"),
    (lambda d: d + b"t0,PR,good\r\n", "duplicate id 't0'"),  # on a dropped line
    (lambda d: d + b"t,NC\r\n", "malformed row"),
    (lambda d: d + b't,NC,"go"od\r\n', "',' expected after '\"'"),  # a stray quote
    (lambda d: d + b't,NC,"good\r\nu,NC,day\r\n', "unexpected end of data"),  # unterminated
    (lambda d: d + b"t,NC,go\xe9d\r\n", "not UTF-8"),
])
def test_preprocess_blocks_declines_what_is_not_plain(change, error):
    # A corpus in error is read in blocks up to the line at fault, and
    # CorpusReader names that line; another header is not read in blocks.
    stage, _, _ = check_routing(change(PLAIN_CORPUS), 40, csv.field_size_limit())
    assert error is None or (stage[0] is SchemaError and error in stage[1]), stage


def frombuffer_bytes(monkeypatch) -> list[int]:
    """The sizes of the buffers np.frombuffer is given from now on."""
    sizes, frombuffer = [], np.frombuffer

    def counted(buffer, *args, **kwargs):
        sizes.append(len(buffer))
        return frombuffer(buffer, *args, **kwargs)

    monkeypatch.setattr(np, "frombuffer", counted)
    return sizes


def test_quotes_read_as_characters_keep_the_blocks_short(tmp_path, monkeypatch):
    # After `5" screen` in the first read, numpy sees no byte, and CorpusReader
    # gives the texts in batches of about PREPROCESS_BLOCK_BYTES characters.
    lines = [b"id,state,text", b"s,NC,a 5\" screen"] + [
        b't%d,NC,"good, day"' % i if i % 2 else b'u%d,NC,it\'s 5"" wide' % i for i in range(2000)]
    data = b"\r\n".join(lines) + b"\r\n"
    stage, in_blocks, _ = check_routing(data, 64, csv.field_size_limit())
    assert isinstance(stage, bytes) and in_blocks == 0
    (tmp_path / "corpus.csv").write_bytes(data)
    monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", 64)
    sizes, batches, block_words = frombuffer_bytes(monkeypatch), [], corpus_mod._block_words

    def recorded(texts, normalize, fill):
        batches.append(sum(map(len, texts)))
        return block_words(texts, normalize, fill)

    monkeypatch.setattr(corpus_mod, "_block_words", recorded)
    corpus_mod.write_tokens(tmp_path / "corpus.csv", tmp_path / "tokens.csv", WordNormalizer())
    assert sizes == [] and sum(batches) > 2000 * 9 and max(batches) < 64 + max(map(len, lines))


@pytest.mark.parametrize("rest, error", [
    (b"t%d,NC,good day\r\n", "unexpected end of data"),  # no quote closes it
    (b't%d,NC,5" wide\r\n', "',' expected after '\"'"),  # the next quote closes it
])
def test_an_unterminated_quote_declines_in_one_pass(tmp_path, monkeypatch, rest, error):
    data = b"id,state,text\r\ns,NC,\"good\r\n" + b"".join(rest % i for i in range(2000))
    sizes = frombuffer_bytes(monkeypatch)
    stage, in_blocks, _ = check_routing(data, 64, csv.field_size_limit())
    assert error in stage[1] and in_blocks == 0 and sizes == []

    def reading_seconds(data):  # the best of three reads of the file in 64-byte blocks
        (tmp_path / "corpus.csv").write_bytes(data)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with contextlib.suppress(corpus_mod._NotPlain):
                for _ in corpus_mod._record_blocks(tmp_path / "corpus.csv", ("id", "state", "text"),
                                                   64):
                    pass
            times.append(time.perf_counter() - start)
        return min(times)

    # The block reader stops at the read that holds the quote, however much
    # of the file is after it.
    assert reading_seconds(data) < 20 * reading_seconds(data.replace(b'"good', b"good")) + 0.05


@pytest.mark.parametrize("block_bytes", [256, 1 << 14])
def test_preprocess_blocks_takes_the_fixture(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", block_bytes)
    config = PipelineConfig(corpus=default_data_path("fixture_corpus.csv"),
                            covariates=tmp_path / "c.csv", out=tmp_path)
    normalize = WordNormalizer(stopwords=load_wordlist(config.stopwords),
                               slang=load_wordlist(config.slang),
                               stem_rules=load_stem_rules(config.stem_rules),
                               lemmas=load_tsv_map(config.lemmas))
    with handovers() as reads:  # every row in blocks, none from CorpusReader
        corpus_mod.write_tokens(config.corpus, tmp_path / "tokens.csv", normalize)
    assert [(read["declined"], read["records"]) for read in reads] == [(False, 0)]
    assert hashlib.sha256((tmp_path / "tokens.csv").read_bytes()).hexdigest() == (
        "67fabf662a885786bb50a05d1cb39e809b9babf41f884e0a5ead0bc3132300aa")


@pytest.mark.parametrize("data", [
    default_data_path("fixture_corpus.csv").read_bytes(),
    PLAIN_CORPUS + b't,NC,"Good, ""very"" good\r\nday"\r\nu,CA,"x, y"\r\nv,PR,"z"\r\n',
])
def test_a_hash_collision_is_not_reported_as_a_duplicate(data, monkeypatch):
    # With every id hashed alike, the ids themselves are compared, after the
    # last block or after CorpusReader's last row, and the output stands.
    blocks, _, _ = check_routing(data, 256, csv.field_size_limit())
    assert isinstance(blocks, bytes)
    monkeypatch.setattr(corpus_mod, "_id_hash", lambda doc_id: 0)
    assert check_routing(data, 256, csv.field_size_limit())[0] == blocks


def test_a_duplicate_id_in_the_last_block_keeps_the_previous_tokens(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_mod, "PREPROCESS_BLOCK_BYTES", 40)
    corpus, out = tmp_path / "corpus.csv", tmp_path / "out"
    corpus.write_bytes(PLAIN_CORPUS + b"u,NC,good\r\nt0,CA,again\r\n")
    out.mkdir()
    (out / "tokens.csv").write_bytes(b"previous")
    blocks, record_blocks = [], corpus_mod._record_blocks

    def recorded(*args):
        for block in record_blocks(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(corpus_mod, "_record_blocks", recorded)
    with pytest.raises(SchemaError, match=re.escape(f"{corpus}:15: duplicate id 't0'")):
        corpus_mod.write_tokens(corpus, out / "tokens.csv", WordNormalizer())
    assert blocks[-1].endswith(b"t0,CA,again\r\n") and b"t0,NC" not in blocks[-1]
    assert list(out.iterdir()) == [out / "tokens.csv"]
    assert (out / "tokens.csv").read_bytes() == b"previous"


# A plain_blocks field is mostly plain UTF-8, at times with a quote, a
# control byte csv.reader reads as data or as a line end, or a comma, quoted,
# or longer than a limit of 30.
PLAIN_CHARS = ["a", "1", " ", "é", "€", "\U0001d11e"]
ODD_CHARS = ['"', "\r", "\n", "\t", "\x00", "\x1c", ","]


@st.composite
def framed_files(draw) -> tuple[bytes, list[str], list[str]]:
    """A CSV file of 4 or 6 columns; its header; and its lines after the
    header, without their line ends."""
    header = [f"c{i}" for i in range(draw(st.sampled_from([4, 6])))]
    widths = st.sampled_from([len(header)] * 8 + [len(header) - 1, len(header) + 1])

    def field():
        text, odd = draw(st.text(PLAIN_CHARS, max_size=6)), draw(st.sampled_from(ODD_CHARS))
        return draw(st.sampled_from([text] * 24 + [odd + text, text + odd, quoted(odd + text),
                                                   "a" * 31]))

    lines = [",".join(field() for _ in range(draw(widths))) for _ in range(draw(st.integers(0, 8)))]
    eols = [draw(st.sampled_from(["\r\n", "\n"])) for _ in range(len(lines) + 1)]
    head = draw(st.sampled_from([",".join(header)] * 9 + [",".join(reversed(header))]))
    text = "".join(line + eol for line, eol in zip([head] + lines, eols))
    if lines and draw(st.booleans()):
        text = text.removesuffix(eols[-1])  # a last line without a terminator
    return draw(st.sampled_from([""] * 4 + ["\ufeff"])).encode() + text.encode(), header, lines


# Each line plain_blocks yields is split at its edges into csv.reader's
# fields, and it yields every line of a file with the header's field count
# on each line, no quote, no control byte but a line end and no line over
# the limit.
@settings(max_examples=300, deadline=None)
@given(framed_files(), st.integers(min_value=8, max_value=64),
       st.sampled_from([csv.field_size_limit()] * 3 + [30]))
@example((b"c0,c1,c2,c3\r\n" + b"a,b,c,d\r\n" * 3, ["c0", "c1", "c2", "c3"], ["a,b,c,d"] * 3),
         8, csv.field_size_limit())
@example((b"c0,c1,c2,c3\r\n" + b"a" * 24 + b",b,c,d\r\n", ["c0", "c1", "c2", "c3"],
          ["a" * 24 + ",b,c,d"]), 16, 30)  # a CRLF line of exactly the limit
@example((b"c0,c1,c2,c3\r\n" + b"a" * 31 + b",b,c,d\r\n", ["c0", "c1", "c2", "c3"],
          ["a" * 31 + ",b,c,d"]), 64, 30)  # a field over it
def test_plain_blocks_edges_split_as_csv_reader(file, block_bytes, field_limit):
    data, header, lines = file
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.csv"
            path.write_bytes(data)
            framed = []
            try:
                for buf, edges in corpus_mod.plain_blocks(path, header, block_bytes):
                    block = buf.tobytes()
                    framed.extend([[block[s + 1:e].decode() for s, e in zip(row, row[1:])]
                                   for row in edges.tolist()])
                took = True
            except corpus_mod._NotPlain:
                took = False
            with open(path, newline="", encoding="utf-8-sig") as fh:
                rows = csv.reader(fh, strict=True)  # the header, then the lines framed
                assert [next(rows) for _ in range(len(framed) + 1)][1:] == framed
    finally:
        csv.field_size_limit(old_limit)
    first = data.removeprefix(codecs.BOM_UTF8).split(b"\n", 1)[0].removesuffix(b"\r")
    if first == ",".join(header).encode() and all(
            line.count(",") == len(header) - 1 and '"' not in line
            and min(line, default=" ") >= " " and len(line.encode()) <= field_limit
            for line in lines):
        assert took and len(framed) == len(lines)
