import itertools
import re
import textwrap
from collections import Counter

import pytest
from hypothesis import given, strategies as st

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
    build_dtm,
    lemmatize,
    load_corpus,
    load_stem_rules,
    load_tsv_map,
    load_wordlist,
    lowercase,
    ngrams,
    pos_tag,
    preprocess,
    remove_stopwords,
    stem,
    tokenize,
)
from sentireg.pipeline import default_data_path

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

    def test_dtm_hand_count(self):
        dtm = build_dtm([stream_of("a", "b"), stream_of("b", "b")])
        assert dtm.terms == ("a", "b")
        assert dtm.to_dense() == [[1, 1], [0, 2]]

    def test_dtm_single_doc(self):
        dtm = build_dtm([stream_of("a")])
        assert dtm.to_dense() == [[1]]

    def test_dtm_disjoint_vocabularies_block_pattern(self):
        # oracle: dense counting by hand, then sparsify
        docs = [stream_of("a", "a"), stream_of("b"), stream_of("c", "c", "c")]
        dtm = build_dtm(docs)
        dense = dtm.to_dense()
        for i, s in enumerate(docs):
            expected = Counter(s.normalized)
            for j, term in enumerate(dtm.terms):
                assert dense[i][j] == expected.get(term, 0)
        assert all(v > 0 for v in dtm.cells.values())

    def test_dtm_empty_corpus(self):
        with pytest.raises(ValueError):
            build_dtm([])


class TestNgrams:
    def test_bigrams(self):
        s = stream_of("reopen", "the", "economy")
        assert ngrams(s, 2) == [("reopen", "the"), ("the", "economy")]

    def test_unigrams_are_the_tokens(self):
        s = stream_of("reopen", "the", "economy")
        assert [g[0] for g in ngrams(s, 1)] == s.normalized

    def test_window_larger_than_stream(self):
        assert ngrams(stream_of("a", "b", "c"), 4) == []

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            ngrams(stream_of("a"), 0)


class TestPosTag:
    LEX = {"the": "ART", "economy": "NOUN"}

    def test_lexicon_hits(self):
        tagged = pos_tag(lowercase(stream_of("the", "economy")), self.LEX)
        assert [(t.normalized, tag) for t, tag in tagged.pairs] == [
            ("the", "ART"), ("economy", "NOUN"),
        ]

    def test_unknown_gets_other(self):
        tagged = pos_tag(stream_of("zxqv"), self.LEX)
        assert tagged.pairs[0][1] == "OTHER"

    def test_empty(self):
        assert pos_tag(tokenize(""), self.LEX).pairs == ()


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


@given(st.lists(words_strategy, min_size=1, max_size=8))
def test_dtm_row_sums(corpora):
    streams = [stream_of(*w) if w else tokenize("") for w in corpora]
    dtm = build_dtm(streams)
    for i, s in enumerate(streams):
        assert dtm.row_sum(i) == len(s)


@given(st.lists(st.sampled_from([
    "http", "HTTP", "hTtP", "Https://a.b/c", "http://", "ht", "tp", "h", "t", "p", "s", "://",
    "x.co/y", "İ", "ı", "ſ", "\u212a", "Å", "ß", "é", " ", "\n", "\t", "#", "@",
]), max_size=16).map("".join))
def test_url_precheck_equals_unconditional_strip(text):
    assert _surfaces(text) == _WORD_RE.findall(_URL_RE.sub(" ", text))


def test_only_ascii_letters_match_the_url_pattern_letters():
    # Why _surfaces may skip the URL regex on texts without "http": every
    # code point that matches h, t or p under IGNORECASE lowers to it.
    every = "".join(map(chr, range(0x110000)))
    for letter in "htp":
        assert {c.lower() for c in re.findall(letter, every, re.IGNORECASE)} == {letter}


@given(words_strategy, st.integers(min_value=1, max_value=10))
def test_ngram_count_formula(words, n):
    s = stream_of(*words) if words else tokenize("")
    assert len(ngrams(s, n)) == max(0, len(s) - n + 1)


# -- the ASCII fast path of WordNormalizer.words ------------------------------

ASCII = "".join(map(chr, range(128)))


def test_ascii_gaps_are_the_characters_no_token_holds():
    for c in ASCII:
        assert (_ASCII_GAPS.get(ord(c)) == " ") == (c != "'" and not _WORD_RE.match(c)), repr(c)


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
