import csv
import math
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import pipeline
from sentireg import sentiment as sent_mod
from sentireg.corpus import Document, SchemaError, _NotPlain, tokenize
from sentireg.sentiment import (
    MAX_AMPLIFIER,
    Lexicon,
    SentimentClass,
    StateTotals,
    aggregate_by_state,
    aggregate_scores,
    classify,
    load_lexicon,
    score,
    score_batch,
    to_binary,
)
from sentireg.pipeline import PipelineConfig, default_data_path


def lex(valences=None, negators=(), amplifiers=None):
    return Lexicon(
        valences=valences or {},
        negators=frozenset(negators),
        amplifiers=amplifiers or {},
    )


def stream_of(*words):
    return tokenize(" ".join(words))


def doc(state, i=0):
    return Document(id=f"d{state}{i}", state=state, text="x", text_width=1)


class TestScore:
    def test_single_match(self):
        s = score(stream_of("great"), lex({"great": 1.0}))
        assert s.value == pytest.approx(1.0)
        assert s.label is SentimentClass.POSITIVE
        assert s.matched_count == 1

    def test_negation(self):
        s = score(stream_of("not", "great"), lex({"great": 1.0}, negators={"not"}))
        assert s.value == pytest.approx(-1 / math.sqrt(2))
        assert s.label is SentimentClass.NEGATIVE

    def test_no_match_is_neutral(self):
        s = score(stream_of("plain", "words"), lex({"great": 1.0}))
        assert s.value == 0.0
        assert s.label is SentimentClass.NEUTRAL
        assert s.matched_count == 0

    def test_double_negation_cancels(self):
        s = score(stream_of("not", "not", "great"), lex({"great": 1.0}, negators={"not"}))
        assert s.value == pytest.approx(1 / math.sqrt(3))

    def test_amplifier_in_window(self):
        s = score(stream_of("very", "great"), lex({"great": 1.0}, amplifiers={"very": 1.5}))
        assert s.value == pytest.approx(1.5 / math.sqrt(2))

    def test_negation_window_is_two_tokens(self):
        lx = lex({"great": 1.0}, negators={"not"})
        in_window = score(stream_of("not", "so", "great"), lx)
        out_of_window = score(stream_of("not", "so", "so", "great"), lx)
        assert in_window.value < 0
        assert out_of_window.value > 0

    def test_sqrt_length_scaling(self):
        lx = lex({"great": 1.0})
        s = score(stream_of("great", "a", "b", "c"), lx)
        assert s.value == pytest.approx(1 / math.sqrt(4))

    def test_clamped_to_range(self):
        lx = lex({"awful": -2.0}, amplifiers={"extremely": 2.0})
        s = score(stream_of("extremely", "awful"), lx)
        assert s.value == -2.0


class TestClassify:
    def test_zero_is_neutral(self):
        assert classify(0.0) is SentimentClass.NEUTRAL

    def test_signs(self):
        assert classify(0.5) is SentimentClass.POSITIVE
        assert classify(-0.3) is SentimentClass.NEGATIVE

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            classify(float("nan"))


class TestToBinary:
    def test_mapping(self):
        assert to_binary(SentimentClass.POSITIVE) == 1
        assert to_binary(SentimentClass.NEUTRAL) == 0
        assert to_binary(SentimentClass.NEGATIVE) == 0


class TestAggregate:
    def test_single_state_mix(self):
        lx = lex({"good": 1.0, "bad": -1.0})
        scored = [
            (doc("NC", 1), score(stream_of("good"), lx)),
            (doc("NC", 2), score(stream_of("bad"), lx)),
            (doc("NC", 3), score(stream_of("meh"), lx)),
        ]
        (summary,) = aggregate_by_state(scored)
        assert summary.state == "NC"
        assert summary.mean_score == pytest.approx(0.0)
        assert summary.share_positive == pytest.approx(1 / 3)
        assert summary.share_negative == pytest.approx(1 / 3)
        assert summary.share_neutral == pytest.approx(1 / 3)

    def test_single_doc(self):
        lx = lex({"best": 2.0})
        (summary,) = aggregate_by_state([(doc("WY"), score(stream_of("best"), lx))])
        assert summary.mean_score == pytest.approx(2.0)
        assert summary.share_positive == 1.0

    def test_interleaved_states_match_groupby_oracle(self):
        lx = lex({"good": 1.0, "bad": -1.0})
        words = ["good", "bad", "good", "meh", "bad", "good"]
        states = ["NC", "CA", "CA", "NC", "NC", "CA"]
        scored = [
            (doc(st_, i), score(stream_of(w), lx))
            for i, (st_, w) in enumerate(zip(states, words))
        ]
        summaries = {s.state: s for s in aggregate_by_state(scored)}
        # independent brute-force group-by
        for state in ("NC", "CA"):
            values = [s.value for d, s in scored if d.state == state]
            assert summaries[state].n_docs == len(values)
            assert summaries[state].mean_score == pytest.approx(sum(values) / len(values))
        assert list(summaries) == sorted(summaries)

    def test_empty_input(self):
        assert aggregate_by_state([]) == []


class TestLexiconValidation:
    def test_out_of_range_valence(self):
        with pytest.raises(ValueError):
            lex({"big": 3.0})

    def test_shifters_disjoint_from_valences(self):
        with pytest.raises(ValueError):
            lex({"not": -1.0}, negators={"not"})

    def test_amplifier_must_exceed_one(self):
        with pytest.raises(ValueError):
            lex({"good": 1.0}, amplifiers={"kinda": 0.5})

    # Two multipliers over the bound can make "very very good very very bad"
    # score inf - inf; at the bound no score can overflow.
    @pytest.mark.parametrize("m", [math.inf, math.nan, 1e200, math.nextafter(MAX_AMPLIFIER, 2e100)])
    def test_amplifier_must_be_at_most_max_amplifier(self, m):
        with pytest.raises(ValueError, match="at most 1e[+]100"):
            lex({"good": 1.0}, amplifiers={"very": m})
        assert lex({"good": 1.0}, amplifiers={"very": MAX_AMPLIFIER}).amplifiers["very"] == 1e100

    def test_bundled_lexicon_loads(self):
        lx = load_lexicon(
            default_data_path("lexicon.tsv"),
            default_data_path("negators.txt"),
            default_data_path("amplifiers.tsv"),
        )
        assert len(lx.valences) >= 150
        assert "not" in lx.negators
        assert all(m > 1 for m in lx.amplifiers.values())


# -- properties -------------------------------------------------------------

vocab = ["good", "bad", "not", "very", "meh", "ok", "x"]


@given(
    st.lists(st.sampled_from(vocab), max_size=20),
    st.dictionaries(st.sampled_from(["good", "bad", "meh"]),
                    st.floats(min_value=-2, max_value=2, allow_nan=False)),
)
def test_score_always_in_range(words, valences):
    lx = lex(valences, negators={"not"}, amplifiers={"very": 2.0})
    s = score(stream_of(*words) if words else tokenize(""), lx)
    assert -2.0 <= s.value <= 2.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_classify_antisymmetry(v):
    flipped = {SentimentClass.POSITIVE: SentimentClass.NEGATIVE,
               SentimentClass.NEGATIVE: SentimentClass.POSITIVE,
               SentimentClass.NEUTRAL: SentimentClass.NEUTRAL}
    assert classify(-v) is flipped[classify(v)]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_binary_iff_positive(v):
    assert to_binary(classify(v)) == (1 if v > 0 else 0)


@given(st.lists(st.tuples(st.sampled_from(["NC", "CA", "WY"]),
                          st.sampled_from(vocab)), min_size=1, max_size=30))
def test_aggregate_shares_and_counts(pairs):
    lx = lex({"good": 1.0, "bad": -1.0})
    scored = [(doc(state, i), score(stream_of(w), lx))
              for i, (state, w) in enumerate(pairs)]
    summaries = aggregate_by_state(scored)
    assert sum(s.n_docs for s in summaries) == len(pairs)
    for s in summaries:
        assert abs(s.share_positive + s.share_negative + s.share_neutral - 1.0) < 1e-12


# -- batch scorer -----------------------------------------------------------

# "zero" is a hit of valence 0.0; "hardly" is both a negator and an amplifier.
batch_vocab = ["good", "bad", "zero", "not", "never", "very", "hardly", "meh", "x"]


def batch_lex(valences):
    return lex({"zero": 0.0, **valences}, negators={"not", "never", "hardly"},
               amplifiers={"very": 1.7, "hardly": 1.3})


def bits(values):
    return [float(v).hex() for v in values]


@given(
    st.lists(st.lists(st.sampled_from(batch_vocab), max_size=12), max_size=12),
    st.dictionaries(st.sampled_from(["good", "bad"]),
                    st.floats(min_value=-2, max_value=2, allow_nan=False)),
)
def test_score_batch_equals_score_loop(docs, valences):
    # Empty documents, shifters at positions 0 and 1 and zero-valence hits
    # all come from the strategy; every value must match bit for bit.
    lx = batch_lex(valences)
    value, matched = score_batch(docs, lx)
    expected = [score(words, lx) for words in docs]
    assert bits(value) == bits(s.value for s in expected)
    assert matched.tolist() == [s.matched_count for s in expected]


@given(
    st.lists(st.lists(st.sampled_from(batch_vocab), max_size=40), max_size=8),
    st.dictionaries(st.sampled_from(["good", "bad"]),
                    st.floats(min_value=-2, max_value=2, allow_nan=False)),
    st.lists(st.one_of(st.just(MAX_AMPLIFIER),
                       st.floats(min_value=1, max_value=MAX_AMPLIFIER, exclude_min=True)),
             min_size=2, max_size=2),
)
def test_scores_stay_finite_up_to_the_amplifier_bound(docs, valences, multipliers):
    lx = lex({"zero": 0.0, **valences}, negators={"not", "never", "hardly"},
             amplifiers=dict(zip(["very", "hardly"], multipliers)))
    value, _ = score_batch(docs, lx)
    assert np.isfinite(value).all()
    assert all(math.isfinite(score(words, lx).value) for words in docs)


def test_score_batch_equals_score_on_every_short_document():
    # Every document of up to four words over a small vocabulary, in one
    # batch, so each shifter pair precedes each hit at every position.
    lx = batch_lex({"good": 0.1, "bad": -1.1})
    words = ["good", "bad", "zero", "not", "very", "hardly"]
    docs = [list(d) for n in range(5) for d in product(words, repeat=n)]
    value, matched = score_batch(docs, lx)
    expected = [score(d, lx) for d in docs]
    assert bits(value) == bits(s.value for s in expected)
    assert matched.tolist() == [s.matched_count for s in expected]


@pytest.mark.parametrize("shifter", ["not", "very", "hardly"])
def test_score_batch_window_stops_at_document_start(shifter):
    lx = batch_lex({"good": 1.0})
    first, second = ["meh", shifter], ["good", "x", "meh"]
    value, matched = score_batch([first, second, [shifter], ["x", "good"]], lx)
    alone = score(second, lx).value
    assert value[1] == alone == 1.0 / math.sqrt(3)
    assert value[3] == score(["x", "good"], lx).value == 1.0 / math.sqrt(2)
    assert matched.tolist() == [0, 1, 0, 1]


@given(st.lists(st.tuples(st.sampled_from(["NC", "CA", "WY"]),
                          st.floats(min_value=-2, max_value=2, allow_nan=False)),
                max_size=30))
def test_aggregate_scores_matches_groupby_oracle(pairs):
    summaries = aggregate_scores([s for s, _ in pairs], np.array([v for _, v in pairs]))
    assert [s.state for s in summaries] == sorted({s for s, _ in pairs})
    for summary in summaries:
        values = [v for s, v in pairs if s == summary.state]
        n = len(values)
        mean = 0.0
        for v in values:  # a running sum in document order
            mean += v
        assert summary.n_docs == n
        assert summary.mean_score == mean / n
        assert summary.share_positive == sum(v > 0 for v in values) / n
        assert summary.share_negative == sum(v < 0 for v in values) / n
        assert summary.share_neutral == sum(v == 0 for v in values) / n


@given(st.lists(st.tuples(st.sampled_from(["NC", "CA", "WY"]),
                          st.floats(min_value=-2, max_value=2, allow_nan=False)),
                max_size=30),
       st.integers(min_value=1, max_value=7))
def test_state_totals_by_chunks_equal_one_pass(pairs, chunk):
    whole, chunked = StateTotals(), StateTotals()
    whole.add([s for s, _ in pairs], np.array([v for _, v in pairs]))
    for i in range(0, len(pairs), chunk):
        part = pairs[i:i + chunk]
        chunked.add([s for s, _ in part], np.array([v for _, v in part]))
    assert chunked.summaries() == whole.summaries()


# -- write_scored: the block path against the per-record path -----------------

LEXICON = load_lexicon(default_data_path("lexicon.tsv"), default_data_path("negators.txt"),
                       default_data_path("amplifiers.tsv"))
TOKENS_HEADERS = ["id,state,text_width,tokens"] * 8 + ["state,id,tokens,text_width",
                                                       "id,state,text_width,tokens,x"]
WORDS = ["good", "bad", "not", "very", "day", "x"]
PLAIN_TOKEN_FIELDS = {"id": ["t1", "t22", "t-3"], "state": ["NC", "CA", "WY"],
                      "text_width": ["7", "63", "0", "999999999999"]}
ODD_TOKEN_FIELDS = {"id": ['"a,b"', '"q""t"', "é1", "", "a b", "t\r1"],
                    "state": ["", "N C", "é"],
                    "text_width": ["007", "+5", " 5", "5_0", "1" * 13, "x", "", "٣"],
                    "tokens": ["good  bad", " good", "good ", "good\tbad", "good\x1cbad",
                               "café good", '"good, bad"', "good\x7fbad"]}


@st.composite
def tokens_files(draw) -> bytes:
    header = draw(st.sampled_from(TOKENS_HEADERS)).split(",")

    def field(column):
        if column == "tokens":
            return " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=5)))
        return draw(st.sampled_from(PLAIN_TOKEN_FIELDS.get(column, ["x"])))

    lines = [[field(c) for c in header] for _ in range(draw(st.integers(0, 10)))]
    eols = [draw(st.sampled_from(["\r\n"] * 3 + ["\n"])) for _ in range(len(lines) + 1)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(["field"] * 4 + ["bare CR", "blank", "extra", "short"]))
        if odd == "bare CR":
            eols[i + 1] = "\r"
        elif odd != "field":
            lines[i] = {"blank": [], "extra": lines[i] + ["x"], "short": lines[i][:-1]}[odd]
        elif len(lines[i]) == len(header):  # not made blank, longer or shorter before
            c = draw(st.sampled_from(sorted(set(header) & set(ODD_TOKEN_FIELDS))))
            lines[i][header.index(c)] = draw(st.sampled_from(ODD_TOKEN_FIELDS[c]))
    text = "".join(",".join(line) + eol for line, eol in zip([header] + lines, eols))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line without a terminator
    return draw(st.sampled_from([""] * 9 + ["\ufeff"])).encode() + text.encode()


def scored(run, out):
    """What a score gives: scored.csv's and state_summary.csv's bytes, or the
    error's type and text."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    return (out / "scored.csv").read_bytes(), (out / "state_summary.csv").read_bytes()


def not_plain(*args):
    raise _NotPlain


def score_both(data: bytes, block_bytes: int, field_limit: int = csv.field_size_limit()):
    """Whether write_scored took the block path for a tokens.csv of data;
    stage_score's result; and its result with plain_blocks declining every
    file, which forces the per-record path."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sent_mod, "SCORE_BLOCK_BYTES", block_bytes):
            out = Path(tmp)
            (out / "tokens.csv").write_bytes(data)
            config = PipelineConfig(corpus=out / "corpus.csv", covariates=out / "c.csv", out=out)
            declined, kernel = [], sent_mod._score_blocks

            def recorded(*args):
                try:
                    return kernel(*args)
                except _NotPlain:
                    declined.append(True)  # declined: nothing written, not even a temp file
                    assert [p.name for p in out.iterdir()] == ["tokens.csv"]
                    raise

            with mock.patch.object(sent_mod, "_score_blocks", recorded):
                stage = scored(lambda: pipeline.stage_score(config), out)
            for name in ("scored.csv", "state_summary.csv"):
                (out / name).unlink(missing_ok=True)
            with mock.patch.object(sent_mod, "plain_blocks", not_plain):
                per_record = scored(lambda: pipeline.stage_score(config), out)
            return not declined, stage, per_record
    finally:
        csv.field_size_limit(old_limit)


PLAIN_TOKENS = b"id,state,text_width,tokens\r\n" + b"".join(
    b"t%d,%s,%d,%s\r\n" % (i, b"NC" if i % 3 else b"CA", 7 + i % 4,
                           b" ".join([b"not", b"very", b"good", b"day", b"bad"][i % 5:]))
    for i in range(12))


# Through stage_score, the block path either declines and the per-record
# path runs, or writes the per-record path's bytes.
@settings(max_examples=300, deadline=None)
@given(tokens_files(), st.integers(min_value=8, max_value=64),
       st.sampled_from([csv.field_size_limit()] * 3 + [30]))
@example(PLAIN_TOKENS, 40, csv.field_size_limit())
@example(PLAIN_TOKENS + b'"q,t",NC,7,good\r\n', 40, csv.field_size_limit())  # a later block
@example(PLAIN_TOKENS + "t,NC,7,café\r\n".encode(), 40, csv.field_size_limit())
@example(PLAIN_TOKENS + b"t,NC,+5,good\r\n", 40, csv.field_size_limit())
def test_score_blocks_equals_the_per_record_path(data, block_bytes, field_limit):
    _, stage, per_record = score_both(data, block_bytes, field_limit)
    assert stage == per_record


@pytest.mark.parametrize("tail", [b"", b"t,CA,0,\r\nt,NC,999999999999,good very bad\n",
                                  b"t,NC,12,not good"])
def test_score_blocks_reads_plain_blocks(tail):
    # CRLF and LF, an empty tokens field and a last line without an end, in
    # blocks of a line or two
    took, stage, per_record = score_both(PLAIN_TOKENS + tail, 40)
    assert took and stage == per_record
    assert stage[0].count(b"\r\n") == stage[0].count(b"\n") == 13 + tail.count(b",") // 3


@pytest.mark.parametrize("change", [
    lambda d: "\ufeff".encode() + d,                      # a byte-order mark
    lambda d: d.replace(b"text_width,tokens", b"tokens,text_width", 1),  # another order
    lambda d: d.replace(b"\r\n", b"\r", 2)[:-2] + b"\r\n",  # a bare CR
    lambda d: d + b"t\r1,NC,7,good\r\n",                   # a bare CR inside a field
    lambda d: d + b"t,NC,7,good\r",                         # a CR at the end of the file
    lambda d: d + b"\r\n",                                 # a blank line
    lambda d: d + b'"t",NC,7,good\r\n',                    # a quote
    lambda d: d + b"t,NC,7,good,x\r\n",                    # an extra field
    lambda d: d + b",NC,7,good\r\n",                       # an empty id
    lambda d: d + b"t,,7,good\r\n",                        # an empty state
    lambda d: d + b"t 1,NC,7,good\r\n",                    # a space in the id
    lambda d: d + b"t,NC,007,good\r\n",                    # a leading zero
    lambda d: d + b"t,NC,1234567890123,good\r\n",          # 13 digits
    lambda d: d + b"t,NC,x,good\r\n",                      # not a number
    lambda d: d + b"t,NC,,good\r\n",                       # an empty width
    lambda d: d + b"t,NC,7,good  day\r\n",                 # a double space
    lambda d: d + b"t,NC,7, good\r\n",                     # a leading space
    lambda d: d + b"t,NC,7,good \r\n",                     # a trailing space
    lambda d: d + b"t,NC,7,good\tday\r\n",                 # a tab
    lambda d: d + b"t,NC,7,good\x1cday\r\n",               # a separator str.split splits at
    lambda d: d + "t,NC,7,café\r\n".encode(),              # a non-ASCII token
])
def test_score_blocks_declines_what_is_not_plain(change):
    took, stage, per_record = score_both(change(PLAIN_TOKENS), 40)
    assert not took and stage == per_record


@pytest.mark.parametrize("block_bytes", [40, 4096])
@pytest.mark.parametrize("data", [b"id,state,text_width,tokens," + b"c" * 40 + b"\r\n",
                                  PLAIN_TOKENS + b"t,NC,7," + b"good " * 8 + b"day\r\n"])
def test_score_blocks_declines_a_field_over_the_limit(data, block_bytes):
    took, stage, per_record = score_both(data, block_bytes, field_limit=32)
    assert not took and stage == per_record and per_record[0] is SchemaError
    assert per_record[1].endswith("field larger than field limit (32)")
