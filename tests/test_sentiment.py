import codecs
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentireg import pipeline
from sentireg import sentiment as sent_mod
from sentireg.corpus import Document, SchemaError, tokenize
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

from handover import handovers, records_only


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


def test_state_totals_add_each_value_to_the_running_sum_in_order():
    # 1e16 + 1 rounds back to 1e16: any other order of the additions, such as
    # the chunk's values first, gives another sum.
    totals = StateTotals()
    totals.add(["NC"], np.array([1e16]))
    totals.add(["NC", "CA", "NC"], np.array([1.0, -0.5, 1.0]))
    ca, nc = totals.summaries()
    assert (ca.n_docs, ca.mean_score, ca.share_negative) == (1, -0.5, 1.0)
    assert (nc.n_docs, nc.mean_score, nc.share_positive) == (3, 1e16 / 3, 1.0)


# -- write_scored: the block path against the per-record path -----------------

LEXICON = load_lexicon(default_data_path("lexicon.tsv"), default_data_path("negators.txt"),
                       default_data_path("amplifiers.tsv"))
TOKENS_HEADERS = ["id,state,text_width,tokens"] * 8 + ["state,id,tokens,text_width",
                                                       "id,state,text_width,tokens,x"]
WORDS = ["good", "bad", "not", "very", "day", "x", "café", "très", "don't", "goin'", "'tis"]
PLAIN_TOKEN_FIELDS = {"id": ["t1", "t22", "t-3", "é1"], "state": ["NC", "CA", "WY"],
                      "text_width": ["7", "63", "0", "999999999999"]}
ODD_TOKEN_FIELDS = {"id": ['"a,b"', '"q""t"', "", "a b", "t\r1", "t\xa01", '"t\r\n1"'],
                    "state": ["", "N C", "é", '"NC"'],
                    "text_width": ["007", "+5", " 5", "5_0", "1" * 13, "x", "", "٣"],
                    "tokens": ["good  bad", " good", "good ", "good\tbad", "good\x1cbad",
                               '"good, bad"', '"good ""bad"""', '"good\r\nbad"', '"good\nbad"',
                               "good\x7fbad", "good\xa0bad", "good\u2028bad", "good\x85bad"]}


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


def lexicon_files(out: Path, lexicon: Lexicon) -> dict[str, Path]:
    """PipelineConfig's lexicon, negators and amplifiers options for lexicon,
    written to the directory out."""
    paths = {name: out / f"{name}.in" for name in ("lexicon", "negators", "amplifiers")}
    for name, lines in (("lexicon", [f"{t}\t{v!r}" for t, v in lexicon.valences.items()]),
                        ("negators", sorted(lexicon.negators)),
                        ("amplifiers", [f"{t}\t{m!r}" for t, m in lexicon.amplifiers.items()])):
        paths[name].write_text("".join(f"{line}\n" for line in [f"# {name}", *lines]),
                               encoding="utf-8")
    return paths


def score_both(data: bytes, block_bytes: int, field_limit: int = csv.field_size_limit(),
               lexicon: Lexicon | None = None):
    """For a tokens.csv of data: whether write_scored read all of it in
    blocks, no block declined and no record read after them; stage_score's
    result; and its result with every block declined, which forces the
    per-record path, no block taken. The lexicon is the bundled one, or
    `lexicon`, passed as files through PipelineConfig."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sent_mod, "SCORE_BLOCK_BYTES", block_bytes):
            out = Path(tmp) / "out"
            out.mkdir()
            (out / "tokens.csv").write_bytes(data)
            files = {} if lexicon is None else lexicon_files(Path(tmp), lexicon)
            config = PipelineConfig(corpus=out / "corpus.csv", covariates=out / "c.csv", out=out,
                                    **files)
            with handovers() as reads:
                stage = scored(lambda: pipeline.stage_score(config), out)
            for name in ("scored.csv", "state_summary.csv"):
                (out / name).unlink(missing_ok=True)
            with records_only():
                per_record = scored(lambda: pipeline.stage_score(config), out)
            (read,) = reads
            return not read["declined"] and read["records"] == 0, stage, per_record
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


def test_per_record_path_codes_the_lexicon_once(tmp_path):
    # A tokens.csv of more than three chunks that is not plain (an id holds a
    # comma, so it is quoted): the per-record path coded the lexicon again
    # for each chunk. Each scored.csv line is still as score() gives it.
    vocab = ["not", "very", "good", "day", "bad", "hate", "love", "never"]
    docs = [(f"t{i}" if i % 1000 else f"t{i},x", "NC" if i % 3 else "CA", str(7 + i % 4),
             [vocab[(i * k) % len(vocab)] for k in range(i % 6)])
            for i in range(3 * sent_mod.SCORE_CHUNK_DOCS + 5)]
    with open(tmp_path / "tokens.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([sent_mod.TOKENS_COLUMNS] + [
            (doc_id, state, width, " ".join(words)) for doc_id, state, width, words in docs])
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([sent_mod.SCORED_COLUMNS] + [
        (doc_id, state, width, f"{value:.12g}", classify(value).value,
         str(to_binary(classify(value))))
        for doc_id, state, width, words in docs
        for value in [score(words, LEXICON).value]])
    calls, code = [], sent_mod._code_lexicon
    with mock.patch.object(sent_mod, "_code_lexicon", lambda *a: calls.append(1) or code(*a)):
        sent_mod.write_scored(tmp_path / "tokens.csv", tmp_path / "scored.csv", LEXICON)
    assert len(calls) == 1
    assert (tmp_path / "scored.csv").read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("tail", [b"", b"t,CA,0,\r\nt,NC,999999999999,good very bad\n",
                                  b"t,NC,12,not good", "t,NC,7,café\r\n".encode(),
                                  "é1,NC,9,très good\r\n".encode()])
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
def test_score_blocks_reads_plain_blocks(tail, bom):
    # CRLF and LF, an empty tokens field, a last line without an end and
    # UTF-8 words, in blocks of a line or two, after a byte-order mark or none
    took, stage, per_record = score_both(bom + PLAIN_TOKENS + tail, 40)
    assert took and stage == per_record
    assert stage[0].count(b"\r\n") == stage[0].count(b"\n") == 13 + tail.count(b",") // 3


@pytest.mark.parametrize("change", [
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
    lambda d: d + "t,NC,7,good\xa0day\r\n".encode(),       # a space str.split splits at
    lambda d: d + "t\u2028,NC,7,good\r\n".encode(),         # and one in an id
    lambda d: d + "t,NC,7,good\xa0bad\r\n\xa0,NC,7,x\r\n".encode(),  # one more word, one less
    lambda d: d + b"t,NC,7,caf\xe9\r\n",                   # a byte that is not UTF-8
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


@pytest.mark.parametrize("tail", ["t,Massachusetts-Bay,7,good\r\nt,NC,8,bad\r\n",
                                  "t,Île-de-France,9,très good\r\nt,CA,7,not\r\n"])
def test_score_blocks_number_states_of_any_length(tail):
    took, stage, per_record = score_both(PLAIN_TOKENS + tail.encode(), 4096)
    assert took and stage == per_record
    assert tail.split(",")[1].encode() in stage[1]


# -- the score kernel's lexicon probe ----------------------------------------

# Terms across the 8- and 16-byte word edges; words that are a prefix or an
# extension of one, or differ from one only past byte 8 or 16; UTF-8 terms;
# and words longer than the longest term.
ALPHABET = "abcdefghijklmnopqrstuvwxyz"
EDGE_TERMS = [ALPHABET[:n] for n in (1, 2, 7, 8, 9, 15, 16, 17, 23, 24)]
UTF8_TERMS = ["café", "naïveté", "überwältigend", "日本語のテキスト", "😀"]
KERNEL_WORDS = sorted({*EDGE_TERMS, *UTF8_TERMS, "not", "very", "day", "日本語",
                       *(t[:-1] for t in EDGE_TERMS + UTF8_TERMS if len(t) > 1),
                       *(t + "z" for t in EDGE_TERMS + UTF8_TERMS),
                       ALPHABET[:8] + "X", ALPHABET[:16] + "X", ALPHABET, ALPHABET * 2})
KERNEL_LEXICONS = {
    "edges": lex({t: round((-1) ** j * (0.25 + 0.125 * j), 3)
                  for j, t in enumerate(EDGE_TERMS + UTF8_TERMS)},
                 negators={"not"}, amplifiers={"very": 1.5}),
    "empty": lex(),
    "negators only": lex(negators={"not", ALPHABET[:9]}),
    "amplifiers only": lex(amplifiers={"very": 2.0, ALPHABET[:17]: 1.5}),
}


def plain_tokens(docs) -> bytes:
    """A plain tokens.csv: one line per document's words."""
    return b"id,state,text_width,tokens\r\n" + "".join(
        f"t{i},{'NC' if i % 3 else 'CA'},{7 + i % 4},{' '.join(words)}\r\n"
        for i, words in enumerate(docs)).encode()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(KERNEL_LEXICONS)),
       st.lists(st.lists(st.sampled_from(KERNEL_WORDS), max_size=8), max_size=12),
       st.integers(min_value=40, max_value=400))
def test_score_blocks_equal_the_per_record_path_on_custom_lexicons(name, docs, block_bytes):
    took, stage, per_record = score_both(plain_tokens(docs), block_bytes,
                                         lexicon=KERNEL_LEXICONS[name])
    assert took and stage == per_record


@pytest.mark.parametrize("name", sorted(KERNEL_LEXICONS))
def test_score_blocks_score_each_kernel_word(name):
    lexicon = KERNEL_LEXICONS[name]
    docs = [[w] for w in KERNEL_WORDS] + [["not", "very", w] for w in KERNEL_WORDS]
    took, stage, per_record = score_both(plain_tokens(docs), 256, lexicon=lexicon)
    assert took and stage == per_record
    values = [float(row.split(",")[3]) for row in stage[0].decode().splitlines()[1:]]
    assert [v != 0 for v in values] == [d[-1] in lexicon.valences for d in docs]


def probe_codes(code: dict[str, int], words: list[str]) -> list[int]:
    """The probe's code of each word, read from one buffer of them all, with
    no byte between one word and the next."""
    probe = sent_mod._probe(code)
    data = [w.encode() for w in words]
    length = np.array(list(map(len, data)), np.intp)
    aligned = sent_mod._aligned(np.frombuffer(b"".join(data), np.uint8), probe.words)
    return sent_mod._probe_codes(probe, aligned, np.cumsum(length) - length, length).tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_probe_code_is_the_dict_code(data):
    terms = data.draw(st.lists(st.text(max_size=24), unique=True, max_size=40))
    code = {t: j for j, t in enumerate(terms, start=1)}
    near = st.sampled_from(terms or [""]).flatmap(
        lambda t: st.sampled_from([t, t[:-1], t[1:], t + "a", "é" + t]))
    words = data.draw(st.lists(st.one_of(near, st.text(max_size=30)), max_size=40))
    assert probe_codes(code, words) == [code.get(w, 0) for w in words]


def colliding_words(n: int, bits: int) -> tuple[list[str], int]:
    """n ASCII words of at most 8 bytes that share one slot of a table of
    2**bits slots under the probe's multiplier, and that slot."""
    mult, by_slot = int(sent_mod._SLOT_MULT), {}
    for i in range(1 << 20):
        word = f"w{i}"
        slot = int.from_bytes(word.encode(), "little") * mult % 2**64 >> 64 - bits
        if len(group := by_slot.setdefault(slot, [])) == n - 1:
            return group + [word], slot
        group.append(word)
    raise AssertionError("no slot filled")


@pytest.mark.parametrize("n", [2, 8])
def test_probe_puts_terms_that_share_a_slot_in_consecutive_slots(n):
    # n terms on one slot take it and the n - 1 after it, and a lookup reads
    # all n: the n other words on that slot, and near misses, get no code.
    bits = (sent_mod.PROBE_SLOTS_PER_TERM * n - 1).bit_length()
    words, slot = colliding_words(2 * n, bits)
    code = {t: j for j, t in enumerate(words[:n], start=1)}
    probe = sent_mod._probe(code)
    assert probe.shift == 64 - bits and probe.rounds == n
    assert probe.table[slot + np.arange(n)].tolist() == list(range(1, n + 1))
    words += [w + "x" for w in words] + [w[:-1] for w in words]
    assert probe_codes(code, words) == [code.get(w, 0) for w in words]


def test_probe_reads_a_run_of_slots_where_terms_must_share_one():
    # 3000 random terms on the largest table: some share a slot.
    rng = np.random.default_rng(0)
    terms = list(dict.fromkeys("".join(rng.choice(list(ALPHABET), 6)) for _ in range(3000)))
    code = {t: j for j, t in enumerate(terms, start=1)}
    probe = sent_mod._probe(code)
    assert probe.rounds > 1
    assert len(probe.table) == sent_mod.PROBE_MAX_SLOTS + probe.rounds - 1
    words = terms + [t + "x" for t in terms] + ["u" + t for t in terms]
    assert probe_codes(code, words) == [code.get(w, 0) for w in words]
    lexicon = lex({t: 1.0 for t in terms[::2]}, negators=terms[1::4],
                  amplifiers={t: 2.0 for t in terms[3::4]})
    docs = [terms[i:i + 5] + ["u" + terms[i]] for i in range(0, 3000, 7)]
    took, stage, per_record = score_both(plain_tokens(docs), 4096, lexicon=lexicon)
    assert took and stage == per_record


def test_probe_table_of_the_bundled_lexicon_is_at_most_64_kib():
    probe = sent_mod._probe(sent_mod._code_lexicon(LEXICON).code)
    assert probe.rounds == 1 and probe.table.nbytes <= 64 * 1024


# Prints the bundled lexicon's probe table.
BUNDLED_PROBE = """
from sentireg import sentiment
from sentireg.pipeline import default_data_path as path
lexicon = sentiment.load_lexicon(path("lexicon.tsv"), path("negators.txt"),
                                 path("amplifiers.tsv"))
print(sentiment._probe(sentiment._code_lexicon(lexicon).code).table.tobytes().hex())
"""


def test_probe_table_does_not_depend_on_the_hash_seed():
    # The negators are a frozenset, whose order varies with PYTHONHASHSEED;
    # the term codes, and so the table, must not.
    src = str(Path(sent_mod.__file__).resolve().parents[1])
    tables = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", BUNDLED_PROBE], env=env, check=True,
                              timeout=120, capture_output=True, text=True)
        tables.append(done.stdout)
    assert tables[0] and tables[0] == tables[1]


@pytest.mark.parametrize("tail", [4, 12])
def test_probe_checks_every_word_of_a_term_in_the_slot(tail):
    # Words of the term's length and first 8 bytes that land in its slot:
    # only the one that is the term gets its code.
    words = [f"abcdefgh{i * 1234567891 % 10**tail:0{tail}d}" for i in range(20_000)]
    code = {words[0]: 1}
    probe = sent_mod._probe(code)
    mult, shift, fold = int(sent_mod._SLOT_MULT), int(probe.shift), int(sent_mod._FOLD)

    def slot(word: str) -> int:
        data, key = word.encode().ljust(8 * probe.words, b"\0"), 0
        for k in range(probe.words):
            key = (key * fold + int.from_bytes(data[8 * k:8 * k + 8], "little")) % 2**64
        return key * mult % 2**64 >> shift

    same = [w for w in dict.fromkeys(words) if slot(w) == slot(words[0])]
    assert len(same) > 100
    assert probe_codes(code, same) == [1] + [0] * (len(same) - 1)
