"""Fuzz of the corpus loader through in-process `sentireg preprocess`.

Corpora are built from well-formed rows and from pieces that are not: a
byte-order mark, CRLF line ends, NUL, quoted embedded newlines, short rows,
unterminated or stray quotes, a field over csv.field_size_limit(), a
non-UTF-8 byte, duplicate and empty ids, territory and unknown state codes,
and URLs in any letter case. Every run must end in exit 0 or 2. Exit 2
leaves the previous tokens.csv as it was, with no temp file beside it.
Exit 0 writes what load_corpus and WordNormalizer.words give.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sentireg.cli import EXIT_OK, EXIT_SCHEMA, main
from sentireg.corpus import (
    SchemaError,
    WordNormalizer,
    load_corpus,
    load_stem_rules,
    load_tsv_map,
    load_wordlist,
)
from sentireg.pipeline import default_data_path

PREVIOUS_TOKENS = b"id,state,text_width,tokens\r\nold,NC,3,old\r\n"

rows = st.tuples(
    st.sampled_from([*"abcdefghijklmnopqrstuvwxyz", "", "e,f", 'q"t', "n\x00l"]),
    st.sampled_from(["NC", "CA", "WY", "DC", "PR", "GU", "VI", "AS", "MP", "ZZ", "nc", ""]),
    st.lists(st.sampled_from([
        "reopen the economy", "great", "HTTP://t.co/A", "hTtP://x.y/z", "see http",
        "Https", "İstanbul", "ſtate", "Kelvin", "multi\nline", "cr\r\nlf",
        "nul\x00byte", 'say "hi"', "comma, here", "café", "#Reopen @Gov", "",
    ]), max_size=4).map(" ".join),
)
damaged = st.sampled_from([
    b"s1,NC\n",                               # short row
    b's2,NC,"unterminated\n',                 # unterminated quote
    b'"s3"x,NC,stray quote\n',                # stray quote after a quoted field
    b"s4,NC," + b"x" * 131_073 + b"\n",       # over csv.field_size_limit()
    b"s5,NC,caf\xe9\n",                       # Latin-1, not UTF-8
])


@st.composite
def corpora(draw) -> bytes:
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol)
    parts = [draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + f"id,state,text{eol}".encode()]
    for row in draw(st.lists(rows, max_size=8)):
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        parts.append(buf.getvalue().encode("utf-8"))
    damage = draw(st.none() | damaged)
    if damage is not None:
        parts.insert(draw(st.integers(1, len(parts))), damage[:-1] + eol.encode())
    return b"".join(parts)


def oracle_tokens(path: Path) -> bytes:
    """tokens.csv from the list loader and the per-document word lists."""
    normalize = WordNormalizer(
        stopwords=load_wordlist(default_data_path("stopwords.txt")),
        slang=load_wordlist(default_data_path("slang.txt")),
        stem_rules=load_stem_rules(default_data_path("stem_rules.tsv")),
        lemmas=load_tsv_map(default_data_path("lemmas.tsv")),
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "state", "text_width", "tokens"])
    writer.writerows([doc.id, doc.state, doc.text_width, " ".join(normalize.words(doc.text))]
                     for doc in load_corpus(path).documents)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_preprocess_ends_in_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus.csv", Path(tmp) / "out"
        corpus.write_bytes(data)
        out.mkdir()
        (out / "tokens.csv").write_bytes(PREVIOUS_TOKENS)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["preprocess", "--corpus", str(corpus), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_SCHEMA), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        assert [p.name for p in out.iterdir()] == ["tokens.csv"]
        written = (out / "tokens.csv").read_bytes()
        if code == EXIT_SCHEMA:
            assert f"{corpus}:" in stderr.getvalue()
            assert written == PREVIOUS_TOKENS
            with pytest.raises(SchemaError):
                load_corpus(corpus)
        else:
            assert written == oracle_tokens(corpus)
