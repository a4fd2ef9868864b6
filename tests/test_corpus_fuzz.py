"""Fuzz of sentireg's inputs through in-process `cli.main`.

Corpora are built from well-formed rows and from pieces that are not: a
byte-order mark, CRLF line ends, NUL, quoted embedded newlines, short rows,
unterminated or stray quotes, a field over csv.field_size_limit(), a
non-UTF-8 byte, duplicate and empty ids, territory and unknown state codes,
and URLs in any letter case. Every run must end in exit 0 or 2. Exit 2
leaves the previous tokens.csv as it was, with no temp file beside it.
Exit 0 writes what load_corpus and the word regex give.

Damaged covariates CSVs (through join), damaged resource files (through
preprocess and score) and tokens.csv, scored.csv and patterns.csv cut at
any byte (through score, join and fit) must end in a documented exit code,
never 1 or a traceback; on any exit but 0 every file in the output
directory keeps its bytes, and no temp file is left.
"""

import contextlib
import csv
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sentireg.cli import EXIT_ESTIMATION, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from sentireg.corpus import (
    _URL_RE,
    _WORD_RE,
    SchemaError,
    _stem_word,
    load_corpus,
    load_stem_rules,
    load_tsv_map,
    load_wordlist,
)
from sentireg import corpus as corpus_mod
from sentireg import sentiment as sent_mod
from sentireg.pipeline import default_data_path
from sentireg.sentiment import SCORED_COLUMNS, load_lexicon, score, to_binary

PREVIOUS_TOKENS = b"id,state,text_width,tokens\r\nold,NC,3,old\r\n"
STOPWORDS = load_wordlist(default_data_path("stopwords.txt"))
SLANG = load_wordlist(default_data_path("slang.txt"))
STEM_RULES = load_stem_rules(default_data_path("stem_rules.tsv"))
LEMMAS = load_tsv_map(default_data_path("lemmas.tsv"))
LEXICON = load_lexicon(default_data_path("lexicon.tsv"), default_data_path("negators.txt"),
                       default_data_path("amplifiers.tsv"))

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


def regex_words(text: str) -> list[str]:
    """The bundled lists' normalized words of text, from the Unicode word
    regex and each surface lower-cased, with no memo and no ASCII path."""
    words = []
    for surface in _WORD_RE.findall(_URL_RE.sub(" ", text)):
        w = surface.lower()
        if w not in STOPWORDS and w not in SLANG:
            words.append(LEMMAS[w] if w in LEMMAS else _stem_word(w, STEM_RULES))
    return words


def oracle_tokens(path: Path) -> bytes:
    """tokens.csv from the list loader and the regex word lists."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "state", "text_width", "tokens"])
    writer.writerows([doc.id, doc.state, doc.text_width, " ".join(regex_words(doc.text))]
                     for doc in load_corpus(path).documents)
    return buf.getvalue().encode("utf-8")


def oracle_scored(path: Path) -> bytes:
    """scored.csv from `score` over the regex word lists."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SCORED_COLUMNS)
    for doc in load_corpus(path).documents:
        s = score(regex_words(doc.text), LEXICON)
        writer.writerow([doc.id, doc.state, doc.text_width, f"{s.value:.12g}", s.label.value,
                         to_binary(s.label)])
    return buf.getvalue().encode("utf-8")


def test_artifacts_with_a_quoted_chunk_equal_the_csv_writer_oracle(tmp_path, monkeypatch):
    # Two-row write chunks and three-document score chunks: the id with a
    # comma and the id with a quote each fall in a chunk of their own, among
    # chunks that are joined without csv.writer.
    monkeypatch.setattr(corpus_mod, "WRITE_CHUNK_ROWS", 2)
    monkeypatch.setattr(sent_mod, "SCORE_CHUNK_DOCS", 3)
    texts = ["reopen the economy", "great news", "not good at all", "very good",
             "Café reopening is great", "bad, very bad", "stay home", "open now"]
    ids = ["s1", "s2", "a,b", "s4", "s5", 'q"t', "s7", "s8"]
    corpus = tmp_path / "corpus.csv"
    with open(corpus, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("id", "state", "text"),
                                  *((i, "NC", text) for i, text in zip(ids, texts))])
    out = tmp_path / "out"
    for command in ("preprocess", "score"):
        assert main([command, "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
    assert (out / "tokens.csv").read_bytes() == oracle_tokens(corpus)
    assert (out / "scored.csv").read_bytes() == oracle_scored(corpus)
    assert b'"a,b",NC,' in (out / "scored.csv").read_bytes()


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


# -- covariates, resource files and staged artifacts ----------------------------

CORPUS = default_data_path("fixture_corpus.csv")
COVARIATES = default_data_path("state_covariates.csv")
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def staged(tmp_path_factory) -> Path:
    """A staged run through fit of the fixture corpus with three rows added:
    two with non-ASCII words, so that an artifact can be cut inside a UTF-8
    sequence, and one whose hits of both signs follow an amplifier."""
    root = tmp_path_factory.mktemp("staged")
    corpus = root / "corpus.csv"
    corpus.write_bytes(CORPUS.read_bytes() + "x1,NC,Café reopening is great\r\n"
                       "x2,CA,İstanbul ſtudies: not good\r\n"
                       "x3,TX,very good and very bad\r\n".encode("utf-8"))
    for command in ("preprocess", "score", "join", "fit"):
        assert main([command, "--corpus", str(corpus), "--covariates", str(COVARIATES),
                     "--out", str(root / "out")]) == EXIT_OK
    return root / "out"


def run_stage(argv: list[str], out: Path, codes: tuple[int, ...]) -> None:
    """Run one command on out and check what every damaged input must give."""
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    assert code in codes, stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    if code != EXIT_OK:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def copy_of(staged: Path, tmp: str) -> Path:
    out = Path(tmp) / "out"
    shutil.copytree(staged, out)
    return out


COVARIATE_LINES = COVARIATES.read_bytes().splitlines()
covariate_damage = st.sampled_from([
    b"NC,65.0,3.1\n",                                # short row
    COVARIATE_LINES[1] + b",extra\n",                # extra field
    COVARIATE_LINES[1] + b"\n",                      # duplicate state
    b"ZZ" + COVARIATE_LINES[1][2:] + b"\n",          # unknown state
    COVARIATE_LINES[1].replace(b"South", b"Nowhere") + b"\n",
    b'NC,"65.0\n',                                   # unterminated quote
    b"NC," + b"9" * 131_073 + b"\n",                 # over csv.field_size_limit()
    COVARIATE_LINES[1][:-3] + b"\xe9\n",             # Latin-1, not UTF-8
])
covariate_value = st.sampled_from(
    ["", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "-0", "150", "1e-320"])


@st.composite
def covariate_files(draw) -> bytes:
    header, *rows = COVARIATE_LINES
    rows = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=len(rows),
                         unique=True))
    if draw(st.booleans()):  # one field of one row replaced
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split(b",")
        j = draw(st.integers(1, len(fields) - 2))
        fields[j] = draw(covariate_value).encode()
        rows[i] = b",".join(fields)
    lines = [draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + header, *rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(covariate_damage)[:-1])
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return eol.join(lines) + eol


@FUZZ
@given(covariate_files())
def test_join_with_damaged_covariates_ends_in_exit_0_or_2(staged, data):
    with tempfile.TemporaryDirectory() as tmp:
        out, covariates = copy_of(staged, tmp), Path(tmp) / "covariates.csv"
        covariates.write_bytes(data)
        run_stage(["join", "--covariates", str(covariates)], out, (EXIT_OK, EXIT_SCHEMA))


# Each resource option, the stage that reads it, and the bundled file whose
# lines the strategy samples.
RESOURCES = {
    "stopwords": ("preprocess", default_data_path("stopwords.txt")),
    "slang": ("preprocess", default_data_path("slang.txt")),
    "stem-rules": ("preprocess", default_data_path("stem_rules.tsv")),
    "lemmas": ("preprocess", default_data_path("lemmas.tsv")),
    "lexicon": ("score", default_data_path("lexicon.tsv")),
    "negators": ("score", default_data_path("negators.txt")),
    "amplifiers": ("score", default_data_path("amplifiers.tsv")),
}
resource_damage = st.sampled_from([
    b"caf\xe9", b"caf\xe9\t1.0", b"\xff\xfe",        # not UTF-8
    b"\t", b"\tx", b"a\tb\tc", b"a\t", b"great",     # field counts and empty fields
    b"great\tabc", b"great\tnan", b"great\tinf", b"great\t1e400", b"great\t-9",
    b"very\tinf", b"very\tnan", b"very\t0.5", b"very\t", b"good\t1\r",
    b"not", b"#comment", b"   ", b"nul\x00", b"x" * 10_000,
    "Sİſ".encode(),
])


@st.composite
def resource_files(draw) -> tuple[str, str, bytes]:
    option = draw(st.sampled_from(sorted(RESOURCES)))
    command, path = RESOURCES[option]
    lines = path.read_bytes().splitlines()
    lines = draw(st.lists(st.sampled_from(lines), max_size=len(lines)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(resource_damage))
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return command, option, draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + eol.join(lines)


@FUZZ
@given(resource_files())
@example(("preprocess", "stopwords", b"the\ncaf\xe9\n"))  # Latin-1, not UTF-8
@example(("score", "amplifiers", b"very\tinf\n"))  # "very good and very bad" is inf - inf
def test_stage_with_damaged_resource_file_ends_in_exit_0_or_2(staged, case):
    command, option, data = case
    with tempfile.TemporaryDirectory() as tmp:
        out, resource = copy_of(staged, tmp), Path(tmp) / "resource"
        resource.write_bytes(data)
        run_stage([command, "--corpus", str(CORPUS), f"--{option}", str(resource)], out,
                  (EXIT_OK, EXIT_SCHEMA))


# Each staged artifact, the stage that reads it, and records to append after
# the cut.
ARTIFACT_READERS = {
    "tokens.csv": ("score", [b"", b"\r\nz,NC,,great", b"\r\nz,NC,-3,great",
                             b"\r\nz,NC," + b"9" * 5000 + b",great"]),
    "scored.csv": ("join", [b"", b"\r\nz,NC,5,0.5,Positive,99999999999999999999",
                            b"\r\nz,NC," + b"9" * 400 + b",0.5,Positive,1",
                            b"\r\nz,NC,5,0.5,Positive,", b"\r\nz,NC,5,0.5,Positive,x",
                            b"\r\nz,GU,5,0.5,Positive,1"]),
    "patterns.csv": ("fit", [b"", b"\r\n0,0" + b",1" * 18, b"\r\n5,9" + b",1" * 18,
                             b"\r\n1,1" + b",nan" * 18, b"\r\n1,1" + b",1e400" * 18]),
}


@FUZZ
@given(st.sampled_from(sorted(ARTIFACT_READERS)), st.booleans(), st.integers(0, 1 << 20),
       st.integers(0, 5))
@example("scored.csv", True, -1, 1)  # whole file, then a binary past int64
@example("scored.csv", True, -1, 2)  # whole file, then a width past float
@example("patterns.csv", False, 150, 0)  # the first pattern, cut inside its covariates
def test_stage_reading_a_cut_artifact_ends_in_a_documented_exit(staged, name, at_line_end,
                                                                 cut, tail):
    # The cut is at any byte, or after any line; -1 keeps the whole file.
    command, tails = ARTIFACT_READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = copy_of(staged, tmp)
        whole = (out / name).read_bytes()
        line_ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
        cut = line_ends[cut % len(line_ends)] if at_line_end else cut % (len(whole) + 1)
        (out / name).write_bytes(whole[:cut] + tails[tail % len(tails)])
        run_stage([command, "--covariates", str(COVARIATES)], out,
                  (EXIT_OK, EXIT_SCHEMA, EXIT_ESTIMATION, EXIT_IO))
