"""Where a stage's read of a CSV hands over from corpus.read_batches'
blocks to csv.reader records, and what each part read."""

import contextlib
from unittest import mock

from sentireg import corpus as corpus_mod


@contextlib.contextmanager
def handovers():
    """A list that gets one dict for each read_batches read from now on:
    `declined`, whether plain_blocks or the stage's block function declined
    a block; `start`, the (bytes, lines) after the header that the blocks
    took, where read_columns begins; and `records`, the count of records
    read_columns then yields. Patches corpus.plain_blocks and
    corpus.read_columns as they stand on entry, forcing patches too."""
    log, plain_blocks, read_columns = [], corpus_mod.plain_blocks, corpus_mod.read_columns

    def logged_blocks(*args):
        log.append({"declined": True, "start": None, "records": 0})
        yield from plain_blocks(*args)
        log[-1]["declined"] = False

    def logged_records(path, columns, *start):
        if not start:  # not a read_batches read: CorpusReader's own
            return read_columns(path, columns)
        log[-1]["start"] = start[0]
        return counted(read_columns(path, columns, *start), log[-1])

    def counted(records, read):
        for record in records:
            read["records"] += 1
            yield record

    with mock.patch.object(corpus_mod, "plain_blocks", logged_blocks), \
            mock.patch.object(corpus_mod, "read_columns", logged_records):
        yield log


def not_plain(*args):
    raise corpus_mod._NotPlain


@contextlib.contextmanager
def records_only():
    """Force every read_batches read to read records only, and check, on
    exit, that no block of any was taken."""
    with mock.patch.object(corpus_mod, "plain_blocks", not_plain), handovers() as reads:
        yield
    assert all(read["start"] == (0, 0) for read in reads), reads
