"""Atomic artifact writes: a temp file in the target's directory, renamed
over the target only after every byte is written.

A stage that fails or is killed part-way leaves the previous artifact (or
none) in place, never a truncated one that the next stage would read.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open `path` for writing UTF-8 text with no newline translation.

    The file appears at `path` when the block exits normally; if the block
    raises, the temp file is removed and `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
