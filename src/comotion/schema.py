"""File documents: how every comotion file is written and read.

A config or problem is a JSON object whose keys are a dataclass's field
names, written with ``dataclasses.asdict`` and read with :func:`from_doc`, so
the dataclass is its one schema; its ``__post_init__`` checks the values with
:func:`is_number` and :func:`is_numbers`.  Trajectories, robot trajectories
and SDF grids are row files: blocks of one JSON header line naming the
format, then one line of numbers per row, written by :func:`write_block`
and parsed by :func:`read_blocks`; each format's loader adds its own checks.
Every saver opens its file with :func:`atomic_open`.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os

import numpy as np


def is_number(v) -> bool:
    """A finite real number that is not a bool.  Python's ``json`` reads
    ``NaN``, ``Infinity`` and ``1e400``; none of them is a number here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def is_numbers(v, n: int) -> bool:
    """A tuple of ``n`` numbers, as ``from_doc`` reads a JSON list."""
    return isinstance(v, tuple) and len(v) == n and all(map(is_number, v))


def from_doc(cls, doc, required=()):
    """``cls(**doc)``, with each JSON list as a tuple.

    An unknown key is the constructor's ``TypeError``, which names it.  A
    ``required`` key that ``doc`` lacks is a ``KeyError``, even where ``cls``
    has a default for it.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise KeyError(key)
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """A file opened with ``mode`` at a temporary path beside ``path``: renamed
    onto ``path`` when the block completes, removed when it raises, so a
    failed write never clobbers a good file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def write_block(fh, header: dict, rows) -> None:
    """One row-file block: ``header`` as a JSON line, then each row's numbers
    in shortest round-trip form, so a read gives back the same floats."""
    fh.write(json.dumps(header) + "\n")
    for row in rows:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_blocks(path, fmt: str, error) -> list[tuple[int, dict, np.ndarray]]:
    """A row file's blocks, each ``(header line number, header, (n, k) rows)``.
    A line opening with ``{`` is a header, any other non-blank line a row.  A
    line that is not UTF-8, a header not a JSON object of format ``fmt``, a
    row before any header, an entry that is not a number (NaN; ±inf is one),
    rows of two lengths in a block or a header with no rows raise ``error``
    naming ``path`` and the line."""
    blocks: list[tuple[int, dict, list]] = []
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            where = f"{path}: line {n}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise error(f"{where}: not UTF-8 text") from None
            if line.lstrip().startswith("{"):
                try:
                    header = json.loads(line)  # an object, when it parses
                except ValueError:
                    header = {}
                if header.get("format") != fmt:
                    raise error(f"{where}: not a {fmt} header")
                blocks.append((n, header, []))
            elif line.strip():
                if not blocks:
                    raise error(f"{where}: a row before any {fmt} header")
                try:
                    row = [float(word) for word in line.split()]
                except ValueError:
                    row = [math.nan]
                if any(map(math.isnan, row)):
                    raise error(f"{where}: an entry is not a number")
                rows = blocks[-1][2]
                if rows and len(row) != len(rows[0]):
                    raise error(f"{where}: {len(row)} numbers, the block's rows {len(rows[0])}")
                rows.append(row)
    for n, header, rows in blocks:
        if not rows:
            raise error(f"{path}: line {n}: a {fmt} header with no rows")
    return [(n, header, np.array(rows)) for n, header, rows in blocks]
