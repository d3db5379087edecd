"""The CSV codec every artifact goes through: UTF-8, one header row, then data
rows in the csv module's default dialect (minimal quoting, CRLF line ends)."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from pathlib import Path


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def encode_field(value) -> str:
    """``value`` as write_csv writes it in a row of two or more fields: quoted
    only where the dialect needs it, with no delimiter or line end around it."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-len(",\r\n")]


def read_csv(path: str | Path) -> Iterator[list[str]]:
    """The rows after the header, each a list of strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        yield from reader
