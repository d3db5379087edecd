"""The CSV codec every artifact goes through: UTF-8, one header row, then data
rows in the csv module's default dialect (minimal quoting, CRLF line ends)."""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from pathlib import Path


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> Iterator[list[str]]:
    """The rows after the header, each a list of strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        yield from reader
