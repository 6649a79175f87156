"""CSV round-trip for frames.

The public SAP dataset is distributed as anonymised CSV telemetry; these
helpers read and write that interchange format.  Numeric columns are
type-inferred (int, then float, else string).  A string column whose
cells would all read back as numbers (``"0E0"``, ``"-0"``) is written
with ``:str`` appended to its header name, which pins it to strings.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Iterator

import numpy as np

#: Decimal/scientific literals without leading zeros — "00"/"007" must stay
#: strings so anonymised identifiers round-trip losslessly.  nan/inf are
#: included because missing lifecycle timestamps serialise as "nan".
_FLOAT_RE = re.compile(r"-?((0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?|nan|inf)")

#: Header suffix marking a string column whose cells look numeric.
_STR_TAG = ":str"

from repro.frame.frame import Frame


def write_csv(frame: Frame, path: str | Path) -> None:
    """Write ``frame`` to ``path`` as UTF-8 CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(_rows(frame))


def dumps_csv(frame: Frame) -> str:
    """Render ``frame`` as a CSV string (header + rows)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(_rows(frame))
    return buf.getvalue()


def _rows(frame: Frame) -> Iterator[list[str]]:
    """Header plus rendered rows, tagging strings that would read as numbers."""
    names = list(frame.names)
    columns = [frame[name] for name in names]
    for i, col in enumerate(columns):
        if len(col) and all(isinstance(v, str) for v in col):
            cells = [_render(v) for v in col]
            if names[i].endswith(_STR_TAG) or _infer(cells).dtype != object:
                names[i] += _STR_TAG
    yield names
    for row in zip(*columns):
        yield [_render(v) for v in row]


def read_csv(path: str | Path) -> Frame:
    """Read a CSV file written by :func:`write_csv` back into a frame."""
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        return loads_csv(fh.read())


def loads_csv(text: str) -> Frame:
    """Parse CSV text into a frame, inferring column types."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return Frame()
    raw: dict[str, list[str]] = {name: [] for name in header}
    for row in reader:
        if not row:
            continue
        for name, value in zip(header, row):
            raw[name].append(value)
    return Frame(
        {
            name.removesuffix(_STR_TAG): np.asarray(values, dtype=object)
            if name.endswith(_STR_TAG)
            else _infer(values)
            for name, values in raw.items()
        }
    )


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(value)
    return str(value)


def _infer(values: list[str]) -> np.ndarray:
    """Infer int -> float -> string column types from text cells.

    Only ASCII numerals qualify — Python's int()/float() accept exotic
    Unicode digits, which must stay strings to round-trip losslessly.
    """
    if not values:
        return np.asarray([])
    if all(v.isascii() for v in values):
        try:
            ints = [int(v) for v in values]
            # Only when every cell is in canonical form — "007" must stay a
            # string or it would not round-trip.
            if all(str(i) == v for i, v in zip(ints, values)):
                return np.asarray(ints)
        except (ValueError, OverflowError):
            pass
        if all(_FLOAT_RE.fullmatch(v) for v in values):
            try:
                return np.asarray([float(v) for v in values])
            except (ValueError, OverflowError):
                pass
    return np.asarray(values, dtype=object)
