"""The one reader of the CSV files ``ctp`` takes as input.

Each file has a fixed header row and then rows of as many fields. Blank
lines and lines starting with ``#`` are skipped anywhere, above the header
too, and every error names the file and the physical line, except that a
file which is not UTF-8 text is named without a line.
"""

from __future__ import annotations

from .errors import ConfigError


def parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what}: not a number: {text!r}") from None


def not_utf8(where, exc: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8 text.

    It names no line or offset: a text file decodes in chunks, so the
    offset a decode error gives is within a chunk, not within the file.
    """
    return f"{where}: not UTF-8 text ({exc.reason})"


def data_rows(lines, header: tuple[str, ...], where):
    """Yield (physical line number, stripped fields) of each data row below ``header``."""
    import csv

    # A skipped line is read as an empty row, so csv still counts it.
    reader = csv.reader("" if line.strip()[:1] in ("", "#") else line for line in lines)
    rows = (row for row in reader if row)
    try:
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"{where}: empty file, expected header {','.join(header)}")
        if tuple(h.strip() for h in first) != header:
            raise ConfigError(
                f"{where}:{reader.line_num}: bad header {','.join(first)!r}, "
                f"expected {','.join(header)}"
            )
        for row in rows:
            if len(row) != len(header):
                raise ConfigError(
                    f"{where}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, [f.strip() for f in row]
    except UnicodeDecodeError as exc:
        raise ConfigError(not_utf8(where, exc)) from None
