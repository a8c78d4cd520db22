"""Table rendering and parsing: plain text, CSV, and OEIS-style b-files.

Output is deterministic and byte-stable: rows are emitted in row-major order
with k ascending, and every rendered file ends with a newline.  The parsers
invert the renderers exactly, so emitted files round-trip.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

FORMATS = ("plain", "csv", "bfile")

TRIANGLE_CSV_HEADER = "n,k,value"


def render_triangle(rows: Sequence[Sequence[int]], fmt: str = "plain", offset: int = 0) -> str:
    """Render triangle rows, rows[n][k] = c(n, k), in the requested format."""
    if fmt == "csv":
        lines = [TRIANGLE_CSV_HEADER]
        for n, row in enumerate(rows):
            lines.extend(f"{n},{k},{v}" for k, v in enumerate(row))
        return "\n".join(lines) + "\n"
    return _render_rows(rows, fmt, offset)


def render_grid(grid: Sequence[Sequence[int]], fmt: str = "plain", offset: int = 0) -> str:
    """Render a rectangular table of ints; CSV here is bare rows, no header."""
    if fmt == "csv":
        return "".join(",".join(str(v) for v in row) + "\n" for row in grid)
    return _render_rows(grid, fmt, offset)


def _render_rows(rows: Iterable[Sequence[int]], fmt: str, offset: int) -> str:
    # the plain and b-file layouts, the same for triangles and grids; the two
    # public renderers do not call each other, so a traced render is one span
    if fmt == "plain":
        return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
    if fmt == "bfile":
        flat = (v for row in rows for v in row)
        return "".join(f"{idx} {v}\n" for idx, v in enumerate(flat, start=offset))
    raise ValueError(f"unknown format {fmt!r}; choose one of {FORMATS}")


def _line_error(number: int, line: str, reason: str) -> ValueError:
    return ValueError(f"line {number}: {reason}: {line!r}")


def _fields_error(number: int, line: str, sep: str | None, width: int) -> ValueError:
    # for a line that failed to parse: a wrong field count, or a bad field
    count = len(line.split(sep))
    reason = f"expected {width} fields, got {count}" if count != width else "non-integer field"
    return _line_error(number, line, reason)


def parse_triangle_csv(text: str) -> list[list[int]]:
    """Invert the triangle CSV renderer; row n holds c(n, 0), ..., c(n, n)."""
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line]
    number, header = lines[0] if lines else (1, "")
    if header != TRIANGLE_CSV_HEADER:
        raise _line_error(number, header, f"expected header {TRIANGLE_CSV_HEADER!r}")
    rows: list[list[int]] = []
    for number, line in lines[1:]:
        try:
            n, k, v = (int(field) for field in line.split(","))
        except ValueError:
            raise _fields_error(number, line, ",", 3) from None
        if k == 0:
            if n != len(rows):
                raise _line_error(number, line, f"row {n} out of order")
            if rows and len(rows[-1]) < n:
                raise _line_error(number, line, f"row {n - 1} ends before k = {n - 1}")
            rows.append([])
        if n != len(rows) - 1 or k != len(rows[-1]):
            raise _line_error(number, line, f"entry ({n}, {k}) out of order")
        if k > n:
            raise _line_error(number, line, f"entry ({n}, {k}) has k > n")
        rows[-1].append(v)
    if rows and len(rows[-1]) < len(rows):
        raise _line_error(number, line, f"row {n} ends before k = {n}")
    return rows


def parse_grid_csv(text: str) -> list[list[int]]:
    """Invert the headerless grid CSV renderer; every row has the first row's width."""
    grid: list[list[int]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            row = [int(field) for field in line.split(",")]
        except ValueError:
            raise _line_error(number, line, "non-integer field") from None
        if grid and len(row) != len(grid[0]):
            raise _line_error(number, line, f"expected {len(grid[0])} fields, got {len(row)}")
        grid.append(row)
    return grid


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse 'index value' lines; indices must be consecutive."""
    pairs: list[tuple[int, int]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            idx_str, value_str = line.split()
            idx, value = int(idx_str), int(value_str)
        except ValueError:
            raise _fields_error(number, line, None, 2) from None
        if pairs and idx != pairs[-1][0] + 1:
            raise _line_error(number, line, f"index {idx} does not follow {pairs[-1][0]}")
        pairs.append((idx, value))
    return pairs
