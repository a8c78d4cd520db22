import pytest

from fibcomb.compositions import ROUTES, triangle
from fibcomb.convolved import convolved_table
from fibcomb.formats import (
    parse_bfile,
    parse_grid_csv,
    parse_triangle_csv,
    render_grid,
    render_triangle,
)


def test_triangle_plain():
    text = render_triangle(triangle(4), "plain")
    assert text == "1\n0 1\n1 0 1\n1 2 0 1\n2 2 3 0 1\n"


def test_triangle_csv_exact():
    text = render_triangle(triangle(2), "csv")
    assert text == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,1\n2,1,0\n2,2,1\n"


def test_triangle_csv_round_trip():
    for route in ROUTES:
        rows = triangle(12, route)
        assert parse_triangle_csv(render_triangle(rows, "csv")) == rows


def test_triangle_bfile_exact():
    text = render_triangle(triangle(3), "bfile", offset=7)
    assert text == "7 1\n8 0\n9 1\n10 1\n11 0\n12 1\n13 1\n14 2\n15 0\n16 1\n"


def test_triangle_bfile_shape():
    text = render_triangle(triangle(4), "bfile")
    lines = text.splitlines()
    assert len(lines) == 15
    assert lines[0] == "0 1"
    assert lines[-1] == "14 1"
    assert text.endswith("\n")


def test_triangle_bfile_round_trip_with_offset():
    rows = triangle(5)
    pairs = parse_bfile(render_triangle(rows, "bfile", offset=10))
    assert pairs[0][0] == 10
    flat = [v for row in rows for v in row]
    assert [v for _, v in pairs] == flat


def test_grid_csv_has_one_line_per_row():
    grid = convolved_table(4, 10)
    text = render_grid(grid, "csv")
    assert len(text.splitlines()) == 4
    assert parse_grid_csv(text) == grid


def test_grid_plain_and_bfile():
    grid = [[1, 2], [3, 4]]
    assert render_grid(grid, "plain") == "1 2\n3 4\n"
    assert render_grid(grid, "bfile") == "0 1\n1 2\n2 3\n3 4\n"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_triangle(triangle(2), "xml")
    with pytest.raises(ValueError):
        render_grid([[1]], "xml")


def test_triangle_csv_parser_validates():
    with pytest.raises(ValueError):
        parse_triangle_csv("0,0,1\n")  # missing header
    with pytest.raises(ValueError):
        parse_triangle_csv("n,k,value\n1,1,0\n")  # row must start at k = 0


def test_bfile_parser_requires_consecutive_indices():
    assert parse_bfile("0 5\n1 7\n") == [(0, 5), (1, 7)]
    with pytest.raises(ValueError):
        parse_bfile("0 5\n2 7\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_bfile, "0 5\n\n1 7 9\n", "line 3: expected 2 fields, got 3: '1 7 9'"),
        (parse_bfile, "0 5\n1 x7\n", "line 2: non-integer field: '1 x7'"),
        (parse_triangle_csv, "n,k,value\n0,0,1\n1,0\n", "line 3: expected 3 fields, got 2: '1,0'"),
        (parse_triangle_csv, "n,k,value\n0,0,one\n", "line 2: non-integer field: '0,0,one'"),
        (parse_triangle_csv, "n,k,value\n0,0,1\n0,1,5\n", "line 3: entry (0, 1) has k > n: '0,1,5'"),
        (parse_triangle_csv, "n,k,value\n0,0,1\n1,0,0\n2,0,1\n",
         "line 4: row 1 ends before k = 1: '2,0,1'"),
        (parse_triangle_csv, "n,k,value\n0,0,1\n1,0,0\n",
         "line 3: row 1 ends before k = 1: '1,0,0'"),
        (parse_grid_csv, "1,1,2\n1,2\n", "line 2: expected 3 fields, got 2: '1,2'"),
        (parse_grid_csv, "1,1\n\n1,2.5\n", "line 3: non-integer field: '1,2.5'"),
    ],
    ids=["bfile-fields", "bfile-integer", "triangle-fields", "triangle-integer",
         "triangle-k-above-n", "triangle-short-row", "triangle-short-last-row",
         "grid-fields", "grid-integer"],
)
def test_parsers_name_the_bad_line(parse, text, message):
    with pytest.raises(ValueError) as error:
        parse(text)
    assert str(error.value) == message
