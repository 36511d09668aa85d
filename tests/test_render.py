import pytest

from darcat.render import table

HEADER = ("a", "bb")
ROWS = [(1, "x"), (22, "yy", " <- note")]


def test_csv_joins_cells_with_commas():
    assert table("csv", HEADER, [("1", "x"), ("22", "")]) == "a,bb\n1,x\n22,\n"


def test_md_has_one_rule_after_the_header():
    assert table("md", HEADER, [(1, "x")]) == "| a | bb |\n|---|---|\n| 1 | x |\n"


def test_txt_right_aligns_and_appends_trailing_note():
    assert table("txt", HEADER, ROWS, (3, 4)) == "  a   bb\n  1    x\n 22   yy <- note\n"


def test_unknown_format_is_an_error():
    with pytest.raises(ValueError, match="json"):
        table("json", HEADER, ROWS)
