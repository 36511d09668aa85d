import dataclasses
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcat import core
from darcat.core import (
    MISSING,
    CatSeries,
    DarcatError,
    MalformedRow,
    MissingValuePresent,
    NotUtf8,
    StateSpace,
    TooShort,
    UnknownLabel,
    empirical_transition_matrix,
    jump_frequencies,
    parse_series,
    serialize_series,
    transition_counts,
)
from darcat.dar import DarModel, MissingDarModel, simulate, simulate_with_missing

AB = StateSpace(("A", "B"))


def parse_reference(csv_text, space):
    """``(codes, time labels)`` read row by row, as ``parse_series`` did before it was vectorised."""
    lines = [ln for ln in csv_text.splitlines() if ln.strip() != ""]
    if not lines:
        raise TooShort("empty input")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) != 2:
        raise MalformedRow(f"expected 2 header columns, got {len(header)}")
    code_of = dict(zip(space.labels, range(1, space.k + 1)), NA=MISSING)
    obs, times = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != 2:
            raise MalformedRow(f"line {lineno}: expected 2 columns, got {len(cells)}")
        t, value = cells
        times.append(t)
        obs.append(code_of[value] if value in code_of else space.code_of(value))
    if len(obs) < 2:
        raise TooShort(f"need at least 2 data rows, got {len(obs)}")
    return obs, tuple(times)


def serialize_reference(series):
    """The text ``serialize_series`` wrote before it wrote a byte buffer: one str per row and cell, joined."""
    cells = np.array(["", *(f",{label}\n" for label in series.space.labels), ",NA\n"], dtype=object)
    rows = [None] * (2 * len(series) + 1)
    rows[0] = "t,value\n"
    rows[1::2] = series.time_labels or [str(i) for i in range(len(series))]
    rows[2::2] = cells[series.obs].tolist()
    return "".join(rows)


def counting_locator():
    """Wraps the row reader of ``parse_series`` to count how often it runs."""
    return mock.patch.object(core, "_read_rows", wraps=core._read_rows)


def test_state_space_codes_are_label_order():
    sp = StateSpace(("0", "0.5", "1", "2", "3", "4"))
    assert sp.k == 6
    assert sp.code_of("0.5") == 2
    assert sp.label_of(6) == "4"


def test_state_space_rejects_small_or_duplicate():
    with pytest.raises(DarcatError):
        StateSpace(("only",))
    with pytest.raises(DarcatError):
        StateSpace(("A", "A"))


@pytest.mark.parametrize("label", ["NA", "", "a,b", "a\nb", "a\r\nb", "a\u2028b", " a", "a\t", "\x1ca"])
def test_state_space_rejects_labels_that_cannot_round_trip(label):
    with pytest.raises(DarcatError, match=f"state label {re.escape(repr(label))} would not read back"):
        StateSpace(("low", label))


def test_parse_label_mapping():
    s = parse_series("t,value\n1975,A\n1976,B\n", AB)
    assert s.obs.tolist() == [1, 2]
    assert s.time_labels == ("1975", "1976")


def test_parse_missing_sentinel():
    s = parse_series("t,value\n1,A\n2,NA\n3,A\n", AB)
    assert s.obs.tolist() == [1, MISSING, 1]


def test_parse_rejections():
    with pytest.raises(UnknownLabel):
        parse_series("t,value\n4,Z\n5,A\n", AB)
    with pytest.raises(MalformedRow):
        parse_series("t,value\n1,A,extra\n2,B\n", AB)
    with pytest.raises(TooShort):
        parse_series("t,value\n1,A\n", AB)


def test_series_validation():
    with pytest.raises(TooShort):
        CatSeries(AB, (1,))
    with pytest.raises(DarcatError):
        CatSeries(AB, (1, 5))
    with pytest.raises(DarcatError):
        CatSeries(AB, (1, 0))


@st.composite
def written_series(draw):
    """A series and a text that must read back as it.

    Labels may hold inner spaces, cells may be NA and stamps are implicit,
    custom or the implicit ones spelt out; the text is the series as written
    by ``serialize_series``, then with blank lines, spaces around cells, CRLF
    line ends and no final line break mixed in.
    """
    k = draw(st.integers(2, 20))
    label = st.from_regex(r"[abé]([ab é\t]{0,4}[abé])?", fullmatch=True)
    space = StateSpace(tuple(draw(st.lists(label, min_size=k, max_size=k, unique=True))))
    values = draw(st.lists(st.sampled_from([*range(1, k + 1), MISSING]), min_size=2, max_size=40))
    stamp = st.text(alphabet="0123456789-:T x", max_size=8).map(str.strip)
    stamps = draw(
        st.one_of(
            st.none(),
            st.just(tuple(str(i) for i in range(len(values)))),
            st.lists(stamp, min_size=len(values), max_size=len(values)),
        )
    )
    series = CatSeries(space, values, stamps)
    blank = st.sampled_from(["", " ", "\t", "  \t "])
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for line in serialize_series(series).splitlines():
        lines.extend(draw(st.lists(blank, max_size=2)))
        t, value = line.split(",")
        lines.append(f"{draw(pad)}{t}{draw(pad)},{draw(pad)}{value}{draw(pad)}")
    lines.extend(draw(st.lists(blank, max_size=2)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return series, end.join(lines) + draw(st.sampled_from(["", end]))


def simulated(missing):
    model = DarModel.from_pi(0.6, [0.2, 0.3, 0.5])
    if missing:
        return simulate_with_missing(MissingDarModel(model, 0.3), 60, seed=4)
    return simulate(model, 60, seed=4)


@given(written=written_series())
@example(written=(simulated(missing=False), serialize_series(simulated(missing=False))))
@example(written=(simulated(missing=True), serialize_series(simulated(missing=True))))
@example(written=(CatSeries(StateSpace(("N A", "na")), (1, 2, MISSING)), "t,value\n0,N A\n1,na\n2,NA\n"))
@example(written=(CatSeries(AB, (1, 2, 1, 2), ("NA", "", "x y", "2\u30001")), "t,value\nNA,A\n,B\nx y,A\n2\u30001,B\n"))
@settings(max_examples=300, deadline=None)
def test_series_reads_back_from_its_text(written):
    series, text = written
    parsed = parse_series(text, series.space)
    assert parse_series(serialize_series(series), series.space) == series
    assert parsed == series
    obs, times = parse_reference(text, series.space)
    assert parsed.obs.tolist() == obs
    assert (parsed.time_labels or tuple(str(i) for i in range(len(parsed)))) == times


@pytest.mark.parametrize("missing", [False, True], ids=["simulate", "simulate_with_missing"])
def test_simulated_series_round_trips(missing):
    series = simulated(missing)
    assert series.time_labels is None
    assert parse_series(serialize_series(series), series.space) == series


def rows(n, bad_at=None):
    return "t,value\n" + "".join(f"{i},{'Z' if i == bad_at else 'AB'[i % 2]}\n" for i in range(n))


@pytest.mark.parametrize(
    "text",
    [
        "t,value\n0,A\n1\n2,B\n",
        "t,value\n0,A,x\n1,B\n",
        't,value\n"0,5",A\n1,B\n',
        "t,value,x\n0,A\n1,B\n",
        "t\n0,A\n1,B\n",
        "",
        " \n\t\r\n  ",
        "t,value\n0,A\n",
        "t,value\n\n0,A\n  \n",
        rows(2 * 10**5, bad_at=10**5),
        "t,value\n0,A\n\n1,B,C\n2,A\n",
        "\r\n t,value\r\n\r\n0,A\r\n \t\r\n1,B\r\n2,\r\n",
        "t,value\n0,Z\n1,A,B\n",
        "t,value\n0,A,B\n1,Z\n",
        "t,value\n0,A\x0b1,B\x1c2\n",
    ],
    ids=[
        "one-column",
        "three-columns",
        "quoted-comma",
        "three-column-header",
        "one-column-header",
        "empty",
        "whitespace-only",
        "one-data-row",
        "one-data-row-between-blank-lines",
        "unknown-label-at-row-1e5-of-2e5",
        "malformed-after-blank-line",
        "empty-cell-crlf",
        "unknown-label-before-malformed-row",
        "malformed-row-before-unknown-label",
        "other-line-breaks",
    ],
)
def test_errors_match_row_by_row_reading(text):
    with pytest.raises(DarcatError) as expected:
        parse_reference(text, AB)
    with counting_locator() as locator, pytest.raises(DarcatError) as got:
        parse_series(text, AB)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert locator.call_count == 1


@st.composite
def any_text(draw):
    """Mostly valid rows, with some blank, one-cell, three-cell or unknown-label lines, split by every line break str.splitlines knows."""
    pad = st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000"])

    def padded(cells):
        return st.builds(lambda a, c, b: a + c + b, pad, st.sampled_from(cells), pad)

    row = st.builds(lambda t, v: f"{t},{v}", padded(["", "0", "17", "A B"]), padded(["A", "B", "NA"]))
    odd = padded(["", "A", "1,Z", "1,A,B"])
    lines = draw(st.lists(st.one_of(*[row] * 8, odd), max_size=8))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    header = draw(st.sampled_from(["t,value", " t , value ", ""]))
    return "".join(f"{ln}{draw(breaks)}" for ln in [header, *lines]) + draw(st.sampled_from(["", "0,A"]))


@given(any_text())
@example("t,value\n0,A\x1f\n1,B\n")  # the only whitespace is one that is not a line break
@example("t,value\x850,\xa0A\u20281,B")
@settings(max_examples=500, deadline=None)
def test_any_text_reads_as_row_by_row(text):
    try:
        obs, times = parse_reference(text, AB)
    except DarcatError as exc:
        with pytest.raises(DarcatError) as got:
            parse_series(text, AB)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    series = parse_series(text, AB)
    assert series.obs.tolist() == obs
    assert (series.time_labels or tuple(str(i) for i in range(len(series)))) == times


@st.composite
def long_series(draw):
    """A series on k = 2..20 labels of 1-4 UTF-8 bytes, of a length at a digit boundary of its stamps.

    Any share of the values may be NA; stamps are implicit or drawn from a small pool of custom ones.
    """
    k = draw(st.integers(2, 20))
    label = st.text(alphabet="a1Né€\U0001d11e", min_size=1, max_size=4).filter(lambda t: len(t.encode()) <= 4)
    space = StateSpace(tuple(draw(st.lists(label, min_size=k, max_size=k, unique=True))))
    n = draw(st.sampled_from([2, 9, 10, 11, 99, 100, 101, 10**4 - 1, 10**4, 10**4 + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = np.where(rng.random(n) < draw(st.floats(0, 1)), MISSING, rng.integers(1, k + 1, n))
    stamps = None
    if draw(st.booleans()):
        pool = draw(st.lists(st.text(alphabet="0123456789-:T xé", max_size=6).map(str.strip), min_size=1, max_size=4))
        stamps = np.array(pool, dtype=object)[rng.integers(0, len(pool), n)]
    return CatSeries(space, obs, stamps)


@given(long_series())
@example(CatSeries(StateSpace(("1", "10")), [1, 2, MISSING] * 4))
@settings(max_examples=60, deadline=None)
def test_serialize_writes_the_joined_rows(series):
    text = serialize_series(series)
    assert text.encode() == serialize_reference(series).encode()
    assert parse_series(text, series.space) == series


@given(long_series())
@example(CatSeries(AB, [1] * 10 + [MISSING] * 90 + [2] * 5))  # no kept index has two digits
@example(CatSeries(StateSpace(("1", "10")), [MISSING, 1, 2, MISSING, 2, 1, 1] * 3))
@settings(max_examples=40, deadline=None)
def test_derived_series_write_the_joined_rows(series):
    for derive in (CatSeries.drop_missing, CatSeries.longest_complete_segment):
        try:
            derived = derive(series)
        except TooShort:
            continue
        text = serialize_series(derived)
        assert text.encode() == serialize_reference(derived).encode()
        assert parse_series(text, derived.space) == derived


def test_implicit_stamps_are_stored_as_none():
    assert CatSeries(AB, (1, 2, 1), ("0", "1", "2")).time_labels is None
    assert CatSeries(AB, (1, 2, 1), range(3)) == CatSeries(AB, (1, 2, 1))
    assert CatSeries(AB, (1, 2, 1), ("0", "1", "3")).time_labels == ("0", "1", "3")
    assert CatSeries(AB, (1, 2, 1), ("0", "01", "2")).time_labels == ("0", "01", "2")
    assert CatSeries(AB, (1, 2, 1), ("0", "1 2", "2")).time_labels == ("0", "1 2", "2")
    assert parse_series("t,value\n0,A\n1,B\n", AB).time_labels is None


def test_numpy_stamp_arrays_give_the_series_their_list_gives():
    labels = ["d0", "d1", "d2"]
    assert CatSeries(AB, (1, 2, 1), np.array(labels)) == CatSeries(AB, (1, 2, 1), labels)
    assert CatSeries(AB, (1, 2, 1), np.array(labels)).time_labels == tuple(labels)
    assert CatSeries(AB, (1, 2, 1), CatSeries(AB, (1, 2, 1)).stamps()).time_labels is None


@pytest.mark.parametrize(
    "stamp", ["a,b", ",", "x\ny", "x\r\ny", *(f"x{c}y" for c in core._LINE_BREAKS), " 5", "5\t", "\x1f5", "\xa05", "5\u3000", " "]
)
def test_series_refuses_stamps_that_cannot_round_trip(stamp):
    with pytest.raises(DarcatError, match=f"time label {re.escape(repr(stamp))} would not read back"):
        CatSeries(AB, (1, 2, 1), ("0", stamp, "2"))
    with pytest.raises(DarcatError, match=f"time label {re.escape(repr(stamp))} would not read back"):
        CatSeries(AB, (1, 2), (stamp, "1"))


def test_spaces_are_what_strip_removes_besides_line_breaks():
    every = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(core._SPACES) == every - set("\n" + core._LINE_BREAKS)


def implicit_rows(n, last=None):
    return "t,value\n" + "".join(f"{i},a\n" for i in range(n - 1)) + f"{n - 1 if last is None else last},ab\n"


@pytest.mark.parametrize(
    "labels,text",
    [
        (("1", "10"), "t,value\n0,1\n1,10\n2,1\n3,NA\n"),
        (("10", "1"), "t,value\n0,1\n1,10\n2,1\n"),
        (("1", "10"), "t,value\n0,1\n1,100\n"),
        (("1", "10"), "t,value\n0,1\n1,\n"),
        (("a", "ab"), "t,value\n0,ab\n1,a\n2,NA\n"),
        (("ab", "a"), "t,value\n0,ab\n1,abc\n"),
        (("a", "ab"), "t,value\n0,a\n1,b\n"),
        (("a", "ab"), "t,value\n0,a\n1,a-rather-long-cell\n"),
        (("a", "ab"), "t,value\n0,NA\n1,NAN\n"),
        (("NAN", "N"), "t,value\n0,NAN\n1,NA\n2,N\n3,NAN\n"),
        (("a", "ab"), "t,value\n \n\t\t\n0,a\n\u3000\n1,ab\n  \n"),
        (("a", "ab"), " \nt,value\n0,a\n\n1,ab"),
        *((("a", "ab"), f"t,value{brk}0,a{brk}{brk}1,ab{brk}") for brk in core._LINE_BREAKS),
        *((("a", "ab"), f"t,value{brk}0,a\n1,ab") for brk in core._LINE_BREAKS),
        (("a", "ab"), implicit_rows(11)),
        (("a", "ab"), implicit_rows(11, last="1O")),
        (("a", "ab"), implicit_rows(11, last="01")),
        (("a", "ab"), implicit_rows(11, last="11")),
        (("a", "ab"), implicit_rows(101, last="1000")),
        (("a", "ab"), implicit_rows(101, last=" 100")),
        (("a", "ab"), "t,value\n0,a\n1a\n2,ab\n"),  # a data line with no comma
        (("a", "ab"), "t,value\n0,a\n1,a,b\n2,ab\n"),  # a line with two commas
        (("a", "ab"), "t,value\n0,a,b\n1a\n2,ab\n"),  # as many commas as lines, not one on each
        (("a", "ab"), "t,value,\n0,a\n1ab\n2,a\n"),
        (("a", "ab"), "t,x,a\n0,a\n1ab\n"),  # each comma before its line's break, not each on its line
        (("a", "ab"), "tvalue\n0,a\n1,ab\n"),
        (("a", "ab"), "t,value\n0,a\n,\n1,ab\n"),  # a lone comma
        (("a", "ab"), "t,value\n,a\n \t, ab\n"),  # empty stamps
        (("a", "ab"), "\r\nt,value\r\n0,a\r\n1,ab\r\n"),  # a blank first line before a \r\n header
        (("a", "ab"), "\n\n\nt,value\n\n0,a\n\n\n1,ab\n\n"),
        (("a", "ab"), "t,value\n0,a\n1,a\n\n2,ab"),  # a blank line before a last line with no line break
        (("a", "ab"), "t,value\n0,a\n1,a\n\n2,"),
    ],
)
def test_edge_texts_read_as_row_by_row(labels, text):
    space = StateSpace(labels)
    try:
        obs, times = parse_reference(text, space)
    except DarcatError as exc:
        with pytest.raises(DarcatError) as got:
            parse_series(text, space)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    series = parse_series(text, space)
    assert series.obs.tolist() == obs
    implicit = tuple(str(i) for i in range(len(series)))
    assert series.time_labels == (None if times == implicit else times)


@pytest.mark.parametrize("n", [1, 2, 10, 11, 99, 100, 101, 1000, 12345, 10**5 + 1])
def test_default_stamps_count_from_zero(n):
    """``_stamp_words``, which the reader and the writer share, spells 0..n-1 and a comma one digit count at a time."""
    blocks = list(core._stamp_words(n))
    assert [(d, first) for d, first, _ in blocks] == [(d, 10 ** (d - 1) if d > 1 else 0) for d in range(1, len(blocks) + 1)]
    assert all(words.shape[1] == d // 8 + 1 for d, _, words in blocks)
    spelt = [row.astype("<u8").tobytes().rstrip(b"\0").decode() for _, _, words in blocks for row in words]
    assert spelt == [f"{i}," for i in range(n)]


def test_stamp_words_span_words_from_eight_digits_on():
    """From 10^7 on, a number's digits and comma take two 8-byte words."""
    blocks = core._stamp_words(10**7 + 12)
    *_, (d, first, words) = blocks
    assert (d, first, words.shape) == (8, 10**7, (12, 2))
    spelt = [row.astype("<u8").tobytes().rstrip(b"\0").decode() for row in words]
    assert spelt == [f"{10**7 + i}," for i in range(12)]
    # the digits of 10^7 fill the first word; its comma opens the second
    assert words[0].astype("<u8").tobytes() == b"10000000" + b",\0\0\0\0\0\0\0"


@given(st.lists(st.sampled_from([1, 2, 3, MISSING]), min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_parse_serialize_round_trip(values):
    space = StateSpace(("lo", "mid", "hi"))
    labels = {1: "lo", 2: "mid", 3: "hi", MISSING: "NA"}
    text = "t,value\n" + "".join(f"{1975 + i},{labels[v]}\n" for i, v in enumerate(values))
    series = parse_series(text, space)
    assert serialize_series(series) == text
    assert parse_series(serialize_series(series), space) == series


def test_serialize_fills_indices_without_time_labels():
    series = CatSeries(AB, (1, 2, MISSING))
    assert serialize_series(series) == "t,value\n0,A\n1,B\n2,NA\n"


def default_rows(n, labels=("a", "bc", "NA")):
    """A text of n rows stamped 0..n-1, its value cells cycling through ``labels``."""
    return "t,value\n" + "".join(f"{i},{labels[i % len(labels)]}\n" for i in range(n))


def with_stamp(text, row, stamp):
    """``text`` with data row ``row``'s stamp replaced."""
    lines = text.split("\n")
    lines[row + 1] = stamp + "," + lines[row + 1].split(",", 1)[1]
    return "\n".join(lines)


def read_both_ways(text, space):
    """What ``parse_series`` makes of ``text`` given as str and as its UTF-8 bytes: the same series or the same error."""
    results = []
    for given in (text, text.encode()):
        try:
            results.append(parse_series(given, space))
        except DarcatError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1]
    return results[0]


BYTE_TEXTS = {
    **{f"rows-{n + e}": default_rows(n + e) for n in (10, 100, 1000, 10**4) for e in (-1, 0, 1)},
    # one digit of stamp 1234 changed at each place; the stamps are then labels
    **{f"digit-{p}-changed": with_stamp(default_rows(2000), 1234, "1234"[:p] + "7" + "1234"[p + 1 :]) for p in range(4)},
    "leading-zero": with_stamp(default_rows(100), 7, "07"),
    "spaces-around-stamp": with_stamp(default_rows(100), 42, " 42 "),
    "no-final-break-short-rows": "t,value\n0,a\n1,bc\n2,NA\n3,a\n4,a",
    "header-without-comma": "t value\n0,a\n1,bc\n2,a\n",
    "header-with-two-commas": "t,value,\n0,a\n1,bc\n2,a\n",
    "value-cell-with-comma": "t,value\n0,a\n1,bc,a\n2,a\n",
    "value-cell-with-comma-only": "t,value\n0,a\n1,\n2,,\n",
    **{
        f"breaks-{name}": default_rows(30).replace("\n", brk)
        for name, brk in [("crlf", "\r\n"), ("cr", "\r"), ("u0085", "\x85"), ("u2028", "\u2028")]
    },
}


@pytest.mark.parametrize("text", BYTE_TEXTS.values(), ids=BYTE_TEXTS.keys())
def test_bytes_read_as_their_text(text):
    assert_reads_as_reference(text, StateSpace(("a", "bc")))


def assert_reads_as_reference(text, space):
    """``text``, given as str and as bytes, reads as ``parse_reference`` reads it: the same series, or the same error."""
    got = read_both_ways(text, space)
    try:
        obs, times = parse_reference(text, space)
    except DarcatError as exc:
        assert got == (type(exc), str(exc))
        return
    assert got.obs.tolist() == obs
    implicit = tuple(str(i) for i in range(len(got)))
    assert got.time_labels == (None if times == implicit else times)


# 1-3 of these are put into, or over one character of, a text as the writer writes it
EDITS = ["\r", "\r\n", "\x85", "\u2028", "\x0b", " ", "\t", "\x1f", "\xa0", ",", "NA", "\ufeff", ""]


@st.composite
def edited_texts(draw):
    """A state space and the text ``serialize_series`` writes for a series on it, stamped 0..n, with 1-3 edits.

    Each edit puts one of ``EDITS``, digits or a label at a place in the text, or over the character there.
    """
    k = draw(st.integers(2, 5))
    label = st.text(alphabet="ab é€", min_size=1, max_size=3).filter(lambda t: t == t.strip())
    labels = draw(st.lists(label, min_size=k, max_size=k, unique=True))
    space = StateSpace(tuple(labels))
    values = draw(st.lists(st.sampled_from([*range(1, k + 1), MISSING]), min_size=2, max_size=25))
    text = serialize_series(CatSeries(space, values))
    edit = st.one_of(st.sampled_from(EDITS), st.from_regex(r"[0-9]{1,2}", fullmatch=True), st.sampled_from(labels))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        over = draw(st.booleans()) and at < len(text)
        text = text[:at] + draw(edit) + text[at + over :]
    return space, text


@given(edited_texts())
# a header holding a line break other than "\n": reading it as one line would find its one comma
@example((StateSpace(("a", "b")), "t\rx,value\n0,a\n1,a\n"))
@example((StateSpace(("a", "b")), "t\x85x,value\n0,a\n1,b\n"))
@settings(max_examples=500, deadline=None)
def test_edited_written_texts_read_as_row_by_row(edited):
    """Nothing the byte path accepts reads differently row by row, whatever a hand edit puts in the writer's text."""
    assert_reads_as_reference(edited[1], edited[0])


PATH_LABELS = {
    "ascii-k2": ("lo", "hi"),
    "utf8-k3": ("é", "€", "\U0001d11e"),
    "inner-spaces-k4": ("b c", "a", "é €", "\U0001d11e x"),
    "mixed-k20": tuple(f"{c}{i}" for i, c in enumerate(["a", "é", "€", "\U0001d11e", "b c"] * 4)),
}


def hand_made(text):
    """``text``, as the writer writes it for stamps 0..n, with each of five differences a hand-kept file may have."""
    lines = text.split("\n")  # the last is empty, as the text ends in a line break
    mid = len(lines) // 2
    return {
        "explicit-stamps": "\n".join([lines[0], *(f"{1975 + i},{ln.split(',', 1)[1]}" for i, ln in enumerate(lines[1:-1])), ""]),
        "crlf": text.replace("\n", "\r\n"),
        "space-around-a-cell": "\n".join([*lines[:mid], lines[mid] + " ", *lines[mid + 1 :]]),
        "blank-line": "\n".join([*lines[:mid], "", *lines[mid:]]),
        "no-final-line-break": text[:-1],
    }


@pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10**4, 10**4 + 1])
@pytest.mark.parametrize("labels", PATH_LABELS.values(), ids=PATH_LABELS.keys())
def test_only_hand_made_text_reaches_the_row_reader(labels, n):
    """The writer's text for stamps 0..n is read as bytes; the same series with one hand-made difference, row by row."""
    space = StateSpace(labels)
    rng = np.random.default_rng(n)
    codes = np.where(rng.random(n) < 0.1, MISSING, rng.integers(1, space.k + 1, n))
    codes[1] = MISSING
    series = CatSeries(space, codes)
    text = serialize_series(series)
    with counting_locator() as locator:
        assert parse_series(text, space) == series
        assert parse_series(text.encode(), space) == series
    assert locator.call_count == 0
    stamped = CatSeries(space, codes, [str(1975 + i) for i in range(n)])
    for name, edited in hand_made(text).items():
        for given in (edited, edited.encode()):
            with counting_locator() as locator:
                assert parse_series(given, space) == (stamped if name == "explicit-stamps" else series), name
            assert locator.call_count == 1, name


NOT_UTF8 = {
    "header": (b"t\xff,value\n0,A\n1,B\n", "invalid start byte at byte 1"),
    "stamp": (b"t,value\n0,A\n1,A\n\xff\xfe,B\n", "invalid start byte at byte 16"),
    "value-cell": (b"t,value\n0,A\n1,\xffB\n", "invalid start byte at byte 14"),
    # the offset counts in the bytes given, before their line breaks are made "\n"
    "value-cell-after-crlf-and-u2028": (
        "t,value\r\n0,A\u2028".encode() + b"1,B\xc3\n", "invalid continuation byte at byte 18"
    ),
}


@pytest.mark.parametrize("data, why", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_bytes_that_are_not_utf8_are_refused_naming_the_offset(data, why):
    with pytest.raises(NotUtf8) as refused:
        parse_series(data, AB)
    assert str(refused.value) == f"not UTF-8 text ({why})"


LONE_SURROGATES = {
    "header": ("t\ud800,value\n0,A\n1,B\n", 1),
    "stamp": ("t,value\n0,A\n\udfff,B\n", 12),
    "value-cell": ("t,value\n0,\ud800\n1,A\n", 10),
}


@pytest.mark.parametrize("text, at", LONE_SURROGATES.values(), ids=LONE_SURROGATES.keys())
def test_a_lone_surrogate_is_refused_naming_the_character(text, at):
    """A str that no UTF-8 bytes spell is refused like bytes that are not UTF-8, at its character's offset."""
    with pytest.raises(NotUtf8) as refused:
        parse_series(text, AB)
    assert str(refused.value) == f"not UTF-8 text (surrogates not allowed at character {at})"


def test_a_stamp_changed_at_any_row_or_place_is_kept():
    """Each row's stamp is compared whole: a change anywhere in it, or in its comma's place, makes the stamps labels."""
    text = default_rows(1001)
    for row in (0, 9, 10, 99, 100, 999, 1000):
        stamp = str(row)
        for p in range(len(stamp)):
            changed = stamp[:p] + str((int(stamp[p]) + 1) % 10) + stamp[p + 1 :]
            series = read_both_ways(with_stamp(text, row, changed), StateSpace(("a", "bc")))
            assert series.time_labels[row] == changed
        series = read_both_ways(with_stamp(text, row, stamp + "0"), StateSpace(("a", "bc")))
        assert series.time_labels[row] == stamp + "0"


def canonical(labels, codes, stamps=None):
    """The text ``serialize_series`` writes for these codes (MISSING as NA) and stamps (0..n-1 when None)."""
    stamps = range(len(codes)) if stamps is None else stamps
    return "t,value\n" + "".join(f"{t},{'NA' if c == MISSING else labels[c - 1]}\n" for t, c in zip(stamps, codes))


WRITER_TEXTS = {
    # cells "1\n" to "9\n", "10\n" and "NA\n" over stamps of 1 to 3 digits
    "mixed-widths-with-na": (tuple(map(str, range(1, 11))), [(i * 7) % 11 or MISSING for i in range(1, 1200)]),
    # every label from 1 to 12 bytes, written together (padded) and each with one of its own length (whole rows)
    "labels-1-to-12-bytes": (tuple("abcdefghijkl"[:n] for n in range(1, 13)), [1 + (i * 5) % 12 for i in range(130)]),
    **{
        f"labels-of-{n}-bytes": (("x" * n, "y" * n), [1 + (i * i) % 2 for i in range(130)])
        for n in range(1, 13)
    },
    # 0x00 is the first pad byte tried, so a label holding it makes the writer pick another
    "label-with-byte-0": (("\x00", "a\x00\x01b", "\x01\x02"), [1, 2, 3, MISSING, 2, 1] * 5),
}


@pytest.mark.parametrize("labels,codes", WRITER_TEXTS.values(), ids=WRITER_TEXTS.keys())
def test_written_text_is_the_canonical_one(labels, codes):
    text = canonical(labels, codes)
    space = StateSpace(labels)
    series = parse_series(text, space)
    assert series.time_labels is None
    assert serialize_series(series) == text
    kept = [t for t, c in enumerate(codes) if c != MISSING]
    dropped = series.drop_missing()
    assert serialize_series(dropped) == canonical(labels, [codes[t] for t in kept], kept)
    assert parse_series(serialize_series(dropped), space) == dropped


def test_a_drop_missing_series_writes_its_stamps():
    """The stamps of a series that dropped its missing values: rising indices, some digit counts empty."""
    codes = [1, MISSING, 2] + [MISSING] * 200 + [2, 1] + [MISSING] * 800 + [1, 2]
    labels = ("a", "bc")
    dropped = parse_series(canonical(labels, codes), StateSpace(labels)).drop_missing()
    kept = [t for t, c in enumerate(codes) if c != MISSING]
    assert kept == [0, 2, 203, 204, 1005, 1006]  # no 2-digit stamp
    assert serialize_series(dropped) == canonical(labels, [codes[t] for t in kept], kept)


def test_stamp_words_are_found_at_unaligned_offsets_past_eight_digits():
    """The reader's load and compare, on rows whose 8-digit stamps and comma take two words, at odd offsets."""
    *_, (d, first, words) = core._stamp_words(10**7 + 3)
    text = "".join(f"{first + i},{'x' * i}\n" for i in range(3)).encode() + bytes(16)
    buf = np.frombuffer(text, np.uint8)
    at = np.array([0, 10, 21])
    assert core._begins_with(buf, at, words, d + 1)
    for place in range(d + 1):  # one byte changed anywhere in a stamp or its comma is seen
        changed = bytearray(text)
        changed[21 + place] ^= 1
        assert not core._begins_with(np.frombuffer(bytes(changed), np.uint8), at, words, d + 1)


@pytest.mark.parametrize(
    "obs,expected",
    [
        ((1, 1, 2, 2), [[1, 1], [0, 1]]),
        ((1, 2, 1, 2, 1), [[0, 2], [2, 0]]),
    ],
)
def test_transition_counts_hand_examples(obs, expected):
    counts = transition_counts(CatSeries(StateSpace.from_k(2), obs))
    assert counts.tolist() == expected
    assert counts.sum() == len(obs) - 1


def test_transition_counts_constant_series():
    counts = transition_counts(CatSeries(StateSpace.from_k(3), (3, 3, 3, 3)))
    assert counts[2, 2] == 3
    assert counts.sum() == 3


def test_transition_counts_refuses_missing():
    with pytest.raises(MissingValuePresent):
        transition_counts(CatSeries(AB, (1, MISSING, 2)))


@given(st.lists(st.integers(1, 4), min_size=2, max_size=200))
@settings(max_examples=200, deadline=None)
def test_transition_counts_total_invariant(values):
    series = CatSeries(StateSpace.from_k(4), tuple(values))
    counts = transition_counts(series)
    assert counts.shape == (4, 4) and counts.dtype.kind == "i"
    assert counts.sum() == len(series) - 1
    # the gap-1 pair table itself, read-only
    assert np.array_equal(counts, series.pairs[1][0])
    assert not counts.flags.writeable


def test_empirical_transition_matrix_hand_example():
    probs, defined = empirical_transition_matrix(CatSeries(StateSpace.from_k(2), (1, 1, 2, 2)))
    assert np.allclose(probs, [[0.5, 0.5], [0.0, 1.0]])
    assert defined.all()


def test_empirical_transition_matrix_alternating():
    probs, _ = empirical_transition_matrix(CatSeries(StateSpace.from_k(2), (1, 2, 1, 2, 1)))
    assert np.allclose(probs, [[0.0, 1.0], [1.0, 0.0]])


def test_empirical_transition_matrix_undefined_row():
    probs, defined = empirical_transition_matrix(CatSeries(StateSpace.from_k(3), (1, 2, 1, 2)))
    assert not defined[2]
    assert np.isnan(probs[2]).all()
    # defined rows still sum to one
    assert np.allclose(probs[:2].sum(axis=1), 1.0, atol=1e-12)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=120))
@settings(max_examples=200, deadline=None)
def test_defined_rows_sum_to_one(values):
    series = CatSeries(StateSpace.from_k(3), tuple(values))
    probs, defined = empirical_transition_matrix(series)
    sums = probs[defined].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    # jump_frequencies of the jump table, both arrays read-only
    want_probs, want_defined = jump_frequencies(transition_counts(series))
    assert np.array_equal(probs, want_probs, equal_nan=True)
    assert np.array_equal(defined, want_defined)
    assert not probs.flags.writeable and not defined.flags.writeable


def test_drop_missing_and_longest_segment():
    s = CatSeries(AB, (1, MISSING, 1, 2, 2, MISSING, 1), tuple("abcdefg"))
    dropped = s.drop_missing()
    assert dropped.obs.tolist() == [1, 1, 2, 2, 1]
    assert dropped.time_labels == ("a", "c", "d", "e", "g")
    segment = s.longest_complete_segment()
    assert segment.obs.tolist() == [1, 2, 2]
    assert segment.time_labels == ("c", "d", "e")


def test_dropping_keeps_implicit_stamps():
    s = CatSeries(AB, (1, MISSING, 2, 2, 1, MISSING))
    assert s.time_labels is None
    assert s.drop_missing().time_labels == ("0", "2", "3", "4")
    assert s.longest_complete_segment().time_labels == ("2", "3", "4")
    # stamps that count from 0 again are the implicit ones
    head = CatSeries(AB, (1, 2, 2, MISSING, 1))
    assert head.longest_complete_segment().time_labels is None
    assert head.drop_missing().time_labels == ("0", "1", "2", "4")


@pytest.mark.parametrize("derive", ["longest_complete_segment", "drop_missing"])
def test_derived_stamps_that_count_from_zero_read_back_as_implicit(derive):
    series = getattr(CatSeries(AB, (1, 2, MISSING, 1), ("0", "1", "x", "y")), derive)()
    assert series.time_labels == (None if derive == "longest_complete_segment" else ("0", "1", "y"))
    assert parse_series(serialize_series(series), AB) == series
    head = getattr(CatSeries(AB, (1, 2, 1, MISSING), ("0", "1", "2", "x")), derive)()
    assert head.time_labels is None
    assert head == CatSeries(AB, (1, 2, 1)) == parse_series(serialize_series(head), AB)


def test_series_derived_from_implicit_stamps_keep_their_indices():
    series = CatSeries(StateSpace(("A", "B", "C")), (1, MISSING, 2, 2, 1, MISSING)).drop_missing()
    restricted, gone = series.restrict_to_observed()
    assert restricted.time_labels == series.time_labels == ("0", "2", "3", "4")
    assert (restricted.stamps().tolist(), gone) == (["0", "2", "3", "4"], ("C",))
    assert restricted.drop_missing() == restricted.longest_complete_segment() == restricted
    assert parse_series(serialize_series(restricted), restricted.space) == restricted


def test_derived_series_check_no_stamp_again(monkeypatch):
    space = StateSpace(("A", "B", "C"))
    series = parse_series("t,value\n1975,A\n1976,NA\n1977,B\n1978,A\n1979,B\n", space)
    checks = mock.Mock(wraps=core._check_stamps)
    monkeypatch.setattr(core, "_check_stamps", checks)
    dropped = series.drop_missing()
    segment = series.longest_complete_segment()
    restricted, gone = series.restrict_to_observed()
    assert checks.call_count == 0
    assert dropped.time_labels == ("1975", "1977", "1978", "1979")
    assert segment.time_labels == ("1977", "1978", "1979")
    assert (restricted.time_labels, gone) == (series.time_labels, ("C",))


LABELLED = CatSeries(AB, (1, MISSING, 2, 2, 1), time_labels=("a", "b", "c", "d", "e"))


@pytest.mark.parametrize(
    "series",
    [LABELLED, LABELLED.drop_missing(), CatSeries(AB, (1, MISSING, 2, 2, 1)).drop_missing(), CatSeries(AB, (1, 2, 2))],
    ids=["labelled", "derived-from-labels", "derived-from-implicit", "implicit"],
)
def test_replace_keeps_the_stamps(series):
    copy = dataclasses.replace(series, obs=series.obs[::-1])
    assert copy.obs.tolist() == series.obs[::-1].tolist()
    assert copy.time_labels == series.time_labels
    assert dataclasses.replace(series) == series
    if series.time_labels is not None:  # a copy of another length cannot keep them
        with pytest.raises(DarcatError, match="time_labels length"):
            dataclasses.replace(series, obs=series.obs[1:])


def test_stamps_compare_across_their_stored_forms():
    derived = CatSeries(AB, (1, MISSING, 2, 1)).drop_missing()  # holds the time indices 0, 2, 3
    assert derived == CatSeries(AB, (1, 2, 1), time_labels=["0", "2", "3"])
    assert derived != CatSeries(AB, (1, 2, 1), ("0", "2", "4"))
    assert derived != CatSeries(AB, (1, 2, 1))
    assert CatSeries(AB, (1, 2, 1)) != CatSeries(AB, (1, 2, 1), ("0", "2", "3"))


def test_observed_pairs_gaps():
    s = CatSeries(AB, (1, MISSING, MISSING, 2, 2))
    gaps, table = s.pairs
    assert gaps.tolist() == [1, 3]
    assert table.tolist() == [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
