import re
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
    StateSpace,
    TooShort,
    UnknownLabel,
    empirical_transition_matrix,
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


def counting_locator():
    """Wraps the row-by-row error locator of ``parse_series`` to count how often it runs."""
    return mock.patch.object(core, "_first_error", wraps=core._first_error)


def test_state_space_codes_are_label_order():
    sp = StateSpace(("0", "0.5", "1", "2", "3", "4"), ordinal=True)
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
    space = StateSpace(tuple(draw(st.lists(label, min_size=k, max_size=k, unique=True))), ordinal=draw(st.booleans()))
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
@settings(max_examples=300, deadline=None)
def test_series_reads_back_from_its_text(written):
    series, text = written
    with counting_locator() as locator:
        parsed = parse_series(text, series.space)
        assert parse_series(serialize_series(series), series.space) == series
    assert parsed == series
    assert locator.call_count == 0  # valid text never reaches the row-by-row reading
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


def test_implicit_stamps_are_stored_as_none():
    assert CatSeries(AB, (1, 2, 1), ("0", "1", "2")).time_labels is None
    assert CatSeries(AB, (1, 2, 1), range(3)) == CatSeries(AB, (1, 2, 1))
    assert CatSeries(AB, (1, 2, 1), ("0", "1", "3")).time_labels == ("0", "1", "3")
    assert CatSeries(AB, (1, 2, 1), ("0", "01", "2")).time_labels == ("0", "01", "2")
    assert CatSeries(AB, (1, 2, 1), ("0", "1\n2", "2")).time_labels == ("0", "1\n2", "2")
    assert parse_series("t,value\n0,A\n1,B\n", AB).time_labels is None


@pytest.mark.parametrize("n", [1, 2, 10, 11, 99, 100, 101, 1000, 12345, 10**5 + 1])
def test_default_stamps_count_from_zero(n):
    assert core._default_stamps(n) == "\n".join(map(str, range(n)))


@given(st.lists(st.sampled_from([1, 2, 3, MISSING]), min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_parse_serialize_round_trip(values):
    space = StateSpace(("lo", "mid", "hi"), ordinal=True)
    labels = {1: "lo", 2: "mid", 3: "hi", MISSING: "NA"}
    text = "t,value\n" + "".join(f"{1975 + i},{labels[v]}\n" for i, v in enumerate(values))
    series = parse_series(text, space)
    assert serialize_series(series) == text
    assert parse_series(serialize_series(series), space) == series


def test_serialize_fills_indices_without_time_labels():
    series = CatSeries(AB, (1, 2, MISSING))
    assert serialize_series(series) == "t,value\n0,A\n1,B\n2,NA\n"


@pytest.mark.parametrize(
    "obs,expected",
    [
        ((1, 1, 2, 2), [[1, 1], [0, 1]]),
        ((1, 2, 1, 2, 1), [[0, 2], [2, 0]]),
    ],
)
def test_transition_counts_hand_examples(obs, expected):
    counts = transition_counts(CatSeries(StateSpace.from_k(2), obs))
    assert counts.matrix.tolist() == expected
    assert counts.n_transitions == len(obs) - 1


def test_transition_counts_constant_series():
    counts = transition_counts(CatSeries(StateSpace.from_k(3), (3, 3, 3, 3)))
    assert counts.matrix[2, 2] == 3
    assert counts.matrix.sum() == 3


def test_transition_counts_refuses_missing():
    with pytest.raises(MissingValuePresent):
        transition_counts(CatSeries(AB, (1, MISSING, 2)))


@given(st.lists(st.integers(1, 4), min_size=2, max_size=200))
@settings(max_examples=200, deadline=None)
def test_transition_counts_total_invariant(values):
    series = CatSeries(StateSpace.from_k(4), tuple(values))
    counts = transition_counts(series)
    assert counts.n_transitions == len(series) - 1
    assert counts.row_sums.sum() == counts.col_sums.sum() == len(series) - 1


def test_empirical_transition_matrix_hand_example():
    etm = empirical_transition_matrix(CatSeries(StateSpace.from_k(2), (1, 1, 2, 2)))
    assert np.allclose(etm.probs, [[0.5, 0.5], [0.0, 1.0]])
    assert etm.defined.all()


def test_empirical_transition_matrix_alternating():
    etm = empirical_transition_matrix(CatSeries(StateSpace.from_k(2), (1, 2, 1, 2, 1)))
    assert np.allclose(etm.probs, [[0.0, 1.0], [1.0, 0.0]])


def test_empirical_transition_matrix_undefined_row():
    etm = empirical_transition_matrix(CatSeries(StateSpace.from_k(3), (1, 2, 1, 2)))
    assert not etm.defined[2]
    assert np.isnan(etm.probs[2]).all()
    # defined rows still sum to one
    assert np.allclose(etm.probs[:2].sum(axis=1), 1.0, atol=1e-12)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=120))
@settings(max_examples=200, deadline=None)
def test_defined_rows_sum_to_one(values):
    etm = empirical_transition_matrix(CatSeries(StateSpace.from_k(3), tuple(values)))
    sums = etm.probs[etm.defined].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


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


def test_observed_pairs_gaps():
    s = CatSeries(AB, (1, MISSING, MISSING, 2, 2))
    gaps, table = s.pairs
    assert gaps.tolist() == [1, 3]
    assert table.tolist() == [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
