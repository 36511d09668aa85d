import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pair_counts,
    parse_series,
    serialize_series,
    transition_counts,
)

AB = StateSpace(("A", "B"))


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


def test_observed_pairs_gaps():
    s = CatSeries(AB, (1, MISSING, MISSING, 2, 2))
    gaps, table = pair_counts(s)
    assert gaps.tolist() == [1, 3]
    assert table.tolist() == [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
