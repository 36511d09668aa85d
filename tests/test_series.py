"""Property tests of the array-backed series operations against brute-force loops.

The references below are the per-observation loops that ``CatSeries``
validation, ``drop_missing``, ``restrict_to_observed``, ``build_design``
and the response collapse of ``glm._prepare`` used to run; the
vectorised code must agree with them exactly, dtypes included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcat.cli import _test_series
from darcat.core import MISSING, CatSeries, DarcatError, StateSpace, TooShort
from darcat.dar import DarModel
from darcat.glm import NoUsableRows, _prepare, build_design


def validation_reference(obs, k):
    """``(error type, message)`` of the first rule the codes break, or ``(None, None)``."""
    if any(isinstance(v, list) for v in obs):
        if len({len(v) if isinstance(v, list) else None for v in obs}) > 1:  # not all lists of one length
            return DarcatError, "codes must be a 1-D sequence, got a ragged nested sequence"
        return DarcatError, f"codes must be a 1-D sequence, got shape {np.shape(obs)}"
    if len(obs) < 2:
        return TooShort, f"series needs at least 2 observations, got {len(obs)}"
    if not all(isinstance(v, int) for v in obs):  # refused, not truncated or parsed
        return DarcatError, f"codes must be integers, got {np.asarray(obs).dtype} values"
    for i, v in enumerate(obs):
        if v != MISSING and not 1 <= v <= k:
            return DarcatError, f"observation {v} at index {i} outside {{-1}} U 1..{k}"
    return None, None


def drop_missing_reference(obs, time_labels):
    """``(codes, time labels)`` of the observed entries, or None when fewer than 2."""
    keep = [i for i, v in enumerate(obs) if v != MISSING]
    if len(keep) < 2:
        return None
    tl = tuple(time_labels[i] for i in keep) if time_labels else None
    return [obs[i] for i in keep], tl


def restrict_reference(series):
    """The series on its observed categories and the note naming those projected out."""
    values = sorted(set(v for v in series.obs.tolist() if v > 0))
    if len(values) < 2:
        raise DarcatError("only one category observed; independence tests are undefined")
    if len(values) == series.space.k:
        return series, None
    labels = tuple(series.space.label_of(v) for v in values)
    remap = {v: i + 1 for i, v in enumerate(values)}
    sub = StateSpace(labels)
    obs = tuple(remap.get(v, -1) for v in series.obs.tolist())
    gone = [series.space.label_of(v) for v in range(1, series.space.k + 1) if v not in values]
    return CatSeries(sub, obs, series.time_labels), f"unobserved categories {gone} projected out for testing"


def design_reference(series, lag):
    """``(X, y, column_names, t_index)`` built row by row."""
    k = series.space.k
    obs = series.obs
    rows = []
    t_used = []
    for t in range(lag, len(obs)):
        window = obs[t - lag : t + 1]
        if np.any(window == MISSING):
            continue
        x = [1.0]
        for d in range(1, lag + 1):
            x.extend(1.0 if obs[t - d] == j else 0.0 for j in range(1, k))
        rows.append(x)
        t_used.append(t)
    if not rows:
        return None
    names = ["intercept"] + [f"lag{d}_state{j}" for d in range(1, lag + 1) for j in range(1, k)]
    t_index = np.array(t_used, dtype=np.int64)
    return np.asarray(rows, dtype=float), obs[t_index].copy(), tuple(names), t_index


def collapse_reference(y, k):
    present = sorted(set(int(v) for v in y))
    notes = []
    if len(present) < k:
        gone = sorted(set(range(1, k + 1)) - set(present))
        notes.append(f"empty response categories {gone} collapsed out")
    remap = {c: i + 1 for i, c in enumerate(present)}
    return np.array([remap[int(v)] for v in y]), present, notes


@st.composite
def gapped_series(draw):
    """Series with k in 2..20, possibly one category only, any missing share, maybe time labels."""
    k = draw(st.integers(2, 20))
    used = draw(st.integers(1, k))
    values = draw(st.lists(st.integers(1, used), min_size=2, max_size=80))
    share = draw(st.floats(0.0, 1.0))
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=len(values), max_size=len(values)))
    values = [MISSING if ui < share else v for ui, v in zip(u, values)]
    # a random subset of labels, so that observed codes are not simply 1..m
    if draw(st.booleans()):
        perm = draw(st.permutations(range(1, k + 1)))
        values = [v if v == MISSING else perm[v - 1] for v in values]
    times = tuple(f"t{i}" for i in range(len(values))) if draw(st.booleans()) else None
    space = StateSpace(tuple(f"c{j}" for j in range(1, k + 1)))
    return CatSeries(space, values, times)


K3 = StateSpace(("lo", "mid", "hi"))
EDGE_CASES = [
    CatSeries(K3, (MISSING, MISSING, MISSING), ("a", "b", "c")),
    CatSeries(K3, (MISSING, 2, MISSING, 2)),
    CatSeries(K3, (MISSING, 3, 1, MISSING, 3, MISSING), tuple("abcdef")),
    CatSeries(StateSpace.from_k(20), (MISSING, MISSING, 20, MISSING, 1, 1, MISSING)),
    CatSeries(StateSpace.from_k(2), (1, 1, 1, 1)),
    CatSeries(StateSpace.from_k(4), (2, 2, 4, 2, 4, MISSING)),
]


def with_edge_cases(test):
    for s in EDGE_CASES:
        test = example(series=s)(test)
    return test


# half the lists hold only integers, half may hold values that are not codes
NOT_CODES = st.sampled_from([1.5, 2.0, 3.9, float("nan"), "1", "2"])
RAW_CODES = st.lists(st.integers(-3, 23), max_size=40) | st.lists(st.integers(-3, 23) | NOT_CODES, max_size=40)


@given(k=st.integers(2, 20), raw=RAW_CODES)
@example(k=2, raw=[1])
@example(k=2, raw=[])
@example(k=3, raw=[1.5, 2.0, 3.9])
@example(k=3, raw=["1", "2", "3"])
@example(k=3, raw=[1, float("nan"), 2])
@example(k=3, raw=[[1, 2], [2, 1]])
@example(k=3, raw=[[1, 2], [3]])
@example(k=3, raw=[1, [2]])
@example(k=3, raw=[1, 0, 4])
@example(k=3, raw=[MISSING, 2, 3, -2])
@settings(max_examples=300, deadline=None)
def test_validation_matches_reference(k, raw):
    error, message = validation_reference(raw, k)
    if error is None:
        series = CatSeries(StateSpace.from_k(k), raw)
        assert series.obs.tolist() == raw
        assert series.obs.dtype == np.int64 and not series.obs.flags.writeable
        return
    with pytest.raises(DarcatError) as info:
        CatSeries(StateSpace.from_k(k), raw)
    assert type(info.value) is error
    assert str(info.value) == message


def test_series_does_not_share_the_callers_array():
    codes = np.array([1, 2, 2])
    series = CatSeries(StateSpace.from_k(2), codes)
    codes[0] = 2
    assert series.obs.tolist() == [1, 2, 2]
    with pytest.raises(ValueError):
        series.obs[0] = 2


def test_model_does_not_share_the_callers_array():
    pi = np.array([0.25, 0.75])
    model = DarModel.from_pi(0.5, pi)
    assert model.pi is not pi and pi.flags.writeable
    pi[0] = 0.75
    assert model.pi.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        model.pi[0] = 0.75


@given(series=gapped_series())
@with_edge_cases
@settings(max_examples=200, deadline=None)
def test_drop_missing_matches_reference(series):
    stamps = series.time_labels or tuple(str(i) for i in range(len(series)))
    expected = drop_missing_reference(series.obs.tolist(), stamps)
    if expected is None:
        with pytest.raises(TooShort):
            series.drop_missing()
        return
    dropped = series.drop_missing()
    assert dropped.obs.tolist() == expected[0]
    implicit = tuple(str(i) for i in range(len(expected[0])))
    assert dropped.time_labels == (None if expected[1] == implicit else expected[1])
    assert dropped.space == series.space
    assert dropped.obs.dtype == np.int64


@given(series=gapped_series())
@with_edge_cases
@settings(max_examples=200, deadline=None)
def test_restrict_to_observed_matches_reference(series):
    try:
        expected, note = restrict_reference(series)
    except DarcatError as exc:
        with pytest.raises(DarcatError) as info:
            series.restrict_to_observed()
        assert str(info.value) == str(exc)
        return
    sub, gone = series.restrict_to_observed()
    assert sub == expected
    assert bool(gone) == (note is not None)
    # the test series' notes: the policy's, then the projection's (dropping missing values keeps the counts)
    assert _test_series(series, "drop")[1][1:] == ([] if note is None else [note])
    assert (sub is series) == (note is None)


@given(series=gapped_series())
@with_edge_cases
@example(series=CatSeries(StateSpace.from_k(3), (1, 2)))
@settings(max_examples=200, deadline=None)
def test_build_design_matches_reference(series):
    for lag in (0, 1, 2):
        expected = design_reference(series, lag) if len(series) > lag else None
        if expected is None:
            with pytest.raises(NoUsableRows):
                build_design(series, lag)
            continue
        design = build_design(series, lag)
        for got, want in zip((design.X, design.y, design.column_names, design.t_index), expected):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            else:
                assert got == want


@given(series=gapped_series())
@with_edge_cases
@settings(max_examples=200, deadline=None)
def test_collapse_categories_matches_reference(series):
    """The count matrix keeps a column per response of the row view, counting its collapsed codes."""
    for lag in (0, 1, 2):
        try:
            design = build_design(series, lag)
        except NoUsableRows:
            continue
        want_y, want_present, want_notes = collapse_reference(design.y, series.space.k)
        if len(want_present) < 2:
            with pytest.raises(DarcatError, match="^response takes fewer than 2 distinct values$"):
                _prepare(design)
            continue
        _, counts, got_present, _, got_notes = _prepare(design)
        assert np.array_equal(counts.sum(axis=0), np.bincount(want_y - 1))
        assert got_present == want_present and all(type(c) is int for c in got_present)
        assert got_notes[: len(want_notes)] == want_notes and not any("collapsed" in n for n in got_notes[len(want_notes) :])
