"""Property tests of the counting kernels against brute-force loops.

The references below are the straightforward per-observation scans; the
kernels in ``darcat.core`` must agree with them exactly on every input.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcat import cli, core
from darcat.core import MISSING, CatSeries, StateSpace, TooShort, path_counts
from darcat.independence import runs_summary


def observed_pairs_reference(obs):
    """Consecutive observed pairs ``(x, y, h)`` where h >= 1 is the time gap."""
    pairs = []
    prev_idx = None
    for i, v in enumerate(obs):
        if v == MISSING:
            continue
        if prev_idx is not None:
            pairs.append((obs[prev_idx], v, i - prev_idx))
        prev_idx = i
    return pairs


def runs_reference(obs):
    """Maximal-run counts ``(by_state_and_length, by_state, total, longest)``."""
    by_sl, by_state = {}, {}
    total = longest = start = 0
    for i in range(1, len(obs) + 1):
        if i == len(obs) or obs[i] != obs[start]:
            length, state = i - start, obs[start]
            by_sl[(state, length)] = by_sl.get((state, length), 0) + 1
            by_state[state] = by_state.get(state, 0) + 1
            total += 1
            longest = max(longest, length)
            start = i
    return by_sl, by_state, total, longest


def longest_segment_reference(obs):
    """``(start, length)`` of the longest complete run, ties to the earliest."""
    best_start, best_len, start = 0, 0, None
    for i, v in enumerate(tuple(obs) + (MISSING,)):
        if v != MISSING:
            if start is None:
                start = i
        elif start is not None:
            if i - start > best_len:
                best_start, best_len = start, i - start
            start = None
    return best_start, best_len


@st.composite
def gapped_series(draw, missing=True):
    """Series with k in 2..20, possibly one category only, and any missing share."""
    k = draw(st.integers(2, 20))
    used = draw(st.integers(1, k))
    values = draw(st.lists(st.integers(1, used), min_size=2, max_size=80))
    if missing:
        share = draw(st.floats(0.0, 1.0))
        u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=len(values), max_size=len(values)))
        values = [MISSING if ui < share else v for ui, v in zip(u, values)]
    return CatSeries(StateSpace.from_k(k), tuple(values))


EDGE_CASES = [
    CatSeries(StateSpace.from_k(3), (MISSING, MISSING, MISSING)),
    CatSeries(StateSpace.from_k(3), (MISSING, 2, MISSING)),
    CatSeries(StateSpace.from_k(20), (MISSING, MISSING, 20, MISSING, 1, 1, MISSING)),
    CatSeries(StateSpace.from_k(2), (1, 1, 1, 1)),
    CatSeries(StateSpace.from_k(4), (MISSING, 3, 3, MISSING, 3, MISSING, MISSING, 3)),
]


def with_edge_cases(test):
    for s in EDGE_CASES:
        test = example(series=s)(test)
    return test


@given(series=gapped_series())
@with_edge_cases
@settings(max_examples=200, deadline=None)
def test_pair_counts_matches_reference(series):
    gaps, table = series.pairs
    k = series.space.k
    pairs = observed_pairs_reference(series.obs)
    assert gaps.tolist() == sorted({h for _, _, h in pairs})
    assert table.shape == (len(gaps), k, k)
    expected = np.zeros_like(table)
    for x, y, h in pairs:
        expected[gaps.tolist().index(h), x - 1, y - 1] += 1
    assert np.array_equal(table, expected)


@given(series=gapped_series(missing=False))
@example(series=CatSeries(StateSpace.from_k(2), (2, 2)))
@example(series=CatSeries(StateSpace.from_k(20), tuple(range(1, 21))))
@settings(max_examples=200, deadline=None)
def test_runs_summary_matches_reference(series):
    summary = runs_summary(series)
    by_sl, by_state, total, longest = runs_reference(series.obs)
    values, starts, lengths = series.runs
    assert Counter(zip(values.tolist(), lengths.tolist())) == by_sl
    assert values.size == total and lengths.max() == longest
    assert np.array_equal(starts, np.cumsum(lengths) - lengths)
    assert summary.by_state_and_length == by_sl
    assert summary.by_state == by_state
    assert summary.total == total
    assert summary.longest == longest
    assert summary.n_scanned == len(series)
    assert all(type(j) is int and type(i) is int for j, i in summary.by_state_and_length)
    assert all(type(j) is int for j in summary.by_state)


@given(series=gapped_series())
@with_edge_cases
@example(series=CatSeries(StateSpace.from_k(2), (1, 2, MISSING, 2, 1, MISSING, 1, 1, 1)))
@example(series=CatSeries(StateSpace.from_k(2), (MISSING, 1, 2, MISSING, 2, 1, MISSING)))
@settings(max_examples=200, deadline=None)
def test_longest_complete_segment_matches_reference(series):
    start, length = longest_segment_reference(series.obs)
    if length < 2:
        with pytest.raises(TooShort):
            series.longest_complete_segment()
        return
    segment = series.longest_complete_segment()
    assert np.array_equal(segment.obs, series.obs[start : start + length])
    assert segment.space == series.space


@st.composite
def path_batches(draw):
    """Rows of equal length over k in 2..20 states, some rows using one state only."""
    k = draw(st.integers(2, 20))
    length = draw(st.integers(2, 40))
    rows = draw(st.lists(st.lists(st.integers(1, k), min_size=length, max_size=length), min_size=1, max_size=6))
    return k, np.array(rows)


@given(batch=path_batches())
@example(batch=(3, np.array([[2, 2, 2], [1, 2, 3], [3, 3, 1]])))
@settings(max_examples=200, deadline=None)
def test_path_counts_matches_reference(batch):
    k, paths = batch
    states, jumps = path_counts(paths, k)
    assert states.shape == (len(paths), k) and jumps.shape == (len(paths), k, k)
    for r, row in enumerate(paths.tolist()):
        assert states[r].tolist() == [row.count(j) for j in range(1, k + 1)]
        expected = np.zeros((k, k), dtype=int)
        for x, y, _ in observed_pairs_reference(row):
            expected[x - 1, y - 1] += 1
        assert np.array_equal(jumps[r], expected)


FACTS = ("state_counts", "pairs", "runs")


def test_fit_dar_computes_each_series_fact_once(tmp_path, monkeypatch, capsys):
    computed = Counter()
    for name in FACTS:
        prop = vars(CatSeries)[name]

        def counting(series, func=prop.func, name=name):
            computed[name] += 1
            return func(series)

        monkeypatch.setattr(prop, "func", counting)
    real = core.run_lengths

    def counting_runs(values):
        computed["run_lengths of codes" if values.dtype != bool else "run_lengths of a mask"] += 1
        return real(values)

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "darcat"]:
        if vars(mod).get("run_lengths") is real:
            monkeypatch.setattr(mod, "run_lengths", counting_runs)
    cells = ["a", "b", "b", "c", "a", "a", "c", "b", "c", "c"] * 6  # complete, every category occurs
    (tmp_path / "s.csv").write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(cells)))
    (tmp_path / "states.txt").write_text("a\nb\nc\n")
    for fmt in ("csv", "txt"):
        computed.clear()
        argv = ["fit-dar", str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"), "--format", fmt]
        assert cli.main(argv) == 0
        assert "NA" not in capsys.readouterr().out  # every estimator and test ran
        assert computed == {"state_counts": 1, "pairs": 1, "runs": 1, "run_lengths of codes": 1}


@given(series=gapped_series())
@with_edge_cases
@settings(max_examples=50, deadline=None)
def test_series_facts_are_read_only_and_read_once(series):
    for name in FACTS:
        fact = getattr(series, name)
        assert getattr(series, name) is fact
        arrays = fact if isinstance(fact, tuple) else (fact,)
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[-1][...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(series, name, None)
    assert series.state_counts.tolist() == [series.obs.tolist().count(j) for j in range(1, series.space.k + 1)]
