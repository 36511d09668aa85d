"""A wrong output must count as a failed operation and raise failed_frac."""

import json

import numpy as np
import pytest
from darcat import cli, montecarlo

import worker
import workloads


def field_pass(tmp_path, seed, n_ops=6):
    wl = workloads.Field(seed, tmp_path)
    ops = workloads.Field.ops(wl)[1::17][:n_ops]  # complete and gapped series of every size
    wl.ops = lambda: ops
    passes = worker.run_passes(wl, 0.0)
    return sum(len(p["errors"]) for p in passes) / sum(len(p["latencies"]) for p in passes), passes


def test_field_clean_pass_has_no_failures(tmp_path):
    frac, passes = field_pass(tmp_path, workloads.REFERENCE_SEED)
    assert frac == 0.0, passes[0]["errors"]


@pytest.mark.parametrize("seed", [workloads.REFERENCE_SEED, 11])
def test_injected_wrong_pi_raises_failed_frac(tmp_path, monkeypatch, seed):
    real = cli.estimate_pi

    def skewed(series):
        est = real(series)
        pi = np.roll(est.pi_hat, 1)
        return type(est)(pi_hat=pi, n_obs=est.n_obs, counts=est.counts)

    monkeypatch.setattr(cli, "estimate_pi", skewed)
    frac, _ = field_pass(tmp_path, seed)
    assert frac > 0.5


def test_injected_wrong_alpha_fails_against_reference(tmp_path, monkeypatch):
    real = cli.estimate_alpha_mle_gapped

    def shifted(series):
        est = real(series)
        return type(est)(est.alpha_hat * 0.9, est.method, est.converged, est.iterations)

    monkeypatch.setattr(cli, "estimate_alpha_mle_gapped", shifted)
    frac, passes = field_pass(tmp_path, workloads.REFERENCE_SEED)
    assert frac > 0.0
    assert any("alpha1" in e for p in passes for e in p["errors"])


def reference_cells(m1_delta=0):
    """CellResults that print exactly the reference tables of the study workload."""
    ref = json.loads((workloads.REFERENCE_DIR / "study.json").read_text())["tables"]
    grid = montecarlo.study_grid(m=workloads.STUDY_M)
    cells = []
    for pi, rows in zip(grid.pis, ref):
        for alpha, n, pis, a1, m1, a2, m2 in rows:
            cells.append(montecarlo.CellResult(pi, alpha, n, grid.m, tuple(pis), a1, m1 + m1_delta, a2, m2))
    return tuple(cells)


@pytest.mark.parametrize("delta, failed", [(0, 0), (-1, 1)])
def test_study_check_compares_tables_with_reference(tmp_path, monkeypatch, delta, failed):
    monkeypatch.setattr(montecarlo, "run_grid", lambda grid: reference_cells(delta))
    wl = workloads.Study(workloads.REFERENCE_SEED, tmp_path)
    passes = worker.run_passes(wl, 0.0)
    assert len(passes[0]["errors"]) == failed, passes[0]["errors"]


def test_long_check_catches_wrong_estimate(tmp_path, monkeypatch):
    real = cli.estimate_alpha_ls

    def shifted(series, pi_hat):
        est = real(series, pi_hat)
        return type(est)(est.alpha_hat - 0.05, est.method, est.converged, est.iterations)

    monkeypatch.setattr(cli, "estimate_alpha_ls", shifted)
    wl = workloads.Long(5, tmp_path, n=200_000)
    passes = worker.run_passes(wl, 0.0)
    assert len(passes[0]["errors"]) == 2
    assert all("alpha2" in e for e in passes[0]["errors"])


def test_fit_dar_range_check_accepts_estimates_printed_at_the_boundary():
    row = dict.fromkeys(workloads.FIT_DAR_FIELDS, "NA")
    row.update(alpha1="0.400000", alpha1_converged="1", alpha2="-0.000000", alpha2_converged="0", longest_reject="0")
    assert workloads.check_fit_dar_ranges(row) is None
    row.update(alpha2="0.500000", alpha2_converged="0")
    assert "alpha2" in workloads.check_fit_dar_ranges(row)


def test_single_category_series_without_any_fit_passes(tmp_path):
    # at seed 208 this short, gapped, persistent series shows one category only
    wl = workloads.Field(208, tmp_path)
    s = wl.by_name["n50_k3_b30_s4"]
    assert len({c for c in s.codes if c > 0}) == 1
    assert wl.check(s.name, wl._op(s)) is None
