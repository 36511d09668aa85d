import subprocess
import sys

import numpy as np

import inputs


def test_field_series_deterministic_per_seed():
    a = [s.csv() for s in inputs.field_series(7)]
    b = [s.csv() for s in inputs.field_series(7)]
    c = [s.csv() for s in inputs.field_series(8)]
    assert a == b
    assert a != c
    assert len(a) >= 100  # at least ten samples beyond the 90th percentile per pass
    assert inputs.long_seeds(7) == inputs.long_seeds(7) != inputs.long_seeds(8)


def test_field_mix_covers_sizes_categories_and_missing_shares():
    series = inputs.field_series(0)
    assert {(s.n, s.k, s.beta) for s in series} == {
        (n, k, b) for n in inputs.FIELD_NS for k in inputs.FIELD_LABELS for b in inputs.FIELD_BETAS
    }
    for s in series:
        lines = s.csv().splitlines()
        assert lines[0] == "t,value" and len(lines) == s.n + 2
        assert {ln.split(",")[1] for ln in lines[1:]} <= set(s.labels) | {"NA"}
        assert (s.beta == 0) == ("NA" not in s.csv())


def test_generator_does_not_use_darcat():
    code = (
        "import sys, inputs; inputs.field_series(3); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'darcat'], 'darcat imported'"
    )
    subprocess.run([sys.executable, "-c", code], cwd=inputs.__file__.rsplit("/", 1)[0], check=True)


def test_generator_is_a_dar1_chain():
    rng = np.random.default_rng(1)
    pi = np.array([0.2, 0.3, 0.5])
    alpha = 0.6
    x = inputs.dar_path(rng, alpha, pi, 400_000)
    freq = np.bincount(x - 1, minlength=3) / x.size
    same = np.mean(x[1:] == x[:-1])
    assert np.allclose(freq, pi, atol=0.01)
    assert abs(same - (alpha + (1 - alpha) * np.sum(pi**2))) < 0.005
