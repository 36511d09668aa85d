"""Seeded inputs for the benchmark workloads, made with numpy only.

The field series come from this module's own DAR(1) generator, not from
``darcat.simulate``, so a change to the program cannot change the data it
is measured on.  Importing this module must never import ``darcat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_NS = (50, 100, 500)
FIELD_BETAS = (0.0, 0.1, 0.3)
FIELD_LABELS = {
    3: ("low", "mid", "high"),
    5: ("never", "rarely", "sometimes", "often", "always"),
}
FIELD_SITES = 6  # per (n, k, beta) combination: 3 * 2 * 3 * 6 = 108 series per pass
SITE_PARAMS_SEED = 20070702

# Long records: (k, alpha, pi).  The marginal is fixed; the simulate seed
# comes from the workload seed.
LONG_N = 1_000_000
LONG_RECORDS = (
    (3, 0.5, (0.2, 0.3, 0.5)),
    (10, 0.9, tuple(j / 55 for j in range(1, 11))),
)


def dar_path(rng: np.random.Generator, alpha: float, pi: np.ndarray, n: int) -> np.ndarray:
    """Codes 1..k for X_0..X_n of a DAR(1) chain with persistence alpha and marginal pi."""
    k = pi.size
    draws = rng.choice(k, size=n + 1, p=pi) + 1
    refresh = rng.random(n + 1) >= alpha
    refresh[0] = True
    # each X_t repeats the draw made at its most recent refresh time
    last = np.maximum.accumulate(np.where(refresh, np.arange(n + 1), 0))
    return draws[last]


@dataclass(frozen=True)
class FieldSeries:
    name: str
    n: int
    k: int
    beta: float
    alpha: float
    pi: tuple[float, ...]
    codes: tuple[int, ...]  # 1..k, or -1 for a missing value

    @property
    def labels(self) -> tuple[str, ...]:
        return FIELD_LABELS[self.k]

    def csv(self) -> str:
        cells = ["NA" if c < 0 else self.labels[c - 1] for c in self.codes]
        return "t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(cells))


def field_series(seed: int) -> list[FieldSeries]:
    """The per-site survey series of the ``field`` workload, in a fixed order.

    Each site's (alpha, pi) is the same on every seed; the seed draws the
    paths and the missing values.  Work per pass then varies less from
    seed to seed, so run-to-run spread reflects the program more than the data.
    """
    params = np.random.default_rng(SITE_PARAMS_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for n in FIELD_NS:
        for k in sorted(FIELD_LABELS):
            for beta in FIELD_BETAS:
                for site in range(FIELD_SITES):
                    alpha = float(params.uniform(0.1, 0.9))
                    # keep every category reasonably likely: pi_j >= 0.5 / k
                    pi = 0.5 * params.dirichlet(np.full(k, 2.0)) + 0.5 / k
                    codes = dar_path(rng, alpha, pi, n)
                    if beta > 0:
                        codes = np.where(rng.random(n + 1) < beta, -1, codes)
                    out.append(
                        FieldSeries(
                            name=f"n{n}_k{k}_b{round(beta * 100):02d}_s{site}",
                            n=n,
                            k=k,
                            beta=beta,
                            alpha=alpha,
                            pi=tuple(float(p) for p in pi),
                            codes=tuple(int(c) for c in codes),
                        )
                    )
    return out


def long_seeds(seed: int) -> list[int]:
    """One ``darcat simulate --seed`` value per long record."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(len(LONG_RECORDS), dtype=np.uint32)]


def pi_arg(pi: tuple[float, ...]) -> str:
    return ",".join(repr(p) for p in pi)
