"""Seeded property suite: descent audits, majorizer checks, end-to-end runs.

Exercises the separation stack the way the acceptance tests do, at a
scale suitable for a quick command-line health check.  The suite runs
only at the settings below; trial ``t`` of every section uses seed ``t``,
so each run is deterministic.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from . import pipeline
from .cost import audit_descent
from .demix_homogeneous import mixture_gram, quartic_majorizer
from .mixsim import MixingSpec, mix, synth_source
from .types import GgdConfig, MixtureSpectrogram
from .workflows import evaluate_separation, separate_audio

DESCENT_BETAS = (1.0, 1.99, 2.0, 4.0)

#: Trials per section; their seeds are ``0 .. TRIALS - 1``.
TRIALS = 10

#: Length (s), iterations, NMF rank per source and domain parameter of
#: every end-to-end run.
E2E_DURATION_S = 3.0
E2E_ITERATIONS = 120
E2E_BASES = 2
E2E_DOMAIN = 0.5

#: Random one-bin problems per majorizer trial.
MAJORIZER_DRAWS = 1000

#: Sampling rate of every synthetic trial.
SAMPLE_RATE = 16000

#: Mixing system used by the synthetic end-to-end trials.
E2E_MATRIX = np.array([[1.0, 0.6], [0.5, 1.0]])

#: Mean SI-SDR gain (dB) that every beta = 4 source must exceed end to end.
E2E_MIN_GAIN_DB = 3.0


def random_mixture(I: int, J: int, M: int, seed: int) -> MixtureSpectrogram:
    """Random complex-Gaussian spectrogram with consistent metadata."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((I, J, M)) + 1j * rng.standard_normal((I, J, M))
    return MixtureSpectrogram(
        data=data, sample_rate=SAMPLE_RATE, frame_len=2 * (I - 1), hop_len=max(I - 1, 1)
    )


def descent_trial(beta: float, seed: int) -> np.ndarray:
    """Cost trajectory of one 50-iteration random-instance run (for descent auditing)."""
    x = random_mixture(8, 32, 2, seed)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=2, iterations=50, seed=seed)
    result = pipeline.run(x, cfg)
    return result.trace.costs()


def _quartic_cost(x: np.ndarray, r: np.ndarray, w: np.ndarray) -> float:
    """One bin's quartic cost ``(1/J) sum_j |w^H x_j|^4 / r_j^4``."""
    return float(np.sum(np.abs((x @ w.conj()) / r) ** 4)) / x.shape[0]


def _unit_vector(rng, N: int) -> np.ndarray:
    """A random complex vector of length ``N`` over its Euclidean norm."""
    w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return w / np.sqrt(w.real @ w.real + w.imag @ w.imag)


def majorizer_trial(seed: int) -> tuple[float, float]:
    """Monte-Carlo margins for the quartic surrogate bound.

    Each of ``MAJORIZER_DRAWS`` draws is a one-bin problem of one to four
    channels, with one anchor row, given to :func:`quartic_majorizer`: the
    assembly whose ``G`` the quartic sweep factors, at ``p = 1`` so that the
    scale field is ``r`` itself.  Returns ``(worst_gap, worst_equality)``: the
    most negative value of ``g(w) - f(w)`` over random draws (should be
    >= -1e-10) and the largest relative mismatch of ``g`` and ``f`` at the
    anchor (should be ~0).
    """
    rng = np.random.default_rng(seed)
    worst_gap = np.inf
    worst_eq = 0.0
    for _ in range(MAJORIZER_DRAWS):
        N = int(rng.integers(1, 5))
        J = int(rng.choice([1, 2, 5, 50]))
        x = rng.standard_normal((J, N)) + 1j * rng.standard_normal((J, N))
        r = rng.uniform(0.5, 2.0, size=J)
        w_ref, w = _unit_vector(rng, N), _unit_vector(rng, N)
        yd = (x @ w_ref.conj())[None, :, None]  # one bin, one row
        G = quartic_majorizer(
            mixture_gram(x[None]), yd, w_ref.conj()[None, None], r[None, None], 1.0,
            np.empty((1, 1, J)),
        )[0][0, 0]
        g_at = float((w.conj() @ G @ w).real) ** 2
        worst_gap = min(worst_gap, g_at - _quartic_cost(x, r, w))
        g_ref = float((w_ref.conj() @ G @ w_ref).real) ** 2
        f_ref = _quartic_cost(x, r, w_ref)
        worst_eq = max(worst_eq, abs(g_ref - f_ref) / max(1.0, f_ref))
    return float(worst_gap), float(worst_eq)


def make_test_scene(seed: int, duration_s: float):
    """Two distinct synthetic sources plus their 2x2 instantaneous mixture."""
    length = int(round(duration_s * SAMPLE_RATE))
    sources = [
        synth_source("low_rank_tonal", length, seed=2 * seed + 1),
        synth_source("subgaussian", length, seed=2 * seed + 2),
    ]
    mixture = mix(sources, MixingSpec(mode="instantaneous", matrix=E2E_MATRIX))
    return sources, mixture


def e2e_trial(seed: int, beta: float) -> List[float]:
    """Separate one synthetic mixture; per-source SI-SDR improvements.

    The mixture is framed with the default window and hop of
    :func:`separate_audio`."""
    sources, mixture = make_test_scene(seed, E2E_DURATION_S)
    cfg = GgdConfig(
        beta=beta, domain=E2E_DOMAIN, n_bases=E2E_BASES, iterations=E2E_ITERATIONS, seed=seed
    )
    estimates, _ = separate_audio(mixture, SAMPLE_RATE, cfg)
    rows = evaluate_separation(
        [estimates[:, n] for n in range(estimates.shape[1])], sources, mixture[:, 0]
    )
    return [row.sdr_improvement_db for row in rows]


def run_suite() -> List[tuple[str, bool, str]]:
    """Run the full property suite; one ``(name, passed, detail)`` row per section."""
    rows = []

    for beta in DESCENT_BETAS:
        t0 = time.perf_counter()
        violations = 0
        for trial in range(TRIALS):
            violations += len(audit_descent(descent_trial(beta, seed=trial)))
        rows.append((
            f"descent beta={beta}",
            violations == 0,
            f"{violations} cost increases over {TRIALS} trials "
            f"({time.perf_counter() - t0:.1f} s)",
        ))

    t0 = time.perf_counter()
    worst_gap, worst_eq = np.inf, 0.0
    for trial in range(TRIALS):
        gap, eq = majorizer_trial(seed=trial)
        worst_gap = min(worst_gap, gap)
        worst_eq = max(worst_eq, eq)
    rows.append((
        "quartic majorizer bound",
        worst_gap >= -1e-10 and worst_eq <= 1e-10,
        f"min(g-f)={worst_gap:.2e}, max anchor mismatch={worst_eq:.2e} "
        f"({time.perf_counter() - t0:.1f} s)",
    ))

    t0 = time.perf_counter()
    means = {}
    for beta in (2.0, 4.0):
        means[beta] = np.mean([e2e_trial(t, beta) for t in range(TRIALS)], axis=0)
    ok = bool(np.all(means[4.0] > E2E_MIN_GAIN_DB)) and bool(
        np.all(means[4.0] >= means[2.0].min() - 1.0)
    )
    rows.append((
        "end-to-end separation",
        ok,
        f"mean gain beta=4: {np.round(means[4.0], 2)} dB, "
        f"beta=2: {np.round(means[2.0], 2)} dB over {TRIALS} trials "
        f"({time.perf_counter() - t0:.1f} s)",
    ))
    return rows
