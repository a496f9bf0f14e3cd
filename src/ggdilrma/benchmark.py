"""Seeded property suite: descent audits, majorizer checks, end-to-end runs.

Exercises the separation stack the way the acceptance tests do, at a
scale suitable for a quick command-line health check.  Every trial is
deterministic under the suite seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import pipeline
from .cost import audit_descent
from .demix_homogeneous import quartic_majorizer
from .mixsim import MixingSpec, mix, synth_source
from .types import GgdConfig, MixtureSpectrogram
from .workflows import evaluate_separation, separate_audio

DESCENT_BETAS = (1.0, 1.99, 2.0, 4.0)

#: Mixing system used by the synthetic end-to-end trials.
E2E_MATRIX = np.array([[1.0, 0.6], [0.5, 1.0]])


def random_mixture(I: int, J: int, M: int, seed: int) -> MixtureSpectrogram:
    """Random complex-Gaussian spectrogram with consistent metadata."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((I, J, M)) + 1j * rng.standard_normal((I, J, M))
    return MixtureSpectrogram(
        data=data, sample_rate=16000, frame_len=2 * (I - 1), hop_len=max(I - 1, 1)
    )


def descent_trial(beta: float, seed: int, iterations: int = 50) -> np.ndarray:
    """Cost trajectory of one random-instance run (for descent auditing)."""
    x = random_mixture(8, 32, 2, seed)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=2, iterations=iterations, seed=seed)
    result = pipeline.run(x, cfg)
    return result.trace.costs()


def _quartic_cost(x: np.ndarray, r: np.ndarray, w: np.ndarray) -> float:
    """One bin's quartic cost ``(1/J) sum_j |w^H x_j|^4 / r_j^4``."""
    return float(np.sum(np.abs((x @ w.conj()) / r) ** 4)) / x.shape[0]


def majorizer_trial(seed: int, n_draws: int = 1000) -> tuple[float, float]:
    """Monte-Carlo margins for the quartic surrogate bound.

    Each draw is a one-bin problem given to the batched
    :func:`quartic_majorizer` that the quartic sweep runs.  Returns
    ``(worst_gap, worst_equality)``: the most negative value of
    ``g(w) - f(w)`` over random draws (should be >= -1e-10) and the
    largest relative mismatch of ``g`` and ``f`` at the anchor (should be
    ~0).
    """
    rng = np.random.default_rng(seed)
    worst_gap = np.inf
    worst_eq = 0.0
    for _ in range(n_draws):
        N = int(rng.integers(1, 5))
        J = int(rng.choice([1, 2, 5, 50]))
        x = rng.standard_normal((J, N)) + 1j * rng.standard_normal((J, N))
        r = rng.uniform(0.5, 2.0, size=J)
        w_ref = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        w_ref /= np.linalg.norm(w_ref)
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        w /= np.linalg.norm(w)
        G, _ = quartic_majorizer(x[None], (x @ w_ref.conj())[None], r[None])
        g_at = float((w.conj() @ G[0] @ w).real) ** 2
        worst_gap = min(worst_gap, g_at - _quartic_cost(x, r, w))
        g_ref = float((w_ref.conj() @ G[0] @ w_ref).real) ** 2
        f_ref = _quartic_cost(x, r, w_ref)
        worst_eq = max(worst_eq, abs(g_ref - f_ref) / max(1.0, f_ref))
    return float(worst_gap), float(worst_eq)


def make_test_scene(seed: int, duration_s: float, sample_rate: int = 16000):
    """Two distinct synthetic sources plus their 2x2 instantaneous mixture."""
    length = int(round(duration_s * sample_rate))
    sources = [
        synth_source("low_rank_tonal", length, seed=2 * seed + 1),
        synth_source("subgaussian", length, seed=2 * seed + 2),
    ]
    mixture = mix(sources, MixingSpec(mode="instantaneous", matrix=E2E_MATRIX))
    return sources, mixture


def e2e_trial(
    seed: int,
    beta: float,
    duration_s: float = 3.0,
    iterations: int = 120,
    sample_rate: int = 16000,
    win_ms: float = 128.0,
    hop_ms: float = 64.0,
) -> List[float]:
    """Separate one synthetic mixture; per-source SI-SDR improvements."""
    sources, mixture = make_test_scene(seed, duration_s, sample_rate)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=2, iterations=iterations, seed=seed)
    estimates, _ = separate_audio(mixture, sample_rate, cfg, win_ms, hop_ms)
    rows = evaluate_separation(
        [estimates[:, n] for n in range(estimates.shape[1])], sources, mixture[:, 0]
    )
    return [row.sdr_improvement_db for row in rows]


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    checks: List[SuiteCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(SuiteCheck(name=name, passed=passed, detail=detail))


def run_suite(
    trials: int = 10,
    seed: int = 0,
    inject_fault: bool = False,
    e2e_duration_s: float = 3.0,
    e2e_iterations: int = 120,
    e2e_threshold_db: float = 3.0,
    log=print,
) -> SuiteReport:
    """Run the full property suite and report pass/fail per section."""
    report = SuiteReport()

    for beta in DESCENT_BETAS:
        t0 = time.perf_counter()
        violations = 0
        for trial in range(trials):
            costs = descent_trial(beta, seed=seed + trial)
            if inject_fault and beta == DESCENT_BETAS[0] and trial == 0:
                # Test hook: corrupt one recorded cost so the audit must fire.
                costs = costs.copy()
                costs[len(costs) // 2] += 1.0
            violations += len(audit_descent(costs).violations)
        ok = violations == 0
        report.add(
            f"descent beta={beta}",
            ok,
            f"{violations} cost increases over {trials} trials "
            f"({time.perf_counter() - t0:.1f} s)",
        )

    t0 = time.perf_counter()
    worst_gap, worst_eq = np.inf, 0.0
    for trial in range(trials):
        gap, eq = majorizer_trial(seed=seed + trial, n_draws=1000)
        worst_gap = min(worst_gap, gap)
        worst_eq = max(worst_eq, eq)
    ok = worst_gap >= -1e-10 and worst_eq <= 1e-10
    report.add(
        "quartic majorizer bound",
        ok,
        f"min(g-f)={worst_gap:.2e}, max anchor mismatch={worst_eq:.2e} "
        f"({time.perf_counter() - t0:.1f} s)",
    )

    t0 = time.perf_counter()
    means = {}
    for beta in (2.0, 4.0):
        gains = np.array(
            [
                e2e_trial(
                    seed=seed + trial,
                    beta=beta,
                    duration_s=e2e_duration_s,
                    iterations=e2e_iterations,
                )
                for trial in range(trials)
            ]
        )
        means[beta] = gains.mean(axis=0)
    ok = bool(np.all(means[4.0] > e2e_threshold_db)) and bool(
        np.all(means[4.0] >= means[2.0].min() - 1.0)
    )
    report.add(
        "end-to-end separation",
        ok,
        f"mean gain beta=4: {np.round(means[4.0], 2)} dB, "
        f"beta=2: {np.round(means[2.0], 2)} dB over {trials} trials "
        f"({time.perf_counter() - t0:.1f} s)",
    )

    for check in report.checks:
        log(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    return report
