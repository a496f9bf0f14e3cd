"""Shared tensor containers, index conventions, problem validation, and the
descent audit of a run's costs.

Index conventions used throughout the package:

* ``i`` -- frequency bin, ``0 .. I-1``,
* ``j`` -- time frame, ``0 .. J-1``,
* ``m`` -- input channel, ``0 .. M-1``,
* ``n`` -- source, ``0 .. N-1`` (determined case, ``N == M``),
* ``k`` -- NMF basis, ``0 .. K-1``.

Complex spectrogram tensors, the separated outputs inside a run among them
(:func:`~ggdilrma.pipeline.separate`), are stored ``(I, J, channels)`` in
row-major order so that a per-frequency slab ``data[i]`` is contiguous.
Demixing matrices are stored ``(I, N, N)`` where row ``n`` of ``W[i]``
holds the Hermitian transpose of the demixing filter, i.e. ``y[i, j, n] =
W[i, n, :] @ x[i, j, :]``.  NMF factors are per-source stacks: bases
``T`` shaped ``(N, I, K)`` and activations ``V`` shaped ``(N, K, J)``.

All containers are frozen dataclasses treated as immutable values after
construction; invariants are checked once per run by
:func:`validate_problem` rather than on every construction.

Every update rule in the package is expected to leave the cost
(:func:`~ggdilrma.source_model.ggd_cost_arrays`) non-increasing;
:func:`audit_descent` lists the iterations of a recorded cost sequence, such
as :meth:`ConvergenceTrace.costs`, where it rose.

The thread pool that the layers share, and the blocks they cut their work
into, live in :mod:`ggdilrma.pool`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import DegenerateShape, NonFiniteInput, SilentMixture, UnsupportedBeta

#: Numerical floors: NMF entries, |y| in denominators, and the determinant guard:
#: absolute on IP's det F, relative on the quartic det G (over prod_k G_kk).
EPS_NMF = 1e-12
EPS_Y = 1e-12
EPS_DET = 1e-12


@dataclass(frozen=True)
class MixtureSpectrogram:
    """Complex STFT tensor of an M-channel observation.

    Attributes:
        data: complex tensor shaped ``(I, J, M)``.
        sample_rate: sampling rate in Hz.
        frame_len: analysis frame length in samples (``I == frame_len//2 + 1``).
        hop_len: hop between frames in samples.
    """

    data: np.ndarray
    sample_rate: int
    frame_len: int
    hop_len: int


@dataclass(frozen=True)
class SourceSpectrogram:
    """Complex spectrogram tensor of N separated sources, shaped ``(I, J, N)``."""

    data: np.ndarray


@dataclass(frozen=True)
class GgdConfig:
    """Separation settings: source-model shape, NMF rank, and run control.

    ``beta`` is the generalized-Gaussian shape parameter.  Supported values
    are ``0 < beta <= 2`` (iterative projection) and ``beta == 4``
    (majorization-based quartic update); anything else is rejected because
    no demixing update exists for it here.  ``domain`` is the finite,
    positive exponent linking the NMF factorization to the scale parameter
    (``r**domain = sum_k t v``).
    """

    beta: float = 4.0
    domain: float = 0.5
    n_bases: int = 20
    iterations: int = 1000
    seed: int = 0

    @property
    def update_scheme(self) -> str:
        """``"ip"`` for 0 < beta <= 2, ``"quartic"`` for beta == 4."""
        return "ip" if self.beta <= 2.0 else "quartic"

    def violations(self) -> list[tuple[type, str]]:
        """Every violated setting as ``(error class, message)``, in check order."""
        found = []
        if not (0.0 < self.beta <= 2.0 or self.beta == 4.0):
            found.append(
                (UnsupportedBeta, f"beta={self.beta} unsupported; valid range is (0, 2] or exactly 4")
            )
        if not (0.0 < self.domain < np.inf):
            found.append(
                (UnsupportedBeta, f"domain parameter must be finite and > 0, got {self.domain}")
            )
        if self.n_bases < 1:
            found.append((DegenerateShape, "n_bases must be >= 1"))
        if self.iterations < 0:
            found.append((DegenerateShape, "iterations must be >= 0"))
        if self.seed < 0:
            found.append((DegenerateShape, f"seed must be >= 0, got {self.seed}"))
        return found

    def validate(self) -> None:
        _raise_violations(self.violations())


@dataclass(frozen=True)
class TraceRecord:
    """Cost and timing snapshot for one iteration."""

    iteration: int
    cost: float
    elapsed_ms: float
    skipped_updates: int = 0

    def to_json(self) -> str:
        """One trace line: ``iter``, ``cost``, ``elapsed_ms``, ``skipped_updates``."""
        return json.dumps(
            {
                "iter": self.iteration,
                "cost": self.cost,
                "elapsed_ms": self.elapsed_ms,
                "skipped_updates": self.skipped_updates,
            }
        )


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration cost values for monotonicity auditing."""

    records: List[TraceRecord] = field(default_factory=list)

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records], dtype=np.float64)


#: Relative slack used when flagging cost increases.
DESCENT_SLACK = 1e-9


def audit_descent(costs) -> list[int]:
    """Iterations (1-based) whose cost rose beyond tolerance.

    ``costs[k]`` is the cost after iteration ``k + 1``.  An iteration counts
    unless ``cost_k <= cost_{k-1} + DESCENT_SLACK * (1 + |cost_{k-1}|)``, so a
    NaN cost counts, and so does the iteration after it.
    """
    # Python floats: the bound after a -inf cost, -inf + inf, is NaN with no warning.
    costs = np.asarray(costs, dtype=np.float64).tolist()
    return [
        k + 1
        for k in range(1, len(costs))
        if not costs[k] <= costs[k - 1] + DESCENT_SLACK * (1.0 + abs(costs[k - 1]))
    ]


def _raise_violations(violations: list[tuple[type, str]]) -> None:
    """Raise the first violation's error with a message listing all of them."""
    if violations:
        err_cls = violations[0][0]
        raise err_cls("; ".join(msg for _, msg in violations))


def validate_problem(x: MixtureSpectrogram, cfg: GgdConfig) -> None:
    """Check every invariant of a separation problem.

    Returns nothing, or raises the error for the first violated invariant
    (mixture first, then configuration) with a message listing all
    violations.  The problem is determined: its ``N`` sources are the
    mixture's ``M`` channels.  A usable problem whose mixture is zero
    everywhere raises :class:`~ggdilrma.errors.SilentMixture`, at every
    ``beta``.
    """
    violations: list[tuple[type, str]] = []

    shape_ok = x.data.ndim == 3 and min(x.data.shape, default=0) >= 1
    if not shape_ok:
        violations.append(
            (DegenerateShape, f"tensor shape {x.data.shape} has an empty dimension")
        )
    if shape_ok and not np.all(np.isfinite(x.data)):
        violations.append((NonFiniteInput, "mixture contains NaN/Inf entries"))
    _raise_violations(violations + cfg.violations())
    if not np.any(x.data):
        raise SilentMixture(f"mixture of shape {x.data.shape} is zero everywhere")
