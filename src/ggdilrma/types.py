"""Shared tensor containers, index conventions, and problem validation.

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


def _replace_row(W, W_inv, log_det, n, h, where=True) -> None:
    """Set row ``n`` of each ``W_i`` ``(b, N, N)`` to ``h_i`` ``(b, N)`` where ``where``
    holds, and keep ``W_inv`` (``W^{-1}``) and ``log_det`` (``log|det W_i|``) in step;
    all three are updated in place, and the other bins are left untouched.

    The new row multiplies ``det W_i`` by ``d = h W_i^{-1} e_n``, which the caller
    has checked is nonzero, and ``W_i^{-1}`` takes the Sherman-Morrison update
    ``W^{-1} - W^{-1} e_n (h W^{-1} - e_n^T) / d``: O(N^2) per bin, no solve.
    The update runs on ``(N, N, b)`` views, so with ``W_inv`` laid out bins last,
    as :func:`~ggdilrma.pipeline.initialize` lays it out, every operation's
    inner loop runs over the bins; any layout gives the same numbers."""
    inv_t = W_inv.transpose(1, 2, 0)
    g = np.sum(h.T[:, None, :] * inv_t, axis=0)  # h W^-1 (N, b); its row n is d
    d = np.where(where, g[n], 1.0)
    g[n] -= 1.0
    g /= d
    np.subtract(inv_t, inv_t[:, n, None, :] * g, out=inv_t, where=where)
    np.add(log_det, np.log(np.abs(d)), out=log_det, where=where)
    np.copyto(W[:, n].T, h.T, where=where)


def _substitute(R: np.ndarray, c: np.ndarray):
    """``(w, z)`` ``(b, M)`` with ``R^H z = c`` and ``R w = z``, by substitution, for a
    block of upper triangular ``R`` ``(b, M, M)`` with a positive real diagonal: ``w``
    solves ``R^H R w = c``, and ``w^H R^H R w = ||z||^2``."""
    r = R.diagonal(axis1=1, axis2=2).real
    M = c.shape[1]
    z = c.copy()
    for k in range(M):  # R^H z = c
        if k:
            z[:, k] -= np.vecdot(R[:, :k, k], z[:, :k])
        z[:, k] /= r[:, k]
    w = z.copy()
    for k in reversed(range(M)):  # R w = z
        if k < M - 1:
            w[:, k] -= np.sum(R[:, k, k + 1 :] * w[:, k + 1 :], axis=1)
        w[:, k] /= r[:, k]
    return w, z


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
class ProblemShape:
    """Checked dimensions of a separation problem."""

    n_bins: int
    n_frames: int
    n_sources: int
    n_bases: int


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


def _raise_violations(violations: list[tuple[type, str]]) -> None:
    """Raise the first violation's error with a message listing all of them."""
    if violations:
        err_cls = violations[0][0]
        raise err_cls("; ".join(msg for _, msg in violations))


def validate_problem(x: MixtureSpectrogram, cfg: GgdConfig) -> ProblemShape:
    """Check every invariant of a separation problem.

    Returns the checked ``(I, J, N, K)`` descriptor with ``N = M``
    (determined case), or raises the error for the first violated
    invariant (mixture first, then configuration) with a message listing
    all violations.  A usable problem whose mixture is zero everywhere raises
    :class:`~ggdilrma.errors.SilentMixture`, at every ``beta``.
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

    I, J, M = x.data.shape
    return ProblemShape(n_bins=I, n_frames=J, n_sources=M, n_bases=cfg.n_bases)
