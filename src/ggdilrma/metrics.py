"""Separation quality metrics: scale-invariant SDR and alignment.

The scale-invariant SDR projects the estimate onto the reference and
compares target and residual energies::

    alpha = <est, ref> / ||ref||^2
    si_sdr = 10 log10( ||alpha ref||^2 / ||est - alpha ref||^2 )

clamped to [-80, +80] dB: +80 once the residual drops to 1e-8 of the
target energy, -80 once the target drops to 1e-8 of the residual (a zero
estimate, one orthogonal to the reference, or one with NaN/Inf samples).
Output ordering of blind separation is arbitrary, so estimates are matched
to references by the permutation maximizing the total SI-SDR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence, Tuple

import numpy as np

from .errors import LengthMismatch, TooManySources, ZeroReference

#: Bound on |SI-SDR|, reached when one energy is <= 1e-8 of the other.
SDR_CAP_DB = 80.0
_CAP_RATIO = 1e-8

#: Exhaustive permutation search is limited to this many sources.
MAX_ALIGN_SOURCES = 6


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB."""
    est = np.asarray(estimate, dtype=np.float64).ravel()
    ref = np.asarray(reference, dtype=np.float64).ravel()
    if est.shape != ref.shape or est.size == 0:
        raise LengthMismatch(f"estimate ({est.size}) vs reference ({ref.size})")
    ref_energy = float(ref @ ref)
    if ref_energy == 0.0:
        raise ZeroReference("reference signal is identically zero")
    alpha = float(est @ ref) / ref_energy
    target = alpha * ref
    signal = float(target @ target)
    residual = est - target
    noise = float(residual @ residual)
    if not signal > _CAP_RATIO * noise:  # zero, orthogonal or non-finite estimate
        return -SDR_CAP_DB
    if noise <= _CAP_RATIO * signal:
        return SDR_CAP_DB
    return 10.0 * np.log10(signal / noise)


@dataclass(frozen=True)
class Alignment:
    """Best estimate-to-reference assignment.

    ``permutation[n]`` is the estimate index assigned to reference ``n``;
    ``sdr_db[n]`` is the SI-SDR of that pair.
    """

    permutation: Tuple[int, ...]
    sdr_db: Tuple[float, ...]

    @property
    def total_db(self) -> float:
        return float(sum(self.sdr_db))


def align_permutation(
    estimates: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> Alignment:
    """Exhaustively match estimates to references by total SI-SDR."""
    N = len(references)
    if len(estimates) != N:
        raise LengthMismatch(f"{len(estimates)} estimates vs {N} references")
    if N > MAX_ALIGN_SOURCES:
        raise TooManySources(f"exhaustive alignment supports at most {MAX_ALIGN_SOURCES}")
    pairwise = np.array([[si_sdr(est, ref) for est in estimates] for ref in references])
    # The first of equally good permutations wins.
    perm = max(permutations(range(N)), key=lambda p: sum(pairwise[n, p[n]] for n in range(N)))
    return Alignment(permutation=perm, sdr_db=tuple(pairwise[n, perm[n]] for n in range(N)))
