"""Minimal fermionic companion: spinor matrices and Dirac-sector lifts.

Fermion spaces are `fock.FockSpace`s built with `fermionic=True`: one
quantum per channel, every sign +1, and ladders and lifts in the
Jordan-Wigner convention with channel 0 leftmost in the tensor product, so a
creator on channel j carries the parity string of channels 0..j-1.  This
fixes every matrix uniquely and keeps anticommutators exact.  The lift is
`fock.lift_bilinear`, the same as for photons.

A fermion-number cap (`build_fermion_fock(..., max_total=N)`) keeps the
states with at most N fermions.  Every lift conserves fermion number, so the
capped space is an invariant block with no truncation edge: lifts, their
products and commutators are the full-space matrices restricted to the kept
states.  A check that multiplies only lifts, or reads states reached from the
vacuum by at most N creators, is exact there.  Ladder anticommutators are
not: a creator at the cap drops the states it would push past it.

Ladders are `fock.annihilator` and `fock.creator` on the fermionic space,
and every operator is a `fock.OperatorMatrix`.  The Dirac spin and orbital
families, Sigma/2 (x) 1 and L (x) 1_4 on ((l, m), spinor) channels, are the
`operators.FORMS` entries "dirac_sam" and "dirac_oam", lifted like every
photon family by `operators.lift_family`; their claims are the Table-I row
of `operators.CLAIMS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DEFAULT_DIM_CAP, FockSpace, build_fock
from .modes import shell_channels
from .operators import PAULI


@dataclass(frozen=True, eq=False)
class SpinorBasis:
    """The 4x4 beta, alpha_i, gamma^mu and Sigma_i matrices in block form."""

    beta: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    sigma: tuple[np.ndarray, np.ndarray, np.ndarray]


def spinor_matrices() -> SpinorBasis:
    eye2 = np.eye(2, dtype=complex)
    zero2 = np.zeros((2, 2), dtype=complex)
    beta = np.block([[eye2, zero2], [zero2, -eye2]])
    alpha = tuple(np.block([[zero2, PAULI[i]], [PAULI[i], zero2]]) for i in (1, 2, 3))
    gamma = (beta,) + tuple(beta @ a for a in alpha)
    sigma = tuple(np.block([[PAULI[i], zero2], [zero2, PAULI[i]]]) for i in (1, 2, 3))
    return SpinorBasis(beta=beta, alpha=alpha, gamma=gamma, sigma=sigma)


def build_fermion_fock(
    channels, dim_cap: int = DEFAULT_DIM_CAP, max_total: int | None = None
) -> FockSpace:
    """Fermionic space over the channels: one quantum each, 2^#channels states,
    or only those with fermion number <= max_total."""
    return build_fock(channels, 1, dim_cap=dim_cap, max_total=max_total, fermionic=True)


def spinor_orbital_channels(l_max: int) -> tuple:
    """Channels (orbital (l, m), spinor index s), ordered orbital-major."""
    return tuple((c, s) for c in shell_channels(l_max) for s in range(4))

