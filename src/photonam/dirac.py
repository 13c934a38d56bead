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

The Dirac spin and orbital families are photon forms: `operators.combined_form`
on ((l, m), spinor) channels, the spinor index in place of the polarization
index, with Sigma/2 (x) 1 and L (x) 1_4.  Their claims are the Table-I row
`operators.TABLE_I`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    _CSR,
    annihilator,
    build_fock,
    creator,
    lift_bilinear,
)
from .modes import SphericalShell, orbital_matrices, shell_channels
from .operators import combined_form

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


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
    alpha = tuple(
        np.block([[zero2, _PAULI[ax]], [_PAULI[ax], zero2]]) for ax in "xyz"
    )
    gamma = (beta,) + tuple(beta @ a for a in alpha)
    sigma = tuple(
        np.block([[_PAULI[ax], zero2], [zero2, _PAULI[ax]]]) for ax in "xyz"
    )
    return SpinorBasis(beta=beta, alpha=alpha, gamma=gamma, sigma=sigma)


def build_fermion_fock(
    channels, dim_cap: int = DEFAULT_DIM_CAP, max_total: int | None = None
) -> FockSpace:
    """Fermionic space over the channels: one quantum each, 2^#channels states,
    or only those with fermion number <= max_total."""
    return build_fock(channels, 1, dim_cap=dim_cap, max_total=max_total, fermionic=True)


def fermion_ladder(ffs: FockSpace, channel):
    """(annihilator, creator) with exact anticommutation relations."""
    return annihilator(ffs, channel).mat, creator(ffs, channel).mat


def fermionic_lift(ffs: FockSpace, form) -> _CSR:
    """sum_{ab} c_a^dag M[a, b] c_b for a matrix or QuadraticForm M;
    commutators lift without metric factors."""
    return lift_bilinear(ffs, form).mat


def spinor_orbital_channels(l_max: int) -> tuple:
    """Channels (orbital (l, m), spinor index s), ordered orbital-major."""
    return tuple((c, s) for c in shell_channels(l_max) for s in range(4))


def dirac_sam(ffs: FockSpace) -> tuple[_CSR, ...]:
    """Sigma/2 (x) 1 lifted over (orbital, spinor) channels."""
    shell = SphericalShell(radius=1.0, l_max=max(l for ((l, _), _) in ffs.channels))
    eye = np.eye(len(shell.channels))
    return tuple(
        fermionic_lift(ffs, combined_form(shell, ffs, eye, 0.5 * s))
        for s in spinor_matrices().sigma
    )


def dirac_oam(ffs: FockSpace, l_max: int) -> tuple[_CSR, ...]:
    """L (x) 1_4: the orbital generators up to l_max with the identity on the
    spinor index; ChannelMismatch if the space lacks one of their channels."""
    shell = SphericalShell(radius=1.0, l_max=l_max)
    return tuple(
        fermionic_lift(ffs, combined_form(shell, ffs, g, np.eye(4)))
        for g in orbital_matrices(l_max)
    )
