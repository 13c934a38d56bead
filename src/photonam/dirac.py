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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    annihilator,
    build_fock,
    creator,
    lift_bilinear,
)
from .modes import orbital_matrices, shell_channels

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


def fermionic_lift(ffs: FockSpace, matrix: np.ndarray) -> sparse.csr_matrix:
    """sum_{ab} c_a^dag M[a, b] c_b; commutators lift without metric factors."""
    return lift_bilinear(ffs, matrix).mat


def spinor_orbital_channels(l_max: int) -> tuple:
    """Channels (orbital (l, m), spinor index s), ordered orbital-major."""
    return tuple((c, s) for c in shell_channels(l_max) for s in range(4))


def _channel_matrix(ffs: FockSpace, entry) -> np.ndarray:
    n = len(ffs.channels)
    m = np.zeros((n, n), dtype=complex)
    for (ca, cb), val in entry.items():
        m[ffs.index_of(ca), ffs.index_of(cb)] = val
    return m


def dirac_sam(ffs: FockSpace) -> tuple[sparse.csr_matrix, ...]:
    """Half the spinor rotation generators lifted over (orbital, spinor)
    channels."""
    basis = spinor_matrices()
    out = []
    for sig in basis.sigma:
        entry = {}
        for (c, s) in ffs.channels:
            for s2 in range(4):
                if sig[s, s2] != 0:
                    entry[((c, s), (c, s2))] = 0.5 * sig[s, s2]
        out.append(fermionic_lift(ffs, _channel_matrix(ffs, entry)))
    return tuple(out)


def dirac_oam(ffs: FockSpace, l_max: int) -> tuple[sparse.csr_matrix, ...]:
    """Orbital generators lifted with the identity on the spinor index."""
    gens = orbital_matrices(l_max)
    chans = shell_channels(l_max)
    cidx = {c: i for i, c in enumerate(chans)}
    out = []
    for gen in gens:
        entry = {}
        for (c, s) in ffs.channels:
            for d in chans:
                val = gen[cidx[c], cidx[d]]
                if val != 0 and (d, s) in ffs.channels:
                    entry[((c, s), (d, s))] = val
        out.append(fermionic_lift(ffs, _channel_matrix(ffs, entry)))
    return tuple(out)
