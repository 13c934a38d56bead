"""Minimal fermionic companion: fermion spaces and Dirac-sector channels.

Fermion spaces are `fock.FockSpace`s built with `fermionic=True`: one
quantum per channel, every sign +1, and ladders and lifts in the
Jordan-Wigner convention with channel 0 leftmost in the tensor product, so a
creator on channel j carries the parity string of channels 0..j-1.  This
fixes every matrix uniquely and keeps anticommutators exact.  The lift is
`fock.lift_forms`, the same as for photons.

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
photon family by `operators.lift_family`; their claims are the Table-I
claims of `operators.CLAIMS`.  The 4x4 Dirac matrices beta, alpha_i and
Sigma_i are the read-only constants `operators.BETA`, `ALPHA` and `SIGMA`.
"""

from __future__ import annotations

from .fock import DEFAULT_DIM_CAP, FockSpace, build_fock
from .modes import shell_channels


def build_fermion_fock(
    channels, dim_cap: int = DEFAULT_DIM_CAP, max_total: int | None = None
) -> FockSpace:
    """Fermionic space over the channels: one quantum each, 2^#channels states,
    or only those with fermion number <= max_total."""
    return build_fock(channels, 1, dim_cap=dim_cap, max_total=max_total, fermionic=True)


def spinor_orbital_channels(l_max: int) -> tuple:
    """Channels (orbital (l, m), spinor index s), ordered orbital-major."""
    return tuple((c, s) for c in shell_channels(l_max) for s in range(4))

