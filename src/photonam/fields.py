"""Classical-amplitude field evaluation on periodic boxes.

A FieldLattice is a cubic box of side L, a sampling grid of N points per
axis and K distinct wave vectors; wave vectors must sit on the reciprocal
lattice 2 pi n / L and the grid must satisfy N >= 2 max|n| + 1 so that
Riemann sums of quadratic field products are exact trigonometric quadratures.
A classical state on it is a (K, 4) complex array: row i holds the
amplitudes alpha(k_i, lam), lam = 0..3.

Grid coordinates are centered, x_j = -L/2 + j L / N.  All fields are real;
the electric field carries the (alpha_3 - alpha_0) longitudinal weight, and
the magnetic field is purely transverse.

Field maps are batched over modes: each is a sum over the wave vectors of
exp(i k.x) times a per-mode coefficient, so one (N^3 x K) phase matrix times
one coefficient matrix gives them all.

The mode side of a quadrature check is not a formula of its own:
`form_value` evaluates a grid family of `operators.FORMS` on the
amplitudes, sum_k alpha_k^dag G B_k alpha_k, the expectation of the lift
that the suites check in the coherent state with these amplitudes.

Everything but the amplitudes belongs to the lattice, which the caller
builds once and passes to every evaluation: the validation, omega, the
frames, the phase matrix and the per-mode blocks B_k.  Nothing caches a
lattice between callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BandLimitViolation,
    ChannelMismatch,
    DimensionMismatch,
    DuplicateMode,
    OffLatticeMode,
)
from .modes import channel_sign, polarization_frame, wave_vectors
from .operators import mode_blocks

_LATTICE_TOL = 1e-9
# G, the channel signs of lam = 0..3
_SIGNS = np.array([float(channel_sign(lam)) for lam in range(4)])


class FieldLattice:
    """The state-independent part of a field evaluation: the box length and
    grid size, the validated wave vectors ks (K, 3), their omega (K,) and
    spatial frame rows lam = 0..3 (K, 4, 3), and, built on first use, the
    (N^3 x K) phase matrix exp(i x.k) and the per-mode blocks of each grid
    family read.  All read-only.  DuplicateMode for a wave vector listed
    twice (-0.0 and 0.0 compare equal)."""

    def __init__(self, box_length: float, grid_n: int, ks) -> None:
        # `not 0 < L < inf` also turns away NaN
        if not 0.0 < box_length < math.inf:
            raise ChannelMismatch("box length must be positive and finite")
        if not isinstance(grid_n, (int, np.integer)) or grid_n < 1:
            raise ChannelMismatch("grid resolution must be an integer >= 1")
        ks, omega = wave_vectors(ks)
        # the fields would add the amplitudes of repeated rows, the quadratic
        # mode sums of `form_value` would not
        if len(set(map(tuple, ks.tolist()))) < len(ks):
            raise DuplicateMode("a field lattice lists each wave vector once")
        # an overflow to inf fails the lattice check
        with np.errstate(over="ignore", invalid="ignore"):
            lattice = ks * box_length / (2.0 * math.pi)
            rounded = np.round(lattice)
            off = ~np.all(np.abs(lattice - rounded) <= _LATTICE_TOL, axis=1)
        if off.any():
            mode = tuple(ks[int(np.argmax(off))].tolist())
            raise OffLatticeMode(f"mode {mode} off the box lattice")
        max_index = int(np.max(np.abs(rounded), initial=0.0))
        if grid_n < 2 * max_index + 1:
            raise BandLimitViolation(f"grid N = {grid_n} below band limit {2 * max_index + 1}")
        frames = np.array([polarization_frame(k)[:, 1:] for k in ks]).reshape(-1, 4, 3)
        frames.setflags(write=False)
        self.box_length, self.grid_n = float(box_length), int(grid_n)
        self.ks, self.omega, self.frames = ks, omega, frames
        self._blocks: dict = {}

    def blocks(self, name: str, lams: tuple) -> np.ndarray:
        """G B_k per component of the `operators.FORMS` grid family `name`,
        zero outside the polarizations `lams`, each component flattened
        over (k, lam, lam'): shape (components, 16 K)."""
        key = (name, lams)
        if key not in self._blocks:
            keep = np.isin(np.arange(4), lams)
            blocks = mode_blocks(name, self.omega, self.ks, self.frames)
            blocks = ((_SIGNS * keep)[:, None] * keep * blocks).reshape(len(blocks), -1)
            blocks.setflags(write=False)
            self._blocks[key] = blocks
        return self._blocks[key]

    @cached_property
    def phases(self) -> np.ndarray:
        axis = -self.box_length / 2.0 + np.arange(self.grid_n) * (self.box_length / self.grid_n)
        xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
        positions = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        phases = np.exp(1j * (positions @ self.ks.T))
        phases.setflags(write=False)
        return phases


def _amplitudes(lattice: FieldLattice, amps) -> np.ndarray:
    """`amps` as a complex array; DimensionMismatch unless it is (K, 4)."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (len(lattice.ks), 4):
        raise DimensionMismatch(
            f"amplitudes of shape {amps.shape} on a lattice of {len(lattice.ks)} modes,"
            f" expected ({len(lattice.ks)}, 4)"
        )
    return amps


def cell_volume(lattice: FieldLattice) -> float:
    return (lattice.box_length / lattice.grid_n) ** 3


@dataclass(frozen=True, eq=False)
class FieldMaps:
    """Real field samples on the box grid, flattened to (N^3, ...)."""

    e: np.ndarray
    b: np.ndarray
    a: np.ndarray
    pi: np.ndarray
    a0: np.ndarray
    pi0: np.ndarray


def eval_fields(lattice: FieldLattice, amps) -> FieldMaps:
    """Evaluate E, B, A, pi (vectors) and A0, pi0 (scalars) of the state
    `amps` (K, 4) on the grid, each as 2 Re or -2 Im of columns of the
    lattice's phase matrix times the state's coefficients."""
    amps = _amplitudes(lattice, amps)
    omega, frames = lattice.omega, lattice.frames
    volume = lattice.box_length ** 3
    low = 1.0 / np.sqrt(2.0 * omega[:, None] * volume)
    high = np.sqrt(omega[:, None] / (2.0 * volume))
    alpha0, alpha1, alpha2, alpha3 = (amps[:, lam, None] for lam in range(4))
    eps1, eps2, eps3 = frames[:, 1], frames[:, 2], frames[:, 3]
    spatial = alpha1 * eps1 + alpha2 * eps2 + alpha3 * eps3
    e_vec = alpha1 * eps1 + alpha2 * eps2 + (alpha3 - alpha0) * eps3
    b_vec = alpha1 * eps2 - alpha2 * eps1
    # columns: A (3), A0 | pi (3), pi0, E (3), B (3)
    coeffs = np.hstack(
        [low * np.hstack([spatial, alpha0]), high * np.hstack([spatial, alpha0, e_vec, b_vec])]
    )
    sums = lattice.phases @ coeffs
    re = 2.0 * np.real(sums[:, :4])
    im = -2.0 * np.imag(sums[:, 4:])
    return FieldMaps(
        e=im[:, 4:7], b=im[:, 7:10], a=re[:, :3], pi=im[:, :3], a0=re[:, 3], pi0=im[:, 3]
    )


def transverse_split(field) -> tuple[np.ndarray, np.ndarray]:
    """Split a gridded vector field of shape (N, N, N, 3) into transverse and
    longitudinal parts by projecting each Fourier mode on and off its
    propagation direction; the k = 0 component stays with the transverse
    part, and the two parts sum back to the input exactly.

    The split of a state is by polarization label: its transverse part keeps
    the lam = 1, 2 columns and zeroes lam = 0, 3.
    """
    field = np.asarray(field, dtype=float)
    n = len(field) if field.ndim else 0
    if not n or field.shape != (n, n, n, 3):
        raise ChannelMismatch("gridded fields must have shape (N, N, N, 3)")
    hat = np.fft.fftn(field, axes=(0, 1, 2))
    freq = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky, kz = np.meshgrid(freq, freq, freq, indexing="ij")
    kvec = np.stack([kx, ky, kz], axis=3)
    k2 = np.sum(kvec ** 2, axis=3)
    k2safe = np.where(k2 == 0, 1.0, k2)
    proj = np.sum(kvec * hat, axis=3) / k2safe
    longi_hat = kvec * proj[..., None]
    longi_hat[k2 == 0] = 0.0
    longi = np.real(np.fft.ifftn(longi_hat, axes=(0, 1, 2)))
    return field - longi, longi


def spin_density_map(maps: FieldMaps) -> np.ndarray:
    """Pointwise E x A on the grid, shape (N^3, 3); on the maps of a state's
    transverse part, the density E_T x A_T."""
    return np.cross(maps.e, maps.a)


def spatial_spin_integral(lattice: FieldLattice, maps: FieldMaps) -> np.ndarray:
    """Riemann sum of `spin_density_map(maps)` over the box; on the maps of a
    band-limited state's transverse part it equals the per-mode helicity
    formula."""
    return np.sum(spin_density_map(maps), axis=0) * cell_volume(lattice)


def form_value(lattice: FieldLattice, amps, name: str, lams: tuple = (0, 1, 2, 3)) -> np.ndarray:
    """The `operators.FORMS` grid family `name` evaluated on the amplitudes
    `amps` (K, 4) of the polarizations `lams`, per component:
    sum_k alpha_k^dag G B_k alpha_k with B_k its per-mode block, the
    expectation of its lift in the coherent state with these amplitudes."""
    amps = _amplitudes(lattice, amps)
    pairs = (amps.conj()[:, :, None] * amps[:, None, :]).ravel()
    return np.real(lattice.blocks(name, lams) @ pairs)


def mode_spin_formula(lattice: FieldLattice, amps) -> np.ndarray:
    """Per-mode transverse spin: the `spin_obs` form on the amplitudes,
    sum_k i (conj(a2) a1 - conj(a1) a2) eps3."""
    return form_value(lattice, amps, "spin_obs")


def transverse_energy(lattice: FieldLattice, amps) -> float:
    """Mode-sum energy of the transverse amplitudes, sum omega |alpha|^2: the
    `hamiltonian` form on them."""
    return float(form_value(lattice, amps, "hamiltonian", (1, 2))[0])
