"""Classical-amplitude field evaluation on periodic boxes.

A FieldLattice is a cubic box of side L, a sampling grid of N points per
axis and a `modes.CartesianGrid` of K wave vectors, closed under negation;
wave vectors must sit on the reciprocal lattice 2 pi n / L and the grid must
satisfy N >= 2 max|n| + 1 so that Riemann sums of quadratic field products
are exact trigonometric quadratures.
A classical state on it is a (K, 4) complex array: row i holds the
amplitudes alpha(k_i, lam), lam = 0..3.

Grid coordinates are centered, x_j = -L/2 + j L / N.  All fields are real;
the electric field carries the (alpha_3 - alpha_0) longitudinal weight, and
the magnetic field is purely transverse.

Field maps are batched over modes: each is a sum over the wave vectors of
exp(i k.x) times a per-mode coefficient, so one (N^3 x K) phase matrix times
one coefficient matrix gives them all.

The mode side of a quadrature check is not a formula of its own: a grid
family of `operators.FORMS` is a real quadratic form in the amplitudes,
sum_k alpha_k^dag G B_k alpha_k, the expectation of the lift that the suites
check in the coherent state with these amplitudes.  `form_gram` gives its
matrix over a stack of states from the family's channel matrices,
`operators.family_matrices` on the lattice's grid: the very matrices that
`operators.lift_family` lifts.

Everything but the amplitudes belongs to the lattice, which the caller
builds once and passes to every evaluation: the validation, the grid and
the phase matrix.  Nothing caches a lattice between callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BandLimitViolation, ChannelMismatch, DimensionMismatch, OffLatticeMode
from .modes import CartesianGrid, channel_sign, cross
from .operators import family_matrices

_LATTICE_TOL = 1e-9


class FieldLattice:
    """The state-independent part of a field evaluation: the box length and
    grid size, the `CartesianGrid` of the wave vectors (`grid`, which refuses
    a list not closed under negation or with a repeat), and, built on first
    use, the (N^3 x K) phase matrix exp(i x.k).  All read-only."""

    def __init__(self, box_length: float, grid_n: int, ks) -> None:
        # `not 0 < L < inf` also turns away NaN
        if not 0.0 < box_length < math.inf:
            raise ChannelMismatch("box length must be positive and finite")
        if not isinstance(grid_n, (int, np.integer)) or grid_n < 1:
            raise ChannelMismatch("grid resolution must be an integer >= 1")
        grid = CartesianGrid(ks)
        # an overflow to inf fails the lattice check
        with np.errstate(over="ignore", invalid="ignore"):
            lattice = grid.ks * box_length / (2.0 * math.pi)
            rounded = np.round(lattice)
            off = ~np.all(np.abs(lattice - rounded) <= _LATTICE_TOL, axis=1)
        if off.any():
            mode = tuple(grid.ks[int(np.argmax(off))].tolist())
            raise OffLatticeMode(f"mode {mode} off the box lattice")
        max_index = int(np.max(np.abs(rounded)))
        if grid_n < 2 * max_index + 1:
            raise BandLimitViolation(f"grid N = {grid_n} below band limit {2 * max_index + 1}")
        self.box_length, self.grid_n, self.grid = float(box_length), int(grid_n), grid

    @cached_property
    def phases(self) -> np.ndarray:
        axis = -self.box_length / 2.0 + np.arange(self.grid_n) * (self.box_length / self.grid_n)
        xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
        positions = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        phases = np.exp(1j * (positions @ self.grid.ks.T))
        phases.setflags(write=False)
        return phases


def _amplitudes(lattice: FieldLattice, amps, stacked: bool = False) -> np.ndarray:
    """`amps` as a complex array; DimensionMismatch unless it is (K, 4), or
    a stack (n, K, 4) of such states if `stacked`."""
    amps = np.asarray(amps, dtype=complex)
    modes = len(lattice.grid)
    if amps.shape[int(stacked):] != (modes, 4):
        raise DimensionMismatch(
            f"amplitudes of shape {amps.shape} on a lattice of {modes} modes,"
            f" expected {'a stack of ' if stacked else ''}({modes}, 4)"
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
    omega, frames = lattice.grid.omega, lattice.grid.frames[:, :, 1:]
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
    return np.stack(cross(maps.e.T, maps.a.T), axis=1)


def spatial_spin_integral(lattice: FieldLattice, maps: FieldMaps) -> np.ndarray:
    """Riemann sum of `spin_density_map(maps)` over the box; on the maps of a
    band-limited state's transverse part it equals the per-mode helicity
    formula."""
    return np.sum(spin_density_map(maps), axis=0) * cell_volume(lattice)


def form_gram(lattice: FieldLattice, states, name: str) -> np.ndarray:
    """Per component of the `operators.FORMS` grid family `name`, the real
    symmetric matrix Re(psi_i^dag G F psi_j) over `states` (n, K, 4), F the
    family's matrix from `family_matrices` on the channels (k, lam = 0..3)
    of the lattice's grid and G their channel signs; on one state, the
    expectation of the family's lift in the coherent state with its
    amplitudes.  Shape (components, n, n)."""
    states = _amplitudes(lattice, states, stacked=True)
    channels = [(k, lam) for k in lattice.grid.mode_labels() for lam in range(4)]
    signs = np.array([float(channel_sign(lam)) for _, lam in channels])
    matrices = signs[:, None] * family_matrices(channels, name, lattice.grid)
    flat = states.reshape(len(states), len(channels))
    return np.real(flat.conj() @ matrices @ flat.T)
