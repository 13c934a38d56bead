"""Classical-amplitude field evaluation on periodic boxes.

A ClassicalFieldState assigns a complex amplitude to each (k, lam) mode of a
cubic box of side L; wave vectors must sit on the reciprocal lattice
2 pi n / L and the sampling grid must satisfy N >= 2 max|n| + 1 so that
Riemann sums of quadratic field products are exact trigonometric quadratures.

Grid coordinates are centered, x_j = -L/2 + j L / N.  All fields are real;
the electric field carries the (alpha_3 - alpha_0) longitudinal weight, and
the magnetic field is purely transverse.

Field maps are batched over modes: each is a sum over the distinct wave
vectors of exp(i k.x) times a per-mode coefficient, so one (N^3 x K) phase
matrix times one coefficient matrix gives them all.

The mode side of a quadrature check is not a formula of its own:
`form_value` evaluates a grid family of `operators.FORMS` on the
amplitudes, sum_k alpha_k^dag G B_k alpha_k, the expectation of the lift
that the suites check in the coherent state with these amplitudes.

Everything but the amplitudes is tabulated once per lattice, in a small
cache keyed on (box length, grid size, distinct wave vectors in grouped
order): the validation, omega, the frames, the phase matrix and the
per-mode blocks B_k.  -0.0 and 0.0 compare equal, so twins that differ only
in the sign of a zero share an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BandLimitViolation,
    ChannelMismatch,
    OffLatticeMode,
)
from .modes import channel_sign, polarization_frame, wave_vectors
from .operators import mode_blocks

_LATTICE_TOL = 1e-9
# G, the channel signs of lam = 0..3
_SIGNS = np.array([float(channel_sign(lam)) for lam in range(4)])


@dataclass(frozen=True)
class ClassicalFieldState:
    """Amplitudes alpha(k, lam) on the reciprocal lattice of a periodic box."""

    box_length: float
    grid_n: int
    amplitudes: tuple  # ((kx, ky, kz), lam, alpha) entries

    def __post_init__(self) -> None:
        # `not 0 < L < inf` also turns away NaN
        if not 0.0 < self.box_length < math.inf:
            raise ChannelMismatch("box length must be positive and finite")
        if not isinstance(self.grid_n, (int, np.integer)) or self.grid_n < 1:
            raise ChannelMismatch("grid resolution must be an integer >= 1")
        entries = []
        for k, lam, alpha in self.amplitudes:
            if lam not in (0, 1, 2, 3):
                raise ChannelMismatch(f"unknown polarization label {lam!r}")
            entries.append((tuple(float(c) for c in k), int(lam), complex(alpha)))
        # the distinct wave vectors, validated by `modes.wave_vectors`
        distinct = tuple(dict.fromkeys(e[0] for e in entries))
        table = _lattice_table(float(self.box_length), int(self.grid_n), distinct)
        object.__setattr__(self, "amplitudes", tuple(entries))
        object.__setattr__(self, "_lattice", table)

    def grouped(self) -> dict:
        """Amplitudes per wave vector as length-4 complex arrays."""
        out: dict = {}
        for k, lam, alpha in self.amplitudes:
            out.setdefault(k, np.zeros(4, dtype=complex))[lam] += alpha
        return out

    @cached_property
    def _mode_table(self):
        """Per distinct wave vector (K of them): k (K, 3), omega (K,), spatial
        frame rows lam = 0..3 (K, 4, 3), all shared with every state on the
        same lattice, and this state's grouped amplitudes (K, 4)."""
        lat = self._lattice
        amps = np.array(list(self.grouped().values()), dtype=complex).reshape(-1, 4)
        return lat.ks, lat.omega, lat.frames, amps


class _Lattice:
    """The state-independent part of a field evaluation: the validated
    distinct wave vectors ks (K, 3), their omega (K,) and spatial frame rows
    lam = 0..3 (K, 4, 3), and, built on first use, the (N^3 x K) phase
    matrix exp(i x.k) and the per-mode blocks of each grid family read.  All
    read-only."""

    def __init__(self, box_length: float, grid_n: int, rows: tuple) -> None:
        ks, omega = wave_vectors(rows)
        # an overflow to inf fails the lattice check
        with np.errstate(over="ignore", invalid="ignore"):
            lattice = ks * box_length / (2.0 * math.pi)
            rounded = np.round(lattice)
            off = ~np.all(np.abs(lattice - rounded) <= _LATTICE_TOL, axis=1)
        if off.any():
            raise OffLatticeMode(f"mode {rows[int(np.argmax(off))]} off the box lattice")
        max_index = int(np.max(np.abs(rounded), initial=0.0))
        if grid_n < 2 * max_index + 1:
            raise BandLimitViolation(f"grid N = {grid_n} below band limit {2 * max_index + 1}")
        frames = np.array([polarization_frame(k)[:, 1:] for k in ks]).reshape(-1, 4, 3)
        frames.setflags(write=False)
        self.ks, self.omega, self.frames = ks, omega, frames
        self._grid = (box_length, grid_n)
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
        phases = np.exp(1j * (_positions(*self._grid) @ self.ks.T))
        phases.setflags(write=False)
        return phases


# bounded, since an evaluated entry holds its phase matrix; lru_cache caches no
# exception, so every state on a bad lattice raises anew
_lattice_table = lru_cache(maxsize=8)(_Lattice)


def _positions(length: float, n: int) -> np.ndarray:
    axis = -length / 2.0 + np.arange(n) * (length / n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)


def grid_positions(state: ClassicalFieldState) -> np.ndarray:
    """Centered sample positions, shape (N^3, 3)."""
    return _positions(state.box_length, state.grid_n)


def cell_volume(state: ClassicalFieldState) -> float:
    return (state.box_length / state.grid_n) ** 3


@dataclass(frozen=True, eq=False)
class FieldMaps:
    """Real field samples on the box grid, flattened to (N^3, ...)."""

    e: np.ndarray
    b: np.ndarray
    a: np.ndarray
    pi: np.ndarray
    a0: np.ndarray
    pi0: np.ndarray


def eval_fields(state: ClassicalFieldState) -> FieldMaps:
    """Evaluate E, B, A, pi (vectors) and A0, pi0 (scalars) on the grid,
    each as 2 Re or -2 Im of columns of the lattice's phase matrix times
    this state's coefficients."""
    ks, omega, frames, amps = state._mode_table
    volume = state.box_length ** 3
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
    sums = state._lattice.phases @ coeffs
    re = 2.0 * np.real(sums[:, :4])
    im = -2.0 * np.imag(sums[:, 4:])
    return FieldMaps(
        e=im[:, 4:7], b=im[:, 7:10], a=re[:, :3], pi=im[:, :3], a0=re[:, 3], pi0=im[:, 3]
    )


def transverse_split(obj):
    """Split a state or a gridded vector field into transverse and
    longitudinal parts; the two parts sum back to the input exactly.

    For states the split acts on polarization labels (lam = 1, 2 transverse;
    lam = 3 and the scalar channel ride with the longitudinal part).  For a
    gridded field of shape (N, N, N, 3) the split projects each Fourier mode
    on and off its propagation direction; the k = 0 component stays with the
    transverse part.
    """
    if isinstance(obj, ClassicalFieldState):
        trans = tuple(e for e in obj.amplitudes if e[1] in (1, 2))
        longi = tuple(e for e in obj.amplitudes if e[1] in (0, 3))
        mk = lambda amps: ClassicalFieldState(obj.box_length, obj.grid_n, amps)
        return mk(trans), mk(longi)
    field = np.asarray(obj, dtype=float)
    if field.ndim != 4 or field.shape[3] != 3:
        raise ChannelMismatch("gridded fields must have shape (N, N, N, 3)")
    n = field.shape[0]
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


def spatial_spin_integral(
    state: ClassicalFieldState, transverse_maps: FieldMaps | None = None
) -> np.ndarray:
    """Riemann sum of E_T x A_T over the box; equals the per-mode helicity
    formula for band-limited states.

    `transverse_maps`, when given, must be `eval_fields` of the transverse
    part of `state`; it saves evaluating that part again.
    """
    return np.sum(spin_density_map(state, transverse_maps), axis=0) * cell_volume(state)


def spin_density_map(
    state: ClassicalFieldState, transverse_maps: FieldMaps | None = None
) -> np.ndarray:
    """Pointwise E_T x A_T on the grid, shape (N^3, 3); `transverse_maps` as
    in `spatial_spin_integral`."""
    maps = transverse_maps
    if maps is None:
        maps = eval_fields(transverse_split(state)[0])
    return np.cross(maps.e, maps.a)


def form_value(state: ClassicalFieldState, name: str, lams: tuple = (0, 1, 2, 3)) -> np.ndarray:
    """The `operators.FORMS` grid family `name` evaluated on the amplitudes of
    the polarizations `lams`, per component: sum_k alpha_k^dag G B_k alpha_k
    with B_k its per-mode block, the expectation of its lift in the coherent
    state with these amplitudes."""
    amps = state._mode_table[3]
    pairs = (amps.conj()[:, :, None] * amps[:, None, :]).ravel()
    return np.real(state._lattice.blocks(name, lams) @ pairs)


def mode_spin_formula(state: ClassicalFieldState) -> np.ndarray:
    """Per-mode transverse spin: the `spin_obs` form on the amplitudes,
    sum_k i (conj(a2) a1 - conj(a1) a2) eps3."""
    return form_value(state, "spin_obs")


def transverse_energy(state: ClassicalFieldState) -> float:
    """Mode-sum energy of the transverse amplitudes, sum omega |alpha|^2: the
    `hamiltonian` form on them."""
    return float(form_value(state, "hamiltonian", (1, 2))[0])
