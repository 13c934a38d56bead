"""Classical-amplitude field evaluation on periodic boxes.

A ClassicalFieldState assigns a complex amplitude to each (k, lam) mode of a
cubic box of side L; wave vectors must sit on the reciprocal lattice
2 pi n / L and the sampling grid must satisfy N >= 2 max|n| + 1 so that
Riemann sums of quadratic field products are exact trigonometric quadratures.

Grid coordinates are centered, x_j = -L/2 + j L / N, which makes the
position-weighted orbital integrand unbiased for negation-paired amplitude
sets.  All fields are real; the electric field carries the (alpha_3 -
alpha_0) longitudinal weight, and the magnetic field is purely transverse.

Field maps are batched over modes: each is a sum over the distinct wave
vectors of exp(i k.x) times a per-mode coefficient, so one (N^3 x K) phase
matrix times one coefficient matrix gives them all.
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
    OffLatticeMode,
    ZeroWaveVector,
)
from .modes import WaveVector, polarization_frame

_LATTICE_TOL = 1e-9


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
            comps = tuple(float(c) for c in k)
            if len(comps) != 3:
                raise DimensionMismatch(
                    f"wave vector needs 3 components, got {len(comps)}"
                )
            entries.append((comps, int(lam), complex(alpha)))
        ks = np.array([e[0] for e in entries], dtype=float).reshape(-1, 3)
        # an overflow to inf, or the NaN of inf - inf, fails the checks below
        with np.errstate(over="ignore", invalid="ignore"):
            omega = np.sqrt(np.sum(ks * ks, axis=1))
            lattice = ks * self.box_length / (2.0 * math.pi)
            rounded = np.round(lattice)
            off = ~np.all(np.abs(lattice - rounded) <= _LATTICE_TOL, axis=1)
        if not np.all((omega > 0.0) & (omega < math.inf)):
            raise ZeroWaveVector("wave vector must be nonzero and finite (omega = |k|)")
        if off.any():
            comps = entries[int(np.argmax(off))][0]
            raise OffLatticeMode(f"mode {comps} off the box lattice")
        max_index = int(np.max(np.abs(rounded), initial=0.0))
        if self.grid_n < 2 * max_index + 1:
            raise BandLimitViolation(
                f"grid N = {self.grid_n} below band limit {2 * max_index + 1}"
            )
        object.__setattr__(self, "amplitudes", tuple(entries))

    def grouped(self) -> dict:
        """Amplitudes per wave vector as length-4 complex arrays."""
        out: dict = {}
        for k, lam, alpha in self.amplitudes:
            out.setdefault(k, np.zeros(4, dtype=complex))[lam] += alpha
        return out

    @cached_property
    def _mode_table(self):
        """Per distinct wave vector (K of them): k (K, 3), omega (K,), spatial
        frame rows lam = 0..3 (K, 4, 3) and the grouped amplitudes (K, 4).

        Built once per state and shared by every evaluation of it.
        """
        grouped = self.grouped()
        kvs = [WaveVector(k) for k in grouped]
        ks = np.array([kv.components for kv in kvs], dtype=float).reshape(-1, 3)
        omega = np.array([kv.omega for kv in kvs], dtype=float)
        frames = np.array([polarization_frame(kv).eps[:, 1:] for kv in kvs])
        amps = np.array(list(grouped.values()), dtype=complex).reshape(-1, 4)
        return ks, omega, frames.reshape(-1, 4, 3), amps


def grid_positions(state: ClassicalFieldState) -> np.ndarray:
    """Centered sample positions, shape (N^3, 3)."""
    n, length = state.grid_n, state.box_length
    axis = -length / 2.0 + np.arange(n) * (length / n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)


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
    each as 2 Re or -2 Im of columns of one phase-matrix product."""
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
    sums = np.exp(1j * (grid_positions(state) @ ks.T)) @ coeffs
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


def mode_spin_formula(state: ClassicalFieldState) -> np.ndarray:
    """Per-mode transverse spin sum i (conj(a2) a1 - conj(a1) a2) eps3."""
    _, _, frames, amps = state._mode_table
    a1, a2 = amps[:, 1], amps[:, 2]
    weight = 1j * (np.conj(a2) * a1 - np.conj(a1) * a2)
    return np.real(weight) @ frames[:, 3]


def transverse_energy(state: ClassicalFieldState) -> float:
    """Mode-sum energy of the transverse amplitudes, sum omega |alpha|^2."""
    total = 0.0
    for k, amps in state.grouped().items():
        omega = WaveVector(k).omega
        total += omega * (abs(amps[1]) ** 2 + abs(amps[2]) ** 2)
    return total


def spatial_oam_integral(state: ClassicalFieldState) -> np.ndarray:
    """Riemann sum of E_T^j (x cross grad) A_T^j with centered coordinates.

    The position weight is not box-periodic, so this equals the mode-space
    orbital value only for amplitude sets arranged to cancel the boundary
    terms (negation-paired amplitudes with alpha(-k) = conj(alpha(k)));
    otherwise treat the result as a diagnostic.
    """
    tstate, _ = transverse_split(state)
    pos = grid_positions(state)
    maps = eval_fields(tstate)
    ks, omega, frames, amps = tstate._mode_table
    low = 1.0 / np.sqrt(2.0 * omega * state.box_length ** 3)
    spatial = amps[:, 1, None] * frames[:, 1] + amps[:, 2, None] * frames[:, 2]
    # d_i A^c = sum_k 2 low Re(exp(i k.x) i k_i spatial^c): (point, axis, component)
    deriv = (1j * low[:, None, None]) * ks[:, :, None] * spatial[:, None, :]
    grad_a = 2.0 * np.real(np.exp(1j * (pos @ ks.T)) @ deriv.reshape(-1, 9))
    grad_a = grad_a.reshape(-1, 3, 3)
    x_cross_grad = np.cross(pos[:, :, None], grad_a, axis=1)
    integrand = np.einsum("pj,pij->pi", maps.e, np.swapaxes(x_cross_grad, 1, 2))
    return np.sum(integrand, axis=0) * cell_volume(state)


def state_from_csv(text: str, box_length: float, grid_n: int) -> ClassicalFieldState:
    """Parse `kx ky kz lambda re im` lines (comma or whitespace separated)."""
    amps = []
    for ln in text.strip().splitlines():
        parts = ln.replace(",", " ").split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 6:
            raise ChannelMismatch("state rows must be kx ky kz lambda re im")
        kx, ky, kz, lam, re, im = (float(p) for p in parts)
        # lam stays a float, so the state rejects 1.5 instead of truncating it
        amps.append(((kx, ky, kz), lam, complex(re, im)))
    return ClassicalFieldState(box_length, grid_n, tuple(amps))


def density_csv(state: ClassicalFieldState, density: np.ndarray) -> bytes:
    """Density map as `x,y,z,sx,sy,sz` rows in grid order, with header."""
    pos = grid_positions(state)
    if density.shape != pos.shape:
        raise ChannelMismatch("density map shape does not match the grid")
    lines = ["x,y,z,sx,sy,sz"]
    for p, s in zip(pos, density):
        lines.append(",".join(repr(float(v)) for v in (*p, *s)))
    return ("\n".join(lines) + "\n").encode()
