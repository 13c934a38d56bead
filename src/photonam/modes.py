"""Discrete mode sets, polarization frames, and single-particle generators.

Everything here works in natural units (hbar = c = eps0 = mu0 = 1), so a mode
with wave vector k has frequency omega = |k| and all angular momenta come out
in units of hbar.

Polarization frame rule
-----------------------
For a nonzero wave vector k the four-vector frame eps(k, lam), lam = 0..3, is
fixed deterministically:

* eps(k, 0) = (1, 0, 0, 0)                      (scalar)
* spatial eps(k, 3) = k / |k|                   (longitudinal)
* spatial eps(k, 1) = unit(z_hat x k_hat) when |z_hat x k_hat| > 1e-8,
  otherwise unit(x_hat - (x_hat . k_hat) k_hat), which is (1, 0, 0) on the
  z axis itself                                 (first transverse)
* spatial eps(k, 2) = k_hat x eps(k, 1)         (second transverse)

The spatial triad (eps1, eps2, eps3) is right-handed and orthonormal, the
four-vectors satisfy eps_mu(k, lam) eps^mu(k, lam') = g_{lam lam'} with
g = diag(+1, -1, -1, -1), and the frame at -k is computed independently by
the same rule (no relation between eps(k, .) and eps(-k, .) is enforced).

Mode sets
---------
A CartesianGrid is the one grid record: per mode the wave vector, omega and
the frame, as read-only arrays, and the index of the mode's -k.  It is the
only place a grid is validated (`wave_vectors`) and paired, however it is
built.  A SphericalShell is one |k| with its orbital channels (l, m).

Channel sign convention: the ladder commutator on a single channel is
[a, a_dag] = channel_sign(lam) * identity with channel_sign(0) = -1 and
channel_sign(1..3) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    DuplicateMode,
    InvalidConfig,
    NegativeLmax,
    ZeroWaveVector,
)

METRIC_DIAG = (1.0, -1.0, -1.0, -1.0)

_AXIS_TOL = 1e-8

# The most modes a CartesianGrid takes, checked before its O(K^2) pairing and
# collision scan (10,000 modes took seconds there).  `operators.family_matrices`
# admits at most 1,024 channels, so no suite that lifts a family runs more
# than 512 modes at any dim cap; the bound refuses no grid such a suite could
# run, only counter-rotating (no family lift) on more than 1,024 modes.
MAX_GRID_MODES = 1024


def channel_sign(lam: int) -> int:
    """Sign of [a, a_dag] on a single polarization channel."""
    return -1 if lam == 0 else 1


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 3x3 rotation generators acting on polarization indices 1..3."""
    s1 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    s2 = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], dtype=complex)
    s3 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    for s in (s1, s2, s3):
        s.setflags(write=False)
    return s1, s2, s3


def wave_vectors(rows) -> tuple[np.ndarray, np.ndarray]:
    """Validated wave vectors ks (K, 3) and omega = |k| (K,), both read-only.

    DimensionMismatch for a row without 3 components, ZeroWaveVector for a
    component that is not a number and for a k whose |k|^2 is zero,
    subnormal, NaN or infinite.
    """
    comps = []
    for row in rows:
        try:
            comps.append(tuple(float(c) for c in row))
        except ValueError:
            raise ZeroWaveVector(f"wave vector {list(row)} has a non-numeric component") from None
        if len(comps[-1]) != 3:
            raise DimensionMismatch(f"wave vector needs 3 components, got {len(comps[-1])}")
    ks = np.array(comps, dtype=float).reshape(-1, 3)
    # an overflow to inf, or a NaN component, fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.sum(ks * ks, axis=1)
    if not np.all((squares >= np.finfo(float).tiny) & (squares < math.inf)):
        raise ZeroWaveVector("wave vector must be nonzero and finite (omega = |k|)")
    omega = np.sqrt(squares)
    for arr in (ks, omega):
        arr.setflags(write=False)
    return ks, omega


def cross(a, b) -> tuple[float, float, float]:
    """a x b over the first index of each by np.cross's own formulas (same
    bits, signed zeros included), without its per-call axis handling."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def polarization_frame(k) -> np.ndarray:
    """Frame eps(k, lam) of a nonzero wave vector k (3 components) by the
    module-level rule: rows lam = 0..3, columns (t, x, y, z)."""
    k = np.asarray(k, dtype=float)
    khat = k / math.sqrt(sum(c * c for c in k.tolist()))
    zxk = np.array(cross((0.0, 0.0, 1.0), khat.tolist()))
    norm = np.linalg.norm(zxk)
    if norm > _AXIS_TOL:
        e1 = zxk / norm
    else:
        # x_hat less its k_hat part; x_hat itself on the z axis
        e1 = np.array([1.0, 0.0, 0.0]) - khat[0] * khat
        e1 = e1 / np.linalg.norm(e1)
    eps = np.zeros((4, 4))
    eps[0, 0] = 1.0
    eps[1, 1:] = e1
    eps[2, 1:] = cross(khat.tolist(), e1.tolist())
    eps[3, 1:] = khat
    return eps


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Four-vector inner product a_mu b^mu with g = diag(+---)."""
    return float(a[0] * b[0] - np.dot(a[1:], b[1:]))


def frame_curl(k, lam: int) -> np.ndarray:
    """Curl (in k) of the spatial frame field eps(., lam), lam = 1 or 2,
    evaluated at the nonzero wave vector k (3 components), in closed form on
    the branch of the frame rule that k takes.

    About an axis n, with cos t = n . k_hat, phi = n x k_hat / sin t and
    theta = (cos t k_hat - n) / sin t, curl phi = (cot t k_hat - theta) / |k|
    and curl theta = phi / |k|.  Off the z axis the rule is eps_1 = phi and
    eps_2 = -theta about n = z; within its band, eps_1 = (x - k_x k_hat) / |.|
    = -theta and eps_2 = -phi about n = x.
    """
    k = np.asarray(k, dtype=float)
    size = math.sqrt(sum(c * c for c in k.tolist()))
    khat = k / size
    off_axis = np.linalg.norm(cross((0.0, 0.0, 1.0), khat.tolist())) > _AXIS_TOL
    n = np.array([0.0, 0.0, 1.0] if off_axis else [1.0, 0.0, 0.0])
    phi = np.array(cross(n, khat))
    sin = np.linalg.norm(phi)
    phi /= sin
    cos = float(n @ khat)
    theta = (cos * khat - n) / sin
    curl_phi = (cos / sin * khat - theta) / size
    curl_theta = phi / size
    curls = (curl_phi, -curl_theta) if off_axis else (-curl_theta, -curl_phi)
    return curls[lam - 1]


class CartesianGrid:
    """Finite set of wave vectors closed under negation, with frames.

    Built from rows of 3 components, validated by `wave_vectors`.  Holds
    read-only arrays `ks` (K, 3), `omega` (K,) and `frames` (K, 4, 4), rows
    lam = 0..3 of `polarization_frame` per mode, and `negation`, the index of
    each mode's -k.  The partner is the mode whose components are exactly the
    negated ones; DimensionCapExceeded for more than MAX_GRID_MODES modes,
    DuplicateMode for an empty list, a mode without a partner, and two modes
    i, j (other than a pair) with k_i within 1e-12 * max(omega_i, omega_j) of
    k_j or -k_j.
    """

    def __init__(self, rows) -> None:
        ks, omega = wave_vectors(rows)
        if len(ks) > MAX_GRID_MODES:
            raise DimensionCapExceeded(f"{len(ks)} modes exceed the grid cap {MAX_GRID_MODES}")
        if not len(ks):
            raise DuplicateMode("a grid needs at least one mode")
        vecs = [tuple(k) for k in ks.tolist()]
        # the first of equal vectors, so that a repeat is reported as one below
        index = {k: i for i, k in reversed(list(enumerate(vecs)))}
        negation = tuple(index.get(tuple(-c for c in k), -1) for k in vecs)
        if -1 in negation:
            lone = vecs[negation.index(-1)]
            raise DuplicateMode(f"mode {lone} has no negation partner in the list")
        with np.errstate(over="ignore", invalid="ignore"):
            for i, k in enumerate(ks):
                near = np.minimum(
                    np.linalg.norm(ks - k, axis=1), np.linalg.norm(ks + k, axis=1)
                ) <= 1e-12 * np.maximum(omega, omega[i])
                near[: i + 1] = near[negation[i]] = False
                if near.any():
                    j = int(np.argmax(near))
                    raise DuplicateMode(f"modes {vecs[i]} and {vecs[j]} collide")
        frames = np.array([polarization_frame(k) for k in ks])
        frames.setflags(write=False)
        self.ks, self.omega, self.frames, self.negation = ks, omega, frames, negation

    def __len__(self) -> int:
        return len(self.ks)

    def mode_labels(self) -> tuple[int, ...]:
        return tuple(range(len(self.ks)))


@dataclass(frozen=True)
class SphericalShell:
    """Single-|k| shell with orbital channels (l, m), 0 <= l <= l_max."""

    radius: float
    l_max: int
    channels: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ZeroWaveVector("shell radius must be positive and finite")
        if self.l_max < 0:
            raise NegativeLmax("l_max must be >= 0")
        object.__setattr__(self, "channels", shell_channels(self.l_max))

    def __len__(self) -> int:
        return len(self.channels)

    def mode_labels(self) -> tuple[tuple[int, int], ...]:
        return self.channels


ModeSet = CartesianGrid | SphericalShell


def shell_channels(l_max: int) -> tuple[tuple[int, int], ...]:
    """Orbital labels (l, m) ordered by l ascending, then m = -l..l."""
    if l_max < 0:
        raise NegativeLmax("l_max must be >= 0")
    return tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))


def build_cartesian_modeset(half_list) -> CartesianGrid:
    """Complete a half list of wave vectors (3 components each) into the
    grid k_0, -k_0, k_1, -k_1, ...; the collision rule of `CartesianGrid`
    refuses a k listed twice or with its negation."""
    rows = []
    for k in half_list:
        k = [float(c) for c in k]
        rows += [k, [-c for c in k]]
    return CartesianGrid(rows)


def orbital_matrices(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian generators (lx, ly, lz) on the (l, m) channels of a shell.

    lz is diagonal with eigenvalue m; the ladder combinations l +/- shift m
    within each l block with coefficient sqrt(l(l+1) - m(m+-1)), so the block
    structure in l is exact.
    """
    if l_max < 0:
        raise NegativeLmax("l_max must be >= 0")
    chans = shell_channels(l_max)
    dim = len(chans)
    index = {c: i for i, c in enumerate(chans)}
    lz = np.zeros((dim, dim), dtype=complex)
    lp = np.zeros((dim, dim), dtype=complex)
    for (l, m), i in index.items():
        lz[i, i] = m
        if m < l:
            lp[index[(l, m + 1)], i] = math.sqrt(l * (l + 1) - m * (m + 1))
    lm = lp.conj().T
    lx = (lp + lm) / 2.0
    ly = (lp - lm) / 2.0j
    for mat in (lx, ly, lz):
        mat.setflags(write=False)
    return lx, ly, lz


def parse_modeset(text: str) -> CartesianGrid:
    """Grid from flat text: one `kx ky kz` line per mode, listing every mode
    (both k and -k); `CartesianGrid` pairs them.  InvalidConfig for text
    led by `shell`: a shell is not given as a grid."""
    rows = [ln.split() for ln in text.strip().splitlines() if ln.split()]
    if not rows:
        raise DuplicateMode("empty mode-set text")
    if rows[0][0] == "shell":
        raise InvalidConfig("a grid lists wave vectors; give a shell with --shell")
    return CartesianGrid(rows)
