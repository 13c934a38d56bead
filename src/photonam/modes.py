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
  otherwise (1, 0, 0)                           (first transverse)
* spatial eps(k, 2) = k_hat x eps(k, 1)         (second transverse)

The spatial triad (eps1, eps2, eps3) is right-handed and orthonormal, the
four-vectors satisfy eps_mu(k, lam) eps^mu(k, lam') = g_{lam lam'} with
g = diag(+1, -1, -1, -1), and the frame at -k is computed independently by
the same rule (no relation between eps(k, .) and eps(-k, .) is enforced).

Channel sign convention: the ladder commutator on a single channel is
[a, a_dag] = channel_sign(lam) * identity with channel_sign(0) = -1 and
channel_sign(1..3) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DuplicateMode, NegativeLmax, ZeroWaveVector

METRIC_DIAG = (1.0, -1.0, -1.0, -1.0)

_AXIS_TOL = 1e-8


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


@dataclass(frozen=True)
class WaveVector:
    """A nonzero, finite three-component wave vector; omega = |k| in natural
    units."""

    components: tuple[float, float, float]

    def __post_init__(self) -> None:
        comps = tuple(float(c) for c in self.components)
        if len(comps) != 3:
            raise DimensionMismatch(f"wave vector needs 3 components, got {len(comps)}")
        object.__setattr__(self, "components", comps)
        if not 0.0 < self.omega < math.inf:
            raise ZeroWaveVector("wave vector must be nonzero and finite (omega = |k|)")

    @property
    def omega(self) -> float:
        return math.sqrt(sum(c * c for c in self.components))

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)

    def negated(self) -> "WaveVector":
        return WaveVector(tuple(-c for c in self.components))


@dataclass(frozen=True, eq=False)
class PolarizationFrame:
    """Four polarization four-vectors, rows lam = 0..3, columns (t, x, y, z)."""

    eps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.eps, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "eps", arr)

    def spatial(self, lam: int) -> np.ndarray:
        return self.eps[lam, 1:]

    def four_vector(self, lam: int) -> np.ndarray:
        return self.eps[lam]


def _cross(a, b) -> tuple[float, float, float]:
    """a x b by np.cross's own formulas (same bits, signed zeros included),
    without its per-call axis handling."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def polarization_frame(k: WaveVector) -> PolarizationFrame:
    """Deterministic frame for k following the module-level rule."""
    khat = k.as_array() / k.omega
    zxk = np.array(_cross((0.0, 0.0, 1.0), khat.tolist()))
    norm = np.linalg.norm(zxk)
    if norm > _AXIS_TOL:
        e1 = zxk / norm
    else:
        e1 = np.array([1.0, 0.0, 0.0])
    eps = np.zeros((4, 4))
    eps[0, 0] = 1.0
    eps[1, 1:] = e1
    eps[2, 1:] = _cross(khat.tolist(), e1.tolist())
    eps[3, 1:] = khat
    return PolarizationFrame(eps)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Four-vector inner product a_mu b^mu with g = diag(+---)."""
    return float(a[0] * b[0] - np.dot(a[1:], b[1:]))


def frame_curl(k: WaveVector, lam: int, step: float | None = None) -> np.ndarray:
    """Curl (in k) of the spatial frame field eps(., lam), evaluated at k.

    Central finite differences of the deterministic frame rule; `step`
    defaults to 1e-6 * |k|.  Meaningful only away from the z-axis branch of
    the rule, which is where the suite evaluates it.
    """
    h = step if step is not None else 1e-6 * k.omega
    base = k.as_array()

    def eps_at(vec: np.ndarray) -> np.ndarray:
        return polarization_frame(WaveVector(tuple(vec))).spatial(lam)

    jac = np.zeros((3, 3))
    for b in range(3):
        dv = np.zeros(3)
        dv[b] = h
        jac[b] = (eps_at(base + dv) - eps_at(base - dv)) / (2.0 * h)
    # [curl eps]_a = eps_{abc} d_b eps_c
    return np.array(
        [
            jac[1, 2] - jac[2, 1],
            jac[2, 0] - jac[0, 2],
            jac[0, 1] - jac[1, 0],
        ]
    )


@dataclass(frozen=True, eq=False)
class CartesianGrid:
    """Finite set of wave vectors closed under negation, with frames."""

    modes: tuple[WaveVector, ...]
    frames: tuple[PolarizationFrame, ...]
    negation: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modes)

    def mode_labels(self) -> tuple[int, ...]:
        return tuple(range(len(self.modes)))

    def omega(self, index: int) -> float:
        return self.modes[index].omega

    def is_negation_closed(self) -> bool:
        n = len(self.modes)
        if len(self.negation) != n:
            return False
        for i, j in enumerate(self.negation):
            if not (0 <= j < n) or self.negation[j] != i:
                return False
            if not np.allclose(
                self.modes[j].as_array(), -self.modes[i].as_array(), atol=1e-12
            ):
                return False
        return True


@dataclass(frozen=True)
class SphericalShell:
    """Single-|k| shell with orbital channels (l, m), 0 <= l <= l_max."""

    radius: float
    l_max: int
    channels: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ZeroWaveVector("shell radius must be positive and finite")
        if self.l_max < 0:
            raise NegativeLmax("l_max must be >= 0")
        chans = shell_channels(self.l_max)
        object.__setattr__(self, "channels", chans)

    def __len__(self) -> int:
        return len(self.channels)

    def mode_labels(self) -> tuple[tuple[int, int], ...]:
        return self.channels

    def omega(self, label) -> float:
        return self.radius


ModeSet = CartesianGrid | SphericalShell


def shell_channels(l_max: int) -> tuple[tuple[int, int], ...]:
    """Orbital labels (l, m) ordered by l ascending, then m = -l..l."""
    if l_max < 0:
        raise NegativeLmax("l_max must be >= 0")
    return tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))


def build_cartesian_modeset(half_list) -> CartesianGrid:
    """Complete a half list of wave vectors into a negation-closed grid.

    Each entry of `half_list` may be a WaveVector or a 3-tuple of floats.  The
    result contains each k and -k exactly once, with frames computed for both
    independently by the frame rule.
    """
    if not half_list:
        raise DuplicateMode("half_list must be nonempty")
    half = [k if isinstance(k, WaveVector) else WaveVector(tuple(k)) for k in half_list]
    for i, ki in enumerate(half):
        for j in range(i + 1, len(half)):
            d_same = np.linalg.norm(ki.as_array() - half[j].as_array())
            d_neg = np.linalg.norm(ki.as_array() + half[j].as_array())
            if min(d_same, d_neg) <= 1e-12 * max(ki.omega, half[j].omega):
                raise DuplicateMode(
                    f"modes {ki.components} and {half[j].components} collide"
                )
    modes: list[WaveVector] = []
    negation: list[int] = []
    for k in half:
        modes.append(k)
        modes.append(k.negated())
        base = len(modes) - 2
        negation.extend([base + 1, base])
    frames = tuple(polarization_frame(k) for k in modes)
    return CartesianGrid(tuple(modes), frames, tuple(negation))


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


def format_modeset(ms: ModeSet) -> str:
    """Flat text form: one `kx ky kz` line per grid mode, or `shell |k| lmax`."""
    if isinstance(ms, SphericalShell):
        return f"shell {ms.radius!r} {ms.l_max}\n"
    lines = []
    for k in ms.modes:
        lines.append(" ".join(repr(c) for c in k.components))
    return "\n".join(lines) + "\n"


def parse_modeset(text: str) -> ModeSet:
    """Inverse of format_modeset.

    Grid input lists every mode (both k and -k); the negation pairing is
    reconstructed and must cover the list.
    """
    rows = [ln.split() for ln in text.strip().splitlines() if ln.split()]
    if not rows:
        raise DuplicateMode("empty mode-set text")
    if rows[0][0] == "shell":
        if len(rows) != 1 or len(rows[0]) != 3:
            raise DuplicateMode("shell line must be `shell |k| lmax`")
        return SphericalShell(radius=float(rows[0][1]), l_max=int(rows[0][2]))
    modes = [WaveVector(tuple(float(x) for x in row)) for row in rows]
    negation = [-1] * len(modes)
    for i, ki in enumerate(modes):
        if negation[i] >= 0:
            continue
        for j in range(i + 1, len(modes)):
            if negation[j] >= 0:
                continue
            if np.allclose(ki.as_array(), -modes[j].as_array(), atol=1e-12):
                negation[i], negation[j] = j, i
                break
        else:
            raise DuplicateMode(
                f"mode {ki.components} has no negation partner in the list"
            )
    frames = tuple(polarization_frame(k) for k in modes)
    return CartesianGrid(tuple(modes), frames, tuple(negation))
