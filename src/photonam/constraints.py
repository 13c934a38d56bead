"""Gauge constraints, the physical subspace, and gauge-hiding verification.

The per-mode constraint is a_3 - a_0 + xi0 * 1, where xi0 is the prescribed
coupling of the scalar channel to a classical charge density.  The physical
subspace is the kernel of the stacked constraints; zero-norm kernel vectors
(pure gauge excitations) are first-class citizens: they are reported with
norm 0 and excluded from expectation checks.

On a grid space capped at total occupation T <= n_max, the free kernel
(xi0 = 0) has a closed form, `gb_physical_subspace`: the monomials in the
transverse creators and the null creator a_3^+ - a_0^+ of each mode, read
off the occupation table without LAPACK.  `physical_subspace` finds any
kernel numerically, with one rank-revealing SVD of the dense stack; it
serves the one-mode pair and is the oracle the closed form is tested
against.

Expectation-level statements about gauge-variant operators are asserted on
quotient representatives: kernel vectors orthogonal to the zero-norm
directions of the kernel's indefinite Gram matrix.  On states that mix in
zero-norm excitations with nonzero relative phase, the difference
<spin> - <spin_obs> is genuinely nonzero; those values are reported, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMismatch,
    DimensionCapExceeded,
    DimensionMismatch,
    EmptySubspace,
    IncommensurateGrid,
    NoKernel,
    ToleranceAmbiguous,
    UnknownChannel,
)
from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    OperatorMatrix,
    annihilator,
    creator,
    expectation,
    identity_operator,
    indefinite_inner,
    max_residual,
    metric_diagonal,
    space_dim,
)
from .modes import CartesianGrid, ModeSet, SphericalShell, orbital_matrices
from .sampling import SeededRng


@dataclass(frozen=True, eq=False)
class ChargeSource:
    """Classical charge density: spatial samples on a periodic box."""

    box_length: float | None = None
    samples: np.ndarray | None = None  # rows (x, y, z, rho)

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ChannelMismatch("samples must be rows of (x, y, z, rho)")
        if self.box_length is None or self.box_length <= 0:
            raise ChannelMismatch("sampled sources need a positive box length")
        object.__setattr__(self, "samples", arr)


def _xi_prefactor(omega: float) -> float:
    # 1/omega * sqrt(1 / (2 omega (2 pi)^3)) in natural units
    return 1.0 / (omega ** 1.5 * math.sqrt(2.0 * (2.0 * math.pi) ** 3))


def xi0_from_charge(source: ChargeSource, ms: ModeSet) -> dict:
    """Per-mode scalar coupling values from the charge source: the discrete
    Fourier sum of its samples with the free-space normalization prefactor.
    The mode set must be a grid whose every mode sits on the box's
    reciprocal lattice.
    """
    if not isinstance(ms, CartesianGrid):
        raise IncommensurateGrid("sampled sources require a grid mode set")
    length = float(source.box_length)
    xyz = source.samples[:, :3]
    rho = source.samples[:, 3]
    weight = length ** 3 / len(rho)
    out = {}
    for i in ms.mode_labels():
        k = ms.ks[i]
        lattice = k * length / (2.0 * math.pi)
        if np.max(np.abs(lattice - np.round(lattice))) > 1e-9:
            raise IncommensurateGrid(
                f"mode {tuple(k)} is off the reciprocal lattice of box {length}"
            )
        phase = np.exp(-1j * (xyz @ k))
        out[i] = _xi_prefactor(float(ms.omega[i])) * weight * complex(np.sum(rho * phase))
    return out


def xi_conjugate_residual(ms: ModeSet, xi: dict) -> float:
    """Deviation from the reality condition of the underlying charge density."""
    if isinstance(ms, CartesianGrid):
        return max_residual(
            abs(xi.get(ms.negation[i], 0.0) - np.conj(xi.get(i, 0.0)))
            for i in ms.mode_labels()
        )
    return max_residual(
        abs(xi.get((l, -m), 0.0) - (-1.0) ** (l + m) * np.conj(xi.get((l, m), 0.0)))
        for (l, m) in ms.mode_labels()
    )


def _gauge_positions(ms: ModeSet, fs: FockSpace) -> tuple[list[int], list[int]]:
    """Channel positions of every mode's lam = 0 and of its lam = 3 channel."""
    try:
        return tuple([fs.index_of((label, lam)) for label in ms.mode_labels()] for lam in (0, 3))
    except UnknownChannel as exc:
        raise ChannelMismatch(f"constraints need lam = 0 and lam = 3 channels: {exc}") from None


def gb_constraints(ms: ModeSet, fs: FockSpace, xi: dict | None = None) -> list[OperatorMatrix]:
    """One constraint matrix a_3 - a_0 + xi0 per mode label."""
    out = []
    for label, p0, p3 in zip(ms.mode_labels(), *_gauge_positions(ms, fs)):
        c = annihilator(fs, fs.channels[p3]) - annihilator(fs, fs.channels[p0])
        shift = complex(xi.get(label, 0.0)) if xi else 0.0
        if shift != 0.0:
            c = c + shift * identity_operator(fs)
        out.append(c)
    return out


@dataclass(frozen=True, eq=False)
class PhysicalSubspace:
    """Euclidean-orthonormal kernel basis."""

    basis: np.ndarray  # dim x r, columns orthonormal

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def physical_subspace(
    fs: FockSpace,
    constraints: list[OperatorMatrix],
    tol: float = 1e-10,
    gap_factor: float = 1e3,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> PhysicalSubspace:
    """Numerical kernel of the stacked constraints, from one dense SVD.

    Singular values below `tol` define the kernel; a gap of at least
    `gap_factor` between the largest kernel value and the smallest excluded
    value is required unless the kernel values are exact zeros.
    DimensionCapExceeded is raised before the stack is allocated when its
    rows x dim elements exceed dim_cap.
    """
    if not constraints:
        return PhysicalSubspace(np.eye(fs.dim, dtype=complex))
    rows = len(constraints) * fs.dim
    if rows * fs.dim > dim_cap:
        raise DimensionCapExceeded(
            f"dense constraint stack {rows} x {fs.dim} = {rows * fs.dim}"
            f" elements exceeds cap {dim_cap}"
        )
    stack = np.vstack([c.to_dense() for c in constraints])
    # rows >= dim, so the reduced SVD still gives every right singular vector
    _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    mask = sigma < tol
    if not np.any(mask):
        raise NoKernel(
            f"no singular value below {tol}; smallest is {sigma.min():.3e}"
        )
    top, bottom = float(sigma[mask].max()), float(sigma[~mask].min(initial=math.inf))
    gap = math.inf if top == 0.0 else bottom / top
    if gap < gap_factor:
        raise ToleranceAmbiguous(
            f"kernel cut ambiguous: gap {gap:.2e} below required {gap_factor:.0e}"
        )
    return PhysicalSubspace(vh[mask].conj().T)


def gb_physical_subspace(
    ms: ModeSet, fs: FockSpace, dim_cap: int = DEFAULT_DIM_CAP
) -> PhysicalSubspace:
    """Closed-form kernel of the free constraints a_3 - a_0 of every mode on
    a space capped at total occupation T = fs.max_total <= fs.n_max.

    Each constraint annihilates the null creator c^+ = a_3^+ - a_0^+ of its
    mode, so the kernel is spanned by the monomials in every c^+ and the
    other channels' creators on the vacuum (Gupta 1950; Bleuler 1950).  A row
    belongs to the monomial keyed by the row with n_0 + n_3 moved to n_0,
    with weight sqrt(C(n_0 + n_3, n_3)) per mode.  Distinct monomials have
    disjoint rows, so the normalized columns, one per key in basis order,
    are orthonormal.  DimensionCapExceeded is raised before the dim x r
    basis is allocated when it exceeds dim_cap.
    """
    p0, p3 = _gauge_positions(ms, fs)
    top = fs.max_total
    if top > fs.n_max:
        raise DimensionMismatch(
            f"closed-form kernel needs total occupation cap {top} <= n_max {fs.n_max}"
        )
    r = space_dim(len(fs.channels) - len(p0), fs.n_max, top, dim_cap)
    if fs.dim * r > dim_cap:
        raise DimensionCapExceeded(
            f"kernel basis {fs.dim} x {r} = {fs.dim * r} elements exceeds cap {dim_cap}"
        )
    n3 = fs.occ[:, p3]
    merged = fs.occ[:, p0] + n3
    keys = fs.occ.copy()
    keys[:, p0] = merged
    keys[:, p3] = 0
    key_column = np.full(fs.dim, -1)
    key_column[np.all(n3 == 0, axis=1)] = np.arange(r)
    column = key_column[fs.locate(keys)]
    root = np.sqrt([[math.comb(m, j) for j in range(top + 1)] for m in range(top + 1)])
    weight = np.prod(root[merged, n3], axis=1)
    norm = np.sqrt(np.bincount(column, weights=weight**2, minlength=r))
    basis = np.zeros((fs.dim, r), dtype=complex)
    basis[np.arange(fs.dim), column] = weight / norm[column]
    return PhysicalSubspace(basis)


def kernel_certificate(constraints: list[OperatorMatrix], subspace: PhysicalSubspace) -> float:
    """max_v max_C ||C v|| over the kernel basis."""
    return max_residual(
        np.max(np.linalg.norm(c @ subspace.basis, axis=0), initial=0.0)
        for c in constraints
    )


def quotient_representatives(
    fs: FockSpace, subspace: PhysicalSubspace, null_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Split the kernel into metric-nondegenerate representatives and
    zero-norm gauge directions.

    Returns (representatives, null_directions) as column blocks; both consist
    of kernel vectors, and every null direction has vanishing indefinite norm.
    """
    v = subspace.basis
    if v.shape[1] == 0:
        raise EmptySubspace("physical subspace is empty")
    eta = metric_diagonal(fs)
    gram = v.conj().T @ (eta[:, None] * v)
    gram = 0.5 * (gram + gram.conj().T)
    w, u = np.linalg.eigh(gram)
    keep = np.abs(w) > null_tol
    return v @ u[:, keep], v @ u[:, ~keep]


@dataclass(frozen=True)
class GaugeHidingEntry:
    """Per-state record produced by verify_gauge_hiding; a skipped probe
    carries norm and spin_hiding 0."""

    state: str
    norm: float
    spin_hiding: float
    skipped: bool = False


def verify_gauge_hiding(
    fs: FockSpace,
    subspace: PhysicalSubspace,
    spin: tuple[OperatorMatrix, ...],
    spin_obs: tuple[OperatorMatrix, ...],
    rng: SeededRng,
    n_random: int = 6,
) -> list[GaugeHidingEntry]:
    """Expectation-value gauge hiding on the physical subspace.

    For every probed state with nonzero indefinite norm, the record carries
    spin_hiding = max_i |<spin_i> - <spin_obs_i>| of the two triples.

    States are representative kernel vectors plus seeded random combinations;
    zero-norm probes are skipped and counted.  Mixed probes (including
    zero-norm directions) are labeled "mixed-*" so callers can report rather
    than assert them.
    """
    if subspace.dimension == 0:
        raise EmptySubspace("physical subspace is empty")
    reps, nulls = quotient_representatives(fs, subspace)

    probes: list[tuple[str, np.ndarray]] = []
    for j in range(reps.shape[1]):
        probes.append((f"rep-{j}", reps[:, j]))
    for j in range(nulls.shape[1]):
        probes.append((f"null-{j}", nulls[:, j]))
    for j in range(n_random):
        if reps.shape[1]:
            coeff = rng.normal(size=reps.shape[1]) + 1j * rng.normal(size=reps.shape[1])
            probes.append((f"rand-{j}", reps @ (coeff / np.linalg.norm(coeff))))
    for j in range(n_random):
        if nulls.shape[1] and reps.shape[1]:
            c1 = rng.normal(size=reps.shape[1]) + 1j * rng.normal(size=reps.shape[1])
            c2 = rng.normal(size=nulls.shape[1]) + 1j * rng.normal(size=nulls.shape[1])
            vec = reps @ c1 + nulls @ c2
            probes.append((f"mixed-{j}", vec / np.linalg.norm(vec)))

    entries = []
    for label, psi in probes:
        norm = indefinite_inner(fs, psi, psi).real
        if abs(norm) <= 1e-12 * float(np.vdot(psi, psi).real):
            entries.append(GaugeHidingEntry(label, 0.0, 0.0, skipped=True))
            continue
        diffs = [expectation(fs, a, psi) - expectation(fs, b, psi) for a, b in zip(spin, spin_obs)]
        entries.append(GaugeHidingEntry(label, float(norm), float(np.max(np.abs(diffs)))))
    return entries


def euclidean_occupancy(fs: FockSpace, lam: int, psi: np.ndarray) -> float:
    """Euclidean expectation of the plain occupation count summed over the
    channels with polarization lam."""
    lams = np.array([channel_lam for _, channel_lam in fs.channels])
    count = fs.occ[:, lams == lam].sum(axis=1, dtype=float)
    weight = float(np.vdot(psi, psi).real)
    return float(np.real(np.vdot(psi, count * psi)) / weight)


def random_conjugate_symmetric_xi(
    ms: ModeSet, rng: SeededRng, scale: float = 0.1
) -> dict:
    """Seeded coupling table satisfying the reality condition of the source.

    On a grid: xi(-k) = conj(xi(k)).  On a shell the same condition reads
    xi(l, -m) = (-1)^(l+m) conj(xi(l, m)), making the m = 0 entries real for
    even l and imaginary for odd l.
    """
    out: dict = {}
    if isinstance(ms, CartesianGrid):
        for i in ms.mode_labels():
            if i in out:
                continue
            z = scale * (rng.normal() + 1j * rng.normal())
            out[i] = z
            out[ms.negation[i]] = np.conj(z)
        return out
    for (l, m) in ms.mode_labels():
        if (l, m) in out:
            continue
        if m == 0:
            z = scale * rng.normal()
            out[(l, 0)] = complex(z) if l % 2 == 0 else 1j * z
            continue
        z = scale * (rng.normal() + 1j * rng.normal())
        out[(l, m)] = z
        out[(l, -m)] = (-1.0) ** (l + m) * np.conj(z)
    return out


def xi_source_coefficients(ms: SphericalShell, xi: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per component x, y, z, the coefficients (conj(xi) . L, L . xi) of the
    annihilators and creators, over the shell's labels, in the prescribed-source
    bilinear `xi_oam_bilinear`."""
    if not isinstance(ms, SphericalShell):
        raise ChannelMismatch("prescribed-source bilinears use the shell labeling")
    vec = np.array([complex(xi.get(c, 0.0)) for c in ms.mode_labels()])
    return [(vec.conj() @ gen, gen @ vec) for gen in orbital_matrices(ms.l_max)]


def xi_oam_bilinear(
    ms: SphericalShell, fs: FockSpace, xi: dict, lam: int
) -> tuple[OperatorMatrix, ...]:
    """Orbital coupling of a prescribed source to one polarization channel.

    Componentwise sum of conj(xi) . L . a_lam plus its metric adjoint, where
    L runs over the shell's orbital generators and xi is the per-(l, m)
    source table.  This is the building block of the prescribed-source
    pathway: the photon part of the Chen Dirac-sector orbital operator is
    +X(lam=3), the comparison operator for <l_pure> on displaced physical
    states is -X(lam=3), and the transverse extra terms of the Wakamatsu
    decomposition are X(lam=1) + X(lam=2).
    """
    labels = ms.mode_labels()
    none = np.empty(0, dtype=np.intp)
    out = []
    for row, col in xi_source_coefficients(ms, xi):
        # the ladders of distinct channels and directions have disjoint
        # patterns, so every entry is one term, a ladder entry times its weight
        terms = [(none, none, none)]
        for pos, label in enumerate(labels):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch(f"channel ({label}, {lam}) absent")
            for ladder, weight in ((annihilator, row[pos]), (creator, col[pos])):
                if weight != 0:
                    rows, cols, data = ladder(fs, (label, lam)).entries()
                    terms.append((rows, cols, data * weight))
        rows, cols, data = (np.concatenate(part) for part in zip(*terms))
        out.append(OperatorMatrix.from_entries(fs, data, rows, cols))
    return tuple(out)
