"""Gauge constraints, the physical subspace, and gauge-hiding verification.

The per-mode constraint is a_3 - a_0 + xi0 * 1, where xi0 is the prescribed
coupling of the scalar channel to a classical charge density.  The physical
subspace is the numerical kernel of the stacked constraints, computed by a
rank-revealing SVD; zero-norm kernel vectors (pure gauge excitations) are
first-class citizens: they are reported with norm 0 and excluded from
expectation checks.

A free constraint (xi0 = 0) lowers the total occupation by exactly one, so
the stack is block-diagonal by occupation sector: the columns of total N
map only into the rows of total N - 1.  The SVD therefore runs once per
sector, on a small dense block, and the kernel is the direct sum of the
per-sector kernels.  A stack that does not lower the occupation uniformly,
such as a xi-shifted one, is factored as a single block by the same loop.

Expectation-level statements about gauge-variant operators are asserted on
quotient representatives: kernel vectors orthogonal to the zero-norm
directions of the kernel's indefinite Gram matrix.  On states that mix in
zero-norm excitations with nonzero relative phase, the difference
<spin> - <spin_obs> is genuinely nonzero; those values are reported, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelMismatch,
    DimensionCapExceeded,
    EmptySubspace,
    IncommensurateGrid,
    NoKernel,
    ToleranceAmbiguous,
)
from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    OperatorMatrix,
    _CSR,
    annihilator,
    creator,
    expectation,
    identity_operator,
    indefinite_inner,
    max_residual,
    metric_diagonal,
    zero_operator,
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
        k = ms.modes[i].as_array()
        lattice = k * length / (2.0 * math.pi)
        if np.max(np.abs(lattice - np.round(lattice))) > 1e-9:
            raise IncommensurateGrid(
                f"mode {tuple(k)} is off the reciprocal lattice of box {length}"
            )
        phase = np.exp(-1j * (xyz @ k))
        out[i] = _xi_prefactor(ms.modes[i].omega) * weight * complex(np.sum(rho * phase))
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


def gb_constraints(ms: ModeSet, fs: FockSpace, xi: dict | None = None) -> list[OperatorMatrix]:
    """One constraint matrix a_3 - a_0 + xi0 per mode label."""
    out = []
    for label in ms.mode_labels():
        for lam in (0, 3):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch(
                    f"constraint for mode {label!r} needs lam = 0 and lam = 3 channels"
                )
        c = annihilator(fs, (label, 3)) - annihilator(fs, (label, 0))
        shift = complex(xi.get(label, 0.0)) if xi else 0.0
        if shift != 0.0:
            c = c + shift * identity_operator(fs)
        out.append(c)
    return out


@dataclass(frozen=True, eq=False)
class PhysicalSubspace:
    """Euclidean-orthonormal kernel basis with its singular-value certificate."""

    basis: np.ndarray  # dim x r, columns orthonormal
    tol: float
    singular_values: np.ndarray
    gap: float = field(default=math.inf)

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def _sector_blocks(fs: FockSpace, constraints: list[OperatorMatrix]):
    """Dense blocks of the stacked constraints, one per occupation sector.

    Yields (columns, block): the basis indices of sector N and the rows of
    every constraint, constraint-major, that those columns map into.  When
    every stored entry maps total occupation N to N - 1, those are the rows
    of sector N - 1; otherwise the whole space is one sector and its block
    is the dense stack itself, in the order of `np.vstack`.
    """
    row, col, val = (np.concatenate(p) for p in zip(*(c.mat.entries() for c in constraints)))
    which = np.repeat(np.arange(len(constraints)), [c.mat.nnz for c in constraints])
    total = fs.total_occupation()
    drop = 1 if np.array_equal(total[row], total[col] - 1) else 0
    sector = total if drop else np.zeros(fs.dim, dtype=int)
    sizes = np.bincount(sector)
    order = np.argsort(sector, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    # position of each basis index within its sector
    pos = np.empty(fs.dim, dtype=int)
    pos[order] = np.arange(fs.dim) - starts[sector[order]]
    entries = np.argsort(sector[col], kind="stable")
    bounds = np.searchsorted(sector[col][entries], np.arange(sizes.size + 1))
    for n in range(sizes.size):
        height = sizes[n - drop] if n >= drop else 0
        e = entries[bounds[n]:bounds[n + 1]]
        shape = (len(constraints) * height, sizes[n])
        block = _CSR.from_entries(val[e], which[e] * height + pos[row[e]], pos[col[e]], shape)
        yield order[starts[n]:starts[n + 1]], block.toarray()


def physical_subspace(
    fs: FockSpace,
    constraints: list[OperatorMatrix],
    tol: float = 1e-10,
    gap_factor: float = 1e3,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> PhysicalSubspace:
    """Numerical kernel of the stacked constraints.

    The SVD runs per occupation sector (`_sector_blocks`), or on one block
    holding the whole stack when the constraints do not lower the total
    occupation by exactly one; the kernel basis is the direct sum of the
    per-block kernels and `singular_values` their union, sorted descending.
    Singular values below `tol` define the kernel; a gap of at least
    `gap_factor` between the largest kernel value and the smallest excluded
    value over all blocks is required unless the kernel values are exact
    zeros.  The guard counts the whole dense stack: DimensionCapExceeded is
    raised before any block is allocated when its rows x dim elements
    exceed dim_cap.
    """
    if not constraints:
        basis = np.eye(fs.dim, dtype=complex)
        return PhysicalSubspace(basis, tol, np.zeros(0))
    rows = len(constraints) * fs.dim
    if rows * fs.dim > dim_cap:
        raise DimensionCapExceeded(
            f"dense constraint stack {rows} x {fs.dim} = {rows * fs.dim}"
            f" elements exceeds cap {dim_cap}"
        )
    kernels = []
    sigmas = []
    for columns, block in _sector_blocks(fs, constraints):
        _, sigma, vh = np.linalg.svd(block, full_matrices=True)
        sigma = np.concatenate([sigma, np.zeros(columns.size - sigma.size)])
        kernels.append((columns, vh[sigma < tol].conj().T))
        sigmas.append(sigma)
    sigma = np.sort(np.concatenate(sigmas))[::-1]
    mask = sigma < tol
    if not np.any(mask):
        raise NoKernel(
            f"no singular value below {tol}; smallest is {sigma.min():.3e}"
        )
    included = sigma[mask]
    excluded = sigma[~mask]
    gap = math.inf
    if excluded.size:
        top = float(included.max())
        bottom = float(excluded.min())
        gap = math.inf if top == 0.0 else bottom / top
        if gap < gap_factor:
            raise ToleranceAmbiguous(
                f"kernel cut ambiguous: gap {gap:.2e} below required {gap_factor:.0e}"
            )
    basis = np.zeros((fs.dim, included.size), dtype=kernels[0][1].dtype)
    start = 0
    for columns, kernel in kernels:
        basis[columns, start:start + kernel.shape[1]] = kernel
        start += kernel.shape[1]
    return PhysicalSubspace(basis, tol, sigma, gap)


def kernel_certificate(constraints: list[OperatorMatrix], subspace: PhysicalSubspace) -> float:
    """max_v max_C ||C v|| over the kernel basis."""
    return max_residual(
        np.max(np.linalg.norm(c.mat @ subspace.basis, axis=0), initial=0.0)
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
    out = []
    for row, col in xi_source_coefficients(ms, xi):
        # the ladders of distinct channels and directions have disjoint
        # patterns, so every entry is one term added to 0
        total = zero_operator(fs)
        for pos, label in enumerate(labels):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch(f"channel ({label}, {lam}) absent")
            if row[pos] != 0:
                total = total + annihilator(fs, (label, lam)) * row[pos]
            if col[pos] != 0:
                total = total + creator(fs, (label, lam)) * col[pos]
        out.append(total)
    return tuple(out)
