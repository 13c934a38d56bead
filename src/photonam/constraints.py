"""Gauge constraints, the physical subspace, and gauge-hiding verification.

The per-mode constraint is a_3 - a_0 + xi0 * 1, where xi0 is the prescribed
coupling of the scalar channel to a classical charge density.  The physical
subspace is the kernel of the stacked constraints; zero-norm kernel vectors
(pure gauge excitations) are first-class citizens: they are counted and
excluded from expectation checks.

On a grid space the free kernel (xi0 = 0) has a closed form,
`gb_physical_subspace`: a sparse record of each row's monomial column and
weight, read off the occupation table, so the kernel and its certificate
cost O(dim) or O(nnz), with no dense basis and no LAPACK.  Its indefinite
Gram matrix is diagonal: 1 on the transverse monomials, the quotient
representatives on which expectation-level statements about gauge-variant
operators are asserted, and 0 on the zero-norm directions.  Every
expectation on the kernel is read in kernel coordinates: `kernel_entries`
groups an operator's entries into R^dag eta O R, R the kernel's columns,
and a kernel state is a coefficient vector over those columns, never a
dense state.  On states that mix in zero-norm excitations with nonzero
relative phase, the difference <spin> - <spin_obs> is genuinely nonzero;
those values are reported, never asserted.  `physical_subspace`
finds any kernel numerically, with one rank-revealing SVD of the dense
stack; it serves the one-mode pair and is the oracle the closed form is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMismatch,
    DimensionCapExceeded,
    IncommensurateGrid,
    NoKernel,
    ToleranceAmbiguous,
    UnknownChannel,
)
from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    OperatorMatrix,
    _group,
    annihilator,
    creator,
    identity_operator,
    max_residual,
    metric_diagonal,
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


def physical_subspace(
    fs: FockSpace,
    constraints: list[OperatorMatrix],
    tol: float = 1e-10,
    gap_factor: float = 1e3,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Numerical kernel of the stacked constraints, from one dense SVD, as a
    (dim x r) array of Euclidean-orthonormal columns.

    Singular values below `tol` define the kernel; a gap of at least
    `gap_factor` between the largest kernel value and the smallest excluded
    value is required unless the kernel values are exact zeros.
    DimensionCapExceeded is raised before the stack is allocated when its
    rows x dim elements exceed dim_cap.
    """
    if not constraints:
        return np.eye(fs.dim, dtype=complex)
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
    return vh[mask].conj().T


def kernel_certificate(constraints: list[OperatorMatrix], basis: np.ndarray) -> float:
    """max_v max_C ||C v|| over the columns of a dense kernel basis."""
    return max_residual(
        np.max(np.linalg.norm(c @ basis, axis=0), initial=0.0) for c in constraints
    )


@dataclass(frozen=True, eq=False)
class GBKernel:
    """Closed-form free kernel: unit vectors v_0 .. v_{r-1} on disjoint rows.
    Per row, `column` is the index j of the v_j it lies in and `weight` its
    entry there (-1 and 0 for a row in none); per column, `norm` is the
    indefinite norm <v_j, eta v_j>."""

    column: np.ndarray
    weight: np.ndarray
    norm: np.ndarray

    @property
    def dimension(self) -> int:
        return self.norm.size

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(representatives, zero-norm directions): the columns of indefinite
        norm above 1e-10 and the rest, each in basis order."""
        quotient = np.abs(self.norm) > 1e-10
        return np.flatnonzero(quotient), np.flatnonzero(~quotient)


def gb_physical_subspace(ms: ModeSet, fs: FockSpace) -> GBKernel:
    """Closed-form kernel of the free constraints a_3 - a_0 of every mode.

    Each constraint annihilates the null creator c^+ = a_3^+ - a_0^+ of its
    mode, so the kernel is spanned by the monomials in every c^+ and the
    other channels' creators on the vacuum (Gupta 1950; Bleuler 1950) that
    the truncation keeps whole, with m = n_0 + n_3 <= n_max in every mode.
    Such a row belongs to the monomial keyed by the row with n_0 + n_3 moved
    to n_0, with weight sqrt(C(m, n_3)) per mode; any other row to none.
    Distinct monomials have disjoint rows, so the normalized columns, one
    per key in basis order, are orthonormal, and the indefinite norm of each
    is 1 on the transverse monomials (no lam = 0 or 3 quanta), 0 on the rest.
    """
    p0, p3 = _gauge_positions(ms, fs)
    n3 = fs.occ[:, p3]
    merged = np.add(fs.occ[:, p0], n3, dtype=np.intp)
    inside = np.all(merged <= fs.n_max, axis=1)
    keys = fs.occ[inside]
    keys[:, p0], keys[:, p3] = merged[inside], 0
    # a key is its own row, which has no lam = 3 quanta; rank those rows
    col = (np.cumsum(np.all(n3 == 0, axis=1)) - 1)[fs.locate(keys)]
    root = np.sqrt([[math.comb(m, j) for j in range(fs.n_max + 1)] for m in range(fs.n_max + 1)])
    w = np.prod(root[merged[inside], n3[inside]], axis=1)
    w /= np.sqrt(np.bincount(col, weights=w**2))[col]
    column, weight = np.full(fs.dim, -1), np.zeros(fs.dim)
    column[inside], weight[inside] = col, w
    return GBKernel(column, weight, np.bincount(col, weights=metric_diagonal(fs)[inside] * w**2))


def gb_kernel_certificate(constraints: list[OperatorMatrix], kernel: GBKernel) -> float:
    """max_j max_C ||C v_j|| over the closed-form kernel's columns, from the
    constraints' entries grouped on (row, kernel column of the entry's col)."""
    r = kernel.dimension
    worst = []
    for c in constraints:
        rows, cols, data = c.entries()
        j = kernel.column[cols]
        inside = j >= 0
        keys, labels = _group(rows[inside] * r + j[inside])
        terms = data[inside] * kernel.weight[cols[inside]]
        squares = np.bincount(labels, terms.real) ** 2 + np.bincount(labels, terms.imag) ** 2
        worst.append(np.sqrt(np.bincount(keys % r, squares, r)).max())
    return max_residual(worst)


def kernel_entries(
    fs: FockSpace, kernel: GBKernel, op: OperatorMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO entries (i, j, <v_i, eta op v_j>) of R^dag eta op R, R the kernel's
    columns: the entries of op whose row lies in column i and whose col in
    column j, weighted by eta w_row w_col and summed in input order."""
    rows, cols, data = op.entries()
    i, j = kernel.column[rows], kernel.column[cols]
    inside = (i >= 0) & (j >= 0)
    rows, cols = rows[inside], cols[inside]
    terms = data[inside] * (metric_diagonal(fs)[rows] * kernel.weight[rows] * kernel.weight[cols])
    r = kernel.dimension
    keys, labels = _group(i[inside] * r + j[inside])
    values = np.bincount(labels, terms.real) + 1j * np.bincount(labels, terms.imag)
    return keys // r, keys % r, values


def verify_gauge_hiding(
    fs: FockSpace,
    kernel: GBKernel,
    spin: tuple[OperatorMatrix, ...],
    spin_obs: tuple[OperatorMatrix, ...],
    rng: SeededRng,
) -> tuple[float, np.ndarray, int]:
    """Expectation-value gauge hiding in kernel coordinates: per probe,
    max_i |<spin_i> - <spin_obs_i>|, read off M_i = `kernel_entries` of
    spin_i - spin_obs_i.

    The probes are the representatives (`GBKernel.split`), read off the
    diagonal of M_i; six seeded combinations c of them; and six "mixed" ones
    that add the zero-norm directions, for callers to report rather than
    assert.  A combination reads |c^dag M_i c| / sum_j |c_j|^2 norm_j, over
    its indefinite norm, which is positive: every combination draws every
    representative.  Returns the largest value over the representatives and
    their six combinations, the six mixed values, and the number of
    zero-norm directions, which are skipped and counted.
    """
    reps, nulls = kernel.split()
    r = kernel.dimension

    def draw(n: int) -> np.ndarray:
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    probes = np.zeros((12 if nulls.size else 6, r), dtype=complex)
    for c in probes[:6]:
        c[reps] = draw(reps.size)
    for c in probes[6:]:
        c[reps], c[nulls] = draw(reps.size), draw(nulls.size)
    weights = (probes.real ** 2 + probes.imag ** 2) @ kernel.norm
    hiding, values = np.zeros(reps.size), np.zeros(len(probes))
    for a, b in zip(spin, spin_obs):
        i, j, m = kernel_entries(fs, kernel, a - b)
        on = i == j
        diagonal = np.zeros(r, dtype=complex)
        diagonal[i[on]] = m[on]
        hiding = np.maximum(hiding, np.abs(diagonal[reps] / kernel.norm[reps]))
        forms = np.array([np.vdot(c[i], m * c[j]) for c in probes])
        values = np.maximum(values, np.abs(forms) / weights)
    return max_residual(np.concatenate([hiding, values[:6]])), values[6:], nulls.size


def _polarization_count(fs: FockSpace, lam: int) -> np.ndarray:
    """Per row, the occupation summed over the channels with polarization lam."""
    lams = np.array([channel_lam for _, channel_lam in fs.channels])
    return fs.occ[:, lams == lam].sum(axis=1, dtype=float)


def column_occupancy(fs: FockSpace, kernel: GBKernel, lam: int) -> np.ndarray:
    """Per kernel column, the Euclidean expectation of the occupation count
    summed over the channels with polarization lam, one sum over its rows."""
    w, labels = kernel.weight, kernel.column + 1
    count = np.bincount(labels, w * (_polarization_count(fs, lam) * w))
    return count[1:] / np.bincount(labels, w * w)[1:]


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
