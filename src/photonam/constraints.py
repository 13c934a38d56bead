"""Gauge constraints, the physical subspace, and gauge-hiding verification.

The per-mode constraint is a_3 - a_0 + xi0 * 1, where xi0 is the prescribed
coupling of the scalar channel to a classical charge density, one complex
array indexed like `ms.mode_labels()`: read off charge samples on a
`fields.FieldLattice` (`xi0_from_charge`) or stated on a shell by the
caller.  A real density ties each entry to its partner's conjugate, one
rule (`_reality_partners`).  `gb_constraints` builds the free a_3 - a_0
only, and no caller displaces them: gauge-hiding reads the displaced
constraint on coherent states, which solve it exactly.  The physical
subspace is the kernel of the stacked constraints; zero-norm kernel vectors
(pure gauge excitations) are first-class citizens: they are counted and
excluded from expectation checks.

On any space the free kernel (xi0 = 0) has one closed form,
`gb_physical_subspace`: a sparse record of each row's monomial column and
weight, read off the occupation table, so the kernel and its certificate
cost O(dim) or O(nnz), with no dense basis and no LAPACK.  Its indefinite
Gram matrix is diagonal: 1 on the transverse monomials, the quotient
representatives on which expectation-level statements about gauge-variant
operators are asserted, and 0 on the zero-norm directions.  Every
expectation on the kernel is read in kernel coordinates: `kernel_entries`
groups an operator's entries into R^dag eta O R, R the kernel's columns,
and a kernel state is a coefficient vector over those columns, never a
dense state.  Gauge hiding is one identity there: the block of
R^dag eta (S - S_obs) R between representatives is zero, so <S> = <S_obs>
on every quotient state.  Its entries that touch a zero-norm column are
genuinely nonzero, read by states that mix in pure-gauge excitations with
a relative phase; they are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DimensionMismatch, UnknownChannel
from .fields import FieldLattice, cell_volume
from .fock import (
    FockSpace,
    OperatorMatrix,
    _group,
    annihilator,
    creator,
    max_residual,
    metric_diagonal,
)
from .modes import CartesianGrid, ModeSet, SphericalShell, orbital_matrices


def _xi_prefactor(omega):
    # 1/omega * sqrt(1 / (2 omega (2 pi)^3)) in natural units
    return 1.0 / (omega ** 1.5 * math.sqrt(2.0 * (2.0 * math.pi) ** 3))


def xi0_from_charge(lattice: FieldLattice, rho) -> np.ndarray:
    """Per-mode scalar coupling of a real charge density sampled on the
    lattice's grid_n^3 points: the Riemann sum of rho exp(-i k.x) with the
    free-space normalization prefactor.  The lattice has already held its
    modes to the box's reciprocal lattice and band limit."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (lattice.grid_n ** 3,):
        raise DimensionMismatch(f"charge samples {rho.shape}, expected ({lattice.grid_n ** 3},)")
    weight = _xi_prefactor(lattice.grid.omega) * cell_volume(lattice)
    return weight * (rho @ lattice.phases.conj())


def _reality_partners(ms: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """Per label, the index of the label whose xi a real charge density ties
    to its conjugate, and the phase: xi[partner] = phase * conj(xi).  On a
    grid the partner is -k with phase 1; on a shell (l, -m) with (-1)^(l+m)."""
    labels = ms.mode_labels()
    if isinstance(ms, CartesianGrid):
        return np.array(ms.negation), np.ones(len(labels))
    index = {label: i for i, label in enumerate(labels)}
    partner = [index[(l, -m)] for l, m in labels]
    return np.array(partner), np.array([(-1.0) ** (l + m) for l, m in labels])


def xi_conjugate_residual(ms: ModeSet, xi: np.ndarray) -> float:
    """Deviation from the reality condition of the underlying charge density."""
    partner, phase = _reality_partners(ms)
    return max_residual(np.abs(xi[partner] - phase * np.conj(xi)))


def _gauge_positions(ms: ModeSet, fs: FockSpace) -> tuple[list[int], list[int]]:
    """Channel positions of every mode's lam = 0 and of its lam = 3 channel."""
    try:
        return tuple([fs.index_of((label, lam)) for label in ms.mode_labels()] for lam in (0, 3))
    except UnknownChannel as exc:
        raise ChannelMismatch(f"constraints need lam = 0 and lam = 3 channels: {exc}") from None


def gb_constraints(ms: ModeSet, fs: FockSpace) -> list[OperatorMatrix]:
    """One free constraint matrix a_3 - a_0 per mode label."""
    return [
        annihilator(fs, fs.channels[p3]) - annihilator(fs, fs.channels[p0])
        for p0, p3 in zip(*_gauge_positions(ms, fs))
    ]


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

    @property
    def quotient(self) -> np.ndarray:
        """Per column, whether it is a quotient representative: indefinite
        norm above 1e-10; the rest are zero-norm directions."""
        return np.abs(self.norm) > 1e-10


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
    fs: FockSpace, kernel: GBKernel, difference: tuple[OperatorMatrix, ...]
) -> tuple[float, float, int]:
    """Gauge hiding of the lifted components of S - S_obs in kernel
    coordinates: per component, the entries M = `kernel_entries`.

    M is Hermitian, and a quotient state c over the representatives reads
    <S - S_obs> = c^dag M c, so the largest |M_ij| between representatives
    vanishes exactly when the difference vanishes on every quotient state,
    and is at most the largest |<S - S_obs>| there.  Returns that largest
    entry, the largest over entries that touch a zero-norm column, which
    states mixing in pure-gauge excitations read and callers report rather
    than assert, and the number of zero-norm columns.
    """
    quotient = kernel.quotient
    hidden, mixed = [], []
    for op in difference:
        i, j, m = kernel_entries(fs, kernel, op)
        both = quotient[i] & quotient[j]
        hidden.append(np.abs(m[both]).max(initial=0.0))
        mixed.append(np.abs(m[~both]).max(initial=0.0))
    return max_residual(hidden), max_residual(mixed), int(np.count_nonzero(~quotient))


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


def xi_source_coefficients(
    ms: SphericalShell, xi: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per component x, y, z, the coefficients (conj(xi) . L, L . xi) of the
    annihilators and creators, over the shell's labels, in the prescribed-source
    bilinear `xi_oam_bilinear`."""
    if not isinstance(ms, SphericalShell):
        raise ChannelMismatch("prescribed-source bilinears use the shell labeling")
    return [(xi.conj() @ gen, gen @ xi) for gen in orbital_matrices(ms.l_max)]


def xi_oam_bilinear(
    ms: SphericalShell, fs: FockSpace, xi: np.ndarray, lam: int
) -> tuple[OperatorMatrix, ...]:
    """Orbital coupling of a prescribed source to one polarization channel.

    Componentwise sum of conj(xi) . L . a_lam plus its metric adjoint, where
    L runs over the shell's orbital generators and xi is the source coupling
    indexed like the shell's labels.  Its one use is decomposition-compare's
    transverse extra term of the Wakamatsu orbital operator, X(lam=1) +
    X(lam=2).
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
