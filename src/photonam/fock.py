"""Truncated Fock spaces with per-channel metric signs and bilinear lifts.

Basis order
-----------
A space over channels (c_0, ..., c_{C-1}) with per-channel cap n_max and an
optional total-occupation cap max_total keeps the occupation tuples with
n_j <= n_max and n_0 + ... + n_{C-1} <= max_total (excitation-number-
restricted, as in QuTiP's `enr_fock`; Johansson, Nation & Nori, Comput.
Phys. Commun. 184, 1234 (2013)) as the rows of its read-only table `occ`, in
channel-major lexicographic order: channel 0 most significant, index 0 the
vacuum, and without a total cap the full product basis.  Basis index i is
the rank of row i.  One table of bounded-composition counts builds `occ` and
ranks any kept tuple (`locate`), so ladders and lifts find a shifted tuple
by its rank, whatever (n_max+1)^C is.  Occupations are the columns of `occ`,
and the metric diagonal and total occupation are column sums.

Metric realization
------------------
Channels are labeled (mode_label, lam).  The annihilator of every channel is
the standard lowering matrix on that channel's factor.  The creator is the
metric adjoint of the annihilator: the plain conjugate transpose on sign +1
channels (lam = 1, 2, 3) and the NEGATIVE of the conjugate transpose on the
sign -1 scalar channel (lam = 0).  With eta = (-1)^(total scalar occupation)
this equals eta a^H eta for every channel, and the single-channel commutator
is [a, creator] = channel_sign * identity away from the truncation edge.

Statistics
----------
A fermionic space (`build_fock(..., fermionic=True)`) has n_max = 1 and every
sign +1; its order is that of a Kronecker product with channel 0 leftmost.
Its ladders and lifts follow the Jordan-Wigner convention (Jordan & Wigner,
Z. Phys. 47, 631 (1928)): the lowering matrix of channel j carries the
parity of the occupied channels among 0..j-1, and each off-diagonal entry of
a lift the parity of the occupied channels strictly between the two it
connects, both counted on the table's rows.  That parity is the only rule
that differs from the bosonic case, so both share one basis, one ladder and
one lift.

Truncation policy
-----------------
Commutator identities for normal-ordered bilinears are exact on the subspace
of total occupation <= n_max - 1 (in fact <= n_max); the residual outside it
is reported by the suites, never asserted.  A total cap is a second
truncation edge.  Every operator on a capped space is the product-space
operator restricted to the kept tuples: lowering and number-conserving lifts
never leave the space, and a creator drops the states it would push past the
cap.  So a product of two operators that each change the total occupation by
at most one is exact on the block of total occupation <= max_total - 1, and a
product of number-conserving lifts is exact on the whole capped space.  On a
fermionic space the total cap is a fermion-number cap, and checks built from
lifts alone are exact at any cap.

Sparse storage
--------------
There is one sparse type, `OperatorMatrix`: a complex (dim x dim) matrix
bound to its `FockSpace` (as QuTiP's `Qobj` carries its dimensions beside its
data), in compressed-sparse-row order, its entries sorted by (row, col)
without duplicates.  Each entry keeps its row and column beside its value;
the start and length of each row are built the first time the operator is
the right factor of a product.  Sums and differences keep an entry only
where the result is nonzero, as do products and commutators; negation and
scalar multiples keep the pattern.  Every operation between operators makes
one operand check, on the spaces (the same object, else equal), and raises
DimensionMismatch otherwise; a vector or (dim x r) block operand of `@` is
checked for its length.

Every entry of a product adds its terms in increasing inner index k,
starting from 0: the row-wise order of SMMP (Bank & Douglas, Adv. Comput.
Math. 1, 127 (1993)), which is also the order of scipy's csr_matmat and
csr_matvec.  Each term is one complex multiply with every real product and
sum rounded on its own, and the fold is `np.bincount` on the real and
imaginary parts, which adds in input order (`np.sum` and `np.add.reduceat`
switch to pairwise summation above 8 terms).  So residuals agree with a
scipy.sparse evaluation bit for bit.

`commutator(a, b, c)` = [a, b] - c is one pass: the terms of A B and of B A
(the generator `__matmul__` uses) and the entries of C are grouped by one
sort onto their union pattern, each product is folded on its own there as
above, and A B - B A - C is taken entry by entry.  So every entry equals
the one a scipy.sparse `A @ B - B @ A - C` stores.

`lift_forms` lifts a stack of forms on one space in one pass.  The forms
share the union of their off-diagonal patterns, the (pair, source state)
entries that admit each move, the ranks of the target states, the
amplitude factors sqrt(n_a + 1) sqrt(n_b) and one sort of the (row, col)
keys; per form only its amplitudes and the entries where M[a, b] != 0 are
taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    UnknownChannel,
    ZeroNormState,
)
from .modes import channel_sign

DEFAULT_DIM_CAP = 1 << 20
TABLE_CAP_FACTOR = 16  # occupation-table entries per unit of dim_cap (`space_dim`)


@dataclass(frozen=True)
class FockSpace:
    """Occupation basis over labeled channels with metric signs.

    `occ` is the read-only (dim x #channels) occupation table, `_ranks` the
    table `locate` reads; `max_total` is the total-occupation cap, equal to
    n_max * #channels for the full product basis.  `fermionic` selects
    Jordan-Wigner statistics and is part of the equality (and so of the
    `_lowering` cache key).
    """

    channels: tuple
    n_max: int
    signs: tuple
    max_total: int
    occ: np.ndarray = field(compare=False, repr=False)
    fermionic: bool
    _ranks: np.ndarray = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.occ.shape[0]

    def index_of(self, channel) -> int:
        try:
            return self.channels.index(channel)
        except ValueError:
            raise UnknownChannel(f"channel {channel!r} not in space") from None

    def locate(self, occ: np.ndarray) -> np.ndarray:
        """Basis indices of occupation rows (last axis over the channels),
        each a tuple the space keeps: sum_j _ranks[j, n_0 + ... + n_j], in one
        gather; the prefix sums are intp, whatever the rows' dtype."""
        prefix = np.cumsum(occ, axis=-1, dtype=np.intp)
        return self._ranks[np.arange(len(self.channels)), prefix].sum(axis=-1)

    def total_occupation(self) -> np.ndarray:
        return self.occ.sum(axis=1, dtype=int)

    def bounded_indices(self, max_total: int) -> np.ndarray:
        return np.nonzero(self.total_occupation() <= max_total)[0]

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def basis_state(self, occupations: dict) -> np.ndarray:
        """Unit vector with the given channel -> occupation assignment."""
        row = np.zeros(len(self.channels), dtype=int)
        for ch, n in occupations.items():
            row[self.index_of(ch)] = n
        if row.min() < 0 or row.max() > self.n_max or row.sum() > self.max_total:
            raise DimensionMismatch(f"occupations {occupations} are not a state of the space")
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.locate(row)] = 1.0
        return psi


def space_dim(n_channels: int, n_max: int, max_total: int, dim_cap: int) -> int:
    """Number of tuples over n_channels with every n_j <= n_max and sum <=
    max_total, counted without allocating anything: inclusion-exclusion over
    the channels forced above n_max, with a slack channel absorbing
    max_total - sum.  DimensionCapExceeded when it exceeds dim_cap, or when
    the occupation table of dim x n_channels entries exceeds
    TABLE_CAP_FACTOR * dim_cap: at one byte per entry (n_max < 256), the
    size of one complex vector of dim_cap amplitudes."""
    dim = sum(
        (-1) ** k
        * comb(n_channels, k)
        * comb(max_total - k * (n_max + 1) + n_channels, n_channels)
        for k in range(min(n_channels, max_total // (n_max + 1)) + 1)
    )
    if dim > dim_cap:
        raise DimensionCapExceeded(
            f"dim {dim} (total occupation <= {max_total}) exceeds cap {dim_cap}"
        )
    if dim * n_channels > TABLE_CAP_FACTOR * dim_cap:
        raise DimensionCapExceeded(
            f"occupation table {dim} x {n_channels} exceeds cap"
            f" {TABLE_CAP_FACTOR * dim_cap} entries"
        )
    return dim


@lru_cache(maxsize=None)
def _basis(n_channels: int, n_max: int, max_total: int, dim: int) -> tuple:
    """The read-only occupation and rank tables of a space.

    counts[r, n_max + t] counts the tuples over r channels with every
    n_j <= n_max and sum <= t (0 for t < 0).  In column j, the rows sharing
    channels 0..j-1 leave a budget b of T = max_total, and value v repeats
    counts[C-1-j, n_max + b - v] times.  The tuples before n that first
    differ from it at channel j number P_j(T - p_j) - P_j(T - p_j - n_j),
    with p_j = n_0 + ... + n_{j-1} and P_j the running sum of counts[C-1-j];
    regrouped by prefix sums, rank(n) = sum_j ranks[j, p_{j+1}].
    """
    counts = np.zeros((n_channels, n_max + max_total + 1), dtype=np.int64)
    counts[0, n_max:] = 1
    for r in range(1, n_channels):
        np.cumsum(counts[r - 1], out=counts[r])
        counts[r, n_max + 1 :] -= counts[r, : -n_max - 1]
    occ = np.empty((dim, n_channels), dtype=np.min_scalar_type(n_max))
    values = np.arange(n_max + 1)
    budgets = np.array([n_max + max_total])  # offset by n_max, like counts
    for j in range(n_channels):
        left = budgets[:, None] - values
        sizes = counts[n_channels - 1 - j, left].ravel()
        occ[:, j] = np.repeat((budgets[:, None] - left).ravel(), sizes)
        budgets = left.ravel()[sizes > 0]
    prefix = np.cumsum(counts[::-1, n_max:], axis=1)
    # gain[j, s] = P_j(T - s) - P_j(T); ranks[j] = gain[j + 1] - gain[j]
    gain = prefix[:, ::-1] - prefix[:, -1:]
    ranks = np.diff(gain, axis=0, append=0)
    occ.setflags(write=False)
    ranks.setflags(write=False)
    return occ, ranks


def build_fock(
    channels,
    n_max: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    max_total: int | None = None,
    fermionic: bool = False,
) -> FockSpace:
    """Build a space over (mode_label, lam) channels.

    Signs derive from the lam part of each channel label; a fermionic space
    needs n_max = 1 and has every sign +1 (its labels carry no lam).  Without
    `max_total` the basis is the full product of per-channel occupations
    0..n_max; with it, only tuples of total occupation <= max_total are kept.
    The dimension and the table are counted before anything is allocated
    (`space_dim`).
    """
    channels = tuple(tuple(ch) if isinstance(ch, list) else ch for ch in channels)
    if len(channels) < 1:
        raise DimensionMismatch("need at least one channel")
    if len(set(channels)) != len(channels):
        raise DimensionMismatch("channel labels must be unique")
    if n_max < 1:
        raise DimensionMismatch("n_max must be >= 1")
    if fermionic and n_max != 1:
        raise DimensionMismatch("fermionic spaces have n_max = 1")
    if max_total is not None and max_total < 0:
        raise DimensionMismatch("max_total must be >= 0")
    n_ch = len(channels)
    cap = n_max * n_ch if max_total is None else min(max_total, n_max * n_ch)
    dim = space_dim(n_ch, n_max, cap, dim_cap)
    signs = (1,) * n_ch if fermionic else tuple(channel_sign(ch[1]) for ch in channels)
    occ, ranks = _basis(n_ch, n_max, cap, dim)
    return FockSpace(
        channels=channels,
        n_max=n_max,
        signs=signs,
        max_total=cap,
        occ=occ,
        fermionic=fermionic,
        _ranks=ranks,
    )


def _products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a * b for complex a, b, each rounded once
    per operation as in scipy.sparse's complex type (numpy's own complex
    multiply may fuse a multiply and an add)."""
    re = a.real * b.real
    re -= a.imag * b.imag
    im = a.real * b.imag
    im += a.imag * b.real
    return re, im


def _fold(labels: np.ndarray, re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """Per label 0..n-1, 0 + the terms with that label, in input order."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(labels, re, n)
    out.imag = np.bincount(labels, im, n)
    return out


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys, and for each input key the index of its own."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    rank = first.cumsum()
    rank -= 1
    labels = np.empty(keys.size, dtype=np.intp)
    labels[order] = rank
    return ordered[first], labels


class OperatorMatrix:
    """Complex sparse operator on a Fock space; see "Sparse storage" in the
    module docstring.

    Callers read `space`, `shape`, `nnz`, `data`, `to_dense()` and
    `entries()`; the stored arrays are shared between operators and never
    written.
    """

    __slots__ = ("space", "data", "_rows", "_cols", "_ptr")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, space: FockSpace, data: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.space = space
        self.data = data
        self._rows = rows
        self._cols = cols
        self._ptr = None

    @classmethod
    def from_entries(cls, space: FockSpace, data, rows, cols) -> "OperatorMatrix":
        """Operator with the given entries; duplicates add in input order."""
        data = np.asarray(data, dtype=complex)
        keys = np.asarray(rows, dtype=np.intp) * space.dim + np.asarray(cols, dtype=np.intp)
        if np.all(keys[1:] > keys[:-1]):
            return cls._from_keys(space, keys, data, drop_zeros=False)
        keys, labels = _group(keys)
        sums = _fold(labels, data.real, data.imag, keys.size)
        return cls._from_keys(space, keys, sums, drop_zeros=False)

    @classmethod
    def diagonal(cls, space: FockSpace, values: np.ndarray) -> "OperatorMatrix":
        idx = np.arange(space.dim)
        return cls(space, np.asarray(values, dtype=complex), idx, idx)

    @classmethod
    def _from_keys(cls, space, keys, data, drop_zeros=True) -> "OperatorMatrix":
        """From sorted distinct keys row * dim + col."""
        if drop_zeros and not data.all():
            keep = data != 0
            keys, data = keys[keep], data[keep]
        rows, cols = np.divmod(keys, space.dim)
        return cls(space, data, rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.space.dim, self.space.dim)

    @property
    def nnz(self) -> int:
        return self.data.size

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self._rows, self._cols] += self.data
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data) of the stored entries in row-major order."""
        return self._rows, self._cols, self.data

    def conj_transpose(self) -> "OperatorMatrix":
        order = np.argsort(self._cols, kind="stable")
        return OperatorMatrix(
            self.space, self.data[order].conj(), self._cols[order], self._rows[order]
        )

    def metric_adjoint(self) -> "OperatorMatrix":
        """eta O^H eta, entry for entry."""
        eta = metric_diagonal(self.space)
        rows, cols, data = self.conj_transpose().entries()
        return OperatorMatrix(self.space, data * eta[rows] * eta[cols], rows, cols)

    def _check(self, other: "OperatorMatrix") -> None:
        """The one operand check of every operator-against-operator operation."""
        if self.space is not other.space and self.space != other.space:
            raise DimensionMismatch("operators live on different spaces")

    def _keys(self) -> np.ndarray:
        return self._rows * self.space.dim + self._cols

    def _combine(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        """op(self, other) on the union pattern, a missing entry read as 0."""
        self._check(other)
        keys, labels = _group(np.concatenate([self._keys(), other._keys()]))
        left = np.zeros(keys.size, dtype=complex)
        right = np.zeros(keys.size, dtype=complex)
        left[labels[: self.nnz]] = self.data
        right[labels[self.nnz :]] = other.data
        return OperatorMatrix._from_keys(self.space, keys, op(left, right))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.data, self._rows, self._cols)

    def __mul__(self, scalar) -> "OperatorMatrix":
        if np.ndim(scalar) != 0:
            return NotImplemented
        return OperatorMatrix(self.space, self.data * scalar, self._rows, self._cols)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product with an operator, giving an operator, or with a vector or
        a (dim x r) array, giving an array."""
        if not isinstance(other, OperatorMatrix):
            return self._apply(np.asarray(other))
        self._check(other)
        keys, re, im = self._terms(other)
        keys, labels = _group(keys)
        sums = _fold(labels, re, im, keys.size)
        return OperatorMatrix._from_keys(self.space, keys, sums)

    def commutator(
        self, other: "OperatorMatrix", minus: "OperatorMatrix | None" = None
    ) -> "OperatorMatrix":
        """self @ other - other @ self - minus (minus None: 0), in one
        grouping of the terms of both products and the entries of minus;
        each product is folded on its own."""
        self._check(other)
        keys_ab, *ab = self._terms(other)
        keys_ba, *ba = other._terms(self)
        parts = [keys_ab, keys_ba]
        if minus is not None:
            self._check(minus)
            parts.append(minus._keys())
        keys, labels = _group(np.concatenate(parts))
        n_ab, n_terms = keys_ab.size, keys_ab.size + keys_ba.size
        out = _fold(labels[:n_ab], *ab, keys.size)
        out -= _fold(labels[n_ab:n_terms], *ba, keys.size)
        if minus is not None:
            scattered = np.zeros(keys.size, dtype=complex)
            scattered[labels[n_terms:]] = minus.data
            out -= scattered
        return OperatorMatrix._from_keys(self.space, keys, out)

    def _terms(self, other: "OperatorMatrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys row * dim + col and real and imaginary parts of the terms of
        self @ other: one per (entry (i, j) of self, entry (j, k) of other
        row j), in the order of self's entries, so per (i, k) increasing j."""
        dim = self.space.dim
        if other._ptr is None:
            ptr = np.searchsorted(other._rows, np.arange(dim + 1))
            other._ptr = (ptr[:-1], ptr[1:] - ptr[:-1])
        start, count = (row[self._cols] for row in other._ptr)
        ends = count.cumsum()
        total = int(ends[-1]) if ends.size else 0
        right = (start - ends + count).repeat(count)
        right += np.arange(total)
        keys = (self._rows * dim).repeat(count) + other._cols[right]
        re, im = _products(self.data.repeat(count), other.data[right])
        return keys, re, im

    def _apply(self, x: np.ndarray) -> np.ndarray:
        dim = self.space.dim
        if x.ndim not in (1, 2) or x.shape[0] != dim:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {x.shape}")
        x = x.astype(complex, copy=False)
        if x.ndim == 1:
            return _fold(self._rows, *_products(self.data, x[self._cols]), dim)
        width = x.shape[1]
        labels = (self._rows[:, None] * width + np.arange(width)).ravel()
        re, im = _products(self.data[:, None], x[self._cols])
        out = _fold(labels, re.ravel(), im.ravel(), dim * width)
        return out.reshape(dim, width)


def identity_operator(fs: FockSpace) -> OperatorMatrix:
    return OperatorMatrix.diagonal(fs, np.ones(fs.dim))


def _jw_parity(fs: FockSpace, src: np.ndarray, lo, hi) -> np.ndarray:
    """(-1)^(occupied channels strictly between positions lo < hi) in the
    states `src`, lo = -1 counting from channel 0; lo and hi may be arrays
    aligned with `src`.  odd[:, k] is the parity of the channels before k."""
    odd = np.zeros((fs.dim, len(fs.channels) + 1), dtype=fs.occ.dtype)
    np.bitwise_xor.accumulate(fs.occ, axis=1, out=odd[:, 1:])
    return np.where(odd[src, hi] ^ odd[src, lo + 1], -1.0, 1.0)


@lru_cache(maxsize=None)
def _lowering(fs: FockSpace, position: int) -> OperatorMatrix:
    n = fs.occ[:, position]
    src = np.nonzero(n)[0]
    lowered = fs.occ[src].astype(int)
    lowered[:, position] -= 1
    data = np.sqrt(n[src], dtype=float).astype(complex)
    if fs.fermionic:
        data *= _jw_parity(fs, src, -1, position)
    return OperatorMatrix.from_entries(fs, data, fs.locate(lowered), src)


def annihilator(fs: FockSpace, channel) -> OperatorMatrix:
    """Standard lowering matrix on the channel's factor."""
    return _lowering(fs, fs.index_of(channel))


def creator(fs: FockSpace, channel) -> OperatorMatrix:
    """Metric-adjoint creation operator (sign-flipped on the scalar channel)."""
    j = fs.index_of(channel)
    return fs.signs[j] * _lowering(fs, j).conj_transpose()


@lru_cache(maxsize=None)
def metric_diagonal(fs: FockSpace) -> np.ndarray:
    """Diagonal of eta = (-1)^(total occupation of sign -1 channels)."""
    scalar = fs.occ[:, np.array(fs.signs) < 0]
    eta = np.where(scalar.sum(axis=1) % 2, -1.0, 1.0)
    eta.setflags(write=False)
    return eta


def metric_operator(fs: FockSpace) -> OperatorMatrix:
    return OperatorMatrix.diagonal(fs, metric_diagonal(fs))


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Single-particle matrix over channels plus the channel-sign diagonal."""

    matrix: np.ndarray
    signs: tuple

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("quadratic form matrix must be square")
        if m.shape[0] != len(self.signs):
            raise DimensionMismatch("form size does not match sign vector")
        object.__setattr__(self, "matrix", m)

    @property
    def g(self) -> np.ndarray:
        return np.diag(np.array(self.signs, dtype=float))

    def bracket(self, other: "QuadraticForm") -> "QuadraticForm":
        """Form-level commutator image M G N - N G M."""
        if self.signs != other.signs:
            raise DimensionMismatch("forms carry different channel signs")
        g = self.g
        m = self.matrix @ g @ other.matrix - other.matrix @ g @ self.matrix
        return QuadraticForm(m, self.signs)


def lift_forms(fs: FockSpace, forms) -> tuple[OperatorMatrix, ...]:
    """Normal-ordered lifts sum_{ab} creator_a M[a,b] annihilator_b of a
    stack of forms M over the space's channels, in its channel signs.

    Each nonzero M[a,b] moves one quantum from channel b to channel a in
    every state with n_b > 0 (and n_a < n_max when a != b), with amplitude
    sign_a * M[a,b] * sqrt(n_a + 1) * sqrt(n_b), n_a counted after the
    lowering.  On a fermionic space each off-diagonal entry also carries the
    parity of the channels strictly between a and b.

    The off-diagonal entries of the whole stack come from one pass over the
    union of its off-diagonal patterns: the nonzeros of the (pairs x dim)
    mask of states that admit the move give every (pair, source state),
    pair-major, and the targets are ranked column by column from the source
    rows, the moved quantum added as a per-pair step.  Distinct moves from
    one source reach distinct targets, none of them the source, so every
    off-diagonal entry has its own (row, col), and one sort of the keys
    orders every form's entries and diagonal.  Per form, the entries where
    M[a,b] != 0 are kept, each the value the per-pair loop computes;
    diagonal terms are summed per channel in increasing channel order.
    """
    n_ch = len(fs.channels)
    ms = np.asarray(forms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1:] != (n_ch, n_ch):
        raise DimensionMismatch(f"forms are {ms.shape[1:]}, space has {n_ch} channels")
    dim, occ = fs.dim, fs.occ.T
    occupied, roots, signs = occ > 0, np.sqrt(occ, dtype=float), np.array(fs.signs)
    nonzero = ms != 0
    union = nonzero.any(axis=0)
    on = union.diagonal().nonzero()[0]
    diags = np.zeros((len(ms), dim), dtype=complex)
    for j, weight in zip(on.tolist(), (ms[:, on, on] * signs[on]).T):
        # sqrt(n) * sqrt(n), not n: the entry equals the ladder product's;
        # added only where n > 0, so a non-finite M[j, j] touches no other state
        term = (weight[:, None] * roots[j]) * roots[j]
        np.add(diags, term, out=diags, where=occupied[j])
    on_diag = diags.any(axis=0).nonzero()[0]
    np.fill_diagonal(union, False)
    a, b = union.nonzero()
    pair, src = (occupied[b] & (occ < fs.n_max)[a]).nonzero()
    root_a = np.sqrt(occ[a[pair], src] + 1.0)
    root_b = roots[b[pair], src]
    step = np.zeros((n_ch, a.size), dtype=np.intp)
    step[a, np.arange(a.size)] = 1
    step[b, np.arange(a.size)] = -1
    # target ranks sum_j _ranks[j, p_j], p_j the target's running prefix sum
    # over channels 0..j, taken column by column from the source rows
    prefix = np.zeros(src.size, dtype=np.intp)
    targets = np.zeros(src.size, dtype=np.intp)
    for j in range(n_ch):
        prefix += occ[j, src]
        prefix += step[j, pair]
        targets += fs._ranks[j, prefix]
    rows, cols = np.concatenate([targets, on_diag]), np.concatenate([src, on_diag])
    order = (rows * dim + cols).argsort(kind="stable")
    keeps = np.concatenate([nonzero[:, a, b][:, pair], diags[:, on_diag] != 0], axis=1)[:, order]
    coef = ms[:, a, b] * signs[a]
    parity = None
    if fs.fermionic:
        parity = _jw_parity(fs, src, np.minimum(a, b)[pair], np.maximum(a, b)[pair])
    # free the per-entry scratch before the per-form loop allocates its arrays
    del prefix, step, targets, occupied, roots, union
    lifted = []
    for c, diag, keep in zip(coef, diags, keeps):
        amp = (c[pair] * root_a) * root_b
        if parity is not None:
            amp *= parity
        sel = order[keep]
        data = np.concatenate([amp, diag[on_diag]])[sel]
        lifted.append(OperatorMatrix(fs, data, rows[sel], cols[sel]))
    return tuple(lifted)


def indefinite_inner(fs: FockSpace, phi: np.ndarray, psi: np.ndarray) -> complex:
    """phi^dag eta psi."""
    if phi.shape != (fs.dim,) or psi.shape != (fs.dim,):
        raise DimensionMismatch("state vectors must match the space dimension")
    return complex(np.vdot(phi, metric_diagonal(fs) * psi))


def expectation(fs: FockSpace, op: OperatorMatrix, psi: np.ndarray) -> complex:
    """(psi^dag eta O psi) / (psi^dag eta psi); ZeroNormState if the norm vanishes."""
    denom = indefinite_inner(fs, psi, psi)
    scale = float(np.vdot(psi, psi).real)
    if scale == 0.0 or abs(denom) <= 1e-12 * scale:
        raise ZeroNormState("indefinite norm vanishes (pure gauge excitation)")
    return indefinite_inner(fs, psi, op @ psi) / denom


def commutator(
    a: OperatorMatrix, b: OperatorMatrix, c: OperatorMatrix | None = None
) -> OperatorMatrix:
    """[a, b] - c, or [a, b] without c, in one pass (`OperatorMatrix.commutator`)."""
    return a.commutator(b, c)


def max_abs(op: OperatorMatrix | np.ndarray) -> float:
    """Largest absolute entry; the residual norm used throughout the suites.
    NaN if any entry is NaN."""
    arr = op.data if isinstance(op, OperatorMatrix) else np.asarray(op)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def max_residual(residuals) -> float:
    """Largest of the residuals, NaN if any is NaN, 0.0 for none.

    Used in place of a running max(worst, x), which drops a NaN x.
    """
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def compress(op: OperatorMatrix, indices: np.ndarray) -> np.ndarray:
    """Dense restriction of the operator to the given basis indices, in
    their order: the kept entries scattered into the (n x n) block."""
    n = len(indices)
    pos = np.full(op.space.dim, -1, dtype=np.intp)
    pos[indices] = np.arange(n)
    rows, cols = pos[op._rows], pos[op._cols]
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((n, n), dtype=complex)
    out[rows[keep], cols[keep]] += op.data[keep]
    return out

