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
`OperatorMatrix.mat` is a `_CSR`: a complex matrix in compressed-sparse-row
order, its entries sorted by (row, col) without duplicates.  Each entry keeps
its row and column beside its value; the row pointers are built the first
time the matrix is the right factor of a product.  Sums and differences keep
an entry only where the result is nonzero, as do products; negation and
scalar multiples keep the pattern.

Every entry of a product adds its terms in increasing inner index k,
starting from 0: the row-wise order of SMMP (Bank & Douglas, Adv. Comput.
Math. 1, 127 (1993)), which is also the order of scipy's csr_matmat and
csr_matvec.  Each term is one complex multiply with every real product and
sum rounded on its own, and the fold is `np.bincount` on the real and
imaginary parts, which adds in input order (`np.sum` and `np.add.reduceat`
switch to pairwise summation above 8 terms).  So residuals agree with a
scipy.sparse evaluation bit for bit.
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
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    labels = np.empty(keys.size, dtype=np.intp)
    labels[order] = np.cumsum(first) - 1
    return ordered[first], labels


class _CSR:
    """Complex sparse matrix; see "Sparse storage" in the module docstring.

    Callers read `nnz`, `data`, `shape`, `toarray()` and `entries()`; the
    stored arrays are shared between matrices and never written.
    """

    __slots__ = ("shape", "data", "_rows", "_cols", "_ptr")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple):
        self.shape = shape
        self.data = data
        self._rows = rows
        self._cols = cols
        self._ptr = None

    @classmethod
    def from_entries(cls, data, rows, cols, shape: tuple) -> "_CSR":
        """Matrix with the given entries; duplicates add in input order."""
        data = np.asarray(data, dtype=complex)
        keys = np.asarray(rows, dtype=np.intp) * shape[1] + np.asarray(cols, dtype=np.intp)
        if np.all(keys[1:] > keys[:-1]):
            return cls._from_keys(shape, keys, data, drop_zeros=False)
        keys, labels = _group(keys)
        sums = np.zeros(keys.size, dtype=complex)
        np.add.at(sums, labels, data)
        return cls._from_keys(shape, keys, sums, drop_zeros=False)

    @classmethod
    def diagonal(cls, values: np.ndarray) -> "_CSR":
        idx = np.arange(values.size)
        return cls(np.asarray(values, dtype=complex), idx, idx, (values.size, values.size))

    @classmethod
    def _from_keys(cls, shape, keys, data, drop_zeros=True) -> "_CSR":
        """From sorted distinct keys row * shape[1] + col."""
        if drop_zeros and not data.all():
            keep = data != 0
            keys, data = keys[keep], data[keep]
        rows = keys // shape[1]
        return cls(data, rows, keys - rows * shape[1], shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self._rows, self._cols] += self.data
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data) of the stored entries in row-major order."""
        return self._rows, self._cols, self.data

    def conj_transpose(self) -> "_CSR":
        order = np.argsort(self._cols, kind="stable")
        return _CSR(
            self.data[order].conj(), self._cols[order], self._rows[order], self.shape[::-1]
        )

    def restrict(self, indices: np.ndarray) -> "_CSR":
        """Block of a square matrix on the rows and columns `indices`, in
        their order."""
        pos = np.full(self.shape[0], -1, dtype=np.intp)
        pos[indices] = np.arange(len(indices))
        rows, cols = pos[self._rows], pos[self._cols]
        keep = (rows >= 0) & (cols >= 0)
        n = len(indices)
        return _CSR.from_entries(self.data[keep], rows[keep], cols[keep], (n, n))

    def _keys(self) -> np.ndarray:
        return self._rows * self.shape[1] + self._cols

    def _combine(self, other: "_CSR", op) -> "_CSR":
        """op(self, other) on the union pattern, a missing entry read as 0."""
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} and {other.shape} differ")
        keys, labels = _group(np.concatenate([self._keys(), other._keys()]))
        left = np.zeros(keys.size, dtype=complex)
        right = np.zeros(keys.size, dtype=complex)
        left[labels[: self.nnz]] = self.data
        right[labels[self.nnz :]] = other.data
        return _CSR._from_keys(self.shape, keys, op(left, right))

    def __add__(self, other: "_CSR") -> "_CSR":
        return self._combine(other, np.add)

    def __sub__(self, other: "_CSR") -> "_CSR":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "_CSR":
        return _CSR(-self.data, self._rows, self._cols, self.shape)

    def __mul__(self, scalar) -> "_CSR":
        if np.ndim(scalar) != 0:
            return NotImplemented
        return _CSR(self.data * scalar, self._rows, self._cols, self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product with a `_CSR`, giving a `_CSR`, or with a vector or a
        (dim x r) array, giving an array."""
        if not isinstance(other, _CSR):
            return self._apply(np.asarray(other))
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if other._ptr is None:
            other._ptr = np.searchsorted(other._rows, np.arange(other.shape[0] + 1))
        n_cols = other.shape[1]
        # one term per (entry (i, j) of self, entry (j, k) of other row j),
        # in the order of self's entries: per (i, k), increasing j
        start = other._ptr[self._cols]
        count = other._ptr[self._cols + 1] - start
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        right = np.repeat(start - ends + count, count)
        right += np.arange(total)
        keys, labels = _group(np.repeat(self._rows * n_cols, count) + other._cols[right])
        re, im = _products(np.repeat(self.data, count), other.data[right])
        sums = _fold(labels, re, im, keys.size)
        return _CSR._from_keys((self.shape[0], n_cols), keys, sums)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {x.shape}")
        x = x.astype(complex, copy=False)
        if x.ndim == 1:
            return _fold(self._rows, *_products(self.data, x[self._cols]), self.shape[0])
        width = x.shape[1]
        labels = (self._rows[:, None] * width + np.arange(width)).ravel()
        re, im = _products(self.data[:, None], x[self._cols])
        out = _fold(labels, re.ravel(), im.ravel(), self.shape[0] * width)
        return out.reshape(self.shape[0], width)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse operator bound to its Fock space (for metric-adjoint bookkeeping)."""

    space: FockSpace
    mat: _CSR

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.space, self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.space, self.mat - other.mat)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.mat)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.mat * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            self._check(other)
            return OperatorMatrix(self.space, self.mat @ other.mat)
        return self.mat @ other

    def _check(self, other: "OperatorMatrix") -> None:
        if self.space is not other.space and self.space != other.space:
            raise DimensionMismatch("operators live on different spaces")

    def metric_adjoint(self) -> "OperatorMatrix":
        eta = metric_diagonal(self.space)
        adj = self.mat.conj_transpose()
        rows, cols, data = adj.entries()
        scaled = _CSR(data * eta[rows] * eta[cols], rows, cols, adj.shape)
        return OperatorMatrix(self.space, scaled)

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()


def zero_operator(fs: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(fs, _CSR.from_entries([], [], [], (fs.dim, fs.dim)))


def identity_operator(fs: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(fs, _CSR.diagonal(np.ones(fs.dim)))


def _jw_parity(fs: FockSpace, src: np.ndarray, lo, hi) -> np.ndarray:
    """(-1)^(occupied channels strictly between positions lo < hi) in the
    states `src`, lo = -1 counting from channel 0; lo and hi may be arrays
    aligned with `src`.  odd[:, k] is the parity of the channels before k."""
    odd = np.zeros((fs.dim, len(fs.channels) + 1), dtype=fs.occ.dtype)
    np.bitwise_xor.accumulate(fs.occ, axis=1, out=odd[:, 1:])
    return np.where(odd[src, hi] ^ odd[src, lo + 1], -1.0, 1.0)


@lru_cache(maxsize=None)
def _lowering(fs: FockSpace, position: int) -> _CSR:
    n = fs.occ[:, position]
    src = np.nonzero(n)[0]
    lowered = fs.occ[src].astype(int)
    lowered[:, position] -= 1
    data = np.sqrt(n[src], dtype=float).astype(complex)
    if fs.fermionic:
        data *= _jw_parity(fs, src, -1, position)
    return _CSR.from_entries(data, fs.locate(lowered), src, (fs.dim, fs.dim))


def annihilator(fs: FockSpace, channel) -> OperatorMatrix:
    """Standard lowering matrix on the channel's factor."""
    return OperatorMatrix(fs, _lowering(fs, fs.index_of(channel)))


def creator(fs: FockSpace, channel) -> OperatorMatrix:
    """Metric-adjoint creation operator (sign-flipped on the scalar channel)."""
    j = fs.index_of(channel)
    return OperatorMatrix(fs, fs.signs[j] * _lowering(fs, j).conj_transpose())


@lru_cache(maxsize=None)
def metric_diagonal(fs: FockSpace) -> np.ndarray:
    """Diagonal of eta = (-1)^(total occupation of sign -1 channels)."""
    scalar = fs.occ[:, np.array(fs.signs) < 0]
    eta = np.where(scalar.sum(axis=1) % 2, -1.0, 1.0)
    eta.setflags(write=False)
    return eta


def metric_operator(fs: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(fs, _CSR.diagonal(metric_diagonal(fs)))


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


def lift_bilinear(fs: FockSpace, form: QuadraticForm) -> OperatorMatrix:
    """Normal-ordered lift sum_{ab} creator_a M[a,b] annihilator_b.

    Each nonzero M[a,b] moves one quantum from channel b to channel a in
    every state with n_b > 0 (and n_a < n_max when a != b), with amplitude
    sign_a * M[a,b] * sqrt(n_a + 1) * sqrt(n_b), n_a counted after the
    lowering.  On a fermionic space each off-diagonal entry also carries the
    parity of the channels strictly between a and b.

    The off-diagonal entries are built in one vectorized pass: the nonzeros
    of the (pairs x dim) mask of states that admit the move give every
    (pair, source state), pair-major, and one `locate` ranks all targets.
    Distinct moves from one source reach distinct targets, none of them the
    source, so every off-diagonal entry has its own (row, col): no value is
    a sum, and each equals the one the per-pair loop computed.  Diagonal
    terms are summed per channel, in the order of M's nonzeros.
    """
    m = form.matrix
    n_ch = len(fs.channels)
    if m.shape != (n_ch, n_ch):
        raise DimensionMismatch(f"form is {m.shape}, space has {n_ch} channels")
    if form.signs != fs.signs:
        raise DimensionMismatch("form channel signs disagree with the space")
    occ = fs.occ.T
    a, b = np.nonzero(m)
    on = a == b
    diag = np.zeros(fs.dim, dtype=complex)
    for j in a[on]:
        src = np.nonzero(occ[j])[0]
        root = np.sqrt(occ[j, src], dtype=float)
        # sqrt(n) * sqrt(n), not n: the entry equals the ladder product's
        diag[src] += (m[j, j] * fs.signs[j] * root) * root
    a, b = a[~on], b[~on]
    coef = m[a, b] * np.array(fs.signs)[a]
    pair, src = np.nonzero((occ > 0)[b] & (occ < fs.n_max)[a])
    a, b = a[pair], b[pair]
    amp = (coef[pair] * np.sqrt(occ[a, src] + 1.0)) * np.sqrt(occ[b, src], dtype=float)
    if fs.fermionic:
        amp *= _jw_parity(fs, src, np.minimum(a, b), np.maximum(a, b))
    moved, rows = fs.occ[src].astype(int), np.arange(src.size)
    moved[rows, a] += 1
    moved[rows, b] -= 1
    on_diag = np.nonzero(diag)[0]
    mat = _CSR.from_entries(
        np.concatenate([amp, diag[on_diag]]),
        np.concatenate([fs.locate(moved), on_diag]),
        np.concatenate([src, on_diag]),
        (fs.dim, fs.dim),
    )
    return OperatorMatrix(fs, mat)


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


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


def max_abs(op: OperatorMatrix | np.ndarray) -> float:
    """Largest absolute entry; the residual norm used throughout the suites.
    NaN if any entry is NaN."""
    arr = op.mat.data if isinstance(op, OperatorMatrix) else np.asarray(op)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def max_residual(residuals) -> float:
    """Largest of the residuals, NaN if any is NaN, 0.0 for none.

    Used in place of a running max(worst, x), which drops a NaN x.
    """
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def compress(op: OperatorMatrix, indices: np.ndarray) -> np.ndarray:
    """Dense restriction of the operator to the given basis indices."""
    return op.mat.restrict(indices).toarray()

