"""The CSR kernel of `OperatorMatrix` against scipy.sparse as an oracle.

Every operation must give the same dense result and the same stored pattern
as scipy.sparse, bit for bit: products add their terms in the same order,
and the one-pass commutator [A, B] - C stores what `A @ B - B @ A - C` does.
`commutator_residuals` reads max_abs of many commutators in one pass and is
held to `max_abs(commutator(a, b, c))` as float hex.
The operators live on one-channel spaces of n states (`space(n)`).
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from photonam.errors import DimensionMismatch
from photonam.fock import (
    OperatorMatrix,
    build_fock,
    commutator,
    commutator_residuals,
    compress,
    identity_operator,
    max_abs,
    max_residual,
)
from photonam.operators import ALG_SU2
from photonam.suites import _claim_brackets


@lru_cache(maxsize=None)
def space(n):
    """One channel, total occupation <= n - 1: n states."""
    return build_fock([("k", 1)], n, max_total=n - 1)


def random_pair(rng, n, density):
    """(operator on space(n), scipy csr matrix) with the same random complex
    entries."""
    shape = (n, n)
    mask = rng.random(shape) < density
    dense = np.where(mask, rng.normal(size=shape) + 1j * rng.normal(size=shape), 0)
    rows, cols = np.nonzero(dense)
    return (
        OperatorMatrix.from_entries(space(n), dense[rows, cols], rows, cols),
        sparse.csr_matrix((dense[rows, cols], (rows, cols)), shape=shape),
    )


def assert_same(got: OperatorMatrix, want) -> None:
    """Same shape, same stored (row, col) pattern and bit-equal values."""
    want = sparse.csr_matrix(want)
    want.sort_indices()
    coo = want.tocoo()
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    rows, cols, data = got.entries()
    np.testing.assert_array_equal(rows, coo.row)
    np.testing.assert_array_equal(cols, coo.col)
    np.testing.assert_array_equal(data, coo.data)
    np.testing.assert_array_equal(got.to_dense(), want.toarray())


SHAPES = [(1, 1), (5, 5), (7, 7), (9, 9), (30, 30)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("density", [0.0, 0.2, 0.7])
def test_elementwise_ops_match_scipy(shape, density):
    rng = np.random.default_rng(hash((shape, density)) % 2**32)
    a, sa = random_pair(rng, shape[0], density)
    b, sb = random_pair(rng, shape[0], density)
    assert_same(a, sa)
    assert_same(a + b, sa + sb)
    assert_same(a - b, sa - sb)
    assert_same(a - a, sa - sa)
    assert_same(-a, -sa)
    assert_same(a * (0.3 - 1.7j), sa * (0.3 - 1.7j))
    assert_same(np.complex128(2.5j) * a, np.complex128(2.5j) * sa)
    assert_same(-1 * a, -1 * sa)
    assert_same(a.conj_transpose(), sa.conj().T)


@pytest.mark.parametrize("inner", [1, 6, 25])
@pytest.mark.parametrize("density", [0.0, 0.3, 0.9])
def test_products_match_scipy(inner, density):
    rng = np.random.default_rng(inner * 10 + int(10 * density))
    a, sa = random_pair(rng, inner, density)
    b, sb = random_pair(rng, inner, density)
    assert_same(a @ b, sa @ sb)
    for x in (rng.normal(size=inner) + 1j * rng.normal(size=inner), rng.normal(size=inner)):
        got = a @ x
        assert got.shape == (sa @ x).shape
        np.testing.assert_array_equal(got, sa @ x)


@pytest.mark.parametrize("n", [1, 5, 30])
@pytest.mark.parametrize("density", [0.0, 0.2, 0.7])
def test_commutator_kernel_matches_scipy(n, density):
    rng = np.random.default_rng(n * 10 + int(10 * density))
    a, sa = random_pair(rng, n, density)
    b, sb = random_pair(rng, n, density)
    c, sc = random_pair(rng, n, density)
    assert_same(commutator(a, b), sa @ sb - sb @ sa)
    assert_same(commutator(a, b, c), sa @ sb - sb @ sa - sc)
    assert_same(commutator(b, a, b), sb @ sa - sa @ sb - sb)
    # exact cancellation: [A, A] and [A, B] - [A, B] store nothing
    assert commutator(a, a).nnz == (sa @ sa - sa @ sa).nnz == 0
    assert commutator(a, b, commutator(a, b)).nnz == 0


def test_commutator_folds_long_rows_in_scipy_order():
    rng = np.random.default_rng(8)
    a, sa = random_pair(rng, 40, 1.0)
    scale = (10.0 ** rng.integers(-8, 8, size=40)).astype(complex)
    b = OperatorMatrix.diagonal(space(40), scale) @ random_pair(rng, 40, 1.0)[0]
    sb = sparse.csr_matrix(b.to_dense())
    c, sc = random_pair(rng, 40, 0.5)
    assert_same(commutator(a, b), sa @ sb - sb @ sa)
    assert_same(commutator(a, b, c), sa @ sb - sb @ sa - sc)


def test_long_rows_fold_in_scipy_order():
    # rows of 40 terms: pairwise summation (used by np.sum above 8 terms)
    # would round differently from the sequential fold
    rng = np.random.default_rng(7)
    a, sa = random_pair(rng, 40, 1.0)
    b, sb = random_pair(rng, 40, 1.0)
    scale = 10.0 ** rng.integers(-8, 8, size=40)
    b = OperatorMatrix.diagonal(space(40), scale.astype(complex)) @ b
    sb = sparse.diags(scale.astype(complex)).tocsr() @ sb
    assert_same(a @ b, sa @ sb)
    x = rng.normal(size=40) * scale
    np.testing.assert_array_equal(a @ x, sa @ x)


def test_empty_and_zero_rows():
    empty = OperatorMatrix.from_entries(space(4), [], [], [])
    sempty = sparse.csr_matrix((4, 4), dtype=complex)
    rng = np.random.default_rng(3)
    a, sa = random_pair(rng, 4, 0.8)
    keep = np.array([0, 2])  # rows 1 and 3 all zero
    rows, cols, data = a.entries()
    sel = np.isin(rows, keep)
    z = OperatorMatrix.from_entries(space(4), data[sel], rows[sel], cols[sel])
    sz = sparse.csr_matrix((data[sel], (rows[sel], cols[sel])), shape=(4, 4))
    for x, sx in ((empty, sempty), (z, sz)):
        assert_same(x @ a, sx @ sa)
        assert_same(a @ x, sa @ sx)
        assert_same(x + a, sx + sa)
        assert_same(x.conj_transpose(), sx.conj().T)
        np.testing.assert_array_equal(x @ np.ones(4), sx @ np.ones(4))
        assert_same(commutator(x, a), sx @ sa - sa @ sx)
        assert_same(commutator(a, x, x), sa @ sx - sx @ sa - sx)
        assert_same(commutator(x, x, a), sx @ sx - sx @ sx - sa)
    assert empty.nnz == 0 and max_abs(empty) == 0.0
    assert commutator(empty, empty, empty).nnz == 0


def test_exact_cancellation_drops_entries_like_scipy():
    # the product's one entry is 1 * 1 + 1 * (-1)
    a = OperatorMatrix.from_entries(space(2), [1.0, 1.0], [0, 0], [0, 1])
    b = OperatorMatrix.from_entries(space(2), [1.0, -1.0], [0, 1], [0, 0])
    sa = sparse.csr_matrix(a.to_dense())
    sb = sparse.csr_matrix(b.to_dense())
    assert (a @ b).nnz == (sa @ sb).nnz == 0
    assert (a - a).nnz == (sa - sa).nnz == 0


def test_from_entries_sums_duplicates_and_keeps_explicit_zeros():
    data = np.array([1.0 + 2j, 0.0, 3.0, -1.0 - 2j, 0.5j])
    rows = np.array([2, 0, 1, 2, 0])
    cols = np.array([1, 0, 2, 1, 2])
    got = OperatorMatrix.from_entries(space(3), data, rows, cols)
    want = sparse.csr_matrix((data, (rows, cols)), shape=(3, 3))
    assert_same(got, want)


def test_from_entries_sums_duplicate_heavy_batches_in_input_order():
    # magnitudes 1e-20 to 1e20 and signed zeros, where a sum in another order
    # gives other bits; the reference adds each entry to 0j in input order
    rng = np.random.default_rng(17)
    for _ in range(20):
        size = 300
        rows, cols = rng.integers(0, 3, size), rng.integers(0, 3, size)
        parts = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-20, 20, (2, size))
        parts[rng.random((2, size)) < 0.1] *= 0.0
        data = np.empty(size, dtype=complex)
        data.real, data.imag = parts
        sums = {}
        for key, value in zip(zip(rows.tolist(), cols.tolist()), data.tolist()):
            sums[key] = sums.get(key, 0j) + value
        got_rows, got_cols, got_data = OperatorMatrix.from_entries(space(3), data, rows, cols).entries()
        assert list(zip(got_rows.tolist(), got_cols.tolist())) == sorted(sums)
        want = np.array([sums[key] for key in sorted(sums)])
        assert got_data.tobytes() == want.tobytes()


def test_compress_matches_fancy_indexing():
    rng = np.random.default_rng(11)
    a, sa = random_pair(rng, 9, 0.5)
    for idx in (np.array([0, 3, 4, 8]), np.array([7, 2, 5]), np.arange(9), np.array([], int)):
        np.testing.assert_array_equal(compress(a, idx), sa[idx][:, idx].toarray())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_and_inf_reach_max_abs():
    fs = build_fock([("k", 1), ("q", 2)], 1)
    ident = identity_operator(fs)
    nan = OperatorMatrix.from_entries(fs, [np.nan], [1], [2])
    inf = OperatorMatrix.from_entries(fs, [np.inf], [1], [2])
    assert math.isnan(max_abs(nan))
    assert math.isnan(max_abs(ident @ nan))
    assert math.isnan(max_abs(nan - nan))
    assert math.isinf(max_abs(inf))
    assert math.isinf(max_abs(ident @ inf))
    assert math.isnan(max_abs(inf - inf))
    # the one-pass commutator carries a poisoned factor or subtrahend through
    assert math.isnan(max_abs(commutator(ident, nan)))
    assert math.isnan(max_abs(commutator(nan, ident, ident)))
    assert math.isnan(max_abs(commutator(ident, ident, nan)))
    assert math.isnan(max_abs(commutator(ident, inf)))
    assert math.isinf(max_abs(commutator(ident, ident, inf)))
    # a poisoned operator triple is never a small su(2) residual
    triple = (ident, ident, nan)
    assert math.isnan(max_residual(map(max_abs, _claim_brackets(ALG_SU2, triple, triple))))


def test_array_operands_are_refused():
    a = identity_operator(space(3))
    b = identity_operator(space(4))
    with pytest.raises(TypeError):
        a * np.ones(3)
    with pytest.raises(DimensionMismatch):
        a @ np.ones(4)
    with pytest.raises(DimensionMismatch):
        a @ np.ones((4, 2))
    with pytest.raises(DimensionMismatch):
        a @ np.ones((3, 2))
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(DimensionMismatch):
        commutator(a, b)
    with pytest.raises(DimensionMismatch):
        commutator(a, a, b)


entries = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    ),
    max_size=20,
)


def _pair_from(items):
    # the last duplicate wins, so every position is stored once
    table = {(r, c): v for r, c, v in items}
    rows = np.array([k[0] for k in table], dtype=int)
    cols = np.array([k[1] for k in table], dtype=int)
    data = np.array(list(table.values()), dtype=complex)
    return (
        OperatorMatrix.from_entries(space(5), data, rows, cols),
        sparse.csr_matrix((data, (rows, cols)), shape=(5, 5)),
    )


@settings(deadline=None, max_examples=60)
@given(entries, entries)
def test_kernel_matches_scipy_on_random_entries(left, right):
    a, sa = _pair_from(left)
    b, sb = _pair_from(right)
    assert_same(a @ b, sa @ sb)
    assert_same(a + b, sa + sb)
    assert_same(a - b, sa - sb)
    assert_same(a.conj_transpose() @ b, sa.conj().T @ sb)
    x = np.arange(5) - 2.5j
    np.testing.assert_array_equal(a @ x, sa @ x)


@settings(deadline=None, max_examples=60)
@given(entries, entries, entries)
def test_commutator_kernel_matches_scipy_on_random_entries(left, right, third):
    a, sa = _pair_from(left)
    b, sb = _pair_from(right)
    c, sc = _pair_from(third)
    assert_same(commutator(a, b), sa @ sb - sb @ sa)
    assert_same(commutator(a, b, c), sa @ sb - sb @ sa - sc)
    assert_same(commutator(a, b, a), sa @ sb - sb @ sa - sa)
    assert commutator(a, b, commutator(a, b)).nnz == 0


def _hex_residuals(triples):
    """(stacked, one-by-one) residuals of the triples as float hex."""
    got = [float(x).hex() for x in commutator_residuals(triples)]
    want = [max_abs(commutator(a, b, c)).hex() for a, b, c in triples]
    return got, want


@pytest.mark.parametrize("density", [0.0, 0.2, 0.7])
def test_commutator_residuals_match_one_by_one(density):
    rng = np.random.default_rng(int(density * 10) + 11)
    triples = []
    for n in (1, 5, 7, 9, 30, 5):
        a, b, c = (random_pair(rng, n, density)[0] for _ in range(3))
        triples += [(a, b, c), (a, b, None), (b, a, commutator(a, b)), (a, a, None)]
    got, want = _hex_residuals(triples)
    assert got == want
    assert np.all(commutator_residuals(triples)[3::4] == 0.0)


@settings(deadline=None, max_examples=40)
@given(entries, entries, entries)
def test_commutator_residuals_match_one_by_one_on_random_entries(left, right, third):
    a, b, c = (_pair_from(items)[0] for items in (left, right, third))
    triples = [(a, b, c), (b, c, None), (c, a, a), (a, b, commutator(a, b))]
    got, want = _hex_residuals(triples)
    assert got == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_commutator_residuals_edge_cases():
    empty = OperatorMatrix.from_entries(space(4), [], [], [])
    ident = identity_operator(space(4))
    a = random_pair(np.random.default_rng(5), 4, 0.7)[0]
    nan = OperatorMatrix.from_entries(space(4), [np.nan], [1], [2])
    assert commutator_residuals([]).shape == (0,)
    assert commutator_residuals(iter([])).shape == (0,)
    (one,) = commutator_residuals([(a, a.conj_transpose(), None)])
    assert one.hex() == max_abs(commutator(a, a.conj_transpose())).hex()
    # empty blocks read 0.0, before, between and after filled ones
    triples = [
        (empty, empty, None),
        (empty, a, empty),
        (a, empty, None),
        (a, ident, None),
        (a, empty, a),
        (empty, empty, empty),
    ]
    got = commutator_residuals(triples)
    assert got[[0, 1, 2, 3, 5]].tolist() == [0.0] * 5
    assert got[4] == max_abs(a) > 0.0
    # a NaN entry reads NaN in its own block only, never 0
    got = commutator_residuals([(a, empty, None), (ident, nan, None), (a, a, nan), (a, a, None)])
    assert got[0] == 0.0 and got[3] == 0.0
    assert math.isnan(got[1]) and math.isnan(got[2])
    # each triple is checked on its own; triples on different spaces mix
    b = identity_operator(space(5))
    with pytest.raises(DimensionMismatch):
        commutator_residuals([(a, a, None), (a, b, None)])
    with pytest.raises(DimensionMismatch):
        commutator_residuals([(a, a, b)])
    assert commutator_residuals([(a, a, a), (b, b, b)]).tolist() == [max_abs(a), 1.0]
