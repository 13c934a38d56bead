import itertools
import operator

import numpy as np
import pytest

from photonam.dirac import build_fermion_fock
from photonam.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    UnknownChannel,
    ZeroNormState,
)
from photonam.fock import (
    FockSpace,
    OperatorMatrix,
    _jw_parity,
    _lowering,
    annihilator,
    build_fock,
    commutator,
    compress,
    creator,
    expectation,
    form_bracket,
    identity_operator,
    indefinite_inner,
    lift_forms,
    max_abs,
    metric_diagonal,
    metric_operator,
)
from photonam.modes import SphericalShell
from photonam.suites import SuiteConfig, _capped_grid_space, _default_grid, _shell_space


def dense_ladders(n_channels, n_max, signs):
    """Independent construction: explicit numpy kron chains."""
    local_dim = n_max + 1
    low = np.diag(np.sqrt(np.arange(1, local_dim)), 1).astype(complex)
    eye = np.eye(local_dim, dtype=complex)
    lowers, raisers = [], []
    for j in range(n_channels):
        mat = np.ones((1, 1), dtype=complex)
        for pos in range(n_channels):
            mat = np.kron(mat, low if pos == j else eye)
        lowers.append(mat)
        raisers.append(signs[j] * mat.conj().T)
    return lowers, raisers


def dense_jw_lowerings(n_channels):
    """Independent Jordan-Wigner construction: Z on the channels before j,
    [[0, 1], [0, 0]] on channel j, identity after it."""
    z = np.diag([1.0, -1.0]).astype(complex)
    low = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    lowers = []
    for j in range(n_channels):
        mat = np.ones((1, 1), dtype=complex)
        for pos in range(n_channels):
            mat = np.kron(mat, z if pos < j else low if pos == j else eye)
        lowers.append(mat)
    return lowers


def test_dimensions_and_cap():
    assert build_fock([(i, 1) for i in range(8)], 1).dim == 256
    assert build_fock([(i, 1) for i in range(8)], 2).dim == 6561
    with pytest.raises(DimensionCapExceeded):
        build_fock([(i, 1) for i in range(30)], 2)


def test_capped_dimensions():
    for n_max, dim in zip((1, 2, 3, 4), (9, 45, 165, 495)):
        fs = _capped_grid_space(_default_grid(), (0, 1, 2, 3), SuiteConfig(n_max=n_max))
        assert (len(fs.channels), fs.max_total, fs.dim) == (8, n_max, dim)
    shell = _shell_space(SphericalShell(radius=1.0, l_max=1), (0, 1, 2, 3), 1 << 20)
    assert (len(shell.channels), shell.dim) == (16, 17)
    chans = [(i, lam) for i in range(9) for lam in (0, 1, 2, 3)]
    assert build_fock(chans, 1, max_total=2).dim == 667
    # uncapped is the special case: a cap at or above n_max * #channels
    assert build_fock(chans[:8], 2, max_total=16) == build_fock(chans[:8], 2)


def test_capped_dim_cap_raised_before_allocation():
    chans = [(i, lam) for i in range(9) for lam in (0, 1, 2, 3)]
    with pytest.raises(DimensionCapExceeded, match="dim 667 "):
        build_fock(chans, 1, dim_cap=600, max_total=2)
    # about 3.9e10 states: counted, never enumerated
    with pytest.raises(DimensionCapExceeded):
        build_fock(chans, 1, max_total=18)
    # 721,801 states over 1,200 channels: an 866 MB table, counted first
    many = [(i, lam) for i in range(300) for lam in (0, 1, 2, 3)]
    with pytest.raises(DimensionCapExceeded, match="occupation table 721801 x 1200 "):
        build_fock(many, 2, max_total=2)
    with pytest.raises(DimensionMismatch):
        build_fock(chans, 1, max_total=-1)


@pytest.mark.parametrize("fermionic", [False, True])
def test_table_is_the_filtered_product_basis_and_locate_ranks_it(fermionic):
    for n_ch in range(1, 6):
        for n_max in (1,) if fermionic else (1, 2, 3):
            for cap in range(n_max * n_ch + 1):
                fs = build_fock([(j, 1) for j in range(n_ch)], n_max, max_total=cap, fermionic=fermionic)
                kept = [t for t in itertools.product(range(n_max + 1), repeat=n_ch) if sum(t) <= cap]
                np.testing.assert_array_equal(fs.occ, np.array(kept))
                np.testing.assert_array_equal(fs.locate(fs.occ), np.arange(fs.dim))
                assert not fs.occ.flags.writeable


def test_space_beyond_the_64_bit_product_basis():
    # 3^100 product states; the cap keeps 1 + 100 + 100 + C(100, 2) = 5,151
    chans = [(i, 1) for i in range(100)]
    fs = build_fock(chans, 2, max_total=2)
    assert fs.dim == 5151
    kept = sorted(
        tuple(np.bincount(on, minlength=100))
        for n in range(3)
        for on in itertools.combinations_with_replacement(range(100), n)
    )
    np.testing.assert_array_equal(fs.occ, np.array(kept))
    for rank, t in enumerate(kept):
        psi = fs.basis_state({chans[j]: n for j, n in enumerate(t) if n})
        assert np.argmax(np.abs(psi)) == rank and psi.sum() == 1.0


def test_locate_ranks_row_batches_of_any_shape():
    # 100 channels, 5,151 states: a single row, a batch, and a batch of batches
    fs = build_fock([(i, 1) for i in range(100)], 2, max_total=2)
    assert fs.locate(fs.occ[4000]) == 4000
    np.testing.assert_array_equal(fs.locate(fs.occ), np.arange(fs.dim))
    picks = np.array([[0, 1, 100], [101, 5000, 5150]])
    np.testing.assert_array_equal(fs.locate(fs.occ[picks]), picks)
    np.testing.assert_array_equal(fs.locate(fs.occ[picks].astype(int)), picks)
    assert fs.locate(fs.occ[:0]).shape == (0,)
    # one-byte rows whose prefix sums pass 255
    wide = build_fock([("a", 1), ("b", 1)], 200)
    assert wide.occ.dtype == np.uint8
    np.testing.assert_array_equal(wide.locate(wide.occ), np.arange(wide.dim))


def test_capped_basis_state_outside_cap():
    fs = build_fock([("a", 1), ("b", 1), ("c", 0)], 2, max_total=2)
    rows = [tuple(r) for r in fs.occ.tolist()]
    assert fs.vacuum()[0] == 1.0 and rows == sorted(set(rows))
    psi = fs.basis_state({("a", 1): 1, ("c", 0): 1})
    assert rows[np.argmax(np.abs(psi))] == (1, 0, 1)
    with pytest.raises(DimensionMismatch):
        fs.basis_state({("a", 1): 2, ("b", 1): 1})


def test_capped_operators_restrict_product_space():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_ch = int(rng.integers(1, 5))
        chans = [(f"m{j}", int(rng.integers(0, 4))) for j in range(n_ch)]
        n_max = int(rng.integers(1, 4))
        cap = int(rng.integers(0, n_max * n_ch))
        full = build_fock(chans, n_max)
        keep = np.nonzero(full.total_occupation() <= cap)[0]
        fs = build_fock(chans, n_max, dim_cap=keep.size, max_total=cap)
        with pytest.raises(DimensionCapExceeded):
            build_fock(chans, n_max, dim_cap=keep.size - 1, max_total=cap)
        np.testing.assert_array_equal(fs.occ, full.occ[keep])
        block = np.ix_(keep, keep)
        np.testing.assert_array_equal(metric_diagonal(fs), metric_diagonal(full)[keep])
        for ch in chans:
            np.testing.assert_array_equal(
                annihilator(fs, ch).to_dense(), annihilator(full, ch).to_dense()[block]
            )
            np.testing.assert_array_equal(
                creator(fs, ch).to_dense(), creator(full, ch).to_dense()[block]
            )
        m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        m[rng.random(size=m.shape) < 0.3] = 0.0
        np.testing.assert_array_equal(
            lift_forms(fs, [m])[0].to_dense(),
            lift_forms(full, [m])[0].to_dense()[block],
        )


def test_build_fock_validates_inputs():
    with pytest.raises(DimensionMismatch):
        build_fock([], 2)
    with pytest.raises(DimensionMismatch):
        build_fock([("k", 1)], 0)
    with pytest.raises(DimensionMismatch):
        build_fock([("k", 1), ("k", 1)], 1)
    with pytest.raises(DimensionMismatch):
        build_fock([("k", 1)], 2, fermionic=True)


def test_basis_order_is_channel_major():
    fs = build_fock([("a", 1), ("b", 1)], 2)
    psi = fs.basis_state({("a", 1): 1, ("b", 1): 2})
    assert np.argmax(np.abs(psi)) == 1 * 3 + 2
    np.testing.assert_array_equal(fs.occ[:, 0], np.repeat([0, 1, 2], 3))
    np.testing.assert_array_equal(fs.occ[:, 1], np.tile([0, 1, 2], 3))


def test_ladders_match_dense_kron_reference():
    fs = build_fock([("k", 1), ("k", 0), ("q", 2)], 2)
    lowers, raisers = dense_ladders(3, 2, fs.signs)
    for j, ch in enumerate(fs.channels):
        np.testing.assert_allclose(annihilator(fs, ch).to_dense(), lowers[j], atol=0)
        np.testing.assert_allclose(creator(fs, ch).to_dense(), raisers[j], atol=0)


def test_single_channel_scalar_creator_literal():
    fs = build_fock([("k", 0)], 1)
    np.testing.assert_array_equal(
        creator(fs, ("k", 0)).to_dense(), np.array([[0, 0], [-1, 0]], dtype=complex)
    )


def test_unknown_channel():
    fs = build_fock([("k", 1)], 1)
    with pytest.raises(UnknownChannel):
        annihilator(fs, ("missing", 1))


def test_commutator_sign_per_channel_on_safe_sectors():
    fs = build_fock([("k", 1), ("k", 0)], 2)
    idx = fs.bounded_indices(1)
    ident = np.eye(len(idx))
    comm_t = commutator(annihilator(fs, ("k", 1)), creator(fs, ("k", 1)))
    np.testing.assert_allclose(compress(comm_t, idx), ident, atol=1e-15)
    comm_s = commutator(annihilator(fs, ("k", 0)), creator(fs, ("k", 0)))
    np.testing.assert_allclose(compress(comm_s, idx), -ident, atol=1e-15)
    cross = commutator(annihilator(fs, ("k", 1)), creator(fs, ("k", 0)))
    assert max_abs(cross) == 0.0


def test_scalar_norm_and_pairing():
    fs = build_fock([("k", 0)], 1)
    vac = fs.vacuum()
    one = creator(fs, ("k", 0)) @ vac
    assert indefinite_inner(fs, vac, vac) == pytest.approx(1.0)
    assert indefinite_inner(fs, one, one) == pytest.approx(-1.0)
    pairing = indefinite_inner(fs, vac, annihilator(fs, ("k", 0)) @ creator(fs, ("k", 0)) @ vac)
    assert pairing == pytest.approx(-1.0)


def test_metric_operator_properties():
    fs = build_fock([("k", 1), ("k", 0), ("q", 0), ("q", 2)], 1)
    eta = metric_operator(fs)
    assert max_abs(eta @ eta - identity_operator(fs)) == 0.0
    diag = metric_diagonal(fs)
    n0 = fs.occ[:, 1] + fs.occ[:, 2]
    np.testing.assert_array_equal(diag, np.where(n0 % 2 == 0, 1.0, -1.0))
    for ch in fs.channels:
        via = eta @ annihilator(fs, ch).conj_transpose() @ eta
        assert max_abs(creator(fs, ch) - via) == 0.0
        assert max_abs(annihilator(fs, ch).metric_adjoint() - via) == 0.0


def test_pure_transverse_metric_is_identity():
    fs = build_fock([("k", 1), ("k", 2)], 2)
    np.testing.assert_array_equal(metric_diagonal(fs), np.ones(fs.dim))


def test_zero_norm_state_raises():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    gauge = (creator(fs, ("k", 3)) - creator(fs, ("k", 0))) @ fs.vacuum()
    assert abs(indefinite_inner(fs, gauge, gauge)) <= 1e-15
    with pytest.raises(ZeroNormState):
        expectation(fs, identity_operator(fs), gauge)


def test_lift_matches_dense_reference():
    fs = build_fock([("k", 1), ("k", 0)], 2)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lifted = lift_forms(fs, [m])[0].to_dense()
    lowers, raisers = dense_ladders(2, 2, fs.signs)
    expected = sum(
        m[a, b] * raisers[a] @ lowers[b] for a in range(2) for b in range(2)
    )
    np.testing.assert_allclose(lifted, expected, atol=1e-14)


def test_lift_number_operator_eigenvalues():
    fs = build_fock([("k", 1), ("k", 2)], 2)
    number = lift_forms(fs, [np.eye(2)])[0]
    expected = fs.occ[:, 0] + fs.occ[:, 1]
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(number.to_dense())), np.sort(expected), atol=1e-13
    )


def test_lift_commutator_homomorphism_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_ch = int(rng.integers(2, 5))
        chans = [(f"m{j}", int(rng.integers(0, 4))) for j in range(n_ch)]
        n_max = int(rng.integers(2, 4))
        fs = build_fock(chans, n_max)
        idx = fs.bounded_indices(n_max - 1)
        m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        n = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        lhs = commutator(*lift_forms(fs, [m, n]))
        rhs = lift_forms(fs, [form_bracket(m, n, fs.signs)])[0]
        assert max_abs(compress(lhs - rhs, idx)) <= 1e-12


def per_pair_lift(fs, m):
    """The lift as one loop over the nonzeros of M, pair by pair."""
    m = np.asarray(m, dtype=complex)
    occ = fs.occ.T.astype(int)
    rows, cols, vals = [], [], []
    diag = np.zeros(fs.dim, dtype=complex)
    for a, b in zip(*np.nonzero(m)):
        src = np.nonzero(occ[b])[0]
        root_b = np.sqrt(occ[b][src])
        if a == b:
            diag[src] += (m[a, b] * fs.signs[a] * root_b) * root_b
            continue
        room = occ[a][src] < fs.n_max
        src = src[room]
        amp = (m[a, b] * fs.signs[a] * np.sqrt(occ[a][src] + 1)) * root_b[room]
        if fs.fermionic:
            amp *= _jw_parity(fs, src, min(a, b), max(a, b))
        moved = fs.occ[src].astype(int)
        moved[:, a] += 1
        moved[:, b] -= 1
        rows.append(fs.locate(moved))
        cols.append(src)
        vals.append(amp)
    on_diag = np.nonzero(diag)[0]
    rows.append(on_diag)
    cols.append(on_diag)
    vals.append(diag[on_diag])
    return OperatorMatrix.from_entries(
        fs, np.concatenate(vals), np.concatenate(rows), np.concatenate(cols)
    )


def _random_form(rng, n_ch, kind):
    m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
    m[rng.random(size=(n_ch, n_ch)) < 0.3] = 0.0
    if kind == "diagonal":
        m = np.diag(np.diag(m))
    elif kind == "off-diagonal":
        np.fill_diagonal(m, 0.0)
    elif kind == "zero":
        m[:] = 0.0
    elif kind == "zero-rows":
        m[rng.integers(0, n_ch, size=max(1, n_ch // 2))] = 0.0
    return m


def _lift_spaces(rng):
    for _ in range(12):
        n_ch = int(rng.integers(1, 5))
        chans = [(f"m{j}", int(rng.integers(0, 4))) for j in range(n_ch)]
        n_max = int(rng.integers(1, 4))
        yield build_fock(chans, n_max)
        yield build_fock(chans, n_max, max_total=int(rng.integers(0, n_max * n_ch + 1)))
    for n_ch in range(2, 7):
        chans = [(f"f{j}", j % 4) for j in range(n_ch)]
        yield build_fermion_fock(chans)
        yield build_fermion_fock(chans, max_total=int(rng.integers(0, n_ch + 1)))


@pytest.mark.parametrize("kind", ["dense", "diagonal", "off-diagonal", "zero", "zero-rows"])
def test_lift_bit_identical_to_per_pair_loop(kind):
    rng = np.random.default_rng(11)
    for fs in _lift_spaces(rng):
        form = _random_form(rng, len(fs.channels), kind)
        got = lift_forms(fs, [form])[0].entries()
        want = per_pair_lift(fs, form).entries()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _form_stack(rng, n_ch, pattern):
    """Three random complex forms whose nonzero patterns are disjoint,
    overlapping, (pattern "zero") partly and wholly empty, or carry a NaN
    and an inf."""
    forms = [_random_form(rng, n_ch, "dense") for _ in range(3)]
    if pattern == "non-finite":
        forms[0][0, 0] = np.nan
        forms[2][n_ch - 1, 0] = np.inf
    elif pattern == "disjoint":
        owner = rng.integers(0, 4, size=(n_ch, n_ch))  # 3: no form
        for f, m in enumerate(forms):
            m[owner != f] = 0.0
    elif pattern == "zero":
        forms[0][:] = 0.0
        forms[2][:] = 0.0
        return [forms, [np.zeros((n_ch, n_ch))] * 2]
    return [forms]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("pattern", ["disjoint", "overlapping", "zero", "non-finite"])
def test_stacked_lift_bit_identical_to_per_pair_loop(pattern):
    # bosonic, capped and fermionic spaces; every form of a stack is lifted
    # as if alone, down to the bytes of rows, columns and values
    rng = np.random.default_rng(13)
    for fs in _lift_spaces(rng):
        for forms in _form_stack(rng, len(fs.channels), pattern):
            lifted = lift_forms(fs, forms)
            assert len(lifted) == len(forms)
            for op, m in zip(lifted, forms):
                want = per_pair_lift(fs, m).entries()
                for g, w in zip(op.entries(), want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_lift_disjoint_channels_commute():
    fs = build_fock([("a", 1), ("a", 0), ("b", 2), ("b", 3)], 2)
    rng = np.random.default_rng(7)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    n = np.zeros((4, 4), dtype=complex)
    n[2:, 2:] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = commutator(
        lift_forms(fs, [m])[0],
        lift_forms(fs, [n])[0],
    )
    assert max_abs(lhs) <= 1e-13


def test_truncation_edge_reported_not_clean():
    # the transverse ladder commutator deviates from identity only at the cap
    fs = build_fock([("k", 1)], 2)
    comm = commutator(annihilator(fs, ("k", 1)), creator(fs, ("k", 1)))
    full = comm.to_dense()
    assert full[2, 2] == pytest.approx(-2.0)
    idx = fs.bounded_indices(1)
    np.testing.assert_allclose(compress(comm, idx), np.eye(2), atol=1e-15)


def test_commutator_antisymmetry_random_sparse():
    fs = build_fock([("k", 1), ("q", 0)], 2)
    rng = np.random.default_rng(3)
    a = lift_forms(fs, [rng.normal(size=(2, 2))])[0]
    b = lift_forms(fs, [rng.normal(size=(2, 2))])[0]
    assert max_abs(commutator(a, b) + commutator(b, a)) <= 1e-13
    assert max_abs(commutator(identity_operator(fs), b)) == 0.0


def test_operator_space_mismatch():
    fs1 = build_fock([("k", 1)], 1)
    fs2 = build_fock([("k", 1)], 2)
    with pytest.raises(DimensionMismatch):
        commutator(identity_operator(fs1), identity_operator(fs2))


def test_operators_on_equal_dimension_spaces_are_refused():
    # two states each, different channels: only the space check tells them apart
    k = annihilator(build_fock([("k", 1)], 1), ("k", 1))
    q = annihilator(build_fock([("q", 1)], 1), ("q", 1))
    assert k.shape == q.shape
    for op in (operator.add, operator.sub, operator.matmul, commutator):
        with pytest.raises(DimensionMismatch):
            op(k, q)
    with pytest.raises(DimensionMismatch):
        commutator(k, k, q)


def test_lift_forms_refuses_forms_of_another_size():
    fs = build_fock([("k", 1)], 1)
    with pytest.raises(DimensionMismatch):
        lift_forms(fs, [np.zeros((2, 2))])


@pytest.mark.parametrize("n_ch", range(1, 7))
def test_fermion_ladders_and_lift_match_jordan_wigner_reference(n_ch):
    # second label entries are spinor-like indices, not polarizations
    ffs = build_fermion_fock([("f", j) for j in range(n_ch)])
    assert (ffs.dim, ffs.signs) == (2**n_ch, (1,) * n_ch)
    lowers = dense_jw_lowerings(n_ch)
    for ch, low in zip(ffs.channels, lowers):
        c, c_dag = annihilator(ffs, ch), creator(ffs, ch)
        np.testing.assert_array_equal(c.to_dense(), low)
        np.testing.assert_array_equal(c_dag.to_dense(), low.conj().T)
    rng = np.random.default_rng(n_ch)
    for _ in range(3):
        m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        expected = sum(
            m[a, b] * (lowers[a].conj().T @ lowers[b])
            for a in range(n_ch)
            for b in range(n_ch)
        )
        lifted = lift_forms(ffs, [m])[0]
        np.testing.assert_array_equal(lifted.to_dense(), expected)


@pytest.mark.parametrize("n_ch", range(3, 9))
def test_capped_fermion_operators_restrict_full_space(n_ch):
    chans = [("f", j) for j in range(n_ch)]
    full = build_fermion_fock(chans)
    rng = np.random.default_rng(100 + n_ch)
    forms = [
        rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch)) for _ in range(2)
    ]
    full_lifts = [lift_forms(full, [m])[0].to_dense() for m in forms]
    for cap in range(n_ch + 1):
        keep = np.nonzero(full.total_occupation() <= cap)[0]
        ffs = build_fermion_fock(chans, max_total=cap)
        np.testing.assert_array_equal(ffs.occ, full.occ[keep])
        block = np.ix_(keep, keep)
        for ch in chans:
            np.testing.assert_array_equal(
                annihilator(ffs, ch).to_dense(),
                annihilator(full, ch).to_dense()[block],
            )
        for m, lifted in zip(forms, full_lifts):
            np.testing.assert_array_equal(
                lift_forms(ffs, [m])[0].to_dense(), lifted[block]
            )


def test_statistics_keep_lowering_cache_entries_apart():
    chans = [("a", 1), ("b", 2), ("c", 3)]
    bosonic = build_fock(chans, 1)
    fermionic = build_fermion_fock(chans)
    assert bosonic.signs == fermionic.signs and bosonic != fermionic
    for j in (1, 2):
        boson, fermion = _lowering(bosonic, j), _lowering(fermionic, j)
        assert boson.space == bosonic and fermion.space == fermionic
        assert np.any(boson.to_dense() != fermion.to_dense())
