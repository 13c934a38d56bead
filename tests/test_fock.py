import numpy as np
import pytest

from photonam.dirac import build_fermion_fock, fermion_ladder, fermionic_lift
from photonam.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    UnknownChannel,
    ZeroNormState,
)
from photonam.fock import (
    FockSpace,
    OperatorMatrix,
    QuadraticForm,
    _lowering,
    annihilator,
    build_fock,
    commutator,
    compress,
    creator,
    expectation,
    identity_operator,
    indefinite_inner,
    lift_bilinear,
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
    with pytest.raises(DimensionCapExceeded, match="64-bit"):
        build_fock([(i, 1) for i in range(64)], 1, max_total=2)
    with pytest.raises(DimensionMismatch):
        build_fock(chans, 1, max_total=-1)


def test_capped_basis_state_outside_cap():
    fs = build_fock([("a", 1), ("b", 1), ("c", 0)], 2, max_total=2)
    assert fs.vacuum()[0] == 1.0 and np.all(np.diff(fs.codes) > 0)
    psi = fs.basis_state({("a", 1): 1, ("c", 0): 1})
    assert fs.codes[np.argmax(np.abs(psi))] == 1 * 9 + 1
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
        np.testing.assert_array_equal(fs.codes, full.codes[keep])
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
            lift_bilinear(fs, QuadraticForm(m, fs.signs)).to_dense(),
            lift_bilinear(full, QuadraticForm(m, full.signs)).to_dense()[block],
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
    np.testing.assert_array_equal(fs.occupations(0), np.repeat([0, 1, 2], 3))
    np.testing.assert_array_equal(fs.occupations(1), np.tile([0, 1, 2], 3))


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
    pairing = indefinite_inner(fs, vac, (annihilator(fs, ("k", 0)) @ creator(fs, ("k", 0))).mat @ vac)
    assert pairing == pytest.approx(-1.0)


def test_metric_operator_properties():
    fs = build_fock([("k", 1), ("k", 0), ("q", 0), ("q", 2)], 1)
    eta = metric_operator(fs)
    assert max_abs(eta @ eta - identity_operator(fs)) == 0.0
    diag = metric_diagonal(fs)
    n0 = fs.occupations(1) + fs.occupations(2)
    np.testing.assert_array_equal(diag, np.where(n0 % 2 == 0, 1.0, -1.0))
    for ch in fs.channels:
        via = eta @ OperatorMatrix(fs, annihilator(fs, ch).mat.conj_transpose()) @ eta
        assert max_abs(creator(fs, ch) - via) == 0.0


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
    lifted = lift_bilinear(fs, QuadraticForm(m, fs.signs)).to_dense()
    lowers, raisers = dense_ladders(2, 2, fs.signs)
    expected = sum(
        m[a, b] * raisers[a] @ lowers[b] for a in range(2) for b in range(2)
    )
    np.testing.assert_allclose(lifted, expected, atol=1e-14)


def test_lift_number_operator_eigenvalues():
    fs = build_fock([("k", 1), ("k", 2)], 2)
    number = lift_bilinear(fs, QuadraticForm(np.eye(2), fs.signs))
    expected = fs.occupations(0) + fs.occupations(1)
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
        qm, qn = QuadraticForm(m, fs.signs), QuadraticForm(n, fs.signs)
        lhs = commutator(lift_bilinear(fs, qm), lift_bilinear(fs, qn))
        rhs = lift_bilinear(fs, qm.bracket(qn))
        assert max_abs(compress(lhs - rhs, idx)) <= 1e-12


def test_lift_disjoint_channels_commute():
    fs = build_fock([("a", 1), ("a", 0), ("b", 2), ("b", 3)], 2)
    rng = np.random.default_rng(7)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    n = np.zeros((4, 4), dtype=complex)
    n[2:, 2:] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = commutator(
        lift_bilinear(fs, QuadraticForm(m, fs.signs)),
        lift_bilinear(fs, QuadraticForm(n, fs.signs)),
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
    a = lift_bilinear(fs, QuadraticForm(rng.normal(size=(2, 2)), fs.signs))
    b = lift_bilinear(fs, QuadraticForm(rng.normal(size=(2, 2)), fs.signs))
    assert max_abs(commutator(a, b) + commutator(b, a)) <= 1e-13
    assert max_abs(commutator(identity_operator(fs), b)) == 0.0


def test_operator_space_mismatch():
    fs1 = build_fock([("k", 1)], 1)
    fs2 = build_fock([("k", 1)], 2)
    with pytest.raises(DimensionMismatch):
        commutator(identity_operator(fs1), identity_operator(fs2))


def test_quadratic_form_validation():
    with pytest.raises(DimensionMismatch):
        QuadraticForm(np.zeros((2, 3)), (1, 1))
    with pytest.raises(DimensionMismatch):
        QuadraticForm(np.zeros((2, 2)), (1, 1, 1))
    fs = build_fock([("k", 1)], 1)
    with pytest.raises(DimensionMismatch):
        lift_bilinear(fs, QuadraticForm(np.zeros((2, 2)), (1, 1)))


@pytest.mark.parametrize("n_ch", range(1, 7))
def test_fermion_ladders_and_lift_match_jordan_wigner_reference(n_ch):
    # second label entries are spinor-like indices, not polarizations
    ffs = build_fermion_fock([("f", j) for j in range(n_ch)])
    assert (ffs.dim, ffs.signs) == (2**n_ch, (1,) * n_ch)
    lowers = dense_jw_lowerings(n_ch)
    for ch, low in zip(ffs.channels, lowers):
        c, c_dag = fermion_ladder(ffs, ch)
        np.testing.assert_array_equal(c.toarray(), low)
        np.testing.assert_array_equal(c_dag.toarray(), low.conj().T)
    rng = np.random.default_rng(n_ch)
    for _ in range(3):
        m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        expected = sum(
            m[a, b] * (lowers[a].conj().T @ lowers[b])
            for a in range(n_ch)
            for b in range(n_ch)
        )
        np.testing.assert_array_equal(fermionic_lift(ffs, m).toarray(), expected)


@pytest.mark.parametrize("n_ch", range(3, 9))
def test_capped_fermion_operators_restrict_full_space(n_ch):
    chans = [("f", j) for j in range(n_ch)]
    full = build_fermion_fock(chans)
    rng = np.random.default_rng(100 + n_ch)
    forms = [
        rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch)) for _ in range(2)
    ]
    full_lifts = [fermionic_lift(full, m).toarray() for m in forms]
    for cap in range(n_ch + 1):
        keep = np.nonzero(full.total_occupation() <= cap)[0]
        ffs = build_fermion_fock(chans, max_total=cap)
        np.testing.assert_array_equal(ffs.codes, full.codes[keep])
        block = np.ix_(keep, keep)
        for ch in chans:
            np.testing.assert_array_equal(
                fermion_ladder(ffs, ch)[0].toarray(),
                fermion_ladder(full, ch)[0].toarray()[block],
            )
        for m, lifted in zip(forms, full_lifts):
            np.testing.assert_array_equal(fermionic_lift(ffs, m).toarray(), lifted[block])


def test_statistics_keep_lowering_cache_entries_apart():
    chans = [("a", 1), ("b", 2), ("c", 3)]
    bosonic = build_fock(chans, 1)
    fermionic = build_fermion_fock(chans)
    assert bosonic.signs == fermionic.signs and bosonic != fermionic
    for j in (1, 2):
        assert (_lowering(bosonic, j) - _lowering(fermionic, j)).nnz > 0
