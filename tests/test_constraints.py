import math

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import operators as ops
from photonam.errors import (
    ChannelMismatch,
    DimensionCapExceeded,
    EmptySubspace,
    IncommensurateGrid,
    NoKernel,
    ToleranceAmbiguous,
)
from photonam.fock import (
    OperatorMatrix,
    _CSR,
    annihilator,
    build_fock,
    creator,
    expectation,
    indefinite_inner,
    max_abs,
)
from photonam.modes import SphericalShell, build_cartesian_modeset, parse_modeset


def box_samples(length, n, values):
    axis = np.arange(n) * (length / n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel(), zs.ravel(), values.ravel()], axis=1)


def test_xi_zero_charge_gives_zero():
    ms = build_cartesian_modeset([(1.0, 0.0, 0.0)])
    samples = box_samples(2 * math.pi, 4, np.zeros((4, 4, 4)))
    source = cons.ChargeSource(box_length=2 * math.pi, samples=samples)
    xi = cons.xi0_from_charge(source, ms)
    assert all(v == 0 for v in xi.values())


def test_xi_point_charge_frozen_value():
    # delta charge q at the origin: the Fourier sum is q for every mode, so
    # xi = q / (sqrt(2 (2 pi)^3) omega^(3/2)); evaluated by hand for omega = 1
    length, n, q = 2 * math.pi, 4, 1.7
    values = np.zeros((n, n, n))
    values[0, 0, 0] = q / (length / n) ** 3
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    source = cons.ChargeSource(box_length=length, samples=box_samples(length, n, values))
    xi = cons.xi0_from_charge(source, ms)
    expected = q / math.sqrt(2.0 * (2.0 * math.pi) ** 3)
    assert xi[0] == pytest.approx(expected, abs=1e-15)
    assert xi[1] == pytest.approx(expected, abs=1e-15)


def test_xi_reality_symmetry_random_density():
    rng = np.random.default_rng(8)
    ms = build_cartesian_modeset([(1.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    samples = box_samples(2 * math.pi, 6, rng.normal(size=(6, 6, 6)))
    source = cons.ChargeSource(box_length=2 * math.pi, samples=samples)
    xi = cons.xi0_from_charge(source, ms)
    assert cons.xi_conjugate_residual(ms, xi) <= 1e-12


def test_xi_off_lattice_mode_rejected():
    ms = build_cartesian_modeset([(0.5, 0.0, 0.0)])
    samples = box_samples(2 * math.pi, 4, np.ones((4, 4, 4)))
    source = cons.ChargeSource(box_length=2 * math.pi, samples=samples)
    with pytest.raises(IncommensurateGrid):
        cons.xi0_from_charge(source, ms)


def test_charge_source_csv_forms():
    table = cons.charge_source_from_csv("1.0 0.0 0.0 0.5 -0.25\n")
    assert table.table == {(1.0, 0.0, 0.0): complex(0.5, -0.25)}
    sampled = cons.charge_source_from_csv("0,0,0,2.0\n1,0,0,3.0\n", box_length=2 * math.pi)
    assert sampled.samples.shape == (2, 4)
    with pytest.raises(ChannelMismatch):
        cons.charge_source_from_csv("1 2 3\n")
    with pytest.raises(ChannelMismatch):
        cons.ChargeSource()


def test_gb_constraint_actions():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 3)], 1)
    constraints = cons.gb_constraints(ms, fs, None)
    assert len(constraints) == 2
    c0 = constraints[0]
    assert max_abs(c0 @ fs.vacuum()) == 0.0
    gauge = (creator(fs, (0, 3)) - creator(fs, (0, 0))) @ fs.vacuum()
    assert np.linalg.norm(c0 @ gauge) <= 1e-15
    longi = creator(fs, (0, 3)) @ fs.vacuum()
    image = c0 @ longi
    np.testing.assert_allclose(image, fs.vacuum(), atol=1e-15)


def test_gb_constraint_needs_gauge_channels():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (1, 2)], 1)
    with pytest.raises(ChannelMismatch):
        cons.gb_constraints(ms, fs, None)


def test_free_kernel_matches_hand_construction():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [
        annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))
    ]
    sub = cons.physical_subspace(fs, constraint, tol=1e-10)
    assert sub.dimension == 2
    expected = np.zeros((4, 2), dtype=complex)
    expected[:, 0] = fs.vacuum()
    expected[:, 1] = (fs.basis_state({("k", 3): 1}) + fs.basis_state({("k", 0): 1})) / np.sqrt(2)
    proj = sub.basis @ sub.basis.conj().T
    proj_expected = expected @ expected.conj().T
    assert np.max(np.abs(proj - proj_expected)) <= 1e-12
    assert cons.kernel_certificate(constraint, sub) <= 1e-12
    assert sub.gap == math.inf or sub.gap >= 1e3


def test_dense_constraint_stack_over_dim_cap_raises():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))]
    # one 4 x 4 constraint: 16 dense elements
    assert cons.physical_subspace(fs, constraint, dim_cap=16).dimension == 2
    with pytest.raises(DimensionCapExceeded, match="4 x 4 = 16 elements exceeds cap 15"):
        cons.physical_subspace(fs, constraint, dim_cap=15)


def _whole_stack_kernel(constraints, tol=1e-10):
    """Reference: kernel and singular values of the dense stacked constraints."""
    stack = np.vstack([c.mat.toarray() for c in constraints])
    _, sigma, vh = np.linalg.svd(stack, full_matrices=True)
    sigma = np.concatenate([sigma, np.zeros(stack.shape[1] - sigma.size)])
    return vh[sigma < tol].conj().T, sigma


@pytest.mark.parametrize(
    "grid, n_max, max_total, kernel_dim",
    [
        ("0 0 1\n0 0 -1", 1, None, 64),
        ("0.5 0.25 -0.7\n-0.5 -0.25 0.7", 1, None, 64),
        ("0 0 1\n0 0 -1", 2, 2, 28),
    ],
)
def test_sector_kernel_matches_whole_stack(grid, n_max, max_total, kernel_dim):
    ms = parse_modeset(grid)
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)]
    fs = build_fock(chans, n_max, max_total=max_total)
    constraints = cons.gb_constraints(ms, fs, None)
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    ref, ref_sigma = _whole_stack_kernel(constraints)
    assert sub.dimension == ref.shape[1] == kernel_dim
    proj = sub.basis @ sub.basis.conj().T
    assert np.max(np.abs(proj - ref @ ref.conj().T)) <= 1e-12
    assert np.max(np.abs(np.sort(sub.singular_values) - np.sort(ref_sigma))) <= 1e-12
    assert cons.kernel_certificate(constraints, sub) <= 1e-12


def test_free_stack_splits_by_occupation_sector():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)], 1)
    blocks = list(cons._sector_blocks(fs, cons.gb_constraints(ms, fs, None)))
    # sector N of the 8 channels: C(8, N) columns against 2 C(8, N - 1) rows
    assert [b.shape for _, b in blocks] == [
        (0, 1), (2, 8), (16, 28), (56, 56), (112, 70), (140, 56), (112, 28), (56, 8), (16, 1)
    ]
    totals = fs.total_occupation()
    for n, (columns, _) in enumerate(blocks):
        assert np.all(totals[columns] == n)


def test_non_graded_constraints_are_one_block():
    # the number operator of channel ("k", 1) keeps the occupation, so the
    # stack is not graded and is factored whole, as the reference does
    fs = build_fock([("k", 0), ("k", 3), ("k", 1)], 1)
    number = creator(fs, ("k", 1)) @ annihilator(fs, ("k", 1))
    constraints = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0)), number]
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    ref, ref_sigma = _whole_stack_kernel(constraints)
    assert [b.shape for _, b in cons._sector_blocks(fs, constraints)] == [(16, 8)]
    assert sub.dimension == 2
    assert np.array_equal(sub.basis, ref)
    assert np.array_equal(sub.singular_values, ref_sigma)


def test_empty_constraints_whole_space_physical():
    fs = build_fock([("k", 1), ("k", 2)], 1)
    sub = cons.physical_subspace(fs, [], tol=1e-10)
    assert sub.dimension == fs.dim


def test_displaced_kernel_vanishes_in_truncation():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraints = cons.gb_constraints(_OneMode(), fs, {"k": 0.8})
    with pytest.raises(NoKernel):
        cons.physical_subspace(fs, constraints, tol=1e-10)


class _OneMode:
    def mode_labels(self):
        return ("k",)


def test_tolerance_gap_guard():
    fs = build_fock([("k", 1), ("k", 2)], 1)
    diag = _CSR.diagonal(np.array([1e-8, 1e-6, 1.0, 1.0]))
    fake = [OperatorMatrix(fs, diag)]
    with pytest.raises(ToleranceAmbiguous):
        cons.physical_subspace(fs, fake, tol=1e-7)


def test_quotient_representatives_split():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))]
    sub = cons.physical_subspace(fs, constraint, tol=1e-10)
    reps, nulls = cons.quotient_representatives(fs, sub)
    assert reps.shape[1] == 1 and nulls.shape[1] == 1
    assert abs(indefinite_inner(fs, reps[:, 0], reps[:, 0])) > 0.5
    assert abs(indefinite_inner(fs, nulls[:, 0], nulls[:, 0])) <= 1e-12


def test_gauge_hiding_entries_and_class_dependence():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 1, 2, 3)], 1)
    constraints = cons.gb_constraints(ms, fs, None)
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    operators = {"spin": ops.spin_total(ms, fs), "spin_obs": ops.spin_obs(ms, fs)}
    entries = cons.verify_gauge_hiding(
        fs, sub, operators, rng=np.random.default_rng(1), n_random=4
    )
    asserted = [e for e in entries if not e.skipped and not e.state.startswith("mixed")]
    assert asserted
    assert max(e.diffs["spin_hiding"] for e in asserted) <= 1e-12
    skipped = [e for e in entries if e.skipped]
    assert skipped  # pure gauge excitations show up and are counted

    # hand-built counterexample: transverse coherence times a zero-norm
    # admixture with a relative phase makes <spin> - <spin_obs> nonzero
    chi = (fs.vacuum() + fs.basis_state({(0, 2): 1})) / np.sqrt(2)
    zeta = (creator(fs, (0, 3)) - creator(fs, (0, 0))) @ chi
    phi = chi + 1j * zeta
    assert max(float(np.linalg.norm(c @ phi)) for c in constraints) <= 1e-14
    diff = abs(
        expectation(fs, operators["spin"][0], phi)
        - expectation(fs, operators["spin_obs"][0], phi)
    )
    assert diff > 1e-3


def test_verify_gauge_hiding_empty_subspace():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    sub = cons.PhysicalSubspace(np.zeros((fs.dim, 0)), 1e-10, np.zeros(0))
    with pytest.raises(EmptySubspace):
        cons.verify_gauge_hiding(fs, sub, {})


def test_euclidean_occupancy_balance_on_kernel():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 3)], 2)
    constraints = cons.gb_constraints(ms, fs, None)
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(5):
        coeff = rng.normal(size=sub.dimension) + 1j * rng.normal(size=sub.dimension)
        psi = sub.basis @ coeff
        n3 = cons.euclidean_occupancy(fs, 3, psi)
        n0 = cons.euclidean_occupancy(fs, 0, psi)
        assert abs(n3 - n0) <= 1e-12


def test_xi_bilinear_is_metric_hermitian_and_identity_holds():
    shell = SphericalShell(radius=1.0, l_max=1)
    rng = np.random.default_rng(9)
    xi = {c: 0.05 * (rng.normal() + 1j * rng.normal()) for c in shell.mode_labels()}
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    fs = build_fock(chans, 2)
    bilinear = cons.xi_oam_bilinear(shell, fs, xi, 3)
    for comp in bilinear:
        assert max_abs(comp - comp.metric_adjoint()) <= 1e-14

    from photonam.suites import _approximate_displaced_kernel
    from photonam.modes import orbital_matrices

    psi, res = _approximate_displaced_kernel(shell, xi, 2)
    lpure = ops.l_pure(shell, fs)
    vec = np.array([xi[c] for c in shell.mode_labels()])
    gens = orbital_matrices(1)
    for c in range(3):
        lhs = expectation(fs, lpure[c], psi)
        rhs = -expectation(fs, bilinear[c], psi) - float(np.real(vec.conj() @ gens[c] @ vec))
        assert abs(lhs - rhs) <= max(1e-10, 10 * res)


def test_random_xi_tables_satisfy_reality():
    rng = np.random.default_rng(4)
    shell = SphericalShell(radius=1.0, l_max=2)
    xi = cons.random_conjugate_symmetric_xi(shell, rng)
    assert cons.xi_conjugate_residual(shell, xi) <= 1e-15
    ms = build_cartesian_modeset([(1.0, 2.0, 0.0)])
    xi_grid = cons.random_conjugate_symmetric_xi(ms, rng)
    assert cons.xi_conjugate_residual(ms, xi_grid) <= 1e-15


def test_nan_residual_propagates_through_reductions():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))]
    sub = cons.physical_subspace(fs, constraint, tol=1e-10)
    rows, cols = np.indices((fs.dim, fs.dim)).reshape(2, -1)
    nans = np.full(rows.size, np.nan + 0j)
    poisoned = OperatorMatrix(fs, _CSR.from_entries(nans, rows, cols, (fs.dim, fs.dim)))
    assert math.isnan(cons.kernel_certificate(constraint + [poisoned], sub))

    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    assert math.isnan(cons.xi_conjugate_residual(ms, {0: 0.1, 1: np.nan}))
    shell = SphericalShell(radius=1.0, l_max=1)
    xi = cons.random_conjugate_symmetric_xi(shell, np.random.default_rng(2))
    xi[(1, 1)] = complex(np.nan)
    assert math.isnan(cons.xi_conjugate_residual(shell, xi))
