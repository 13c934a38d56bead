import functools
import math

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import fock
from photonam import operators as ops
from photonam.errors import (
    ChannelMismatch,
    DimensionCapExceeded,
    IncommensurateGrid,
    NoKernel,
    ToleranceAmbiguous,
)
from photonam.fock import (
    OperatorMatrix,
    annihilator,
    build_fock,
    creator,
    expectation,
    indefinite_inner,
    max_abs,
    metric_diagonal,
)
from photonam.modes import SphericalShell, build_cartesian_modeset, parse_modeset
from photonam.sampling import SeededRng


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


def test_charge_source_needs_sample_rows():
    with pytest.raises(ChannelMismatch):
        cons.ChargeSource()
    with pytest.raises(ChannelMismatch):
        cons.ChargeSource(box_length=2 * math.pi, samples=np.zeros((2, 3)))
    with pytest.raises(ChannelMismatch):
        cons.ChargeSource(samples=np.zeros((2, 4)))
    source = cons.ChargeSource(box_length=2 * math.pi, samples=[[0, 0, 0, 2.0], [1, 0, 0, 3.0]])
    assert source.samples.shape == (2, 4)


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
    assert sub.shape[1] == 2
    expected = np.zeros((4, 2), dtype=complex)
    expected[:, 0] = fs.vacuum()
    expected[:, 1] = (fs.basis_state({("k", 3): 1}) + fs.basis_state({("k", 0): 1})) / np.sqrt(2)
    proj = sub @ sub.conj().T
    proj_expected = expected @ expected.conj().T
    assert np.max(np.abs(proj - proj_expected)) <= 1e-12
    assert cons.kernel_certificate(constraint, sub) <= 1e-12


def test_dense_constraint_stack_over_dim_cap_raises():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))]
    # one 4 x 4 constraint: 16 dense elements
    assert cons.physical_subspace(fs, constraint, dim_cap=16).shape[1] == 2
    with pytest.raises(DimensionCapExceeded, match="4 x 4 = 16 elements exceeds cap 15"):
        cons.physical_subspace(fs, constraint, dim_cap=15)


def _whole_stack_kernel(constraints, tol=1e-10):
    """Reference: kernel of the dense stacked constraints."""
    stack = np.vstack([c.to_dense() for c in constraints])
    _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[sigma < tol].conj().T


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
    ref = _whole_stack_kernel(constraints)
    assert sub.shape[1] == ref.shape[1] == kernel_dim
    proj = sub @ sub.conj().T
    assert np.max(np.abs(proj - ref @ ref.conj().T)) <= 1e-12
    assert cons.kernel_certificate(constraints, sub) <= 1e-12


@pytest.mark.parametrize("max_total", [1, 2])
def test_capped_kernel_is_full_kernel_on_the_block(max_total):
    # a_3 - a_0 only lowers the occupation, so the block of total occupation
    # <= T is invariant and the capped space's kernel is the full kernel there
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)]
    full = build_fock(chans, 1)
    capped = build_fock(chans, 1, max_total=max_total)

    def projector(fs):
        sub = cons.physical_subspace(fs, cons.gb_constraints(ms, fs, None), tol=1e-10)
        return sub @ sub.conj().T

    block = full.locate(capped.occ)
    assert full.dim == 256
    assert np.array_equal(block, full.bounded_indices(max_total))
    restricted = projector(full)[np.ix_(block, block)]
    assert np.max(np.abs(projector(capped) - restricted)) <= 1e-12


TWO_MODES = "0 0 1\n0 0 -1"
FOUR_MODES = TWO_MODES + "\n1 0 0\n-1 0 0"
SIX_MODES = FOUR_MODES + "\n0.6 0.8 0\n-0.6 -0.8 0"


def _grid_space(grid, n_max, max_total):
    ms = parse_modeset(grid)
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)]
    return ms, build_fock(chans, n_max, max_total=max_total)


def _dense(kernel):
    """The closed-form kernel's (dim x r) basis, one unit column per monomial."""
    basis = np.zeros((kernel.column.size, kernel.dimension), dtype=complex)
    rows = np.flatnonzero(kernel.column >= 0)
    basis[rows, kernel.column[rows]] = kernel.weight[rows]
    return basis


# capped at total occupation n_max; then uncapped (the 256-state space of
# acceptance criterion 6) and capped above n_max, where the monomials with
# n_0 + n_3 > n_max in some mode are cut by the truncation
CAPPED_AT_NMAX = [
    *((TWO_MODES, n) for n in (1, 2, 3, 4)),
    (FOUR_MODES, 2),
    (FOUR_MODES, 3),
    (SIX_MODES, 2),
    ("0.5 0.25 -0.7\n-0.5 -0.25 0.7", 2),
]
CAPPED_ELSEWHERE = [(TWO_MODES, 1, None), (TWO_MODES, 2, 3), (TWO_MODES, 1, 2), (TWO_MODES, 3, 4)]


@pytest.mark.parametrize(
    "grid, n_max, max_total",
    [(grid, n, n) for grid, n in CAPPED_AT_NMAX] + CAPPED_ELSEWHERE,
    ids=[f"{grid}-{n}" for grid, n in CAPPED_AT_NMAX]
    + [f"{grid}-{n}-cap{cap}" for grid, n, cap in CAPPED_ELSEWHERE],
)
def test_closed_form_kernel_matches_svd(grid, n_max, max_total, monkeypatch):
    ms, fs = _grid_space(grid, n_max, max_total)
    constraints = cons.gb_constraints(ms, fs, None)
    ref = cons.physical_subspace(fs, constraints, tol=1e-10, dim_cap=1 << 22)
    # the closed form and its certificate make no np.linalg call
    with monkeypatch.context() as patch:
        patch.setattr(np, "linalg", None)
        sub = cons.gb_physical_subspace(ms, fs)
        certificate = cons.gb_kernel_certificate(constraints, sub)
    assert sub.dimension == ref.shape[1]
    if max_total == n_max:
        assert sub.dimension == math.comb(3 * len(ms.mode_labels()) + n_max, n_max)
    basis = _dense(sub)
    proj = basis @ basis.conj().T
    assert np.max(np.abs(proj - ref @ ref.conj().T)) <= 1e-12
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(sub.dimension))) <= 1e-14
    assert certificate <= 1e-12
    assert cons.kernel_certificate(constraints, basis) <= 1e-12
    # the indefinite Gram matrix is the diagonal the record carries
    gram = basis.conj().T @ (metric_diagonal(fs)[:, None] * basis)
    assert np.max(np.abs(gram - np.diag(sub.norm))) <= 1e-14


def test_closed_form_kernel_refusals():
    ms = parse_modeset(TWO_MODES)
    transverse = build_fock([(i, lam) for i in (0, 1) for lam in (1, 2, 3)], 2, max_total=2)
    with pytest.raises(ChannelMismatch, match="need lam = 0 and lam = 3"):
        cons.gb_physical_subspace(ms, transverse)


def _draw(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_kernel_entries_match_dense_oracle():
    # R^dag eta O R against the dense basis, and every gauge-hiding value
    # against fock.expectation on the dense state, on the 4-mode grid at n_max 2
    ms, fs = _grid_space(FOUR_MODES, 2, 2)
    kernel = cons.gb_physical_subspace(ms, fs)
    basis = _dense(kernel)
    eta = metric_diagonal(fs)[:, None]
    reps, nulls = kernel.split()
    assert reps.size == math.comb(2 * 4 + 2, 2)
    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    for op in (*spin, *spin_obs, *(a - b for a, b in zip(spin, spin_obs))):
        i, j, m = cons.kernel_entries(fs, kernel, op)
        full = np.zeros((kernel.dimension,) * 2, dtype=complex)
        full[i, j] = m
        assert np.max(np.abs(full - basis.conj().T @ (eta * (op @ basis)))) <= 1e-14
        # rep-* values: the diagonal, as fock.expectation reads each unit column
        dense = [expectation(fs, op, basis[:, j]) for j in reps]
        assert np.array_equal(np.diag(full)[reps] / kernel.norm[reps], dense)

    def hiding(psi):
        pairs = zip(spin, spin_obs)
        return max(abs(expectation(fs, a, psi) - expectation(fs, b, psi)) for a, b in pairs)

    def state(rng, columns):
        return sum(basis[:, part] @ _draw(rng, part.size) for part in columns)

    for seed in (0, 5):
        asserted, mixed, skipped = cons.verify_gauge_hiding(
            fs, kernel, spin, spin_obs, SeededRng(seed)
        )
        # the same draws in the same order: six random combinations of the
        # representatives, then six that add the zero-norm directions
        rng = SeededRng(seed)
        rand = [hiding(state(rng, [reps])) for _ in range(6)]
        dense = [hiding(state(rng, [reps, nulls])) for _ in range(6)]
        assert skipped == nulls.size
        assert abs(asserted - max([hiding(basis[:, j]) for j in reps] + rand)) <= 1e-12
        assert mixed.shape == (6,) and np.max(np.abs(mixed - dense)) <= 1e-12
        assert min(dense) > 1e-3


def test_grid_gauge_hiding_makes_no_linalg_call(monkeypatch):
    # gauge-hiding's grid path: lifts, kernel, certificate, probes and the
    # occupancy balance, on the 4-mode grid at n_max 3, in kernel coordinates:
    # no np.linalg call and no dense state read by fock.expectation
    ms, fs = _grid_space(FOUR_MODES, 3, 3)

    def dense_state(*args):
        raise AssertionError("dense state read on the grid path")

    assert not {"expectation", "indefinite_inner"} & set(vars(cons))
    with monkeypatch.context() as patch:
        patch.setattr(np, "linalg", None)
        patch.setattr(fock, "expectation", dense_state)
        patch.setattr(fock, "indefinite_inner", dense_state)
        spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
        kernel = cons.gb_physical_subspace(ms, fs)
        certificate = cons.gb_kernel_certificate(cons.gb_constraints(ms, fs, None), kernel)
        asserted, mixed, skipped = cons.verify_gauge_hiding(
            fs, kernel, spin, spin_obs, rng=SeededRng(0)
        )
        balance = cons.column_occupancy(fs, kernel, 3) - cons.column_occupancy(fs, kernel, 0)
    assert kernel.dimension == math.comb(3 * 4 + 3, 3)
    assert certificate <= 1e-12
    assert np.max(np.abs(balance)) <= 1e-12
    assert asserted <= 1e-12
    assert mixed.size == 6
    assert skipped == kernel.dimension - math.comb(2 * 4 + 3, 3)


def test_non_graded_constraints_are_one_block():
    # the number operator of channel ("k", 1) keeps the occupation, so the
    # stack is not graded and is factored whole, as the reference does
    fs = build_fock([("k", 0), ("k", 3), ("k", 1)], 1)
    number = creator(fs, ("k", 1)) @ annihilator(fs, ("k", 1))
    constraints = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0)), number]
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    ref = _whole_stack_kernel(constraints)
    assert sub.shape[1] == 2
    assert np.array_equal(sub, ref)


def test_empty_constraints_whole_space_physical():
    fs = build_fock([("k", 1), ("k", 2)], 1)
    sub = cons.physical_subspace(fs, [], tol=1e-10)
    assert sub.shape[1] == fs.dim


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
    fake = [OperatorMatrix.diagonal(fs, np.array([1e-8, 1e-6, 1.0, 1.0]))]
    with pytest.raises(ToleranceAmbiguous):
        cons.physical_subspace(fs, fake, tol=1e-7)


def test_quotient_representatives_split():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    kernel = cons.gb_physical_subspace(_OneMode(), fs)
    basis = _dense(kernel)
    reps, nulls = ([basis[:, j] for j in part] for part in kernel.split())
    assert len(reps) == 1 and len(nulls) == 1
    assert abs(indefinite_inner(fs, reps[0], reps[0])) > 0.5
    assert abs(indefinite_inner(fs, nulls[0], nulls[0])) <= 1e-12


def test_gauge_hiding_entries_and_class_dependence():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 1, 2, 3)], 1)
    constraints = cons.gb_constraints(ms, fs, None)
    sub = cons.gb_physical_subspace(ms, fs)
    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    asserted, mixed, skipped = cons.verify_gauge_hiding(
        fs, sub, spin, spin_obs, rng=SeededRng(1)
    )
    assert asserted <= 1e-12
    assert skipped  # pure gauge excitations show up and are counted
    assert mixed.size == 6

    # hand-built counterexample: transverse coherence times a zero-norm
    # admixture with a relative phase makes <spin> - <spin_obs> nonzero
    chi = (fs.vacuum() + fs.basis_state({(0, 2): 1})) / np.sqrt(2)
    zeta = (creator(fs, (0, 3)) - creator(fs, (0, 0))) @ chi
    phi = chi + 1j * zeta
    assert max(float(np.linalg.norm(c @ phi)) for c in constraints) <= 1e-14
    diff = abs(
        expectation(fs, spin[0], phi)
        - expectation(fs, spin_obs[0], phi)
    )
    assert diff > 1e-3


def test_euclidean_occupancy_balance_on_kernel():
    # Euclidean <n_3> = <n_0> on kernel states: random combinations of the SVD
    # kernel; the closed form's columns; and its combinations, read as the
    # suite reads them, sum_j |c_j|^2 balance_j / sum_j |c_j|^2
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 3)], 2)
    lams = np.array([lam for _, lam in fs.channels])

    def occupancy(psi, lam):
        return np.vdot(psi, fs.occ[:, lams == lam].sum(axis=1) * psi).real / np.vdot(psi, psi).real

    constraints = cons.gb_constraints(ms, fs, None)
    sub = cons.physical_subspace(fs, constraints, tol=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(5):
        coeff = rng.normal(size=sub.shape[1]) + 1j * rng.normal(size=sub.shape[1])
        psi = sub @ coeff
        assert abs(occupancy(psi, 3) - occupancy(psi, 0)) <= 1e-12

    kernel = cons.gb_physical_subspace(ms, fs)
    basis = _dense(kernel)
    columns = {lam: cons.column_occupancy(fs, kernel, lam) for lam in (0, 3)}
    for lam in (0, 3):
        dense = [occupancy(basis[:, j], lam) for j in range(kernel.dimension)]
        assert np.max(np.abs(columns[lam] - dense)) <= 1e-14
    balance = columns[3] - columns[0]
    assert np.max(np.abs(balance)) <= 1e-12
    for _ in range(5):
        coeff = rng.normal(size=kernel.dimension) + 1j * rng.normal(size=kernel.dimension)
        weight = np.abs(coeff) ** 2
        psi = basis @ coeff
        combined = occupancy(psi, 3) - occupancy(psi, 0)
        assert abs(weight @ balance / weight.sum() - combined) <= 1e-12


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

    _, factors, res = _approximate_displaced_kernel(shell, xi, 2)
    psi = functools.reduce(np.kron, factors)
    lpure = ops.lift_family(fs, "l_pure", shell)
    vec = np.array([xi[c] for c in shell.mode_labels()])
    gens = orbital_matrices(1)
    for c in range(3):
        lhs = expectation(fs, lpure[c], psi)
        rhs = -expectation(fs, bilinear[c], psi) - float(np.real(vec.conj() @ gens[c] @ vec))
        assert abs(lhs - rhs) <= max(1e-10, 10 * res)


def test_random_xi_tables_satisfy_reality():
    rng = SeededRng(4)
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
    poisoned = OperatorMatrix.from_entries(fs, nans, rows, cols)
    assert math.isnan(cons.kernel_certificate(constraint + [poisoned], sub))
    kernel = cons.gb_physical_subspace(_OneMode(), fs)
    assert math.isnan(cons.gb_kernel_certificate(constraint + [poisoned], kernel))

    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    assert math.isnan(cons.xi_conjugate_residual(ms, {0: 0.1, 1: np.nan}))
    shell = SphericalShell(radius=1.0, l_max=1)
    xi = cons.random_conjugate_symmetric_xi(shell, SeededRng(2))
    xi[(1, 1)] = complex(np.nan)
    assert math.isnan(cons.xi_conjugate_residual(shell, xi))
