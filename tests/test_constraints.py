import functools
import math

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import fock
from photonam import operators as ops
from photonam.errors import ChannelMismatch, DimensionMismatch, OffLatticeMode
from photonam.fock import (
    OperatorMatrix,
    annihilator,
    build_fock,
    creator,
    expectation,
    indefinite_inner,
    lift_forms,
    max_abs,
    metric_diagonal,
)
from photonam.fields import FieldLattice
from photonam.modes import SphericalShell, build_cartesian_modeset, parse_modeset
from photonam.suites import stated_source


def _lattice(half_list, length=2 * math.pi, n=8):
    ms = build_cartesian_modeset(half_list)
    return ms, FieldLattice(length, n, ms.ks)


def _per_mode_fourier_loop(lattice, rho):
    """Oracle: the per-mode Fourier sum over the centered grid points, one
    mode at a time, with the free-space prefactor written out."""
    length, n = lattice.box_length, lattice.grid_n
    axis = -length / 2.0 + np.arange(n) * (length / n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    xyz = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    out = []
    for k, omega in zip(lattice.grid.ks, lattice.grid.omega):
        prefactor = 1.0 / (omega ** 1.5 * math.sqrt(2.0 * (2.0 * math.pi) ** 3))
        phase = np.exp(-1j * (xyz @ k))
        out.append(prefactor * (length / n) ** 3 * complex(np.sum(rho * phase)))
    return np.array(out)


def test_xi_zero_charge_gives_zero():
    _, lattice = _lattice([(1.0, 0.0, 0.0)], n=4)
    xi = cons.xi0_from_charge(lattice, np.zeros(4 ** 3))
    assert xi.shape == (2,) and np.all(xi == 0)


def test_xi_point_charge_frozen_value():
    # delta charge q at the centered grid's origin: the Fourier sum is q for
    # every mode, so xi = q / (sqrt(2 (2 pi)^3) omega^(3/2)); by hand for omega = 1
    length, n, q = 2 * math.pi, 4, 1.7
    values = np.zeros((n, n, n))
    values[n // 2, n // 2, n // 2] = q / (length / n) ** 3
    _, lattice = _lattice([(0.0, 0.0, 1.0)], length, n)
    xi = cons.xi0_from_charge(lattice, values.ravel())
    expected = q / math.sqrt(2.0 * (2.0 * math.pi) ** 3)
    assert xi[0] == pytest.approx(expected, abs=1e-15)
    assert xi[1] == pytest.approx(expected, abs=1e-15)


def test_xi_matches_the_per_mode_fourier_loop():
    rng = np.random.default_rng(5)
    _, lattice = _lattice([(1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2.0, -1.0, 3.0)])
    rho = rng.normal(size=8 ** 3)
    xi = cons.xi0_from_charge(lattice, rho)
    assert np.max(np.abs(xi - _per_mode_fourier_loop(lattice, rho))) <= 1e-15


def test_xi_reality_symmetry_random_density():
    rng = np.random.default_rng(8)
    ms, lattice = _lattice([(1.0, 0.0, 0.0), (0.0, 1.0, 1.0)], n=6)
    xi = cons.xi0_from_charge(lattice, rng.normal(size=6 ** 3))
    assert cons.xi_conjugate_residual(ms, xi) <= 1e-12


def test_xi_charge_samples_must_fill_the_lattice():
    _, lattice = _lattice([(1.0, 0.0, 0.0)], n=4)
    for rho in (np.ones(4 ** 3 - 1), np.ones((4, 4, 4)), np.ones(5 ** 3)):
        with pytest.raises(DimensionMismatch):
            cons.xi0_from_charge(lattice, rho)


def test_xi_off_lattice_mode_rejected():
    # the lattice holds the modes to the box's reciprocal lattice
    with pytest.raises(OffLatticeMode):
        _lattice([(0.5, 0.0, 0.0)], n=4)


def test_gb_constraint_actions():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 3)], 1)
    constraints = cons.gb_constraints(ms, fs)
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
        cons.gb_constraints(ms, fs)


def _whole_stack_kernel(constraints, tol=1e-10):
    """Reference: kernel of the dense stacked constraints."""
    stack = np.vstack([c.to_dense() for c in constraints])
    _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[sigma < tol].conj().T


def _dense(kernel):
    """The closed-form kernel's (dim x r) basis, one unit column per monomial."""
    basis = np.zeros((kernel.column.size, kernel.dimension), dtype=complex)
    rows = np.flatnonzero(kernel.column >= 0)
    basis[rows, kernel.column[rows]] = kernel.weight[rows]
    return basis


def _dense_certificate(constraints, basis):
    """max_v max_C ||C v|| over the columns of a dense basis, from dense matrices."""
    return max(np.linalg.norm(c.to_dense() @ basis, axis=0).max(initial=0.0) for c in constraints)


def _projector(basis):
    return basis @ basis.conj().T


def test_free_kernel_matches_hand_construction():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [
        annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))
    ]
    kernel = cons.gb_physical_subspace(_OneMode(), fs)
    sub, ref = _dense(kernel), _whole_stack_kernel(constraint)
    assert kernel.dimension == ref.shape[1] == 2
    expected = np.zeros((4, 2), dtype=complex)
    expected[:, 0] = fs.vacuum()
    expected[:, 1] = (fs.basis_state({("k", 3): 1}) + fs.basis_state({("k", 0): 1})) / np.sqrt(2)
    proj_expected = _projector(expected)
    assert np.max(np.abs(_projector(sub) - proj_expected)) <= 1e-12
    assert np.max(np.abs(_projector(ref) - proj_expected)) <= 1e-12
    assert cons.gb_kernel_certificate(constraint, kernel) <= 1e-12
    assert _dense_certificate(constraint, sub) <= 1e-12


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
    constraints = cons.gb_constraints(ms, fs)
    kernel = cons.gb_physical_subspace(ms, fs)
    ref = _whole_stack_kernel(constraints)
    assert kernel.dimension == ref.shape[1] == kernel_dim
    assert np.max(np.abs(_projector(_dense(kernel)) - _projector(ref))) <= 1e-12
    assert cons.gb_kernel_certificate(constraints, kernel) <= 1e-12


@pytest.mark.parametrize("max_total", [1, 2])
def test_capped_kernel_is_full_kernel_on_the_block(max_total):
    # a_3 - a_0 only lowers the occupation, so the block of total occupation
    # <= T is invariant and the capped space's kernel is the full kernel there
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)]
    full = build_fock(chans, 1)
    capped = build_fock(chans, 1, max_total=max_total)

    def projector(fs):
        return _projector(_dense(cons.gb_physical_subspace(ms, fs)))

    block = full.locate(capped.occ)
    assert full.dim == 256
    assert np.array_equal(block, full.bounded_indices(max_total))
    reference = _projector(_whole_stack_kernel(cons.gb_constraints(ms, full)))
    assert np.max(np.abs(projector(full) - reference)) <= 1e-12
    restricted = reference[np.ix_(block, block)]
    assert np.max(np.abs(projector(capped) - restricted)) <= 1e-12


TWO_MODES = "0 0 1\n0 0 -1"
FOUR_MODES = TWO_MODES + "\n1 0 0\n-1 0 0"
SIX_MODES = FOUR_MODES + "\n0.6 0.8 0\n-0.6 -0.8 0"
EIGHT_MODES = SIX_MODES + "\n0.3 -0.4 1.2\n-0.3 0.4 -1.2"


def _grid_space(grid, n_max, max_total):
    ms = parse_modeset(grid)
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)]
    return ms, build_fock(chans, n_max, max_total=max_total)


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
    constraints = cons.gb_constraints(ms, fs)
    ref = _whole_stack_kernel(constraints)
    # the closed form and its certificate make no np.linalg call
    with monkeypatch.context() as patch:
        patch.setattr(np, "linalg", None)
        sub = cons.gb_physical_subspace(ms, fs)
        certificate = cons.gb_kernel_certificate(constraints, sub)
    assert sub.dimension == ref.shape[1]
    if max_total == n_max:
        assert sub.dimension == math.comb(3 * len(ms.mode_labels()) + n_max, n_max)
    basis = _dense(sub)
    assert np.max(np.abs(_projector(basis) - _projector(ref))) <= 1e-12
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(sub.dimension))) <= 1e-14
    assert certificate <= 1e-12
    assert _dense_certificate(constraints, basis) <= 1e-12
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


def _spin_difference(fs, ms):
    """S - S_obs lifted once, from the difference of its forms."""
    spin, spin_obs = (ops.family_matrices(fs.channels, n, ms) for n in ("spin_total", "spin_obs"))
    return lift_forms(fs, spin - spin_obs)


def test_kernel_entries_match_dense_oracle():
    # R^dag eta O R against the dense basis, and the gauge-hiding values
    # against the dense blocks of S - S_obs, on the 4-mode grid at n_max 2
    ms, fs = _grid_space(FOUR_MODES, 2, 2)
    kernel = cons.gb_physical_subspace(ms, fs)
    basis = _dense(kernel)
    eta = metric_diagonal(fs)[:, None]
    reps, nulls = np.flatnonzero(kernel.quotient), np.flatnonzero(~kernel.quotient)
    assert reps.size == math.comb(2 * 4 + 2, 2)
    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    difference = _spin_difference(fs, ms)
    blocks = []
    for op in (*spin, *spin_obs, *difference):
        i, j, m = cons.kernel_entries(fs, kernel, op)
        full = np.zeros((kernel.dimension,) * 2, dtype=complex)
        full[i, j] = m
        dense = basis.conj().T @ (eta * (op.to_dense() @ basis))
        assert np.max(np.abs(full - dense)) <= 1e-14
        # the diagonal, as fock.expectation reads each unit representative
        reads = [expectation(fs, op, basis[:, j]) for j in reps]
        assert np.array_equal(np.diag(full)[reps] / kernel.norm[reps], reads)
        blocks.append(dense)

    hidden, mixed, skipped = cons.verify_gauge_hiding(fs, kernel, difference)
    on_quotient = max(np.max(np.abs(b[np.ix_(reps, reps)])) for b in blocks[6:])
    touching = max(max(np.max(np.abs(b[nulls])), np.max(np.abs(b[:, nulls]))) for b in blocks[6:])
    assert skipped == nulls.size
    assert hidden == on_quotient == 0.0
    assert abs(mixed - touching) <= 1e-14 and mixed > 1e-3
    # a dense quotient state, read by fock.expectation, sees no difference
    psi = basis[:, reps] @ _draw(np.random.default_rng(5), reps.size)
    pairs = zip(spin, spin_obs)
    assert max(abs(expectation(fs, a, psi) - expectation(fs, b, psi)) for a, b in pairs) <= 1e-12


@pytest.mark.parametrize(
    "grid, n_max",
    [
        *((TWO_MODES, n) for n in (1, 2, 3)),
        *((FOUR_MODES, n) for n in (2, 3)),
        *((EIGHT_MODES, n) for n in (2, 3)),
        ("0.5 0.25 -0.7\n-0.5 -0.25 0.7", 2),
    ],
)
def test_difference_lift_is_bit_identical(grid, n_max):
    # lifts are linear in the form: lifting S - S_obs once gives the entries
    # of the difference of the two lifts, bit for bit
    ms, fs = _grid_space(grid, n_max, n_max)
    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    for once, (a, b) in zip(_spin_difference(fs, ms), zip(spin, spin_obs)):
        for got, want in zip(once.entries(), (a - b).entries()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_grid_gauge_hiding_makes_no_linalg_call(monkeypatch):
    # gauge-hiding's grid path: the difference lift, kernel, certificate,
    # kernel entries and the occupancy balance, on the 4-mode grid at n_max 3,
    # in kernel coordinates, and the one-mode pair's kernel and certificate:
    # no np.linalg call and no dense state read by fock.expectation
    ms, fs = _grid_space(FOUR_MODES, 3, 3)
    pair = build_fock([("k", 3), ("k", 0)], 1)

    def dense_state(*args):
        raise AssertionError("dense state read on the grid path")

    assert not {"expectation", "indefinite_inner"} & set(vars(cons))
    with monkeypatch.context() as patch:
        patch.setattr(np, "linalg", None)
        patch.setattr(fock, "expectation", dense_state)
        patch.setattr(fock, "indefinite_inner", dense_state)
        difference = _spin_difference(fs, ms)
        kernel = cons.gb_physical_subspace(ms, fs)
        certificate = cons.gb_kernel_certificate(cons.gb_constraints(ms, fs), kernel)
        hidden, mixed, skipped = cons.verify_gauge_hiding(fs, kernel, difference)
        balance = cons.column_occupancy(fs, kernel, 3) - cons.column_occupancy(fs, kernel, 0)
        pair_kernel = cons.gb_physical_subspace(_OneMode(), pair)
        pair_certificate = cons.gb_kernel_certificate(
            cons.gb_constraints(_OneMode(), pair), pair_kernel
        )
    assert pair_kernel.dimension == 2
    assert pair_certificate <= 1e-12
    assert kernel.dimension == math.comb(3 * 4 + 3, 3)
    assert certificate <= 1e-12
    assert np.max(np.abs(balance)) <= 1e-12
    assert hidden <= 1e-12
    assert mixed > 1e-3
    assert skipped == kernel.dimension - math.comb(2 * 4 + 3, 3)


def _approximate_displaced_kernel(xi, n_max):
    """Oracle: the one-mode (lam = 0, lam = 3) space at n_max, per entry of
    xi the best approximate kernel vector of the displaced constraint
    a_3 - a_0 + xi (the smallest right singular vector of the dense matrix),
    and the largest of their singular values, the kernel residual."""
    small = build_fock([("k", 0), ("k", 3)], n_max)
    (free,) = cons.gb_constraints(_OneMode(), small)
    free, eye = free.to_dense(), np.eye(small.dim)
    factors, residuals = [], []
    for shift in xi:
        _, sigma, vh = np.linalg.svd(free + shift * eye)
        factors.append(vh[-1].conj())
        residuals.append(sigma[-1])
    return small, factors, max(residuals)


def _product_space_xi_pathway(shell, xi, small, factors):
    """The xi pathway on the full product space: <l_pure> and <source> per
    component on the Kronecker product of the one-mode factors."""
    psi = functools.reduce(np.kron, factors)
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    fs = build_fock(chans, small.n_max)
    lpure = ops.lift_family(fs, "l_pure", shell)
    source = tuple(-1.0 * x for x in cons.xi_oam_bilinear(shell, fs, xi, 3))
    return (
        np.array([expectation(fs, lpure[c], psi) for c in range(3)]),
        np.array([expectation(fs, source[c], psi) for c in range(3)]),
    )


def test_displaced_kernel_vanishes_in_truncation():
    # a displaced constraint a_3 - a_0 + xi has no kernel on the truncated
    # pair: its smallest singular value stays far from zero
    _, _, residual = _approximate_displaced_kernel(np.array([0.8]), 1)
    assert residual > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_xi_pathway_closed_form_matches_truncated_product_state(seed):
    # the best kernel vectors of the truncated displaced constraint at n_max 2
    # are near-coherent; read at their own <a_3> (a different t per label),
    # the suite's closed-form sides agree with the product state's
    # expectations within its kernel residual
    from photonam.suites import _xi_pathway_sides

    shell = SphericalShell(radius=1.0, l_max=1)
    rng = np.random.default_rng(seed)
    xi = 0.05 * (rng.normal(size=len(shell)) + 1j * rng.normal(size=len(shell)))
    small, factors, residual = _approximate_displaced_kernel(xi, 2)
    beta3 = [expectation(small, annihilator(small, ("k", 3)), v) for v in factors]
    sides = _xi_pathway_sides(shell, np.diag(xi), np.diag(beta3))
    # with xi and beta3 diagonal, a form's value at xi is the sum of its entries
    lpure, source, counter = (side.sum(axis=(1, 2)) for side in sides)
    ref_lpure, ref_source = _product_space_xi_pathway(shell, xi, small, factors)
    assert np.max(np.abs(lpure - ref_lpure)) <= residual
    assert np.max(np.abs(source - ref_source)) <= 1e-15
    assert np.max(np.abs(lpure - source - counter)) <= 1e-15
    # the sides are far above both bounds
    assert np.max(np.abs(lpure)) > 10 * residual and np.max(np.abs(source)) > 1e-3


class _OneMode:
    def mode_labels(self):
        return ("k",)


def test_quotient_representatives_split():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    kernel = cons.gb_physical_subspace(_OneMode(), fs)
    basis = _dense(kernel)
    masks = (kernel.quotient, ~kernel.quotient)
    reps, nulls = ([basis[:, j] for j in np.flatnonzero(mask)] for mask in masks)
    assert len(reps) == 1 and len(nulls) == 1
    assert abs(indefinite_inner(fs, reps[0], reps[0])) > 0.5
    assert abs(indefinite_inner(fs, nulls[0], nulls[0])) <= 1e-12


def test_gauge_hiding_entries_and_class_dependence():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 1, 2, 3)], 1)
    constraints = cons.gb_constraints(ms, fs)
    sub = cons.gb_physical_subspace(ms, fs)
    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    hidden, mixed, skipped = cons.verify_gauge_hiding(fs, sub, _spin_difference(fs, ms))
    assert hidden <= 1e-12
    assert skipped  # pure gauge excitations show up and are counted
    assert mixed > 1e-3  # entries that touch them are reported, not hidden

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
    # Euclidean <n_3> = <n_0> on kernel states: random combinations of the
    # dense-SVD reference kernel; the closed form's columns; and its
    # combinations, read as the suite reads them,
    # sum_j |c_j|^2 balance_j / sum_j |c_j|^2
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (0, 3)], 2)
    lams = np.array([lam for _, lam in fs.channels])

    def occupancy(psi, lam):
        return np.vdot(psi, fs.occ[:, lams == lam].sum(axis=1) * psi).real / np.vdot(psi, psi).real

    constraints = cons.gb_constraints(ms, fs)
    sub = _whole_stack_kernel(constraints)
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
    xi = np.array([0.05 * (rng.normal() + 1j * rng.normal()) for _ in shell.mode_labels()])
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    fs = build_fock(chans, 2)
    bilinear = cons.xi_oam_bilinear(shell, fs, xi, 3)
    for comp in bilinear:
        assert max_abs(comp - comp.metric_adjoint()) <= 1e-14

    from photonam.modes import orbital_matrices

    _, factors, res = _approximate_displaced_kernel(xi, 2)
    psi = functools.reduce(np.kron, factors)
    lpure = ops.lift_family(fs, "l_pure", shell)
    gens = orbital_matrices(1)
    for c in range(3):
        lhs = expectation(fs, lpure[c], psi)
        rhs = -expectation(fs, bilinear[c], psi) - float(np.real(xi.conj() @ gens[c] @ xi))
        assert abs(lhs - rhs) <= max(1e-10, 10 * res)


def test_random_xi_tables_satisfy_reality(xi_basis, seeded_xi):
    shell = SphericalShell(radius=1.0, l_max=2)
    basis = xi_basis(shell)
    # as many real directions as labels, and linearly independent over R
    assert len(basis) == len(shell)
    assert np.linalg.matrix_rank(np.hstack([basis.real, basis.imag])) == len(shell)
    xi = seeded_xi(shell, np.random.default_rng(4), 0.1)
    for source in (*basis, xi, stated_source(shell)):
        assert cons.xi_conjugate_residual(shell, source) <= 1e-15


def test_xi_conjugate_residual_catches_broken_reality(seeded_xi):
    # negating the m > 0 entries of a conjugate-symmetric shell xi breaks the
    # (l, -m) rule; on a grid, so does swapping the entries of two modes of
    # different pairs (swapping a mode's entry with its -k partner's keeps it)
    shell = SphericalShell(radius=1.0, l_max=2)
    xi = seeded_xi(shell, np.random.default_rng(1), 0.1)
    flipped = np.where([m > 0 for _, m in shell.mode_labels()], -xi, xi)
    assert cons.xi_conjugate_residual(shell, flipped) > 1e-3
    ms, lattice = _lattice([(1.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    xi = cons.xi0_from_charge(lattice, np.random.default_rng(3).normal(size=8 ** 3))
    assert cons.xi_conjugate_residual(ms, xi) <= 1e-12
    assert cons.xi_conjugate_residual(ms, xi[[1, 0, 3, 2]]) <= 1e-12
    swapped = xi[[2, 1, 0, 3]]
    assert cons.xi_conjugate_residual(ms, swapped) > 1e-3


def test_nan_residual_propagates_through_reductions():
    fs = build_fock([("k", 3), ("k", 0)], 1)
    constraint = [annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))]
    rows, cols = np.indices((fs.dim, fs.dim)).reshape(2, -1)
    nans = np.full(rows.size, np.nan + 0j)
    poisoned = OperatorMatrix.from_entries(fs, nans, rows, cols)
    kernel = cons.gb_physical_subspace(_OneMode(), fs)
    assert math.isnan(cons.gb_kernel_certificate(constraint + [poisoned], kernel))

    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    assert math.isnan(cons.xi_conjugate_residual(ms, np.array([0.1, np.nan])))
    shell = SphericalShell(radius=1.0, l_max=1)
    xi = stated_source(shell)
    xi[shell.mode_labels().index((1, 1))] = complex(np.nan)
    assert math.isnan(cons.xi_conjugate_residual(shell, xi))
