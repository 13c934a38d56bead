import dataclasses
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import fields as flds
from photonam import operators as ops
from photonam import suites
from photonam.fock import (
    DEFAULT_DIM_CAP,
    OperatorMatrix,
    build_fock,
    commutator,
    compress,
    expectation,
    form_bracket,
    lift_forms,
    max_abs,
    max_residual,
)
from photonam.modes import SphericalShell, build_cartesian_modeset, spin_matrices
from photonam.report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, render_report
from photonam.suites import SUITES, SuiteConfig, run_suite, stated_source

KNOWN_ANCHORS = {
    "MCR1",
    "MCR2",
    "MCR3",
    "BCR1",
    "BCR2",
    "H-mode-form",
    "S-obs-form",
    "L-obs-form",
    "PM-planewave",
    "PWE-LM",
    "L-obs",
    "L-pure-S",
    "CR-spin",
    "J-obs",
    "Table-I",
    "Table-II",
    "Table-III",
    "JM-BJ",
    "Stokes",
    "Gupta1",
    "gauge-hiding",
    "xi",
    "indefinite-metric",
    "negative-norm",
    "helicity",
    "E-planewave",
    "A-split",
    "Dirac-matrices",
    "ETCR-D1",
    "S_D",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(name):
    rep = run_suite(SuiteConfig(suite=name))
    failed = [r.check_id for r in rep.checks if not r.passed]
    assert not failed, f"{name} failed: {failed}"
    assert rep.checks, "suite produced no checks"
    assert [r.check_id for r in rep.checks] == sorted(r.check_id for r in rep.checks)
    for rec in rep.checks:
        assert rec.anchor in KNOWN_ANCHORS, rec.anchor


def test_all_suite_merges_and_prefixes():
    rep = run_suite(SuiteConfig(suite="all"))
    assert rep.all_passed
    prefixes = {r.check_id.split("/")[0] for r in rep.checks}
    assert prefixes == set(SUITES)


def test_suite_with_custom_grid():
    grid = build_cartesian_modeset([(0.4, 0.1, -0.9)])
    rep = run_suite(SuiteConfig(suite="counter-rotating", grid=grid))
    assert rep.all_passed
    assert "0.4" in rep.config["grid"]


def test_suite_determinism_same_seed():
    a = render_report(run_suite(SuiteConfig(suite="gauge-hiding", seed=5)), "json")
    b = render_report(run_suite(SuiteConfig(suite="gauge-hiding", seed=5)), "json")
    assert a == b


GAUGE_HIDING_CHECKS = [
    "free-energy-cancellation",
    "gauge-hiding-spin-representatives",
    "gb-free-kernel-contents",
    "gb-free-kernel-dimension",
    "gb-gauge-pair-annihilated",
    "gb-kernel-certificate",
    "gb-longitudinal-not-physical",
    "oam-identity-matrix",
    "xi-conjugate-symmetry",
    "xi-fourier-reality",
]


@pytest.mark.parametrize("seed", range(4))
def test_gauge_hiding_report_shape(seed):
    # the grid kernel is the closed-form monomial record and its representatives
    # are its transverse columns in basis order, so no LAPACK call or BLAS
    # thread count can rotate or reorder them; this pins the checks, verdicts
    # and the count of zero-norm columns
    rep = run_suite(SuiteConfig(suite="gauge-hiding", seed=seed))
    assert [r.check_id for r in rep.checks] == GAUGE_HIDING_CHECKS
    assert all(r.passed for r in rep.checks)
    assert "zero-norm kernel columns left out of the asserted block: 13" in rep.notes


def _scale_last_weight(kernel):
    """The kernel with the last row of its last column weighted 1.1 times."""
    weight = kernel.weight.copy()
    weight[np.flatnonzero(kernel.column == kernel.dimension - 1)[-1]] *= 1.1
    return cons.GBKernel(kernel.column, weight, kernel.norm)


def _drop_last_column(kernel):
    gone = kernel.column == kernel.dimension - 1
    column, weight = kernel.column.copy(), kernel.weight.copy()
    column[gone], weight[gone] = -1, 0.0
    return cons.GBKernel(column, weight, kernel.norm[:-1])


@pytest.mark.parametrize(
    "mutate, expected",
    [
        # the pair's column (1, 1.1) / sqrt(2): |1.1^2 / 2 - 1/2| and 0.1 / sqrt(2)
        (
            _scale_last_weight,
            {"gb-free-kernel-contents": 0.105, "gb-kernel-certificate": 0.0707107},
        ),
        # the pair loses (c3+ - c0+)|0>, the grid one monomial: 1 + 1
        (_drop_last_column, {"gb-free-kernel-contents": 0.5, "gb-free-kernel-dimension": 2.0}),
    ],
)
def test_gauge_hiding_pair_checks_fail_on_a_wrong_kernel(monkeypatch, mutate, expected):
    # every closed-form kernel the suite reads, the one-mode pair's and the
    # grid's, is mutated; the pair checks read the damage and fail
    closed_form = cons.gb_physical_subspace
    monkeypatch.setattr(cons, "gb_physical_subspace", lambda ms, fs: mutate(closed_form(ms, fs)))
    rep = run_suite(SuiteConfig(suite="gauge-hiding"))
    checks = {r.check_id: r for r in rep.checks}
    for check_id, residual in expected.items():
        assert checks[check_id].residual == pytest.approx(residual, rel=1e-6)
        assert not checks[check_id].passed


def test_canonical_respects_custom_shell():
    rep = run_suite(SuiteConfig(suite="canonical-commutators", shell=(2.0, 2)))
    assert rep.all_passed
    assert rep.config["shell"] == "2.0,2"


def _spin_total_with_a_scalar_entry():
    """`spin_total` plus the Hermitian lam = 0 <-> 1 entry 1/2 on every mode."""
    ((one, _),) = ops.FORMS["helicity"]
    mix = np.zeros((4, 4), dtype=complex)
    mix[0, 1] = mix[1, 0] = 0.5
    return ops.FORMS["spin_total"] + ((one, (mix,) * 3),)


# Grids whose |k| differ, as half lists, with their largest |k|: the 8-mode
# grid of the CLI tests (|k| = 1 and 1.3) and a 6-mode grid (|k| = 1 and 2).
UNEQUAL_OMEGA_GRIDS = [
    pytest.param([(0, 0, 1), (1, 0, 0), (0.6, 0.8, 0), (0.3, -0.4, 1.2)], 1.3, id="grid8"),
    pytest.param([(0, 0, 1), (1, 0, 0), (0, 2, 0)], 2.0, id="grid6"),
]


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("half, omega_max", UNEQUAL_OMEGA_GRIDS)
def test_hamiltonian_spin_commute_holds_on_grids_of_unequal_omega(
    monkeypatch, half, omega_max, n_max
):
    # S_M is block-diagonal per mode on lam = 1..3 and H is diagonal, so they
    # commute on every grid; a lam = 0 <-> 1 entry meets H's -omega and +omega
    config = SuiteConfig(
        suite="canonical-commutators", grid=build_cartesian_modeset(half), n_max=n_max
    )
    assert _check(run_suite(config), "hamiltonian-spin-commute").passed
    monkeypatch.setitem(ops.FORMS, "spin_total", _spin_total_with_a_scalar_entry())
    record = _check(run_suite(config), "hamiltonian-spin-commute")
    assert not record.passed
    assert record.residual == pytest.approx(omega_max * math.sqrt(n_max), rel=1e-9)


@pytest.mark.parametrize(
    "half", [(0.0, 0.0, 1.0), (1e-10, 0.0, 1.0), (0.0, 0.0, 3e-150)], ids=["z", "near-z", "tiny-z"]
)
def test_lpure_s_terms_on_the_z_axis_read_the_band_curl(half):
    # on the axis band |k| curl eps_1 = sign(k_z) y and |k| curl eps_2 = -x,
    # so each pure-gauge piece weighs 0.5 whatever |k|
    rep = run_suite(SuiteConfig(suite="counter-rotating", grid=build_cartesian_modeset([half])))
    assert _check(rep, "lpure-s-terms-nonzero").residual == pytest.approx(0.5, abs=1e-12)
    assert _check(rep, "lpure-s-sum-vanishes").residual == 0.0


def test_nan_operator_triple_fails():
    # families on a one-quantum space, where each claim reads its brackets
    fs = build_fock([("k", 1), ("q", 2)], 1, max_total=1)
    ident = np.eye(2)
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    lifted = {
        "one": lift_forms(fs, [ident] * 3),
        "nan": lift_forms(fs, [ident, ident, nan]),
        "nan0": lift_forms(fs, [nan, ident, ident]),
    }
    claims = (
        ops.Claim("su2-su2", "MCR2", ops.ALG_SU2, "nan"),
        ops.Claim("comm-commuting", "Table-II", ops.ALG_COMMUTING, "nan0"),
        ops.Claim("nonstd-violation", "Table-III", ops.ALG_NONSTANDARD, "nan0"),
        ops.Claim("mutual-commute", "MCR3", ops.MUTUAL_COMMUTE, "one", "nan"),
        ops.Claim("non-noncommuting", "Table-III", ops.MUTUAL_NONCOMMUTING, "one", "nan"),
        ops.Claim("into-closes-into", "J-obs", ops.CLOSES_INTO, "one", "nan"),
        ops.Claim("c2-su2", "Stokes", ops.ALG_SU2, "nan", structure=2, tight=True),
    )
    rep = VerificationReport("nan", {})
    suites._claim_checks(rep, claims, [(fs, lifted)], 1e-10)
    assert [r.check_id for r in rep.checks] == [
        "su2-su2",
        "comm-commuting",
        "nonstd-violation",
        "mutual-commute",
        "non-noncommuting",
        "into-closes-into",
        "c2-su2",
    ]
    assert all(math.isnan(r.residual) and not r.passed for r in rep.checks)
    assert not rep.all_passed


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_form_lifted_as_a_stack_fails_its_claims():
    # a NaN in one form of a lifted stack reaches every claim that reads it,
    # through the one-quantum stacked lift, the one-pass commutator and the
    # stacked lift of the residual forms on the two-quantum space
    fs = build_fock([("a", 1), ("b", 2), ("c", 3)], 2, max_total=2)
    one = suites._one_quantum(fs)
    spin = spin_matrices()
    poisoned = [m.copy() for m in spin]
    poisoned[2][0, 1] = np.nan
    lifted = {"s": lift_forms(one, spin), "nan": lift_forms(one, poisoned)}
    claims = (
        ops.Claim("clean-su2", "MCR2", ops.ALG_SU2, "s"),
        ops.Claim("su2-su2", "MCR2", ops.ALG_SU2, "nan"),
        ops.Claim("mutual-commute", "MCR3", ops.MUTUAL_COMMUTE, "s", "nan"),
        ops.Claim("into-closes-into", "J-obs", ops.CLOSES_INTO, "s", "nan"),
    )
    rep = VerificationReport("nan", {})
    suites._claim_checks(rep, claims, [(fs, lifted)], 1e-10)
    clean, *poisoned_checks = rep.checks
    assert clean.check_id == "clean-su2" and clean.passed and clean.residual <= 1e-15
    assert [r.check_id for r in poisoned_checks] == ["su2-su2", "mutual-commute", "into-closes-into"]
    assert all(math.isnan(r.residual) and not r.passed for r in poisoned_checks)
    assert render_report(rep, "text").count(b"FAIL") >= 3


def _gauge_hiding_check(rep):
    (check,) = [r for r in rep.checks if r.check_id == "gauge-hiding-spin-representatives"]
    return check


def test_nan_spin_entry_fails_gauge_hiding_representatives(monkeypatch):
    # one NaN form entry, on the diagonal of spin_total's y component at the
    # first transverse channel, lifts onto the one-photon transverse monomial
    # and reaches the asserted residual through the difference lift and the
    # kernel reduction
    family_matrices = ops.family_matrices

    def poisoned(channels, name, modes=None):
        forms = family_matrices(channels, name, modes)
        if name == "spin_total":
            a = list(channels).index((channels[0][0], 1))
            forms[1, a, a] = np.nan
        return forms

    monkeypatch.setattr(ops, "family_matrices", poisoned)
    rep = run_suite(SuiteConfig(suite="gauge-hiding"))
    check = _gauge_hiding_check(rep)
    assert math.isnan(check.residual) and not check.passed
    assert not rep.all_passed


def test_gauge_hiding_fails_on_flipped_spin_obs(monkeypatch):
    # S + S_obs in place of S - S_obs: the transverse spins add up, and the
    # representative block reads them
    family_matrices = ops.family_matrices

    def flipped(channels, name, modes=None):
        forms = family_matrices(channels, name, modes)
        return -forms if name == "spin_obs" else forms

    monkeypatch.setattr(ops, "family_matrices", flipped)
    check = _gauge_hiding_check(run_suite(SuiteConfig(suite="gauge-hiding")))
    assert not check.passed and check.residual > 1.0


def test_gauge_hiding_fails_on_whole_kernel(monkeypatch):
    # every kernel column in the quotient mask, zero-norm directions included:
    # the asserted block then holds the entries gauge hiding leaves nonzero
    every = property(lambda kernel: np.ones(kernel.dimension, dtype=bool))
    monkeypatch.setattr(cons.GBKernel, "quotient", every)
    check = _gauge_hiding_check(run_suite(SuiteConfig(suite="gauge-hiding")))
    assert not check.passed and check.residual >= 0.5


@pytest.mark.parametrize("n_max", [1, 2])
def test_helicity_double_skip_is_noted(n_max):
    rep = run_suite(SuiteConfig(suite="observable-commutators", n_max=n_max))
    checked = "helicity-circular-double" in {r.check_id for r in rep.checks}
    note = "helicity-circular-double skipped: the two-photon state needs n_max >= 2"
    assert checked == (n_max >= 2)
    assert rep.notes.count(note) == (n_max < 2)


# The thirteen checks that read a lifted family on a named state.
STATE_CHECKS = {
    "canonical-commutators": (
        "hamiltonian-vacuum",
        "hamiltonian-transverse-eigenvalue",
        "hamiltonian-scalar-eigenvalue",
        "momentum-eigenvalues",
        "oam-z-transverse-eigenvalue",
        "oam-z-scalar-eigenvalue",
    ),
    "observable-commutators": (
        "helicity-circular-single",
        "helicity-circular-double",
        "helicity-linear-expectation",
        "oam-obs-longitudinal-zero",
        "spin-total-obs-agree-circular",
    ),
    "dirac": ("dirac-spin-half-eigenvalue", "helicity-unit-eigenvalue"),
}


def _scaled(name, factor):
    """The terms of `ops.FORMS[name]`, every matrix times `factor`."""
    return tuple((key, tuple(factor * m for m in mats)) for key, mats in ops.FORMS[name])


def _reweighted(name, lam, weight):
    """The orbital family `ops.FORMS[name]` with polarization `lam` weighted by `weight`."""
    ((key, (w, *_)),) = ops.FORMS[name]
    w = w.copy()
    w[lam, lam] = weight
    return ((key, (w,) * 3),)


def _sigma3_helicity():
    """sigma_3 on the (lam = 1, lam = 2) block in place of the helicity's sigma_2."""
    ((key, _),) = ops.FORMS["helicity"]
    return ((key, (np.diag([0.0, 1.0, -1.0, 0.0]).astype(complex),)),)


# Per mutation of one `ops.FORMS` entry: the state checks it fails, with the
# residuals read at the default config.  hamiltonian-vacuum is the one state
# check left out: the lift is normal-ordered, so <0|L(M)|0> = 0 for every
# form M, and no entry of `FORMS` can move it.
STATE_MUTATIONS = [
    pytest.param(
        "helicity",
        lambda: _scaled("helicity", -1),
        {
            ("observable-commutators", "helicity-circular-single"): math.sqrt(2),
            ("observable-commutators", "helicity-circular-double"): 2 * math.sqrt(2),
            ("dirac", "helicity-unit-eigenvalue"): math.sqrt(2),
        },
        id="helicity-negated",
    ),
    pytest.param(
        "helicity",
        _sigma3_helicity,
        {("observable-commutators", "helicity-linear-expectation"): 1.0},
        id="helicity-sigma3",
    ),
    pytest.param(
        "hamiltonian",
        lambda: _scaled("hamiltonian", 2),
        {
            ("canonical-commutators", "hamiltonian-transverse-eigenvalue"): 1.0,
            ("canonical-commutators", "hamiltonian-scalar-eigenvalue"): 1.0,
        },
        id="hamiltonian-doubled",
    ),
    pytest.param(
        "momentum",
        lambda: _scaled("momentum", -1),
        {("canonical-commutators", "momentum-eigenvalues"): 2.0},
        id="momentum-negated",
    ),
    pytest.param(
        "oam_total",
        lambda: _reweighted("oam_total", 1, -1.0),
        {("canonical-commutators", "oam-z-transverse-eigenvalue"): 2.0},
        id="oam-total-transverse-weight-flipped",
    ),
    pytest.param(
        "oam_total",
        lambda: _reweighted("oam_total", 0, 1.0),
        {("canonical-commutators", "oam-z-scalar-eigenvalue"): 2.0},
        id="oam-total-scalar-weight-flipped",
    ),
    pytest.param(
        "oam_obs",
        lambda: _reweighted("oam_obs", 3, 1.0),
        {("observable-commutators", "oam-obs-longitudinal-zero"): 1.0},
        id="oam-obs-longitudinal-weighted",
    ),
    pytest.param(
        "dirac_sam",
        lambda: _scaled("dirac_sam", 2),
        {("dirac", "dirac-spin-half-eigenvalue"): 0.5},
        id="dirac-sam-doubled",
    ),
    pytest.param(
        "spin_obs",
        lambda: _scaled("spin_obs", -1),
        {("observable-commutators", "spin-total-obs-agree-circular"): 2.0},
        id="spin-obs-negated",
    ),
]


# Per mutation of `suites._coordinates`, the map from the transverse
# amplitudes t = amps[:, 1:3] to the real coordinates of the coordinate
# states: the density-map-integral residual it reads at the default config.
COORDINATE_MUTATIONS = [
    pytest.param(lambda t: np.stack([t.imag, t.real], axis=-1).ravel(), 6.393, id="re-im-swapped"),
    pytest.param(
        lambda t: np.stack([t[:, ::-1].real, t[:, ::-1].imag], axis=-1).ravel(),
        6.393,
        id="lam-swapped",
    ),
    pytest.param(lambda t: np.stack([t.real, t.imag]).ravel(), 5.363, id="slot-major"),
]


@pytest.mark.parametrize("coordinates, residual", COORDINATE_MUTATIONS)
def test_density_map_integral_fails_under_a_mutated_coordinate_map(
    monkeypatch, coordinates, residual
):
    monkeypatch.setattr(suites, "_coordinates", lambda amps: coordinates(amps[:, 1:3]))
    record = _check(run_suite(SuiteConfig(suite="field-consistency")), "density-map-integral")
    assert not record.passed and record.residual == pytest.approx(residual, abs=5e-4)


@pytest.mark.parametrize("name, mutated, expected", STATE_MUTATIONS)
def test_state_check_fails_under_a_mutated_form(monkeypatch, name, mutated, expected):
    monkeypatch.setitem(ops.FORMS, name, mutated())
    for suite in sorted({suite for suite, _ in expected}):
        checks = {r.check_id: r for r in run_suite(SuiteConfig(suite=suite)).checks}
        for (where, check_id), residual in expected.items():
            if where == suite:
                assert checks[check_id].residual == pytest.approx(residual, rel=1e-9)
                assert not checks[check_id].passed


def test_state_mutations_cover_every_state_check_but_the_vacuum():
    covered = {key for case in STATE_MUTATIONS for key in case.values[2]}
    every = {(suite, check_id) for suite, ids in STATE_CHECKS.items() for check_id in ids}
    assert covered == every - {("canonical-commutators", "hamiltonian-vacuum")}
    # the reason: a normal-ordered lift annihilates the vacuum, whatever its form
    fs = build_fock([("k", lam) for lam in range(4)], 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        (lifted,) = lift_forms(fs, [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))])
        assert expectation(fs, lifted, fs.vacuum()) == 0.0


def test_eigen_residual_reads_a_nan_operator_as_nan():
    fs = build_fock([("k", 1), ("k", 2)], 1)
    nan = OperatorMatrix.from_entries(fs, [np.nan], [0], [0])
    residual = suites._eigen_residual(nan, 1, suites._circular(fs, "k"), fs.vacuum())
    assert math.isnan(residual)
    rep = VerificationReport("nan", {})
    assert not rep.add("helicity-unit-eigenvalue", "helicity", residual, 1e-14).passed


CANONICAL_INVENTORY = {
    # check ID: (anchor, kind, tolerance) at the default tolerance 1e-10
    "bcr-annihilators-commute": ("BCR2", KIND_EQUALITY, 1e-12),
    "bcr-cross-channel": ("BCR1", KIND_EQUALITY, 1e-12),
    "bcr-scalar": ("BCR1", KIND_EQUALITY, 1e-12),
    "bcr-transverse": ("BCR1", KIND_EQUALITY, 1e-12),
    "hamiltonian-oam-commute": ("H-mode-form", KIND_EQUALITY, 1e-10),
    "hamiltonian-scalar-eigenvalue": ("H-mode-form", KIND_EQUALITY, 1e-12),
    "hamiltonian-spin-commute": ("H-mode-form", KIND_EQUALITY, 1e-10),
    "hamiltonian-transverse-eigenvalue": ("H-mode-form", KIND_EQUALITY, 1e-12),
    "hamiltonian-vacuum": ("H-mode-form", KIND_EQUALITY, 1e-12),
    "lift-homomorphism-random": ("BCR1", KIND_EQUALITY, 1e-12),
    "metric-adjoint-consistency": ("indefinite-metric", KIND_EQUALITY, 1e-12),
    "metric-squared-identity": ("indefinite-metric", KIND_EQUALITY, 1e-12),
    "momentum-eigenvalues": ("PM-planewave", KIND_EQUALITY, 1e-12),
    "oam-spin-commute": ("MCR3", KIND_EQUALITY, 1e-10),
    "oam-su2-all-polarizations": ("MCR2", KIND_EQUALITY, 1e-10),
    "oam-su2-scalar-sector": ("MCR2", KIND_EQUALITY, 1e-10),
    "oam-su2-transverse-sector": ("MCR2", KIND_EQUALITY, 1e-10),
    "oam-z-scalar-eigenvalue": ("PWE-LM", KIND_EQUALITY, 1e-12),
    "oam-z-transverse-eigenvalue": ("PWE-LM", KIND_EQUALITY, 1e-12),
    "scalar-photon-norm": ("negative-norm", KIND_EQUALITY, 1e-12),
    "spin-su2-xy": ("MCR1", KIND_EQUALITY, 1e-10),
    "spin-su2-yz": ("MCR1", KIND_EQUALITY, 1e-10),
    "spin-su2-zx": ("MCR1", KIND_EQUALITY, 1e-10),
}

OBSERVABLE_INVENTORY = {
    "helicity-circular-double": ("helicity", KIND_EQUALITY, 1e-12),
    "helicity-circular-single": ("helicity", KIND_EQUALITY, 1e-12),
    "helicity-linear-expectation": ("helicity", KIND_EQUALITY, 1e-12),
    "j-obs-closes-into-oam-obs": ("J-obs", KIND_EQUALITY, 1e-10),
    "j-obs-not-su2": ("J-obs", KIND_VIOLATION, 0.1),
    "oam-obs-longitudinal-zero": ("L-obs-form", KIND_EQUALITY, 1e-12),
    "oam-obs-su2": ("L-obs", KIND_EQUALITY, 1e-10),
    "spin-obs-commuting": ("Table-II", KIND_EQUALITY, 1e-12),
    "spin-obs-oam-obs-commute": ("Table-II", KIND_EQUALITY, 1e-10),
    "spin-total-obs-agree-circular": ("S-obs-form", KIND_EQUALITY, 1e-10),
    "stokes-helicity-match": ("Stokes", KIND_EQUALITY, 1e-12),
}

DECOMPOSITION_INVENTORY = {
    # check ID: (anchor, kind, tolerance) at the default tolerance 1e-10
    "belinfante-ji-j-violation": ("JM-BJ", KIND_VIOLATION, 0.1),
    "canonical-mutual-commute": ("Table-III", KIND_EQUALITY, 1e-10),
    "canonical-oam-su2": ("Table-III", KIND_EQUALITY, 1e-10),
    "canonical-spin-su2": ("Table-III", KIND_EQUALITY, 1e-10),
    "chen-mutual-noncommuting": ("Table-III", KIND_VIOLATION, 0.1),
    "chen-oam-su2": ("Table-III", KIND_EQUALITY, 1e-10),
    "chen-spin-violation": ("Table-III", KIND_VIOLATION, 0.1),
    "gauge-invariant-oam-obs-su2": ("Table-II", KIND_EQUALITY, 1e-10),
    "gauge-invariant-spin-obs-commuting": ("Table-II", KIND_EQUALITY, 1e-12),
    "gb-root-identity": ("JM-BJ", KIND_EQUALITY, 1e-14),
    "jaffe-manohar-oam-violation": ("Table-III", KIND_VIOLATION, 0.1),
    "jaffe-manohar-spin-violation": ("Table-III", KIND_VIOLATION, 0.1),
    "stokes-factor-2": ("Stokes", KIND_EQUALITY, 1e-12),
    "wakamatsu-mutual-noncommuting": ("Table-III", KIND_VIOLATION, 0.1),
    "wakamatsu-spin-violation": ("Table-III", KIND_VIOLATION, 0.1),
}


def _inventory(rep):
    return {r.check_id: (r.anchor, r.kind, r.tolerance) for r in rep.checks}


@pytest.mark.parametrize("suite", ["canonical-commutators", "observable-commutators"])
def test_commutator_suite_check_inventory(suite):
    inventory = {
        "canonical-commutators": CANONICAL_INVENTORY,
        "observable-commutators": OBSERVABLE_INVENTORY,
    }[suite]
    assert _inventory(run_suite(SuiteConfig(suite=suite))) == inventory


def test_decomposition_check_inventory():
    rep = run_suite(SuiteConfig(suite="decomposition-compare"))
    assert _inventory(rep) == DECOMPOSITION_INVENTORY


def _replaced(claims, old_id, **changes):
    """The claims with the fields of the claim `old_id` replaced."""
    return tuple(
        dataclasses.replace(claim, **changes) if claim.check_id == old_id else claim
        for claim in claims
    )


def test_decomposition_checks_follow_claims_table(monkeypatch):
    # the check ID stays; kind and bound follow the flipped verdict, and the
    # claim then fails: Chen's and the all-polarization L close su(2), J_obs
    # does not
    for suite, check_id, verdict, expected_verdict, inventory in (
        (
            "decomposition-compare", "chen-oam-su2", ops.ALG_NONSTANDARD,
            (KIND_VIOLATION, 0.1), DECOMPOSITION_INVENTORY,
        ),
        (
            "canonical-commutators", "oam-su2-all-polarizations", ops.ALG_NONSTANDARD,
            (KIND_VIOLATION, 0.1), CANONICAL_INVENTORY,
        ),
        (
            "observable-commutators", "j-obs-not-su2", ops.ALG_SU2,
            (KIND_EQUALITY, 1e-10), OBSERVABLE_INVENTORY,
        ),
    ):
        flipped = _replaced(ops.CLAIMS[suite], check_id, verdict=verdict)
        monkeypatch.setitem(ops.CLAIMS, suite, flipped)
        rep = run_suite(SuiteConfig(suite=suite))
        expected = dict(inventory)
        expected[check_id] = (inventory[check_id][0], *expected_verdict)
        assert _inventory(rep) == expected
        assert [r.check_id for r in rep.checks if not r.passed] == [check_id]
    monkeypatch.undo()

    # the report carries the table's ID
    suite = "decomposition-compare"
    renamed = _replaced(ops.CLAIMS[suite], "chen-oam-su2", check_id="chen-oam-renamed")
    monkeypatch.setitem(ops.CLAIMS, suite, renamed)
    expected = dict(DECOMPOSITION_INVENTORY)
    expected["chen-oam-renamed"] = expected.pop("chen-oam-su2")
    assert _inventory(run_suite(SuiteConfig(suite=suite))) == expected


# Every check the claims table emits under `all`.
CLAIMED_CHECKS = [
    "canonical-commutators/hamiltonian-oam-commute",
    "canonical-commutators/hamiltonian-spin-commute",
    "canonical-commutators/oam-spin-commute",
    "canonical-commutators/oam-su2-all-polarizations",
    "canonical-commutators/oam-su2-scalar-sector",
    "canonical-commutators/oam-su2-transverse-sector",
    "canonical-commutators/spin-su2-xy",
    "canonical-commutators/spin-su2-yz",
    "canonical-commutators/spin-su2-zx",
    "decomposition-compare/belinfante-ji-j-violation",
    "decomposition-compare/canonical-mutual-commute",
    "decomposition-compare/canonical-oam-su2",
    "decomposition-compare/canonical-spin-su2",
    "decomposition-compare/chen-mutual-noncommuting",
    "decomposition-compare/chen-oam-su2",
    "decomposition-compare/chen-spin-violation",
    "decomposition-compare/gauge-invariant-oam-obs-su2",
    "decomposition-compare/gauge-invariant-spin-obs-commuting",
    "decomposition-compare/jaffe-manohar-oam-violation",
    "decomposition-compare/jaffe-manohar-spin-violation",
    "decomposition-compare/stokes-factor-2",
    "decomposition-compare/wakamatsu-mutual-noncommuting",
    "decomposition-compare/wakamatsu-spin-violation",
    "dirac/dirac-oam-su2",
    "dirac/dirac-sam-oam-commute",
    "dirac/dirac-sam-su2",
    "observable-commutators/j-obs-closes-into-oam-obs",
    "observable-commutators/j-obs-not-su2",
    "observable-commutators/oam-obs-su2",
    "observable-commutators/spin-obs-commuting",
    "observable-commutators/spin-obs-oam-obs-commute",
]


def test_claims_table_emits_every_algebra_check(monkeypatch):
    emitted = []
    emit = suites._claim_checks

    def recording(rep, claims, lifted, tol):
        before = len(rep.checks)
        emit(rep, claims, lifted, tol)
        emitted.extend(f"{rep.suite}/{r.check_id}" for r in rep.checks[before:])

    monkeypatch.setattr(suites, "_claim_checks", recording)
    rep = run_suite(SuiteConfig(suite="all"))
    assert rep.all_passed
    assert len(CLAIMED_CHECKS) == 31
    assert sorted(emitted) == CLAIMED_CHECKS


def test_every_expected_check_id_is_spelled_in_src():
    # every check ID the benchmark expects is a quoted literal in the package,
    # so a search for the ID finds the claim or the suite code that reports it
    root = Path(__file__).resolve().parents[1]
    expected = json.loads((root / "perfbench" / "expected_checks.json").read_text())
    ids = {entry.split("/", 1)[-1] for entries in expected.values() for entry in entries}
    source = "".join(path.read_text() for path in (root / "src" / "photonam").glob("*.py"))
    assert len(ids) == 80
    assert sorted(i for i in ids if f'"{i}"' not in source) == []


# Asserted-block oracle: the suites read number-conserving claims with plain
# max_abs on spaces capped at the asserted block.  The reference reads them on
# a space capped one level higher, densified on the asserted block.


def _block_plus_one(chans, n_max):
    fs = build_fock(chans, n_max, max_total=n_max + 1)
    idx = fs.bounded_indices(n_max)
    return fs, lambda op: max_abs(compress(op, idx))


def _su2_read(triple, read):
    return max_residual(
        read(commutator(triple[i], triple[j]) - 1j * triple[k])
        for i, j, k in suites.EPS_PAIRS
    )


def _claim_residual_read(claim, lifted, read):
    """Residual of one claim with a single check ID."""
    a = lifted[claim.a]
    if claim.verdict == ops.ALG_COMMUTING:
        return max_residual(read(commutator(a[i], a[j])) for i, j, _ in suites.EPS_PAIRS)
    if claim.b is None:
        return _su2_read(a, read)
    b = lifted[claim.b]
    return max_residual(read(commutator(x, y)) for x in a for y in b)


def _su2(triple):
    return max_residual(map(max_abs, suites._claim_brackets(ops.ALG_SU2, triple, triple)))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_spin_su2_block_capped_matches_block_plus_one(n_max):
    ms = suites._default_grid()
    new = suites._capped_grid_space(ms, (0, 1, 2, 3), SuiteConfig(n_max=n_max))
    old, read = _block_plus_one(new.channels, n_max)
    assert new.max_total == n_max and new.dim < old.dim
    assert _su2(ops.lift_family(new, "spin_total", ms)) == _su2_read(
        ops.lift_family(old, "spin_total", ms), read
    )


@pytest.mark.parametrize("lam", [1, 0])
def test_oam_sector_block_capped_matches_block_plus_one(lam):
    shell = SphericalShell(radius=1.0, l_max=2)
    new = suites._shell_space(shell, (lam,), 1 << 20)
    old, read = _block_plus_one(new.channels, 1)
    name = {1: "oam_transverse", 0: "oam_scalar"}[lam]
    assert _su2(ops.lift_family(new, name, shell)) == _su2_read(
        ops.lift_family(old, name, shell), read
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_decomposition_claims_block_capped_match_block_plus_one(seed, seeded_xi):
    # seed 0 reads the stated source of the suite, the others seeded
    # conjugate-symmetric sources of the same scale
    shell = SphericalShell(radius=1.0, l_max=1)
    new = suites._shell_space(shell, (0, 1, 2, 3), 1 << 20)
    old, read = _block_plus_one(new.channels, 1)
    rng = np.random.default_rng(seed)
    xi = stated_source(shell) if seed == 0 else seeded_xi(shell, rng, 0.4)
    # the decompositions' claims, on the shell space; Stokes is on a grid
    claims = [c for c in ops.CLAIMS["decomposition-compare"] if c.anchor != "Stokes"]

    def lifted(fs):
        out = suites._lift_named(fs, shell, (n for c in claims for n in (c.a, c.b) if n))
        # the xi extra term moves the total occupation by one
        extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
        out["oam_wak"] = tuple(a + b + c for a, b, c in zip(out["oam_wak"], *extra))
        return out

    new_lifted, old_lifted = lifted(new), lifted(old)
    for claim in claims:
        rep = VerificationReport("decomposition-compare", {})
        suites._claim_checks(rep, (claim,), [(new, new_lifted)], 1e-10)
        (check,) = rep.checks
        assert check.residual == _claim_residual_read(claim, old_lifted, read), claim.check_id


@functools.cache
def _full_space_lift_homomorphism():
    """lift-homomorphism-random's 120 basis pairs on the uncapped n_max 3
    product space, each form lifted on its own, read on the block of total
    occupation <= 2."""
    fs = build_fock(suites._HOMOMORPHISM_CHANNELS, 3)
    block = fs.bounded_indices(2)
    basis = np.eye(16).reshape(16, 4, 4)
    residuals = []
    for i in range(16):
        for j in range(i + 1, 16):
            lhs = commutator(lift_forms(fs, [basis[i]])[0], lift_forms(fs, [basis[j]])[0])
            rhs = lift_forms(fs, [form_bracket(basis[i], basis[j], fs.signs)])[0]
            residuals.append(max_abs(compress(lhs - rhs, block)))
    assert len(residuals) == 120
    return max_residual(residuals)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lift_homomorphism_capped_matches_full_space(seed):
    # the reported residual is the capped basis check's at every seed, and
    # that is the uncapped product space's on the block, bit for bit
    config = SuiteConfig(suite="canonical-commutators", seed=seed)
    checks = {r.check_id: r for r in run_suite(config).checks}
    reported = checks["lift-homomorphism-random"].residual
    capped = suites._lift_homomorphism_residual(DEFAULT_DIM_CAP)
    assert 0.0 < reported == capped == _full_space_lift_homomorphism()


def test_lift_homomorphism_fails_without_the_metric(monkeypatch):
    # the bracket M N - N M leaves G out, so the scalar channels' signs go
    monkeypatch.setattr(suites, "form_bracket", lambda m, n, signs: m @ n - n @ m)
    checks = {r.check_id: r for r in run_suite(SuiteConfig(suite="canonical-commutators")).checks}
    check = checks["lift-homomorphism-random"]
    assert check.residual >= 1.0
    assert not check.passed


def test_density_map_integral_catches_a_perturbed_map(monkeypatch):
    # the map's sum is checked against the spin Gram on the state's
    # coordinates, which does not read the map
    density_map = flds.spin_density_map

    def perturbed(maps):
        out = density_map(maps)
        out[0, 0] += 1e-9
        return out

    monkeypatch.setattr(flds, "spin_density_map", perturbed)
    rep = run_suite(SuiteConfig(suite="field-consistency"))
    assert "density-map-integral" in [r.check_id for r in rep.checks if not r.passed]


def _check(rep, check_id):
    (record,) = [r for r in rep.checks if r.check_id == check_id]
    return record


def _mutated_family(monkeypatch, name, factor):
    """`fields.family_matrices` with the matrices of the family `name` scaled."""
    matrices = flds.family_matrices
    monkeypatch.setattr(
        flds,
        "family_matrices",
        lambda chans, n, *args: matrices(chans, n, *args) * (factor if n == name else 1.0),
    )


def test_field_identities_catch_a_negated_spin_form(monkeypatch):
    # the 24 x 24 matrices of the spin identity, and the stated state's
    # transverse spin, nonzero in every component
    rep = run_suite(SuiteConfig(suite="field-consistency"))
    assert _check(rep, "spin-mode-duality").passed and _check(rep, "density-map-integral").passed
    _mutated_family(monkeypatch, "spin_obs", -1.0)
    rep = run_suite(SuiteConfig(suite="field-consistency"))
    for check_id, value in (("spin-mode-duality", 2.0), ("density-map-integral", 6.39)):
        record = _check(rep, check_id)
        assert not record.passed and record.residual == pytest.approx(value, abs=5e-3)


def test_parseval_energy_catches_a_doubled_hamiltonian(monkeypatch):
    # the largest omega of the field lattice is |(0, 1, 1)| = sqrt(2)
    _mutated_family(monkeypatch, "hamiltonian", 2.0)
    record = _check(run_suite(SuiteConfig(suite="field-consistency")), "parseval-energy")
    assert not record.passed and record.residual == pytest.approx(math.sqrt(2.0))


def test_xi_conjugate_symmetry_catches_a_wrong_shell_phase(monkeypatch):
    # phase (-1)^m in place of (-1)^(l+m): xi(1, 0) = 0.4i then differs from
    # its own conjugate rule by 0.8
    partners = cons._reality_partners

    def wrong_phase(ms):
        partner, phase = partners(ms)
        if isinstance(ms, SphericalShell):
            phase = np.array([(-1.0) ** m for _, m in ms.mode_labels()])
        return partner, phase

    monkeypatch.setattr(cons, "_reality_partners", wrong_phase)
    record = _check(run_suite(SuiteConfig(suite="gauge-hiding")), "xi-conjugate-symmetry")
    assert not record.passed and record.residual == pytest.approx(0.8)


def test_sigma_z_eigenvalues_catch_a_wrong_spinor_block(monkeypatch):
    # kron(sigma_3, 1) has Sigma_z's spectrum but not its eigenvectors
    sigma_z = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    monkeypatch.setattr(ops, "SIGMA", (*ops.SIGMA[:2], sigma_z))
    record = _check(run_suite(SuiteConfig(suite="dirac")), "spinor-sigma-z-eigenvalues")
    assert not record.passed and record.residual == 2.0


@pytest.mark.parametrize("basis", range(4))
def test_wakamatsu_claim_holds_for_each_basis_source(basis, xi_basis, monkeypatch):
    # every real direction of the conjugate-symmetric sources at l_max 1
    source = 0.4 * xi_basis(SphericalShell(radius=1.0, l_max=1))[basis]
    monkeypatch.setattr(suites, "stated_source", lambda shell: source)
    rep = run_suite(SuiteConfig(suite="decomposition-compare"))
    assert _check(rep, "wakamatsu-mutual-noncommuting").passed


def _xi_pathway_value(rep):
    (note,) = [n for n in rep.notes if n.startswith("xi pathway")]
    return float(re.search(r"counterterm\| = (\S+),", note).group(1))


@pytest.mark.parametrize("shell, bound", [(None, 1e-15), ((1.0, 8), 1e-14)])
def test_xi_pathway_note_is_seed_free_and_reads_rounding(shell, bound):
    values = {
        _xi_pathway_value(run_suite(SuiteConfig(suite="gauge-hiding", seed=seed, shell=shell)))
        for seed in range(4)
    }
    assert len(values) == 1 and values.pop() <= bound


@pytest.mark.parametrize(
    "mutate, value",
    [
        # the counterterm -xi^dag L xi left out
        (lambda lhs, source, counter: (lhs, source, 0 * counter), 1.0),
        # the source with its sign flipped; it vanishes at t = 0, not at t = 1
        (lambda lhs, source, counter: (lhs, -source, counter), 4.0),
    ],
)
def test_xi_pathway_note_catches_a_wrong_side(mutate, value, monkeypatch):
    sides = suites._xi_pathway_sides
    monkeypatch.setattr(suites, "_xi_pathway_sides", lambda *args: mutate(*sides(*args)))
    assert _xi_pathway_value(run_suite(SuiteConfig(suite="gauge-hiding"))) == value


def _flipped_exponent(lattice, rho):
    weight = cons._xi_prefactor(lattice.grid.omega) * flds.cell_volume(lattice)
    return weight * (np.asarray(rho, dtype=float) @ lattice.phases)


@pytest.mark.parametrize(
    "target, mutant, floor",
    [
        ("xi0_from_charge", _flipped_exponent, 6.0),
        ("_xi_prefactor", lambda omega: 1.0 / (omega * math.sqrt(2.0 * (2.0 * math.pi) ** 3)), 0.6),
    ],
)
def test_xi_fourier_reality_catches_a_wrong_fourier_pathway(target, mutant, floor, monkeypatch):
    rep = run_suite(SuiteConfig(suite="gauge-hiding"))
    (record,) = [r for r in rep.checks if r.check_id == "xi-fourier-reality"]
    assert record.passed and record.residual <= 1e-15
    monkeypatch.setattr(cons, target, mutant)
    rep = run_suite(SuiteConfig(suite="gauge-hiding"))
    (record,) = [r for r in rep.checks if r.check_id == "xi-fourier-reality"]
    assert not record.passed and record.residual > floor
