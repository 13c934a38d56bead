import dataclasses
import functools
import math

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import fields as flds
from photonam import operators as ops
from photonam import suites
from photonam.errors import ZeroNormState
from photonam.fock import (
    DEFAULT_DIM_CAP,
    OperatorMatrix,
    QuadraticForm,
    build_fock,
    commutator,
    compress,
    expectation,
    identity_operator,
    lift_forms,
    max_abs,
    max_residual,
)
from photonam.modes import SphericalShell, build_cartesian_modeset, spin_matrices
from photonam.report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, render_report
from photonam.sampling import SeededRng
from photonam.suites import SUITES, SuiteConfig, run_suite

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
    # and probe counts
    rep = run_suite(SuiteConfig(suite="gauge-hiding", seed=seed))
    assert [r.check_id for r in rep.checks] == GAUGE_HIDING_CHECKS
    assert all(r.passed for r in rep.checks)
    assert "zero-norm physical probes skipped and counted: 13" in rep.notes


def test_canonical_respects_custom_shell():
    rep = run_suite(SuiteConfig(suite="canonical-commutators", shell=(2.0, 2)))
    assert rep.all_passed
    assert rep.config["shell"] == "2.0,2"


def test_nan_operator_triple_fails():
    fs = build_fock([("k", 1), ("q", 2)], 1)
    nan = OperatorMatrix.from_entries(fs, [np.nan], [0], [0])
    ident = identity_operator(fs)
    lifted = {"one": (ident,) * 3, "nan": (ident, ident, nan), "nan0": (nan, ident, ident)}
    rows = (
        ops.ClaimsRow("", "MCR2", (("nan", "su2", ops.ALG_SU2),)),
        ops.ClaimsRow("", "Table-II", (("nan0", "comm", ops.ALG_COMMUTING),)),
        ops.ClaimsRow("", "Table-III", (("nan0", "nonstd", ops.ALG_NONSTANDARD),)),
        ops.ClaimsRow("", "MCR3", (("one", "a", None), ("nan", "b", None)), ops.MUTUAL_COMMUTE),
        ops.ClaimsRow(
            "", "Table-III", (("one", "a", None), ("nan", "b", None)),
            ops.MUTUAL_NONCOMMUTING, "non",
        ),
        ops.ClaimsRow("", "J-obs", (("one", "a", None), ("nan", "b", None)), ops.CLOSES_INTO, "into"),
        ops.ClaimsRow("", "Stokes", (("nan", "c2", ops.ALG_SU2),), structure=2, tight=True),
    )
    rep = VerificationReport("nan", {})
    suites._claim_checks(rep, rows, lifted, 1e-10)
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
    # through the stacked lift and the one-pass commutator
    fs = build_fock([("a", 1), ("b", 2), ("c", 3)], 2, max_total=2)
    spin = spin_matrices()
    poisoned = [m.copy() for m in spin]
    poisoned[2][0, 1] = np.nan
    lifted = {"s": lift_forms(fs, spin), "nan": lift_forms(fs, poisoned)}
    rows = (
        ops.ClaimsRow("", "MCR2", (("s", "clean", ops.ALG_SU2),)),
        ops.ClaimsRow("", "MCR2", (("nan", "su2", ops.ALG_SU2),)),
        ops.ClaimsRow("", "MCR3", (("s", "a", None), ("nan", "b", None)), ops.MUTUAL_COMMUTE),
        ops.ClaimsRow("", "J-obs", (("s", "a", None), ("nan", "b", None)), ops.CLOSES_INTO, "into"),
    )
    rep = VerificationReport("nan", {})
    suites._claim_checks(rep, rows, lifted, 1e-10)
    clean, *poisoned_checks = rep.checks
    assert clean.check_id == "clean-su2" and clean.passed and clean.residual <= 1e-15
    assert [r.check_id for r in poisoned_checks] == ["su2-su2", "mutual-commute", "into-closes-into"]
    assert all(math.isnan(r.residual) and not r.passed for r in poisoned_checks)
    assert render_report(rep, "text").count(b"FAIL") >= 3


def test_nan_spin_entry_fails_gauge_hiding_representatives(monkeypatch):
    # one NaN entry, on the vacuum row and column of spin_total's y component,
    # reaches the asserted gauge-hiding residual through the kernel reduction
    lift_family = ops.lift_family

    def poisoned(fs, name, modes):
        lifted = lift_family(fs, name, modes)
        if name != "spin_total":
            return lifted
        nan = OperatorMatrix.from_entries(fs, [np.nan], [0], [0])
        return (lifted[0], lifted[1] + nan, lifted[2])

    monkeypatch.setattr(ops, "lift_family", poisoned)
    rep = run_suite(SuiteConfig(suite="gauge-hiding"))
    (check,) = [r for r in rep.checks if r.check_id == "gauge-hiding-spin-representatives"]
    assert math.isnan(check.residual) and not check.passed
    assert not rep.all_passed


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


def _flipped(rows, family, algebra):
    """The rows with the claimed algebra of `family` replaced by `algebra`."""
    return tuple(
        dataclasses.replace(
            row,
            families=tuple(
                (name, tag, algebra if name == family and claimed else claimed)
                for name, tag, claimed in row.families
            ),
        )
        for row in rows
    )


def test_decomposition_checks_follow_claims_table(monkeypatch):
    suite = "decomposition-compare"
    monkeypatch.setitem(
        ops.CLAIMS, suite, _flipped(ops.CLAIMS[suite], "oam_chen", ops.ALG_NONSTANDARD)
    )
    got = _inventory(run_suite(SuiteConfig(suite=suite)))
    expected = dict(DECOMPOSITION_INVENTORY)
    del expected["chen-oam-su2"]
    expected["chen-oam-violation"] = ("Table-III", KIND_VIOLATION, 0.1)
    assert got == expected

    # an explicit check ID stays; kind and bound follow the flipped claim,
    # which then fails: L closes su(2), J_obs does not
    for suite, family, algebra, check_id, verdict, inventory in (
        (
            "canonical-commutators", "oam_total", ops.ALG_NONSTANDARD,
            "oam-su2-all-polarizations", (KIND_VIOLATION, 0.1), CANONICAL_INVENTORY,
        ),
        (
            "observable-commutators", "j_obs", ops.ALG_SU2,
            "j-obs-not-su2", (KIND_EQUALITY, 1e-10), OBSERVABLE_INVENTORY,
        ),
    ):
        monkeypatch.setitem(ops.CLAIMS, suite, _flipped(ops.CLAIMS[suite], family, algebra))
        rep = run_suite(SuiteConfig(suite=suite))
        expected = dict(inventory)
        expected[check_id] = (inventory[check_id][0], *verdict)
        assert _inventory(rep) == expected
        assert [r.check_id for r in rep.checks if not r.passed] == [check_id]


# Every check the claims table emits under `all`.
CLAIMED_CHECKS = [
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

    def recording(rep, rows, lifted, tol):
        before = len(rep.checks)
        emit(rep, rows, lifted, tol)
        emitted.extend(f"{rep.suite}/{r.check_id}" for r in rep.checks[before:])

    monkeypatch.setattr(suites, "_claim_checks", recording)
    rep = run_suite(SuiteConfig(suite="all"))
    assert rep.all_passed
    assert len(CLAIMED_CHECKS) == 29
    assert sorted(emitted) == CLAIMED_CHECKS


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


def _claim_residuals_read(row, lifted, read):
    """Residuals of every claim of one row, in the emitter's order."""
    out = []
    for name, _, algebra in row.families:
        triple = lifted[name]
        if algebra == ops.ALG_COMMUTING:
            out.append(
                max_residual(
                    read(commutator(triple[i], triple[j])) for i, j, _ in suites.EPS_PAIRS
                )
            )
        elif algebra is not None:
            out.append(_su2_read(triple, read))
    if row.relation is not None:
        a, b = (lifted[name] for name, _, _ in row.families[:2])
        out.append(max_residual(read(commutator(x, y)) for x in a for y in b))
    return out


def _su2(triple):
    return max_residual(suites._claim_residuals(ops.ALG_SU2, triple, triple))


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
def test_decomposition_claims_block_capped_match_block_plus_one(seed):
    shell = SphericalShell(radius=1.0, l_max=1)
    new = suites._shell_space(shell, (0, 1, 2, 3), 1 << 20)
    old, read = _block_plus_one(new.channels, 1)
    xi = cons.random_conjugate_symmetric_xi(shell, SeededRng(seed), scale=0.4)
    # the named rows are the decompositions, on the shell space
    rows = [row for row in ops.CLAIMS["decomposition-compare"] if row.name]

    def lifted(fs):
        out = {name: ops.lift_family(fs, name, shell) for row in rows for name, _, _ in row.families}
        # the xi extra term moves the total occupation by one
        extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
        out["oam_wak"] = tuple(a + b + c for a, b, c in zip(out["oam_wak"], *extra))
        return out

    new_lifted, old_lifted = lifted(new), lifted(old)
    for row in rows:
        rep = VerificationReport(row.name, {})
        suites._claim_checks(rep, (row,), new_lifted, 1e-10)
        expected = _claim_residuals_read(row, old_lifted, read)
        assert [r.residual for r in rep.checks] == expected, row.name


def _full_space_lift_homomorphism(rng, pairs):
    """lift-homomorphism-random on the uncapped product spaces, read on the
    block below the truncation edge."""
    residuals = []
    for _ in range(pairs):
        n_ch = int(rng.integers(2, 5))
        lams = [int(rng.integers(0, 4)) for _ in range(n_ch)]
        chans = [(f"m{j}", lams[j]) for j in range(n_ch)]
        n_max = int(rng.integers(2, 4))
        fs = build_fock(chans, n_max)
        shape = (n_ch, n_ch)
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        n = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        qm = QuadraticForm(m, fs.signs)
        qn = QuadraticForm(n, fs.signs)
        lhs = commutator(lift_forms(fs, [qm.matrix])[0], lift_forms(fs, [qn.matrix])[0])
        rhs = lift_forms(fs, [qm.bracket(qn).matrix])[0]
        residuals.append(max_abs(compress(lhs - rhs, fs.bounded_indices(n_max - 1))))
    return max_residual(residuals)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lift_homomorphism_capped_matches_full_space(seed):
    capped = suites._lift_homomorphism_residual(SeededRng(seed), pairs=20, dim_cap=DEFAULT_DIM_CAP)
    full = _full_space_lift_homomorphism(SeededRng(seed), pairs=20)
    assert 0.0 < capped == full


def test_density_map_integral_catches_a_perturbed_map(monkeypatch):
    # the map's sum is checked against the per-mode formula, which does not
    # read the map
    density_map = flds.spin_density_map

    def perturbed(maps):
        out = density_map(maps)
        out[0, 0] += 1e-9
        return out

    monkeypatch.setattr(flds, "spin_density_map", perturbed)
    rep = run_suite(SuiteConfig(suite="field-consistency"))
    assert "density-map-integral" in [r.check_id for r in rep.checks if not r.passed]


def _product_space_xi_pathway(shell, xi, small, factors):
    """The xi pathway on the full product space: <l_pure> and <source> per
    component on the Kronecker product of the one-mode factors."""
    psi = functools.reduce(np.kron, factors)
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    fs = build_fock(chans, small.n_max)
    lpure = ops.lift_family(fs, "l_pure", shell)
    source = tuple(-1.0 * x for x in cons.xi_oam_bilinear(shell, fs, xi, 3))
    return (
        [expectation(fs, lpure[c], psi) for c in range(3)],
        [expectation(fs, source[c], psi) for c in range(3)],
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_xi_pathway_per_mode_matches_product_space(seed, monkeypatch):
    calls = []
    per_mode = suites._xi_pathway_expectations

    def recording(shell, xi, small, factors):
        out = per_mode(shell, xi, small, factors)
        calls.append((shell, xi, small, factors, out))
        return out

    monkeypatch.setattr(suites, "_xi_pathway_expectations", recording)
    rep = run_suite(SuiteConfig(suite="gauge-hiding", seed=seed))
    assert rep.all_passed
    # the probe xi at n_max 1 and 2; a conjugate-symmetric xi is not reported
    assert [small.n_max for _, _, small, _, _ in calls] == [1, 2]
    for shell, xi, small, factors, (lpure, source) in calls:
        ref_lpure, ref_source = _product_space_xi_pathway(shell, xi, small, factors)
        assert max(abs(a - b) for a, b in zip(lpure, ref_lpure)) <= 1e-15
        assert max(abs(a - b) for a, b in zip(source, ref_source)) <= 1e-15
    # the probe xi gives both sides nonzero values
    _, _, _, _, (lpure, source) = calls[-1]
    assert max(abs(a) for a in lpure) > 1e-6 and max(abs(a) for a in source) > 1e-3


def test_xi_pathway_zero_norm_factor_raises():
    shell = SphericalShell(radius=1.0, l_max=1)
    xi = {c: 0.05 for c in shell.mode_labels()}
    small, factors, _ = suites._approximate_displaced_kernel(shell, xi, 1)
    # vacuum plus one scalar photon: indefinite norm 1 - 1 = 0
    gauge = small.vacuum() + small.basis_state({(suites._ONE_LABEL, 0): 1})
    with pytest.raises(ZeroNormState):
        suites._xi_pathway_expectations(shell, xi, small, factors[:-1] + [gauge])
