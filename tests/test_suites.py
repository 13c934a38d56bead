import dataclasses

import numpy as np
import pytest

from photonam import constraints as cons
from photonam import operators as ops
from photonam import suites
from photonam.fock import (
    OperatorMatrix,
    _CSR,
    build_fock,
    commutator,
    compress,
    identity_operator,
    max_abs,
    max_residual,
)
from photonam.modes import SphericalShell, build_cartesian_modeset
from photonam.report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, render_report
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
    # the kernel basis may rotate inside the physical subspace: residual
    # digits may move, the checks, verdicts and probe counts may not
    rep = run_suite(SuiteConfig(suite="gauge-hiding", seed=seed))
    assert [r.check_id for r in rep.checks] == GAUGE_HIDING_CHECKS
    assert all(r.passed for r in rep.checks)
    assert "zero-norm physical probes skipped and counted: 48" in rep.notes


def test_canonical_respects_custom_shell():
    rep = run_suite(SuiteConfig(suite="canonical-commutators", shell=(2.0, 2)))
    assert rep.all_passed
    assert rep.config["shell"] == "2.0,2"


def test_nan_operator_triple_fails():
    fs = build_fock([("k", 1), ("q", 2)], 1)
    nan = OperatorMatrix(fs, _CSR.from_entries([np.nan], [0], [0], (fs.dim, fs.dim)))
    ident = identity_operator(fs)
    rep = VerificationReport("nan", {})
    rep.add("su2", "MCR2", suites._su2_residual((ident, ident, nan)), 1e-10)
    rep.add("mutual", "MCR3", suites._mutual_residual((ident,), (nan,)), 1e-10)
    rep.add(
        "violation",
        "Table-III",
        suites._su2_residual((nan, ident, ident)),
        0.1,
        kind=KIND_VIOLATION,
    )
    assert [r.passed for r in rep.checks] == [False, False, False]
    assert not rep.all_passed


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


def test_decomposition_check_inventory():
    rep = run_suite(SuiteConfig(suite="decomposition-compare"))
    assert _inventory(rep) == DECOMPOSITION_INVENTORY


def test_decomposition_checks_follow_claims_table(monkeypatch):
    chen = ops.DECOMPOSITIONS["chen"]
    spin, oam = chen.families
    oam = dataclasses.replace(oam, algebra=ops.ALG_NONSTANDARD)
    flipped = dataclasses.replace(chen, families=(spin, oam))
    monkeypatch.setitem(ops.DECOMPOSITIONS, "chen", flipped)
    got = _inventory(run_suite(SuiteConfig(suite="decomposition-compare")))
    expected = dict(DECOMPOSITION_INVENTORY)
    del expected["chen-oam-su2"]
    expected["chen-oam-violation"] = ("Table-III", KIND_VIOLATION, 0.1)
    assert got == expected


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


def _claim_residuals_read(spec, triples, read):
    """Residuals of every claim of one row, in the emitter's order."""
    out = []
    for family, triple in zip(spec.families, triples):
        if family.algebra == ops.ALG_COMMUTING:
            out.append(
                max_residual(
                    read(commutator(triple[i], triple[j])) for i, j, _ in suites.EPS_PAIRS
                )
            )
        elif family.algebra is not None:
            out.append(_su2_read(triple, read))
    if spec.mutual is not None:
        out.append(
            max_residual(read(commutator(a, b)) for a in triples[0] for b in triples[1])
        )
    return out


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_spin_su2_block_capped_matches_block_plus_one(n_max):
    ms = suites._default_grid()
    new = suites._capped_grid_space(ms, (0, 1, 2, 3), SuiteConfig(n_max=n_max))
    old, read = _block_plus_one(new.channels, n_max)
    assert new.max_total == n_max and new.dim < old.dim
    assert suites._su2_residual(ops.spin_total(ms, new)) == _su2_read(
        ops.spin_total(ms, old), read
    )


@pytest.mark.parametrize("lam", [1, 0])
def test_oam_sector_block_capped_matches_block_plus_one(lam):
    shell = SphericalShell(radius=1.0, l_max=2)
    new = suites._shell_space(shell, (lam,), 1 << 20)
    old, read = _block_plus_one(new.channels, 1)
    weight = {lam: ops.OAM_WEIGHTS[lam]}
    assert suites._su2_residual(ops.oam_weighted(shell, new, weight)) == _su2_read(
        ops.oam_weighted(shell, old, weight), read
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_decomposition_claims_block_capped_match_block_plus_one(seed):
    shell = SphericalShell(radius=1.0, l_max=1)
    new = suites._shell_space(shell, (0, 1, 2, 3), 1 << 20)
    old, read = _block_plus_one(new.channels, 1)
    xi = cons.random_conjugate_symmetric_xi(shell, np.random.default_rng(seed), scale=0.4)

    def lifted(fs, name):
        triples = [f.lift(fs) for f in ops.build_decomposition(name, shell, fs)]
        if name == "wakamatsu":
            # the xi extra term moves the total occupation by one
            extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
            triples[1] = tuple(a + b + c for a, b, c in zip(triples[1], *extra))
        return triples

    for name, spec in ops.DECOMPOSITIONS.items():
        rep = VerificationReport(name, {})
        suites._claim_checks(rep, name, spec, lifted(new, name), 1e-10)
        expected = _claim_residuals_read(spec, lifted(old, name), read)
        assert [r.residual for r in rep.checks] == expected, name
