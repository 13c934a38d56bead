import dataclasses

import numpy as np
import pytest

from photonam import operators as ops
from photonam import suites
from photonam.dirac import build_fermion_fock, spinor_orbital_channels
from photonam.errors import ChannelMismatch, DimensionMismatch, UnknownChannel
from photonam.fock import (
    OperatorMatrix,
    annihilator,
    build_fock,
    compress,
    creator,
    lift_forms,
    max_abs,
)
from photonam.modes import SphericalShell, orbital_matrices, shell_channels
from photonam.report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport
from photonam.suites import DIRAC_FERMION_CAP, TIGHT_TOL, SuiteConfig, run_suite

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def dense(mat):
    return mat.to_dense() if isinstance(mat, OperatorMatrix) else np.asarray(mat)


def lift(ffs, m):
    return lift_forms(ffs, [m])[0]


def dirac_families(ffs, l_max):
    """S_D and L_D, lifted with the orbital generators up to l_max."""
    shell = SphericalShell(radius=1.0, l_max=l_max)
    return tuple(ops.lift_family(ffs, name, shell) for name in ("dirac_sam", "dirac_oam"))


def test_spinor_matrices_block_structure():
    eye4 = np.eye(4)
    zero2 = np.zeros((2, 2))
    np.testing.assert_array_equal(ops.BETA, np.block([[ops.PAULI[0], zero2], [zero2, -ops.PAULI[0]]]))
    np.testing.assert_array_equal(dense(ops.BETA @ ops.BETA), eye4)
    np.testing.assert_array_equal(np.sort(np.linalg.eigvalsh(ops.SIGMA[2])), [-1, -1, 1, 1])
    for i in range(3):
        sig = ops.PAULI[i + 1]
        np.testing.assert_array_equal(ops.ALPHA[i], np.block([[zero2, sig], [sig, zero2]]))
        np.testing.assert_array_equal(ops.SIGMA[i], np.block([[sig, zero2], [zero2, sig]]))
        for j in range(3):
            anti = ops.ALPHA[i] @ ops.ALPHA[j] + ops.ALPHA[j] @ ops.ALPHA[i]
            np.testing.assert_array_equal(anti, 2.0 * (i == j) * eye4)
        # beta anticommutes with every alpha_i
        np.testing.assert_array_equal(ops.BETA @ ops.ALPHA[i] + ops.ALPHA[i] @ ops.BETA, 0)
    for mat in (ops.BETA, *ops.ALPHA, *ops.SIGMA):
        assert not mat.flags.writeable


def test_spinor_sigma_is_twice_the_table_i_sam_block():
    ((_, blocks),) = ops.FORMS["dirac_sam"]
    for i in range(3):
        np.testing.assert_array_equal(ops.SIGMA[i], 2.0 * blocks[i])


def test_spinor_half_generators_close_su2():
    half = [s / 2.0 for s in ops.SIGMA]
    for i, j, k in EPS_PAIRS:
        comm = half[i] @ half[j] - half[j] @ half[i]
        assert np.max(np.abs(comm - 1j * half[k])) <= 1e-15


def test_fermion_ladder_anticommutators():
    ffs = build_fermion_fock([("a", 0), ("a", 1), ("b", 0)])
    eye = np.eye(ffs.dim)
    for ch1 in ffs.channels:
        c1, d1 = annihilator(ffs, ch1), creator(ffs, ch1)
        assert max_abs(dense(c1 @ c1)) == 0.0
        for ch2 in ffs.channels:
            c2, d2 = annihilator(ffs, ch2), creator(ffs, ch2)
            anti = dense(c1 @ d2 + d2 @ c1)
            expected = eye if ch1 == ch2 else 0.0
            assert np.max(np.abs(anti - expected)) == 0.0
            both = dense(c1 @ c2 + c2 @ c1)
            assert np.max(np.abs(both)) == 0.0


def test_fermion_unknown_channel():
    ffs = build_fermion_fock([("a", 0)])
    with pytest.raises(UnknownChannel):
        annihilator(ffs, ("b", 0))


def test_fermionic_lift_homomorphism_brute_force():
    ffs = build_fermion_fock([("a", 0), ("a", 1), ("b", 0), ("b", 1)])
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    n = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lifted_m = lift(ffs, m)
    lifted_n = lift(ffs, n)
    lhs = dense(lifted_m @ lifted_n - lifted_n @ lifted_m)
    rhs = dense(lift(ffs, m @ n - n @ m))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12

    # independent reference for the lift itself
    ladders = [(annihilator(ffs, ch), creator(ffs, ch)) for ch in ffs.channels]
    expected = sum(
        m[a, b] * dense(ladders[a][1] @ ladders[b][0])
        for a in range(4)
        for b in range(4)
    )
    np.testing.assert_allclose(dense(lifted_m), expected, atol=1e-14)


def test_fermionic_lift_shape_guard():
    ffs = build_fermion_fock([("a", 0)])
    with pytest.raises(DimensionMismatch):
        lift_forms(ffs, [np.zeros((2, 2))])


def test_dirac_angular_momentum_algebra():
    ffs = build_fermion_fock(spinor_orbital_channels(1))
    sam, oam = dirac_families(ffs, 1)
    for i, j, k in EPS_PAIRS:
        assert max_abs(sam[i] @ sam[j] - sam[j] @ sam[i] - 1j * sam[k]) <= 1e-12
        assert max_abs(oam[i] @ oam[j] - oam[j] @ oam[i] - 1j * oam[k]) <= 1e-12
    for s in sam:
        for L in oam:
            assert max_abs(s @ L - L @ s) <= 1e-12


def test_dirac_sam_eigenvalue_half():
    ffs = build_fermion_fock(spinor_orbital_channels(0))
    sam = ops.lift_family(ffs, "dirac_sam")
    up = creator(ffs, ((0, 0), 0))
    one = up @ ffs.vacuum()
    np.testing.assert_allclose(dense(sam[2] @ one), 0.5 * one, atol=1e-15)
    down = creator(ffs, ((0, 0), 1))
    one_down = down @ ffs.vacuum()
    np.testing.assert_allclose(dense(sam[2] @ one_down), -0.5 * one_down, atol=1e-15)


def test_photon_and_dirac_sectors_commute_on_tensor_space():
    photon = build_fock([("k", 1), ("k", 2)], 1)
    (hel,) = ops.lift_family(photon, "helicity")
    ffs = build_fermion_fock(spinor_orbital_channels(0))
    for fop in ops.lift_family(ffs, "dirac_sam"):
        big_b = np.kron(hel.to_dense(), np.eye(ffs.dim))
        big_f = np.kron(np.eye(photon.dim), fop.to_dense())
        assert max_abs(big_b @ big_f - big_f @ big_b) == 0.0


def test_helicity_integer_eigenvalues_alongside_dirac_halves():
    photon = build_fock([("k", 1), ("k", 2)], 1)
    (hel,) = ops.lift_family(photon, "helicity")
    plus = (creator(photon, ("k", 1)) + 1j * creator(photon, ("k", 2))) @ photon.vacuum()
    plus = plus / np.linalg.norm(plus)
    np.testing.assert_allclose(hel @ plus, plus, atol=1e-15)
    eigs = np.linalg.eigvalsh(hel.to_dense())
    assert {round(v, 12) for v in eigs} == {-1.0, 0.0, 1.0}


def test_dirac_suite_cap_keeps_full_space_residuals():
    # each claim's residual form is lifted on the capped space, and that lift
    # is the full space's on the cap's states, entry for entry.  Its largest
    # entry may read lower than the full space's: a diagonal entry sums the
    # form's rounding-level diagonal over at most DIRAC_FERMION_CAP fermions
    chans = spinor_orbital_channels(1)
    capped, full = (build_fermion_fock(chans, max_total=cap) for cap in (DIRAC_FERMION_CAP, None))
    assert capped.dim == 697
    one = suites._one_quantum(capped)
    families = dict(zip(("dirac_sam", "dirac_oam"), dirac_families(one, 1)))
    claims = ops.CLAIMS["dirac"]
    brackets = [
        op
        for c in claims
        for op in suites._claim_brackets(c.verdict, families[c.a], families[c.b or c.a], c.structure)
    ]
    forms = suites._residual_forms(brackets, one.signs)
    kept = full.locate(capped.occ)
    for small, big in zip(lift_forms(capped, forms), lift_forms(full, forms), strict=True):
        np.testing.assert_array_equal(small.to_dense(), compress(big, kept))

    def residuals(ffs):
        rep = VerificationReport("dirac", {})
        suites._claim_checks(rep, claims, [(ffs, families)], TIGHT_TOL)
        return {r.check_id: r.residual for r in rep.checks}

    at_cap, on_full = residuals(capped), residuals(full)
    assert at_cap.keys() == on_full.keys()
    assert all(at_cap[key] <= on_full[key] <= 1e-15 for key in at_cap)


# Reference construction of the Dirac lifts: per-entry channel matrices.
def _channel_matrix(ffs, entry):
    n = len(ffs.channels)
    m = np.zeros((n, n), dtype=complex)
    for (ca, cb), val in entry.items():
        m[ffs.index_of(ca), ffs.index_of(cb)] = val
    return m


def _reference_sam(ffs):
    out = []
    for sig in ops.SIGMA:
        entry = {}
        for (c, s) in ffs.channels:
            for s2 in range(4):
                if sig[s, s2] != 0:
                    entry[((c, s), (c, s2))] = 0.5 * sig[s, s2]
        out.append(lift(ffs, _channel_matrix(ffs, entry)))
    return tuple(out)


def _reference_oam(ffs, l_max):
    chans = shell_channels(l_max)
    cidx = {c: i for i, c in enumerate(chans)}
    out = []
    for gen in orbital_matrices(l_max):
        entry = {}
        for (c, s) in ffs.channels:
            for d in chans:
                val = gen[cidx[c], cidx[d]]
                if val != 0 and (d, s) in ffs.channels:
                    entry[((c, s), (d, s))] = val
        out.append(lift(ffs, _channel_matrix(ffs, entry)))
    return tuple(out)


def _same_entries(a, b):
    """Entry-for-entry equality of two sparse matrices without densifying."""
    return a.shape == b.shape and all(
        np.array_equal(x, y) for x, y in zip(a.entries(), b.entries(), strict=True)
    )


@pytest.mark.parametrize("l_max", [0, 1])
@pytest.mark.parametrize("cap", [None, DIRAC_FERMION_CAP])
def test_dirac_lifts_match_per_entry_reference(l_max, cap):
    ffs = build_fermion_fock(spinor_orbital_channels(l_max), max_total=cap)
    sam, oam = dirac_families(ffs, l_max)
    got = sam + oam
    want = _reference_sam(ffs) + _reference_oam(ffs, l_max)
    for g, w in zip(got, want, strict=True):
        assert isinstance(g, OperatorMatrix)
        assert _same_entries(g, w)
        if ffs.dim <= 1024:
            assert np.array_equal(g.to_dense(), w.to_dense())


def test_dirac_oam_beyond_space_lmax_raises():
    ffs = build_fermion_fock(spinor_orbital_channels(1), max_total=DIRAC_FERMION_CAP)
    with pytest.raises(ChannelMismatch):
        ops.lift_family(ffs, "dirac_oam", SphericalShell(radius=1.0, l_max=2))


DIRAC_INVENTORY = {
    # check ID: (anchor, kind, tolerance); the dirac suite ignores --tol
    "dirac-oam-su2": ("Table-I", KIND_EQUALITY, 1e-12),
    "dirac-sam-oam-commute": ("Table-I", KIND_EQUALITY, 1e-12),
    "dirac-sam-su2": ("Table-I", KIND_EQUALITY, 1e-12),
    "dirac-spin-half-eigenvalue": ("S_D", KIND_EQUALITY, 1e-14),
    "fermion-anticommutators": ("ETCR-D1", KIND_EQUALITY, 1e-14),
    "helicity-unit-eigenvalue": ("helicity", KIND_EQUALITY, 1e-14),
    "photon-dirac-commute": ("Table-I", KIND_EQUALITY, 1e-14),
    "spinor-invariants": ("Dirac-matrices", KIND_EQUALITY, 1e-14),
    "spinor-sigma-z-eigenvalues": ("Dirac-matrices", KIND_EQUALITY, 1e-14),
}


def _inventory(rep):
    return {r.check_id: (r.anchor, r.kind, r.tolerance) for r in rep.checks}


def test_dirac_check_inventory():
    rep = run_suite(SuiteConfig(suite="dirac", tol=1e-6))
    assert _inventory(rep) == DIRAC_INVENTORY


def test_dirac_checks_follow_table_i(monkeypatch):
    flipped = tuple(
        dataclasses.replace(claim, verdict=ops.ALG_NONSTANDARD)
        if claim.check_id == "dirac-oam-su2" else claim
        for claim in ops.CLAIMS["dirac"]
    )
    monkeypatch.setitem(ops.CLAIMS, "dirac", flipped)
    rep = run_suite(SuiteConfig(suite="dirac"))
    expected = dict(DIRAC_INVENTORY)
    expected["dirac-oam-su2"] = ("Table-I", KIND_VIOLATION, 0.1)
    assert _inventory(rep) == expected
    # L_D closes su(2), so the flipped claim fails
    assert [r.check_id for r in rep.checks if not r.passed] == ["dirac-oam-su2"]
