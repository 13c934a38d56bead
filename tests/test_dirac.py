import numpy as np
import pytest
from scipy import sparse

from photonam import operators as ops
from photonam.dirac import (
    build_fermion_fock,
    dirac_oam,
    dirac_sam,
    fermion_ladder,
    fermionic_lift,
    spinor_matrices,
    spinor_orbital_channels,
)
from photonam.errors import DimensionMismatch, UnknownChannel
from photonam.fock import build_fock, creator, max_abs
from photonam.suites import DIRAC_FERMION_CAP, _dirac_algebra_residuals

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def dense(mat):
    return mat.toarray() if sparse.issparse(mat) else np.asarray(mat)


def test_spinor_matrices_block_structure():
    basis = spinor_matrices()
    eye4 = np.eye(4)
    np.testing.assert_array_equal(dense(basis.beta @ basis.beta), eye4)
    np.testing.assert_array_equal(np.sort(np.linalg.eigvalsh(basis.sigma[2])), [-1, -1, 1, 1])
    for i in range(3):
        np.testing.assert_array_equal(basis.gamma[i + 1], basis.beta @ basis.alpha[i])
        for j in range(3):
            anti = basis.alpha[i] @ basis.alpha[j] + basis.alpha[j] @ basis.alpha[i]
            np.testing.assert_array_equal(anti, 2.0 * (i == j) * eye4)
    assert np.max(np.abs(basis.alpha[0] @ basis.alpha[1] + basis.alpha[1] @ basis.alpha[0])) == 0


def test_spinor_half_generators_close_su2():
    basis = spinor_matrices()
    half = [s / 2.0 for s in basis.sigma]
    for i, j, k in EPS_PAIRS:
        comm = half[i] @ half[j] - half[j] @ half[i]
        assert np.max(np.abs(comm - 1j * half[k])) <= 1e-15


def test_fermion_ladder_anticommutators():
    ffs = build_fermion_fock([("a", 0), ("a", 1), ("b", 0)])
    eye = np.eye(ffs.dim)
    for ch1 in ffs.channels:
        c1, d1 = fermion_ladder(ffs, ch1)
        assert max_abs(dense(c1 @ c1)) == 0.0
        for ch2 in ffs.channels:
            c2, d2 = fermion_ladder(ffs, ch2)
            anti = dense(c1 @ d2 + d2 @ c1)
            expected = eye if ch1 == ch2 else 0.0
            assert np.max(np.abs(anti - expected)) == 0.0
            both = dense(c1 @ c2 + c2 @ c1)
            assert np.max(np.abs(both)) == 0.0


def test_fermion_unknown_channel():
    ffs = build_fermion_fock([("a", 0)])
    with pytest.raises(UnknownChannel):
        fermion_ladder(ffs, ("b", 0))


def test_fermionic_lift_homomorphism_brute_force():
    ffs = build_fermion_fock([("a", 0), ("a", 1), ("b", 0), ("b", 1)])
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    n = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lifted_m = fermionic_lift(ffs, m)
    lifted_n = fermionic_lift(ffs, n)
    lhs = dense(lifted_m @ lifted_n - lifted_n @ lifted_m)
    rhs = dense(fermionic_lift(ffs, m @ n - n @ m))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12

    # independent reference for the lift itself
    ladders = [fermion_ladder(ffs, ch) for ch in ffs.channels]
    expected = sum(
        m[a, b] * dense(ladders[a][1] @ ladders[b][0])
        for a in range(4)
        for b in range(4)
    )
    np.testing.assert_allclose(dense(lifted_m), expected, atol=1e-14)


def test_fermionic_lift_shape_guard():
    ffs = build_fermion_fock([("a", 0)])
    with pytest.raises(DimensionMismatch):
        fermionic_lift(ffs, np.zeros((2, 2)))


def test_dirac_angular_momentum_algebra():
    ffs = build_fermion_fock(spinor_orbital_channels(1))
    sam = dirac_sam(ffs)
    oam = dirac_oam(ffs, 1)
    for i, j, k in EPS_PAIRS:
        assert max_abs(sam[i] @ sam[j] - sam[j] @ sam[i] - 1j * sam[k]) <= 1e-12
        assert max_abs(oam[i] @ oam[j] - oam[j] @ oam[i] - 1j * oam[k]) <= 1e-12
    for s in sam:
        for L in oam:
            assert max_abs(s @ L - L @ s) <= 1e-12


def test_dirac_sam_eigenvalue_half():
    ffs = build_fermion_fock(spinor_orbital_channels(0))
    sam = dirac_sam(ffs)
    _, up = fermion_ladder(ffs, ((0, 0), 0))
    one = up @ ffs.vacuum()
    np.testing.assert_allclose(dense(sam[2] @ one), 0.5 * one, atol=1e-15)
    _, down = fermion_ladder(ffs, ((0, 0), 1))
    one_down = down @ ffs.vacuum()
    np.testing.assert_allclose(dense(sam[2] @ one_down), -0.5 * one_down, atol=1e-15)


def test_photon_and_dirac_sectors_commute_on_tensor_space():
    photon = build_fock([("k", 1), ("k", 2)], 1)
    hel = ops.helicity_fixed_frame(photon)
    ffs = build_fermion_fock(spinor_orbital_channels(0))
    for fop in dirac_sam(ffs):
        big_b = sparse.kron(hel.mat, sparse.identity(ffs.dim, dtype=complex))
        big_f = sparse.kron(sparse.identity(photon.dim, dtype=complex), fop)
        assert max_abs(dense(big_b @ big_f - big_f @ big_b)) == 0.0


def test_helicity_integer_eigenvalues_alongside_dirac_halves():
    photon = build_fock([("k", 1), ("k", 2)], 1)
    hel = ops.helicity_fixed_frame(photon)
    plus = (creator(photon, ("k", 1)) + 1j * creator(photon, ("k", 2))) @ photon.vacuum()
    plus = plus / np.linalg.norm(plus)
    np.testing.assert_allclose(hel @ plus, plus, atol=1e-15)
    eigs = np.linalg.eigvalsh(hel.to_dense())
    assert {round(v, 12) for v in eigs} == {-1.0, 0.0, 1.0}


def test_dirac_suite_cap_keeps_full_space_residuals():
    chans = spinor_orbital_channels(1)

    def residuals(ffs):
        return _dirac_algebra_residuals(dirac_sam(ffs), dirac_oam(ffs, 1))

    capped = build_fermion_fock(chans, max_total=DIRAC_FERMION_CAP)
    assert capped.dim == 697
    assert residuals(capped) == residuals(build_fermion_fock(chans))
