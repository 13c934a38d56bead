import math

import numpy as np
import pytest

from photonam.errors import DimensionMismatch, DuplicateMode, NegativeLmax, ZeroWaveVector
from photonam.modes import (
    CartesianGrid,
    METRIC_DIAG,
    SphericalShell,
    WaveVector,
    build_cartesian_modeset,
    format_modeset,
    frame_curl,
    minkowski_dot,
    orbital_matrices,
    parse_modeset,
    polarization_frame,
    shell_channels,
    spin_matrices,
)


def test_wave_vector_omega_is_euclidean_norm():
    k = WaveVector((3.0, 0.0, 4.0))
    assert k.omega == pytest.approx(5.0)


def test_zero_wave_vector_rejected():
    with pytest.raises(ZeroWaveVector):
        WaveVector((0.0, 0.0, 0.0))


@pytest.mark.parametrize("components", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ()])
def test_wave_vector_needs_three_components(components):
    with pytest.raises(DimensionMismatch):
        WaveVector(components)


def test_frame_at_z_axis_matches_rule():
    frame = polarization_frame(WaveVector((0.0, 0.0, 1.0)))
    np.testing.assert_allclose(frame.four_vector(0), [1, 0, 0, 0])
    np.testing.assert_allclose(frame.spatial(1), [1, 0, 0])
    np.testing.assert_allclose(frame.spatial(2), [0, 1, 0])
    np.testing.assert_allclose(frame.spatial(3), [0, 0, 1])


def test_frame_orthonormality_and_completeness():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = WaveVector(tuple(rng.normal(size=3)))
        frame = polarization_frame(k)
        for lam in range(4):
            for lam2 in range(4):
                dot = minkowski_dot(frame.four_vector(lam), frame.four_vector(lam2))
                expected = METRIC_DIAG[lam] if lam == lam2 else 0.0
                assert abs(dot - expected) <= 1e-14
        total = np.zeros((4, 4))
        for lam in range(4):
            eps = frame.four_vector(lam)
            eps_lower = eps * np.array(METRIC_DIAG)
            total += METRIC_DIAG[lam] * np.outer(eps_lower, eps_lower)
        assert np.max(np.abs(total - np.diag(METRIC_DIAG))) <= 1e-14


def test_frame_right_handed_and_deterministic():
    k = WaveVector((0.3, -1.2, 0.4))
    f1 = polarization_frame(k)
    f2 = polarization_frame(WaveVector((0.3, -1.2, 0.4)))
    np.testing.assert_array_equal(f1.eps, f2.eps)
    cross = np.cross(f1.spatial(1), f1.spatial(2))
    np.testing.assert_allclose(cross, f1.spatial(3), atol=1e-14)


def test_spin_matrix_entries_and_eigenvalues():
    s1, s2, s3 = spin_matrices()
    assert s3[0, 1] == -1j and s3[1, 0] == 1j
    assert np.count_nonzero(s3) == 2
    eig = np.sort(np.linalg.eigvalsh(s3))
    np.testing.assert_allclose(eig, [-1.0, 0.0, 1.0], atol=1e-14)


def test_spin_matrices_close_su2():
    s = spin_matrices()
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = s[i] @ s[j] - s[j] @ s[i]
        assert np.max(np.abs(comm - 1j * s[k])) <= 1e-14


@pytest.mark.parametrize("l_max", [0, 1, 3])
def test_orbital_matrices_su2_and_ladder(l_max):
    lx, ly, lz = orbital_matrices(l_max)
    chans = shell_channels(l_max)
    np.testing.assert_allclose(np.diag(lz).real, [m for (_, m) in chans], atol=1e-14)
    lp = lx + 1j * ly
    for i, (l, m) in enumerate(chans):
        for j, (l2, m2) in enumerate(chans):
            expected = 0.0
            if l == l2 and m == m2 + 1:
                expected = math.sqrt(l * (l + 1) - m2 * (m2 + 1))
            assert abs(lp[i, j] - expected) <= 1e-14
    for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) <= 1e-14


def test_orbital_lmax_zero_is_zero():
    for mat in orbital_matrices(0):
        assert mat.shape == (1, 1)
        assert mat[0, 0] == 0


def test_orbital_casimir_blocks():
    lx, ly, lz = orbital_matrices(3)
    casimir = lx @ lx + ly @ ly + lz @ lz
    for i, (l, _) in enumerate(shell_channels(3)):
        assert abs(casimir[i, i] - l * (l + 1)) <= 1e-12
    off = casimir - np.diag(np.diag(casimir))
    assert np.max(np.abs(off)) <= 1e-12


def test_negative_lmax_rejected():
    with pytest.raises(NegativeLmax):
        orbital_matrices(-1)


def test_build_cartesian_modeset_completes_pairs():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    assert len(ms) == 2
    assert ms.is_negation_closed()
    assert {k.components for k in ms.modes} == {(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)}
    assert all(abs(k.omega - 1.0) < 1e-15 for k in ms.modes)


def test_build_cartesian_modeset_rejects_zero_and_collisions():
    with pytest.raises(ZeroWaveVector):
        build_cartesian_modeset([(0.0, 0.0, 0.0)])
    with pytest.raises(DuplicateMode):
        build_cartesian_modeset([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
    with pytest.raises(DuplicateMode):
        build_cartesian_modeset([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])


def test_shell_channel_count():
    shell = SphericalShell(radius=2.0, l_max=3)
    assert len(shell.channels) == 16
    assert shell.omega((2, -1)) == 2.0


def test_modeset_text_round_trip():
    ms = build_cartesian_modeset([(0.25, -1.0, 0.5), (0.0, 2.0, 0.0)])
    text = format_modeset(ms)
    back = parse_modeset(text)
    assert isinstance(back, CartesianGrid)
    assert [k.components for k in back.modes] == [k.components for k in ms.modes]
    assert back.negation == ms.negation

    shell = SphericalShell(radius=1.5, l_max=2)
    back = parse_modeset(format_modeset(shell))
    assert isinstance(back, SphericalShell)
    assert back.radius == 1.5 and back.l_max == 2


def test_parse_modeset_requires_negation_partners():
    with pytest.raises(DuplicateMode):
        parse_modeset("1.0 0.0 0.0\n0.0 1.0 0.0\n-1.0 0.0 0.0\n")


def test_frame_curl_matches_independent_jacobian():
    # independent path: re-derive eps(k, 1) from the rule and differentiate
    k = WaveVector((0.4, -0.3, 0.7))
    got = frame_curl(k, 1)
    h = 1e-5

    def eps1(vec):
        z = np.array([0.0, 0.0, 1.0])
        v = np.cross(z, vec / np.linalg.norm(vec))
        return v / np.linalg.norm(v)

    jac = np.zeros((3, 3))
    base = k.as_array()
    for b in range(3):
        d = np.zeros(3)
        d[b] = h
        jac[b] = (eps1(base + d) - eps1(base - d)) / (2 * h)
    expected = np.array(
        [jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2], jac[0, 1] - jac[1, 0]]
    )
    np.testing.assert_allclose(got, expected, atol=1e-6)
    assert np.linalg.norm(got) > 1e-3


def cross_reference_frame(k):
    """The frame rule written with np.cross."""
    khat = k.as_array() / k.omega
    zxk = np.cross(np.array([0.0, 0.0, 1.0]), khat)
    norm = np.linalg.norm(zxk)
    e1 = zxk / norm if norm > 1e-8 else np.array([1.0, 0.0, 0.0])
    eps = np.zeros((4, 4))
    eps[0, 0] = 1.0
    eps[1, 1:] = e1
    eps[2, 1:] = np.cross(khat, e1)
    eps[3, 1:] = khat
    return eps


def test_frame_equals_cross_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    ks = [(0.0, 0.0, 1.0), (0.0, 0.0, -2.5), (0.0, -0.0, 3.0), (1e-12, 0.0, 1.0)]
    for _ in range(500):
        v = rng.normal(size=3) * rng.choice([1e-3, 1.0, 1e3])
        v[rng.integers(3)] *= rng.choice([1.0, 0.0, -0.0])
        ks.append(tuple(v))
    for comps in ks:
        k = WaveVector(comps)
        got = polarization_frame(k).eps
        expected = cross_reference_frame(k)
        assert np.all(got == expected), comps
        assert np.array_equal(np.signbit(got), np.signbit(expected)), comps
