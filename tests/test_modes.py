import math

import numpy as np
import pytest

from photonam.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    DuplicateMode,
    InvalidConfig,
    NegativeLmax,
    ZeroWaveVector,
)
from photonam.modes import (
    MAX_GRID_MODES,
    CartesianGrid,
    METRIC_DIAG,
    SphericalShell,
    build_cartesian_modeset,
    frame_curl,
    minkowski_dot,
    orbital_matrices,
    parse_modeset,
    polarization_frame,
    shell_channels,
    spin_matrices,
    wave_vectors,
)


def test_wave_vector_omega_is_euclidean_norm():
    ks, omega = wave_vectors([(3.0, 0.0, 4.0)])
    assert ks.shape == (1, 3)
    assert omega[0] == pytest.approx(5.0)


def test_zero_wave_vector_rejected():
    # zero, NaN, |k|^2 overflowing to inf, and |k|^2 subnormal
    for components in ((0.0, 0.0, 0.0), (0.0, math.nan, 1.0), (0.0, 1e300, 1e300), (0.0, 0.0, 3e-162)):
        with pytest.raises(ZeroWaveVector, match="nonzero and finite"):
            wave_vectors([(1.0, 0.0, 0.0), components])


def test_smallest_normal_square_is_the_threshold():
    # |k|^2 = 2^-1022 exactly, the smallest normal float, is accepted
    tiny = np.finfo(float).tiny
    _, omega = wave_vectors([(0.0, 0.0, math.sqrt(tiny))])
    assert omega[0] ** 2 == tiny
    with pytest.raises(ZeroWaveVector):
        wave_vectors([(0.0, 0.0, math.sqrt(tiny) / 2.0)])


def test_non_numeric_wave_vector_component_is_named():
    with pytest.raises(ZeroWaveVector, match=r"wave vector \['a', '0', '1'\] has a non-numeric"):
        wave_vectors([("1", "0", "0"), ("a", "0", "1")])


@pytest.mark.parametrize("components", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ()])
def test_wave_vector_needs_three_components(components):
    with pytest.raises(DimensionMismatch, match="needs 3 components"):
        wave_vectors([(1.0, 0.0, 0.0), components])


def test_frame_at_z_axis_matches_rule():
    frame = polarization_frame(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(frame[0], [1, 0, 0, 0])
    np.testing.assert_allclose(frame[1, 1:], [1, 0, 0])
    np.testing.assert_allclose(frame[2, 1:], [0, 1, 0])
    np.testing.assert_allclose(frame[3, 1:], [0, 0, 1])


def test_frame_orthonormality_and_completeness():
    rng = np.random.default_rng(11)
    for _ in range(100):
        frame = polarization_frame(rng.normal(size=3))
        for lam in range(4):
            for lam2 in range(4):
                dot = minkowski_dot(frame[lam], frame[lam2])
                expected = METRIC_DIAG[lam] if lam == lam2 else 0.0
                assert abs(dot - expected) <= 1e-14
        total = np.zeros((4, 4))
        for lam in range(4):
            eps = frame[lam]
            eps_lower = eps * np.array(METRIC_DIAG)
            total += METRIC_DIAG[lam] * np.outer(eps_lower, eps_lower)
        assert np.max(np.abs(total - np.diag(METRIC_DIAG))) <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-16, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_frames_near_the_z_axis_are_orthonormal(offset, sign):
    # the fallback branch of the rule (|z_hat x k_hat| <= 1e-8) and just past it
    for k in ((offset, 0.0, sign), (offset, -offset, sign), (0.0, offset, sign), (-offset, 0.3 * offset, sign)):
        spatial = polarization_frame(np.array(k))[1:, 1:]
        assert np.max(np.abs(spatial @ spatial.T - np.eye(3))) <= 1e-15, k
        np.testing.assert_allclose(np.cross(spatial[0], spatial[1]), spatial[2], atol=1e-15)


def test_frame_right_handed_and_deterministic():
    f1 = polarization_frame(np.array([0.3, -1.2, 0.4]))
    f2 = polarization_frame((0.3, -1.2, 0.4))
    np.testing.assert_array_equal(f1, f2)
    cross = np.cross(f1[1, 1:], f1[2, 1:])
    np.testing.assert_allclose(cross, f1[3, 1:], atol=1e-14)


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
    assert ms.negation == (1, 0)
    assert np.array_equal(ms.ks[list(ms.negation)], -ms.ks)
    assert {tuple(k) for k in ms.ks.tolist()} == {(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)}
    assert all(abs(w - 1.0) < 1e-15 for w in ms.omega)


def test_build_cartesian_modeset_rejects_zero_and_collisions():
    with pytest.raises(ZeroWaveVector):
        build_cartesian_modeset([(0.0, 0.0, 0.0)])
    with pytest.raises(DuplicateMode):
        build_cartesian_modeset([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
    with pytest.raises(DuplicateMode):
        build_cartesian_modeset([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    with pytest.raises(DuplicateMode):
        build_cartesian_modeset([])


def test_grid_arrays_are_read_only_and_match_the_rules():
    ms = build_cartesian_modeset([(0.6, 0.2, 0.75), (0.0, 0.0, 1.0), (-0.3, 1e-9, 2.0)])
    assert ms.ks.shape == (6, 3) and ms.omega.shape == (6,) and ms.frames.shape == (6, 4, 4)
    for arr in (ms.ks, ms.omega, ms.frames):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for i, k in enumerate(ms.ks.tolist()):
        assert ms.omega[i] == math.sqrt(sum(c * c for c in k))
        expected = polarization_frame(k)
        assert np.array_equal(ms.frames[i], expected)
        assert np.array_equal(np.signbit(ms.frames[i]), np.signbit(expected))


def test_grid_pairs_by_exact_negation():
    ms = CartesianGrid([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (-0.0, -0.0, -1.0), (-1.0, 0.0, 0.0)])
    assert ms.negation == (2, 3, 0, 1)
    assert np.array_equal(ms.ks[list(ms.negation)], -ms.ks)


@pytest.mark.parametrize(
    "rows",
    [
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
        # a partner off by 1e-6 relative: no exact negation
        [(0.5, 0.25, -0.7), (-0.500001, -0.25, 0.7)],
        # a mode and its partner listed twice
        [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)],
        # a second pair within 1e-12 |k| of the first
        [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, 1e-13, 0.0), (-1.0, -1e-13, 0.0)],
        [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (-1.0, 1e-13, 0.0), (1.0, -1e-13, 0.0)],
        [],
    ],
    ids=["open", "near-negation", "repeated", "near-same", "near-negated", "empty"],
)
def test_grid_refuses_unpaired_and_colliding_modes(rows):
    with pytest.raises(DuplicateMode):
        CartesianGrid(rows)


def test_grid_keeps_modes_just_past_the_collision_distance():
    ms = CartesianGrid([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, 2e-12, 0.0), (-1.0, -2e-12, 0.0)])
    assert ms.negation == (1, 0, 3, 2)


def paired_rows(n_pairs):
    """`n_pairs` distinct wave vectors, each followed by its negation."""
    rows = []
    for i in range(n_pairs):
        k = (1.0 + i, 0.5, -0.25)
        rows += [k, tuple(-c for c in k)]
    return rows


def test_grid_refuses_more_than_the_mode_cap_before_pairing():
    assert len(CartesianGrid(paired_rows(512))) == MAX_GRID_MODES == 1024
    # negation-closed with one mode repeated: the pairing scan would call it a
    # collision, the cap refuses it first
    rows = paired_rows(512) + [(1.0, 0.5, -0.25)]
    with pytest.raises(DimensionCapExceeded, match="1025 modes exceed the grid cap 1024"):
        CartesianGrid(rows)


def test_shell_channel_count():
    shell = SphericalShell(radius=2.0, l_max=3)
    assert len(shell.channels) == 16
    assert shell.mode_labels() == shell.channels


def test_shell_channels_are_not_a_constructor_argument():
    with pytest.raises(TypeError):
        SphericalShell(1.0, 1, channels=((9, 9),))


def test_parse_modeset_reads_grid_and_shell_text():
    # grid text is read; shell text is refused, a shell is given with --shell
    back = parse_modeset("0.25 -1.0 0.5\n-0.25 1.0 -0.5\n\n0.0 2.0 0.0\n-0.0 -2.0 -0.0\n")
    assert isinstance(back, CartesianGrid)
    assert back.ks.tolist() == [[0.25, -1.0, 0.5], [-0.25, 1.0, -0.5], [0.0, 2.0, 0.0], [0.0, -2.0, 0.0]]
    assert np.signbit(back.ks).tolist() == [
        [False, True, False], [True, False, True], [False, False, False], [True, True, True]
    ]
    assert back.negation == (1, 0, 3, 2)

    with pytest.raises(InvalidConfig, match="a grid lists wave vectors; give a shell with --shell"):
        parse_modeset("shell 1.5 2")


@pytest.mark.parametrize("text", ["shell 1.5 x", "shell x 2", "shell 1.5", "shell 1.5 2 3"])
def test_parse_modeset_refuses_a_malformed_shell_line(text):
    with pytest.raises(InvalidConfig, match="a grid lists wave vectors; give a shell with --shell"):
        parse_modeset(text)


def test_parse_modeset_requires_negation_partners():
    with pytest.raises(DuplicateMode):
        parse_modeset("1.0 0.0 0.0\n0.0 1.0 0.0\n-1.0 0.0 0.0\n")


def _curl_by_jacobian(field, k, h):
    """Curl of `field` at k by central differences of step h."""
    jac = np.zeros((3, 3))
    for b in range(3):
        d = np.zeros(3)
        d[b] = h
        jac[b] = (field(k + d) - field(k - d)) / (2 * h)
    return np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2], jac[0, 1] - jac[1, 0]])


def test_frame_curl_matches_independent_jacobian():
    # independent path: re-derive eps(k, 1) and eps(k, 2) from the rule off
    # the z axis and differentiate

    def eps1(vec):
        v = np.cross([0.0, 0.0, 1.0], vec / np.linalg.norm(vec))
        return v / np.linalg.norm(v)

    def eps2(vec):
        return np.cross(vec / np.linalg.norm(vec), eps1(vec))

    for k in ((0.4, -0.3, 0.7), (-1.1, 0.2, -0.05), (0.3, 0.5, -1.2)):
        k = np.array(k)
        for lam, field in ((1, eps1), (2, eps2)):
            got = frame_curl(k, lam)
            expected = _curl_by_jacobian(field, k, 1e-5)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
            assert np.linalg.norm(got) > 1e-3


@pytest.mark.parametrize(
    "k", [(0.0, 0.0, 1.0), (0.0, 0.0, -2.5), (1e-10, 0.0, 1.0), (-3e-9, 2e-9, -0.4)]
)
def test_frame_curl_on_the_axis_band_is_the_band_fields_curl(k):
    # within 1e-8 of the z axis the rule takes eps_1 = (x - k_x k_hat) / |.|;
    # its curl is sign(k_z) y / |k| there and eps_2's is -x / |k|
    k = np.array(k)
    size = np.linalg.norm(k)

    def eps1(vec):
        khat = vec / np.linalg.norm(vec)
        v = np.array([1.0, 0.0, 0.0]) - khat[0] * khat
        return v / np.linalg.norm(v)

    def eps2(vec):
        return np.cross(vec / np.linalg.norm(vec), eps1(vec))

    expected = {1: np.sign(k[2]) * np.array([0.0, 1.0, 0.0]), 2: np.array([-1.0, 0.0, 0.0])}
    for lam, field in ((1, eps1), (2, eps2)):
        got = size * frame_curl(k, lam)
        np.testing.assert_allclose(got, expected[lam], rtol=0, atol=1e-8)
        # the band field differentiated with steps inside the band
        by_jacobian = size * _curl_by_jacobian(field, k, 1e-10 * size)
        np.testing.assert_allclose(got, by_jacobian, rtol=0, atol=1e-5)


def cross_reference_frame(k):
    """The frame rule written with np.cross."""
    khat = np.array(k) / math.sqrt(sum(c * c for c in k))
    zxk = np.cross(np.array([0.0, 0.0, 1.0]), khat)
    norm = np.linalg.norm(zxk)
    if norm > 1e-8:
        e1 = zxk / norm
    else:
        e1 = np.array([1.0, 0.0, 0.0]) - np.dot([1.0, 0.0, 0.0], khat) * khat
        e1 = e1 / np.linalg.norm(e1)
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
        got = polarization_frame(np.array(comps))
        expected = cross_reference_frame(comps)
        assert np.all(got == expected), comps
        assert np.array_equal(np.signbit(got), np.signbit(expected)), comps
