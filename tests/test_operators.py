import numpy as np
import pytest

from photonam import operators as ops
from photonam.errors import AsymmetricGrid, ChannelMismatch, DuplicateMode
from photonam.fock import (
    OperatorMatrix,
    annihilator,
    build_fock,
    commutator,
    compress,
    creator,
    expectation,
    lift_forms,
    max_abs,
)
from photonam.modes import (
    CartesianGrid,
    SphericalShell,
    build_cartesian_modeset,
    frame_curl,
    minkowski_dot,
    orbital_matrices,
    polarization_frame,
    spin_matrices,
)

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def grid_z():
    return build_cartesian_modeset([(0.0, 0.0, 1.0)])


def full_space(ms, n_max=2, lams=(0, 1, 2, 3)):
    return build_fock([(i, lam) for i in ms.mode_labels() for lam in lams], n_max)


def shell_space(shell, lams=(0, 1, 2, 3)):
    # capped at the one-photon block the assertions read, as suites._shell_space
    return build_fock([(c, lam) for c in shell.mode_labels() for lam in lams], 1, max_total=1)


def test_hamiltonian_eigenvalues():
    ms = grid_z()
    fs = full_space(ms)
    (ham,) = ops.lift_family(fs, "hamiltonian", ms)
    vac = fs.vacuum()
    assert max_abs(ham @ vac) == 0.0
    transverse = fs.basis_state({(0, 1): 1})
    assert max_abs((ham @ transverse) - transverse) <= 1e-14
    longitudinal = fs.basis_state({(0, 3): 1})
    assert max_abs((ham @ longitudinal) - longitudinal) <= 1e-14
    scalar = fs.basis_state({(0, 0): 1})
    assert max_abs((ham @ scalar) + scalar) <= 1e-14


def test_hamiltonian_channel_coverage_required():
    ms = grid_z()
    partial = build_fock([(i, lam) for i in ms.mode_labels() for lam in (1, 2)], 1)
    with pytest.raises(ChannelMismatch):
        ops.lift_family(partial, "hamiltonian", ms)
    # a channel outside the mode set is not read: the family lifts as zero there
    extra = build_fock([*full_space(ms, n_max=1).channels, ("x", 1)], 1)
    one = extra.basis_state({("x", 1): 1})
    assert max_abs(ops.lift_family(extra, "hamiltonian", ms)[0] @ one) == 0.0


def test_momentum_eigenvalues():
    ms = grid_z()
    fs = full_space(ms)
    mom = ops.lift_family(fs, "momentum", ms)
    transverse = fs.basis_state({(0, 1): 1})
    scalar = fs.basis_state({(0, 0): 1})
    assert max_abs((mom[2] @ transverse) - transverse) <= 1e-14
    assert max_abs((mom[2] @ scalar) + scalar) <= 1e-14
    assert max_abs(mom[0] @ transverse) <= 1e-14
    assert max_abs(mom[2] @ fs.vacuum()) == 0.0


def test_spin_total_su2_on_bounded_block():
    ms = build_cartesian_modeset([(0.3, -0.5, 0.8)])
    fs = full_space(ms, n_max=2)
    spin = ops.lift_family(fs, "spin_total", ms)
    idx = fs.bounded_indices(2)
    for i, j, k in EPS_PAIRS:
        diff = commutator(spin[i], spin[j]) - 1j * spin[k]
        assert max_abs(compress(diff, idx)) <= 1e-13


def test_spin_z_circular_eigenvalues_from_matrix_oracle():
    # oracle: eigenvectors of the explicit z generator restricted to the
    # transverse pair, computed here by diagonalization
    s3 = spin_matrices()[2][:2, :2]
    vals, vecs = np.linalg.eigh(s3)
    ms = grid_z()
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    spin = ops.lift_family(fs, "spin_total", ms)
    for val, vec in zip(vals, vecs.T):
        state = vec[0] * fs.basis_state({(0, 1): 1}) + vec[1] * fs.basis_state({(0, 2): 1})
        assert max_abs((spin[2] @ state) - val * state) <= 1e-14
    assert set(np.round(vals, 12)) == {-1.0, 1.0}


def test_spin_obs_matches_spin_total_on_circular_states():
    ms = grid_z()
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    spin = ops.lift_family(fs, "spin_total", ms)
    sobs = ops.lift_family(fs, "spin_obs", ms)
    circ = (fs.basis_state({(0, 1): 1}) + 1j * fs.basis_state({(0, 2): 1})) / np.sqrt(2)
    for comp in range(3):
        lhs = expectation(fs, spin[comp], circ)
        rhs = expectation(fs, sobs[comp], circ)
        assert abs(lhs - rhs) <= 1e-14
    assert expectation(fs, spin[2], circ) == pytest.approx(1.0)
    assert max_abs(sobs[0] @ circ) == 0.0  # propagation along z only


def test_spin_vacuum_zero():
    ms = grid_z()
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    for op in ops.lift_family(fs, "spin_total", ms):
        assert max_abs(op @ fs.vacuum()) == 0.0


def test_helicity_spectrum():
    ms = grid_z()
    fs = full_space(ms, n_max=2, lams=(1, 2))
    (hel,) = ops.lift_family(fs, "helicity", ms)
    plus = (fs.basis_state({(0, 1): 1}) + 1j * fs.basis_state({(0, 2): 1})) / np.sqrt(2)
    minus = (fs.basis_state({(0, 1): 1}) - 1j * fs.basis_state({(0, 2): 1})) / np.sqrt(2)
    assert max_abs((hel @ plus) - plus) <= 1e-14
    assert max_abs((hel @ minus) + minus) <= 1e-14
    linear = fs.basis_state({(0, 1): 1})
    assert abs(expectation(fs, hel, linear)) <= 1e-14
    two = (creator(fs, (0, 1)) + 1j * creator(fs, (0, 2))) @ plus
    two = two / np.linalg.norm(two)
    assert max_abs((hel @ two) - 2.0 * two) <= 1e-14


def test_stokes_algebra_and_identifications():
    ms = grid_z()
    fs = full_space(ms, n_max=2, lams=(1, 2))
    sig = ops.lift_family(fs, "stokes", ms)  # Sigma_1..3
    idx = fs.bounded_indices(2)
    for i, j, k in EPS_PAIRS:
        diff = commutator(sig[i], sig[j]) - 2j * sig[k]
        assert max_abs(compress(diff, idx)) <= 1e-13
    assert max_abs(sig[1] - ops.lift_family(fs, "helicity", ms)[0]) == 0.0
    # Sigma_0 is the transverse photon number, the identity form on this space
    sig0 = lift_forms(fs, [np.eye(len(fs.channels))])[0]
    two_photon = creator(fs, (0, 1)) @ (creator(fs, (0, 2)) @ fs.vacuum())
    two_photon = two_photon / np.linalg.norm(two_photon)
    assert max_abs((sig0 @ two_photon) - 2.0 * two_photon) <= 1e-14


def test_oam_total_eigenvalues_and_identity():
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell)
    oam, lobs, lpure = (
        ops.lift_family(fs, name, shell) for name in ("oam_total", "oam_obs", "l_pure")
    )
    for comp in range(3):
        assert max_abs(oam[comp] - lobs[comp] - lpure[comp]) == 0.0

    transverse = fs.basis_state({((1, 1), 1): 1})
    assert max_abs((oam[2] @ transverse) - transverse) <= 1e-14
    swave = fs.basis_state({((0, 0), 2): 1})
    assert max(max_abs(op @ swave) for op in oam) == 0.0
    # scalar-channel one-photon states carry the same orbital action as any
    # other polarization: the metric weight and the flipped commutator cancel
    scalar = fs.basis_state({((1, 1), 0): 1})
    assert max_abs((oam[2] @ scalar) - scalar) <= 1e-14
    assert max_abs((lpure[2] @ scalar) - scalar) <= 1e-14

    longitudinal = fs.basis_state({((1, 1), 3): 1})
    assert max(max_abs(op @ longitudinal) for op in lobs) == 0.0
    assert abs(expectation(fs, lpure[2], transverse)) == 0.0


def test_oam_requires_all_polarizations():
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell, lams=(1, 2))
    with pytest.raises(ChannelMismatch):
        ops.lift_family(fs, "oam_total", shell)
    with pytest.raises(ChannelMismatch):
        ops.lift_family(fs, "l_pure", shell)
    assert len(ops.lift_family(fs, "oam_obs", shell)) == 3


def test_one_photon_block_equals_sign_weighted_form():
    # oracle: the one-photon action of a lifted form is (signs x form)
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell)
    oam = ops.lift_family(fs, "oam_total", shell)
    weights = {0: -1.0, 1: 1.0, 2: 1.0, 3: 1.0}
    gens_z = np.diag([m for (_, m) in shell.channels]).astype(complex)
    singles = [fs.basis_state({ch: 1}) for ch in fs.channels]
    block = np.zeros((len(singles), len(singles)), dtype=complex)
    for b, psi in enumerate(singles):
        image = oam[2] @ psi
        for a, phi in enumerate(singles):
            block[a, b] = np.vdot(phi, image)
    expected = np.zeros_like(block)
    for a, (ca, la) in enumerate(fs.channels):
        for b, (cb, lb) in enumerate(fs.channels):
            if la == lb:
                ia = shell.channels.index(ca)
                ib = shell.channels.index(cb)
                sign = -1.0 if la == 0 else 1.0
                expected[a, b] = sign * weights[la] * gens_z[ia, ib]
    np.testing.assert_allclose(block, expected, atol=1e-14)


def test_counter_rotating_vanishes_on_symmetric_grids():
    ms = build_cartesian_modeset([(0.5, 0.25, -0.7)])
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    for comp in ops.counter_rotating_part(ms, fs, "spin"):
        assert max_abs(comp) <= 1e-13
    fs4 = full_space(ms, n_max=1)
    for comp in ops.counter_rotating_part(ms, fs4, "momentum"):
        assert max_abs(comp) <= 1e-13


def test_open_grid_is_refused_at_construction():
    # no CartesianGrid is open, so the counter-rotating parts meet none
    with pytest.raises(DuplicateMode, match="no negation partner"):
        CartesianGrid([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    fs = build_fock([(i, lam) for i in (0, 1) for lam in (1, 2, 3)], 1)
    with pytest.raises(AsymmetricGrid):
        ops.counter_rotating_part(SphericalShell(1.0, 0), fs, "spin")


def test_pure_gauge_spin_pieces_cancel():
    ms = build_cartesian_modeset([(0.6, 0.2, 0.75)])
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    term1, term2 = ops.l_pure_s_terms(ms, fs)
    assert max(max_abs(a + b) for a, b in zip(term1, term2)) <= 1e-13
    assert max(max_abs(t) for t in term1) > 1e-3
    assert max(max_abs(t) for t in term2) > 1e-3
    fs_no_longitudinal = full_space(ms, n_max=1, lams=(1, 2))
    with pytest.raises(ChannelMismatch):
        ops.l_pure_s_terms(ms, fs_no_longitudinal)


def _decomposition_rows():
    # the named rows of decomposition-compare; the unnamed one is Stokes
    return [row for row in ops.CLAIMS["decomposition-compare"] if row.name]


def test_decomposition_rows_lift_three_components():
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell)
    for row in _decomposition_rows():
        for name, _, _ in row.families:
            assert len(ops.lift_family(fs, name, shell)) == 3


def test_canonical_family_su2_and_rivals_violate():
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell)
    idx = fs.bounded_indices(1)

    def su2_residual(triple):
        worst = 0.0
        for i, j, k in EPS_PAIRS:
            diff = commutator(triple[i], triple[j]) - 1j * triple[k]
            worst = max(worst, max_abs(compress(diff, idx)))
        return worst

    for name in ("spin_fixed_frame", "oam_total", "oam_chen"):
        assert su2_residual(ops.lift_family(fs, name, shell)) <= 1e-13
    for name in ("spin_jm", "oam_jm", "spin_chen", "j_total"):
        assert su2_residual(ops.lift_family(fs, name, shell)) >= 0.1


def test_bare_wakamatsu_orbital_lift_closes_su2():
    # the bare oam_wak family is Chen's orbital form, so its table row
    # carries no claim of its own
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = shell_space(shell)
    idx = fs.bounded_indices(1)
    oam = ops.lift_family(fs, "oam_wak", shell)
    worst = max(
        max_abs(compress(commutator(oam[i], oam[j]) - 1j * oam[k], idx))
        for i, j, k in EPS_PAIRS
    )
    assert worst <= 1e-13
    (wakamatsu,) = [row for row in _decomposition_rows() if row.name == "wakamatsu"]
    assert wakamatsu.families[1] == ("oam_wak", "oam", None)


def test_rival_violation_traces_to_gb_null_pair():
    fs = build_fock([("k", 3), ("k", 0)], 3)
    combo_a = annihilator(fs, ("k", 3)) - annihilator(fs, ("k", 0))
    combo_c = creator(fs, ("k", 3)) - creator(fs, ("k", 0))
    root = commutator(combo_a, combo_c)
    idx = fs.bounded_indices(2)
    assert max_abs(compress(root, idx)) <= 1e-14
    assert max_abs(root) > 1.0  # cap-sector remainder, reported not asserted


def test_lambda_matrices_are_hermitian():
    for mats in (ops._lambda_canonical(), ops._lambda_jm(), ops._lambda_chen(), ops._lambda_spin_obs()):
        for m in mats:
            assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_spin_total_respects_frames():
    # oracle: rotate the generators with the frame triad by hand per mode
    ms = build_cartesian_modeset([(0.2, 0.9, -0.1)])
    fs = full_space(ms, n_max=1, lams=(1, 2, 3))
    spin = ops.lift_family(fs, "spin_total", ms)
    shat = spin_matrices()
    for mode in ms.mode_labels():
        block = sum(shat[lam - 1] * ms.frames[mode, lam, 1] for lam in (1, 2, 3))
        singles = [fs.basis_state({(mode, lam): 1}) for lam in (1, 2, 3)]
        got = np.array(
            [[np.vdot(a, spin[0] @ b) for b in singles] for a in singles]
        )
        np.testing.assert_allclose(got, block, atol=1e-14)


def reference_counter_rotating(ms, fs, target):
    """Counter-rotating terms with the creator pair as a product of two
    creator matrices."""
    lams = (1, 2, 3) if target == "spin" else (0, 1, 2, 3)
    mats = [np.zeros((fs.dim, fs.dim), dtype=complex) for _ in range(3)]
    for i in ms.mode_labels():
        j = ms.negation[i]
        for l1 in lams:
            for l2 in lams:
                if target == "spin":
                    w = 0.5j * np.cross(ms.frames[i, l1, 1:], ms.frames[j, l2, 1:])
                else:
                    dot = minkowski_dot(ms.frames[i, l1], ms.frames[j, l2])
                    w = 0.5 * dot * ms.ks[i]
                aa = annihilator(fs, (i, l1)) @ annihilator(fs, (j, l2))
                cc = creator(fs, (i, l1)) @ creator(fs, (j, l2))
                pair = (aa - cc if target == "spin" else aa + cc).to_dense()
                for comp in range(3):
                    if w[comp] != 0:
                        mats[comp] += w[comp] * pair
    return mats


def reference_l_pure_s_bracket(ms, fs):
    brackets = [np.zeros((fs.dim, fs.dim), dtype=complex) for _ in range(3)]
    for i in ms.mode_labels():
        j = ms.negation[i]
        omega = ms.omega[i]
        for lam in (1, 2):
            curl_here = frame_curl(ms.ks[i], lam)
            curl_neg = -frame_curl(ms.ks[j], lam)
            rot = creator(fs, (i, 3)) @ annihilator(fs, (i, lam)) - (
                annihilator(fs, (i, 3)) @ creator(fs, (i, lam))
            )
            cross = creator(fs, (i, 3)) @ creator(fs, (j, lam)) - (
                annihilator(fs, (i, 3)) @ annihilator(fs, (j, lam))
            )
            for comp in range(3):
                brackets[comp] += omega * (
                    curl_here[comp] * rot.to_dense() + curl_neg[comp] * cross.to_dense()
                )
    return brackets


PAIR_GRIDS = [
    # the suites' default grid, full spaces
    (((0.6, 0.2, 0.75),), 1, None),
    # two pairs, one on the z axis; n_max 2 capped at total occupation 3
    (((0.6, 0.2, 0.75), (0.0, 0.0, 1.0)), 2, 3),
]


@pytest.mark.parametrize("half, n_max, cap", PAIR_GRIDS)
def test_counter_rotating_matches_creator_pair_construction(half, n_max, cap):
    ms = build_cartesian_modeset(list(half))
    for target, lams in (("spin", (1, 2, 3)), ("momentum", (0, 1, 2, 3))):
        chans = [(i, lam) for i in ms.mode_labels() for lam in lams]
        fs = build_fock(chans, n_max, max_total=cap)
        got = ops.counter_rotating_part(ms, fs, target)
        expected = reference_counter_rotating(ms, fs, target)
        for comp in range(3):
            assert np.array_equal(got[comp].to_dense(), expected[comp]), (target, comp)


@pytest.mark.parametrize("half, n_max, cap", PAIR_GRIDS)
def test_l_pure_s_terms_match_creator_pair_construction(half, n_max, cap):
    ms = build_cartesian_modeset(list(half))
    chans = [(i, lam) for i in ms.mode_labels() for lam in (1, 2, 3)]
    fs = build_fock(chans, n_max, max_total=cap)
    term1, term2 = ops.l_pure_s_terms(ms, fs)
    for comp, bracket in enumerate(reference_l_pure_s_bracket(ms, fs)):
        assert np.array_equal(term1[comp].to_dense(), 0.5j * bracket)
        assert np.array_equal(term2[comp].to_dense(), -0.5j * bracket)


@pytest.mark.parametrize("cap", [None, 3])
def test_pair_entries_sign_on_the_scalar_channel(cap):
    # counter_rotating_part never weights a (0, lam >= 1) pair (eps(k, 0) is
    # orthogonal to every spatial polarization), so the sign s_c1 s_c2 is
    # checked here directly
    ms = build_cartesian_modeset([(0.6, 0.2, 0.75)])
    chans = [(i, lam) for i in ms.mode_labels() for lam in (0, 1, 3)]
    fs = build_fock(chans, 2, max_total=cap)
    for c1, c2 in (((0, 0), (1, 1)), ((0, 3), (1, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 0))):
        for cc_sign in (1, -1):
            rows, cols, data = ops._pair_entries(fs, c1, c2, cc_sign)
            got = np.zeros((fs.dim, fs.dim), dtype=complex)
            got[rows, cols] = data
            aa = annihilator(fs, c1) @ annihilator(fs, c2)
            cc = creator(fs, c1) @ creator(fs, c2)
            assert np.array_equal(got, (aa + cc_sign * cc).to_dense())


def test_family_forms_cover_the_claims_table():
    names = {name for rows in ops.CLAIMS.values() for row in rows for name, _, _ in row.families}
    # the families no claim names, read by checks of their own
    unclaimed = {"hamiltonian", "momentum", "helicity", "l_pure"}
    assert names | unclaimed == set(ops.FORMS) and not names & unclaimed
    for row in _decomposition_rows():
        for name, _, _ in row.families:
            for _, lams in ops.FORMS[name]:
                assert len(lams) == 3
    assert len(ops.FORMS["j_total"]) == 2


# Reference construction of the shell families: the channel matrix written
# entry by entry, then lifted.
def _per_entry_lift(fs, value):
    m = np.array([[value(a, b) for b in fs.channels] for a in fs.channels], dtype=complex)
    return lift_forms(fs, [m])[0]


def _reference_orbital(fs, shell, weights):
    """(L_i)[c, d] * weight[lam] on ((c, lam), (d, lam))."""
    idx = {c: i for i, c in enumerate(shell.channels)}
    return tuple(
        _per_entry_lift(
            fs,
            lambda a, b: weights.get(a[1], 0.0) * gen[idx[a[0]], idx[b[0]]]
            if a[1] == b[1]
            else 0.0,
        )
        for gen in orbital_matrices(shell.l_max)
    )


def _reference_fixed_frame(fs, mats):
    """mats[i][lam - 1, lam' - 1] on ((c, lam), (c, lam')), lam, lam' >= 1."""
    return tuple(
        _per_entry_lift(
            fs,
            lambda a, b: mat[a[1] - 1, b[1] - 1]
            if a[0] == b[0] and min(a[1], b[1]) >= 1
            else 0.0,
        )
        for mat in mats
    )


@pytest.mark.parametrize("l_max", [1, 2])
@pytest.mark.parametrize("cap", [1, 2])
def test_shell_families_match_per_entry_reference(l_max, cap):
    shell = SphericalShell(radius=1.0, l_max=l_max)
    fs = build_fock(
        [(c, lam) for c in shell.mode_labels() for lam in (0, 1, 2, 3)], 2, max_total=cap
    )
    hel = np.zeros((3, 3), dtype=complex)
    hel[0, 1], hel[1, 0] = -1j, 1j
    # (name, mode set): reference; the fixed-frame families without a mode set
    cases = {
        ("oam_total", shell): _reference_orbital(fs, shell, {0: -1.0, 1: 1.0, 2: 1.0, 3: 1.0}),
        ("oam_obs", shell): _reference_orbital(fs, shell, {1: 1.0, 2: 1.0}),
        ("l_pure", shell): _reference_orbital(fs, shell, {0: -1.0, 3: 1.0}),
        ("spin_fixed_frame", None): _reference_fixed_frame(fs, spin_matrices()),
        ("spin_obs_fixed_frame", None): _reference_fixed_frame(fs, (0 * hel, 0 * hel, hel)),
        ("helicity", None): _reference_fixed_frame(fs, (hel,)),
    }
    for (name, ms), want in cases.items():
        got = ops.lift_family(fs, name, ms)
        for g, w in zip(got, want, strict=True):
            assert isinstance(g, OperatorMatrix)
            assert all(
                np.array_equal(x, y)
                for x, y in zip(g.entries(), w.entries(), strict=True)
            ), name


def _reference_grid(ms):
    """The six grid families entry by entry: per-mode weights times matrices
    over lam on the channels of one mode."""
    shat = spin_matrices()
    eps = lambda a, lam: ms.frames[a[0], lam, 1:]

    def on_mode(lams, block):
        # block(a, b) on ((i, lam), (i, lam')) with lam, lam' in `lams`
        def value(a, b):
            inside = a[0] == b[0] and a[1] in lams and b[1] in lams
            return block(a, b) if inside else 0.0
        return value

    def transverse(mat, weight=lambda a: 1.0):
        return on_mode((1, 2), lambda a, b: weight(a) * mat[a[1] - 1, b[1] - 1])

    return {
        "hamiltonian": [on_mode(range(4), lambda a, b: ms.omega[a[0]] * (a == b))],
        "momentum": [
            on_mode(range(4), lambda a, b, c=c: ms.ks[a[0], c] * (a == b))
            for c in range(3)
        ],
        "spin_total": [
            on_mode(
                (1, 2, 3),
                lambda a, b, c=c: sum(
                    shat[lam - 1][a[1] - 1, b[1] - 1] * eps(a, lam)[c] for lam in (1, 2, 3)
                ),
            )
            for c in range(3)
        ],
        "spin_obs": [
            transverse(ops.PAULI[2], lambda a, c=c: eps(a, 3)[c]) for c in range(3)
        ],
        "helicity": [transverse(ops.PAULI[2])],
        "stokes": [transverse(ops.PAULI[i]) for i in (1, 2, 3)],
    }


@pytest.mark.parametrize("lams", [(0, 1, 2, 3), (1, 2, 3)])
def test_grid_families_match_per_entry_reference(lams):
    ms = build_cartesian_modeset([(0.6, 0.2, 0.75)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in lams], 2, max_total=2)
    for name, values in _reference_grid(ms).items():
        if name in ("hamiltonian", "momentum") and 0 not in lams:
            with pytest.raises(ChannelMismatch):
                ops.lift_family(fs, name, ms)
            continue
        got = ops.lift_family(fs, name, ms)
        for g, value in zip(got, values, strict=True):
            w = _per_entry_lift(fs, value)
            assert all(
                np.array_equal(x, y)
                for x, y in zip(g.entries(), w.entries(), strict=True)
            ), name


def test_grid_families_reject_a_shell():
    shell = SphericalShell(radius=1.5, l_max=1)
    fs = build_fock([(c, lam) for c in shell.mode_labels() for lam in range(4)], 1, max_total=1)
    for name in ("momentum", "spin_total", "spin_obs"):
        with pytest.raises(ChannelMismatch):
            ops.lift_family(fs, name, shell)
    # omega is a per-mode weight on a shell too
    one = fs.basis_state({((1, 0), 2): 1})
    assert max_abs(ops.lift_family(fs, "hamiltonian", shell)[0] @ one - 1.5 * one) == 0.0


def test_shell_families_reject_a_grid():
    ms = grid_z()
    fs = full_space(ms, n_max=1)
    for name in ("oam_total", "oam_obs", "l_pure", "oam_transverse", "oam_scalar", "dirac_oam"):
        with pytest.raises(ChannelMismatch):
            ops.lift_family(fs, name, ms)
