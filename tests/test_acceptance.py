"""Acceptance gate: one test per exit criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines on
passing runs as well.  Tolerances are pinned here; "exact" assertions use
1e-14, the scale of square-root rounding in the ladder matrix elements.
"""

import math

import numpy as np

from photonam import constraints as cons
from photonam import fields as flds
from photonam import operators as ops
from photonam.dirac import build_fermion_fock, spinor_orbital_channels
from photonam.fock import (
    annihilator,
    build_fock,
    commutator,
    compress,
    creator,
    expectation,
    form_bracket,
    indefinite_inner,
    lift_forms,
    max_abs,
)
from photonam.modes import SphericalShell, build_cartesian_modeset

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
EXACT = 1e-14


def _line(num: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d}: {verdict} — {detail}")
    assert passed, f"criterion {num}: {detail}"


def _su2_residual(triple, idx):
    worst = 0.0
    for i, j, k in EPS_PAIRS:
        diff = commutator(triple[i], triple[j]) - 1j * triple[k]
        worst = max(worst, max_abs(compress(diff, idx)))
    return worst


def test_criterion_1_canonical_spin_algebra():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)], 2)
    assert fs.dim == 6561
    spin = ops.lift_family(fs, "spin_total", ms)
    residual = _su2_residual(spin, fs.bounded_indices(1))
    _line(1, residual <= 1e-10, f"spin algebra on dim 6561, residual {residual:.3e}")


def test_criterion_2_canonical_oam_algebra():
    shell2 = SphericalShell(radius=1.0, l_max=2)
    residuals = {}
    for lam, name in ((1, "oam_transverse"), (0, "oam_scalar")):
        fs = build_fock([(c, lam) for c in shell2.mode_labels()], 1)
        triple = ops.lift_family(fs, name, shell2)
        residuals[f"sector lam={lam}"] = _su2_residual(triple, fs.bounded_indices(1))
    shell1 = SphericalShell(radius=1.0, l_max=1)
    fs4 = build_fock(
        [(c, lam) for c in shell1.mode_labels() for lam in (0, 1, 2, 3)], 1
    )
    idx = fs4.bounded_indices(1)
    oam = ops.lift_family(fs4, "oam_total", shell1)
    residuals["all polarizations"] = _su2_residual(oam, idx)
    spin = ops.lift_family(fs4, "spin_fixed_frame")
    residuals["oam-spin commute"] = max(
        max_abs(compress(commutator(L, S), idx)) for L in oam for S in spin
    )
    worst = max(residuals.values())
    detail = ", ".join(f"{k}: {v:.3e}" for k, v in residuals.items())
    _line(2, worst <= 1e-10, detail)


def test_criterion_3_observable_sector():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in (1, 2)], 2)
    sobs = ops.lift_family(fs, "spin_obs", ms)
    commuting = max(
        max_abs(commutator(sobs[i], sobs[j])) for i, j, _ in EPS_PAIRS
    )

    shell = SphericalShell(radius=1.0, l_max=1)
    fs4 = build_fock([(c, lam) for c in shell.mode_labels() for lam in (0, 1, 2, 3)], 1)
    idx = fs4.bounded_indices(1)
    lobs = ops.lift_family(fs4, "oam_obs", shell)
    su2 = _su2_residual(lobs, idx)
    sofix = ops.lift_family(fs4, "spin_obs_fixed_frame")
    jobs = tuple(lobs[c] + sofix[c] for c in range(3))
    closure = 0.0
    breakage = 0.0
    for i, j, k in EPS_PAIRS:
        comm = commutator(jobs[i], jobs[j])
        closure = max(closure, max_abs(compress(comm - 1j * lobs[k], idx)))
        breakage = max(breakage, max_abs(compress(comm - 1j * jobs[k], idx)))
    circular = (
        fs4.basis_state({((1, 1), 1): 1}) + 1j * fs4.basis_state({((1, 1), 2): 1})
    ) / np.sqrt(2)
    has_circular = abs(expectation(fs4, sofix[2], circular)) > 0.5

    ok = commuting <= 1e-12 and su2 <= 1e-10 and closure <= 1e-10 and breakage >= 0.1
    _line(
        3,
        ok and has_circular,
        f"[S_obs,S_obs] {commuting:.3e}, L_obs su2 {su2:.3e},"
        f" J closure {closure:.3e}, J breakage {breakage:.3e}",
    )


def test_criterion_4_indefinite_metric():
    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)], 2)
    scalar_one = creator(fs, (0, 0)) @ fs.vacuum()
    norm = indefinite_inner(fs, scalar_one, scalar_one)
    (ham,) = ops.lift_family(fs, "hamiltonian", ms)
    vac_res = max_abs(ham @ fs.vacuum())
    transverse = fs.basis_state({(0, 1): 1})
    trans_res = max_abs((ham @ transverse) - transverse)
    scalar = fs.basis_state({(0, 0): 1})
    scal_res = max_abs((ham @ scalar) + scalar)
    ok = (
        abs(norm + 1.0) <= EXACT
        and vac_res <= EXACT
        and trans_res <= EXACT
        and scal_res <= EXACT
    )
    _line(
        4,
        ok,
        f"scalar norm {norm.real:+.1f}, H eigenvalue residuals"
        f" {vac_res:.1e}/{trans_res:.1e}/{scal_res:.1e}",
    )


def test_criterion_5_bilinear_lift_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n_ch = int(rng.integers(2, 5))
        chans = [(f"m{j}", int(rng.integers(0, 4))) for j in range(n_ch)]
        n_max = int(rng.integers(2, 4))
        fs = build_fock(chans, n_max)
        idx = fs.bounded_indices(n_max - 1)
        m = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        n = rng.normal(size=(n_ch, n_ch)) + 1j * rng.normal(size=(n_ch, n_ch))
        lhs = commutator(*lift_forms(fs, [m, n]))
        rhs = lift_forms(fs, [form_bracket(m, n, fs.signs)])[0]
        worst = max(worst, max_abs(compress(lhs - rhs, idx)))
    _line(5, worst <= 1e-12, f"20 random pairs, worst residual {worst:.3e}")


def test_criterion_6_gupta_bleuler():
    one_mode = SphericalShell(radius=1.0, l_max=0)
    (k,) = one_mode.mode_labels()
    pair = build_fock([(k, 3), (k, 0)], 1)
    constraint = cons.gb_constraints(one_mode, pair)
    kernel = cons.gb_physical_subspace(one_mode, pair)
    kept = np.flatnonzero(kernel.column >= 0)
    sub = np.zeros((pair.dim, kernel.dimension))
    sub[kept, kernel.column[kept]] = kernel.weight[kept]
    expected = np.zeros((pair.dim, 2), dtype=complex)
    expected[:, 0] = pair.vacuum()
    expected[:, 1] = (pair.basis_state({(k, 3): 1}) + pair.basis_state({(k, 0): 1})) / np.sqrt(2)
    proj_diff = np.max(np.abs(sub @ sub.conj().T - expected @ expected.conj().T))
    # the certificate of the dense columns, independent of the closed form's
    certificate = max(np.linalg.norm(c.to_dense() @ sub, axis=0).max() for c in constraint)

    ms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    fs = build_fock([(i, lam) for i in ms.mode_labels() for lam in (0, 1, 2, 3)], 1)
    subspace = cons.gb_physical_subspace(ms, fs)
    spin, spin_obs = (ops.family_matrices(fs.channels, n, ms) for n in ("spin_total", "spin_obs"))
    hiding, _, _ = cons.verify_gauge_hiding(fs, subspace, lift_forms(fs, spin - spin_obs))
    ok = (
        sub.shape[1] == 2
        and proj_diff <= 1e-10
        and certificate <= 1e-10
        and hiding <= 1e-10
    )
    _line(
        6,
        ok,
        f"kernel dim {sub.shape[1]}, contents residual {proj_diff:.3e},"
        f" certificate {certificate:.3e}, spin hiding {hiding:.3e}",
    )


def test_criterion_7_decomposition_comparison():
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = build_fock([(c, lam) for c in shell.mode_labels() for lam in (0, 1, 2, 3)], 1)
    idx = fs.bounded_indices(1)

    def su2(triple):
        return _su2_residual(triple, idx)

    def commuting(triple):
        return max(
            max_abs(compress(commutator(triple[i], triple[j]), idx))
            for i, j, _ in EPS_PAIRS
        )

    fam = {
        name: ops.lift_family(fs, name, shell)
        for name in (
            "spin_fixed_frame",
            "oam_total",
            "spin_obs_fixed_frame",
            "oam_obs",
            "spin_jm",
            "oam_jm",
            "spin_chen",
        )
    }
    canonical_ok = su2(fam["spin_fixed_frame"]) <= 1e-10 and su2(fam["oam_total"]) <= 1e-10
    gauge_ok = commuting(fam["spin_obs_fixed_frame"]) <= 1e-12 and su2(fam["oam_obs"]) <= 1e-10
    jm_spin = su2(fam["spin_jm"])
    jm_oam = su2(fam["oam_jm"])
    chen_spin = su2(fam["spin_chen"])

    pair = build_fock([("k", 3), ("k", 0)], 3)
    root = commutator(
        annihilator(pair, ("k", 3)) - annihilator(pair, ("k", 0)),
        creator(pair, ("k", 3)) - creator(pair, ("k", 0)),
    )
    root_residual = max_abs(compress(root, pair.bounded_indices(2)))

    gms = build_cartesian_modeset([(0.0, 0.0, 1.0)])
    gfs = build_fock([(i, lam) for i in gms.mode_labels() for lam in (1, 2)], 2)
    sig = ops.lift_family(gfs, "stokes", gms)  # Sigma_1..3
    gidx = gfs.bounded_indices(2)
    stokes = max(
        max_abs(compress(commutator(sig[i], sig[j]) - 2j * sig[k], gidx))
        for i, j, k in EPS_PAIRS
    )

    ok = (
        canonical_ok
        and gauge_ok
        and jm_spin >= 0.1
        and jm_oam >= 0.1
        and chen_spin >= 0.1
        and root_residual <= EXACT
        and stokes <= 1e-12
    )
    _line(
        7,
        ok,
        f"canonical/gauge-invariant pass, violations jm {jm_spin:.2f}/{jm_oam:.2f}"
        f" chen {chen_spin:.2f}, root {root_residual:.1e}, stokes {stokes:.1e}",
    )


def test_criterion_8_counter_rotating_cancellation():
    ms = build_cartesian_modeset([(0.6, 0.2, 0.75)])
    cr_spin = max_abs(ops.counter_rotating_part(ms, "spin"))
    cr_mom = max_abs(ops.counter_rotating_part(ms, "momentum"))
    term1, term2 = ops.l_pure_s_terms(ms)
    lps = max_abs(term1 + term2)
    ok = cr_spin <= 1e-12 and cr_mom <= 1e-12 and lps <= 1e-12
    _line(8, ok, f"CR spin {cr_spin:.1e}, CR momentum {cr_mom:.1e}, pure-gauge spin {lps:.1e}")


def test_criterion_9_field_consistency():
    rng = np.random.default_rng(99)
    length = 2.0 * math.pi
    n_ints = [(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)]
    lattice = flds.FieldLattice(length, 9, (2.0 * math.pi / length) * np.array(n_ints))
    spin_worst = 0.0
    parseval_worst = 0.0
    for _ in range(20):
        # transverse amplitudes, so the maps are those of the transverse part
        amps = np.zeros((len(n_ints), 4), dtype=complex)
        for row in amps:
            for lam in (1, 2):
                row[lam] = rng.normal() + 1j * rng.normal()
        maps = flds.eval_fields(lattice, amps)
        integral = flds.spatial_spin_integral(lattice, maps)
        # the mode side: each grid family's Gram on the one state
        spin, (energy_modes,) = (
            flds.form_gram(lattice, amps[None], name)[:, 0, 0] for name in ("spin_obs", "hamiltonian")
        )
        spin_worst = max(spin_worst, float(np.max(np.abs(integral - spin))))
        energy = 0.5 * (np.sum(maps.e ** 2) + np.sum(maps.b ** 2)) * flds.cell_volume(lattice)
        parseval_worst = max(parseval_worst, abs(energy - energy_modes))
    ok = spin_worst <= 1e-9 and parseval_worst <= 1e-9
    _line(9, ok, f"spin duality {spin_worst:.3e}, Parseval {parseval_worst:.3e}")


def test_criterion_10_dirac_and_helicity():
    ffs = build_fermion_fock(spinor_orbital_channels(1))
    shell = SphericalShell(radius=1.0, l_max=1)
    sam, oam = (ops.lift_family(ffs, name, shell) for name in ("dirac_sam", "dirac_oam"))
    worst = 0.0
    for i, j, k in EPS_PAIRS:
        worst = max(worst, max_abs(sam[i] @ sam[j] - sam[j] @ sam[i] - 1j * sam[k]))
        worst = max(worst, max_abs(oam[i] @ oam[j] - oam[j] @ oam[i] - 1j * oam[k]))
    cross = max(max_abs(s @ L - L @ s) for s in sam for L in oam)

    photon = build_fock([("k", 1), ("k", 2)], 1)
    (hel,) = ops.lift_family(photon, "helicity")
    plus = (creator(photon, ("k", 1)) + 1j * creator(photon, ("k", 2))) @ photon.vacuum()
    plus /= np.linalg.norm(plus)
    minus = (creator(photon, ("k", 1)) - 1j * creator(photon, ("k", 2))) @ photon.vacuum()
    minus /= np.linalg.norm(minus)
    hel_res = max(max_abs(hel @ plus - plus), max_abs(hel @ minus + minus))

    ok = worst <= 1e-12 and cross <= 1e-12 and hel_res <= EXACT
    _line(
        10,
        ok,
        f"fermion su2 {worst:.3e}, [S_D, L_D] {cross:.3e}, helicity residual {hel_res:.1e}",
    )
