"""Named verification suites.

Each suite builds small Fock spaces, constructs the operators under test,
and emits CheckRecords.  Identities are asserted on the occupation block
where they are exact: commutators of number-conserving bilinear lifts up to
total occupation n_max, edge-sensitive ladder identities up to n_max - 1.
Orbital (shell) spaces always use single occupation, which is where the
acceptance bounds are stated.

Spaces whose checks read only number-conserving operators are capped at the
asserted block itself (see `fock`): total occupation <= n_max on grids, <= 1
on shells.  The capped space is an invariant block of every operator those
checks multiply, so its residuals, read with plain `max_abs`, are those of
the full product space on the block.  The dirac suite's spinor x orbital
space is capped at fermion number `DIRAC_FERMION_CAP`, an invariant block in
the same sense.  Ladder identities keep the product basis and are read on
the block below its edge (`_edge_safe`); whole-space residuals there go into
the notes, never into assertions.  Spaces whose checks build states in
Kronecker order keep the product basis too.

The angular-momentum claims of Maxwell and Dirac fields are generated by one
emitter, `_claim_checks`, one check per claimed algebra or mutual relation:
decomposition-compare from each row of `operators.DECOMPOSITIONS`, dirac from
the Table-I row `operators.TABLE_I`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import fields as flds
from . import operators as ops
from .dirac import (
    build_fermion_fock,
    dirac_oam,
    dirac_sam,
    fermion_ladder,
    spinor_matrices,
    spinor_orbital_channels,
)
from .errors import InvalidConfig, UnknownSuite
from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    OperatorMatrix,
    QuadraticForm,
    annihilator,
    build_fock,
    commutator,
    compress,
    creator,
    expectation,
    identity_operator,
    indefinite_inner,
    lift_bilinear,
    max_abs,
    max_residual,
    metric_operator,
)
from .modes import (
    CartesianGrid,
    SphericalShell,
    build_cartesian_modeset,
    orbital_matrices,
)
from .report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, merge_reports

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# One-mode set for constraints on a single (lam = 0, lam = 3) pair.
_ONE_MODE = SphericalShell(radius=1.0, l_max=0)
(_ONE_LABEL,) = _ONE_MODE.mode_labels()

TIGHT_TOL = 1e-12
VIOLATION_THRESHOLD = 0.1
FIELD_TOL = 1e-9


@dataclass
class SuiteConfig:
    """Configuration for one suite run; defaults reproduce the shipped checks."""

    suite: str = "all"
    grid: CartesianGrid | None = None
    shell: tuple[float, int] | None = None
    n_max: int = 2
    tol: float = 1e-10
    seed: int = 0
    fmt: str = "text"
    out: str | None = None
    dim_cap: int = DEFAULT_DIM_CAP

    def validate(self) -> None:
        if not 0 < self.tol < VIOLATION_THRESHOLD:
            raise InvalidConfig(
                f"tolerance must be finite, positive and below {VIOLATION_THRESHOLD}"
            )
        if self.n_max < 1:
            raise InvalidConfig("n_max must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")
        if self.grid is not None and not isinstance(self.grid, CartesianGrid):
            raise InvalidConfig("a grid lists wave vectors; give a shell with --shell")
        if self.suite not in SUITES and self.suite != "all":
            raise UnknownSuite(f"no suite named {self.suite!r}")


def _default_grid() -> CartesianGrid:
    return build_cartesian_modeset([(0.0, 0.0, 1.0)])


def _generic_grid() -> CartesianGrid:
    return build_cartesian_modeset([(0.6, 0.2, 0.75)])


def _grid_space(
    ms: CartesianGrid, lams, n_max: int, dim_cap: int, max_total: int | None = None
) -> FockSpace:
    chans = [(i, lam) for i in ms.mode_labels() for lam in lams]
    return build_fock(chans, n_max, dim_cap=dim_cap, max_total=max_total)


def _capped_grid_space(ms: CartesianGrid, lams, config: SuiteConfig) -> FockSpace:
    """Grid space capped at the asserted block, total occupation <= n_max."""
    return _grid_space(ms, lams, config.n_max, config.dim_cap, max_total=config.n_max)


def _shell_space(ms: SphericalShell, lams, dim_cap: int) -> FockSpace:
    """Single-occupation shell space capped at its asserted block, total
    occupation <= 1."""
    chans = [(c, lam) for c in ms.mode_labels() for lam in lams]
    return build_fock(chans, 1, dim_cap=dim_cap, max_total=1)


def _edge_safe(op: OperatorMatrix) -> float:
    """Residual of a ladder identity on the block below its space's
    truncation edge, total occupation <= n_max - 1."""
    fs = op.space
    return max_abs(compress(op, fs.bounded_indices(fs.n_max - 1)))


def _su2_residual(triple) -> float:
    return max_residual(
        max_abs(commutator(triple[i], triple[j]) - 1j * triple[k]) for i, j, k in EPS_PAIRS
    )


def _mutual_residual(triple_a, triple_b) -> float:
    return max_residual(max_abs(commutator(a, b)) for a in triple_a for b in triple_b)


def _claimed_algebra_check(algebra: str, triple, tol: float):
    """ID suffix, residual, tolerance and kind of the check of one claimed
    family algebra; `tol` bounds an su(2) claim."""
    if algebra == ops.ALG_SU2:
        return "su2", _su2_residual(triple), tol, KIND_EQUALITY
    if algebra == ops.ALG_COMMUTING:
        res = max_residual(max_abs(commutator(triple[i], triple[j])) for i, j, _ in EPS_PAIRS)
        return "commuting", res, TIGHT_TOL, KIND_EQUALITY
    if algebra == ops.ALG_NONSTANDARD:
        return "violation", _su2_residual(triple), VIOLATION_THRESHOLD, KIND_VIOLATION
    raise ValueError(f"unknown claimed algebra {algebra!r}")


def _claim_checks(
    rep: VerificationReport, prefix: str, spec: ops.DecompositionSpec, triples, tol: float
) -> None:
    """Add the checks of one claims row: one per claimed family algebra, then
    one for the claimed mutual relation of the first two families.

    `triples` are the lifted families in the row's order, each read on an
    invariant block; `tol` bounds the su(2) and mutual-commute equalities.
    """
    for family, triple in zip(spec.families, triples):
        if family.algebra is not None:
            suffix, res, ftol, kind = _claimed_algebra_check(family.algebra, triple, tol)
            rep.add(f"{prefix}-{family.tag}-{suffix}", spec.anchor, res, ftol, kind=kind)
    if spec.mutual is not None:
        res = _mutual_residual(triples[0], triples[1])
        check_id = f"{prefix}-{spec.mutual_tag}-{spec.mutual}"
        if spec.mutual == ops.MUTUAL_COMMUTE:
            rep.add(check_id, spec.anchor, res, tol)
        else:
            rep.add(check_id, spec.anchor, res, VIOLATION_THRESHOLD, kind=KIND_VIOLATION)


def _shell_for(config: SuiteConfig, default_lmax: int) -> SphericalShell:
    if config.shell is not None:
        return SphericalShell(radius=config.shell[0], l_max=config.shell[1])
    return SphericalShell(radius=1.0, l_max=default_lmax)


# ---------------------------------------------------------------------------
# canonical-commutators


def suite_canonical(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("canonical-commutators", _config_echo(config))
    rng = np.random.default_rng(config.seed)
    ms = config.grid or _default_grid()

    fs = _capped_grid_space(ms, (0, 1, 2, 3), config)
    spin = ops.spin_total(ms, fs)
    for i, j, k in EPS_PAIRS:
        diff = commutator(spin[i], spin[j]) - 1j * spin[k]
        rep.add(f"spin-su2-{'xyz'[i]}{'xyz'[j]}", "MCR1", max_abs(diff), config.tol)

    ham = ops.hamiltonian(ms, fs)
    omegas = [ms.omega(i) for i in ms.mode_labels()]
    if max(omegas) - min(omegas) < 1e-12:
        rep.add(
            "hamiltonian-spin-commute",
            "H-mode-form",
            max_residual(max_abs(commutator(ham, s)) for s in spin),
            config.tol,
        )
    else:
        rep.note("hamiltonian-spin-commute skipped: grid is not a degenerate shell")
    vac = fs.vacuum()
    rep.add("hamiltonian-vacuum", "H-mode-form", abs(expectation(fs, ham, vac)), TIGHT_TOL)
    mode0 = ms.mode_labels()[0]
    transverse = fs.basis_state({(mode0, 1): 1})
    rep.add(
        "hamiltonian-transverse-eigenvalue",
        "H-mode-form",
        max_abs((ham @ transverse) - ms.omega(mode0) * transverse),
        TIGHT_TOL,
    )
    scalar = fs.basis_state({(mode0, 0): 1})
    rep.add(
        "hamiltonian-scalar-eigenvalue",
        "H-mode-form",
        max_abs((ham @ scalar) + ms.omega(mode0) * scalar),
        TIGHT_TOL,
    )
    mom = ops.momentum(ms, fs)
    kvec = ms.modes[mode0].as_array()
    res = max_residual(
        max_abs((mom[comp] @ psi) - sign * kvec[comp] * psi)
        for comp in range(3)
        for psi, sign in ((transverse, 1), (scalar, -1))
    )
    rep.add("momentum-eigenvalues", "PM-planewave", res, TIGHT_TOL)

    _bcr_checks(rep, config)
    _metric_checks(rep, config, fs)
    rep.add(
        "lift-homomorphism-random",
        "BCR1",
        _lift_homomorphism_residual(rng, pairs=20, dim_cap=config.dim_cap),
        TIGHT_TOL,
    )

    _oam_sector_checks(rep, config)
    return rep.finalize()


def _bcr_checks(rep: VerificationReport, config: SuiteConfig) -> None:
    fs = build_fock([("k", 1), ("k", 0), ("q", 2)], 2, dim_cap=config.dim_cap)
    ident = identity_operator(fs)
    comm_t = commutator(annihilator(fs, ("k", 1)), creator(fs, ("k", 1)))
    rep.add("bcr-transverse", "BCR1", _edge_safe(comm_t - ident), TIGHT_TOL)
    comm_s = commutator(annihilator(fs, ("k", 0)), creator(fs, ("k", 0)))
    rep.add("bcr-scalar", "BCR1", _edge_safe(comm_s + ident), TIGHT_TOL)
    cross = commutator(annihilator(fs, ("k", 1)), creator(fs, ("q", 2)))
    rep.add("bcr-cross-channel", "BCR1", max_abs(cross), TIGHT_TOL)
    aa = commutator(annihilator(fs, ("k", 1)), annihilator(fs, ("k", 0)))
    rep.add("bcr-annihilators-commute", "BCR2", max_abs(aa), TIGHT_TOL)


def _metric_checks(rep: VerificationReport, config: SuiteConfig, fs: FockSpace) -> None:
    eta = metric_operator(fs)
    rep.add(
        "metric-squared-identity",
        "indefinite-metric",
        max_abs(eta @ eta - identity_operator(fs)),
        TIGHT_TOL,
    )
    worst = max_residual(
        max_abs(
            creator(fs, ch)
            - eta @ OperatorMatrix(fs, annihilator(fs, ch).mat.conj_transpose()) @ eta
        )
        for ch in fs.channels
    )
    rep.add("metric-adjoint-consistency", "indefinite-metric", worst, TIGHT_TOL)
    mode0 = fs.channels[0][0]
    scalar_one = creator(fs, (mode0, 0)) @ fs.vacuum()
    rep.add(
        "scalar-photon-norm",
        "negative-norm",
        abs(indefinite_inner(fs, scalar_one, scalar_one) + 1.0),
        TIGHT_TOL,
    )


def _lift_homomorphism_residual(rng: np.random.Generator, pairs: int, dim_cap: int) -> float:
    residuals = []
    for _ in range(pairs):
        n_ch = int(rng.integers(2, 5))
        lams = [int(rng.integers(0, 4)) for _ in range(n_ch)]
        chans = [(f"m{j}", lams[j]) for j in range(n_ch)]
        n_max = int(rng.integers(2, 4))
        fs = build_fock(chans, n_max, dim_cap=dim_cap)
        shape = (n_ch, n_ch)
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        n = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        qm = QuadraticForm(m, fs.signs)
        qn = QuadraticForm(n, fs.signs)
        lhs = commutator(lift_bilinear(fs, qm), lift_bilinear(fs, qn))
        rhs = lift_bilinear(fs, qm.bracket(qn))
        residuals.append(_edge_safe(lhs - rhs))
    return max_residual(residuals)


def _oam_sector_checks(rep: VerificationReport, config: SuiteConfig) -> None:
    shell2 = _shell_for(config, default_lmax=2)
    for lam, tag in ((1, "transverse"), (0, "scalar")):
        fs = _shell_space(shell2, (lam,), config.dim_cap)
        weight = {lam: ops.OAM_WEIGHTS[lam]}
        triple = ops.oam_weighted(shell2, fs, weight)
        rep.add(f"oam-su2-{tag}-sector", "MCR2", _su2_residual(triple), config.tol)

    shell1 = SphericalShell(radius=shell2.radius, l_max=1)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    oam = ops.oam_total(shell1, fs4)
    rep.add("oam-su2-all-polarizations", "MCR2", _su2_residual(oam), config.tol)
    spin_fixed = ops.spin_total_fixed_frame(fs4)
    rep.add("oam-spin-commute", "MCR3", _mutual_residual(oam, spin_fixed), config.tol)
    ham = ops.hamiltonian(shell1, fs4)
    rep.add(
        "hamiltonian-oam-commute",
        "H-mode-form",
        max_residual(max_abs(commutator(ham, L)) for L in oam),
        config.tol,
    )
    transverse = fs4.basis_state({((1, 1), 1): 1})
    rep.add(
        "oam-z-transverse-eigenvalue",
        "PWE-LM",
        max_abs((oam[2] @ transverse) - transverse),
        TIGHT_TOL,
    )
    scalar = fs4.basis_state({((1, 1), 0): 1})
    rep.add(
        "oam-z-scalar-eigenvalue",
        "PWE-LM",
        max_abs((oam[2] @ scalar) - scalar),
        TIGHT_TOL,
    )
    rep.note(
        "oam scalar sector: weight -1 with the flipped scalar commutator gives"
        " L_z = +m on every one-photon sector; required by MCR2"
    )


# ---------------------------------------------------------------------------
# observable-commutators


def suite_observable(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("observable-commutators", _config_echo(config))
    ms = config.grid or build_cartesian_modeset([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])

    fs = _capped_grid_space(ms, (1, 2), config)
    sobs = ops.spin_obs(ms, fs)
    worst = max_residual(max_abs(commutator(sobs[i], sobs[j])) for i, j, _ in EPS_PAIRS)
    rep.add("spin-obs-commuting", "Table-II", worst, TIGHT_TOL)

    hel = ops.helicity(ms, fs)
    mode0 = ms.mode_labels()[0]
    plus = (creator(fs, (mode0, 1)) @ fs.vacuum() + 1j * (creator(fs, (mode0, 2)) @ fs.vacuum())) / np.sqrt(2)
    minus = (creator(fs, (mode0, 1)) @ fs.vacuum() - 1j * (creator(fs, (mode0, 2)) @ fs.vacuum())) / np.sqrt(2)
    res = max_residual((max_abs((hel @ plus) - plus), max_abs((hel @ minus) + minus)))
    rep.add("helicity-circular-single", "helicity", res, TIGHT_TOL)
    if config.n_max >= 2:
        cre = lambda lam: creator(fs, (mode0, lam))
        double = (cre(1) @ (cre(1) @ fs.vacuum())
                  + 2j * (cre(2) @ (cre(1) @ fs.vacuum()))
                  - (cre(2) @ (cre(2) @ fs.vacuum())))
        double = double / np.linalg.norm(double)
        rep.add(
            "helicity-circular-double",
            "helicity",
            max_abs((hel @ double) - 2.0 * double),
            TIGHT_TOL,
        )
    linear = creator(fs, (mode0, 1)) @ fs.vacuum()
    rep.add(
        "helicity-linear-expectation",
        "helicity",
        abs(expectation(fs, hel, linear)),
        TIGHT_TOL,
    )
    sigma = ops.stokes_operators(ms, fs)
    rep.add(
        "stokes-helicity-match",
        "Stokes",
        max_abs(sigma[2] - hel),
        TIGHT_TOL,
    )

    stot = ops.spin_total(ms, _capped_grid_space(ms, (1, 2, 3), config))
    fs3 = stot[0].space
    sobs3 = ops.spin_obs(ms, fs3)
    circ3 = (creator(fs3, (mode0, 1)) @ fs3.vacuum() + 1j * (creator(fs3, (mode0, 2)) @ fs3.vacuum())) / np.sqrt(2)
    agree = max_residual(
        abs(expectation(fs3, stot[c], circ3) - expectation(fs3, sobs3[c], circ3))
        for c in range(3)
    )
    rep.add("spin-total-obs-agree-circular", "S-obs-form", agree, config.tol)

    shell1 = _shell_for(config, default_lmax=1)
    if shell1.l_max < 1:
        shell1 = SphericalShell(radius=shell1.radius, l_max=1)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    lobs = ops.oam_obs(shell1, fs4)
    rep.add("oam-obs-su2", "L-obs", _su2_residual(lobs), config.tol)
    sofix = ops.spin_obs_fixed_frame(fs4)
    rep.add("spin-obs-oam-obs-commute", "Table-II", _mutual_residual(lobs, sofix), config.tol)
    jobs = tuple(lobs[c] + sofix[c] for c in range(3))
    comms = {k: commutator(jobs[i], jobs[j]) for i, j, k in EPS_PAIRS}
    closure = max_residual(max_abs(comms[k] - 1j * lobs[k]) for k in comms)
    breakage = max_residual(max_abs(comms[k] - 1j * jobs[k]) for k in comms)
    rep.add("j-obs-closes-into-oam-obs", "J-obs", closure, config.tol)
    rep.add("j-obs-not-su2", "J-obs", breakage, VIOLATION_THRESHOLD, kind=KIND_VIOLATION)
    longi = fs4.basis_state({((1, 1), 3): 1})
    rep.add(
        "oam-obs-longitudinal-zero",
        "L-obs-form",
        max_residual(max_abs(L @ longi) for L in lobs),
        TIGHT_TOL,
    )
    return rep.finalize()


# ---------------------------------------------------------------------------
# decomposition-compare


def suite_decomposition(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("decomposition-compare", _config_echo(config))
    rng = np.random.default_rng(config.seed)
    shell = SphericalShell(radius=1.0, l_max=1)
    fs = _shell_space(shell, (0, 1, 2, 3), config.dim_cap)
    lifted = {
        name: {f.name: f.lift(fs) for f in ops.build_decomposition(name, shell, fs)}
        for name in ops.DECOMPOSITIONS
    }

    xi = cons.random_conjugate_symmetric_xi(shell, rng, scale=0.4)
    extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
    lifted["wakamatsu"]["oam_wak"] = tuple(
        a + b + c for a, b, c in zip(lifted["wakamatsu"]["oam_wak"], *extra)
    )
    rep.note(
        "wakamatsu orbital extra term realized through the prescribed-source"
        f" pathway; seeded source norm {max(abs(v) for v in xi.values()):.3e}"
    )

    for name, spec in ops.DECOMPOSITIONS.items():
        triples = [lifted[name][family.name] for family in spec.families]
        _claim_checks(rep, name.replace("_", "-"), spec, triples, config.tol)

    pair = build_fock([("k", 3), ("k", 0)], 3, dim_cap=config.dim_cap)
    gauge_combo_a = annihilator(pair, ("k", 3)) - annihilator(pair, ("k", 0))
    gauge_combo_c = creator(pair, ("k", 3)) - creator(pair, ("k", 0))
    root = commutator(gauge_combo_a, gauge_combo_c)
    rep.add("gb-root-identity", "JM-BJ", _edge_safe(root), 1e-14)
    rep.note(
        f"gb-root-identity full-space residual {max_abs(root):.3e}"
        " (truncation edge, reported only)"
    )

    gms = config.grid or _default_grid()
    gfs = _capped_grid_space(gms, (1, 2), config)
    sig = ops.stokes_operators(gms, gfs)
    worst = max_residual(
        max_abs(commutator(sig[i], sig[j]) - 2j * sig[k])
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    )
    rep.add("stokes-factor-2", "Stokes", worst, TIGHT_TOL)

    rep.note(f"claimed algebras checked against shipped table: {sorted(ops.DECOMPOSITIONS)}")
    return rep.finalize()


# ---------------------------------------------------------------------------
# gauge-hiding


def suite_gauge_hiding(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("gauge-hiding", _config_echo(config))
    rng = np.random.default_rng(config.seed)

    pair = build_fock([(_ONE_LABEL, 3), (_ONE_LABEL, 0)], 1, dim_cap=config.dim_cap)
    constraint = cons.gb_constraints(_ONE_MODE, pair, None)
    sub = cons.physical_subspace(pair, constraint, tol=1e-10, dim_cap=config.dim_cap)
    rep.add("gb-free-kernel-dimension", "Gupta1", abs(sub.dimension - 2), 0.0)
    expected = np.zeros((pair.dim, 2), dtype=complex)
    expected[:, 0] = pair.vacuum()
    gauge_vec = (creator(pair, (_ONE_LABEL, 3)) - creator(pair, (_ONE_LABEL, 0))) @ pair.vacuum()
    expected[:, 1] = gauge_vec / np.linalg.norm(gauge_vec)
    proj_found = sub.basis @ sub.basis.conj().T
    proj_expected = expected @ expected.conj().T
    rep.add("gb-free-kernel-contents", "Gupta1", max_abs(proj_found - proj_expected), 1e-10)
    rep.add(
        "gb-kernel-certificate", "Gupta1", cons.kernel_certificate(constraint, sub), 1e-10
    )
    rep.add(
        "gb-gauge-pair-annihilated",
        "Gupta1",
        float(np.linalg.norm(constraint[0] @ gauge_vec)),
        TIGHT_TOL,
    )
    longi_vec = creator(pair, (_ONE_LABEL, 3)) @ pair.vacuum()
    rep.add(
        "gb-longitudinal-not-physical",
        "Gupta1",
        float(np.linalg.norm(constraint[0] @ longi_vec)),
        0.5,
        kind=KIND_VIOLATION,
    )

    ms = config.grid or _default_grid()
    fs = _grid_space(ms, (0, 1, 2, 3), 1, config.dim_cap)
    constraints = cons.gb_constraints(ms, fs, None)
    subspace = cons.physical_subspace(fs, constraints, tol=1e-10, dim_cap=config.dim_cap)
    operators = {
        "spin": ops.spin_total(ms, fs),
        "spin_obs": ops.spin_obs(ms, fs),
    }
    entries = cons.verify_gauge_hiding(fs, subspace, operators, rng=rng)
    asserted = [
        e for e in entries if not e.skipped and not e.state.startswith("mixed")
    ]
    mixed = [e for e in entries if not e.skipped and e.state.startswith("mixed")]
    skipped = [e for e in entries if e.skipped]
    rep.add(
        "gauge-hiding-spin-representatives",
        "gauge-hiding",
        max_residual(e.diffs.get("spin_hiding", 0.0) for e in asserted),
        config.tol,
    )
    if mixed:
        rep.note(
            "spin hiding on zero-norm-mixed states: max "
            f"{max_residual(e.diffs.get('spin_hiding', 0.0) for e in mixed):.3e}"
            " (class-dependent, reported only)"
        )
    rep.note(f"zero-norm physical probes skipped and counted: {len(skipped)}")

    probes = [subspace.basis[:, col] for col in range(subspace.basis.shape[1])]
    for _ in range(6):
        coeff = rng.normal(size=subspace.dimension) + 1j * rng.normal(size=subspace.dimension)
        probes.append(subspace.basis @ (coeff / np.linalg.norm(coeff)))
    energy = max_residual(
        abs(cons.euclidean_occupancy(fs, 3, psi) - cons.euclidean_occupancy(fs, 0, psi))
        for psi in probes
    )
    rep.add("free-energy-cancellation", "Gupta1", energy, config.tol)

    shell = SphericalShell(radius=1.0, l_max=1)
    fs_sh = _shell_space(shell, (0, 1, 2, 3), config.dim_cap)
    oam = ops.oam_total(shell, fs_sh)
    lobs = ops.oam_obs(shell, fs_sh)
    lpure = ops.l_pure(shell, fs_sh)
    rep.add(
        "oam-identity-matrix",
        "gauge-hiding",
        max_residual(max_abs(oam[c] - lobs[c] - lpure[c]) for c in range(3)),
        1e-14,
    )

    _xi_pathway_reports(rep, config, rng)
    _xi_fourier_checks(rep, config, rng)
    return rep.finalize()


def _xi_pathway_reports(rep: VerificationReport, config: SuiteConfig, rng) -> None:
    shell = SphericalShell(radius=1.0, l_max=1)
    xi_sym = cons.random_conjugate_symmetric_xi(shell, rng, scale=0.05)
    rep.add(
        "xi-conjugate-symmetry", "xi", cons.xi_conjugate_residual(shell, xi_sym), 1e-13
    )
    # Algebra probe without the reality symmetry: both sides of the identity
    # are then nonzero, and the closed-form counterterm xi^dag L xi enters.
    xi_probe = {
        c: 0.05 * (rng.normal() + 1j * rng.normal()) for c in shell.mode_labels()
    }
    gens = orbital_matrices(shell.l_max)
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    spaces = []
    for n_max in (1, 2):
        fs = build_fock(chans, n_max, dim_cap=config.dim_cap)
        spaces.append((n_max, fs, ops.l_pure(shell, fs)))
    for tag, xi in (("symmetric", xi_sym), ("probe", xi_probe)):
        vec = np.array([xi[c] for c in shell.mode_labels()])
        counter = np.array([-np.real(vec.conj() @ g @ vec) for g in gens])
        for n_max, fs, lpure in spaces:
            psi, kernel_res = _approximate_displaced_kernel(shell, xi, n_max, config.dim_cap)
            source = tuple(-1.0 * x for x in cons.xi_oam_bilinear(shell, fs, xi, 3))
            lhs = [expectation(fs, lpure[c], psi) for c in range(3)]
            rhs = [expectation(fs, source[c], psi) + counter[c] for c in range(3)]
            worst = max_residual(abs(l - r) for l, r in zip(lhs, rhs))
            magnitude = max_residual(abs(l) for l in lhs)
            rep.note(
                f"xi pathway ({tag}, n_max={n_max}):"
                f" |<l_pure> - <source> - counterterm| = {worst:.3e},"
                f" |<l_pure>| up to {magnitude:.3e},"
                f" kernel residual {kernel_res:.3e}"
                " (truncation-limited, reported only)"
            )


def _approximate_displaced_kernel(shell, xi, n_max, dim_cap=DEFAULT_DIM_CAP):
    """Product state built from per-mode best approximate kernel vectors,
    with the largest per-mode kernel residual.

    Per-mode factors use the same (lam = 0, lam = 3) channel order as the
    caller's space so the Kronecker product lands on the right basis.  The
    per-mode constraint depends on the mode only through its xi, so every
    factor is computed on one one-mode space.
    """
    small = build_fock([(_ONE_LABEL, 0), (_ONE_LABEL, 3)], n_max, dim_cap=dim_cap)
    state = np.ones(1, dtype=complex)
    residuals = []
    for label in shell.mode_labels():
        constraint = cons.gb_constraints(_ONE_MODE, small, {_ONE_LABEL: xi.get(label, 0.0)})
        stack = constraint[0].to_dense()
        _, sigma, vh = np.linalg.svd(stack)
        state = np.kron(state, vh[-1].conj())
        residuals.append(sigma[-1])
    return state, max_residual(residuals)


def _xi_fourier_checks(rep: VerificationReport, config: SuiteConfig, rng) -> None:
    ms = build_cartesian_modeset([(1.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    n = 8
    length = 2.0 * np.pi
    axis = np.arange(n) * (length / n)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    rho = rng.normal(size=xs.size)
    samples = np.stack([xs.ravel(), ys.ravel(), zs.ravel(), rho], axis=1)
    source = cons.ChargeSource(box_length=length, samples=samples)
    xi = cons.xi0_from_charge(source, ms)
    rep.add("xi-fourier-reality", "xi", cons.xi_conjugate_residual(ms, xi), 1e-12)


# ---------------------------------------------------------------------------
# counter-rotating


def suite_counter_rotating(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("counter-rotating", _config_echo(config))
    ms = config.grid or _generic_grid()

    fs_spin = _grid_space(ms, (1, 2, 3), 1, config.dim_cap)
    cr_spin = ops.counter_rotating_part(ms, fs_spin, "spin")
    rep.add(
        "cr-spin-vanishes", "CR-spin", max_residual(max_abs(m) for m in cr_spin), TIGHT_TOL
    )

    fs_mom = _grid_space(ms, (0, 1, 2, 3), 1, config.dim_cap)
    cr_mom = ops.counter_rotating_part(ms, fs_mom, "momentum")
    rep.add(
        "cr-momentum-vanishes",
        "PM-planewave",
        max_residual(max_abs(m) for m in cr_mom),
        TIGHT_TOL,
    )

    term1, term2 = ops.l_pure_s_terms(ms, fs_spin)
    total = [term1[c] + term2[c] for c in range(3)]
    rep.add(
        "lpure-s-sum-vanishes", "L-pure-S", max_residual(max_abs(m) for m in total), TIGHT_TOL
    )
    rep.add(
        "lpure-s-terms-nonzero",
        "L-pure-S",
        # np.min, unlike min(), keeps a NaN from either term
        float(
            np.min([max_residual(max_abs(m) for m in term) for term in (term1, term2)])
        ),
        1e-6,
        kind=KIND_VIOLATION,
    )
    return rep.finalize()


# ---------------------------------------------------------------------------
# field-consistency


def _random_field_state(rng, length, grid_n, lattice, transverse_only=True):
    amps = []
    for n_int in lattice:
        k = tuple((2.0 * np.pi / length) * np.array(n_int))
        lams = (1, 2) if transverse_only else (1, 2, 3, 0)
        for lam in lams:
            alpha = rng.normal() + 1j * rng.normal()
            amps.append((k, lam, alpha))
    return flds.ClassicalFieldState(length, grid_n, tuple(amps))


def suite_fields(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("field-consistency", _config_echo(config))
    rng = np.random.default_rng(config.seed)
    length = 2.0 * np.pi
    grid_n = 9
    lattice = [(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)]

    spin_res = []
    parseval_res = []
    for _ in range(20):
        state = _random_field_state(rng, length, grid_n, lattice)
        # the state is transverse, so its maps are those of its transverse part
        maps = flds.eval_fields(state)
        integral = flds.spatial_spin_integral(state, maps)
        formula = flds.mode_spin_formula(state)
        spin_res.append(max_abs(integral - formula))
        energy = 0.5 * float(
            np.sum(maps.e ** 2) + np.sum(maps.b ** 2)
        ) * flds.cell_volume(state)
        parseval_res.append(abs(energy - flds.transverse_energy(state)))
    rep.add("spin-mode-duality", "S-obs-form", max_residual(spin_res), FIELD_TOL)
    rep.add("parseval-energy", "E-planewave", max_residual(parseval_res), FIELD_TOL)

    state = _random_field_state(rng, length, grid_n, lattice, transverse_only=False)
    maps = flds.eval_fields(state)
    a_grid = maps.a.reshape(grid_n, grid_n, grid_n, 3)
    trans, longi = flds.transverse_split(a_grid)
    rep.add(
        "transverse-split-reconstructs",
        "A-split",
        float(np.max(np.abs(trans + longi - a_grid))),
        TIGHT_TOL,
    )
    trans2, _ = flds.transverse_split(trans)
    rep.add(
        "transverse-split-idempotent",
        "A-split",
        float(np.max(np.abs(trans2 - trans))),
        1e-10,
    )
    inner = abs(float(np.sum(trans * longi)))
    rep.add("transverse-split-orthogonal", "A-split", inner, 1e-10)

    hat = np.fft.fftn(trans, axes=(0, 1, 2))
    freq = np.fft.fftfreq(grid_n, d=1.0 / grid_n)
    kx, ky, kz = np.meshgrid(freq, freq, freq, indexing="ij")
    div = kx * hat[..., 0] + ky * hat[..., 1] + kz * hat[..., 2]
    rep.add("transverse-divergence", "A-split", float(np.max(np.abs(div))), 1e-10)

    k0 = (0.0, 0.0, 2.0 * np.pi / length)
    cancel = flds.ClassicalFieldState(
        length, grid_n, ((k0, 3, 0.7 + 0.2j), (k0, 0, 0.7 + 0.2j))
    )
    rep.add(
        "longitudinal-e-cancellation",
        "E-planewave",
        float(np.max(np.abs(flds.eval_fields(cancel).e))),
        TIGHT_TOL,
    )

    state = _random_field_state(rng, length, grid_n, lattice)
    maps = flds.eval_fields(flds.transverse_split(state)[0])
    density = flds.spin_density_map(state, maps)
    total = np.sum(density, axis=0) * flds.cell_volume(state)
    rep.add(
        "density-map-integral",
        "S-obs-form",
        float(np.max(np.abs(total - flds.spatial_spin_integral(state, maps)))),
        TIGHT_TOL,
    )
    return rep.finalize()


# ---------------------------------------------------------------------------
# dirac


# Fermion-number cap of the dirac suite's spinor x orbital space: 697 states
# instead of 2^16.  Every operator its Table-I checks multiply conserves
# fermion number, and the spin-half check applies one creator to the vacuum,
# so the capped space is an invariant block without a truncation edge and
# each operator on it is the full-space one restricted to the kept states.
# N >= 2 exercises the Jordan-Wigner parity string (one fermion hopping over
# another) and N = 3 adds a spectator.  3 is also the smallest cap at which
# every rounding-level residual equals its full-space value; at 2 the
# largest entry of dirac-oam-su2 falls outside the block.
DIRAC_FERMION_CAP = 3


def suite_dirac(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("dirac", _config_echo(config))
    basis = spinor_matrices()
    eye4 = np.eye(4)
    invariants = [max_abs(basis.beta @ basis.beta - eye4)]
    for i in range(3):
        for j in range(3):
            anti = basis.alpha[i] @ basis.alpha[j] + basis.alpha[j] @ basis.alpha[i]
            invariants.append(max_abs(anti - 2.0 * (i == j) * eye4))
        invariants.append(max_abs(basis.gamma[i + 1] - basis.beta @ basis.alpha[i]))
    rep.add("spinor-invariants", "Dirac-matrices", max_residual(invariants), 1e-14)
    rep.add(
        "spinor-sigma-z-eigenvalues",
        "Dirac-matrices",
        float(np.max(np.abs(np.sort(np.linalg.eigvalsh(basis.sigma[2])) - np.array([-1, -1, 1, 1])))),
        1e-14,
    )

    small = build_fermion_fock([("a", 0), ("a", 1), ("b", 0)], config.dim_cap)
    ladders = {ch: fermion_ladder(small, ch) for ch in small.channels}
    eye = identity_operator(small).mat
    anticomm = [max_abs(c1 @ c1) for c1, _ in ladders.values()]
    for ch1, (c1, _) in ladders.items():
        for ch2, (_, d2) in ladders.items():
            anti = c1 @ d2 + d2 @ c1
            anticomm.append(max_abs(anti - eye if ch1 == ch2 else anti))
    rep.add("fermion-anticommutators", "ETCR-D1", max_residual(anticomm), 1e-14)

    ffs = build_fermion_fock(
        spinor_orbital_channels(1), config.dim_cap, max_total=DIRAC_FERMION_CAP
    )
    sam = dirac_sam(ffs)
    _claim_checks(rep, "dirac", ops.TABLE_I, (sam, dirac_oam(ffs, 1)), TIGHT_TOL)

    _, up = fermion_ladder(ffs, ((0, 0), 0))
    one = up @ ffs.vacuum()
    rep.add(
        "dirac-spin-half-eigenvalue",
        "S_D",
        max_abs(sam[2] @ one - 0.5 * one),
        1e-14,
    )

    photon = build_fock([("k", 1), ("k", 2)], 1, dim_cap=config.dim_cap)
    hel = ops.helicity_fixed_frame(photon)
    s_small = dirac_sam(build_fermion_fock(spinor_orbital_channels(0), config.dim_cap))
    commute = []
    for fop in s_small:
        combined_b = np.kron(hel.to_dense(), np.eye(fop.shape[0]))
        combined_f = np.kron(np.eye(photon.dim), fop.toarray())
        commute.append(max_abs(combined_b @ combined_f - combined_f @ combined_b))
    rep.add("photon-dirac-commute", "Table-I", max_residual(commute), 1e-14)

    plus = (creator(photon, ("k", 1)) @ photon.vacuum() + 1j * (creator(photon, ("k", 2)) @ photon.vacuum())) / np.sqrt(2)
    rep.add(
        "helicity-unit-eigenvalue",
        "helicity",
        max_abs(hel @ plus - plus),
        1e-14,
    )
    return rep.finalize()


# ---------------------------------------------------------------------------
# registry and runner


SUITES = {
    "canonical-commutators": suite_canonical,
    "observable-commutators": suite_observable,
    "decomposition-compare": suite_decomposition,
    "gauge-hiding": suite_gauge_hiding,
    "counter-rotating": suite_counter_rotating,
    "field-consistency": suite_fields,
    "dirac": suite_dirac,
}


def _config_echo(config: SuiteConfig) -> dict:
    grid_desc = "default"
    if config.grid is not None:
        grid_desc = ";".join(
            ",".join(repr(c) for c in k.components) for k in config.grid.modes
        )
    shell_desc = "default" if config.shell is None else f"{config.shell[0]},{config.shell[1]}"
    return {
        "suite": config.suite,
        "grid": grid_desc,
        "shell": shell_desc,
        "n_max": config.n_max,
        "tol": config.tol,
        "seed": config.seed,
        "dim_cap": config.dim_cap,
    }


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the configured suite; deterministic for fixed (config, seed)."""
    config.validate()
    if config.suite == "all":
        parts = [SUITES[name](config) for name in sorted(SUITES)]
        return merge_reports("all", _config_echo(config), parts)
    return SUITES[config.suite](config)
