"""Named verification suites.

Each suite builds small Fock spaces, constructs the operators under test,
and emits CheckRecords.  Identities are asserted on the occupation block
where they are exact: commutators of number-conserving bilinear lifts up to
total occupation n_max, edge-sensitive ladder identities up to n_max - 1.
Orbital (shell) spaces always use single occupation, which is where the
acceptance bounds are stated.

Spaces whose checks read only number-conserving operators are capped at the
asserted block itself (see `fock`): total occupation <= n_max on the grids
of canonical-commutators, observable-commutators and decomposition-compare,
<= 1 on shells, <= n_max - 1 on the random spaces of
lift-homomorphism-random.  The capped space is an invariant block of every
operator those checks multiply, so its residuals, read with plain
`max_abs`, are those of the full product space on the block.  The
gauge-hiding grid is capped at total occupation <= n_max too: its free
constraints a_3 - a_0 only lower the occupation, so the capped kernel, read
in closed form off the occupation table, is the full kernel on the block,
and its spin lifts and occupancy checks conserve the occupation.
counter-rotating's n_max 1 grid spaces are capped at total occupation 2:
each entry of its operators is one channel pair's weight sum, which already
appears between the vacuum and a two-photon state.  The dirac suite's
spinor x orbital space is capped at fermion number `DIRAC_FERMION_CAP`, an
invariant block in the same sense.  Ladder identities are read on the block
below their space's edge (`_edge_safe`); whole-space residuals there go
into the notes, never into assertions.  The xi pathway of gauge-hiding
reads one-mode moments: its displaced state is a product of one-mode
factors.  Product-basis spaces remain only at sizes no input sets: 27
states in `_bcr_checks`, 16 in the gb-root pair, 4 in gauge-hiding's
one-mode pair, 4 and 9 in its xi pathway, and dirac's 8, 4 and 16.

Every algebra claim (su(2), commuting or su(2)-violating families, mutually
commuting or noncommuting pairs, a family closing into another) is a row of
`operators.CLAIMS`, keyed by suite.  A suite lifts the `operators.FORMS`
families its rows name, each by name with `operators.lift_family`
(`_lift_named` for the families on one space), and hands them to the one
emitter, `_claim_checks`, which adds one check per claim:
canonical-commutators' spin and orbital su(2) and their commutation,
observable-commutators' transverse spin, orbital and total claims,
decomposition-compare's rival decompositions and Stokes closure, and dirac's
Table-I row.  The Hamiltonian commutators stay in suite code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import fields as flds
from . import operators as ops
from .dirac import build_fermion_fock, spinor_matrices, spinor_orbital_channels
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
    lift_forms,
    max_abs,
    max_residual,
    metric_operator,
    space_dim,
)
from .modes import (
    CartesianGrid,
    SphericalShell,
    build_cartesian_modeset,
    orbital_matrices,
)
from .report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, merge_reports
from .sampling import SeededRng

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# One-mode set for constraints on a single (lam = 0, lam = 3) pair.
_ONE_MODE = SphericalShell(radius=1.0, l_max=0)
(_ONE_LABEL,) = _ONE_MODE.mode_labels()

TIGHT_TOL = 1e-12
VIOLATION_THRESHOLD = 0.1
FIELD_TOL = 1e-9

# Occupation cap of the grid spaces when --nmax is not set.
DEFAULT_N_MAX = 2


@dataclass
class SuiteConfig:
    """Configuration for one suite run; defaults reproduce the shipped checks."""

    suite: str = "all"
    grid: CartesianGrid | None = None
    shell: tuple[float, int] | None = None
    n_max: int | None = None
    tol: float = 1e-10
    seed: int = 0
    dim_cap: int = DEFAULT_DIM_CAP

    def validate(self) -> None:
        if not 0 < self.tol < VIOLATION_THRESHOLD:
            raise InvalidConfig(
                f"tolerance must be finite, positive and below {VIOLATION_THRESHOLD}"
            )
        if self.n_max is not None and self.n_max < 1:
            raise InvalidConfig("n_max must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")
        if self.dim_cap < 1:
            raise InvalidConfig("dim_cap must be >= 1")
        if self.grid is not None and not isinstance(self.grid, CartesianGrid):
            raise InvalidConfig("a grid lists wave vectors; give a shell with --shell")
        if self.suite not in SUITES and self.suite != "all":
            raise UnknownSuite(f"no suite named {self.suite!r}")
        unread = self.unread_flags(self.suite)
        if unread:
            raise InvalidConfig(f"{self.suite} does not read {' or '.join(unread)}")

    def unread_flags(self, suite: str) -> list[str]:
        """The set flags among those `suite` never reads."""
        knobs = _UNREAD_KNOBS.get(suite, ())
        return [_KNOB_FLAGS[knob] for knob in knobs if getattr(self, knob) is not None]

    @property
    def occupation_cap(self) -> int:
        """`n_max` where a suite reads it: the set value, else `DEFAULT_N_MAX`."""
        return DEFAULT_N_MAX if self.n_max is None else self.n_max


# Run alone, a suite refuses a knob it never reads; under `all` it notes it.
_UNREAD_KNOBS = {
    "counter-rotating": ("shell", "n_max"),
    "dirac": ("grid", "shell", "n_max"),
    "field-consistency": ("grid", "shell", "n_max"),
}
_KNOB_FLAGS = {"grid": "--grid", "shell": "--shell", "n_max": "--nmax"}


def _default_grid() -> CartesianGrid:
    return build_cartesian_modeset([(0.0, 0.0, 1.0)])


def _generic_grid() -> CartesianGrid:
    return build_cartesian_modeset([(0.6, 0.2, 0.75)])


def _grid_space(ms: CartesianGrid, lams, n_max: int, dim_cap: int, max_total: int) -> FockSpace:
    chans = [(i, lam) for i in ms.mode_labels() for lam in lams]
    return build_fock(chans, n_max, dim_cap=dim_cap, max_total=max_total)


def _capped_grid_space(ms: CartesianGrid, lams, config: SuiteConfig) -> FockSpace:
    """Grid space capped at the asserted block, total occupation <= n_max."""
    n_max = config.occupation_cap
    return _grid_space(ms, lams, n_max, config.dim_cap, max_total=n_max)


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


# Per claimed algebra or relation: check-ID suffix, kind and bound (None:
# the run's tolerance, or TIGHT_TOL on a tight row).
_CLAIM_VERDICTS = {
    ops.ALG_SU2: ("su2", KIND_EQUALITY, None),
    ops.ALG_COMMUTING: ("commuting", KIND_EQUALITY, TIGHT_TOL),
    ops.ALG_NONSTANDARD: ("violation", KIND_VIOLATION, VIOLATION_THRESHOLD),
    ops.MUTUAL_COMMUTE: ("commute", KIND_EQUALITY, None),
    ops.MUTUAL_NONCOMMUTING: ("noncommuting", KIND_VIOLATION, VIOLATION_THRESHOLD),
    ops.CLOSES_INTO: ("closes-into", KIND_EQUALITY, None),
}


def _claim_residuals(claim: str, a, b, structure: int = 1) -> list[float]:
    """Residuals of one claim of triple `a` (with `b` for a relation; `a`
    itself for a family algebra): max_abs([a_i, a_j]) per bracket for a
    commuting claim, max_abs([a_x, b_y]) per pair for a mutual one, and
    max_abs([a_i, a_j] - i c b_k) per bracket, c = `structure`, otherwise."""
    if claim == ops.ALG_COMMUTING:
        return [max_abs(commutator(a[i], a[j])) for i, j, _ in EPS_PAIRS]
    if claim in (ops.MUTUAL_COMMUTE, ops.MUTUAL_NONCOMMUTING):
        return [max_abs(commutator(x, y)) for x in a for y in b]
    return [max_abs(commutator(a[i], a[j], structure * 1j * b[k])) for i, j, k in EPS_PAIRS]


def _claim_checks(rep: VerificationReport, rows, lifted: dict, tol: float) -> None:
    """Add the checks of claims rows (`operators.CLAIMS`): per row one per
    claimed family algebra, then one for the claimed relation of its first
    two families; an explicit ID per bracket gives one check per bracket.

    `lifted` maps each family the rows name to its lifted components, read on
    an invariant block; `tol` bounds the su(2), mutual-commute and
    closes-into equalities of a row that is not tight.
    """
    for row in rows:
        claims = [(tag, alg, lifted[name], lifted[name]) for name, tag, alg in row.families if alg]
        if row.relation is not None:
            (first, _, _), (second, _, _) = row.families[:2]
            claims.append((row.relation_tag, row.relation, lifted[first], lifted[second]))
        prefix = row.name.replace("_", "-")
        for tag, claim, a, b in claims:
            suffix, kind, bound = _CLAIM_VERDICTS[claim]
            if bound is None:
                bound = TIGHT_TOL if row.tight else tol
            residuals = _claim_residuals(claim, a, b, row.structure)
            check_id = row.ids.get(tag, "-".join(p for p in (prefix, tag, suffix) if p))
            if isinstance(check_id, str):
                rep.add(check_id, row.anchor, max_residual(residuals), bound, kind=kind)
            else:
                for one, res in zip(check_id, residuals):
                    rep.add(one, row.anchor, res, bound, kind=kind)


def _lift_named(rows, fs: FockSpace, ms, lifted: dict) -> dict:
    """`lifted` completed by every family the claims rows name, each lifted
    on `fs` over the mode set `ms` (`operators.lift_family`)."""
    for row in rows:
        for name, _, _ in row.families:
            if name not in lifted:
                lifted[name] = ops.lift_family(fs, name, ms)
    return lifted


def _orbital_shell(config: SuiteConfig, default_lmax: int = 1) -> SphericalShell:
    """The `--shell` shell, else the unit shell at default_lmax; InvalidConfig
    at l_max 0, where every orbital generator vanishes.  Its largest space
    (all four polarizations at total occupation <= 1) is counted against the
    caps before the shell lists its labels."""
    radius, l_max = config.shell or (1.0, default_lmax)
    space_dim(4 * (max(l_max, 0) + 1) ** 2, 1, 1, config.dim_cap)
    shell = SphericalShell(radius=radius, l_max=l_max)
    if shell.l_max < 1:
        raise InvalidConfig("orbital checks need l_max >= 1")
    return shell


# ---------------------------------------------------------------------------
# canonical-commutators


def suite_canonical(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("canonical-commutators", _config_echo(config))
    rng = SeededRng(config.seed)
    ms = config.grid or _default_grid()

    fs = _capped_grid_space(ms, (0, 1, 2, 3), config)
    spin = ops.lift_family(fs, "spin_total", ms)
    (ham,) = ops.lift_family(fs, "hamiltonian", ms)
    if ms.omega.max() - ms.omega.min() < 1e-12:
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
        max_abs((ham @ transverse) - ms.omega[mode0] * transverse),
        TIGHT_TOL,
    )
    scalar = fs.basis_state({(mode0, 0): 1})
    rep.add(
        "hamiltonian-scalar-eigenvalue",
        "H-mode-form",
        max_abs((ham @ scalar) + ms.omega[mode0] * scalar),
        TIGHT_TOL,
    )
    mom = ops.lift_family(fs, "momentum", ms)
    kvec = ms.ks[mode0]
    res = max_residual(
        max_abs((mom[comp] @ psi) - sign * kvec[comp] * psi)
        for comp in range(3)
        for psi, sign in ((transverse, 1), (scalar, -1))
    )
    rep.add("momentum-eigenvalues", "PM-planewave", res, TIGHT_TOL)

    _bcr_checks(rep, config)
    _metric_checks(rep, fs)
    rep.add(
        "lift-homomorphism-random",
        "BCR1",
        _lift_homomorphism_residual(rng, pairs=20, dim_cap=config.dim_cap),
        TIGHT_TOL,
    )

    rows = ops.CLAIMS[rep.suite]
    lifted = _orbital_families(rep, config, rows, {"spin_total": spin})
    _claim_checks(rep, rows, lifted, config.tol)
    return rep.finalize()


def _bcr_checks(rep: VerificationReport, config: SuiteConfig) -> None:
    fs = build_fock([("k", 1), ("k", 0), ("q", 2)], 2, dim_cap=config.dim_cap)
    ident = identity_operator(fs)
    comm_t = commutator(annihilator(fs, ("k", 1)), creator(fs, ("k", 1)), ident)
    rep.add("bcr-transverse", "BCR1", _edge_safe(comm_t), TIGHT_TOL)
    comm_s = commutator(annihilator(fs, ("k", 0)), creator(fs, ("k", 0)), -ident)
    rep.add("bcr-scalar", "BCR1", _edge_safe(comm_s), TIGHT_TOL)
    cross = commutator(annihilator(fs, ("k", 1)), creator(fs, ("q", 2)))
    rep.add("bcr-cross-channel", "BCR1", max_abs(cross), TIGHT_TOL)
    aa = commutator(annihilator(fs, ("k", 1)), annihilator(fs, ("k", 0)))
    rep.add("bcr-annihilators-commute", "BCR2", max_abs(aa), TIGHT_TOL)


def _metric_checks(rep: VerificationReport, fs: FockSpace) -> None:
    eta = metric_operator(fs)
    rep.add(
        "metric-squared-identity",
        "indefinite-metric",
        max_abs(eta @ eta - identity_operator(fs)),
        TIGHT_TOL,
    )
    worst = max_residual(
        max_abs(creator(fs, ch) - annihilator(fs, ch).metric_adjoint()) for ch in fs.channels
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


def _lift_homomorphism_residual(rng: SeededRng, pairs: int, dim_cap: int) -> float:
    """L([M, N]_G) = [L(M), L(N)] on random forms over random channels.

    Each space is capped at total occupation n_max - 1, the block below the
    product space's truncation edge.  Lifts conserve total occupation, so the
    block is invariant and each entry on it is the product-space entry: the
    residual is the product space's on the block, bit for bit.
    """
    residuals = []
    for _ in range(pairs):
        n_ch = int(rng.integers(2, 5))
        lams = [int(rng.integers(0, 4)) for _ in range(n_ch)]
        chans = [(f"m{j}", lams[j]) for j in range(n_ch)]
        n_max = int(rng.integers(2, 4))
        fs = build_fock(chans, n_max, dim_cap=dim_cap, max_total=n_max - 1)
        shape = (n_ch, n_ch)
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        n = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        bracket = QuadraticForm(m, fs.signs).bracket(QuadraticForm(n, fs.signs))
        lm, ln, lmn = lift_forms(fs, (m, n, bracket.matrix))
        residuals.append(max_abs(commutator(lm, ln, lmn)))
    return max_residual(residuals)


def _orbital_families(rep: VerificationReport, config: SuiteConfig, rows, lifted: dict) -> dict:
    """`lifted` completed by the orbital families of canonical-commutators'
    claims `rows`: per polarization sector on the `--shell` l_max (default
    2), and with all four polarizations, next to the fixed-frame spin, on the
    `--shell` l_max (default 1).  Adds the orbital checks that are not
    claims."""
    shell2 = _orbital_shell(config, default_lmax=2)
    for lam, name in ((1, "oam_transverse"), (0, "oam_scalar")):
        lifted[name] = ops.lift_family(_shell_space(shell2, (lam,), config.dim_cap), name, shell2)

    shell1 = _orbital_shell(config)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    oam = _lift_named(rows, fs4, shell1, lifted)["oam_total"]
    (ham,) = ops.lift_family(fs4, "hamiltonian", shell1)
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
    return lifted


# ---------------------------------------------------------------------------
# observable-commutators


def suite_observable(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("observable-commutators", _config_echo(config))
    ms = config.grid or build_cartesian_modeset([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])

    fs = _capped_grid_space(ms, (1, 2), config)
    sobs = ops.lift_family(fs, "spin_obs", ms)
    (hel,) = ops.lift_family(fs, "helicity", ms)
    mode0 = ms.mode_labels()[0]
    plus = (creator(fs, (mode0, 1)) @ fs.vacuum() + 1j * (creator(fs, (mode0, 2)) @ fs.vacuum())) / np.sqrt(2)
    minus = (creator(fs, (mode0, 1)) @ fs.vacuum() - 1j * (creator(fs, (mode0, 2)) @ fs.vacuum())) / np.sqrt(2)
    res = max_residual((max_abs((hel @ plus) - plus), max_abs((hel @ minus) + minus)))
    rep.add("helicity-circular-single", "helicity", res, TIGHT_TOL)
    if config.occupation_cap >= 2:
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
    sigma = ops.lift_family(fs, "stokes", ms)
    rep.add(
        "stokes-helicity-match",
        "Stokes",
        max_abs(sigma[1] - hel),
        TIGHT_TOL,
    )

    fs3 = _capped_grid_space(ms, (1, 2, 3), config)
    stot, sobs3 = (ops.lift_family(fs3, name, ms) for name in ("spin_total", "spin_obs"))
    circ3 = (creator(fs3, (mode0, 1)) @ fs3.vacuum() + 1j * (creator(fs3, (mode0, 2)) @ fs3.vacuum())) / np.sqrt(2)
    agree = max_residual(
        abs(expectation(fs3, stot[c], circ3) - expectation(fs3, sobs3[c], circ3))
        for c in range(3)
    )
    rep.add("spin-total-obs-agree-circular", "S-obs-form", agree, config.tol)

    shell1 = _orbital_shell(config)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    rows = ops.CLAIMS[rep.suite]
    lifted = _lift_named(rows, fs4, shell1, {"spin_obs": sobs})
    _claim_checks(rep, rows, lifted, config.tol)
    lobs = lifted["oam_obs"]
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
    rng = SeededRng(config.seed)
    shell = _orbital_shell(config)
    fs = _shell_space(shell, (0, 1, 2, 3), config.dim_cap)
    gms = config.grid or _default_grid()
    stokes = ops.lift_family(_capped_grid_space(gms, (1, 2), config), "stokes", gms)
    rows = ops.CLAIMS[rep.suite]
    lifted = _lift_named(rows, fs, shell, {"stokes": stokes})

    xi = cons.random_conjugate_symmetric_xi(shell, rng, scale=0.4)
    extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
    lifted["oam_wak"] = tuple(a + b + c for a, b, c in zip(lifted["oam_wak"], *extra))
    rep.note(
        "wakamatsu orbital extra term realized through the prescribed-source"
        f" pathway; seeded source norm {max(abs(v) for v in xi.values()):.3e}"
    )

    pair = build_fock([("k", 3), ("k", 0)], 3, dim_cap=config.dim_cap)
    gauge_combo_a = annihilator(pair, ("k", 3)) - annihilator(pair, ("k", 0))
    gauge_combo_c = creator(pair, ("k", 3)) - creator(pair, ("k", 0))
    root = commutator(gauge_combo_a, gauge_combo_c)
    rep.add("gb-root-identity", "JM-BJ", _edge_safe(root), 1e-14)
    rep.note(
        f"gb-root-identity full-space residual {max_abs(root):.3e}"
        " (truncation edge, reported only)"
    )

    _claim_checks(rep, rows, lifted, config.tol)
    # the named rows are the decompositions
    names = sorted(row.name for row in rows if row.name)
    rep.note(f"claimed algebras checked against shipped table: {names}")
    return rep.finalize()


# ---------------------------------------------------------------------------
# gauge-hiding


def suite_gauge_hiding(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("gauge-hiding", _config_echo(config))
    shell = _orbital_shell(config)
    rng = SeededRng(config.seed)

    ms = config.grid or _default_grid()
    fs = _capped_grid_space(ms, (0, 1, 2, 3), config)
    kernel = cons.gb_physical_subspace(ms, fs)
    pair = build_fock([(_ONE_LABEL, 3), (_ONE_LABEL, 0)], 1, dim_cap=config.dim_cap)
    constraint = cons.gb_constraints(_ONE_MODE, pair, None)
    sub = cons.physical_subspace(pair, constraint, tol=1e-10, dim_cap=config.dim_cap)
    # the dimension and certificate checks also hold the grid kernel to its
    # closed-form count C(3K + n, n) and to its constraints
    monomials = math.comb(3 * len(ms.mode_labels()) + fs.max_total, fs.max_total)
    mismatch = abs(sub.shape[1] - 2) + abs(kernel.dimension - monomials)
    rep.add("gb-free-kernel-dimension", "Gupta1", mismatch, 0.0)
    gauge_vec = (creator(pair, (_ONE_LABEL, 3)) - creator(pair, (_ONE_LABEL, 0))) @ pair.vacuum()
    expected = np.stack([pair.vacuum(), gauge_vec / np.linalg.norm(gauge_vec)], axis=1)
    contents = max_abs(sub @ sub.conj().T - expected @ expected.conj().T)
    rep.add("gb-free-kernel-contents", "Gupta1", contents, 1e-10)
    certificate = max_residual([
        cons.kernel_certificate(constraint, sub),
        cons.gb_kernel_certificate(cons.gb_constraints(ms, fs, None), kernel),
    ])
    rep.add("gb-kernel-certificate", "Gupta1", certificate, 1e-10)
    annihilated = float(np.linalg.norm(constraint[0] @ gauge_vec))
    rep.add("gb-gauge-pair-annihilated", "Gupta1", annihilated, TIGHT_TOL)
    longi_vec = creator(pair, (_ONE_LABEL, 3)) @ pair.vacuum()
    longi = float(np.linalg.norm(constraint[0] @ longi_vec))
    rep.add("gb-longitudinal-not-physical", "Gupta1", longi, 0.5, kind=KIND_VIOLATION)

    spin, spin_obs = (ops.lift_family(fs, name, ms) for name in ("spin_total", "spin_obs"))
    asserted, mixed, skipped = cons.verify_gauge_hiding(fs, kernel, spin, spin_obs, rng=rng)
    rep.add("gauge-hiding-spin-representatives", "gauge-hiding", asserted, config.tol)
    if mixed.size:
        rep.note(
            f"spin hiding on zero-norm-mixed states: max {max_residual(mixed):.3e}"
            " (class-dependent, reported only)"
        )
    rep.note(f"zero-norm physical probes skipped and counted: {skipped}")

    # every column by one sum over its rows; columns have disjoint rows, so a
    # combination c reads sum_j |c_j|^2 balance_j / sum_j |c_j|^2.  The six
    # combinations keep their draws so that the later draws (xi pathway,
    # xi-fourier) stay where they were
    balance = cons.column_occupancy(fs, kernel, 3) - cons.column_occupancy(fs, kernel, 0)
    combined = []
    for _ in range(6):
        re, im = rng.normal(size=kernel.dimension), rng.normal(size=kernel.dimension)
        weight = re**2 + im**2
        combined.append(weight @ balance / weight.sum())
    energy = max_residual(np.abs(np.concatenate([balance, combined])))
    rep.add("free-energy-cancellation", "Gupta1", energy, config.tol)

    fs_sh = _shell_space(shell, (0, 1, 2, 3), config.dim_cap)
    oam, lobs, lpure = (
        ops.lift_family(fs_sh, name, shell) for name in ("oam_total", "oam_obs", "l_pure")
    )
    rep.add(
        "oam-identity-matrix",
        "gauge-hiding",
        max_residual(max_abs(oam[c] - lobs[c] - lpure[c]) for c in range(3)),
        1e-14,
    )

    _xi_pathway_reports(rep, config, shell, rng)
    _xi_fourier_checks(rep, rng)
    return rep.finalize()


def _xi_pathway_reports(rep: VerificationReport, config: SuiteConfig, shell, rng) -> None:
    xi_sym = cons.random_conjugate_symmetric_xi(shell, rng, scale=0.05)
    rep.add(
        "xi-conjugate-symmetry", "xi", cons.xi_conjugate_residual(shell, xi_sym), 1e-13
    )
    # Algebra probe without the reality symmetry: for a conjugate-symmetric
    # xi both sides of the identity vanish, so only the probe is reported;
    # its sides are nonzero, and the closed-form counterterm xi^dag L xi enters.
    xi_probe = {
        c: 0.05 * (rng.normal() + 1j * rng.normal()) for c in shell.mode_labels()
    }
    vec = np.array([xi_probe[c] for c in shell.mode_labels()])
    counter = np.array([-np.real(vec.conj() @ g @ vec) for g in orbital_matrices(shell.l_max)])
    for n_max in (1, 2):
        small, factors, kernel_res = _approximate_displaced_kernel(
            shell, xi_probe, n_max, config.dim_cap
        )
        lhs, source = _xi_pathway_expectations(shell, xi_probe, small, factors)
        rhs = [source[c] + counter[c] for c in range(3)]
        worst = max_residual(abs(l - r) for l, r in zip(lhs, rhs))
        magnitude = max_residual(abs(l) for l in lhs)
        rep.note(
            f"xi pathway (probe, n_max={n_max}):"
            f" |<l_pure> - <source> - counterterm| = {worst:.3e},"
            f" |<l_pure>| up to {magnitude:.3e},"
            f" kernel residual {kernel_res:.3e}"
            " (truncation-limited, reported only)"
        )


def _approximate_displaced_kernel(shell, xi, n_max, dim_cap=DEFAULT_DIM_CAP):
    """The one-mode (lam = 0, lam = 3) space, the best approximate kernel
    vector on it per shell label, and the largest per-mode kernel residual.

    The displaced state is the product of these factors over the labels.
    The per-mode constraint depends on the mode only through its xi.
    """
    small = build_fock([(_ONE_LABEL, 0), (_ONE_LABEL, 3)], n_max, dim_cap=dim_cap)
    factors, residuals = [], []
    for label in shell.mode_labels():
        constraint = cons.gb_constraints(_ONE_MODE, small, {_ONE_LABEL: xi.get(label, 0.0)})
        _, sigma, vh = np.linalg.svd(constraint[0].to_dense())
        factors.append(vh[-1].conj())
        residuals.append(sigma[-1])
    return small, factors, max_residual(residuals)


def _xi_pathway_expectations(shell, xi, small, factors):
    """<l_pure> and <source> = -<xi_oam_bilinear(lam = 3)> per component on
    the product of one-mode factors, without building the product space.

    Both operators are at most bilinear in the ladders and eta factorizes
    per mode, so <creator_a a_b> is <creator_a><a_b> across two modes and a
    one-mode moment within one; <lift(M)> is then sum_ab M_ab <creator_a a_b>
    over the label-major (label, lam = 0, 3) channels.  Each factor's
    moments go through `expectation`, so a zero-norm factor raises
    ZeroNormState.
    """
    lower = [annihilator(small, (_ONE_LABEL, lam)) for lam in (0, 3)]
    upper = [creator(small, (_ONE_LABEL, lam)) for lam in (0, 3)]
    first = np.array([[expectation(small, a, v) for a in lower] for v in factors])
    first_up = np.array([[expectation(small, c, v) for c in upper] for v in factors])
    moments = np.outer(first_up, first)
    pairs = [[c @ a for a in lower] for c in upper]
    for k, v in enumerate(factors):
        moments[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
            [expectation(small, p, v) for p in row] for row in pairs
        ]
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    lpure = [np.sum(m * moments) for m in ops.family_matrices(chans, "l_pure", shell)]
    coefficients = cons.xi_source_coefficients(shell, xi)
    source = [-(row @ first[:, 1] + col @ first_up[:, 1]) for row, col in coefficients]
    return lpure, source


def _xi_fourier_checks(rep: VerificationReport, rng) -> None:
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

    fs_spin = _grid_space(ms, (1, 2, 3), 1, config.dim_cap, max_total=2)
    cr_spin = ops.counter_rotating_part(ms, fs_spin, "spin")
    rep.add(
        "cr-spin-vanishes", "CR-spin", max_residual(max_abs(m) for m in cr_spin), TIGHT_TOL
    )

    fs_mom = _grid_space(ms, (0, 1, 2, 3), 1, config.dim_cap, max_total=2)
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


def _random_field_state(rng, lattice: flds.FieldLattice, lams) -> np.ndarray:
    """A (K, 4) amplitude array on `lattice`: per wave vector, one
    rng.normal() + 1j rng.normal() per polarization in `lams`, drawn in that
    order; the other polarizations are zero."""
    amps = np.zeros((len(lattice.ks), 4), dtype=complex)
    for row in amps:
        for lam in lams:
            row[lam] = rng.normal() + 1j * rng.normal()
    return amps


def suite_fields(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("field-consistency", _config_echo(config))
    rng = SeededRng(config.seed)
    length = 2.0 * np.pi
    grid_n = 9
    n_ints = [(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)]
    lattice = flds.FieldLattice(length, grid_n, (2.0 * np.pi / length) * np.array(n_ints))

    spin_res = []
    parseval_res = []
    for _ in range(20):
        amps = _random_field_state(rng, lattice, (1, 2))
        # the state is transverse, so its maps are those of its transverse part
        maps = flds.eval_fields(lattice, amps)
        integral = flds.spatial_spin_integral(lattice, maps)
        formula = flds.mode_spin_formula(lattice, amps)
        spin_res.append(max_abs(integral - formula))
        energy = 0.5 * float(
            np.sum(maps.e ** 2) + np.sum(maps.b ** 2)
        ) * flds.cell_volume(lattice)
        parseval_res.append(abs(energy - flds.transverse_energy(lattice, amps)))
    rep.add("spin-mode-duality", "S-obs-form", max_residual(spin_res), FIELD_TOL)
    rep.add("parseval-energy", "E-planewave", max_residual(parseval_res), FIELD_TOL)

    maps = flds.eval_fields(lattice, _random_field_state(rng, lattice, (1, 2, 3, 0)))
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

    # equal scalar and longitudinal amplitudes on k = (0, 0, 2 pi / L)
    cancel = np.zeros((len(lattice.ks), 4), dtype=complex)
    cancel[0, [0, 3]] = 0.7 + 0.2j
    rep.add(
        "longitudinal-e-cancellation",
        "E-planewave",
        float(np.max(np.abs(flds.eval_fields(lattice, cancel).e))),
        TIGHT_TOL,
    )

    amps = _random_field_state(rng, lattice, (1, 2))
    maps = flds.eval_fields(lattice, amps)  # again the maps of the transverse part
    density = flds.spin_density_map(maps)
    total = np.sum(density, axis=0) * flds.cell_volume(lattice)
    rep.add(
        "density-map-integral",
        "S-obs-form",
        float(np.max(np.abs(total - flds.mode_spin_formula(lattice, amps)))),
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
    ladders = {ch: (annihilator(small, ch), creator(small, ch)) for ch in small.channels}
    eye = identity_operator(small)
    anticomm = [max_abs(c1 @ c1) for c1, _ in ladders.values()]
    for ch1, (c1, _) in ladders.items():
        for ch2, (_, d2) in ladders.items():
            anti = c1 @ d2 + d2 @ c1
            anticomm.append(max_abs(anti - eye if ch1 == ch2 else anti))
    rep.add("fermion-anticommutators", "ETCR-D1", max_residual(anticomm), 1e-14)

    shell = SphericalShell(radius=1.0, l_max=1)
    ffs = build_fermion_fock(
        spinor_orbital_channels(shell.l_max), config.dim_cap, max_total=DIRAC_FERMION_CAP
    )
    rows = ops.CLAIMS[rep.suite]
    lifted = _lift_named(rows, ffs, shell, {})
    _claim_checks(rep, rows, lifted, config.tol)

    sam = lifted["dirac_sam"]
    one = creator(ffs, ((0, 0), 0)) @ ffs.vacuum()
    rep.add(
        "dirac-spin-half-eigenvalue",
        "S_D",
        max_abs(sam[2] @ one - 0.5 * one),
        1e-14,
    )

    photon = build_fock([("k", 1), ("k", 2)], 1, dim_cap=config.dim_cap)
    (hel,) = ops.lift_family(photon, "helicity")
    s_small = ops.lift_family(
        build_fermion_fock(spinor_orbital_channels(0), config.dim_cap), "dirac_sam"
    )
    commute = []
    for fop in s_small:
        combined_b = np.kron(hel.to_dense(), np.eye(fop.space.dim))
        combined_f = np.kron(np.eye(photon.dim), fop.to_dense())
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
            ",".join(repr(c) for c in k) for k in config.grid.ks.tolist()
        )
    shell_desc = "default" if config.shell is None else f"{config.shell[0]},{config.shell[1]}"
    return {
        "suite": config.suite,
        "grid": grid_desc,
        "shell": shell_desc,
        "n_max": config.occupation_cap,
        "tol": config.tol,
        "seed": config.seed,
        "dim_cap": config.dim_cap,
    }


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the configured suite; deterministic for fixed (config, seed)."""
    config.validate()
    if config.suite == "all":
        parts = [SUITES[name](config) for name in sorted(SUITES)]
        for part in parts:
            for flag in config.unread_flags(part.suite):
                part.note(f"{flag} ignored: this suite does not read it")
        return merge_reports("all", _config_echo(config), parts)
    return SUITES[config.suite](config)
