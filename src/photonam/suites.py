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
<= 1 on shells, <= 2 on the n_max 3 space of lift-homomorphism-random,
which checks every pair of elementary forms in one `commutator_residuals`
pass and draws no samples.  The capped space is an invariant block of every
operator those checks multiply, so its residuals, read with plain
`max_abs`, are those of the full product space on the block.  The
gauge-hiding grid is capped at total occupation <= n_max too: its free
constraints a_3 - a_0 only lower the occupation, so the capped kernel, read
in closed form off the occupation table, is the full kernel on the block,
and its spin lifts and occupancy checks conserve the occupation.
counter-rotating builds no space: each entry of its operators, on an n_max
1 space capped at total occupation 2, is one weight of
`operators.counter_rotating_part` or `operators.l_pure_s_terms`, so each
check reads the largest weight.  The dirac suite's
spinor x orbital space is capped at fermion number `DIRAC_FERMION_CAP`, an
invariant block in the same sense.  Ladder identities are read on the block
below their space's edge (`_edge_safe`); whole-space residuals there go
into the notes, never into assertions.  The xi pathway of gauge-hiding
builds no space: coherent states solve its displaced constraint
a_3 - a_0 + xi exactly and their moments factorize, so both sides of its
identity are Hermitian forms in xi, read as matrices off `operators.FORMS`
and `constraints.xi_source_coefficients`.  Product-basis spaces remain only
at sizes no input sets: 27 states in `_bcr_checks`, 16 in the gb-root pair,
4 in gauge-hiding's one-mode pair, and dirac's 8, 4 and 16.

Every algebra claim (su(2), commuting or su(2)-violating families, mutually
commuting or noncommuting pairs, a family closing into another) is one
`operators.Claim` of `operators.CLAIMS`, keyed by suite, under the literal ID
of the check it reports.  A suite lifts the `operators.FORMS` families its
claims name, each by name with `operators.lift_family` (`_lift_named` for the
families on one space), and hands them to the one emitter, `_claim_checks`,
which adds one check per claim: canonical-commutators' spin and orbital
su(2), their commutation and the Hamiltonian's commutation with the orbital
family, observable-commutators' transverse spin, orbital and total claims,
decomposition-compare's rival decompositions and Stokes closure, and dirac's
Table-I claims.  `hamiltonian-spin-commute` stays in suite code: it reads
the grid Hamiltonian, on every grid; the claims read the shell's.
dirac's spinor checks read the Dirac matrices `operators.BETA`, `ALPHA` and
`SIGMA`, the ones its spin family is built from.

No check draws: field-consistency reads its quadratic identities as matrices
on a real basis of transverse states, and the prescribed shell source is
stated once, `stated_source`.

A check that a state is an eigenvector is read by one helper,
`_eigen_residual` (the largest |O psi - v psi| over its states), on states
from `FockSpace.basis_state` or, for a circular photon, `_circular`; the
three expectation checks read `expectation` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import fields as flds
from . import operators as ops
from .dirac import build_fermion_fock, spinor_orbital_channels
from .errors import InvalidConfig, UnknownSuite
from .fock import (
    DEFAULT_DIM_CAP,
    FockSpace,
    OperatorMatrix,
    annihilator,
    build_fock,
    commutator,
    commutator_residuals,
    compress,
    creator,
    expectation,
    form_bracket,
    identity_operator,
    indefinite_inner,
    lift_forms,
    max_abs,
    max_residual,
    metric_operator,
    space_dim,
)
from .modes import CartesianGrid, SphericalShell, build_cartesian_modeset
from .report import KIND_EQUALITY, KIND_VIOLATION, VerificationReport, merge_reports

EPS_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# Channels of lift-homomorphism-random: signs (-, -, +, +) hold every sign pair.
_HOMOMORPHISM_CHANNELS = tuple((f"m{j}", lam) for j, lam in enumerate((0, 0, 1, 3)))

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
    seed: int = 0  # echoed; no check reads it
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


def _capped_grid_space(ms: CartesianGrid, lams, config: SuiteConfig) -> FockSpace:
    """Grid space capped at the asserted block, total occupation <= n_max."""
    n_max = config.occupation_cap
    chans = [(i, lam) for i in ms.mode_labels() for lam in lams]
    return build_fock(chans, n_max, dim_cap=config.dim_cap, max_total=n_max)


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


def _eigen_residual(op: OperatorMatrix, value, *states) -> float:
    """Residual of the claim that each state is an eigenvector of op with
    eigenvalue value: the largest |op psi - value psi|."""
    return max_residual(max_abs(op @ psi - value * psi) for psi in states)


def _circular(fs: FockSpace, label, phase=1j) -> np.ndarray:
    """(|label, lam = 1> + phase |label, lam = 2>) / sqrt(2): one photon of
    helicity +1 along the mode's k, or -1 at phase -1j."""
    x, y = (fs.basis_state({(label, lam): 1}) for lam in (1, 2))
    return (x + phase * y) / np.sqrt(2)


# Per verdict: kind and bound (None: the run's tolerance, or TIGHT_TOL on a
# tight claim).
_CLAIM_VERDICTS = {
    ops.ALG_SU2: (KIND_EQUALITY, None),
    ops.ALG_COMMUTING: (KIND_EQUALITY, TIGHT_TOL),
    ops.ALG_NONSTANDARD: (KIND_VIOLATION, VIOLATION_THRESHOLD),
    ops.MUTUAL_COMMUTE: (KIND_EQUALITY, None),
    ops.MUTUAL_NONCOMMUTING: (KIND_VIOLATION, VIOLATION_THRESHOLD),
    ops.CLOSES_INTO: (KIND_EQUALITY, None),
}


def _claim_residuals(verdict: str, a, b, structure: int = 1) -> list[float]:
    """Residuals of one claim of triple `a` (with `b` for a relation; `a`
    itself for a family algebra): max_abs([a_i, a_j]) per bracket for a
    commuting claim, max_abs([a_x, b_y]) per pair for a mutual one, and
    max_abs([a_i, a_j] - i c b_k) per bracket, c = `structure`, otherwise."""
    if verdict == ops.ALG_COMMUTING:
        return [max_abs(commutator(a[i], a[j])) for i, j, _ in EPS_PAIRS]
    if verdict in (ops.MUTUAL_COMMUTE, ops.MUTUAL_NONCOMMUTING):
        return [max_abs(commutator(x, y)) for x in a for y in b]
    return [max_abs(commutator(a[i], a[j], structure * 1j * b[k])) for i, j, k in EPS_PAIRS]


def _claim_checks(rep: VerificationReport, claims, lifted: dict, tol: float) -> None:
    """Add one check per claim (`operators.CLAIMS`) under its ID, or one per
    bracket under a triple of IDs.

    `lifted` maps each family the claims name to its lifted components, read
    on an invariant block; `tol` bounds the su(2), mutual-commute and
    closes-into equalities of a claim that is not tight.
    """
    for claim in claims:
        kind, bound = _CLAIM_VERDICTS[claim.verdict]
        if bound is None:
            bound = TIGHT_TOL if claim.tight else tol
        a = lifted[claim.a]
        b = a if claim.b is None else lifted[claim.b]
        residuals = _claim_residuals(claim.verdict, a, b, claim.structure)
        if isinstance(claim.check_id, str):
            rep.add(claim.check_id, claim.anchor, max_residual(residuals), bound, kind=kind)
        else:
            for one, res in zip(claim.check_id, residuals):
                rep.add(one, claim.anchor, res, bound, kind=kind)


def _lift_named(claims, fs: FockSpace, ms, lifted: dict) -> dict:
    """`lifted` completed by every family the claims name, each lifted on
    `fs` over the mode set `ms` (`operators.lift_family`)."""
    for claim in claims:
        for name in (claim.a, claim.b):
            if name is not None and name not in lifted:
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
    # first: its stacked lifts and residual pass then sit on top of none of
    # the grid's arrays (peak memory)
    residual = _lift_homomorphism_residual(config.dim_cap)
    rep.add("lift-homomorphism-random", "BCR1", residual, TIGHT_TOL)
    ms = config.grid or _default_grid()

    fs = _capped_grid_space(ms, (0, 1, 2, 3), config)
    spin = ops.lift_family(fs, "spin_total", ms)
    (ham,) = ops.lift_family(fs, "hamiltonian", ms)
    res = max_residual(max_abs(commutator(ham, s)) for s in spin)
    rep.add("hamiltonian-spin-commute", "H-mode-form", res, config.tol)
    vac = fs.vacuum()
    rep.add("hamiltonian-vacuum", "H-mode-form", abs(expectation(fs, ham, vac)), TIGHT_TOL)
    mode0 = ms.mode_labels()[0]
    omega, kvec = ms.omega[mode0], ms.ks[mode0]
    transverse, scalar = (fs.basis_state({(mode0, lam): 1}) for lam in (1, 0))
    res = _eigen_residual(ham, omega, transverse)
    rep.add("hamiltonian-transverse-eigenvalue", "H-mode-form", res, TIGHT_TOL)
    res = _eigen_residual(ham, -omega, scalar)
    rep.add("hamiltonian-scalar-eigenvalue", "H-mode-form", res, TIGHT_TOL)
    mom = ops.lift_family(fs, "momentum", ms)
    res = max_residual(
        _eigen_residual(p, sign * k, psi)
        for p, k in zip(mom, kvec)
        for psi, sign in ((transverse, 1), (scalar, -1))
    )
    rep.add("momentum-eigenvalues", "PM-planewave", res, TIGHT_TOL)

    _bcr_checks(rep, config)
    _metric_checks(rep, fs)

    claims = ops.CLAIMS[rep.suite]
    lifted = _orbital_families(rep, config, claims, {"spin_total": spin})
    _claim_checks(rep, claims, lifted, config.tol)
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


def _lift_homomorphism_residual(dim_cap: int) -> float:
    """L([M, N]_G) = [L(M), L(N)] on every pair of elementary forms E_ab.

    The lift and the G-bracket are complex bilinear, so the 16 E_ab over
    `_HOMOMORPHISM_CHANNELS` cover every form on those channels, whose signs
    (-, -, +, +) hold every sign pair; the pairs i < j cover the rest by
    antisymmetry, and i = j brackets to 0.  The space is n_max 3 capped at
    total occupation 2, the block below the product space's truncation edge,
    with multi-occupation rows.  Lifts conserve total occupation, so the
    block is invariant and each entry on it is the product-space entry: the
    residual is the product space's on the block, bit for bit.  The 16
    forms and the 54 nonzero ones of the 120 brackets are lifted in one
    stack, and the 120 residuals read in one `commutator_residuals` pass.
    """
    fs = build_fock(_HOMOMORPHISM_CHANNELS, 3, dim_cap=dim_cap, max_total=2)
    basis = np.eye(16).reshape(16, 4, 4)
    # the pairs i < j as a mask, not np.triu_indices: its ufunc.outer and
    # broadcast_to paths are numpy code the CLI runs nowhere else (64 KB more
    # resident library pages)
    first, second = (np.arange(16)[:, None] < np.arange(16)).nonzero()
    brackets = form_bracket(basis[first], basis[second], fs.signs)
    # a zero bracket lifts to no entries, which the residual reads as c None
    nonzero = brackets.any(axis=(1, 2))
    lifted = lift_forms(fs, np.concatenate([basis, brackets[nonzero]]))
    del brackets  # not held through the residual pass: peak memory
    rhs = iter(lifted[16:])
    triples = [
        (lifted[i], lifted[j], next(rhs) if bracketed else None)
        for i, j, bracketed in zip(first.tolist(), second.tolist(), nonzero.tolist())
    ]
    return max_residual(commutator_residuals(triples))


def _orbital_families(rep: VerificationReport, config: SuiteConfig, claims, lifted: dict) -> dict:
    """`lifted` completed by the shell families of canonical-commutators'
    `claims`: the orbital families per polarization sector on the `--shell`
    l_max (default 2), and with all four polarizations, next to the
    fixed-frame spin and the Hamiltonian, on the `--shell` l_max (default 1).
    Adds the orbital checks that are not claims."""
    shell2 = _orbital_shell(config, default_lmax=2)
    for lam, name in ((1, "oam_transverse"), (0, "oam_scalar")):
        lifted[name] = ops.lift_family(_shell_space(shell2, (lam,), config.dim_cap), name, shell2)

    shell1 = _orbital_shell(config)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    oam = _lift_named(claims, fs4, shell1, lifted)["oam_total"]
    for lam, check_id in ((1, "oam-z-transverse-eigenvalue"), (0, "oam-z-scalar-eigenvalue")):
        res = _eigen_residual(oam[2], 1, fs4.basis_state({((1, 1), lam): 1}))
        rep.add(check_id, "PWE-LM", res, TIGHT_TOL)
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
    res = max_residual(_eigen_residual(hel, h, _circular(fs, mode0, h * 1j)) for h in (1, -1))
    rep.add("helicity-circular-single", "helicity", res, TIGHT_TOL)
    if config.occupation_cap >= 2:
        cre = lambda lam: creator(fs, (mode0, lam))
        double = (cre(1) @ (cre(1) @ fs.vacuum())
                  + 2j * (cre(2) @ (cre(1) @ fs.vacuum()))
                  - (cre(2) @ (cre(2) @ fs.vacuum())))
        double = double / np.linalg.norm(double)
        res = _eigen_residual(hel, 2.0, double)
        rep.add("helicity-circular-double", "helicity", res, TIGHT_TOL)
    else:
        rep.note("helicity-circular-double skipped: the two-photon state needs n_max >= 2")
    linear = fs.basis_state({(mode0, 1): 1})
    rep.add("helicity-linear-expectation", "helicity", abs(expectation(fs, hel, linear)), TIGHT_TOL)
    sigma = ops.lift_family(fs, "stokes", ms)
    rep.add(
        "stokes-helicity-match",
        "Stokes",
        max_abs(sigma[1] - hel),
        TIGHT_TOL,
    )

    fs3 = _capped_grid_space(ms, (1, 2, 3), config)
    stot, sobs3 = (ops.lift_family(fs3, name, ms) for name in ("spin_total", "spin_obs"))
    circ3 = _circular(fs3, mode0)
    agree = max_residual(
        abs(expectation(fs3, stot[c], circ3) - expectation(fs3, sobs3[c], circ3))
        for c in range(3)
    )
    rep.add("spin-total-obs-agree-circular", "S-obs-form", agree, config.tol)

    shell1 = _orbital_shell(config)
    fs4 = _shell_space(shell1, (0, 1, 2, 3), config.dim_cap)
    claims = ops.CLAIMS[rep.suite]
    lifted = _lift_named(claims, fs4, shell1, {"spin_obs": sobs})
    _claim_checks(rep, claims, lifted, config.tol)
    longi = fs4.basis_state({((1, 1), 3): 1})
    res = max_residual(_eigen_residual(L, 0, longi) for L in lifted["oam_obs"])
    rep.add("oam-obs-longitudinal-zero", "L-obs-form", res, TIGHT_TOL)
    return rep.finalize()


# ---------------------------------------------------------------------------
# decomposition-compare


def stated_source(shell: SphericalShell) -> np.ndarray:
    """The prescribed shell source of decomposition-compare and gauge-hiding,
    indexed like the shell's labels: xi(0, 0) = xi(1, +-1) = 0.4 and
    xi(1, 0) = 0.4i, zero above l = 1.  It keeps the reality rule of a real
    charge density, xi(l, -m) = (-1)^(l+m) conj(xi(l, m))."""
    stated = {(0, 0): 0.4, (1, -1): 0.4, (1, 0): 0.4j, (1, 1): 0.4}
    return np.array([stated.get(label, 0.0) for label in shell.mode_labels()], dtype=complex)


def suite_decomposition(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("decomposition-compare", _config_echo(config))
    shell = _orbital_shell(config)
    fs = _shell_space(shell, (0, 1, 2, 3), config.dim_cap)
    gms = config.grid or _default_grid()
    stokes = ops.lift_family(_capped_grid_space(gms, (1, 2), config), "stokes", gms)
    claims = ops.CLAIMS[rep.suite]
    lifted = _lift_named(claims, fs, shell, {"stokes": stokes})

    xi = stated_source(shell)
    extra = [cons.xi_oam_bilinear(shell, fs, xi, lam) for lam in (1, 2)]
    lifted["oam_wak"] = tuple(a + b + c for a, b, c in zip(lifted["oam_wak"], *extra))
    rep.note(
        "wakamatsu orbital extra term realized through the prescribed-source"
        " pathway; stated source xi(0,0) = xi(1,+-1) = 0.4, xi(1,0) = 0.4i"
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

    _claim_checks(rep, claims, lifted, config.tol)
    return rep.finalize()


# ---------------------------------------------------------------------------
# gauge-hiding


def suite_gauge_hiding(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("gauge-hiding", _config_echo(config))
    shell = _orbital_shell(config)

    ms = config.grid or _default_grid()
    fs = _capped_grid_space(ms, (0, 1, 2, 3), config)
    kernel = cons.gb_physical_subspace(ms, fs)
    pair = build_fock([(_ONE_LABEL, 3), (_ONE_LABEL, 0)], 1, dim_cap=config.dim_cap)
    constraint = cons.gb_constraints(_ONE_MODE, pair)
    pair_kernel = cons.gb_physical_subspace(_ONE_MODE, pair)
    # the dimension and certificate checks also hold the grid kernel to its
    # closed-form count C(3K + n, n) and to its constraints
    monomials = math.comb(3 * len(ms.mode_labels()) + fs.max_total, fs.max_total)
    mismatch = abs(pair_kernel.dimension - 2) + abs(kernel.dimension - monomials)
    rep.add("gb-free-kernel-dimension", "Gupta1", mismatch, 0.0)
    gauge_vec = (creator(pair, (_ONE_LABEL, 3)) - creator(pair, (_ONE_LABEL, 0))) @ pair.vacuum()
    expected = np.stack([pair.vacuum(), gauge_vec / np.linalg.norm(gauge_vec)], axis=1)
    kept = np.flatnonzero(pair_kernel.column >= 0)
    sub = np.zeros((pair.dim, pair_kernel.dimension))
    sub[kept, pair_kernel.column[kept]] = pair_kernel.weight[kept]
    contents = max_abs(sub @ sub.conj().T - expected @ expected.conj().T)
    rep.add("gb-free-kernel-contents", "Gupta1", contents, 1e-10)
    certificate = max_residual([
        cons.gb_kernel_certificate(constraint, pair_kernel),
        cons.gb_kernel_certificate(cons.gb_constraints(ms, fs), kernel),
    ])
    rep.add("gb-kernel-certificate", "Gupta1", certificate, 1e-10)
    annihilated = float(np.linalg.norm(constraint[0] @ gauge_vec))
    rep.add("gb-gauge-pair-annihilated", "Gupta1", annihilated, TIGHT_TOL)
    longi_vec = creator(pair, (_ONE_LABEL, 3)) @ pair.vacuum()
    longi = float(np.linalg.norm(constraint[0] @ longi_vec))
    rep.add("gb-longitudinal-not-physical", "Gupta1", longi, 0.5, kind=KIND_VIOLATION)

    # lifts are linear in the form, so S - S_obs is lifted once, from its forms
    spin, spin_obs = (ops.family_matrices(fs.channels, n, ms) for n in ("spin_total", "spin_obs"))
    difference = lift_forms(fs, spin - spin_obs)
    asserted, mixed, skipped = cons.verify_gauge_hiding(fs, kernel, difference)
    rep.add("gauge-hiding-spin-representatives", "gauge-hiding", asserted, config.tol)
    rep.note(
        f"spin hiding on zero-norm-mixed states: largest kernel entry {mixed:.3e}"
        " (class-dependent, reported only)"
    )
    rep.note(f"zero-norm kernel columns left out of the asserted block: {skipped}")

    # every column by one sum over its rows; columns have disjoint rows, so
    # any combination of columns reads a weighted mean of these balances
    balance = cons.column_occupancy(fs, kernel, 3) - cons.column_occupancy(fs, kernel, 0)
    rep.add("free-energy-cancellation", "Gupta1", max_residual(np.abs(balance)), config.tol)

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

    residual = cons.xi_conjugate_residual(shell, stated_source(shell))
    rep.add("xi-conjugate-symmetry", "xi", residual, 1e-13)
    rep.note(_xi_pathway_note(shell))
    rep.add("xi-fourier-reality", "xi", _xi_fourier_residual(), 1e-12)
    return rep.finalize()


def _xi_pathway_note(shell) -> str:
    # coherent states with <a_3> = -t xi and <a_0> = (1 - t) xi solve the
    # displaced constraint a_3 - a_0 + xi exactly; xi = 1 over the labels
    # reads the identity on every xi at once
    xi = np.eye(len(shell))
    sides = [_xi_pathway_sides(shell, xi, -t * xi) for t in (0.0, 1.0, 0.3 + 0.7j)]
    worst = max_residual(max_abs(lhs - source - counter) for lhs, source, counter in sides)
    magnitude = max_residual(max_abs(lhs) for lhs, _, _ in sides)
    return (
        "xi pathway on the coherent states <a_3> = -t xi, t = 0, 1, 0.3+0.7i, every xi:"
        f" |<l_pure> - <source> - counterterm| = {worst:.3e},"
        f" |<l_pure>| up to {magnitude:.3e} (reported only)"
    )


def _xi_pathway_sides(shell, xi, beta3):
    """<l_pure>, <source> = -<xi_oam_bilinear(lam = 3)> and the counterterm
    -xi^dag L xi per component on the coherent states of a_3 - a_0 + xi with
    <a_3> = beta3, <a_0> = beta3 + xi; xi and beta3 diagonal over the labels
    give the matrices of these Hermitian forms in the label coordinates.
    Every eta-moment factorizes, <c_a a_b> = conj(beta_a) beta_b (Glauber
    1963), so <lift(M)> = beta^dag M beta on the (label, lam = 0, 3) channels."""
    beta = np.empty((2 * len(xi), xi.shape[1]), dtype=complex)
    beta[0::2], beta[1::2] = beta3 + xi, beta3
    chans = [(c, lam) for c in shell.mode_labels() for lam in (0, 3)]
    lhs = beta.conj().T @ ops.family_matrices(chans, "l_pure", shell) @ beta
    coefficients = cons.xi_source_coefficients(shell, xi)
    source = np.array([-(row @ beta3 + beta3.conj().T @ col) for row, col in coefficients])
    return lhs, source, np.array([-row @ xi for row, _ in coefficients])


def _xi_fourier_residual() -> float:
    """`xi0_from_charge` of rho = cos(k0.x) + sin(k1.x) on the centered grid
    against its closed form P(omega) L^3 (1/2 at +-k0, -+i/2 at +-k1), with
    P = 1 / (omega^1.5 sqrt(2 (2 pi)^3)), and its -k reality residual."""
    length, n = 2.0 * np.pi, 8
    lattice = flds.FieldLattice(length, n, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, -1)])
    ms = lattice.grid
    axis = -length / 2.0 + np.arange(n) * (length / n)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = np.cos(x @ ms.ks[0]) + np.sin(x @ ms.ks[2])
    xi = cons.xi0_from_charge(lattice, rho)
    prefactor = 1.0 / (ms.omega ** 1.5 * math.sqrt(2.0 * (2.0 * math.pi) ** 3))
    expected = np.array([0.5, 0.5, -0.5j, 0.5j]) * prefactor * length ** 3
    return max_residual([max_abs(xi - expected), cons.xi_conjugate_residual(ms, xi)])


# ---------------------------------------------------------------------------
# counter-rotating


def suite_counter_rotating(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("counter-rotating", _config_echo(config))
    ms = config.grid or _generic_grid()

    spin = ops.counter_rotating_part(ms, "spin")
    rep.add("cr-spin-vanishes", "CR-spin", max_abs(spin), TIGHT_TOL)
    momentum = ops.counter_rotating_part(ms, "momentum")
    rep.add("cr-momentum-vanishes", "PM-planewave", max_abs(momentum), TIGHT_TOL)
    term1, term2 = ops.l_pure_s_terms(ms)
    rep.add("lpure-s-sum-vanishes", "L-pure-S", max_abs(term1 + term2), TIGHT_TOL)
    rep.add(
        "lpure-s-terms-nonzero",
        "L-pure-S",
        # np.min, unlike min(), keeps a NaN from either term
        float(np.min([max_abs(term1), max_abs(term2)])),
        1e-6,
        kind=KIND_VIOLATION,
    )
    return rep.finalize()


# ---------------------------------------------------------------------------
# field-consistency


def _coordinate_states(modes: int) -> np.ndarray:
    """One (K, 4) state per real coordinate of the transverse amplitudes:
    amplitude 1 or i on one (mode, lam = 1 or 2) slot, zero elsewhere."""
    states = np.zeros((modes, 2, 2, modes, 4), dtype=complex)
    for k in range(modes):
        for lam in (1, 2):
            states[k, lam - 1, :, k, lam] = (1.0, 1j)
    return states.reshape(-1, modes, 4)


def _coordinates(amps: np.ndarray) -> np.ndarray:
    """The real coordinates of the transverse amplitudes of `amps` (K, 4) in
    `_coordinate_states` order: Re and Im of alpha on (k, lam = 1, 2)."""
    return np.stack([amps[:, 1:3].real, amps[:, 1:3].imag], axis=-1).ravel()


def suite_fields(config: SuiteConfig) -> VerificationReport:
    rep = VerificationReport("field-consistency", _config_echo(config))
    # wave vectors 2 pi n / L = n on the box L = 2 pi, read on the band-limit
    # lattice, the smallest whose quadratures are exact
    n_ints = np.array([(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)])
    grid_n = 2 * int(np.max(np.abs(n_ints))) + 1
    lattice = flds.FieldLattice(2.0 * np.pi, grid_n, n_ints)
    volume = flds.cell_volume(lattice)

    # both sides are real quadratic forms in the 24 real coordinates of the
    # transverse amplitudes, so their matrices on the coordinate states decide
    # the identities on every transverse state
    states = _coordinate_states(len(n_ints))
    maps = [flds.eval_fields(lattice, psi) for psi in states]
    e, b, a = (np.stack([getattr(m, f).T for m in maps], axis=1) for f in ("e", "b", "a"))
    # products[i, j] = sum_x E_i(x) A_j(x) per pair of states
    products = e[:, None] @ a.transpose(0, 2, 1)
    spin = np.empty((3, len(states), len(states)))
    for i, j, k in EPS_PAIRS:
        spin[k] = products[i, j] - products[j, i]
    spin = 0.5 * volume * (spin + spin.transpose(0, 2, 1))
    spin_modes = flds.form_gram(lattice, states, "spin_obs")
    rep.add("spin-mode-duality", "S-obs-form", max_abs(spin - spin_modes), FIELD_TOL)
    # per state, E and B over the grid as one vector
    stacked = np.concatenate([e, b]).transpose(1, 0, 2).reshape(len(states), -1)
    energy = 0.5 * volume * (stacked @ stacked.T)
    (energy_modes,) = flds.form_gram(lattice, states, "hamiltonian")
    rep.add("parseval-energy", "E-planewave", max_abs(energy - energy_modes), FIELD_TOL)

    # a stated state of unit modulus, phase k lam on slot (k, lam): every slot
    # set, and its transverse part carries spin in every component
    stated = np.exp(1j * np.arange(len(n_ints))[:, None] * np.arange(4))
    maps = flds.eval_fields(lattice, stated)
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
    cancel = np.zeros((len(lattice.grid), 4), dtype=complex)
    cancel[0, [0, 3]] = 0.7 + 0.2j
    rep.add(
        "longitudinal-e-cancellation",
        "E-planewave",
        float(np.max(np.abs(flds.eval_fields(lattice, cancel).e))),
        TIGHT_TOL,
    )

    amps = stated * np.isin(np.arange(4), (1, 2))  # the transverse part
    total = flds.spatial_spin_integral(lattice, flds.eval_fields(lattice, amps))
    # its mode side is the spin Gram read on its coordinates
    coords = _coordinates(amps)
    residual = max_abs(total - (spin_modes * (coords[:, None] * coords)).sum(axis=(1, 2)))
    rep.add("density-map-integral", "S-obs-form", residual, TIGHT_TOL)
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
    eye4 = np.eye(4)
    invariants = [max_abs(ops.BETA @ ops.BETA - eye4)]
    for i in range(3):
        for j in range(3):
            anti = ops.ALPHA[i] @ ops.ALPHA[j] + ops.ALPHA[j] @ ops.ALPHA[i]
            invariants.append(max_abs(anti - 2.0 * (i == j) * eye4))
    rep.add("spinor-invariants", "Dirac-matrices", max_residual(invariants), 1e-14)
    # Sigma_z = diag(sigma_3, sigma_3) on the four spinor basis vectors
    res = max_residual(_eigen_residual(ops.SIGMA[2], v, psi) for v, psi in zip((1, -1, 1, -1), eye4))
    rep.add("spinor-sigma-z-eigenvalues", "Dirac-matrices", res, 1e-14)

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
    claims = ops.CLAIMS[rep.suite]
    lifted = _lift_named(claims, ffs, shell, {})
    _claim_checks(rep, claims, lifted, config.tol)

    one = ffs.basis_state({((0, 0), 0): 1})
    res = _eigen_residual(lifted["dirac_sam"][2], 0.5, one)
    rep.add("dirac-spin-half-eigenvalue", "S_D", res, 1e-14)

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

    res = _eigen_residual(hel, 1, _circular(photon, "k"))
    rep.add("helicity-unit-eigenvalue", "helicity", res, 1e-14)
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
    """Run the configured suite; deterministic for a fixed config, and no
    check reads its seed."""
    config.validate()
    if config.suite == "all":
        parts = [SUITES[name](config) for name in sorted(SUITES)]
        for part in parts:
            for flag in config.unread_flags(part.suite):
                part.note(f"{flag} ignored: this suite does not read it")
        return merge_reports("all", _config_echo(config), parts)
    return SUITES[config.suite](config)
