"""Photon observables as quadratic forms over channels plus their Fock lifts.

Two labelings are used:

* grid labeling: channels (mode_index, lam) over a CartesianGrid, whose
  arrays omega, ks and frames give the per-mode weights, with
  frame-projected spin operators (block-diagonal per mode);
* combined labeling: channels ((l, m), lam) over a SphericalShell, with the
  orbital generators acting on (l, m) and fixed-frame polarization matrices
  acting on lam.  Joint spin/orbital checks run here.

Channel-sign bookkeeping: a one-photon state in channel a picks up the action
(G M) from the lift of M, where G = diag(channel signs).  Operator weights
below are chosen so that the lifted family satisfies its algebra exactly on
the occupation-bounded subspace and a transverse photon in orbital channel
(l=1, m=+1) has L_z = +1.

The orbital weight per polarization is (-1, +1, +1, +1) for lam = (0, 1, 2,
3): the scalar channel enters with opposite weight, which combines with its
flipped commutator sign to give every one-photon sector the same orbital
action.  The Hamiltonian and momentum lift the identity weight across all
four polarizations, which yields eigenvalue -omega (resp. -k) per scalar
photon and +omega per transverse or longitudinal photon.

Every family is stated once, under one name in the one table `FORMS`, in
one term format: per term a label factor and, per component, a matrix over
the second channel index (the polarization, or the spinor index on a Dirac
space); the terms are summed.  The label factor is the shell's orbital
generator of the component, the identity on the labels, or a per-mode
diagonal weight: omega, the wave-vector component k_c, or the frame
component eps_lam[c].  The table holds the grid families, the shell
families (orbital, fixed-frame spin and the rival decompositions) and the
Dirac families of Table I.  One builder, `family_matrices`, reads a family
by name; it refuses a factor the mode set cannot supply (an orbital
generator on a grid, a wave vector or a frame on a shell, any per-mode
weight without a mode set) and a channel the space lacks with
ChannelMismatch.  `lift_family(fs, name, ms)` is the one
way to lift a family, and `fields.form_gram` contracts the same matrices
with classical amplitudes.

`CLAIMS` is the one statement of every algebra claim the suites check: per
suite its claims (`Claim`), each one reported check under its literal ID,
with an anchor, a verdict and one or two `FORMS` families: a family alone
closes su(2), commutes or violates su(2); a pair commutes, fails to commute,
or the first closes into the second.  The suites lift the named families and
`suites._claim_checks` emits one check per claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DimensionCapExceeded
from .fock import DEFAULT_DIM_CAP, FockSpace, OperatorMatrix, _products, lift_forms
from .modes import (
    CartesianGrid,
    ModeSet,
    SphericalShell,
    cross,
    frame_curl,
    minkowski_dot,
    orbital_matrices,
    spin_matrices,
)

ALG_SU2 = "su2"
ALG_COMMUTING = "commuting"
ALG_NONSTANDARD = "nonstandard"
MUTUAL_COMMUTE = "commute"
MUTUAL_NONCOMMUTING = "noncommuting"
CLOSES_INTO = "closes-into"

# The identity and the Pauli matrices sigma_1..3: the Stokes forms on the
# (lam = 1, lam = 2) block, and the blocks of the Dirac matrices.
PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
# The Dirac matrices in the Dirac representation, read-only: beta = diag(1, -1)
# on 2x2 blocks, alpha_i = sigma_i off the diagonal and Sigma_i = sigma_i on it.
BETA = np.kron(PAULI[3], PAULI[0])
ALPHA = tuple(np.kron(PAULI[1], PAULI[i]) for i in (1, 2, 3))
SIGMA = tuple(np.kron(PAULI[0], PAULI[i]) for i in (1, 2, 3))
for _mat in (BETA, *ALPHA, *SIGMA):
    _mat.setflags(write=False)


# ---------------------------------------------------------------------------
# The term format and its one builder

# Label factor of a family term: the orbital generator of the component, the
# identity on the labels, or a per-mode diagonal weight: omega, k_c, or
# eps_lam[c] under the key (_EPS, lam).
_GEN, _ONE, _OMEGA, _K, _EPS = "generator", "identity", "omega", "k", "eps"


def _label_factors(key, ms: ModeSet | None, n_labels: int, n_comp: int):
    """The label factor of a term per component, as (labels x labels) matrices."""
    if key == _ONE:
        return (np.eye(n_labels),) * n_comp
    if key == _GEN:
        if not isinstance(ms, SphericalShell):
            raise ChannelMismatch("orbital operators need a spherical shell mode set")
        return orbital_matrices(ms.l_max)
    if ms is None:
        raise ChannelMismatch(f"{key} weights need a mode set")
    if isinstance(ms, SphericalShell):
        if key != _OMEGA:
            raise ChannelMismatch(f"{key} weights need a Cartesian grid mode set")
        # every label of a shell has omega = |k|, its radius
        return (np.diag(np.full(n_labels, ms.radius)),) * n_comp
    if key == _OMEGA:
        return (np.diag(ms.omega),) * n_comp
    if key == _K:
        return tuple(np.diag(ms.ks[:, c]) for c in range(n_comp))
    return tuple(np.diag(ms.frames[:, key[1], 1 + c]) for c in range(n_comp))


def family_matrices(channels, name: str, ms: ModeSet | None = None) -> np.ndarray:
    """Channel matrices of the family `FORMS[name]`, one per component, as
    one (components x channels x channels) array.

    `channels` are (label, index) pairs.  Each term adds its label factor
    times its matrix over the second index, entry by entry in term order:
    one lookup table maps (label, index) to a channel, and each term is
    added to every component with one fancy-indexed `+=` (its entries are
    distinct), every product formed as `fock._products` does.  The labels
    are the mode set's, or without one those of the channels, where only
    identity factors occur.  ChannelMismatch if a factor needs a mode set of
    another kind, or one where none is given, or a needed channel is absent
    (the first one in term, component and row-major entry order), and
    DimensionCapExceeded before allocating one of over DEFAULT_DIM_CAP
    entries.
    """
    terms = FORMS[name]
    n_ch = len(channels)
    if n_ch * n_ch > DEFAULT_DIM_CAP:
        raise DimensionCapExceeded(f"{n_ch} x {n_ch} forms exceed cap {DEFAULT_DIM_CAP} entries")
    if ms is None:
        labels = tuple(dict.fromkeys(label for label, _ in channels))
    else:
        labels = ms.mode_labels()
    position = {label: i for i, label in enumerate(labels)}
    width = max(len(lams[0]) for _, lams in terms)
    table = np.full((len(labels), width), -1, dtype=np.intp)
    for index, (label, second) in enumerate(channels):
        if label in position and 0 <= second < width:
            table[position[label], second] = index
    n_comp = len(terms[0][1])
    out = np.zeros((n_comp, n_ch, n_ch), dtype=complex)
    for key, lams in terms:
        orb = np.asarray(_label_factors(key, ms, len(labels), n_comp), dtype=complex)
        lam = np.asarray(lams, dtype=complex)
        # every (component, label pair, index pair) with both factors nonzero,
        # in component, row-major label and row-major index order
        both = (orb != 0)[:, :, :, None, None] & (lam != 0)[:, None, None]
        c, ci, di, l1, l2 = both.nonzero()
        a, b = table[ci, l1], table[di, l2]
        missing = np.minimum(a, b) < 0
        if missing.any():
            p = missing.argmax()
            label, second = (ci[p], l1[p]) if a[p] < 0 else (di[p], l2[p])
            raise ChannelMismatch(f"channel {(labels[label], int(second))!r} not in space")
        values = np.empty(c.size, dtype=complex)
        values.real, values.imag = _products(orb[c, ci, di], lam[c, l1, l2])
        out[c, a, b] += values
    return out


def lift_family(fs: FockSpace, name: str, ms: ModeSet | None = None) -> tuple[OperatorMatrix, ...]:
    """Lifted components of the family `FORMS[name]`: grid, shell or Dirac,
    on the space's channels (`family_matrices`).  A channel the space lacks
    raises ChannelMismatch; one the family does not touch lifts as zero.
    The components are lifted as one stack (`fock.lift_forms`)."""
    return lift_forms(fs, family_matrices(fs.channels, name, ms))


# ---------------------------------------------------------------------------
# Counter-rotating weights and the pure-gauge spin cancellation


def counter_rotating_part(ms: CartesianGrid, target: str) -> np.ndarray:
    """Weights of the a.a and creator.creator terms of the target's mode
    expansion, shape (K, L, L, 3): per mode k and polarization pair (l1, l2),
    over lam = 1, 2, 3 for the spin and 0..3 for the momentum, the weight of
    a_(k,l1) a_(-k,l2) plus that of a_(-k,l2) a_(k,l1).

    On a space of one quantum per channel and total occupation <= 2 every
    ladder factor is 1: that sum is the operator's one entry between the
    vacuum and the pair's two-photon state, and the creator pair gives the
    transposed entry up to sign, so the largest weight is the largest entry.
    On a negation-closed grid every weight is zero: the spin weights
    0.5i eps(k) x eps(-k) are antisymmetric under exchanging the pair
    members, and the momentum weights k * (four-vector inner product) flip
    sign with k while the inner product is symmetric.
    """
    if target not in ("spin", "momentum"):
        raise ChannelMismatch(f"unknown counter-rotating target {target!r}")
    neg = list(ms.negation)
    if target == "spin":
        # (component, mode, lam) triads of the pair members, lam = 1, 2, 3
        here = np.moveaxis(ms.frames[:, 1:, 1:], -1, 0)
        there = here[:, neg]
        w = 0.5j * np.stack(cross(here[:, :, :, None], there[:, :, None, :]), axis=-1)
    else:
        pairs = zip(ms.frames, ms.frames[neg])
        dots = [[[minkowski_dot(a, b) for b in there] for a in here] for here, there in pairs]
        w = 0.5 * np.array(dots)[..., None] * ms.ks[:, None, None, :]
    return w + w[neg].swapaxes(1, 2)


def l_pure_s_terms(ms: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """The divergence piece and the advection piece of the pure-gauge spin,
    as weights of shape (K, 2, 2, 3): +-0.5i times one mode-space bracket.

    Per mode k and lam = 1, 2 the bracket weighs creator_3 a_lam -
    a_3 creator_lam by |k| curl eps(k, lam) (at [k, 0, lam - 1]) and the
    +-k cross pair a_3 a_lam(-k) - creator_3 creator_lam(-k) by
    |k| curl eps(-k, lam) (at [k, 1, lam - 1]): the curl of the frame field
    evaluated through -k is minus the curl at -k, and it weighs
    creator_3 creator_lam(-k) - a_3 a_lam(-k).  Each term owns its entries,
    so the largest weight is the bracket's largest entry.  Each piece is
    generically nonzero while their sum vanishes identically.
    """
    curl = np.array([[frame_curl(k, lam) for lam in (1, 2)] for k in ms.ks])
    bracket = ms.omega[:, None, None, None] * np.stack([curl, curl[list(ms.negation)]], axis=1)
    return 0.5j * bracket, -0.5j * bracket


# ---------------------------------------------------------------------------
# Family forms


def _on(lams, mat: np.ndarray) -> np.ndarray:
    """`mat` over the polarizations `lams`, zero elsewhere on lam = 0..3."""
    out = np.zeros((4, 4), dtype=complex)
    out[np.ix_(lams, lams)] = mat
    return out


_TRANSVERSE, _SPATIAL = (1, 2), (1, 2, 3)


def _lambda_canonical() -> list[np.ndarray]:
    return [_on(_SPATIAL, s) for s in spin_matrices()]


def _lambda_spin_obs() -> list[np.ndarray]:
    zero = np.zeros((4, 4), dtype=complex)
    return [zero, zero, _on(_TRANSVERSE, PAULI[2])]


def _lambda_mixing(longitudinal: float) -> list[np.ndarray]:
    """Spin forms of the rival decompositions: the lam = 3 rotation entries
    weigh `longitudinal` (1 for Jaffe-Manohar, 1/2 for Chen and Wakamatsu)."""
    mx = np.zeros((4, 4), dtype=complex)
    mx[3, 2], mx[0, 2], mx[2, 3], mx[2, 0] = longitudinal * 1j, -0.5j, -longitudinal * 1j, 0.5j
    my = np.zeros((4, 4), dtype=complex)
    my[1, 3], my[1, 0], my[3, 1], my[0, 1] = longitudinal * 1j, -0.5j, -longitudinal * 1j, 0.5j
    mz = np.zeros((4, 4), dtype=complex)
    mz[2, 1], mz[1, 2] = 1j, -1j
    return [mx, my, mz]


def _oam_weight_jm() -> np.ndarray:
    w = np.zeros((4, 4), dtype=complex)
    w[1, 1] = w[2, 2] = w[3, 3] = 1.0
    w[0, 3] = w[3, 0] = -0.5
    return w


def _bj_coupling() -> np.ndarray:
    """Couples the transverse channels to the constraint combination a3 - a0."""
    k = np.zeros((4, 4), dtype=complex)
    for lam in (1, 2):
        k[lam, 0] = k[0, lam] = -0.5
        k[lam, 3] = k[3, lam] = 0.5
    return k


def _diag_weight(weights: dict[int, float]) -> np.ndarray:
    w = np.zeros((4, 4), dtype=complex)
    for lam, val in weights.items():
        w[lam, lam] = val
    return w


def _orbital(weight: np.ndarray):
    return ((_GEN, (weight,) * 3),)


def _spin(lams: list[np.ndarray]):
    return ((_ONE, lams),)


# Every family under its one name: its terms (label factor, matrix over the
# second channel index per component), summed per component.
#
# Grid families, on (mode_index, lam) channels: the Hamiltonian and momentum
# weight the identity on lam = 0..3 by omega and k_c; spin_total sums the
# rotation generators on lam = 1, 2, 3 weighted by the frame components
# eps_lam[c]; spin_obs weights the transverse helicity matrix by the
# propagation direction eps_3[c].  helicity and the Stokes forms Sigma_1..3
# carry identity factors, so on a space without a mode set they are summed
# over the space's labels.  Sigma_0 commutes with every Stokes form and no
# check reads it.
#
# Shell families, on ((l, m), lam) channels: the orbital generators weighted
# per polarization (oam_total = oam_obs + l_pure entry by entry, and the one-
# sector forms oam_transverse and oam_scalar), the fixed-frame spins, and the
# decompositions of Leader & Lorce, Phys. Rep. 541, 163 (2014).  j_obs and
# Belinfante-Ji's j_total do not separate spin and orbital parts, so each is
# one family with two terms.
#
# Dirac families of the paper's Table I, on ((l, m), spinor) channels with
# the spinor index in place of the polarization: Sigma/2 (x) 1, with Sigma_i
# the Pauli matrix on both 2x2 blocks, and L (x) 1_4.
_OAM_OBS = _orbital(_diag_weight({1: 1.0, 2: 1.0}))
_SPIN_OBS_FIXED = _spin(_lambda_spin_obs())
FORMS = {
    "hamiltonian": ((_OMEGA, (np.eye(4),)),),
    "momentum": ((_K, (np.eye(4),) * 3),),
    "spin_total": tuple(
        ((_EPS, lam), (_on(_SPATIAL, shat),) * 3) for lam, shat in zip(_SPATIAL, spin_matrices())
    ),
    "spin_obs": (((_EPS, 3), (_on(_TRANSVERSE, PAULI[2]),) * 3),),
    "helicity": ((_ONE, (_on(_TRANSVERSE, PAULI[2]),)),),
    "stokes": ((_ONE, tuple(_on(_TRANSVERSE, PAULI[i]) for i in (1, 2, 3))),),
    "oam_total": _orbital(_diag_weight({0: -1.0, 1: 1.0, 2: 1.0, 3: 1.0})),
    "oam_transverse": _orbital(_diag_weight({1: 1.0})),
    "oam_scalar": _orbital(_diag_weight({0: -1.0})),
    "oam_obs": _OAM_OBS,
    "l_pure": _orbital(_diag_weight({0: -1.0, 3: 1.0})),
    "spin_fixed_frame": _spin(_lambda_canonical()),
    "spin_obs_fixed_frame": _SPIN_OBS_FIXED,
    "j_obs": _OAM_OBS + _SPIN_OBS_FIXED,
    "spin_jm": _spin(_lambda_mixing(1.0)),
    "oam_jm": _orbital(_oam_weight_jm()),
    "spin_chen": _spin(_lambda_mixing(0.5)),
    "oam_chen": _OAM_OBS,
    "spin_wak": _spin(_lambda_mixing(0.5)),
    # the prescribed-source extra term attaches via the constraints pathway
    "oam_wak": _OAM_OBS,
    "j_total": _orbital(_diag_weight({1: 1.0, 2: 1.0}) + _bj_coupling()) + _SPIN_OBS_FIXED,
    "dirac_sam": _spin([0.5 * s for s in SIGMA]),
    "dirac_oam": _orbital(np.eye(4)),
}


# ---------------------------------------------------------------------------
# The claims table


@dataclass(frozen=True)
class Claim:
    """One reported check: what is claimed of the `FORMS` family `a`, alone
    or with the family `b`, under its literal check ID.

    `verdict` is ALG_SU2, ALG_COMMUTING or ALG_NONSTANDARD (su(2)-violating)
    of `a` alone, or of `a` to `b`: MUTUAL_COMMUTE or MUTUAL_NONCOMMUTING
    over every pair of components, or CLOSES_INTO, [A_i, A_j] = i B_k.  A
    triple `check_id` reports one check per bracket (xy, yz, zx).
    `structure` is c in the claimed [A_i, A_j] = i c A_k; a `tight` claim
    bounds its equality at the suites' tight tolerance, not the run's.
    """

    check_id: str | tuple[str, str, str]
    anchor: str
    verdict: str
    a: str
    b: str | None = None
    structure: int = 1
    tight: bool = False


# Every algebra claim of the suites, keyed by suite; a suite lifts the
# `FORMS` families its claims name and one emitter turns each claim into a
# check.  decomposition-compare states the decompositions of Leader & Lorce,
# Phys. Rep. 541, 163 (2014) (canonical, gauge-invariant, Jaffe-Manohar,
# Chen, Wakamatsu, Belinfante-Ji) and the Stokes closure; dirac states the
# paper's Table I with the claims of the canonical photon decomposition.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "canonical-commutators": (
        Claim(("spin-su2-xy", "spin-su2-yz", "spin-su2-zx"), "MCR1", ALG_SU2, "spin_total"),
        Claim("oam-su2-transverse-sector", "MCR2", ALG_SU2, "oam_transverse"),
        Claim("oam-su2-scalar-sector", "MCR2", ALG_SU2, "oam_scalar"),
        Claim("oam-su2-all-polarizations", "MCR2", ALG_SU2, "oam_total"),
        Claim("oam-spin-commute", "MCR3", MUTUAL_COMMUTE, "oam_total", "spin_fixed_frame"),
        Claim("hamiltonian-oam-commute", "H-mode-form", MUTUAL_COMMUTE, "hamiltonian", "oam_total"),
    ),
    "observable-commutators": (
        Claim("spin-obs-commuting", "Table-II", ALG_COMMUTING, "spin_obs"),
        Claim("oam-obs-su2", "L-obs", ALG_SU2, "oam_obs"),
        Claim(
            "spin-obs-oam-obs-commute", "Table-II", MUTUAL_COMMUTE,
            "oam_obs", "spin_obs_fixed_frame",
        ),
        Claim("j-obs-not-su2", "J-obs", ALG_NONSTANDARD, "j_obs"),
        Claim("j-obs-closes-into-oam-obs", "J-obs", CLOSES_INTO, "j_obs", "oam_obs"),
    ),
    "decomposition-compare": (
        Claim("canonical-spin-su2", "Table-III", ALG_SU2, "spin_fixed_frame"),
        Claim("canonical-oam-su2", "Table-III", ALG_SU2, "oam_total"),
        Claim(
            "canonical-mutual-commute", "Table-III", MUTUAL_COMMUTE,
            "spin_fixed_frame", "oam_total",
        ),
        Claim("gauge-invariant-spin-obs-commuting", "Table-II", ALG_COMMUTING, "spin_obs_fixed_frame"),
        Claim("gauge-invariant-oam-obs-su2", "Table-II", ALG_SU2, "oam_obs"),
        Claim("jaffe-manohar-spin-violation", "Table-III", ALG_NONSTANDARD, "spin_jm"),
        Claim("jaffe-manohar-oam-violation", "Table-III", ALG_NONSTANDARD, "oam_jm"),
        Claim("chen-spin-violation", "Table-III", ALG_NONSTANDARD, "spin_chen"),
        Claim("chen-oam-su2", "Table-III", ALG_SU2, "oam_chen"),
        Claim("chen-mutual-noncommuting", "Table-III", MUTUAL_NONCOMMUTING, "spin_chen", "oam_chen"),
        Claim("wakamatsu-spin-violation", "Table-III", ALG_NONSTANDARD, "spin_wak"),
        # oam_wak has no claim of its own: the bare lift is Chen's orbital
        # form and closes su(2), and the extra term of the stated
        # prescribed source (`suites.stated_source`) breaks su(2) by 0.226
        # at every l_max 1-8, a value set by that source, not by the
        # decomposition.  Its claim is asserted through the mutual relation.
        Claim(
            "wakamatsu-mutual-noncommuting", "Table-III", MUTUAL_NONCOMMUTING,
            "spin_wak", "oam_wak",
        ),
        Claim("belinfante-ji-j-violation", "JM-BJ", ALG_NONSTANDARD, "j_total"),
        Claim("stokes-factor-2", "Stokes", ALG_SU2, "stokes", structure=2, tight=True),
    ),
    "dirac": (
        Claim("dirac-sam-su2", "Table-I", ALG_SU2, "dirac_sam", tight=True),
        Claim("dirac-oam-su2", "Table-I", ALG_SU2, "dirac_oam", tight=True),
        Claim("dirac-sam-oam-commute", "Table-I", MUTUAL_COMMUTE, "dirac_sam", "dirac_oam", tight=True),
    ),
}
