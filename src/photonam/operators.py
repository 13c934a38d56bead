"""Photon observables as quadratic forms over channels plus their Fock lifts.

Two labelings are used:

* grid labeling: channels (mode_index, lam) over a CartesianGrid, with
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

`DECOMPOSITIONS` is the one statement of the decomposition claims: per
decomposition its anchor, its families in build order with their check-ID
tags and claimed algebras, and the claimed relation between its spin and
orbital families.  `TABLE_I` states the Dirac claims in the same form.
`FAMILY_FORMS` gives the quadratic forms of every family named in the
table; `build_decomposition` builds them and states no claims.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGrid, ChannelMismatch, UnknownDecomposition
from .fock import (
    FockSpace,
    OperatorMatrix,
    QuadraticForm,
    _CSR,
    annihilator,
    creator,
    lift_bilinear,
)
from .modes import (
    CartesianGrid,
    ModeSet,
    SphericalShell,
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

# Orbital weight per polarization channel, lam = 0..3.
OAM_WEIGHTS = {0: -1.0, 1: 1.0, 2: 1.0, 3: 1.0}
OAM_OBS_WEIGHTS = {1: 1.0, 2: 1.0}
L_PURE_WEIGHTS = {0: -1.0, 3: 1.0}

_HEL2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_PAULI2 = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: _HEL2,
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _zero_form(fs: FockSpace) -> np.ndarray:
    return np.zeros((len(fs.channels), len(fs.channels)), dtype=complex)


def _form(fs: FockSpace, matrix: np.ndarray) -> QuadraticForm:
    return QuadraticForm(matrix, fs.signs)


def _add_block(fs: FockSpace, out: np.ndarray, labels, block: np.ndarray) -> None:
    """Accumulate a small block over the given channel labels into `out`."""
    try:
        idx = [fs.index_of(ch) for ch in labels]
    except Exception as exc:
        raise ChannelMismatch(str(exc)) from None
    out[np.ix_(idx, idx)] += block


def _require_full_polarizations(ms: ModeSet, fs: FockSpace) -> None:
    wanted = {(label, lam) for label in ms.mode_labels() for lam in range(4)}
    if set(fs.channels) != wanted:
        raise ChannelMismatch(
            "space must carry exactly the mode set's channels for all four"
            " polarizations"
        )


def hamiltonian(ms: ModeSet, fs: FockSpace) -> OperatorMatrix:
    """Free-field energy: +omega per transverse/longitudinal photon, -omega per
    scalar photon, 0 on the vacuum."""
    _require_full_polarizations(ms, fs)
    diag = np.array([ms.omega(label) for (label, lam) in fs.channels], dtype=complex)
    return lift_bilinear(fs, _form(fs, np.diag(diag)))


def momentum(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Field momentum; k per photon, -k per scalar photon, componentwise."""
    if not isinstance(ms, CartesianGrid):
        raise ChannelMismatch("momentum needs a Cartesian grid mode set")
    _require_full_polarizations(ms, fs)
    out = []
    for comp in range(3):
        diag = np.array(
            [ms.modes[label].components[comp] for (label, lam) in fs.channels],
            dtype=complex,
        )
        out.append(lift_bilinear(fs, _form(fs, np.diag(diag))))
    return tuple(out)


def spin_total(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Full photon spin: per-mode rotation generators projected on the frame.

    Acts on the lam = 1, 2, 3 channels of each mode; scalar channels are
    absent from the sum.
    """
    if not isinstance(ms, CartesianGrid):
        raise ChannelMismatch("spin_total needs a Cartesian grid mode set")
    shat = spin_matrices()
    out = []
    for comp in range(3):
        m = _zero_form(fs)
        for i in ms.mode_labels():
            frame = ms.frames[i]
            block = sum(
                shat[lam - 1] * frame.spatial(lam)[comp] for lam in (1, 2, 3)
            )
            _add_block(fs, m, [(i, 1), (i, 2), (i, 3)], block)
        out.append(lift_bilinear(fs, _form(fs, m)))
    return tuple(out)


def spin_obs(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Transverse-sector spin: helicity density weighted by the propagation
    direction, componentwise."""
    if not isinstance(ms, CartesianGrid):
        raise ChannelMismatch("spin_obs needs a Cartesian grid mode set")
    out = []
    for comp in range(3):
        m = _zero_form(fs)
        for i in ms.mode_labels():
            weight = ms.frames[i].spatial(3)[comp]
            _add_block(fs, m, [(i, 1), (i, 2)], weight * _HEL2)
        out.append(lift_bilinear(fs, _form(fs, m)))
    return tuple(out)


def helicity(ms: CartesianGrid, fs: FockSpace) -> OperatorMatrix:
    """Spin projection on the propagation direction; +-1 per circular photon."""
    if not isinstance(ms, CartesianGrid):
        raise ChannelMismatch("helicity needs a Cartesian grid mode set")
    m = _zero_form(fs)
    for i in ms.mode_labels():
        _add_block(fs, m, [(i, 1), (i, 2)], _HEL2)
    return lift_bilinear(fs, _form(fs, m))


def stokes_operators(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """The four transverse-sector Stokes bilinears Sigma_0..Sigma_3.

    Their commutators close with an extra factor 2 relative to a spin-1
    family; Sigma_2 coincides with the helicity operator as a matrix.
    """
    if not isinstance(ms, CartesianGrid):
        raise ChannelMismatch("stokes_operators need a Cartesian grid mode set")
    out = []
    for idx in range(4):
        m = _zero_form(fs)
        for i in ms.mode_labels():
            _add_block(fs, m, [(i, 1), (i, 2)], _PAULI2[idx])
        out.append(lift_bilinear(fs, _form(fs, m)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Shell / combined-labeling operators


def _orbital_index(ms: SphericalShell) -> dict:
    return {c: i for i, c in enumerate(ms.channels)}


def combined_form(
    ms: SphericalShell, fs: FockSpace, orbital: np.ndarray, lam_matrix: np.ndarray
) -> QuadraticForm:
    """Form for (orbital generator) x (polarization matrix) on ((l,m), lam)
    channels."""
    oidx = _orbital_index(ms)
    m = _zero_form(fs)
    orb = np.asarray(orbital, dtype=complex)
    lam = np.asarray(lam_matrix, dtype=complex)
    for (c, ci) in oidx.items():
        for (d, di) in oidx.items():
            if orb[ci, di] == 0:
                continue
            for l1 in range(4):
                for l2 in range(4):
                    if lam[l1, l2] == 0:
                        continue
                    try:
                        a = fs.index_of((c, l1))
                        b = fs.index_of((d, l2))
                    except Exception as exc:
                        raise ChannelMismatch(str(exc)) from None
                    m[a, b] += orb[ci, di] * lam[l1, l2]
    return _form(fs, m)


def oam_weighted(
    ms: SphericalShell, fs: FockSpace, weights: dict[int, float]
) -> tuple[OperatorMatrix, ...]:
    """Orbital generator lift with an explicit weight per polarization."""
    if not isinstance(ms, SphericalShell):
        raise ChannelMismatch("orbital operators need a spherical shell mode set")
    lam_matrix = _diag_weight(weights)
    return tuple(
        lift_bilinear(fs, combined_form(ms, fs, g, lam_matrix))
        for g in orbital_matrices(ms.l_max)
    )


def oam_total(ms: SphericalShell, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Full photon orbital angular momentum over all four polarizations.

    The scalar channel carries opposite weight; combined with its flipped
    commutator sign, every one-photon state in orbital channel (l, m) has
    L_z eigenvalue m regardless of polarization, and the family satisfies
    the angular-momentum algebra exactly on the bounded subspace.
    """
    for label in ms.mode_labels():
        for lam in range(4):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch("oam_total needs all four polarizations")
    return oam_weighted(ms, fs, OAM_WEIGHTS)


def oam_obs(ms: SphericalShell, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Transverse-only orbital angular momentum."""
    for label in ms.mode_labels():
        for lam in (1, 2):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch("oam_obs needs both transverse channels")
    return oam_weighted(ms, fs, OAM_OBS_WEIGHTS)


def l_pure(ms: SphericalShell, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Pure-gauge orbital part over the scalar and longitudinal channels.

    Satisfies oam_total = oam_obs + l_pure as an exact matrix identity.
    """
    for label in ms.mode_labels():
        for lam in (0, 3):
            if (label, lam) not in fs.channels:
                raise ChannelMismatch("l_pure needs the scalar and longitudinal channels")
    return oam_weighted(ms, fs, L_PURE_WEIGHTS)


def _fixed_frame_mode_labels(fs: FockSpace) -> list:
    labels = []
    for (label, lam) in fs.channels:
        if label not in labels:
            labels.append(label)
    return labels


def spin_total_fixed_frame(fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Spin family with the frame replaced by the fixed Cartesian axes.

    Used on the combined labeling, where the rotation generators act on the
    lam = 1, 2, 3 channels of every mode label identically.
    """
    shat = spin_matrices()
    out = []
    for comp in range(3):
        m = _zero_form(fs)
        for label in _fixed_frame_mode_labels(fs):
            _add_block(fs, m, [(label, 1), (label, 2), (label, 3)], shat[comp])
        out.append(lift_bilinear(fs, _form(fs, m)))
    return tuple(out)


def helicity_fixed_frame(fs: FockSpace) -> OperatorMatrix:
    """Helicity bilinear summed over every mode label present in the space."""
    m = _zero_form(fs)
    for label in _fixed_frame_mode_labels(fs):
        _add_block(fs, m, [(label, 1), (label, 2)], _HEL2)
    return lift_bilinear(fs, _form(fs, m))


def spin_obs_fixed_frame(fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Fixed-frame transverse spin: only the z component survives, equal to
    the helicity bilinear."""
    zero = lift_bilinear(fs, _form(fs, _zero_form(fs)))
    return (zero, zero, helicity_fixed_frame(fs))


# ---------------------------------------------------------------------------
# Counter-rotating parts and the pure-gauge spin cancellation


def _require_closed(ms: CartesianGrid) -> None:
    if not isinstance(ms, CartesianGrid) or not ms.is_negation_closed():
        raise AsymmetricGrid("operation requires a negation-closed Cartesian grid")


def _pair_entries(fs: FockSpace, c1, c2, cc_sign: int):
    """COO entries (rows, cols, data) of a_c1 a_c2 + cc_sign * creator_c1 creator_c2.

    The creator pair is s_c1 s_c2 (a_c1 a_c2)^H (lowering matrices commute,
    on capped spaces too), entry for entry: each entry is one product of two
    sqrt(n) factors.  The terms move the total occupation by -2 and +2, so
    their patterns are disjoint.
    """
    rows, cols, data = (annihilator(fs, c1) @ annihilator(fs, c2)).mat.entries()
    sign = cc_sign * fs.signs[fs.index_of(c1)] * fs.signs[fs.index_of(c2)]
    return (
        np.concatenate([rows, cols]),
        np.concatenate([cols, rows]),
        np.concatenate([data, sign * data.conj()]),
    )


def _ordered_sums(fs: FockSpace, terms) -> tuple[OperatorMatrix, ...]:
    """sum_t scale_t * (w_t[comp] * M_t) for comp = 0, 1, 2, from `terms` of
    (scale, w, COO entries of M_t with each position at most once).

    Added in order on the union pattern: every entry is the same fold as a
    chain of sparse scalings and additions, without a sparse matrix per step.
    """
    keys = [rows.astype(np.int64) * fs.dim + cols for _, _, (rows, cols, _) in terms]
    keys = np.concatenate([np.zeros(0, np.int64), *keys])
    union, where = np.unique(keys, return_inverse=True)
    acc = np.zeros((3, union.size), dtype=complex)
    start = 0
    for scale, w, (_, _, data) in terms:
        idx = where[start : start + data.size]
        start += data.size
        acc[:, idx] += scale * (w[:, None] * data)
    rows, cols = np.divmod(union, fs.dim)
    return tuple(
        OperatorMatrix(fs, _CSR.from_entries(v, rows, cols, (fs.dim, fs.dim))) for v in acc
    )


def counter_rotating_part(
    ms: CartesianGrid, fs: FockSpace, target: str
) -> tuple[OperatorMatrix, ...]:
    """Only the a.a and creator.creator terms of the target's mode expansion.

    On a negation-closed grid the returned triple is the zero matrix: the
    spin weights eps(k) x eps(-k) are antisymmetric under exchanging the pair
    members, and the momentum weights k * (four-vector inner product) flip
    sign with k while the inner product is symmetric.
    """
    _require_closed(ms)
    if target not in ("spin", "momentum"):
        raise ChannelMismatch(f"unknown counter-rotating target {target!r}")
    lams = (1, 2, 3) if target == "spin" else (0, 1, 2, 3)
    cc_sign = -1 if target == "spin" else 1
    terms = []
    for i in ms.mode_labels():
        j = ms.negation[i]
        for l1 in lams:
            for l2 in lams:
                if target == "spin":
                    w = 0.5j * np.cross(
                        ms.frames[i].spatial(l1), ms.frames[j].spatial(l2)
                    )
                else:
                    dot = minkowski_dot(
                        ms.frames[i].four_vector(l1), ms.frames[j].four_vector(l2)
                    )
                    w = 0.5 * dot * ms.modes[i].as_array()
                if not np.any(w):
                    continue
                terms.append((1.0, w, _pair_entries(fs, (i, l1), (j, l2), cc_sign)))
    return _ordered_sums(fs, terms)


def _l_pure_s_bracket(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Shared mode-space bracket of the two pure-gauge spin pieces.

    Per mode k: |k| curl(eps)(k, lam) weighting creator_3 a_lam - a_3
    creator_lam, plus the +-k cross terms creator_3 creator_lam(-k) -
    a_3 a_lam(-k) weighted by the curl of the frame field evaluated through
    -k, which is minus the curl at -k.
    """
    terms = []
    for i in ms.mode_labels():
        j = ms.negation[i]
        omega = ms.modes[i].omega
        for lam in (1, 2):
            # two explicit products: on a space capped in total occupation,
            # a_3 creator_lam is not the adjoint of creator_3 a_lam (its
            # creator acts first and can leave the space)
            rot = (creator(fs, (i, 3)) @ annihilator(fs, (i, lam))).mat - (
                annihilator(fs, (i, 3)) @ creator(fs, (i, lam))
            ).mat
            terms.append((omega, frame_curl(ms.modes[i], lam), rot.entries()))
            # (-curl at -k) (cc - aa) = (curl at -k) (aa - cc), bit for bit
            cross = _pair_entries(fs, (i, 3), (j, lam), -1)
            terms.append((omega, frame_curl(ms.modes[j], lam), cross))
    return _ordered_sums(fs, terms)


def l_pure_s_terms(ms: CartesianGrid, fs: FockSpace):
    """The divergence piece and the advection piece of the pure-gauge spin.

    Both collapse to the same mode-space bracket with opposite signs; each is
    generically nonzero while their sum vanishes identically.
    """
    _require_closed(ms)
    for i in ms.mode_labels():
        for lam in (1, 2, 3):
            if (i, lam) not in fs.channels:
                raise ChannelMismatch("pure-gauge spin needs lam = 1, 2, 3 channels")
    brackets = _l_pure_s_bracket(ms, fs)
    return tuple(0.5j * b for b in brackets), tuple(-0.5j * b for b in brackets)


def l_pure_s_cancellation(ms: CartesianGrid, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
    """Sum of the two pure-gauge spin pieces; contract: the zero matrix."""
    term1, term2 = l_pure_s_terms(ms, fs)
    return tuple(a + b for a, b in zip(term1, term2))


# ---------------------------------------------------------------------------
# Decomposition families


@dataclass(frozen=True)
class OperatorFamily:
    """A named list of labeled quadratic forms."""

    name: str
    labels: tuple[str, ...]
    forms: tuple[QuadraticForm, ...]

    def lift(self, fs: FockSpace) -> tuple[OperatorMatrix, ...]:
        return tuple(lift_bilinear(fs, f) for f in self.forms)


@dataclass(frozen=True)
class FamilyClaim:
    """One family of a decomposition: its name as built, the tag its check
    IDs carry, and its claimed algebra (None: not asserted on its own)."""

    name: str
    tag: str
    algebra: str | None


@dataclass(frozen=True)
class DecompositionSpec:
    """Claimed outcomes for one decomposition of the field angular momentum.

    `families` are listed in build order; `mutual` is the claimed relation
    between the first two families, if any, and `mutual_tag` the tag its
    check ID carries.
    """

    anchor: str
    families: tuple[FamilyClaim, ...]
    mutual: str | None = None
    mutual_tag: str = "mutual"


# The claims table of the decomposition comparison (Leader & Lorce, Phys. Rep.
# 541, 163 (2014)); decomposition-compare generates its family checks from it.
DECOMPOSITIONS: dict[str, DecompositionSpec] = {
    "canonical": DecompositionSpec(
        "Table-III",
        (FamilyClaim("spin", "spin", ALG_SU2), FamilyClaim("oam", "oam", ALG_SU2)),
        MUTUAL_COMMUTE,
    ),
    "gauge_invariant": DecompositionSpec(
        "Table-II",
        (
            FamilyClaim("spin_obs", "spin-obs", ALG_COMMUTING),
            FamilyClaim("oam_obs", "oam-obs", ALG_SU2),
        ),
    ),
    "jaffe_manohar": DecompositionSpec(
        "Table-III",
        (
            FamilyClaim("spin_jm", "spin", ALG_NONSTANDARD),
            FamilyClaim("oam_jm", "oam", ALG_NONSTANDARD),
        ),
    ),
    "chen": DecompositionSpec(
        "Table-III",
        (
            FamilyClaim("spin_chen", "spin", ALG_NONSTANDARD),
            FamilyClaim("oam_chen", "oam", ALG_SU2),
        ),
        MUTUAL_NONCOMMUTING,
    ),
    "wakamatsu": DecompositionSpec(
        "Table-III",
        (
            FamilyClaim("spin_wak", "spin", ALG_NONSTANDARD),
            # No claim of its own: the bare lift is Chen's orbital form and
            # closes su(2), and the seeded prescribed-source extra term breaks
            # su(2) by a seed-dependent amount that can fall below the
            # violation threshold (0.030 at seed 0).  Its claim is asserted
            # through the mutual relation.
            FamilyClaim("oam_wak", "oam", None),
        ),
        MUTUAL_NONCOMMUTING,
    ),
    "belinfante_ji": DecompositionSpec(
        "JM-BJ", (FamilyClaim("j_total", "j", ALG_NONSTANDARD),)
    ),
}

# Table I of the paper: the Dirac spin and orbital families each close su(2)
# and commute mutually, the same claims as the canonical photon row.  The
# dirac suite generates its Table-I checks from this row, under the prefix
# "dirac", with the families built by `dirac.dirac_sam`/`dirac.dirac_oam`.
TABLE_I = DecompositionSpec(
    "Table-I",
    (FamilyClaim("sam", "sam", ALG_SU2), FamilyClaim("oam", "oam", ALG_SU2)),
    MUTUAL_COMMUTE,
    mutual_tag="sam-oam",
)


def _lambda_canonical() -> list[np.ndarray]:
    shat = spin_matrices()
    out = []
    for comp in range(3):
        m = np.zeros((4, 4), dtype=complex)
        m[1:, 1:] = shat[comp]
        out.append(m)
    return out


def _lambda_spin_obs() -> list[np.ndarray]:
    z = np.zeros((4, 4), dtype=complex)
    hz = np.zeros((4, 4), dtype=complex)
    hz[1:3, 1:3] = _HEL2
    return [z.copy(), z.copy(), hz]


def _lambda_jm() -> list[np.ndarray]:
    mx = np.zeros((4, 4), dtype=complex)
    mx[3, 2], mx[0, 2], mx[2, 3], mx[2, 0] = 1j, -0.5j, -1j, 0.5j
    my = np.zeros((4, 4), dtype=complex)
    my[1, 3], my[1, 0], my[3, 1], my[0, 1] = 1j, -0.5j, -1j, 0.5j
    mz = np.zeros((4, 4), dtype=complex)
    mz[2, 1], mz[1, 2] = 1j, -1j
    return [mx, my, mz]


def _lambda_chen() -> list[np.ndarray]:
    mx = np.zeros((4, 4), dtype=complex)
    mx[3, 2], mx[0, 2], mx[2, 3], mx[2, 0] = 0.5j, -0.5j, -0.5j, 0.5j
    my = np.zeros((4, 4), dtype=complex)
    my[1, 3], my[1, 0], my[3, 1], my[0, 1] = 0.5j, -0.5j, -0.5j, 0.5j
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


# Orbital factor of a family term: the orbital generator of the component, or
# the identity on the (l, m) channels.
_GEN, _ONE = "generator", "identity"


def _orbital(weight: np.ndarray):
    return ((_GEN, (weight,) * 3),)


def _spin(lams: list[np.ndarray]):
    return ((_ONE, lams),)


# Quadratic forms of every family named in `DECOMPOSITIONS`: per family its
# terms (orbital factor, polarization matrix per component), summed per
# component.  Belinfante-Ji's j_total does not separate spin and orbital
# parts, so it is one family with two terms.
FAMILY_FORMS = {
    "spin": _spin(_lambda_canonical()),
    "oam": _orbital(_diag_weight(OAM_WEIGHTS)),
    "spin_obs": _spin(_lambda_spin_obs()),
    "oam_obs": _orbital(_diag_weight(OAM_OBS_WEIGHTS)),
    "spin_jm": _spin(_lambda_jm()),
    "oam_jm": _orbital(_oam_weight_jm()),
    "spin_chen": _spin(_lambda_chen()),
    "oam_chen": _orbital(_diag_weight(OAM_OBS_WEIGHTS)),
    "spin_wak": _spin(_lambda_chen()),
    # the prescribed-source extra term attaches via the constraints pathway
    "oam_wak": _orbital(_diag_weight(OAM_OBS_WEIGHTS)),
    "j_total": _orbital(_diag_weight(OAM_OBS_WEIGHTS) + _bj_coupling())
    + _spin(_lambda_spin_obs()),
}


def build_decomposition(
    name: str, ms: SphericalShell, fs: FockSpace
) -> tuple[OperatorFamily, ...]:
    """Quadratic-form families of the named decomposition on ((l,m), lam)
    channels, in the order of its `DECOMPOSITIONS` row, from `FAMILY_FORMS`.

    Pure-gauge source terms (the prescribed-charge pieces of the Chen and
    Wakamatsu Dirac-sector orbital operators, and the Wakamatsu orbital extra
    term) are linear in the ladder operators and are built through the
    constraints module's prescribed-source pathway, not here.
    """
    if name not in DECOMPOSITIONS:
        raise UnknownDecomposition(f"no decomposition named {name!r}")
    if not isinstance(ms, SphericalShell):
        raise ChannelMismatch("decomposition families use the combined labeling")
    orbital = {_GEN: orbital_matrices(ms.l_max), _ONE: (np.eye(len(ms.channels)),) * 3}

    def component(terms, c):
        parts = [combined_form(ms, fs, orbital[orb][c], lams[c]).matrix for orb, lams in terms]
        return QuadraticForm(sum(parts[1:], parts[0]), fs.signs)

    return tuple(
        OperatorFamily(
            f.name, ("x", "y", "z"), tuple(component(FAMILY_FORMS[f.name], c) for c in range(3))
        )
        for f in DECOMPOSITIONS[name].families
    )


# ---------------------------------------------------------------------------
# Dense CSV export


def operator_csv(op: OperatorMatrix) -> bytes:
    """Nonzero entries as `row,col,re,im` lines, row-major, with header."""
    buf = io.StringIO()
    buf.write("row,col,re,im\n")
    for r, c, v in zip(*op.mat.entries()):
        buf.write(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}\n")
    return buf.getvalue().encode()


def family_csv(fs: FockSpace, family: OperatorFamily) -> dict[str, bytes]:
    """CSV export of every lifted component, keyed `<family>_<label>`."""
    out = {}
    for label, op in zip(family.labels, family.lift(fs)):
        out[f"{family.name}_{label}"] = operator_csv(op)
    return out
