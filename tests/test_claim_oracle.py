"""Each claim's reported residual against two readings that do not lift a
residual form.

The suites decide a claim by its brackets on the one-quantum space of the
channels and, on a space of more quanta, lift the residual forms there
(`suites._claim_checks`).  The first reading here is the commutator of the
families' lifts on the suite's own space; the second, on the default
configuration, builds every ladder on the product space with
`scipy.sparse.kron` (a Jordan-Wigner string on fermion channels), keeps the
product states whose occupations sum to at most the space's cap, and forms
the commutators there.  Neither calls `FockSpace.locate`.
"""

import functools

import numpy as np
import pytest
from scipy import sparse

from photonam import operators as ops
from photonam import suites
from photonam.fock import build_fock, commutator, lift_forms, max_abs, max_residual
from photonam.modes import build_cartesian_modeset
from photonam.suites import EPS_PAIRS, SuiteConfig, run_suite

GRIDS = {
    "default": None,
    "grid4": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
    "grid8": [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.3, -0.4, 1.2)],
    "near-z": [(1e-10, 0.0, 1.0)],
}
CLAIM_SUITES = ("canonical-commutators", "observable-commutators", "decomposition-compare")


@pytest.mark.parametrize("fermionic", [False, True], ids=["bosons", "fermions"])
@pytest.mark.parametrize(
    "verdict, structure",
    [(ops.ALG_SU2, 1), (ops.ALG_SU2, 2), (ops.ALG_COMMUTING, 1), (ops.MUTUAL_COMMUTE, 1)],
)
def test_lifted_residual_forms_are_the_commutators_of_lifts(verdict, structure, fermionic):
    # random forms over channels of both signs, on a space of three quanta
    # (bosons capped at total occupation n_max, as the suites' grids are, so
    # no channel meets its own truncation edge): each bracket on the
    # one-quantum space, read back as its form and lifted, is the commutator
    # of the lifts there, entry by entry
    chans = [("a", 0), ("b", 1), ("c", 0), ("d", 3)]
    fs = build_fock(chans, 1 if fermionic else 3, max_total=3, fermionic=fermionic)
    one = suites._one_quantum(fs)
    rng = np.random.default_rng(7)
    a, b = (rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)) for _ in range(2))
    brackets = suites._claim_brackets(verdict, lift_forms(one, a), lift_forms(one, b), structure)
    got = lift_forms(fs, suites._residual_forms(brackets, fs.signs))
    want = suites._claim_brackets(verdict, lift_forms(fs, a), lift_forms(fs, b), structure)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g.to_dense(), w.to_dense(), rtol=0, atol=1e-13)
        assert max_abs(w) > 0.1


def _recorded(monkeypatch, config):
    """The report of `config` and the (claims, groups) of each emitter call."""
    calls = []
    emit = suites._claim_checks

    def recording(rep, claims, groups, tol):
        calls.append((claims, groups))
        emit(rep, claims, groups, tol)

    monkeypatch.setattr(suites, "_claim_checks", recording)
    rep = run_suite(config)
    return {r.check_id: r.residual for r in rep.checks}, calls


def _decided(claims, groups):
    """(claim, space, families) with the group each claim is decided on."""
    out = []
    for claim in claims:
        names = {claim.a, claim.b or claim.a}
        space, families = next(g for g in groups if g[1].keys() >= names)
        out.append((claim, space, families))
    return out


def _one_quantum_channel(op) -> np.ndarray:
    """Channel of each state of a one-quantum space, read off its occupation
    rows (-1 for the vacuum)."""
    occ = np.asarray(op.space.occ)
    return np.where(occ.any(axis=1), occ.argmax(axis=1), -1)


def _form(op, signs) -> np.ndarray:
    """The form G B of a one-quantum operator B with no vacuum entry."""
    channel = _one_quantum_channel(op)
    dense = op.to_dense()
    n = len(signs)
    form = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(channel):
        for j, b in enumerate(channel):
            if dense[i, j] != 0:
                assert a >= 0 and b >= 0
                form[a, b] = signs[a] * dense[i, j]
    return form


def _residuals(verdict, a, b, structure, bracket) -> list[float]:
    """max |residual| per bracket of one claim, each by `bracket`."""
    if verdict == ops.ALG_COMMUTING:
        return [bracket(a[i], a[j], None) for i, j, _ in EPS_PAIRS]
    if verdict in (ops.MUTUAL_COMMUTE, ops.MUTUAL_NONCOMMUTING):
        return [bracket(x, y, None) for x in a for y in b]
    return [bracket(a[i], a[j], structure * 1j * b[k]) for i, j, k in EPS_PAIRS]


def _reported(claim, report) -> list[float]:
    ids = (claim.check_id,) if isinstance(claim.check_id, str) else claim.check_id
    return [report[i] for i in ids]


def _commutator_reading(claim, space, families) -> list[float]:
    """Today's reading: the claim's commutators of lifts on its space."""

    def on_space(comps):
        if comps[0].space == space:
            return comps
        return lift_forms(space, [_form(op, space.signs) for op in comps])

    a = on_space(families[claim.a])
    b = on_space(families[claim.b or claim.a])
    return _residuals(
        claim.verdict, a, b, claim.structure, lambda x, y, c: max_abs(commutator(x, y, c))
    )


def _assert_within(reported, oracle, claim):
    if isinstance(claim.check_id, str):
        reported, oracle = [max(reported)], [max_residual(oracle)]
    for got, want in zip(reported, oracle, strict=True):
        assert abs(got - want) <= 1e-14, (claim.check_id, got, want)


def _hold_to_commutators(monkeypatch, config):
    report, calls = _recorded(monkeypatch, config)
    held = 0
    for claims, groups in calls:
        for claim, space, families in _decided(claims, groups):
            _assert_within(_reported(claim, report), _commutator_reading(claim, space, families), claim)
            held += 1
    assert held == len(ops.CLAIMS[config.suite])


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("suite", CLAIM_SUITES)
def test_claims_on_grids_match_commutators_of_lifts(monkeypatch, suite, grid, n_max):
    ms = None if grid is None else build_cartesian_modeset(grid)
    _hold_to_commutators(monkeypatch, SuiteConfig(suite=suite, grid=ms, n_max=n_max))


@pytest.mark.parametrize("l_max", [1, 2, 3])
@pytest.mark.parametrize("suite", CLAIM_SUITES)
def test_claims_on_shells_match_commutators_of_lifts(monkeypatch, suite, l_max):
    _hold_to_commutators(monkeypatch, SuiteConfig(suite=suite, shell=(1.0, l_max)))


def test_dirac_claims_on_the_capped_fermion_space_match_commutators_of_lifts(monkeypatch):
    config = SuiteConfig(suite="dirac")
    _hold_to_commutators(monkeypatch, config)
    _, [(_, [(space, _)])] = _recorded(monkeypatch, config)
    assert space.fermionic and space.max_total == suites.DIRAC_FERMION_CAP == 3


# The product-space oracle.


@functools.cache
def _product_ladders(channels, n_max, max_total, fermionic):
    """Each channel's lowering matrix on the product space, channel 0
    leftmost in the Kronecker product, restricted to the product states of
    total occupation <= max_total.  The lifts conserve the total and the
    suites' spaces drop every state past the cap, so products of the
    restricted matrices are the capped space's products."""
    n = len(channels)
    low = sparse.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1, format="csr")
    eye = sparse.identity(n_max + 1, format="csr")
    parity = sparse.diags([1.0, -1.0], format="csr")
    ladders = []
    for j in range(n):
        factors = [parity if fermionic else eye] * j + [low] + [eye] * (n - j - 1)
        ladders.append(functools.reduce(lambda x, y: sparse.kron(x, y, format="csr"), factors))
    total = sum((m.T @ m).diagonal() for m in ladders)
    keep = np.flatnonzero(np.rint(total) <= max_total)
    return [m[keep][:, keep].astype(complex) for m in ladders]


def _product_lift(op, space):
    """One-quantum operator B on the product space: sum_ab B[a, b] a_a^H a_b
    on its one-quantum block and, for a vacuum entry, the ladder that moves
    between the vacuum and one quantum in that channel."""
    ladders = _product_ladders(space.channels, space.n_max, space.max_total, space.fermionic)
    channel = _one_quantum_channel(op)
    out = sparse.csr_matrix(ladders[0].shape, dtype=complex)
    rows, cols, data = op.entries()
    for r, c, value in zip(channel[rows], channel[cols], data):
        assert r >= 0 or c >= 0
        if r >= 0 and c >= 0:
            out = out + value * (ladders[r].conj().T @ ladders[c])
        elif r < 0:
            out = out + value * ladders[c]
        else:
            out = out + value * ladders[r].conj().T
    return out


def _product_bracket(x, y, c):
    out = x @ y - y @ x
    if c is not None:
        out = out - c
    return float(np.max(np.abs(out.data), initial=0.0))


def test_default_claims_match_a_product_space_oracle(monkeypatch):
    checked = 0
    for suite in (*CLAIM_SUITES, "dirac"):
        report, calls = _recorded(monkeypatch, SuiteConfig(suite=suite))
        for claims, groups in calls:
            for claim, space, families in _decided(claims, groups):
                lifted = {
                    name: [_product_lift(op, space) for op in families[name]]
                    for name in {claim.a, claim.b or claim.a}
                }
                oracle = _residuals(
                    claim.verdict,
                    lifted[claim.a],
                    lifted[claim.b or claim.a],
                    claim.structure,
                    _product_bracket,
                )
                _assert_within(_reported(claim, report), oracle, claim)
                checked += 1
    assert checked == sum(len(ops.CLAIMS[s]) for s in (*CLAIM_SUITES, "dirac"))


@pytest.mark.parametrize("grid, n_max", [(None, None), (GRIDS["grid8"], 3)], ids=["default", "grid8"])
def test_no_claim_forms_a_commutator_on_a_space_of_more_than_one_quantum(monkeypatch, grid, n_max):
    spaces = []
    bracket = suites.commutator

    def recording(a, b, c=None):
        spaces.append(a.space)
        return bracket(a, b, c)

    monkeypatch.setattr(suites, "commutator", recording)
    ms = None if grid is None else build_cartesian_modeset(grid)
    assert run_suite(SuiteConfig(grid=ms, n_max=n_max)).all_passed
    assert min(fs.max_total for fs in spaces) == 1
    # only the bcr checks' 27 states and the gb-root pair's 16 hold more
    assert {(fs.dim, fs.max_total) for fs in spaces if fs.max_total > 1} == {(27, 6), (16, 6)}
