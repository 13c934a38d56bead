import math

import numpy as np
import pytest

from photonam import fields as flds
from photonam.errors import (
    BandLimitViolation,
    ChannelMismatch,
    DimensionMismatch,
    OffLatticeMode,
    ZeroWaveVector,
)
from photonam.modes import polarization_frame

LENGTH = 2.0 * math.pi
K1 = (0.0, 0.0, 1.0)


def make_state(amps, grid_n=9, length=LENGTH):
    return flds.ClassicalFieldState(length, grid_n, tuple(amps))


def test_state_validation():
    with pytest.raises(OffLatticeMode):
        make_state([((0.5, 0.0, 0.0), 1, 1.0)])
    with pytest.raises(BandLimitViolation):
        make_state([((0.0, 0.0, 3.0), 1, 1.0)], grid_n=5)
    with pytest.raises(ChannelMismatch):
        make_state([(K1, 7, 1.0)])


def test_zero_state_gives_zero_fields():
    state = make_state([(K1, 1, 0.0)])
    maps = flds.eval_fields(state)
    for arr in (maps.e, maps.b, maps.a, maps.pi, maps.a0, maps.pi0):
        assert np.max(np.abs(arr)) == 0.0
    assert np.max(np.abs(flds.spatial_spin_integral(state))) == 0.0


def test_single_mode_b_field_direction_and_amplitude():
    state = make_state([(K1, 1, 1.0)])
    maps = flds.eval_fields(state)
    eps2 = polarization_frame(K1)[2, 1:]
    # B is parallel to eps(k, 2) everywhere, with the sqrt(omega/2V) envelope
    along = maps.b @ eps2
    residual = maps.b - along[:, None] * eps2[None, :]
    assert np.max(np.abs(residual)) <= 1e-14
    volume = LENGTH ** 3
    pos = flds.grid_positions(state)
    expected = -2.0 * math.sqrt(1.0 / (2.0 * volume)) * np.sin(pos @ np.array(K1))
    np.testing.assert_allclose(along, expected, atol=1e-13)


def test_longitudinal_e_cancellation_when_amplitudes_match():
    state = make_state([(K1, 3, 0.4 + 0.1j), (K1, 0, 0.4 + 0.1j)])
    maps = flds.eval_fields(state)
    assert np.max(np.abs(maps.e)) <= 1e-15
    assert np.max(np.abs(maps.a)) > 0.0


def test_transverse_split_state_level():
    state = make_state([(K1, 1, 1.0), (K1, 3, 0.5), (K1, 0, 0.25)])
    trans, longi = flds.transverse_split(state)
    assert {lam for (_, lam, _) in trans.amplitudes} == {1}
    assert {lam for (_, lam, _) in longi.amplitudes} == {0, 3}
    a_t = flds.eval_fields(trans).a
    a_l = flds.eval_fields(longi).a
    np.testing.assert_allclose(a_t + a_l, flds.eval_fields(state).a, atol=1e-14)

    only_longitudinal = make_state([(K1, 3, 1.0)])
    t_only, _ = flds.transverse_split(only_longitudinal)
    assert np.max(np.abs(flds.eval_fields(t_only).a)) == 0.0


def test_transverse_split_grid_level():
    rng = np.random.default_rng(12)
    amps = []
    for n_int in [(0, 0, 1), (1, 0, 0), (0, 1, 1)]:
        k = tuple((2 * math.pi / LENGTH) * np.array(n_int, dtype=float))
        for lam in (1, 2, 3):
            amps.append((k, lam, rng.normal() + 1j * rng.normal()))
    state = make_state(amps)
    n = state.grid_n
    field = flds.eval_fields(state).a.reshape(n, n, n, 3)
    trans, longi = flds.transverse_split(field)
    np.testing.assert_allclose(trans + longi, field, atol=1e-13)
    trans2, _ = flds.transverse_split(trans)
    np.testing.assert_allclose(trans2, trans, atol=1e-12)
    assert abs(float(np.sum(trans * longi))) <= 1e-12
    hat = np.fft.fftn(trans, axes=(0, 1, 2))
    freq = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky, kz = np.meshgrid(freq, freq, freq, indexing="ij")
    div = kx * hat[..., 0] + ky * hat[..., 1] + kz * hat[..., 2]
    assert np.max(np.abs(div)) <= 1e-11


def test_spin_integral_circular_pair_closed_form():
    for sign, expected in ((1.0, 2.0), (-1.0, -2.0)):
        state = make_state([(K1, 1, 1.0), (K1, 2, sign * 1.0j)])
        integral = flds.spatial_spin_integral(state)
        formula = flds.mode_spin_formula(state)
        np.testing.assert_allclose(integral, formula, atol=1e-12)
        np.testing.assert_allclose(integral, [0.0, 0.0, expected], atol=1e-12)


def test_spin_integral_linear_polarization_vanishes():
    state = make_state([(K1, 1, 0.8)])
    assert np.max(np.abs(flds.spatial_spin_integral(state))) <= 1e-14


def test_spin_duality_random_states():
    rng = np.random.default_rng(21)
    lattice = [(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)]
    for _ in range(20):
        amps = []
        for n_int in lattice:
            k = tuple((2 * math.pi / LENGTH) * np.array(n_int, dtype=float))
            for lam in (1, 2):
                amps.append((k, lam, rng.normal() + 1j * rng.normal()))
        state = make_state(amps)
        integral = flds.spatial_spin_integral(state)
        formula = flds.mode_spin_formula(state)
        assert np.max(np.abs(integral - formula)) <= 1e-9


def test_parseval_energy_transverse():
    rng = np.random.default_rng(22)
    amps = []
    for n_int in [(0, 0, 1), (1, 1, 0)]:
        k = tuple((2 * math.pi / LENGTH) * np.array(n_int, dtype=float))
        for lam in (1, 2):
            amps.append((k, lam, rng.normal() + 1j * rng.normal()))
    state = make_state(amps)
    maps = flds.eval_fields(state)
    grid_energy = 0.5 * (np.sum(maps.e ** 2) + np.sum(maps.b ** 2)) * flds.cell_volume(state)
    assert abs(grid_energy - flds.transverse_energy(state)) <= 1e-9


def test_density_map_uniform_for_single_circular_wave():
    state = make_state([(K1, 1, 1.0), (K1, 2, 1.0j)])
    density = flds.spin_density_map(state)
    spread = np.max(np.abs(density - density.mean(axis=0)), axis=0)
    assert np.max(spread) <= 1e-13
    total = np.sum(density, axis=0) * flds.cell_volume(state)
    np.testing.assert_allclose(total, flds.spatial_spin_integral(state), atol=1e-13)


def test_density_map_counterpropagating_varies_but_integrates():
    k2 = (0.0, 0.0, -1.0)
    state = make_state([(K1, 1, 1.0), (K1, 2, 1.0j), (k2, 1, 0.5), (k2, 2, -0.5j)])
    density = flds.spin_density_map(state)
    spread = np.max(np.abs(density - density.mean(axis=0)))
    assert spread > 1e-3
    total = np.sum(density, axis=0) * flds.cell_volume(state)
    np.testing.assert_allclose(total, flds.mode_spin_formula(state), atol=1e-12)


@pytest.mark.parametrize(
    "length, grid_n",
    [(LENGTH, 9.5), (LENGTH, 9.0), (float("nan"), 9), (float("inf"), 9), (-LENGTH, 9)],
)
def test_state_rejects_bad_box_or_grid(length, grid_n):
    with pytest.raises(ChannelMismatch):
        flds.ClassicalFieldState(length, grid_n, ((K1, 1, 1.0),))


def test_state_rejects_bad_wave_vectors():
    with pytest.raises(DimensionMismatch):
        make_state([((0.0, 1.0), 1, 1.0)])
    with pytest.raises(ZeroWaveVector):
        make_state([((0.0, 0.0, 0.0), 1, 1.0)])
    with pytest.raises(ZeroWaveVector):
        make_state([((0.0, float("nan"), 1.0), 1, 1.0)])
    with pytest.raises(ZeroWaveVector):
        make_state([(K1, 1, 1.0), ((0.0, 1e300, 1e300), 1, 1.0)])
    # k L / 2 pi overflows to inf: off the lattice, not an OverflowError
    with pytest.raises(OffLatticeMode):
        make_state([((0.0, 0.0, 1e10), 1, 1.0)], length=1e300)


def test_state_rejects_fractional_polarization():
    with pytest.raises(ChannelMismatch):
        make_state([(K1, 1.5, 1.0)])
    assert make_state([(K1, 2.0, 1.0)]).amplitudes[0][1] == 2


def reference_eval_fields(state):
    """The per-mode loop: one wave vector at a time on (N^3, 3) arrays."""
    pos = flds.grid_positions(state)
    volume = state.box_length ** 3
    m = pos.shape[0]
    e, b, a, pi = (np.zeros((m, 3)) for _ in range(4))
    a0, pi0 = np.zeros(m), np.zeros(m)
    for k, amps in state.grouped().items():
        omega = math.sqrt(sum(c * c for c in k))
        eps = polarization_frame(k)[:, 1:]
        phase = np.exp(1j * (pos @ np.array(k)))
        low = 1.0 / math.sqrt(2.0 * omega * volume)
        high = math.sqrt(omega / (2.0 * volume))
        spatial = sum(amps[lam] * eps[lam] for lam in (1, 2, 3))
        e_vec = amps[1] * eps[1] + amps[2] * eps[2] + (amps[3] - amps[0]) * eps[3]
        b_vec = amps[1] * eps[2] - amps[2] * eps[1]
        a += 2.0 * low * np.real(phase[:, None] * spatial[None, :])
        pi += -2.0 * high * np.imag(phase[:, None] * spatial[None, :])
        a0 += 2.0 * low * np.real(amps[0] * phase)
        pi0 += -2.0 * high * np.imag(amps[0] * phase)
        e += -2.0 * high * np.imag(phase[:, None] * e_vec[None, :])
        b += -2.0 * high * np.imag(phase[:, None] * b_vec[None, :])
    return {"e": e, "b": b, "a": a, "pi": pi, "a0": a0, "pi0": pi0}


def random_state(rng, lattice, grid_n=7):
    amps = []
    for n_int in lattice:
        k = tuple((2 * math.pi / LENGTH) * np.array(n_int, dtype=float))
        for lam in (0, 1, 2, 3):
            amps.append((k, lam, rng.normal() + 1j * rng.normal()))
    # a repeated (k, lam) entry, which grouped() sums with the first
    k = tuple((2 * math.pi / LENGTH) * np.array(lattice[0], dtype=float))
    amps.append((k, 2, rng.normal() + 1j * rng.normal()))
    return make_state(amps, grid_n=grid_n)


@pytest.mark.parametrize("seed", range(4))
def test_eval_fields_matches_per_mode_reference(seed):
    rng = np.random.default_rng(seed)
    # (0, 0, +-1) sit on the z axis, where the frame rule falls back to x_hat
    lattice = [(0, 0, 1), (1, -2, 0), (0, 0, -1), (3, 1, -2), (-1, 1, 1)]
    state = random_state(rng, lattice)
    assert len(state.grouped()) < len(state.amplitudes)
    maps = flds.eval_fields(state)
    ref = reference_eval_fields(state)
    for name, expected in ref.items():
        got = getattr(maps, name)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13, name


def test_eval_fields_of_empty_state():
    state = make_state([])
    m = state.grid_n ** 3
    maps = flds.eval_fields(state)
    for arr, shape in ((maps.e, (m, 3)), (maps.b, (m, 3)), (maps.a, (m, 3)),
                       (maps.pi, (m, 3)), (maps.a0, (m,)), (maps.pi0, (m,))):
        assert arr.shape == shape
        assert not np.any(arr)
    assert flds.mode_spin_formula(state).tolist() == [0.0, 0.0, 0.0]
    assert flds.transverse_energy(state) == 0.0


# The paper's S_M = (1/c) int pi x A over all four polarizations, against the
# grid spin form that the suites lift; (1, -2, 0) and (3, 1, -2) are generic,
# (0, 0, 1) sits on the frame rule's z-axis branch.
FOUR_MODES = [(0, 0, 1), (1, -2, 0), (3, 1, -2), (-1, 1, 1)]
EIGHT_CLOSED = [
    k for half in [(0, 0, 1), (1, -2, 0), (0, 1, 1), (2, 1, -1)]
    for k in (half, tuple(-c for c in half))
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lattice", [FOUR_MODES, EIGHT_CLOSED], ids=["4-modes", "8-closed"])
def test_canonical_spin_integral_is_the_spin_form(lattice, seed):
    rng = np.random.default_rng(seed)
    amps = [(tuple(map(float, k)), lam, rng.normal() + 1j * rng.normal())
            for k in lattice for lam in range(4)]
    state = make_state(amps, grid_n=7)
    maps = flds.eval_fields(state)
    form = flds.form_value(state, "spin_total")
    # on the closed lattice the alpha(k) alpha(-k) terms of the integral cancel
    integral = np.sum(np.cross(maps.pi, maps.a), axis=0) * flds.cell_volume(state)
    assert np.max(np.abs(integral - form)) <= 1e-12
    # E carries alpha_3 - alpha_0 where pi carries alpha_3
    with_e = np.sum(np.cross(maps.e, maps.a), axis=0) * flds.cell_volume(state)
    assert np.max(np.abs(with_e - form)) > 0.1


# ---------------------------------------------------------------------------
# the per-lattice table

CACHE_LATTICE = [(0, 0, 1), (1, -2, 0), (0, 0, -1), (-1, 1, 1)]


def _field_arrays(state):
    maps = flds.eval_fields(state)
    return [maps.e, maps.b, maps.a, maps.pi, maps.a0, maps.pi0, *state._mode_table]


def test_warm_lattice_table_is_bit_identical_to_cold():
    flds._lattice_table.cache_clear()
    cold = _field_arrays(random_state(np.random.default_rng(5), CACHE_LATTICE))
    assert flds._lattice_table.cache_info().misses == 1
    warm = _field_arrays(random_state(np.random.default_rng(5), CACHE_LATTICE))
    assert flds._lattice_table.cache_info().hits == 1
    for got, expected in zip(warm, cold):
        assert got.tobytes() == expected.tobytes()


def test_lattice_table_arrays_are_read_only():
    state = random_state(np.random.default_rng(0), CACHE_LATTICE)
    flds.eval_fields(state)
    ks, omega, frames, _ = state._mode_table
    for arr in (ks, omega, frames, state._lattice.phases):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "amps, grid_n, error, message",
    [
        ([((0.5, 0.0, 0.0), 1, 1.0)], 9, OffLatticeMode, r"mode \(0.5, 0.0, 0.0\) off"),
        ([(K1, 1, 1.0), ((0.0, 0.0, 0.0), 2, 1.0)], 9, ZeroWaveVector, "nonzero"),
        ([((0.0, 0.0, 3.0), 1, 1.0)], 5, BandLimitViolation, "below band limit 7"),
    ],
    ids=["off-lattice", "zero", "band-limit"],
)
def test_bad_lattice_raises_on_every_construction(amps, grid_n, error, message):
    for _ in range(2):
        with pytest.raises(error, match=message):
            make_state(amps, grid_n=grid_n)


def test_lattice_table_keyed_on_box_and_grid():
    amps = [(K1, 1, 1.0), ((0.0, 1.0, 0.0), 2, 0.5j)]
    base = make_state(amps)
    assert make_state(amps)._lattice is base._lattice
    other_grid = make_state(amps, grid_n=7)
    # k = 1 sits on the lattice of a box of length 4 pi as well
    other_box = make_state(amps, length=2.0 * LENGTH)
    assert other_grid._lattice is not base._lattice
    assert other_box._lattice is not base._lattice
    assert flds.eval_fields(other_grid).e.shape == (7 ** 3, 3)
    assert other_box._lattice.phases.shape == base._lattice.phases.shape
    assert not np.array_equal(other_box._lattice.phases, base._lattice.phases)


def test_negative_zero_twin_gives_the_same_maps():
    amps = [((0.0, 1.0, 0.0), 1, 0.3 + 0.4j), ((0.0, 1.0, 0.0), 2, -0.2j)]
    twin = [((-0.0, 1.0, 0.0), lam, alpha) for _, lam, alpha in amps]
    runs = []
    for first, second in ((amps, twin), (twin, amps)):
        flds._lattice_table.cache_clear()
        runs.append(flds.eval_fields(make_state(first)))  # cold
        runs.append(flds.eval_fields(make_state(second)))  # warm, from the twin's entry
        assert flds._lattice_table.cache_info().hits == 1
    for name in ("e", "b", "a", "pi", "a0", "pi0"):
        # == treats -0.0 and 0.0 as equal: the maps agree up to the sign of zeros
        for other in runs[1:]:
            assert np.array_equal(getattr(runs[0], name), getattr(other, name)), name
