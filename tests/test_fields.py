import math

import numpy as np
import pytest

from photonam import fields as flds
from photonam.errors import (
    BandLimitViolation,
    ChannelMismatch,
    DimensionMismatch,
    DuplicateMode,
    OffLatticeMode,
    ZeroWaveVector,
)
from photonam.modes import CartesianGrid, channel_sign, polarization_frame
from photonam.operators import FORMS

LENGTH = 2.0 * math.pi
K1 = (0.0, 0.0, 1.0)


def closed(ks):
    """`ks` followed by the negations it lacks: a list closed under negation."""
    ks = [tuple(k) for k in ks]
    return ks + [neg for neg in (tuple(-c for c in k) for k in ks) if neg not in ks]


def padded(amps, modes):
    """`amps` (K, 4) with zero rows appended up to `modes` rows: the partners
    that `closed` appends carry no amplitude."""
    return np.vstack([amps, np.zeros((modes - len(amps), 4), dtype=complex)])


def lattice(ks, grid_n=9, length=LENGTH):
    """The field lattice on `closed(ks)`."""
    return flds.FieldLattice(length, grid_n, closed(ks))


def state(rows, ks=(K1,), grid_n=9, length=LENGTH):
    """A lattice on `closed(ks)` and the (K, 4) array of the (mode index,
    lam, alpha) rows; the other amplitudes, the partners' among them, are
    zero."""
    lat = lattice(ks, grid_n, length)
    amps = np.zeros((len(lat.grid), 4), dtype=complex)
    for i, lam, alpha in rows:
        amps[i, lam] = alpha
    return lat, amps


def transverse_part_fields(lat, amps):
    """The maps of the transverse part of `amps`: lam = 0, 3 zeroed."""
    return flds.eval_fields(lat, amps * [0, 1, 1, 0])


def form_on(lat, amps, name):
    """The grid family `name` on the one state `amps` (K, 4), per component:
    the single entry of its `form_gram`."""
    return flds.form_gram(lat, np.asarray(amps)[None], name)[:, 0, 0]


def random_amps(rng, n_modes, lams):
    """Per mode, rng.normal() + 1j rng.normal() for each lam in `lams`."""
    amps = np.zeros((n_modes, 4), dtype=complex)
    for row in amps:
        for lam in lams:
            row[lam] = rng.normal() + 1j * rng.normal()
    return amps


def on_box(n_ints):
    """The wave vectors 2 pi n / L of the integer triples `n_ints`."""
    return [tuple((2 * math.pi / LENGTH) * np.array(n, dtype=float)) for n in n_ints]


def test_state_validation():
    with pytest.raises(OffLatticeMode):
        lattice([(0.5, 0.0, 0.0)])
    with pytest.raises(BandLimitViolation):
        lattice([(0.0, 0.0, 3.0)], grid_n=5)


@pytest.mark.parametrize("shape", [(2, 3), (1, 4), (4,), (2, 4, 1)])
def test_amplitudes_not_k_by_4_are_refused(shape):
    lat = lattice([K1])  # K1 and -K1
    amps = np.zeros(shape, dtype=complex)
    with pytest.raises(DimensionMismatch, match=r"expected \(2, 4\)"):
        flds.eval_fields(lat, amps)
    for name in ("spin_obs", "hamiltonian", "spin_total"):
        with pytest.raises(DimensionMismatch, match=r"expected a stack of \(2, 4\)"):
            form_on(lat, amps, name)


def test_zero_state_gives_zero_fields():
    lat, amps = state([(0, 1, 0.0)])
    maps = flds.eval_fields(lat, amps)
    for arr in (maps.e, maps.b, maps.a, maps.pi, maps.a0, maps.pi0):
        assert np.max(np.abs(arr)) == 0.0
    assert np.max(np.abs(flds.spatial_spin_integral(lat, transverse_part_fields(lat, amps)))) == 0.0


def test_single_mode_b_field_direction_and_amplitude():
    lat, amps = state([(0, 1, 1.0)])
    maps = flds.eval_fields(lat, amps)
    eps2 = polarization_frame(K1)[2, 1:]
    # B is parallel to eps(k, 2) everywhere, with the sqrt(omega/2V) envelope
    along = maps.b @ eps2
    residual = maps.b - along[:, None] * eps2[None, :]
    assert np.max(np.abs(residual)) <= 1e-14
    volume = LENGTH ** 3
    pos = sample_positions(lat)
    expected = -2.0 * math.sqrt(1.0 / (2.0 * volume)) * np.sin(pos @ np.array(K1))
    np.testing.assert_allclose(along, expected, atol=1e-13)


def test_longitudinal_e_cancellation_when_amplitudes_match():
    lat, amps = state([(0, 3, 0.4 + 0.1j), (0, 0, 0.4 + 0.1j)])
    maps = flds.eval_fields(lat, amps)
    assert np.max(np.abs(maps.e)) <= 1e-15
    assert np.max(np.abs(maps.a)) > 0.0


def test_transverse_split_state_level():
    # a state splits by polarization label: lam = 1, 2 against lam = 0, 3
    lat, amps = state([(0, 1, 1.0), (0, 3, 0.5), (0, 0, 0.25)])
    trans, longi = amps * [0, 1, 1, 0], amps * [1, 0, 0, 1]
    a_t = flds.eval_fields(lat, trans).a
    a_l = flds.eval_fields(lat, longi).a
    np.testing.assert_allclose(a_t + a_l, flds.eval_fields(lat, amps).a, atol=1e-14)

    lat, only_longitudinal = state([(0, 3, 1.0)])
    assert np.max(np.abs(transverse_part_fields(lat, only_longitudinal).a)) == 0.0


def test_transverse_split_grid_level():
    rng = np.random.default_rng(12)
    lat = lattice(on_box([(0, 0, 1), (1, 0, 0), (0, 1, 1)]))
    amps = padded(random_amps(rng, 3, (1, 2, 3)), len(lat.grid))
    n = lat.grid_n
    field = flds.eval_fields(lat, amps).a.reshape(n, n, n, 3)
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


@pytest.mark.parametrize("shape", [(4, 5, 6, 3), (4, 4, 4, 2), (4, 4, 3), (0, 0, 0, 3), ()])
def test_transverse_split_refuses_fields_not_n_n_n_3(shape):
    with pytest.raises(ChannelMismatch, match=r"\(N, N, N, 3\)"):
        flds.transverse_split(np.zeros(shape))


def test_spin_integral_circular_pair_closed_form():
    for sign, expected in ((1.0, 2.0), (-1.0, -2.0)):
        lat, amps = state([(0, 1, 1.0), (0, 2, sign * 1.0j)])
        integral = flds.spatial_spin_integral(lat, transverse_part_fields(lat, amps))
        formula = form_on(lat, amps, "spin_obs")
        np.testing.assert_allclose(integral, formula, atol=1e-12)
        np.testing.assert_allclose(integral, [0.0, 0.0, expected], atol=1e-12)


def test_spin_integral_linear_polarization_vanishes():
    lat, amps = state([(0, 1, 0.8)])
    assert np.max(np.abs(flds.spatial_spin_integral(lat, transverse_part_fields(lat, amps)))) <= 1e-14


def test_spin_duality_random_states():
    rng = np.random.default_rng(21)
    lat = lattice(on_box([(0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, -1), (-1, 0, 0), (0, -1, -1)]))
    for _ in range(20):
        amps = random_amps(rng, 6, (1, 2))
        integral = flds.spatial_spin_integral(lat, transverse_part_fields(lat, amps))
        formula = form_on(lat, amps, "spin_obs")
        assert np.max(np.abs(integral - formula)) <= 1e-9


def test_parseval_energy_transverse():
    rng = np.random.default_rng(22)
    lat = lattice(on_box([(0, 0, 1), (1, 1, 0)]))
    amps = padded(random_amps(rng, 2, (1, 2)), len(lat.grid))
    maps = flds.eval_fields(lat, amps)
    grid_energy = 0.5 * (np.sum(maps.e ** 2) + np.sum(maps.b ** 2)) * flds.cell_volume(lat)
    assert abs(grid_energy - form_on(lat, amps * [0, 1, 1, 0], "hamiltonian")[0]) <= 1e-9


def test_density_map_uniform_for_single_circular_wave():
    lat, amps = state([(0, 1, 1.0), (0, 2, 1.0j)])
    maps = transverse_part_fields(lat, amps)
    density = flds.spin_density_map(maps)
    spread = np.max(np.abs(density - density.mean(axis=0)), axis=0)
    assert np.max(spread) <= 1e-13
    total = np.sum(density, axis=0) * flds.cell_volume(lat)
    np.testing.assert_allclose(total, flds.spatial_spin_integral(lat, maps), atol=1e-13)


@pytest.mark.parametrize("seed", range(2))
def test_density_map_is_np_cross_bit_for_bit(seed):
    # `modes.cross` column by column, signed zeros included
    lat = flds.FieldLattice(LENGTH, 7, EIGHT_CLOSED)
    maps = flds.eval_fields(lat, random_amps(np.random.default_rng(seed), 8, range(4)))
    maps.e[0] = -0.0
    density = flds.spin_density_map(maps)
    assert density.tobytes() == np.cross(maps.e, maps.a).tobytes()


def test_density_map_counterpropagating_varies_but_integrates():
    k2 = (0.0, 0.0, -1.0)
    lat, amps = state([(0, 1, 1.0), (0, 2, 1.0j), (1, 1, 0.5), (1, 2, -0.5j)], ks=(K1, k2))
    density = flds.spin_density_map(transverse_part_fields(lat, amps))
    spread = np.max(np.abs(density - density.mean(axis=0)))
    assert spread > 1e-3
    total = np.sum(density, axis=0) * flds.cell_volume(lat)
    np.testing.assert_allclose(total, form_on(lat, amps, "spin_obs"), atol=1e-12)


@pytest.mark.parametrize(
    "length, grid_n",
    [(LENGTH, 9.5), (LENGTH, 9.0), (float("nan"), 9), (float("inf"), 9), (-LENGTH, 9)],
)
def test_state_rejects_bad_box_or_grid(length, grid_n):
    with pytest.raises(ChannelMismatch):
        flds.FieldLattice(length, grid_n, [K1])


def test_state_rejects_bad_wave_vectors():
    with pytest.raises(DimensionMismatch):
        lattice([(0.0, 1.0)])
    with pytest.raises(ZeroWaveVector):
        lattice([(0.0, 0.0, 0.0)])
    with pytest.raises(ZeroWaveVector):
        lattice([(0.0, float("nan"), 1.0)])
    with pytest.raises(ZeroWaveVector):
        lattice([K1, (0.0, 1e300, 1e300)])
    # k L / 2 pi overflows to inf: off the lattice, not an OverflowError
    with pytest.raises(OffLatticeMode):
        lattice([(0.0, 0.0, 1e10)], length=1e300)


@pytest.mark.parametrize(
    "ks, message",
    [
        ([K1, (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], r"mode \(0.0, 0.0, 1.0\) has no negation partner"),
        ([K1, (0.0, 0.0, -1.0)] * 2, r"modes \(0.0, 0.0, 1.0\) and \(0.0, 0.0, 1.0\) collide"),
        # a repeat that differs only in the sign of a zero
        (
            [(0.0, 1.0, 0.0), (-0.0, 1.0, 0.0), (-0.0, -1.0, -0.0), (0.0, -1.0, -0.0)],
            r"modes \(0.0, 1.0, 0.0\) and \(-0.0, 1.0, 0.0\) collide",
        ),
        ([], "a grid needs at least one mode"),
    ],
    ids=["open", "repeat", "signed-zero-repeat", "empty"],
)
def test_lattice_refuses_an_open_or_repeated_list(ks, message):
    # the lattice's grid is a CartesianGrid, with its refusals and messages
    with pytest.raises(DuplicateMode, match=message):
        flds.FieldLattice(LENGTH, 9, ks)
    with pytest.raises(DuplicateMode, match=message):
        CartesianGrid(ks)


def sample_positions(lat):
    """Centered sample positions x_j = -L/2 + j L / N, shape (N^3, 3), in
    the grid's C order."""
    n, length = lat.grid_n, lat.box_length
    return np.array(
        [[-length / 2 + j * length / n for j in idx] for idx in np.ndindex(n, n, n)]
    )


def reference_eval_fields(lat, state_amps):
    """The per-mode loop: one wave vector at a time on (N^3, 3) arrays."""
    pos = sample_positions(lat)
    volume = lat.box_length ** 3
    m = pos.shape[0]
    e, b, a, pi = (np.zeros((m, 3)) for _ in range(4))
    a0, pi0 = np.zeros(m), np.zeros(m)
    for k, amps in zip(lat.grid.ks.tolist(), state_amps):
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


def random_state(rng, n_ints, grid_n=7):
    """The lattice on `closed(n_ints)`, amplitudes on every polarization of
    the listed modes and none on the partners that close the list."""
    lat = lattice(on_box(n_ints), grid_n)
    return lat, padded(random_amps(rng, len(n_ints), (0, 1, 2, 3)), len(lat.grid))


@pytest.mark.parametrize("seed", range(4))
def test_eval_fields_matches_per_mode_reference(seed):
    rng = np.random.default_rng(seed)
    # (0, 0, +-1) sit on the z axis, where the frame rule falls back to x_hat
    n_ints = [(0, 0, 1), (1, -2, 0), (0, 0, -1), (3, 1, -2), (-1, 1, 1)]
    lat, amps = random_state(rng, n_ints)
    maps = flds.eval_fields(lat, amps)
    ref = reference_eval_fields(lat, amps)
    for name, expected in ref.items():
        got = getattr(maps, name)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13, name


def test_eval_fields_of_empty_state():
    lat, amps = state([])
    m = lat.grid_n ** 3
    maps = flds.eval_fields(lat, amps)
    for arr, shape in ((maps.e, (m, 3)), (maps.b, (m, 3)), (maps.a, (m, 3)),
                       (maps.pi, (m, 3)), (maps.a0, (m,)), (maps.pi0, (m,))):
        assert arr.shape == shape
        assert not np.any(arr)
    assert form_on(lat, amps, "spin_obs").tolist() == [0.0, 0.0, 0.0]
    assert form_on(lat, amps * [0, 1, 1, 0], "hamiltonian").tolist() == [0.0]


# The paper's S_M = (1/c) int pi x A over all four polarizations, against the
# grid spin form that the suites lift; (1, -2, 0) and (3, 1, -2) are generic,
# (0, 0, 1) sits on the frame rule's z-axis branch.  FOUR_MODES carry
# amplitudes, the partners that close the list none.
FOUR_MODES = [(0, 0, 1), (1, -2, 0), (3, 1, -2), (-1, 1, 1)]
EIGHT_CLOSED = [
    k for half in [(0, 0, 1), (1, -2, 0), (0, 1, 1), (2, 1, -1)]
    for k in (half, tuple(-c for c in half))
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lattice", [FOUR_MODES, EIGHT_CLOSED], ids=["4-modes", "8-closed"])
def test_canonical_spin_integral_is_the_spin_form(lattice, seed):
    rng = np.random.default_rng(seed)
    lat = flds.FieldLattice(LENGTH, 7, closed(lattice))
    amps = padded(random_amps(rng, len(lattice), range(4)), len(lat.grid))
    maps = flds.eval_fields(lat, amps)
    form = form_on(lat, amps, "spin_total")
    # on the closed lattice the alpha(k) alpha(-k) terms of the integral cancel
    integral = np.sum(np.cross(maps.pi, maps.a), axis=0) * flds.cell_volume(lat)
    assert np.max(np.abs(integral - form)) <= 1e-12
    # E carries alpha_3 - alpha_0 where pi carries alpha_3
    with_e = np.sum(np.cross(maps.e, maps.a), axis=0) * flds.cell_volume(lat)
    assert np.max(np.abs(with_e - form)) > 0.1


def per_mode_blocks(grid, name):
    """Blocks B_k (components, K, 4, 4) of the grid family `FORMS[name]`: per
    mode the sum over its terms of the term's weight at k (omega, k_c or
    eps_lam[c]) times its matrix over lam = 0..3."""
    def weight(key, comp):
        if key == "omega":
            return grid.omega
        return grid.ks[:, comp] if key == "k" else grid.frames[:, key[1], 1 + comp]

    terms = FORMS[name]
    return np.array([
        sum(weight(key, comp)[:, None, None] * lams[comp] for key, lams in terms)
        for comp in range(len(terms[0][1]))
    ])


@pytest.mark.parametrize("name", ["spin_total", "spin_obs", "hamiltonian"])
@pytest.mark.parametrize("lattice", [FOUR_MODES, EIGHT_CLOSED], ids=["4-modes", "8-closed"])
def test_form_gram_is_the_per_mode_sum(lattice, name):
    # Re(psi_i^dag G B_k psi_j) summed mode by mode, on states over all four
    # polarizations
    lat = flds.FieldLattice(LENGTH, 7, closed(lattice))
    rng = np.random.default_rng(7)
    states = np.array(
        [padded(random_amps(rng, len(lattice), range(4)), len(lat.grid)) for _ in range(3)]
    )
    signs = np.array([channel_sign(lam) for lam in range(4)])
    blocks = signs[:, None] * per_mode_blocks(lat.grid, name)
    want = np.zeros((len(blocks), 3, 3))
    for c, i, j in np.ndindex(*want.shape):
        for k in range(len(lat.grid)):
            want[c, i, j] += np.real(states[i, k].conj() @ blocks[c, k] @ states[j, k])
    gram = flds.form_gram(lat, states, name)
    assert gram.shape == want.shape
    assert np.max(np.abs(gram - want)) <= 1e-13
    assert np.max(np.abs(gram - gram.transpose(0, 2, 1))) <= 1e-13


@pytest.mark.parametrize("shape", [(2, 4), (3, 2, 3), (1, 2, 4, 1)])
def test_form_gram_refuses_states_not_n_by_k_by_4(shape):
    lat = lattice(on_box([(0, 0, 1), (0, 0, -1)]))
    with pytest.raises(DimensionMismatch, match=r"expected a stack of \(2, 4\)"):
        flds.form_gram(lat, np.zeros(shape, dtype=complex), "spin_obs")


# ---------------------------------------------------------------------------
# the lattice

CACHE_LATTICE = [(0, 0, 1), (1, -2, 0), (0, 0, -1), (-1, 1, 1)]


def test_lattice_table_arrays_are_read_only():
    lat, amps = random_state(np.random.default_rng(0), CACHE_LATTICE)
    flds.eval_fields(lat, amps)
    for arr in (lat.grid.ks, lat.grid.omega, lat.grid.frames, lat.phases):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "ks, grid_n, error, message",
    [
        ([(0.5, 0.0, 0.0)], 9, OffLatticeMode, r"mode \(0.5, 0.0, 0.0\) off"),
        ([K1, (0.0, 0.0, 0.0)], 9, ZeroWaveVector, "nonzero"),
        ([(0.0, 0.0, 3.0)], 5, BandLimitViolation, "below band limit 7"),
    ],
    ids=["off-lattice", "zero", "band-limit"],
)
def test_bad_lattice_raises_on_every_construction(ks, grid_n, error, message):
    for _ in range(2):
        with pytest.raises(error, match=message):
            lattice(ks, grid_n=grid_n)


@pytest.mark.parametrize("rows", [EIGHT_CLOSED, [(1e-10, 0, 1), (-1e-10, 0, -1)]], ids=["8-closed", "z-axis"])
def test_lattice_grid_is_the_cartesian_grid(rows):
    grid = flds.FieldLattice(LENGTH, 7, rows).grid
    want = CartesianGrid(rows)
    for name in ("ks", "omega", "frames"):
        assert getattr(grid, name).tobytes() == getattr(want, name).tobytes(), name
    assert grid.negation == want.negation
