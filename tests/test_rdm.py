import gc
import math
import weakref

import numpy as np
import pytest

import wgstate.rdm as rdm
from wgstate.geometry import (
    Cutoff,
    Disordered,
    EdgeProfile,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    time_profiles,
)
from wgstate.oracle import evolve, partial_trace, random_instance
from wgstate.rdm import (
    ProductInput,
    SubsetTooLargeError,
    environment_factor,
    environment_product,
    reduced_density,
    single_site_coherence,
)


def trace_dist(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def test_product_input_validation():
    with pytest.raises(ValueError) as info:
        ProductInput(np.array([[1.0, 1.0]]))  # not normalized
    # the norm prints as a plain float, not as np.float64(2.0)
    assert str(info.value) == "site 0 amplitudes not normalized (|a0|^2 + |a1|^2 = 2.0)"
    with pytest.raises(ValueError):
        ProductInput(np.ones((3, 3)))
    state = ProductInput.plus(4)
    assert state.n_sites == 4
    assert abs(state.amplitudes[0, 0] - 1 / math.sqrt(2)) < 1e-15
    # amplitudes are frozen
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 0.0


def test_a_nan_amplitude_is_not_normalized():
    # |a0|^2 + |a1|^2 = nan is not within 1e-12 of 1
    amps = np.full((3, 2), 1.0 / math.sqrt(2.0), dtype=np.complex128)
    amps[1, 0] = math.nan
    with pytest.raises(ValueError, match="site 1 amplitudes not normalized"):
        ProductInput(amps)


def test_environment_factor_diagonal_is_one():
    rng = np.random.default_rng(0)
    prof, state, sites = random_instance(rng, n_max=10, a_max=4)
    x = rng.integers(0, 2, size=len(sites))
    val = environment_factor(prof, state, sites, x, x)
    assert abs(val - 1.0) < 1e-14


def test_environment_factor_orthogonal_branch():
    # one environment site, phase pi, |+> input: factor (1 + e^{i pi})/2 = 0
    prof = EdgeProfile(2, {(0, 1): math.pi})
    state = ProductInput.plus(2)
    val = environment_factor(prof, state, [0], x=[0], y=[1])
    assert abs(val) < 1e-15


@pytest.mark.parametrize("x,y", [([2, 0], [0, 0]), ([0.5, 0], [0, 0]), ([0, 0], [0, -1]),
                                 ([0, math.nan], [0, 0])])
def test_environment_factor_rejects_entries_other_than_bits(x, y):
    # 0.5 would be read as 0, and 2 as a difference class outside {-1, 0, 1}
    prof = PhaseProfile(Lattice(6), PowerLaw(alpha=1.0), time=0.4)
    with pytest.raises(ValueError, match="bits 0 or 1"):
        environment_factor(prof, ProductInput.plus(6), [1, 2], x, y)


def test_environment_factor_against_oracle_entry():
    lat = Lattice(6)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(6)
    sites = [2, 3]
    val = environment_factor(prof, state, sites, x=[0, 0], y=[1, 1])
    rho = partial_trace(evolve(prof, state), sites)
    # strip the single-site amplitudes and the internal phase of the pair
    amp = 0.25  # a(0)a(0) * conj(a(1)a(1)) for |+> input
    internal = np.exp(1j * prof.phase(2, 3))  # e^{-i theta(x)} e^{+i theta(y)}, x=00
    assert abs(rho[0b00, 0b11] - amp * internal * val) < 1e-14


def test_environment_product_matches_factor_elementwise():
    rng = np.random.default_rng(2)
    for _ in range(5):
        prof, state, sites = random_instance(rng, n_max=10, a_max=3)
        m = len(sites)
        table = environment_product(prof, state, sites)
        pow3 = 3 ** np.arange(m - 1, -1, -1)
        for _ in range(6):
            x = rng.integers(0, 2, size=m)
            y = rng.integers(0, 2, size=m)
            code = ((x - y + 1) @ pow3)
            direct = environment_factor(prof, state, sites, x, y)
            assert abs(table[code] - direct) < 1e-13


def test_environment_product_chunking_equivalence():
    lat = Lattice(40)
    prof = PhaseProfile(lat, PowerLaw(alpha=1.0), time=0.7)
    state = ProductInput.plus(40)
    sites = [5, 17, 30]
    full = environment_product(prof, state, sites)
    saved = rdm._CHUNK_BUDGET
    try:
        rdm._CHUNK_BUDGET = 27 * 3  # force many small chunks
        chunked = environment_product(prof, state, sites)
    finally:
        rdm._CHUNK_BUDGET = saved
    assert np.abs(full - chunked).max() < 1e-14


def test_environment_factor_splits_over_disjoint_environments():
    rng = np.random.default_rng(4)
    prof, state, sites = random_instance(rng, n_max=12, a_max=3)
    mask = np.ones(prof.n_sites, dtype=bool)
    mask[np.asarray(sites)] = False
    env = np.flatnonzero(mask)
    rng.shuffle(env)
    half = env.size // 2
    x = rng.integers(0, 2, size=len(sites))
    y = rng.integers(0, 2, size=len(sites))
    whole = environment_factor(prof, state, sites, x, y)
    part1 = environment_factor(prof, state, sites, x, y, environment=env[:half])
    part2 = environment_factor(prof, state, sites, x, y, environment=env[half:])
    assert abs(whole - part1 * part2) < 1e-13


def test_reduced_density_no_evolution_is_pure():
    rng = np.random.default_rng(6)
    lat = Lattice(8)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.0)
    state = ProductInput.random(8, rng)
    rho = reduced_density(prof, state, [1, 4, 6])
    evals = np.linalg.eigvalsh(rho)
    assert abs(evals[-1] - 1.0) < 1e-12
    assert np.abs(evals[:-1]).max() < 1e-12


def test_reduced_density_four_site_counterexample():
    prof = EdgeProfile(4, {(0, 2): math.pi, (0, 3): math.pi,
                           (1, 2): math.pi, (1, 3): math.pi})
    rho = reduced_density(prof, ProductInput.plus(4), [0, 1])
    evals = np.linalg.eigvalsh(rho)
    p = evals[evals > 1e-15]
    entropy = -(p * np.log2(p)).sum()
    assert abs(entropy - 1.0) < 1e-9


def test_reduced_density_matches_oracle_chain():
    lat = Lattice(12)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(12)
    sites = [5, 6, 7]
    fast = reduced_density(prof, state, sites)
    slow = partial_trace(evolve(prof, state), sites)
    assert trace_dist(fast, slow) < 1e-10


def test_reduced_density_matches_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(25):
        prof, state, sites = random_instance(rng, n_max=12, a_max=6)
        fast = reduced_density(prof, state, sites)
        slow = partial_trace(evolve(prof, state), sites)
        assert trace_dist(fast, slow) < 1e-10


def test_reduced_density_output_invariants(monkeypatch):
    rng = np.random.default_rng(9)
    for _ in range(10):
        prof, state, sites = random_instance(rng, n_max=12, a_max=5)
        rho = reduced_density(prof, state, sites)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10
    # a sweep that returned zeros leaves no trace, named as a plain float
    monkeypatch.setattr(rdm, "environment_product", lambda *args, **kw: np.zeros(3 ** len(sites)))
    with pytest.raises(ValueError) as info:
        reduced_density(prof, state, sites)
    assert str(info.value) == "reduced matrix has non-positive trace 0.0"


def test_subset_bit_order_convention():
    # reversing the listed sites permutes rows/columns by bit reversal
    rng = np.random.default_rng(12)
    prof, state, _ = random_instance(rng, n_max=10, a_max=3)
    sites = [1, 3]
    fwd = reduced_density(prof, state, sites)
    rev = reduced_density(prof, state, sites[::-1])
    perm = [0b00, 0b10, 0b01, 0b11]  # swap the two bits
    assert np.abs(fwd - rev[np.ix_(perm, perm)]).max() < 1e-13


def test_growing_environment_never_lowers_entropy():
    rng = np.random.default_rng(13)
    for _ in range(10):
        prof, state, sites = random_instance(rng, n_max=10, a_max=4)
        mask = np.ones(prof.n_sites, dtype=bool)
        mask[np.asarray(sites)] = False
        env = np.flatnonzero(mask)
        rng.shuffle(env)
        prev = -1.0
        for j in range(env.size + 1):
            rho = reduced_density(prof, state, sites, environment=env[:j])
            p = np.clip(np.linalg.eigvalsh(rho), 0, None)
            p = p[p > 0]
            s = float(-(p * np.log2(p)).sum())
            assert s >= prev - 1e-12
            prev = s


def test_subset_too_large():
    lat = Lattice(20)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=1.0)
    state = ProductInput.plus(20)
    with pytest.raises(SubsetTooLargeError):
        reduced_density(prof, state, list(range(11)))


def test_subset_validation():
    lat = Lattice(10)
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=1.0)
    state = ProductInput.plus(10)
    with pytest.raises(ValueError):
        reduced_density(prof, state, [])
    with pytest.raises(ValueError):
        reduced_density(prof, state, [2, 2])
    with pytest.raises(ValueError):
        reduced_density(prof, state, [10])
    with pytest.raises(ValueError):
        reduced_density(prof, state, [1, 2], environment=[2, 5])


def test_table_law_must_cover_every_lattice_distance():
    # the subset's own phases need distances up to 10 only, but the exact
    # sweep reads one table of every lattice displacement, up to 19
    lat = Lattice(20)
    prof = PhaseProfile(lat, Table({r: 1.0 / r for r in range(1, 11)}), time=1.0)
    state = ProductInput.plus(20)
    others = [l for l in range(20) if l != 10]
    assert prof.phase_row(10, others).shape == (19,)
    with pytest.raises(ValueError, match="distance 11.0 not in coupling table"):
        reduced_density(prof, state, [10], environment=[9, 11])
    with pytest.raises(ValueError, match="not in coupling table"):
        environment_product(prof, state, [9, 10])


def test_single_site_coherence_trivial_cases():
    # no couplings: c = 1
    lat = Lattice(10)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.0)
    assert abs(single_site_coherence(prof, 4) - 1.0) < 1e-15
    # one neighbor at phase pi: cos(pi/2) = 0 kills the product
    prof = EdgeProfile(5, {(2, 3): math.pi})
    assert abs(single_site_coherence(prof, 2)) < 1e-15


def test_single_site_coherence_matches_reduced_density():
    lat = Lattice(1000)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(1000)
    for k in (0, 137, 500):
        rho = reduced_density(prof, state, [k])
        c = single_site_coherence(prof, k)
        assert abs(rho[0, 1] - c / 2.0) < 1e-12
        evals = np.linalg.eigvalsh(rho)
        assert abs(evals[1] - (1 + abs(c)) / 2) < 1e-12
        assert abs(evals[0] - (1 - abs(c)) / 2) < 1e-12


def test_single_site_coherence_disordered_law():
    lat = Lattice(300)
    law = Disordered(base=PowerLaw(alpha=2.0), seed=5, amplitude=(0.5, 1.5))
    prof = PhaseProfile(lat, law, time=0.4 * math.pi)
    state = ProductInput.plus(300)
    rho = reduced_density(prof, state, [150])
    c = single_site_coherence(prof, 150)
    assert abs(rho[0, 1] - c / 2.0) < 1e-12


def test_deep_underflow_is_benign():
    # strong coupling to a huge environment drives the off-diagonal into
    # (sub)normal underflow; the state comes out maximally mixed, not NaN
    lat = Lattice(50_000)
    prof = PhaseProfile(lat, Cutoff(reach=1e9), time=0.5)
    state = ProductInput.plus(50_000)
    rho = reduced_density(prof, state, [25_000])
    assert np.isfinite(rho).all()
    assert abs(rho[0, 1]) < 1e-300
    assert abs(rho[0, 0] - 0.5) < 1e-12


def test_a_grid_leaves_nothing_behind():
    # a grid is a value: each call builds its own, and once the caller
    # drops it neither its base profile nor a sweep keeps its tables
    profile = PhaseProfile(Lattice(200), PowerLaw(1.0), 0.0)
    grid = time_profiles(profile, [0.1, 0.5, 1.0])
    assert time_profiles(profile, [0.1, 0.5, 1.0]) is not grid and grid.n_sites == 200
    table = weakref.ref(grid._displacement_table)
    assert reduced_density(grid, ProductInput.plus(200), [99, 100]).shape == (3, 4, 4)
    del grid
    gc.collect()
    assert table() is None
    # a law not of distance alone makes a grid too, without stacked tables
    disordered = time_profiles(PhaseProfile(Lattice(8), Disordered(PowerLaw(1.0), 3), 0.0),
                               [0.1, 0.5])
    assert disordered.n_sites == 8 and not hasattr(disordered, "_displacement_table")
    assert reduced_density(disordered, ProductInput.plus(8), [3, 4]).shape == (2, 4, 4)


def test_nothing_complex_is_cached():
    # a profile and a grid cache phases alone: a sweep forms its factors
    # from the phases it gathers, so no attribute holds a complex array
    lattice = Lattice(400)
    state = ProductInput.plus(400)
    lone = PhaseProfile(lattice, PowerLaw(2.0), 0.3 * math.pi)
    grid = time_profiles(lone, np.linspace(0.0, math.pi, 5))
    for profile in (lone, grid):
        reduced_density(profile, state, [198, 199, 200, 201])
    assert hasattr(grid, "_displacement_table") and "_displacement_table" in vars(lone)
    for owner in (lone, grid, *grid):
        for name, value in vars(owner).items():
            for array in value if isinstance(value, tuple) else (value,):
                assert not np.iscomplexobj(array), (owner, name)
