"""End-to-end acceptance checks, one test per guarantee the package makes.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  These are intentionally heavier than the unit tests (large
lattices, many random instances, wall-clock ceilings); the whole module
finishes in a few minutes on a laptop.
"""

import math
import time

import numpy as np

from wgstate import rdm
from wgstate.geometry import (
    Cutoff,
    Disordered,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    centered_block,
)
from wgstate.graphstate import (
    analytic_block_entropy,
    block_adjacency,
    connected_vertex_count,
    gf2_rank,
)
from wgstate.measures import (
    block_entropy,
    block_entropy_lower,
    block_entropy_upper,
    concurrence_of_assistance,
    correlation_matrix,
    entropy,
    max_correlation,
    meyer_wallach,
    trace_distance,
)
from wgstate.oracle import evolve, partial_trace, random_instance
from wgstate.rdm import ProductInput, reduced_density, single_site_coherence


def test_01_reduced_states_match_statevector():
    # 200 random instances (every law family, both boundary kinds, generic
    # and special times, subsets up to 6 of up to 14 sites): the O(N) path
    # and the 2^N statevector agree to a trace distance of 1e-10
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        profile, state, sites = random_instance(rng, n_max=14, a_max=6)
        fast = reduced_density(profile, state, sites)
        slow = partial_trace(evolve(profile, state), sites)
        worst = max(worst, trace_distance(fast, slow))
    assert worst < 1e-10, f"worst trace distance {worst:.3e}"
    assert time.perf_counter() - started < 300.0


def test_02_chain_entropy_saturates_at_twice_reach():
    # chain of 60 at the stabilizer point: an interior block of L sites
    # with couplings cut off at distance R carries exactly min(2R, L) bits,
    # both as a dense-spectrum entropy and as a GF(2) rank
    state = ProductInput.plus(60)
    lat = Lattice(60)
    for reach in (1, 2, 3):
        profile = PhaseProfile(lat, Cutoff(reach=float(reach)), time=math.pi)
        for size in range(1, 11):
            block = np.arange(25, 25 + size)
            expected = min(2 * reach, size)
            s = block_entropy(profile, state, block)
            assert abs(s - expected) < 1e-9, (reach, size, s)
            rank = gf2_rank(block_adjacency(profile, block))
            assert rank == expected, (reach, size, rank)


def test_03_square_block_rank_counts_boundary_sites():
    # 12 x 12 grid, nearest-neighbor couplings at the stabilizer point:
    # centered a x a blocks hold exactly the closed-form count of
    # surface-shell sites -- 4, 8, 12 bits for a = 2, 3, 4
    lat = Lattice((12, 12))
    profile = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    for side, expected in ((2, 4), (3, 8), (4, 12)):
        block = centered_block(lat, side)
        rank = gf2_rank(block_adjacency(profile, block))
        assert rank == expected
        assert rank == analytic_block_entropy(2, side, 1.0)


def test_04_rank_not_vertex_count():
    # four sites, both block sites wired to both environment sites: two
    # connected vertices but a single independent edge pattern, and the
    # entropy follows the rank (1 bit), not the vertex count (2)
    profile = EdgeProfile.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    state = ProductInput.plus(4)
    s = block_entropy(profile, state, [0, 1])
    assert abs(s - 1.0) < 1e-9
    gamma = block_adjacency(profile, [0, 1])
    assert gf2_rank(gamma) == 1
    assert connected_vertex_count(gamma) == 2


def test_05_area_law_vs_runaway_growth():
    # 10^4-site chain at t = 0.3 pi: for fast-decaying couplings the
    # sub-block upper bound is nearly flat between L = 20 and L = 40,
    # while slowly decaying couplings grow at least 5x faster; the exact
    # small-block entropies are monotone in L for both
    #
    # Certified sides: the radius-5 lower bound of the slowly decaying
    # chain lies above the upper bound of the fast one at both L, so the
    # entropies themselves are ordered, and the fast chain's bracket is
    # narrower than 0.01 bits (0.6267 <= S <= 0.6280 at L = 20, 0.6303 at
    # L = 40)
    started = time.perf_counter()
    lat = Lattice(10_000)
    state = ProductInput.plus(10_000)
    increments, upper, lower = {}, {}, {}
    for alpha in (3.0, 1.0 / 3.0):
        profile = PhaseProfile(lat, PowerLaw(alpha=alpha), time=0.3 * math.pi)
        block = lambda size: np.arange((10_000 - size) // 2,
                                       (10_000 - size) // 2 + size)
        for size in (20, 40):
            upper[alpha, size] = block_entropy_upper(profile, state, block(size), m=4)
            lower[alpha, size] = block_entropy_lower(profile, state, block(size), radius=5)
        increments[alpha] = upper[alpha, 40] - upper[alpha, 20]
        prev = -1.0
        for size in range(1, 11):
            s = block_entropy(profile, state, block(size))
            assert s >= prev - 1e-9, (alpha, size)
            prev = s
    assert increments[3.0] < 0.2, increments
    assert increments[1.0 / 3.0] > 5.0 * increments[3.0], increments
    for size in (20, 40):
        assert lower[1.0 / 3.0, size] > upper[3.0, size], (size, lower, upper)
        assert 0.0 <= upper[3.0, size] - lower[3.0, size] < 0.01, (size, lower, upper)
    assert time.perf_counter() - started < 1800.0


def test_06_correlation_decay_follows_coupling_law():
    # 10^4-site chain at t = 0.3 pi: log of the pair correlation strength
    # vs separation r in 2..30 is an excellent straight line for an
    # exponential coupling (relative rms misfit < 5%) and a poor one for a
    # power law (> 20%)
    started = time.perf_counter()
    lat = Lattice(10_000)
    state = ProductInput.plus(10_000)
    site = 5_000
    seps = np.arange(2, 31)

    def misfit(law):
        profile = PhaseProfile(lat, law, time=0.3 * math.pi)
        q = [max_correlation(correlation_matrix(
                 reduced_density(profile, state, [site, site + r])))
             for r in seps]
        y = np.log(np.asarray(q))
        slope, intercept = np.polyfit(seps, y, 1)
        resid = y - (slope * seps + intercept)
        return math.sqrt(float(np.mean(resid ** 2) / np.mean((y - y.mean()) ** 2)))

    assert misfit(Exponential(kappa=1.0)) < 0.05
    assert misfit(PowerLaw(alpha=3.0)) > 0.20
    assert time.perf_counter() - started < 600.0


def test_07_stabilizer_point_hides_pair_correlations():
    # chain of 100 with nearest-neighbor couplings at t = pi: every
    # interior pair shows zero connected correlations, yet the global
    # entanglement is maximal and every pair could be steered into a Bell
    # state by measuring the rest
    started = time.perf_counter()
    lat = Lattice(100)
    profile = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    state = ProductInput.plus(100)

    worst_q = 0.0
    for k in range(1, 98):
        for l in range(k + 1, 99):
            q = correlation_matrix(reduced_density(profile, state, [k, l]))
            worst_q = max(worst_q, float(np.abs(q).max()))
    assert worst_q < 1e-10, f"largest interior correlation {worst_q:.3e}"

    assert abs(meyer_wallach(profile, state) - 1.0) < 1e-10

    worst_gap = 0.0
    for k in range(100):
        for l in range(k + 1, 100):
            rho = reduced_density(profile, state, [k, l])
            worst_gap = max(worst_gap, abs(concurrence_of_assistance(rho) - 1.0))
    assert worst_gap < 1e-8, f"assistance misses 1 by {worst_gap:.3e}"
    assert time.perf_counter() - started < 60.0


def test_08_single_site_coherence_closed_form():
    # 10^3-site chain, power-law couplings, t = 0.3 pi: the product
    # formula for the single-site off-diagonal matches the full reduced
    # state to 1e-12, in well under a second
    started = time.perf_counter()
    lat = Lattice(1_000)
    profile = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    state = ProductInput.plus(1_000)
    rho = reduced_density(profile, state, [500])
    c = single_site_coherence(profile, 500)
    assert abs(rho[0, 1] - c / 2.0) < 1e-12
    assert time.perf_counter() - started < 1.0


def test_09_entropy_monotone_under_environment_growth():
    # 100 random instances: adding environment sites one at a time (in a
    # shuffled order) never lowers the block entropy
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(100):
        profile, state, sites = random_instance(rng, n_max=10, a_max=4)
        mask = np.ones(profile.n_sites, dtype=bool)
        mask[np.asarray(sites)] = False
        env = np.flatnonzero(mask)
        rng.shuffle(env)
        prev = -1.0
        for j in range(env.size + 1):
            rho = reduced_density(profile, state, sites, environment=env[:j])
            s = entropy(rho)
            assert s >= prev - 1e-12, (j, s, prev)
            prev = s
    assert time.perf_counter() - started < 300.0


def test_10_large_system_cost_scales_linearly(monkeypatch):
    # an 8-site block of a 10^5-site chain is affordable, and doubling the
    # lattice roughly doubles the cost (ratio within [1.6, 2.6] across
    # 10^4 -> 2x10^4 -> 4x10^4)
    started = time.perf_counter()
    state_big = ProductInput.plus(100_000)
    lat_big = Lattice(100_000)
    profile_big = PhaseProfile(lat_big, PowerLaw(alpha=2.0), time=0.3 * math.pi)
    rho = reduced_density(profile_big, state_big, np.arange(49_996, 50_004))
    assert rho.shape == (256, 256)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert time.perf_counter() - started < 600.0

    # the three sizes are timed in turn within each round, so a host that
    # slows down from one round to the next slows all of them alike.  Each
    # is swept in one part, in the calling thread, and timed by that
    # thread's CPU time: a sweep split over two threads takes as long as
    # the busier of two vCPUs allows, and time the host gives to other
    # processes mid-sweep counts in wall time, not in the thread's.  The
    # sites each sweep hands to its parts are counted too, a measure that
    # does not depend on the host: a centred block sweeps one site of each
    # mirror pair and the 8 sites whose image is off the chain, N / 2.  The
    # far field is off (threshold 0), so every near site is swept: this
    # times the exact sweep, which the far field would otherwise cut short
    monkeypatch.setattr(rdm, "_MAX_PARTS", 1)
    monkeypatch.setattr(rdm, "_far_threshold", lambda m, n_env: 0.0)
    sweep_part, swept = rdm._sweep_part, []

    def counting(profiles, state, rows, env, near, done):
        swept[-1] += near.size
        return sweep_part(profiles, state, rows, env, near, done)

    monkeypatch.setattr(rdm, "_sweep_part", counting)
    sizes = (10_000, 20_000, 40_000)
    cases = []
    for n in sizes:
        profile = PhaseProfile(Lattice(n), PowerLaw(alpha=2.0), time=0.3 * math.pi)
        cases.append((profile, ProductInput.plus(n), np.arange(n // 2, n // 2 + 8)))
    best = [math.inf] * len(sizes)
    counts = [set() for _ in sizes]
    for _ in range(3):
        for i, (profile, state, sites) in enumerate(cases):
            swept.append(0)
            t0 = time.thread_time()
            reduced_density(profile, state, sites)
            best[i] = min(best[i], time.thread_time() - t0)
            counts[i].add(swept[-1])
    assert counts == [{n // 2} for n in sizes]
    t1, t2, t4 = best
    for ratio in (t2 / t1, t4 / t2):
        assert 1.6 < ratio < 2.6, (t1, t2, t4)


def test_11_random_phases_scramble_pair_completely():
    # two sites each coupled to 10^4 environment sites through independent
    # uniform random phases: the pair's state is maximally mixed to better
    # than 0.01 bits
    started = time.perf_counter()
    n = 10_002
    lat = Lattice(n)
    law = Disordered(base=Cutoff(reach=float(n)), seed=11,
                     amplitude=(0.0, 2.0 * math.pi))
    profile = PhaseProfile(lat, law, time=1.0)
    state = ProductInput.plus(n)
    rho = reduced_density(profile, state, [4_000, 6_000])
    assert entropy(rho) > 1.99
    assert time.perf_counter() - started < 60.0
