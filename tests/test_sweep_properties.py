"""Property tests of the environment sweep, :func:`wgstate.rdm.environment_product`.

The sweep computes half of the 3^m difference classes, mirrors the rest by
complex conjugation, skips environment sites whose phases to the subset
are exactly 0 and works in cache-sized chunks, read a few to a block.  For
a law of distance alone it reads phases and factors from the cached
displacement tables and looks only inside the subset's near box.  Each of
those shortcuts is checked here against the one-class-at-a-time reference
:func:`wgstate.rdm.environment_factor` and, for the assembled matrix,
against the statevector oracle.  A stack of subsets swept at once is
checked against each subset's own sweep, a time grid swept at once
against each time's own sweep and the oracle, a sweep split over threads
against its parts swept one after another, a nested block's state traced
out of a larger block's ρ as well, and on periodic lattices a subset's
state against that of its translate.  Entropies are checked for
strong subadditivity and against a growing environment.  Examples are
derandomized so the suite runs the same cases every time.
"""

import contextlib
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgstate.rdm as rdm
from wgstate.geometry import (
    TWO_PI,
    Cutoff,
    Disordered,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    _centred,
    coupled_sites,
    mirror_images,
    pair_phases,
    time_profiles,
)
from wgstate.measures import block_entropy, entropy, trace_distance
from wgstate.oracle import evolve, partial_trace
from wgstate.rdm import (
    ProductInput,
    environment_factor,
    environment_product,
    reduced_density,
    trace_to,
)

FEW = settings(max_examples=25, deadline=None, derandomize=True)

# np.mod(-5e-324, 2*pi) rounds to exactly 2*pi; phase reduction returns that
# full turn as 0.0, so the site is pruned like one listed at 0.0
_FULL_TURN = -5e-324
_PHASES = st.one_of(st.sampled_from([0.0, _FULL_TURN, math.pi]),
                    st.floats(0.0, TWO_PI, allow_nan=False))
_TIMES = st.one_of(st.sampled_from([0.0, math.pi, TWO_PI]),
                   st.floats(0.0, TWO_PI, allow_nan=False))


@st.composite
def profiles(draw, n):
    """A PowerLaw, Exponential or Cutoff chain, or a random EdgeProfile, of n sites."""
    kind = draw(st.sampled_from(["power", "exponential", "cutoff", "edges"]))
    if kind == "edges":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        return EdgeProfile(n, {pair: draw(_PHASES) for pair in chosen})
    if kind == "power":
        law = PowerLaw(draw(st.floats(0.3, 4.0)))
    elif kind == "exponential":
        law = Exponential(draw(st.floats(0.2, 40.0)))
    else:
        law = Cutoff(float(draw(st.integers(0, 3))))
    lattice = Lattice(n, draw(st.sampled_from(["open", "periodic"])))
    return PhaseProfile(lattice, law, draw(_TIMES))


@st.composite
def states(draw, n):
    if draw(st.booleans()):
        return ProductInput.plus(n)
    return ProductInput.random(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


@st.composite
def instances(draw, n_max=12, m_max=4):
    """(profile, state, subset, environment): an unsorted subset of up to
    m_max sites (possibly all of them), and either the default environment
    or an explicit, possibly empty, part of the rest."""
    n = draw(st.integers(2, n_max))
    order = draw(st.permutations(range(n)))
    m = draw(st.integers(1, min(m_max, n)))
    sites, rest = order[:m], order[m:]
    environment = None
    if draw(st.booleans()):
        environment = rest[:draw(st.integers(0, len(rest)))]
    return draw(profiles(n)), draw(states(n)), sites, environment


def _classes(m):
    """Every difference class d in table order, with bit strings x, y of d = x - y."""
    for code, d in enumerate(itertools.product((-1, 0, 1), repeat=m)):
        d = np.array(d)
        yield code, (d == 1).astype(np.int64), (d == -1).astype(np.int64)


def _assert_matches_factor(table, profile, state, sites, environment, tol=1e-12):
    assert table.shape == (3 ** len(sites),)
    for code, x, y in _classes(len(sites)):
        direct = environment_factor(profile, state, sites, x, y, environment=environment)
        assert abs(table[code] - direct) < tol, (code, table[code], direct)


@FEW
@given(instances())
def test_every_class_matches_environment_factor(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    _assert_matches_factor(table, profile, state, sites, environment)


@FEW
@given(instances(n_max=40, m_max=6))
def test_opposite_classes_are_conjugate(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    assert np.abs(table[::-1] - table.conj()).max() < 1e-14
    # d = 0 is the product of p0 + p1 over the environment, 1 up to rounding
    assert abs(table[table.size // 2] - 1.0) < 1e-12


@FEW
@given(st.data())
def test_empty_and_fully_pruned_environments(data):
    n = data.draw(st.integers(3, 12), label="n")
    m = data.draw(st.integers(1, min(4, n - 1)), label="m")
    state = data.draw(states(n), label="state")
    # couplings inside the subset and inside the environment, none across
    inside = [pair for pair in itertools.combinations(range(n), 2)
              if (pair[0] < m) == (pair[1] < m)]
    chosen = data.draw(st.lists(st.sampled_from(inside), unique=True), label="edges")
    profile = EdgeProfile(n, {pair: data.draw(_PHASES) for pair in chosen})
    sites = list(range(m))
    table = environment_product(profile, state, sites)
    p0, p1 = state.populations(range(m, n))
    assert np.abs(table - np.prod(p0 + p1)).max() < 1e-15
    _assert_matches_factor(table, profile, state, sites, None)
    assert np.array_equal(environment_product(profile, state, sites, environment=[]),
                          np.ones(3 ** m))


@FEW
@given(st.data())
def test_chunk_and_slab_boundaries(data):
    # chunks of c sites (at m = 5 read three to a block) and slabs of s
    # sites in the one-class reference, with an environment of one site
    # less than, exactly, or one more than a whole number of chunks
    m = data.draw(st.integers(1, 5), label="m")
    c = data.draw(st.integers(1, 4), label="chunk")
    n_env = max(0, c * data.draw(st.integers(1, 7), label="chunks")
                + data.draw(st.sampled_from([-1, 0, 1]), label="offset"))
    slab = data.draw(st.integers(1, n_env + 2), label="slab")
    n = n_env + m + 2
    profile = PhaseProfile(Lattice(n), PowerLaw(data.draw(st.floats(0.5, 3.0))),
                           data.draw(st.floats(0.1, TWO_PI)))
    state = data.draw(states(n), label="state")
    sites = data.draw(st.permutations(range(n)), label="order")[:m]
    rest = [l for l in range(n) if l not in sites]
    environment = data.draw(st.permutations(rest), label="environment")[:n_env]
    whole = environment_product(profile, state, sites, environment)
    saved = rdm._CHUNK_BUDGET, rdm.ENV_SLAB
    try:
        rdm._CHUNK_BUDGET = c * (3 ** m + 1) // 2
        rdm.ENV_SLAB = slab
        table = environment_product(profile, state, sites, environment)
        _assert_matches_factor(table, profile, state, sites, environment)
    finally:
        rdm._CHUNK_BUDGET, rdm.ENV_SLAB = saved
    assert np.abs(table - whole).max() < 1e-14


@FEW
@given(instances(n_max=12, m_max=5))
def test_reduced_density_matches_oracle(case):
    profile, state, sites, _ = case
    fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert 0.5 * np.abs(np.linalg.eigvalsh(fast - slow)).sum() < 1e-10


# -- near field ----------------------------------------------------------

NEAR = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def lattices(draw, max_sites):
    """A 1-3-D lattice of 2..max_sites sites, each axis open or periodic."""
    extents = []
    for _ in range(draw(st.integers(1, 3))):
        room = max_sites // math.prod(extents, start=1)
        if room < 2:
            break
        extents.append(draw(st.integers(1, min(room, 30))))
    if math.prod(extents) < 2:
        extents[0] = 2
    boundary = [draw(st.sampled_from(["open", "periodic"])) for _ in extents]
    return Lattice(extents, boundary)


@st.composite
def near_profiles(draw, max_sites):
    """A distance law whose phases reach only part of the lattice (a cutoff,
    an exponential that underflows to 0, a table, one with finite support)
    or a sparse edge profile."""
    lattice = draw(lattices(max_sites))
    n = lattice.n_sites
    kind = draw(st.sampled_from(["cutoff", "exponential", "table", "finite", "edges"]))
    if kind == "edges":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
        return EdgeProfile(n, {pair: draw(_PHASES) for pair in chosen})
    if kind == "cutoff":
        law = Cutoff(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.0])))
    elif kind == "exponential":
        # exp(-kappa r) is exactly 0 once kappa r > 745
        law = Exponential(draw(st.floats(20.0, 400.0)))
    else:
        r = np.unique(np.concatenate([lattice.distances(k, np.arange(n))
                                      for k in range(n)]))
        f = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                          min_size=r.size, max_size=r.size))
        if kind == "finite":
            cut = draw(st.integers(1, r.size))
            f = f[:cut] + [0.0] * (r.size - cut)
        law = Table(dict(zip(r.tolist(), f)))
    return PhaseProfile(lattice, law, draw(st.one_of(st.just(math.pi), st.floats(0.1, 6.0))))


@st.composite
def near_states(draw, n):
    """|+> or a random input, half the time with populations summing to
    1 + 9e-13, the most the input accepts: then every environment site's
    p0 + p1 shows in the table at the 1e-12 level, folded or swept."""
    amps = draw(states(n)).amplitudes
    if draw(st.booleans()):
        amps = amps * math.sqrt(1.0 + 9e-13)
    return ProductInput(amps)


@st.composite
def near_instances(draw, max_sites, m_max):
    """(profile, state, subset, environment) with subset sites drawn
    towards the lattice's faces, so that boxes meet its edges and wrap
    across periodic axes, and the default or an explicit environment."""
    profile = draw(near_profiles(max_sites))
    n = profile.n_sites
    if isinstance(profile, EdgeProfile):
        pick = st.integers(0, n - 1)
    else:
        lattice = profile.lattice
        pick = st.tuples(*[st.one_of(st.sampled_from([0, e - 1]), st.integers(0, e - 1))
                           for e in lattice.extents]).map(lattice.site_index)
    m = draw(st.integers(1, min(m_max, n)))
    sites = draw(st.lists(pick, min_size=m, max_size=m, unique=True))
    environment = None
    if draw(st.booleans()):
        rest = draw(st.permutations([l for l in range(n) if l not in sites]))
        environment = rest[:draw(st.integers(0, len(rest)))]
    return profile, draw(near_states(n)), sites, environment


@NEAR
@given(near_instances(max_sites=150, m_max=3))
def test_near_field_matches_environment_factor(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    scale = abs(table[table.size // 2])     # d = 0: prod of p0 + p1, ~1
    _assert_matches_factor(table, profile, state, sites, environment,
                           tol=1e-12 * scale)


@NEAR
@given(near_instances(max_sites=12, m_max=4))
def test_near_field_matches_oracle(case):
    profile, state, sites, _ = case
    fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert 0.5 * np.abs(np.linalg.eigvalsh(fast - slow)).sum() < 1e-10


# -- stacked subsets ------------------------------------------------------

@st.composite
def stack_instances(draw, max_sites=60, m_max=3, b_max=4):
    """(profile, state, stack, environment): up to b_max subsets of m sites
    drawn from a few sites towards the lattice's faces, so that they overlap,
    hold sites of one another's environment and sit far apart; a law with
    a displacement table or, without one, a Disordered law or an
    EdgeProfile; the default environment or an explicit one that meets no
    subset."""
    profile = draw(near_profiles(max_sites))
    if isinstance(profile, PhaseProfile) and draw(st.booleans()):
        base = draw(st.sampled_from([Cutoff(1.5), PowerLaw(1.0)]))
        profile = PhaseProfile(profile.lattice, Disordered(base, draw(st.integers(0, 9))),
                               profile.time)
    n = profile.n_sites
    if isinstance(profile, EdgeProfile):
        pick = st.integers(0, n - 1)
    else:
        lattice = profile.lattice
        pick = st.tuples(*[st.one_of(st.sampled_from([0, e - 1]), st.integers(0, e - 1))
                           for e in lattice.extents]).map(lattice.site_index)
    m = draw(st.integers(1, min(m_max, n)))
    pool = draw(st.lists(pick, min_size=m, max_size=min(n, m + 3), unique=True))
    stack = [draw(st.permutations(pool))[:m] for _ in range(draw(st.integers(1, b_max)))]
    environment = None
    if draw(st.booleans()):
        rest = draw(st.permutations([l for l in range(n) if l not in pool]))
        environment = rest[:draw(st.integers(0, len(rest)))]
    return profile, draw(near_states(n)), stack, environment


@NEAR
@given(stack_instances(), st.one_of(st.none(), st.integers(1, 4)))
def test_a_stack_matches_its_subsets_one_by_one(case, chunk):
    # one sweep of the union of the near boxes gives every subset its own
    # table and state; with inputs whose p0 + p1 = 1 + 9e-13 the swept and
    # folded factors of far sites show at the 1e-12 level.  The stack is
    # swept at the default budget or in chunks of ``chunk`` sites, so that
    # it ends on a partial chunk and spans several blocks; the lone
    # subsets are swept at the default budget.
    profile, state, stack, environment = case
    m = len(stack[0])
    lone = [(environment_product(profile, state, sites, environment),
             reduced_density(profile, state, sites, environment=environment))
            for sites in stack]
    saved = rdm._CHUNK_BUDGET
    try:
        if chunk is not None:
            rdm._CHUNK_BUDGET = 4 * len(stack) * (3 ** m + 1) // 2 * chunk
        tables = environment_product(profile, state, stack, environment)
        rhos = reduced_density(profile, state, stack, environment=environment)
    finally:
        rdm._CHUNK_BUDGET = saved
    assert tables.shape == (len(stack), 3 ** m)
    assert rhos.shape == (len(stack), 2 ** m, 2 ** m)
    for (lone_table, alone), table, rho in zip(lone, tables, rhos):
        assert np.abs(table - lone_table).max() < 1e-12 * abs(lone_table[lone_table.size // 2])
        assert trace_distance(rho, alone) < 1e-12


def test_pairs_read_one_phase_row(monkeypatch):
    # the sweep and the pair's own phase both read the displacement table,
    # built once per profile
    n = 2000
    profile = PhaseProfile(Lattice(n), Exponential(1.0), 0.3 * math.pi)
    state = ProductInput.random(n, np.random.default_rng(11))
    sizes = []
    row = PhaseProfile.phase_row

    def counted(self, k, ls):
        sizes.append(np.size(ls))
        return row(self, k, ls)

    monkeypatch.setattr(PhaseProfile, "phase_row", counted)
    for r in range(1, 65):
        reduced_density(profile, state, [n // 2, n // 2 + r])
    assert sizes == [n - 1]


# -- split sweep ---------------------------------------------------------

@contextlib.contextmanager
def _split(work, cores, chunk_budget=None):
    """Sweeps split into parts of at least ``work`` site classes, over
    ``cores`` usable cores and as many parts at most, at ``chunk_budget``
    (default: unchanged)."""
    saved = rdm._SPLIT_WORK, rdm._MAX_PARTS, rdm._CHUNK_BUDGET, os.sched_getaffinity
    rdm._SPLIT_WORK, rdm._MAX_PARTS = work, cores
    rdm._CHUNK_BUDGET = chunk_budget or saved[2]
    os.sched_getaffinity = lambda pid: set(range(cores))
    try:
        yield
    finally:
        rdm._SPLIT_WORK, rdm._MAX_PARTS, rdm._CHUNK_BUDGET, os.sched_getaffinity = saved


@contextlib.contextmanager
def _switching_often():
    """Threads hand over the interpreter every microsecond, so that parts
    sweeping at once interleave between any two numpy calls."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


def _parts_in_order(profile, state, rows, env, parts):
    """``rdm._sweep`` from ``parts`` contiguous parts of the near sites,
    swept one after another and multiplied in part order: of a lone
    subset's mirror pairs, parts of the representatives, then parts of the
    sites swept alone, each image's factor read from its representative's
    table; then the far sites' first-order factor."""
    near, far = rdm._near_and_far((profile,), rows, env)
    pairs = rdm._mirror_pairs((profile,), state, rows, env, near)
    swept = np.zeros(env.size, dtype=bool)
    tables = []
    for group in [near] if pairs is None else [pairs[1], pairs[3]]:
        halves = [rdm._sweep_part((profile,), state, rows, env, piece, swept)
                  for piece in np.array_split(group, parts)]
        half = halves[0]
        for part in halves[1:]:
            half = half * part
        tables.append(half)
    half = tables[-1]
    if pairs is not None:
        half = half * tables[0] * rdm._mirrored(tables[0], pairs[0])
        swept[pairs[2]] = swept[pairs[1]]
    if far.size:
        half = half * rdm._far_field((profile,), state, rows, env[far])
    return (half * float(np.prod(state._norms[env[~swept]]))).T


def _rounding_floor(n_sites):
    """Relative rounding of one sweep, from ``environment_product``'s
    docstring: 1.2e-14 at 10^3 sites, about linear in N beyond."""
    return 1.2e-14 * max(1.0, n_sites / 1e3)


@NEAR
@given(stack_instances(), st.integers(1, 4), st.integers(2, 8), st.data())
def test_a_split_sweep_joins_its_parts_in_order(case, chunk, cores, data):
    # parts of a few chunks of ``chunk`` sites, so that parts end mid-chunk,
    # up to 8 parts on as many patched cores: with more parts than near
    # sites some parts are empty.  Threads switch every microsecond, so a
    # buffer or an accumulator shared by two parts shows.
    profile, state, stack, environment = case
    rows = np.asarray(stack)
    n_half = (3 ** rows.shape[1] + 1) // 2
    env = rdm._resolve_environment(profile, rows, environment)
    whole = rdm._sweep((profile,), state, rows, env)
    work = rdm._near_and_far((profile,), rows, env)[0].size * n_half * len(rows)
    per_part = data.draw(st.integers(1, max(1, work)), label="work per part")
    parts = min(cores, work // per_part) if work // per_part >= 2 else 1
    budget = 4 * len(rows) * n_half * chunk
    with _split(per_part, cores, budget):
        with _switching_often():
            split = rdm._sweep((profile,), state, rows, env)
        expected = _parts_in_order(profile, state, rows, env, parts)
    assert split.tobytes() == expected.tobytes()
    scale = np.abs(whole[:, -1:])       # d = 0: prod of p0 + p1, ~1
    assert (np.abs(split - whole) <= _rounding_floor(profile.n_sites) * scale).all()


def test_split_sweep_stress():
    # eight parts on two threads' worth of cores, each many chunks long, with
    # the interpreter switching every microsecond: bit for bit the parts in
    # order, and the one-part sweep to rounding
    n, sites = 3000, [[1400, 1403, 1409, 1410], [700, 2100, 2101, 2900]]
    profile = PhaseProfile(Lattice(n), PowerLaw(1.0), 0.3 * math.pi)
    state = ProductInput(ProductInput.random(n, np.random.default_rng(3)).amplitudes
                         * math.sqrt(1.0 + 9e-13))
    rows = np.asarray(sites)
    env = rdm._resolve_environment(profile, rows)
    whole = rdm._sweep((profile,), state, rows, env)
    with _split(1, 8, 4 * 41 * 50):
        with _switching_often():
            split = rdm._sweep((profile,), state, rows, env)
        expected = _parts_in_order(profile, state, rows, env, 8)
    assert split.tobytes() == expected.tobytes()
    assert (np.abs(split - whole) <= _rounding_floor(n) * np.abs(whole[:, -1:])).all()


def test_a_cold_profile_splits_like_a_warm_one():
    # the first split sweep builds every cached table before its threads
    # start, and gives the very bits of a sweep on the built tables
    def profiles():
        yield PhaseProfile(Lattice(2000), PowerLaw(2.0), 0.3 * math.pi)
        yield PhaseProfile(Lattice((40, 50), "periodic"), Exponential(0.5), 1.1)
        yield PhaseProfile(Lattice(2000), Disordered(PowerLaw(1.0), 4), 0.7)

    for cold, warm in zip(profiles(), profiles()):
        n = cold.n_sites
        state = ProductInput.random(n, np.random.default_rng(8))
        sites = [n // 2, n // 2 + 1, n // 2 + 7, 3]
        environment_product(warm, state, sites)
        with _split(1, 2), _switching_often():
            first = environment_product(cold, state, sites)
            assert first.tobytes() == environment_product(warm, state, sites).tobytes()


def test_one_usable_core_starts_no_thread(monkeypatch):
    # one usable core, or a sweep below the threshold, sweeps in the calling
    # thread: bit for bit the one-part sweep
    started = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counted)
    n = 4000
    profile = PhaseProfile(Lattice(n), PowerLaw(2.0), 0.3 * math.pi)
    state = ProductInput.random(n, np.random.default_rng(2))
    sites = list(range(n // 2, n // 2 + 5))
    whole = environment_product(profile, state, sites)
    with _split(1, 1):
        assert environment_product(profile, state, sites).tobytes() == whole.tobytes()
    assert started == []
    # a pair-correlations scan, 64 pairs at m = 2 in a chain of 2 * 10^4
    # with a near box of about 1,560 sites, 108 of them swept and the rest
    # folded, stays on one core of two
    chain = PhaseProfile(Lattice(20_000), Exponential(1.0), 0.3 * math.pi)
    pairs = [[10_000, 10_000 + r] for r in range(1, 65)]
    with _split(rdm._SPLIT_WORK, 2):
        environment_product(chain, ProductInput.plus(20_000), pairs)
    assert started == []
    with _split(1, 2):
        environment_product(profile, state, sites)
    assert started == [1]


def test_parts_stop_at_the_cap(monkeypatch):
    # however many cores are usable, a sweep is split into at most
    # _MAX_PARTS parts; below two parts' work it is not split
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert rdm._part_count(10 ** 6 * rdm._SPLIT_WORK) == rdm._MAX_PARTS == 2
    assert rdm._part_count(2 * rdm._SPLIT_WORK - 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert rdm._part_count(10 ** 6 * rdm._SPLIT_WORK) == 1


def test_without_cpu_affinity_a_sweep_is_one_part(monkeypatch):
    # a platform without os.sched_getaffinity sweeps in the calling thread
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rdm._part_count(10 ** 6 * rdm._SPLIT_WORK) == 1


def test_a_part_that_raises_raises_in_the_caller(monkeypatch):
    # the exception of a part swept on its own thread reaches the caller,
    # after that thread is joined
    n = 4000
    profile = PhaseProfile(Lattice(n), PowerLaw(2.0), 0.3 * math.pi)
    state = ProductInput.random(n, np.random.default_rng(2))
    caller, sweep_part, workers = threading.current_thread(), rdm._sweep_part, []

    def failing(*args):
        if threading.current_thread() is caller:
            return sweep_part(*args)
        workers.append(threading.current_thread())
        raise RuntimeError("part 1 failed")

    monkeypatch.setattr(rdm, "_sweep_part", failing)
    with _split(1, 2), pytest.raises(RuntimeError, match="part 1 failed"):
        environment_product(profile, state, list(range(n // 2, n // 2 + 5)))
    assert len(workers) == 1 and not workers[0].is_alive()


# -- subset order --------------------------------------------------------

@st.composite
def distance_laws(draw, lattice):
    """A law of each family of distance alone; a table covers every
    distance of ``lattice``."""
    kind = draw(st.sampled_from(["power", "exponential", "cutoff", "table"]))
    if kind == "power":
        return PowerLaw(draw(st.floats(0.3, 4.0)))
    if kind == "exponential":
        return Exponential(draw(st.floats(0.2, 40.0)))
    if kind == "cutoff":
        return Cutoff(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])))
    n = lattice.n_sites
    r = np.unique(np.concatenate([lattice.distances(k, np.arange(n)) for k in range(n)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return Table(dict(zip(r.tolist(), np.random.default_rng(seed).uniform(0, 3, r.size))))


@st.composite
def large_instances(draw, m_max=5):
    """(profile, state, sites, perm): a distance law of each family on a
    lattice of 50..600 sites, beyond the oracle, a random input, an
    unsorted subset and a permutation of it."""
    lattice = draw(lattices(600).filter(lambda lat: lat.n_sites >= 50))
    n = lattice.n_sites
    profile = PhaseProfile(lattice, draw(distance_laws(lattice)), draw(st.floats(0.1, 6.0)))
    state = ProductInput.random(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    m = draw(st.integers(2, m_max))
    sites = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True))
    return profile, state, sites, draw(st.permutations(range(m)))


@FEW
@given(large_instances())
def test_permuting_the_subset_permutes_rho(case):
    profile, state, sites, perm = case
    m = len(sites)
    rho = reduced_density(profile, state, sites)
    permuted = reduced_density(profile, state, [sites[j] for j in perm])
    # bit j of the permuted index is bit perm[j] of the original one
    tensor = rho.reshape((2,) * (2 * m))
    expected = tensor.transpose(list(perm) + [m + j for j in perm]).reshape(rho.shape)
    assert np.abs(permuted - expected).max() < 1e-12


# -- translation invariance ---------------------------------------------

@st.composite
def periodic_instances(draw):
    """(profile, state, sites, moved): a distance law on a 1-3-D lattice of
    up to 300 sites, periodic along every axis, the same single-site input
    at every site, a subset of up to 4 sites and its image under a random
    lattice translation."""
    lattice = Lattice(draw(lattices(300)).extents, "periodic")
    n = lattice.n_sites
    profile = PhaseProfile(lattice, draw(distance_laws(lattice)), draw(st.floats(0.1, 6.0)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    one = ProductInput.random(1, np.random.default_rng(seed)).amplitudes
    state = ProductInput.plus(n) if seed % 4 == 0 else ProductInput(np.repeat(one, n, axis=0))
    m = draw(st.integers(1, min(4, n)))
    sites = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True))
    shift = [draw(st.integers(0, e - 1)) for e in lattice.extents]
    moved = np.ravel_multi_index(((lattice.coords(sites) + shift) % lattice.extents).T,
                                 lattice.extents)
    return profile, state, sites, moved


@FEW
@given(periodic_instances())
def test_a_periodic_lattice_is_translation_invariant(case):
    # a translation maps the lattice, the couplings and a uniform input onto
    # themselves, so the image of a subset has the same state, row for row
    profile, state, sites, moved = case
    rho = reduced_density(profile, state, sites)
    assert np.abs(reduced_density(profile, state, moved) - rho).max() < 1e-12


# -- nested blocks -------------------------------------------------------

@st.composite
def nested_instances(draw):
    """(profile, state, sites, keep): a large instance of up to 6 sites and
    some of them, unsorted and in another order than in ``sites``."""
    profile, state, sites, perm = draw(large_instances(m_max=6))
    keep = [sites[j] for j in perm[:draw(st.integers(1, len(sites)))]]
    return profile, state, sites, keep


@FEW
@given(nested_instances())
def test_tracing_a_block_matches_its_own_sweep(case):
    profile, state, sites, keep = case
    traced = trace_to(reduced_density(profile, state, sites), sites, keep)
    assert np.abs(traced - reduced_density(profile, state, keep)).max() < 1e-12


@FEW
@given(nested_instances())
def test_block_entropy_from_an_outer_block(case):
    profile, state, sites, keep = case
    outer = (sites, reduced_density(profile, state, sites))
    direct = block_entropy(profile, state, keep)
    assert abs(block_entropy(profile, state, keep, outer) - direct) < 1e-12


# -- strong subadditivity -----------------------------------------------

@FEW
@given(large_instances(m_max=6).filter(lambda case: len(case[2]) >= 3), st.data())
def test_strong_subadditivity(case, data):
    # S(AB) + S(BC) >= S(ABC) + S(B) for any three disjoint blocks, each
    # entropy from its own sweep
    profile, state, sites, _ = case
    i = data.draw(st.integers(1, len(sites) - 2), label="end of A")
    j = data.draw(st.integers(i + 1, len(sites) - 1), label="end of B")
    a, b, c = sites[:i], sites[i:j], sites[j:]
    s_ab, s_bc, s_abc, s_b = (block_entropy(profile, state, block)
                              for block in (a + b, b + c, a + b + c, b))
    assert s_ab + s_bc >= s_abc + s_b - 1e-10


# -- growing environment -------------------------------------------------

@FEW
@given(instances(), st.data())
def test_entropy_grows_with_the_environment(case, data):
    # each added environment site mixes z-rotations of the subset with
    # weights p0 and p1, a mixed-unitary channel: entropy cannot fall
    profile, state, sites, _ = case
    rest = data.draw(st.permutations([l for l in range(profile.n_sites)
                                      if l not in sites]), label="rest")
    n2 = data.draw(st.integers(0, len(rest)), label="n2")
    n1 = data.draw(st.integers(0, n2), label="n1")
    s1, s2 = (entropy(reduced_density(profile, state, sites, environment=rest[:n]))
              for n in (n1, n2))
    assert s1 <= s2 + 1e-10


# -- time grids -----------------------------------------------------------

_GRID_TIMES = st.one_of(st.sampled_from([0.0, math.pi, TWO_PI]), st.floats(0.0, 6.0))


@st.composite
def grid_instances(draw):
    """(profile, state, sites, environment, times): one subset of a stack
    instance under a PhaseProfile (a near law, a Disordered one, or a power
    law that reaches every site) and 1..5 times."""
    profile, state, stack, environment = draw(
        stack_instances(b_max=1).filter(lambda case: isinstance(case[0], PhaseProfile)))
    if draw(st.booleans()):
        profile = PhaseProfile(profile.lattice, PowerLaw(draw(st.floats(0.3, 4.0))), 1.0)
    times = draw(st.lists(_GRID_TIMES, min_size=1, max_size=5))
    return profile, state, stack[0], environment, times


@NEAR
@given(grid_instances(), st.one_of(st.none(), st.integers(1, 4)))
def test_a_grid_matches_its_times_one_by_one(case, chunk):
    # row t of one sweep of every time is the lone sweep at times[t], to
    # the rounding floor: the grid sweeps the union of the times' near
    # sites, some with phase 0.0 at time t that the lone sweep folds.  The
    # grid is swept at the default budget or in chunks of ``chunk`` sites.
    profile, state, sites, environment, times = case
    m = len(sites)
    lone = [PhaseProfile(profile.lattice, profile.law, t) for t in times]
    lone_tables = [environment_product(p, state, sites, environment) for p in lone]
    lone_rhos = [reduced_density(p, state, sites, environment=environment) for p in lone]
    # one time takes the lone path, bit for bit
    one = (environment_product(time_profiles(profile, times[:1]), state, sites, environment),
           reduced_density(time_profiles(profile, times[:1]), state, sites,
                           environment=environment))
    assert one[0].tobytes() == lone_tables[0][None].tobytes()
    assert one[1].tobytes() == lone_rhos[0][None].tobytes()
    saved = rdm._CHUNK_BUDGET
    try:
        if chunk is not None:
            rdm._CHUNK_BUDGET = 4 * len(times) * (3 ** m + 1) // 2 * chunk
        tables = environment_product(time_profiles(profile, times), state, sites, environment)
        rhos = reduced_density(time_profiles(profile, times), state, sites,
                               environment=environment)
    finally:
        rdm._CHUNK_BUDGET = saved
    assert tables.shape == (len(times), 3 ** m)
    assert rhos.shape == (len(times), 2 ** m, 2 ** m)
    floor = _rounding_floor(profile.n_sites)
    for lone_table, alone, table, rho in zip(lone_tables, lone_rhos, tables, rhos):
        assert (np.abs(table - lone_table) <= floor * abs(lone_table[lone_table.size // 2])).all()
        assert np.abs(rho - alone).max() <= floor


def _oracle_at(profile, state, sites, environment):
    """The statevector's state of ``sites``; with an explicit environment,
    of the evolution without the couplings of ``sites`` to the other sites."""
    n = profile.n_sites
    if environment is not None:
        kept = set(sites) | set(environment)
        phases = {(k, l): profile.phase(k, l) for k, l in itertools.combinations(range(n), 2)
                  if (k not in sites and l not in sites) or (k in kept and l in kept)}
        profile = EdgeProfile(n, phases)
    return partial_trace(evolve(profile, state), sites)


@st.composite
def small_grid_instances(draw):
    """(profile, state, sites, environment, times) of at most 12 sites: a
    1-3-D lattice, a distance law or a Disordered one, 0 and pi among 2..5
    times in any order, the default or an explicit environment."""
    lattice = draw(lattices(12))
    law = draw(st.sampled_from([PowerLaw(1.0), Cutoff(1.5), Exponential(0.7),
                                Disordered(PowerLaw(2.0), 3), Disordered(Cutoff(1.0), 5)]))
    n = lattice.n_sites
    order = draw(st.permutations(range(n)))
    m = draw(st.integers(1, min(4, n)))
    sites, rest = order[:m], order[m:]
    environment = rest[:draw(st.integers(0, len(rest)))] if draw(st.booleans()) else None
    extra = draw(st.lists(_GRID_TIMES, max_size=3))
    times = draw(st.permutations([0.0, math.pi, *extra]))
    return PhaseProfile(lattice, law, 0.0), draw(states(n)), sites, environment, times


@FEW
@given(small_grid_instances())
@example(case=(PhaseProfile(Lattice((3, 4), "periodic"), Disordered(PowerLaw(1.0), 7), 0.0),
               ProductInput.random(12, np.random.default_rng(2)), [5, 0, 11],
               [1, 6, 10, 4], [math.pi, 0.0, 1.3]))
def test_a_grid_matches_the_oracle(case):
    profile, state, sites, environment, times = case
    rhos = reduced_density(time_profiles(profile, times), state, sites, environment=environment)
    for t, rho in zip(times, rhos):
        slow = _oracle_at(PhaseProfile(profile.lattice, profile.law, t), state, sites,
                          environment)
        assert 0.5 * np.abs(np.linalg.eigvalsh(rho - slow)).sum() < 1e-10


# -- mirror pairs --------------------------------------------------------

@st.composite
def symmetric_subsets(draw, lattice, m_max=6, kinds=("site", "pair", "run", "box")):
    """A subset, in any order, that the point reflection through the centre
    of its bounding box maps onto itself: a single site, a pair, a run
    along one axis or a box of at most ``m_max`` sites, anywhere on the
    lattice.  A run or a box may wrap across a periodic axis, where the
    reflection need not map it onto itself."""
    extents, n = lattice.extents, lattice.n_sites
    kind = draw(st.sampled_from(kinds))
    if kind in ("site", "pair"):
        size = 1 if kind == "site" else 2
        return draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
    sides = [1] * len(extents)
    if kind == "run":
        axis = draw(st.integers(0, len(extents) - 1))
        sides[axis] = draw(st.integers(1, min(extents[axis], m_max)))
    else:
        for axis, extent in enumerate(extents):
            room = m_max // math.prod(sides)
            sides[axis] = draw(st.integers(1, max(1, min(extent, room))))
    spans = [np.arange(start, start + side) % extent
             for side, extent, bound in zip(sides, extents, lattice.boundary)
             for start in [draw(st.integers(0, extent - (1 if bound == "periodic" else side)))]]
    grids = np.meshgrid(*spans, indexing="ij")
    sites = np.ravel_multi_index([g.ravel() for g in grids], extents).tolist()
    return draw(st.permutations(sites))


@st.composite
def mirror_states(draw, n):
    """An input with the same populations at every site (|+> or one random
    single-site state), the same with some sites replaced by random ones,
    so that only some mirror pairs are equal, or a random input at every
    site; half the time with populations summing to 1 + 9e-13, so that a
    site folded into the scalar instead of being swept shows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    one = ProductInput.plus(1) if draw(st.booleans()) else ProductInput.random(1, rng)
    amps = np.repeat(one.amplitudes, n, axis=0)
    kind = draw(st.sampled_from(["uniform", "partial", "partial", "random"]))
    if kind != "uniform":
        changed = rng.random(n) < 0.3 if kind == "partial" else np.ones(n, dtype=bool)
        amps[changed] = ProductInput.random(n, rng).amplitudes[changed]
    if draw(st.booleans()):
        amps = amps * math.sqrt(1.0 + 9e-13)
    return ProductInput(amps)


@st.composite
def mirror_instances(draw):
    """(profile, state, sites, environment, times, chunk): a law of each
    family of distance alone on a 1-3-D lattice of 8 to 60 sites, a
    symmetric subset, the default or an explicit environment, one time or
    a grid of 2..4, and chunks of 1..4 sites, so that near sites span many.
    An input whose populations differ somewhere, which is never paired,
    comes with a subset of 5 or 6 sites, or 4 at a grid: enough classes a
    site that pairing it without regard to its populations would show."""
    lattice = draw(lattices(60).filter(lambda lat: lat.n_sites >= 8))
    profile = PhaseProfile(lattice, draw(distance_laws(lattice)), draw(_TIMES))
    n = lattice.n_sites
    state = draw(mirror_states(n))
    times = draw(st.one_of(st.none(), st.lists(_TIMES, min_size=2, max_size=4)))
    if state._uniform:
        sites = draw(symmetric_subsets(lattice))
    else:
        least = 5 if times is None else 4
        sites = draw(symmetric_subsets(lattice, kinds=("run", "box")).filter(
            lambda sites: len(sites) >= least))
    environment = None
    if draw(st.booleans()):
        rest = draw(st.permutations([l for l in range(n) if l not in sites]))
        environment = rest[:draw(st.integers(0, len(rest)))]
    return profile, state, sites, environment, times, draw(st.integers(1, 4))


@contextlib.contextmanager
def _chunks_of(sites, per_site, rows=1):
    """Sweeps of ``per_site`` classes a site over ``rows`` rows in chunks
    of ``sites`` sites."""
    saved = rdm._CHUNK_BUDGET
    rdm._CHUNK_BUDGET = (1 if rows == 1 else 4) * per_site * sites
    try:
        yield
    finally:
        rdm._CHUNK_BUDGET = saved


@contextlib.contextmanager
def _no_mirror():
    """Sweeps that pair no site with its mirror image."""
    saved = rdm.mirror_images
    rdm.mirror_images = lambda profiles, sites, ls: None
    try:
        yield
    finally:
        rdm.mirror_images = saved


@NEAR
@given(mirror_instances())
def test_a_mirrored_sweep_matches_the_sweep_without_it(case):
    # sweeping one site of each mirror pair and reading the other's factors
    # at d o perm gives the table of sweeping both, to the rounding floor,
    # on any lattice, law, symmetric subset, environment, input and grid
    profile, state, sites, environment, times, chunk = case
    rows = 1 if times is None else len(times)
    if times is not None:
        profile = time_profiles(profile, times)
    with _chunks_of(chunk, (3 ** len(sites) + 1) // 2 * rows, rows):
        mirrored = environment_product(profile, state, sites, environment)
        with _no_mirror():
            plain = environment_product(profile, state, sites, environment)
    mirrored, plain = np.atleast_2d(mirrored), np.atleast_2d(plain)
    scale = np.abs(plain[:, plain.shape[1] // 2, None])     # d = 0: prod of p0 + p1
    assert (np.abs(mirrored - plain) <= _rounding_floor(profile.n_sites) * scale).all()


@NEAR
@given(st.data())
def test_a_mirrored_sweep_matches_the_oracle(data):
    lattice = data.draw(lattices(14).filter(lambda lat: lat.n_sites >= 8))
    n = lattice.n_sites
    profile = PhaseProfile(lattice, data.draw(distance_laws(lattice)),
                           data.draw(st.floats(0.1, 6.0)))
    state = data.draw(mirror_states(n))
    least = 2 if state._uniform else 5      # 5: enough classes that pairing it would show
    sites = data.draw(symmetric_subsets(lattice, kinds=("pair", "run", "box")).filter(
        lambda sites: len(sites) >= least))
    with _chunks_of(1, 1):      # chunks of one site: every sweep of a few is probed
        fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert 0.5 * np.abs(np.linalg.eigvalsh(fast - slow)).sum() < 1e-10


@NEAR
@given(st.data())
def test_mirror_images_give_each_site_its_images_phases(data):
    # the probe names every image that is in ``ls`` and on the lattice, and
    # an image's phases are its site's, subset site j's read at perm[j]
    lattice = data.draw(lattices(60))
    profile = PhaseProfile(lattice, data.draw(distance_laws(lattice)), data.draw(_TIMES))
    n = lattice.n_sites
    sites = data.draw(symmetric_subsets(lattice))
    ls = np.array(data.draw(st.lists(st.sampled_from([l for l in range(n) if l not in sites]),
                                     unique=True)) if len(sites) < n else [], dtype=np.intp)
    at = lattice.coords(sites)
    centre = at.min(axis=0) + at.max(axis=0)

    def image(site):
        c = [(s - x) % e if bound == "periodic" else s - x
             for s, x, e, bound in zip(centre, lattice.coords([site])[0], lattice.extents,
                                       lattice.boundary)]
        inside = all(0 <= x < e for x, e in zip(c, lattice.extents))
        return lattice.site_index(c) if inside else -1

    mirror = mirror_images((profile,), np.array(sites), ls)
    if sorted(map(image, sites)) != sorted(sites):
        assert mirror is None
        return
    perm, found = mirror
    assert [sites[j] for j in perm] == [image(k) for k in sites]
    ls_list = ls.tolist()
    assert found.tolist() == [ls_list.index(image(l)) if image(l) in ls_list else -1
                              for l in ls_list]
    paired = found >= 0
    assert (pair_phases(profile, sites, ls[found[paired]]).tobytes()
            == pair_phases(profile, np.array(sites)[perm], ls[paired]).tobytes())
    # a law that is not of distance alone has no table to mirror
    for other in (PhaseProfile(lattice, Disordered(PowerLaw(1.0), 3), 1.0),
                  EdgeProfile(n, {(0, n - 1): 1.0})):
        assert mirror_images((other,), np.array(sites), ls) is None


def _swept_sites(profile, state, sites):
    """The sites the sweep of ``sites`` hands to its parts, and its table."""
    counted = []
    sweep_part = rdm._sweep_part

    def counting(profiles, state, rows, env, near, swept):
        counted.append(near.size)
        return sweep_part(profiles, state, rows, env, near, swept)

    rdm._sweep_part = counting
    try:
        table = environment_product(profile, state, sites)
    finally:
        rdm._sweep_part = sweep_part
    return sum(counted), table


def test_a_centred_block_sweeps_half_its_environment():
    n = 2000
    profile = PhaseProfile(Lattice(n), PowerLaw(2.0), 0.3 * math.pi)
    plus = ProductInput.plus(n)
    centred = list(range(997, 1003))
    # every environment site of a centred block has its image on the chain
    swept, table = _swept_sites(profile, plus, centred)
    assert swept == (n - 6) // 2
    with _no_mirror():
        plain = environment_product(profile, plus, centred)
    assert np.abs(table - plain).max() <= _rounding_floor(n) * abs(plain[plain.size // 2])
    # split over two threads: bit for bit the parts swept in order
    rows = np.array([centred])
    env = rdm._resolve_environment(profile, rows)
    with _split(1, 2), _switching_often():
        split = rdm._sweep((profile,), plus, rows, env)
        assert split.tobytes() == _parts_in_order(profile, plus, rows, env, 2).tobytes()
    # off the centre, the sites beyond the image of the chain's near end
    # are swept alone; a pair at a grid of times is mirrored too, but for
    # the sites 0, 1, 2, whose images are off the chain, and its centre
    assert _swept_sites(profile, plus, list(range(100, 106)))[0] == 100 + (n - 106 - 100)
    times = [0.3, 1.0, 2.0, 3.0]
    assert _swept_sites(time_profiles(profile, times), plus, [999, 1003])[0] == (n - 6) // 2 + 4
    # an input whose populations differ between sites, at every site or
    # at one, keeps no pair: every near site is swept, bit for bit the
    # sweep without the mirror
    rng = np.random.default_rng(5)
    mixed = ProductInput.random(n, rng)
    amps = plus.amplitudes.copy()
    amps[10] = mixed.amplitudes[10]
    for state in (mixed, ProductInput(amps)):
        swept, table = _swept_sites(profile, state, centred)
        with _no_mirror():
            assert swept == n - 6 and table.tobytes() == environment_product(
                profile, state, centred).tobytes()


def test_small_sweeps_do_not_probe():
    # the probe runs only where the near sites span more than one chunk and
    # the sweep has enough classes a site to pay for it
    calls = []
    saved = rdm.mirror_images
    rdm.mirror_images = lambda *args: calls.append(1) or saved(*args)
    try:
        # the lone pairs of a nearest-neighbour chain at t = pi
        chain = PhaseProfile(Lattice(100), Cutoff(1.0), math.pi)
        for k in range(1, 98, 7):
            reduced_density(chain, ProductInput.plus(100), [k, k + 1])
        # a pair on a random input at N = 15,000, within one chunk
        n = 15_000
        profile = PhaseProfile(Lattice(n), PowerLaw(2.0), 0.3 * math.pi)
        mixed = ProductInput.random(n, np.random.default_rng(1))
        environment_product(profile, mixed, [n // 2, n // 2 + 3])
        # a random input, which keeps no pair, at 41 and 122 classes a site:
        # only an input with the same populations at every site is probed
        environment_product(profile, mixed, list(range(n // 2, n // 2 + 4)))
        environment_product(profile, mixed, list(range(n // 2, n // 2 + 5)))
        # one site: 2 classes a site, cheaper to sweep than to pair
        environment_product(profile, ProductInput.plus(n), [n // 2])
        # a stack of pairs
        environment_product(profile, ProductInput.plus(n), [[10, 11], [20, 22]])
        assert calls == []
        environment_product(profile, ProductInput.plus(n), [n // 2, n // 2 + 1, n // 2 + 2])
        assert calls == [1]
    finally:
        rdm.mirror_images = saved


# -- far field -----------------------------------------------------------

@st.composite
def far_laws(draw, lattice):
    """(law, times) on ``lattice`` whose phases fall below the fold's
    threshold somewhere, each time of the same kind: tiny times, where
    every site outside the subset's bounding box folds; a steep
    exponential at ordinary times, where only distant sites fold; a cutoff
    just short of a full turn, whose phases reduce to tiny negative ones;
    or a table of tiny strengths of either sign, which wrap the same way."""
    kind = draw(st.sampled_from(["tiny", "decaying", "wrapped", "signed"]))
    if kind == "tiny":
        law, times = draw(distance_laws(lattice)), st.floats(1e-13, 1e-11)
    elif kind == "decaying":
        law, times = Exponential(draw(st.floats(2.0, 6.0))), st.floats(0.1, 6.0)
    elif kind == "wrapped":
        law = Cutoff(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])))
        times = st.floats(1e-13, 1e-11).map(lambda eps: TWO_PI - eps)
    else:
        n = lattice.n_sites
        r = np.unique(np.concatenate([lattice.distances(k, np.arange(n)) for k in range(n)]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        law, times = Table(dict(zip(r.tolist(), rng.uniform(-1e-11, 1e-11, r.size)))), \
            st.floats(0.5, 6.0)
    return law, draw(st.lists(times, min_size=1, max_size=4))


@st.composite
def far_instances(draw):
    """(profile, state, sites, environment, chunk): a far law on a 1-3-D
    lattice of 8..150 sites, each axis open or periodic, and one of: a
    subset drawn towards the lattice's faces; a stack of two or three; a
    symmetric subset of an input with the same populations at every site,
    which is mirrored; or a subset at a grid of two to four times.  The
    default or an explicit environment, and sweeps in chunks of ``chunk``
    sites (None: the default; a mirrored subset always has a chunk, so
    that it is probed)."""
    lattice = draw(lattices(150).filter(lambda lat: lat.n_sites >= 8))
    n = lattice.n_sites
    law, times = draw(far_laws(lattice))
    kind = draw(st.sampled_from(["one", "stack", "mirrored", "grid"]))
    if kind == "mirrored":
        one = ProductInput.random(1, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
        state = ProductInput(np.repeat(one.amplitudes, n, axis=0))
        sites = draw(symmetric_subsets(lattice, m_max=3, kinds=("pair", "run", "box")))
    else:
        state = draw(near_states(n))
        pick = st.tuples(*[st.one_of(st.sampled_from([0, e - 1]), st.integers(0, e - 1))
                           for e in lattice.extents]).map(lattice.site_index)
        m = draw(st.integers(1, 3))
        pool = draw(st.lists(pick, min_size=m, max_size=m + 2, unique=True))
        sites = [draw(st.permutations(pool))[:m]
                 for _ in range(draw(st.integers(2, 3)) if kind == "stack" else 1)]
        sites = sites if kind == "stack" else sites[0]
    profile = PhaseProfile(lattice, law, times[0])
    if kind == "grid":
        profile = time_profiles(profile, times + [0.0])
    environment = None
    if draw(st.booleans()):
        rest = draw(st.permutations(sorted(set(range(n)) - set(np.ravel(sites).tolist()))))
        environment = rest[:draw(st.integers(1, len(rest)))]
    chunks = st.integers(1, 4)
    return profile, state, sites, environment, draw(
        chunks if kind == "mirrored" else st.one_of(st.none(), chunks))


def _rho_from_factors(profile, state, sites, table):
    """The state of ``sites`` assembled entry by entry from its environment
    table, with the phases of the couplings inside the subset."""
    m = len(sites)
    bits = list(itertools.product((0, 1), repeat=m))
    amps, phi = state.amplitudes[sites], pair_phases(profile, sites, sites)
    pow3 = 3 ** np.arange(m - 1, -1, -1)

    def amplitude(x):
        internal = sum(phi[j, k] * x[j] * x[k] for j in range(m) for k in range(j + 1, m))
        return np.prod([amps[j, x[j]] for j in range(m)]) * np.exp(-1j * internal)

    rho = np.array([[amplitude(x) * np.conj(amplitude(y))
                     * table[int(((np.subtract(x, y) + 1) * pow3).sum())] for y in bits]
                    for x in bits])
    return rho / np.trace(rho).real


@NEAR
@given(far_instances())
def test_the_far_fold_matches_environment_factor(case):
    # the sites folded at first order give every class, row and time the
    # factors of the whole-environment reference loop, to the rounding
    # floor, and so the state assembled from them
    profile, state, sites, environment, chunk = case
    grid = isinstance(profile, tuple)
    rows = np.atleast_2d(sites)
    with _chunks_of(chunk, 1) if chunk else contextlib.nullcontext():
        tables = np.atleast_2d(environment_product(profile, state, sites, environment))
        rhos = reduced_density(profile, state, sites, environment=environment).reshape(
            len(tables), 2 ** rows.shape[1], -1)
    floor = _rounding_floor(profile.n_sites)
    lone = [(p, rows[0]) for p in profile] if grid else [(profile, row) for row in rows]
    for (p, row), table, rho in zip(lone, tables, rhos):
        scale = abs(table[table.size // 2])
        for code, x, y in _classes(len(row)):
            direct = environment_factor(p, state, row, x, y, environment=environment)
            assert abs(table[code] - direct) <= floor * scale, (code, table[code], direct)
        assert np.abs(rho - _rho_from_factors(p, state, row, table)).max() <= floor


@NEAR
@given(st.data())
def test_a_folded_state_matches_the_oracle(data):
    # at a tiny time, or a full turn less a tiny one, every environment site
    # outside the subset's bounding box is folded, none swept; the state
    # stays within the oracle's own rounding, far below the first-order
    # term it folds (about 1e-12 here)
    lattice = data.draw(lattices(14).filter(lambda lat: lat.n_sites >= 3))
    n = lattice.n_sites
    law, times = data.draw(far_laws(lattice).filter(lambda lt: lt[1][0] < 1e-10
                                                    or lt[1][0] > 6.0))
    profile = PhaseProfile(lattice, law, times[0])
    state = data.draw(states(n))
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n - 1),
                               unique=True))
    rows = np.array([sites])
    env = rdm._resolve_environment(profile, rows)
    near = env[rdm._near_and_far((profile,), rows, env)[0]]
    lo, hi = lattice.coords(sites).min(axis=0), lattice.coords(sites).max(axis=0)
    assert ((lattice.coords(near) >= lo) & (lattice.coords(near) <= hi)).all()
    fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert np.abs(fast - slow).max() < 1e-14


def test_the_folded_sites_certify_their_remainder():
    # log(p0 + p1 e^{-i theta}) less its first-order term is at most
    # theta^2 / 8 (1 + theta^2 / 4) a site, and |theta| <= s = sum_k |phi~_k|:
    # on the phases of the sites the sweep folds, (1/8) sum s^2 <= 2^-53 for
    # every row and time.  Each folded phase is at most the threshold
    # tau = sqrt(2^-53 / (m^2 |env| / 8)), which bounds that sum by 2^-53
    # whatever the phases
    rng = np.random.default_rng(4)
    chain = PhaseProfile(Lattice(20_000), Exponential(1.0), 0.3 * math.pi)
    power = PhaseProfile(Lattice(100_000), PowerLaw(3.0), 0.3 * math.pi)
    grid = time_profiles(PhaseProfile(Lattice((60, 70)), Exponential(2.0), 0.0), [0.0, 0.5, 3.0])
    wrapped = PhaseProfile(Lattice((30, 40), ("open", "periodic")), Cutoff(2.0), TWO_PI - 1e-12)
    # strong at r <= 3 and again at 51..53, weak between: the reach at the
    # threshold is 53, past the gap
    gap = Table({r: 1.0 if r <= 3 or 51 <= r <= 53 else 1e-15 if r <= 60 else 0.0
                 for r in range(3000)})
    cases = [
        ((chain,), [[10_000, 10_000 + r] for r in range(1, 65)], None),
        ((power,), [list(range(49_996, 50_004))], None),
        (grid, [[2000, 2001, 2070, 2071]], None),
        ((wrapped,), [[600, 641], [5, 1199]], rng.permutation(1200)[:900]),
        ((PhaseProfile(Lattice(3000), gap, 1.0),), [[1500, 1502]], None),
    ]
    for profiles, sites, environment in cases:
        rows = np.array(sites)
        environment = None if environment is None else np.setdiff1d(environment, rows)
        env = rdm._resolve_environment(profiles[0], rows, environment)
        far = env[rdm._near_and_far(profiles, rows, env)[1]]
        assert far.size > 0
        tau = math.sqrt(2.0 ** -53 / (rows.shape[1] ** 2 * env.size / 8))
        for profile in profiles:
            phi = np.abs(_centred(pair_phases(profile, rows,
                                              np.broadcast_to(far, (len(rows), far.size)))))
            assert phi.max() <= tau
            s = phi.sum(axis=1)         # (rows, far sites)
            assert ((s ** 2).sum(axis=1) / 8 <= 2.0 ** -53).all()


def test_a_far_field_keeps_the_sweep_flat_in_the_lattice_size():
    # the paper's "arbitrarily large N": the 64 pairs of a pair-correlations
    # scan on an Exponential(1) chain sweep about 111 sites however long the
    # chain, not the 1,554 of the box where phases underflow to 0.0.  The
    # threshold scales as N^-1/2, so ten times the sites moves the reach by
    # ln sqrt(10), about 1.2 sites a side
    swept = []
    for n in (20_000, 200_000):
        profile = PhaseProfile(Lattice(n), Exponential(1.0), 0.3 * math.pi)
        state = ProductInput.random(n, np.random.default_rng(7))
        pairs = [[n // 2, n // 2 + r] for r in range(1, 65)]
        swept.append(_swept_sites(profile, state, pairs)[0])
        rows = np.array(pairs)
        assert coupled_sites((profile,), rows, rdm._resolve_environment(profile, rows)).size == 1554
    assert swept[0] == 108
    assert 0 <= swept[1] - swept[0] <= 4
