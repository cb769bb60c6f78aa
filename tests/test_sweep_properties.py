"""Property tests of the environment sweep, :func:`wgstate.rdm.environment_product`.

The sweep computes half of the 3^m difference classes, mirrors the rest by
complex conjugation, skips environment sites whose phases to the subset
are exactly 0 and works in cache-sized chunks, read a few to a block.  For
a law of distance alone it reads phases and factors from the cached
displacement tables and looks only inside the subset's near box.  Each of
those shortcuts is checked here against the one-class-at-a-time reference
:func:`wgstate.rdm.environment_factor` and, for the assembled matrix,
against the statevector oracle.  A stack of subsets swept at once is
checked against each subset's own sweep, a nested block's state traced
out of a larger block's ρ as well, and on periodic lattices a subset's
state against that of its translate.  Entropies are checked for
strong subadditivity and against a growing environment.  Examples are
derandomized so the suite runs the same cases every time.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
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
