"""Every public entry point that takes a site list checks it, and the input
state, against one contract and raises the same ValueError for a breach."""

import math

import pytest

from wgstate.geometry import Lattice, PhaseProfile, PowerLaw
from wgstate.graphstate import block_adjacency
from wgstate.measures import (
    block_entropy,
    block_entropy_lower,
    block_entropy_upper,
    meyer_wallach,
)
from wgstate.rdm import ProductInput, environment_product, reduced_density

N = 30

# entry point -> call(profile, state, sites); block_adjacency takes no state
ENTRY_POINTS = {
    "environment_product": environment_product,
    "reduced_density": reduced_density,
    "block_entropy": block_entropy,
    "block_entropy_upper": block_entropy_upper,
    "block_entropy_lower": lambda p, s, sites: block_entropy_lower(p, s, sites, radius=2.0),
    "meyer_wallach": meyer_wallach,
    "block_adjacency": lambda p, s, sites: block_adjacency(p, sites),
}

SITE_CASES = {
    "empty": ([], "subset must contain at least one site"),
    "negative": ([3, -1], r"site index out of range 0\.\.29"),
    "past_end": ([3, N], r"site index out of range 0\.\.29"),
    "repeat": ([4, 5, 4], "subset contains repeated sites"),
    # in sub-blocks of 4, [10..13], [0..3], [10..13]: no adjacent pair repeats
    "spread_repeat": ([*range(10, 14), *range(4), *range(10, 14)],
                      "subset contains repeated sites"),
}

STATE_CASES = {"short_state": N - 1, "long_state": N + 1}

# entry points whose site limit is the lattice, not the exact ceiling
WHOLE_LATTICE = {"block_entropy_upper", "block_entropy_lower", "meyer_wallach",
                 "block_adjacency"}


def _cases(entry):
    cases = [c for c in SITE_CASES if c != "spread_repeat" or entry in WHOLE_LATTICE]
    return cases + ([] if entry == "block_adjacency" else list(STATE_CASES))


def _profile():
    return PhaseProfile(Lattice(N), PowerLaw(alpha=1.0), time=0.3 * math.pi)


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRY_POINTS for case in _cases(entry)])
def test_entry_points_share_one_contract(entry, case):
    if case in STATE_CASES:
        sites, message = [3, 4], f"input state has {STATE_CASES[case]} sites, the profile {N}"
        state = ProductInput.plus(STATE_CASES[case])
    else:
        (sites, message), state = SITE_CASES[case], ProductInput.plus(N)
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](_profile(), state, sites)
