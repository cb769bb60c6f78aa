"""The benchmark's workloads: generated CLI configs and their correctness gates.

Each workload is a list of ``wgstate`` CLI invocations built from a seed.
The seed places blocks and sites and draws random inputs; the program only
ever sees the generated INI text and its ``--seed`` flag.  ``tiny=True``
builds the same workload on at most 14 sites, small enough for the
statevector oracle, which is how the benchmark's own tests prove the gates.

A gate runs outside the timed region.  ``reference`` computes independent
values once (through paths the CLI does not take, such as
``rdm.environment_factor`` and ``rdm.single_site_coherence``), and
``check`` compares every output row against them and against the
invariants the row must satisfy.  A row fails if its invocation exited
non-zero or raised, if it is missing, or if any check on it fails.
"""

from __future__ import annotations

import configparser
import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Absolute tolerances of the gates.  Relations between bounds hold exactly
# up to rounding; independent recomputations agree to ~1e-12 at these sizes.
_ORDER_TOL = 1e-9
_MATCH_TOL = 1e-8


class CheckoutError(RuntimeError):
    """The program's sources are not where the benchmark expects them."""


def load_wgstate():
    """Import ``wgstate`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "wgstate"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no wgstate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wg = importlib.import_module("wgstate")
    if Path(wg.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"imported wgstate from {wg.__file__}, not from {package}")
    for name in ("cli", "geometry", "graphstate", "measures", "oracle", "rdm"):
        importlib.import_module(f"wgstate.{name}")
    return wg


@dataclass
class Invocation:
    command: str
    config: str
    n_rows: int
    cli_seed: int = 0

    def argv(self, config_path, out_path) -> list[str]:
        return [self.command, "--config", str(config_path), "--format", "json",
                "--out", str(out_path), "--seed", str(self.cli_seed)]


def _ini(sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def profile_from_config(wg, text: str):
    """The phase profile an INI config describes, built through the public parsers."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(text)
    lattice = wg.geometry.parse_lattice(dict(cp.items("lattice")))
    law = wg.geometry.parse_law(dict(cp.items("law")))
    return wg.geometry.PhaseProfile(lattice, law, float(cp.get("time", "t_over_pi")) * math.pi)


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def rows_of(payload: dict) -> list[dict]:
    return [dict(zip(payload["columns"], row)) for row in payload["rows"]]


class Workload:
    name = ""

    def __init__(self):
        self.invocations: list[Invocation] = []

    @property
    def n_rows(self) -> int:
        return sum(inv.n_rows for inv in self.invocations)

    def reference(self, wg) -> dict:
        """Independent values for the gate, computed once per run."""
        raise NotImplementedError

    def check_rows(self, index: int, rows: list[dict], ref: dict):
        """Yield (row number, reason) for each failed row of invocation ``index``."""
        raise NotImplementedError

    def check(self, outputs: list, ref: dict) -> list[tuple[int, int, str]]:
        """Failed rows of one pass as (invocation, row, reason).

        ``outputs[i]`` is the parsed JSON table of invocation i, or None when
        the invocation exited non-zero or raised.
        """
        failed = []
        for i, (inv, payload) in enumerate(zip(self.invocations, outputs)):
            if payload is None:
                failed += [(i, r, "invocation failed") for r in range(inv.n_rows)]
                continue
            rows = rows_of(payload)
            failed += [(i, r, "row missing") for r in range(len(rows), inv.n_rows)]
            rows = rows[:inv.n_rows]
            bad = {}
            for r, reason in self.check_rows(i, rows, ref):
                bad.setdefault(r, reason)
            failed += [(i, r, reason) for r, reason in sorted(bad.items())]
        return failed


class EntropyChain(Workload):
    """``entropy-scan`` on an open power-law chain, blocks near the exact ceiling."""

    name = "entropy-chain"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        if tiny:
            self.n, self.sizes, self.m, self.radius = 14, [3, 6], 2, 2
        else:
            self.n, self.sizes, self.m, self.radius = 15_000, [5, 6, 7], 4, 4
        lo = self.n // 4 if not tiny else 2
        self.start = int(rng.integers(lo, self.n - lo - max(self.sizes) + 1))
        config = _ini({
            "lattice": {"extents": self.n},
            "law": {"variant": "power", "alpha": 2},
            "time": {"t_over_pi": 0.3},
            "task": {"sizes": ",".join(map(str, self.sizes)), "m": self.m,
                     "radius": self.radius, "start": self.start},
        })
        self.invocations = [Invocation("entropy-scan", config, len(self.sizes))]

    def reference(self, wg) -> dict:
        """Entropy of the first block, its density matrix assembled entry by
        entry from ``environment_factor`` (one call per bit difference x - y)."""
        profile = profile_from_config(wg, self.invocations[0].config)
        state = wg.rdm.ProductInput.plus(self.n)
        size = self.sizes[0]
        block = np.arange(self.start, self.start + size)
        bits = (np.arange(2 ** size)[:, None] >> np.arange(size - 1, -1, -1)) & 1
        pairs = [(i, j, profile.phase(int(block[i]), int(block[j])))
                 for i in range(size) for j in range(i + 1, size)]
        internal = np.array([sum(phi * b[i] * b[j] for i, j, phi in pairs) for b in bits])
        factors = {}
        rho = np.empty((bits.shape[0], bits.shape[0]), dtype=np.complex128)
        for x, bx in enumerate(bits):
            for y, by in enumerate(bits):
                d = tuple(bx - by)
                if d not in factors:
                    factors[d] = wg.rdm.environment_factor(profile, state, block, bx, by)
                rho[x, y] = np.exp(-1j * (internal[x] - internal[y])) * factors[d]
        rho /= np.trace(rho).real
        p = np.linalg.eigvalsh(rho)
        p = p[p > 0.0]
        return {"exact_0": float(-(p * np.log2(p)).sum())}

    def check_rows(self, index, rows, ref):
        for r, row in enumerate(rows):
            size, exact, upper, lower = row["size"], row["exact"], row["upper"], row["lower"]
            if size != self.sizes[r]:
                yield r, f"size {size} != {self.sizes[r]}"
            elif exact is None or upper is None or lower is None:
                yield r, "blank cell"
            elif not -_ORDER_TOL <= lower <= exact + _ORDER_TOL:
                yield r, f"lower {lower} > exact {exact}"
            elif not exact <= upper + _ORDER_TOL or upper > size + _ORDER_TOL:
                yield r, f"exact {exact} > upper {upper}"
            elif r == 0 and "exact_0" in ref and abs(exact - ref["exact_0"]) > _MATCH_TOL:
                yield r, f"exact {exact} != {ref['exact_0']} from environment_factor"


def _pauli_correlation(rho: np.ndarray) -> float:
    """Largest singular value of the connected Pauli correlation matrix."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    eye = np.eye(2)
    one_k = [np.trace(rho @ np.kron(s, eye)).real for s in paulis]
    one_l = [np.trace(rho @ np.kron(eye, s)).real for s in paulis]
    q = np.array([[np.trace(rho @ np.kron(sa, sb)).real - one_k[a] * one_l[b]
                   for b, sb in enumerate(paulis)] for a, sa in enumerate(paulis)])
    return float(np.linalg.svd(q, compute_uv=False)[0])


class PairCorrelations(Workload):
    """``correlations`` on an open exponential chain with a random product input."""

    name = "pair-correlations"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n, self.max_sep = (12, 4) if tiny else (20_000, 64)
        lo = 1 if tiny else self.n // 4
        self.site = int(rng.integers(lo, self.n - self.max_sep - lo + 1))
        self.cli_seed = int(rng.integers(0, 2 ** 31))
        middle = int(rng.integers(2, self.max_sep))
        self.checked = sorted({1, middle, self.max_sep})
        config = _ini({
            "lattice": {"extents": self.n},
            "law": {"variant": "exponential", "kappa": 1},
            "time": {"t_over_pi": 0.3},
            "state": {"kind": "random"},
            "task": {"separations": f"1:{self.max_sep}", "site": self.site},
        })
        self.invocations = [Invocation("correlations", config, self.max_sep, self.cli_seed)]

    def state(self, wg):
        # the CLI draws `[state] kind = random` from a generator seeded by --seed
        return wg.rdm.ProductInput.random(self.n, np.random.default_rng(self.cli_seed))

    def reference(self, wg) -> dict:
        """q_max, concurrence and assistance of a pair state assembled entry by
        entry from ``environment_factor``, for a few separations."""
        profile = profile_from_config(wg, self.invocations[0].config)
        state = self.state(wg)
        out = {}
        for sep in self.checked:
            sites = [self.site, self.site + sep]
            amps = state.amplitudes[sites]
            phi = profile.phase(*sites)
            rho = np.empty((4, 4), dtype=np.complex128)
            for x in range(4):
                for y in range(4):
                    bx, by = divmod(x, 2), divmod(y, 2)
                    rho[x, y] = (amps[0, bx[0]] * amps[1, bx[1]]
                                 * np.conj(amps[0, by[0]] * amps[1, by[1]])
                                 * np.exp(-1j * phi * (bx[0] * bx[1] - by[0] * by[1]))
                                 * wg.rdm.environment_factor(profile, state, sites, bx, by))
            rho /= np.trace(rho).real
            out[sep] = {"q_max": _pauli_correlation(rho),
                        "concurrence": wg.measures.concurrence(rho),
                        "assistance_upper": wg.measures.concurrence_of_assistance(rho)}
        return out

    def check_rows(self, index, rows, ref):
        for r, row in enumerate(rows):
            sep = r + 1
            q, c, a = row["q_max"], row["concurrence"], row["assistance_upper"]
            if row["separation"] != sep:
                yield r, f"separation {row['separation']} != {sep}"
            elif not (q <= a + _ORDER_TOL and c <= a + _ORDER_TOL and min(q, c) >= 0.0):
                yield r, f"q_max {q} or concurrence {c} above assistance {a}"
            elif sep in ref:
                for key, want in ref[sep].items():
                    if abs(row[key] - want) > _MATCH_TOL:
                        yield r, f"{key} {row[key]} != {want} from environment_factor"
                        break


class GraphRank2D(Workload):
    """``graph-rank`` of square boxes on an open grid at the stabilizer point."""

    name = "graph-rank-2d"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        if tiny:
            self.extents, self.sides, self.reach = (3, 4), [1], 1
        else:
            self.extents, self.sides, self.reach = (120, 120), [10, 20, 30], 2
        # the closed form needs a margin of at least `reach` to every boundary
        self.offsets = [tuple(int(rng.integers(self.reach, e - side - self.reach + 1))
                              for e in self.extents) for side in self.sides]
        base = {
            "lattice": {"extents": ", ".join(map(str, self.extents))},
            "law": {"variant": "cutoff", "lambda": self.reach},
            "time": {"t_over_pi": 1},
        }
        self.invocations = [
            Invocation("graph-rank", _ini({**base, "task": {"block": self.block_text(side, off)}}), 1)
            for side, off in zip(self.sides, self.offsets)]

    def block_sites(self, side: int, offset) -> np.ndarray:
        rows = np.arange(offset[0], offset[0] + side)[:, None]
        cols = np.arange(offset[1], offset[1] + side)[None, :]
        return (rows * self.extents[1] + cols).ravel()

    def block_text(self, side: int, offset) -> str:
        width = self.extents[1]
        return ", ".join(f"{r * width + offset[1]}:{r * width + offset[1] + side - 1}"
                         for r in range(offset[0], offset[0] + side))

    def reference(self, wg) -> dict:
        return {side: wg.graphstate.analytic_block_entropy(2, side, self.reach)
                for side in self.sides}

    def check_rows(self, index, rows, ref):
        side = self.sides[index]
        for r, row in enumerate(rows):
            rank, count = row["rank_entropy"], row["vertex_count"]
            if row["block"] != f"block[{side * side}]":
                yield r, f"block label {row['block']!r}"
            elif rank != ref[side]:
                yield r, f"rank {rank} != analytic {ref[side]} for side {side}"
            elif rank > count:
                yield r, f"rank {rank} > vertex count {count}"


class DynamicsMW(Workload):
    """``dynamics`` on an open 1/r chain: time grid, block entropies and Meyer-Wallach."""

    name = "dynamics-mw"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        if tiny:
            self.n, self.steps, self.l_max = 10, 4, 3
        else:
            self.n, self.steps, self.l_max = 1200, 11, 4
        lo = 0 if tiny else self.n // 4
        self.start = int(rng.integers(lo, self.n - lo - self.l_max + 1))
        self.separation = int(rng.integers(1, 5))
        self.mw_checked = sorted(int(i) for i in rng.choice(
            np.arange(1, self.steps), size=min(2, self.steps - 1), replace=False))
        self.times = np.linspace(0.0, 1.0, self.steps)
        config = _ini({
            "lattice": {"extents": self.n},
            "law": {"variant": "power", "alpha": 1},
            "time": {"t_over_pi": 0.0},
            "task": {"grid": f"0:1:{self.steps}", "l_max": self.l_max,
                     "separation": self.separation, "start": self.start},
        })
        self.invocations = [Invocation("dynamics", config, self.steps)]

    def reference(self, wg) -> dict:
        """Single-site coherences from the closed form: S_1 of the first block
        site at every time, and e_mw = 1 - mean |c_k|^2 at a few times."""
        base = profile_from_config(wg, self.invocations[0].config)
        s_1, e_mw = [], {}
        for i, t in enumerate(self.times):
            profile = wg.geometry.PhaseProfile(base.lattice, base.law, float(t) * math.pi)
            c = abs(wg.rdm.single_site_coherence(profile, self.start))
            s_1.append(_binary_entropy(0.5 * (1.0 + min(c, 1.0))))
            if i in self.mw_checked:
                mags = [abs(wg.rdm.single_site_coherence(profile, k)) for k in range(self.n)]
                e_mw[i] = 1.0 - float(np.mean(np.square(mags)))
        return {"s_1": s_1, "e_mw": e_mw}

    def check_rows(self, index, rows, ref):
        for r, row in enumerate(rows):
            entropies = [row[f"s_{l}"] for l in range(1, self.l_max + 1)]
            if abs(row["t_over_pi"] - self.times[r]) > 1e-12:
                yield r, f"time {row['t_over_pi']} != {self.times[r]}"
            elif any(not -_ORDER_TOL <= s <= l + _ORDER_TOL
                     for l, s in enumerate(entropies, start=1)):
                yield r, f"block entropy out of range: {entropies}"
            elif not (row["q_max"] >= 0.0 and -_ORDER_TOL <= row["e_mw"] <= 1.0 + _ORDER_TOL):
                yield r, f"q_max {row['q_max']} or e_mw {row['e_mw']} out of range"
            elif ref and abs(entropies[0] - ref["s_1"][r]) > _MATCH_TOL:
                yield r, f"s_1 {entropies[0]} != {ref['s_1'][r]} from single_site_coherence"
            elif r in ref.get("e_mw", {}) and abs(row["e_mw"] - ref["e_mw"][r]) > _MATCH_TOL:
                yield r, f"e_mw {row['e_mw']} != {ref['e_mw'][r]} from single_site_coherence"


WORKLOADS = {cls.name: cls for cls in (EntropyChain, PairCorrelations, GraphRank2D, DynamicsMW)}
