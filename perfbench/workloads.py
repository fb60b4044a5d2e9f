"""Workload definitions: a fixed pool of configurations per workload and
the seeded stream of blocks drawn from it.

Every configuration the program sees comes from a pool that is generated
here from fixed pool seeds, so the reference outputs recorded by
``make_reference.py`` cover every configuration any benchmark seed can
produce.

A block holds one entry per stratum listed in ``BLOCK_STRATA``. A stratum
is a list of slots (a size, or a kind of malformation) and each slot has
one or more variants (random knots, nodes or trial-function seeds). Block
``i`` takes the same slots for every seed, zig-zagging out from the middle
slot as ``i`` grows so that the first few blocks are balanced around the
middle size; the benchmark seed picks the variant in each slot and the
order of the block. So seeds differ in inputs but not in the amount of
work, and the benchmark measures in whole blocks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("catalog-sweep", "large-operator", "high-degree")

#: Pool seeds: changing one changes the pool and requires new references.
POOL_SEEDS = {"catalog-sweep": 1403, "large-operator": 4522, "high-degree": 31}

#: Strata per block. A stratum listed twice contributes two distinct entries.
BLOCK_STRATA = {
    "catalog-sweep": (
        "bernstein-a", "bernstein-b", "bernstein-c", "bernstein-d",
        "kantorovich-a", "kantorovich-b", "kantorovich-c", "kantorovich-d",
        "schoenberg-1", "schoenberg-2", "schoenberg-3",
        "hat-dirac-a", "hat-dirac-b", "hat-dirac-c", "hat-dirac-d",
        "custom-swap", "custom-zero-diagonal", "custom-mixed",
        "malformed", "malformed",
    ),
    "large-operator": ("hat-average", "schoenberg-cubic", "hat-dirac-large"),
    "high-degree": ("bernstein-31",),
}

#: Small configuration analysed once before timing starts.
WARMUP_ID = {
    "catalog-sweep": "kantorovich-n02",
    "large-operator": "warmup-hat-average",
    "high-degree": "warmup-bernstein",
}

# Malformed configurations are left out of the latency metrics. The README
# contract is exit 2 with a one-line message for each of them. An operator
# with n > MAX_DIMENSION (500) is deliberately absent: the program checks
# that size only after its O(n^3) checks, so such a config would run for
# hours instead of failing fast.
MALFORMED_TYPES = ("missing-field", "wrong-type", "unknown-kind", "nan-tolerance",
                   "infinite-tolerance", "dirac-outside-domain", "nodes-not-increasing")


@dataclass(frozen=True)
class Entry:
    """One pool configuration."""

    id: str
    stratum: str
    config: dict
    malformed: bool = False
    slot: int = 0

    def text(self) -> str:
        """The exact bytes the program reads (NaN/Infinity kept literal)."""
        return json.dumps(self.config) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()[:16]


def breakpoints(rng: np.random.Generator, count: int, min_gap: float = 0.25) -> list[float]:
    """``count`` strictly increasing points from 0 to 1. No gap is smaller
    than ``min_gap`` times the mean gap, so every cell stays wider than a
    few spacings of the default 1001-point verification grid."""
    gaps = rng.dirichlet(np.ones(count - 1))
    gaps = (gaps + min_gap / (count - 1)) / (1.0 + min_gap)
    pts = np.concatenate(([0.0], np.cumsum(gaps)))
    pts[-1] = 1.0
    return [float(x) for x in pts]


def _clamped(bps: list[float], degree: int) -> list[float]:
    return [bps[0]] * degree + bps + [bps[-1]] * degree


def _hat(nodes: list[float], functionals: list[dict]) -> dict:
    return {"operator": "custom", "basis": {"kind": "hat", "nodes": nodes},
            "functionals": functionals}


def _dirac(x: float) -> dict:
    return {"kind": "dirac", "x": x}


def _cell_edges(nodes: list[float]) -> list[float]:
    mids = [(a + b) / 2.0 for a, b in zip(nodes, nodes[1:])]
    return [nodes[0]] + mids + [nodes[-1]]


def _catalog_pool(rng: np.random.Generator) -> list[Entry]:
    out: list[Entry] = []
    strata = {"a": range(1, 9), "b": range(9, 16), "c": range(16, 23), "d": range(23, 31)}
    for kind in ("bernstein", "kantorovich"):
        for label, ns in strata.items():
            for slot, n in enumerate(ns):
                seed = int(rng.integers(0, 10_000))
                out.append(Entry(f"{kind}-n{n:02d}", f"{kind}-{label}",
                                 {"operator": kind, "n": n, "seed": seed}, slot=slot))
    for degree in (1, 2, 3):
        # Ten sizes from 3 to 27 - degree breakpoints, two knot vectors each.
        for slot, count in enumerate(np.linspace(3, 27 - degree, 10).round().astype(int)):
            for v in range(2):
                bps = breakpoints(rng, int(count))
                out.append(Entry(f"schoenberg-d{degree}-{slot}{'ab'[v]}",
                                 f"schoenberg-{degree}",
                                 {"operator": "schoenberg", "degree": degree,
                                  "knots": _clamped(bps, degree),
                                  "seed": int(rng.integers(0, 10_000))}, slot=slot))
    for label, (lo, hi) in {"a": (3, 15), "b": (16, 30), "c": (31, 45), "d": (46, 60)}.items():
        for slot, count in enumerate(np.linspace(lo, hi, 8).round().astype(int)):
            for v in range(2):
                out.append(Entry(f"hat-dirac-{label}{slot}{'ab'[v]}", f"hat-dirac-{label}",
                                 {"operator": "hat-dirac", "nodes": breakpoints(rng, int(count)),
                                  "seed": int(rng.integers(0, 10_000))}, slot=slot))
    # Crossed Dirac: the README's two-node swap, then random derangements of
    # the nodes. Each has a peripheral eigenvalue other than 1.
    out.append(Entry("custom-swap-0", "custom-swap",
                     _hat([0.0, 1.0], [_dirac(1.0), _dirac(0.0)])))
    for i in range(1, 5):
        nodes = breakpoints(rng, int(rng.integers(3, 7)))
        perm = np.roll(np.arange(len(nodes)), int(rng.integers(1, len(nodes))))
        out.append(Entry(f"custom-swap-{i}", "custom-swap",
                         _hat(nodes, [_dirac(nodes[p]) for p in perm])))
    # Zero diagonal: one functional evaluates at its neighbour's node. The
    # matrix is idempotent with spectrum {0, 1}: conforming but inconclusive.
    for i in range(5):
        nodes = breakpoints(rng, int(rng.integers(3, 9)))
        k = int(rng.integers(0, len(nodes)))
        target = k + 1 if k + 1 < len(nodes) else k - 1
        funcs = [_dirac(x) for x in nodes]
        funcs[k] = _dirac(nodes[target])
        out.append(Entry(f"custom-zero-diagonal-{i}", "custom-zero-diagonal",
                         _hat(nodes, funcs)))
    # Mixed Dirac / cell-average functionals: the program has no analytic
    # kernel witness for this mix, so kernel_residual fails (exit 1).
    for i in range(5):
        nodes = breakpoints(rng, int(rng.integers(3, 12)))
        edges = _cell_edges(nodes)
        funcs = [_dirac(x) if k % 2 == 0 else
                 {"kind": "interval-average", "a": edges[k], "b": edges[k + 1]}
                 for k, x in enumerate(nodes)]
        out.append(Entry(f"custom-mixed-{i}", "custom-mixed", _hat(nodes, funcs)))
    out.extend(_malformed_pool(rng))
    return out


def _malformed_pool(rng: np.random.Generator) -> list[Entry]:
    out = []
    for i in range(3):
        n = int(rng.integers(2, 9))
        nodes = breakpoints(rng, int(rng.integers(3, 8)))
        bad_nodes = list(nodes)
        j = int(rng.integers(1, len(nodes) - 1))
        bad_nodes[j] = bad_nodes[j - 1]
        variants = {
            "missing-field": [{"operator": "bernstein"},
                              {"operator": "schoenberg", "knots": _clamped(nodes, 2)},
                              {"operator": "custom", "basis": {"kind": "hat", "nodes": nodes}}][i],
            "wrong-type": [{"operator": "kantorovich", "n": str(n)},
                           {"operator": "bernstein", "n": float(n) + 0.5},
                           {"operator": "hat-dirac", "nodes": "0 0.5 1"}][i],
            "unknown-kind": [{"operator": "chebyshev", "n": n},
                             _hat(nodes, [{"kind": "gauss", "x": x} for x in nodes]),
                             {"operator": "custom", "basis": {"kind": "wavelet", "n": n},
                              "functionals": []}][i],
            "nan-tolerance": {"operator": "kantorovich", "n": n,
                              "tolerances": {"peripheral": float("nan")}},
            "infinite-tolerance": {"operator": "bernstein", "n": n,
                                   "tolerances": {"norm": float("inf")}},
            "dirac-outside-domain": _hat(nodes, [_dirac(x) for x in nodes[:-1]]
                                         + [_dirac(1.0 + 0.5 * (i + 1))]),
            "nodes-not-increasing": [{"operator": "hat-dirac", "nodes": bad_nodes},
                                     _hat(bad_nodes, [_dirac(x) for x in bad_nodes]),
                                     {"operator": "hat-dirac", "nodes": nodes[::-1]}][i],
        }
        for slot, kind in enumerate(MALFORMED_TYPES):
            out.append(Entry(f"malformed-{kind}-{i}", "malformed", variants[kind],
                             malformed=True, slot=slot))
    return out


def _large_pool(rng: np.random.Generator) -> list[Entry]:
    out = [Entry("warmup-hat-average", "warmup",
                 _hat_average(breakpoints(rng, 12), 0))]
    for i in range(6):
        # Hat basis with one cell average per hat on a random partition: a
        # tridiagonal, conforming matrix with distinct real eigenvalues.
        out.append(Entry(f"hat-average-{i}", "hat-average",
                         _hat_average(breakpoints(rng, 160), int(rng.integers(0, 10_000)))))
        out.append(Entry(f"schoenberg-cubic-{i}", "schoenberg-cubic",
                         {"operator": "schoenberg", "degree": 3,
                          "knots": _clamped(breakpoints(rng, 78), 3),
                          "seed": int(rng.integers(0, 10_000))}))
        out.append(Entry(f"hat-dirac-large-{i}", "hat-dirac-large",
                         {"operator": "hat-dirac", "nodes": breakpoints(rng, 300),
                          "seed": int(rng.integers(0, 10_000))}))
    return out


def _hat_average(nodes: list[float], seed: int) -> dict:
    edges = _cell_edges(nodes)
    config = _hat(nodes, [{"kind": "interval-average", "a": a, "b": b}
                          for a, b in zip(edges, edges[1:])])
    config["seed"] = seed
    return config


def _high_degree_pool(rng: np.random.Generator) -> list[Entry]:
    # n = 31 is the first degree past BERNSTEIN_RECURRENCE_DEGREE = 30, so
    # the basis is evaluated by the triangular recurrence. Entries differ in
    # the seed of the random trial functions.
    out = [Entry("warmup-bernstein", "warmup", {"operator": "bernstein", "n": 3})]
    for i in range(4):
        out.append(Entry(f"bernstein-31-{i}", "bernstein-31",
                         {"operator": "bernstein", "n": 31,
                          "seed": int(rng.integers(0, 10_000))}))
    return out


_BUILDERS = {"catalog-sweep": _catalog_pool, "large-operator": _large_pool,
             "high-degree": _high_degree_pool}


def pool(workload: str) -> dict[str, Entry]:
    """All configurations a workload can run, by id."""
    entries = _BUILDERS[workload](np.random.default_rng(POOL_SEEDS[workload]))
    return {e.id: e for e in entries}


def zigzag(position: int, count: int) -> int:
    """Slot for ``position``: middle, one below, one above, two below, ..."""
    step = position % count
    mid = count // 2
    return mid - (step + 1) // 2 if step % 2 else mid + step // 2


def block(workload: str, entries: dict[str, Entry], seed: int, index: int) -> list[Entry]:
    """Block ``index`` of the stream for ``seed``: in each stratum, the
    slots set by ``index`` with a seeded variant, in seeded order."""
    rng = np.random.default_rng([seed, index])
    slots: dict[str, dict[int, list[Entry]]] = {}
    for e in entries.values():
        slots.setdefault(e.stratum, {}).setdefault(e.slot, []).append(e)
    wanted = BLOCK_STRATA[workload]
    chosen = []
    for stratum in dict.fromkeys(wanted):
        count = wanted.count(stratum)
        keys = sorted(slots[stratum])
        for position in range(index * count, (index + 1) * count):
            variants = slots[stratum][keys[zigzag(position, len(keys))]]
            chosen.append(variants[int(rng.integers(len(variants)))])
    return [chosen[int(i)] for i in rng.permutation(len(chosen))]


def write_block(entries: list[Entry], directory: Path, index: int) -> list[Path]:
    """Write the block's config files; the program reads only these."""
    paths = []
    for i, e in enumerate(entries):
        path = directory / f"b{index:04d}-{i:02d}-{e.id}.json"
        path.write_text(e.text(), encoding="utf-8")
        paths.append(path)
    return paths
