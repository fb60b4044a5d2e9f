"""Show what changed in ``pouspec analyze`` output between two source trees.

Usage, from the repository root::

    python3 tools/output_diff.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``pouspec`` package (``src``
of a checkout). Every config of the three benchmark pools
(``perfbench.workloads.pool``, read from this checkout), the five
largest configs of :func:`largest_configs`, the two fine-grid configs of
:func:`grid_configs`, the five kernel-witness configs of
:func:`witness_configs`, the three edge configs of :func:`edge_configs`
and the 300 seeded configs of :func:`seed_configs`, 559 in all, is
analysed once per tree, each tree in
its own child process so that each imports its own ``pouspec``: in-process
through ``pouspec.cli.main``, BLAS pinned to one thread, writing the JSON,
CSV and SVG outputs, ``timings`` left out.

For each config whose output differs it prints the exit-code and
classification transitions, each JSON key path whose value changed (old ->
new, with the relative difference for floats; list indices are written
``[]``, and a path changed at several indices is counted once with its
largest difference) and the changed stdout and stderr lines; a changed CSV
or SVG is named with its count of changed lines. It ends with the number of
changed configs per stratum and per key path, with the largest relative
difference of each key path whose values are numbers. Two trees with the
same output on every config print ``identical``.

The exit status is 0 when the outputs are identical, 1 when they differ,
and 2 when a child process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUTS = ("report.json", "report.csv", "report.svg")

#: Stands for a key that one of the two reports does not have.
ABSENT = "(absent)"


def without_timings(report: str) -> str:
    """The JSON report with its ``timings`` map and the comma before it cut
    out (the only part that differs between runs); the rest still parses."""
    head, found, tail = report.partition(',\n  "timings": {')
    if not found:
        return report
    close = '\n  }'
    return head + tail[tail.index(close) + len(close):]


def import_main(src: Path):
    """``pouspec.cli.main`` imported from ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    import pouspec.cli
    where = Path(pouspec.cli.__file__).resolve().parent
    if where != src / "pouspec":
        raise ImportError(f"pouspec imported from {where}, not {src}")
    return pouspec.cli.main


def run_texts(main, config_text: str) -> tuple[str, list[str | None], str, str]:
    """Exit code, outputs (JSON without its ``timings``, CSV, SVG; ``None``
    when not written), stdout and stderr of one ``pouspec analyze`` call,
    run in the current directory with relative file names. Each call starts
    with fresh warning registries, so a warning shows on every config that
    raises it, not only on the first."""
    for name in OUTPUTS:
        Path(name).unlink(missing_ok=True)
    Path("config.json").write_text(config_text, encoding="utf-8")
    argv = ["analyze", "--config", "config.json", "--json", OUTPUTS[0],
            "--csv", OUTPUTS[1], "--svg", OUTPUTS[2]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = f"exit:{exc.code}"
        except Exception as exc:  # a traceback a user would see; recorded by type
            code = f"raised:{type(exc).__name__}"
    texts = [Path(name).read_text(encoding="utf-8") if Path(name).exists() else None
             for name in OUTPUTS]
    if texts[0] is not None:
        texts[0] = without_timings(texts[0])
    return code, texts, stdout.getvalue(), stderr.getvalue()


def pool_configs() -> list[dict]:
    """``config`` (workload and id), ``stratum`` and ``text`` of every pool
    entry."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, pool
    return [{"config": f"{workload} {entry_id}", "stratum": f"{workload}/{entry.stratum}",
             "text": entry.text()}
            for workload in WORKLOADS for entry_id, entry in pool(workload).items()]


def _uniform(count: int) -> list[float]:
    return [k / (count - 1) for k in range(count)]


def _hat_average(count: int) -> dict:
    """A hat basis on ``count`` uniform nodes with one cell average per hat,
    the cells split at the midpoints between the nodes."""
    nodes = _uniform(count)
    edges = [0.0] + [(a + b) / 2.0 for a, b in zip(nodes, nodes[1:])] + [1.0]
    return {"operator": "custom", "basis": {"kind": "hat", "nodes": nodes},
            "functionals": [{"kind": "interval-average", "a": a, "b": b}
                            for a, b in zip(edges, edges[1:])]}


def largest_configs() -> list[dict]:
    """``config``, ``stratum`` and ``text`` of the five configs at the
    largest dimension the program analyses (500, ``MAX_DIMENSION``), which
    the pools do not reach: Bernstein and Kantorovich of degree 499,
    hat-Dirac on 500 uniform nodes, cubic Schoenberg with 500 functions on
    uniform breakpoints, and a hat basis on 500 uniform nodes with one cell
    average per hat."""
    nodes = _uniform(500)
    configs = {
        "bernstein-499": {"operator": "bernstein", "n": 499},
        "kantorovich-499": {"operator": "kantorovich", "n": 499},
        "hat-dirac-500": {"operator": "hat-dirac", "nodes": nodes},
        "schoenberg-cubic-500": {"operator": "schoenberg", "degree": 3,
                                 "knots": [0.0] * 3 + _uniform(498) + [1.0] * 3},
        "hat-average-500": _hat_average(500),
    }
    return [{"config": f"largest {name}", "stratum": "largest", "text": json.dumps(config)}
            for name, config in configs.items()]


def grid_configs() -> list[dict]:
    """``config``, ``stratum`` and ``text`` of the two largest configs of a
    local basis, hat-Dirac on 500 uniform nodes and cubic Schoenberg with
    500 functions on uniform breakpoints, on a verification grid of 10001
    points: their checks read the basis' local form on a grid of their own,
    not the one construction validated the basis on."""
    configs = {name: {**json.loads(config["text"]), "grid_points": 10001}
               for name, config in zip(("hat-dirac-500", "schoenberg-cubic-500"),
                                       largest_configs()[2:4])}
    return [{"config": f"grid {name}-grid-10001", "stratum": "grid", "text": json.dumps(config)}
            for name, config in configs.items()]


def witness_configs() -> list[dict]:
    """``config``, ``stratum`` and ``text`` of five kernel-witness configs
    that the pools do not reach: regression configs for the aliasing
    failures of the sine witnesses that the bump witness replaced (Bernstein
    n = 10 on 11 points, Kantorovich n = 49 and 99 on 101 points,
    Kantorovich n = 499 on the default grid), and a hat basis with
    overlapping cell averages."""
    cells = [(0.0, 0.6), (0.4, 1.0), (0.0, 1.0)]
    configs = {
        "bernstein-10-grid-11": {"operator": "bernstein", "n": 10, "grid_points": 11},
        "kantorovich-49-grid-101": {"operator": "kantorovich", "n": 49, "grid_points": 101},
        "kantorovich-99-grid-101": {"operator": "kantorovich", "n": 99, "grid_points": 101},
        "kantorovich-499": {"operator": "kantorovich", "n": 499},
        "hat-overlapping-averages": {
            "operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 0.5, 1.0]},
            "functionals": [{"kind": "interval-average", "a": a, "b": b} for a, b in cells]},
    }
    return [{"config": f"witness {name}", "stratum": "witness", "text": json.dumps(config)}
            for name, config in configs.items()]


def edge_configs() -> list[dict]:
    """``config``, ``stratum`` and ``text`` of three configs that the pools
    do not reach. Two are malformed: a weighted-quadrature rule whose
    weights overflow as they are summed, on two nodes (``[1e308, 1e308]``)
    and on three (``[1e308, 1e308, -1e308]``); each exits 2 with one stderr
    line. The third reads a Bernstein basis of degree 2 at ``5e-324``
    twice and at 1: ``e_2(5e-324)`` underflows to 0, so the support of its
    matrix, read from the floats, loses the edges that make ``{0, 1}``
    transient."""
    rules = {"quadrature-overflow-2": ([0.4, 0.6], [1e308, 1e308]),
             "quadrature-overflow-3": ([0.4, 0.5, 0.6], [1e308, 1e308, -1e308])}
    configs = {name: {"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
                      "functionals": [{"kind": "weighted-quadrature", "nodes": nodes,
                                       "weights": weights}, {"kind": "dirac", "x": 1.0}]}
               for name, (nodes, weights) in rules.items()}
    configs["bernstein-underflow"] = {
        "operator": "custom", "basis": {"kind": "bernstein", "n": 2},
        "functionals": [{"kind": "dirac", "x": x} for x in (5e-324, 5e-324, 1.0)]}
    return [{"config": f"edge {name}", "stratum": "edge", "text": json.dumps(config)}
            for name, config in configs.items()]


def seed_configs() -> list[dict]:
    """``config``, ``stratum`` and ``text`` of 300 configs that differ only
    in their seed, 0 to 99: Bernstein n = 5, Kantorovich n = 7 and a hat
    basis on 12 uniform nodes with one cell average per hat. The seed picks
    the test functions of the positivity and norm checks, so these run 300
    more streams of their draw than the pools' own seeds do."""
    operators = {"bernstein-5": {"operator": "bernstein", "n": 5},
                 "kantorovich-7": {"operator": "kantorovich", "n": 7},
                 "hat-average-12": _hat_average(12)}
    return [{"config": f"seed {name} {seed}", "stratum": "seed",
             "text": json.dumps({**config, "seed": seed})}
            for name, config in operators.items() for seed in range(100)]


def dump(src: Path, configs_path: Path) -> None:
    """Child process: for each config of the JSON list at ``configs_path``,
    one JSON line with what ``src``'s ``pouspec analyze`` wrote for it."""
    configs = json.loads(configs_path.read_text(encoding="utf-8"))
    analyze = import_main(src)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for config in configs:
            code, (report, csv, svg), stdout, stderr = run_texts(analyze, config.pop("text"))
            config.update({"exit": code, "json": None if report is None else json.loads(report),
                           "csv": csv, "svg": svg, "stdout": stdout, "stderr": stderr})
            print(json.dumps(config), flush=True)


def _leaves(old, new, path: str = ""):
    """``(path, old, new)`` of each value that differs between two parsed
    JSON documents; list indices appear as ``[]``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from _leaves(old.get(key, ABSENT), new.get(key, ABSENT),
                               f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            yield from _leaves(a, b, f"{path}[]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _show(value) -> str:
    text = value if value is ABSENT else json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _changed_lines(old: str | None, new: str | None) -> list[str]:
    diff = difflib.unified_diff((old or "").splitlines(), (new or "").splitlines(),
                                lineterm="", n=0)
    return [line for line in diff if line[:1] in "+-" and line[:3] not in ("+++", "---")]


def compare(old: dict, new: dict,
            largest: dict[str, float] | None = None) -> dict[str, list[str]]:
    """The changes of one config, by key path: the pseudo-paths ``exit``,
    ``classification``, ``json``, ``csv``, ``svg``, ``stdout``, ``stderr``,
    and the JSON key paths, each with its printed lines. Each JSON key path
    whose changed values include numbers also raises ``largest[path]``, when
    ``largest`` is given, to its largest relative difference."""
    changes: dict[str, list[str]] = {}
    if old["exit"] != new["exit"]:
        changes["exit"] = [f"exit: {old['exit']} -> {new['exit']}"]
    a, b = old["json"], new["json"]
    kinds = [r["spectrum"]["classification"] if r else None for r in (a, b)]
    if kinds[0] != kinds[1]:
        changes["classification"] = [f"classification: {kinds[0]} -> {kinds[1]}"]
    if (a is None) != (b is None):
        changes["json"] = ["json: " + ("written -> not written" if b is None
                                       else "not written -> written")]
    elif a is not None:
        found: dict[str, list] = {}
        for path, x, y in _leaves(a, b):
            found.setdefault(path, []).append((x, y))
        for path, pairs in found.items():
            x, y = pairs[0]
            rel = [abs(q - p) / max(abs(p), abs(q)) for p, q in pairs
                   if _is_number(p) and _is_number(q) and (p or q)]
            if len(pairs) == 1:
                line = f"{path}: {_show(x)} -> {_show(y)}"
            else:
                line = f"{path}: {len(pairs)} values, first {_show(x)} -> {_show(y)}"
            if rel:
                line += f" (rel {max(rel):.2e})"
                if largest is not None:
                    largest[path] = max(largest.get(path, 0.0), max(rel))
            changes[path] = [line]
    for name in ("csv", "svg"):
        if old[name] != new[name]:
            count = len(_changed_lines(old[name], new[name]))
            changes[name] = [f"{name}: {count} changed line(s)"]
    for name in ("stdout", "stderr"):
        lines = _changed_lines(old[name], new[name])
        if lines:
            changes[name] = [f"{name}:"] + [f"  {line}" for line in lines]
    return changes


def _children(srcs: list[Path], configs_path: Path) -> list[subprocess.Popen]:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    return [subprocess.Popen([sys.executable, __file__, "--dump", str(src), str(configs_path)],
                             stdout=subprocess.PIPE, text=True, env=env) for src in srcs]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--dump"]:  # a child started by _children
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="directory holding the parent's pouspec")
    parser.add_argument("change_src", type=Path, help="directory holding the change's pouspec")
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "pouspec" / "cli.py").is_file():
            parser.error(f"no pouspec package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        configs_path = Path(tmp) / "configs.json"
        configs = (pool_configs() + largest_configs() + grid_configs() + witness_configs()
                   + edge_configs() + seed_configs())
        configs_path.write_text(json.dumps(configs), encoding="utf-8")
        return _compare_children(_children(srcs, configs_path))


def _compare_children(children: list[subprocess.Popen]) -> int:
    """Print the changes between the two children's records and the summary;
    the exit status of :func:`main`."""
    total, by_stratum, changed_by_stratum, by_path = 0, Counter(), Counter(), Counter()
    largest: dict[str, float] = {}
    for old_line, new_line in zip(*(child.stdout for child in children)):
        old, new = json.loads(old_line), json.loads(new_line)
        total += 1
        by_stratum[old["stratum"]] += 1
        changes = compare(old, new, largest)
        if not changes:
            continue
        changed_by_stratum[old["stratum"]] += 1
        by_path.update(changes.keys())
        print(old["config"])
        for lines in changes.values():
            print("\n".join(f"  {line}" for line in lines))
    # A child that is still writing has failed on the other's side: closing
    # its pipe ends it instead of leaving it blocked.
    for child in children:
        child.stdout.close()
    if any(child.wait() != 0 for child in children):
        print("error: a child process failed", file=sys.stderr)
        return 2
    if not by_path:
        print(f"identical ({total} configs)")
        return 0
    print(f"\n{sum(changed_by_stratum.values())} of {total} configs changed")
    print("by stratum:")
    for stratum, count in by_stratum.items():
        if changed_by_stratum[stratum]:
            print(f"  {stratum}: {changed_by_stratum[stratum]} of {count}")
    print("by key path:")
    for path, count in sorted(by_path.items()):
        print(f"  {path}: {count}" + (f" (max rel {largest[path]:.2e})" if path in largest
                                      else ""))
    return 1


if __name__ == "__main__":
    sys.exit(main())
