"""Show what changed in ``pouspec analyze`` output between two source trees.

Usage, from the repository root::

    python3 tools/output_diff.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``pouspec`` package (``src``
of a checkout). Every config of the three benchmark pools
(``perfbench.workloads.pool``, read from this checkout) is analysed once
per tree, each tree in its own child process so that each imports its own
``pouspec``: in-process through ``pouspec.cli.main``, BLAS pinned to one
thread, writing the JSON, CSV and SVG outputs, ``timings`` left out.

For each config whose output differs it prints the exit-code and
classification transitions, each JSON key path whose value changed (old ->
new, with the relative difference for floats; list indices are written
``[]``, and a path changed at several indices is counted once with its
largest difference) and the changed stdout and stderr lines; a changed CSV
or SVG is named with its count of changed lines. It ends with the number of
changed configs per stratum and per key path. Two trees with the same
output on every config print ``identical``.

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
    run in the current directory with relative file names."""
    for name in OUTPUTS:
        Path(name).unlink(missing_ok=True)
    Path("config.json").write_text(config_text, encoding="utf-8")
    argv = ["analyze", "--config", "config.json", "--json", OUTPUTS[0],
            "--csv", OUTPUTS[1], "--svg", OUTPUTS[2]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
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


def compare(old: dict, new: dict) -> dict[str, list[str]]:
    """The changes of one config, by key path: the pseudo-paths ``exit``,
    ``classification``, ``json``, ``csv``, ``svg``, ``stdout``, ``stderr``,
    and the JSON key paths, each with its printed lines."""
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
        configs_path.write_text(json.dumps(pool_configs()), encoding="utf-8")
        return _compare_children(_children(srcs, configs_path))


def _compare_children(children: list[subprocess.Popen]) -> int:
    """Print the changes between the two children's records and the summary;
    the exit status of :func:`main`."""
    total, by_stratum, changed_by_stratum, by_path = 0, Counter(), Counter(), Counter()
    for old_line, new_line in zip(*(child.stdout for child in children)):
        old, new = json.loads(old_line), json.loads(new_line)
        total += 1
        by_stratum[old["stratum"]] += 1
        changes = compare(old, new)
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
        print(f"  {path}: {count}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
