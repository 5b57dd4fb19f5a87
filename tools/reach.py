"""Reachability audit: the functions of ``src/repro`` that no front end runs.

Runs every entry point in its own interpreter under a recorder, then
prints one line per module of ``src/repro``: how many of its functions
ran, and the name and line count of each one that did not.  Entry points:

- every script in ``examples/``;
- the fenced python blocks of README and ``docs/`` (``tests/test_docs.py``);
- the static analyzer's CLI over ``src/`` (``python -m repro.analysis``);
- each squallbench workload, quick, traced pass;
- the paper-figure benches (``benchmarks/test_*.py``).

The recorder is an import hook that instruments every function of
``src/repro`` (see :class:`Recorder`), so it sees every thread.  A forked
worker leaves through ``os._exit``, which runs no ``atexit`` handler, so
the child dumps what it recorded on its way out; otherwise the worker's
own code would read as unreached.  The benches run with their timed
rounds: pytest-benchmark suspends tracers and profilers around a round,
which blinds a tracing recorder but not this one, and
``--benchmark-disable`` would leave ``benchmark.stats`` empty for the
benches that read it.  A bench whose timing bound fails still counts: it
ran.  Usage::

    python tools/reach.py [--out REPORT]
    python tools/reach.py --record DIR -- SCRIPT [ARGS...]
    python tools/reach.py --record DIR -- -m MODULE [ARGS...]
"""

from __future__ import annotations

import argparse
import ast
import atexit
import builtins
import glob
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

SQUALLBENCH_WORKLOADS = (
    "batch_join3", "batch_join3_procs", "batch_filter_agg", "stream_join3",
    "stream_window_agg", "stream_join_ckpt", "serve_fanout",
)

#: (path of a file under ``src/``, first line) of a function that ran;
#: the first line is its first decorator's, if it has one
Record = Tuple[str, int]


def entry_points() -> List[List[str]]:
    """The command lines (after ``python``) of every front end, run from
    the repo root."""
    def files(pattern: str) -> List[str]:
        return sorted(os.path.relpath(path, ROOT)
                      for path in glob.glob(os.path.join(ROOT, pattern)))

    pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
    points = [[path] for path in files("examples/*.py")]
    points.append(pytest + ["tests/test_docs.py"])
    points.append(["-m", "repro.analysis", "src"])
    points += [["benchmarks/squallbench/run.py", "--workload", name,
                "--quick", "--trace", "1"]
               for name in SQUALLBENCH_WORKLOADS]
    points.append(pytest + files("benchmarks/test_*.py"))
    return points


# -- recording ----------------------------------------------------------------


def _first_line(node) -> int:
    """The line a function's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _after_docstring(body: list) -> int:
    """Index of the first statement of a body that is not its docstring."""
    first = body[0]
    return int(isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
               and isinstance(first.value.value, str))


def instrument(source: bytes, path: str,
               hit_id: Callable[[int], int]) -> ast.Module:
    """The module's syntax tree with ``__reach__(hit_id(first_line))`` as
    the first statement (after the docstring) of every function."""
    tree = ast.parse(source, path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hit = ast.Expr(ast.Call(ast.Name("__reach__", ast.Load()),
                                    [ast.Constant(hit_id(_first_line(node)))],
                                    []))
            node.body.insert(_after_docstring(node.body),
                             ast.copy_location(hit, node.body[0]))
    return ast.fix_missing_locations(tree)


class _InstrumentingLoader(importlib.machinery.SourceFileLoader):
    """Loads a module of ``src/repro`` with every function instrumented;
    reads no bytecode cache and writes none."""

    def __init__(self, fullname, path, recorder):
        super().__init__(fullname, path)
        self.recorder = recorder

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        relpath = os.path.relpath(os.path.realpath(path), SRC)
        tree = instrument(self.get_data(path), path,
                          lambda line: self.recorder.hit_id((relpath, line)))
        return compile(tree, path, "exec", dont_inherit=True)


class Recorder(importlib.abc.MetaPathFinder):
    """Records the first line of every function of ``src/repro`` that runs,
    in every thread and forked child, and writes them to a JSON file in
    ``out_dir`` when its process ends.

    An import hook puts a set insertion at the top of each function; the
    set's ``add`` is the builtin ``__reach__``, so it also serves a module
    run as ``__main__``, whose namespace no loader fills.  A tracer
    (``sys.settrace``, ``cProfile``) would cost a Python-level event per
    call: ``examples/web_analytics.py`` takes 30 s bare and 104 s under
    cProfile on a 2-vCPU box.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        #: hit id -> the function it marks
        self.functions: Dict[int, Record] = {}
        self.hits: Set[int] = set()
        self._ids = itertools.count()  # atomic: threads may import at once
        self._exit = os._exit

    def hit_id(self, function: Record) -> int:
        hit = next(self._ids)
        self.functions[hit] = function
        return hit

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not (spec.origin or "").endswith(".py"):
            return spec
        spec.loader = _InstrumentingLoader(fullname, spec.origin, self)
        return spec

    def start(self) -> None:
        builtins.__reach__ = self.hits.add
        sys.meta_path.insert(0, self)
        atexit.register(self.dump)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.hits.clear()  # the parent dumps what it recorded itself
        os._exit = self._dump_and_exit

    def _dump_and_exit(self, status: int) -> None:
        self.dump()
        self._exit(status)

    def dump(self) -> None:
        rows = sorted({self.functions[hit] for hit in list(self.hits)})
        name = f"{os.getpid()}-{time.time_ns()}.json"
        with open(os.path.join(self.out_dir, name), "w") as handle:
            json.dump(rows, handle)


def run_recorded(out_dir: str, argv: List[str]) -> None:
    """Run a script (or ``-m module``) as ``__main__`` under a recorder."""
    Recorder(out_dir).start()
    if argv[0] == "-m":
        sys.argv = argv[1:]
        sys.path[0] = os.getcwd()
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
        runpy.run_path(argv[0], run_name="__main__")


def load_records(out_dir: str) -> Set[Record]:
    records: Set[Record] = set()
    for path in glob.glob(os.path.join(out_dir, "*.json")):
        with open(path) as handle:
            records.update((file, line) for file, line in json.load(handle))
    return records


# -- the functions there are --------------------------------------------------


class Function(NamedTuple):
    qualname: str
    first: int
    last: int
    #: index of the enclosing function in the module's list, or -1
    parent: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _is_stub(node) -> bool:
    """A declaration with nothing to run: a docstring alone, or a lone
    ``raise NotImplementedError``."""
    body = node.body[_after_docstring(node.body):]
    if not body:
        return True
    exc = getattr(body[0], "exc", None) if len(body) == 1 else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return getattr(exc, "id", None) == "NotImplementedError"


def module_functions(path: str) -> List[Function]:
    """Every ``def`` in a source file, stubs left out, nested ones with
    ``.<locals>.`` qualnames as the interpreter spells them."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found: List[Function] = []

    def visit(node, prefix: str, parent: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index = parent
                if not _is_stub(child):
                    found.append(Function(prefix + child.name,
                                          _first_line(child),
                                          child.end_lineno, parent))
                    index = len(found) - 1
                visit(child, f"{prefix}{child.name}.<locals>.", index)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", -1)
    return found


# -- the report ----------------------------------------------------------------


class ModuleReach(NamedTuple):
    path: str
    lines: int
    reached: int
    functions: int
    #: (qualname, lines) of each unreached function whose enclosing
    #: function ran (the lines of one that did not are counted in it)
    unreached: List[Tuple[str, int]]

    @property
    def unreached_lines(self) -> int:
        return sum(lines for _name, lines in self.unreached)

    def line(self) -> str:
        text = f"{self.path}  {self.reached}/{self.functions} reached"
        if self.unreached:
            text += (f"; unreached {self.unreached_lines} lines: "
                     + ", ".join(f"{name} {lines}"
                                 for name, lines in self.unreached))
        return text


def reach(records: Iterable[Record]) -> List[ModuleReach]:
    ran = set(records)
    modules = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        relpath = os.path.relpath(path, SRC)
        functions = module_functions(path)
        hit = [(relpath, f.first) in ran for f in functions]
        unreached = [(f.qualname, f.lines) for f, ok in zip(functions, hit)
                     if not ok and (f.parent < 0 or hit[f.parent])]
        with open(path) as handle:
            lines = sum(1 for _ in handle)
        modules.append(ModuleReach(relpath, lines, sum(hit), len(functions),
                                   unreached))
    return modules


def render(modules: List[ModuleReach]) -> str:
    out = [module.line() for module in modules]
    out.append(
        f"TOTAL  {sum(m.reached for m in modules)}/"
        f"{sum(m.functions for m in modules)} functions reached; "
        f"{sum(m.unreached_lines for m in modules)} of "
        f"{sum(m.lines for m in modules)} lines unreached")
    return "\n".join(out) + "\n"


def audit(out_dir: str) -> bool:
    """Run every entry point under the recorder; False if one could not
    run (a script that failed, or pytest that could not collect)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    ok = True
    for argv in entry_points():
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--record", out_dir,
             "--", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        # pytest exits 1 when a test failed: the code still ran
        ran = done.returncode == 0 or (argv[:2] == ["-m", "pytest"]
                                       and done.returncode == 1)
        status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
        label = " ".join(argv if len(argv) < 8 else argv[:7] + ["..."])
        print(f"# {status:<7} {seconds:6.1f}s  {label}", file=sys.stderr)
        if done.returncode and argv[:2] == ["-m", "pytest"]:
            print("#   " + (done.stdout.strip().splitlines() or [""])[-1],
                  file=sys.stderr)
        if not ran:
            print(done.stderr[-2000:], file=sys.stderr)
            ok = False
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:
        if len(argv) < 4 or argv[2] != "--":
            print(__doc__, file=sys.stderr)
            return 2
        run_recorded(argv[1], argv[3:])
        return 0
    parser = argparse.ArgumentParser(
        prog="python tools/reach.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        ok = audit(out_dir)
        report = render(reach(load_records(out_dir)))
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
