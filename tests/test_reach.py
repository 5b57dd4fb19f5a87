"""The reachability audit (``tools/reach.py``): its recorder sees what a
forked worker runs, and its instrumentation changes no function's
behaviour."""

import os
import subprocess
import sys
import textwrap
import traceback

import pytest

from tools import reach

FORKING_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import sys
    import threading

    from repro.util import round_robin_assignment


    def child():
        round_robin_assignment(["a"], 1)


    if __name__ == "__main__" and sys.argv[1] == "fork":
        worker = multiprocessing.get_context("fork").Process(target=child)
        worker.start()
        worker.join(60)
        assert worker.exitcode == 0
    if __name__ == "__main__" and sys.argv[1] == "thread":
        worker = threading.Thread(target=child)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
""")


def unreached(tmp_path, name, argv, path):
    """The unreached functions of the module at ``path`` (under ``src/``)
    after running ``argv`` under the recorder."""
    out_dir = tmp_path / name
    out_dir.mkdir()
    subprocess.run(
        [sys.executable, reach.__file__, "--record", str(out_dir), "--",
         *argv],
        check=True, timeout=120, capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    (module,) = [module for module in reach.reach(reach.load_records(str(out_dir)))
                 if module.path == path]
    return {name for name, _lines in module.unreached}


def unreached_util_functions(tmp_path, mode):
    script = tmp_path / "fork_a_worker.py"
    script.write_text(FORKING_SCRIPT)
    return unreached(tmp_path, mode, [str(script), mode],
                     os.path.join("repro", "util.py"))


def test_a_function_only_a_forked_worker_calls_is_reached(tmp_path):
    """The worker leaves through ``os._exit``: it must dump its record
    on the way out, or the child's calls are lost."""
    assert "round_robin_assignment" in unreached_util_functions(tmp_path, "idle")
    assert "round_robin_assignment" not in unreached_util_functions(tmp_path, "fork")


def test_a_function_only_a_thread_calls_is_reached(tmp_path):
    assert "round_robin_assignment" not in unreached_util_functions(tmp_path,
                                                                    "thread")


def test_a_module_run_as_main_is_recorded(tmp_path):
    """``-m package`` runs ``__main__.py`` in a namespace no loader fills:
    the instrumentation must still find its recorder."""
    (tmp_path / "empty.py").write_text("")
    assert "main" not in unreached(
        tmp_path, "analysis", ["-m", "repro.analysis", str(tmp_path / "empty.py")],
        os.path.join("repro", "analysis", "__main__.py"))


def test_report_counts_an_unreached_function_with_its_nested_ones():
    modules = reach.reach([])
    assert not any(".<locals>." in name for module in modules
                   for name, _lines in module.unreached)
    assert reach.render(modules).splitlines()[-1].startswith(
        f"TOTAL  0/{sum(module.functions for module in modules)} functions")


def test_every_squallbench_workload_is_audited():
    from benchmarks.squallbench.workloads import WORKLOADS

    assert reach.SQUALLBENCH_WORKLOADS == tuple(w.name for w in WORKLOADS)


def test_module_functions_names_nested_and_decorated_functions(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(textwrap.dedent('''\
        import abc


        class Base(abc.ABC):
            @abc.abstractmethod
            def step(self):
                """Declared only."""

            @property
            def size(self):
                return 1


        def outer():
            def inner():
                return 2
            return inner
    '''))
    functions = {f.qualname: f for f in reach.module_functions(str(source))}
    assert set(functions) == {"Base.size", "outer", "outer.<locals>.inner"}
    assert (functions["Base.size"].first, functions["Base.size"].lines) == (9, 3)
    inner = functions["outer.<locals>.inner"]
    assert reach.module_functions(str(source))[inner.parent].qualname == "outer"


def test_instrumented_functions_keep_docstrings_and_line_numbers():
    source = textwrap.dedent('''\
        def documented():
            """Says what it does."""
            return 1


        def failing():
            raise ValueError("line 7")
    ''')
    hits = set()
    namespace = {"__reach__": hits.add}
    tree = reach.instrument(source.encode(), "sample.py", lambda line: line)
    exec(compile(tree, "sample.py", "exec"), namespace)
    assert namespace["documented"].__doc__ == "Says what it does."
    assert namespace["documented"]() == 1
    with pytest.raises(ValueError) as raised:
        namespace["failing"]()
    assert traceback.extract_tb(raised.value.__traceback__)[-1].lineno == 7
    assert hits == {1, 6}
