"""Interactive interface: a small shell over the SQL session.

Squall offers an interactive interface built on top of the Scala REPL
that lets a user construct and run query plans interactively (paper
section 2).  This is the Python counterpart: a line-oriented shell over
:class:`~repro.sql.catalog.SqlSession` with meta-commands for inspecting
the catalog, explaining plans and tuning execution options.

Meta-commands (everything else is executed as SQL):

    \\tables                 list registered relations
    \\schema <table>         show a relation's schema
    \\explain <sql>          logical + physical plan without executing
    \\watch <sql>            run continuously, printing live result deltas
    \\set                    list every option and its current value
    \\set machines <n>       joiner parallelism
    \\set scheme <name>      auto | hash | random | hybrid
    \\set mode <name>        multiway | pipeline
    \\set local <name>       dbtoaster | traditional
    \\set batch_size <n>     micro-batch granularity (>= 1)
    \\set executor <name>    inline | processes
    \\set parallelism <n>    shared-nothing workers (auto = pick)
    \\set columnar <v>       vectorized path: auto | on | off
    \\set rate <n>           \\watch replay rows/sec (none = unthrottled)
    \\set max_buffer <n>     \\watch subscriber ring capacity (none = default)
    \\set on_overflow <v>    slow-subscriber policy: shed | block
    \\set observe <v>        observability: off | metrics | trace
    \\stats [sql]            per-operator profile (last query, or run <sql>)
    \\help                   this text
    \\quit                   leave the shell
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.options import (
    EXECUTOR_NAMES,
    OBSERVE_LEVELS,
    OVERFLOW_POLICIES,
    ExecutionOptions,
)
from repro.sql.catalog import SqlSession

HELP_TEXT = __doc__.split("Meta-commands", 1)[1]


class SquallShell:
    """Stateful line interpreter; ``handle_line`` returns printable output.

    Kept free of input()/print() so it is fully testable; :func:`main`
    wraps it in a read-eval-print loop.
    """

    def __init__(self, session: Optional[SqlSession] = None):
        self.session = session or SqlSession()
        self.finished = False
        self.max_rows = 20
        #: the shell's execution knobs, one ExecutionOptions layered under
        #: every session.execute()/stream() call (\set edits it)
        self.execution = ExecutionOptions()
        #: last successful SQL RunResult, so a bare \stats can profile it
        self._last_result = None

    # -- command dispatch ---------------------------------------------------

    def handle_line(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        if line.startswith("\\"):
            return self._meta(line)
        return self._run_sql(line)

    def _meta(self, line: str) -> str:
        parts = line.split()
        command = parts[0].lower()
        args = parts[1:]
        if command in ("\\quit", "\\q", "\\exit"):
            self.finished = True
            return "bye"
        if command == "\\help":
            return "Meta-commands" + HELP_TEXT
        if command == "\\tables":
            names = self.session.catalog.names()
            if not names:
                return "(no relations registered)"
            lines = []
            for name in names:
                relation = self.session.catalog.get(name)
                lines.append(f"{name}: {len(relation)} rows")
            return "\n".join(lines)
        if command == "\\schema":
            if not args:
                return "usage: \\schema <table>"
            try:
                relation = self.session.catalog.get(args[0])
            except KeyError as exc:
                return f"error: {exc}"
            return repr(relation.schema)
        if command == "\\explain":
            sql = line[len("\\explain"):].strip()
            if not sql:
                return "usage: \\explain <sql>"
            try:
                return self.session.explain(sql)
            except Exception as exc:  # surface parser/planner errors
                return f"error: {exc}"
        if command == "\\watch":
            sql = line[len("\\watch"):].strip()
            if not sql:
                return "usage: \\watch <sql>"
            return self._watch_sql(sql)
        if command == "\\set":
            return self._set_option(args)
        if command == "\\stats":
            sql = line[len("\\stats"):].strip()
            return self._stats(sql)
        return f"unknown command {command!r}; try \\help"

    def _stats(self, sql: str) -> str:
        """EXPLAIN-ANALYZE profile: of <sql> (run now, observed), or of
        the last executed query when called bare."""
        if sql:
            execution = self.execution
            if (execution.observe or "off") == "off":
                # a profile without batch timings answers nothing: observe
                # at least 'metrics' for this one run
                execution = execution.replace(observe="metrics")
            try:
                result = self.session.execute(sql, options=execution)
            except Exception as exc:
                return f"error: {exc}"
            self._last_result = result
            return result.profile()
        if self._last_result is None:
            return ("no query to profile yet; run one first or use "
                    "\\stats <sql>")
        try:
            return self._last_result.profile()
        except ValueError as exc:
            return f"error: {exc}"

    def _list_options(self) -> str:
        options = self.session.options
        execution = self.execution
        parallelism = "auto" if execution.parallelism is None else execution.parallelism
        columnar = ("auto" if execution.columnar is None
                    else ("on" if execution.columnar else "off"))
        rate = "none" if execution.rate is None else f"{execution.rate:g}"
        max_buffer = ("none" if execution.max_buffer is None
                      else execution.max_buffer)
        return "\n".join([
            f"machines = {options.machines}",
            f"scheme = {options.scheme}",
            f"mode = {options.mode}",
            f"local = {options.local_join}",
            f"batch_size = {execution.batch_size or 1}",
            f"executor = {execution.executor or 'inline'}",
            f"parallelism = {parallelism}",
            f"columnar = {columnar}",
            f"rate = {rate}",
            f"max_buffer = {max_buffer}",
            f"on_overflow = {execution.on_overflow or 'shed'}",
            f"observe = {execution.observe or 'off'}",
        ])

    def _set_option(self, args: List[str]) -> str:
        if not args:
            return self._list_options()
        if len(args) != 2:
            return ("usage: \\set <machines|scheme|mode|local|batch_size"
                    "|executor|parallelism|columnar|rate|max_buffer"
                    "|on_overflow|observe> <value>  (\\set alone lists all)")
        option, value = args
        options = self.session.options
        if option == "machines":
            try:
                options.machines = int(value)
            except ValueError:
                return "machines must be an integer"
            return f"machines = {options.machines}"
        if option == "scheme":
            if value not in ("auto", "hash", "random", "hybrid"):
                return "scheme must be auto | hash | random | hybrid"
            options.scheme = value
            return f"scheme = {value}"
        if option == "mode":
            if value not in ("multiway", "pipeline"):
                return "mode must be multiway | pipeline"
            options.mode = value
            return f"mode = {value}"
        if option == "local":
            if value not in ("dbtoaster", "traditional"):
                return "local must be dbtoaster | traditional"
            options.local_join = value
            return f"local = {value}"
        if option == "batch_size":
            try:
                batch_size = int(value)
            except ValueError:
                return "batch_size must be an integer"
            if batch_size < 1:
                return "batch_size must be >= 1"
            self.execution = self.execution.replace(batch_size=batch_size)
            return f"batch_size = {batch_size}"
        if option == "executor":
            if value not in EXECUTOR_NAMES:
                return "executor must be " + " | ".join(EXECUTOR_NAMES)
            self.execution = self.execution.replace(executor=value)
            return f"executor = {value}"
        if option == "parallelism":
            if value == "auto":
                self.execution = self.execution.replace(parallelism=None)
                return "parallelism = auto"
            try:
                parallelism = int(value)
            except ValueError:
                return "parallelism must be an integer or auto"
            if parallelism < 1:
                return "parallelism must be >= 1"
            self.execution = self.execution.replace(parallelism=parallelism)
            return f"parallelism = {parallelism}"
        if option == "columnar":
            if value not in ("auto", "on", "off"):
                return "columnar must be auto | on | off"
            self.execution = self.execution.replace(
                columnar=None if value == "auto" else value == "on")
            return f"columnar = {value}"
        if option in ("rate", "watch_rate"):  # watch_rate: pre-1.1 name
            if value == "none":
                self.execution = self.execution.replace(rate=None)
                return "rate = none"
            try:
                rate = float(value)
            except ValueError:
                return "rate must be a number or none"
            if rate <= 0:
                return "rate must be positive"
            self.execution = self.execution.replace(rate=rate)
            return f"rate = {rate:g}"
        if option == "max_buffer":
            if value == "none":
                self.execution = self.execution.replace(max_buffer=None)
                return "max_buffer = none"
            try:
                max_buffer = int(value)
            except ValueError:
                return "max_buffer must be an integer or none"
            if max_buffer < 1:
                return "max_buffer must be >= 1"
            self.execution = self.execution.replace(max_buffer=max_buffer)
            return f"max_buffer = {max_buffer}"
        if option == "on_overflow":
            if value not in OVERFLOW_POLICIES:
                return "on_overflow must be " + " | ".join(OVERFLOW_POLICIES)
            self.execution = self.execution.replace(on_overflow=value)
            return f"on_overflow = {value}"
        if option == "observe":
            if value not in OBSERVE_LEVELS:
                return "observe must be " + " | ".join(OBSERVE_LEVELS)
            self.execution = self.execution.replace(
                observe=None if value == "off" else value)
            return f"observe = {value}"
        return f"unknown option {option!r}"

    def _watch_sql(self, sql: str) -> str:
        """Continuous execution: stream the query, render its deltas.

        The replayed sources are finite, so the watch runs to exhaustion
        and reports the final snapshot; with a real push source it would
        keep printing deltas for as long as the query lives.  Under
        ``executor processes`` the topology stays resident on
        ``parallelism`` forked workers (the streaming ``processes``
        executor, with checkpointed recovery)."""
        notes = []
        execution = self.execution
        if execution.parallelism is not None and \
                execution.executor != "processes":
            # tell the user, don't silently ignore their \set
            notes.append("-- note: parallelism applies to executor "
                         "processes only; watching inline in this thread")
            execution = execution.replace(parallelism=None)
        try:
            query = self.session.stream(sql, options=execution)
            lines = list(notes)
            shown = 0
            for delta in query:
                if shown < self.max_rows:
                    sign = "+" if delta.sign > 0 else "-"
                    values = " | ".join(str(value) for value in delta.row)
                    lines.append(f"{sign} {values}")
                shown += 1
        except Exception as exc:
            return f"error: {exc}"
        if shown > self.max_rows:
            lines.append(f"... ({shown} deltas total)")
        stats = query.stats()
        snapshot = query.snapshot()
        lines.append(
            f"-- watch complete: {shown} deltas; {len(snapshot)} rows in "
            f"final snapshot; {stats['events']} events at "
            f"{stats['events_per_sec']:,.0f} events/sec"
        )
        return "\n".join(lines)

    def _run_sql(self, sql: str) -> str:
        try:
            result = self.session.execute(sql, options=self.execution)
        except Exception as exc:
            return f"error: {exc}"
        self._last_result = result
        lines = []
        for row in result.results[: self.max_rows]:
            lines.append(" | ".join(str(value) for value in row))
        if len(result.results) > self.max_rows:
            lines.append(f"... ({len(result.results)} rows total)")
        lines.append(
            f"-- {len(result.results)} rows; "
            f"input {result.query_input:,} tuples; "
            + "; ".join(
                f"{name}: {info}" for name, info in result.partitioner_info.items()
            )
        )
        return "\n".join(lines)


def main():  # pragma: no cover - interactive wrapper
    shell = SquallShell()
    print("Squall interactive shell -- \\help for commands")
    while not shell.finished:
        try:
            line = input("squall> ")
        except EOFError:
            break
        output = shell.handle_line(line)
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    main()
