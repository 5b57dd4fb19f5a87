"""Interactive interface: a small shell over the SQL session.

Squall offers an interactive interface built on top of the Scala REPL
that lets a user construct and run query plans interactively (paper
section 2).  This is the Python counterpart: a line-oriented shell over
:class:`~repro.sql.catalog.SqlSession` with meta-commands for inspecting
the catalog, explaining plans and tuning execution options.

The shell's execution knobs are one
:class:`~repro.core.options.ExecutionOptions` (``shell.execution``),
layered under every SQL line and ``\\watch``.  ``\\set <knob> <value>``
only parses the word; the new options are checked by
:meth:`~repro.core.options.ExecutionOptions.resolve`, whose message is
the answer to a rejected value, and a bare ``\\set`` lists the resolved
values -- what a SQL line runs with, and what ``\\watch`` streams with
where that differs (``batch_size = 1 (\\watch: 64)``).

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
    \\set max_buffer <n>     broker subscriptions' ring capacity (none = default)
    \\set on_overflow <v>    broker subscriptions' full ring: shed | block
    \\set observe <v>        observability: off | metrics | trace
    \\stats [sql]            per-operator profile (last query, or run <sql>)
    \\help                   this text
    \\quit                   leave the shell
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.options import STREAM_BATCH_SIZE, ExecutionOptions
from repro.sql.catalog import SqlSession

HELP_TEXT = __doc__.split("Meta-commands", 1)[1]

#: the optimizer knobs ``\\set`` edits: knob -> (attribute of the
#: session's OptimizerOptions, the words it takes; None = an integer)
PLAN_KNOBS = {
    "machines": ("machines", None),
    "scheme": ("scheme", ("auto", "hash", "random", "hybrid")),
    "mode": ("mode", ("multiway", "pipeline")),
    "local": ("local_join", ("dbtoaster", "traditional")),
}

#: the ExecutionOptions fields ``\\set`` edits: knob -> (parser of a
#: word, what a word that does not parse should be, the word that
#: unsets the knob).  Only parsing lives here: the value is then checked
#: by ``ExecutionOptions.resolve``, whose error is the answer.
EXECUTION_KNOBS = {
    "batch_size": (int, "an integer", None),
    "executor": (str, None, None),
    "parallelism": (int, "an integer or auto", "auto"),
    "columnar": ({"on": True, "off": False}.__getitem__,
                 "auto | on | off", "auto"),
    "rate": (float, "a number or none", "none"),
    "max_buffer": (int, "an integer or none", "none"),
    "on_overflow": (str, None, None),
    "observe": (str, None, "off"),
}

#: the knobs only a ``QueryBroker`` subscription reads: a SQL line and
#: ``\\watch``'s private query take neither
BROKER_KNOBS = ("max_buffer", "on_overflow")


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
            if execution.resolve().observe == "off":
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
        """Every knob's current value; the execution knobs as resolved
        (:meth:`ExecutionOptions.resolve`) for a SQL line and, where it
        differs, for ``\\watch``."""
        lines = [f"{knob} = {getattr(self.session.options, attribute)}"
                 for knob, (attribute, _words) in PLAN_KNOBS.items()]
        resolved = self.execution.resolve()
        watched = self.execution.resolve(default_batch_size=STREAM_BATCH_SIZE)

        def word(value, unset):
            if value is None:
                return unset
            if isinstance(value, bool):
                return "on" if value else "off"
            if isinstance(value, float):
                return f"{value:g}"
            return str(value)

        for knob, (_parse, _expected, unset) in EXECUTION_KNOBS.items():
            value = word(getattr(resolved, knob), unset)
            streamed = word(getattr(watched, knob), unset)
            line = f"{knob} = {value}"
            if streamed != value:
                line += f" (\\watch: {streamed})"
            if knob in BROKER_KNOBS:
                line += " (broker subscriptions)"
            lines.append(line)
        return "\n".join(lines)

    def _set_option(self, args: List[str]) -> str:
        if not args:
            return self._list_options()
        if len(args) != 2:
            knobs = "|".join([*PLAN_KNOBS, *EXECUTION_KNOBS])
            return f"usage: \\set <{knobs}> <value>  (\\set alone lists all)"
        knob, word = args
        if knob in PLAN_KNOBS:
            attribute, words = PLAN_KNOBS[knob]
            if words is None:
                try:
                    value = int(word)
                except ValueError:
                    return f"{knob} must be an integer"
            elif word in words:
                value = word
            else:
                return f"{knob} must be {' | '.join(words)}"
            setattr(self.session.options, attribute, value)
            return f"{knob} = {value}"
        if knob not in EXECUTION_KNOBS:
            return f"unknown option {knob!r}"
        parse, expected, unset = EXECUTION_KNOBS[knob]
        try:
            value = None if word == unset else parse(word)
        except (KeyError, ValueError):
            return f"{knob} must be {expected}"
        execution = self.execution.replace(**{knob: value})
        try:
            execution.resolve()  # the one range check of every knob
        except ValueError as exc:
            return str(exc)
        self.execution = execution
        return f"{knob} = {word}"

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
