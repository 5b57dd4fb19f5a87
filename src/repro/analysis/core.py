"""squall-lint core: corpus parsing, suppressions, and the check driver.

The analyzer is AST-only: it never imports the code under analysis, so
running it is safe on any tree (including fixture files that deadlock or
SIGKILL on import).  A run parses every ``.py`` file into a
:class:`ModuleInfo`, indexes the classes into a :class:`Corpus` (so
checkers can resolve base classes across modules by name), runs each
registered checker over the corpus, and filters the findings through the
per-line suppression comments.

Annotations the checkers read are **zero-runtime-cost conventions**, not
imports:

- ``GUARDED_BY = {"_attr": "_lock"}`` -- a plain dict class attribute
  declaring which lock guards which mutable field (the lock-discipline
  checker's contract).
- ``PIPE_PICKLED = False`` -- a plain bool class attribute exempting a
  class from pickle-safety (it never crosses the ``processes`` pipes)
  or, set to ``True``, opting an unrelated class in.
- ``# squall-lint: disable=<rule>[,<rule>]`` on (or directly above) a
  line suppresses those rules for that line.
- ``# squall-lint: disable-file=<rule>`` anywhere suppresses a rule for
  the whole file.
- ``# squall-lint: holds=<lock>[,<lock>]`` on a ``def`` line tells the
  lock checker the method is only ever called with those locks already
  held (documented caller contract, e.g. a private helper of a locked
  method).
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: every rule the suite knows; checkers register against one of these
RULES = (
    "lock-discipline",
    "lock-order",
    "pickle-safety",
    "checkpoint-completeness",
    "determinism",
    "parse-error",
)

_SUPPRESS = re.compile(r"#\s*squall-lint:\s*disable=([\w,\- ]+)")
_SUPPRESS_FILE = re.compile(r"#\s*squall-lint:\s*disable-file=([\w,\- ]+)")
_HOLDS = re.compile(r"#\s*squall-lint:\s*holds=([\w, ]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class ClassInfo:
    """Statically collected facts about one class definition."""

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.bases: List[str] = [_dotted_tail(base) for base in node.bases]
        self.methods: Dict[str, ast.FunctionDef] = {}
        #: GUARDED_BY class-map: attribute name -> lock attribute name
        self.guarded_by: Dict[str, str] = {}
        #: a GUARDED_BY that is not a literal ``{"attr": "lock"}`` dict
        #: (the checker could not read it, so it reports it instead)
        self.unreadable_guarded_by: Optional[ast.AST] = None
        #: PIPE_PICKLED marker (None = unmarked)
        self.pipe_pickled: Optional[bool] = None
        #: lock attributes assigned in __init__ -> kind
        #: ('Lock' | 'RLock' | 'Condition' | 'Event' | ...)
        self.lock_attrs: Dict[str, str] = {}
        #: Condition(self.X) aliases: holding the condition holds X too
        self.lock_aliases: Dict[str, str] = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[item.name] = item
            elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                target = item.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "GUARDED_BY":
                    guarded_by = _literal_str_dict(item.value)
                    if guarded_by is None:
                        self.unreadable_guarded_by = item.value
                    else:
                        self.guarded_by = guarded_by
                elif target.id == "PIPE_PICKLED":
                    if isinstance(item.value, ast.Constant) and isinstance(
                            item.value.value, bool):
                        self.pipe_pickled = item.value.value
        init = self.methods.get("__init__")
        if init is not None:
            self._collect_locks(init)

    def _collect_locks(self, init: ast.FunctionDef):
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            kind = _dotted_tail(value.func)
            if kind not in ("Lock", "RLock", "Condition", "Event",
                            "Semaphore", "BoundedSemaphore"):
                continue
            for target in stmt.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self.lock_attrs[target.attr] = kind
                    if kind == "Condition" and value.args:
                        arg = value.args[0]
                        if (isinstance(arg, ast.Attribute)
                                and isinstance(arg.value, ast.Name)
                                and arg.value.id == "self"):
                            self.lock_aliases[target.attr] = arg.attr

    def defines_any(self, names: Iterable[str]) -> bool:
        return any(name in self.methods for name in names)

    def holds_annotation(self, func: ast.FunctionDef) -> Set[str]:
        """Locks declared held on entry via ``# squall-lint: holds=...``."""
        line = self.module.source_line(func.lineno)
        match = _HOLDS.search(line)
        if not match:
            return set()
        return {name.strip() for name in match.group(1).split(",")
                if name.strip()}


class ModuleInfo:
    """One parsed source file plus its suppression and import tables."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: line number -> rules disabled on that line
        self.suppressions: Dict[int, Set[str]] = {}
        self.file_disables: Set[str] = set()
        #: local name -> module it came from ("threading" for both
        #: ``import threading`` and ``from threading import Lock``)
        self.import_sources: Dict[str, str] = {}
        self._scan_comments()
        self._scan_imports()
        self.classes: List[ClassInfo] = [
            ClassInfo(self, node) for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def _scan_comments(self):
        for index, line in enumerate(self.lines, start=1):
            match = _SUPPRESS.search(line)
            if match:
                rules = {name.strip() for name in match.group(1).split(",")}
                self.suppressions.setdefault(index, set()).update(
                    rules - {""})
            match = _SUPPRESS_FILE.search(line)
            if match:
                self.file_disables.update(
                    name.strip() for name in match.group(1).split(",")
                    if name.strip())

    def _scan_imports(self):
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self.import_sources[name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.import_sources[alias.asname or alias.name] = node.module

    def suppressed(self, line: int, rule: str) -> bool:
        if rule in self.file_disables or "all" in self.file_disables:
            return True
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and (rule in rules or "all" in rules):
                return True
        return False


class Corpus:
    """Every parsed module of one run, with a cross-module class index."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        #: class name -> definitions (same-named classes in several
        #: modules all count; base resolution unions them)
        self.by_name: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for cls in module.classes:
                self.by_name.setdefault(cls.name, []).append(cls)

    def subclasses(self, roots: Set[str]) -> List[ClassInfo]:
        """Classes transitively derived (by name) from any root name.

        The roots themselves are not returned -- they are interfaces, not
        implementations.  Resolution is name-based: external bases that
        are not in the corpus terminate the walk.
        """
        out = []
        for module in self.modules:
            for cls in module.classes:
                if cls.name not in roots and self._derives(cls, roots, set()):
                    out.append(cls)
        return out

    def _derives(self, cls: ClassInfo, roots: Set[str],
                 seen: Set[str]) -> bool:
        for base in cls.bases:
            if base in roots:
                return True
            if base in seen:
                continue
            seen.add(base)
            for parent in self.by_name.get(base, ()):
                if self._derives(parent, roots, seen):
                    return True
        return False

    def ancestry_defines_any(self, cls: "ClassInfo", methods: Iterable[str],
                             stop_at: Set[str]) -> bool:
        return any(self.ancestry_defines(cls, method, stop_at)
                   for method in methods)

    def ancestry_defines(self, cls: ClassInfo, method: str,
                         stop_at: Set[str],
                         _seen: Optional[Set[str]] = None) -> bool:
        """Whether ``cls`` or a corpus ancestor below ``stop_at`` defines
        ``method`` (the roots' default implementations don't count)."""
        if _seen is None:
            _seen = set()
        if method in cls.methods:
            return True
        for base in cls.bases:
            if base in stop_at or base in _seen:
                continue
            _seen.add(base)
            for parent in self.by_name.get(base, ()):
                if self.ancestry_defines(parent, method, stop_at, _seen):
                    return True
        return False


class Checker:
    """Base class of one rule's checker."""

    rule = "abstract"
    description = ""

    def check(self, corpus: Corpus) -> Iterable[Finding]:
        raise NotImplementedError


def _dotted_tail(node: ast.AST) -> str:
    """Last component of a possibly dotted expression ('storm.Bolt' -> 'Bolt')."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _dotted_tail(node.func)
    if isinstance(node, ast.Subscript):
        return _dotted_tail(node.value)
    return ""


def _literal_str_dict(node: ast.AST) -> Optional[Dict[str, str]]:
    """A ``{"a": "b"}`` literal as a dict; None for anything else (a
    comprehension, a name, a non-string entry)."""
    if not isinstance(node, ast.Dict):
        return None
    out: Dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)):
            return None
        out[key.value] = value.value
    return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """Full dotted name of an expression ('threading.Lock'), or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(module: ModuleInfo, func: ast.AST) -> Optional[Tuple[str, str]]:
    """Resolve a call target to ``(source module, name)`` via the imports.

    ``threading.Lock()`` and ``from threading import Lock; Lock()`` both
    resolve to ``("threading", "Lock")``; bare builtins resolve to
    ``("builtins", name)``; anything else (method calls on objects,
    locally defined names) returns None.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    source = module.import_sources.get(head)
    if source is not None:
        return (source, tail.split(".")[-1] if tail else head)
    if not tail:
        return ("builtins", head)
    return None


@dataclass
class Report:
    """The result of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return json.dumps({
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": self.summary(),
        }, indent=2)

    def summary(self) -> str:
        if not self.findings:
            return f"squall-lint: {self.files_checked} files checked, clean"
        per_rule: Dict[str, int] = {}
        for finding in self.findings:
            per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(per_rule.items()))
        return (f"squall-lint: {len(self.findings)} finding(s) in "
                f"{self.files_checked} files ({breakdown})")


def default_checkers() -> List[Checker]:
    """One instance of every registered checker."""
    from repro.analysis.checkers.checkpoints import CheckpointCompletenessChecker
    from repro.analysis.checkers.determinism import DeterminismChecker
    from repro.analysis.checkers.locks import (
        LockDisciplineChecker,
        LockOrderChecker,
    )
    from repro.analysis.checkers.pickles import PickleSafetyChecker

    return [
        LockDisciplineChecker(),
        LockOrderChecker(),
        PickleSafetyChecker(),
        CheckpointCompletenessChecker(),
        DeterminismChecker(),
    ]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if not d.startswith(".") and d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Sequence[str]] = None,
                  checkers: Optional[Sequence[Checker]] = None) -> Report:
    """Run the suite over files/directories; returns the filtered report."""
    report = Report()
    modules: List[ModuleInfo] = []
    for path in iter_python_files(paths):
        report.files_checked += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(ModuleInfo(path, source))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            report.findings.append(Finding(
                path=path, line=line, col=0, rule="parse-error",
                message=f"could not parse: {exc}"))
    report.findings.extend(_run_checkers(Corpus(modules), rules, checkers))
    report.findings.sort()
    return report


def analyze_source(source: str, path: str = "<memory>",
                   rules: Optional[Sequence[str]] = None,
                   checkers: Optional[Sequence[Checker]] = None
                   ) -> List[Finding]:
    """Analyze one in-memory source string (docs/tests convenience)."""
    module = ModuleInfo(path, source)
    return sorted(_run_checkers(Corpus([module]), rules, checkers))


def _run_checkers(corpus: Corpus,
                  rules: Optional[Sequence[str]],
                  checkers: Optional[Sequence[Checker]] = None
                  ) -> List[Finding]:
    wanted = set(rules) if rules else None
    by_path = {module.path: module for module in corpus.modules}
    findings: List[Finding] = []
    for checker in (default_checkers() if checkers is None else checkers):
        if wanted is not None and checker.rule not in wanted:
            continue
        for finding in checker.check(corpus):
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(
                    finding.line, finding.rule):
                continue
            findings.append(finding)
    return findings
