"""Lock discipline and lock ordering checkers.

``lock-discipline`` enforces the ``GUARDED_BY`` contract: a class that
declares ``GUARDED_BY = {"_subscribers": "_lock"}`` promises that every
read or write of ``self._subscribers`` (outside ``__init__`` and the
pickle protocol) happens lexically inside ``with self._lock:``.  This is
the static form of the PR 7 subscribe/fan-out race, where a subscriber
list was appended outside the sink lock.  Helper methods that are only
ever called with the lock already held carry a
``# squall-lint: holds=_lock`` comment on their ``def`` line.

``lock-order`` builds a cross-module lock acquisition graph: an edge
``A.x -> B.y`` means some code path acquires ``B.y`` while holding
``A.x`` (lexically nested ``with`` blocks, calls to own methods that
acquire locks, and calls to unambiguous corpus methods on other
objects).  Cycles in that graph are potential deadlocks; re-acquiring a
non-reentrant ``threading.Lock``/``Condition`` you already hold is a
guaranteed one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ClassInfo, Corpus, Finding

#: methods where unlocked access is fine: construction and the pickle
#: protocol run before/outside any sharing
_EXEMPT_METHODS = {
    "__init__", "__new__", "__del__", "__post_init__",
    "__getstate__", "__setstate__", "__reduce__", "__reduce_ex__",
}

#: method names too generic to resolve across classes -- calling
#: ``payload.get(...)`` must not look like a call into ``Metrics.get``
_GENERIC_METHOD_NAMES = {
    "get", "set", "put", "pop", "push", "append", "appendleft", "extend",
    "add", "update", "remove", "discard", "clear", "items", "keys",
    "values", "insert", "index", "count", "sort", "reverse", "copy",
    "join", "split", "strip", "close", "open", "read", "write", "flush",
    "send", "recv", "acquire", "release", "wait", "notify", "notify_all",
    "start", "run", "result", "done", "cancel", "popleft", "popitem",
    "setdefault", "submit", "shutdown", "empty", "full", "qsize",
    "get_nowait", "put_nowait", "poll", "tick", "next", "reset",
}


@dataclass(frozen=True)
class _Access:
    """One ``self.<attr>`` touch of a guarded field."""

    attr: str
    line: int
    col: int
    held: FrozenSet[str]
    method: str


@dataclass(frozen=True)
class _Acquire:
    """One lock acquisition (``with self.<lock>:``)."""

    lock: str
    line: int
    held: FrozenSet[str]
    method: str
    nested: bool  # inside a nested def/lambda (deferred execution)


@dataclass(frozen=True)
class _MethodCall:
    """A call made while tracking lock state."""

    name: str
    on_self: bool
    line: int
    held: FrozenSet[str]
    method: str
    nested: bool


class _MethodWalk:
    """Single pass over one method body tracking held locks."""

    def __init__(self, cls: ClassInfo, method_name: str,
                 func: ast.FunctionDef, entry_held: FrozenSet[str]):
        self.cls = cls
        self.method = method_name
        self.lock_names = (set(cls.lock_attrs) | set(cls.guarded_by.values())
                           | set(cls.lock_aliases))
        self.accesses: List[_Access] = []
        self.acquires: List[_Acquire] = []
        self.calls: List[_MethodCall] = []
        body = list(func.body)
        self._visit_body(body, self._expand(entry_held), nested=False)

    def _expand(self, held: FrozenSet[str]) -> FrozenSet[str]:
        """Holding a Condition built on another lock holds that lock too."""
        out = set(held)
        for lock in held:
            alias = self.cls.lock_aliases.get(lock)
            if alias:
                out.add(alias)
        return frozenset(out)

    def _visit_body(self, stmts: Iterable[ast.stmt],
                    held: FrozenSet[str], nested: bool):
        for stmt in stmts:
            self._visit(stmt, held, nested)

    def _visit(self, node: ast.AST, held: FrozenSet[str], nested: bool):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = set(held)
            for item in node.items:
                self._visit(item.context_expr, held, nested)
                lock = self._self_attr(item.context_expr)
                if lock is not None and lock in self.lock_names:
                    self.acquires.append(_Acquire(
                        lock=lock, line=node.lineno, held=frozenset(held),
                        method=self.method, nested=nested))
                    new_held.add(lock)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held, nested)
            self._visit_body(node.body, self._expand(frozenset(new_held)),
                             nested)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def usually runs later; lock state at definition
            # time still applies lexically (closures capture self), so
            # keep ``held`` but mark everything inside as deferred.
            for decorator in node.decorator_list:
                self._visit(decorator, held, nested)
            self._visit_body(node.body, held, nested=True)
            return
        if isinstance(node, ast.Lambda):
            self._visit(node.body, held, nested=True)
            return
        if isinstance(node, ast.Attribute):
            self._visit(node.value, held, nested)
            attr = self._self_attr(node)
            if attr is not None and attr in self.cls.guarded_by:
                self.accesses.append(_Access(
                    attr=attr, line=node.lineno, col=node.col_offset,
                    held=held, method=self.method))
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver_self = (isinstance(func.value, ast.Name)
                                 and func.value.id == "self")
                self.calls.append(_MethodCall(
                    name=func.attr, on_self=receiver_self,
                    line=node.lineno, held=held, method=self.method,
                    nested=nested))
            for child in ast.iter_child_nodes(node):
                self._visit(child, held, nested)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, nested)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None


def _walk_class(cls: ClassInfo) -> List[_MethodWalk]:
    walks = []
    for name, func in cls.methods.items():
        entry = frozenset(cls.holds_annotation(func))
        walks.append(_MethodWalk(cls, name, func, entry))
    return walks


def _lock_classes(corpus: Corpus) -> List[ClassInfo]:
    return [cls for module in corpus.modules for cls in module.classes
            if cls.lock_attrs or cls.guarded_by]


class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = ("GUARDED_BY fields must only be accessed while "
                   "holding their declared lock")

    def check(self, corpus: Corpus) -> Iterable[Finding]:
        for module in corpus.modules:
            for cls in module.classes:
                node = cls.unreadable_guarded_by
                if node is not None:
                    yield Finding(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule=self.rule,
                        message=(
                            f"{cls.name}.GUARDED_BY is not a literal "
                            f"{{\"attr\": \"lock\"}} dict of strings, so "
                            f"its lock discipline goes unchecked; spell "
                            f"every entry out"))
                if not cls.guarded_by:
                    continue
                for walk in _walk_class(cls):
                    if walk.method in _EXEMPT_METHODS:
                        continue
                    for access in walk.accesses:
                        lock = cls.guarded_by[access.attr]
                        if lock in access.held:
                            continue
                        yield Finding(
                            path=module.path, line=access.line,
                            col=access.col, rule=self.rule,
                            message=(
                                f"'{cls.name}.{access.attr}' is declared "
                                f"GUARDED_BY '{lock}' but "
                                f"{cls.name}.{access.method}() accesses it "
                                f"without holding it; wrap the access in "
                                f"`with self.{lock}:` or, if every caller "
                                f"already holds the lock, annotate the def "
                                f"with `# squall-lint: holds={lock}`"))


class LockOrderChecker(Checker):
    rule = "lock-order"
    description = ("the cross-module lock acquisition graph must stay "
                   "acyclic (deadlock freedom)")

    def check(self, corpus: Corpus) -> Iterable[Finding]:
        classes = _lock_classes(corpus)
        walks: Dict[Tuple[str, str], _MethodWalk] = {}
        modules: Dict[str, str] = {}
        for cls in classes:
            modules[cls.name] = cls.module.path
            for walk in _walk_class(cls):
                walks[(cls.name, walk.method)] = walk

        # Footprint: locks a method acquires at call time (nested defs
        # excluded -- they run later, through unknown call paths).
        footprint: Dict[Tuple[str, str], Set[str]] = {}
        for key, walk in walks.items():
            footprint[key] = {acq.lock for acq in walk.acquires
                              if not acq.nested}

        # Which classes define a given (resolvable) method that acquires
        # locks -- used to resolve ``other.m()`` calls by name.
        method_owners: Dict[str, List[Tuple[str, str]]] = {}
        for (cls_name, method), locks in footprint.items():
            if locks and not method.startswith("__") \
                    and method not in _GENERIC_METHOD_NAMES:
                method_owners.setdefault(method, []).append(
                    (cls_name, method))

        # edge (held node -> acquired node) -> (line, path, via)
        edges: Dict[Tuple[Tuple[str, str], Tuple[str, str]],
                    Tuple[int, str, str]] = {}

        def add_edge(src: Tuple[str, str], dst: Tuple[str, str],
                     line: int, path: str, via: str):
            edges.setdefault((src, dst), (line, path, via))

        for cls in classes:
            path = cls.module.path
            for walk in (walks[(cls.name, m)] for m in cls.methods):
                for acq in walk.acquires:
                    if acq.nested:
                        continue
                    for held in acq.held:
                        add_edge((cls.name, held), (cls.name, acq.lock),
                                 acq.line, path, "lexical")
                for call in walk.calls:
                    if call.nested or not call.held:
                        continue
                    if call.on_self:
                        target = self._resolve_self(corpus, cls, call.name)
                        if target is None:
                            continue
                        for lock in footprint.get(target, ()):  # noqa: B007
                            for held in call.held:
                                add_edge((cls.name, held),
                                         (target[0], lock),
                                         call.line, path, "self-call")
                    else:
                        owners = method_owners.get(call.name, [])
                        for owner in owners:
                            if owner[0] == cls.name:
                                continue  # ambiguous receiver, same class
                            for lock in footprint[owner]:
                                for held in call.held:
                                    add_edge((cls.name, held),
                                             (owner[0], lock),
                                             call.line, path, "cross-call")

        yield from self._self_deadlocks(classes, edges)
        yield from self._cycles(edges, modules)

    @staticmethod
    def _resolve_self(corpus: Corpus, cls: ClassInfo,
                      method: str) -> Optional[Tuple[str, str]]:
        if method in cls.methods:
            return (cls.name, method)
        seen: Set[str] = set()
        stack = list(cls.bases)
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            for parent in corpus.by_name.get(base, ()):
                if method in parent.methods:
                    return (parent.name, method)
                stack.extend(parent.bases)
        return None

    def _self_deadlocks(self, classes, edges) -> Iterable[Finding]:
        kinds = {cls.name: cls.lock_attrs for cls in classes}
        paths = {cls.name: cls.module.path for cls in classes}
        for (src, dst), (line, path, via) in sorted(edges.items()):
            if src != dst or via == "cross-call":
                continue
            cls_name, lock = src
            kind = kinds.get(cls_name, {}).get(lock, "unknown")
            if kind in ("Lock", "Condition"):
                yield Finding(
                    path=paths.get(cls_name, path), line=line, col=0,
                    rule=self.rule,
                    message=(
                        f"'{cls_name}.{lock}' is a non-reentrant "
                        f"threading.{kind} but is re-acquired ({via}) "
                        f"while already held -- guaranteed self-deadlock"))

    def _cycles(self, edges, modules) -> Iterable[Finding]:
        graph: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        for (src, dst) in edges:
            if src != dst:
                graph.setdefault(src, set()).add(dst)
                graph.setdefault(dst, set())
        for component in _sccs(graph):
            if len(component) < 2:
                continue
            nodes = sorted(component)
            chain = " -> ".join(f"{c}.{lk}" for c, lk in nodes)
            witness = [(line, path)
                       for (src, dst), (line, path, _via) in edges.items()
                       if src in component and dst in component]
            line, path = min(witness)
            yield Finding(
                path=path, line=line, col=0, rule=self.rule,
                message=(
                    f"potential deadlock: lock acquisition cycle "
                    f"{chain} -> {nodes[0][0]}.{nodes[0][1]}; acquire "
                    f"these locks in one global order or drop one of "
                    f"the nested acquisitions"))


def _sccs(graph: Dict[Tuple[str, str], Set[Tuple[str, str]]]
          ) -> List[Set[Tuple[str, str]]]:
    """Tarjan strongly-connected components (iterative)."""
    index: Dict[Tuple[str, str], int] = {}
    low: Dict[Tuple[str, str], int] = {}
    on_stack: Set[Tuple[str, str]] = set()
    stack: List[Tuple[str, str]] = []
    counter = [0]
    out: List[Set[Tuple[str, str]]] = []

    def strongconnect(root):
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                out.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return out
