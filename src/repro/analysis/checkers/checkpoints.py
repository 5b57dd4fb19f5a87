"""Checkpoint-completeness checker.

Recovery replays from checkpointed state; any mutable field the
checkpoint protocol does not capture is silently reset on restore.  Two
past-incident shapes are enforced:

1. **Routing state.**  Routing must be a pure function of a row and of
   what its emitting task counts and checkpoints (its stream position,
   which the shuffle reads; its occurrence number, which random
   dimensions read), so a recovery replay places every row where it
   first landed with nothing to checkpoint.  A ``Grouping``/``Partitioner``
   subclass that mutates an instance attribute outside ``__init__`` (a
   round-robin cursor, an adaptive histogram; a draw from a
   ``random.Random`` attribute counts) must say it is not pure, by
   returning ``False`` from ``supports_task_local_routing()``.

2. **Dropped pickle keys.**  A ``__getstate__`` that removes a key from
   the state dict (``del state["_fn"]`` / ``state.pop("_fn")``) must be
   paired with a ``__setstate__`` that rebuilds that attribute,
   otherwise every recovered instance is missing it (the historical
   Selection/Projection closure bug -- their ``__setstate__`` recompiles
   the dropped closures).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.core import Checker, ClassInfo, Corpus, Finding

ROUTING_ROOTS = {"Grouping", "Partitioner"}

#: mutating calls on ``self.<attr>.<m>(...)``: container methods, and
#: the draws of a ``random.Random`` (each advances the generator)
_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "add", "update",
    "pop", "popleft", "popitem", "remove", "discard", "clear", "insert",
    "setdefault", "sort", "reverse", "rotate", "random", "randrange",
    "randint", "choice", "choices", "shuffle", "sample", "uniform",
}

#: methods whose writes do not need capturing: construction and the
#: pickle protocol itself
_EXEMPT_WRITERS = {
    "__init__", "__new__", "__post_init__", "__setstate__", "prepare",
}


class CheckpointCompletenessChecker(Checker):
    rule = "checkpoint-completeness"
    description = ("mutable operator/routing state must be captured by "
                   "the checkpoint protocol")

    def check(self, corpus: Corpus) -> Iterable[Finding]:
        yield from self._routing_state(corpus)
        yield from self._dropped_keys(corpus)

    # -- part 1: Grouping/Partitioner routing state ---------------------

    def _routing_state(self, corpus: Corpus) -> Iterable[Finding]:
        for cls in corpus.subclasses(ROUTING_ROOTS):
            mutated = _mutated_attrs(cls)
            if not mutated or _declares_stateful(corpus, cls, set()):
                continue
            attrs = ", ".join(sorted(mutated))
            yield Finding(
                path=cls.module.path, line=cls.node.lineno, col=0,
                rule=self.rule,
                message=(
                    f"'{cls.name}' mutates routing state ({attrs}) outside "
                    f"__init__ but does not return False from "
                    f"supports_task_local_routing(); routing must be a "
                    f"pure function of a row and what its emitting task "
                    f"counts (stream position, occurrence number), or a "
                    f"recovery replay re-routes the rows elsewhere"))

    # -- part 2: __getstate__ drops a key, __setstate__ never restores --

    def _dropped_keys(self, corpus: Corpus) -> Iterable[Finding]:
        for module in corpus.modules:
            for cls in module.classes:
                getstate = cls.methods.get("__getstate__")
                if getstate is None:
                    continue
                dropped = _dropped_state_keys(getstate)
                if not dropped:
                    continue
                setstate = cls.methods.get("__setstate__")
                restored: Set[str] = set()
                if setstate is not None:
                    restored = _restored_keys(setstate)
                for key, line in sorted(dropped.items()):
                    if key in restored:
                        continue
                    hint = ("define __setstate__ to rebuild it"
                            if setstate is None else
                            f"restore it in {cls.name}.__setstate__")
                    yield Finding(
                        path=module.path, line=line, col=0, rule=self.rule,
                        message=(
                            f"'{cls.name}.__getstate__' drops '{key}' from "
                            f"the pickled state but __setstate__ never "
                            f"restores it; every recovered instance is "
                            f"missing the attribute -- {hint}"))


def _declares_stateful(corpus: Corpus, cls: ClassInfo,
                       seen: Set[str]) -> bool:
    """Whether the nearest ``supports_task_local_routing`` in ``cls``'s
    ancestry (below the roots) has a ``return False``."""
    method = cls.methods.get("supports_task_local_routing")
    if method is not None:
        return any(isinstance(node, ast.Return)
                   and isinstance(node.value, ast.Constant)
                   and node.value.value is False for node in ast.walk(method))
    bases = set(cls.bases) - ROUTING_ROOTS - seen
    seen |= bases
    return any(_declares_stateful(corpus, parent, seen)
               for base in sorted(bases)
               for parent in corpus.by_name.get(base, ()))


def _mutated_attrs(cls: ClassInfo) -> Dict[str, List[int]]:
    """Instance attrs written/mutated outside construction."""
    out: Dict[str, List[int]] = {}

    def note(attr: str, line: int):
        out.setdefault(attr, []).append(line)

    for method_name, func in cls.methods.items():
        if method_name in _EXEMPT_WRITERS or method_name.startswith("__"):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for attr in _store_target_attrs(target):
                        note(attr, node.lineno)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    for attr in _store_target_attrs(target):
                        note(attr, node.lineno)
            elif isinstance(node, ast.Call):
                func_node = node.func
                if (isinstance(func_node, ast.Attribute)
                        and func_node.attr in _MUTATORS):
                    attr = _self_attr(func_node.value)
                    if attr is not None:
                        note(attr, node.lineno)
    return out


def _store_target_attrs(target: ast.expr) -> Iterable[str]:
    """``self.x = ...`` / ``self.x[k] = ...`` / ``del self.x[k]`` -> 'x'."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _store_target_attrs(element)
        return
    if isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
    else:
        attr = _self_attr(target)
    if attr is not None:
        yield attr


def _self_attr(node: ast.expr) -> Optional[str]:
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _dropped_state_keys(getstate: ast.FunctionDef) -> Dict[str, int]:
    """String keys removed from any dict inside ``__getstate__``."""
    dropped: Dict[str, int] = {}
    for node in ast.walk(getstate):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    dropped[target.slice.value] = node.lineno
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "pop" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            dropped[node.args[0].value] = node.lineno
    return dropped


def _restored_keys(setstate: ast.FunctionDef) -> Set[str]:
    """Attrs assigned (``self.x = ...``) or keys written back
    (``state["x"] = ...``) inside ``__setstate__``."""
    restored: Set[str] = set()
    for node in ast.walk(setstate):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    restored.add(attr)
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    restored.add(target.slice.value)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setdefault" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            restored.add(node.args[0].value)
    return restored
