"""Prometheus text exposition: render samples, and parse them back.

The renderer emits the v0.0.4 text format (``# TYPE`` per family,
``name{label="value"} number`` per sample); the parser inverts it
exactly, which gives the test suite a true round-trip check and gives
REPL/debug users a dependency-free scrape reader.  Only what the
registry produces is supported -- no exemplars, no timestamps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.registry import Sample

#: a parsed scrape: (name, sorted label pairs) -> value
Parsed = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]

_ESCAPES = (("\\", "\\\\"), ("\n", "\\n"), ('"', '\\"'))


def _escape(value: str) -> str:
    for char, escaped in _ESCAPES:
        value = value.replace(char, escaped)
    return value


def _unescape(value: str) -> str:
    for char, escaped in reversed(_ESCAPES):
        value = value.replace(escaped, char)
    return value


def _family(name: str, kind: str) -> str:
    """The metric family a sample line belongs to (histogram samples
    ``x_bucket``/``x_sum``/``x_count`` all belong to family ``x``)."""
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                return name[: -len(suffix)]
    return name


def render(samples: Iterable[Sample]) -> str:
    """Samples -> Prometheus text, one ``# TYPE`` line per family."""
    lines: List[str] = []
    typed: set = set()
    for name, labels, value, kind in samples:
        family = _family(name, kind)
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {kind}")
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(str(val))}"'
                for key, val in sorted(labels.items()))
            lines.append(f"{name}{{{rendered}}} {value!r}")
        else:
            lines.append(f"{name} {value!r}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Parsed:
    """Prometheus text -> ``{(name, sorted labels): value}``.

    Comments and blank lines are skipped; a malformed sample line, or
    a second sample of one ``(name, labels)`` series, raises
    ``ValueError`` with the offending line.
    """
    out: Parsed = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        if (name, labels) in out:
            raise ValueError(f"duplicate series: {line!r}")
        out[(name, labels)] = value
    return out


def _parse_sample(line: str) -> Tuple[str, Tuple[Tuple[str, str], ...], float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        body, tail = _split_label_body(rest)
        labels = tuple(sorted(_parse_labels(body)))
        value_text = tail.strip()
    else:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed sample line: {line!r}")
        name, value_text = parts
        labels = ()
    return name.strip(), labels, float(value_text)


def _split_label_body(rest: str) -> Tuple[str, str]:
    """Split ``k="v",...} value`` at the closing brace, respecting
    escaped quotes inside label values."""
    in_quotes = False
    escaped = False
    for index, char in enumerate(rest):
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            in_quotes = not in_quotes
        elif char == "}" and not in_quotes:
            return rest[:index], rest[index + 1:]
    raise ValueError(f"unterminated label set: {{{rest!r}")


def _parse_labels(body: str) -> List[Tuple[str, str]]:
    labels: List[Tuple[str, str]] = []
    index = 0
    while index < len(body):
        equals = body.index("=", index)
        key = body[index:equals].strip().lstrip(",").strip()
        if body[equals + 1] != '"':
            raise ValueError(f"unquoted label value in: {body!r}")
        end = equals + 2
        escaped = False
        while end < len(body):
            char = body[end]
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                break
            end += 1
        else:
            raise ValueError(f"unterminated label value in: {body!r}")
        labels.append((key, _unescape(body[equals + 2:end])))
        index = end + 1
    return labels
