"""A Cypher-like query front-end (paper §6).

"HUGE can be extended as a Cypher-based distributed graph database, by
implementing more operations … and connecting it with a front-end parser."
This module provides that front-end for the pattern-matching core of
Cypher [57]:

    MATCH (a:User)--(b:User), (b)--(c), (c)--(a)
    RETURN count(*)

Supported surface:

* node patterns ``(name)`` and ``(name:Label)``;
* relationship patterns ``--``, ``-[]-``, ``-->``, ``<--``, ``-[:T]-``
  (the data graph is undirected, so direction and relationship types are
  accepted but ignored, with a parse-time warning available via
  ``strict=True``);
* chained paths and comma-separated pattern parts;
* ``RETURN count(*)`` (count) or ``RETURN a, b, …`` (bindings).

Labels are resolved through a ``label_ids`` mapping (label name → integer
label in the data graph's label array).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping

from ..cluster.cluster import Cluster
from ..core.engine import EngineConfig, HugeEngine
from ..query.pattern import QueryGraph

__all__ = ["CypherError", "ParsedQuery", "parse_cypher", "execute_cypher",
           "CypherResult"]


class CypherError(ValueError):
    """Raised for queries outside the supported Cypher subset."""


_NODE = re.compile(r"\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?::\s*"
                   r"([A-Za-z_][A-Za-z_0-9]*))?\s*\)")
_REL = re.compile(r"<?-\s*(?:\[\s*(?::\s*[A-Za-z_][A-Za-z_0-9]*)?\s*\])?"
                  r"\s*->?")


@dataclass(frozen=True)
class ParsedQuery:
    """Outcome of parsing: the pattern plus variable bookkeeping."""

    pattern: QueryGraph
    variables: tuple[str, ...]
    """Variable names in pattern-vertex order (vertex i ↔ variables[i])."""

    returns: tuple[str, ...] | None
    """Names to return, or ``None`` for ``count(*)``."""


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside brackets/parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_cypher(text: str,
                 label_ids: Mapping[str, int] | None = None) -> ParsedQuery:
    """Parse a ``MATCH … RETURN …`` query into a (possibly labelled)
    :class:`~repro.query.pattern.QueryGraph`."""
    squashed = " ".join(text.split())
    m = re.fullmatch(r"(?i)MATCH\s+(.+?)\s+RETURN\s+(.+?)\s*;?",
                     squashed.strip())
    if not m:
        raise CypherError("expected: MATCH <pattern> RETURN <items>")
    pattern_text, return_text = m.group(1), m.group(2)

    var_ids: dict[str, int] = {}
    var_labels: dict[str, str | None] = {}
    edges: list[tuple[int, int]] = []

    def node_id(name: str, label: str | None) -> int:
        if name not in var_ids:
            var_ids[name] = len(var_ids)
            var_labels[name] = label
        elif label is not None:
            prior = var_labels[name]
            if prior is not None and prior != label:
                raise CypherError(
                    f"variable {name!r} bound to conflicting labels "
                    f"{prior!r} and {label!r}")
            var_labels[name] = label
        return var_ids[name]

    for part in _split_top(pattern_text, ","):
        part = part.strip()
        pos = 0
        prev: int | None = None
        while pos < len(part):
            node = _NODE.match(part, pos)
            if not node:
                raise CypherError(f"expected a node pattern at: "
                                  f"{part[pos:]!r}")
            vid = node_id(node.group(1), node.group(2))
            if prev is not None:
                if prev == vid:
                    raise CypherError(
                        f"self-relationship on {node.group(1)!r}")
                edges.append((prev, vid))
            prev = vid
            pos = node.end()
            if pos >= len(part):
                break
            rel = _REL.match(part, pos)
            if not rel or rel.end() == rel.start():
                raise CypherError(f"expected a relationship at: "
                                  f"{part[pos:]!r}")
            pos = rel.end()
            # undirected data graph: direction/type are parsed and ignored

    if not edges:
        raise CypherError("the pattern must contain at least one "
                          "relationship")

    variables = tuple(sorted(var_ids, key=var_ids.get))
    labels: list[int | None] = []
    for name in variables:
        label = var_labels[name]
        if label is None:
            labels.append(None)
        else:
            if label_ids is None or label not in label_ids:
                raise CypherError(f"unknown label {label!r}; provide it in "
                                  f"label_ids")
            labels.append(int(label_ids[label]))
    pattern = QueryGraph(len(variables), edges, name="cypher",
                         labels=labels)
    if not pattern.is_connected():
        raise CypherError("disconnected MATCH patterns are not supported")

    return_text = return_text.strip()
    if re.fullmatch(r"(?i)count\s*\(\s*\*\s*\)", return_text):
        returns: tuple[str, ...] | None = None
    else:
        names = tuple(x.strip() for x in return_text.split(","))
        unknown = [x for x in names if x not in var_ids]
        if unknown:
            raise CypherError(f"RETURN of unbound variables: {unknown}")
        returns = names
    return ParsedQuery(pattern, variables, returns)


@dataclass
class CypherResult:
    """Result of :func:`execute_cypher`."""

    count: int
    columns: tuple[str, ...] | None
    rows: list[tuple[int, ...]] | None
    report: object


def execute_cypher(cluster: Cluster, text: str,
                   label_ids: Mapping[str, int] | None = None,
                   config: EngineConfig | None = None) -> CypherResult:
    """Parse and run a Cypher query on the HUGE engine.

    ``RETURN count(*)`` queries count; ``RETURN a, b`` queries collect the
    bound data vertices per match (projected to the requested variables).
    """
    parsed = parse_cypher(text, label_ids)
    collect = parsed.returns is not None
    if config is None:
        config = EngineConfig(collect_results=collect)
    elif collect:
        config = replace(config, collect_results=True)
    engine = HugeEngine(cluster, config)
    result = engine.run(parsed.pattern)
    if parsed.returns is None:
        return CypherResult(result.count, None, None, result.report)
    positions = [parsed.variables.index(name) for name in parsed.returns]
    rows = [tuple(match[p] for p in positions) for match in result.matches]
    return CypherResult(result.count, parsed.returns, rows, result.report)
