"""Rendering helpers for stored traces: tree view and critical path.

``repro runs trace <run>`` consumes these; they are kept out of the CLI so a
future HTTP front end (ROADMAP's results-as-a-service direction) can reuse
the same tree/critical-path computation on raw span dicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def _children_by_parent(spans: Sequence[Dict[str, Any]]) -> Dict[Any, List[Dict[str, Any]]]:
    ids = {span.get("span_id") for span in spans}
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        # A span whose parent was not recorded (sampled out, or a pool chunk
        # whose parent came from another record) roots its own tree.
        key = parent if parent in ids else None
        children.setdefault(key, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: (span.get("start") or 0.0, str(span.get("span_id"))))
    return children


def _label(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs") or {}
    detail = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    duration_ms = (span.get("duration") or 0.0) * 1000.0
    head = f"{span.get('name', '?')} [{duration_ms:.2f} ms]"
    return f"{head} {detail}".rstrip()


def render_trace_tree(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Indented tree lines for one trace's span dicts."""
    if not spans:
        return ["(no spans recorded)"]
    children = _children_by_parent(spans)
    lines: List[str] = []

    def walk(span: Dict[str, Any], depth: int) -> None:
        lines.append("  " * depth + _label(span))
        for child in children.get(span.get("span_id"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines


def critical_path(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Root-to-leaf chain ending at the latest-finishing span.

    The last span to finish is what the whole run waited for; following its
    ancestry names the chain of work that bounded the wall clock (the
    slowest chunk's slowest trial, in a pooled sweep).
    """
    if not spans:
        return []
    children = _children_by_parent(spans)

    def end(span: Dict[str, Any]) -> float:
        return (span.get("start") or 0.0) + (span.get("duration") or 0.0)

    def descend(span: Dict[str, Any]) -> List[Dict[str, Any]]:
        branch = [span]
        offspring = children.get(span.get("span_id"), [])
        if offspring:
            branch.extend(descend(max(offspring, key=end)))
        return branch

    roots = children.get(None, [])
    return descend(max(roots, key=end)) if roots else []


def render_critical_path(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """The critical path as printable lines (deepest last)."""
    path = critical_path(spans)
    if not path:
        return ["(no spans recorded)"]
    return [("  " * depth) + "-> " + _label(span) for depth, span in enumerate(path)]
