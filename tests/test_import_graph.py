"""The import graph of ``src/repro`` has no cycle.

Every ``import`` and ``from ... import`` in every module is an edge, at
any nesting depth: an import inside a function still runs, only later.
An import also runs the ``__init__`` of each package on the dotted path,
so it gets an edge to each of those packages too, except the importing
module's own parents, which are already initialised when it runs.  A
cycle means some module, imported first, can find another one only half
initialised.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_REPRO = Path(importlib.util.find_spec("repro").origin).parent


def _module_files() -> dict[str, Path]:
    files = {}
    for path in sorted(_REPRO.rglob("*.py")):
        parts = path.relative_to(_REPRO.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _prefixes(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _imported(node: ast.AST, module: str, is_package: bool, known) -> list[str]:
    """The modules one import statement names, each with its packages."""
    if isinstance(node, ast.Import):
        return [p for alias in node.names for p in _prefixes(alias.name)]
    if node.level:
        base = module.split(".")
        if not is_package:
            base = base[:-1]
        base = base[: len(base) - node.level + 1]
        target = ".".join(base + ([node.module] if node.module else []))
    else:
        target = node.module
    names = _prefixes(target)
    names += [f"{target}.{alias.name}" for alias in node.names
              if f"{target}.{alias.name}" in known]
    return names


def import_graph() -> dict[str, set[str]]:
    files = _module_files()
    graph = {}
    for module, path in files.items():
        is_package = path.name == "__init__.py"
        parents = set(_prefixes(module))
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                edges.update(_imported(node, module, is_package, files))
        graph[module] = {m for m in edges if m in files and m not in parents}
    return graph


def strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iteratively: the components of two or more."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found = []
    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            child = next(children, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    found.append(sorted(component))
    return found


def one_cycle(graph: dict[str, set[str]], component: list[str]) -> list[str]:
    """A shortest cycle through the component's first module."""
    members = set(component)
    start = component[0]
    paths = {start: [start]}
    frontier = [start]
    while frontier:
        following = []
        for node in frontier:
            for child in sorted(graph[node] & members):
                if child == start:
                    return paths[node] + [start]
                if child not in paths:
                    paths[child] = paths[node] + [child]
                    following.append(child)
        frontier = following
    raise AssertionError(f"{component} is not strongly connected")


def test_graph_sees_every_module_and_package_edge():
    graph = import_graph()
    assert len(graph) > 100
    # ``from repro.codec.types import X`` runs ``repro/codec/__init__.py``.
    assert {"repro.codec", "repro.codec.types"} <= graph["repro.core.study"]
    # A module's own parent packages are already initialised.
    assert "repro.codec" not in graph["repro.codec.encoder"]


def test_import_graph_is_acyclic():
    graph = import_graph()
    components = strongly_connected(graph)
    assert not components, (
        f"{len(components)} import cycle(s); sizes "
        f"{[len(c) for c in components]}; one of them: "
        + " -> ".join(one_cycle(graph, components[0]))
    )
