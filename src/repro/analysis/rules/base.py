"""Shared AST helpers for reprolint rules.

The central primitive is *qualified-name resolution*: mapping a call like
``npr.rand(...)`` back to ``numpy.random.rand`` through the module's import
aliases, so rules match semantics ("a call into numpy's global RNG") rather
than surface spelling.
"""

from __future__ import annotations

import ast


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted import path they are bound to.

    Covers ``import x``, ``import x.y as z``, ``from x import y``, and
    ``from x import y as z`` at any nesting level.  Relative imports keep
    their module path without the leading dots (good enough for matching
    suffixes like ``executors.run_tasks``).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    # `import numpy.random` binds the root name; the full
                    # dotted path re-emerges through attribute resolution.
                    root = name.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{module}.{name.name}" if module else name.name
    return aliases


def qualified_name(
    node: ast.AST, aliases: dict[str, str], *, require_import: bool = False
) -> str | None:
    """The dotted name of a Name/Attribute chain, import aliases resolved.

    ``np.random.rand`` (with ``import numpy as np``) resolves to
    ``"numpy.random.rand"``; chains rooted in anything but a plain name
    (calls, subscripts) resolve to ``None``.  With ``require_import`` the
    chain must be rooted in an imported name -- a local variable that merely
    shadows a module name (``time = ...``) resolves to ``None`` instead of a
    false positive.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    if require_import and current.id not in aliases:
        return None
    root = aliases.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


def call_name(
    node: ast.Call, aliases: dict[str, str], *, require_import: bool = False
) -> str | None:
    """The resolved dotted name of a call's target, if resolvable."""
    return qualified_name(node.func, aliases, require_import=require_import)


def module_level_targets(tree: ast.Module) -> set[str]:
    """Names assigned at module level (candidates for shared mutable state)."""
    targets: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    targets.add(target.id)
                elif isinstance(target, ast.Tuple):
                    targets.update(
                        element.id
                        for element in target.elts
                        if isinstance(element, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets.add(node.target.id)
    return targets


def decorator_base_name(decorator: ast.expr) -> str | None:
    """The trailing identifier of a decorator (``register`` in
    ``@spec.register("thc", ...)``), whether or not it is called."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None
