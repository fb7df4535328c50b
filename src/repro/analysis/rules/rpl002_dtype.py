"""RPL002: float32 discipline in the kernel hot path.

The kernels' speed rests on the stacked ``(n, d)`` worker matrix
staying float32 end to end.  One accidental float64 round-trip -- a
dtype-less ``np.zeros``, an ``.astype(np.float64)``, a ``dtype=float`` --
doubles memory traffic and silently halves BLAS throughput, and the perf
harness only catches it after the fact.  This rule checks, inside the
designated hot-path modules and inside every function named in
``hot_functions`` (the families' ``aggregate_rows`` bodies by default):

* any read of ``np.float64`` / ``np.double`` (or the literal strings
  ``"float64"`` / ``"double"`` used as a dtype);
* array constructors (``np.array``/``zeros``/``ones``/``empty``/``full``)
  without an explicit ``dtype=`` -- numpy defaults them to float64.  An
  explicit ``copy=`` keyword exempts the call: copying an existing array is
  dtype-preserving by construction;
* ``.astype`` casts to float64 (including the builtin ``float``).

Deliberate float64 -- a handful of per-worker scalars, PowerSGD's power
iteration, the per-vector reference transform's dtype -- carries
``# reprolint: disable=RPL002`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import rule
from repro.analysis.rules.base import import_aliases, qualified_name

_FLOAT64_NAMES = {"numpy.float64", "numpy.double", "numpy.float_", "numpy.longdouble"}
_FLOAT64_STRINGS = {"float64", "double", "f8", ">f8", "<f8"}
_DEFAULT_FLOAT64_CONSTRUCTORS = {
    "numpy.array",
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
}


def _is_float64_expr(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Whether an expression names float64 (np.float64, "float64", float)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FLOAT64_STRINGS
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    name = qualified_name(node, aliases)
    return name in _FLOAT64_NAMES


class _HotScope(ast.NodeVisitor):
    """Tracks whether the visitor currently sits inside a hot function."""

    def __init__(self, hot_functions: set[str], whole_module: bool):
        self.hot_functions = hot_functions
        self.whole_module = whole_module
        self._depth = 0
        self.hits: list[tuple[ast.AST, str]] = []
        self.aliases: dict[str, str] = {}

    @property
    def active(self) -> bool:
        return self.whole_module or self._depth > 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        entering = node.name in self.hot_functions
        if entering:
            self._depth += 1
        self.generic_visit(node)
        if entering:
            self._depth -= 1

    # ------------------------------------------------------------------ #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.active:
            name = qualified_name(node, self.aliases)
            if name in _FLOAT64_NAMES:
                self.hits.append(
                    (node, f"`{name}` in a float32 hot path; use np.float32")
                )
                return  # do not descend: one finding per chain
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.active:
            self._check_call(node)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # Bare "float64" strings only matter as dtype= values; those are
        # caught at the call site to avoid flagging docstrings.
        pass

    def _check_call(self, node: ast.Call) -> None:
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        name = qualified_name(node.func, self.aliases)
        if name in _DEFAULT_FLOAT64_CONSTRUCTORS:
            if "dtype" not in keywords and "copy" not in keywords:
                short = name.split(".")[-1]
                self.hits.append(
                    (
                        node,
                        f"dtype-less `np.{short}(...)` defaults to float64 in a "
                        "float32 hot path; pass dtype=np.float32 (or copy= for "
                        "a dtype-preserving copy)",
                    )
                )
        # Attribute spellings (np.float64) are reported once by
        # visit_Attribute; the call-site checks cover the spellings an
        # attribute walk cannot see (dtype strings, the builtin `float`).
        for kw in node.keywords:
            if (
                kw.arg == "dtype"
                and not isinstance(kw.value, ast.Attribute)
                and _is_float64_expr(kw.value, self.aliases)
            ):
                self.hits.append(
                    (kw.value, "dtype resolves to float64 in a float32 hot path")
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and not isinstance(node.args[0], ast.Attribute)
            and _is_float64_expr(node.args[0], self.aliases)
        ):
            self.hits.append(
                (
                    node,
                    ".astype to float64 round-trips the hot path out of "
                    "float32; keep the matrix float32 (deliberate float64 "
                    "suppresses with a justification)",
                )
            )


@rule(
    "RPL002",
    name="dtype-discipline",
    invariant=(
        "designated hot-path modules and aggregate_rows bodies stay "
        "float32: no np.float64, no dtype-less array constructors, no float64 "
        "astype round-trips"
    ),
    default_paths=("src/repro",),
    default_options={
        "modules": (
            "src/repro/compression/kernels.py",
            "src/repro/collectives/batched.py",
        ),
        "hot_functions": ("aggregate_rows",),
    },
)
class DtypeDisciplineRule:
    def check(self, tree: ast.AST, ctx) -> Iterator[Finding]:
        modules = tuple(ctx.options.get("modules", ()))
        hot_functions = set(ctx.options.get("hot_functions", ("aggregate_rows",)))
        whole_module = ctx.relpath in modules
        scope = _HotScope(hot_functions, whole_module)
        scope.aliases = import_aliases(tree)
        scope.visit(tree)
        for node, message in scope.hits:
            yield ctx.finding(node, message)
