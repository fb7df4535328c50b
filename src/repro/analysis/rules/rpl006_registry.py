"""RPL006: the scheme-registry hot-path contract.

Every ``@register``-ed scheme family runs and is priced through two entry
points the rest of the system assumes exist *deliberately*:
``aggregate_rows`` (the family's one aggregation body, which the simulator,
error feedback and the bridge's ranks all run; it is abstract on the base
class, so a family without it fails only when first built) and
``estimate_bucket_costs`` (the pipeline simulator's layer-aware pricing --
the base default is a uniform split that is wrong for layer-aware schemes
like PowerSGD).  A newly registered family that merely *forgets* one of
them fails late or is subtly mispriced; this rule fails it at lint time.

This semantic pass over class bodies requires each ``@register``-ed class
to either define both methods or state the inheritance explicitly::

    class MyScheme(AggregationScheme):
        # uniform per-bucket split of estimate_cost is correct here
        estimate_bucket_costs = AggregationScheme.estimate_bucket_costs

so "uses the default" is always a reviewed decision, never an accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import rule
from repro.analysis.rules.base import decorator_base_name

_REQUIRED = ("aggregate_rows", "estimate_bucket_costs")


def _register_decorator(node: ast.ClassDef) -> bool:
    return any(
        decorator_base_name(decorator) == "register" for decorator in node.decorator_list
    )


def _defined_names(node: ast.ClassDef) -> set[str]:
    """Method defs and explicit-inheritance assignments in the class body."""
    names: set[str] = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.Assign):
            names.update(
                target.id
                for target in statement.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            names.add(statement.target.id)
    return names


@rule(
    "RPL006",
    name="registry-contract",
    invariant=(
        "every @register-ed scheme defines aggregate_rows and "
        "estimate_bucket_costs, or explicitly inherits them "
        "(`name = Base.name`) so the default is a reviewed decision"
    ),
    default_paths=("src/repro",),
    default_options={"required_methods": _REQUIRED},
)
class RegistryContractRule:
    def check(self, tree: ast.AST, ctx) -> Iterator[Finding]:
        required = tuple(ctx.options.get("required_methods", _REQUIRED))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _register_decorator(node):
                continue
            defined = _defined_names(node)
            missing = [name for name in required if name not in defined]
            if missing:
                yield ctx.finding(
                    node,
                    f"@register-ed scheme `{node.name}` neither defines nor "
                    f"explicitly inherits: {', '.join(missing)}; add the "
                    "implementation or state the inheritance "
                    "(`method = Base.method`) so the default is deliberate",
                )
