"""``repro.analysis`` -- reprolint, the repo's domain-invariant linter.

An AST-based static-analysis pass over invariants no generic linter can
see, each protecting a property the test and benchmark suites rely on:

* **RPL001 determinism** -- no wall-clock or global-RNG reads in pricing
  paths; randomness flows through seeded ``np.random.default_rng(seed)``.
* **RPL002 dtype discipline** -- designated hot-path modules and every
  ``aggregate_rows`` body stay float32: no ``np.float64``, no dtype-less
  array constructors, no ``.astype(float64)`` round-trips.
* **RPL003 cache-key purity** -- ``cache_key``/``canonical*`` functions
  never read display names, ``id()``, ``hash()``, or unsorted dict/set
  iteration: identities must be restart-stable.
* **RPL004 executor safety** -- nothing unpicklable (lambdas, closures,
  bound methods) crosses the ``repro.api.executors`` process boundary, and
  worker functions never write module-level mutable state.
* **RPL005 async hygiene** -- no blocking calls (``time.sleep``,
  synchronous sqlite, ``subprocess``) inside ``async def`` in the service
  layer without executor offload.
* **RPL006 registry contract** -- every ``@register``-ed scheme defines
  ``aggregate_rows`` and ``estimate_bucket_costs`` or explicitly inherits
  them.

Run it with ``python -m repro.analysis [paths...]``; configuration lives in
``pyproject.toml`` under ``[tool.reprolint]``; suppress a deliberate
violation inline with ``# reprolint: disable=RPL001 - justification``.
"""

from repro.analysis.config import ConfigError, LintConfig, load_config
from repro.analysis.engine import (
    AnalysisReport,
    FileContext,
    PARSE_ERROR_CODE,
    run_analysis,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Rule,
    UnknownRuleError,
    all_rules,
    available_rules,
    get_rule,
)
from repro.analysis.reporting import SCHEMA_VERSION, render_json, render_text

__all__ = [
    "AnalysisReport",
    "ConfigError",
    "FileContext",
    "Finding",
    "LintConfig",
    "PARSE_ERROR_CODE",
    "Rule",
    "SCHEMA_VERSION",
    "UnknownRuleError",
    "all_rules",
    "available_rules",
    "get_rule",
    "load_config",
    "render_json",
    "render_text",
    "run_analysis",
]
