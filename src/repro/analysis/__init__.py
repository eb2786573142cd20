"""Determinism & distribution-safety static analysis (``repro-bench lint``).

The repo's core contract — bit-identical results across serial,
process, and remote backends and across store tiers — keeps being
threatened by a small family of defects that generic linters cannot see:
unordered float folds whose iteration order changes across a pickle
boundary, wall-clock reads leaking into model code that must draw only
from the seed tree, closures escaping into process-pool dispatch seams,
and protocol frames with no handler on the other end. Each of those has
bitten this repo at least once (see ``docs/ANALYSIS.md`` for the
history); this package encodes them as cheap AST checks that run in CI
*before* the expensive cross-backend test matrix gets a chance to catch
them late.

Layout:

* :mod:`repro.analysis.findings` — the :class:`Finding` record and its
  drift-stable fingerprint (the baseline's key).
* :mod:`repro.analysis.suppressions` — inline ``# repro: ignore[RBxxx]``
  pragmas and the unused-suppression check.
* :mod:`repro.analysis.framework` — the rule registry, per-module and
  cross-module rule base classes, and the :class:`Analyzer` driver.
* :mod:`repro.analysis.rules` — the repo-specific rules (RB101..RB104).
* :mod:`repro.analysis.concurrency` — class-level thread-role inference
  and guarded-attribute dataflow for the threaded services.
* :mod:`repro.analysis.rules_concurrency` — the concurrency-safety rule
  family (RB201..RB204): races, blocking under locks, lock-order
  cycles, leaked threads.
* :mod:`repro.analysis.baseline` — the committed-baseline format that
  lets the gate adopt a tree with pre-existing findings.
* :mod:`repro.analysis.cli` — ``repro-bench lint`` / ``repro-lint``.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, fingerprint_findings
from repro.analysis.framework import (
    AnalysisConfig,
    Analyzer,
    ModuleSource,
    RULE_REGISTRY,
    Rule,
    register_rule,
)
from repro.analysis import rules as _rules  # registers RB101..RB104  # noqa: F401
from repro.analysis import (  # registers RB201..RB204  # noqa: F401
    rules_concurrency as _rules_concurrency,
)

__all__ = [
    "Analyzer",
    "AnalysisConfig",
    "Baseline",
    "Finding",
    "ModuleSource",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "fingerprint_findings",
]
