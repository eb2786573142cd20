"""The checker framework: rule registry, module loading, and the driver.

Rules come in two shapes:

* **per-module** rules (``cross = False``) get one
  :class:`ModuleSource` at a time and report findings local to it;
* **cross-module** rules (``cross = True``) get the whole analyzed set
  at once — protocol hygiene (RB104) needs to match a ``send_frame``
  call in one place against handler arms that may live elsewhere.

Rules self-register via :func:`register_rule` into :data:`RULE_REGISTRY`
keyed by their ``RBxxx`` code; the :class:`Analyzer` runs every
registered rule (or an explicit subset) over every ``.py`` file under
the given paths, applies inline suppressions, and returns findings in
positional order. Policy that is *deployment configuration* rather than
code — which modules are sanctioned timing/randomness seams, which
modules form one protocol group — lives in :class:`AnalysisConfig`, so
rule logic stays free of repo-specific path lists.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.findings import Finding, sort_findings
from repro.analysis.suppressions import (
    apply_suppressions,
    collect_suppressions,
    statement_spans,
)

__all__ = [
    "PARSE_FAILURE_CODE",
    "SYNTAX_ERROR_CODE",
    "AnalysisConfig",
    "Analyzer",
    "ModuleSource",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
]

#: A file the analyzer cannot parse is itself a finding: a syntactically
#: broken module silently exempt from every rule would be a hole in the
#: gate.
SYNTAX_ERROR_CODE = "RB901"

#: A file the analyzer cannot even *read or analyze* — undecodable bytes,
#: a vanished path, or a rule crashing on its AST. Crash-safety: one
#: broken file must surface as a per-file finding (path + line), never as
#: an unhandled traceback that takes the whole run (and the gate) down.
PARSE_FAILURE_CODE = "RB000"


@dataclass(frozen=True)
class AnalysisConfig:
    """Repo-level policy the rules consult.

    ``seams`` maps a rule code to ``{path suffix: justification}`` —
    modules allowlisted for that rule because nondeterminism is their
    *job* (the scheduler timing wall clocks, the store stamping
    recency). A seam is deliberate, central, and reviewed here, unlike
    an inline ignore scattered at a call site;
    ``docs/ANALYSIS.md`` documents every default entry. Unused seams are
    reported (like unused suppressions) when the seam's module was part
    of the analyzed set.

    ``protocol_groups`` maps a path suffix to a group name for RB104;
    modules not named here each form their own group (both ends of the
    worker and store protocols live in single modules today).

    ``thread_roles`` is the per-service threading model the RB2xx rules
    consume: ``{path suffix: {class name: {method: role}}}`` declaring
    thread contexts a method runs on that class-local inference cannot
    see — a :class:`~repro.core.store.ResultStore` is driven by the
    store server's handler threads, a ``_DispatchState`` by the remote
    mapper's driver threads. Like ``seams``, the table is central,
    reviewed, and mirrored in ``docs/OPERATIONS.md``'s threading-model
    appendix.
    """

    seams: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: DEFAULT_SEAMS
    )
    protocol_groups: Mapping[str, str] = field(default_factory=dict)
    thread_roles: Mapping[str, Mapping[str, Mapping[str, str]]] = field(
        default_factory=lambda: DEFAULT_THREAD_ROLES
    )

    def seam_reason(self, code: str, relpath: str) -> str | None:
        """The justification if ``relpath`` is a seam for ``code``, else None."""
        for suffix, reason in self.seams.get(code, {}).items():
            if relpath.endswith(suffix):
                return reason
        return None

    def protocol_group(self, relpath: str) -> str:
        """The RB104 group of a module (its own path unless paired)."""
        for suffix, group in self.protocol_groups.items():
            if relpath.endswith(suffix):
                return group
        return relpath

    def declared_roles(self, relpath: str, class_name: str) -> Mapping[str, str]:
        """Declared ``{method: role}`` additions for one class, or empty."""
        for suffix, classes in self.thread_roles.items():
            if relpath.endswith(suffix):
                return classes.get(class_name, {})
        return {}


#: The committed seam allowlist. Timing and entropy calls in these
#: modules are infrastructure, not model code: nothing downstream of a
#: seed tree reads them, so they cannot fork results across backends.
DEFAULT_SEAMS: dict[str, dict[str, str]] = {
    "RB102": {
        "repro/core/scheduler.py": (
            "wall-time provenance: perf_counter spans recorded in JobRecord, "
            "never fed into any model draw"
        ),
        "repro/core/store.py": (
            "cache recency stamps and stale-temp ages: eviction policy, "
            "invisible to figure results by the store's bit-identity gates"
        ),
        "repro/rng.py": (
            "the seed tree root itself — the one sanctioned entropy seam "
            "every model draw must flow from"
        ),
        "repro/core/fleet.py": (
            "membership liveness: monotonic last-seen stamps decide roster "
            "pruning (where cells run), never any model draw"
        ),
        "repro/core/storenet.py": (
            "cell-dedupe lease expiry: monotonic deadlines decide which "
            "worker computes a cell, never what the cell computes"
        ),
    },
    "RB202": {
        "repro/core/remote.py": (
            "the per-connection send lock exists precisely to hold across "
            "send_frame: frames on a shared socket must be written "
            "atomically, and the lock is per-connection so only replies "
            "racing for the same client serialize behind it"
        ),
    },
}

#: The committed thread-role table (see ``AnalysisConfig.thread_roles``).
#: Classes that spawn their own threads need no entry — inference reads
#: the spawns; entries exist for classes *driven* by another service's
#: threads, which no class-local pass can see. ``docs/OPERATIONS.md``
#: documents the same table as each service's threading model.
DEFAULT_THREAD_ROLES: dict[str, dict[str, dict[str, str]]] = {
    "repro/core/store.py": {
        # A ResultStore behind a StoreServer is called from every
        # per-connection handler thread concurrently.
        "ResultStore": {
            "get": "repro-store-conn",
            "put": "repro-store-conn",
            "usage": "repro-store-conn",
        },
    },
    "repro/core/service.py": {
        # A RemoteMapper's WireStats is shared by every driver thread of
        # a dispatch.
        "WireStats": {
            "add_sent": "repro-remote-driver",
            "add_received": "repro-remote-driver",
        },
    },
    "repro/core/remote.py": {
        # The dispatch state is shared by every driver thread of a
        # RemoteMapper dispatch.
        "_DispatchState": {
            "claim": "repro-remote-driver",
            "complete": "repro-remote-driver",
            "fail": "repro-remote-driver",
            "requeue": "repro-remote-driver",
            "add_dedupe": "repro-remote-driver",
            "settled": "repro-remote-driver",
            "wait_for_work": "repro-remote-driver",
        },
    },
}


@dataclass
class ModuleSource:
    """One parsed source file, as every rule sees it."""

    path: pathlib.Path
    relpath: str
    text: str
    lines: list[str]
    tree: ast.Module | None
    syntax_error: SyntaxError | None = None
    #: Why the file could not even be read/parsed into an AST (undecodable
    #: bytes, I/O error) — reported as RB000, never as a traceback.
    load_error: str | None = None

    @classmethod
    def load(cls, path: pathlib.Path, relpath: str) -> "ModuleSource":
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return cls(
                path=path,
                relpath=relpath,
                text="",
                lines=[],
                tree=None,
                load_error=f"cannot read file: {exc}",
            )
        # Parsed under the file's own path, reported under the relative one.
        return replace(cls.from_text(text, str(path)), relpath=relpath)

    @classmethod
    def from_text(
        cls, text: str, relpath: str = "<memory>.py"
    ) -> "ModuleSource":
        """Parse source text (:meth:`load` and the fixture-corpus tests)."""
        module = cls(
            path=pathlib.Path(relpath),
            relpath=relpath,
            text=text,
            lines=text.splitlines(),
            tree=None,
        )
        try:
            module.tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            module.syntax_error = exc
        except ValueError as exc:  # e.g. source containing null bytes
            module.load_error = f"cannot parse file: {exc}"
        return module

    def line_text(self, line: int) -> str:
        """The stripped source text of a 1-indexed line ('' out of range)."""
        if 0 < line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """A finding anchored at an AST node of this module."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.relpath,
            line=line,
            col=col,
            code=code,
            message=message,
            line_text=self.line_text(line),
        )


class Rule:
    """Base class: subclass, set ``code``/``name``, implement one hook.

    Per-module rules implement :meth:`check_module`; cross-module rules
    set ``cross = True`` and implement :meth:`check_project`; class-level
    rules (the RB2xx concurrency family) set ``class_level = True`` and
    implement :meth:`check_class`, receiving one
    :class:`~repro.analysis.concurrency.ClassConcurrency` table at a
    time with thread roles and guarded-access dataflow already inferred.
    """

    code: str = ""
    name: str = ""
    cross: bool = False
    class_level: bool = False

    def check_module(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, modules: Sequence[ModuleSource], config: AnalysisConfig
    ) -> Iterator[Finding]:
        return iter(())

    def check_class(
        self, cls: object, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        return iter(())


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY` by code."""
    if not rule_class.code or not rule_class.code.startswith("RB"):
        raise ValueError(f"rule {rule_class.__name__} needs an RBxxx code")
    if rule_class.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    RULE_REGISTRY[rule_class.code] = rule_class
    return rule_class


def iter_python_files(paths: Sequence[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    ``__pycache__`` and hidden directories are skipped; a path that does
    not exist raises ``FileNotFoundError`` (a typo'd lint target must not
    silently pass).
    """
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            yield candidate


def _failure_finding(module: ModuleSource, message: str) -> Finding:
    return Finding(
        path=module.relpath,
        line=1,
        col=1,
        code=PARSE_FAILURE_CODE,
        message=message,
        line_text=module.line_text(1),
    )


def _module_findings(
    module: ModuleSource, rules: Sequence[Rule], config: AnalysisConfig
) -> list[Finding]:
    """Every per-module and class-level finding for one file.

    This is the unit of work the ``--jobs`` process pool distributes, so
    it is a module-level function over picklable inputs. Crash-safety
    lives here: an unreadable file or a rule blowing up on one module
    becomes a per-file RB000 finding, not a traceback that takes the
    whole run (and the CI gate) down.
    """
    if module.load_error is not None:
        return [_failure_finding(module, module.load_error)]
    if module.syntax_error is not None:
        return [
            Finding(
                path=module.relpath,
                line=module.syntax_error.lineno or 1,
                col=(module.syntax_error.offset or 0) + 1,
                code=SYNTAX_ERROR_CODE,
                message=f"file does not parse: {module.syntax_error.msg}",
                line_text=module.line_text(module.syntax_error.lineno or 1),
            )
        ]
    out: list[Finding] = []
    for rule in rules:
        if rule.cross or rule.class_level:
            continue
        try:
            out.extend(rule.check_module(module, config))
        except Exception as exc:
            out.append(
                _failure_finding(
                    module, f"rule {rule.code} crashed on this file: {exc!r}"
                )
            )
    class_rules = [rule for rule in rules if rule.class_level]
    if class_rules:
        from repro.analysis.concurrency import build_class_tables

        try:
            tables = build_class_tables(module, config)
        except Exception as exc:
            tables = []
            out.append(
                _failure_finding(
                    module, f"thread-role inference crashed on this file: {exc!r}"
                )
            )
        for rule in class_rules:
            for table in tables:
                try:
                    out.extend(rule.check_class(table, module, config))
                except Exception as exc:
                    out.append(
                        _failure_finding(
                            module,
                            f"rule {rule.code} crashed on this file: {exc!r}",
                        )
                    )
    return out


def _analyze_file_worker(
    payload: tuple[str, str, tuple[str, ...], AnalysisConfig]
) -> list[Finding]:
    """Process-pool worker: load one file and run its per-module rules."""
    path_str, relpath, codes, config = payload
    import repro.analysis  # noqa: F401  — registers every rule family

    rules = [RULE_REGISTRY[code]() for code in codes]
    module = ModuleSource.load(pathlib.Path(path_str), relpath)
    return _module_findings(module, rules, config)


class Analyzer:
    """Runs the registered rules over a set of paths."""

    def __init__(
        self,
        rules: Iterable[str] | None = None,
        config: AnalysisConfig | None = None,
    ) -> None:
        self.config = config or AnalysisConfig()
        codes = sorted(rules) if rules is not None else sorted(RULE_REGISTRY)
        unknown = [code for code in codes if code not in RULE_REGISTRY]
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
        self.rules: list[Rule] = [RULE_REGISTRY[code]() for code in codes]

    def load_modules(
        self, paths: Sequence[str | pathlib.Path]
    ) -> list[ModuleSource]:
        """Parse every target file, with repo-relative display paths."""
        cwd = pathlib.Path.cwd().resolve()
        modules = []
        for path in iter_python_files(paths):
            resolved = path.resolve()
            try:
                relpath = resolved.relative_to(cwd).as_posix()
            except ValueError:
                relpath = path.as_posix()
            modules.append(ModuleSource.load(path, relpath))
        return modules

    def analyze_modules(
        self, modules: Sequence[ModuleSource], jobs: int = 1
    ) -> list[Finding]:
        """The full pass: rules, then suppressions, then seam accounting.

        With ``jobs > 1`` the per-module work fans out over a process
        pool; cross-module rules, seams, and pragma application always
        run in the parent, and the final positional sort makes the
        result bit-identical to a serial run.
        """
        raw: list[Finding] = []
        if jobs > 1 and len(modules) > 1:
            raw.extend(self._parallel_module_findings(modules, jobs))
        else:
            for module in modules:
                raw.extend(_module_findings(module, self.rules, self.config))
        parsed = [m for m in modules if m.tree is not None]
        for rule in self.rules:
            if rule.cross:
                raw.extend(rule.check_project(parsed, self.config))

        findings = self._apply_seams(raw)
        return sort_findings(self._apply_pragmas(modules, findings))

    def analyze(
        self, paths: Sequence[str | pathlib.Path], jobs: int = 1
    ) -> list[Finding]:
        """Convenience: load + analyze."""
        return self.analyze_modules(self.load_modules(paths), jobs=jobs)

    def _parallel_module_findings(
        self, modules: Sequence[ModuleSource], jobs: int
    ) -> list[Finding]:
        from concurrent.futures import ProcessPoolExecutor

        codes = tuple(rule.code for rule in self.rules)
        payloads = [
            (str(m.path), m.relpath, codes, self.config) for m in modules
        ]
        raw: list[Finding] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for findings in pool.map(_analyze_file_worker, payloads):
                raw.extend(findings)
        return raw

    # --- filtering ------------------------------------------------------------

    def _apply_seams(self, findings: list[Finding]) -> list[Finding]:
        """Drop findings inside allowlisted seam modules."""
        survivors = []
        for finding in findings:
            if self.config.seam_reason(finding.code, finding.path) is None:
                survivors.append(finding)
        return survivors

    def _apply_pragmas(
        self, modules: Sequence[ModuleSource], findings: list[Finding]
    ) -> list[Finding]:
        by_path: dict[str, list[Finding]] = {}
        for finding in findings:
            by_path.setdefault(finding.path, []).append(finding)
        result: list[Finding] = []
        module_paths = set()
        for module in modules:
            module_paths.add(module.relpath)
            result.extend(
                apply_suppressions(
                    module.relpath,
                    by_path.get(module.relpath, []),
                    collect_suppressions(module.text),
                    module.lines,
                    statement_spans(module.tree),
                )
            )
        # Cross-module findings can anchor outside the analyzed set only
        # by a rule bug, but never drop them silently.
        for path, orphans in by_path.items():
            if path not in module_paths:
                result.extend(orphans)
        return result
