"""The repo-specific rules: RB101..RB104.

Each rule encodes one defect class that has actually produced (or
narrowly missed producing) a cross-backend determinism break in this
repo — the history and the reasoning live in ``docs/ANALYSIS.md``; the
code here is deliberately heuristic AST matching, tuned to this
codebase's idioms, with inline ``# repro: ignore[...]`` as the escape
hatch for the false positives any such heuristic has.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.concurrency import _dotted_parts, _terminal_name, verb_table
from repro.analysis.findings import Finding
from repro.analysis.framework import (
    AnalysisConfig,
    ModuleSource,
    Rule,
    register_rule,
)

__all__ = [
    "UnorderedFoldRule",
    "SeedDisciplineRule",
    "PickleSafetyRule",
    "ProtocolHygieneRule",
]


# --- RB101: unordered iteration in a fold ------------------------------------------


_SET_ANNOTATION_NAMES = {
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
}

#: Folds where iteration order reaches the result. ``sum`` additionally
#: covers ``.values()`` (float accumulation is order-sensitive even over
#: a deterministically-ordered dict once the dict's *insertion* order is
#: itself backend-dependent); ``min``/``max``/``join``/``list``/``tuple``
#: only fire on genuinely unordered set-like iterables. ``left_sum``
#: (:mod:`repro.units`) is ``sum`` as Python 3.11 adds.
_SUM_FOLDS = {"sum", "left_sum"}
_ORDER_SENSITIVE_FOLDS = {"min", "max", "list", "tuple"}


class _SetKnowledge:
    """Names and attributes a module binds to set-like values."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: set[str] = set()
        self.attrs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    self._bind(target)
            elif isinstance(node, ast.AnnAssign):
                set_typed = _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(node.value)
                )
                if set_typed:
                    self._bind(node.target)

    def _bind(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
            # Class-body annotations (dataclass fields) surface later as
            # instance attributes of the same name.
            self.attrs.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.attrs.add(target.attr)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _terminal_name(node.func) in {"set", "frozenset"}
    return False


def _is_set_annotation(annotation: ast.expr) -> bool:
    root = annotation
    if isinstance(root, ast.Subscript):
        root = root.value
    name = _terminal_name(root) if isinstance(root, (ast.Name, ast.Attribute)) else None
    return name in _SET_ANNOTATION_NAMES


def _unordered_kind(node: ast.expr, knowledge: _SetKnowledge) -> str | None:
    """``"set"``, ``"dict-values"``, or None for an iterable expression."""
    if _is_set_expr(node):
        return "set"
    if isinstance(node, ast.Name) and node.id in knowledge.names:
        return "set"
    if isinstance(node, ast.Attribute) and node.attr in knowledge.attrs:
        return "set"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "values"
        and not node.args
    ):
        return "dict-values"
    return None


def _fold_iterable(arg: ast.expr) -> ast.expr:
    """The expression actually iterated by a fold argument.

    ``sum(f.cost for f in xs)`` folds over ``xs``; a comprehension's
    order is its source iterable's order.
    """
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and arg.generators:
        return arg.generators[0].iter
    return arg


@register_rule
class UnorderedFoldRule(Rule):
    """RB101 — folding over an unordered iterable.

    The PR 4 bug class: ``NamespaceSet.creation_cost`` summed floats over
    a ``frozenset``, whose iteration order is not stable across a pickle
    boundary under hash randomization — serial and remote results
    differed in the last ulp. Any ``sum``/``min``/``max``/``list``/
    ``tuple``/``str.join`` (or an accumulating ``for`` loop) over a
    ``set``/``frozenset`` — or a ``sum`` over ``dict.values()`` — must
    iterate a deterministic ordering: wrap the iterable in ``sorted()``.
    """

    code = "RB101"
    name = "unordered-iteration-in-fold"

    def check_module(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        assert module.tree is not None
        knowledge = _SetKnowledge(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, knowledge)
            elif isinstance(node, ast.For):
                yield from self._check_loop(module, node, knowledge)

    def _check_call(
        self, module: ModuleSource, node: ast.Call, knowledge: _SetKnowledge
    ) -> Iterator[Finding]:
        name = _terminal_name(node.func)
        if name in _SUM_FOLDS | _ORDER_SENSITIVE_FOLDS and node.args:
            kind = _unordered_kind(_fold_iterable(node.args[0]), knowledge)
            if kind == "dict-values" and name not in _SUM_FOLDS:
                return  # min/max/list of scalar dict values: insertion-ordered
            if kind is not None:
                yield module.finding(
                    node,
                    self.code,
                    f"{name}() folds over a {kind} iterable whose order is "
                    f"not stable across processes; wrap it in sorted(...)",
                )
        elif (
            name == "join"
            and isinstance(node.func, ast.Attribute)
            and node.args
            and _unordered_kind(_fold_iterable(node.args[0]), knowledge) == "set"
        ):
            yield module.finding(
                node,
                self.code,
                "str.join over a set iterates in hash order; "
                "join a sorted(...) sequence instead",
            )

    def _check_loop(
        self, module: ModuleSource, node: ast.For, knowledge: _SetKnowledge
    ) -> Iterator[Finding]:
        if _unordered_kind(node.iter, knowledge) != "set":
            return
        for inner in ast.walk(node):
            accumulates = isinstance(inner, ast.AugAssign) or (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in {"append", "extend", "add_row", "write"}
            )
            if accumulates:
                yield module.finding(
                    node,
                    self.code,
                    "loop accumulates over a set iterable whose order is not "
                    "stable across processes; iterate sorted(...) instead",
                )
                return


# --- RB102: seed discipline --------------------------------------------------------


_CLOCK_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "clock_gettime",
}
_UUID_FNS = {"uuid1", "uuid4"}
#: ``np.random.<capitalized>`` are explicit-seed constructors (PCG64,
#: Generator, SeedSequence) — the seed tree's own building blocks.
_NUMPY_GLOBAL_STATE = {"default_rng", "seed", "get_state", "set_state"}


class _ImportMap:
    """How a module spells the entropy- and clock-bearing modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: dict[str, str] = {}  # local alias -> real module
        self.from_names: dict[str, tuple[str, str]] = {}  # local -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.module_aliases[item.asname or item.name.split(".")[0]] = (
                        item.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for item in node.names:
                    self.from_names[item.asname or item.name] = (
                        node.module, item.name
                    )


@register_rule
class SeedDisciplineRule(Rule):
    """RB102 — randomness or clock reads outside the seed tree.

    All model randomness must flow from :mod:`repro.rng`'s seed tree;
    all timing belongs in the allowlisted infra seams (the scheduler's
    provenance spans, the store's recency stamps, the fleet's liveness
    stamps). A ``random.random()`` or ``time.time()`` anywhere else
    silently forks results between two runs of the same seed — the exact
    failure the bit-identity gates exist to prevent, caught here for free.
    """

    code = "RB102"
    name = "seed-discipline"

    def check_module(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        assert module.tree is not None
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self._classify(node, imports)
                if message is not None:
                    yield module.finding(node, self.code, message)

    def _classify(self, node: ast.Call, imports: _ImportMap) -> str | None:
        parts = _dotted_parts(node.func)
        if parts is None:
            return None
        # Resolve a bare imported name (``from time import perf_counter``).
        if len(parts) == 1 and parts[0] in imports.from_names:
            module_name, real = imports.from_names[parts[0]]
            parts = module_name.split(".") + [real]
        elif parts[0] in imports.module_aliases:
            parts = imports.module_aliases[parts[0]].split(".") + parts[1:]
        else:
            return None
        root, leaf = parts[0], parts[-1]
        if root == "random":
            return (
                f"stdlib random.{leaf}() bypasses the seed tree; derive an "
                f"RngStream from repro.rng instead"
            )
        if root == "numpy" and len(parts) >= 3 and parts[1] == "random":
            if leaf in _NUMPY_GLOBAL_STATE or leaf.islower():
                return (
                    f"numpy.random.{leaf}() draws outside the seed tree; "
                    f"route the draw through an RngStream child"
                )
            return None
        if root == "time" and leaf in _CLOCK_FNS:
            return (
                f"time.{leaf}() read in model/workload code; clocks are "
                f"nondeterministic — derive variation from the seed tree, or "
                f"move the timing into an allowlisted infra seam"
            )
        if root == "os" and leaf == "urandom":
            return "os.urandom() is raw entropy; all randomness must flow from the seed tree"
        if root == "uuid" and leaf in _UUID_FNS:
            return f"uuid.{leaf}() embeds clock/host entropy; derive ids from the seed tree"
        if root == "secrets":
            return f"secrets.{leaf}() is raw entropy; all randomness must flow from the seed tree"
        return None


# --- RB103: pickle safety at dispatch seams ----------------------------------------


#: Attribute calls that ship their callable across a process or socket
#: boundary (``executor.submit``, ``pool.map`` and friends).
_SINK_ATTRS = {
    "submit", "map", "map_async", "imap", "imap_unordered", "starmap",
    "apply_async",
}
#: Bare/terminal callee names that are dispatch seams in this codebase.
_SINK_NAMES = {"send_frame", "mapper"}


def _is_sink(func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return (
            func.attr in _SINK_ATTRS
            or func.attr in _SINK_NAMES
            or func.attr.endswith("_map")
            or func.attr.endswith("_mapper")
        )
    if isinstance(func, ast.Name):
        # The builtin ``map`` stays in-process; only the repo's seam
        # spellings count as bare names.
        return (
            func.id in _SINK_NAMES
            or func.id.endswith("_map")
            or func.id.endswith("_mapper")
        )
    return False


@register_rule
class PickleSafetyRule(Rule):
    """RB103 — closures escaping into pickled dispatch seams.

    The PR 2 bug class: a lambda (or a function defined inside another
    function) handed to a pool mapper works on the serial and thread
    backends and then explodes — or worse, silently degrades — the
    moment policy swaps in the process or remote backend, because
    closures cannot cross a pickle boundary. Dispatch units must be
    module-level functions and picklable dataclasses
    (:class:`~repro.core.runner.RepJob` / ``run_rep_job``).
    """

    code = "RB103"
    name = "pickle-safety"

    def check_module(
        self, module: ModuleSource, config: AnalysisConfig
    ) -> Iterator[Finding]:
        assert module.tree is not None
        yield from self._walk_scope(module, module.tree, frozenset())

    def _walk_scope(
        self,
        module: ModuleSource,
        scope: ast.AST,
        local_functions: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = local_functions | _local_callable_names(node)
                yield from self._walk_scope(module, node, inner)
            elif isinstance(node, ast.ClassDef):
                yield from self._walk_scope(module, node, local_functions)
            else:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and _is_sink(call.func):
                        yield from self._check_sink(module, call, local_functions)

    def _check_sink(
        self,
        module: ModuleSource,
        call: ast.Call,
        local_functions: frozenset[str],
    ) -> Iterator[Finding]:
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        flattened: list[ast.expr] = []
        for argument in arguments:
            if isinstance(argument, ast.Tuple):
                flattened.extend(argument.elts)  # ("job", seq, fn, item) frames
            else:
                flattened.append(argument)
        sink = _terminal_name(call.func) or "dispatch seam"
        for argument in flattened:
            if isinstance(argument, ast.Lambda):
                yield module.finding(
                    argument,
                    self.code,
                    f"lambda passed to {sink}() cannot cross a pickle "
                    f"boundary; use a module-level function",
                )
            elif (
                isinstance(argument, ast.Name)
                and argument.id in local_functions
            ):
                yield module.finding(
                    argument,
                    self.code,
                    f"locally-defined function {argument.id!r} passed to "
                    f"{sink}() closes over its enclosing frame and cannot "
                    f"pickle; hoist it to module level",
                )


def _local_callable_names(function: ast.AST) -> frozenset[str]:
    """Names of functions/lambdas defined directly inside ``function``."""
    names = set()
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


# --- RB104: protocol-frame hygiene -------------------------------------------------


def _frame_tag(node: ast.expr) -> str | None:
    """The tag of a frame-shaped tuple literal (``("job", ...)``)."""
    if (
        isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
    ):
        tag = node.elts[0].value
        if tag and all(ch.islower() or ch == "_" for ch in tag):
            return tag
    return None


class _ProtocolModule:
    """One module's contribution to its protocol group."""

    def __init__(self, module: ModuleSource) -> None:
        assert module.tree is not None
        self.module = module
        self.functions: dict[str, ast.AST] = {}
        self.sent: dict[str, ast.AST] = {}  # tag -> representative node
        self.handled: set[str] = set()
        self.version_names: dict[str, ast.AST] = {}
        self.inline_versions: list[ast.AST] = []
        self.uses_framing = False
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.setdefault(node.name, node)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Compare):
                self._visit_compare(node)
            elif isinstance(node, ast.Dict):
                self._visit_dict(node)
            elif isinstance(node, ast.ClassDef):
                # A service's verb table is its handler arms.
                self.handled.update(verb_table(node) or ())

    # --- sent tags ------------------------------------------------------------

    def _visit_call(self, call: ast.Call) -> None:
        name = _terminal_name(call.func)
        if name in {"send_frame", "recv_frame"}:
            self.uses_framing = True
        if name != "send_frame" or not call.args:
            return
        message = call.args[1] if len(call.args) >= 2 else call.args[0]
        self._resolve_message(message, depth=0)

    def _resolve_message(self, node: ast.expr, depth: int) -> None:
        if depth > 3:
            return
        tag = _frame_tag(node)
        if tag is not None:
            self.sent.setdefault(tag, node)
            return
        if isinstance(node, ast.Call):
            callee = _terminal_name(node.func)
            if callee in self.functions:
                self._resolve_returns(self.functions[callee], depth + 1)
        elif isinstance(node, ast.Name):
            self._resolve_name(node.id, depth + 1)

    def _resolve_name(self, name: str, depth: int) -> None:
        """Frames reaching ``send_frame`` through a variable or parameter.

        A variable: collect its tuple assignments module-wide. A
        forwarder parameter (``def deliver(reply): send_frame(_, reply)``):
        collect the argument at every call site of the forwarder. Both
        over-approximate scope, which errs toward *more* sent tags — and a
        false "sent" tag is still a real string the handler set should
        know about.
        """
        assert self.module.tree is not None
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        self._resolve_message(node.value, depth)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = [a.arg for a in node.args.args]
                if name not in params:
                    continue
                index = params.index(name)
                if not _function_sends(node, name):
                    continue
                for site in ast.walk(self.module.tree):
                    if (
                        isinstance(site, ast.Call)
                        and _terminal_name(site.func) == node.name
                        and index - (1 if params and params[0] == "self" else 0)
                        < len(site.args)
                    ):
                        offset = 1 if params and params[0] == "self" else 0
                        self._resolve_message(site.args[index - offset], depth)

    def _resolve_returns(self, function: ast.AST, depth: int) -> None:
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and node.value is not None:
                self._resolve_message(node.value, depth)

    # --- handled tags and versions ---------------------------------------------

    def _visit_compare(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            return
        for expr in [node.left, *node.comparators]:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                self.handled.add(expr.value)
            elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
                for element in expr.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        self.handled.add(element.value)
        # ``hello[1].get("protocol") != PROTOCOL_VERSION`` — both sides.
        version_get = any(
            _is_protocol_get(expr) for expr in [node.left, *node.comparators]
        )
        if version_get:
            for expr in [node.left, *node.comparators]:
                name = _constant_name(expr)
                if name is not None:
                    self.version_names.setdefault(name, expr)

    def _visit_dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "protocol"
            ):
                name = _constant_name(value)
                if name is not None:
                    self.version_names.setdefault(name, value)
                elif isinstance(value, ast.Constant):
                    self.inline_versions.append(value)


def _is_protocol_get(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "protocol"
    )


def _constant_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _function_sends(function: ast.AST, param: str) -> bool:
    """Does ``function`` pass ``param`` to ``send_frame``?"""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and _terminal_name(node.func) == "send_frame":
            for argument in node.args:
                if isinstance(argument, ast.Name) and argument.id == param:
                    return True
    return False


@register_rule
class ProtocolHygieneRule(Rule):
    """RB104 — every sent frame tag needs a handler; versions must be named.

    The worker and store protocols are framed pickles with a string tag
    as the first tuple element. A tag sent by one end and matched by no
    handler arm on the other surfaces at runtime as an "unexpected
    frame" teardown — in the middle of a fleet run. Likewise the hello
    version must be a single named constant per protocol, used by both
    the client's hello and the server's validation, so the two ends
    cannot drift apart silently.
    """

    code = "RB104"
    name = "protocol-frame-hygiene"
    cross = True

    def check_project(
        self, modules: Sequence[ModuleSource], config: AnalysisConfig
    ) -> Iterator[Finding]:
        groups: dict[str, list[_ProtocolModule]] = {}
        for module in modules:
            if module.tree is None:
                continue
            info = _ProtocolModule(module)
            has_protocol_state = (
                info.sent or info.handled or info.version_names or info.inline_versions
            )
            if info.uses_framing and has_protocol_state:
                groups.setdefault(
                    config.protocol_group(module.relpath), []
                ).append(info)
        for members in groups.values():
            yield from self._check_group(members)

    def _check_group(self, members: list[_ProtocolModule]) -> Iterator[Finding]:
        handled: set[str] = set()
        for member in members:
            handled |= member.handled
        for member in members:
            for tag in sorted(member.sent):
                if tag not in handled:
                    yield member.module.finding(
                        member.sent[tag],
                        self.code,
                        f"frame tag {tag!r} is sent but matched by no "
                        f"handler arm in its protocol group",
                    )
        names: dict[str, tuple[_ProtocolModule, ast.AST]] = {}
        for member in members:
            for name, node in member.version_names.items():
                names.setdefault(name, (member, node))
            for node in member.inline_versions:
                yield member.module.finding(
                    node,
                    self.code,
                    "protocol version is an inline literal; name it as a "
                    "module constant shared by both endpoints",
                )
        if len(names) > 1:
            spelled = ", ".join(sorted(names))
            for member, node in names.values():
                yield member.module.finding(
                    node,
                    self.code,
                    f"protocol group uses {len(names)} distinct version "
                    f"constants ({spelled}); both endpoints must share one",
                )
