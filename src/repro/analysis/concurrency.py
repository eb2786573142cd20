"""Class-level thread-role inference and lock/attribute dataflow.

The RB2xx concurrency rules need to know, for every class, *which thread
contexts each method can run on* and *which ``self._*`` fields it touches
under which locks*. This module computes that table once per class so the
rules stay declarative:

* **Thread roles.** A method's roles are the thread contexts that can
  execute it. Seeds: every public method (and dunder) runs on the
  caller's thread (role ``main``); every ``threading.Thread(target=
  self._m)`` spawn gives ``_m`` a role named after the thread (the
  constant ``name=`` kwarg when present); ``executor.submit(self._m)``
  hand-offs contribute a ``pool`` role and ``signal.signal(sig,
  self._m)`` handlers a ``signal`` role. Roles then propagate through
  the intra-class call graph (``self.other()`` calls and bound-method/
  property reads) to a fixpoint. A class with a verb table (``verbs =
  {verb: (arity, "handler")}``, see :mod:`repro.core.service`) is a
  service whose connection threads its base class spawns: its handlers
  and its ``_session`` hook get the ``repro-<service>-conn`` role. Roles
  a class is *driven* with from outside its own spawns — a
  ``ResultStore`` served by ``StoreServer`` handler threads — cannot be
  inferred and are declared centrally in
  :attr:`repro.analysis.framework.AnalysisConfig.thread_roles`.

* **Attribute dataflow.** Every ``self.X`` access is recorded as a
  ``read``, a ``rebind`` (``self.X = ...`` — an atomic reference swap
  under the GIL), or a ``mutate`` (``self.X[k] = ...``, ``del
  self.X[k]``, ``self.X += ...``, ``self.X.append(...)`` and friends —
  compound read-modify-write operations), together with the set of
  lock guards lexically held at the access. ``__init__`` is excluded:
  construction happens-before publication.

* **Lock discipline.** ``with self.X:`` over an attribute assigned a
  ``threading.Lock``/``RLock``/``Condition``/``Semaphore`` pushes a
  guard; so does ``with name:`` over a local/parameter whose name is
  lock-shaped (``*lock*``, ``_cv``) or locally assigned a lock factory.
  Acquisitions record the guards already held (the RB203 ordering
  graph); blocking calls record the guards held at the call (RB202);
  ``cond.wait()`` on a *held* condition is exempt — waiting releases it.

Everything here is a heuristic over one class body: it under-approximates
(cross-object aliasing is invisible) rather than guessing, so the rules'
false-positive rate on idiomatic code can stay zero.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.framework import AnalysisConfig, ModuleSource

__all__ = [
    "AttrAccess",
    "ClassConcurrency",
    "LockAcquisition",
    "MethodConcurrency",
    "SpawnSite",
    "build_class_tables",
    "verb_table",
]

#: Callers' thread context: every public method can run on it.
MAIN_ROLE = "main"

#: The service hook a connection thread runs after the hello (it runs the
#: verb handlers in turn); a subclass may override it.
SESSION_HOOK = "_session"

#: ``threading`` factories whose instances are *locks* for guard/ordering
#: purposes (a ``Condition`` wraps a lock; acquiring it is acquiring one).
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Factories whose instances are synchronization primitives: these
#: attributes are internally thread-safe and exempt from the shared-state
#: race analysis (``Event.set()`` needs no caller-side lock).
SYNC_FACTORIES = LOCK_FACTORIES | frozenset({"Event", "Barrier", "local"})

#: Container methods that mutate their receiver in place — a call through
#: ``self.X.<method>(...)`` is a compound write to ``X``.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
    }
)

#: Terminal callable names that block unconditionally (socket/frame I/O,
#: sleeps, subprocesses, file reads/writes). ``join``/``wait``/``result``
#: need receiver context and are classified separately.
_BLOCKING_SIMPLE = {
    "recv_frame": "frame receive",
    "send_frame": "frame send",
    "recv": "socket receive",
    "recv_into": "socket receive",
    "recvfrom": "socket receive",
    "send": "socket send",
    "sendall": "socket send",
    "sendto": "socket send",
    "accept": "socket accept",
    "connect": "socket connect",
    "create_connection": "socket connect",
    "sleep": "sleep",
    "check_call": "subprocess",
    "check_output": "subprocess",
    "communicate": "subprocess",
    "Popen": "subprocess",
    "open": "file I/O",
    "read_text": "file I/O",
    "write_text": "file I/O",
    "read_bytes": "file I/O",
    "write_bytes": "file I/O",
}


def _terminal_name(func: ast.AST) -> str | None:
    """The last dotted component of a callable expression."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _dotted_parts(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-dotted shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _is_self_attr(node: ast.AST) -> str | None:
    """The attribute name if ``node`` is ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _class_assignment(cls_node: ast.ClassDef, name: str) -> ast.expr | None:
    """The value of a class-body ``name = ...`` (annotated or not)."""
    for stmt in cls_node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
                return stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt.value
    return None


def verb_table(cls_node: ast.ClassDef) -> dict[str, str] | None:
    """A class's ``verbs = {verb: (arity, "handler")}`` table as
    ``{verb: handler}`` (``""`` for a handler that is not a string), or
    None when the class has no literal verb table."""
    value = _class_assignment(cls_node, "verbs")
    if not isinstance(value, ast.Dict):
        return None
    table: dict[str, str] = {}
    for key, entry in zip(value.keys, value.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            handler = entry.elts[-1] if isinstance(entry, ast.Tuple) and entry.elts else None
            table[key.value] = (
                handler.value
                if isinstance(handler, ast.Constant) and isinstance(handler.value, str)
                else ""
            )
    return table


def _lockish_name(name: str) -> bool:
    """Heuristic: does a bare name denote a lock (``send_lock``, ``cv``)?"""
    lowered = name.lower()
    return "lock" in lowered or "mutex" in lowered or lowered == "cv" or lowered.endswith("_cv")


@dataclass
class AttrAccess:
    """One ``self.X`` access: what kind, where, and under which guards."""

    attr: str
    kind: str  # "read" | "rebind" | "mutate"
    method: str
    node: ast.AST
    guards: tuple[str, ...]


@dataclass
class SpawnSite:
    """One thread/executor/signal hand-off found in a method body."""

    node: ast.AST
    via: str  # "thread" | "pool" | "signal"
    target: str | None  # self-method name the context executes, if any
    role: str
    daemon: bool
    binding: tuple[str, ...] | None  # ("attr", X) | ("local", method, name)


@dataclass
class LockAcquisition:
    """One guard acquisition and the guards already held at that point."""

    lock: str
    node: ast.AST
    held: tuple[str, ...]


@dataclass
class BlockingCall:
    """One potentially blocking call and the guards held around it."""

    node: ast.AST
    reason: str
    held: tuple[str, ...]


@dataclass
class MethodConcurrency:
    """Everything the rules need to know about one method."""

    name: str
    node: ast.AST
    roles: set[str] = field(default_factory=set)
    accesses: list[AttrAccess] = field(default_factory=list)
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    #: Intra-class call edges: (callee, guards held at the call site, node).
    calls: list[tuple[str, tuple[str, ...], ast.AST]] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    #: Thread bindings this method joins (see :class:`SpawnSite.binding`).
    joins: set[tuple[str, ...]] = field(default_factory=set)
    #: Thread bindings flipped to daemon after construction (``t.daemon = True``).
    daemonized: set[tuple[str, ...]] = field(default_factory=set)


@dataclass
class ClassConcurrency:
    """The per-class thread-role and dataflow table the RB2xx rules consume."""

    name: str
    node: ast.ClassDef
    relpath: str
    #: lock-shaped attribute -> factory name ("Lock", "RLock", ...).
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: All synchronization-primitive attributes (locks + events + ...).
    sync_attrs: set[str] = field(default_factory=set)
    methods: dict[str, MethodConcurrency] = field(default_factory=dict)

    def roles_of(self, method: str) -> frozenset[str]:
        info = self.methods.get(method)
        return frozenset(info.roles) if info is not None else frozenset()

    def attr_accesses(self) -> dict[str, list[AttrAccess]]:
        """Every ``self.X`` access across all methods, grouped by attribute."""
        grouped: dict[str, list[AttrAccess]] = {}
        for info in self.methods.values():
            for access in info.accesses:
                grouped.setdefault(access.attr, []).append(access)
        return grouped

    def joined_bindings(self) -> set[tuple[str, ...]]:
        joined: set[tuple[str, ...]] = set()
        for info in self.methods.values():
            joined |= info.joins
            joined |= info.daemonized
        return joined


class _MethodWalker:
    """Recursive AST walk of one method body with an explicit guard stack."""

    def __init__(
        self,
        cls_name: str,
        method: MethodConcurrency,
        method_names: frozenset[str],
        lock_attrs: Mapping[str, str],
    ) -> None:
        self.cls_name = cls_name
        self.method = method
        self.method_names = method_names
        self.lock_attrs = lock_attrs
        self.guards: list[str] = []
        self.local_locks: set[str] = set()
        self.local_threads: dict[str, SpawnSite] = {}
        #: loop variable -> binding of the container it iterates (join drains
        #: like ``for t in self._handlers: t.join()`` or over a local list).
        self.loop_aliases: dict[str, tuple[str, ...]] = {}

    # --- entry -----------------------------------------------------------------

    def walk_body(self, body: Iterable[ast.stmt]) -> None:
        # Lock-shaped parameters guard like locals (WorkerServer passes a
        # per-connection send lock down into its dispatch helper).
        args = getattr(self.method.node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if _lockish_name(arg.arg):
                    self.local_locks.add(arg.arg)
        for stmt in body:
            self._visit(stmt)

    # --- guard resolution -------------------------------------------------------

    def _guard_name(self, expr: ast.AST) -> str | None:
        attr = _is_self_attr(expr)
        if attr is not None:
            if attr in self.lock_attrs:
                return f"self.{attr}"
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.local_locks or _lockish_name(expr.id):
                return expr.id
            return None
        if isinstance(expr, ast.Attribute) and _lockish_name(expr.attr):
            parts = _dotted_parts(expr)
            return ".".join(parts) if parts else expr.attr
        return None

    # --- dispatch ---------------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        handler = getattr(self, f"_visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
        else:
            self._visit_children(node)

    def _visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_all(self, nodes: Iterable[ast.AST]) -> None:
        for node in nodes:
            self._visit(node)

    # --- statements -------------------------------------------------------------

    def _visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def _visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            guard = self._guard_name(item.context_expr)
            if guard is not None:
                self.method.acquisitions.append(
                    LockAcquisition(
                        lock=guard,
                        node=item.context_expr,
                        held=tuple(self.guards),
                    )
                )
                self.guards.append(guard)
                pushed += 1
            else:
                self._visit(item.context_expr)
        self._visit_all(node.body)
        del self.guards[len(self.guards) - pushed :]

    def _visit_Assign(self, node: ast.Assign) -> None:
        spawn, spawn_call = self._spawn_from_value(node.value)
        for target in node.targets:
            self._classify_store(target, spawn)
        self._visit_spawn_value(node.value, spawn, spawn_call)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            spawn, spawn_call = self._spawn_from_value(node.value)
            self._classify_store(node.target, spawn)
            self._visit_spawn_value(node.value, spawn, spawn_call)
        else:
            self._classify_store(node.target, None)

    def _spawn_from_value(
        self, value: ast.AST
    ) -> tuple[SpawnSite | None, ast.Call | None]:
        """A spawn in an assigned value: a bare call, or a comprehension of
        spawns (``threads = [Thread(...) for ...]`` — the canonical batch
        pattern) whose element call stands for every spawned thread."""
        spawn = self._spawn_from_call(value)
        if spawn is not None:
            return spawn, value  # type: ignore[return-value]
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            spawn = self._spawn_from_call(value.elt)
            if spawn is not None:
                return spawn, value.elt  # type: ignore[return-value]
        return None, None

    def _visit_spawn_value(
        self, value: ast.AST, spawn: SpawnSite | None, spawn_call: ast.Call | None
    ) -> None:
        if spawn is None or spawn_call is None:
            self._visit(value)
            return
        self._visit_spawn_operands(spawn_call, spawn)
        if spawn_call is not value:  # comprehension: scan its generators too
            for gen in value.generators:  # type: ignore[attr-defined]
                self._visit(gen.iter)
                self._visit_all(gen.ifs)

    def _visit_spawn_operands(self, call: ast.Call, spawn: SpawnSite) -> None:
        """Scan a spawn call's operands without treating the handed-off
        callable as an intra-class call edge (the target runs on the NEW
        thread's role, which the spawn itself already records)."""
        if spawn.via == "pool":
            self._visit_all(call.args[1:])
        elif spawn.via == "signal":
            self._visit_all(call.args[:1])
        else:
            self._visit_all(call.args)
        for kw in call.keywords:
            if spawn.via == "thread" and kw.arg == "target":
                continue
            self._visit(kw.value)

    def _classify_store(self, target: ast.AST, spawn: SpawnSite | None) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_store(element, spawn)
            return
        attr = _is_self_attr(target)
        if attr is not None:
            self._record_access(attr, "rebind", target)
            if spawn is not None:
                spawn.binding = ("attr", attr)
            return
        if isinstance(target, ast.Attribute):
            # ``x.daemon = True`` flips an already-constructed thread.
            if target.attr == "daemon":
                base = target.value
                if isinstance(base, ast.Name) and base.id in self.local_threads:
                    site = self.local_threads[base.id]
                    site.daemon = True
                    if site.binding is not None:
                        self.method.daemonized.add(site.binding)
                base_attr = _is_self_attr(base)
                if base_attr is not None:
                    self.method.daemonized.add(("attr", base_attr))
            self._visit(target.value)
            return
        if isinstance(target, ast.Subscript):
            base_attr = _is_self_attr(target.value)
            if base_attr is not None:
                self._record_access(base_attr, "mutate", target)
            else:
                self._visit(target.value)
            self._visit(target.slice)
            return
        if isinstance(target, ast.Name) and spawn is not None:
            binding = ("local", self.method.name, target.id)
            spawn.binding = binding
            self.local_threads[target.id] = spawn

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        attr = _is_self_attr(target)
        if attr is not None:
            self._record_access(attr, "mutate", target)
        elif isinstance(target, ast.Subscript):
            base_attr = _is_self_attr(target.value)
            if base_attr is not None:
                self._record_access(base_attr, "mutate", target)
            else:
                self._visit(target.value)
            self._visit(target.slice)
        self._visit(node.value)

    def _visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _is_self_attr(target)
            if attr is not None:
                self._record_access(attr, "rebind", target)
                continue
            if isinstance(target, ast.Subscript):
                base_attr = _is_self_attr(target.value)
                if base_attr is not None:
                    self._record_access(base_attr, "mutate", target)
                else:
                    self._visit(target.value)
                self._visit(target.slice)
                continue
            self._visit(target)

    def _visit_For(self, node: ast.For) -> None:
        binding = self._iterated_binding(node.iter)
        self._visit(node.iter)
        alias: str | None = None
        previous: tuple[str, ...] | None = None
        if binding is not None and isinstance(node.target, ast.Name):
            alias = node.target.id
            previous = self.loop_aliases.get(alias)
            self.loop_aliases[alias] = binding
        self._visit_all(node.body)
        self._visit_all(node.orelse)
        if alias is not None:
            if previous is None:
                self.loop_aliases.pop(alias, None)
            else:
                self.loop_aliases[alias] = previous

    def _iterated_binding(self, node: ast.AST) -> tuple[str, ...] | None:
        """The binding a loop iterates: ``self.X``, a local name, or either
        wrapped in ``list(...)``/``sorted(...)``-style snapshots."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple", "sorted", "reversed"}
            and len(node.args) == 1
        ):
            node = node.args[0]
        attr = _is_self_attr(node)
        if attr is not None:
            return ("attr", attr)
        if isinstance(node, ast.Name):
            return ("local", self.method.name, node.id)
        return None

    def _visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested_def(node)

    def _visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested_def(node)

    def _visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested_def(node)

    def _visit_nested_def(self, node: ast.AST) -> None:
        # A nested def's body does not run under the guards held at its
        # *definition* site — reset the stack while walking it. Its
        # accesses still belong to this method's thread roles (callbacks
        # run where the method hands them).
        saved, self.guards = self.guards, []
        body = node.body if isinstance(node.body, list) else [node.body]
        self._visit_all(body)
        self.guards = saved

    def _visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # a nested class builds its own table

    # --- expressions ------------------------------------------------------------

    def _visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _is_self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            if attr in self.method_names:
                # Bound-method or property read: the body runs on the
                # reading thread — a call edge, not a field access.
                self.method.calls.append((attr, tuple(self.guards), node))
            else:
                self._record_access(attr, "read", node)
            return
        self._visit_children(node)

    def _visit_Call(self, node: ast.Call) -> None:
        spawn = self._spawn_from_call(node)
        if spawn is not None:
            self._visit_spawn_operands(node, spawn)
            return

        func = node.func
        name = _terminal_name(func)

        # Intra-class call edge: self.m(...).
        if (
            isinstance(func, ast.Attribute)
            and _is_self_attr(func) is not None
            and func.attr in self.method_names
        ):
            self.method.calls.append((func.attr, tuple(self.guards), node))
            self._visit_all(node.args)
            self._visit_all(kw.value for kw in node.keywords)
            return

        # In-place container mutation through self.X.<mutator>(...).
        if isinstance(func, ast.Attribute):
            base_attr = _is_self_attr(func.value)
            if base_attr is not None:
                kind = "mutate" if name in MUTATOR_METHODS else "read"
                self._record_access(base_attr, kind, func.value)

        # Join bookkeeping (0 positional args keeps str.join out).
        if (
            name == "join"
            and isinstance(func, ast.Attribute)
            and not node.args
        ):
            self._record_join(func.value)

        reason = self._blocking_reason(node, name)
        if reason is not None:
            self.method.blocking.append(
                BlockingCall(node=node, reason=reason, held=tuple(self.guards))
            )

        if not isinstance(func, ast.Attribute) or _is_self_attr(func.value) is None:
            self._visit(func)
        self._visit_all(node.args)
        self._visit_all(kw.value for kw in node.keywords)

    def _record_join(self, receiver: ast.AST) -> None:
        attr = _is_self_attr(receiver)
        if attr is not None:
            self.method.joins.add(("attr", attr))
            return
        if isinstance(receiver, ast.Name):
            aliased = self.loop_aliases.get(receiver.id)
            if aliased is not None:
                self.method.joins.add(aliased)
            self.method.joins.add(("local", self.method.name, receiver.id))

    def _blocking_reason(self, node: ast.Call, name: str | None) -> str | None:
        if name is None:
            return None
        parts = _dotted_parts(node.func)
        if parts and parts[0] == "subprocess":
            return "subprocess"
        if name in _BLOCKING_SIMPLE:
            return _BLOCKING_SIMPLE[name]
        if name == "join" and isinstance(node.func, ast.Attribute) and not node.args:
            return "thread join"
        if name == "result" and isinstance(node.func, ast.Attribute) and not node.args:
            return "future result"
        if name in {"wait", "wait_for"} and isinstance(node.func, ast.Attribute):
            receiver = self._guard_name(node.func.value)
            if receiver is not None and receiver in self.guards:
                # Condition.wait on a held condition *releases* it — the
                # sanctioned parking pattern, not a stall.
                return None
            return "wait"
        return None

    # --- spawn detection --------------------------------------------------------

    def _spawn_from_call(self, node: ast.AST) -> SpawnSite | None:
        if not isinstance(node, ast.Call):
            return None
        name = _terminal_name(node.func)
        parts = _dotted_parts(node.func)

        if name == "Thread" and (parts is None or parts[0] in {"threading", "Thread"}):
            target = None
            daemon = False
            role: str | None = None
            for kw in node.keywords:
                if kw.arg == "target":
                    target = _is_self_attr(kw.value)
                elif kw.arg == "daemon":
                    daemon = (
                        isinstance(kw.value, ast.Constant) and kw.value.value is True
                    )
                elif kw.arg == "name":
                    if isinstance(kw.value, ast.Constant) and isinstance(
                        kw.value.value, str
                    ):
                        role = kw.value.value
            site = SpawnSite(
                node=node,
                via="thread",
                target=target,
                role=role or target or "thread",
                daemon=daemon,
                binding=None,
            )
            self.method.spawns.append(site)
            return site

        if name == "signal" and parts == ["signal", "signal"] and len(node.args) == 2:
            target = _is_self_attr(node.args[1])
            if target is not None:
                site = SpawnSite(
                    node=node,
                    via="signal",
                    target=target,
                    role="signal",
                    daemon=True,  # handlers need no join
                    binding=None,
                )
                self.method.spawns.append(site)
                return site
            return None

        if name == "submit" and isinstance(node.func, ast.Attribute) and node.args:
            target = _is_self_attr(node.args[0])
            if target is not None:
                site = SpawnSite(
                    node=node,
                    via="pool",
                    target=target,
                    role="pool",
                    daemon=True,  # the executor owns the lifecycle
                    binding=None,
                )
                self.method.spawns.append(site)
                return site
            return None

        return None

    # --- recording --------------------------------------------------------------

    def _record_access(self, attr: str, kind: str, node: ast.AST) -> None:
        self.method.accesses.append(
            AttrAccess(
                attr=attr,
                kind=kind,
                method=self.method.name,
                node=node,
                guards=tuple(self.guards),
            )
        )


def _collect_lock_attrs(
    cls_node: ast.ClassDef,
) -> tuple[dict[str, str], set[str]]:
    """Attributes assigned a ``threading`` synchronization factory."""
    lock_attrs: dict[str, str] = {}
    sync_attrs: set[str] = set()
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        factory = _terminal_name(node.value.func)
        if factory not in SYNC_FACTORIES:
            continue
        parts = _dotted_parts(node.value.func)
        if parts is not None and len(parts) > 1 and parts[0] not in {
            "threading",
            "multiprocessing",
        }:
            continue
        for target in node.targets:
            attr = _is_self_attr(target)
            if attr is None:
                continue
            sync_attrs.add(attr)
            if factory in LOCK_FACTORIES:
                lock_attrs[attr] = factory or ""
    return lock_attrs, sync_attrs


def _is_public_entry(name: str) -> bool:
    """Methods callable from outside the class run on the caller's thread."""
    if name == "__init__":
        return False  # construction happens-before publication
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def build_class_tables(
    module: "ModuleSource", config: "AnalysisConfig"
) -> list[ClassConcurrency]:
    """One :class:`ClassConcurrency` per class definition in ``module``."""
    if module.tree is None:
        return []
    tables = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            tables.append(_build_one(node, module.relpath, config))
    return tables


def _build_one(
    cls_node: ast.ClassDef, relpath: str, config: "AnalysisConfig"
) -> ClassConcurrency:
    lock_attrs, sync_attrs = _collect_lock_attrs(cls_node)
    method_nodes = [
        stmt
        for stmt in cls_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    method_names = frozenset(stmt.name for stmt in method_nodes)

    table = ClassConcurrency(
        name=cls_node.name,
        node=cls_node,
        relpath=relpath,
        lock_attrs=lock_attrs,
        sync_attrs=sync_attrs,
    )
    for stmt in method_nodes:
        info = MethodConcurrency(name=stmt.name, node=stmt)
        walker = _MethodWalker(cls_node.name, info, method_names, lock_attrs)
        walker.walk_body(stmt.body)
        table.methods[stmt.name] = info

    _assign_roles(table, relpath, config)
    return table


def _assign_roles(
    table: ClassConcurrency, relpath: str, config: "AnalysisConfig"
) -> None:
    # Seeds: public surface, spawn targets, and centrally declared roles.
    for name, info in table.methods.items():
        if _is_public_entry(name):
            info.roles.add(MAIN_ROLE)
    for info in table.methods.values():
        for spawn in info.spawns:
            if spawn.target is not None and spawn.target in table.methods:
                table.methods[spawn.target].roles.add(spawn.role)
    declared = config.declared_roles(relpath, table.name)
    for method, role in declared.items():
        if method in table.methods:
            table.methods[method].roles.add(role)
    # A service's base class spawns its connection threads, which then
    # call the verb handlers and the session hook: no spawn in this class
    # body names them, so the verb table does.
    verbs = verb_table(table.node)
    if verbs is not None:
        service = _class_assignment(table.node, "service")
        name = service.value if isinstance(service, ast.Constant) else "service"
        for method in [*verbs.values(), SESSION_HOOK]:
            if method in table.methods:
                table.methods[method].roles.add(f"repro-{name}-conn")

    # Propagate caller roles through intra-class call edges to a fixpoint
    # (a helper called from a handler thread runs on the handler thread).
    changed = True
    while changed:
        changed = False
        for info in table.methods.values():
            if info.name == "__init__":
                continue
            for callee, _held, _node in info.calls:
                target = table.methods.get(callee)
                if target is None or target.name == "__init__":
                    continue
                missing = info.roles - target.roles
                if missing:
                    target.roles |= missing
                    changed = True
