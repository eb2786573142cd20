"""Every ``src/repro`` module and def must be reached from an entry point.

The roots are the two console scripts, ``examples/``, the top-level
``perfbench/`` files and the ``benchmarks/`` scripts that are not pytest
modules. ``tests/`` is not a root, and neither are ``benchmarks/test_*.py``
and ``benchmarks/conftest.py``, so code that only tests call fails here.

The module guard follows static imports, relative ones included. A
package ``__init__`` that imports a name from inside its own package only
re-exports it: the edge counts when a reached module asks the package
for that name, or when the ``__init__``'s own code uses it.

The def guard checks every function, method and class under
``src/repro``: some ``src/repro`` or root file must name it outside its
own body. :func:`named_in` lists what counts as naming. A name that only
``__all__`` lists or only a package ``__init__`` re-exports does not
count. Dunders are exempt, and so is each :data:`ALLOWED` entry.

Both guards are floors. They see names, not values: a dead def that
shares its name with a live one passes, and so does an attribute that is
written but never read. ``tests/trace_reach.py`` runs the entry points
under a profile hook and finds the dead defs.
"""

import ast
import fnmatch
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOTS = [
    SRC / "repro" / "cli.py",
    SRC / "repro" / "analysis" / "cli.py",
    *sorted((REPO / "examples").glob("*.py")),
    *sorted((REPO / "perfbench").glob("*.py")),
    *(path for path in sorted((REPO / "benchmarks").glob("*.py"))
      if not path.name.startswith("test_") and path.name != "conftest.py"),
]

#: ``(pattern, reason)``: defs that are live although no file names them.
#: A pattern matches ``module:qualname`` or, as ``@name``, a decorator.
ALLOWED = [
    ("repro.analysis.concurrency:*._visit_*",
     "dispatched by getattr(self, f'_visit_{type(node).__name__}')"),
    ("repro.core.findings:FindingsEvaluator.finding_[0-9][0-9]",
     "dispatched by getattr(self, f'finding_{i:02d}')"),
    ("@register_rule", "the decorator files the rule class in RULE_REGISTRY"),
    ("repro.rng:*.generate_state", "numpy's SeedSequence protocol: PCG64 calls it"),
    ("repro.workloads.iperf:IperfWorkload.run_simulated",
     "test oracle: the packet-level model the iperf tests compare against"),
    ("repro.simcore.resources:Resource", "test oracle: the memcached engine model's server pool"),
    ("repro.simcore.resources:Resource.acquire",
     "test oracle: the memcached engine model's server pool"),
]

IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def module_index(src):
    """Dotted name -> (path, is_package) for every module under ``src``."""
    index = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        package = parts[-1] == "__init__"
        index[".".join(parts[:-1] if package else parts)] = (path, package)
    return index


def scan(path, package, name, index):
    """(modules imported, (package, name) asks, re-exports) of one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    modules, asks, reexports = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        base = node.module
        if node.level:
            if name is None:
                continue  # a relative import outside src/ names no repro module
            anchor = name if package else name.rpartition(".")[0]
            for _ in range(node.level - 1):
                anchor = anchor.rpartition(".")[0]
            base = f"{anchor}.{base}" if base else anchor
        for alias in node.names:
            bound = alias.asname or alias.name
            if f"{base}.{alias.name}" in index:
                modules.add(f"{base}.{alias.name}")
            elif package and base.startswith(f"{name}.") and bound not in used:
                reexports.setdefault(bound, set()).add((base, alias.name))
            else:
                modules.add(base)
                asks.add((base, alias.name))
    return {m for m in modules if m in index}, asks, reexports


def reachable(index, roots):
    """Every module of ``index`` that the ``roots`` files reach."""
    by_path = {path: name for name, (path, _) in index.items()}
    scans, reached, asked = {}, set(), set()
    modules, asks = [], []
    for root in roots:
        if root in by_path:
            modules.append(by_path[root])
        else:
            found, root_asks, _ = scan(root, False, None, index)
            modules.extend(found)
            asks.extend(root_asks)
    while modules or asks:
        if modules:
            name = modules.pop()
            if name in reached:
                continue
            reached.add(name)
            parts = name.split(".")
            modules.extend(".".join(parts[:i]) for i in range(1, len(parts)))
            scans[name] = scan(*index[name], name, index)
            modules.extend(scans[name][0])
            asks.extend(scans[name][1])
            continue
        package, wanted = asks.pop()
        if (package, wanted) in asked or not index.get(package, (None, False))[1]:
            continue
        asked.add((package, wanted))
        if package not in scans:
            scans[package] = scan(*index[package], package, index)
        for source, original in scans[package][2].get(wanted, ()):
            modules.append(source)
            asks.append((source, original))
    return reached


def named_in(tree, package):
    """``(name, line, col)`` of every place the file ``tree`` names something.

    A name counts as an ``ast.Name``, an attribute, a keyword argument, an
    identifier-like string outside ``__all__``, and, unless the file is a
    package ``__init__``, an imported name.
    """
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value and any(getattr(target, "id", None) == "__all__" for target in targets):
            listed.update(id(entry) for entry in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, node.col_offset
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno, node.end_col_offset
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno, node.col_offset
        elif isinstance(node, ast.ImportFrom) and not package:
            for alias in node.names:
                yield alias.name, node.lineno, node.col_offset
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value) and id(node) not in listed):
            yield node.value, node.lineno, node.col_offset


def defs_in(tree, module):
    """``(module:qualname, node)`` for every function and class of ``tree``."""
    def walk(parent, prefix):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}:{prefix}{node.name}", node
                yield from walk(node, f"{prefix}{node.name}.")
            else:
                yield from walk(node, prefix)
    return walk(tree, "")


def allowed(qualname, node, allowlist):
    """Whether an ``allowlist`` pattern matches the def's name or a decorator."""
    decorators = set()
    for decorator in node.decorator_list:
        called = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(called, ast.Name):
            decorators.add(f"@{called.id}")
    return any(pattern in decorators or fnmatch.fnmatchcase(qualname, pattern)
               for pattern, _reason in allowlist)


def unnamed_defs(src, roots, allowlist):
    """``path:line qualname`` of every ``src`` def that no file names.

    The files that may name a def are every module under ``src`` and the
    ``roots``; a place inside the def's own body does not count.
    """
    index = module_index(src)
    files = {path: (module, package) for module, (path, package) in index.items()}
    for root in roots:
        files.setdefault(root, (None, root.name == "__init__.py"))
    named, defs = {}, []
    for path, (module, package) in files.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line, col in named_in(tree, package):
            named.setdefault(name, []).append((path, line, col))
        if module is not None:
            defs.extend((path, qualname, node) for qualname, node in defs_in(tree, module))
    unnamed = []
    for path, qualname, node in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        body = ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        if any(where != path or not body[0] <= (line, col) <= body[1]
               for where, line, col in named.get(node.name, ())):
            continue
        if not allowed(qualname, node, allowlist):
            unnamed.append((path.relative_to(src.parent), node.lineno, qualname.partition(":")[2]))
    return [f"{path}:{line} {name}" for path, line, name in sorted(unnamed)]


def test_every_src_module_is_reached_from_an_entry_point():
    index = module_index(SRC)
    unreached = sorted(set(index) - reachable(index, ROOTS))
    assert unreached == [], (
        "no entry point reaches these modules; call them from one or delete "
        f"them with their tests: {unreached}"
    )


def test_every_src_def_is_named_outside_tests():
    unnamed = unnamed_defs(SRC, ROOTS, ALLOWED)
    assert unnamed == [], (
        "only tests name these defs; call them from an entry point or delete "
        "them with their tests:\n" + "\n".join(unnamed)
    )


def write_tree(root, files):
    for relative, text in files.items():
        (root / relative).parent.mkdir(parents=True, exist_ok=True)
        (root / relative).write_text(text)


def test_a_reexport_nothing_asks_for_reaches_nothing(tmp_path):
    write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/main.py": "from .pkg import Asked\n",
        "repro/pkg/__init__.py": (
            "from repro.pkg.asked import Asked\n"
            "from repro.pkg.dead import Dead\n"
            "from .own import helper\n"
            "DEFAULT = helper()\n"
        ),
        "repro/pkg/asked.py": "class Asked: ...\n",
        "repro/pkg/dead.py": "class Dead: ...\n",
        "repro/pkg/own.py": "def helper(): ...\n",
    })
    index = module_index(tmp_path)
    reached = reachable(index, [tmp_path / "repro" / "main.py"])
    assert set(index) - reached == {"repro.pkg.dead"}


def test_a_def_named_only_by_tests_all_or_a_reexport_fails(tmp_path):
    write_tree(tmp_path, {
        "src/repro/__init__.py": (
            "from repro.lib import reexported\n"
            "__all__ = ['listed', 'reexported']\n"
        ),
        "src/repro/lib.py": (
            "def used():\n"
            "    return used\n"
            "def tested(): ...\n"
            "def listed(): ...\n"
            "def reexported(): ...\n"
            "def recursive():\n"
            "    return recursive()\n"
            "class Walker:\n"
            "    def _visit_If(self): ...\n"
            "    def __repr__(self): ...\n"
            "    @property\n"
            "    def tested_property(self): ...\n"
        ),
        "src/repro/cli.py": "from repro.lib import Walker, used\nused(Walker())\n",
        "tests/test_lib.py": (
            "from repro.lib import Walker, recursive, reexported, tested\n"
            "tested(), reexported(), recursive(), Walker().tested_property\n"
        ),
    })
    src = tmp_path / "src"
    allowlist = [("repro.lib:Walker._visit_*", "dispatched by getattr")]
    assert unnamed_defs(src, [src / "repro" / "cli.py"], allowlist) == [
        "src/repro/lib.py:3 tested",
        "src/repro/lib.py:4 listed",
        "src/repro/lib.py:5 reexported",
        "src/repro/lib.py:6 recursive",
        "src/repro/lib.py:12 Walker.tested_property",
    ]
    assert unnamed_defs(src, [src / "repro" / "cli.py"], []) == [
        "src/repro/lib.py:3 tested",
        "src/repro/lib.py:4 listed",
        "src/repro/lib.py:5 reexported",
        "src/repro/lib.py:6 recursive",
        "src/repro/lib.py:9 Walker._visit_If",
        "src/repro/lib.py:12 Walker.tested_property",
    ]
