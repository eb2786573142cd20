"""Every ``src/repro`` module must be reachable from an entry point.

The roots are the two console scripts, ``examples/``, ``benchmarks/`` and
``perfbench/``. ``tests/`` is not a root, so a module that only its own
tests import fails here. Edges are static imports, relative ones
included. A package ``__init__`` that imports a name from inside its own
package only re-exports it: the edge counts when a reached module asks
the package for that name, or when the ``__init__``'s own code uses it.

Dynamic imports and names that are imported but never called stay
invisible here; a ``sys.setprofile`` call trace of the entry points
finds those.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOTS = [
    SRC / "repro" / "cli.py",
    SRC / "repro" / "analysis" / "cli.py",
    *(path for folder in ("examples", "benchmarks", "perfbench")
      for path in sorted((REPO / folder).glob("*.py"))),
]


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


def test_every_src_module_is_reached_from_an_entry_point():
    index = module_index(SRC)
    unreached = sorted(set(index) - reachable(index, ROOTS))
    assert unreached == [], (
        "no entry point reaches these modules; call them from one or delete "
        f"them with their tests: {unreached}"
    )


def test_a_reexport_nothing_asks_for_reaches_nothing(tmp_path):
    files = {
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
    }
    for relative, text in files.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text)
    index = module_index(tmp_path)
    reached = reachable(index, [tmp_path / "repro" / "main.py"])
    assert set(index) - reached == {"repro.pkg.dead"}
