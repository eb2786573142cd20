"""Tables that name defs by string must name defs that exist.

``tests/trace_reach.py``'s ``ALLOWLIST`` and the analyzer's
``DEFAULT_THREAD_ROLES`` both refer to ``src/repro`` defs by name, so a
deleted or renamed def leaves an entry that matches nothing and excuses
nothing. The trace itself takes minutes and tier-1 does not run it; these
checks read only the source.
"""

import ast
import importlib.util
import pathlib

from repro.analysis.framework import DEFAULT_THREAD_ROLES

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def load_trace_reach():
    spec = importlib.util.spec_from_file_location("trace_reach", TESTS / "trace_reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_allowlist_entry_names_a_def_and_a_kind():
    trace_reach = load_trace_reach()
    names = set(trace_reach.src_defs(trace_reach.SRC).values())
    stale = sorted(entry for entry in trace_reach.ALLOWLIST if entry not in names)
    assert stale == [], f"these ALLOWLIST entries name no def under src/repro: {stale}"
    unkinded = sorted(
        entry for entry, reason in trace_reach.ALLOWLIST.items()
        if reason.partition(":")[0] not in trace_reach.KINDS or not reason.partition(":")[2].strip()
    )
    assert unkinded == [], (
        f"each reason must read '<kind>: <why>' with a kind from KINDS: {unkinded}"
    )


def test_every_thread_role_names_a_method_that_exists():
    missing = []
    for relpath, classes in DEFAULT_THREAD_ROLES.items():
        path = SRC / relpath
        if not path.is_file():
            missing.append(relpath)
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {
            node.name: {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in tree.body if isinstance(node, ast.ClassDef)
        }
        for class_name, roles in classes.items():
            if class_name not in defined:
                missing.append(f"{relpath}:{class_name}")
                continue
            missing.extend(
                f"{relpath}:{class_name}.{method}"
                for method in roles if method not in defined[class_name]
            )
    assert missing == [], f"DEFAULT_THREAD_ROLES names what does not exist: {missing}"
