"""perfbench times the package by wrapping functions by name (the WRAPS
table of perfbench/spans.py); a target that stops resolving empties its
span without an error. This test reads the table with ast, so it neither
imports nor changes perfbench, and pins which targets resolve.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets that resolve nowhere today. A change that renames a wrapped
# function fails here; one that makes a target resolve again removes it.
UNRESOLVED = {
    "cstrack.cli.parse",
    "cstrack.particlefilter.predict",
    "cstrack.particlefilter.update_measurement",
    "cstrack.particlefilter.update_constitution",
    "cstrack.particlefilter.resample",
    "cstrack.particlefilter.estimate",
    "cstrack.cli.run_filter",
    "cstrack.trust.run_filter",
    "cstrack.evalbench.run_filter",
}


def _wrap_targets() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets)):
            return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no WRAPS table")


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_perfbench_wrap_targets_resolve():
    targets = _wrap_targets()
    assert len(targets) > len(UNRESOLVED)
    unresolved = {f"{module}.{path}" for module, path in targets
                  if not _resolves(module, path)}
    assert unresolved == UNRESOLVED
