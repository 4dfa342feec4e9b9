"""The map modules sit below the filter: vectormap, relations, starmap,
grids and projection import nothing from particlefilter, trust,
evalbench or cli. Read from the source with ast, so an import inside a
function counts too."""

import ast
import pathlib

import cstrack

SRC = pathlib.Path(cstrack.__file__).parent
MAP_MODULES = ("vectormap", "relations", "starmap", "grids", "projection")
UPPER_MODULES = {"particlefilter", "trust", "evalbench", "cli"}


def cstrack_imports(tree):
    """(line, dotted name within cstrack) of every cstrack module or name
    the tree imports; `from .a import b` gives both a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cstrack."):
                    yield node.lineno, alias.name.removeprefix("cstrack.")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "cstrack" and not module.startswith("cstrack."):
                    continue
                module = module.removeprefix("cstrack").removeprefix(".")
            if module:
                yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}" if module else alias.name


def test_cstrack_imports_reads_every_import_form():
    tree = ast.parse("import numpy\nimport cstrack.trust\nfrom . import cli\n"
                     "from .particlefilter import x\nfrom cstrack.evalbench import y\n"
                     "def f():\n    from cstrack import jsonio\n")
    assert sorted(cstrack_imports(tree)) == [
        (2, "trust"), (3, "cli"), (4, "particlefilter"), (4, "particlefilter.x"),
        (5, "evalbench"), (5, "evalbench.y"), (7, "jsonio")]


def test_map_modules_import_nothing_from_the_filter_or_above():
    offenders = {f"{name}.py:{line}"
                 for name in MAP_MODULES
                 for line, module in cstrack_imports(
                     ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
                 if module.split(".")[0] in UPPER_MODULES}
    assert sorted(offenders) == []
