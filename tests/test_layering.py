"""The map modules sit below the filter: vectormap, relations, starmap,
grids and projection import nothing from particlefilter, trust,
evalbench or cli. Read from the source with ast, so an import inside a
function counts too. And a command loads scipy only where it calls it,
checked in a child process."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import cstrack

import world
from cstrack.demo import write_demo

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


# Runs cstrack.cli.main on each argv in turn, then prints the scipy
# modules the process has loaded.
SCIPY_PROBE = """
import json, sys
from cstrack.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                          json.dumps([[str(a) for a in argv] for argv in argvs])],
                         capture_output=True, text=True, env=env, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


class TestScipyLoadsOnlyWhereItRuns:
    """ingest and build-starmap load no scipy (the depth layer's bucket
    index is numpy); field loads scipy.special, not scipy.spatial, where
    the program has a comparison, whose interval probabilities call ndtr."""

    def test_ingest_loads_no_scipy(self, tmp_path):
        paths = world.write_world(tmp_path)
        assert scipy_modules_after(["ingest", "--csv", paths["csv"], "--dt", 60,
                                    "--out", tmp_path / "tracks.json", world.ORIGIN_FLAG]) == set()

    def test_build_starmap_loads_no_scipy_and_field_no_scipy_spatial(self, tmp_path):
        files = write_demo(tmp_path)
        starmap = ["build-starmap", "--map", files["map"], "--perturb", files["perturbations"],
                   "--constitution", files["constitution"], "--rows", 6, "--cols", 6,
                   "--samples", 3, "--out", tmp_path / "starmap.json"]
        field = ["field", "--constitution", files["constitution"],
                 "--starmap", tmp_path / "starmap.json", "--out", tmp_path / "field.json"]
        assert scipy_modules_after(starmap) == set()
        fielded = scipy_modules_after(field)
        assert "scipy.special" in fielded
        assert not {m for m in fielded if m.startswith("scipy.spatial")}
