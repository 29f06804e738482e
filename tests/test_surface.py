"""Every public function, class and method of the package has a caller.

A name defined at the top level of ``src/rwscenery/*.py`` (or a public method
of a class defined there) must be referenced from ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition; tests do not count.  A reference is
a ``Name``, an ``Attribute``, an import alias, or a string constant equal to
the name, since the experiment registry and the benchmark tracer name their
targets by string.  A name is matched by name alone, so a method counts as
reached when any attribute of that name is read.  When a design is replaced,
this keeps its second evaluator from staying behind with only tests calling it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwscenery"
CALLER_DIRS = ("src", "scripts", "perfbench")

# names that no program code reaches, each with the reason it stays
ALLOWED = {
    "quadruple_count": "the exact quadruple count W_n that ROADMAP item 3's kappa_4 builds on",
    "univariate_cumulant4": "the fourth k-statistic that ROADMAP item 3 compares with",
    "iid_scenery": "a test constructor of the i.i.d. scenery",
    "moving_average_scenery": "a test constructor of the moving-average scenery",
    "toral_scenery": "a test constructor of the toral scenery",
    "norm_c": "the test of sum |a_l| <= ||f||_c^2 reads it",
    "norm_l2_sq": "the Parseval test reads it",
}


def _definitions() -> dict:
    """name -> [(file, first line, last line)] of each public top-level
    function or class of the package, and each public method of its classes."""
    defs = {}

    def add(node, path):
        if not node.name.startswith("_"):
            defs.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                add(node, path)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        add(item, path)
    return defs


def _references() -> dict:
    """name -> [(file, line)] of every reference in the caller directories."""
    refs = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [part for alias in node.names for part in alias.name.split(".")]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def unreferenced() -> set:
    """The public names whose every reference lies inside their own definition."""
    refs = _references()

    def inside(ref, span):
        return ref[0] == span[0] and span[1] <= ref[1] <= span[2]

    return {name for name, spans in _definitions().items()
            if all(any(inside(ref, span) for span in spans) for ref in refs.get(name, []))}


def test_every_public_name_has_a_caller():
    orphans = unreferenced() - set(ALLOWED)
    assert not orphans, (f"public names that only tests reach: {sorted(orphans)}; delete "
                         "them, or give the reason each stays in ALLOWED")


def test_the_allowlist_has_no_stale_entry():
    stale = set(ALLOWED) - unreferenced()
    assert not stale, f"ALLOWED names that are reached or gone: {sorted(stale)}"
