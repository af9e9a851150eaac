"""Guard against dead code: every top-level function, class and UPPER_CASE
constant in ``src/couplingflow``, and every method that is not a dunder, is
referred to somewhere in the program (``src/`` or ``perfbench/``). Tests do
not count, so a helper that only tests call fails here and belongs in
``tests/``.

A reference is a name that is read (not assigned to), an attribute, an
imported name, or a word or dotted word inside a plain string that is not a
docstring, such as the entries of perfbench's ``TRACED`` table
("AdamState.update"). The text of an f-string does not count (the names in
its replacement fields do): it is how messages are written, and a function
whose only mention is its own error message is still dead."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "couplingflow"
PROGRAM = (ROOT / "src", ROOT / "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

# kept without a caller in the program, each for the reason given
ALLOWED = {
    "write_mat1": "writes the MAT1 matrices that decompose and certify read",
    "four_product": "assembles the four-matrix products whose Schur identity the certificate rests on",
    "mle_linear_gaussian_check": "the MLE consistency experiment against the sample covariance",
    "log_det_jacobian_constant": "the lattice net's closed-form log-determinant",
    "low_overlap_subsets": "the subset family a depth lower bound for general flows builds on",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """Names of the top-level functions, classes and UPPER_CASE constants
    and of the non-dunder methods defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets
                        if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not _is_dunder(item.name):
                    yield item.name


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            yield node.body[0].value


def _fstring_text(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield from (part for part in node.values if isinstance(part, ast.Constant))


def references(tree):
    skipped = set(map(id, _docstrings(tree))) | set(map(id, _fstring_text(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skipped:
            for word in DOTTED.findall(node.value):
                yield from word.split(".")


def unreferenced_names():
    defined = {name for path in sorted(PACKAGE.glob("*.py"))
               for name in definitions(_parse(path))}
    used = {name for root in PROGRAM for path in sorted(root.rglob("*.py"))
            for name in references(_parse(path))}
    return defined - used


def test_every_definition_is_used_by_the_program():
    dead = unreferenced_names()
    assert dead - set(ALLOWED) == set(), \
        "defined in src/couplingflow but referred to nowhere in src/ or perfbench/"
    assert set(ALLOWED) - dead == set(), \
        "allowlisted but referred to by the program now; drop it from ALLOWED"


def test_scan_sees_each_kind_of_reference():
    tree = ast.parse("'docstring'\nimport a.b\nfrom c import d\ne.f\ng\n"
                     "T = {'h': ['i.j'], 'k': f'{n.o:{p}>4} l-m'}\n")
    assert set(references(tree)) == {"a", "b", "d", "e", "f", "g", "h", "i", "j",
                                     "k", "n", "o", "p"}
    module = ast.parse("def f():\n    pass\nclass C:\n    def __init__(self):\n        pass\n"
                       "    def m(self):\n        pass\n"
                       "K = 1\n_K2: int = 2\nlower = 3\n__all__ = []\nA, B = 4, 5\n")
    assert set(definitions(module)) == {"f", "C", "m", "K", "_K2"}
