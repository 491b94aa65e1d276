"""Every name a package module imports is used in that module, and every
error and warning type the package defines is raised or warned somewhere.

No linter ships with the package, so the checks are plain AST scans: a name
bound by an import statement must appear as a name somewhere in the module,
and each type in ``errors.py`` must be named by a ``raise`` or a
``warnings.warn`` call in some package module. ``__init__.py`` is left out
of the import check, since it imports in order to re-export.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ergodic_tiler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ERROR_BASE = "ErgodicTilerError"


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = "import math\nimport numpy as np\nfrom .graph import quotient, build_graph\nnp.zeros(build_graph)\n"
    assert unused_imports(source) == ["math", "quotient"]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named(node):
    """The name an expression ends in: ``X`` for ``X``, ``m.X`` and ``X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def unused_error_types(errors_source, module_sources):
    """Subclasses of the package's base error that no raise names, and
    Warning subclasses that no warnings.warn call names, in definition order."""
    errors, warns = [], []
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef):
            bases = {named(b) for b in node.bases}
            if bases & {ERROR_BASE, *errors}:
                errors.append(node.name)
            elif any(b.endswith("Warning") for b in bases if b) or bases & set(warns):
                warns.append(node.name)
    raised, warned = set(), set()
    for source in module_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(named(node.exc))
            elif isinstance(node, ast.Call) and named(node.func) == "warn":
                warned.update(named(a) for a in [*node.args, *(k.value for k in node.keywords)])
    return [e for e in errors if e not in raised] + [w for w in warns if w not in warned]


def test_scan_finds_unused_error_types():
    errors = (
        "class ErgodicTilerError(Exception): pass\n"
        "class Raised(ErgodicTilerError): pass\n"
        "class Called(Raised): pass\n"
        "class Leftover(Raised): pass\n"
        "class Warned(UserWarning): pass\n"
        "class Silent(UserWarning): pass\n"
    )
    module = (
        "from .errors import Raised, Called, Warned\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise errors.Raised\n"
        "    warnings.warn('w', category=Warned)\n"
        "    raise Called('c')\n"
    )
    assert unused_error_types(errors, [module]) == ["Leftover", "Silent"]


def test_every_error_and_warning_type_is_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_error_types((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []
