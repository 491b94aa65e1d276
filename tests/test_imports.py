"""Every name a package module imports is used in that module, every error
and warning type the package defines is raised or warned somewhere, and
every name the package exports is reached by a command, by a run or by a
clause of the paper.

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


# Exports that no command and no run reaches, each with the clause of the
# paper's abstract it stands for, or the reader whose output it writes back.
PAPER_CLAUSES = {
    "coherent_limit": "an increasing sequence of subgraphs with finite components",
    "mean_over": "averages converge to their expectations",
    "family_S_membership": "finite equivalence subrelations with large domain",
    "define_flow": "exploiting nonamenability of a measured graph",
    "balance_check": "exploiting nonamenability of a measured graph",
    "global_balance": "exploiting nonamenability of a measured graph",
    "sum_flows": "exploiting nonamenability of a measured graph",
    "block": "a gadget for the interplay of the cocycle and the graph",
    "cone": "a gadget for the interplay of the cocycle and the graph",
    "vanishing_sequence": "a graph invariant",
    "limsup_mass": "a graph invariant",
    "edge_measure_from_maps": "a graph invariant",
    "is_K_finitizing_vertex_cut": "a graph invariant",
    "is_K_finitizing_edge_cut": "a graph invariant",
    "write_graph_file": "the round trip of read_graph_file",
    "write_flow_file": "the round trip of read_flow_file",
    "parse_report_csv": "the round trip of emit_report",
}


def mentioned(node):
    """Names a node mentions: its names, its attributes, since a method call
    cannot be told from a function of the same name without types, and the
    names it imports."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def top_level_mentions(sources):
    """Each name the modules bind at top level, by a def, a class, an
    assignment or an import, mapped to the names its statement mentions."""
    out = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.ImportFrom):
                for a in node.names:
                    out.setdefault(a.asname or a.name, set()).add(a.name)
                continue
            else:
                continue
            for name in bound:
                out.setdefault(name, set()).update(mentioned(node))
    return out


def reached(roots, mentions):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(mentions.get(name, ()))
    return seen


def public_surface_gaps(init_source, module_sources, cli_source, table):
    """Exports that neither the names of cli.py, nor run_tiling, nor the
    table's entries reach; and table entries that cli.py or run_tiling
    already reach, or that are not exported."""
    exported = {a.asname or a.name for n in ast.parse(init_source).body if isinstance(n, ast.ImportFrom) for a in n.names}
    mentions = top_level_mentions(module_sources)
    by_run = reached(mentioned(ast.parse(cli_source)) | {"run_tiling"}, mentions)
    unreached = exported - reached(by_run | set(table), mentions)
    return sorted(unreached), sorted(set(table) & by_run | set(table) - exported)


def test_reach_finds_unreached_exports_and_needless_table_entries():
    init = "from .a import run_tiling, helper\nfrom .b import Called, aliased, redundant, tabled, deep, orphan\n"
    module_a = (
        "from .b import aliased as alias\n"
        "def run_tiling(x):\n"
        "    return helper(x) + alias\n"
        "def helper(x):\n"
        "    return x.redundant()\n"
    )
    module_b = (
        "class Called:\n    pass\n"
        "def aliased():\n    pass\n"
        "def redundant():\n    pass\n"
        "def tabled():\n    return deep()\n"
        "def deep():\n    pass\n"
        "def orphan():\n    pass\n"
    )
    cli = "def main():\n    from .b import Called as C\n    C()\n"
    table = {"tabled": "a clause", "redundant": "a clause", "missing": "a clause"}
    assert public_surface_gaps(init, [module_a, module_b, cli], cli, table) == (["orphan"], ["missing", "redundant"])


def test_every_public_name_is_reached():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert public_surface_gaps(init, sources, cli, PAPER_CLAUSES) == ([], [])
