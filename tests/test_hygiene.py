"""Source hygiene: no unused imports, no unreferenced private names, no
f-string without a placeholder, and imports kept where they belong.

The checks read the package modules with ``ast`` (``__init__.py`` only
re-exports, some names on first access, so it is skipped as a module under
test but still counts as a place that references names).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "intervalsemirings"
TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def _imported(tree):
    """Names an import binds anywhere in the module (``__future__`` aside)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def _referenced(tree):
    """Names read, attributes taken, or imported by name in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _private_definitions(tree):
    """Private top-level functions, classes and assigned names."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in out if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_referenced(module):
    everywhere = set().union(*(_referenced(t) for t in TREES.values()))
    assert sorted(_private_definitions(TREES[module]) - everywhere) == []


def _module_level_imports(tree, package=False):
    """Top-level packages a module imports when it is loaded, that is
    outside every function body and ``if TYPE_CHECKING:`` block; with
    package, the modules of its own package (relative imports) instead."""
    out, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == \
                "TYPE_CHECKING":
            continue
        if isinstance(node, ast.Import) and not package:
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and package == (node.level > 0):
            out.update([node.module.split(".")[0]] if node.module
                       else [a.name for a in node.names])
        todo.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("module", ["carriers.py", "handle.py", "reports.py",
                                    "sweeps.py"])
def test_imports_numpy_on_first_use(module):
    # An isl table, isl eval or isl verify zn-composite-zd process loads
    # these modules and must never load numpy, which would add about 100 ms
    # to its start (see carriers.symmetric_semigroup and
    # SemiringHandle.tables).
    assert "numpy" not in _module_level_imports(TREES[module])


# The package modules each module may import when it is loaded.  An `isl`
# process compiles what it loads from source, so the package loads no
# module, cli only errors (each command imports what it runs), formalsums
# leaves carriers to a carrier basis, handle and expressions leave
# formalsums and matrices to a handle of that kind, laws leaves carriers
# to the carrier checks, and analysis, tables and laws (and numpy) load
# with a query.  reports loads no query code, sweeps leaves each sweep's
# modules to its body, and analysis loads structural only for a handle it
# cannot enumerate.
_PACKAGE_IMPORTS = {
    "__init__.py": set(),
    "errors.py": set(),
    "cli.py": {"errors"},
    "domains.py": {"errors"},
    "carriers.py": {"errors"},
    "formalsums.py": {"domains", "errors"},
    "matrices.py": {"domains", "errors"},
    "handle.py": {"domains", "errors"},
    "expressions.py": {"domains", "errors", "handle"},
    "laws.py": {"errors"},
    "tables.py": {"domains", "errors", "laws"},
    "reports.py": {"errors"},
    "sweeps.py": {"errors", "reports"},
    "analysis.py": {"errors", "handle", "laws", "reports", "tables"},
    "structural.py": {"analysis", "domains", "errors", "laws", "reports",
                      "tables"},
}


@pytest.mark.parametrize("module", sorted(TREES))
def test_module_level_package_imports(module):
    assert _module_level_imports(TREES[module], package=True) \
        <= _PACKAGE_IMPORTS[module]


def test_no_module_imports_dataclasses():
    # the value classes are written out on errors.Frozen: a dataclass would
    # load inspect and run exec-based code generation in every process
    assert [m for m in sorted(TREES)
            if "dataclasses" in _module_level_imports(TREES[m])
            or "dataclasses" in _imported(TREES[m])] == []


def test_no_module_enumerates_combinations():
    # the exhaustive search enumerates closed sets (laws.closed_sets),
    # not subsets: a loop over combinations fails here
    assert [m for m in MODULES
            if "combinations" in _referenced(TREES[m])] == []


def test_tables_leaves_the_slot_layout_to_the_handle():
    # SemiringHandle._slots is the one place that knows how formal sums and
    # matrices lay out their slots; tables compiles from it alone
    names = set()
    for node in ast.walk(TREES["tables.py"]):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    assert {n.split(".")[-1] for n in names} & {"formalsums", "matrices"} \
        == set()


def test_analysis_leaves_the_law_scans_to_tables():
    # carriers and tables scan, analysis compiles tables and renders what
    # they find: it reads no law table and takes every query on a handle
    tree = TREES["analysis.py"]
    assert _referenced(tree) & {"LawTable", "first_violation", "generators",
                                "_gathers"} == set()
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func)
            == "isinstance" and "SemiringHandle" in ast.unparse(node)] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_f_string_has_a_placeholder(module):
    tree = TREES[module]
    # a format spec such as the 7s of f"{x:7s}" is an f-string of its own
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue)}
    bare = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue)
                        for v in node.values)]
    assert bare == []


def test_tables_computes_domain_entries_without_object_arithmetic():
    # the compile reads a domain through its array kernel (tables.dom_kernel),
    # so it cannot fall back to the object operations, which stay the
    # reference the tests compare it with
    assert _referenced(TREES["tables.py"]) & {"dom_add", "dom_mul"} == set()


def test_tables_reads_domain_positions_through_the_handle():
    # a digit is a domain position (domains.domain_position), which
    # SemiringHandle.index computes: the compile lists no domain's elements
    # and keys no element itself
    assert _referenced(TREES["tables.py"]) & {"domain_elements",
                                              "element_key"} == set()
