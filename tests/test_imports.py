"""Every name a library module imports is used in that module, and every
function, class and method the package defines is reached.

No linter ships with the project, so this stands in for its unused-import
rule.  The package ``__init__`` is left out: its imports are the exports.
Imports point one way: ``quiveralg`` sits below ``fdalg`` and ``complexes``,
and ``fdalg`` below ``complexes``; neither imports from above it, at any
depth, and no library module but ``cli`` imports inside a function.
A definition counts as reached when package code names it outside its own
body, or when ``__init__`` exports it; dunder methods are exempt, and a
name bound in its function, as a parameter or an assignment target, is a
local and names no definition.  The only
true division (``/`` or ``/=``) in the package is the one in
``exactmat.exact_div``, so no float can arise from a quotient.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hatilt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from .fdalg import degree_zero_part, replicate\n\nx = replicate\n"
    assert unused_imports(source) == ["degree_zero_part (line 1)"]


def imported_modules(source: str) -> set[str]:
    """Every module that ``source`` imports from, at any nesting level, with
    the leading dots of a relative import dropped."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize(
    "module, above",
    [("fdalg", {"complexes"}), ("quiveralg", {"fdalg", "complexes"})],
    ids=["fdalg", "quiveralg"],
)
def test_imports_point_down(module, above):
    modules = imported_modules((SRC / f"{module}.py").read_text())
    assert not {m for m in modules if m.split(".")[-1] in above}


def test_the_check_sees_a_nested_import():
    source = "def end(reps):\n    from .complexes import gldim\n    import hatilt.complexes\n"
    assert imported_modules(source) == {"complexes", "hatilt.complexes"}


def imports_in_functions(source: str) -> list[str]:
    """Each import statement inside a function, as "function (line N)"."""
    return [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_only_cli_imports_inside_functions():
    assert [p.name for p in MODULES if imports_in_functions(p.read_text())] == ["cli.py"]


def test_the_check_sees_an_import_in_a_method():
    source = (
        "from .pathcomb import coords\n"
        "class Algebra:\n"
        "    def __getattr__(self, name):\n"
        "        from .fdalg import gabriel_quiver\n"
        "        return gabriel_quiver(self)\n"
    )
    assert imports_in_functions(source) == ["__getattr__ (line 4)"]


def true_divisions(source: str) -> list[str]:
    """Each ``/`` and ``/=`` in ``source``, as "enclosing function (line N)"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append(f"{owner} (line {child.lineno})")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_exact_div_divides():
    # ``/`` on two ints is a float; exact_div keeps every quotient exact
    sites = [
        f"{p.name}: {site.split(' (')[0]}"
        for p in sorted(SRC.glob("*.py"))
        for site in true_divisions(p.read_text())
    ]
    assert sites == ["exactmat.py: exact_div"]


def test_the_check_sees_a_true_division():
    source = "def half(x):\n    y = x // 2\n    y /= 3\n    return x / 2\n\nthird = 1 / 3\n"
    assert true_divisions(source) == ["half (line 3)", "half (line 4)", "<module> (line 6)"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(function) -> set[str]:
    """The parameters of ``function`` and the names its own body assigns,
    those of nested functions and classes left out."""
    args = function.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a}
    todo = [function.body] if isinstance(function, ast.Lambda) else list(function.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _references(tree) -> set[int]:
    """The ``id``s of the Name and Attribute nodes of ``tree`` that may name
    a definition: every attribute, and every name that no enclosing
    function binds as a local."""
    found = set()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, FUNCTIONS):
            local = local | _locals(node)
        elif isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and node.id not in local:
            found.add(id(node))
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return found


def _named(node, references: set[int]) -> Counter:
    """How often each name or attribute among ``references`` appears in the
    code under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if id(n) in references
    )


def unreached_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = {module: _references(tree) for module, tree in trees.items()}
    named = sum((_named(tree, references[module]) for module, tree in trees.items()), Counter())
    unreached = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            # a recursive call names the function inside its own body only
            if named[name] == _named(node, references[module])[name]:
                unreached.append(f"{module}: {name} (line {node.lineno})")
    return unreached


def test_every_definition_is_reached():
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse((SRC / "__init__.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached_definitions(sources, exported) == []


def test_the_check_sees_an_unreached_definition():
    source = (
        "class Grid:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "def size(grid):\n"
        "    return len(grid)\n"
        "def exported():\n"
        "    return size(Grid())\n"
    )
    assert unreached_definitions({"m.py": source}, {"exported"}) == ["m.py: walk (line 4)"]


def test_the_check_sees_a_definition_hidden_by_a_local():
    source = (
        "def walk(grid):\n"
        "    return grid\n"
        "def step(grid):\n"
        "    return grid\n"
        "def exported(grid, step):\n"
        "    walk = [step(x) for x in grid]\n"
        "    return walk\n"
    )
    assert unreached_definitions({"m.py": source}, {"exported"}) == [
        "m.py: walk (line 1)",
        "m.py: step (line 3)",
    ]
