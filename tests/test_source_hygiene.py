"""Static checks on silt's own source, read with ast: no unused import
(in the tests either), no definition that nothing names, no memo keyed
by the builtin id(), no import of dataclasses, no import of csv outside
silt.cli, no call to object.__new__, no read of an object's __dict__, no
single_path result read as a truth value, and one matrix format (int
rows, with linalg.Matrix only as the input of the two traced
eliminations); each frozen expected table assigned once, at module level
in silt.cli, and in no test module; and, read as text, no mention of
fractions."""

import ast
import re
from collections import Counter
from pathlib import Path

import silt

SOURCES = sorted(Path(silt.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _names_used(tree):
    """How often each name is loaded or read as an attribute in a tree; an
    import binds names but does not count as a use."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _definitions(tree):
    """Each top-level function and class, and each non-dunder method of a
    top-level class, as its def node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def test_sources_are_found():
    assert {"cli.py", "complexes.py", "modules.py", "quivers.py"} <= set(TREES)


def test_every_import_is_used():
    # in silt's sources and in the tests alike
    tests = {f"tests/{path.name}": ast.parse(path.read_text()) for path in TESTS}
    unused = []
    for name, tree in {**TREES, **tests}.items():
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_definition_is_referenced():
    # a use inside the definition itself (recursion) does not count
    used = sum(map(_names_used, TREES.values()), Counter())
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in _definitions(tree)
        if used[node.name] <= _names_used(node)[node.name]
    ]
    assert dead == []


def test_no_call_to_builtin_id():
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]
    assert calls == []


def test_no_fractions_in_src():
    # silt computes over the integers: no source imports fractions or
    # names Fraction or the rational matrix type it replaced
    found = [
        f"{path.name}:{n} {m.group()}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for m in re.finditer(r"\b(fractions|Fraction|RatMatrix)\b", line)
    ]
    assert found == []


def _imported_modules(tree):
    """The top-level name of every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_no_dataclasses_import():
    # records are quivers.Record subclasses: importing dataclasses (and
    # inspect with it) costs every cold process about 20 ms
    found = [
        name
        for name, tree in TREES.items()
        if "dataclasses" in set(_imported_modules(tree))
    ]
    assert found == []


def test_dataclasses_import_check_sees_each_form():
    for text in (
        "import dataclasses",
        "from dataclasses import dataclass",
        "import dataclasses as dc",
        "def f():\n    from dataclasses import fields",
    ):
        assert "dataclasses" in set(_imported_modules(ast.parse(text))), text
    for text in ("from .dataclasses import x", "import json", "x = 'dataclasses'"):
        assert "dataclasses" not in set(_imported_modules(ast.parse(text))), text


def test_only_cli_imports_csv():
    # every report is rendered in silt.cli: the modules that compute
    # write no CSV
    found = [
        name for name, tree in TREES.items() if "csv" in set(_imported_modules(tree))
    ]
    assert found == ["cli.py"]


def test_csv_import_check_sees_each_form():
    for text in (
        "import csv",
        "from csv import writer",
        "import csv as c",
        "def f():\n    import csv",
    ):
        assert "csv" in set(_imported_modules(ast.parse(text))), text
    for text in ("from .csv import x", "from .cli import csv_table", "x = 'csv'"):
        assert "csv" not in set(_imported_modules(ast.parse(text))), text


def test_no_constructor_bypass():
    # every object is built by its class's one checked constructor: no
    # call to object.__new__ skips __post_init__
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    assert calls == []


def _dict_reads(tree):
    """Lines that name __dict__: as an attribute, a bare name or a string
    (getattr(x, "__dict__")), or through vars(x)."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Name) and node.id == "__dict__")
        or (isinstance(node, ast.Constant) and node.value == "__dict__")
        or (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "vars"
            and node.args
        )
    })


def test_no_instance_dict():
    # a record keeps its fields in slots, and only quivers.Record knows
    # how: a dict per instance cost E8's classify about 20 MB of peak RSS
    found = [
        f"{name}:{n}" for name, tree in TREES.items() for n in _dict_reads(tree)
    ]
    assert found == []


def test_instance_dict_check_sees_each_form():
    bad = [
        "d = self.__dict__",
        'self.__dict__["x"] = 1',
        "h = cls.__dict__.get('__annotations__', ())",
        'd = getattr(self, "__dict__")',
        "d = vars(self)",
        "__slots__ = ('x', '__dict__')",
    ]
    good = [
        "object.__setattr__(self, 'x', 1)",
        "fields = tuple(ns.get('__annotations__', ()))",
        "d = vars()",
        "x = self.dict",
        '"""a docstring that mentions __dict__"""',
    ]
    for text in bad:
        assert _dict_reads(ast.parse(text)), text
    for text in good:
        assert _dict_reads(ast.parse(text)) == [], text


def _truth_tests(tree):
    """Each expression read as a truth value: the test of an if, while,
    conditional expression, assert or comprehension filter, an operand of
    and/or/not, and the argument of bool()."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool":
            yield from node.args


def _is_single_path_call(node):
    return isinstance(node, ast.Call) and "single_path" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _single_path_truth_tests(tree):
    """Lines where a single_path call, a := of one, or a name bound to
    one in the same function is read as a truth value."""
    found = set()
    scopes = [tree] + [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    for scope in scopes:
        bound = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.NamedExpr) and _is_single_path_call(node.value):
                bound.add(node.target.id)
            elif isinstance(node, ast.Assign) and _is_single_path_call(node.value):
                bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for test in _truth_tests(scope):
            if isinstance(test, ast.NamedExpr):
                test = test.value
            if _is_single_path_call(test) or (
                scope is not tree
                and isinstance(test, ast.Name)
                and test.id in bound
            ):
                found.add(test.lineno)
    return sorted(found)


def test_single_path_is_never_a_truth_value():
    # single_path returns () for the lazy path, and () is falsy: its
    # result is compared with `is None` / `is not None`, never tested
    found = [
        f"{name}:{n}"
        for name, tree in TREES.items()
        for n in _single_path_truth_tests(tree)
    ]
    assert found == []


def test_single_path_truth_check_sees_each_form():
    bad = [
        "on = {u: p for u in vs if (p := single_path(q, u, u))}",
        "if single_path(q, u, v):\n    pass",
        "x = ok and single_path(q, u, v)",
        "x = not single_path(q, u, v)",
        "x = bool(quivers.single_path(q, u, v))",
        "def f(q, u, v):\n    p = single_path(q, u, v)\n    while p:\n        pass",
        "def f(q, u, v):\n    return 1 if (p := single_path(q, u, v)) else 0",
    ]
    good = [
        "on = {u: p for u in vs if (p := single_path(q, u, u)) is not None}",
        "if single_path(q, u, v) is None:\n    pass",
        "x = act_path(n, b, single_path(q, b, a))",
        "def f(q, u, v):\n    p = single_path(q, u, v)\n    return p is None or len(p)",
    ]
    for text in bad:
        assert _single_path_truth_tests(ast.parse(text)), text
    for text in good:
        assert _single_path_truth_tests(ast.parse(text)) == [], text


def _is_matrix_build(node):
    """A call of Matrix(...) or Matrix.from_rows(...)."""
    f = node.func if isinstance(node, ast.Call) else None
    if isinstance(f, ast.Attribute) and f.attr == "from_rows":
        f = f.value
    return isinstance(f, ast.Name) and f.id == "Matrix"


def _matrix_outside_eliminations(tree):
    """Lines that build a Matrix other than as the first argument of an
    rref(...) or kernel_basis(...) call, or that bind the name Matrix
    other than by importing it."""
    inputs = {
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and node.args
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("rref", "kernel_basis")
    }
    found = set()
    for node in ast.walk(tree):
        if _is_matrix_build(node) and node not in inputs:
            found.add(node.lineno)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Matrix":
            found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Matrix" and isinstance(node.ctx, ast.Store):
            found.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            a.asname == "Matrix" and a.name != "Matrix" for a in node.names
        ):
            found.add(node.lineno)
    return sorted(found)


def test_one_matrix_format():
    # a matrix is its int rows; linalg.Matrix is only the record that the
    # traced rref and kernel_basis take, and only linalg defines it
    found = [
        f"{name}:{n}"
        for name, tree in TREES.items()
        if name != "linalg.py"
        for n in _matrix_outside_eliminations(tree)
    ]
    assert found == []


def test_one_matrix_format_check_sees_each_form():
    bad = [
        "m = Matrix(2, 2, (1, 0, 0, 1))",
        "r = rank(Matrix.from_rows(rows))",
        "red = rref(x, Matrix(1, 1, (1,)))",
        "Matrix = Tuple[Tuple[int, ...], ...]",
        "class Matrix:\n    pass",
        "from .classify import Rows as Matrix",
        "for Matrix in ():\n    pass",
    ]
    good = [
        "from .linalg import Matrix, rref",
        "ker = kernel_basis(Matrix(0, 3, ()))",
        "red, pivots = rref(Matrix.from_rows(rows))",
        "ker = linalg.kernel_basis(Matrix(n, m, tuple(e)))",
        "m = matmul(a, b, 3)",
    ]
    for text in bad:
        assert _matrix_outside_eliminations(ast.parse(text)), text
    for text in good:
        assert _matrix_outside_eliminations(ast.parse(text)) == [], text


def _exit_calls(tree):
    """The enclosing top-level definition (None at module level) of each
    call to os._exit, in either spelling."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "_exit")
                or (isinstance(node.func, ast.Name) and node.func.id == "_exit")
            ):
                found.append(getattr(top, "name", None))
    return found


def test_one_hard_exit_in_the_entry_function():
    # the process ends without the interpreter's teardown in one place:
    # cli.entry_point, after main has returned and the streams are
    # flushed; main itself returns, and both entry points run entry_point
    found = [
        (name, where) for name, tree in TREES.items() for where in _exit_calls(tree)
    ]
    assert found == [("cli.py", "entry_point")]
    guard = TREES["cli.py"].body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    entry_point()"
    pyproject = Path(silt.__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.exists():
        assert 'silt = "silt.cli:entry_point"' in pyproject.read_text()


def test_hard_exit_check_sees_each_form():
    text = "import os\nfrom os import _exit\nos._exit(0)\ndef main():\n    _exit(1)\n"
    assert _exit_calls(ast.parse(text)) == [None, "main"]


def _frozen_tables(tree):
    """(name, whether a module-level assignment binds it) for each name
    bound in tree that starts EXPECTED_ or STRICTLY_SHOD_PRESENTATIONS,
    the prefixes of the frozen tables of the paper's examples."""
    for stmt in tree.body:
        top = isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id.startswith(("EXPECTED_", "STRICTLY_SHOD_PRESENTATIONS")):
                    yield node.id, top


def test_each_frozen_table_is_assigned_once_in_cli():
    # paper-suite checks the six tables and the acceptance tests read its
    # rows: each is assigned once, at module level in silt.cli, and no
    # test module keeps a table of its own
    found = [
        (name, table, top)
        for name, tree in TREES.items()
        for table, top in _frozen_tables(tree)
    ]
    in_cli = {table for name, table, top in found if name == "cli.py" and top}
    assert len(in_cli) == len(found) == 6
    assert [
        (path.name, table)
        for path in TESTS
        for table, _ in _frozen_tables(ast.parse(path.read_text()))
    ] == []


def test_frozen_table_check_sees_each_form():
    text = (
        "EXPECTED_A = 1\nEXPECTED_B: int = 1\nx, EXPECTED_C = 1, 2\n"
        "from m import EXPECTED_D\nx = EXPECTED_A\nexpected_e = FROZEN = 1\n"
        "def f():\n    STRICTLY_SHOD_PRESENTATIONS_F = 1\n"
    )
    assert list(_frozen_tables(ast.parse(text))) == [
        ("EXPECTED_A", True),
        ("EXPECTED_B", True),
        ("EXPECTED_C", True),
        ("STRICTLY_SHOD_PRESENTATIONS_F", False),
    ]
