"""Record types and the import graph: what they cost at import, and the
semantics they keep.

Parse nodes are slotted subclasses of CoeffExpr; every other record is a
typing.NamedTuple. Both are immutable, and a node equals only a node of its
own type. `import dlw.cli` loads no layer but `errors`: the exact symbolic
layers (and `fractions`) load with `derive`, and the numeric layers with
the command that runs them. The two halves share only `branch`. `json`
loads only with a command that reads a document or writes JSON.
Every name has one home: it is imported from, and exported by, only the
module that defines it.
"""

import ast
import copy
import functools
import importlib
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import dlw
from dlw.balance import derive
from dlw.jetcalc import JetPoly
from dlw.residual import GridSpec, ResidualFold, StencilConfig, aggregate_residuals
from dlw.scenario import scenario_from_dict
from dlw.seedlab.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    Var,
    _tokenize,
    parse_coeff_expr,
)

SRC = Path(__file__).resolve().parents[1] / "src"
DOCUMENT = {
    "branch": "plus",
    "seed": {"kind": "mixed", "constant": 1.0,
             "kernels": [{"a": "1", "b": "0"}], "poly": {"c0": "1"}},
    "grid": {"x": [-1.0, 1.0, 3], "y": [0.0, 0.0, 1], "t": [0.0, 0.0, 1]},
    "outputs": [{"format": "csv", "path": "fields.csv"}],
}
CONST_DOCUMENT = {
    "branch": "minus",
    "solution_path": "exact-const",
    "params": {"a": 1.0, "c": 0.5, "d": 0.0},
    "grid": DOCUMENT["grid"],
}


def _isolated(code: str) -> str:
    """Standard output of `code` in a fresh interpreter that imports dlw
    from this checkout only."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + code
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    return done.stdout


# the standard modules only the exact arithmetic of `derive` needs
EXACT_ARITHMETIC = ["decimal", "fractions"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    modules = ast.literal_eval(_isolated("import dlw.cli; print(sorted(sys.modules))"))
    assert "dlw.cli" in modules
    unwanted = ["dataclasses", "inspect", "json", "dlw.balance", "dlw.jetcalc",
                *EXACT_ARITHMETIC]
    assert [name for name in unwanted if name in modules] == []


CLI = ["dlw", "dlw.cli", "dlw.errors"]
NUMERIC = ["dlw.residual", "dlw.scenario", "dlw.seedlab", "dlw.seedlab.exprlang",
           "dlw.seedlab.seeds", "dlw.transform"]
SYMBOLIC = ["dlw.balance", "dlw.jetcalc"]


def _stages(*commands: list[str]) -> list[list[str]]:
    """The dlw modules, the exact-arithmetic modules and `json` loaded in a
    fresh interpreter after `import dlw.cli`, then after each command in
    turn, run through main, which must return 0."""
    code = f"""
import contextlib, io
def loaded():
    return sorted(key for key in sys.modules
                  if key.split(".")[0] == "dlw" or key in {[*EXACT_ARITHMETIC, "json"]!r})
import dlw.cli
stages = [loaded()]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {list(commands)!r}:
        assert dlw.cli.main(argv) == 0
        stages.append(loaded())
print(stages)
"""
    return ast.literal_eval(_isolated(code))


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    report = tmp_path / "derive.json"
    imported, reduced, derived, reported = _stages(
        ["reduce", "1", "0"], ["derive"], ["derive", "--output", str(report)]
    )
    assert imported == CLI
    assert reduced == sorted(CLI + ["dlw.branch"] + NUMERIC)
    added = sorted(set(derived) - set(reduced))
    assert [name for name in added if name.startswith("dlw")] == SYMBOLIC
    assert "fractions" in added
    # only a command that reads a document or writes JSON loads the codec
    assert "json" not in derived
    assert sorted(set(reported) - set(derived)) == ["json"]
    assert report.is_file()
    document = tmp_path / "doc.json"
    document.write_text(json.dumps(CONST_DOCUMENT))
    assert "json" in _stages(["run", str(document)])[1]


# every module of the package, by dotted name -> its file
MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in SRC.joinpath("dlw").rglob("*.py")
}
TESTS = sorted(Path(__file__).parent.glob("*.py"))
README = SRC.parent / "README.md"


class Imports(NamedTuple):
    internal: set[str]  # the dlw modules imported anywhere in the source
    from_math: set[str]  # the names taken from `math`, `*` for the whole module
    taken: list[tuple[int, str, str]]  # (line, dlw module, name) of each from-import
    defined: set[str]  # the names bound at top level by def, class or assignment


@functools.cache
def _imports(path: Path, text: str | None = None) -> Imports:
    """What the Python file at `path` imports and defines; `text`, when
    given, is read as that file's source."""
    tree = ast.parse(path.read_text() if text is None else text)
    # relative imports start from the package that holds the file
    package = ".".join(path.relative_to(SRC).parent.parts) if SRC in path.parents else ""
    found = Imports(set(), set(), [], set())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dlw":
                    found.internal.add(alias.name)
                if alias.name == "math":
                    found.from_math.add("*")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            if module.split(".")[0] == "dlw":
                found.taken.extend((node.lineno, module, alias.name) for alias in node.names)
                if node.module:
                    found.internal.add(module)
                else:  # from . import balance
                    found.internal.update(f"{base}.{alias.name}" for alias in node.names)
            elif module == "math":
                found.from_math.update(alias.name for alias in node.names)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found.defined.update(
                name.id for name in ast.walk(node)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            )
    return found


def test_the_fd_oracle_imports_no_other_dlw_module():
    assert _imports(MODULES["dlw.residual"]).internal == set()


def test_the_symbolic_layers_import_no_numeric_layer_and_no_float_math():
    assert _imports(MODULES["dlw.jetcalc"])[:2] == ({"dlw.branch"}, {"factorial"})
    internal, from_math = _imports(MODULES["dlw.balance"])[:2]
    assert internal == {"dlw.branch", "dlw.jetcalc"}
    assert from_math <= {"factorial"}
    # and conversely: no numeric layer imports a symbolic one
    strays = {module: _imports(MODULES[module]).internal & set(SYMBOLIC) for module in NUMERIC}
    assert strays == dict.fromkeys(NUMERIC, set())


def test_every_import_names_the_module_that_defines_the_name():
    # a name a module only imports is not its to give: take it from its home
    strays = [
        f"{path.relative_to(SRC.parent)}:{line}: {name} from {module}"
        for path in [*MODULES.values(), *TESTS]
        for line, module, name in _imports(path).taken
        if f"{module}.{name}" not in MODULES  # a submodule: from . import balance
        and name not in _imports(MODULES[module]).defined
    ]
    assert not strays, "\n".join(strays)


def test_every_export_list_names_only_what_its_module_defines():
    strays = [
        f"{module}.__all__: {name}"
        for module, path in MODULES.items()
        if module != "dlw"
        for name in getattr(importlib.import_module(module), "__all__", ())
        if name not in _imports(path).defined
    ]
    assert not strays, "\n".join(strays)
    # the package exports each name from the module that defines it
    assert dlw.__all__ == [*dlw._SOURCES, "__version__"]
    assert [
        name for name, source in dlw._SOURCES.items()
        if name not in _imports(MODULES[f"dlw.{source}"]).defined
    ] == []


def test_the_readme_example_imports_exactly_the_package_exports():
    example = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)[0]
    taken = _imports(README, example).taken
    imported = [name for _, module, name in taken if module == "dlw"]
    assert sorted(imported) == sorted(set(dlw.__all__) - {"__version__"})


def test_the_package_resolves_its_exports_on_first_access():
    for name in dlw.__all__:
        value = getattr(dlw, name)
        if name != "__version__":
            assert name not in vars(dlw)  # read through, never cached
            assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError, match="no attribute 'evaluate_scenario'"):
        dlw.evaluate_scenario


NODES = (
    Num(1.0),
    Var(),
    Neg(Var()),
    BinOp("+", Num(1.0), Var()),
    Pow(Var(), 2),
    Call("exp", Var()),
)


def test_nodes_compare_by_type_then_fields():
    assert Num(1.0) != Neg(1.0)
    assert Neg(1.0) != Num(1.0)
    assert Num(1.0) != (1.0,)
    assert Var() != ()
    assert Num(1.0) == Num(1.0)
    assert Num(1.0) != Num(2.0)
    text = "1 + 0.5*tanh(y)^2 - exp(-y)/3"
    first, second = parse_coeff_expr(text), parse_coeff_expr(text)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second, *NODES, *copy.deepcopy(NODES)}) == 1 + len(NODES)


def test_node_repr_names_every_field():
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(Var()) == "Var()"
    assert repr(BinOp("+", Num(1.0), Pow(Var(), -2))) == (
        "BinOp(op='+', left=Num(value=1.0), right=Pow(base=Var(), exponent=-2))"
    )


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_node_refuses_assignment_and_round_trips(node):
    for name in node.__slots__ or ("value",):
        with pytest.raises(AttributeError):
            setattr(node, name, Num(0.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert copy.copy(node) == node
    assert pickle.loads(pickle.dumps(node)) == node


def test_node_takes_exactly_its_fields():
    with pytest.raises(TypeError, match=r"^BinOp takes 3 fields, got 2$"):
        BinOp("+", Var())
    with pytest.raises(TypeError, match=r"^Var takes 0 fields, got 1$"):
        Var(1.0)


def _records():
    sc = scenario_from_dict(DOCUMENT)
    const = scenario_from_dict(CONST_DOCUMENT)
    report = derive()
    fold = ResidualFold()
    fold.add((0.0, 0.0, 0.0), 1e-9, 2e-9)
    return {
        "ExportSpec": sc.outputs[0],
        "ConstParams": const.params,
        "Scenario": sc,
        "Kernel": sc.seed.kernels[0],
        "HeatPolynomial": sc.seed.poly,
        "SeedSpec": sc.seed,
        "ResidualReport": aggregate_residuals(fold),
        "DerivationCheck": report.checks[0],
        "BalanceReport": report,
        "Monomial": JetPoly.jet(1, 0, 0).monomials()[0],
        "_Token": _tokenize("y")[0],
        "GridSpec": sc.grid,
        "StencilConfig": sc.stencil,
    }


def test_every_record_refuses_assignment():
    records = _records()
    assert len(records) == 13
    for name, record in records.items():
        assert type(record).__name__ == name
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no record carries a __dict__


def test_checked_records_check_again_on_replace():
    grid = GridSpec((0.0, 1.0, 2), (0.0, 0.0, 1), (0.0, 0.0, 1))
    with pytest.raises(ValueError, match=r"^x range must be ordered$"):
        grid._replace(x=(1.0, 0.0, 2))
    with pytest.raises(ValueError, match=r"^t count must be >= 1$"):
        GridSpec._make(((0.0, 1.0, 2), (0.0, 0.0, 1), (0.0, 0.0, 0)))
    with pytest.raises(ValueError, match=r"^step must be positive$"):
        StencilConfig()._replace(step=0.0)
    assert grid._replace(t=(0.0, 1.0, 3)).size == 6
    assert StencilConfig() == StencilConfig._make([5e-3]) == (5e-3,)
    assert pickle.loads(pickle.dumps(grid)) == grid
