"""Record types: what they cost at import, and the semantics they keep.

Parse nodes are slotted subclasses of CoeffExpr; every other record is a
typing.NamedTuple. Both are immutable, and a node equals only a node of its
own type.
"""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dlw.balance import derive
from dlw.jetcalc import JetPoly
from dlw.residual import GridSpec, StencilConfig, aggregate_residuals
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import dlw.cli; "
        "print(sorted(sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    modules = ast.literal_eval(done.stdout)
    assert "dlw.cli" in modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules


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
    return {
        "ExportSpec": sc.outputs[0],
        "ConstParams": const.params,
        "Scenario": sc,
        "Kernel": sc.seed.kernels[0],
        "HeatPolynomial": sc.seed.poly,
        "SeedSpec": sc.seed,
        "ResidualReport": aggregate_residuals([(0.0, 0.0, 0.0)], [(1e-9, 2e-9)]),
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
