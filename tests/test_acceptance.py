"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with `pytest -s` to see
them); a failing assertion is the corresponding FAIL.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from dlw.balance import (
    check_ode_system,
    solve_balance_exponents,
    verify_factorization,
)
from dlw.cli import main
from dlw.jetcalc import Branch, JetPoly, reduce_heat, specialize_log
from dlw.residual import (
    GridSpec,
    StencilConfig,
    convergence_order,
    fd_residual_1d,
    fd_residual_dlw,
)
from dlw.scenario import CSV_HEADER, evaluate_grid
from dlw.seedlab import Kernel, SeedField, SeedSpec, eval_dual, parse_coeff_expr
from dlw.transform import (
    FieldPair,
    exact_uh,
    exact_uh_const,
    reduce_1plus1,
    transform_point,
)

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)
GRID = GridSpec(-3, 3, 21, -3, 3, 21, 0, 1, 5)
CFG = StencilConfig(5e-3)


def exact_at(a_expr, b_expr, branch, point):
    """exact_uh with its coefficient duals evaluated at the point's y."""
    y = point[1]
    return exact_uh(eval_dual(a_expr, y), eval_dual(b_expr, y), branch, point)


def no_phi(x, y, t):
    """A phi column for samplers whose seed the test does not need."""
    return 0.0


def _pass(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def _kernel_sampler(branch, kernels):
    field = SeedField(SeedSpec(branch=branch, constant_term=1.0, kernels=kernels))
    return lambda x, y, t: transform_point(field, (x, y, t))


def test_criterion_01_balance_exponents():
    start = time.perf_counter()
    exponents = solve_balance_exponents()
    elapsed = time.perf_counter() - start
    assert tuple(exponents) == (1, 0, 0, 1, 1, 0)
    hits = [
        combo
        for combo in itertools.product(range(5), repeat=6)
        if (
            2 * combo[0] + 1 == combo[3] + 2
            and 2 * combo[1] + 1 == combo[4]
            and 2 * combo[2] == combo[5]
            and combo[3] == 1
            and combo[4] == 1
            and combo[5] == 0
        )
    ]
    assert hits == [(1, 0, 0, 1, 1, 0)]
    assert elapsed < 0.1
    _pass(1, f"balance exponents (1,0,0,1,1,0), unique over [0,4]^6, {elapsed:.3f}s")


def test_criterion_02_ode_system():
    for branch in BRANCHES:
        check = check_ode_system(branch)
        assert len(check.ode_residuals) == 2
        assert len(check.identity_residuals) == 2
        assert all(p.is_zero for p in check.ode_residuals)
        assert all(p.is_zero for p in check.identity_residuals)
    _pass(2, "ODE system and log identities reduce to zero, both branches")


def test_criterion_03_central_theorem():
    start = time.perf_counter()
    for branch in BRANCHES:
        check = verify_factorization(branch)
        assert check.e1_residual.is_zero
        assert check.e2_residual.is_zero
        delta1, delta2 = check.factorization_deltas
        assert delta1.is_zero and delta2.is_zero
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(
        3,
        "residuals reduce to zero under the heat constraint and factorization "
        f"deltas vanish identically, both branches, {elapsed:.2f}s",
    )


def test_criterion_04_constant_is_forced():
    jet, sym = JetPoly.jet, JetPoly.symbol
    for branch in BRANCHES:
        check = verify_factorization(branch, Fraction(0))
        expected = reduce_heat(
            specialize_log(
                sym("F", 2) * jet(1, 0, 0) ** 2 + sym("F", 1) * jet(2, 0, 0), branch
            ),
            branch,
        )
        assert not expected.is_zero
        assert check.e2_residual == expected  # the (A+1)-proportional remainder
        assert check.e1_residual.is_zero
    _pass(4, "A = 0 leaves the (A+1)*(f''*phi_x^2 + f'*phi_xx) remainder")


def test_criterion_05_closed_form_equivalence():
    rng = random.Random(2026)
    worst = 0.0
    for branch in BRANCHES:
        field = SeedField(
            SeedSpec(
                branch=branch,
                constant_term=1.0,
                kernels=(Kernel(1.0, P("1 + 0.5*tanh(y)"), P("0.2*y")),),
            )
        )
        params = (P("1 + 0.5*tanh(y)"), P("0.2*y"), branch)
        for _ in range(1000):
            point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
            u_t, h_t = transform_point(field, point)
            u_e, h_e = exact_at(*params, point)
            worst = max(worst, abs(u_t - u_e), abs(h_t - h_e))
    assert worst <= 1e-10
    _pass(5, f"transform equals closed form at 1000 points x 2 branches ({worst:.2e})")


def test_criterion_06_constant_coefficient_specialization():
    rng = random.Random(7)
    a, c, d = 1.3, 0.7, 0.2
    params = (P("1.3"), P("0.7*y + 0.2"), Branch.PLUS)
    worst = 0.0
    for _ in range(100):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        general = exact_at(*params, point)
        special = exact_uh_const(a, c, d, Branch.PLUS, point)
        worst = max(worst, abs(general.u - special.u), abs(general.h - special.h))
    assert worst <= 1e-14
    origin = exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, (0.0, 0.0, 0.0))
    assert origin == (1.0, -0.5)
    down = exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, (-40.0, 0.0, 0.0))
    up = exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, (40.0, 0.0, 0.0))
    assert abs(down.u) <= 1e-12 and abs(down.h + 1.0) <= 1e-12
    assert abs(up.u - 2.0) <= 1e-12 and abs(up.h + 1.0) <= 1e-12
    _pass(6, f"constant-coefficient specialization ({worst:.2e}); origin and limits")


def test_criterion_07_independent_numerical_certificate():
    single = _kernel_sampler(Branch.PLUS, (Kernel(1.0, P("1"), P("1*y")),))
    double = _kernel_sampler(
        Branch.PLUS,
        (Kernel(1.0, P("1"), P("0.3*y")), Kernel(1.0, P("1.6"), P("-0.4*y"))),
    )
    report_single, _ = evaluate_grid(GRID, CFG, fd_residual_dlw, single, no_phi)
    report_double, _ = evaluate_grid(GRID, CFG, fd_residual_dlw, double, no_phi)
    assert report_single.skipped == 0 and report_double.skipped == 0
    assert max(report_single.max_abs) <= 1e-5
    assert max(report_double.max_abs) <= 1e-5

    rng = random.Random(55)
    ratios = []
    for _ in range(10):
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1))
        result = convergence_order(single, point, (0.1, 0.05))
        for coarse, fine in zip(result.coarse, result.fine):
            if abs(coarse) > 1e-9:
                ratios.append(abs(coarse) / abs(fine))
    assert ratios, "ratio must be measurable somewhere"
    assert all(3.0 <= ratio <= 5.0 for ratio in ratios)

    def corrupted(x, y, t):
        u, h = single(x, y, t)
        return FieldPair(u, h + 0.01 * x * x)

    r1, _ = fd_residual_dlw(corrupted, (0.5, 0.5, 0.5), CFG)
    assert abs(r1) >= 1e-3
    _pass(
        7,
        f"grid residuals single {max(report_single.max_abs):.2e} / two-kernel "
        f"{max(report_double.max_abs):.2e} <= 1e-5; step ratios in [3,5]; "
        "corrupted control >= 1e-3",
    )


def test_criterion_08_reduction():
    a, d = 1.1, 0.4
    rng = random.Random(88)
    for _ in range(100):
        z, t = rng.uniform(-4, 4), rng.uniform(0, 1)
        shift = rng.uniform(-2, 2)
        first = exact_uh_const(a, a, d, Branch.PLUS, (z, 0.0, t))
        second = exact_uh_const(a, a, d, Branch.PLUS, (z - shift, shift, t))
        assert abs(first.u - second.u) <= 1e-14 * (1.0 + abs(first.u))
        assert abs(first.h - second.h) <= 1e-14 * (1.0 + abs(first.h))

    def sampler(z, t):
        return reduce_1plus1(a, d, Branch.PLUS, z, t)

    worst = 0.0
    for t in (0.0, 0.5, 1.0):
        for i in range(41):
            z = -5.0 + 10.0 * i / 40.0
            r1, r2 = fd_residual_1d(sampler, z, t, CFG)
            worst = max(worst, abs(r1), abs(r2))
    assert worst <= 1e-5
    _pass(8, f"fields constant along x+y; reduced system residual {worst:.2e} <= 1e-5")


def test_criterion_09_invariances():
    vacuum = SeedField(SeedSpec(branch=Branch.PLUS, constant_term=2.0))

    def vacuum_sampler(x, y, t):
        return transform_point(vacuum, (x, y, t))

    assert transform_point(vacuum, (0.7, -1.1, 0.3)) == (0.0, -1.0)
    assert fd_residual_dlw(vacuum_sampler, (0.7, -1.1, 0.3), CFG) == (0.0, 0.0)

    lam = 3.7
    base = SeedField(
        SeedSpec(Branch.PLUS, 1.0, (Kernel(1.0, P("1 + 0.5*tanh(y)"), P("0.2*y")),))
    )
    scaled = SeedField(
        SeedSpec(Branch.PLUS, lam, (Kernel(lam, P("1 + 0.5*tanh(y)"), P("0.2*y")),))
    )
    rng = random.Random(99)
    worst = 0.0
    for _ in range(200):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        u0, h0 = transform_point(base, point)
        u1, h1 = transform_point(scaled, point)
        worst = max(worst, abs(u1 - u0), abs(h1 - h0))
    assert worst <= 1e-12
    _pass(9, f"vacuum exact; scaling by 3.7 moves outputs by {worst:.2e} <= 1e-12")


def test_criterion_10_tooling(tmp_path, capsys):
    assert main(["derive"]) == 0
    first = capsys.readouterr().out
    assert main(["derive"]) == 0
    second = capsys.readouterr().out
    assert first == second

    csv_path = tmp_path / "paper.csv"
    config = {
        "branch": "plus",
        "solution_path": "transform",
        "seed": {
            "kind": "kernels",
            "constant": 1.0,
            "kernels": [{"amplitude": 1.0, "a": "1", "b": "1*y"}],
        },
        "grid": {"x": [-3.0, 3.0, 21], "y": [-3.0, 3.0, 21], "t": [0.0, 1.0, 5]},
        "stencil": {"step": 5e-3},
        "thresholds": {"max_residual": 1e-5},
        "outputs": [{"format": "csv", "path": str(csv_path)}],
    }
    config_path = tmp_path / "paper.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 21 * 21 * 5 + 1
    for line in lines[1:]:
        assert len(line.split(",")) == 8
    _pass(10, "derive byte-identical and exit 0; run emits the exact CSV surface")
