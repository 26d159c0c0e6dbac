import math
from dataclasses import replace

import numpy as np
import pytest

from privblock import approx

S = 12

# frozen regression constant: mean |table - exact| over linspace(-6, 6, 1e4),
# computed once with the double-precision erf reference
PINNED_GELU_MAE = 7.159790578073239e-04


def test_spot_values_match_published_tables():
    assert approx.GELU_TABLE(0.0) == 0.001193207
    assert approx.SIGMOID_TABLE(0.0) == 0.4998102695
    assert approx.TANH_TABLE(0.0) == -0.0018890324
    assert approx.MISH_TABLE(0.0) == 0.0000929623


def test_gelu_tails():
    assert approx.GELU_TABLE(10.0) == 10.0 + 1e-5
    assert approx.GELU_TABLE(-10.0) == 1e-5
    assert approx.GELU_TABLE(1.0) == pytest.approx(
        0.001193207 + 0.5 + 0.385858026 - 0.045101361, abs=0)


def test_boundary_finder_gelu():
    spec = approx.FitSpec(approx.gelu_exact, derivative_order=2)
    roots = approx.find_boundaries(spec)
    assert len(roots) == 2
    assert abs(roots[0] + math.sqrt(2)) < 1e-6
    assert abs(roots[1] - math.sqrt(2)) < 1e-6


def test_boundary_finder_sigmoid():
    spec = approx.FitSpec(approx.sigmoid_exact, derivative_order=3,
                          window=(0.05, 8.0))
    roots = approx.find_boundaries(spec)
    assert abs(roots[0] - math.log(2 + math.sqrt(3))) < 1e-6


def test_boundary_finder_mish_dichotomy():
    spec = approx.FitSpec(approx.mish_exact, derivative_order=2)
    roots = approx.find_boundaries(spec)
    assert abs(roots[0] + 2.2563763963607935) < 1e-6
    assert abs(roots[1] - 1.4905711794854284) < 1e-6


def test_no_root_found():
    spec = approx.FitSpec(lambda x: x * 0.5, derivative_order=2, window=(1, 2))
    with pytest.raises(approx.NoRootFound):
        approx.find_boundaries(spec)


def test_outer_cutoff_flatness():
    spec = approx.FitSpec(approx.gelu_exact)
    cut = approx.outer_cutoff(spec, start=math.sqrt(2))
    d2 = approx.DERIVATIVES[approx.gelu_exact][2]
    d3 = approx.DERIVATIVES[approx.gelu_exact][3]
    assert abs(d2(cut)) < 1e-5 and abs(d3(cut)) < 1e-5
    assert cut > math.sqrt(2)


def test_mae_pinned_regression_value():
    got = approx.mae(approx.GELU_TABLE, approx.gelu_exact, -6, 6, 10000)
    assert abs(got - PINNED_GELU_MAE) < 1e-9


def test_mae_of_exact_function_is_zero():
    assert approx.mae(approx.gelu_exact, approx.gelu_exact, -6, 6, 100) == 0.0


def test_mae_symmetric_branches():
    lo = approx.mae(approx.SIGMOID_TABLE, approx.sigmoid_exact, -6, 0, 5001)
    hi = approx.mae(approx.SIGMOID_TABLE, approx.sigmoid_exact, 0, 6, 5001)
    assert lo == pytest.approx(hi, rel=1e-12)


def test_continuity_audit_below_threshold():
    for name, table in approx.TABLES.items():
        jumps = table.continuity_jumps()
        assert max(jumps.values()) <= 1e-2, name


def test_symmetry_exact_as_implemented():
    """The mirrored tanh pieces are exact sign flips; the mirrored sigmoid
    pieces fold 1 - c_0 into one coefficient, which rounds differently."""
    for x in (0.1, 0.9, 1.5, 3.3, 7.0):
        sig = approx.SIGMOID_TABLE
        assert abs(sig(-x) - (1.0 - sig(x))) <= 2.0 ** -52
        assert approx.TANH_TABLE(-x) == -approx.TANH_TABLE(x)


def test_mirrored_unfolds_half_tables():
    t = approx.TANH_TABLE
    assert t.boundaries == [-4.60, -approx.TANH_X1, 0.0, approx.TANH_X1, 4.60]
    assert (t.left, t.right) == (("const", -1.0), ("const", 1.0))
    assert approx.SIGMOID_TABLE.left == ("const", 0.0)
    with pytest.raises(ValueError):
        approx.mirrored("bad", [0.0, 1.0], [[0.0]], ("linear", 0.0), odd=True)
    with pytest.raises(ValueError):
        approx.mirrored("bad", [0.5, 1.0], [[0.0]], ("const", 1.0), odd=True)


def test_fit_linear_target_exact():
    spec = approx.FitSpec(lambda x: 3.0 * x - 1.0, degree=1)
    pp = approx.fit_segments(spec, [0.0, 1.0], ("const", -1.0), ("const", 2.0))
    a0, a1 = pp.segments[0]
    assert a0 == pytest.approx(-1.0, abs=1e-9)
    assert a1 == pytest.approx(3.0, abs=1e-9)


def test_fit_ill_conditioned():
    spec = approx.FitSpec(approx.gelu_exact, degree=4, n_samples=2)
    with pytest.raises(approx.IllConditioned):
        approx.fit_segments(spec, [0.0, 1.0], None, ("const", 0.0))


def test_refit_gelu_within_2x_of_shipped():
    spec = approx.FitSpec(approx.gelu_exact, degree=4)
    refit = approx.fit_segments(spec, list(approx.GELU_TABLE.boundaries),
                                ("const", approx.GELU_EPS),
                                ("linear", approx.GELU_EPS))
    got = approx.mae(refit, approx.gelu_exact, -6, 6, 10000)
    assert got <= 2.0 * PINNED_GELU_MAE


def test_tanh_degree_comparison_rows():
    """Shipped degree-4 table vs a degree-5 least-squares refit at the
    conventional split points {0.5, 2, 3, 4}: both computed, and the refit
    with more segments and higher degree wins (measured, not assumed)."""
    shipped = approx.mae(approx.TANH_TABLE, approx.tanh_exact, 0, 6, 10000)
    spec = approx.FitSpec(approx.tanh_exact, degree=5, window=(0.0, 4.0))
    refit = approx.fit_segments(spec, [-4.0, -3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0,
                                       4.0], ("const", -1.0), ("const", 1.0))
    alt = approx.mae(refit, approx.tanh_exact, 0, 6, 10000)
    assert shipped < 1e-2 and alt < shipped  # direction verified numerically


def test_eval_on_grid_selects_on_quantized_boundaries():
    """The grid oracle is the table with its boundaries moved onto the grid,
    evaluated on the grid points, bit for bit."""
    xe = np.arange(-9 * 2 ** S, 9 * 2 ** S + 1)
    for table in approx.TABLES.values():
        on_grid = replace(table, boundaries=[q / 2 ** S for q in
                                             approx.quantized_boundaries(table, S)])
        assert np.array_equal(approx.eval_on_grid(table, xe, S),
                              on_grid(xe / 2 ** S)), table.name


def test_table_dump_load_roundtrip():
    xs = np.linspace(-9, 9, 123)
    xe = np.arange(-9 * 2 ** S, 9 * 2 ** S + 1, 37)
    for table in approx.TABLES.values():
        loaded = approx.load_table(approx.dump_table(table))
        assert loaded == table, table.name
        assert np.array_equal(loaded(xs), table(xs)), table.name
        assert np.array_equal(approx.eval_on_grid(loaded, xe, S),
                              approx.eval_on_grid(table, xe, S)), table.name


def test_piecewise_validation():
    with pytest.raises(ValueError):
        approx.PiecewisePoly("bad", [1.0, 0.5], [[0.0]], ("const", 0.0),
                             ("const", 0.0))
    with pytest.raises(ValueError):
        approx.PiecewisePoly("bad", [0.0, 1.0], [[0.0], [1.0]], ("const", 0.0),
                             ("const", 0.0))
    # every table is total: a missing left tail or an unknown tail kind raises
    with pytest.raises(ValueError, match="left tail"):
        approx.PiecewisePoly("bad", [0.0, 1.0], [[0.0]], None, ("const", 2.0))
    with pytest.raises(ValueError, match="right tail"):
        approx.PiecewisePoly("bad", [0.0, 1.0], [[0.0]], ("const", 0.0),
                             ("quadratic", 2.0))


def test_max_degree_invariants():
    assert approx.GELU_TABLE.max_degree == 4
    assert approx.SIGMOID_TABLE.max_degree == 4
    assert approx.TANH_TABLE.max_degree == 4
    assert approx.MISH_TABLE.max_degree == 7
