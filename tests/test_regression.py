import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import (
    DegenerateRegressorError,
    InsufficientDataError,
    MalformedRecordError,
    RegressionInput,
    ols_univariate,
    render_table,
    significance_stars,
    two_sided_p_value,
)
from earstudy.output import write_csv
from earstudy.regression import table_rows

from oracles import ols_normal_equations, t_two_sided_p_quadrature, t_two_sided_p_scipy

FIELDS = (
    "alpha", "beta", "se_alpha", "se_beta", "t_alpha", "t_beta",
    "p_alpha", "p_beta", "r2", "adj_r2", "resid_se", "f_stat",
)


def fit(x, y):
    labels = tuple(f"c{i}" for i in range(len(x)))
    return ols_univariate(RegressionInput(y=np.asarray(y, float), x=np.asarray(x, float),
                                          labels=labels))


def test_exact_linear_fit():
    result = fit([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert result.alpha == pytest.approx(0.0, abs=1e-14)
    assert result.beta == pytest.approx(2.0, abs=1e-14)
    assert result.r2 == 1.0
    assert result.resid_se == 0.0
    assert math.isinf(result.f_stat)
    assert result.p_beta == 0.0


def test_three_point_hand_case():
    result = fit([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert result.beta == pytest.approx(1.5, abs=1e-12)
    assert result.alpha == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert result.r2 == pytest.approx(27.0 / 28.0, abs=1e-12)
    assert result.resid_se == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)
    assert result.se_beta == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-12)
    assert result.f_stat == pytest.approx(27.0, abs=1e-9)
    assert result.t_beta == pytest.approx(math.sqrt(27.0), abs=1e-12)
    assert result.n == 3


def close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol + tol * max(abs(a), abs(b))


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        x = rng.normal(0.0, rng.uniform(0.5, 3.0), size=n)
        y = rng.uniform(-2, 2) + rng.uniform(-3, 3) * x + rng.normal(0, rng.uniform(0.1, 2.0), size=n)
        result = fit(x, y)
        expected = ols_normal_equations(x, y)
        for field in FIELDS:
            assert close(getattr(result, field), expected[field], 1e-10), field
        assert result.n == expected["n"]


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_f_equals_t_squared(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    result = fit(x, y)
    if math.isfinite(result.f_stat):
        assert result.f_stat == pytest.approx(result.t_beta**2, abs=1e-9, rel=1e-9)


@given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_scale_equivariance(scale, seed):
    rng = np.random.default_rng(seed)
    n = 20
    x = rng.normal(size=n)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.3, size=n)
    base = fit(x, y)
    scaled = fit(x, scale * y)
    for field in ("alpha", "beta", "se_alpha", "se_beta", "resid_se"):
        assert getattr(scaled, field) == pytest.approx(scale * getattr(base, field), rel=1e-9)
    for field in ("t_alpha", "t_beta", "p_alpha", "p_beta", "r2", "adj_r2", "f_stat"):
        assert getattr(scaled, field) == pytest.approx(getattr(base, field), rel=1e-9, abs=1e-12)


def test_shift_invariance_of_slope():
    rng = np.random.default_rng(77)
    x = rng.normal(size=25)
    y = 2.0 - 0.7 * x + rng.normal(0, 0.2, size=25)
    base = fit(x, y)
    shifted = fit(x + 10.0, y)
    assert shifted.beta == pytest.approx(base.beta, rel=1e-10)
    assert shifted.se_beta == pytest.approx(base.se_beta, rel=1e-10)
    assert shifted.alpha == pytest.approx(base.alpha - 10.0 * base.beta, rel=1e-9)


def test_constant_regressor_rejected():
    with pytest.raises(DegenerateRegressorError):
        fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_too_few_observations_rejected():
    with pytest.raises(InsufficientDataError):
        fit([1.0, 2.0], [1.0, 2.0])


def test_nan_rejected():
    with pytest.raises(MalformedRecordError):
        fit([1.0, 2.0, float("nan")], [1.0, 2.0, 3.0])


# --- t distribution --------------------------------------------------------


def test_p_value_at_zero_is_one():
    for df in (1, 10, 42):
        assert two_sided_p_value(0.0, df) == pytest.approx(1.0, abs=1e-14)


def test_p_value_cauchy_quartile():
    assert two_sided_p_value(1.0, 1) == pytest.approx(0.5, abs=1e-12)


def test_p_value_symmetry():
    for t in (0.3, 1.7, 4.0):
        assert two_sided_p_value(t, 7) == pytest.approx(two_sided_p_value(-t, 7), abs=1e-15)


def test_p_value_df42_critical_point():
    # t ~ 2.018 is the 5% two-sided critical value at 42 dof
    assert two_sided_p_value(2.018, 42) == pytest.approx(0.05, abs=1e-3)


def test_p_value_matches_quadrature_oracle():
    for df in (1, 10, 42, 100):
        for t in (0.1, 0.5, 1.0, 2.018, 3.3, 6.0, 10.0):
            assert two_sided_p_value(t, df) == pytest.approx(
                t_two_sided_p_quadrature(t, df), abs=1e-10
            )


def test_p_value_infinite_t():
    assert two_sided_p_value(float("inf"), 10) == 0.0


def test_p_value_matches_scipy_oracle():
    """df 1-199, 500 and 1000, t on a linear and a log grid: 1e-11 relative.

    The log grid starts at 1e-4 because below that scipy itself loses
    digits: it forms 1 - x for x = df / (df + t^2), 3e-9 relative off at
    t = 1e-8 and df = 1.  test_p_value_closed_forms covers small t.
    """
    t_grid = np.concatenate([np.linspace(0.0, 40.0, 81), np.logspace(-4.0, 3.0, 71)])
    for df in [*range(1, 200), 500, 1000]:
        expected = t_two_sided_p_scipy(t_grid, df)
        for t, want in zip(t_grid.tolist(), expected.tolist()):
            got = two_sided_p_value(t, df)
            if want < 1e-300:  # beyond the normal range of a double
                assert got < 1e-290, (df, t)
                continue
            assert abs(got - want) <= 1e-11 * want, (df, t, got, want)


@pytest.mark.parametrize("t", [1e-12, 1e-8, 0.3, 2.5, 1e4, 1e16, 1e40, 1e200])
def test_p_value_closed_forms(t):
    """df 1 and 2 have closed forms free of cancellation, tiny p included."""
    cauchy = 2.0 / math.pi * math.atan(1.0 / t)
    root = math.hypot(t, math.sqrt(2.0))
    df2 = 2.0 / (root * (root + t))
    for df, want in ((1, cauchy), (2, df2)):
        got = two_sided_p_value(t, df)
        assert abs(got - want) <= 1e-12 * want, (df, got, want)
        assert two_sided_p_value(-t, df) == got


def test_p_value_near_one_keeps_its_digits():
    """Small t at large df: 1 - x is never formed by subtraction.

    The expected value is I_x(98.5, 1/2) at x = 197 / (197 + t^2), from
    50-digit arithmetic; forming 1 - x in doubles puts 1.2e-12 of error here.
    """
    got = two_sided_p_value(0.0035336755463137902, 197)
    assert got == pytest.approx(0.99718411644549923485, rel=1e-14, abs=0.0)


def test_p_value_tiny_keeps_relative_accuracy():
    for df, t in ((1, 1e40), (2, 1e16), (10, 1e4), (42, 100.0)):
        got = two_sided_p_value(t, df)
        want = float(t_two_sided_p_scipy(t, df))
        assert got < 1e-30
        assert abs(got - want) <= 1e-11 * want, (df, t, got, want)


def test_p_value_edges():
    for df in (1, 2, 43, 1000):
        assert two_sided_p_value(0.0, df) == 1.0
        assert two_sided_p_value(-0.0, df) == 1.0
        assert two_sided_p_value(math.inf, df) == 0.0
        assert two_sided_p_value(-math.inf, df) == 0.0
        assert math.isnan(two_sided_p_value(math.nan, df))
    for df in (0, -1):
        with pytest.raises(InsufficientDataError):
            two_sided_p_value(1.0, df)


def test_null_effect_rarely_earns_three_stars():
    """Size of the t-test: a zero-effect covariate grid should stay free of
    the 1% stars in at least 95% of seeds."""
    rng = np.random.default_rng(404)
    clean = 0
    trials = 1000
    for _ in range(trials):
        starred = False
        for _ in range(4):  # one table's worth of unrelated covariates
            x = rng.normal(size=44)
            y = rng.normal(0.0, 0.004, size=44)
            if fit(x, y).p_beta < 0.01:
                starred = True
        if not starred:
            clean += 1
    assert clean / trials >= 0.95


# --- rendering --------------------------------------------------------------


def test_stars_bands():
    assert significance_stars(0.004) == "***"
    assert significance_stars(0.0099) == "***"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.03) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.2) == ""


def sample_results():
    rng = np.random.default_rng(5)
    x = rng.normal(size=44)
    results = [
        fit(x, 0.001 + 0.005 * x + rng.normal(0, 0.004, size=44)),
        fit(rng.normal(size=44), rng.normal(0, 0.004, size=44)),
    ]
    return results, ["delta_log_attention", "delta_log_n_questions"]


def test_render_table_layout():
    results, labels = sample_results()
    text = render_table(results, "return_during", labels)
    assert "return_during" in text
    assert "(1)" in text and "(2)" in text
    assert "const" in text
    for label in labels:
        assert label in text
    assert "Observations" in text
    assert "R2" in text and "Adjusted R2" in text
    assert "Residual Std. Error" in text
    assert "F Statistic" in text
    assert "*p<0.1; **p<0.05; ***p<0.01" in text
    # coefficient printed to 3 decimals with the star suffix
    assert f"{results[0].beta:.3f}{significance_stars(results[0].p_beta)}" in text
    assert f"({results[0].se_beta:.3f})" in text


def test_table_rows_and_writers(tmp_path):
    results, labels = sample_results()
    rows = table_rows(results, "return_during", labels)
    assert [r["model"] for r in rows] == [1, 2]
    assert rows[0]["covariate"] == "delta_log_attention"
    assert rows[0]["beta"] == results[0].beta  # full precision

    csv_path = tmp_path / "t.csv"
    write_csv(csv_path, list(rows[0]), [tuple(row.values()) for row in rows], "00")
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "dependent"
    assert len(lines) == 4
