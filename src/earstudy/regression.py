"""Univariate OLS with full inference statistics and table rendering.

Closed-form slope/intercept estimates with classical (homoskedastic)
standard errors, two-sided Student-t p-values, a text table renderer
using the conventional significance stars, and the machine-readable rows
that the pipeline writes as CSV and JSON.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRegressorError, InsufficientDataError, MalformedRecordError


@dataclass(frozen=True)
class RegressionInput:
    """Aligned dependent and regressor vectors."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if y.ndim != 1 or x.ndim != 1 or len(y) != len(x):
            raise MalformedRecordError("y and x must be 1-d and equally long")
        if len(y) < 3:
            raise InsufficientDataError(f"need at least 3 observations, got {len(y)}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise MalformedRecordError("regression inputs must be finite")
        if np.all(x == x[0]):
            raise DegenerateRegressorError("regressor is constant; slope unidentified")
        if np.all(y == y[0]):
            raise DegenerateRegressorError("dependent is constant; its slope and t are 0/0")


@dataclass(frozen=True)
class RegressionResult:
    alpha: float
    beta: float
    se_alpha: float
    se_beta: float
    t_alpha: float
    t_beta: float
    p_alpha: float
    p_beta: float
    r2: float
    adj_r2: float
    resid_se: float
    f_stat: float
    n: int


def two_sided_p_value(t_stat: float, df: int) -> float:
    """Two-sided Student-t p-value, 2*P(T_df > |t|).

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), evaluated in pure Python by _incomplete_beta.  Its
    relative error is below 1e-11 for df up to 1000, tiny p-values included.
    """
    if df < 1:
        raise InsufficientDataError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t_stat):
        return float("nan")
    if math.isinf(t_stat):
        return 0.0
    s = abs(t_stat) / math.sqrt(df)
    if s == 0.0:
        return 1.0
    # log x = -log(1 + s^2) and log(1 - x) = log(s^2) - log(1 + s^2), with
    # neither the cancellation of 1 - x nor the overflow of t^2.
    log_s2 = 2.0 * math.log(s)
    log_1_s2 = log_s2 + math.log1p(1.0 / (s * s)) if s > 1.0 else math.log1p(s * s)
    return _incomplete_beta(df / 2.0, 0.5, -log_1_s2, log_s2 - log_1_s2)


_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-15


def _incomplete_beta(a: float, b: float, log_x: float, log_y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given log x and log y = log(1 - x).

    The continued fraction of Abramowitz & Stegun 26.5.8, evaluated by the
    modified Lentz method (Numerical Recipes, section 6.4).  It converges
    quickly for x < (a + 1) / (a + b + 2); above that I_x(a, b) is taken as
    1 - I_y(b, a).
    """
    x = math.exp(log_x)
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, log_x, log_y = b, a, math.exp(log_y), log_y, log_x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * log_x + b * log_y
    ) / a
    # f = 1 + d_1/(1 + d_2/(1 + ...)), and I_x(a, b) = front / f.  For the
    # t distribution it converges within 100 terms for df up to 1e7.
    c, d, f = 1.0, 0.0, 1.0
    for j in range(1, 10_000):
        m = j // 2
        if j % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
        c = 1.0 + term / c
        c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
        f *= c * d
        if abs(c * d - 1.0) < _LENTZ_EPS:
            break
    result = front / f
    return 1.0 - result if swap else result


def ols_univariate(data: RegressionInput) -> RegressionResult:
    """Fit y = alpha + beta * x by least squares with classical inference."""
    x, y = data.x, data.y
    n = len(y)
    x_mean = x.mean()
    y_mean = y.mean()
    dx = x - x_mean
    dy = y - y_mean
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    sst = float(dy @ dy)

    beta = sxy / sxx
    alpha = y_mean - beta * x_mean
    resid = y - alpha - beta * x
    ssr = float(resid @ resid)

    df = n - 2
    resid_se = math.sqrt(ssr / df)
    se_beta = resid_se / math.sqrt(sxx)
    se_alpha = resid_se * math.sqrt(1.0 / n + x_mean**2 / sxx)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_alpha = alpha / se_alpha if se_alpha > 0 else math.copysign(math.inf, alpha or 1.0)
        t_beta = beta / se_beta if se_beta > 0 else math.copysign(math.inf, beta or 1.0)
        r2 = 1.0 - ssr / sst if sst > 0 else 1.0
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df
        f_stat = (sst - ssr) / (ssr / df) if ssr > 0 else math.inf

    return RegressionResult(
        alpha=alpha,
        beta=beta,
        se_alpha=se_alpha,
        se_beta=se_beta,
        t_alpha=t_alpha,
        t_beta=t_beta,
        p_alpha=two_sided_p_value(t_alpha, df),
        p_beta=two_sided_p_value(t_beta, df),
        r2=r2,
        adj_r2=adj_r2,
        resid_se=resid_se,
        f_stat=f_stat,
        n=n,
    )


def significance_stars(p: float) -> str:
    """'***' below 1%, '**' below 5%, '*' below 10%, else empty."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _fmt(value: float, places: int = 3) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{places}f}"


def render_table(
    results: Sequence[RegressionResult],
    dependent_label: str,
    covariate_labels: Sequence[str],
) -> str:
    """Aligned text table: one model column per univariate specification.

    Each model shows its intercept and its single covariate as coefficient
    rows with the standard error parenthesized beneath, followed by the
    observation count, fit statistics, and the star legend.
    """
    if not results or len(results) != len(covariate_labels):
        raise MalformedRecordError("need one covariate label per result")

    n_models = len(results)
    label_width = max(
        [len("Residual Std. Error"), len("const")] + [len(lbl) for lbl in covariate_labels]
    )
    col_width = 13

    def line(label: str, cells: Sequence[str]) -> str:
        return label.ljust(label_width) + "".join(c.rjust(col_width) for c in cells) + "\n"

    total_width = label_width + col_width * n_models
    out = "=" * total_width + "\n"
    out += dependent_label.center(total_width) + "\n"
    out += "-" * total_width + "\n"
    out += line("", [f"({i + 1})" for i in range(n_models)])

    const_coefs = [
        _fmt(r.alpha) + significance_stars(r.p_alpha) for r in results
    ]
    const_ses = [f"({_fmt(r.se_alpha)})" for r in results]
    out += line("const", const_coefs)
    out += line("", const_ses)

    for i, (label, result) in enumerate(zip(covariate_labels, results)):
        coef_cells = [""] * n_models
        se_cells = [""] * n_models
        coef_cells[i] = _fmt(result.beta) + significance_stars(result.p_beta)
        se_cells[i] = f"({_fmt(result.se_beta)})"
        out += line(label, coef_cells)
        out += line("", se_cells)

    out += "-" * total_width + "\n"
    out += line("Observations", [str(r.n) for r in results])
    out += line("R2", [_fmt(r.r2) for r in results])
    out += line("Adjusted R2", [_fmt(r.adj_r2) for r in results])
    out += line("Residual Std. Error", [_fmt(r.resid_se) for r in results])
    out += line(
        "F Statistic",
        [_fmt(r.f_stat) + significance_stars(r.p_beta) for r in results],
    )
    out += "-" * total_width + "\n"
    out += "Note: *p<0.1; **p<0.05; ***p<0.01\n"
    return out


def table_rows(
    results: Sequence[RegressionResult],
    dependent_label: str,
    covariate_labels: Sequence[str],
) -> list[dict]:
    """Machine-readable rows with full-precision values, one per model."""
    rows = []
    for i, (label, result) in enumerate(zip(covariate_labels, results)):
        row = {"dependent": dependent_label, "model": i + 1, "covariate": label}
        row.update(asdict(result))
        row["stars"] = significance_stars(result.p_beta)
        rows.append(row)
    return rows

