"""Conditional-volatility modeling and the stationarity diagnostics around it.

The variance recursion is

    sigma2_t = alpha0 + sum_i alphas[i] * a_{t-i}^2 + sum_j betas[j] * sigma2_{t-j}

over zero-mean shocks a_t, with alpha0 > 0, all lag coefficients >= 0 and
0 < sum(alphas) + sum(betas) <= 1.  Fitting maximizes the Gaussian
log-likelihood with a Nelder-Mead search over transformed parameters that
satisfy the constraint set by construction: alpha0 = exp(theta0) and the lag
coefficients are softmax(weights) scaled by sigmoid(theta_s), so their sum
always lands in (0, 1).  Residuals are normalized to unit sample variance
before the search and alpha0 is scaled back afterwards, which makes the fit
scale-equivariant to rounding error.

One evaluator, `_Shocks`, serves the search and the public `sigma2_path` and
`log_likelihood`.  It is built once per residual series and order: the
squared shocks, the seed, the seeded squared shocks, the convolution's slice
bounds, the filter's numerator and denominator, the coefficient buffer and
two length-n work buffers.  Each search call then maps theta to the
coefficients with `_theta_to_coeffs`, into the buffer, tests alpha0 > 0 and
0 < sum <= 1 (the transform cannot make a lag coefficient negative),
convolves the seeded squared shocks with the ARCH weights and adds alpha0 in
place, writes the denominator [1, -betas] in place, runs `signal.lfilter`
from the `_filter_state` of that denominator, and evaluates the likelihood
one ufunc at a time into the work buffers.  Every step is the arithmetic of
the plain expressions in the same order, so the search sees the same float
at every point; only allocations and argument handling are saved.

Diagnostics: an augmented Dickey-Fuller unit-root regression (constant term,
fixed 5% asymptotic critical value -2.86) and the Lagrange-multiplier test
for conditional heteroskedasticity (T * R^2 of squared values on their own
lags against the chi-squared 95% quantile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize, signal, stats

from .errors import (
    DegenerateSeries,
    InvalidLags,
    InvalidParams,
    SingularRegression,
    TooShort,
)
from .series import TimeSeries

ADF_CRITICAL_5PCT = -2.86  # asymptotic, constant-only regression
ROLLING_WINDOW = 12  # slots in the fallback's trailing variance window


@dataclass(frozen=True)
class GarchSpec:
    """Model order: k lagged squared shocks, l lagged variances."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0 or self.k + self.l < 1:
            raise InvalidParams(f"need k >= 0, l >= 0, k + l >= 1, got k={self.k}, l={self.l}")


def _constraint_violation(alpha0: float, alphas: np.ndarray, betas: np.ndarray) -> str | None:
    """Why the coefficients lie outside the stationarity region, or None if they do not."""
    if not (alpha0 > 0):
        return f"alpha0 must be > 0, got {alpha0}"
    if (alphas < 0).any() or (betas < 0).any():
        return "lag coefficients must be >= 0"
    s = float(alphas.sum() + betas.sum())
    if not (0.0 < s <= 1.0):
        return f"coefficient sum must be in (0, 1], got {s}"
    return None


@dataclass(frozen=True)
class GarchParams:
    """Recursion coefficients constrained to the stationarity region."""

    alpha0: float
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float).reshape(-1))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float).reshape(-1))
        problem = _constraint_violation(self.alpha0, self.alphas, self.betas)
        if problem is not None:
            raise InvalidParams(problem)

    @property
    def k(self) -> int:
        return int(self.alphas.size)

    @property
    def l(self) -> int:
        return int(self.betas.size)

    @property
    def persistence(self) -> float:
        return float(self.alphas.sum() + self.betas.sum())


@dataclass(frozen=True)
class GarchFit:
    """Fitted parameters plus the in-sample conditional-variance path.

    `used_differencing` marks volatility extracted from the first-differenced
    series (taken when the level series fails the unit-root rejection);
    `used_rolling_fallback` marks the trailing rolling-variance path
    (`rolling_sigma2`) substituted after an optimizer failure.
    `log_likelihood` is always the Gaussian likelihood of `residuals` under
    `sigma2_path`, and `sigma2_path` always has the length of `residuals`.
    """

    params: GarchParams
    sigma2_path: np.ndarray
    residuals: np.ndarray
    log_likelihood: float
    mean: float
    converged: bool
    used_differencing: bool = False
    used_rolling_fallback: bool = False


@dataclass(frozen=True)
class DiagnosticsReport:
    adf_statistic: float
    adf_reject_unit_root: bool
    arch_lm_statistic: float
    arch_effects_present: bool
    lags_used: int


@dataclass(frozen=True)
class FitOptions:
    """Deterministic optimizer settings; identical options give identical fits."""

    max_iter: int | None = None  # None: 200 * dim iterations, 500 * dim above 8 dims
    xatol: float = 1e-5
    fatol: float = 1e-8
    adf_lags: int = 12
    allow_differencing: bool = True


_NEG_HALF_LOG_2PI = -0.5 * math.log(2.0 * math.pi)
# `x.sum()` and `x.max()` of a 1-d array, without the method's Python wrapper
_sum = np.add.reduce
_max = np.maximum.reduce


class _Shocks:
    """One residual series prepared for repeated runs of the variance recursion.

    Holds the squared shocks, the pre-sample seed (the sample variance of the
    residuals), the squared shocks behind m = max(k, l, 1) seed slots, and the
    buffers that the recursion and the likelihood at order (k, l) write into,
    so a call allocates little beyond what `np.convolve` and `lfilter` return.
    """

    __slots__ = ("a2", "seed", "a2x", "_lo", "_hi", "_num", "_denom", "_k", "_coeffs",
                 "_work", "_work2")

    def __init__(self, residuals, k: int, l: int):
        a = np.asarray(residuals, dtype=float).reshape(-1)
        if a.size < 1:
            raise TooShort("need at least one residual")
        if not np.isfinite(a).all():
            raise InvalidParams("residuals contain non-finite values")
        n = a.size
        self.a2 = a * a
        self.seed = float(np.var(a))
        m = max(k, l, 1)
        self.a2x = np.concatenate([np.full(m, self.seed), self.a2])
        self._lo, self._hi = m - 1, m - 1 + n  # the convolution's slots 0..n-1
        self._num = np.ones(1)
        self._denom = np.ones(l + 1)  # [1, -betas]
        self._k = k
        self._coeffs = np.empty(k + l)
        self._work = np.empty(n)
        self._work2 = np.empty(n)

    def sigma2(self, alpha0: float, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """The variance path over every shock, a new array; the coefficients are of order (k, l)."""
        if alphas.size > 0:
            base = np.convolve(self.a2x, alphas)[self._lo:self._hi]
            base += alpha0
        else:
            base = np.full(self.a2.size, alpha0)
        if betas.size == 0:
            return base
        # s2_t - sum_j betas[j] * s2_{t-j} = base_t is an IIR filter over base
        denom = self._denom
        np.negative(betas, out=denom[1:])
        zi = _filter_state(denom, self.seed)
        return signal.lfilter(self._num, denom, base, zi=zi)[0]

    def log_likelihood(self, s2: np.ndarray) -> float:
        """Gaussian log-likelihood of the shocks under the variance path `s2`.

        The terms of  -ln(2*pi)/2 - ln(s2)/2 - a^2/(2*s2), one ufunc at a time
        in the expression's own order, written into the two work buffers.
        """
        w, w2 = self._work, self._work2
        np.log(s2, out=w)
        np.multiply(0.5, w, out=w)
        np.subtract(_NEG_HALF_LOG_2PI, w, out=w)
        np.multiply(2.0, s2, out=w2)
        np.divide(self.a2, w2, out=w2)
        np.subtract(w, w2, out=w)
        return float(_sum(w))

    def objective(self, theta: np.ndarray) -> float:
        """The search objective: -log_likelihood at the coefficients of `theta`.

        The coefficients are `_theta_to_coeffs`'s, written into a buffer;
        1e300 wherever they leave the constraint set or the transform
        overflows.  The lag coefficients are sigmoid x softmax, never
        negative, so only alpha0 and their sum are tested.
        """
        try:
            alpha0, alphas, betas = _theta_to_coeffs(theta, self._k, self._coeffs)
            s = float(_sum(alphas) + _sum(betas))
            if not (alpha0 > 0 and 0.0 < s <= 1.0):
                return 1e300
            return -self.log_likelihood(self.sigma2(alpha0, alphas, betas))
        except (FloatingPointError, OverflowError):
            return 1e300


def _filter_state(denom: np.ndarray, seed: float) -> np.ndarray:
    """`lfilter` state for pre-sample outputs all equal to `seed`.

    The arithmetic of `signal.lfiltic([1.0], denom, y=np.full(l, seed))`,
    written out without its argument handling.
    """
    scaled = denom * seed
    zi = np.empty(denom.size - 1)
    for j in range(zi.size):
        zi[j] = 0.0 - _sum(scaled[j + 1:])
    return zi


def sigma2_path(params: GarchParams, residuals) -> np.ndarray:
    """Run the variance recursion over `residuals`.

    Pre-sample squared shocks and variances are both seeded with the sample
    variance of the residuals, so the first output value is fully determined
    by the coefficients and that seed.
    """
    shocks = _Shocks(residuals, params.k, params.l)
    return shocks.sigma2(params.alpha0, params.alphas, params.betas)


def log_likelihood(params: GarchParams, residuals) -> float:
    """Gaussian log-likelihood sum_t [-ln(2*pi)/2 - ln(s2_t)/2 - a_t^2/(2*s2_t)]."""
    shocks = _Shocks(residuals, params.k, params.l)
    return shocks.log_likelihood(shocks.sigma2(params.alpha0, params.alphas, params.betas))


def forecast_sigma2(fit: GarchFit) -> float:
    """One-step-ahead conditional variance from the fitted paths."""
    return step_sigma2(fit.params, fit.residuals, fit.sigma2_path)


def step_sigma2(params: GarchParams, residuals, s2_path) -> float:
    """Advance the recursion one slot past the end of the given paths."""
    a = np.asarray(residuals, dtype=float).reshape(-1)
    s2 = np.asarray(s2_path, dtype=float).reshape(-1)
    k, l = params.k, params.l
    if a.size < k or s2.size < l:
        raise TooShort(f"need {k} residuals and {l} variances, got {a.size} and {s2.size}")
    out = params.alpha0
    for i in range(1, k + 1):
        out += params.alphas[i - 1] * a[-i] ** 2
    for j in range(1, l + 1):
        out += params.betas[j - 1] * s2[-j]
    return float(out)


def simulate(params: GarchParams, n: int, seed: int) -> TimeSeries:
    """Draw a length-n shock series a_t = sigma_t * xi_t with Gaussian xi.

    A 500-sample burn-in is generated and discarded; output is deterministic
    per seed.
    """
    if n < 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    burn = 500
    total = n + burn
    xi = rng.standard_normal(total)
    k, l = params.k, params.l
    s = params.persistence
    seed_var = params.alpha0 / (1.0 - s) if s < 1.0 else params.alpha0 * 100.0
    m = max(k, l, 1)
    a2 = np.full(total + m, seed_var)
    s2 = np.full(total + m, seed_var)
    a = np.empty(total)
    alphas, betas = params.alphas, params.betas
    for t in range(total):
        var_t = params.alpha0
        for i in range(k):
            var_t += alphas[i] * a2[t + m - 1 - i]
        for j in range(l):
            var_t += betas[j] * s2[t + m - 1 - j]
        s2[t + m] = var_t
        a[t] = math.sqrt(var_t) * xi[t]
        a2[t + m] = a[t] * a[t]
    return TimeSeries(a[burn:], name=f"garch_sim_seed{seed}")


# ---------------------------------------------------------------------------
# Maximum-likelihood fit
# ---------------------------------------------------------------------------

def _theta_to_coeffs(theta: np.ndarray, k: int,
                     out: np.ndarray | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """(alpha0, alphas, betas) of a search point with k ARCH lags, the lag
    coefficients written into `out` if given; OverflowError for theta[1]
    below about -709."""
    alpha0 = math.exp(min(theta[0], 50.0))
    total = 1.0 / (1.0 + math.exp(-theta[1]))
    logits = theta[2:]
    coeffs = np.empty(logits.size) if out is None else out
    np.subtract(logits, _max(logits), out=coeffs)  # softmax, shifted by the max
    np.exp(coeffs, out=coeffs)
    coeffs /= _sum(coeffs)
    np.multiply(total, coeffs, out=coeffs)
    return alpha0, coeffs[:k], coeffs[k:]


def _theta_to_params(theta: np.ndarray, spec: GarchSpec) -> GarchParams:
    return GarchParams(*_theta_to_coeffs(theta, spec.k))


def _likelihood_objective(a_norm: np.ndarray, spec: GarchSpec):
    """The search objective: theta -> negative log-likelihood of `a_norm`.

    Equals -log_likelihood(_theta_to_params(theta, spec), a_norm) bit for bit,
    and 1e300 wherever that raises (coefficients outside the constraint set,
    an overflowing transform, a floating-point trap).  The residual-dependent
    work and every buffer are set up once here, not once per call.
    """
    return _Shocks(a_norm, spec.k, spec.l).objective


def _params_to_theta(alpha0: float, coeffs: np.ndarray) -> np.ndarray:
    total = float(coeffs.sum())
    logits = np.log(np.maximum(coeffs, 1e-12) / total)
    return np.concatenate([[math.log(alpha0), math.log(total / (1.0 - total))], logits])


def _start_points(spec: GarchSpec) -> list[np.ndarray]:
    # three fixed starts by total persistence; block shares split evenly
    starts = []
    for total, arch_share in ((0.90, 0.11), (0.50, 0.50), (0.10, 0.50)):
        coeffs = np.empty(spec.k + spec.l)
        if spec.k == 0:
            coeffs[:] = total / spec.l
        elif spec.l == 0:
            coeffs[:] = total / spec.k
        else:
            coeffs[:spec.k] = total * arch_share / spec.k
            coeffs[spec.k:] = total * (1.0 - arch_share) / spec.l
        starts.append(_params_to_theta(1.0 * (1.0 - total), coeffs))
    return starts


def rolling_floor(residuals) -> float:
    """Positivity floor of the rolling-variance fallback, set by the training residuals."""
    return max(1e-12, 1e-4 * float(np.var(residuals)))


def rolling_sigma2(shocks, floor: float) -> np.ndarray:
    """Trailing rolling variance with a positivity floor; the fit's fallback path.

    Slot t holds the variance of shocks[t - ROLLING_WINDOW + 1 .. t] (the
    shocks so far near the start), so it reads no slot after t: extending
    `shocks` leaves every earlier slot unchanged.
    """
    a = np.asarray(shocks, dtype=float).reshape(-1)
    out = np.empty(a.size)
    for t in range(a.size):
        out[t] = np.var(a[max(0, t - ROLLING_WINDOW + 1):t + 1])
    return np.maximum(out, floor)


def extend_sigma2(fit: GarchFit, shocks) -> np.ndarray:
    """The fit's variance path continued over `shocks` that follow its residuals.

    The recursion advances one slot at a time by `step_sigma2` over the
    shocks before that slot; a rolling-fallback fit extends its trailing
    window instead.  The leading slots equal `fit.sigma2_path`.
    """
    a = np.concatenate([fit.residuals, np.asarray(shocks, dtype=float).reshape(-1)])
    if fit.used_rolling_fallback:
        return rolling_sigma2(a, rolling_floor(fit.residuals))
    n = fit.residuals.size
    s2 = np.concatenate([fit.sigma2_path, np.empty(a.size - n)])
    for t in range(n, a.size):
        s2[t] = step_sigma2(fit.params, a[:t], s2[:t])
    return s2


def fit(residual_source: TimeSeries | np.ndarray, spec: GarchSpec,
        options: FitOptions = FitOptions()) -> GarchFit:
    """Demean the series and maximize the Gaussian likelihood over the constraint set.

    If the demeaned series does not reject a unit root at 5%, volatility is
    extracted from the first-differenced series instead (path length is
    re-aligned by repeating its first value).  If no restart converges, the
    trailing rolling-variance path (`rolling_sigma2`) is substituted.
    `log_likelihood` is that of the returned residuals under the returned path.
    Deterministic for fixed options.
    """
    x = residual_source.values if isinstance(residual_source, TimeSeries) else \
        np.asarray(residual_source, dtype=float).reshape(-1)
    n = x.size
    floor = max(spec.k, spec.l) + 2
    if n < floor:
        raise TooShort(f"need at least {floor} observations for ({spec.k},{spec.l}), got {n}")
    if float(np.var(x)) == 0.0:
        raise DegenerateSeries("zero-variance series")

    used_differencing = False
    work = x
    if options.allow_differencing and n >= 40:
        lags = min(options.adf_lags, max(1, n // 20))
        try:
            _, reject = adf_test(work - work.mean(), lags=lags)
        except (TooShort, SingularRegression):
            reject = True
        if not reject:
            work = np.diff(x)
            used_differencing = True

    mean = float(work.mean())
    a = work - mean
    scale = float(np.std(a))
    if scale == 0.0:
        raise DegenerateSeries("zero-variance series after demeaning")
    a_norm = a / scale

    dim = 2 + spec.k + spec.l
    if options.max_iter is not None:
        max_iter = options.max_iter
    else:
        max_iter = 200 * dim if dim <= 8 else 500 * dim

    objective = _likelihood_objective(a_norm, spec)
    best_ll = -math.inf
    best_theta = None
    converged = False
    start_lls = []
    for theta0 in _start_points(spec):
        start_lls.append(-objective(theta0))
        res = optimize.minimize(
            objective, theta0, method="Nelder-Mead",
            options={"maxiter": max_iter, "xatol": options.xatol,
                     "fatol": options.fatol, "adaptive": dim > 6},
        )
        converged = converged or bool(res.success)
        if -res.fun > best_ll:  # simplex never returns worse than its start
            best_ll = -res.fun
            best_theta = res.x

    params_norm = _theta_to_params(best_theta, spec)

    # The likelihood is flat in the lag coefficients along alpha ~ 0 (any
    # persistence reproduces a near-constant variance path), so dynamics are
    # kept only when they beat the constant-variance boundary by a BIC-style
    # margin; otherwise collapse to the near-constant point on the ridge.
    n_obs = a_norm.size
    coeffs_flat = np.full(spec.k + spec.l, 0.01 / (spec.k + spec.l))
    flat_norm = GarchParams(alpha0=0.99, alphas=coeffs_flat[:spec.k], betas=coeffs_flat[spec.k:])
    ll_flat = log_likelihood(flat_norm, a_norm)
    margin = 0.5 * math.log(n_obs) * (spec.k + spec.l)
    if best_ll - ll_flat < margin and ll_flat >= max(start_lls):
        params_norm = flat_norm
    params = replace(params_norm, alpha0=params_norm.alpha0 * scale * scale)
    s2 = sigma2_path(params, a)
    if used_differencing:
        s2 = np.concatenate([[s2[0]], s2])  # re-align with the level series length
        a = np.concatenate([[a[0]], a])
    if not converged:  # the fallback path replaces the search's
        s2 = rolling_sigma2(a, rolling_floor(a))
    # the likelihood of the returned residuals under the returned path
    ll = _Shocks(a, 0, 0).log_likelihood(s2)
    return GarchFit(
        params=params, sigma2_path=s2, residuals=a, log_likelihood=ll, mean=mean,
        converged=converged, used_differencing=used_differencing,
        used_rolling_fallback=not converged,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _ols(y: np.ndarray, x_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares with rank check; returns (coef, fitted, rss)."""
    coef, _, rank, _ = np.linalg.lstsq(x_mat, y, rcond=None)
    if rank < x_mat.shape[1]:
        raise SingularRegression(f"regressor matrix rank {rank} < {x_mat.shape[1]}")
    fitted = x_mat @ coef
    rss = float(((y - fitted) ** 2).sum())
    return coef, fitted, rss


def adf_test(series: TimeSeries | np.ndarray, lags: int) -> tuple[float, bool]:
    """Augmented Dickey-Fuller regression with constant term.

    Regresses dy_t on [1, y_{t-1}, dy_{t-1} .. dy_{t-lags}]; rejection of the
    unit root is flagged when the t-statistic on y_{t-1} falls below -2.86.
    """
    y = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float).reshape(-1)
    if lags < 1:
        raise InvalidLags(f"lags must be >= 1, got {lags}")
    n = y.size
    if n < lags + 10:
        raise TooShort(f"need at least {lags + 10} observations for {lags} lags, got {n}")
    dy = np.diff(y)
    rows = dy.size - lags
    x_mat = np.empty((rows, 2 + lags))
    x_mat[:, 0] = 1.0
    x_mat[:, 1] = y[lags:-1]
    for i in range(1, lags + 1):
        x_mat[:, 1 + i] = dy[lags - i:-i]
    target = dy[lags:]
    coef, _, rss = _ols(target, x_mat)
    dof = rows - x_mat.shape[1]
    if dof < 1:
        raise TooShort("not enough observations for the lag count")
    s2 = rss / dof
    try:
        xtx_inv = np.linalg.inv(x_mat.T @ x_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(str(exc)) from exc
    se = math.sqrt(s2 * xtx_inv[1, 1])
    stat = float(coef[1] / se)
    return stat, stat < ADF_CRITICAL_5PCT


def arch_lm_test(series: TimeSeries | np.ndarray, lags: int = 12) -> tuple[float, bool]:
    """Lagrange-multiplier test for conditional heteroskedasticity.

    Regresses squared demeaned values on their own lags; the statistic is
    nobs * R^2, compared to the chi-squared(lags) 95% quantile.
    """
    y = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float).reshape(-1)
    if lags < 1:
        raise InvalidLags(f"lags must be >= 1, got {lags}")
    n = y.size
    if n < lags + 10:
        raise TooShort(f"need at least {lags + 10} observations for {lags} lags, got {n}")
    z = (y - y.mean()) ** 2
    rows = n - lags
    x_mat = np.empty((rows, 1 + lags))
    x_mat[:, 0] = 1.0
    for i in range(1, lags + 1):
        x_mat[:, i] = z[lags - i:-i]
    target = z[lags:]
    _, _, rss = _ols(target, x_mat)
    tss = float(((target - target.mean()) ** 2).sum())
    if tss == 0.0:
        raise SingularRegression("squared series is constant")
    r2 = 1.0 - rss / tss
    stat = float(rows * r2)
    crit = float(stats.chi2.ppf(0.95, lags))
    return stat, stat > crit


def diagnose(series: TimeSeries | np.ndarray, lags: int = 12) -> DiagnosticsReport:
    """Run both stationarity diagnostics with a shared lag count."""
    adf_stat, adf_reject = adf_test(series, lags=lags)
    lm_stat, lm_present = arch_lm_test(series, lags=lags)
    return DiagnosticsReport(
        adf_statistic=adf_stat,
        adf_reject_unit_root=adf_reject,
        arch_lm_statistic=lm_stat,
        arch_effects_present=lm_present,
        lags_used=lags,
    )
