"""Conditional-volatility modeling and the stationarity diagnostics around it.

The variance recursion is

    sigma2_t = alpha0 + sum_i alphas[i] * a_{t-i}^2 + sum_j betas[j] * sigma2_{t-j}

over zero-mean shocks a_t, with alpha0 > 0, all lag coefficients >= 0 and
0 < sum(alphas) + sum(betas) <= 1.  Fitting maximizes the Gaussian
log-likelihood with a BFGS search over transformed parameters that
satisfy the constraint set by construction: alpha0 = exp(theta0) and the lag
coefficients are softmax(weights) scaled by sigmoid(theta_s), so their sum
always lands in (0, 1).  Residuals are normalized to unit sample variance
before the search and alpha0 is scaled back afterwards, which makes the fit
scale-equivariant to rounding error.

The search reads the likelihood's analytic score: the derivatives of the
variance path in the coefficients follow the variance recursion itself
(Fiorentini, Calzolari & Panattoni, J. Applied Econometrics 11(4), 1996),
and the score takes them in reverse mode, as one backward run of that
recursion over the likelihood's weights (the adjoint); the chain rule
through the transform gives the gradient in theta.
`_bfgs` runs three starts per series with a strong-Wolfe line search, in
lockstep: all the searches of a `fit_many` call advance together, each
round handing every search's pending trial point to one batched call for
the values and gradients.  A search's path depends on its own values only,
so `fit`, which is `fit_many` of one series, gives each series the fit it
gets in any batch.

The variance recursion runs in two places.  `_variance_paths` filters
known shocks from given pre-sample slots: the batched evaluator `_Batch`
(the search, `fit`'s final steps, `sigma2_path` and `log_likelihood`) runs
it from the sample-variance seed, `extend_sigma2` over a rolling forecast's
held-out shocks from the fit's last slots.  `simulate` keeps its own scalar
loop, since it draws each shock at the variance just computed.  `_Batch`
holds the squared shocks and seeds of many series, zero-padded to the
longest, and evaluates many rows at once, row r being one series under one
set of coefficients.  Per row it runs only `math.exp` (alpha0 and the
sigmoid) and `signal.lfilter`'s IIR filter (`_sigtools._linear_filter`,
loaded from its extension file and called directly), once forwards for the
variance path and once backwards for the score's adjoint; the softmax, the
filter states, the ARCH convolution (lags summed highest first, as
`np.convolve` does), the likelihood terms and the per-row sums (one
reduction per series length) run over all rows at once.  Every step is the
plain per-series arithmetic in the same order, so each row gets the floats
it would get alone.

Diagnostics: an augmented Dickey-Fuller unit-root regression (constant term,
fixed 5% asymptotic critical value -2.86) and the Lagrange-multiplier test
for conditional heteroskedasticity (T * R^2 of squared values on their own
lags against the chi-squared 95% quantile, from `scipy.special.gammaincinv`,
which only the LM test imports).  None of `scipy.signal`, `scipy.stats` and
`scipy.optimize` is imported, nor, outside the LM test, `scipy.special`.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, replace
from importlib.machinery import PathFinder

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateSeries,
    InvalidLags,
    InvalidParams,
    SingularRegression,
    TooShort,
)
from .series import TimeSeries

ADF_CRITICAL_5PCT = -2.86  # asymptotic, constant-only regression
ADF_LAGS = 12  # the fit's unit-root test lags; a series of n < 240 gets max(1, n // 20)
ROLLING_WINDOW = 12  # slots in the fallback's trailing variance window


@dataclass(frozen=True)
class GarchSpec:
    """Model order, k lagged squared shocks and l lagged variances, and the
    fit's iteration cap per BFGS search (`max_iter`; None: the default)."""

    k: int
    l: int
    max_iter: int | None = None

    def __post_init__(self):
        if self.k < 0 or self.l < 0 or self.k + self.l < 1:
            raise InvalidParams(f"need k >= 0, l >= 0, k + l >= 1, got k={self.k}, l={self.l}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def search_cap(self) -> int:
        """The iterations after which a search ends unconverged: `max_iter`, by
        default 200 per search dimension 2+k+l (500 per dimension above 8)."""
        dim = 2 + self.k + self.l
        return self.max_iter or (200 * dim if dim <= 8 else 500 * dim)


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
    `used_rolling_fallback`, which is `not converged`, marks the trailing
    rolling-variance path (`rolling_sigma2`) substituted after an optimizer
    failure; `params` then hold the unconverged search's point, not fitted
    coefficients.
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

    @property
    def used_rolling_fallback(self) -> bool:
        return not self.converged


@dataclass(frozen=True)
class FitOptions:
    """`allow_differencing` lets the unit-root test (`ADF_LAGS`) decide whether
    the series is differenced; only direct `fit`/`fit_many` callers unset it."""

    allow_differencing: bool = True


_NEG_HALF_LOG_2PI = -0.5 * math.log(2.0 * math.pi)
_ONE = np.ones(1)  # the variance filter's numerator


def _load_linear_filter():
    """`signal.lfilter`'s compiled IIR routine, without importing `scipy.signal`.

    Importing `scipy.signal._sigtools` runs the whole `scipy.signal` package
    import first, which pulls in `scipy.stats`; loading the extension file
    by itself gives the same C function for a fraction of the start-up.
    """
    where = os.path.join(scipy.__path__[0], "signal")
    spec = PathFinder.find_spec("scipy.signal._sigtools", [where])
    if spec is None:
        raise ImportError(f"scipy.signal._sigtools not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


_linear_filter = _load_linear_filter()

# `x.sum()`, `x.max()`, `x.any()` and `x.all()`, without the method's Python wrapper
_sum = np.add.reduce
_max = np.maximum.reduce
_any = np.logical_or.reduce
_all = np.logical_and.reduce


def _padded(arrays, fill: float) -> np.ndarray:
    """1-d arrays as the rows of one matrix, each followed by `fill` up to the longest."""
    out = np.full((len(arrays), max(a.size for a in arrays)), fill)
    for row, a in zip(out, arrays):
        row[:a.size] = a
    return out


class _Batch:
    """Residual series prepared for batched runs of the variance recursion at order (k, l).

    Holds, per series, its length and the squared shocks behind m =
    max(k, l, 1) pre-sample slots, which hold the series' seed (the sample
    variance of its residuals), zero-padded to the longest series.  Each
    call evaluates many rows at once: row r runs series `rows[r]` with its
    own coefficients, and gets the same floats it would get alone.
    """

    __slots__ = ("k", "l", "m", "lengths", "distinct", "a2x")

    def __init__(self, residuals, k: int, l: int):
        series = [np.asarray(a, dtype=float).reshape(-1) for a in residuals]
        for a in series:
            if a.size < 1:
                raise TooShort("need at least one residual")
            if not np.isfinite(a).all():
                raise InvalidParams("residuals contain non-finite values")
        self.k, self.l = k, l
        self.m = m = max(k, l, 1)
        self.lengths = np.array([a.size for a in series])
        self.distinct = sorted(set(self.lengths.tolist()))
        seeds = np.array([float(np.var(a)) for a in series])
        a2 = _padded([a * a for a in series], 0.0)
        self.a2x = np.concatenate([np.repeat(seeds[:, None], m, axis=1), a2], axis=1)

    def sigma2(self, rows: np.ndarray, alpha0: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """`_variance_paths` of series `rows[r]` under alpha0[r] and
        coeffs[r] = [alphas, betas], every pre-sample slot the seed, every
        row as wide as the longest series: its slots past its series' length
        run over zero shocks (positive padding)."""
        a2x = self.a2x[rows]
        return _variance_paths(alpha0, coeffs, self.k, a2x, a2x[:, :self.m])

    def log_likelihood(self, rows: np.ndarray, s2: np.ndarray,
                       a2: np.ndarray | None = None) -> np.ndarray:
        """Gaussian log-likelihood of series `rows[r]` under the path s2[r], one per row.

        `s2` is laid out as `sigma2` returns it, with positive padding; `a2`
        may hold the squared shocks `self.a2x[rows, m:]`, gathered by the
        caller.  The terms -ln(2*pi)/2 - ln(s2)/2 - a^2/(2*s2) are computed
        one ufunc at a time over all rows; then the rows of each series
        length are summed over that length by one reduction over all rows,
        which sums each row as the series alone would be summed.
        """
        if a2 is None:
            a2 = self.a2x[rows, self.m:]
        w = np.log(s2)
        np.multiply(0.5, w, out=w)
        np.subtract(_NEG_HALF_LOG_2PI, w, out=w)
        w2 = np.multiply(2.0, s2)
        np.divide(a2, w2, out=w2)
        np.subtract(w, w2, out=w)
        return self._row_sums(rows, w)

    def _row_sums(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """w[r] summed along its last axis over the length of series `rows[r]`.

        The rows of each series length are summed over that length by one
        reduction over all rows, which sums each row as the series alone
        would be summed; the slots past a row's length are never read.
        """
        *shorter, longest = self.distinct
        out = _sum(w[..., :longest], axis=-1)
        if shorter:
            lengths = self.lengths[rows].reshape((-1,) + (1,) * (w.ndim - 2))
            for n in shorter:
                np.copyto(out, _sum(w[..., :n], axis=-1), where=lengths == n)
        return out

    def objective_and_score(self, rows: np.ndarray,
                            thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The search objective at point thetas[r] over series rows[r], and its
        gradient in theta, one row each.

        The objective is -log_likelihood at the coefficients of
        `_theta_to_coeffs`, with `sigma2` and `log_likelihood`'s floats.  The
        lag coefficients are sigmoid x softmax, never negative, so only
        alpha0 > 0 and 0 < sum <= 1 are tested; a point outside the
        constraint set is not run and gets 1e300 and a zero gradient.

        The derivatives of s2_t in (alpha0, alphas, betas) obey the variance
        recursion itself, run from a zero state over the regressors
        [1, a_{t-i}^2, s2_{t-j}], seeded before the sample as s2 is
        (Fiorentini, Calzolari & Panattoni, J. Applied Econometrics 11(4),
        1996); the score weighs them by df/ds2_t = (1 - a_t^2/s2_t)/(2 s2_t).
        That is a sum w'L^-1 x per coefficient, L the filter's lower
        triangular matrix, so it is computed in reverse mode (Griewank &
        Walther, Evaluating Derivatives, SIAM 2008): the adjoint L^-T w is
        the same filter run once backwards over the weights, zeroed past the
        row's series length, and each coefficient's derivative is the sum of
        the adjoint times its regressor over that length.  One filter call
        per row serves all 1+k+l coefficients; the chain rule through
        `_theta_to_coeffs` turns df/dcoeffs into df/dtheta.  The reversed
        row begins with its zeros, so a row's adjoint has the floats it
        gets alone.
        """
        alpha0, coeffs, sigmoid = _theta_to_coeffs(thetas)
        k, l, m = self.k, self.l, self.m
        total = _sum(coeffs[:, :k], axis=1) + _sum(coeffs[:, k:], axis=1)
        valid = (alpha0 > 0) & (0.0 < total) & (total <= 1.0)  # NaN fails too
        if not _all(valid):
            values, score = np.full(rows.size, 1e300), np.zeros(thetas.shape)
            valid = np.flatnonzero(valid)
            if valid.size:
                values[valid], score[valid] = self.objective_and_score(rows[valid], thetas[valid])
            return values, score
        a2x = self.a2x[rows]
        s2_before, a2 = a2x[:, :m], a2x[:, m:]  # the seed before slot 0, then the squares
        denom = _denominators(coeffs[:, k:])  # the forward and the backward filter's
        s2 = _variance_paths(alpha0, coeffs, k, a2x, s2_before, denom)
        values = np.negative(self.log_likelihood(rows, s2, a2))
        width = s2.shape[1]
        adjoint = np.divide(a2, s2)  # df/ds2_t
        np.subtract(1.0, adjoint, out=adjoint)
        adjoint /= np.multiply(2.0, s2)
        if l:  # the variance filter run backwards, from a zero state past each row's length
            for n in self.distinct[:-1]:
                adjoint[self.lengths[rows] == n, n:] = 0.0
            zeros = np.zeros(l)
            adjoint = np.array([_linear_filter(_ONE, d, w, -1, zeros)[0]
                                for d, w in zip(denom, adjoint[:, ::-1])])[:, ::-1]
        # the adjoint times each regressor [1, a_{t-i}^2, s2_{t-j}], seeded
        # before the sample as s2 is
        terms = np.empty((rows.size, 1 + k + l, width))
        terms[:, 0] = adjoint
        for i in range(k):
            np.multiply(adjoint, a2x[:, m - 1 - i:m - 1 - i + width], out=terms[:, 1 + i])
        if l:
            s2x = np.concatenate([s2_before, s2], axis=1)
            for j in range(l):
                np.multiply(adjoint, s2x[:, m - 1 - j:m - 1 - j + width], out=terms[:, 1 + k + j])
        grad = self._row_sums(rows, terms)  # df/d(alpha0, alphas, betas)
        complement = np.array(list(map(_expit, (-thetas[:, 1]).tolist())), dtype=float)
        score = np.empty(thetas.shape)
        # alpha0 = exp(theta0) below the clamp at 50, constant above it
        score[:, 0] = np.where(thetas[:, 0] > 50.0, 0.0, grad[:, 0] * alpha0)
        weighted = _sum(grad[:, 1:] * coeffs, axis=1)  # sum_m g_m c_m
        # c = sigmoid(theta1) * softmax(theta[2:])
        score[:, 1] = complement * weighted
        score[:, 2:] = coeffs * (grad[:, 1:] - (weighted / sigmoid)[:, None])
        return values, score


def _denominators(betas: np.ndarray) -> np.ndarray:
    """The variance filter's denominators [1, -betas], one row per row of `betas`."""
    denom = np.empty((betas.shape[0], betas.shape[1] + 1))
    denom[:, 0] = 1.0
    np.negative(betas, out=denom[:, 1:])
    return denom


def _variance_paths(alpha0: np.ndarray, coeffs: np.ndarray, k: int, a2x: np.ndarray,
                    s2_before: np.ndarray, denom: np.ndarray | None = None) -> np.ndarray:
    """Variance paths under alpha0[r] and coeffs[r] = [alphas, betas] (k
    alphas), one row each, over the squared shocks a2x[r, m:], behind the m
    before slot 0; s2_before[r] holds the m >= max(k, l) variances before
    slot 0, oldest first.  `denom` may hold `_denominators(coeffs[:, k:])`,
    built by a caller that runs the filter again.  The ARCH lags are summed
    highest first over all rows at once, `np.convolve`'s order (bit for bit
    up to 11 lags); the GARCH lags run `signal.lfilter`'s filter row by row
    from the `_filter_state` of [1, -betas] and s2_before[r].  The filter is
    causal, so a row's leading slots are those of its shocks filtered alone."""
    m = s2_before.shape[1]
    width = a2x.shape[1] - m
    l = coeffs.shape[1] - k
    if k > 0:
        lo = m - 1  # a2x[lo + t - i] is slot t's lag-(i+1) square
        base = coeffs[:, k - 1:k] * a2x[:, lo - k + 1:lo - k + 1 + width]
        for i in range(k - 2, -1, -1):
            base += coeffs[:, i:i + 1] * a2x[:, lo - i:lo - i + width]
        base += alpha0[:, None]
    else:
        base = np.repeat(alpha0[:, None], width, axis=1)
    if l == 0:
        return base
    # s2_t - sum_j betas[j] * s2_{t-j} = base_t is an IIR filter over base
    if denom is None:
        denom = _denominators(coeffs[:, k:])
    zi = _filter_state(denom, s2_before)
    # what `signal.lfilter(_ONE, denom[r], base[r], zi=zi[r])` runs for a
    # denominator of two or more terms, without its argument handling
    return np.array([_linear_filter(_ONE, d, b, -1, z)[0] for d, b, z in zip(denom, base, zi)])


def _filter_state(denom: np.ndarray, history: np.ndarray) -> np.ndarray:
    """`lfilter` state after the outputs history[r] (at least l, oldest
    first), one row per row of the (rows, l + 1) `denom`: the arithmetic of
    `signal.lfiltic([1.0], denom[r], y=history[r, ::-1])` without its
    argument handling, over all rows at once.  Slot j is
    0 - sum(denom[j + 1:] * y[:l - j]), read off a diagonal of the products."""
    l = denom.shape[-1] - 1
    latest_first = history[..., ::-1]  # lfiltic's y
    products = denom[..., 1:, None] * latest_first[..., None, :l]  # [i, t]: denom[i + 1] * y[t]
    zi = np.empty(denom.shape[:-1] + (l,))
    for j in range(l):
        zi[..., j] = 0.0 - _sum(products.diagonal(-j, -2, -1), axis=-1)
    return zi


def _coeff_rows(params) -> tuple[np.ndarray, np.ndarray]:
    """alpha0 and the lag coefficients [alphas, betas] of each parameter set, one row each."""
    return (np.array([p.alpha0 for p in params]),
            np.array([np.concatenate([p.alphas, p.betas]) for p in params]))


def sigma2_path(params: GarchParams, residuals) -> np.ndarray:
    """Run the variance recursion over `residuals`.

    Pre-sample squared shocks and variances are both seeded with the sample
    variance of the residuals, so the first output value is fully determined
    by the coefficients and that seed.
    """
    batch, rows = _Batch([residuals], params.k, params.l), np.zeros(1, dtype=np.intp)
    return batch.sigma2(rows, *_coeff_rows([params]))[0]


def log_likelihood(params: GarchParams, residuals) -> float:
    """Gaussian log-likelihood sum_t [-ln(2*pi)/2 - ln(s2_t)/2 - a_t^2/(2*s2_t)]."""
    batch, rows = _Batch([residuals], params.k, params.l), np.zeros(1, dtype=np.intp)
    return float(batch.log_likelihood(rows, batch.sigma2(rows, *_coeff_rows([params])))[0])


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

def _expit(t: float) -> float:
    """1 / (1 + exp(-t)) with libm's exp, and 0 where that exp overflows (t
    below about -709): `scipy.special.expit`'s formula, without importing it."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def _theta_to_coeffs(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha0, the lag coefficients [alphas, betas] and their sum sigmoid(theta1), one row each.

    alpha0 = exp(min(theta0, 50)) and the sigmoid of theta1 are taken row by
    row with `math.exp` (see `_expit`).  The lag coefficients, that sigmoid
    times the softmax of theta[2:], are computed over all rows at once.
    """
    alpha0 = np.array(list(map(math.exp, np.minimum(thetas[:, 0], 50.0).tolist())), dtype=float)
    sigmoid = np.array(list(map(_expit, thetas[:, 1].tolist())), dtype=float)
    logits = thetas[:, 2:]
    coeffs = logits - _max(logits, axis=1, keepdims=True)  # softmax, shifted by the max
    np.exp(coeffs, out=coeffs)
    coeffs /= _sum(coeffs, axis=1, keepdims=True)
    coeffs *= sigmoid[:, None]
    return alpha0, coeffs, sigmoid


def _theta_to_params(theta: np.ndarray, spec: GarchSpec) -> GarchParams:
    alpha0, coeffs, _ = _theta_to_coeffs(theta[None])
    return GarchParams(float(alpha0[0]), coeffs[0, :spec.k], coeffs[0, spec.k:])


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
    head = min(a.size, ROLLING_WINDOW - 1)  # slots with fewer shocks than the window
    for t in range(head):
        out[t] = np.var(a[:t + 1])
    if a.size >= ROLLING_WINDOW:
        out[head:] = sliding_window_view(a, ROLLING_WINDOW).var(axis=-1)
    return np.maximum(out, floor)


def extend_sigma2(fit: GarchFit, shocks) -> np.ndarray:
    """The fit's variance path continued over `shocks` that follow its residuals:
    the fit's own filter from its last m = max(k, l, 1) squared residuals and
    variances (a rolling-fallback fit extends its trailing window instead).
    The leading slots equal `fit.sigma2_path`."""
    a = np.asarray(shocks, dtype=float).reshape(-1)
    if fit.used_rolling_fallback:
        return rolling_sigma2(np.concatenate([fit.residuals, a]), rolling_floor(fit.residuals))
    params = fit.params
    m = max(params.k, params.l, 1)
    if fit.residuals.size < m:
        raise TooShort(f"need {m} residuals to extend the path, got {fit.residuals.size}")
    a = np.concatenate([fit.residuals[-m:], a])
    tail = _variance_paths(*_coeff_rows([params]), params.k, (a * a)[None],
                           fit.sigma2_path[None, -m:])
    return np.concatenate([fit.sigma2_path, tail[0]])


GTOL = 1e-6  # a search converges when max |df/dtheta| reaches this
# A search whose line search finds no decrease converges too if the step's
# predicted gain, -slope = g.H.g (twice f - f* on the quadratic model), is
# at most this times |f|, some 45 machine epsilons: within the rounding of
# f, which on a long series hides the last decrease before max |g| <= GTOL.
ROUNDING = 1e-14
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # sufficient decrease and curvature constants
LINE_TRIALS = 20  # trial points one line search may take


@dataclass(frozen=True)
class _Searches:
    """What `_bfgs` found, one entry per search, named as in scipy's result."""

    x: np.ndarray  # (searches, dim) the last accepted point
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray
    success: np.ndarray
    f_start: np.ndarray  # the objective at the start point


def _bfgs(evaluate, starts: np.ndarray, max_iter: int) -> _Searches:
    """BFGS from every row of `starts`, all searches advancing in lockstep.

    `evaluate(searches, points)` returns the objective and its gradient at
    points[r] for search searches[r].  Each round every live search has one
    trial point pending, and all of them go to one `evaluate` call.  A
    search moves along p = -H g, H its inverse-Hessian estimate (the
    identity at first, then BFGS updates), with a line search for the
    strong Wolfe conditions (Nocedal & Wright, Numerical Optimization,
    Algorithms 3.5 and 3.6):
      - the first trial step is min(1, 2.02 * (f - f_prev) / slope), as
        scipy takes it, which makes the first move of a search about 1 long;
      - while the function still falls steeply, the step doubles;
      - once a step is bracketed, the next trial is the minimizer of the
        cubic through the bracket's ends (`_interpolate`).
    A point outside the constraint set (value 1e300) fails the decrease
    test, so it only shrinks the bracket.  A search converges when
    max |g| <= GTOL.  When a line search spends LINE_TRIALS trials without a
    point of sufficient decrease, the search ends: converged if its
    predicted gain -slope is within rounding of f (<= ROUNDING * max(1, |f|)),
    unconverged otherwise; if it spent them after finding one, it takes
    that point and goes on.  A search that reaches `max_iter` iterations
    ends unconverged.

    A search's path depends on its own values only, so it ends where it
    would alone, whatever else runs beside it.
    """
    n_search, dim = starts.shape
    x = starts.copy()
    f, g = evaluate(np.arange(n_search), x)
    f_start = f.copy()
    f_prev = f + np.sqrt(_sum(g * g, axis=1)) / 2  # makes the first move about 1 long
    h = np.repeat(np.eye(dim)[None], n_search, axis=0)
    nit = np.zeros(n_search, dtype=np.intp)
    nfev = np.ones(n_search, dtype=np.intp)
    success = _max(np.abs(g), axis=1) <= GTOL
    # the line search of each search: direction, slope at 0, pending step,
    # trials taken, the bracket's low end (value, slope and gradient; at
    # step 0 the current point) and high end (inf until a step is bracketed)
    p, slope, step = np.zeros((n_search, dim)), np.zeros(n_search), np.zeros(n_search)
    trials = np.zeros(n_search, dtype=np.intp)
    lo, lo_f, lo_d, lo_g = np.zeros(n_search), f.copy(), np.zeros(n_search), g.copy()
    hi, hi_f, hi_d = np.full(n_search, np.inf), np.zeros(n_search), np.zeros(n_search)

    def begin(s):  # a new line search for the searches `s`
        d = -_sum(h[s] * g[s, None, :], axis=2)
        sl = _sum(d * g[s], axis=1)
        p[s], slope[s] = d, sl
        first = 2.02 * (f[s] - f_prev[s]) / sl
        step[s] = np.where((first > 0) & (first < 1), first, 1.0)
        trials[s] = 0
        lo[s], lo_f[s], lo_d[s], lo_g[s] = 0.0, f[s], sl, g[s]
        hi[s] = np.inf

    live = np.flatnonzero(~success)
    begin(live)
    while live.size:
        t = step[live]
        ft, gt = evaluate(live, x[live] + t[:, None] * p[live])
        nfev[live] += 1
        trials[live] += 1
        dt = _sum(gt * p[live], axis=1)
        s0 = slope[live]
        # A trial without sufficient decrease, or no lower than the low end,
        # becomes the high end.  One that also meets the curvature condition
        # is accepted.  Any other becomes the low end, and the old low end
        # becomes the high end if the slope points back towards it (before a
        # step is bracketed, hi is inf: only a rising slope brackets).
        high = ~(ft <= f[live] + WOLFE_C1 * t * s0) | (ft >= lo_f[live])
        accept = ~high & (np.abs(dt) <= -WOLFE_C2 * s0)
        move_lo = ~(high | accept)
        with np.errstate(invalid="ignore"):  # inf * 0 never reaches move_lo
            flip = move_lo & (dt * (hi[live] - lo[live]) >= 0)
        for where, a, fa, da in ((high, t, ft, dt),
                                 (flip, lo[live], lo_f[live], lo_d[live])):
            if _any(where):
                s = live[where]
                hi[s], hi_f[s], hi_d[s] = a[where], fa[where], da[where]
        if _any(move_lo):
            s = live[move_lo]
            lo[s], lo_f[s], lo_d[s], lo_g[s] = t[move_lo], ft[move_lo], dt[move_lo], gt[move_lo]
        spent = ~accept & (trials[live] >= LINE_TRIALS)
        # spent after a decrease: take the bracket's low end; without one,
        # the search ends where it is
        settle = spent & (lo[live] > 0)
        stuck = spent & ~settle
        if _any(stuck):  # no decrease found: converged if none was left to find
            s = live[stuck]
            success[s] = -slope[s] <= ROUNDING * np.maximum(1.0, np.abs(f[s]))
        moved = accept | settle
        still = ~(moved | spent)
        keep = still.copy()
        if _any(moved):
            s = live[moved]
            a = np.where(accept, t, lo[live])[moved]
            g_new = np.where(accept[:, None], gt, lo_g[live])[moved]
            x_new = x[s] + a[:, None] * p[s]
            step_s, step_y = x_new - x[s], g_new - g[s]
            f_prev[s] = f[s]
            x[s], f[s], g[s] = x_new, np.where(accept, ft, lo_f[live])[moved], g_new
            nit[s] += 1
            success[s] = _max(np.abs(g_new), axis=1) <= GTOL
            go_on = ~success[s] & (nit[s] < max_iter)
            ys = _sum(step_y * step_s, axis=1)
            update = go_on & (ys > 0)  # a settled step may lack the curvature
            if _any(update):
                u, su, yu, rho = s[update], step_s[update], step_y[update], 1.0 / ys[update]
                hy = _sum(h[u] * yu[:, None, :], axis=2)
                coef = rho * rho * _sum(yu * hy, axis=1) + rho
                h[u] += (coef[:, None, None] * su[:, :, None] * su[:, None, :]
                         - rho[:, None, None] * (hy[:, :, None] * su[:, None, :]
                                                 + su[:, :, None] * hy[:, None, :]))
            begin(s[go_on])
            keep[moved] = go_on
        if _any(still):  # the next trial of a line search under way
            s = live[still]
            bracketed = np.isfinite(hi[s])
            step[s] = np.where(bracketed, _interpolate(lo[s], lo_f[s], lo_d[s], hi[s], hi_f[s],
                                                       hi_d[s]), 2.0 * lo[s])
        live = live[keep]
    return _Searches(x=x, fun=f, nit=nit, nfev=nfev, success=success, f_start=f_start)


def _interpolate(a, fa, da, b, fb, db) -> np.ndarray:
    """The minimizer of the cubic through (a, fa) and (b, fb) with slopes da
    and db (Nocedal & Wright eq. 3.59), if it lies in the middle four fifths
    of [a, b] (either order); the midpoint otherwise."""
    with np.errstate(all="ignore"):
        d1 = da + db - 3 * (fa - fb) / (a - b)
        d2 = np.sign(b - a) * np.sqrt(d1 * d1 - da * db)
        c = b - (b - a) * (db + d2 - d1) / (db - da + 2 * d2)
        margin = 0.1 * np.abs(b - a)
        inside = (c >= np.minimum(a, b) + margin) & (c <= np.maximum(a, b) - margin)
    return np.where(inside, c, 0.5 * (a + b))


@dataclass(frozen=True)
class _Prepared:
    """One series made ready for the search, as `fit` describes."""

    a: np.ndarray  # the demeaned (perhaps differenced) series the fit describes
    a_norm: np.ndarray  # `a` at unit sample variance: what the search sees
    mean: float
    scale: float
    used_differencing: bool


def _prepare(residual_source: TimeSeries | np.ndarray, spec: GarchSpec,
             options: FitOptions) -> _Prepared:
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
        lags = min(ADF_LAGS, max(1, n // 20))
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
    return _Prepared(a=a, a_norm=a / scale, mean=mean, scale=scale,
                     used_differencing=used_differencing)


def fit_many(residual_sources, spec: GarchSpec,
             options: FitOptions = FitOptions()) -> list[GarchFit]:
    """`fit` of every series in `residual_sources`, with all their searches run together.

    Each series is prepared as `fit` describes; then the three searches of
    every series advance in lockstep through `_bfgs`, each capped at
    `spec.search_cap` iterations and each round's trial points of all of
    them evaluated in one batched call; then each series is finished on its
    own searches' results.  Each fit equals `fit` of that series alone, bit
    for bit, whatever else is in the batch.
    """
    prepared = [_prepare(source, spec, options) for source in residual_sources]
    if not prepared:
        return []
    k, l = spec.k, spec.l
    starts = np.array(_start_points(spec))
    per_series = starts.shape[0]
    normalized = _Batch([p.a_norm for p in prepared], k, l)
    series_of = np.repeat(np.arange(len(prepared)), per_series)
    found = _bfgs(lambda searches, points: normalized.objective_and_score(series_of[searches],
                                                                          points),
                  np.tile(starts, (len(prepared), 1)), spec.search_cap)

    # The likelihood is flat in the lag coefficients along alpha ~ 0 (any
    # persistence reproduces a near-constant variance path), so dynamics are
    # kept only when they beat the constant-variance boundary by a BIC-style
    # margin; otherwise collapse to the near-constant point on the ridge.
    everyone = np.arange(len(prepared))
    coeffs_flat = np.full(k + l, 0.01 / (k + l))
    flat_norm = GarchParams(alpha0=0.99, alphas=coeffs_flat[:k], betas=coeffs_flat[k:])
    ll_flat = normalized.log_likelihood(
        everyone, normalized.sigma2(everyone, *_coeff_rows([flat_norm] * len(prepared))))
    chosen, converged = [], []
    for i, p in enumerate(prepared):
        mine = slice(i * per_series, (i + 1) * per_series)
        best_ll = -math.inf
        best_theta = None
        for fun, theta in zip(found.fun[mine], found.x[mine]):
            if -fun > best_ll:  # a search never returns worse than its start
                best_ll = -fun
                best_theta = theta
        params_norm = _theta_to_params(best_theta, spec)
        margin = 0.5 * math.log(p.a_norm.size) * (k + l)
        if best_ll - ll_flat[i] < margin and ll_flat[i] >= max(-found.f_start[mine]):
            params_norm = flat_norm
        chosen.append(replace(params_norm, alpha0=params_norm.alpha0 * p.scale * p.scale))
        converged.append(bool(found.success[mine].any()))

    paths = _Batch([p.a for p in prepared], k, l).sigma2(everyone, *_coeff_rows(chosen))
    residuals, s2s = [], []
    for i, p in enumerate(prepared):
        a, s2 = p.a, paths[i, :p.a.size].copy()
        if p.used_differencing:
            s2 = np.concatenate([[s2[0]], s2])  # re-align with the level series length
            a = np.concatenate([[a[0]], a])
        if not converged[i]:  # the fallback path replaces the search's
            s2 = rolling_sigma2(a, rolling_floor(a))
        residuals.append(a)
        s2s.append(s2)
    # the likelihood of the returned residuals under the returned path
    lls = _Batch(residuals, 0, 0).log_likelihood(everyone, _padded(s2s, 1.0))
    return [GarchFit(params=chosen[i], sigma2_path=s2s[i], residuals=residuals[i],
                     log_likelihood=float(lls[i]), mean=p.mean, converged=converged[i],
                     used_differencing=p.used_differencing)
            for i, p in enumerate(prepared)]


def fit(residual_source: TimeSeries | np.ndarray, spec: GarchSpec,
        options: FitOptions = FitOptions()) -> GarchFit:
    """Demean the series and maximize the Gaussian likelihood over the constraint set.

    If the demeaned series does not reject a unit root at 5%, volatility is
    extracted from the first-differenced series instead (path length is
    re-aligned by repeating its first value).  If no restart converges within
    `spec.search_cap` iterations, the trailing rolling-variance path
    (`rolling_sigma2`) is substituted.
    `log_likelihood` is that of the returned residuals under the returned path.
    Deterministic for a fixed spec and options; `fit_many` of the one series.
    """
    return fit_many([residual_source], spec, options)[0]


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
    return stat, stat > chi2_critical_95(lags)


def chi2_critical_95(lags: int) -> float:
    """The chi-squared(lags) 95% quantile, as `scipy.stats.chi2.ppf(0.95, lags)` computes it.

    `scipy.special` is imported here, not at module scope: only the LM test
    needs it, and loading it costs more start-up time than the rest of the
    package.
    """
    from scipy import special

    return float(2 * special.gammaincinv(lags / 2, 0.95))

