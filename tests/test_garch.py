from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, signal, stats

from modecast import garch
from modecast.errors import DegenerateSeries, InvalidLags, InvalidParams, TooShort
from modecast.garch import (
    FitOptions,
    GarchFit,
    GarchParams,
    GarchSpec,
    adf_test,
    arch_lm_test,
    ROLLING_WINDOW,
    extend_sigma2,
    fit,
    fit_many,
    log_likelihood,
    rolling_floor,
    rolling_sigma2,
    sigma2_path,
    simulate,
    _Batch,
    _constraint_violation,
    _filter_state,
    _theta_to_coeffs,
    _theta_to_params,
)
from modecast.series import TimeSeries

UNIT_VAR_RESIDUALS = np.array([1.0, -1.0, 1.0, -1.0])  # sample variance exactly 1


# ---------------------------------------------------------------------------
# Recursion
# ---------------------------------------------------------------------------

def test_sigma2_first_value_from_seed():
    params = GarchParams(0.1, [0.2], [0.7])
    path = sigma2_path(params, UNIT_VAR_RESIDUALS)
    assert path[0] == pytest.approx(0.1 + 0.2 * 1.0 + 0.7 * 1.0, abs=1e-15)


def test_all_zero_coefficients_rejected():
    with pytest.raises(InvalidParams):
        GarchParams(0.1, [0.0], [0.0])


def test_sum_above_one_rejected():
    with pytest.raises(InvalidParams):
        GarchParams(0.1, [0.5], [0.6])


def test_unit_sum_boundary_allowed():
    GarchParams(0.1, [0.5], [0.5])  # sum == 1 is inside the constraint set


def test_fixed_point_path():
    params = GarchParams(0.5, [], [0.5])
    path = sigma2_path(params, UNIT_VAR_RESIDUALS)
    assert np.allclose(path, 1.0, atol=1e-14)


def test_sigma2_rejects_empty():
    with pytest.raises(TooShort):
        sigma2_path(GarchParams(0.1, [0.2], [0.7]), [])


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 2.0), st.floats(0.0, 0.6), st.floats(0.0, 0.39),
       st.integers(0, 10_000))
def test_sigma2_positivity_random_draws(alpha0, a1, b1, seed):
    if a1 + b1 <= 0.0:
        a1 = 0.05
    params = GarchParams(alpha0, [a1], [b1])
    rng = np.random.default_rng(seed)
    path = sigma2_path(params, rng.standard_normal(50))
    assert np.all(path >= alpha0 * (1.0 - 1e-12))
    assert np.all(path > 0.0)


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------

def test_log_likelihood_single_zero_observation():
    # alpha0=1 with a vanishing ARCH weight forces sigma2 = 1
    params = GarchParams(1.0, [1e-12], [])
    assert log_likelihood(params, [0.0]) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-9)


def test_log_likelihood_matches_bruteforce_loop():
    rng = np.random.default_rng(4)
    residuals = rng.standard_normal(200)
    params = GarchParams(0.2, [0.15], [0.6])
    path = sigma2_path(params, residuals)
    expected = 0.0
    for a, s2 in zip(residuals, path):
        expected += -0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(s2) - a * a / (2.0 * s2)
    assert log_likelihood(params, residuals) == pytest.approx(expected, rel=1e-12)
    # doubling the residuals changes the likelihood by the brute-force amount
    doubled = 2.0 * residuals
    path2 = sigma2_path(params, doubled)
    expected2 = sum(-0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(s2) - a * a / (2.0 * s2)
                    for a, s2 in zip(doubled, path2))
    assert log_likelihood(params, doubled) == pytest.approx(expected2, rel=1e-12)


def _reference_sigma2_path(params, residuals):
    """The recursion as first written, with the filter state from `signal.lfiltic`."""
    a = np.asarray(residuals, dtype=float)
    n, k, l = a.size, params.k, params.l
    seed = float(np.var(a))
    m = max(k, l, 1)
    a2x = np.concatenate([np.full(m, seed), a * a])
    base = np.full(n, params.alpha0)
    if k > 0:
        base = base + np.convolve(a2x, params.alphas)[m - 1:m - 1 + n]
    if l == 0:
        return base
    denom = np.concatenate([[1.0], -params.betas])
    zi = signal.lfiltic([1.0], denom, y=np.full(l, seed))
    return signal.lfilter([1.0], denom, base, zi=zi)[0]


ORDERS = [(1, 1), (2, 2), (10, 10), (3, 0), (0, 2)]


@pytest.mark.parametrize("k,l", ORDERS)
def test_sigma2_path_matches_lfiltic_reference_exactly(k, l):
    rng = np.random.default_rng(10 * k + l)
    residuals = rng.standard_normal(150) * rng.uniform(0.1, 10.0)
    for _ in range(50):
        coeffs = rng.dirichlet(np.ones(k + l)) * rng.uniform(0.05, 1.0)
        params = GarchParams(rng.uniform(1e-3, 2.0), coeffs[:k], coeffs[k:])
        assert np.array_equal(sigma2_path(params, residuals),
                              _reference_sigma2_path(params, residuals))


@pytest.mark.parametrize("l", [1, 2, 3, 10])
def test_filter_state_matches_lfiltic_exactly(l):
    # constant histories (the fit's seed), varying ones (a fit's last
    # variances) and histories longer than l, the extra oldest slots unread
    rng = np.random.default_rng(l)
    denoms, histories = [], []
    for case in range(600):
        denoms.append(np.concatenate([[1.0], -rng.dirichlet(np.ones(l)) * rng.uniform(0.0, 1.0)]))
        if case < 200:
            history = np.full(l, rng.uniform(1e-3, 1e3))
        else:
            history = rng.uniform(1e-3, 1e3, l + case % 3) * rng.uniform(1e-3, 1e3)
        histories.append(history)
        expected = signal.lfiltic([1.0], denoms[-1], y=history[::-1])
        assert np.array_equal(_filter_state(denoms[-1][None, :], history[None, :])[0], expected)
    for width in (l, l + 2):  # many rows at once: each row's floats as alone
        rows = [i for i, h in enumerate(histories) if h.size == width]
        together = _filter_state(np.array([denoms[i] for i in rows]),
                                 np.array([histories[i] for i in rows]))
        for state, i in zip(together, rows):
            alone = _filter_state(denoms[i][None, :], histories[i][None, :])[0]
            assert np.array_equal(state, alone)


@pytest.mark.parametrize("k,l", ORDERS)
def test_search_objective_equals_negative_log_likelihood_exactly(k, l):
    spec = GarchSpec(k, l)
    rng = np.random.default_rng(100 + 10 * k + l)
    a = rng.standard_normal(240)
    a = a / np.std(a)
    series = (a, rng.standard_normal(173))  # one batch, mixed lengths
    dim = 2 + k + l
    thetas = list(rng.normal(0.0, 3.0, size=(1000, dim)))
    edges = {
        "alpha0 underflows": (0, -1000.0),
        "exp overflows": (1, -1000.0),
        # smallest sigmoid the transform reaches: subnormal, never exactly 0
        "sigmoid near 0": (1, -709.7),
        "sigmoid rounds to 1": (1, 40.0),
        "alpha0 clamped": (0, 60.0),
    }
    for index, value in edges.values():
        for theta in rng.normal(0.0, 3.0, size=(20, dim)):
            theta[index] = value
            thetas.append(theta)
    rows = rng.integers(0, 2, size=len(thetas))
    values = _Batch(series, k, l).objective_and_score(rows, np.array(thetas))[0]
    references = [_reference_objective(x, spec) for x in series]
    rejected = 0
    for theta, row, value in zip(thetas, rows, values):
        try:
            expected = -log_likelihood(_theta_to_params(theta, spec), series[row])
        except (InvalidParams, OverflowError):
            expected = 1e300
        assert value == expected == references[row](theta)
        rejected += expected == 1e300
    assert rejected >= 40  # both always-invalid edge groups reached the 1e300 rows


def _per_row_coeffs(theta):
    """alpha0 and the lag coefficients of one search point, with `math.exp`."""
    alpha0 = math.exp(min(theta[0], 50.0))
    try:
        sigmoid = 1.0 / (1.0 + math.exp(-theta[1]))
    except OverflowError:
        sigmoid = 0.0
    w = theta[2:] - theta[2:].max()
    p = np.exp(w)
    p /= p.sum()
    return alpha0, sigmoid * p


@pytest.mark.parametrize("dim", [3, 4, 6, 22])
def test_theta_to_coeffs_equals_per_row_math_exp(dim):
    # with one lag coefficient (dim 3) the coefficient is the sigmoid itself
    rng = np.random.default_rng(dim)
    thetas = rng.normal(0.0, 20.0, size=(3000, dim))
    thetas[:1000, :2] = rng.uniform(-800.0, 800.0, size=(1000, 2))
    edges = [50.0, np.nextafter(50.0, 51.0), 60.0, 709.8, 1e308, -709.7, -709.78, -709.79,
             -710.0, -745.2, -800.0, math.inf, -math.inf, -0.0, 0.0]
    for i, edge in enumerate(edges):
        thetas[1000 + i, 0] = edge  # theta0 above 50 is clamped; -inf gives alpha0 = 0
        thetas[1100 + i, 1] = edge  # theta1 below about -709 overflows exp(-theta1)
    alpha0, coeffs = _theta_to_coeffs(thetas)
    expected = [_per_row_coeffs(theta) for theta in thetas]
    bits = lambda values: np.asarray(values, dtype=float).view(np.uint64)  # noqa: E731
    assert np.array_equal(bits(alpha0), bits([a for a, _ in expected]))
    assert np.array_equal(bits(coeffs), bits([c for _, c in expected]))


def _reference_objective(a_norm, spec):
    """The search objective as written before the buffered evaluator: plain
    expressions, fresh arrays, every constraint tested."""
    a = np.asarray(a_norm, dtype=float)
    n, a2, seed = a.size, a * a, float(np.var(a))
    m = max(spec.k, spec.l, 1)
    a2x = np.concatenate([np.full(m, seed), a2])

    def objective(theta):
        try:
            alpha0 = math.exp(min(theta[0], 50.0))
            total = 1.0 / (1.0 + math.exp(-theta[1]))
            w = theta[2:] - theta[2:].max()
            p = np.exp(w)
            p /= p.sum()
            coeffs = total * p
            alphas, betas = coeffs[:spec.k], coeffs[spec.k:]
            if _constraint_violation(alpha0, alphas, betas) is not None:
                return 1e300
            if alphas.size > 0:
                s2 = alpha0 + np.convolve(a2x, alphas)[m - 1:m - 1 + n]
            else:
                s2 = np.full(n, alpha0)
            if betas.size > 0:
                denom = np.concatenate([[1.0], -betas])
                zi = signal.lfiltic([1.0], denom, y=np.full(betas.size, seed))
                s2, _ = signal.lfilter([1.0], denom, s2, zi=zi)
            return -float(np.sum(-0.5 * math.log(2.0 * math.pi) - 0.5 * np.log(s2)
                                 - a2 / (2.0 * s2)))
        except (FloatingPointError, OverflowError):
            return 1e300

    return objective


NM_XATOL, NM_FATOL = 1e-5, 1e-8


def _scipy(objective, starts, max_iter):
    """scipy's Nelder-Mead on `objective` from one start after another, with
    tolerances NM_XATOL and NM_FATOL: its result per start."""
    dim = starts.shape[1]
    return [optimize.minimize(objective, start, method="Nelder-Mead",
                              options={"maxiter": max_iter, "xatol": NM_XATOL,
                                       "fatol": NM_FATOL, "adaptive": dim > 6})
            for start in starts]


def _searched_fit(monkeypatch, series, spec, options, visits=None):
    """`fit`, and what its search returned; with `visits`, each search's
    points and values recorded there in the order evaluated."""
    found, search = [], garch._bfgs

    def keep(evaluate, *args, **kwargs):
        def record(searches, points):
            values, score = evaluate(searches, points)
            for s, theta, value in zip(searches.tolist(), points, values):
                visits.setdefault(s, []).append((theta.copy(), value))
            return values, score

        found.append(search(record if visits is not None else evaluate, *args, **kwargs))
        return found[-1]

    with monkeypatch.context() as patch:
        patch.setattr(garch, "_bfgs", keep)
        fitted = fit(series, spec, options)
    (result,) = found
    return fitted, result


def _assert_same_fit(fitted, expected):
    """Field for field, bit for bit."""
    assert fitted.params.alpha0 == expected.params.alpha0
    for x, y in ((fitted.params.alphas, expected.params.alphas),
                 (fitted.params.betas, expected.params.betas),
                 (fitted.sigma2_path, expected.sigma2_path),
                 (fitted.residuals, expected.residuals)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert fitted.log_likelihood == expected.log_likelihood
    assert fitted.mean == expected.mean
    assert (fitted.converged, fitted.used_differencing, fitted.used_rolling_fallback) == \
        (expected.converged, expected.used_differencing, expected.used_rolling_fallback)


def _searched_series(k, l):
    return simulate(GarchParams(0.2, [0.15], [0.6]), 120, seed=20 + k + l).values


@pytest.mark.parametrize("k,l", ORDERS)
def test_evaluator_equals_reference_at_every_searched_point(monkeypatch, k, l):
    series, spec = _searched_series(k, l), GarchSpec(k, l)
    reference = _reference_objective(garch._prepare(series, spec, FitOptions()).a_norm, spec)
    visits = {}
    _, found = _searched_fit(monkeypatch, series, spec, FitOptions(), visits)
    assert sorted(visits) == list(range(found.x.shape[0]))
    for s, points in visits.items():
        assert len(points) == found.nfev[s]
        for theta, value in points:
            assert value == reference(theta)
    assert sum(len(v) for v in visits.values()) > 40


@pytest.mark.parametrize("k,l", ORDERS)
def test_search_is_no_worse_than_scipy_nelder_mead(monkeypatch, k, l):
    # the best of the three starts is at least as likely as Nelder-Mead's best
    series, spec, options = _searched_series(k, l), GarchSpec(k, l), FitOptions()
    a_norm = garch._prepare(series, spec, options).a_norm
    _, found = _searched_fit(monkeypatch, series, spec, options)
    assert found.success.any()
    dim = 2 + k + l
    nelder_mead = _scipy(_reference_objective(a_norm, spec), np.array(garch._start_points(spec)),
                         200 * dim if dim <= 8 else 500 * dim)
    assert min(found.fun) <= min(r.fun for r in nelder_mead) + 1e-6


def _central_differences(batch, row, theta, h=1e-6):
    rows = np.array([row])
    out = np.empty(theta.size)
    for q in range(theta.size):
        step = h * max(1.0, abs(theta[q]))
        up, down = theta.copy(), theta.copy()
        up[q] += step
        down[q] -= step
        out[q] = (batch.objective_and_score(rows, up[None])[0][0]
                  - batch.objective_and_score(rows, down[None])[0][0]) / (2 * step)
    return out


@pytest.mark.parametrize("k,l", ORDERS)
def test_score_matches_central_differences(k, l):
    rng = np.random.default_rng(300 + 10 * k + l)
    a = _searched_series(k, l)
    series = (a / np.std(a), rng.standard_normal(173))  # one batch, mixed lengths
    batch, dim = _Batch(series, k, l), 2 + k + l
    thetas = rng.normal(0.0, 1.5, size=(24, dim))
    thetas[0, 0] = 60.0  # alpha0 clamped: flat in theta0
    thetas[1, 1] = -1000.0  # the sigmoid underflows: outside the constraint set
    rows = rng.integers(0, 2, size=thetas.shape[0])
    values, score = batch.objective_and_score(rows, thetas)
    references = [_reference_objective(x, GarchSpec(k, l)) for x in series]
    assert all(v == references[row](theta) for v, row, theta in zip(values, rows, thetas))
    assert values[1] == 1e300 and not score[1].any()
    assert score[0, 0] == 0.0
    for r in range(2, thetas.shape[0]):
        expected = _central_differences(batch, rows[r], thetas[r])
        assert np.allclose(score[r], expected, rtol=1e-6, atol=1e-6 * max(1.0, abs(values[r])))
        # each row's score is the one its series gets in a batch of its own
        alone = _Batch([series[rows[r]]], k, l).objective_and_score(np.zeros(1, dtype=np.intp),
                                                                   thetas[r:r + 1])
        assert alone[0][0] == values[r] and np.array_equal(alone[1][0], score[r])


def _forward_lanes_score(a_norm, spec, theta):
    """df/dtheta as first written: the derivatives of s2 in (alpha0, alphas,
    betas) run forward through the variance filter, one lane per
    coefficient over the regressors [1, a_{t-i}^2, s2_{t-j}] (Fiorentini,
    Calzolari & Panattoni 1996), weighted by df/ds2_t and summed; then the
    chain rule through the transform."""
    a = np.asarray(a_norm, dtype=float)
    n, k, l, seed = a.size, spec.k, spec.l, float(np.var(a))
    m = max(k, l, 1)
    alpha0, coeffs = _per_row_coeffs(theta)
    s2 = sigma2_path(GarchParams(alpha0, coeffs[:k], coeffs[k:]), a)
    a2x = np.concatenate([np.full(m, seed), a * a])
    s2x = np.concatenate([np.full(m, seed), s2])
    lanes = np.array([np.ones(n)]
                     + [a2x[m - 1 - i:m - 1 - i + n] for i in range(k)]
                     + [s2x[m - 1 - j:m - 1 - j + n] for j in range(l)])
    if l:
        lanes = signal.lfilter([1.0], np.concatenate([[1.0], -coeffs[k:]]), lanes, axis=-1)
    grad = (lanes * ((1.0 - a * a / s2) / (2.0 * s2))).sum(axis=1)
    sigmoid, complement = 1.0 / (1.0 + math.exp(-theta[1])), 1.0 / (1.0 + math.exp(theta[1]))
    weighted = float((grad[1:] * coeffs).sum())
    score = np.empty(theta.size)
    score[0] = 0.0 if theta[0] > 50.0 else grad[0] * alpha0
    score[1] = complement * weighted
    score[2:] = coeffs * (grad[1:] - weighted / sigmoid)
    return score


@pytest.mark.parametrize("k,l", ORDERS)
def test_adjoint_score_matches_forward_lanes(k, l):
    rng = np.random.default_rng(400 + 10 * k + l)
    a = _searched_series(k, l)
    series = (a / np.std(a), rng.standard_normal(173), rng.standard_normal(60) * 3.0)
    spec, dim = GarchSpec(k, l), 2 + k + l
    thetas = rng.normal(0.0, 1.5, size=(40, dim))
    rows = rng.integers(0, len(series), size=thetas.shape[0])
    score = _Batch(series, k, l).objective_and_score(rows, thetas)[1]
    for row, theta, got in zip(rows, thetas, score):
        expected = _forward_lanes_score(series[row], spec, theta)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("k,l", [(1, 1), (2, 2), (10, 10), (0, 2), (3, 1)])
def test_score_filters_two_samples_per_slot_of_a_valid_row(monkeypatch, k, l):
    # the variance path and its adjoint, one pass each: no filter per coefficient
    rng = np.random.default_rng(500 + 10 * k + l)
    batch = _Batch((rng.standard_normal(150), rng.standard_normal(97)), k, l)
    thetas = rng.normal(0.0, 1.5, size=(7, 2 + k + l))
    thetas[3, 1] = -1000.0  # outside the constraint set: never filtered
    samples, linear_filter = [], garch._linear_filter

    def counting(b, a, x, axis, zi):
        samples.append(np.asarray(x).size)
        return linear_filter(b, a, x, axis, zi)

    monkeypatch.setattr(garch, "_linear_filter", counting)
    values, _ = batch.objective_and_score(np.array([0, 1, 1, 0, 1, 0, 0]), thetas)
    assert values[3] == 1e300 and (values != 1e300).sum() == 6
    assert sum(samples) == 2 * 150 * 6


@pytest.mark.parametrize("k,l", [(1, 1), (2, 2), (10, 10), (0, 2), (3, 1)])
def test_score_builds_the_denominators_once_per_call(monkeypatch, k, l):
    # the variance path's filter and its adjoint's share one [1, -betas] per row
    rng = np.random.default_rng(600 + 10 * k + l)
    batch = _Batch((rng.standard_normal(150), rng.standard_normal(97)), k, l)
    thetas = rng.normal(0.0, 1.5, size=(5, 2 + k + l))
    thetas[2, 1] = -1000.0  # outside the constraint set: the call runs the other rows again
    built, denominators = [], garch._denominators
    monkeypatch.setattr(garch, "_denominators", lambda betas: built.append(1) or denominators(betas))
    for rows in ([0, 1, 1, 0, 1], [1, 0, 0, 1, 0]):
        batch.objective_and_score(np.array(rows), thetas)
    assert len(built) == 2


@pytest.mark.parametrize("k,l,params", [
    (1, 1, GarchParams(0.1, [0.1], [0.85])),
    (2, 2, GarchParams(0.1, [0.05, 0.05], [0.5, 0.35])),
])
def test_long_series_fit_converges(monkeypatch, k, l, params):
    # the objective sums 20,000 terms: its rounding hides the last decrease
    # before max |g| reaches GTOL, and a search that stops there converged
    series = simulate(params, 20_000, seed=0).values
    fitted, found = _searched_fit(monkeypatch, series, GarchSpec(k, l),
                                  FitOptions(allow_differencing=False))
    assert found.success.all()
    assert fitted.converged and not fitted.used_rolling_fallback
    assert extend_sigma2(fitted, [0.0])[-1] > 0.0
    assert max(found.fun) - min(found.fun) < 1e-6


@pytest.mark.parametrize("k,l", [(1, 1), (3, 0), (0, 2)])
@pytest.mark.parametrize("max_iter", [None, 1], ids=["searched", "fallback"])
def test_fit_many_equals_fit_on_each_series_alone(k, l, max_iter):
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 200, seed=8).values
    series = [sim,
              np.cumsum(sim),  # a random walk: differenced, so one slot shorter
              simulate(GarchParams(0.1, [0.1], [0.8]), 150, seed=9).values]
    spec, options = GarchSpec(k, l), FitOptions(max_iter=max_iter)
    alone = [fit(x, spec, options) for x in series]
    assert [f.used_differencing for f in alone] == [False, True, False]
    assert all(f.used_rolling_fallback is (max_iter == 1) for f in alone)
    for chosen in ([0, 1, 2], [2, 0, 1], [1, 2], [1], [0, 0]):
        fitted = fit_many([series[i] for i in chosen], spec, options)
        assert len(fitted) == len(chosen)
        for f, i in zip(fitted, chosen):
            _assert_same_fit(f, alone[i])
    assert fit_many([], spec, options) == []


def test_log_likelihood_rejects_nan():
    with pytest.raises(InvalidParams):
        log_likelihood(GarchParams(0.1, [0.2], [0.7]), [1.0, float("nan")])


# ---------------------------------------------------------------------------
# Forecast
# ---------------------------------------------------------------------------

def _hand_fit(params, residuals, s2_path):
    a = np.asarray(residuals, dtype=float)
    return GarchFit(params=params, sigma2_path=np.asarray(s2_path, dtype=float), residuals=a,
                    log_likelihood=0.0, mean=0.0, converged=True)


def test_forecast_hand_case():
    fitted = _hand_fit(GarchParams(0.1, [0.2], [0.7]), [2.0], [2.0])
    # the next slot reads only the past: any shock gives it
    for shock in (0.0, 5.0):
        assert extend_sigma2(fitted, [shock])[-1] == pytest.approx(2.3, abs=1e-15)


def test_forecast_without_arch_term():
    fitted = _hand_fit(GarchParams(0.4, [], [0.5]), [3.0], [2.0])
    assert extend_sigma2(fitted, [0.0])[-1] == pytest.approx(0.4 + 0.5 * 2.0)


def test_forecast_positive_for_any_valid_fit():
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 300, seed=8)
    fitted = fit(sim, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    assert extend_sigma2(fitted, [0.0])[-1] > 0.0


def test_extend_sigma2_continues_the_recursion():
    # at (1,1) the filter's two additions are the per-slot sum's, bit for bit
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 300, seed=8).values
    fitted = fit(sim[:250], GarchSpec(1, 1), FitOptions(allow_differencing=False))
    ext = extend_sigma2(fitted, sim[250:] - fitted.mean)
    assert ext.size == 300
    assert np.array_equal(ext[:250], fitted.sigma2_path)
    assert ext[250] == extend_sigma2(fitted, [123.0])[-1]
    (alpha,), (beta,) = fitted.params.alphas, fitted.params.betas
    a = np.concatenate([fitted.residuals, sim[250:] - fitted.mean])
    for t in range(250, 300):
        assert ext[t] == fitted.params.alpha0 + alpha * a[t - 1] ** 2 + beta * ext[t - 1]


def _reference_extension(fitted, shocks):
    """The fit's path continued by `signal.lfilter` from `signal.lfiltic`'s
    state for the fit's last variances, after the ARCH terms of
    `np.convolve` over its last squared residuals."""
    params, a = fitted.params, np.asarray(shocks, dtype=float)
    k, l, m = params.k, params.l, max(params.k, params.l, 1)
    a2x = np.concatenate([fitted.residuals[-m:], a]) ** 2
    base = np.full(a.size, params.alpha0)
    if k > 0:
        base = base + np.convolve(a2x, params.alphas)[m - 1:m - 1 + a.size]
    if l > 0:
        denom = np.concatenate([[1.0], -params.betas])
        zi = signal.lfiltic([1.0], denom, y=fitted.sigma2_path[::-1][:l])
        base = signal.lfilter([1.0], denom, base, zi=zi)[0]
    return np.concatenate([fitted.sigma2_path, base])


@pytest.mark.parametrize("k,l", ORDERS)
@pytest.mark.parametrize("differencing", [False, True])
def test_extend_sigma2_is_the_filter_from_the_fits_last_slots(k, l, differencing):
    # a seed whose (2,2) and (10,10) fits weigh more than one lagged variance
    sim = simulate(GarchParams(0.1, [0.15], [0.8]), 670, seed=5).values
    series = np.cumsum(sim) if differencing else sim
    fitted = fit(series[:600], GarchSpec(k, l))
    assert fitted.used_differencing is differencing and not fitted.used_rolling_fallback
    held = series[600:] - (series[599:-1] if differencing else 0.0)
    shocks = held - fitted.mean
    expected = _reference_extension(fitted, shocks)
    assert np.array_equal(extend_sigma2(fitted, shocks), expected)
    # a shorter extension is a prefix of a longer one, and an empty one is the path
    assert np.array_equal(extend_sigma2(fitted, shocks[:5]), expected[:605])
    assert np.array_equal(extend_sigma2(fitted, []), fitted.sigma2_path)


# ---------------------------------------------------------------------------
# Rolling-variance fallback
# ---------------------------------------------------------------------------

def test_rolling_sigma2_reads_only_past_and_present_slots():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(60)
    floor = rolling_floor(a)
    path = rolling_sigma2(a, floor)
    for t in range(a.size):
        changed = a.copy()
        changed[t + 1:] += 100.0 * rng.standard_normal(a.size - t - 1)
        assert np.array_equal(rolling_sigma2(changed, floor)[:t + 1], path[:t + 1])
    assert path[20] == max(np.var(a[9:21]), floor)
    assert path[0] == floor  # a single shock has zero variance


def _rolling_sigma2_loop(shocks, floor):
    """The fallback path as first written: one `np.var` per slot."""
    a = np.asarray(shocks, dtype=float).reshape(-1)
    out = np.empty(a.size)
    for t in range(a.size):
        out[t] = np.var(a[max(0, t - ROLLING_WINDOW + 1):t + 1])
    return np.maximum(out, floor)


def test_rolling_sigma2_equals_the_per_slot_loop():
    # the loop's slot t reads a[:t + 1] only, so one loop over each series
    # serves every prefix of it
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(10):
        a = rng.standard_normal(700) * rng.uniform(0.01, 100.0) + rng.uniform(-50.0, 50.0)
        floor = rolling_floor(a)
        cases.append((a, floor, _rolling_sigma2_loop(a, floor)))
    for n in range(1, 701):  # from shorter than one window up
        a, floor, expected = cases[n % 10]
        assert np.array_equal(rolling_sigma2(a[:n], floor), expected[:n])


def test_fit_fallback_is_trailing_and_extends_exactly():
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 300, seed=8).values
    fitted = fit(sim[:250], GarchSpec(1, 1), FitOptions(max_iter=1))
    assert fitted.used_rolling_fallback and not fitted.converged
    floor = rolling_floor(fitted.residuals)
    assert np.array_equal(fitted.sigma2_path, rolling_sigma2(fitted.residuals, floor))
    ext = extend_sigma2(fitted, sim[250:] - fitted.mean)
    assert np.array_equal(ext[:250], fitted.sigma2_path)
    a = np.concatenate([fitted.residuals, sim[250:] - fitted.mean])
    assert ext[260] == max(np.var(a[249:261]), floor)
    flat = extend_sigma2(fitted, np.full(20, 50.0))  # zero-variance windows take the floor
    assert flat[-1] == floor


@pytest.mark.parametrize("differencing", [False, True])
def test_fit_fallback_reports_the_likelihood_of_its_path(differencing):
    # levels: a stationary simulation; differenced: its random walk, which
    # fails the unit-root rejection
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 250, seed=8).values
    series = np.cumsum(sim) if differencing else sim
    fitted = fit(series, GarchSpec(1, 1), FitOptions(max_iter=1))
    assert fitted.used_rolling_fallback and fitted.used_differencing is differencing
    a, s2 = fitted.residuals, fitted.sigma2_path
    assert a.size == s2.size == series.size
    want = math.fsum(-0.5 * math.log(2 * math.pi * v) - x * x / (2 * v) for x, v in zip(a, s2))
    assert fitted.log_likelihood == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("differencing", [False, True], ids=["plain", "differenced"])
def test_fit_reports_the_likelihood_of_its_returned_path(differencing):
    # the converged counterpart of the fallback test above, on the same series
    sim = simulate(GarchParams(0.3, [0.2], [0.5]), 300, seed=8).values
    series = np.cumsum(sim) if differencing else sim
    fitted = fit(series, GarchSpec(1, 1))
    assert fitted.converged and fitted.used_differencing is differencing
    a, s2 = fitted.residuals, fitted.sigma2_path
    assert a.size == s2.size == series.size
    want = math.fsum(-0.5 * math.log(2 * math.pi * v) - x * x / (2 * v) for x, v in zip(a, s2))
    assert fitted.log_likelihood == pytest.approx(want, rel=1e-12)
    if differencing:  # the search's own n-1 differenced shocks give -432.04
        assert fitted.log_likelihood == pytest.approx(-434.31, abs=0.005)
    else:  # bit-identical to the public function on the fitted residuals
        assert fitted.log_likelihood == log_likelihood(fitted.params, a)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_deterministic_per_seed():
    params = GarchParams(0.1, [0.1], [0.8])
    a = simulate(params, 500, seed=42)
    b = simulate(params, 500, seed=42)
    assert np.array_equal(a.values, b.values)
    c = simulate(params, 500, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_simulate_matches_stationary_variance():
    # unconditional variance alpha0 / (1 - sum) = 1.0 for these parameters
    sample = simulate(GarchParams(0.1, [0.1], [0.8]), 50_000, seed=12)
    assert float(np.var(sample.values)) == pytest.approx(1.0, rel=0.10)


def test_simulate_rejects_bad_length():
    with pytest.raises(InvalidParams):
        simulate(GarchParams(0.1, [0.1], [0.8]), 0, seed=1)


# ---------------------------------------------------------------------------
# Fit
# ---------------------------------------------------------------------------

def test_fit_recovers_simulation_parameters():
    truth = GarchParams(0.1, [0.1], [0.8])
    sim = simulate(truth, 5000, seed=7)
    fitted = fit(sim, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    assert fitted.params.alphas[0] == pytest.approx(0.1, abs=0.10)
    assert fitted.params.betas[0] == pytest.approx(0.8, abs=0.10)
    assert fitted.params.persistence == pytest.approx(0.9, abs=0.08)
    assert fitted.converged


def test_fit_likelihood_never_below_start():
    sim = simulate(GarchParams(0.2, [0.15], [0.7]), 800, seed=3)
    fitted = fit(sim, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    a = fitted.residuals
    # documented initial point: persistence 0.9, ARCH share 0.11, variance-matched alpha0
    scale = float(np.var(a))
    start = GarchParams(0.1 * scale, [0.9 * 0.11], [0.9 * 0.89])
    assert fitted.log_likelihood >= log_likelihood(start, a) - 1e-9


def test_fit_iid_noise_finds_no_dynamics():
    rng = np.random.default_rng(13)
    fitted = fit(rng.standard_normal(2000), GarchSpec(1, 1), FitOptions(allow_differencing=False))
    assert fitted.params.persistence < 0.2
    standardized = fitted.residuals / np.sqrt(fitted.sigma2_path)
    _, present = arch_lm_test(standardized, 12)
    assert not present


def test_fit_constant_series_rejected():
    with pytest.raises(DegenerateSeries):
        fit(TimeSeries(np.full(100, 2.0)), GarchSpec(1, 1))


def test_fit_too_short_rejected():
    with pytest.raises(TooShort):
        fit(TimeSeries([1.0, 2.0]), GarchSpec(5, 5))


def test_fit_scale_equivariance():
    sim = simulate(GarchParams(0.1, [0.1], [0.8]), 3000, seed=9)
    base = fit(sim.values, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    scaled = fit(3.0 * sim.values, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    assert scaled.params.alpha0 / base.params.alpha0 == pytest.approx(9.0, abs=1e-3)
    assert scaled.params.alphas[0] == pytest.approx(base.params.alphas[0], abs=1e-3)
    assert scaled.params.betas[0] == pytest.approx(base.params.betas[0], abs=1e-3)
    assert np.allclose(scaled.sigma2_path, 9.0 * base.sigma2_path, rtol=1e-3)


def test_fit_trend_series_uses_differencing():
    t = np.arange(300, dtype=float)
    rng = np.random.default_rng(5)
    trending = 10.0 + 0.5 * t + rng.standard_normal(300)
    fitted = fit(trending, GarchSpec(1, 1))
    assert fitted.used_differencing
    assert fitted.sigma2_path.size == 300  # re-aligned to the level series


def test_fit_deterministic():
    sim = simulate(GarchParams(0.1, [0.2], [0.6]), 600, seed=2)
    a = fit(sim, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    b = fit(sim, GarchSpec(1, 1), FitOptions(allow_differencing=False))
    assert a.params.alpha0 == b.params.alpha0
    assert np.array_equal(a.sigma2_path, b.sigma2_path)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_adf_rejects_on_iid_noise():
    rng = np.random.default_rng(11)
    stat, reject = adf_test(rng.standard_normal(500), lags=1)
    assert reject
    assert stat < -10.0


def test_adf_accepts_unit_root_on_random_walk():
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.standard_normal(500))
    stat, reject = adf_test(walk, lags=1)
    assert not reject
    assert stat > -2.86


def test_adf_trend_vs_oscillation_qualitative():
    # index-like trending input fails to reject; a demeaned oscillatory mode rejects
    from modecast.synthetic import cpi_like

    series = cpi_like()
    stat_trend, reject_trend = adf_test(series.values, lags=12)
    assert not reject_trend
    t = np.arange(500)
    rng = np.random.default_rng(2)
    osc = np.cos(2 * np.pi * 0.2 * t) + 0.05 * rng.standard_normal(500)
    stat_osc, reject_osc = adf_test(osc, lags=12)
    assert reject_osc
    assert stat_osc < stat_trend


def test_adf_too_short():
    with pytest.raises(TooShort):
        adf_test(np.arange(12.0), lags=6)


def test_arch_lm_detects_garch_effects():
    sim = simulate(GarchParams(0.1, [0.3], [0.6]), 2000, seed=5)
    stat, present = arch_lm_test(sim, 12)
    assert present
    assert stat > 21.026


def test_arch_lm_clean_on_iid_noise():
    rng = np.random.default_rng(13)
    stat, present = arch_lm_test(rng.standard_normal(2000), 12)
    assert not present


def test_arch_lm_rejects_zero_lags():
    with pytest.raises(ValueError):
        arch_lm_test(np.arange(100.0), 0)


def test_lag_count_errors_are_typed():
    for diagnostic in (adf_test, arch_lm_test):
        with pytest.raises(InvalidLags):
            diagnostic(np.arange(100.0), 0)
    assert issubclass(InvalidLags, ValueError)


def test_chi2_critical_value_constant():
    assert float(stats.chi2.ppf(0.95, 12)) == pytest.approx(21.026, abs=1e-3)


def test_chi2_critical_95_equals_scipy_stats_bit_for_bit():
    for lags in range(1, 201):
        want = float(stats.chi2.ppf(0.95, lags))
        assert garch.chi2_critical_95(lags).hex() == want.hex(), lags

