from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modecast.data import load_csv
from modecast.errors import TooShort
from modecast.series import TimeSeries
from modecast.vmd import (
    ModeSet,
    VmdConfig,
    _init_omegas,
    crop_center,
    mirror_extend,
    vmd_decompose,
)


def _corr(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# Boundary treatment
# ---------------------------------------------------------------------------

def test_mirror_extend_hand_case():
    assert np.array_equal(mirror_extend([1, 2, 3, 4]), [2, 1, 1, 2, 3, 4, 4, 3])


def test_mirror_extend_too_short():
    with pytest.raises(TooShort):
        mirror_extend([1.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=64))
def test_crop_center_inverts_mirror_extend(values):
    x = np.array(values)
    assert np.array_equal(crop_center(mirror_extend(x)), x)


def test_crop_center_acts_on_the_last_axis():
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    extended = np.stack([mirror_extend(r) for r in rows])
    assert np.array_equal(crop_center(extended), rows)
    for bad in ([1.0, 2.0], np.zeros((2, 5))):
        with pytest.raises(TooShort):
            crop_center(bad)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mirror", [True, False])
@pytest.mark.parametrize("length", [2, 3, 128, 257])
def test_single_unpenalized_mode_returns_the_input(length, mirror):
    # one mode with a negligible bandwidth penalty keeps the whole spectrum, so
    # the forward and inverse transforms must round-trip the signal, with and
    # without a Nyquist bin (an odd unmirrored length has none)
    x = np.random.default_rng(length).standard_normal(length)
    ms = vmd_decompose(x, VmdConfig(n_modes=1, alpha=1e-9, tau=0.0, mirror=mirror))
    assert np.abs(ms.modes[0] - x).max() <= 1e-8 * np.abs(x).max()


def test_single_tone_recovery():
    t = np.arange(512)
    x = np.cos(2 * np.pi * 0.10 * t)
    ms = vmd_decompose(x, VmdConfig(n_modes=1, alpha=2000.0))
    assert abs(ms.omegas[0] - 0.10) <= 2.0 / 512
    assert _corr(ms.modes[0], x) > 0.99


def test_two_tone_recovery():
    t = np.arange(1024)
    tone1 = np.cos(2 * np.pi * 0.05 * t)
    tone2 = np.cos(2 * np.pi * 0.25 * t + 0.7)
    ms = vmd_decompose(tone1 + tone2, VmdConfig(n_modes=2, alpha=2000.0))
    assert abs(ms.omegas[0] - 0.05) <= 2.0 / 1024
    assert abs(ms.omegas[1] - 0.25) <= 2.0 / 1024
    assert _corr(ms.modes[0], tone1) > 0.99
    assert _corr(ms.modes[1], tone2) > 0.99


def test_constant_signal_dc_mode():
    x = np.full(64, 3.7)
    ms = vmd_decompose(x, VmdConfig(n_modes=1, dc_mode=True))
    assert ms.omegas[0] == 0.0
    assert np.abs(ms.modes[0] - 3.7).max() < 1e-6 * 3.7


def test_too_short_for_mode_count():
    with pytest.raises(TooShort):
        vmd_decompose(np.arange(5.0), VmdConfig(n_modes=3))


def test_no_convergence_is_not_an_error():
    rng = np.random.default_rng(0)
    ms = vmd_decompose(rng.standard_normal(128), VmdConfig(n_modes=2, max_iter=2))
    assert ms.iterations == 2
    assert np.isfinite(ms.final_delta)


def test_omegas_sorted_and_in_range():
    rng = np.random.default_rng(3)
    ms = vmd_decompose(rng.standard_normal(200), VmdConfig(n_modes=4))
    assert np.all(np.diff(ms.omegas) >= 0)
    assert np.all(ms.omegas >= 0.0) and np.all(ms.omegas <= 0.5)


def test_reconstruction_accounting_seeded_signals():
    # modes + residual reproduce the input to 1e-10 * max|input|
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(101 + seed)
        ms = vmd_decompose(x, VmdConfig(n_modes=3))
        gap = np.abs(x - ms.modes.sum(axis=0) - ms.residual).max()
        assert gap <= 1e-10 * np.abs(x).max()


def test_final_delta_below_tol_when_converged():
    t = np.arange(256)
    cfg = VmdConfig(n_modes=1, alpha=2000.0, tol=1e-7, max_iter=500)
    ms = vmd_decompose(np.cos(2 * np.pi * 0.1 * t), cfg)
    assert ms.iterations < cfg.max_iter
    assert ms.final_delta <= cfg.tol
    assert ms.converged is True


def test_reference_settings_do_not_converge_on_cpi_fixture():
    # K=10, tol 1e-7: the sweep runs out of max_iter, and the mode set says so
    fixture = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
    cfg = VmdConfig(n_modes=10, alpha=2000.0, tol=1e-7)
    ms = vmd_decompose(load_csv(fixture), cfg)
    assert ms.converged is False
    assert ms.iterations == cfg.max_iter
    assert ms.final_delta >= cfg.tol


def test_bit_deterministic_across_runs():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    cfg = VmdConfig(n_modes=3, init_omega="random", seed=11)
    a = vmd_decompose(x, cfg)
    b = vmd_decompose(x, cfg)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.omegas, b.omegas)
    assert a.iterations == b.iterations


def test_wiener_shrinkage_energy_concentration():
    # tau=0, large alpha: >= 90% of each mode's spectral energy within 0.05 of omega_k
    t = np.arange(1024)
    x = np.cos(2 * np.pi * 0.05 * t) + np.cos(2 * np.pi * 0.25 * t)
    ms = vmd_decompose(x, VmdConfig(n_modes=2, alpha=2000.0, tau=0.0))
    freqs = np.abs(np.fft.fftfreq(1024))
    for k in range(2):
        spectrum = np.abs(np.fft.fft(ms.modes[k])) ** 2
        in_band = spectrum[np.abs(freqs - ms.omegas[k]) <= 0.05].sum()
        assert in_band >= 0.90 * spectrum.sum()


def test_variance_partition_on_index_like_signal():
    from modecast.synthetic import cpi_like

    series = cpi_like()
    ms = vmd_decompose(series, VmdConfig(n_modes=6))
    var_sum = sum(float(np.var(m)) for m in ms.modes)
    assert var_sum <= 1.05 * float(np.var(series.values))


def test_imaginary_leakage_small():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(257)  # odd length, mirrored to an even 514-point transform
    ms = vmd_decompose(x, VmdConfig(n_modes=2))
    assert np.all(np.isreal(ms.modes))


def test_unmirrored_odd_length_signal():
    # odd transform length has no Nyquist bin; the real inverse transform must
    # still give modes of the input length and exact accounting
    rng = np.random.default_rng(2)
    x = rng.standard_normal(201)
    ms = vmd_decompose(x, VmdConfig(n_modes=2, mirror=False))
    gap = np.abs(x - ms.modes.sum(axis=0) - ms.residual).max()
    assert gap <= 1e-10 * np.abs(x).max()
    t = np.arange(501)
    ms2 = vmd_decompose(np.cos(2 * np.pi * 0.2 * t), VmdConfig(n_modes=1, mirror=False))
    assert abs(ms2.omegas[0] - 0.2) <= 2.0 / 501


def _reference_decompose(signal, config):
    """The sweep as written before it moved into preallocated buffers: fresh
    arrays, numpy scalars, every measure recomputed from the modes."""
    x = np.asarray(signal, dtype=float).reshape(-1)
    t_len, k_modes = x.size, config.n_modes
    f = mirror_extend(x) if config.mirror else x
    n = f.size
    f_plus = np.fft.rfft(f)
    freqs = np.arange(f_plus.size) / n
    u = np.zeros((k_modes, f_plus.size), dtype=complex)
    lam = np.zeros(f_plus.size, dtype=complex)
    omega = _init_omegas(config)
    iterations, delta = 0, np.inf
    for iterations in range(1, config.max_iter + 1):
        u_prev = u.copy()
        total = u.sum(axis=0)
        for k in range(k_modes):
            others = total - u[k]
            u_new = (f_plus - others + lam / 2.0) / (1.0 + 2.0 * config.alpha * (freqs - omega[k]) ** 2)
            total = others + u_new
            u[k] = u_new
            if not (config.dc_mode and k == 0):
                power = np.abs(u[k]) ** 2
                mass = power.sum()
                if mass > 0.0:
                    omega[k] = float((freqs * power).sum() / mass)
        for i in range(k_modes):
            for j in range(i + 1, k_modes):
                if abs(omega[i] - omega[j]) < 1e-6:
                    omega[j] += 1.0 / (4.0 * t_len)
        np.clip(omega, 0.0, 0.5, out=omega)
        if config.tau > 0.0:
            lam = lam + config.tau * (f_plus - u.sum(axis=0))
        num = np.abs(u - u_prev) ** 2
        den = (np.abs(u_prev) ** 2).sum(axis=1) + np.finfo(float).eps
        delta = float((num.sum(axis=1) / den).sum())
        if delta < config.tol:
            break
    modes = np.fft.irfft(u[np.argsort(omega)], n=n)
    if config.mirror:
        modes = crop_center(modes)
    return ModeSet(modes=modes, omegas=np.sort(omega), residual=x - modes.sum(axis=0),
                   iterations=iterations, final_delta=delta, converged=delta < config.tol)


REFERENCE_CASES = [
    *(dict(n_modes=k, max_iter=60) for k in range(1, 11)),
    dict(n_modes=3, tau=0.2, max_iter=60),
    dict(n_modes=4, dc_mode=True, max_iter=60),
    dict(n_modes=3, mirror=False, max_iter=60),  # odd length: no Nyquist bin
    dict(n_modes=3, init_omega="zero", max_iter=60),
    dict(n_modes=3, init_omega="random", seed=4, max_iter=60),
    dict(n_modes=2, tol=1e-6),  # stops on tol
    dict(n_modes=5, max_iter=9),  # runs out of sweeps
]


@pytest.mark.parametrize("settings", REFERENCE_CASES)
def test_decomposition_equals_reference_sweep_bit_for_bit(settings):
    t = np.arange(151)
    x = (np.cos(2 * np.pi * 0.04 * t) + 0.5 * np.cos(2 * np.pi * 0.21 * t + 0.3)
         + 0.2 * np.random.default_rng(7).standard_normal(t.size) + 0.01 * t)
    config = VmdConfig(**settings)
    got, expected = vmd_decompose(x, config), _reference_decompose(x, config)
    for field in ("modes", "omegas", "residual"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert (got.iterations, got.final_delta, got.converged) == \
        (expected.iterations, expected.final_delta, expected.converged)
    if "tol" in settings:
        assert got.converged and got.iterations < config.max_iter
    if settings.get("max_iter") == 9:
        assert not got.converged and got.iterations == 9


def test_cpi_fixture_decomposition_equals_reference_sweep():
    fixture = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
    x = load_csv(fixture).values
    config = VmdConfig(n_modes=10, alpha=2000.0, tol=1e-7)
    got, expected = vmd_decompose(x, config), _reference_decompose(x, config)
    for field in ("modes", "omegas", "residual"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert (got.iterations, got.final_delta, got.converged) == \
        (expected.iterations, expected.final_delta, expected.converged)


def _buffered_decompose(signal, config):
    """The buffered sweep as written before the filter denominators and the
    centroids moved out of the per-mode loop: every step of mode k, its
    centroid included, inside that loop."""
    x = np.asarray(signal, dtype=float).reshape(-1)
    t_len, k_modes = x.size, config.n_modes
    f = mirror_extend(x) if config.mirror else x
    n = f.size
    f_plus = np.fft.rfft(f)
    freqs = np.arange(f_plus.size) / n
    _sum = np.add.reduce
    u = np.zeros((k_modes, f_plus.size), dtype=complex)
    u_prev = np.zeros_like(u)
    total, others = np.empty_like(f_plus), np.empty_like(f_plus)
    lam, lam_half = np.zeros_like(f_plus), np.empty_like(f_plus)
    wiener, power, moment = np.empty_like(freqs), np.empty_like(freqs), np.empty_like(freqs)
    change = np.empty_like(u)
    sq_change = np.empty(u.shape)
    prev_mass = np.zeros(k_modes)
    mass = np.empty(k_modes)
    omega = _init_omegas(config).tolist()
    two_alpha = 2.0 * config.alpha
    nudge = 1.0 / (4.0 * t_len)

    iterations = 0
    delta = np.inf
    for iterations in range(1, config.max_iter + 1):
        u, u_prev = u_prev, u
        _sum(u_prev, axis=0, out=total)
        np.divide(lam, 2.0, out=lam_half)
        for k in range(k_modes):
            uk = u[k]
            np.subtract(total, u_prev[k], out=others)
            np.subtract(f_plus, others, out=uk)
            np.add(uk, lam_half, out=uk)
            np.subtract(freqs, omega[k], out=wiener)
            np.square(wiener, out=wiener)
            np.multiply(two_alpha, wiener, out=wiener)
            np.add(1.0, wiener, out=wiener)
            np.divide(uk, wiener, out=uk)
            np.add(others, uk, out=total)
            np.absolute(uk, out=power)
            np.square(power, out=power)
            mass[k] = _sum(power)
            if not (config.dc_mode and k == 0) and mass[k] > 0.0:
                omega[k] = float(_sum(np.multiply(freqs, power, out=moment)) / mass[k])
        for i in range(k_modes):
            for j in range(i + 1, k_modes):
                if abs(omega[i] - omega[j]) < 1e-6:
                    omega[j] += nudge
        omega = np.clip(omega, 0.0, 0.5).tolist()
        if config.tau > 0.0:
            lam_step = _sum(u, axis=0, out=total)
            np.subtract(f_plus, lam_step, out=lam_step)
            np.multiply(config.tau, lam_step, out=lam_step)
            np.add(lam, lam_step, out=lam)
        np.subtract(u, u_prev, out=change)
        np.absolute(change, out=sq_change)
        np.square(sq_change, out=sq_change)
        prev_mass += np.finfo(float).eps
        delta = float(_sum(_sum(sq_change, axis=1) / prev_mass))
        prev_mass, mass = mass, prev_mass
        if delta < config.tol:
            break

    omega = np.array(omega)
    modes = np.fft.irfft(u[np.argsort(omega)], n=n)
    if config.mirror:
        modes = crop_center(modes)
    return ModeSet(modes=modes, omegas=np.sort(omega), residual=x - modes.sum(axis=0),
                   iterations=iterations, final_delta=delta, converged=delta < config.tol)


@pytest.mark.parametrize("k_modes", [1, 3, 10])
def test_decomposition_equals_buffered_sweep_bit_for_bit(k_modes):
    t = np.arange(120)
    x = (np.cos(2 * np.pi * 0.07 * t) + 0.4 * np.sin(2 * np.pi * 0.31 * t)
         + 0.3 * np.random.default_rng(11).standard_normal(t.size) + 2.0)
    config = VmdConfig(n_modes=k_modes, tau=0.3, dc_mode=True, mirror=False,
                       init_omega="random", seed=9, max_iter=80)
    got, expected = vmd_decompose(x, config), _buffered_decompose(x, config)
    for field in ("modes", "omegas", "residual"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
    assert (got.iterations, got.final_delta, got.converged) == \
        (expected.iterations, expected.final_delta, expected.converged)


def test_complex_by_real_division_equals_product_with_the_reciprocal():
    # the sweep divides each mode by its real filter denominator w as
    # u * (1 / w): numpy divides by w + 0j with rat = 0 / w and scl = 1 / w, so
    # the two agree bit for bit over spectra of every scale, and on the +0.0
    # imaginary parts of a real signal's DC and Nyquist bins
    rng = np.random.default_rng(3)
    n = 20_000
    magnitude = 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    u = (rng.choice([-1.0, 1.0], (2, n)) * magnitude).view(complex).reshape(-1)
    u.imag[rng.random(n) < 0.1] = 0.0
    w = rng.uniform(1.0, 1e6, n)
    inv = np.empty_like(u)
    np.divide(1.0, w, out=inv)
    assert np.divide(u, w).view(float).tobytes() == np.multiply(u, inv).view(float).tobytes()


def test_reconstruct_plus_residual_reproduces_input():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(180)
    ms = vmd_decompose(TimeSeries(x), VmdConfig(n_modes=2))
    rebuilt = ms.modes.sum(axis=0) + ms.residual
    assert np.abs(rebuilt - x).max() <= 1e-10 * np.abs(x).max()
