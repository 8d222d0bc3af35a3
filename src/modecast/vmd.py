"""Variational mode decomposition: split a signal into K band-limited modes.

The decomposition minimizes the summed bandwidth of K analytic-signal modes
subject to the modes adding up to the input, via an augmented Lagrangian with
a quadratic penalty weighted by `alpha` and a multiplier updated by dual
ascent with step `tau`.  All updates run on the one-sided frequency grid
omega in [0, 0.5] cycles/sample (negative frequencies are left out during the
iteration, realizing the analytic-signal kernel, and restored by conjugate
symmetry in the real inverse transform).

Per-block stationary points of the Lagrangian give the update sweep used here:

    u_hat_k  <-  (f_hat - sum_{i != k} u_hat_i + lambda_hat / 2)
                 / (1 + 2 * alpha * (omega - omega_k)^2)

    omega_k  <-  sum(omega * |u_hat_k|^2) / sum(|u_hat_k|^2)
                 (discrete sums over the one-sided grid)

    lambda_hat  <-  lambda_hat + tau * (f_hat - sum_k u_hat_k)

The first line is the Wiener-filter minimizer of the quadratic-in-u_hat_k
Lagrangian terms ``alpha * (omega - omega_k)^2 |u_hat_k|^2 +
|f_hat - sum u_hat_i + lambda_hat/2|^2`` at fixed omega_k (set the derivative
with respect to u_hat_k* to zero).  The second is the minimizer of the
bandwidth term alone at fixed u_hat_k: the spectral centroid.  Modes are
updated in a sequential k = 1..K sweep (each update sees the already-updated
lower-index modes), which makes the result bit-deterministic.

Transforms are numpy's real FFT (`np.fft.rfft` / `irfft`), which handles any
length without padding.  The sweep writes into buffers allocated once.  Since
mode k's filter reads only omega_k, and omega_k moves only after mode k is
updated, each sweep builds the K filter denominators first and updates the K
centroids after the last mode.  A mode's power sum from its centroid update
is kept as the next sweep's convergence denominator; each float is the one
the plain expressions above give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, TooShort
from .series import TimeSeries

_EPS = np.finfo(float).eps
_sum = np.add.reduce  # `x.sum()` without the method's Python wrapper


# ---------------------------------------------------------------------------
# Boundary treatment
# ---------------------------------------------------------------------------

def mirror_extend(signal) -> np.ndarray:
    """Reflect the first T//2 samples before and the rest after: length 2T."""
    x = np.asarray(signal, dtype=float).reshape(-1)
    t = x.size
    if t < 2:
        raise TooShort(f"mirror extension needs at least 2 samples, got {t}")
    half = t // 2
    return np.concatenate([x[:half][::-1], x, x[half:][::-1]])


def crop_center(extended) -> np.ndarray:
    """Exact inverse of mirror_extend along the last axis: the middle T of 2T samples."""
    x = np.atleast_1d(extended)
    n = x.shape[-1]
    if n < 4 or n % 2 != 0:
        raise TooShort(f"expected an even-length mirror-extended signal, got length {n}")
    t = n // 2
    half = t // 2
    return x[..., half:half + t]


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VmdConfig:
    """Settings for one decomposition run.

    n_modes: number K of band-limited modes to extract (user supplied).
    alpha: bandwidth penalty weight; larger alpha gives narrower-band modes.
    tau: dual-ascent step for the reconstruction multiplier (0 disables it,
        trading exact-reconstruction pressure for noise robustness).
    tol: stop when sum_k ||du_hat_k||^2 / ||u_hat_k||^2 falls below this.
    init_omega: "uniform" places omega_k = 0.5 * k / K, "zero" starts all at
        zero, "random" draws uniformly from [0, 0.5] with `seed`.
    mirror: extend the signal to 2T by reflection before transforming.
    dc_mode: pin omega_1 = 0 so the first mode tracks the running mean.
    """

    n_modes: int
    alpha: float = 2000.0
    tau: float = 0.0
    tol: float = 1e-7
    max_iter: int = 500
    init_omega: str = "uniform"
    seed: int = 0
    mirror: bool = True
    dc_mode: bool = False

    def __post_init__(self):
        if self.n_modes < 1:
            raise ConfigError(f"n_modes must be >= 1, got {self.n_modes}")
        if not 0 < self.alpha < np.inf:  # NaN included
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 <= self.tau < np.inf:
            raise ConfigError(f"tau must be finite and >= 0, got {self.tau}")
        if not 0 < self.tol < np.inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.init_omega not in ("uniform", "zero", "random"):
            raise ConfigError(f"unknown init_omega '{self.init_omega}'")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModeSet:
    """K real modes of input length T, their center frequencies, and the gap.

    modes: (K, T) array, rows sorted by ascending center frequency.
    omegas: (K,) center frequencies in cycles/sample, each in [0, 0.5].
    residual: input - modes.sum(axis=0), stored exactly as computed, so
        recomputing that difference from the input reproduces it bit for
        bit. modes.sum(axis=0) + residual returns the input only up to
        rounding: where the subtraction rounds (series that cross zero), it
        misses by an ulp.
    converged: True when the sweep stopped on `tol`, False when it ran out
        of `max_iter` sweeps.
    """

    modes: np.ndarray
    omegas: np.ndarray
    residual: np.ndarray
    iterations: int
    final_delta: float
    converged: bool

    @property
    def n_modes(self) -> int:
        return int(self.modes.shape[0])


def _init_omegas(config: VmdConfig) -> np.ndarray:
    k = config.n_modes
    if config.init_omega == "uniform":
        om = 0.5 * np.arange(1, k + 1) / k
    elif config.init_omega == "zero":
        om = np.zeros(k)
    else:
        om = np.random.default_rng(config.seed).uniform(0.0, 0.5, size=k)
    if config.dc_mode:
        om[0] = 0.0
    return om


def vmd_decompose(signal: TimeSeries | np.ndarray, config: VmdConfig) -> ModeSet:
    """Decompose `signal` into config.n_modes band-limited modes.

    Failure to reach `tol` within `max_iter` sweeps is not an error; the
    result is returned with `converged` False and the last convergence
    measure in `final_delta`.
    """
    x = signal.values if isinstance(signal, TimeSeries) else np.asarray(signal, dtype=float)
    x = x.reshape(-1)
    t_len = x.size
    k_modes = config.n_modes
    if t_len < 2 * k_modes:
        raise TooShort(f"need at least {2 * k_modes} samples for {k_modes} modes, got {t_len}")
    if not np.isfinite(x).all():
        raise NumericalError("signal contains non-finite values")

    f = mirror_extend(x) if config.mirror else x
    n = f.size
    f_plus = np.fft.rfft(f)  # one-sided spectrum on the grid 0..n//2
    freqs = np.arange(f_plus.size) / n

    # The sweep writes into these buffers: `u` the modes being updated, `u_prev`
    # the previous sweep's (the two swap each sweep), `total` the running sum
    # of the modes, `others` the sum of all but mode k, `lam` the multiplier,
    # `wiener` the K filter denominators, then their reciprocals, `power` the
    # modes' |u_hat_k|^2.
    u = np.zeros((k_modes, f_plus.size), dtype=complex)
    u_prev = np.zeros_like(u)
    total, others = np.empty_like(f_plus), np.empty_like(f_plus)
    lam, lam_half = np.zeros_like(f_plus), np.empty_like(f_plus)
    wiener, power = np.empty(u.shape), np.empty(u.shape)
    change = np.empty_like(u)
    sq_change = np.empty(u.shape)
    # |u_prev[k]|^2 summed over the grid: the convergence measure's
    # denominators, kept from the sweep that made u_prev (zero at the start)
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
        if config.tau > 0.0:
            np.divide(lam, 2.0, out=lam_half)
        # 1 + 2 * alpha * (freqs - omega_k)^2 for every k at once
        np.subtract(freqs, np.array(omega)[:, None], out=wiener)
        np.square(wiener, out=wiener)
        np.multiply(two_alpha, wiener, out=wiener)
        np.add(1.0, wiener, out=wiener)
        # numpy divides a complex u by the real w + 0j as u * (1 / w), bit for
        # bit, so the sweep multiplies by the reciprocals
        np.reciprocal(wiener, out=wiener)
        for k in range(k_modes):
            uk = u[k]
            # u_k = (f_plus - others + lam / 2) / wiener_k
            np.subtract(total, u_prev[k], out=others)
            np.subtract(f_plus, others, out=uk)
            if config.tau > 0.0:
                np.add(uk, lam_half, out=uk)
            np.multiply(uk, wiener[k], out=uk)
            np.add(others, uk, out=total)
        # spectral centroids of the updated modes
        np.absolute(u, out=power)
        np.square(power, out=power)
        _sum(power, axis=1, out=mass)
        moments = _sum(np.multiply(freqs, power, out=power), axis=1)
        for k in range(k_modes):
            if not (config.dc_mode and k == 0) and mass[k] > 0.0:
                omega[k] = float(moments[k] / mass[k])
        # near-duplicate centers degenerate into copies; nudge the later one
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
        prev_mass += _EPS
        delta = float(_sum(_sum(sq_change, axis=1) / prev_mass))
        prev_mass, mass = mass, prev_mass
        if delta < config.tol:
            break

    omega = np.array(omega)
    modes = np.fft.irfft(u[np.argsort(omega)], n=n)
    if config.mirror:
        modes = crop_center(modes)
    residual = x - modes.sum(axis=0)
    return ModeSet(
        modes=modes,
        omegas=np.sort(omega),
        residual=residual,
        iterations=iterations,
        final_delta=delta,
        converged=delta < config.tol,
    )

