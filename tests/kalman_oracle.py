"""The exact posterior mean of the plain filter's model: a Kalman filter.

At tau = 0 filter_arms is a particle filter on a linear-Gaussian model:
constant velocity over dt, white-noise acceleration of spectral density
sigma_a^2, and position measurements with one isotropic std. The Kalman
filter (Kalman, 1960) computes that model's posterior exactly. It starts
where filter_arms' start cloud does, at mean (z_0, 0) and covariance
diag(p^2, p^2, s^2, s^2) from init_position_std (default the measurement
std) and init_speed_std, and predicts then updates at each later
measurement. It shares no code with the filter: Q is written out here,
in process_noise.
"""

from __future__ import annotations

import numpy as np


def process_noise(dt: float, sigma_a: float) -> np.ndarray:
    """(4, 4) covariance of the move noise over dt: white-noise
    acceleration of spectral density sigma_a^2, the same block on each
    axis, in state order (px, py, vx, vy)."""
    return sigma_a**2 * np.kron([[dt**3 / 3, dt**2 / 2], [dt**2 / 2, dt]], np.eye(2))


def kalman_positions(zs: np.ndarray, config) -> tuple[np.ndarray, np.ndarray]:
    """(T - 1, 2) posterior position means and (T - 1,) traces of the
    posterior position covariance, one per step after zs[0]."""
    dt, r2 = config.dt, config.measurement_noise_std**2
    p = config.init_position_std
    p = config.measurement_noise_std if p is None else p
    F = np.eye(4) + dt * np.eye(4, k=2)
    Q = process_noise(dt, config.sigma_a)
    H = np.eye(2, 4)
    m = np.array([zs[0][0], zs[0][1], 0.0, 0.0])
    P = np.diag([p**2, p**2, config.init_speed_std**2, config.init_speed_std**2])
    means, traces = [], []
    for z in zs[1:]:
        m, P = F @ m, F @ P @ F.T + Q
        K = P @ H.T @ np.linalg.inv(H @ P @ H.T + r2 * np.eye(2))
        m, P = m + K @ (z - H @ m), (np.eye(4) - K @ H) @ P
        means.append(m[:2])
        traces.append(P[0, 0] + P[1, 1])
    return np.array(means), np.array(traces)
