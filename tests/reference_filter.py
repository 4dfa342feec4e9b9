"""Reference path for the particle filter: one arm, one step at a time.

A belief is a pair of plain arrays: (N, 4) states in state order
(px, py, vx, vy) and (N,) weights on the simplex. predict,
update_measurement, update_constitution, resample and estimate are the
steps of one lone filter on that pair, built on the same kernels as
particlefilter.filter_arms. stepwise_run composes them into the filter
loop one step at a time; tests compare every arm of filter_arms with it
bit for bit. It lays out the random streams on its own: a filter seed
spawns a move child, which draws the start cloud and each step's noise,
and a resampling child, which draws each resampling step's uniform.
run_filter is the one-arm case of filter_arms itself, with the step
records built and a degenerate run raised.
"""

from __future__ import annotations

import copy

import numpy as np

from cstrack.errors import ConfigurationError, DegenerateBeliefError
from cstrack.particlefilter import (
    _COMPLIANCE_DEGENERATE,
    _MEASUREMENT_DEGENERATE,
    StepRecord,
    _compliance_factor,
    _covariance_trace,
    _move,
    _positions,
    _renormalize,
    _resample_index,
    filter_arms,
)


def belief(positions, velocities, weights=None):
    """(states, weights) from (N, 2) positions and velocities; weights are
    normalized, uniform when not given."""
    positions = np.array(positions, dtype=float).reshape(-1, 2)
    velocities = np.array(velocities, dtype=float).reshape(-1, 2)
    states = np.concatenate([positions, velocities], axis=1)
    if weights is None:
        return states, np.full(len(states), 1.0 / len(states))
    weights = np.array(weights, dtype=float)
    return states, weights / weights.sum()


def gaussian_belief(mean_position, n, rng, position_std, speed_std):
    """n particles around mean_position at rest, positions drawn first."""
    positions = np.asarray(mean_position, dtype=float) + position_std * rng.standard_normal((n, 2))
    velocities = np.zeros(2) + speed_std * rng.standard_normal((n, 2))
    return belief(positions, velocities)


def validate(states, weights):
    """Assert that (states, weights) is a belief: shapes agree, the weights
    lie on the simplex and every state is finite."""
    n = len(weights)
    assert states.shape == (n, 4), "particle array shapes disagree"
    assert not (weights < 0).any(), "negative particle weight"
    assert abs(float(weights.sum()) - 1.0) <= 1e-9, (
        f"weights sum to {float(weights.sum())}, not 1"
    )
    assert np.isfinite(states).all(), "non-finite particle state"


def effective_sample_size(weights) -> float:
    return float(1.0 / np.square(weights).sum())


def predict(states, weights, process, rng):
    """Advance every particle by the constant-velocity model plus Q noise;
    the weights pass through."""
    moved = states[None].copy()
    _move(moved, process, (rng,), np.zeros(1, dtype=int))
    return moved[0], weights


def update_measurement(states, weights, z, meas):
    """Weight particles by the measurement likelihood; renormalize.

    Returns the new weights and the normalization constant (the Monte
    Carlo estimate of the measurement's marginal density).
    """
    z = np.asarray(z, dtype=float)
    raw = weights * meas.likelihood(_positions(states, z))
    out, norm, alive = _renormalize(raw[None])
    if not alive[0]:
        raise DegenerateBeliefError(_MEASUREMENT_DEGENERATE)
    return out[0], float(norm[0])


def update_constitution(weights, probs, tau):
    """Blend per-particle compliance probabilities into the weights.

    probs: P(constitution | particle) in [0, 1], NaN where undefined. tau =
    0, or a step in which no defined particle carries weight, returns the
    weights object itself.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return weights
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.shape != weights.shape:
        raise ConfigurationError("evaluator returned a wrong-sized probability vector")
    factor, changed = _compliance_factor(weights[None], probs[None], np.array([tau]))
    if not changed[0]:
        return weights
    out, _, alive = _renormalize(weights * factor)
    if not alive[0]:
        raise DegenerateBeliefError(_COMPLIANCE_DEGENERATE)
    return out[0]


def resample(states, weights, rng):
    """Systematic resampling to uniform weights."""
    idx = _resample_index(weights, rng)
    return states[idx], np.full(len(weights), 1.0 / len(weights))


def estimate(states, weights):
    """Weighted mean state (4,) and the trace of the weighted covariance."""
    mean = weights @ states
    return mean, _covariance_trace(weights, states, mean)


def stepwise_run(measurements, config, seed, evaluate, tau, t0=0.0):
    """The filter loop spelled out with the one-arm steps, on the streams
    of a SeedSequence seed (left as given).

    Returns the (T - 1, 2) position estimates (None if the run
    degenerated), None or the reason it degenerated, and the StepRecords
    of the steps it completed.
    """
    pos_std = (
        config.init_position_std
        if config.init_position_std is not None
        else config.measurement_noise_std
    )
    move_seed, resample_seed = copy.deepcopy(seed).spawn(2)
    move_rng = np.random.default_rng(move_seed)
    resample_rng = np.random.default_rng(resample_seed)
    states, weights = gaussian_belief(measurements[0], config.particles, move_rng,
                                      pos_std, config.init_speed_std)
    estimates, records = [], []
    for step, z in enumerate(measurements[1:], start=1):
        try:
            states, weights = predict(states, weights, config.process_model, move_rng)
            weights, norm_const = update_measurement(states, weights, z,
                                                     config.measurement_model)
            mean_prob = None
            if evaluate is not None and tau > 0.0:
                probs = np.asarray(evaluate(_positions(states), z), dtype=float)
                defined = probs[~np.isnan(probs)]
                mean_prob = float(defined.mean()) if defined.size else None
                weights = update_constitution(weights, probs, tau)
        except DegenerateBeliefError as exc:
            return None, str(exc), records
        n_eff = effective_sample_size(weights)
        resampled = n_eff < config.ess_ratio * len(weights)
        if resampled:
            states, weights = resample(states, weights, resample_rng)
        mean, trace = estimate(states, weights)
        estimates.append(mean[:2])
        records.append(StepRecord(
            t=t0 + step * config.dt,
            estimate_position=(float(mean[0]), float(mean[1])),
            estimate_velocity=(float(mean[2]), float(mean[3])),
            covariance_trace=trace,
            n_eff=n_eff,
            norm_const=norm_const,
            mean_constitution_prob=mean_prob,
            resampled=resampled,
        ))
    return np.array(estimates), None, records


def run_filter(measurements, config, seed, evaluate=None, tau=0.0, t0=0.0):
    """Track one measurement sequence from a SeedSequence seed; returns
    position estimates and logs.

    The one-arm case of filter_arms, with the step records built. With
    tau = 0 (or no evaluator) the compliance update is skipped and the run
    consumes exactly the same random draws as a plain particle filter. A
    run whose weights all vanish raises DegenerateBeliefError.
    """
    estimates, failures, records = filter_arms(
        (measurements,), config, (seed,), (tau,), evaluate=evaluate, t0s=(t0,), log=True,
    )
    if failures[0] is not None:
        raise DegenerateBeliefError(failures[0])
    return estimates[0], records[0]
