"""Reference path for the particle filter: one arm, one step at a time.

A belief is a pair of plain arrays: (N, 4) states in state order
(px, py, vx, vy) and (N,) weights on the simplex. predict,
update_measurement, update_constitution, resample and estimate are the
steps of one lone filter on that pair, built on the kernels of
particlefilter.filter_arms, but for three that work on one arm here:
_resample_index binary-searches each slot in one arm's cumulative
weights, as the filter did before it counted the slots of all its
resampling arms in one pass; _covariance_trace sums one arm's diagonal
with a cumsum per state column, as the filter did before it reduced all
its logged arms in one pass; and _positions copies one arm's positions.
draw_measurement_noise is the measurement noise as the filter drew it from
a 2x2 covariance, standard normals times its eigh factor; the filter's
std times standard normals must keep its bits.
stepwise_run composes the steps into the filter loop one step at a time;
tests compare every arm of filter_arms with it bit for bit. It lays out
the random streams on its own: a filter seed spawns a move child, which
draws the start cloud and each step's noise, and a resampling child,
which draws each resampling step's uniform.
run_filter is the one-arm case of filter_arms itself, with the step
records built and a degenerate run raised.
"""

from __future__ import annotations

import copy

import numpy as np

from cstrack.errors import ConfigurationError, CstrackError
from cstrack.particlefilter import (
    _COMPLIANCE_DEGENERATE,
    _MEASUREMENT_DEGENERATE,
    StepRecord,
    _compliance_factor,
    _move,
    _renormalize,
    filter_arms,
)


class DegenerateBeliefError(CstrackError):
    """All particle weights collapsed to zero during an update."""


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


def predict(states, weights, config, rng):
    """Advance every particle by the config's constant-velocity move plus
    its Q noise; the weights pass through."""
    moved = states[None].copy()
    _move(moved, config, (rng,), np.zeros(1, dtype=int))
    return moved[0], weights


def draw_measurement_noise(std, rng, n):
    """(n, 2) noise of N(0, std^2 I): standard normals times the eigh
    factor of the covariance matrix, through a BLAS product."""
    w, q = np.linalg.eigh(np.eye(2) * float(std) ** 2)
    return rng.standard_normal((n, 2)) @ (q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))).T


def update_measurement(states, weights, z, config):
    """Weight particles by the config's measurement likelihood; renormalize.

    Returns the new weights and the normalization constant (the Monte
    Carlo estimate of the measurement's marginal density).
    """
    z = np.asarray(z, dtype=float)
    raw = weights * config.likelihood(states[:, 0] - z[0], states[:, 1] - z[1])
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


def _resample_index(weights, rng):
    """Systematic resampling: the particle each of N uniform slots (r + j) / n
    copies, by a binary search of the cumulative weights, one arm at a
    time."""
    n = len(weights)
    u = (rng.uniform() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, u, side="left")


def resample(states, weights, rng):
    """Systematic resampling to uniform weights."""
    idx = _resample_index(weights, rng)
    return states[idx], np.full(len(weights), 1.0 / len(weights))


def _covariance_trace(weights, states, mean):
    """Trace of the weighted covariance sum(w * (s - mean)(s - mean)^T) of
    one arm, each diagonal entry summed sequentially over the particles."""
    trace = 0.0
    for i in range(states.shape[1]):
        centered = states[:, i] - mean[i]
        trace += np.cumsum(weights * centered * centered)[-1]
    return float(trace)


def _positions(states):
    """(..., 2) copy of the positions, columns 0 and 1 of the states."""
    out = np.empty((*states.shape[:-1], 2))
    for i in (0, 1):
        out[..., i] = states[..., i]
    return out


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
            states, weights = predict(states, weights, config, move_rng)
            weights, norm_const = update_measurement(states, weights, z, config)
            mean_prob = None
            if evaluate is not None and tau > 0.0:
                probs = np.asarray(evaluate(_positions(states)[None], np.reshape(z, (1, 2))),
                                   dtype=float)[0]
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
