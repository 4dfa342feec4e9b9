"""Sequential Monte Carlo state estimation with a rule-compliance update.

The filter follows the classic predict / measure / resample cycle on a
constant-velocity state (position and velocity in the plane, meters), with
one extra multiplicative weight factor per step:

    w_c = tau * P(constitution | x, z) + (1 - tau)

blending the compliance likelihood with a uniform density. tau = 0 is an
exact no-op (implemented as such, so a tau = 0 run is bit-identical to a
filter without the compliance step), tau = 1 weights purely by compliance.

There is one step loop, filter_arms: it advances one arm per trust ratio
on a shared (arms, particles) axis, each arm with its own generator, and
an arm's results are bit-identical to the same arm run alone. run_filter
is its one-arm case with a step log; trust.sweep runs all ratios of a
track in one call. An arm whose weights all vanish is frozen as NaN
while the others go on; run_filter raises DegenerateBeliefError for it.

Compliance comes from an evaluator evaluate(positions, z) -> (N,), with z
one (2,) measurement or one (N, 2) row per position, values in [0, 1] and
NaN where compliance is undefined (a flagged map cell).
update_constitution owns the one policy for NaN: such a particle gets the
weight-averaged factor of the defined particles, so the step neither
rewards nor penalizes it, and a step with no defined particle leaves the
belief unchanged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import ConfigurationError, DegenerateBeliefError, FormatError

_WEIGHT_TOL = 1e-9


def cv_process_noise(dt: float, sigma_a: float) -> np.ndarray:
    """Continuous white-noise-acceleration covariance, per-axis blocks.

    State order (px, py, vx, vy); acceleration spectral density sigma_a^2.
    """
    q11 = dt**3 / 3.0
    q12 = dt**2 / 2.0
    q22 = dt
    block = sigma_a**2 * np.array([[q11, q12], [q12, q22]])
    out = np.zeros((4, 4))
    for pos, vel in ((0, 2), (1, 3)):
        out[pos, pos] = block[0, 0]
        out[pos, vel] = block[0, 1]
        out[vel, pos] = block[1, 0]
        out[vel, vel] = block[1, 1]
    return out


def _check_spsd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise ConfigurationError(f"{name} must be finite")
    if not np.allclose(mat, mat.T):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() < -1e-9:
        raise ConfigurationError(f"{name} must be positive semidefinite")
    return mat


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """A read-only F with F F^T = cov; models cache it and share it."""
    if not cov.any():
        factor = np.zeros_like(cov)
    else:
        w, q = np.linalg.eigh(cov)
        factor = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    factor.setflags(write=False)
    return factor


@dataclass(frozen=True)
class ProcessModel:
    """Constant-velocity transition over dt seconds with noise covariance Q."""

    dt: float
    Q: np.ndarray  # (4, 4), state order (px, py, vx, vy)

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "Q", _check_spsd(self.Q, "process noise Q"))

    @classmethod
    def constant_velocity(cls, dt: float, sigma_a: float) -> "ProcessModel":
        return cls(dt=dt, Q=cv_process_noise(dt, sigma_a))

    @cached_property
    def noise_factor(self) -> np.ndarray:
        """F with F F^T = Q, computed once per model."""
        return _psd_factor(self.Q)


@dataclass(frozen=True)
class MeasurementModel:
    """Position-only measurements: z = H x + noise, noise ~ N(0, R)."""

    R: np.ndarray  # (2, 2)

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (2, 2):
            raise ConfigurationError(f"measurement noise R must be 2x2, got {R.shape}")
        R = _check_spsd(R, "measurement noise R")
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ConfigurationError("measurement noise R must be positive definite")
        object.__setattr__(self, "R", R)

    @classmethod
    def isotropic(cls, std_m: float) -> "MeasurementModel":
        return cls(R=np.eye(2) * float(std_m) ** 2)

    @cached_property
    def noise_factor(self) -> np.ndarray:
        """F with F F^T = R, computed once per model."""
        return _psd_factor(self.R)

    @cached_property
    def _inverse_and_norm(self) -> tuple[np.ndarray, float]:
        inv = np.linalg.inv(self.R)
        inv.setflags(write=False)
        return inv, 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(self.R)))

    def likelihood(self, deltas: np.ndarray) -> np.ndarray:
        """Density of N(0, R) at each (..., 2) row of deltas."""
        inv, norm = self._inverse_and_norm
        d0, d1 = deltas[..., 0], deltas[..., 1]
        # d^T R^-1 d term by term in row-major order, the summation order
        # of numpy's generic contraction for three or more rows; the tests
        # check the bits against it.
        quad = d0 * inv[0, 0] * d0
        quad += d0 * inv[0, 1] * d1
        quad += d1 * inv[1, 0] * d0
        quad += d1 * inv[1, 1] * d1
        return norm * np.exp(-0.5 * quad)


@dataclass(frozen=True)
class ParticleBelief:
    """Weighted particle set over constant-velocity states."""

    positions: np.ndarray  # (N, 2)
    velocities: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,), nonnegative, sums to 1

    def __post_init__(self):
        for arr in (self.positions, self.velocities, self.weights):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        n = self.size
        if self.positions.shape != (n, 2) or self.velocities.shape != (n, 2):
            raise ConfigurationError("particle array shapes disagree")
        if (self.weights < 0).any():
            raise ConfigurationError("negative particle weight")
        if abs(float(self.weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ConfigurationError(
                f"weights sum to {float(self.weights.sum())}, not 1"
            )
        if not (
            np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()
        ):
            raise ConfigurationError("non-finite particle state")

    def effective_sample_size(self) -> float:
        return float(1.0 / np.square(self.weights).sum())

    @classmethod
    def from_arrays(cls, positions, velocities, weights=None) -> "ParticleBelief":
        positions = np.array(positions, dtype=float).reshape(-1, 2)
        velocities = np.array(velocities, dtype=float).reshape(-1, 2)
        if weights is None:
            weights = np.full(len(positions), 1.0 / len(positions))
        else:
            weights = np.array(weights, dtype=float)
            weights = weights / weights.sum()
        return cls(positions=positions, velocities=velocities, weights=weights)

    @classmethod
    def from_gaussian(cls, mean_position, n: int, rng: np.random.Generator,
                      position_std: float, speed_std: float,
                      mean_velocity=(0.0, 0.0)) -> "ParticleBelief":
        positions = np.asarray(mean_position, dtype=float) + position_std * rng.standard_normal((n, 2))
        velocities = np.asarray(mean_velocity, dtype=float) + speed_std * rng.standard_normal((n, 2))
        return cls.from_arrays(positions, velocities)


# ---------------------------------------------------------------------------
# Filter steps
#
# The step kernels work on a stack of A arms, one trust ratio each: states
# (A, N, 4) in state order (px, py, vx, vy) and weights (A, N). Every
# operation is elementwise or reduces each arm's own row, so an arm's bits
# do not depend on which other arms share the stack. predict,
# update_measurement, update_constitution, resample and estimate are the
# one-arm case on a ParticleBelief. Elementwise work on state columns goes
# one column at a time: numpy is several times faster on one long strided
# column than on many rows of two.


def _states(belief: ParticleBelief) -> np.ndarray:
    return np.concatenate([belief.positions, belief.velocities], axis=1)


def _move(states: np.ndarray, process: ProcessModel, rngs) -> None:
    """Constant-velocity move plus Q noise, in place; one generator per arm.

    Arms seeded alike keep equal generator states until their resampling
    steps differ, and equal states draw equal noise. So the noise is drawn
    and transformed once per distinct state, and every other generator in
    that state is set to the state the draw left, as if it had drawn too.
    """
    for i in (0, 1):
        states[..., i] += states[..., i + 2] * process.dt
    if process.Q.any():
        drawn: dict[str, tuple[np.random.Generator, np.ndarray]] = {}
        for arm_states, rng in zip(states, rngs):
            key = repr(rng.bit_generator.state)
            if key in drawn:
                source, noise = drawn[key]
                rng.bit_generator.state = source.bit_generator.state
            else:
                noise = rng.standard_normal(arm_states.shape) @ process.noise_factor.T
                drawn[key] = rng, noise
            arm_states += noise
    if not np.isfinite(states).all():
        raise ConfigurationError("prediction produced non-finite states")


def _positions(states: np.ndarray, offset=(0.0, 0.0)) -> np.ndarray:
    """(..., 2) copy of the positions (columns 0 and 1) minus offset."""
    out = np.empty((*states.shape[:-1], 2))
    for i in (0, 1):
        np.subtract(states[..., i], offset[i], out=out[..., i])
    return out


def _renormalize(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each arm's row divided by its sum; returns weights, sums and the
    mask of arms whose sum is positive and finite (the others are dead)."""
    norm = raw.sum(axis=1)
    alive = np.isfinite(norm) & (norm > 0.0)
    return raw / np.where(alive, norm, 1.0)[:, None], norm, alive


def _compliance_factor(weights: np.ndarray, probs: np.ndarray, taus: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """tau * probs + (1 - tau) per arm under the NaN policy (module
    docstring); returns the factors and the mask of arms the step changes
    (those with a defined particle that carries weight)."""
    if ((probs < -1e-9) | (probs > 1.0 + 1e-9)).any():
        raise ConfigurationError("evaluator returned probabilities outside [0, 1]")
    taus = taus[:, None]
    factor = taus * np.clip(probs, 0.0, 1.0) + (1.0 - taus)
    undefined = np.isnan(factor)
    changed = np.ones(len(factor), dtype=bool)
    for arm in np.flatnonzero(undefined.any(axis=1)):
        undef = undefined[arm]
        defined_weights = weights[arm][~undef]
        mass = float(defined_weights.sum())
        if mass == 0.0:
            changed[arm] = False
        else:
            factor[arm, undef] = float(defined_weights @ factor[arm][~undef]) / mass
    return factor, changed


def _resample_index(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: the particle each of N uniform slots copies."""
    n = len(weights)
    u = (rng.uniform() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, u, side="left")


def _covariance_trace(weights: np.ndarray, states: np.ndarray, mean: np.ndarray) -> float:
    """Trace of the weighted covariance sum(w * (s - mean)(s - mean)^T).

    Each diagonal entry is summed sequentially over the particles, as
    numpy's generic contraction sums, so the logged trace keeps the bits
    the tests check against it.
    """
    trace = 0.0
    for i in range(states.shape[1]):
        centered = states[:, i] - mean[i]
        trace += np.cumsum(weights * centered * centered)[-1]
    return float(trace)


def predict(belief: ParticleBelief, process: ProcessModel,
            rng: np.random.Generator) -> ParticleBelief:
    """Advance every particle by the constant-velocity model plus Q noise."""
    states = _states(belief)[None]
    _move(states, process, (rng,))
    return replace(belief, positions=states[0, :, :2], velocities=states[0, :, 2:])


_MEASUREMENT_DEGENERATE = "all particle weights vanished in the measurement update"
_COMPLIANCE_DEGENERATE = (
    "all particle weights vanished in the compliance update (tau = 1 "
    "with zero compliance probability everywhere)"
)


def update_measurement(belief: ParticleBelief, z, meas: MeasurementModel
                       ) -> tuple[ParticleBelief, float]:
    """Weight particles by the measurement likelihood; renormalize.

    Returns the updated belief and the normalization constant (the
    Monte Carlo estimate of the measurement's marginal density).
    """
    z = np.asarray(z, dtype=float)
    raw = belief.weights * meas.likelihood(_positions(belief.positions, z))
    weights, norm, alive = _renormalize(raw[None])
    if not alive[0]:
        raise DegenerateBeliefError(_MEASUREMENT_DEGENERATE)
    return replace(belief, weights=weights[0]), float(norm[0])


def update_constitution(belief: ParticleBelief, probs, tau: float
                        ) -> ParticleBelief:
    """Blend per-particle compliance probabilities into the weights.

    probs: P(constitution | particle) in [0, 1], one per particle, NaN
    where undefined. An undefined particle gets the weighted mean factor
    of the defined ones, sum(w * f) / sum(w), so the step leaves its
    weight unchanged. tau = 0, or a step in which no defined particle
    carries weight, returns the belief itself: the factor is a constant,
    and skipping the (mathematically exact) renormalization keeps the
    no-op bit-exact.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return belief
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.shape != (belief.size,):
        raise ConfigurationError("evaluator returned a wrong-sized probability vector")
    factor, changed = _compliance_factor(
        belief.weights[None], probs[None], np.array([tau])
    )
    if not changed[0]:
        return belief
    weights, _, alive = _renormalize(belief.weights * factor)
    if not alive[0]:
        raise DegenerateBeliefError(_COMPLIANCE_DEGENERATE)
    return replace(belief, weights=weights[0])


def resample(belief: ParticleBelief, rng: np.random.Generator) -> ParticleBelief:
    """Systematic resampling to uniform weights."""
    idx = _resample_index(belief.weights, rng)
    return ParticleBelief(
        positions=belief.positions[idx],
        velocities=belief.velocities[idx],
        weights=np.full(belief.size, 1.0 / belief.size),
    )


def estimate(belief: ParticleBelief) -> tuple[np.ndarray, float]:
    """Weighted mean state (4,) and the trace of the weighted covariance."""
    states = _states(belief)
    mean = belief.weights @ states
    return mean, _covariance_trace(belief.weights, states, mean)


# ---------------------------------------------------------------------------
# Compliance diagnostics (sample sets for density estimation)


@dataclass(frozen=True)
class ConstitutionSampleSet:
    """Compliance probabilities sampled around the current belief."""

    values: np.ndarray  # (N,) in [0, 1]
    states: np.ndarray  # (N, 2) sampled positions
    measurements: np.ndarray  # (N, 2) sampled measurements

    def __post_init__(self):
        if not ((self.values >= 0) & (self.values <= 1)).all():  # NaN fails too
            raise ConfigurationError("compliance probabilities outside [0, 1]")


def sample_constitution_set(belief: ParticleBelief, meas: MeasurementModel,
                            evaluate, n: int,
                            rng: np.random.Generator) -> ConstitutionSampleSet:
    """Draw n states from the belief, one measurement each, and evaluate."""
    if n < 1:
        raise ConfigurationError(f"need at least one sample, got {n}")
    idx = rng.choice(belief.size, size=n, p=belief.weights)
    positions = belief.positions[idx]
    noise = rng.standard_normal((n, 2)) @ meas.noise_factor.T
    measurements = positions + noise
    values = np.asarray(evaluate(positions, measurements), dtype=float).reshape(-1)
    return ConstitutionSampleSet(
        values=np.clip(values, 0.0, 1.0),
        states=positions,
        measurements=measurements,
    )


# ---------------------------------------------------------------------------
# Configuration and the step loop


@dataclass(frozen=True)
class FilterConfig:
    """Tracking loop configuration (External interface: JSON file)."""

    particles: int = 2000
    dt: float = 60.0
    sigma_a: float = 0.05
    measurement_noise_std: float = 50.0
    R: tuple | None = None  # full 2x2 covariance; overrides the isotropic std
    ess_ratio: float = 0.5
    init_position_std: float | None = None  # default: measurement noise std
    init_speed_std: float = 2.0

    def __post_init__(self):
        try:  # check the fields and build both models once, here
            self._check_fields()
            self.process_model, self.measurement_model
        except ConfigurationError as exc:
            raise ConfigurationError(f"filter config: {exc}") from exc
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise FormatError(f"bad filter config: {exc}") from exc

    def _check_fields(self) -> None:
        n = self.particles
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigurationError(f"particles must be an integer >= 1, got {n!r}")
        for name in ("dt", "sigma_a", "measurement_noise_std", "ess_ratio",
                     "init_position_std", "init_speed_std"):
            value = getattr(self, name)
            if value is None and name == "init_position_std":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.ess_ratio <= 1.0:
            raise ConfigurationError("ess_ratio must lie in (0, 1]")

    @classmethod
    def from_json(cls, obj: dict) -> "FilterConfig":
        if not isinstance(obj, dict):
            raise FormatError("a filter config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigurationError(f"unknown filter config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "FilterConfig":
        return cls.from_json(jsonio.load(path, "filter config"))

    def to_json(self) -> dict:
        return {
            "particles": self.particles,
            "dt": self.dt,
            "sigma_a": self.sigma_a,
            "measurement_noise_std": self.measurement_noise_std,
            "R": None if self.R is None else [list(row) for row in self.R],
            "ess_ratio": self.ess_ratio,
            "init_position_std": self.init_position_std,
            "init_speed_std": self.init_speed_std,
        }

    @cached_property
    def process_model(self) -> ProcessModel:
        return ProcessModel.constant_velocity(self.dt, self.sigma_a)

    @cached_property
    def measurement_model(self) -> MeasurementModel:
        if self.R is not None:
            return MeasurementModel(R=np.asarray(self.R, dtype=float))
        return MeasurementModel.isotropic(self.measurement_noise_std)

    def draw_measurement_noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 2) noise consistent with the configured measurement model."""
        return rng.standard_normal((n, 2)) @ self.measurement_model.noise_factor.T


@dataclass(frozen=True)
class StepRecord:
    """One step of the tracking log (serialized as a JSON line)."""

    t: float
    estimate_position: tuple[float, float]
    estimate_velocity: tuple[float, float]
    covariance_trace: float
    n_eff: float
    norm_const: float
    mean_constitution_prob: float | None
    resampled: bool

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "estimate": {
                "p": list(self.estimate_position),
                "v": list(self.estimate_velocity),
            },
            "covariance_trace": self.covariance_trace,
            "n_eff": self.n_eff,
            "norm_const": self.norm_const,
            "mean_constitution_prob": self.mean_constitution_prob,
            "resampled": self.resampled,
        }


def filter_arms(
    measurements: np.ndarray,
    config: FilterConfig,
    rngs,
    taus,
    evaluate=None,
    t0: float = 0.0,
    log: bool = False,
) -> tuple[np.ndarray, list[str | None], list[StepRecord]]:
    """Track one measurement sequence once per trust ratio, all arms together.

    measurements: (T, 2) positions, the first of which initializes each
    arm's belief; rngs and taus: one generator and one ratio per arm. Step
    order: predict, measurement update, compliance update, conditional
    resampling, estimate. An arm draws from its own generator in the order
    a lone filter would, so each arm's bits are those of the same run
    alone. An arm at tau = 0 (every arm when evaluate is None) skips the
    compliance update and consumes exactly the draws of a plain particle
    filter; the other live arms share one evaluate call per step.

    Returns the (A, T - 1, 2) position estimates, per arm None or the
    reason it degenerated (its estimates are then NaN), and, with log, the
    StepRecords of arm 0; sweeps leave log off and skip the covariance
    trace and the mean compliance that only the records carry.
    """
    measurements = np.asarray(measurements, dtype=float)
    if measurements.ndim != 2 or measurements.shape[1] != 2 or len(measurements) < 2:
        raise ConfigurationError("need a (T, 2) measurement array with T >= 2")
    process = config.process_model
    meas_model = config.measurement_model
    pos_std = (
        config.init_position_std
        if config.init_position_std is not None
        else config.measurement_noise_std
    )
    rngs = list(rngs)
    taus = np.array(taus, dtype=float).reshape(-1)
    if len(taus) != len(rngs) or len({id(rng) for rng in rngs}) != len(rngs):
        raise ConfigurationError("need one generator of its own per trust ratio")
    for tau in taus:
        if not 0.0 <= tau <= 1.0:
            raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    n = config.particles
    states = np.empty((len(rngs), n, 4))
    weights = np.empty((len(rngs), n))
    for arm, rng in enumerate(rngs):
        belief = ParticleBelief.from_gaussian(
            measurements[0], n, rng,
            position_std=pos_std, speed_std=config.init_speed_std,
        )
        states[arm] = _states(belief)
        weights[arm] = belief.weights
    # Rows of states, weights, rngs and taus belong to the live arms ids.
    ids = np.arange(len(rngs))
    failures: list[str | None] = [None] * len(rngs)
    estimates = np.full((len(rngs), len(measurements) - 1, 2), np.nan)
    records: list[StepRecord] = []

    def drop(dead: np.ndarray, reason: str) -> None:
        nonlocal states, weights, rngs, taus, ids
        for arm in ids[dead]:
            failures[arm] = reason
        keep = ~dead
        states, weights, taus, ids = states[keep], weights[keep], taus[keep], ids[keep]
        rngs = [rng for rng, k in zip(rngs, keep) if k]

    for step, z in enumerate(measurements[1:], start=1):
        _move(states, process, rngs)
        raw = weights * meas_model.likelihood(_positions(states, z))
        weights, norms, alive = _renormalize(raw)
        norm_const = float(norms[0])  # arm 0's, if it is still live; for the log
        if not alive.all():
            drop(~alive, _MEASUREMENT_DEGENERATE)
        mean_prob = None
        active = np.flatnonzero(taus > 0.0) if evaluate is not None else ()
        if len(active):
            positions = _positions(states[active]).reshape(-1, 2)
            probs = np.asarray(evaluate(positions, z), dtype=float).reshape(-1)
            if probs.shape != (len(positions),):
                raise ConfigurationError("evaluator returned a wrong-sized probability vector")
            probs = probs.reshape(len(active), n)
            if log and ids[active[0]] == 0:
                defined = probs[0][~np.isnan(probs[0])]
                mean_prob = float(defined.mean()) if defined.size else None
            factor, changed = _compliance_factor(weights[active], probs, taus[active])
            active = active[changed]
            blended, _, alive = _renormalize(weights[active] * factor[changed])
            weights[active] = blended
            if not alive.all():
                dead = np.zeros(len(ids), dtype=bool)
                dead[active[~alive]] = True
                drop(dead, _COMPLIANCE_DEGENERATE)
        if not len(ids):
            break
        ess = 1.0 / np.square(weights).sum(axis=1)
        resampled = ess < config.ess_ratio * n
        for row in np.flatnonzero(resampled):
            states[row] = states[row, _resample_index(weights[row], rngs[row])]
            weights[row] = 1.0 / n
        means = [w @ arm_states for w, arm_states in zip(weights, states)]
        estimates[ids, step - 1] = np.array(means)[:, :2]
        if log and ids[0] == 0:
            mean = means[0]
            records.append(
                StepRecord(
                    t=t0 + step * config.dt,
                    estimate_position=(float(mean[0]), float(mean[1])),
                    estimate_velocity=(float(mean[2]), float(mean[3])),
                    covariance_trace=_covariance_trace(weights[0], states[0], mean),
                    n_eff=float(ess[0]),
                    norm_const=norm_const,
                    mean_constitution_prob=mean_prob,
                    resampled=bool(resampled[0]),
                )
            )
    for arm, reason in enumerate(failures):
        if reason is not None:
            estimates[arm] = np.nan
    return estimates, failures, records


def run_filter(
    measurements: np.ndarray,
    config: FilterConfig,
    rng: np.random.Generator,
    evaluate=None,
    tau: float = 0.0,
    t0: float = 0.0,
) -> tuple[np.ndarray, list[StepRecord]]:
    """Track one measurement sequence; returns position estimates and logs.

    The one-arm case of filter_arms, with the step records built. With
    tau = 0 (or no evaluator) the compliance update is skipped and the run
    consumes exactly the same random draws as a plain particle filter. A
    run whose weights all vanish raises DegenerateBeliefError.
    """
    estimates, failures, records = filter_arms(
        measurements, config, (rng,), (tau,), evaluate=evaluate, t0=t0, log=True,
    )
    if failures[0] is not None:
        raise DegenerateBeliefError(failures[0])
    return estimates[0], records
