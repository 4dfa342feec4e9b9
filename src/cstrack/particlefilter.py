"""Sequential Monte Carlo state estimation with a rule-compliance update.

The filter follows the classic predict / measure / resample cycle on a
constant-velocity state (position and velocity in the plane, meters), with
one extra multiplicative weight factor per step:

    w_c = tau * P(constitution | x, z) + (1 - tau)

blending the compliance likelihood with a uniform density. tau = 0 is an
exact no-op (implemented as such, so a tau = 0 run is bit-identical to a
filter without the compliance step), tau = 1 weights purely by compliance.

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
        """Density of N(0, R) at each row of deltas."""
        inv, norm = self._inverse_and_norm
        quad = np.einsum("ni,ij,nj->n", deltas, inv, deltas)
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


def predict(belief: ParticleBelief, process: ProcessModel,
            rng: np.random.Generator) -> ParticleBelief:
    """Advance every particle by the constant-velocity model plus Q noise."""
    positions = belief.positions + belief.velocities * process.dt
    velocities = belief.velocities
    if process.Q.any():
        noise = rng.standard_normal((belief.size, 4)) @ process.noise_factor.T
        positions = positions + noise[:, :2]
        velocities = velocities + noise[:, 2:]
    if not (np.isfinite(positions).all() and np.isfinite(velocities).all()):
        raise ConfigurationError("prediction produced non-finite states")
    return replace(belief, positions=positions, velocities=velocities)


def update_measurement(belief: ParticleBelief, z, meas: MeasurementModel
                       ) -> tuple[ParticleBelief, float]:
    """Weight particles by the measurement likelihood; renormalize.

    Returns the updated belief and the normalization constant (the
    Monte Carlo estimate of the measurement's marginal density).
    """
    z = np.asarray(z, dtype=float)
    likelihood = meas.likelihood(belief.positions - z)
    raw = belief.weights * likelihood
    norm = float(raw.sum())
    if norm <= 0.0 or not np.isfinite(norm):
        raise DegenerateBeliefError(
            "all particle weights vanished in the measurement update"
        )
    return replace(belief, weights=raw / norm), norm


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
    if ((probs < -1e-9) | (probs > 1.0 + 1e-9)).any():
        raise ConfigurationError("evaluator returned probabilities outside [0, 1]")
    factor = tau * np.clip(probs, 0.0, 1.0) + (1.0 - tau)
    undefined = np.isnan(factor)
    if undefined.any():
        defined_weights = belief.weights[~undefined]
        mass = float(defined_weights.sum())
        if mass == 0.0:
            return belief
        factor[undefined] = float(defined_weights @ factor[~undefined]) / mass
    raw = belief.weights * factor
    norm = float(raw.sum())
    if norm <= 0.0:
        raise DegenerateBeliefError(
            "all particle weights vanished in the compliance update (tau = 1 "
            "with zero compliance probability everywhere)"
        )
    return replace(belief, weights=raw / norm)


def resample(belief: ParticleBelief, rng: np.random.Generator) -> ParticleBelief:
    """Systematic resampling to uniform weights."""
    n = belief.size
    u = (rng.uniform() + np.arange(n)) / n
    cumulative = np.cumsum(belief.weights)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, u, side="left")
    return ParticleBelief(
        positions=belief.positions[idx].copy(),
        velocities=belief.velocities[idx].copy(),
        weights=np.full(n, 1.0 / n),
    )


def estimate(belief: ParticleBelief) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean state (4,) and weighted covariance (4, 4)."""
    states = np.hstack([belief.positions, belief.velocities])
    mean = belief.weights @ states
    centered = states - mean
    cov = np.einsum("n,ni,nj->ij", belief.weights, centered, centered)
    return mean, cov


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


def run_filter(
    measurements: np.ndarray,
    config: FilterConfig,
    rng: np.random.Generator,
    evaluate=None,
    tau: float = 0.0,
    t0: float = 0.0,
) -> tuple[np.ndarray, list[StepRecord]]:
    """Track one measurement sequence; returns position estimates and logs.

    measurements: (T, 2) positions, the first of which initializes the
    belief. Step order: predict, measurement update, compliance update,
    conditional resampling, estimate. With tau = 0 (or no evaluator) the
    compliance update is skipped and the run consumes exactly the same
    random draws as a plain particle filter.
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
    belief = ParticleBelief.from_gaussian(
        measurements[0], config.particles, rng,
        position_std=pos_std, speed_std=config.init_speed_std,
    )
    active = evaluate is not None and tau > 0.0
    estimates = np.empty((len(measurements) - 1, 2))
    records: list[StepRecord] = []
    for step, z in enumerate(measurements[1:], start=1):
        belief = predict(belief, process, rng)
        belief, norm = update_measurement(belief, z, meas_model)
        mean_prob = None
        if active:
            probs = np.asarray(evaluate(belief.positions, z), dtype=float).reshape(-1)
            defined = probs[~np.isnan(probs)]
            mean_prob = float(defined.mean()) if defined.size else None
            belief = update_constitution(belief, probs, tau)
        ess = belief.effective_sample_size()
        resampled = ess < config.ess_ratio * belief.size
        if resampled:
            belief = resample(belief, rng)
        mean, cov = estimate(belief)
        estimates[step - 1] = mean[:2]
        records.append(
            StepRecord(
                t=t0 + step * config.dt,
                estimate_position=(float(mean[0]), float(mean[1])),
                estimate_velocity=(float(mean[2]), float(mean[3])),
                covariance_trace=float(np.trace(cov)),
                n_eff=ess,
                norm_const=norm,
                mean_constitution_prob=mean_prob,
                resampled=resampled,
            )
        )
    return estimates, records
