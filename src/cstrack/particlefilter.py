"""Sequential Monte Carlo state estimation with a rule-compliance update.

The filter follows the classic predict / measure / resample cycle on a
constant-velocity state (position and velocity in the plane, meters), with
one extra multiplicative weight factor per step:

    w_c = tau * P(constitution | x, z) + (1 - tau)

blending the compliance likelihood with a uniform density. tau = 0 is an
exact no-op (implemented as such, so a tau = 0 run is bit-identical to a
filter without the compliance step), tau = 1 weights purely by compliance.

There is one step loop, filter_arms: it advances several arms on a
shared (arms, particles) axis, each with its own measurement sequence,
seed and trust ratio, and an arm's results are bit-identical to the same
arm run alone on the same seed. trust.sweep runs all ratios of a track in
one call, one arm per ratio on the same measurements and seed, so the
arms share their move noise (common random numbers); cli track runs
blocks of tracks, one arm and one seed per track. An arm whose weights
all vanish is frozen as NaN while the others go on, and an arm retires
when its sequence ends.

Compliance comes from an evaluator evaluate(positions, z) -> (N,), with z
one (2,) measurement or one (N, 2) row per position, values in [0, 1] and
NaN where compliance is undefined (a flagged map cell).
_compliance_factor owns the one policy for NaN: such a particle gets the
weight-averaged factor of the defined particles, so the step neither
rewards nor penalizes it, and a step with no defined particle leaves the
arm's weights unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import ConfigurationError, FormatError
from .grids import MAX_COORD


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


# ---------------------------------------------------------------------------
# Filter steps
#
# The step kernels work on a stack of A arms, one trust ratio each: states
# (A, N, 4) in state order (px, py, vx, vy) and weights (A, N). Every
# operation is elementwise or reduces each arm's own row, so an arm's bits
# do not depend on which other arms share the stack. Elementwise work on
# state columns goes one column at a time: numpy is several times faster on
# one long strided column than on many rows of two.


def _move(states: np.ndarray, process: ProcessModel, streams, stream_of: np.ndarray) -> None:
    """Constant-velocity move plus Q noise, in place.

    streams: the move generators; stream_of: the stream of each arm. Each
    stream that moves an arm draws one (N, 4) noise matrix, and every arm
    on it gets that noise: the common random numbers of a sweep.
    """
    for i in (0, 1):
        states[..., i] += states[..., i + 2] * process.dt
    if process.Q.any():
        for k in dict.fromkeys(stream_of.tolist()):
            noise = streams[k].standard_normal(states.shape[1:]) @ process.noise_factor.T
            for row in np.flatnonzero(stream_of == k):
                states[row] += noise
    if not np.isfinite(states).all():
        raise ConfigurationError("prediction produced non-finite states")


def _streams(seeds) -> tuple[list[np.random.Generator], np.ndarray, list[np.random.Generator]]:
    """The move generators, the move stream of each arm, and each arm's
    resampling generator, from one SeedSequence per arm.

    Each distinct seed spawns two children, once: arms on equal seeds
    share one move generator on the first child, and every arm has a
    resampling generator of its own on the second. The children are those
    seed.spawn(2) would hand out next; the seeds themselves are left as
    given, so a seed passed again gives the same streams again.
    """
    moves: list[np.random.Generator] = []
    resample_children: list[np.random.SeedSequence] = []
    index: dict[tuple, int] = {}
    stream_of = np.empty(len(seeds), dtype=int)
    for arm, seed in enumerate(seeds):
        if not isinstance(seed, np.random.SeedSequence):
            raise ConfigurationError(
                f"need one numpy SeedSequence per trust ratio, got {type(seed).__name__}")
        key = (repr(seed.entropy), seed.spawn_key, seed.pool_size, seed.n_children_spawned)
        if key not in index:
            index[key] = len(moves)
            move_child, resample_child = np.random.SeedSequence(
                seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
                n_children_spawned=seed.n_children_spawned).spawn(2)
            moves.append(np.random.default_rng(move_child))
            resample_children.append(resample_child)
        stream_of[arm] = index[key]
    return moves, stream_of, [np.random.default_rng(resample_children[k]) for k in stream_of]


def _positions(states: np.ndarray, offset=(0.0, 0.0)) -> np.ndarray:
    """(..., 2) copy of the positions (columns 0 and 1) minus offset, one
    (2,) point or, for an (A, N, 4) stack, one (A, 2) row per arm."""
    offset = np.asarray(offset, dtype=float)
    out = np.empty((*states.shape[:-1], 2))
    for i in (0, 1):
        np.subtract(states[..., i], offset[..., i, None], out=out[..., i])
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


_MEASUREMENT_DEGENERATE = "all particle weights vanished in the measurement update"
_COMPLIANCE_DEGENERATE = (
    "all particle weights vanished in the compliance update (tau = 1 "
    "with zero compliance probability everywhere)"
)


# ---------------------------------------------------------------------------
# Configuration and the step loop


# The most particles one arm may carry; every step allocates per particle.
MAX_PARTICLES = 1_000_000


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
            jsonio.number(self.particles, "particles", integer=True, lo=1, hi=MAX_PARTICLES)
            jsonio.number(self.ess_ratio, "ess_ratio", above=0.0, hi=1.0)
            # The model parameters and the start cloud's spreads, within the
            # coordinate bound: the models square and cube them.
            for name in ("dt", "sigma_a", "measurement_noise_std", "init_position_std",
                         "init_speed_std"):
                if getattr(self, name) is not None or name != "init_position_std":
                    jsonio.number(getattr(self, name), name, lo=-MAX_COORD, hi=MAX_COORD)
            if self.R is not None:  # a ragged R fails in the model
                jsonio.floats([value for row in self.R for value in row], "R", 4)
            self.process_model, self.measurement_model
        except ConfigurationError as exc:
            raise ConfigurationError(f"filter config: {exc}") from exc
        except (ArithmeticError, TypeError, ValueError, FormatError) as exc:
            raise FormatError(f"bad filter config: {exc}") from exc

    @classmethod
    def from_json(cls, obj: dict) -> "FilterConfig":
        jsonio.typed(obj, dict, "filter config")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigurationError(f"unknown filter config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "FilterConfig":
        return cls.from_json(jsonio.load(path, "filter config"))

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
    measurements,
    config: FilterConfig,
    seeds,
    taus,
    evaluate=None,
    t0s=None,
    log: bool = False,
) -> tuple[list[np.ndarray], list[str | None], list[list[StepRecord]]]:
    """Advance several filter arms together, each on its own measurements.

    measurements: one (T_a, 2) position sequence per arm, whose first row
    initializes the arm's belief; seeds, taus and t0s (default 0): one
    numpy SeedSequence, one trust ratio and one start time per arm. One
    config, and so one dt, covers every arm. Step order: predict,
    measurement update, compliance update, conditional resampling,
    estimate. Each seed gives two streams (see _streams): arms on equal
    seeds draw their start cloud and each step's move noise once, from one
    shared move generator, and each arm draws its resampling uniforms from
    a generator of its own. A stream draws the same values whichever arms
    share it, so each arm's bits are those of the same arm run alone on
    the same seed. An arm at tau = 0 (every arm when evaluate is None)
    skips the compliance update and is exactly a plain particle filter;
    the other live arms share one evaluate call per step. It gets one (2,)
    z when every arm has the same measurements, as in a sweep, and one z
    row per position otherwise. An arm retires when its sequence ends.

    Returns per arm the (T_a - 1, 2) position estimates, None or the
    reason it degenerated (its estimates are then NaN), and, with log, its
    StepRecords up to its last completed step; sweeps leave log off and
    skip the covariance trace and the mean compliance that only the
    records carry.
    """
    measurements = [np.asarray(m, dtype=float) for m in measurements]
    for m in measurements:
        if m.ndim != 2 or m.shape[1] != 2 or len(m) < 2:
            raise ConfigurationError("need a (T, 2) measurement array with T >= 2 per arm")
    moves, stream_of, resamplers = _streams(list(seeds))
    taus = np.array(taus, dtype=float).reshape(-1)
    n_arms = len(resamplers)
    if len(taus) != n_arms:
        raise ConfigurationError("need one seed per trust ratio")
    for tau in taus:
        if not 0.0 <= tau <= 1.0:
            raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    t0s = [0.0] * n_arms if t0s is None else [float(t0) for t0 in t0s]
    if len(measurements) != n_arms or len(t0s) != n_arms:
        raise ConfigurationError("need one measurement sequence and one t0 per arm")
    process = config.process_model
    meas_model = config.measurement_model
    pos_std = (
        config.init_position_std
        if config.init_position_std is not None
        else config.measurement_noise_std
    )
    lengths = np.array([len(m) for m in measurements], dtype=int)
    ends = set(lengths.tolist())
    # Every arm's measurements on one (A, T_max, 2) axis, NaN past its end.
    zs = np.full((n_arms, lengths.max(initial=2), 2), np.nan)
    for arm, m in enumerate(measurements):
        zs[arm, :len(m)] = m
    # When every arm has the same measurement bits, as in a sweep, each step
    # uses one (2,) z, as a lone run does; else one row per arm, and the
    # evaluator gets one row per position.
    shared = all(np.array_equal(row.view(np.int64), zs[0].view(np.int64)) for row in zs)
    n = config.particles
    states = np.empty((n_arms, n, 4))
    # Each arm's cloud around its first measurement, at rest on average;
    # positions are drawn before velocities, and that order fixes the bits.
    for k, move in enumerate(moves):
        offsets = pos_std * move.standard_normal((n, 2))
        velocities = config.init_speed_std * move.standard_normal((n, 2))
        for arm in np.flatnonzero(stream_of == k):
            states[arm, :, :2] = zs[arm, 0] + offsets
            states[arm, :, 2:] = velocities
    weights = np.full((n_arms, n), 1.0 / n)
    # Rows of states, weights, stream_of, resamplers and taus belong to the
    # live arms ids.
    ids = np.arange(n_arms)
    failures: list[str | None] = [None] * n_arms
    estimates = np.full((n_arms, zs.shape[1] - 1, 2), np.nan)
    records: list[list[StepRecord]] = [[] for _ in range(n_arms)]
    norm_consts = np.empty(n_arms)  # per arm id, for the log

    def drop(gone: np.ndarray, reason: str | None) -> None:
        """Retire the rows in mask gone; reason None for an ended sequence."""
        nonlocal states, weights, stream_of, resamplers, taus, ids
        for arm in ids[gone]:
            failures[arm] = reason
        keep = ~gone
        states, weights, taus, ids = states[keep], weights[keep], taus[keep], ids[keep]
        stream_of = stream_of[keep]
        resamplers = [rng for rng, k in zip(resamplers, keep) if k]

    for step in range(1, zs.shape[1]):
        if step in ends:
            drop(lengths[ids] <= step, None)
        if not len(ids):
            break
        z = zs[0, step] if shared else zs[ids, step]
        _move(states, process, moves, stream_of)
        raw = weights * meas_model.likelihood(_positions(states, z))
        weights, norms, alive = _renormalize(raw)
        norm_consts[ids] = norms
        if not alive.all():
            drop(~alive, _MEASUREMENT_DEGENERATE)
        mean_probs: dict[int, float | None] = {}
        active = np.flatnonzero(taus > 0.0) if evaluate is not None else ()
        if len(active):
            positions = _positions(states[active]).reshape(-1, 2)
            if not shared:
                z = np.repeat(zs[ids[active], step], n, axis=0)
            probs = np.asarray(evaluate(positions, z), dtype=float).reshape(-1)
            if probs.shape != (len(positions),):
                raise ConfigurationError("evaluator returned a wrong-sized probability vector")
            probs = probs.reshape(len(active), n)
            if log:
                for arm, arm_probs in zip(ids[active], probs):
                    defined = arm_probs[~np.isnan(arm_probs)]
                    mean_probs[arm] = float(defined.mean()) if defined.size else None
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
            states[row] = states[row].take(_resample_index(weights[row], resamplers[row]), axis=0)
            weights[row] = 1.0 / n
        means = [w @ arm_states for w, arm_states in zip(weights, states)]
        estimates[ids, step - 1] = np.array(means)[:, :2]
        if log:
            for row, arm in enumerate(ids):
                mean = means[row]
                records[arm].append(
                    StepRecord(
                        t=t0s[arm] + step * config.dt,
                        estimate_position=(float(mean[0]), float(mean[1])),
                        estimate_velocity=(float(mean[2]), float(mean[3])),
                        covariance_trace=_covariance_trace(weights[row], states[row], mean),
                        n_eff=float(ess[row]),
                        norm_const=float(norm_consts[arm]),
                        mean_constitution_prob=mean_probs.get(arm),
                        resampled=bool(resampled[row]),
                    )
                )
    for arm, reason in enumerate(failures):
        if reason is not None:
            estimates[arm] = np.nan
    return [estimates[arm, :length - 1] for arm, length in enumerate(lengths)], failures, records
