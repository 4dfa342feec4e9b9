"""Sequential Monte Carlo state estimation with a rule-compliance update.

The filter follows the classic predict / measure / resample cycle on a
constant-velocity state (position and velocity in the plane, meters), with
one extra multiplicative weight factor per step:

    w_c = tau * P(constitution | x, z) + (1 - tau)

blending the compliance likelihood with a uniform density. tau = 0 is an
exact no-op (implemented as such, so a tau = 0 run is bit-identical to a
filter without the compliance step), tau = 1 weights purely by compliance.

The filter's model is its FilterConfig. sigma_a = 0 adds no move noise,
so once an arm resamples, its copies never spread again and its estimates
leave the exact posterior: against the Kalman filter of
tests/kalman_oracle.py, |m_PF - m_KF|^2 / tr P_KF reads 1.0-1.8 at 30
steps, not about 0.005.

There is one step loop, filter_arms: it advances several arms on a
shared (arms, particles) axis, each with its own measurement sequence,
seed and trust ratio, and an arm's results are bit-identical to the same
arm run alone on the same seed. trust.sweep runs all ratios of a track in
one call, one arm per ratio on the same measurements and seed, so the
arms share their move noise (common random numbers); cli track runs
blocks of tracks, one arm and one seed per track. An arm whose weights
all vanish is frozen as NaN while the others go on, and an arm retires
when its sequence ends.

Compliance comes from an evaluator evaluate(positions, z) -> (A, N), with
the (A, N, 2) positions and the (A, 2) current measurements of A arms,
values in [0, 1] and NaN where compliance is undefined (a flagged cell).
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


# ---------------------------------------------------------------------------
# Filter steps
#
# The step kernels work on a stack of A arms, one trust ratio each: states
# (A, N, 4) in state order (px, py, vx, vy) and weights (A, N). Every
# operation is elementwise or reduces each arm's own row, so an arm's bits
# do not depend on which other arms share the stack. Elementwise work on
# state columns goes one column at a time: numpy is several times faster on
# one long strided column than on many rows of two. So the measurement
# update hands the likelihood two contiguous (A, N) planes, x and y minus
# each arm's measurement. The arms that resample in a step share one pass,
# _resample_indices: it counts the slots below each cumulative weight
# instead of searching each slot in the weights, which gives the same
# indices without a binary search per arm. The step log likewise takes
# every logged arm's covariance trace from one reduction,
# _covariance_traces.


def _move(states: np.ndarray, config: FilterConfig, streams, stream_of: np.ndarray) -> None:
    """Constant-velocity move over config.dt plus config.Q noise, in place.

    streams: the move generators; stream_of: the stream of each arm. Each
    stream that moves an arm draws one (N, 4) noise matrix, and every arm
    on it gets that noise: the common random numbers of a sweep.
    """
    for i in (0, 1):
        states[..., i] += states[..., i + 2] * config.dt
    if config.Q.any():
        for k in dict.fromkeys(stream_of.tolist()):
            noise = streams[k].standard_normal(states.shape[1:]) @ config.noise_factor.T
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


def _positions(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), N, 2) copy of the positions, columns 0 and 1, of the
    given ascending rows of the states. Only those two columns are read,
    and when rows are all of them the whole stack is read without a
    gather."""
    out = np.empty((len(rows), states.shape[1], 2))
    whole = len(rows) == len(states)
    for i in (0, 1):
        out[..., i] = states[..., i] if whole else states[rows, :, i]
    return out


def _renormalize(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each arm's row divided by its sum, in place: raw itself becomes the
    weights. Returns them, the sums and the mask of arms whose sum is
    positive and finite (the others are dead)."""
    norm = raw.sum(axis=1)
    alive = np.isfinite(norm) & (norm > 0.0)
    raw /= np.where(alive, norm, 1.0)[:, None]
    return raw, norm, alive


def _compliance_factor(weights: np.ndarray, probs: np.ndarray, taus: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """tau * probs + (1 - tau) per arm under the NaN policy (module
    docstring); returns the factors and the mask of arms the step changes
    (those with a defined particle that carries weight). The range check
    ignores NaN: fmin and fmax skip it, as a comparison is false on it."""
    if (np.fmin.reduce(probs, axis=None) < -1e-9
            or np.fmax.reduce(probs, axis=None) > 1.0 + 1e-9):
        raise ConfigurationError("evaluator returned probabilities outside [0, 1]")
    taus = taus[:, None]
    factor = np.clip(probs, 0.0, 1.0)
    factor *= taus
    factor += 1.0 - taus
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


def _slot_breaks(counts: np.ndarray, cumulative: np.ndarray, r: np.ndarray, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Where counts break their definition as the number of slots
    (r + j) / n, j >= 0, at or below cumulative: the masks of the counts
    one too high and one too low."""
    slot = counts - 1.0
    slot += r
    slot /= n
    high = slot > cumulative
    np.add(counts, r, out=slot)
    slot /= n
    return high, slot <= cumulative


def _resample_indices(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Systematic resampling of each row of weights (R, N) with its uniform
    r: the (R, N) particles that its N slots (r + j) / n copy.

    A binary search of a row's cumulative weights c puts slot j on the
    number of particles i with c_i < (r + j) / n. As the slots rise with
    j, that is the number of particles whose count
    K_i = #{j < n : (r + j) / n <= c_i} is at most j. K_i starts at
    floor(c_i n - r) + 1, and the entries that break the definition move
    one slot at a time, each slot computed as (r + j) / n is in floats, so
    the counts are exact and every index is the binary search's, bit for
    bit. One bincount and cumsum over all rows turn the counts into
    indices.
    """
    rows, n = weights.shape
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    r = uniforms[:, None]
    counts = np.multiply(cumulative, n)
    counts -= r
    np.floor(counts, out=counts)
    counts += 1.0
    high, low = _slot_breaks(counts, cumulative, r, n)
    high |= low
    fix = np.flatnonzero(high)
    low = low.reshape(-1)[fix]
    flat, cumulative = counts.reshape(-1), cumulative.reshape(-1)
    while fix.size:
        flat[fix] += np.where(low, 1.0, -1.0)
        high, low = _slot_breaks(flat[fix], cumulative[fix], uniforms[fix // n], n)
        keep = high | low
        fix, low = fix[keep], low[keep]
    # A cumulative weight a rounding above 1 counts slot n too.
    np.minimum(counts, n, out=counts)
    indices = counts.astype(np.intp)
    indices += np.arange(0, rows * (n + 1), n + 1)[:, None]
    per_slot = np.bincount(indices.reshape(-1), minlength=rows * (n + 1))
    return np.cumsum(per_slot.reshape(rows, n + 1)[:, :n], axis=1, out=indices)


def _covariance_traces(weights: np.ndarray, states: np.ndarray, means: np.ndarray
                       ) -> list[float]:
    """Each arm's trace of the weighted covariance
    sum(w * (s - mean)(s - mean)^T), from weights (A, N), states (A, N, 4)
    and means (A, 4).

    Each diagonal entry is summed sequentially over the particles, as
    numpy's generic contraction sums, so the logged trace keeps the bits
    the tests check against it. The (N, A, 4) terms go through one
    reduction over the outer, particle axis: numpy adds whole rows there in
    order and sums pairwise only along the contiguous inner axis.
    """
    arms, n = weights.shape
    terms = np.empty((n, arms, states.shape[2]))
    for i in range(states.shape[2]):
        centered = states[..., i] - means[:, i, None]
        term = weights * centered
        term *= centered
        terms[:, :, i] = term.T
    traces = []
    for diagonal in np.add.reduce(terms, axis=0).tolist():
        trace = 0.0
        for entry in diagonal:
            trace += entry
        traces.append(trace)
    return traces


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
    """The filter's model and loop settings (External interface: JSON file).

    The model: a constant-velocity move over dt seconds driven by
    white-noise acceleration of spectral density sigma_a^2 (Q), and
    position measurements with noise N(0, std^2 I), std =
    measurement_noise_std in meters (likelihood); both once per config."""

    particles: int = 2000
    dt: float = 60.0
    sigma_a: float = 0.05
    measurement_noise_std: float = 50.0
    ess_ratio: float = 0.5
    init_position_std: float | None = None  # default: measurement noise std
    init_speed_std: float = 2.0

    def __post_init__(self):
        try:  # one rule per field
            jsonio.number(self.particles, "particles", integer=True, lo=1, hi=MAX_PARTICLES)
            jsonio.number(self.ess_ratio, "ess_ratio", above=0.0, hi=1.0)
            # Within the coordinate bound, as Q cubes dt and squares sigma_a
            # and the likelihood squares the std; a spread may be 0.
            for name in ("dt", "measurement_noise_std"):
                jsonio.number(getattr(self, name), name, above=0.0, hi=MAX_COORD)
            for name in ("sigma_a", "init_position_std", "init_speed_std"):
                if getattr(self, name) is not None or name != "init_position_std":
                    jsonio.number(getattr(self, name), name, lo=0.0, hi=MAX_COORD)
        except FormatError as exc:
            raise FormatError(f"bad filter config: {exc}") from exc
        # Both hold for every std from about 1.25e-81 m up.
        if not all(0.0 < value < np.inf for value in self._inverse_and_norm):
            raise ConfigurationError(
                "filter config: measurement_noise_std must have a finite 1/std^2 and density "
                f"normalizer, got {self.measurement_noise_std}")

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
    def Q(self) -> np.ndarray:
        """Read-only (4, 4) move noise covariance: continuous white-noise
        acceleration in per-axis blocks, state order (px, py, vx, vy),
        positive semidefinite by construction."""
        dt = self.dt
        block = self.sigma_a**2 * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
        q = np.kron(block, np.eye(2))
        q.setflags(write=False)
        return q

    @cached_property
    def noise_factor(self) -> np.ndarray:
        """Read-only F with F F^T = Q, from eigh: unlike a Cholesky factor
        it also exists for a singular Q."""
        w, q = np.linalg.eigh(self.Q)
        factor = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        factor.setflags(write=False)
        return factor

    @cached_property
    def _inverse_and_norm(self) -> tuple[float, float]:
        """1 / std^2 and the measurement density's normalizer, inf where
        either overflows or divides by a variance or determinant that
        underflows to 0. The normalizer takes the determinant of std^2 I,
        as the filter always has: std^2 * std^2 differs from it in the last
        bit at many stds, 50 m among them."""
        variance = float(self.measurement_noise_std)**2
        with np.errstate(divide="ignore", over="ignore"):
            return (np.divide(1.0, variance),
                    1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(np.eye(2) * variance))))

    def likelihood(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Density of N(0, std^2 I) at each delta (dx, dy), given as two
        planes of one shape.

        The quadratic form is dx dx / std^2 + dy dy / std^2, each term in
        that order. That gives the bits of numpy's generic contraction of
        d^T (std^2 I)^-1 d, whose two cross terms are signed zeros for the
        finite deltas the filter passes; the tests check the bits against
        it. The planes are left as they are; the result is a new array.
        """
        inv, norm = self._inverse_and_norm
        quad = np.multiply(dx, inv)
        quad *= dx
        term = np.multiply(dy, inv)
        term *= dy
        quad += term
        quad *= -0.5
        np.exp(quad, out=quad)
        quad *= norm
        return quad

    def draw_measurement_noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 2) measurement noise: std times standard normals."""
        return float(self.measurement_noise_std) * rng.standard_normal((n, 2))


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


def check_tau(tau: float) -> None:
    """Reject a trust ratio outside [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")


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
    the other live arms share one evaluate call per step, with their
    (A, N, 2) positions and their (A, 2) current measurements. An arm
    retires when its sequence ends.

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
        check_tau(tau)
    t0s = [0.0] * n_arms if t0s is None else [float(t0) for t0 in t0s]
    if len(measurements) != n_arms or len(t0s) != n_arms:
        raise ConfigurationError("need one measurement sequence and one t0 per arm")
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
        _move(states, config, moves, stream_of)
        z = zs[ids, step]
        dx = states[..., 0] - z[:, :1]
        dy = states[..., 1] - z[:, 1:]
        raw = config.likelihood(dx, dy)
        raw *= weights
        weights, norms, alive = _renormalize(raw)
        norm_consts[ids] = norms
        if not alive.all():
            drop(~alive, _MEASUREMENT_DEGENERATE)
        mean_probs: dict[int, float | None] = {}
        active = np.flatnonzero(taus > 0.0) if evaluate is not None else ()
        if len(active):
            # A local, so the array lives to the end of the step: freeing it
            # at once made sweeps about 5% slower (allocator pattern).
            positions = _positions(states, active)
            probs = np.asarray(evaluate(positions, zs[ids[active], step]), dtype=float)
            if probs.shape != (len(active), n):
                raise ConfigurationError("evaluator returned a wrong-sized probability vector")
            if log:
                has_nan = np.isnan(probs).any(axis=1).tolist()
                for arm, arm_probs, nan in zip(ids[active].tolist(), probs, has_nan):
                    defined = arm_probs[~np.isnan(arm_probs)] if nan else arm_probs
                    mean_probs[arm] = float(defined.mean()) if defined.size else None
            factor, changed = _compliance_factor(weights[active], probs, taus[active])
            if not changed.all():
                active, factor = active[changed], factor[changed]
            factor *= weights[active]
            blended, _, alive = _renormalize(factor)
            weights[active] = blended
            if not alive.all():
                dead = np.zeros(len(ids), dtype=bool)
                dead[active[~alive]] = True
                drop(dead, _COMPLIANCE_DEGENERATE)
        if not len(ids):
            break
        ess = 1.0 / np.square(weights).sum(axis=1)
        resampled = ess < config.ess_ratio * n
        rows = np.flatnonzero(resampled)
        if len(rows):
            uniforms = np.array([resamplers[row].uniform() for row in rows])
            indices = _resample_indices(weights[rows], uniforms)
            for row, index in zip(rows, indices):
                states[row] = states[row].take(index, axis=0)
            weights[rows] = 1.0 / n
        means = np.array([w @ arm_states for w, arm_states in zip(weights, states)])
        estimates[ids, step - 1] = means[:, :2]
        if log:
            columns = zip(ids.tolist(), means.tolist(), _covariance_traces(weights, states, means),
                          ess.tolist(), norm_consts[ids].tolist(), resampled.tolist())
            for arm, mean, trace, n_eff, norm_const, was_resampled in columns:
                records[arm].append(
                    StepRecord(
                        t=t0s[arm] + step * config.dt,
                        estimate_position=(mean[0], mean[1]),
                        estimate_velocity=(mean[2], mean[3]),
                        covariance_trace=trace,
                        n_eff=n_eff,
                        norm_const=norm_const,
                        mean_constitution_prob=mean_probs.get(arm),
                        resampled=was_resampled,
                    )
                )
    for arm, reason in enumerate(failures):
        if reason is not None:
            estimates[arm] = np.nan
    return [estimates[arm, :length - 1] for arm, length in enumerate(lengths)], failures, records
