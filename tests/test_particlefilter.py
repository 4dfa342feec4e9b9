import dataclasses
import math
import pathlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack.constitution import ConstitutionEvaluator, parse, precompute_field
from cstrack.constitution.field import ConstitutionField
from cstrack.demo import CORRIDOR_FILTER
from cstrack.errors import ConfigurationError, CstrackError, FormatError
from cstrack import particlefilter
from cstrack.grids import GridSpec
from cstrack.particlefilter import (
    FilterConfig,
    _compliance_factor,
    _covariance_traces,
    _move,
    _resample_indices,
    _streams,
    filter_arms,
)
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer
from kalman_oracle import kalman_positions, process_noise
from reference_filter import (
    DegenerateBeliefError,
    _covariance_trace,
    _resample_index,
    belief,
    draw_measurement_noise,
    effective_sample_size,
    estimate,
    predict,
    resample,
    run_filter,
    stepwise_run,
    update_constitution,
    update_measurement,
    validate,
)


def single_particle(p, v):
    return belief([p], [v])


class TestPredict:
    def test_deterministic_transition(self):
        states, weights = single_particle((0.0, 0.0), (1.0, 2.0))
        config = FilterConfig(dt=1.0, sigma_a=0.0)
        out, _ = predict(states, weights, config, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, :2], [[1.0, 2.0]])
        np.testing.assert_array_equal(out[:, 2:], [[1.0, 2.0]])

    def test_zero_dt_rejected_but_tiny_ok(self):
        for dt in (0.0, float("nan"), -1.0):
            with pytest.raises(FormatError, match="dt must be a finite number, > 0.0"):
                FilterConfig(dt=dt, sigma_a=0.0)
        config = FilterConfig(dt=5e-324, sigma_a=0.0)
        assert config.dt == 5e-324 and not config.Q.any()

    def test_identity_with_zero_q_and_velocity(self):
        states, weights = single_particle((3.0, 4.0), (0.0, 0.0))
        config = FilterConfig(dt=5.0, sigma_a=0.0)
        out, _ = predict(states, weights, config, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, :2], states[:, :2])

    def test_noise_covariance_matches_q(self):
        # Monte Carlo vs the analytic position block of Q.
        sigma_a, dt, n = 0.5, 2.0, 100_000
        q = process_noise(dt, sigma_a)
        states, weights = belief(np.zeros((n, 2)), np.zeros((n, 2)))
        config = FilterConfig(dt=dt, sigma_a=sigma_a)
        assert np.array_equal(config.Q, q)
        out, _ = predict(states, weights, config, np.random.default_rng(7))
        sample_cov = np.cov(out[:, :2].T)
        np.testing.assert_allclose(
            sample_cov, q[:2, :2], rtol=0.05, atol=0.05 * q[0, 0]
        )

    @pytest.mark.parametrize("dt, sigma_a", [(1e-8, 1e8), (1e8, 1e3)])
    def test_extreme_configs_construct(self, dt, sigma_a):
        # Q is positive semidefinite by construction; at these scales an
        # eigenvalue check reads a rounding error as a negative eigenvalue.
        config = FilterConfig(dt=dt, sigma_a=sigma_a)
        assert np.array_equal(config.Q, process_noise(dt, sigma_a))
        assert np.isfinite(config.noise_factor).all()

    def test_weights_unchanged(self):
        states, weights = belief([(0, 0), (1, 1)], [(0, 0), (0, 0)], weights=[0.25, 0.75])
        config = FilterConfig(dt=1.0, sigma_a=0.1)
        _, out = predict(states, weights, config, np.random.default_rng(0))
        np.testing.assert_array_equal(out, weights)

    def test_cached_factor_gives_the_bits_of_a_fresh_one(self):
        config = FilterConfig(dt=2.0, sigma_a=0.5)
        states, weights = belief(np.zeros((50, 2)), np.ones((50, 2)))
        out, _ = predict(*predict(states, weights, config, np.random.default_rng(4)),
                         config, np.random.default_rng(5))
        w, q = np.linalg.eigh(config.Q)
        fresh = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        expect = states
        for seed in (4, 5):
            noise = np.random.default_rng(seed).standard_normal((50, 4)) @ fresh.T
            expect = np.hstack([expect[:, :2] + expect[:, 2:] * 2.0 + noise[:, :2],
                                expect[:, 2:] + noise[:, 2:]])
        np.testing.assert_array_equal(out[:, :2], expect[:, :2])
        np.testing.assert_array_equal(out[:, 2:], expect[:, 2:])


class TestMove:
    """The move kernel on a stack of arms on two seeds, built by hand."""

    seeds = (np.random.SeedSequence(31), np.random.SeedSequence([31, 2]))

    def stack(self, n=40):
        rng = np.random.default_rng(8)
        return rng.normal(scale=50.0, size=(5, n, 4))

    def children(self, k):
        """A fresh generator on stream k's move child and on its
        resampling child."""
        move, resample = np.random.SeedSequence(
            self.seeds[k].entropy, spawn_key=self.seeds[k].spawn_key).spawn(2)
        return np.random.default_rng(move), np.random.default_rng(resample)

    def test_streams_follow_the_seeds(self):
        seeds = [self.seeds[0], self.seeds[1], np.random.SeedSequence(31), self.seeds[0]]
        moves, stream_of, resamplers = _streams(seeds)
        assert stream_of.tolist() == [0, 1, 0, 0]
        assert len({id(rng) for rng in resamplers}) == 4
        for k, rng in zip(stream_of, resamplers):
            move, resample = self.children(k)
            assert rng.bit_generator.state == resample.bit_generator.state
            assert moves[k].bit_generator.state == move.bit_generator.state
        assert [seed.n_children_spawned for seed in self.seeds] == [0, 0]

    def test_each_stream_draws_once_per_step_for_all_its_arms(self):
        config = FilterConfig(dt=2.0, sigma_a=0.5)
        w, q = np.linalg.eigh(config.Q)
        fresh_factor = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        stream_of = np.array([0, 1, 0, 0, 1])
        moves = [self.children(k)[0] for k in (0, 1)]
        fresh = [self.children(k)[0] for k in (0, 1)]
        states = self.stack()
        for _ in range(3):
            expect = states.copy()
            noises = [rng.standard_normal((40, 4)) @ fresh_factor.T for rng in fresh]
            _move(states, config, moves, stream_of)
            for arm, k in enumerate(stream_of):
                expect[arm, :, :2] += expect[arm, :, 2:] * 2.0
                expect[arm] += noises[k]
                assert np.array_equal(states[arm], expect[arm])
            for move, rng in zip(moves, fresh):
                assert move.bit_generator.state == rng.bit_generator.state

    def test_a_stream_without_arms_draws_nothing(self):
        config = FilterConfig(dt=1.0, sigma_a=0.3)
        moves = [self.children(k)[0] for k in (0, 1)]
        idle = self.children(1)[0].bit_generator.state
        _move(self.stack()[:2], config, moves, np.array([0, 0]))
        assert moves[1].bit_generator.state == idle

    def test_zero_q_draws_nothing(self):
        config = FilterConfig(dt=3.0, sigma_a=0.0)
        moves = [self.children(k)[0] for k in (0, 1)]
        before = [rng.bit_generator.state for rng in moves]
        states = self.stack()
        expect = states.copy()
        expect[..., :2] += expect[..., 2:] * 3.0
        _move(states, config, moves, np.array([0, 1, 0, 0, 1]))
        assert np.array_equal(states, expect)
        assert [rng.bit_generator.state for rng in moves] == before

    def test_non_finite_states_raise(self):
        config = FilterConfig(dt=1.0, sigma_a=0.3)
        moves = [self.children(k)[0] for k in (0, 1)]
        states = self.stack()
        states[3, 7, 2] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            _move(states, config, moves, np.array([0, 1, 0, 0, 1]))
        states = self.stack()
        states[1, 0, 0] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            _move(states, FilterConfig(dt=1.0, sigma_a=0.0), moves,
                  np.array([0, 1, 0, 0, 1]))


class TestMeasurementUpdate:
    def test_symmetric_particles_equal_weights(self):
        states, weights = belief([(0.0, 1.0), (0.0, -1.0)], np.zeros((2, 2)))
        out, _ = update_measurement(states, weights, (0.0, 0.0),
                                    FilterConfig(measurement_noise_std=1.0))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_weight_ratio_at_three_sigma(self):
        # Gaussian density ratio between a particle at z and one 3 sigma
        # away is exp(4.5).
        std = 2.0
        states, weights = belief([(0.0, 0.0), (3.0 * std, 0.0)], np.zeros((2, 2)))
        out, _ = update_measurement(states, weights, (0.0, 0.0),
                                    FilterConfig(measurement_noise_std=std))
        ratio = out[0] / out[1]
        assert ratio == pytest.approx(math.exp(4.5), rel=1e-9)

    def test_flat_likelihood_keeps_priors(self):
        # A 1000 m std over a sub-meter particle cloud: the likelihood is
        # flat to ~1e-6, so posterior weights match priors at that scale.
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1.0, 16)
        states, weights = belief(
            rng.uniform(-0.5, 0.5, (16, 2)), np.zeros((16, 2)), weights=weights
        )
        out, _ = update_measurement(
            states, weights, (0.0, 0.0), FilterConfig(measurement_noise_std=1e3)
        )
        np.testing.assert_allclose(out, weights, atol=1e-6)

    def test_degenerate_update_raises(self):
        states, weights = belief([(1e9, 1e9)], [(0.0, 0.0)])
        with pytest.raises(DegenerateBeliefError):
            update_measurement(states, weights, (0.0, 0.0),
                               FilterConfig(measurement_noise_std=1.0))

    def test_cached_inverse_gives_the_bits_of_a_fresh_one(self):
        deltas = np.random.default_rng(6).normal(0.0, 3.0, (40, 2))
        config = FilterConfig(measurement_noise_std=2.7)
        for _ in range(2):  # the second call reads the cached terms
            got = config.likelihood(deltas[:, 0], deltas[:, 1])
            np.testing.assert_array_equal(got, einsum_likelihood(2.7, deltas))

    @pytest.mark.parametrize("std", [3.0, 2.7])
    def test_likelihood_leaves_its_planes_as_they_are(self, std):
        # Contiguous planes, as filter_arms passes them, and strided column
        # views of one (N, 2) array.
        deltas = np.random.default_rng(8).normal(0.0, 3.0, (50, 2))
        before = deltas.copy()
        config = FilterConfig(measurement_noise_std=std)
        dx, dy = deltas.T.copy()
        planes = config.likelihood(dx, dy)
        np.testing.assert_array_equal(np.column_stack([dx, dy]), before)
        views = config.likelihood(deltas[:, 0], deltas[:, 1])
        np.testing.assert_array_equal(deltas, before)
        np.testing.assert_array_equal(views, planes)

    def test_normalization_constant_is_marginal_density(self):
        states, weights = belief([(0.0, 0.0)], [(0.0, 0.0)])
        _, norm = update_measurement(states, weights, (0.0, 0.0),
                                     FilterConfig(measurement_noise_std=1.0))
        assert norm == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


class TestMeasurementNoise:
    @settings(deadline=None, max_examples=200)
    @given(st.floats(1e-3, 1e8), st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_draw_has_the_bits_of_the_matrix_product(self, std, n, seed):
        got_rng, expect_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = FilterConfig(measurement_noise_std=std).draw_measurement_noise(got_rng, n)
        expect = draw_measurement_noise(std, expect_rng, n)
        assert got.shape == (n, 2) and got.tobytes() == expect.tobytes()
        assert got_rng.bit_generator.state == expect_rng.bit_generator.state

    @pytest.mark.parametrize("key, value", [
        ("measurement_noise_std", -50.0), ("measurement_noise_std", 0.0),
        ("measurement_noise_std", -0.0), ("measurement_noise_std", 1.5e8),
        ("sigma_a", -0.2), ("init_position_std", -1.0), ("init_speed_std", -1e-300),
    ])
    def test_negative_spread_or_nonpositive_std_is_user_error(self, key, value):
        with pytest.raises(FormatError, match=f"{key} must be"):
            FilterConfig(**{key: value})

    def test_zero_spreads_are_allowed(self):
        config = FilterConfig(sigma_a=0.0, init_position_std=0.0, init_speed_std=0.0)
        assert not config.Q.any()

    @pytest.mark.parametrize("std", [0.0, -1.0, 1e-170, 1.5e8, float("nan"), float("inf")])
    def test_model_rejects_a_std_out_of_range(self, std):
        # The range rule first; a std in range whose density is not finite
        # is refused by the normalizer check.
        error = ConfigurationError if std == 1e-170 else FormatError
        with pytest.raises(error, match="measurement_noise_std must"):
            FilterConfig(measurement_noise_std=std)

    @pytest.mark.parametrize("std", [1e-82, 1e-100, 1e-154, 1e-160, 1e-170])
    def test_config_rejects_a_std_whose_density_is_not_finite(self, std):
        # Below about 1.25e-81 m the determinant of std^2 I underflows to
        # 0, and below about 7e-155 m so does std^2: the check refuses the
        # std before any division by 0 can warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="finite 1/std"):
                FilterConfig(measurement_noise_std=std)

    def test_smallest_accepted_std_runs_without_a_warning(self):
        def accepted(std):
            try:
                FilterConfig(measurement_noise_std=std)
            except ConfigurationError:
                return False
            return True

        lo, hi = np.array([1e-82, 1e-80]).view(np.int64)  # refused, accepted
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if accepted(float(np.int64(mid).view(float))) else (mid, hi)
        smallest = float(np.int64(hi).view(float))
        assert 1.2e-81 < smallest < 1.3e-81
        # Still particles on a still track keep a finite density of
        # 7e160; on a moving track every density is 0 and the arm
        # degenerates. Neither warns.
        config = FilterConfig(particles=50, dt=1.0, sigma_a=0.0, measurement_noise_std=smallest,
                              init_position_std=0.0, init_speed_std=0.0)
        still, moving = np.zeros((6, 2)), np.column_stack([np.arange(6.0), np.zeros(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates, reasons, logs = filter_arms(
                [still, moving], config, [np.random.SeedSequence(1)] * 2, [0.0, 0.0], log=True)
        assert reasons[0] is None and reasons[1] is not None
        assert len(logs[0]) == 5 and not estimates[0].any()


class TestConstitutionUpdate:
    def test_tau_zero_is_bitwise_noop(self):
        _, weights = belief([(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.3, 0.7])
        out = update_constitution(weights, np.zeros(2), tau=0.0)
        assert out is weights

    def test_tau_one_weights_by_probability(self):
        _, weights = belief([(0, 0), (1, 1)], np.zeros((2, 2)))
        out = update_constitution(weights, [0.8, 0.2], tau=1.0)
        np.testing.assert_allclose(out, [0.8, 0.2], atol=1e-15)

    def test_half_tau_all_zero_probs_is_uniform(self):
        _, weights = belief(
            [(0, 0), (1, 1), (2, 2)], np.zeros((3, 2)), weights=[0.5, 0.25, 0.25]
        )
        out = update_constitution(weights, [0.0, 0.0, 0.0], tau=0.5)
        np.testing.assert_allclose(out, weights, atol=1e-15)

    def test_tau_one_all_zero_raises(self):
        _, weights = belief([(0, 0)], [(0, 0)])
        with pytest.raises(DegenerateBeliefError):
            update_constitution(weights, [0.0], tau=1.0)

    def test_scale_invariance_of_positive_factors(self):
        # Multiplying all compliance factors by a constant cancels in the
        # normalization.
        _, weights = belief([(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.4, 0.6])
        a = update_constitution(weights, [0.2, 0.6], tau=1.0)
        b = update_constitution(weights, [0.1, 0.3], tau=1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_invalid_tau_rejected(self):
        _, weights = belief([(0, 0)], [(0, 0)])
        with pytest.raises(ConfigurationError):
            update_constitution(weights, [1.0], tau=1.5)

    def test_undefined_particles_keep_their_weights(self):
        states, weights = belief(
            np.zeros((4, 2)), np.zeros((4, 2)), weights=[0.1, 0.2, 0.3, 0.4]
        )
        out = update_constitution(weights, [0.9, np.nan, 0.1, np.nan], tau=0.7)
        validate(states, out)
        np.testing.assert_allclose(out[[1, 3]], [0.2, 0.4], rtol=1e-12)
        # The defined particles split their mass by their blended factors.
        ratio = (0.1 * (0.7 * 0.9 + 0.3)) / (0.3 * (0.7 * 0.1 + 0.3))
        assert out[0] / out[2] == pytest.approx(ratio, rel=1e-12)

    def test_all_undefined_step_returns_the_belief(self):
        _, weights = belief([(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.3, 0.7])
        assert update_constitution(weights, [np.nan, np.nan], tau=1.0) is weights

    def test_tau_one_undefined_and_zero_raises(self):
        _, weights = belief(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(DegenerateBeliefError):
            update_constitution(weights, [np.nan, 0.0, 0.0], tau=1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_probability_rejected(self, bad):
        _, weights = belief(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            update_constitution(weights, [0.5, bad], tau=0.5)


class TestResampling:
    def test_uniform_weights_not_triggered(self):
        _, weights = belief(np.zeros((10, 2)), np.zeros((10, 2)))
        assert effective_sample_size(weights) == pytest.approx(10.0)
        assert effective_sample_size(weights) >= 0.5 * len(weights)

    def test_single_heavy_particle_dominates(self):
        weights = np.zeros(8)
        weights[3] = 1.0
        states, weights = belief(np.arange(16).reshape(8, 2), np.zeros((8, 2)),
                                 weights=weights)
        out, out_weights = resample(states, weights, np.random.default_rng(1))
        assert (out[:, :2] == states[3, :2]).all()
        np.testing.assert_allclose(out_weights, 1.0 / 8)

    def test_frequencies_match_weights(self):
        # Multinomial expectation oracle: over many passes the copy
        # frequencies converge to the weights; +-0.005 at ~1e5 draws.
        weights = np.array([0.5, 0.3, 0.2])
        states, weights = belief([(0, 0), (1, 0), (2, 0)], np.zeros((3, 2)),
                                 weights=weights)
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        passes = 33_334
        for _ in range(passes):
            out, _ = resample(states, weights, rng)
            ids = out[:, 0].astype(int)
            counts += np.bincount(ids, minlength=3)
        freqs = counts / (passes * 3)
        np.testing.assert_allclose(freqs, weights, atol=0.005)


class FixedUniform:
    """A generator stub whose uniform draw is the given value."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


class TestKernelBoundaries:
    """The kernels on exact ties and rounding edges."""

    def test_last_slot_stays_in_range_when_the_weights_sum_below_one(self):
        weights = np.full((2, 10), 0.1)
        assert np.cumsum(weights[0])[-1] < 1.0
        index = _resample_indices(weights, np.array([np.nextafter(1.0, 0.0), 0.5]))
        assert (index < 10).all() and (index[:, -1] == 9).all()

    def test_slot_on_a_cumulative_boundary_copies_the_particle_below_it(self):
        index = _resample_indices(np.full((2, 4), 0.25), np.zeros(2))
        np.testing.assert_array_equal(index, [[0, 0, 1, 2]] * 2)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(1, 12),
           st.sampled_from(["plain", "zero runs", "subnormal", "on slots", "below slots",
                            "above slots"]),
           st.sampled_from(["random", "zero", "below one"]))
    def test_counted_slots_match_the_binary_search(self, seed, n, rows, shape, edge):
        # The slot counts of every row give the indices of a binary search
        # of that row's cumulative weights, bit for bit.
        rng = np.random.default_rng(seed)
        uniforms = rng.uniform(size=rows)
        if edge != "random":
            uniforms[rng.integers(rows)] = 0.0 if edge == "zero" else np.nextafter(1.0, 0.0)
        weights = rng.exponential(size=(rows, n))
        if shape == "zero runs":
            for row in weights:
                start = rng.integers(n)
                row[start:start + rng.integers(1, n + 1)] = 0.0
            weights[:, rng.integers(n)] += 1.0
        elif shape == "subnormal":
            weights[rng.uniform(size=(rows, n)) < 0.5] = 5e-324
            weights[:, 0] += 1e-300
        if not shape.endswith("slots"):
            weights /= weights.sum(axis=1, keepdims=True)
        else:
            # Every cumulative sum on a slot value (r + j) / n, or one step
            # beside it, j rising by 0 or 1 a particle: each weight is the
            # difference of two such sums, exact (Sterbenz) for j >= 2.
            toward = {"on slots": None, "below slots": -np.inf, "above slots": np.inf}[shape]
            for row, r in zip(weights, uniforms):
                sums = (r + np.minimum(np.cumsum(rng.integers(0, 2, n)) + 2, n - 1)) / n
                if toward is not None:
                    sums = np.nextafter(sums, toward)
                row[:] = np.diff(sums, prepend=0.0)
                np.testing.assert_array_equal(np.cumsum(row), sums)
        got = _resample_indices(weights, uniforms)
        assert got.shape == (rows, n)
        for row, r, index in zip(weights, uniforms, got):
            np.testing.assert_array_equal(index, _resample_index(row, FixedUniform(r)))

    def test_ess_exactly_at_the_threshold_does_not_resample(self):
        # Particles start at one point and never move, so the measurement
        # keeps the weights uniform; tau = 1 and compliance [1, 1, 0, 0]
        # leave [0.5, 0.5, 0, 0], an ESS of exactly 2 = 0.5 * 4.
        config = FilterConfig(particles=4, dt=1.0, sigma_a=0.0, measurement_noise_std=1.0,
                              ess_ratio=0.5, init_position_std=0.0, init_speed_std=0.0)
        _, failures, records = filter_arms(
            [np.zeros((2, 2))], config, [np.random.SeedSequence(0)], [1.0],
            evaluate=lambda positions, z: np.tile([1.0, 1.0, 0.0, 0.0], (len(positions), 1)),
            log=True)
        assert failures == [None]
        assert records[0][0].n_eff == 2.0
        assert not records[0][0].resampled

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_range_check_sees_past_nan(self, bad):
        weights = np.full((2, 3), 1.0 / 3.0)
        for row in ([np.nan, bad, 0.5], [bad, np.nan, np.nan]):
            with pytest.raises(ConfigurationError, match="outside"):
                _compliance_factor(weights, np.array([[0.5] * 3, row]), np.array([0.5, 1.0]))

    def test_an_all_nan_row_is_in_range(self):
        weights = np.full((2, 3), 1.0 / 3.0)
        factor, changed = _compliance_factor(
            weights, np.array([[np.nan] * 3, [0.2, np.nan, 0.8]]), np.array([1.0, 1.0]))
        assert changed.tolist() == [False, True]
        _, changed = _compliance_factor(weights, np.full((2, 3), np.nan), np.array([1.0, 1.0]))
        assert changed.tolist() == [False, False]

    @pytest.mark.parametrize("edge, beyond", [(-1e-9, -np.inf), (1.0 + 1e-9, np.inf)])
    def test_range_check_edges(self, edge, beyond):
        weights = np.full((1, 3), 1.0 / 3.0)
        probs = np.array([[0.5, edge, np.nan]])
        _compliance_factor(weights, probs, np.array([1.0]))
        probs[0, 1] = np.nextafter(edge, beyond)
        with pytest.raises(ConfigurationError, match="outside"):
            _compliance_factor(weights, probs, np.array([1.0]))

    def test_subnormal_defined_mass_still_sets_the_undefined_factor(self):
        weights = np.array([[1e-310, 1.0]])
        factor, changed = _compliance_factor(weights, np.array([[0.5, np.nan]]),
                                             np.array([1.0]))
        assert changed.tolist() == [True]
        assert factor[0, 1] == pytest.approx(0.5, rel=1e-3)


class TestEstimate:
    def test_single_particle(self):
        mean, trace = estimate(*single_particle((2.0, 3.0), (0.5, -0.5)))
        np.testing.assert_array_equal(mean, [2.0, 3.0, 0.5, -0.5])
        assert trace == 0.0

    def test_two_equal_particles(self):
        mean, _ = estimate(*belief([(0, 0), (2, 0)], np.zeros((2, 2))))
        np.testing.assert_allclose(mean[:2], [1.0, 0.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        n = 200
        states, weights = belief(
            rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
            weights=rng.uniform(0.01, 1.0, n),
        )
        mean, trace = estimate(states, weights)
        oracle_mean = (weights[:, None] * states).sum(axis=0)
        centered = states - oracle_mean
        oracle_cov = sum(
            w * np.outer(c, c) for w, c in zip(weights, centered)
        )
        np.testing.assert_allclose(mean, oracle_mean, atol=1e-12)
        assert trace == pytest.approx(np.trace(oracle_cov), rel=0, abs=1e-12)


class TestWeightSimplexFuzz:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_updates_preserve_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        states, weights = belief(
            rng.normal(scale=30.0, size=(n, 2)), rng.normal(size=(n, 2))
        )
        config = FilterConfig(dt=1.0, sigma_a=0.3, measurement_noise_std=20.0)
        for _ in range(5):
            states, weights = predict(states, weights, config, rng)
            z = states[rng.integers(n), :2] + rng.normal(scale=5.0, size=2)
            weights, _ = update_measurement(states, weights, z, config)
            validate(states, weights)
            weights = update_constitution(
                weights, rng.uniform(size=n), tau=float(rng.uniform())
            )
            validate(states, weights)
            if effective_sample_size(weights) < 0.5 * n:
                states, weights = resample(states, weights, rng)
            validate(states, weights)


class TestRunFilter:
    def track(self, steps=40, dt=1.0):
        ts = np.arange(steps) * dt
        return np.column_stack([5.0 * ts, 2.0 * ts])

    def test_tracks_straight_line(self):
        truth = self.track()
        rng = np.random.default_rng(0)
        noisy = truth + rng.normal(scale=3.0, size=truth.shape)
        config = FilterConfig(particles=500, dt=1.0, sigma_a=0.5,
                              measurement_noise_std=3.0)
        estimates, records = run_filter(noisy, config, np.random.SeedSequence(1))
        err = np.linalg.norm(estimates[-10:] - truth[-10:], axis=1).mean()
        assert err < 3.0
        assert len(records) == len(truth) - 1

    def test_tau_zero_run_is_bit_identical_to_no_evaluator(self):
        truth = self.track()
        rng = np.random.default_rng(2)
        noisy = truth + rng.normal(scale=3.0, size=truth.shape)
        config = FilterConfig(particles=200, dt=1.0, measurement_noise_std=3.0)
        calls = []

        def evaluate(p, z):
            calls.append(p.shape)
            return np.full(p.shape[:2], 0.5)

        a, _ = run_filter(noisy, config, np.random.SeedSequence(3))
        b, _ = run_filter(noisy, config, np.random.SeedSequence(3),
                          evaluate=evaluate, tau=0.0)
        assert (a == b).all()
        assert calls == []
        # The counter does see an active compliance step: one call per step.
        run_filter(noisy, config, np.random.SeedSequence(3), evaluate=evaluate, tau=0.5)
        assert calls == [(1, 200, 2)] * (len(truth) - 1)

    def test_layer_flagged_everywhere_tracks_like_tau_zero(self):
        # No particle has a defined compliance, so every tau = 1 step keeps
        # the belief, in field mode and in direct mode alike.
        truth = self.track()
        noisy = truth + np.random.default_rng(6).normal(scale=3.0, size=truth.shape)
        config = FilterConfig(particles=200, dt=1.0, measurement_noise_std=3.0)
        grid = GridSpec(bbox=(-50.0, -50.0, 250.0, 130.0), rows=3, cols=3)
        layer = StaRMapLayer(
            relation=RelationKind.OVER, tag="land", grid=grid,
            mean=np.full((3, 3), np.nan), std=np.full((3, 3), np.nan), sample_count=2,
        )
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        base = run_filter(noisy, config, np.random.SeedSequence(7))
        for evaluate in (
            precompute_field(program, [layer], grid).particle_probabilities,
            ConstitutionEvaluator(program, [layer]).particle_probabilities,
        ):
            est, records = run_filter(noisy, config, np.random.SeedSequence(7),
                                      evaluate=evaluate, tau=1.0)
            assert np.array_equal(est, base[0])
            assert records == base[1]

    def test_compliance_pull_improves_biased_prior(self):
        # Compliance concentrated on the true corridor (y = 0) should pull
        # estimates toward it under heavy measurement noise.
        steps = 60
        truth = np.column_stack([np.arange(steps) * 5.0, np.zeros(steps)])
        rng = np.random.default_rng(4)
        noisy = truth + rng.normal(scale=30.0, size=truth.shape)
        config = FilterConfig(particles=800, dt=1.0, sigma_a=0.2,
                              measurement_noise_std=30.0)

        def evaluate(p, z):
            return np.exp(-0.5 * (p[..., 1] / 10.0) ** 2)

        base, _ = run_filter(noisy, config, np.random.SeedSequence(5))
        guided, _ = run_filter(noisy, config, np.random.SeedSequence(5),
                             evaluate=evaluate, tau=1.0)
        base_err = np.abs(base[:, 1] - 0.0).mean()
        guided_err = np.abs(guided[:, 1] - 0.0).mean()
        assert guided_err < base_err

    def test_malformed_config_file_is_format_error(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="bad filter config"):
            FilterConfig.load(path)

    @pytest.mark.parametrize("obj", [{"particles": 200.5}, {"particles": True},
                                     {"sigma_a": "x"}, {"dt": float("nan")}])
    def test_wrongly_typed_config_is_user_error(self, obj):
        with pytest.raises(CstrackError, match="filter config"):
            FilterConfig.from_json(obj)

    @settings(deadline=None, max_examples=300)
    @given(st.dictionaries(
        st.sampled_from(sorted(FilterConfig.__dataclass_fields__)),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3),
            max_leaves=6,
        ),
    ))
    def test_from_json_returns_a_config_or_a_user_error(self, obj):
        try:
            config = FilterConfig.from_json(obj)
        except CstrackError:
            return
        assert config.particles >= 1 and 0.0 < config.dt and config.measurement_noise_std > 0.0
        assert all(0.0 < value < np.inf for value in config._inverse_and_norm)

    def test_readme_filter_config_bullet_names_every_field(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        bullet = re.search(r"^- \*\*Filter config\*\*.*?(?=^- |^#|\Z)", readme,
                           re.DOTALL | re.MULTILINE)
        assert bullet, "README has no Filter config bullet"
        names = [field.name for field in dataclasses.fields(FilterConfig)]
        assert [name for name in names if f"`{name}`" not in bullet.group()] == []

    def test_records_fields(self):
        truth = self.track(steps=5)
        config = FilterConfig(particles=64, dt=1.0, measurement_noise_std=2.0)
        _, records = run_filter(truth, config, np.random.SeedSequence(0))
        rec = records[0].to_json()
        assert set(rec) == {
            "t", "estimate", "covariance_trace", "n_eff", "norm_const",
            "mean_constitution_prob", "resampled",
        }


def einsum_likelihood(std, deltas):
    """The density of N(0, R) at (N, 2) deltas from the covariance matrix
    R = std^2 I: its inverse and determinant from numpy.linalg, and the
    quadratic form from numpy's generic contraction."""
    R = np.eye(2) * float(std) ** 2
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(R)))
    return norm * np.exp(-0.5 * np.einsum("ni,ij,nj->n", deltas, np.linalg.inv(R), deltas))


class TestEinsumFreeStep:
    """The step's hand-written sums give the bits of np.einsum over
    particle counts and stds. The likelihood skips the contraction's two
    cross terms, each a signed zero, and matches at every count, on
    extreme finite deltas too."""

    @settings(deadline=None, max_examples=90)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_likelihood_matches_einsum(self, seed, n):
        rng = np.random.default_rng(seed)
        std = rng.uniform(0.5, 300.0)
        deltas = rng.normal(scale=rng.uniform(0.1, 500.0), size=(n, 2))
        # Signed zeros, subnormals, and deltas whose square overflows.
        extreme = np.array([0.0, -0.0, 5e-324, -5e-324, 2e-310, 1e160, -1e160])
        pick = rng.uniform(size=(n, 2)) < 0.3
        deltas[pick] = rng.choice(extreme, size=pick.sum())
        dx, dy = deltas.T.copy()  # contiguous planes, as the filter passes them
        with np.errstate(over="ignore"):  # 1e160 squared is inf, a density of 0
            expect = einsum_likelihood(std, deltas)
            got = FilterConfig(measurement_noise_std=std).likelihood(dx, dy)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("n", [8191, 100_000])
    def test_large_counts_match_einsum(self, n):
        rng = np.random.default_rng(n)
        std = rng.uniform(0.5, 300.0)
        deltas = rng.normal(scale=80.0, size=(n, 2))
        config = FilterConfig(measurement_noise_std=std)
        np.testing.assert_array_equal(config.likelihood(*deltas.T.copy()),
                                      einsum_likelihood(std, deltas))
        states, weights = belief(deltas, rng.normal(size=(n, 2)),
                                 weights=rng.uniform(size=n))
        mean, trace = estimate(states, weights)
        centered = states - mean
        cov = np.einsum("n,ni,nj->ij", weights, centered, centered)
        assert trace == float(np.trace(cov))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_covariance_trace_matches_einsum(self, seed, n):
        rng = np.random.default_rng(seed)
        states, weights = belief(
            rng.normal(scale=rng.uniform(0.1, 500.0), size=(n, 2)),
            rng.normal(size=(n, 2)), weights=rng.uniform(0.01, 1.0, n),
        )
        mean, trace = estimate(states, weights)
        assert np.array_equal(mean, weights @ states)
        centered = states - mean
        cov = np.einsum("n,ni,nj->ij", weights, centered, centered)
        assert trace == float(np.trace(cov))


    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 3000))
    def test_batched_traces_match_the_per_arm_oracle_and_einsum(self, seed, arms, n):
        # Positions up to 1e6 m, zero and subnormal weights, and deltas of
        # +0.0 (a state on its mean) and -0.0 (a -0.0 state on a 0.0 mean).
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(arms, n, 4))
        states[..., :2] *= 10.0 ** rng.uniform(-3.0, 6.0, (arms, 1, 1))
        weights = rng.uniform(size=(arms, n))
        weights /= weights.sum(axis=1, keepdims=True)
        pick = rng.uniform(size=weights.shape) < 0.2
        weights[pick] = rng.choice([0.0, 5e-324, 1e-310], size=pick.sum())
        means = np.array([w @ s for w, s in zip(weights, states)])
        means[rng.uniform(size=means.shape) < 0.3] = 0.0
        for arm, i in zip(*np.nonzero(rng.uniform(size=(arms, 4)) < 0.5)):
            pick = rng.uniform(size=n) < 0.3
            states[arm, pick, i] = means[arm, i] if means[arm, i] else rng.choice(
                [0.0, -0.0], size=pick.sum())
        traces = _covariance_traces(weights, states, means)
        assert len(traces) == arms
        for w, s, mean, trace in zip(weights, states, means, traces):
            assert type(trace) is float
            assert trace == _covariance_trace(w, s, mean)
            centered = s - mean
            assert trace == float(np.trace(np.einsum("n,ni,nj->ij", w, centered, centered)))


def _arms_world(seed: int, field_kind: str):
    """A short noisy track and a field-mode evaluator on a 5 x 5 grid:
    field_kind "zero" (tau = 1 degenerates), "nan" (random values with
    flagged cells), "flagged" (every cell, so no step changes a belief)
    or "random"."""
    rng = np.random.default_rng(seed)
    steps = 8
    truth = np.column_stack([np.arange(steps) * 4.0, np.arange(steps) * 1.5])
    measurements = truth + rng.normal(scale=3.0, size=truth.shape)
    grid = GridSpec(bbox=(-20.0, -20.0, 50.0, 30.0), rows=5, cols=5)
    values = rng.uniform(size=(5, 5))
    if field_kind == "zero":
        values[:] = 0.0
    elif field_kind == "nan":
        values[rng.uniform(size=(5, 5)) < 0.3] = np.nan
    elif field_kind == "flagged":
        values[:] = np.nan
    evaluate = ConstitutionField(grid, values).particle_probabilities
    config = FilterConfig(particles=int(rng.integers(20, 120)), dt=1.0, sigma_a=0.5,
                          measurement_noise_std=3.0, ess_ratio=float(rng.uniform(0.3, 1.0)))
    return measurements, config, evaluate


def outcome(run):
    """("ok", estimates) or ("raised", message) of a filter run."""
    try:
        return "ok", run()
    except DegenerateBeliefError as exc:
        return "raised", str(exc)


class TestFilterArms:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1, max_size=7),
        st.sampled_from(["zero", "nan", "flagged", "random"]),
    )
    def test_every_arm_is_a_lone_run_bit_for_bit(self, seed, taus, field_kind):
        measurements, config, evaluate = _arms_world(seed, field_kind)
        filter_seed = np.random.SeedSequence(seed)

        def arms(log):
            return filter_arms(
                [measurements] * len(taus), config,
                [filter_seed] * len(taus),
                taus, evaluate=evaluate, t0s=[30.0] * len(taus), log=log,
            )

        estimates, failures, records = arms(log=False)
        assert [e.shape for e in estimates] == [(len(measurements) - 1, 2)] * len(taus)
        assert records == [[]] * len(taus)
        logged_estimates, logged_failures, logged = arms(log=True)
        assert np.array_equal(logged_estimates, estimates, equal_nan=True)
        assert logged_failures == failures
        for j, tau in enumerate(taus):
            alone = outcome(lambda: run_filter(measurements, config,
                                               filter_seed,
                                               evaluate=evaluate, tau=tau)[0])
            stepwise, failure, stepwise_records = stepwise_run(
                measurements, config, filter_seed, evaluate, tau,
                t0=30.0,
            )
            assert failure == failures[j]
            if failures[j] is None:
                assert alone[0] == "ok"
                assert np.array_equal(estimates[j], alone[1])
                assert np.array_equal(estimates[j], stepwise)
            else:
                assert alone == ("raised", failures[j])
                assert stepwise is None
                assert np.isnan(estimates[j]).all()
            # Every arm's step log, field for field, up to a degenerate step.
            assert logged[j] == stepwise_records

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 6), st.integers(2, 8),
                           st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2)),
                 min_size=1, max_size=5),
        st.sampled_from(["zero", "nan", "random"]),
    )
    def test_arms_on_their_own_sequences_are_lone_runs(self, seed, arms, field_kind):
        # Each arm tracks its own slice of the track from its own t0, under
        # an evaluator that reads z, so an arm must get its own measurement.
        # Arms on one of three seeds share a move stream, which goes on
        # drawing after some of its arms end.
        measurements, config, field_eval = _arms_world(seed, field_kind)

        def evaluate(p, z):
            return field_eval(p, z) * np.exp(-np.square(p - z[:, None]).sum(axis=2) / 400.0)

        sequences = [measurements[min(start, 8 - length):][:length]
                     for start, length, _, _ in arms]
        taus = [tau for _, _, tau, _ in arms]
        seeds = [np.random.SeedSequence([seed, slot]) for _, _, _, slot in arms]
        t0s = [10.0 * k for k in range(len(arms))]
        estimates, failures, records = filter_arms(
            sequences, config, seeds, taus, evaluate=evaluate, t0s=t0s, log=True,
        )
        for k, sequence in enumerate(sequences):
            stepwise, failure, stepwise_records = stepwise_run(
                sequence, config, seeds[k], evaluate, taus[k], t0=t0s[k],
            )
            assert failures[k] == failure
            assert records[k] == stepwise_records
            assert estimates[k].shape == (len(sequence) - 1, 2)
            if failure is None:
                assert np.array_equal(estimates[k], stepwise)
            else:
                assert np.isnan(estimates[k]).all()

    def test_tau_zero_arm_is_the_plain_filter(self):
        measurements, config, evaluate = _arms_world(11, "nan")
        taus = (0.0, 0.5, 0.0, 1.0)
        estimates, failures, _ = filter_arms(
            [measurements] * len(taus), config, [np.random.SeedSequence(5) for _ in taus],
            taus, evaluate=evaluate,
        )
        plain, _ = run_filter(measurements, config, np.random.SeedSequence(5))
        assert failures == [None] * 4
        assert np.array_equal(estimates[0], plain)
        assert np.array_equal(estimates[2], plain)

    def test_degenerate_arm_is_frozen_and_the_others_go_on(self):
        measurements, config, evaluate = _arms_world(3, "zero")
        taus = (0.0, 1.0, 0.5)
        estimates, failures, _ = filter_arms(
            [measurements] * len(taus), config, [np.random.SeedSequence(8) for _ in taus],
            taus, evaluate=evaluate,
        )
        assert failures[0] is None and failures[2] is None
        assert "compliance update" in failures[1]
        assert np.isnan(estimates[1]).all()
        assert np.isfinite(estimates[0]).all() and np.isfinite(estimates[2]).all()
        with pytest.raises(DegenerateBeliefError, match="compliance update"):
            run_filter(measurements, config, np.random.SeedSequence(8),
                       evaluate=evaluate, tau=1.0)

    def test_a_sweep_draws_one_start_cloud_and_one_noise_matrix_per_step(self):
        measurements, config, evaluate = _arms_world(9, "random")
        taus = (0.0, 0.2, 0.5, 1.0)
        made = []

        def keeping_streams(seeds):
            made.append(_streams(seeds))
            return made[-1]

        with mock.patch.object(particlefilter, "_streams", keeping_streams):
            filter_arms([measurements] * len(taus), config,
                        [np.random.SeedSequence(12)] * len(taus), taus, evaluate=evaluate)
        (moves, stream_of, _), = made
        assert len(moves) == 1 and stream_of.tolist() == [0] * len(taus)
        fresh = np.random.default_rng(np.random.SeedSequence(12).spawn(2)[0])
        for shape in [(config.particles, 2)] * 2 + [(config.particles, 4)] * 7:
            fresh.standard_normal(shape)
        assert moves[0].bit_generator.state == fresh.bit_generator.state

    def test_live_arms_share_one_evaluate_call_per_step(self):
        measurements, config, field_eval = _arms_world(4, "random")
        calls = []

        def evaluate(p, z):
            calls.append(p.shape)
            return field_eval(p, z)

        taus = (0.0, 0.3, 1.0)
        filter_arms([measurements] * len(taus), config,
                    [np.random.SeedSequence(1) for _ in taus], taus, evaluate=evaluate)
        assert calls == [(2, config.particles, 2)] * (len(measurements) - 1)

    @pytest.mark.parametrize("path", ["sweep", "block"])
    def test_evaluate_gets_each_live_arm_its_positions_and_current_measurement(self, path):
        # A recording evaluator checks the protocol: (A, N, 2) positions and
        # (A, 2) measurements of the live arms at tau > 0, in arm order. On
        # the block path arm 1 retires after step 3, arm 2's measurement
        # jumps 1e5 m at step 3 (its measurement update degenerates before
        # the compliance update), and the evaluator zeroes arm 3 at step 5
        # (its compliance update degenerates after it is read).
        config = FilterConfig(particles=30, dt=1.0, sigma_a=0.5, measurement_noise_std=3.0)
        truth = np.column_stack([np.arange(8) * 4.0, np.arange(8) * 1.5])
        noisy = truth + np.random.default_rng(3).normal(scale=3.0, size=truth.shape)
        taus = [1.0, 0.5, 1.0, 1.0, 0.0]
        if path == "sweep":
            sequences = [noisy] * len(taus)
            live = {step: [0, 1, 2, 3] for step in range(1, 8)}
        else:
            sequences = [noisy + (0.0, 1000.0 * k) for k in range(len(taus))]
            sequences[1] = sequences[1][:4]
            sequences[2][3] += 1e5
            live = {step: [k for k in (0, 1, 2, 3)
                           if not (k == 1 and step >= 4) and not (k == 2 and step >= 3)
                           and not (k == 3 and step > 5)]
                    for step in range(1, 8)}
        poison = sequences[3][5]
        seen = []

        def evaluate(positions, z):
            seen.append((positions.copy(), z.copy()))
            out = np.full(positions.shape[:2], 0.5)
            if path == "block":
                out[(z == poison).all(axis=1)] = 0.0
            return out

        estimates, failures, _ = filter_arms(
            sequences, config, [np.random.SeedSequence(4)] * len(taus), taus,
            evaluate=evaluate)
        assert len(seen) == 7
        for step, (positions, z) in enumerate(seen, start=1):
            arms = live[step]
            assert positions.shape == (len(arms), config.particles, 2)
            assert z.shape == (len(arms), 2)
            np.testing.assert_array_equal(z, [sequences[k][step] for k in arms])
            # Each row of positions is that arm's cloud, near its measurement.
            assert (np.abs(positions - z[:, None]) < 100.0).all()
        if path == "block":
            assert failures[:2] == [None, None] and failures[4] is None
            assert "measurement update" in failures[2]
            assert "compliance update" in failures[3]
            assert np.isnan(estimates[2]).all() and np.isnan(estimates[3]).all()
        else:
            assert failures == [None] * len(taus)

    def test_mean_compliance_has_the_oracles_bits_with_and_without_nan(self):
        # One flagged node on the track's path puts NaN into the rows of
        # the steps that pass it, and not into the others; a field flagged
        # everywhere gives all-NaN rows. Each kind of row must log the
        # oracle's mean.
        measurements, config, _ = _arms_world(1, "random")
        grid = GridSpec(bbox=(-20.0, -20.0, 50.0, 30.0), rows=11, cols=15)
        values = np.random.default_rng(1).uniform(size=(11, 15))
        values[5, 7] = np.nan  # the node at (15, 5), passed near step 4
        taus = (0.3, 0.0, 1.0, 0.6)
        seen = {"some nan": 0, "no nan": 0, "all nan": 0}
        for values in (values, np.full((11, 15), np.nan)):
            field_eval = ConstitutionField(grid, values).particle_probabilities

            def evaluate(p, z):
                probs = field_eval(p, z)
                nan, all_nan = np.isnan(probs).any(axis=1), np.isnan(probs).all(axis=1)
                seen["some nan"] += int((nan & ~all_nan).sum())
                seen["no nan"] += int((~nan).sum())
                seen["all nan"] += int(all_nan.sum())
                return probs

            filter_seed = np.random.SeedSequence(6)
            _, failures, logged = filter_arms([measurements] * len(taus), config,
                                              [filter_seed] * len(taus), taus,
                                              evaluate=evaluate, log=True)
            assert failures == [None] * len(taus)
            for arm, tau in enumerate(taus):
                _, _, oracle = stepwise_run(measurements, config, filter_seed, field_eval, tau)
                got = [r.mean_constitution_prob for r in logged[arm]]
                want = [r.mean_constitution_prob for r in oracle]
                assert [None if v is None else v.hex() for v in got] == [
                    None if v is None else v.hex() for v in want]
        assert min(seen.values()) > 0, seen

    def test_a_logged_step_computes_every_trace_in_one_call(self):
        measurements, config, evaluate = _arms_world(7, "random")
        taus = (0.0, 0.5, 1.0)
        calls = []

        def traces(weights, states, means):
            calls.append(len(weights))
            return _covariance_traces(weights, states, means)

        with mock.patch.object(particlefilter, "_covariance_traces", traces):
            filter_arms([measurements] * len(taus), config,
                        [np.random.SeedSequence(3)] * len(taus), taus, evaluate=evaluate)
            assert calls == []
            _, failures, _ = filter_arms([measurements] * len(taus), config,
                                         [np.random.SeedSequence(3)] * len(taus), taus,
                                         evaluate=evaluate, log=True)
        assert failures == [None] * len(taus)
        assert calls == [len(taus)] * (len(measurements) - 1)

    def test_log_gives_the_run_filter_records(self):
        measurements, config, evaluate = _arms_world(6, "nan")
        _, records = run_filter(measurements, config, np.random.SeedSequence(2),
                                evaluate=evaluate, tau=0.7, t0=100.0)
        _, _, logged = filter_arms([measurements], config, [np.random.SeedSequence(2)], [0.7],
                                   evaluate=evaluate, t0s=[100.0], log=True)
        assert logged == [records]
        assert [r.t for r in records] == [100.0 + step for step in range(1, 8)]

    @pytest.mark.parametrize("taus", [(0.0, -0.1), (1.5,), (float("nan"),)])
    def test_tau_outside_unit_interval_rejected(self, taus):
        measurements, config, evaluate = _arms_world(0, "random")
        with pytest.raises(ConfigurationError, match="tau must lie in"):
            filter_arms([measurements] * len(taus), config,
                        [np.random.SeedSequence(0) for _ in taus], taus, evaluate=evaluate)

    def test_each_arm_needs_its_own_sequence_and_t0(self):
        measurements, config, _ = _arms_world(0, "random")
        seeds = [np.random.SeedSequence(k) for k in range(2)]
        with pytest.raises(ConfigurationError, match="T >= 2 per arm"):
            filter_arms([measurements, measurements[:1]], config, seeds, (0.0, 0.5))
        with pytest.raises(ConfigurationError, match="one measurement sequence"):
            filter_arms([measurements], config, seeds, (0.0, 0.5))
        with pytest.raises(ConfigurationError, match="one t0"):
            filter_arms([measurements] * 2, config, seeds, (0.0, 0.5), t0s=[0.0])

    def test_each_arm_needs_a_seed_sequence(self):
        measurements, config, _ = _arms_world(0, "random")
        with pytest.raises(ConfigurationError, match="one seed per trust ratio"):
            filter_arms([measurements] * 2, config, [np.random.SeedSequence(0)], (0.0, 0.5))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="SeedSequence per trust ratio"):
            filter_arms([measurements] * 2, config, [rng, rng], (0.0, 0.5))


def random_walk_tracks(seed: int, count: int, steps: int, walk: float = 10.0,
                       std: float = 50.0) -> list[np.ndarray]:
    """count tracks of steps + 1 measurements each: a position random walk
    with N(0, walk^2) steps per axis, seen with N(0, std^2) noise."""
    rng = np.random.default_rng(seed)
    return [np.cumsum(walk * rng.standard_normal((steps + 1, 2)), axis=0)
            + std * rng.standard_normal((steps + 1, 2)) for _ in range(count)]


class TestKalmanOracle:
    """At tau = 0, filter_arms against the exact posterior mean of its
    model (kalman_oracle): the whole loop of start cloud, move, likelihood,
    renormalization, resampling and estimate, no bit of it relied on.

    The statistic is the mean, over every step of 40 random-walk tracks
    (one filter seed each), of |m_PF - m_KF|^2 / tr P_KF: the squared
    distance of the particle estimate from the Kalman position mean, in
    units of the Kalman position variance. The filter is the corridor
    filter (dt 10 s, sigma_a 0.3, measurement std 50 m) at 2000 particles.
    Measured on 30-step tracks over six track seeds:

    | filter | statistic |
    |---|---|
    | as it is | 0.0040-0.0054 |
    | noise factor transposed (a bug) | 0.36-0.39 |
    | velocity noise halved (a bug) | 0.047-0.055 |

    so the bound 0.02 sits about four times above the filter and below
    half the smaller bug. A 5-10% error in a model parameter stays under
    it; this oracle checks structure, not calibration. With sigma_a 0 the
    move adds no noise, so resampled copies never spread again and the
    cloud collapses, as a bootstrap filter's does: the statistic reads
    0.003-0.005 at 5 steps, 0.014-0.030 at 10 and 1.0-1.8 at 30. That case
    runs 5 steps.
    """

    BOUND = 0.02

    @pytest.mark.parametrize("extra, steps", [
        ({}, 30),
        ({"init_position_std": 20.0, "init_speed_std": 0.5}, 30),
        ({"sigma_a": 0.0}, 5),
    ], ids=["corridor", "start-spreads-set", "no-process-noise"])
    def test_estimates_follow_the_kalman_posterior(self, extra, steps):
        config = FilterConfig(particles=2000, **{**CORRIDOR_FILTER, **extra})
        tracks = random_walk_tracks(1, 40, steps)
        estimates, failures, _ = filter_arms(
            tracks, config, [np.random.SeedSequence(k) for k in range(len(tracks))],
            [0.0] * len(tracks))
        assert failures == [None] * len(tracks)
        ratios = []
        for zs, pf_means in zip(tracks, estimates):
            kf_means, kf_traces = kalman_positions(zs, config)
            ratios.append(np.square(pf_means - kf_means).sum(axis=1) / kf_traces)
        assert np.mean(ratios) < self.BOUND
