import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cstrack.constitution import ConstitutionEvaluator, parse, precompute_field
from cstrack.constitution.field import ConstitutionField
from cstrack.errors import (
    ConfigurationError,
    CstrackError,
    DegenerateBeliefError,
    FormatError,
)
from cstrack import particlefilter
from cstrack.grids import GridSpec
from cstrack.particlefilter import (
    FilterConfig,
    MeasurementModel,
    ProcessModel,
    _compliance_factor,
    _move,
    _resample_index,
    _streams,
    cv_process_noise,
    filter_arms,
)
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer
from reference_filter import (
    belief,
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
        process = ProcessModel(dt=1.0, Q=np.zeros((4, 4)))
        out, _ = predict(states, weights, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, :2], [[1.0, 2.0]])
        np.testing.assert_array_equal(out[:, 2:], [[1.0, 2.0]])

    def test_zero_dt_rejected_but_tiny_ok(self):
        with pytest.raises(ConfigurationError):
            ProcessModel(dt=0.0, Q=np.zeros((4, 4)))

    def test_identity_with_zero_q_and_velocity(self):
        states, weights = single_particle((3.0, 4.0), (0.0, 0.0))
        process = ProcessModel(dt=5.0, Q=np.zeros((4, 4)))
        out, _ = predict(states, weights, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, :2], states[:, :2])

    def test_noise_covariance_matches_q(self):
        # Monte Carlo vs the analytic position block of Q.
        sigma_a, dt, n = 0.5, 2.0, 100_000
        q = cv_process_noise(dt, sigma_a)
        states, weights = belief(np.zeros((n, 2)), np.zeros((n, 2)))
        process = ProcessModel(dt=dt, Q=q)
        out, _ = predict(states, weights, process, np.random.default_rng(7))
        sample_cov = np.cov(out[:, :2].T)
        np.testing.assert_allclose(
            sample_cov, q[:2, :2], rtol=0.05, atol=0.05 * q[0, 0]
        )

    def test_weights_unchanged(self):
        states, weights = belief([(0, 0), (1, 1)], [(0, 0), (0, 0)], weights=[0.25, 0.75])
        process = ProcessModel.constant_velocity(1.0, 0.1)
        _, out = predict(states, weights, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out, weights)

    def test_cached_factor_gives_the_bits_of_a_fresh_one(self):
        process = ProcessModel.constant_velocity(2.0, 0.5)
        states, weights = belief(np.zeros((50, 2)), np.ones((50, 2)))
        out, _ = predict(*predict(states, weights, process, np.random.default_rng(4)),
                         process, np.random.default_rng(5))
        w, q = np.linalg.eigh(process.Q)
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
        process = ProcessModel.constant_velocity(2.0, 0.5)
        w, q = np.linalg.eigh(process.Q)
        fresh_factor = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        stream_of = np.array([0, 1, 0, 0, 1])
        moves = [self.children(k)[0] for k in (0, 1)]
        fresh = [self.children(k)[0] for k in (0, 1)]
        states = self.stack()
        for _ in range(3):
            expect = states.copy()
            noises = [rng.standard_normal((40, 4)) @ fresh_factor.T for rng in fresh]
            _move(states, process, moves, stream_of)
            for arm, k in enumerate(stream_of):
                expect[arm, :, :2] += expect[arm, :, 2:] * 2.0
                expect[arm] += noises[k]
                assert np.array_equal(states[arm], expect[arm])
            for move, rng in zip(moves, fresh):
                assert move.bit_generator.state == rng.bit_generator.state

    def test_a_stream_without_arms_draws_nothing(self):
        process = ProcessModel.constant_velocity(1.0, 0.3)
        moves = [self.children(k)[0] for k in (0, 1)]
        idle = self.children(1)[0].bit_generator.state
        _move(self.stack()[:2], process, moves, np.array([0, 0]))
        assert moves[1].bit_generator.state == idle

    def test_zero_q_draws_nothing(self):
        process = ProcessModel(dt=3.0, Q=np.zeros((4, 4)))
        moves = [self.children(k)[0] for k in (0, 1)]
        before = [rng.bit_generator.state for rng in moves]
        states = self.stack()
        expect = states.copy()
        expect[..., :2] += expect[..., 2:] * 3.0
        _move(states, process, moves, np.array([0, 1, 0, 0, 1]))
        assert np.array_equal(states, expect)
        assert [rng.bit_generator.state for rng in moves] == before

    def test_non_finite_states_raise(self):
        process = ProcessModel.constant_velocity(1.0, 0.3)
        moves = [self.children(k)[0] for k in (0, 1)]
        states = self.stack()
        states[3, 7, 2] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            _move(states, process, moves, np.array([0, 1, 0, 0, 1]))
        states = self.stack()
        states[1, 0, 0] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            _move(states, ProcessModel(dt=1.0, Q=np.zeros((4, 4))), moves,
                  np.array([0, 1, 0, 0, 1]))


class TestMeasurementUpdate:
    def test_symmetric_particles_equal_weights(self):
        states, weights = belief([(0.0, 1.0), (0.0, -1.0)], np.zeros((2, 2)))
        out, _ = update_measurement(states, weights, (0.0, 0.0),
                                    MeasurementModel.isotropic(1.0))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_weight_ratio_at_three_sigma(self):
        # Gaussian density ratio between a particle at z and one 3 sigma
        # away is exp(4.5).
        std = 2.0
        states, weights = belief([(0.0, 0.0), (3.0 * std, 0.0)], np.zeros((2, 2)))
        out, _ = update_measurement(states, weights, (0.0, 0.0),
                                    MeasurementModel.isotropic(std))
        ratio = out[0] / out[1]
        assert ratio == pytest.approx(math.exp(4.5), rel=1e-9)

    def test_flat_likelihood_keeps_priors(self):
        # R = 1e6 * I over a sub-meter particle cloud: the likelihood is
        # flat to ~1e-6, so posterior weights match priors at that scale.
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1.0, 16)
        states, weights = belief(
            rng.uniform(-0.5, 0.5, (16, 2)), np.zeros((16, 2)), weights=weights
        )
        out, _ = update_measurement(
            states, weights, (0.0, 0.0), MeasurementModel(R=np.eye(2) * 1e6)
        )
        np.testing.assert_allclose(out, weights, atol=1e-6)

    def test_degenerate_update_raises(self):
        states, weights = belief([(1e9, 1e9)], [(0.0, 0.0)])
        with pytest.raises(DegenerateBeliefError):
            update_measurement(states, weights, (0.0, 0.0), MeasurementModel.isotropic(1.0))

    def test_cached_inverse_gives_the_bits_of_a_fresh_one(self):
        R = np.array([[9.0, 2.5], [2.5, 4.0]])
        deltas = np.random.default_rng(6).normal(0.0, 3.0, (40, 2))
        meas = MeasurementModel(R=R)
        for _ in range(2):  # the second call reads the cached terms
            got = meas.likelihood(deltas)
            quad = np.einsum("ni,ij,nj->n", deltas, np.linalg.inv(R), deltas)
            fresh = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(R))) * np.exp(-0.5 * quad)
            np.testing.assert_array_equal(got, fresh)

    def test_normalization_constant_is_marginal_density(self):
        states, weights = belief([(0.0, 0.0)], [(0.0, 0.0)])
        _, norm = update_measurement(states, weights, (0.0, 0.0),
                                     MeasurementModel.isotropic(1.0))
        assert norm == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


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
        weights = np.full(10, 0.1)
        assert np.cumsum(weights)[-1] < 1.0
        index = _resample_index(weights, FixedUniform(np.nextafter(1.0, 0.0)))
        assert (index < 10).all() and index[-1] == 9

    def test_slot_on_a_cumulative_boundary_copies_the_particle_below_it(self):
        index = _resample_index(np.full(4, 0.25), FixedUniform(0.0))
        np.testing.assert_array_equal(index, [0, 0, 1, 2])

    def test_ess_exactly_at_the_threshold_does_not_resample(self):
        # Particles start at one point and never move, so the measurement
        # keeps the weights uniform; tau = 1 and compliance [1, 1, 0, 0]
        # leave [0.5, 0.5, 0, 0], an ESS of exactly 2 = 0.5 * 4.
        config = FilterConfig(particles=4, dt=1.0, sigma_a=0.0, measurement_noise_std=1.0,
                              ess_ratio=0.5, init_position_std=0.0, init_speed_std=0.0)
        _, failures, records = filter_arms(
            [np.zeros((2, 2))], config, [np.random.SeedSequence(0)], [1.0],
            evaluate=lambda positions, z: np.tile([1.0, 1.0, 0.0, 0.0], len(positions) // 4),
            log=True)
        assert failures == [None]
        assert records[0][0].n_eff == 2.0
        assert not records[0][0].resampled

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
        process = ProcessModel.constant_velocity(1.0, 0.3)
        meas = MeasurementModel.isotropic(20.0)
        for _ in range(5):
            states, weights = predict(states, weights, process, rng)
            z = states[rng.integers(n), :2] + rng.normal(scale=5.0, size=2)
            weights, _ = update_measurement(states, weights, z, meas)
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
            calls.append(len(p))
            return np.full(len(p), 0.5)

        a, _ = run_filter(noisy, config, np.random.SeedSequence(3))
        b, _ = run_filter(noisy, config, np.random.SeedSequence(3),
                          evaluate=evaluate, tau=0.0)
        assert (a == b).all()
        assert calls == []
        # The counter does see an active compliance step: one call per step.
        run_filter(noisy, config, np.random.SeedSequence(3), evaluate=evaluate, tau=0.5)
        assert calls == [200] * (len(truth) - 1)

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
            return np.exp(-0.5 * (p[:, 1] / 10.0) ** 2)

        base, _ = run_filter(noisy, config, np.random.SeedSequence(5))
        guided, _ = run_filter(noisy, config, np.random.SeedSequence(5),
                             evaluate=evaluate, tau=1.0)
        base_err = np.abs(base[:, 1] - 0.0).mean()
        guided_err = np.abs(guided[:, 1] - 0.0).mean()
        assert guided_err < base_err

    def test_full_r_matrix_config(self):
        config = FilterConfig(particles=32, R=((2500.0, 400.0), (400.0, 900.0)))
        R = config.measurement_model.R
        np.testing.assert_array_equal(R, [[2500.0, 400.0], [400.0, 900.0]])
        noise = config.draw_measurement_noise(np.random.default_rng(0), 50_000)
        np.testing.assert_allclose(np.cov(noise.T), R, rtol=0.05, atol=50.0)
        from_file = FilterConfig.from_json({"particles": 32,
                                            "R": [[2500.0, 400.0], [400.0, 900.0]]})
        np.testing.assert_array_equal(from_file.measurement_model.R, R)

    def test_malformed_config_file_is_format_error(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="bad filter config"):
            FilterConfig.load(path)

    @pytest.mark.parametrize("obj", [{"particles": 200.5}, {"particles": True},
                                     {"sigma_a": "x"}, {"dt": float("nan")},
                                     {"R": [[1, 0], [0]]}, {"R": [[1.0]]}])
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
        assert config.particles >= 1 and config.measurement_model.R.shape == (2, 2)

    def test_records_fields(self):
        truth = self.track(steps=5)
        config = FilterConfig(particles=64, dt=1.0, measurement_noise_std=2.0)
        _, records = run_filter(truth, config, np.random.SeedSequence(0))
        rec = records[0].to_json()
        assert set(rec) == {
            "t", "estimate", "covariance_trace", "n_eff", "norm_const",
            "mean_constitution_prob", "resampled",
        }


class TestEinsumFreeStep:
    """The step's hand-written sums give the bits of np.einsum over
    particle counts and isotropic and full R. For one or two rows einsum
    itself sums the quadratic form in another order, so with a
    non-diagonal R the likelihood matches from three rows on."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.booleans())
    def test_likelihood_matches_einsum(self, seed, n, isotropic):
        assume(isotropic or n >= 3)
        rng = np.random.default_rng(seed)
        if isotropic:
            meas = MeasurementModel.isotropic(rng.uniform(0.5, 300.0))
        else:
            a = rng.normal(scale=30.0, size=(2, 2))
            meas = MeasurementModel(R=a @ a.T + np.eye(2))
        deltas = rng.normal(scale=rng.uniform(0.1, 500.0), size=(n, 2))
        inv, norm = np.linalg.inv(meas.R), 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(meas.R)))
        quad = np.einsum("ni,ij,nj->n", deltas, inv, deltas)
        np.testing.assert_array_equal(meas.likelihood(deltas), norm * np.exp(-0.5 * quad))

    @pytest.mark.parametrize("n", [8191, 100_000])
    def test_large_counts_match_einsum(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(scale=30.0, size=(2, 2))
        meas = MeasurementModel(R=a @ a.T + np.eye(2))
        deltas = rng.normal(scale=80.0, size=(n, 2))
        quad = np.einsum("ni,ij,nj->n", deltas, np.linalg.inv(meas.R), deltas)
        np.testing.assert_array_equal(meas.likelihood(deltas),
                                      meas._inverse_and_norm[1] * np.exp(-0.5 * quad))
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
            return field_eval(p, z) * np.exp(-np.square(p - z).sum(axis=1) / 400.0)

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
            calls.append(len(p))
            return field_eval(p, z)

        taus = (0.0, 0.3, 1.0)
        filter_arms([measurements] * len(taus), config,
                    [np.random.SeedSequence(1) for _ in taus], taus, evaluate=evaluate)
        assert calls == [2 * config.particles] * (len(measurements) - 1)

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
