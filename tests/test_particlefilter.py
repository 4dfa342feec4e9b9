import math

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
from cstrack.grids import GridSpec
from cstrack.particlefilter import (
    FilterConfig,
    MeasurementModel,
    ParticleBelief,
    ProcessModel,
    cv_process_noise,
    estimate,
    filter_arms,
    predict,
    resample,
    run_filter,
    sample_constitution_set,
    update_constitution,
    update_measurement,
)
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer


def single_particle(p, v):
    return ParticleBelief.from_arrays([p], [v])


class TestPredict:
    def test_deterministic_transition(self):
        belief = single_particle((0.0, 0.0), (1.0, 2.0))
        process = ProcessModel(dt=1.0, Q=np.zeros((4, 4)))
        out = predict(belief, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out.positions, [[1.0, 2.0]])
        np.testing.assert_array_equal(out.velocities, [[1.0, 2.0]])

    def test_zero_dt_rejected_but_tiny_ok(self):
        with pytest.raises(ConfigurationError):
            ProcessModel(dt=0.0, Q=np.zeros((4, 4)))

    def test_identity_with_zero_q_and_velocity(self):
        belief = single_particle((3.0, 4.0), (0.0, 0.0))
        process = ProcessModel(dt=5.0, Q=np.zeros((4, 4)))
        out = predict(belief, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out.positions, belief.positions)

    def test_noise_covariance_matches_q(self):
        # Monte Carlo vs the analytic position block of Q.
        sigma_a, dt, n = 0.5, 2.0, 100_000
        q = cv_process_noise(dt, sigma_a)
        belief = ParticleBelief.from_arrays(
            np.zeros((n, 2)), np.zeros((n, 2))
        )
        process = ProcessModel(dt=dt, Q=q)
        out = predict(belief, process, np.random.default_rng(7))
        sample_cov = np.cov(out.positions.T)
        np.testing.assert_allclose(
            sample_cov, q[:2, :2], rtol=0.05, atol=0.05 * q[0, 0]
        )

    def test_weights_unchanged(self):
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 1)], [(0, 0), (0, 0)], weights=[0.25, 0.75]
        )
        process = ProcessModel.constant_velocity(1.0, 0.1)
        out = predict(belief, process, np.random.default_rng(0))
        np.testing.assert_array_equal(out.weights, belief.weights)

    def test_cached_factor_gives_the_bits_of_a_fresh_one(self):
        process = ProcessModel.constant_velocity(2.0, 0.5)
        belief = ParticleBelief.from_arrays(np.zeros((50, 2)), np.ones((50, 2)))
        out = predict(predict(belief, process, np.random.default_rng(4)), process,
                      np.random.default_rng(5))
        w, q = np.linalg.eigh(process.Q)
        fresh = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        expect = belief
        for seed in (4, 5):
            noise = np.random.default_rng(seed).standard_normal((50, 4)) @ fresh.T
            expect = ParticleBelief.from_arrays(
                expect.positions + expect.velocities * 2.0 + noise[:, :2],
                expect.velocities + noise[:, 2:],
            )
        np.testing.assert_array_equal(out.positions, expect.positions)
        np.testing.assert_array_equal(out.velocities, expect.velocities)


class TestMeasurementUpdate:
    def test_symmetric_particles_equal_weights(self):
        belief = ParticleBelief.from_arrays([(0.0, 1.0), (0.0, -1.0)], np.zeros((2, 2)))
        out, _ = update_measurement(belief, (0.0, 0.0), MeasurementModel.isotropic(1.0))
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-15)

    def test_weight_ratio_at_three_sigma(self):
        # Gaussian density ratio between a particle at z and one 3 sigma
        # away is exp(4.5).
        std = 2.0
        belief = ParticleBelief.from_arrays(
            [(0.0, 0.0), (3.0 * std, 0.0)], np.zeros((2, 2))
        )
        out, _ = update_measurement(belief, (0.0, 0.0), MeasurementModel.isotropic(std))
        ratio = out.weights[0] / out.weights[1]
        assert ratio == pytest.approx(math.exp(4.5), rel=1e-9)

    def test_flat_likelihood_keeps_priors(self):
        # R = 1e6 * I over a sub-meter particle cloud: the likelihood is
        # flat to ~1e-6, so posterior weights match priors at that scale.
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1.0, 16)
        belief = ParticleBelief.from_arrays(
            rng.uniform(-0.5, 0.5, (16, 2)), np.zeros((16, 2)), weights=weights
        )
        out, _ = update_measurement(
            belief, (0.0, 0.0), MeasurementModel(R=np.eye(2) * 1e6)
        )
        np.testing.assert_allclose(out.weights, belief.weights, atol=1e-6)

    def test_degenerate_update_raises(self):
        belief = ParticleBelief.from_arrays([(1e9, 1e9)], [(0.0, 0.0)])
        with pytest.raises(DegenerateBeliefError):
            update_measurement(belief, (0.0, 0.0), MeasurementModel.isotropic(1.0))

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
        belief = ParticleBelief.from_arrays([(0.0, 0.0)], [(0.0, 0.0)])
        _, norm = update_measurement(belief, (0.0, 0.0), MeasurementModel.isotropic(1.0))
        assert norm == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


class TestConstitutionUpdate:
    def test_tau_zero_is_bitwise_noop(self):
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.3, 0.7]
        )
        out = update_constitution(belief, np.zeros(2), tau=0.0)
        assert out is belief

    def test_tau_one_weights_by_probability(self):
        belief = ParticleBelief.from_arrays([(0, 0), (1, 1)], np.zeros((2, 2)))
        out = update_constitution(belief, [0.8, 0.2], tau=1.0)
        np.testing.assert_allclose(out.weights, [0.8, 0.2], atol=1e-15)

    def test_half_tau_all_zero_probs_is_uniform(self):
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 1), (2, 2)], np.zeros((3, 2)), weights=[0.5, 0.25, 0.25]
        )
        out = update_constitution(belief, [0.0, 0.0, 0.0], tau=0.5)
        np.testing.assert_allclose(out.weights, belief.weights, atol=1e-15)

    def test_tau_one_all_zero_raises(self):
        belief = ParticleBelief.from_arrays([(0, 0)], [(0, 0)])
        with pytest.raises(DegenerateBeliefError):
            update_constitution(belief, [0.0], tau=1.0)

    def test_scale_invariance_of_positive_factors(self):
        # Multiplying all compliance factors by a constant cancels in the
        # normalization.
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.4, 0.6]
        )
        a = update_constitution(belief, [0.2, 0.6], tau=1.0)
        b = update_constitution(belief, [0.1, 0.3], tau=1.0)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    def test_invalid_tau_rejected(self):
        belief = ParticleBelief.from_arrays([(0, 0)], [(0, 0)])
        with pytest.raises(ConfigurationError):
            update_constitution(belief, [1.0], tau=1.5)

    def test_undefined_particles_keep_their_weights(self):
        belief = ParticleBelief.from_arrays(
            np.zeros((4, 2)), np.zeros((4, 2)), weights=[0.1, 0.2, 0.3, 0.4]
        )
        out = update_constitution(belief, [0.9, np.nan, 0.1, np.nan], tau=0.7)
        out.validate()
        np.testing.assert_allclose(out.weights[[1, 3]], [0.2, 0.4], rtol=1e-12)
        # The defined particles split their mass by their blended factors.
        ratio = (0.1 * (0.7 * 0.9 + 0.3)) / (0.3 * (0.7 * 0.1 + 0.3))
        assert out.weights[0] / out.weights[2] == pytest.approx(ratio, rel=1e-12)

    def test_all_undefined_step_returns_the_belief(self):
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 1)], np.zeros((2, 2)), weights=[0.3, 0.7]
        )
        assert update_constitution(belief, [np.nan, np.nan], tau=1.0) is belief

    def test_tau_one_undefined_and_zero_raises(self):
        belief = ParticleBelief.from_arrays(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(DegenerateBeliefError):
            update_constitution(belief, [np.nan, 0.0, 0.0], tau=1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_probability_rejected(self, bad):
        belief = ParticleBelief.from_arrays(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            update_constitution(belief, [0.5, bad], tau=0.5)


class TestResampling:
    def test_uniform_weights_not_triggered(self):
        belief = ParticleBelief.from_arrays(np.zeros((10, 2)), np.zeros((10, 2)))
        assert belief.effective_sample_size() == pytest.approx(10.0)
        assert belief.effective_sample_size() >= 0.5 * belief.size

    def test_single_heavy_particle_dominates(self):
        weights = np.zeros(8)
        weights[3] = 1.0
        belief = ParticleBelief.from_arrays(
            np.arange(16).reshape(8, 2), np.zeros((8, 2)), weights=weights
        )
        out = resample(belief, np.random.default_rng(1))
        assert (out.positions == belief.positions[3]).all()
        np.testing.assert_allclose(out.weights, 1.0 / 8)

    def test_frequencies_match_weights(self):
        # Multinomial expectation oracle: over many passes the copy
        # frequencies converge to the weights; +-0.005 at ~1e5 draws.
        weights = np.array([0.5, 0.3, 0.2])
        belief = ParticleBelief.from_arrays(
            [(0, 0), (1, 0), (2, 0)], np.zeros((3, 2)), weights=weights
        )
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        passes = 33_334
        for _ in range(passes):
            out = resample(belief, rng)
            ids = out.positions[:, 0].astype(int)
            counts += np.bincount(ids, minlength=3)
        freqs = counts / (passes * 3)
        np.testing.assert_allclose(freqs, weights, atol=0.005)


class TestEstimate:
    def test_single_particle(self):
        belief = single_particle((2.0, 3.0), (0.5, -0.5))
        mean, trace = estimate(belief)
        np.testing.assert_array_equal(mean, [2.0, 3.0, 0.5, -0.5])
        assert trace == 0.0

    def test_two_equal_particles(self):
        belief = ParticleBelief.from_arrays([(0, 0), (2, 0)], np.zeros((2, 2)))
        mean, _ = estimate(belief)
        np.testing.assert_allclose(mean[:2], [1.0, 0.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        n = 200
        belief = ParticleBelief.from_arrays(
            rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
            weights=rng.uniform(0.01, 1.0, n),
        )
        mean, trace = estimate(belief)
        states = np.hstack([belief.positions, belief.velocities])
        oracle_mean = (belief.weights[:, None] * states).sum(axis=0)
        centered = states - oracle_mean
        oracle_cov = sum(
            w * np.outer(c, c) for w, c in zip(belief.weights, centered)
        )
        np.testing.assert_allclose(mean, oracle_mean, atol=1e-12)
        assert trace == pytest.approx(np.trace(oracle_cov), rel=0, abs=1e-12)


class TestSampleSet:
    def test_constant_evaluator(self):
        belief = ParticleBelief.from_arrays(
            np.random.default_rng(0).normal(size=(32, 2)), np.zeros((32, 2))
        )
        out = sample_constitution_set(
            belief, MeasurementModel.isotropic(1.0),
            lambda p, z: np.full(len(p), 0.7), n=25,
            rng=np.random.default_rng(5),
        )
        assert out.values.shape == (25,)
        assert (out.values == 0.7).all()

    def test_weight_proportional_sampling(self):
        weights = np.array([0.9, 0.1])
        belief = ParticleBelief.from_arrays(
            [(0.0, 0.0), (100.0, 0.0)], np.zeros((2, 2)), weights=weights
        )
        out = sample_constitution_set(
            belief, MeasurementModel.isotropic(0.1),
            lambda p, z: np.zeros(len(p)), n=2000,
            rng=np.random.default_rng(11),
        )
        share = (out.states[:, 0] < 50).mean()
        assert abs(share - 0.9) < 0.03

    def test_undefined_values_rejected(self):
        belief = ParticleBelief.from_arrays(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ConfigurationError):
            sample_constitution_set(
                belief, MeasurementModel.isotropic(1.0),
                lambda p, z: np.full(len(p), np.nan), n=5,
                rng=np.random.default_rng(0),
            )


class TestWeightSimplexFuzz:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_updates_preserve_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        belief = ParticleBelief.from_arrays(
            rng.normal(scale=30.0, size=(n, 2)), rng.normal(size=(n, 2))
        )
        process = ProcessModel.constant_velocity(1.0, 0.3)
        meas = MeasurementModel.isotropic(20.0)
        for _ in range(5):
            belief = predict(belief, process, rng)
            z = belief.positions[rng.integers(n)] + rng.normal(scale=5.0, size=2)
            belief, _ = update_measurement(belief, z, meas)
            belief.validate()
            belief = update_constitution(
                belief, rng.uniform(size=n), tau=float(rng.uniform())
            )
            belief.validate()
            if belief.effective_sample_size() < 0.5 * belief.size:
                belief = resample(belief, rng)
            belief.validate()


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
        estimates, records = run_filter(noisy, config, np.random.default_rng(1))
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

        a, _ = run_filter(noisy, config, np.random.default_rng(3))
        b, _ = run_filter(noisy, config, np.random.default_rng(3),
                          evaluate=evaluate, tau=0.0)
        assert (a == b).all()
        assert calls == []
        # The counter does see an active compliance step: one call per step.
        run_filter(noisy, config, np.random.default_rng(3), evaluate=evaluate, tau=0.5)
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
        base = run_filter(noisy, config, np.random.default_rng(7))
        for evaluate in (
            precompute_field(program, [layer], grid).particle_probabilities,
            ConstitutionEvaluator(program, [layer]).particle_probabilities,
        ):
            est, records = run_filter(noisy, config, np.random.default_rng(7),
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

        base, _ = run_filter(noisy, config, np.random.default_rng(5))
        guided, _ = run_filter(noisy, config, np.random.default_rng(5),
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
        round_tripped = FilterConfig.from_json(config.to_json())
        assert round_tripped.measurement_model.R[0, 1] == 400.0

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
        _, records = run_filter(truth, config, np.random.default_rng(0))
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
        belief = ParticleBelief.from_arrays(deltas, rng.normal(size=(n, 2)),
                                            weights=rng.uniform(size=n))
        mean, trace = estimate(belief)
        centered = np.hstack([belief.positions, belief.velocities]) - mean
        cov = np.einsum("n,ni,nj->ij", belief.weights, centered, centered)
        assert trace == float(np.trace(cov))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_covariance_trace_matches_einsum(self, seed, n):
        rng = np.random.default_rng(seed)
        belief = ParticleBelief.from_arrays(
            rng.normal(scale=rng.uniform(0.1, 500.0), size=(n, 2)),
            rng.normal(size=(n, 2)), weights=rng.uniform(0.01, 1.0, n),
        )
        mean, trace = estimate(belief)
        states = np.hstack([belief.positions, belief.velocities])
        assert np.array_equal(mean, belief.weights @ states)
        centered = states - mean
        cov = np.einsum("n,ni,nj->ij", belief.weights, centered, centered)
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


def stepwise_run(measurements, config, rng, evaluate, tau):
    """The filter loop spelled out with the one-arm step functions, as
    run_filter read before the arms axis; returns the estimates."""
    belief = ParticleBelief.from_gaussian(
        measurements[0], config.particles, rng,
        position_std=config.measurement_noise_std, speed_std=config.init_speed_std,
    )
    out = []
    for z in measurements[1:]:
        belief = predict(belief, config.process_model, rng)
        belief, _ = update_measurement(belief, z, config.measurement_model)
        if tau > 0.0:
            belief = update_constitution(belief, evaluate(belief.positions, z), tau)
        if belief.effective_sample_size() < config.ess_ratio * belief.size:
            belief = resample(belief, rng)
        out.append(estimate(belief)[0][:2])
    return np.array(out)


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
        estimates, failures, records = filter_arms(
            measurements, config, [np.random.default_rng(filter_seed) for _ in taus],
            taus, evaluate=evaluate,
        )
        assert estimates.shape == (len(taus), len(measurements) - 1, 2)
        assert records == []
        for j, tau in enumerate(taus):
            alone = outcome(lambda: run_filter(measurements, config,
                                               np.random.default_rng(filter_seed),
                                               evaluate=evaluate, tau=tau)[0])
            stepwise = outcome(lambda: stepwise_run(measurements, config,
                                                    np.random.default_rng(filter_seed),
                                                    evaluate, tau))
            if failures[j] is None:
                assert alone[0] == stepwise[0] == "ok"
                assert np.array_equal(estimates[j], alone[1])
                assert np.array_equal(estimates[j], stepwise[1])
            else:
                assert alone == stepwise == ("raised", failures[j])
                assert np.isnan(estimates[j]).all()

    def test_tau_zero_arm_is_the_plain_filter(self):
        measurements, config, evaluate = _arms_world(11, "nan")
        taus = (0.0, 0.5, 0.0, 1.0)
        estimates, failures, _ = filter_arms(
            measurements, config, [np.random.default_rng(5) for _ in taus], taus,
            evaluate=evaluate,
        )
        plain, _ = run_filter(measurements, config, np.random.default_rng(5))
        assert failures == [None] * 4
        assert np.array_equal(estimates[0], plain)
        assert np.array_equal(estimates[2], plain)

    def test_degenerate_arm_is_frozen_and_the_others_go_on(self):
        measurements, config, evaluate = _arms_world(3, "zero")
        taus = (0.0, 1.0, 0.5)
        estimates, failures, _ = filter_arms(
            measurements, config, [np.random.default_rng(8) for _ in taus], taus,
            evaluate=evaluate,
        )
        assert failures[0] is None and failures[2] is None
        assert "compliance update" in failures[1]
        assert np.isnan(estimates[1]).all()
        assert np.isfinite(estimates[[0, 2]]).all()
        with pytest.raises(DegenerateBeliefError, match="compliance update"):
            run_filter(measurements, config, np.random.default_rng(8),
                       evaluate=evaluate, tau=1.0)

    def test_live_arms_share_one_evaluate_call_per_step(self):
        measurements, config, field_eval = _arms_world(4, "random")
        calls = []

        def evaluate(p, z):
            calls.append(len(p))
            return field_eval(p, z)

        taus = (0.0, 0.3, 1.0)
        filter_arms(measurements, config, [np.random.default_rng(1) for _ in taus],
                    taus, evaluate=evaluate)
        assert calls == [2 * config.particles] * (len(measurements) - 1)

    def test_log_gives_the_run_filter_records(self):
        measurements, config, evaluate = _arms_world(6, "nan")
        _, records = run_filter(measurements, config, np.random.default_rng(2),
                                evaluate=evaluate, tau=0.7, t0=100.0)
        _, _, logged = filter_arms(measurements, config, [np.random.default_rng(2)], [0.7],
                                   evaluate=evaluate, t0=100.0, log=True)
        assert logged == records
        assert [r.t for r in records] == [100.0 + step for step in range(1, 8)]

    @pytest.mark.parametrize("taus", [(0.0, -0.1), (1.5,), (float("nan"),)])
    def test_tau_outside_unit_interval_rejected(self, taus):
        measurements, config, evaluate = _arms_world(0, "random")
        with pytest.raises(ConfigurationError, match="tau must lie in"):
            filter_arms(measurements, config,
                        [np.random.default_rng(0) for _ in taus], taus, evaluate=evaluate)

    def test_each_arm_needs_its_own_generator(self):
        measurements, config, _ = _arms_world(0, "random")
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="generator"):
            filter_arms(measurements, config, [rng, rng], (0.0, 0.5))
        with pytest.raises(ConfigurationError, match="generator"):
            filter_arms(measurements, config, [rng], (0.0, 0.5))
