import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from rvdlm import (DomainError, FilterTrajectory, HyperParams, ModelClass, NumericalError,
                   PriorMoments, SyntheticParams, backward_sample, build_series,
                   evolve, generate_synthetic, price_update, run_filter, rv_update,
                   smooth, sv_volatility_update_path)

from oracles import (gain_smoother, phi_chain_smoother, static_joint_smoother,
                     stepwise_backward_sample)


def assemble_trajectory(hp, init, y, z, F_seq, alpha):
    """Scalar-state trajectory built from the step-by-step core (the fused
    kernel only ships the production layouts)."""
    T = len(y)
    m = np.empty((T, 1)); C = np.empty((T, 1, 1))
    n = np.empty(T); s = np.empty(T); n_star = np.empty(T)
    f = np.empty(T); q = np.empty(T); e = np.empty(T); lp = np.empty(T)
    prior, post = init, None
    for t in range(T):
        if t > 0:
            prior = evolve(post, hp)
        n_star[t] = prior.n_star
        F = np.array([F_seq[t]])
        if alpha > 0:
            rvp = rv_update(prior, float(z[t]), alpha)
            post, stats = price_update(rvp, float(y[t]), F)
        else:
            post, stats = sv_volatility_update_path(prior, float(y[t]), F)
        m[t] = post.m; C[t] = post.C
        n[t] = post.n; s[t] = post.s
        f[t] = stats.forecast; q[t] = stats.scale; e[t] = stats.error
        lp[t] = stats.log_density
    arr = np.asarray
    return FilterTrajectory(ModelClass.SVDLM, hp, init, arr(y, dtype=float),
                            arr(z, dtype=float), np.sqrt(arr(z, dtype=float)),
                            np.zeros(T), np.zeros(T),
                            m, C, n, s, n_star, f, q, e, lp)


def anchored_scalar_case(T=3, delta=0.9, alpha=2.0, a1=0.2, R1=0.8,
                         n_star_1=12.0, s0=1.0, signs=(1.0, -1.0, 1.0),
                         F_seq=(1.0, 0.85, 1.15)):
    """beta = 1 toy whose data pin the volatility scale: z at the current
    scale and |e| = one-step scale keep every update ratio at one, so the
    static-precision joint is the exact model for the whole path."""
    hp = HyperParams(delta, 1.0, alpha)
    init = PriorMoments(np.array([a1]), np.array([[R1]]), n_star_1, s0)
    y, z = [], []
    prior, post = init, None
    for t in range(T):
        if t > 0:
            prior = evolve(post, hp)
        z_t = prior.s_prev
        rvp = rv_update(prior, z_t, alpha)
        F = np.array([F_seq[t]])
        f = float(F @ rvp.a)
        q = rvp.s_tilde + float(F @ rvp.R @ F)
        y_t = f + signs[t] * math.sqrt(q)
        post, _ = price_update(rvp, y_t, F)
        assert post.s == pytest.approx(s0, rel=1e-12)
        y.append(y_t); z.append(z_t)
    traj = assemble_trajectory(hp, init, y, z, F_seq, alpha)
    return hp, init, traj, list(F_seq)


def rvl_run(T=120, seed=5):
    rng = np.random.default_rng(seed)
    hp = HyperParams(0.97, 0.9, 2.75)
    y = np.cumsum(rng.normal(0.0, 0.01, T)) + math.log(100.0)
    z = rng.gamma(1.4, 1e-4 / 1.4, T) + 1e-12
    x = np.sqrt(z)
    y_prev = np.concatenate([[y[0]], y[:-1]])
    x_prev = np.concatenate([[x[0]], x[:-1]])
    init = PriorMoments(np.array([0.0, 1.0, 0.0, 0.0]),
                        np.diag([0.1, 0.01, 0.05, 0.05]) / hp.delta, hp.beta, 1e-4)
    return hp, run_filter(ModelClass.RVLDLM, hp, init, y, z, x, y_prev, x_prev)


class TestSmoothBasics:
    def test_terminal_boundary_equals_filtered(self):
        hp, traj = rvl_run()
        sm = smooth(traj)
        np.testing.assert_array_equal(sm.m_star[-1], traj.m[-1])
        np.testing.assert_array_equal(sm.C_star[-1], traj.C[-1])
        assert sm.s_bar[-1] == traj.s[-1]
        assert sm.n_bar[-1] == traj.n[-1]

    def test_static_model_degeneracy(self):
        # delta = beta = 1: smoothing returns the final filtered posterior
        hp = HyperParams(1.0, 1.0, 2.0)
        init = PriorMoments(np.array([0.1]), np.array([[0.5]]), 8.0, 1.0)
        rng = np.random.default_rng(0)
        y = list(rng.normal(0.0, 1.0, 6))
        z = list(rng.gamma(2.0, 0.5, 6) + 1e-6)
        traj = assemble_trajectory(hp, init, y, z, [1.0] * 6, 2.0)
        sm = smooth(traj)
        for t in range(6):
            np.testing.assert_allclose(sm.m_star[t], traj.m[-1], rtol=1e-12)
            np.testing.assert_allclose(sm.C_star[t], traj.C[-1], rtol=1e-10, atol=1e-15)
            assert sm.s_bar[t] == pytest.approx(traj.s[-1], rel=1e-12)
            assert sm.n_bar[t] == pytest.approx(traj.n[-1], rel=1e-12)

    def test_smoothed_variance_never_exceeds_filtered(self):
        # the scale-free monotonicity is exact: future data can only shrink
        # the state scale matrix
        hp, traj = rvl_run(T=200, seed=11)
        sm = smooth(traj)
        c_filt = np.einsum('tii->ti', traj.C)
        c_smth = np.einsum('tii->ti', sm.C_star)
        assert np.all(c_smth <= c_filt + 1e-12)
        # on the marginal-variance scale v*C the same holds whenever the
        # smoothed volatility was not revised upward; days with s_bar > s can
        # legitimately exceed the filtered variance through the scale factor
        calm = sm.s_bar <= traj.s
        assert calm.any()
        assert np.all(c_smth[calm] * sm.s_bar[calm, None]
                      <= c_filt[calm] * traj.s[calm, None] + 1e-10)

    def test_pure_function_of_trajectory(self):
        hp, traj = rvl_run(T=60, seed=2)
        a, b = smooth(traj), smooth(traj)
        assert np.array_equal(a.m_star, b.m_star)
        assert np.array_equal(a.s_bar, b.s_bar)


def synthetic_run(variant, delta, T=1000, seed=6, beta=None):
    theta = np.tile([0.0046, 0.998, -0.35, 0.30], (T, 1))
    params = SyntheticParams(model=ModelClass.RVLDLM, theta=theta, v0=1.3e-4)
    frame = build_series(generate_synthetic(params, np.random.default_rng(seed))[0])
    if beta is None:
        beta = 0.925 if variant is ModelClass.SVDLM else 0.875
    hp = HyperParams(delta, beta, 2.75 if variant.uses_rv else 0.0)
    d = variant.dim
    init = PriorMoments(np.array([0.0, 1.0, 0.0, 0.0][:d]),
                        np.diag([0.10, 0.01, 0.05, 0.05][:d]) / delta, hp.beta, 1.3e-4)
    return run_filter(variant, hp, init, frame.y, frame.z, frame.x,
                      frame.y_prev, frame.x_prev, dates=frame.dates)


@pytest.mark.parametrize("delta", [0.95, 0.999, 1.0])
@pytest.mark.parametrize("variant", list(ModelClass))
def test_closed_form_matches_gain_recursion(variant, delta):
    traj = synthetic_run(variant, delta)
    sm = smooth(traj)
    m_ref, C_ref, s_ref, n_ref = gain_smoother(traj.m, traj.C, traj.s, traj.n,
                                               delta, traj.hp.beta)
    for got, want in ((sm.m_star, m_ref), (sm.C_star, C_ref)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.array_equal(sm.s_bar, s_ref)
    assert np.array_equal(sm.n_bar, n_ref)


class TestSmoothAgainstJointQuadrature:
    def test_three_step_scalar_toy(self):
        hp, init, traj, F_seq = anchored_scalar_case()
        sm = smooth(traj)
        W_seq = [float(traj.C[t, 0, 0]) * (1.0 - hp.delta) / hp.delta for t in (0, 1)]
        width = 14.0 * math.sqrt(max(float(traj.C[t, 0, 0]) for t in range(3)))
        center = float(np.mean(traj.m))
        means, variances, e_phi = static_joint_smoother(
            traj.y.tolist(), traj.z.tolist(), F_seq, hp.delta, hp.alpha,
            float(init.a[0]), float(init.R[0, 0]), init.n_star, init.s_prev,
            W_seq, center - width, center + width)
        n_T = float(traj.n[-1])
        for t in range(3):
            assert sm.m_star[t, 0] == pytest.approx(means[t], rel=1e-4, abs=1e-6)
            v_closed = float(sm.C_star[t, 0, 0]) * n_T / (n_T - 2.0)
            assert v_closed == pytest.approx(variances[t], rel=1e-4)
        # beta = 1 carries all volatility information backward
        assert 1.0 / sm.s_bar[0] == pytest.approx(e_phi, rel=1e-6)


class TestVolatilitySmoothingAgainstChainQuadrature:
    def test_pure_precision_chain(self):
        # regressor identically zero: the precision chain is exactly Markov
        # and the backward scale recursion is exact for it
        beta, alpha, n_star_1, s0 = 0.8, 2.0, 20.0, 1.0
        hp = HyperParams(1.0, beta, alpha)
        rng = np.random.default_rng(8)
        T = 3
        y = list(rng.normal(0.0, 1.0, T))
        z = list(rng.gamma(1.0, 1.0, T) + 0.05)
        init = PriorMoments(np.array([0.0]), np.array([[0.4]]), n_star_1, s0)
        traj = assemble_trajectory(hp, init, y, z, [0.0] * T, alpha)
        sm = smooth(traj)
        oracle = phi_chain_smoother(y, z, beta, alpha, n_star_1, s0,
                                    n_filtered=traj.n)
        for t in range(T):
            assert 1.0 / sm.s_bar[t] == pytest.approx(oracle[t], rel=1e-5)


class TestBackwardSample:
    def test_single_step_matches_filtered_posterior(self):
        hp = HyperParams(0.95, 0.9, 2.5)
        init = PriorMoments(np.array([0.3]), np.array([[0.6]]), 10.0, 1.2)
        traj = assemble_trajectory(hp, init, [0.7], [1.1], [1.0], 2.5)
        theta, phi = backward_sample(traj, rng=np.random.default_rng(4), n_samples=60_000)
        n_t, s_t, c_t = float(traj.n[0]), float(traj.s[0]), float(traj.C[0, 0, 0])
        m_t = float(traj.m[0, 0])
        # theta margin is t_n(m, C); phi margin G(n/2, n s/2)
        t_stat = stats.kstest(theta[:, 0, 0],
                              lambda v: stats.t.cdf((v - m_t) / math.sqrt(c_t), n_t)).statistic
        p_stat = stats.kstest(phi[:, 0],
                              lambda v: stats.gamma.cdf(v, 0.5 * n_t,
                                                        scale=2.0 / (n_t * s_t))).statistic
        crit = 1.6276 / math.sqrt(theta.shape[0])
        assert t_stat < crit and p_stat < crit

    def test_ensemble_means_match_smooth(self):
        hp, traj = rvl_run(T=30, seed=21)
        sm = smooth(traj)
        theta, phi = backward_sample(traj, rng=np.random.default_rng(9), n_samples=30_000)
        mean = theta.mean(axis=0)
        se = theta.std(axis=0, ddof=1) / math.sqrt(theta.shape[0])
        assert np.all(np.abs(mean - sm.m_star) <= 3.5 * se + 1e-12)
        phi_mean = phi.mean(axis=0)
        phi_se = phi.std(axis=0, ddof=1) / math.sqrt(phi.shape[0])
        assert np.all(np.abs(phi_mean - 1.0 / sm.s_bar) <= 3.5 * phi_se)

    def test_seed_replay_bit_exact(self):
        hp, traj = rvl_run(T=15, seed=1)
        a = backward_sample(traj, rng=np.random.default_rng(33), n_samples=50)
        b = backward_sample(traj, rng=np.random.default_rng(33), n_samples=50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("variant, delta, digest", [
        (ModelClass.SVDLM, 0.999,
         "9e485e4b2d5e5e7b4d5f9e24ccc9848203e4e3024b8abb370edd1ad22041954f"),
        (ModelClass.RVLDLM, 0.999,
         "ae57ffd6e36fb891bf4d06b9f82845f4587e37d7ac4fb10287dd00609cfad407"),
        (ModelClass.RVDLM, 1.0,
         "e75fbdcc8c4937754dd654cd6df6f386c8308c599d19d1dcbb7e1e1f6f8f658b"),
    ])
    def test_draw_stream_is_pinned(self, variant, delta, digest):
        # sha256 of the theta and phi bytes for one seed: a change to the order
        # of the generator calls or to the arithmetic around them shows here
        traj = synthetic_run(variant, delta, T=80)
        theta, phi = backward_sample(traj, rng=np.random.default_rng(17), n_samples=12)
        assert theta.shape == (12, 80, variant.dim) and phi.shape == (12, 80)
        got = hashlib.sha256(np.ascontiguousarray(theta).tobytes()
                             + np.ascontiguousarray(phi).tobytes()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("beta", [None, 1.0])
    @pytest.mark.parametrize("delta", [0.95, 0.999, 1.0])
    @pytest.mark.parametrize("variant", list(ModelClass))
    def test_equals_stepwise_sampler_bit_for_bit(self, variant, delta, beta):
        traj = synthetic_run(variant, delta, T=40, beta=beta)
        got = backward_sample(traj, rng=np.random.default_rng(3), n_samples=7)
        want = stepwise_backward_sample(traj.m, traj.C, traj.s, traj.n, traj.hp.delta,
                                        traj.hp.beta, np.random.default_rng(3), 7)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_static_state_draws_one_path(self):
        # delta = 1: the backward conditional scale is exactly zero
        traj = synthetic_run(ModelClass.RVLDLM, 1.0, T=200)
        theta, _ = backward_sample(traj, rng=np.random.default_rng(7), n_samples=20)
        assert np.array_equal(theta, np.broadcast_to(theta[:, -1:, :], theta.shape))

    def test_static_precision_draws_one_phi_path(self):
        # beta = 1: every backward shock has shape 0, and a shape-0 gamma draw is exactly 0
        traj = synthetic_run(ModelClass.RVDLM, 0.999, T=200, beta=1.0)
        _, phi = backward_sample(traj, rng=np.random.default_rng(8), n_samples=20)
        assert np.all(phi[:, -1] > 0.0)
        assert np.array_equal(phi, np.broadcast_to(phi[:, -1:], phi.shape))

    @pytest.mark.parametrize("n_samples", [-1, 2.7, True, np.float64(2.0), "2"])
    def test_bad_draw_count_is_domain_error(self, n_samples):
        traj = synthetic_run(ModelClass.RVDLM, 0.999, T=20)
        with pytest.raises(DomainError, match="n_samples must be a nonnegative integer"):
            backward_sample(traj, rng=np.random.default_rng(0), n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [0, 3, np.int64(3)])
    def test_integer_draw_count_gives_that_many_paths(self, n_samples):
        traj = synthetic_run(ModelClass.RVLDLM, 0.999, T=20)
        theta, phi = backward_sample(traj, rng=np.random.default_rng(0), n_samples=n_samples)
        assert theta.shape == (int(n_samples), 20, 4) and phi.shape == (int(n_samples), 20)

    def test_non_positive_definite_scale_names_its_day(self):
        traj = synthetic_run(ModelClass.RVDLM, 0.999, T=60)
        C = traj.C.copy()
        C[17] = -C[17]
        bad = dataclasses.replace(traj, C=C)
        with pytest.raises(NumericalError, match="step 17") as info:
            backward_sample(bad, rng=np.random.default_rng(0))
        assert info.value.date == traj.dates[17]
        bad.dates = None
        with pytest.raises(NumericalError, match="step 17$"):
            backward_sample(bad, rng=np.random.default_rng(0))

    def test_indefinite_scale_names_the_first_day_lapack_rejects(self):
        # positive diagonals, an off-diagonal beyond the Cauchy-Schwarz bound:
        # indefinite on days 23 and 40; day 23 is named
        traj = synthetic_run(ModelClass.RVDLM, 0.999, T=60)
        C = traj.C.copy()
        for t in (23, 40):
            C[t, 0, 1] = C[t, 1, 0] = 2.0 * math.sqrt(C[t, 0, 0] * C[t, 1, 1])
        assert (np.diagonal(C, axis1=1, axis2=2) > 0.0).all()
        assert np.linalg.eigvalsh(C[23]).min() < 0.0
        with pytest.raises(NumericalError, match="at step 23$") as info:
            backward_sample(dataclasses.replace(traj, C=C, dates=None),
                            rng=np.random.default_rng(0))
        assert info.value.date is None
