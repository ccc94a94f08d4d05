import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats

from rvdlm import (HyperParams, ModelClass, PriorMoments, RegressorInputs,
                   StudentTParams, predictive_y_given_z, predictive_z,
                   rv_update, sample_joint, scaled_f_logpdf, student_t_logpdf)

from oracles import joint_predictive_quadrature


def scalar_prior(a=0.0, R=1.0, n_star=8.0, s_prev=2.0):
    return PriorMoments(np.array([a]), np.array([[R]]), n_star, s_prev)


class TestPredictiveZ:
    def test_pure_repackaging(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 10.0, 2.0)
        p = predictive_z(pr, 2.75)
        assert (p.dof_num, p.dof_den, p.scale) == (2.75, 10.0, 2.0)

    def test_mean_formula(self):
        assert predictive_z(PriorMoments(np.zeros(3), np.eye(3), 10.0, 2.0), 2.75).mean \
            == pytest.approx(2.5)

    def test_median_matches_compositional_mc(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 17.5, 1.0)
        p = predictive_z(pr, 2.75)
        rng = np.random.default_rng(31)
        reg = RegressorInputs(ModelClass.RVDLM, 0.0, 0.0)
        z, _ = sample_joint(pr, 2.75, reg, rng, size=200_000)
        med = p.scale * float(stats.f.ppf(0.5, p.dof_num, p.dof_den))
        frac_below = float(np.mean(z < med))
        assert abs(frac_below - 0.5) < 3.5 * math.sqrt(0.25 / z.size)


class TestPredictiveYGivenZ:
    def test_z_at_prior_scale(self):
        pr = scalar_prior(a=0.3, R=0.7, n_star=9.0, s_prev=1.5)
        reg = RegressorInputs(ModelClass.RVDLM, y_prev=0.0, x_prev=0.0)
        # F = (1, 0, 0) in the 3-d layout; use a 3-d prior for consistency
        pr3 = PriorMoments(np.array([0.3, 0.0, 0.0]), np.diag([0.7, 1.0, 1.0]), 9.0, 1.5)
        p = predictive_y_given_z(pr3, 2.0, 1.5, reg)
        assert p.dof == pytest.approx(11.0)
        assert p.scale == pytest.approx(1.5 + 0.7)
        assert p.location == pytest.approx(0.3)

    def test_scalar_toy_values(self):
        pr3 = PriorMoments(np.array([0.0, 0.0, 0.0]),
                           np.diag([1.0, 0.0, 0.0]), 8.0, 2.0)
        reg = RegressorInputs(ModelClass.RVDLM, y_prev=0.0, x_prev=0.0)
        p = predictive_y_given_z(pr3, 4.0, 3.0, reg)
        assert p.dof == pytest.approx(12.0)
        assert p.scale == pytest.approx(7.0 / 3.0 + 1.0)
        assert p.location == 0.0

    def test_rvl_location_moves_with_z(self):
        pr = PriorMoments(np.array([0.0, 0.0, -0.5, 0.4]),
                          np.diag([0.1, 0.01, 0.05, 0.05]), 17.5, 1e-4)
        reg = RegressorInputs(ModelClass.RVLDLM, y_prev=4.6, x_prev=0.01)
        p1 = predictive_y_given_z(pr, 2.75, 1e-4, reg)
        p2 = predictive_y_given_z(pr, 2.75, 2e-4, reg)
        want = -0.5 * (math.sqrt(2e-4) - math.sqrt(1e-4))
        assert p2.location - p1.location == pytest.approx(want, rel=1e-12)

    def test_consistent_with_rv_update(self):
        pr = PriorMoments(np.array([0.1, 0.9, 0.0]), 0.3 * np.eye(3), 7.0, 1.2)
        reg = RegressorInputs(ModelClass.RVDLM, y_prev=0.5, x_prev=0.03)
        z = 0.9
        p = predictive_y_given_z(pr, 2.75, z, reg)
        rvp = rv_update(pr, z, 2.75)
        F = np.array([1.0, 0.5, 0.03])
        assert p.dof == rvp.n_tilde
        assert p.scale == pytest.approx(rvp.s_tilde + float(F @ pr.R @ F), rel=1e-14)


PINNED_R = np.array([[0.10, 0.002, -0.003, 0.001],
                     [0.002, 0.01, 0.0005, -0.0004],
                     [-0.003, 0.0005, 0.05, 0.004],
                     [0.001, -0.0004, 0.004, 0.05]])


class TestSampleJoint:
    def test_z_quantiles_match_analytic(self):
        pr = PriorMoments(np.zeros(3), np.eye(3) * 0.2, 17.5, 1.3)
        rng = np.random.default_rng(7)
        reg = RegressorInputs(ModelClass.RVDLM, 0.0, 0.0)
        z, _ = sample_joint(pr, 2.75, reg, rng, size=300_000)
        for q in (0.05, 0.5, 0.95):
            ref = 1.3 * float(stats.f.ppf(q, 2.75, 17.5))
            assert abs(float(np.quantile(z, q)) - ref) / ref < 0.01

    def test_y_margin_is_t_when_alpha_vanishes(self):
        # with alpha -> 0 the z draw carries no information and the y margin
        # is exactly the one-step t with scale s_prev + F'RF
        pr = PriorMoments(np.array([0.2, 0.0, 0.0]), np.diag([0.5, 0.0, 0.0]), 12.0, 0.8)
        reg = RegressorInputs(ModelClass.SVDLM, y_prev=0.0, x_prev=0.0)
        rng = np.random.default_rng(17)
        _, y = sample_joint(pr, 1e-12, reg, rng, size=150_000)
        scale = math.sqrt(0.8 + 0.5)
        stat = stats.kstest(y, lambda v: stats.t.cdf((v - 0.2) / scale, 12.0)).statistic
        assert stat < 1.6276 / math.sqrt(y.size)

    def test_rvl_mean_matches_quadrature_over_z_margin(self):
        pr = PriorMoments(np.array([0.01, 0.9, -0.5, 0.4]),
                          np.diag([0.1, 0.01, 0.05, 0.05]), 17.5, 1e-4)
        reg = RegressorInputs(ModelClass.RVLDLM, y_prev=4.6, x_prev=0.012)
        alpha = 2.75
        zp = predictive_z(pr, alpha)

        def f_of_z(z):
            F = np.array([1.0, 4.6, math.sqrt(z), 0.012])
            return float(F @ pr.a)

        mean_f, _ = integrate.quad(
            lambda z: f_of_z(z) * math.exp(scaled_f_logpdf(z, zp)), 0.0, np.inf,
            limit=600)
        rng = np.random.default_rng(23)
        _, y = sample_joint(pr, alpha, reg, rng, size=400_000)
        se = float(np.std(y)) / math.sqrt(y.size)
        assert abs(float(np.mean(y)) - mean_f) < 4.0 * se

    def test_seed_replay_bit_exact(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 10.0, 1.0)
        reg = RegressorInputs(ModelClass.RVDLM, 0.0, 0.0)
        za, ya = sample_joint(pr, 2.0, reg, np.random.default_rng(5), size=1000)
        zb, yb = sample_joint(pr, 2.0, reg, np.random.default_rng(5), size=1000)
        assert np.array_equal(za, zb) and np.array_equal(ya, yb)

    @pytest.mark.parametrize("variant, digest", [
        (ModelClass.SVDLM, "1d05fe44dba8e05c574180f286bc9c2db01631d6580188ce32640e1f55ebb6ad"),
        (ModelClass.RVDLM, "6e8ce26f899b89002ac0054fdb58907561a5828218703df1f855789c91c6652d"),
        (ModelClass.RVLDLM, "c41cb239714666d2add162a786d20d76d8ece033f2cafaf4cdb1826d6103b43f"),
    ])
    def test_draws_are_pinned(self, variant, digest):
        # sha256 of the z and y bytes for one prior and seed per layout; the
        # prior scale has off-diagonal terms, so every F'RF cross term counts
        keep = [0, 1, 2, 3] if variant is ModelClass.RVLDLM else [0, 1, 3]
        pr = PriorMoments(np.array([0.01, 0.9, -0.5, 0.4])[keep],
                          PINNED_R[np.ix_(keep, keep)], 17.5, 1.2e-4)
        reg = RegressorInputs(variant, y_prev=4.6, x_prev=0.012)
        z, y = sample_joint(pr, 2.75, reg, np.random.default_rng(99), size=2000)
        assert hashlib.sha256(z.tobytes() + y.tobytes()).hexdigest() == digest

    def test_scalar_mode(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 10.0, 1.0)
        reg = RegressorInputs(ModelClass.RVDLM, 0.0, 0.0)
        z, y = sample_joint(pr, 2.0, reg, np.random.default_rng(1))
        assert isinstance(z, float) and isinstance(y, float) and z > 0.0


class TestJointFactorization:
    @staticmethod
    def _factorized(y_vals, z_vals, a, R, n_star, s_prev, alpha):
        pr = PriorMoments(np.array([a]), np.array([[R]]), n_star, s_prev)
        zp = predictive_z(pr, alpha)
        out = []
        for yv, zv in zip(y_vals, z_vals):
            n_til = n_star + alpha
            s_til = (n_star + alpha * zv / s_prev) / n_til * s_prev
            F = math.sqrt(zv)
            q = s_til + F * R * F
            out.append(scaled_f_logpdf(zv, zp)
                       + student_t_logpdf(yv, StudentTParams(n_til, F * a, q)))
        return out

    def test_log_density_matches_2d_quadrature(self):
        # scalar-state layout whose regressor is sqrt(z): certifies the
        # factorized joint against quadrature under the filter's anchoring
        a, R, n_star, s_prev, alpha = 0.4, 0.6, 9.0, 1.1, 2.5
        y_vals = [0.1, 0.8, -0.6, 1.4]
        z_vals = [0.5, 1.9, 0.8, 3.0]
        ref = joint_predictive_quadrature(y_vals, z_vals, a, R, n_star, s_prev,
                                          alpha, regressor_of_z=math.sqrt)
        got = self._factorized(y_vals, z_vals, a, R, n_star, s_prev, alpha)
        for g, r in zip(got, ref):
            assert g == pytest.approx(float(r), abs=1e-5)

    def test_static_joint_when_anchor_fixed(self):
        # z at the prior scale: no anchor move, so the convention-free static
        # joint must agree too
        a, R, n_star, s_prev, alpha = 0.4, 0.6, 9.0, 1.1, 2.5
        y_vals = [0.1, 0.8, -0.6]
        z_vals = [s_prev] * 3
        ref = joint_predictive_quadrature(y_vals, z_vals, a, R, n_star, s_prev,
                                          alpha, regressor_of_z=math.sqrt,
                                          reanchor=False)
        got = self._factorized(y_vals, z_vals, a, R, n_star, s_prev, alpha)
        for g, r in zip(got, ref):
            assert g == pytest.approx(float(r), abs=1e-5)

    def test_margin_and_conditional_builders(self):
        pr = PriorMoments(np.array([0.1, 0.9, 0.0]), 0.2 * np.eye(3), 8.0, 1.0)
        reg = RegressorInputs(ModelClass.RVDLM, y_prev=0.4, x_prev=0.05)
        assert predictive_z(pr, 2.0).dof_den == 8.0
        p1, p2 = (predictive_y_given_z(pr, 2.0, z, reg) for z in (0.5, 2.0))
        # non-contemporaneous layout: location fixed, scale moves through s~
        assert p1.location == p2.location
        assert p1.scale != p2.scale

