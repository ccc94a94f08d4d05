import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from rvdlm import (DomainError, GammaParams, ScaledFParams, StudentTParams,
                   gamma_quantile, sample_scaled_f, scaled_f_logpdf, special,
                   student_t_logpdf)

# frozen expected values, each computed with the independent oracle noted inline
CAUCHY_AT_ZERO = -1.1447298858494002          # ln(1/pi), exact
T5_LOGPDF_AT_2 = -2.731979583761081           # scipy.stats.t.logpdf(2, 5), cross-checked
                                              # by normalizing (1+y^2/5)^-3 via quadrature
GAMMA_Q95_SHAPE2 = 4.743864518390577          # bisection on scipy.special.gammainc


class TestStudentTLogpdf:
    def test_standard_cauchy_at_zero(self):
        assert student_t_logpdf(0.0, StudentTParams(1.0, 0.0, 1.0)) == \
            pytest.approx(CAUCHY_AT_ZERO, abs=1e-12)

    def test_mode_value_formula(self):
        for dof, loc, scale in [(3.0, 1.5, 2.0), (17.5, -0.3, 0.25)]:
            got = student_t_logpdf(loc, StudentTParams(dof, loc, scale))
            want = (math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)
                    - 0.5 * math.log(dof * math.pi * scale))
            assert got == pytest.approx(want, rel=1e-14)

    def test_frozen_oracle_value(self):
        got = student_t_logpdf(2.0, StudentTParams(5.0, 0.0, 1.0))
        assert got == pytest.approx(T5_LOGPDF_AT_2, abs=1e-12)

    def test_against_scipy_with_location_scale(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dof = float(np.exp(rng.uniform(-0.5, 4.0)))
            loc = float(rng.normal())
            scale = float(np.exp(rng.uniform(-3.0, 2.0)))
            y = float(rng.normal(loc, 2.0))
            ref = stats.t.logpdf(y, dof, loc=loc, scale=math.sqrt(scale))
            assert student_t_logpdf(y, StudentTParams(dof, loc, scale)) == \
                pytest.approx(float(ref), rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.3, 50.0), st.floats(-3.0, 3.0),
           st.floats(0.01, 10.0), st.floats(0.0, 8.0))
    def test_symmetric_about_location(self, dof, loc, scale, d):
        p = StudentTParams(dof, loc, scale)
        assert student_t_logpdf(loc + d, p) == pytest.approx(
            student_t_logpdf(loc - d, p), rel=1e-12, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            StudentTParams(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            StudentTParams(1.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            student_t_logpdf(math.nan, StudentTParams(1.0, 0.0, 1.0))


class TestScaledFLogpdf:
    def test_f22_closed_form(self):
        # F(2,2) density is 1/(1+x)^2, so at 1 the log density is ln(1/4)
        got = scaled_f_logpdf(1.0, ScaledFParams(2.0, 2.0, 1.0))
        assert got == pytest.approx(math.log(0.25), abs=1e-13)

    def test_mean_formula_by_quadrature(self):
        p = ScaledFParams(2.75, 10.0, 2.0)
        mean, _ = integrate.quad(lambda z: z * math.exp(scaled_f_logpdf(z, p)),
                                 0.0, np.inf, limit=400)
        assert p.mean == pytest.approx(2.0 * 10.0 / 8.0, rel=1e-12)
        assert mean == pytest.approx(p.mean, rel=1e-8)

    def test_integrates_to_one(self):
        for p in [ScaledFParams(2.75, 17.5, 1.0), ScaledFParams(1.2, 6.0, 0.3),
                  ScaledFParams(8.0, 40.0, 2.5e-4)]:
            total, _ = integrate.quad(lambda z: math.exp(scaled_f_logpdf(z, p)),
                                      0.0, np.inf, limit=400)
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_scipy_f(self):
        p = ScaledFParams(2.75, 17.5, 1.0)
        got = scaled_f_logpdf(0.5, p)
        assert got == pytest.approx(float(stats.f.logpdf(0.5, 2.75, 17.5)), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 30.0), st.floats(0.5, 60.0),
           st.floats(0.001, 100.0), st.floats(0.01, 50.0))
    def test_scale_family_identity(self, dof_num, dof_den, scale, z):
        with_scale = scaled_f_logpdf(z, ScaledFParams(dof_num, dof_den, scale))
        unit = scaled_f_logpdf(z / scale, ScaledFParams(dof_num, dof_den, 1.0))
        assert with_scale == pytest.approx(unit - math.log(scale), rel=1e-11, abs=1e-11)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            scaled_f_logpdf(0.0, ScaledFParams(2.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            scaled_f_logpdf(-1.0, ScaledFParams(2.0, 2.0, 1.0))


class TestGammaQuantile:
    def test_exponential_median(self):
        assert gamma_quantile(0.5, GammaParams(1.0, 1.0)) == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_frozen_oracle_value(self):
        assert gamma_quantile(0.95, GammaParams(2.0, 1.0)) == \
            pytest.approx(GAMMA_Q95_SHAPE2, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 200.0), st.floats(0.01, 50.0), st.floats(0.001, 0.999))
    def test_round_trip_inverse(self, shape, rate, u):
        p = GammaParams(shape, rate)
        x = gamma_quantile(u, p)
        assert special.reg_lower_gamma(shape, rate * x) == pytest.approx(u, abs=1e-10)

    def test_monotone_in_level(self):
        p = GammaParams(2.75 / 2.0, 2.75 / 2.0)
        qs = [gamma_quantile(u, p) for u in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_rejects_bad_levels(self):
        with pytest.raises(DomainError):
            gamma_quantile(1.0, GammaParams(1.0, 1.0))


class TestGammaSampler:
    # the gamma draws the package makes: the generator's standard_gamma over the rate
    def test_moment_identity(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_gamma(3.0, 1_000_000) / 2.0
        se = math.sqrt(3.0 / 4.0 / draws.size)
        assert abs(draws.mean() - 1.5) < 3.0 * se

    def test_mean_one_shock_law(self):
        # the realized-variance innovation has unit mean for any shape index
        rng = np.random.default_rng(5)
        draws = rng.standard_gamma(0.5 * 2.75, 400_000) / (0.5 * 2.75)
        se = math.sqrt((2.0 / 2.75) / draws.size)
        assert abs(draws.mean() - 1.0) < 3.5 * se

    # shape 0.05: backward-sampler shocks (1 - beta) n / 2 sit this low on a run's first days
    @pytest.mark.parametrize("shape,rate",
                             [(0.05, 1.0), (0.5, 1.0), (1.375, 2.0), (8.75, 4.375)])
    def test_ks_against_gamma_cdf(self, shape, rate):
        rng = np.random.default_rng(42)
        draws = rng.standard_gamma(shape, 100_000) / rate
        stat = stats.kstest(draws, lambda x: stats.gamma.cdf(x, shape, scale=1.0 / rate)).statistic
        assert stat < 1.6276 / math.sqrt(draws.size)  # 1% critical value


class TestCompositionalScaledF:
    def test_compositional_draws_match_own_density(self):
        # certifies the scaled-F one-step law by simulation: gamma precision
        # then conditional gamma must reproduce the closed-form density
        p = ScaledFParams(2.75, 17.5, 1.3)
        rng = np.random.default_rng(2024)
        draws = sample_scaled_f(p, rng, size=100_000)
        zs = np.linspace(1e-6, 60.0, 30_001)
        pdf = np.exp([scaled_f_logpdf(float(z), p) for z in zs])
        cdf_grid = integrate.cumulative_trapezoid(pdf, zs, initial=0.0)
        cdf_grid /= cdf_grid[-1]
        emp = np.interp(np.sort(draws), zs, cdf_grid)
        ks = np.max(np.abs(emp - (np.arange(1, draws.size + 1) / draws.size)))
        assert ks < 1.6276 / math.sqrt(draws.size)

    def test_matches_scipy_f_quantiles(self):
        p = ScaledFParams(2.75, 17.5, 2.0)
        rng = np.random.default_rng(99)
        draws = sample_scaled_f(p, rng, size=400_000)
        for q in (0.05, 0.5, 0.95):
            ref = p.scale * float(stats.f.ppf(q, p.dof_num, p.dof_den))
            got = float(np.quantile(draws, q))
            assert abs(got - ref) / ref < 0.01

    @pytest.mark.parametrize("size", [-1, 2.5, True, np.bool_(True), np.float64(3.0), None])
    def test_bad_size_is_domain_error(self, size):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="size must be a nonnegative integer"):
            sample_scaled_f(ScaledFParams(2.75, 17.5, 2.0), rng, size)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("size", [0, 4, np.int32(4)])
    def test_integer_size_gives_that_many_draws(self, size):
        draws = sample_scaled_f(ScaledFParams(2.75, 17.5, 2.0), np.random.default_rng(0), size)
        assert draws.shape == (int(size),) and np.all(draws > 0.0)


def test_every_logpdf_normalizes():
    # quadrature of exp(logpdf) over a wide truncated range equals 1
    t_total, _ = integrate.quad(
        lambda y: math.exp(student_t_logpdf(y, StudentTParams(4.0, 0.5, 2.0))),
        -np.inf, np.inf, limit=400)
    assert t_total == pytest.approx(1.0, abs=1e-4)
    g = GammaParams(1.375, 1.375)
    g_total, _ = integrate.quad(
        lambda x: math.exp((g.shape * math.log(g.rate) - math.lgamma(g.shape)
                            + (g.shape - 1.0) * math.log(x) - g.rate * x)),
        0.0, np.inf, limit=400)
    assert g_total == pytest.approx(1.0, abs=1e-4)
