import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rvdlm import (DomainError, HyperParams, ModelClass, NormalGammaPosterior,
                   NumericalError, PriorMoments, RvUpdatedPrior, build_regressor,
                   evolve, limiting_dof, price_update, rv_update,
                   sv_volatility_update_path)


def toy_posterior(d=3, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(d, d)) * 0.3
    C = scale * (L @ L.T + 0.05 * np.eye(d))
    return NormalGammaPosterior(rng.normal(size=d), C,
                                float(rng.uniform(2.0, 30.0)),
                                float(np.exp(rng.uniform(-9.0, 1.0))))


class TestEvolve:
    def test_no_discount_identity(self):
        post = toy_posterior()
        pr = evolve(post, HyperParams(1.0, 1.0, 0.0))
        np.testing.assert_allclose(pr.a, post.m)
        np.testing.assert_allclose(pr.R, post.C)
        assert pr.n_star == post.n
        assert pr.s_prev == post.s

    def test_scale_discount(self):
        post = NormalGammaPosterior(np.zeros(3), np.diag([0.1, 0.1, 0.1]), 10.0, 1.0)
        pr = evolve(post, HyperParams(0.999, 0.9, 0.0))
        np.testing.assert_allclose(np.diag(pr.R), 0.1 / 0.999, rtol=1e-15)

    def test_dof_discount(self):
        post = toy_posterior()
        post = NormalGammaPosterior(post.m, post.C, 20.0, post.s)
        pr = evolve(post, HyperParams(0.999, 0.875, 2.75))
        assert pr.n_star == pytest.approx(17.5, rel=1e-15)


class TestRvUpdate:
    def test_z_at_prior_scale_leaves_s(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 10.0, 1.0)
        rvp = rv_update(pr, 1.0, 2.0)
        assert rvp.n_tilde == 12.0
        assert rvp.s_tilde == pytest.approx(1.0, rel=1e-15)

    def test_worked_arithmetic(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 8.0, 2.0)
        rvp = rv_update(pr, 3.0, 4.0)
        assert rvp.n_tilde == 12.0
        assert rvp.s_tilde == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_worked_arithmetic_by_grid_quadrature(self):
        # posterior over phi on a grid: prior G(4, 8) times gamma likelihood
        # of z=3 with shape alpha/2=2 must give mean 1/s~ = 3/7
        phi = np.linspace(1e-8, 20.0, 400_001)
        prior = phi ** 3 * np.exp(-8.0 * phi)
        lik = phi ** 2 * np.exp(-2.0 * phi * 3.0)
        w = prior * lik
        e_phi = float(np.trapezoid(w * phi, phi) / np.trapezoid(w, phi))
        assert e_phi == pytest.approx(3.0 / 7.0, rel=1e-8)
        pr = PriorMoments(np.zeros(3), np.eye(3), 8.0, 2.0)
        assert 1.0 / rv_update(pr, 3.0, 4.0).s_tilde == pytest.approx(e_phi, rel=1e-8)

    def test_vanishing_alpha_limit(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 9.0, 1.7)
        rvp = rv_update(pr, 4.2, 1e-12)
        assert rvp.n_tilde == pytest.approx(9.0, abs=1e-11)
        assert rvp.s_tilde == pytest.approx(1.7, rel=1e-11)

    def test_state_moments_pass_through(self):
        pr = PriorMoments(np.arange(3.0), np.eye(3) * 2.0, 8.0, 2.0)
        rvp = rv_update(pr, 0.5, 2.75)
        assert rvp.a is pr.a and rvp.R is pr.R

    def test_nonpositive_z_rejected(self):
        pr = PriorMoments(np.zeros(3), np.eye(3), 8.0, 2.0)
        with pytest.raises(DomainError):
            rv_update(pr, 0.0, 2.0)


class TestBuildRegressor:
    def test_rvl_layout(self):
        F = build_regressor(ModelClass.RVLDLM, 4.6, 0.01, 0.02)
        np.testing.assert_allclose(F, [1.0, 4.6, 0.01, 0.02])

    def test_sv_layout(self):
        np.testing.assert_allclose(build_regressor(ModelClass.SVDLM, 0.0, 0.5, 0.0),
                                   [1.0, 0.0, 0.0])

    def test_rv_excludes_contemporaneous(self):
        a = build_regressor(ModelClass.RVDLM, 1.0, 0.123, 0.02)
        b = build_regressor(ModelClass.RVDLM, 1.0, 99.0, 0.02)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("lag", ["y_prev", "x_prev"])
    def test_non_finite_lag_rejected(self, lag):
        given = {"y_prev": 4.6, "x_now": 0.01, "x_prev": 0.02, lag: math.nan}
        with pytest.raises(DomainError, match=f"^{lag} must be finite, got nan$"):
            build_regressor(ModelClass.RVLDLM, **given)


class TestPriceUpdate:
    def test_orthogonal_prior_no_state_adaptation(self):
        # R F = 0: the error flows only into the volatility scale
        R = np.diag([1.0, 0.0, 2.0])
        rvp = RvUpdatedPrior(np.array([0.0, 3.0, 0.0]), R, 5.0, 1.0)
        F = np.array([0.0, 1.0, 0.0])
        post, stats = price_update(rvp, 2.5, F)
        np.testing.assert_allclose(post.m, rvp.a)
        np.testing.assert_allclose(post.C, R)
        assert stats.error == pytest.approx(2.5 - 3.0)
        assert post.s != rvp.s_tilde

    def test_perfect_forecast_shrinks_scale(self):
        rvp = RvUpdatedPrior(np.array([1.0, 0.0, 0.0]), np.eye(3), 6.0, 2.0)
        F = np.array([1.0, 0.0, 0.0])
        post, stats = price_update(rvp, 1.0, F)
        assert stats.error == 0.0
        np.testing.assert_allclose(post.m, rvp.a)
        assert post.s == pytest.approx(2.0 * 6.0 / 7.0, rel=1e-14)
        assert post.s < rvp.s_tilde

    def test_scalar_toy_hand_arithmetic(self):
        rvp = RvUpdatedPrior(np.array([0.0]), np.array([[1.0]]), 4.0, 1.0)
        post, stats = price_update(rvp, 2.0, np.array([1.0]))
        assert stats.scale == pytest.approx(2.0)
        assert post.m[0] == pytest.approx(1.0)
        assert post.C[0, 0] == pytest.approx(0.5)
        assert post.n == 5.0
        assert post.s == pytest.approx(1.2)

    def test_scalar_toy_by_quadrature(self):
        # exact 2-d quadrature of N(theta; 0, 1/phi) N(2; theta, 1/phi) G(phi; 2, 2);
        # nested infinite-limit quad soaks up the heavy t tails of the margins
        def weight(theta, phi):
            return (math.sqrt(phi) * math.exp(-0.5 * phi * theta * theta)
                    * math.sqrt(phi) * math.exp(-0.5 * phi * (2.0 - theta) ** 2)
                    * phi * math.exp(-2.0 * phi))

        def moment(order):
            def inner(phi):
                val, _ = integrate.quad(
                    lambda th: weight(th, phi) * order(th, phi),
                    -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
                return val
            total, _ = integrate.quad(inner, 0.0, np.inf,
                                      epsabs=1e-14, epsrel=1e-12, limit=300)
            return total

        Z = moment(lambda t, p: 1.0)
        e_th = moment(lambda t, p: t) / Z
        e_th2 = moment(lambda t, p: t * t) / Z
        e_phi = moment(lambda t, p: p) / Z

        rvp = RvUpdatedPrior(np.array([0.0]), np.array([[1.0]]), 4.0, 1.0)
        post, _ = price_update(rvp, 2.0, np.array([1.0]))
        assert post.m[0] == pytest.approx(e_th, rel=1e-9)
        # raw Bayes leaves the state scale expressed against the pre-update
        # volatility anchor, so the exact posterior variance carries the
        # update ratio s_t/s~ = r; the filter re-anchors it away afterwards
        r = post.s / rvp.s_tilde
        assert post.C[0, 0] * r * post.n / (post.n - 2.0) == \
            pytest.approx(e_th2 - e_th ** 2, rel=1e-9)
        assert 1.0 / post.s == pytest.approx(e_phi, rel=1e-9)

    def test_sv_path_equals_alpha_zero_composition(self):
        pr = PriorMoments(np.array([0.1, 0.9, 0.0]), np.diag([0.2, 0.05, 0.1]), 7.0, 1.3)
        F = np.array([1.0, 0.8, 0.02])
        post_sv, stats_sv = sv_volatility_update_path(pr, 1.1, F)
        rvp = rv_update(pr, 0.7, 1e-13)
        post_rv, stats_rv = price_update(rvp, 1.1, F)
        np.testing.assert_allclose(post_sv.m, post_rv.m, rtol=1e-12)
        np.testing.assert_allclose(post_sv.C, post_rv.C, rtol=1e-12)
        assert post_sv.n == pytest.approx(post_rv.n, abs=1e-12)
        assert post_sv.s == pytest.approx(post_rv.s, rel=1e-12)
        assert stats_sv.log_density == pytest.approx(stats_rv.log_density, abs=1e-10)

    def test_sv_scalar_toy(self):
        pr = PriorMoments(np.array([0.0]), np.array([[1.0]]), 4.0, 1.0)
        post, stats = sv_volatility_update_path(pr, 2.0, np.array([1.0]))
        assert stats.scale == pytest.approx(2.0)
        assert post.m[0] == pytest.approx(1.0)
        assert post.s == pytest.approx(1.2)

    def test_invalid_scale_is_fatal(self):
        rvp = RvUpdatedPrior(np.zeros(1), np.array([[-5.0]]), 4.0, 1e-9)
        with pytest.raises(NumericalError):
            price_update(rvp, 0.0, np.array([3.0]))


class TestDofFixedPoints:
    def test_limits(self):
        assert limiting_dof(HyperParams(0.999, 0.875, 2.75)) == pytest.approx(30.0)
        assert limiting_dof(HyperParams(0.999, 0.925, 0.0), uses_rv=False) == \
            pytest.approx(1.0 / 0.075)

    def test_iteration_converges(self):
        for beta, alpha, want in [(0.875, 2.75, 30.0), (0.925, 0.0, 13.333333333333334)]:
            n = 0.9
            for _ in range(2000):
                n = beta * n + alpha + 1.0
            assert n == pytest.approx(want, abs=1e-6)


@st.composite
def posterior_and_data(draw):
    d = draw(st.sampled_from([1, 3, 4]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(d, d)) * 0.4
    C = L @ L.T + 0.02 * np.eye(d)
    post = NormalGammaPosterior(rng.normal(size=d), C,
                                float(rng.uniform(1.0, 40.0)),
                                float(np.exp(rng.uniform(-9.0, 1.0))))
    hp = HyperParams(draw(st.floats(0.8, 1.0)), draw(st.floats(0.8, 1.0)),
                     draw(st.floats(0.1, 5.0)))
    y = draw(st.floats(-3.0, 3.0))
    z = post.s * draw(st.floats(0.05, 8.0))
    F = rng.normal(size=d)
    return post, hp, y, z, F


class TestConjugacyClosure:
    @settings(max_examples=120, deadline=None)
    @given(posterior_and_data())
    def test_composition_preserves_validity(self, case):
        post, hp, y, z, F = case
        prior = evolve(post, hp)
        rvp = rv_update(prior, z, hp.alpha)
        new_post, stats = price_update(rvp, y, F)
        assert isinstance(new_post, NormalGammaPosterior)  # validated on build
        assert new_post.s > 0.0
        assert new_post.n > prior.n_star
        assert math.isfinite(stats.log_density)
        evals = np.linalg.eigvalsh(new_post.C)
        assert evals.min() >= -1e-12 * max(1.0, evals.max())


class TestInputChecks:
    # every check of the state containers and of the price update, with its message

    @pytest.mark.parametrize("cls, dof, scale", [(NormalGammaPosterior, "n", "s"),
                                                 (PriorMoments, "n_star", "s_prev")])
    @pytest.mark.parametrize("which", ["dof", "scale"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_dof_and_scale_must_be_finite_and_positive(self, cls, dof, scale, which, value):
        # an infinite dof or scale once failed in run_filter, naming no field
        field = dof if which == "dof" else scale
        kwargs = {dof: 8.0, scale: 2.0, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be finite and positive, "
                                              f"got {value!r}$"):
            cls(np.zeros(3), np.eye(3), **kwargs)

    @pytest.mark.parametrize("scalar", [np.float32, np.float16, np.float64])
    def test_checked_scalar_fields_are_stored_as_python_floats(self, scalar):
        # a float32 or float16 field once carried its precision into the dof path;
        # every value here is exact in float16
        hp = HyperParams(scalar(0.875), scalar(0.875), scalar(2.75))
        prior = PriorMoments(np.zeros(3), np.eye(3), scalar(8.0), scalar(0.5))
        post = NormalGammaPosterior(np.zeros(3), np.eye(3), scalar(8.0), scalar(0.5))
        for owner, given in ((hp, {"delta": 0.875, "beta": 0.875, "alpha": 2.75}),
                             (prior, {"n_star": 8.0, "s_prev": 0.5}),
                             (post, {"n": 8.0, "s": 0.5})):
            for name, value in given.items():
                v = getattr(owner, name)
                assert type(v) is float and v == value, name

    @pytest.mark.parametrize("a", [np.zeros((3, 1)), np.zeros(0), np.array([0.0, math.nan, 0.0])],
                             ids=["2-d", "empty", "nan"])
    def test_state_vector_must_be_finite_and_1d(self, a):
        with pytest.raises(DomainError, match="^a must be a finite 1-d vector$"):
            PriorMoments(a, np.eye(3), 8.0, 2.0)

    def test_state_matrix_shape(self):
        with pytest.raises(DomainError, match=r"^C must be 3x3, got shape \(3, 2\)$"):
            NormalGammaPosterior(np.zeros(3), np.ones((3, 2)), 8.0, 2.0)

    def test_state_matrix_must_be_finite(self):
        R = np.eye(3)
        R[1, 1] = math.inf
        with pytest.raises(DomainError, match="^R must be finite$"):
            PriorMoments(np.zeros(3), R, 8.0, 2.0)

    def test_state_matrix_must_be_symmetric(self):
        R = np.eye(3)
        R[0, 2] = 0.5
        with pytest.raises(DomainError, match="^R must be symmetric$"):
            PriorMoments(np.zeros(3), R, 8.0, 2.0)

    @pytest.mark.parametrize("update", ["price_update", "sv_volatility_update_path"])
    def test_regressor_must_match_the_state(self, update):
        pr = PriorMoments(np.zeros(3), np.eye(3), 8.0, 2.0)
        prior = rv_update(pr, 1.0, 2.0) if update == "price_update" else pr
        call = price_update if update == "price_update" else sv_volatility_update_path
        with pytest.raises(DomainError, match=r"^regressor dimension \(4,\) does not match "
                                              r"state \(3,\)$"):
            call(prior, 0.1, np.ones(4))
        with pytest.raises(DomainError, match="^price observation must be finite, got nan$"):
            call(prior, math.nan, np.ones(3))


class TestLayoutRows:
    # each class is one row: its value, whether it observes z, its regressor names

    @pytest.mark.parametrize("model", list(ModelClass))
    def test_row_selects_the_named_columns(self, model):
        y_prev, x_now, x_prev = object(), object(), object()
        column = {"ar1": y_prev, "rv_now": x_now, "rv_lag": x_prev}
        names = model.coefficient_names
        assert names[0] == "intercept"
        got = model.regressors(y_prev, x_now, x_prev)
        assert len(got) == len(names) - 1
        assert all(g is column[n] for g, n in zip(got, names[1:]))
        assert model.dim == len(names)
        assert ModelClass(model.value) is model

    def test_rows(self):
        assert [(m.value, m.uses_rv, m.coefficient_names[1:]) for m in ModelClass] == [
            ("svdlm", False, ("ar1", "rv_lag")),
            ("rvdlm", True, ("ar1", "rv_lag")),
            ("rvldlm", True, ("ar1", "rv_now", "rv_lag"))]

    @pytest.mark.parametrize("alpha", [2.75, 0.0, -1.0, math.nan, np.float32(2.75)])
    def test_price_only_layout_learns_at_alpha_zero(self, alpha):
        got = ModelClass.SVDLM.alpha(alpha)
        assert type(got) is float and got == 0.0

    @pytest.mark.parametrize("model", [ModelClass.RVDLM, ModelClass.RVLDLM])
    def test_rv_layout_needs_positive_alpha(self, model):
        for alpha in (0.0, -1.0, math.nan, np.float32(0.0)):
            with pytest.raises(DomainError, match=f"^{model.value} requires alpha > 0$"):
                model.alpha(alpha)
        for alpha in (np.float32(2.75), np.float16(2.75), 2.75, 3):
            got = model.alpha(alpha)
            assert type(got) is float and got == float(alpha)


def _bits(*values):
    # a float and a Python float with its bits; any other type fails the comparison
    return [(type(v), np.float64(v).tobytes()) for v in values]


class TestFloatRule:
    # z and alpha enter rv_update as Python floats: a numpy scalar gives the
    # bits of the equal Python float, not a false error or its own precision

    prior = PriorMoments(np.zeros(3), 0.01 * np.eye(3), 0.875, 1e-4)

    @pytest.mark.parametrize("z, alpha", [(np.float32(1e-4), 2.75), (np.int64(1), 2.75),
                                          (1e-4, np.float32(2.75)), (1e-4, np.float16(2.75)),
                                          (np.float32(1e-4), np.float32(2.75))],
                             ids=["z32", "z_int64", "alpha32", "alpha16", "both32"])
    def test_rv_update_takes_numpy_scalars_as_floats(self, z, alpha):
        got = rv_update(self.prior, z, alpha)
        want = rv_update(self.prior, float(z), float(alpha))
        assert _bits(got.n_tilde, got.s_tilde) == _bits(want.n_tilde, want.s_tilde)
        assert type(got.n_tilde) is float and type(got.s_tilde) is float

    @pytest.mark.parametrize("z", [np.float32(0.0), np.float32(-1e-4), np.float32(np.nan),
                                   np.int64(0), "1e-4", np.array([1e-4])])
    def test_rv_update_still_rejects_what_is_not_a_positive_real(self, z):
        with pytest.raises(DomainError, match="^realized variance must be positive"):
            rv_update(self.prior, z, 2.75)

    def test_rv_update_alpha_must_be_positive(self):
        for alpha in (0.0, -2.75, math.nan):
            with pytest.raises(DomainError,
                               match="^the realized-variance update requires alpha > 0$"):
                rv_update(self.prior, 1e-4, alpha)
