import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from rvdlm import (DomainError, HyperParams, ModelClass, PriorMoments, RegressorInputs,
                   StudentTParams, predictive_y_given_z, predictive_z, rv_update,
                   sample_joint, sample_scaled_f, scaled_f_logpdf, student_t_logpdf)

from oracles import joint_predictive_quadrature, whole_array_sample_joint
from rvdlm import forecast


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

    def test_z_below_the_floor_is_floored(self):
        pr = PriorMoments(np.array([0.0, 0.0, -0.5, 0.4]),
                          np.diag([0.1, 0.01, 0.05, 0.05]), 17.5, 1e-4)
        reg = RegressorInputs(ModelClass.RVLDLM, y_prev=4.6, x_prev=0.01, floor_eps=1e-8)
        assert predictive_y_given_z(pr, 2.75, 1e-12, reg) == \
            predictive_y_given_z(pr, 2.75, 1e-8, reg)

    @pytest.mark.parametrize("variant, alpha, z, y_prev, x_prev", [
        (ModelClass.RVDLM, 2.75, 0.0, 0.5, 0.03),
        (ModelClass.RVDLM, 2.75, -1.0, 0.5, 0.03),
        (ModelClass.RVLDLM, 2.75, math.nan, 0.5, 0.03),
        (ModelClass.RVLDLM, 2.75, math.inf, 0.5, 0.03),
        (ModelClass.RVDLM, 0.0, 0.9, 0.5, 0.03),
        (ModelClass.RVLDLM, -1.0, 0.9, 0.5, 0.03),
        (ModelClass.SVDLM, 0.0, math.inf, 0.5, 0.03),
        (ModelClass.SVDLM, 0.0, 0.9, math.nan, 0.03),
        (ModelClass.RVLDLM, 2.75, 0.9, 0.5, math.inf),
    ])
    def test_bad_z_alpha_or_regressor_is_domain_error(self, variant, alpha, z, y_prev, x_prev):
        d = variant.dim
        pr = PriorMoments(np.zeros(d), 0.3 * np.eye(d), 7.0, 1.2)
        with pytest.raises(DomainError):
            predictive_y_given_z(pr, alpha, z, RegressorInputs(variant, y_prev, x_prev))


@pytest.mark.parametrize("variant", list(ModelClass))
@pytest.mark.parametrize("z", [math.nan, math.inf, -1.0, 0.0])
def test_every_class_holds_z_to_the_rv_update_rule(variant, z):
    # the price-only layout once blamed a non-finite z on an x_now regressor it
    # does not have, and floored a nonpositive z silently
    d = variant.dim
    pr = PriorMoments(np.zeros(d), 0.3 * np.eye(d), 7.0, 1.2)
    reg = RegressorInputs(variant, 0.1, 0.01)
    assert predictive_y_given_z(pr, 2.75, 1e-4, reg).dof > 0.0
    message = f"^realized variance must be positive \\(floor it upstream\\), got {z!r}$"
    with pytest.raises(DomainError, match=message):
        rv_update(pr, z, 2.75)
    with pytest.raises(DomainError, match=message):
        predictive_y_given_z(pr, 2.75, z, reg)


def _bits(*values):
    # a float and a Python float with its bits; any other type fails the comparison
    return [(type(v), np.float64(v).tobytes()) for v in values]


FLOAT_RULE_PRIOR = PriorMoments(np.zeros(3), 0.01 * np.eye(3), 0.875, 1e-4)


@pytest.mark.parametrize("variant", list(ModelClass))
@pytest.mark.parametrize("alpha, z", [(np.float32(2.75), 1e-4), (2.75, np.float32(1e-4)),
                                      (2.75, np.int64(1)), (np.float16(2.75), np.float32(1e-4))],
                         ids=["alpha32", "z32", "z_int64", "both"])
def test_forecast_laws_take_numpy_scalars_as_floats(variant, alpha, z):
    # a float32 alpha once ran the scale in float32 (0.2217009961605072 where 2.75
    # gives 0.22170099999999998), and a float32 or int64 z was a false error
    d = variant.dim
    prior = PriorMoments(np.zeros(d), 0.01 * np.eye(d), 0.875, 1e-4)
    reg = RegressorInputs(variant, 4.6, 0.01)
    got = predictive_y_given_z(prior, alpha, z, reg)
    want = predictive_y_given_z(prior, float(alpha), float(z), reg)
    assert _bits(got.dof, got.location, got.scale) == _bits(want.dof, want.location, want.scale)
    zp = predictive_z(prior, alpha)
    assert _bits(zp.dof_num) == _bits(float(alpha))
    draws = [sample_joint(prior, a, reg, np.random.default_rng(5), 1000)
             for a in (alpha, float(alpha))]
    for got_draws, want_draws in zip(*draws):
        assert got_draws.dtype == np.float64
        assert got_draws.tobytes() == want_draws.tobytes()


def test_float32_alpha_gives_the_float64_values():
    reg = RegressorInputs(ModelClass.RVDLM, 4.6, 0.01)
    assert predictive_y_given_z(FLOAT_RULE_PRIOR, np.float32(2.75), 1e-4, reg).scale \
        == 0.22170099999999998
    assert rv_update(FLOAT_RULE_PRIOR, 1e-4, np.float32(2.75)).n_tilde == 3.625
    assert type(rv_update(FLOAT_RULE_PRIOR, 1e-4, np.float32(2.75)).n_tilde) is float


@pytest.mark.parametrize("variant", [ModelClass.RVDLM, ModelClass.RVLDLM])
def test_rv_layout_forecast_needs_positive_alpha(variant):
    d = variant.dim
    prior = PriorMoments(np.zeros(d), 0.01 * np.eye(d), 0.875, 1e-4)
    reg = RegressorInputs(variant, 4.6, 0.01)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=f"^{variant.value} requires alpha > 0$"):
            predictive_y_given_z(prior, alpha, 1e-4, reg)
        with pytest.raises(DomainError, match="^the realized-variance law requires alpha > 0$"):
            predictive_z(prior, alpha)
    # the price-only layout ignores alpha in the conditional law
    sv = RegressorInputs(ModelClass.SVDLM, 4.6, 0.01)
    p0, p1 = (predictive_y_given_z(FLOAT_RULE_PRIOR, a, 1e-4, sv) for a in (0.0, 2.75))
    assert p0 == p1


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

    @pytest.mark.parametrize("variant", list(ModelClass))
    def test_draws_follow_predictive_y_given_z(self, variant):
        # each y is the t draw of its z's conditional law, taken from the same stream
        keep = [0, 1, 2, 3] if variant is ModelClass.RVLDLM else [0, 1, 3]
        pr = PriorMoments(np.array([0.01, 0.9, -0.5, 0.4])[keep],
                          PINNED_R[np.ix_(keep, keep)], 17.5, 1.2e-4)
        reg = RegressorInputs(variant, y_prev=4.6, x_prev=0.012)
        z, y = sample_joint(pr, 2.75, reg, np.random.default_rng(8), size=50)
        assert isinstance(z, np.ndarray) and z.shape == y.shape == (50,)
        rng = np.random.default_rng(8)
        sample_scaled_f(predictive_z(pr, 2.75), rng, 50)
        dof = predictive_y_given_z(pr, 2.75, float(z[0]), reg).dof
        for zi, yi, ti in zip(z.tolist(), y.tolist(), rng.standard_t(dof, 50).tolist()):
            p = predictive_y_given_z(pr, 2.75, zi, reg)
            assert yi == pytest.approx(p.location + math.sqrt(p.scale) * ti, rel=1e-12)


def pinned_prior(variant):
    keep = [0, 1, 2, 3] if variant is ModelClass.RVLDLM else [0, 1, 3]
    return PriorMoments(np.array([0.01, 0.9, -0.5, 0.4])[keep],
                        PINNED_R[np.ix_(keep, keep)], 17.5, 1.2e-4)


BLOCK = forecast._BLOCK_DRAWS


class TestSampleJointBlocks:
    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 3])
    @pytest.mark.parametrize("variant", list(ModelClass))
    def test_equals_whole_array_formula_bit_for_bit(self, variant, size):
        # a floor that catches some draws, so the floored law is exercised too
        reg = RegressorInputs(variant, y_prev=4.6, x_prev=0.012, floor_eps=3e-5)
        got = sample_joint(pinned_prior(variant), 2.75, reg, np.random.default_rng(size), size)
        want = whole_array_sample_joint(pinned_prior(variant), 2.75, reg,
                                        np.random.default_rng(size), size)
        assert got[0].shape == got[1].shape == (size,)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert size < 10 or 0 < np.count_nonzero(got[0] == 3e-5) < size

    def test_holds_its_outputs_and_one_block(self):
        # the traced peak exceeds the two returned arrays by at most 8 MiB
        # (one scaled-F array while t draws are made, plus one block's law)
        reg = RegressorInputs(ModelClass.RVLDLM, y_prev=4.6, x_prev=0.012)
        pr, rng = pinned_prior(ModelClass.RVLDLM), np.random.default_rng(1)
        sample_joint(pr, 2.75, reg, rng, 10)  # warm any one-time allocations
        tracemalloc.start()
        try:
            z, y = sample_joint(pr, 2.75, reg, rng, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - (z.nbytes + y.nbytes) <= 8 * 2**20

    def test_scaled_f_holds_two_arrays(self):
        p, rng = predictive_z(pinned_prior(ModelClass.RVDLM), 2.75), np.random.default_rng(2)
        sample_scaled_f(p, rng, 10)
        tracemalloc.start()
        try:
            z = sample_scaled_f(p, rng, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * z.nbytes + 2**20


@pytest.mark.parametrize("size", [-1, 2.5, True, np.float64(3.0), "3", None])
def test_sample_joint_rejects_a_bad_size(size):
    reg = RegressorInputs(ModelClass.RVDLM, 4.6, 0.012)
    with pytest.raises(DomainError, match="size must be a nonnegative integer"):
        sample_joint(pinned_prior(ModelClass.RVDLM), 2.75, reg, np.random.default_rng(0), size)


@pytest.mark.parametrize("size", [0, 3, np.int64(3), np.uint8(3)])
def test_sample_joint_takes_python_and_numpy_integers(size):
    reg = RegressorInputs(ModelClass.RVDLM, 4.6, 0.012)
    z, y = sample_joint(pinned_prior(ModelClass.RVDLM), 2.75, reg, np.random.default_rng(0), size)
    assert z.shape == y.shape == (int(size),)



def _law_at(reg):
    law = predictive_y_given_z(pinned_prior(ModelClass.RVLDLM), 2.75, 1e-4, reg)
    return law.dof, law.location, law.scale


# both entry points that take a RegressorInputs, on the 4-coefficient layout
ENTRY_POINTS = {
    "predictive_y_given_z": _law_at,
    "sample_joint": lambda reg: sample_joint(pinned_prior(ModelClass.RVLDLM), 2.75, reg,
                                             np.random.default_rng(0), 5),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("field, value", [
    ("y_prev", math.nan), ("y_prev", math.inf), ("x_prev", math.nan), ("x_prev", -math.inf),
    ("floor_eps", math.nan), ("floor_eps", math.inf), ("floor_eps", 0.0), ("floor_eps", -1.0),
])
def test_bad_regressor_inputs_are_a_domain_error_naming_the_field(entry, field, value):
    # sample_joint once drew NaN from a NaN lag or floor, and both accepted a negative floor
    good = {"y_prev": 4.6, "x_prev": 0.01, "floor_eps": 1e-12}
    out = ENTRY_POINTS[entry](RegressorInputs(ModelClass.RVLDLM, **good))
    assert np.isfinite(np.hstack(out)).all()
    rule = "finite and positive" if field == "floor_eps" else "finite"
    with pytest.raises(DomainError, match=f"^{field} must be {rule}, got {value!r}$"):
        ENTRY_POINTS[entry](RegressorInputs(ModelClass.RVLDLM, **{**good, field: value}))


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

