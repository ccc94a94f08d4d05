import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvdlm import (DataError, HyperParams, ModelClass, NumericalError, OhlcBar,
                   PriorMoments, build_regressor, build_series, dof_sequences, evolve,
                   price_update, run_filter, rv_update, special,
                   sv_volatility_update_path)
from rvdlm.kernel import _score_constants


def make_series(T, seed=42):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.normal(0.0, 0.012, T)) + math.log(120.0)
    z = rng.gamma(1.4, 1.4e-4 / 1.4, T) + 1e-12
    x = np.sqrt(z)
    y_prev = np.concatenate([[y[0] - 0.004], y[:-1]])
    x_prev = np.concatenate([[x[0]], x[:-1]])
    return y, z, x, y_prev, x_prev


def default_init(variant, hp, s1=1.4e-4):
    d = variant.dim
    a = np.array([0.0, 1.0, 0.0, 0.0][:d])
    R = np.diag(np.array([0.10, 0.01, 0.05, 0.05][:d]) / hp.delta)
    return PriorMoments(a, R, hp.beta, s1)


def hp_for(variant):
    if variant.uses_rv:
        return HyperParams(0.999, 0.875, 2.75)
    return HyperParams(0.999, 0.925, 0.0)


def assert_matches_step_composition(variant, hp, init, y, z, x, y_prev, x_prev):
    traj = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    prior, post = init, None
    for t in range(y.size):
        if t > 0:
            prior = evolve(post, hp)
        F = build_regressor(variant, y_prev[t], x[t], x_prev[t])
        if variant.uses_rv:
            rvp = rv_update(prior, float(z[t]), hp.alpha)
            post, stats = price_update(rvp, float(y[t]), F)
        else:
            post, stats = sv_volatility_update_path(prior, float(y[t]), F)
        np.testing.assert_allclose(traj.m[t], post.m, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(traj.C[t], post.C, rtol=1e-8, atol=1e-13)
        assert traj.n[t] == pytest.approx(post.n, abs=1e-10)
        assert traj.s[t] == pytest.approx(post.s, rel=1e-9)
        assert traj.log_density[t] == pytest.approx(stats.log_density, abs=1e-8)
        assert traj.forecast[t] == pytest.approx(stats.forecast, abs=1e-10)
        assert traj.scale[t] == pytest.approx(stats.scale, rel=1e-9)


@pytest.mark.parametrize("variant", list(ModelClass))
def test_fused_kernel_equals_step_composition(variant):
    hp = hp_for(variant)
    assert_matches_step_composition(variant, hp, default_init(variant, hp), *make_series(300))


# bar shapes: a bar with wicks, a price move with no wicks (Rogers-Satchell
# variance 0, floored), and a flat bar (no move, floored)
BAR_KINDS = st.sampled_from(["wick", "no_wick", "flat"])


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(list(ModelClass)),
       delta=st.one_of(st.just(1.0), st.floats(0.9, 1.0)),
       beta=st.one_of(st.just(1.0), st.floats(0.8, 1.0)),
       alpha=st.floats(0.5, 5.0),
       kinds=st.lists(BAR_KINDS, min_size=3, max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_equals_step_composition_property(variant, delta, beta, alpha, kinds, seed):
    rng = np.random.default_rng(seed)
    bars, c = [], 100.0
    for t, kind in enumerate(kinds):
        o = c
        c = o if kind == "flat" else o * math.exp(rng.normal(0.0, 0.01))
        wick = math.exp(abs(rng.normal(0.0, 0.004))) if kind == "wick" else 1.0
        bars.append(OhlcBar(dt.date(2001, 1, 1) + dt.timedelta(days=t), o,
                            max(o, c) * wick, min(o, c) / wick, c))
    frame = build_series(bars, floor_eps=1e-12)
    hp = HyperParams(delta, beta, alpha if variant.uses_rv else 0.0)
    assert_matches_step_composition(variant, hp, default_init(variant, hp, s1=1e-4),
                                    frame.y, frame.z, frame.x, frame.y_prev, frame.x_prev)


def test_trajectory_accessors_reconstruct_priors():
    variant = ModelClass.RVLDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(50)
    traj = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    assert traj.prior_at(0) is init
    pr = traj.prior_at(10)
    np.testing.assert_allclose(pr.a, traj.m[9])
    np.testing.assert_allclose(pr.R, traj.C[9] / hp.delta)
    assert pr.s_prev == traj.s[9]
    rvp = traj.rv_prior_at(10)
    ref = rv_update(pr, float(z[10]), hp.alpha)
    assert rvp.n_tilde == pytest.approx(ref.n_tilde)
    assert rvp.s_tilde == pytest.approx(ref.s_tilde, rel=1e-14)


def test_dof_sequences_recursion_and_limit():
    hp = HyperParams(0.999, 0.875, 2.75)
    n_star, n_tilde, n = dof_sequences(hp, hp.beta, 5000, uses_rv=True)
    assert n_star[0] == hp.beta
    assert n_tilde[0] == hp.beta + 2.75
    np.testing.assert_allclose(n_star[1:], hp.beta * n[:-1], rtol=1e-15)
    assert n[-1] == pytest.approx(30.0, abs=1e-6)


@pytest.mark.parametrize("beta,alpha,uses_rv", [(0.875, 2.75, True), (0.925, 0.0, False),
                                                (0.999, 2.75, True)])
def test_dof_path_and_score_constants_match_full_evaluation(beta, alpha, uses_rv):
    # the fixed-point shortcut in dof_sequences and the constant-tail reuse in
    # _score_constants must reproduce the day-by-day evaluation bit for bit
    hp = HyperParams(0.999, beta, alpha)
    T = 3000
    a = alpha if uses_rv else 0.0
    vals, ns = [], beta
    for _ in range(T):
        vals.append(ns)
        ns = beta * (ns + a + 1.0)
    n_star, n_tilde, n = dof_sequences(hp, beta, T, uses_rv)
    assert np.array_equal(n_star, np.asarray(vals))
    assert np.array_equal(n, n_star + a + 1.0)
    consts = _score_constants(n_tilde)
    full = (special.log_gamma_array(0.5 * (n_tilde + 1.0))
            - special.log_gamma_array(0.5 * n_tilde) - 0.5 * np.log(n_tilde * math.pi))
    assert np.array_equal(consts, full)
    each = np.array([_score_constants(n_tilde[t:t + 1])[0] for t in range(0, T, 97)])
    assert np.array_equal(consts[::97], each)


def test_determinism_bit_exact():
    variant = ModelClass.RVDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(200, seed=9)
    a = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    b = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    assert np.array_equal(a.m, b.m) and np.array_equal(a.C, b.C)
    assert np.array_equal(a.s, b.s) and np.array_equal(a.log_density, b.log_density)


def test_rejects_nonpositive_rv():
    variant = ModelClass.RVDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(20)
    z = z.copy()
    z[7] = 0.0
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(20)]
    with pytest.raises(DataError) as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert info.value.date == dates[7]


@pytest.mark.parametrize("variant", list(ModelClass))
def test_lost_positive_semidefiniteness_is_a_dated_numerical_error(variant):
    # a negative prior variance on the lagged-RV coefficient keeps q > 0 but
    # drives that diagonal entry of C below zero on the first day
    hp = hp_for(variant)
    init = default_init(variant, hp)
    R = init.R.copy()
    R[-1, -1] = -1e-4
    init = PriorMoments(init.a, R, init.n_star, init.s_prev)
    y, z, x, y_prev, x_prev = make_series(20)
    F = build_regressor(variant, y_prev[0], x[0], x_prev[0])
    with pytest.raises(NumericalError, match="positive semidefiniteness"):
        if variant.uses_rv:
            price_update(rv_update(init, float(z[0]), hp.alpha), float(y[0]), F)
        else:
            sv_volatility_update_path(init, float(y[0]), F)
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(20)]
    with pytest.raises(NumericalError, match="positive semidefiniteness at step 0") as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert "2001-01-01" in str(info.value)


@pytest.mark.parametrize("variant", [ModelClass.SVDLM, ModelClass.RVDLM])
@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_input_is_a_dated_data_error(variant, column, bad):
    hp = hp_for(variant)
    init = default_init(variant, hp)
    cols = [c.copy() for c in make_series(200)]
    cols[column][101] = bad
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(200)]
    with pytest.raises(DataError) as info:
        run_filter(variant, hp, init, *cols, dates=dates)
    assert info.value.date == dates[101]
    assert "2001-04-12" in str(info.value)


def test_positive_scale_and_dof_growth_along_path():
    variant = ModelClass.RVLDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(1500, seed=3)
    traj = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    assert np.all(traj.s > 0.0)
    assert np.all(traj.n > traj.n_star)
    # C stays symmetric PSD
    for t in (0, 700, 1499):
        evals = np.linalg.eigvalsh(traj.C[t])
        assert evals.min() >= -1e-12 * max(1.0, evals.max())
