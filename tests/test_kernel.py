import datetime as dt
import hashlib
import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rvdlm import (DataError, DomainError, HyperParams, ModelClass, NumericalError, OhlcBar,
                   PriorMoments, SyntheticParams, build_regressor, build_series,
                   dof_sequences, evolve, generate_synthetic, price_update, run_filter,
                   rv_update, slowly_varying_theta, special, sv_volatility_update_path)
from rvdlm import kernel
from rvdlm.kernel import _LOOPS, _loop_source, _score_constants


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


def max_rel_err(got, want) -> float:
    # the max-norm relative error, as in perfbench's composition check
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


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
        # per entry, the two summation orders differ by rounding amplified by
        # cond(C), which reaches 1e6 and more on floored days; a near-zero
        # entry of m or C can then miss any fixed absolute tolerance
        assert max_rel_err(traj.m[t], post.m) <= 1e-8, t
        assert max_rel_err(traj.C[t], post.C) <= 1e-8, t
        assert traj.n[t] == pytest.approx(post.n, abs=1e-10)
        assert traj.s[t] == pytest.approx(post.s, rel=1e-9)
        assert traj.log_density[t] == pytest.approx(stats.log_density, abs=1e-8)
        assert traj.forecast[t] == pytest.approx(stats.forecast, abs=1e-10)
        assert traj.scale[t] == pytest.approx(stats.scale, rel=1e-9)


@pytest.mark.parametrize("variant", list(ModelClass))
def test_fused_kernel_equals_step_composition(variant):
    hp = hp_for(variant)
    assert_matches_step_composition(variant, hp, default_init(variant, hp), *make_series(300))


@pytest.mark.parametrize("variant", list(ModelClass))
def test_error_and_log_density_equal_the_per_day_arithmetic(variant):
    # run_filter computes both after its loop as whole arrays; this is the
    # per-day form on plain floats, with libm logs
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(300)
    traj = run_filter(variant, hp, init, y, z, x, y_prev, x_prev)
    _, n_tilde, n = (v.tolist() for v in dof_sequences(hp, init.n_star, y.size,
                                                        variant.uses_rv))
    c = _score_constants(np.array(n_tilde)).tolist()
    for t, (yt, f, q) in enumerate(zip(y.tolist(), traj.forecast.tolist(),
                                       traj.scale.tolist())):
        e = yt - f
        u = e * e * (1.0 / q)
        lp = c[t] - 0.5 * math.log(q) - 0.5 * n[t] * math.log(1.0 + u / n_tilde[t])
        assert traj.error[t] == e and traj.log_density[t] == lp


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
@example(variant=ModelClass.RVDLM, delta=0.90625, beta=0.8515625, alpha=4.0, seed=0,
         kinds=["wick", "wick", "no_wick", "flat", "no_wick", "flat", "flat", "flat", "flat",
                "wick", "no_wick", "flat", "wick", "wick", "wick", "no_wick"])
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


@pytest.mark.parametrize("variant", list(ModelClass))
def test_restart_from_prior_at_reproduces_the_full_run(variant):
    # run_filter restarted at day k from prior_at(k), on days k..T-1, gives the
    # full run's rows from day k bit for bit
    hp = hp_for(variant)
    y, z, x, y_prev, x_prev = make_series(400, seed=4)
    full = run_filter(variant, hp, default_init(variant, hp), y, z, x, y_prev, x_prev)
    T = len(full)
    for k in (1, T // 2, T - 1):
        part = run_filter(variant, hp, full.prior_at(k), y[k:], z[k:], x[k:], y_prev[k:],
                          x_prev[k:])
        for name in ("m", "C", "n", "s", "n_star", "forecast", "scale", "error",
                     "log_density"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[k:]), (k, name)
    # the day after the last: n* is the next value of the dof path
    n_star, _, _ = dof_sequences(hp, full.init.n_star, T + 1, variant.uses_rv)
    last = full.prior_at(T)
    assert last.n_star == n_star[-1]
    assert np.array_equal(last.R, full.C[-1] * (1.0 / hp.delta))
    for t in (-1, T + 1, 1.0, True):
        with pytest.raises(DomainError, match=f"0 <= t <= {T}"):
            full.prior_at(t)


def test_dof_sequences_recursion_and_limit():
    hp = HyperParams(0.999, 0.875, 2.75)
    n_star, n_tilde, n = dof_sequences(hp, hp.beta, 5000, uses_rv=True)
    assert n_star[0] == hp.beta
    assert n_tilde[0] == hp.beta + 2.75
    np.testing.assert_allclose(n_star[1:], hp.beta * n[:-1], rtol=1e-15)
    assert n[-1] == pytest.approx(30.0, abs=1e-6)


# paths that rise to their limit, one that falls to it (from n*_1 = 100) and
# one at beta = 1, which never settles: every day has its own dof
@pytest.mark.parametrize("beta,alpha,uses_rv,n_star_1", [
    (0.875, 2.75, True, 0.875), (0.925, 0.0, False, 0.925), (0.999, 2.75, True, 0.999),
    (0.875, 2.75, True, 100.0), (1.0, 2.75, True, 1.0)],
    ids=["0.875-2.75-True", "0.925-0.0-False", "0.999-2.75-True", "falling", "unit_beta"])
def test_dof_path_and_score_constants_match_full_evaluation(beta, alpha, uses_rv, n_star_1):
    # the fixed-point shortcut in dof_sequences and the once-per-distinct-dof
    # evaluation in _score_constants must reproduce the day-by-day evaluation bit for bit
    hp = HyperParams(0.999, beta, alpha)
    T = 3000
    a = alpha if uses_rv else 0.0
    vals, ns = [], n_star_1
    for _ in range(T):
        vals.append(ns)
        ns = beta * (ns + a + 1.0)
    n_star, n_tilde, n = dof_sequences(hp, n_star_1, T, uses_rv)
    assert np.array_equal(n_star, np.asarray(vals))
    assert np.array_equal(n, n_star + a + 1.0)
    consts = _score_constants(n_tilde)
    full = (special.log_gamma_array(0.5 * (n_tilde + 1.0))
            - special.log_gamma_array(0.5 * n_tilde)
            - 0.5 * np.array([math.log(v) for v in (n_tilde * math.pi).tolist()]))
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



@pytest.mark.parametrize("n_dates", [0, 3, 7], ids=["empty", "short", "long"])
def test_dates_of_another_length_are_a_domain_error(n_dates):
    # a short list once met the non-finite y below as a bare IndexError, and a
    # long one was kept in traj.dates
    variant = ModelClass.RVDLM
    hp = hp_for(variant)
    y, z, x, y_prev, x_prev = (c.copy() for c in make_series(5))
    y[2] = math.nan
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(n_dates)]
    with pytest.raises(DomainError, match=f"^dates has {n_dates} entries for 5 days$"):
        run_filter(variant, hp, default_init(variant, hp), y, z, x, y_prev, x_prev, dates=dates)


@pytest.mark.parametrize("case, error, message", [
    ("unequal_lengths", DomainError, "series arrays must share one length"),
    ("empty", DataError, "cannot filter an empty series"),
    ("prior_dimension", DomainError, "initial prior dimension 4 does not match rvdlm layout (3)"),
    ("zero_alpha", DomainError, "rvdlm requires alpha > 0"),
])
def test_run_filter_input_check(case, error, message):
    variant = ModelClass.RVDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    cols = list(make_series(6))
    if case == "unequal_lengths":
        cols[4] = cols[4][:5]
    elif case == "empty":
        cols = [c[:0] for c in cols]
    elif case == "prior_dimension":
        init = default_init(ModelClass.RVLDLM, hp)
    else:  # HyperParams allows alpha = 0, which only the price-only class may run at
        hp = HyperParams(0.999, 0.875, 0.0)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_filter(variant, hp, init, *cols)


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
    assert "np.float64" not in str(info.value)
    assert info.value.date == dates[0]


def test_generated_loops_show_their_source():
    # tracebacks and profilers read the generated loop through linecache
    assert set(_LOOPS) == {v.dim for v in ModelClass}
    for d, loop in _LOOPS.items():
        assert inspect.getsource(loop) == _loop_source(d)


def test_price_only_class_ignores_alpha():
    # one loop per dimension reads alpha z for every class; the price-only class
    # must feed it alpha = 0 whatever hp.alpha holds
    variant = ModelClass.SVDLM
    hp = hp_for(variant)
    init = default_init(variant, hp)
    series = make_series(300)
    want = run_filter(variant, hp, init, *series)
    got = run_filter(variant, HyperParams(hp.delta, hp.beta, 2.75), init, *series)
    for key in ("m", "C", "n", "s", "n_star", "forecast", "scale", "error", "log_density"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


@pytest.mark.parametrize("variant", list(ModelClass))
def test_nonpositive_one_step_scale_is_a_dated_numerical_error(variant):
    # a prior variance of -1 on the lagged-RV coefficient is inert on day 0
    # (x_prev = 0) and drives q below zero on day 1 (x_prev = 10), so the
    # reported step also pins the row width of the layout's loop
    hp = hp_for(variant)
    init = default_init(variant, hp)
    R = init.R.copy()
    R[-1, -1] = -1.0
    init = PriorMoments(init.a, R, init.n_star, init.s_prev)
    y, z, x, y_prev, _ = make_series(20)
    x_prev = np.full(20, 10.0)
    x_prev[0] = 0.0
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(20)]
    with pytest.raises(NumericalError, match="nonpositive one-step scale") as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert "at step 1 [date=2001-01-02]" in str(info.value)
    assert info.value.date == dates[1]


@pytest.mark.parametrize("T", [1, 5])
def test_infinite_one_step_scale_is_a_dated_numerical_error(T):
    # a huge prior variance on the y_prev coefficient makes F'RF overflow to
    # +inf on day 0; the step composition rejects that q as well
    variant = ModelClass.RVDLM
    hp = hp_for(variant)
    init = PriorMoments(np.array([0.0, 1.0, 0.0]), np.diag([1e-2, 1e308, 1e-2]), hp.beta, 1.4e-4)
    y, z, x, y_prev, x_prev = make_series(T)
    F = build_regressor(variant, y_prev[0], x[0], x_prev[0])
    with pytest.raises(NumericalError, match="q=inf"), np.errstate(over="ignore"):
        price_update(rv_update(init, float(z[0]), hp.alpha), float(y[0]), F)
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(T)]
    with pytest.raises(NumericalError, match="nonpositive one-step scale q=inf") as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert "at step 0 [date=2001-01-01]" in str(info.value)
    assert info.value.date == dates[0]


@pytest.mark.parametrize("variant", list(ModelClass))
def test_overflowing_volatility_scale_is_a_dated_numerical_error(variant):
    # a finite but absurd last price overflows e^2/q: s and the log density
    # leave the finite range on the last day, after the loop's q check
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(20)
    y = y.copy()
    y[-1] = 1e200
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(20)]
    with pytest.raises(NumericalError, match="left the finite range at step 19") as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert "[date=2001-01-20]" in str(info.value)
    assert info.value.date == dates[19]


@pytest.mark.parametrize("variant", list(ModelClass))
def test_overflowed_price_is_reported_on_its_own_day(variant):
    # s[10] = inf makes day 11's q infinite; the fault is day 10's price, in
    # the kernel and in the step composition alike
    hp = hp_for(variant)
    init = default_init(variant, hp)
    y, z, x, y_prev, x_prev = make_series(20)
    y = y.copy()
    y[10] = 1e200
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=t) for t in range(20)]
    with pytest.raises(NumericalError, match="left the finite range at step 10") as info:
        run_filter(variant, hp, init, y, z, x, y_prev, x_prev, dates=dates)
    assert f"[date={dates[10]}]" in str(info.value)
    assert info.value.date == dates[10]
    prior, post = init, None
    for t in range(20):
        if t > 0:
            prior = evolve(post, hp)
        F = build_regressor(variant, y_prev[t], x[t], x_prev[t])
        try:
            if variant.uses_rv:
                post, _ = price_update(rv_update(prior, float(z[t]), hp.alpha), float(y[t]), F)
            else:
                post, _ = sv_volatility_update_path(prior, float(y[t]), F)
        except NumericalError as exc:
            assert "left the finite range" in str(exc)
            break
    assert t == 10


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


@pytest.mark.parametrize("variant, digest", [
    (ModelClass.SVDLM,
     "4260b5ff2a00b5ce7bdc9f7d9fc62bf6694f2ed3201c74f7af010acea9c48b53"),
    (ModelClass.RVDLM,
     "298fa7d49999be12d22dc2b6105f3217c18f8783b41ab9d984e42191bda9f51b"),
    (ModelClass.RVLDLM,
     "b87fb1b5e596f5d381929bdda9a0a994a193eba9ea8867bdcced3d82d4927eb3"),
])
def test_trajectory_bits_are_pinned(variant, digest):
    # sha256 of every per-day output of the kernel on one 2,400-day synthetic
    # series: a change to the loop or to how its rows leave it may not move a bit
    theta = slowly_varying_theta(ModelClass.RVLDLM, 2400, [0.0046, 0.998, -0.35, 0.30],
                                 amplitude=[0.001, 0.0, 0.15, 0.15],
                                 period=[500.0, 750.0, 800.0, 900.0])
    bars, _ = generate_synthetic(SyntheticParams(model=ModelClass.RVLDLM, theta=theta,
                                                 v0=1.3e-4, vol_info=400.0),
                                 np.random.default_rng(23))
    frame = build_series(bars)
    hp = hp_for(variant)
    traj = run_filter(variant, hp, default_init(variant, hp, s1=1.3e-4),
                      frame.y, frame.z, frame.x, frame.y_prev, frame.x_prev)
    outputs = (traj.m, traj.C, traj.n, traj.s, traj.forecast, traj.scale, traj.error,
               traj.log_density)
    h = hashlib.sha256()
    for v in outputs:
        h.update(np.ascontiguousarray(v).tobytes())
    assert h.hexdigest() == digest
    # no output is a view of another, or of a row buffer that it would keep alive
    for a, b in itertools.combinations(outputs + (traj.n_star,), 2):
        assert not np.shares_memory(a, b)


def test_dof_sequences_takes_a_nonnegative_integer_T():
    hp = hp_for(ModelClass.RVDLM)
    for T in (0, np.int64(3)):
        assert [v.size for v in dof_sequences(hp, 0.875, T, True)] == [int(T)] * 3
    for T in (-3, 2.5, True, np.float64(4.0), "5"):
        with pytest.raises(DomainError, match=f"^T must be a nonnegative integer, got "
                                              f"{re.escape(repr(T))}$"):
            dof_sequences(hp, 0.875, T, True)


@pytest.mark.parametrize("n_star_1", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_dof_sequences_takes_a_finite_positive_n_star_1(n_star_1):
    with pytest.raises(DomainError, match=f"^n_star_1 must be finite and positive, "
                                          f"got {n_star_1!r}$"):
        dof_sequences(hp_for(ModelClass.RVDLM), n_star_1, 10, True)


@pytest.mark.parametrize("scalar", [np.float32, np.float16])
def test_reduced_precision_scalars_give_the_float64_path(scalar):
    # numpy 2 once ran the dof arithmetic in the precision of a float32 or float16
    # field, and a shared plan would have kept those values under the float key
    variant = ModelClass.RVDLM
    y, z, x, y_prev, x_prev = make_series(200, seed=9)

    def run(cast):
        kernel._dof_plan.cache_clear()  # each side builds its own plan
        hp = HyperParams(cast(0.999), cast(0.875), cast(2.75))
        init = PriorMoments(np.zeros(3), np.diag([0.1, 0.01, 0.05]), cast(0.875), cast(1.4e-4))
        return (run_filter(variant, hp, init, y, z, x, y_prev, x_prev),
                dof_sequences(hp_for(variant), cast(0.875), 300, True))

    want, want_path = run(lambda v: float(scalar(v)))
    got, got_path = run(scalar)
    for k in ("m", "C", "n", "s", "n_star", "forecast", "scale", "error", "log_density"):
        assert getattr(got, k).dtype == np.float64, k
        assert np.array_equal(getattr(got, k), getattr(want, k)), k
    for a, b in zip(got_path, want_path):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def grid_trajectories(T=300):
    """The perfbench grid on one series: 3 classes x delta x beta, n*_1 = beta."""
    y, z, x, y_prev, x_prev = make_series(T, seed=5)
    out = {}
    for variant in ModelClass:
        for delta in (0.995, 0.998, 0.999):
            for beta in (0.85, 0.875, 0.9):
                hp = HyperParams(delta, beta, 2.75 if variant.uses_rv else 0.0)
                out[variant, delta, beta] = run_filter(variant, hp, default_init(variant, hp),
                                                       y, z, x, y_prev, x_prev)
    return out


def test_one_dof_plan_per_path():
    kernel._dof_plan.cache_clear()
    trajs = grid_trajectories()
    # 27 cells, 6 paths: (beta, alpha) with alpha 0 for the price-only class
    info = kernel._dof_plan.cache_info()
    assert (info.misses, info.hits) == (6, 21)
    a = trajs[ModelClass.RVDLM, 0.995, 0.875]
    # delta and the regressor layout do not enter the path: the arrays are shared
    for b in (trajs[ModelClass.RVDLM, 0.999, 0.875], trajs[ModelClass.RVLDLM, 0.998, 0.875]):
        assert b.n is a.n and b.n_star is a.n_star
    # beta and alpha do
    for b in (trajs[ModelClass.RVDLM, 0.995, 0.9], trajs[ModelClass.SVDLM, 0.995, 0.875]):
        assert b.n is not a.n and b.n_star is not a.n_star
        assert not np.array_equal(b.n, a.n)
    # and n*_1
    hp = HyperParams(0.995, 0.875, 2.75)
    y, z, x, y_prev, x_prev = make_series(300, seed=5)
    init = PriorMoments(np.zeros(3), np.diag([0.10, 0.01, 0.05]), 2.0, 1.4e-4)
    b = run_filter(ModelClass.RVDLM, hp, init, y, z, x, y_prev, x_prev)
    assert b.n is not a.n and b.n_star is not a.n_star


def test_shared_dof_arrays_are_read_only():
    traj = grid_trajectories(50)[ModelClass.SVDLM, 0.999, 0.9]
    for name in ("n", "n_star"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 1.0
    for v in kernel._dof_plan(0.9, 0.0, 0.9, 50):
        assert not v.flags.writeable


# the five paths of test_dof_path_and_score_constants_match_full_evaluation
@pytest.mark.parametrize("beta,alpha,n_star_1", [
    (0.875, 2.75, 0.875), (0.925, 0.0, 0.925), (0.999, 2.75, 0.999), (0.875, 2.75, 100.0),
    (1.0, 2.75, 1.0)], ids=["0.875-2.75", "0.925-0.0", "0.999-2.75", "falling", "unit_beta"])
def test_dof_plan_equals_a_fresh_evaluation(beta, alpha, n_star_1):
    hp = HyperParams(0.999, beta, alpha)
    fresh = dof_sequences(hp, n_star_1, 3000, alpha > 0.0)
    fresh += (_score_constants(fresh[1]),)
    kernel._dof_plan.cache_clear()
    for _ in range(2):  # built, then looked up
        plan = kernel._dof_plan(beta, alpha, n_star_1, 3000)
        assert len(plan) == 4
        for got, want in zip(plan, fresh):
            assert got.dtype == np.float64 and np.array_equal(got, want)


def test_results_survive_eviction_from_the_dof_plan_cache():
    before = grid_trajectories(120)
    maxsize = kernel._dof_plan.cache_info().maxsize
    for k in range(maxsize + 8):  # distinct paths push every grid path out
        kernel._dof_plan(0.9, 2.75, 1.0 + k, 120)
    assert kernel._dof_plan.cache_info().currsize == maxsize
    after = grid_trajectories(120)
    for cell, a in before.items():
        b = after[cell]
        assert b.n is not a.n  # rebuilt, not looked up
        for k in ("m", "C", "n", "s", "n_star", "forecast", "scale", "error", "log_density"):
            assert np.array_equal(getattr(a, k), getattr(b, k)), (cell, k)
