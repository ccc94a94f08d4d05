import math

import numpy as np
import pytest

from rvdlm import (DomainError, HyperParams, ModelClass, PriorMoments,
                   ScaledFParams, ScoreLedger, log_bayes_factor_path,
                   log_score_z_path, run_filter, scaled_f_logpdf)


def filled_ledger(name, incs):
    led = ScoreLedger(name)
    for d, v in incs:
        led.record(d, v)
    return led


class TestLedger:
    def test_increments_sum_to_cumulative(self):
        rng = np.random.default_rng(0)
        led = filled_ledger("m", [(t, float(v)) for t, v in enumerate(rng.normal(size=500))])
        led.check_consistency()
        assert led.cumulative == pytest.approx(math.fsum(led.increments), rel=1e-12)

    def test_warmup_days_not_recorded(self):
        led = ScoreLedger("m", window_start=10)
        assert led.record(3, 1.0) is False
        assert led.record(10, 2.0) is True
        assert led.dates == (10,)
        assert led.cumulative == 2.0

    def test_out_of_order_rejected(self):
        led = filled_ledger("m", [(1, 0.5), (2, 0.25)])
        with pytest.raises(ValueError):
            led.record(2, 0.1)


class TestLogBayesFactor:
    def test_identical_models_score_zero(self):
        incs = [(t, 0.1 * t) for t in range(20)]
        a, b = filled_ledger("a", incs), filled_ledger("b", incs)
        assert all(v == 0.0 for _, v in log_bayes_factor_path(a, b))

    def test_path_is_the_in_order_running_sum(self):
        # reference: the running `+=` total the BF files are defined by, bit for bit
        rng = np.random.default_rng(3)
        a = filled_ledger("a", [(t, float(v)) for t, v in enumerate(rng.normal(size=300))])
        b = filled_ledger("b", [(t, float(v)) for t, v in enumerate(rng.normal(size=300))])
        want, total = [], 0.0
        for d, x, y in zip(a.dates, a.increments, b.increments):
            total += x - y
            want.append((d, total))
        got = log_bayes_factor_path(a, b)
        assert got == want
        assert all(type(v) is float for _, v in got)
        assert log_bayes_factor_path(ScoreLedger("a"), ScoreLedger("b")) == []

    def test_date_mismatch_rejected(self):
        a = filled_ledger("a", [(1, 1.0), (2, 1.0)])
        b = filled_ledger("b", [(1, 1.0), (3, 1.0)])
        with pytest.raises(ValueError):
            log_bayes_factor_path(a, b)


class TestZMarginTally:
    def test_matches_pointwise_scaled_f_density(self):
        rng = np.random.default_rng(12)
        T = 60
        y = np.cumsum(rng.normal(0.0, 0.01, T)) + 4.6
        z = rng.gamma(1.4, 1e-4 / 1.4, T) + 1e-12
        x = np.sqrt(z)
        hp = HyperParams(0.999, 0.875, 2.75)
        init = PriorMoments(np.array([0.0, 1.0, 0.0]),
                            np.diag([0.1, 0.01, 0.05]) / hp.delta, hp.beta, 1e-4)
        traj = run_filter(ModelClass.RVDLM, hp, init, y, z, x,
                          np.concatenate([[y[0]], y[:-1]]),
                          np.concatenate([[x[0]], x[:-1]]))
        got = log_score_z_path(traj)
        for t in (0, 1, 17, 59):
            pr = traj.prior_at(t)
            ref = scaled_f_logpdf(float(z[t]),
                                  ScaledFParams(hp.alpha, pr.n_star, pr.s_prev))
            assert got[t] == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_rejected_for_price_only_model(self):
        rng = np.random.default_rng(1)
        T = 10
        y = rng.normal(0.0, 1.0, T)
        zeros = np.zeros(T)
        hp = HyperParams(0.999, 0.925, 0.0)
        init = PriorMoments(np.array([0.0, 1.0, 0.0]), np.eye(3), hp.beta, 1.0)
        traj = run_filter(ModelClass.SVDLM, hp, init, y, zeros + 1e-12, zeros,
                          zeros, zeros)
        with pytest.raises(DomainError):
            log_score_z_path(traj)


class TestGeneratorWinsOnItsOwnData:
    def test_true_model_outscores_rival_on_average(self):
        # Gibbs' inequality in miniature: data generated under one regressor
        # layout should on average score above a filter lacking the predictor.
        rng = np.random.default_rng(7)
        hp = HyperParams(0.999, 0.9, 0.0)
        diffs = []
        for _ in range(1000):
            T = 40
            x = rng.uniform(0.0, 1.0, T)
            coef = 1.2
            y = 0.3 + coef * x + rng.normal(0.0, 0.25, T)
            # model A regresses on x, model B sees a zero regressor
            init = PriorMoments(np.array([0.0, 1.0, 0.0]),
                                np.diag([1.0, 1.0, 1.0]), 5.0, 0.0625)
            zeros = np.zeros(T)
            trajA = run_filter(ModelClass.SVDLM, hp, init, y, zeros + 1e-12,
                               zeros, x, zeros)
            trajB = run_filter(ModelClass.SVDLM, hp, init, y, zeros + 1e-12,
                               zeros, zeros, zeros)
            diffs.append(float(trajA.log_density.sum() - trajB.log_density.sum()))
        diffs = np.asarray(diffs)
        assert diffs.mean() > 0.0
        assert diffs.mean() > 3.0 * diffs.std(ddof=1) / math.sqrt(diffs.size)
