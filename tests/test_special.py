import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp
from scipy import stats

from rvdlm import DomainError, HyperParams, NumericalError, dof_sequences
from rvdlm import special
from rvdlm.distributions import GammaParams, gamma_quantile
from rvdlm.pipeline import DEFAULT_HYPERPARAMS, _fill_quantiles


def rel_err(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


class TestLogGamma:
    def test_exact_anchor_points(self):
        assert special.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert special.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert special.log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_accuracy_over_stated_range(self):
        xs = np.exp(np.linspace(math.log(1e-3), math.log(1e6), 4001))
        worst = max(rel_err(special.log_gamma(float(x)), math.lgamma(float(x))) for x in xs)
        assert worst < 1e-12

    def test_vectorized_matches_scalar(self):
        # bit for bit, on both sides of the reflection at 0.5
        xs = np.concatenate(([1e-3, 0.1, 0.4375, 0.5, 1.0, 2.5, 17.5, 1e4],
                             np.exp(np.linspace(math.log(1e-3), math.log(1e6), 4001))))
        got = special.log_gamma_array(xs)
        assert got.tolist() == [special.log_gamma(x) for x in xs.tolist()]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            special.log_gamma(bad)


class TestIncompleteGamma:
    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e4))))
            x = float(a * np.exp(rng.uniform(-2.0, 2.0)))
            assert abs(special.reg_lower_gamma(a, x) - sp.gammainc(a, x)) < 1e-12

    def test_edges(self):
        assert special.reg_lower_gamma(2.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            special.reg_lower_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            special.reg_lower_gamma(1.0, -0.5)


class TestGammaQuantileSolver:
    def test_cdf_residual_below_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = float(np.exp(rng.uniform(math.log(0.05), math.log(500.0))))
            u = float(rng.uniform(1e-4, 1.0 - 1e-4))
            x = special.inv_reg_lower_gamma(a, u)
            assert abs(sp.gammainc(a, x) - u) < 1e-10

    def test_rejects_bad_levels(self):
        for u in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                special.inv_reg_lower_gamma(2.0, u)


class TestIncompleteBeta:
    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = float(np.exp(rng.uniform(math.log(0.05), math.log(300.0))))
            b = float(np.exp(rng.uniform(math.log(0.05), math.log(300.0))))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(special.reg_inc_beta(a, b, x) - sp.betainc(a, b, x)) < 5e-13

    def test_edges(self):
        assert special.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert special.reg_inc_beta(2.0, 3.0, 1.0) == 1.0


class TestStudentT:
    def test_cdf_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            dof = float(np.exp(rng.uniform(math.log(0.5), math.log(300.0))))
            t = float(rng.normal(0.0, 3.0))
            assert abs(special.student_t_cdf(t, dof) - stats.t.cdf(t, dof)) < 1e-12

    def test_quantile_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dof = float(np.exp(rng.uniform(math.log(0.5), math.log(300.0))))
            u = float(rng.uniform(1e-3, 1.0 - 1e-3))
            got = special.student_t_quantile(u, dof)
            ref = float(stats.t.ppf(u, dof))
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize("dof", [0.0, -1.0, math.inf, math.nan])
    def test_quantile_rejects_bad_dof(self, dof):
        for u in (0.95, 0.5, 0.05):
            with pytest.raises(DomainError, match="degrees of freedom"):
                special.student_t_quantile(u, dof)

    @pytest.mark.parametrize("dof", [1.0, 3.0, 5.0, 30.0])
    def test_far_lower_tail_against_scipy(self, dof):
        # 1 - u rounds to 1 at these levels: the lower tail is solved itself,
        # in both forms, bit for bit
        for u in (1e-17, 1e-20, 1e-300):
            got = special.student_t_quantile(u, dof)
            assert bits(special.student_t_quantile_lanes([u, 0.3], [dof, 3.0])[0]) == bits(got)
            want = float(stats.t.ppf(u, dof))
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-12)
            else:  # scipy's ppf gives inf at dof 3 and 5 for 1e-300; its cdf holds there
                assert -math.inf < got < 0.0
                assert float(stats.t.cdf(got, dof)) == pytest.approx(u, rel=1e-12)

    def test_symmetry(self):
        for dof in (1.0, 4.5, 30.0):
            assert special.student_t_quantile(0.5, dof) == 0.0
            q = special.student_t_quantile(0.9, dof)
            assert special.student_t_quantile(0.1, dof) == pytest.approx(-q, rel=1e-12)


# numpy ufuncs whose last bits depend on the SIMD loops numpy dispatches
_TRANSCENDENTAL = {"log", "log1p", "log2", "log10", "exp", "exp2", "expm1", "sin", "cos",
                   "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
                   "arcsinh", "arccosh", "arctanh", "power", "float_power", "logaddexp",
                   "logaddexp2", "cbrt"}


def _numpy_names(node, where="<module>"):
    """(enclosing function, name) of every `np.<name>` (or `numpy.<name>`)
    and every name imported from numpy in a module's syntax tree."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")):
        yield where, node.attr
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
        yield from ((where, alias.name) for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _numpy_names(child, where)


def test_no_numpy_transcendental_in_src():
    # the rule of `rvdlm.special`: every log, exp and sin reaching an output is
    # libm's, one element at a time. The one exception is the decimal exponent
    # guess of the CSV writer, which is corrected against the exact product.
    found = {(path.name, where, name)
             for path in Path(special.__file__).parent.glob("*.py")
             for where, name in _numpy_names(ast.parse(path.read_text(encoding="utf-8")))
             if name in _TRANSCENDENTAL}
    assert found == {("ingestion.py", "_write_floats", "log10")}


def test_normal_quantile_sane():
    assert special.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    assert special.normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-6)
    with pytest.raises(DomainError):
        special.normal_quantile(0.0)


# ---------------------------------------------------------------------------
# The lane-parallel solvers against the scalar solvers, bit for bit. The lane
# code serves every lane count, one lane included: the properties check a lane
# beside companion lanes that take the other branches, and a lane alone.

def bits(values) -> list[int]:
    return np.atleast_1d(np.asarray(values, dtype=float)).view(np.int64).tolist()


def same_outcome(lane_call, scalar_call):
    """Both calls return the same float bit for bit, or raise the same type."""
    try:
        want = scalar_call()
    except Exception as exc:  # the scalar's own failure is the reference
        with pytest.raises(type(exc)):
            lane_call()
        return
    got = lane_call()
    assert bits(got) == bits(want), (got, want)


def test_pipeline_quantile_table_matches_scalar_solvers():
    # every distinct dof of the three default models over a 6,538-day series
    dofs = set()
    for variant, hp in DEFAULT_HYPERPARAMS.items():
        dofs.update(dof_sequences(hp, hp.beta, 6538, variant.uses_rv)[2].tolist())
    dofs = sorted(dofs)
    assert len(dofs) > 500
    table = {}
    _fill_quantiles(table, dofs)
    for n in dofs:
        half = 0.5 * n
        want = (special.inv_reg_lower_gamma(half, 0.50) / half,
                special.inv_reg_lower_gamma(half, 0.95) / half,
                special.inv_reg_lower_gamma(half, 0.05) / half,
                special.student_t_quantile(0.95, n))
        assert bits(table[n][:4]) == bits(want), n


def test_pipeline_quantile_table_digest():
    # the float64 bytes of the table over every distinct dof of the three
    # default models on 6,538 days, sorted by dof: a change to the scalar
    # and lane solvers at once cannot pass unseen
    dofs = set()
    for variant, hp in DEFAULT_HYPERPARAMS.items():
        dofs.update(dof_sequences(hp, hp.beta, 6538, variant.uses_rv)[2].tolist())
    dofs = sorted(dofs)
    assert len(dofs) == 706
    table = {}
    _fill_quantiles(table, dofs)
    digest = hashlib.sha256(np.array([table[n][:4] for n in dofs]).tobytes()).hexdigest()
    assert digest == "ff46d7fd3d241a966fed4f1b876cff84ff13e1fe72ccd4580da1f7a062457808"


def test_unit_discount_table_matches_scalar_solvers():
    # at beta = 1 the dof path never settles: 16 of its 6,538 distinct dofs,
    # shapes n/2 up to about 85,000, in one (3, 1) x (16,) gamma lane call
    path = dof_sequences(HyperParams(0.999, 1.0, 25.0), 1.0, 6538, True)[2]
    dofs = np.unique(path)
    assert dofs.size == 6538 and dofs[-1] > 1.6e5
    dofs = dofs[np.linspace(0, dofs.size - 1, 16).astype(int)].tolist()
    table = {}
    _fill_quantiles(table, dofs)
    for n in dofs:
        law = GammaParams(0.5 * n, 0.5 * n)
        want = (gamma_quantile(0.50, law), gamma_quantile(0.95, law),
                gamma_quantile(0.05, law), special.student_t_quantile(0.95, n))
        assert bits(table[n]) == bits(want), n


def test_converge_compacts_a_quarter_at_a_time():
    # lane j converges at iteration j + 1 with row 0 as its result; the step
    # keeps writing row 0 of a converged lane it still holds
    n = 1000
    widths = []

    def step(k, s):
        widths.append(s.shape[1])
        s[0] = s[1] + 0.5 * k
        return s[1] <= k - 1

    lanes = np.arange(n, dtype=float)
    out = special._converge(np.array([np.zeros(n), lanes]), n, str, step)
    assert out.tolist() == (lanes + 0.5 * (lanes + 1.0)).tolist()
    assert widths[0] == n and widths == sorted(widths, reverse=True)
    assert len(set(widths)) <= 30  # one width per converging lane: 1,000
    # a lane past its cap names its column of the state, compacted or not
    cap = np.full(n, n)
    cap[[700, 500]] = 400
    with pytest.raises(NumericalError, match="^500$"):
        special._converge(np.array([np.zeros(n), lanes]), cap, str, step)


def test_large_shapes_solve_in_both_forms():
    # near x = a the incomplete-gamma series needs about 8.5 sqrt(a) terms
    a = np.repeat([7e4, 1e5, 1e6], 3)
    u = np.tile([0.05, 0.5, 0.95], 3)
    x = special.inv_reg_lower_gamma_lanes(a, u)
    want = [special.inv_reg_lower_gamma(ai, ui) for ai, ui in zip(a.tolist(), u.tolist())]
    assert bits(x) == bits(want)
    # the prefactor's exponent cancels terms of size a, so P is good to about
    # 1e-16 a; the quantile itself stays good to about 1e-12 relative
    np.testing.assert_allclose(x, sp.gammaincinv(a, u), rtol=1e-11)
    assert abs(special.reg_lower_gamma(1e5, 1e5) - sp.gammainc(1e5, 1e5)) < 1e-9


def test_mixed_branch_lanes_do_not_interfere():
    # series and continued-fraction lanes, and a g <= 0 start, in one call
    a = np.array([0.5, 100.0, 3.0, 0.05, 40.0])
    u = np.array([0.95, 0.5, 0.999, 0.01, 0.2])
    x = special.inv_reg_lower_gamma_lanes(a, u)
    assert (x < a + 1.0).any() and (x >= a + 1.0).any()
    assert 1.0 - 1.0 / (9.0 * 0.05) + special.normal_quantile(0.01) / (3.0 * math.sqrt(0.05)) <= 0
    want = [special.inv_reg_lower_gamma(ai, ui) for ai, ui in zip(a.tolist(), u.tolist())]
    assert bits(x) == bits(want)
    # direct and swapped beta fractions, reflection and u = 0.5, in one call
    dof = np.array([0.5, 3.0, 3.0, 30.0, 1e4, 7.0])
    u = np.array([0.95, 0.6, 0.3, 0.5, 0.999, 0.05])
    t = special.student_t_quantile_lanes(u, dof)
    xb = dof / (dof + t * t)
    direct = xb < (0.5 * dof + 1.0) / (0.5 * dof + 2.5)
    assert direct[t != 0.0].any() and (~direct[t != 0.0]).any()
    want = [special.student_t_quantile(ui, n) for ui, n in zip(u.tolist(), dof.tolist())]
    assert bits(t) == bits(want)


def test_one_lane_call_equals_the_scalar_solver():
    assert bits(special.inv_reg_lower_gamma_lanes(3.0, 0.95)) == \
        bits(special.inv_reg_lower_gamma(3.0, 0.95))
    assert bits(special.student_t_quantile_lanes(0.95, 7.0)) == \
        bits(special.student_t_quantile(0.95, 7.0))
    with pytest.raises(DomainError):
        special.student_t_quantile_lanes(0.5, 0.0)


LEVELS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# fixed companion lanes: one series-branch and one continued-fraction lane
# (gamma), one reflected and one upper lane (t)
GAMMA_LANES = ([0.5, 100.0], [0.95, 0.5])
T_LANES = ([0.3, 0.95], [3.0, 30.0])


# drawn shapes stop at 1e4 (about 850 numpy steps per CDF evaluation; 1e6
# takes 8,500): larger shapes are the examples below and
# test_large_shapes_solve_in_both_forms, which covers 1e5 and 1e6 at all
# three levels bit for bit
@settings(max_examples=80, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=1e4), u=LEVELS)
@example(a=0.05, u=0.01)  # g <= 0: the start from the small-x expansion
@example(a=2.0, u=0.5)
@example(a=0.05, u=5e-324)
@example(a=1e5, u=0.05)
@example(a=1e5, u=0.5)
@example(a=1e6, u=0.95)
def test_gamma_quantile_lane_equals_scalar(a, u):
    same_outcome(lambda: special.inv_reg_lower_gamma_lanes([a, *GAMMA_LANES[0]],
                                                           [u, *GAMMA_LANES[1]])[0],
                 lambda: special.inv_reg_lower_gamma(a, u))


@settings(max_examples=80, deadline=None)
@given(dof=st.floats(min_value=0.05, max_value=1e6), u=LEVELS)
@example(dof=4.0, u=0.5)
@example(dof=4.0, u=0.25)
@example(dof=4.0, u=0.49999999999999994)  # 1 - u rounds to 0.5: the result is -0.0
def test_t_quantile_lane_equals_scalar(dof, u):
    same_outcome(lambda: special.student_t_quantile_lanes([u, *T_LANES[0]],
                                                          [dof, *T_LANES[1]])[0],
                 lambda: special.student_t_quantile(u, dof))


# a lone lane: shapes up to 1e4 keep the per-term numpy cost of the series small
@settings(max_examples=60, deadline=None)
@given(shape=st.floats(min_value=0.05, max_value=1e4), u=LEVELS)
@example(shape=0.05, u=0.01)
@example(shape=4.0, u=0.5)  # no t lane left to solve
@example(shape=4.0, u=0.49999999999999994)
def test_one_lane_equals_scalar(shape, u):
    same_outcome(lambda: special.inv_reg_lower_gamma_lanes(shape, u),
                 lambda: special.inv_reg_lower_gamma(shape, u))
    same_outcome(lambda: special.student_t_quantile_lanes(u, shape),
                 lambda: special.student_t_quantile(u, shape))


def scalar_failures(solve, lanes):
    """Each lane's NumericalError message from the scalar solver, or None."""
    out = []
    for args in lanes:
        try:
            solve(*args)
            out.append(None)
        except NumericalError as exc:
            out.append(str(exc))
    return out


def test_lane_solvers_fail_as_the_scalar_does(monkeypatch):
    # four Newton steps solve the first two lanes of each call and neither the
    # third nor the fifth; the t call reflects its third lane (u = 0.001)
    monkeypatch.setattr(special, "_MAX_STEPS", 4)
    a, u = [2.0, 50.0, 0.5, 300.0, 0.1], [0.5, 0.95, 0.01, 0.3, 0.9]
    want = scalar_failures(special.inv_reg_lower_gamma, zip(a, u))
    assert want[:2] == [None, None] and want[2] and want[4]
    with pytest.raises(NumericalError) as exc:
        special.inv_reg_lower_gamma_lanes(a, u)
    assert str(exc.value) == want[2] == "gamma quantile solver failed (a=0.5, u=0.01)"
    u, dof = [0.6, 0.95, 0.001, 0.3, 0.99], [3.0, 30.0, 0.5, 1e4, 1.0]
    want = scalar_failures(special.student_t_quantile, zip(u, dof))
    assert want[:2] == [None, None] and want[2] and want[4]
    with pytest.raises(NumericalError) as exc:
        special.student_t_quantile_lanes(u, dof)
    assert str(exc.value) == want[2] == "t quantile solver failed (dof=0.5, u=0.999)"


def test_series_lane_at_its_cap_names_its_arguments():
    # only the middle lane's cap is one term, too few for it
    a, x = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.5])
    with pytest.raises(NumericalError) as exc:
        special._gamma_series_lanes(a, x, np.array([1000.0, 1.0, 1000.0]))
    assert str(exc.value) == scalar_failures(special._gamma_series, [(2.0, 1.0, 1)])[0] == \
        "incomplete gamma series failed to converge (a=2.0, x=1.0)"
