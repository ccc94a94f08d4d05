"""Independent numerical oracles used across the test suite.

The grid filter oracle carries the joint density of (state, precision) on a
2-D quadrature grid and performs every update by pointwise Bayes: multiply by
the exact observation density and renormalize. The discount evolution is
treated via the implied gamma prior for the precision together with the
standard scale-swap of the state conditional, and every volatility-scale move
re-expresses the state grid by an exact affine change of variables, matching
the filter's re-anchoring convention. All anchors and transition inputs are
estimated from the grid itself, never taken from the recursion under test.

Everything here leans on scipy/math rather than the package's own special
functions, keeping the verification route independent.

The ingestion reference is the per-bar form of `parse_csv` and
`build_series`: one row, one bar and one chain of scalar `math` calls at a
time, with the checks written out in the order the contract states them.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import math
import sys

import numpy as np
from scipy import special as sp

from rvdlm import ConfigError, DataError, OhlcBar, SeriesFrame, forecast


def gl_panels(edges, nodes_per_panel):
    """Composite Gauss-Legendre nodes/weights over consecutive panels."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        nodes.append(mid + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def log_gamma_pdf(x, shape, rate):
    return shape * np.log(rate) - sp.gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x


def log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


class GridFilterOracle:
    """Sequential 2-D quadrature filter for a scalar-state model."""

    def __init__(self, delta, beta, alpha, a1, R1, n_star_1, s0,
                 theta_panels=14, theta_nodes=44, phi_nodes=44, width_sds=14.0):
        self.delta, self.beta, self.alpha = delta, beta, alpha
        edges = np.array([1e-6, 1e-4, 3e-3, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3,
                          2.0, 3.0, 4.5, 6.5, 9.0, 12.5, 17.0, 23.0]) / s0
        self.phi, self.wphi = gl_panels(edges, phi_nodes)
        self._tp, self._tn = theta_panels, theta_nodes
        # the half-width must out-run the polynomial t-tails of the theta
        # margins, whose dof is the volatility information level
        self._width = width_sds
        self.theta, self.wth = self._theta_grid(a1, width_sds * math.sqrt(R1))
        lp = log_gamma_pdf(self.phi, 0.5 * n_star_1, 0.5 * n_star_1 * s0)
        var = R1 / (s0 * self.phi)
        self.W = np.exp(log_normal_pdf(self.theta[:, None], a1, var[None, :]) + lp[None, :])
        self._normalize()
        self.s_anchor = self._s_hat()

    def _theta_grid(self, center, halfwidth):
        edges = np.linspace(center - halfwidth, center + halfwidth, self._tp + 1)
        return gl_panels(edges, self._tn)

    def _normalize(self):
        self.W /= (self.wth @ self.W) @ self.wphi

    def _s_hat(self):
        q_phi = self.wth @ self.W
        return 1.0 / float((q_phi * self.phi) @ self.wphi)

    def moments(self):
        """(E[theta], V[theta], E[phi], V[phi]) under the current joint."""
        q_phi = self.wth @ self.W
        e_phi = float((q_phi * self.phi) @ self.wphi)
        v_phi = float((q_phi * self.phi ** 2) @ self.wphi) - e_phi ** 2
        m_th = self.W @ self.wphi
        e_th = float((m_th * self.theta) @ self.wth)
        v_th = float((m_th * self.theta ** 2) @ self.wth) - e_th ** 2
        return e_th, v_th, e_phi, v_phi

    def _reanchor(self, s_new):
        # exact change of variables: scale theta about its (phi-free) mean
        e_th = self.moments()[0]
        c = math.sqrt(self.s_anchor / s_new)
        self.theta = e_th + c * (self.theta - e_th)
        self.wth = c * self.wth
        self.W = self.W / c
        self.s_anchor = s_new

    def evolve(self):
        q_phi = self.wth @ self.W
        K = self.W / q_phi[None, :]
        e_th, v_th, e_phi, v_phi = self.moments()
        n_hat = 2.0 * e_phi ** 2 / v_phi
        s_hat = 1.0 / e_phi
        mu_j = (self.theta[:, None] * K * self.wth[:, None]).sum(axis=0)
        var_j = ((self.theta[:, None] - mu_j[None, :]) ** 2 * K * self.wth[:, None]).sum(axis=0)
        w_q = q_phi * self.wphi
        C_hat = float(((var_j * self.phi * s_hat) * w_q).sum() / w_q.sum())
        Wt = C_hat * (1.0 - self.delta) / self.delta
        ns = self.beta * n_hat
        qprime = np.exp(log_gamma_pdf(self.phi, 0.5 * ns, 0.5 * ns * s_hat))
        sd_prior = math.sqrt((C_hat / self.delta) * n_hat / max(n_hat - 2.0, 1.0))
        new_theta, new_wth = self._theta_grid(e_th, self._width * sd_prior)
        D2 = (new_theta[:, None] - self.theta[None, :]) ** 2
        newW = np.empty((new_theta.size, self.phi.size))
        for k in range(self.phi.size):
            var = Wt / (s_hat * self.phi[k])
            kern = np.exp(-0.5 * D2 / var) / math.sqrt(2.0 * math.pi * var)
            newW[:, k] = qprime[k] * (kern @ (K[:, k] * self.wth))
        self.theta, self.wth, self.W = new_theta, new_wth, newW
        self._normalize()
        self.s_anchor = s_hat

    def observe_rv(self, z):
        if self.alpha <= 0.0:
            return
        ll = log_gamma_pdf(z, 0.5 * self.alpha, 0.5 * self.alpha * self.phi)
        self.W *= np.exp(ll - ll.max())[None, :]
        self._normalize()
        self._reanchor(self._s_hat())

    def observe_price(self, y, F):
        ll = log_normal_pdf(y, F * self.theta[:, None], (1.0 / self.phi)[None, :])
        self.W *= np.exp(ll - ll.max())
        self._normalize()
        self._reanchor(self._s_hat())

    def step(self, t, y, z, F):
        if t > 0:
            self.evolve()
        self.observe_rv(z)
        self.observe_price(y, F)
        return self.moments()


def run_grid_filter(y, z, F, delta, beta, alpha, a1, R1, n_star_1, s0, **kw):
    """Filtered (E[theta], V[theta], E[phi]) per step from the grid oracle."""
    oracle = GridFilterOracle(delta, beta, alpha, a1, R1, n_star_1, s0, **kw)
    out = []
    for t in range(len(y)):
        e_th, v_th, e_phi, _ = oracle.step(t, y[t], z[t], F[t])
        out.append((e_th, v_th, e_phi))
    return out


def gain_smoother(m, C, s, n, delta, beta):
    """Fixed-interval smoother by the general backward recursion, solving for
    the gain at every step: B_t = C_t R_{t+1}^{-1} with R_{t+1} = C_t/delta,
    m*_t = m_t + B_t (m*_{t+1} - a_{t+1}) with a_{t+1} = m_t, and
    C*_t = C_t - B_t (R_{t+1} - C*_{t+1}) B_t'. The volatility recursions
    1/s_bar_t = (1-beta)/s_t + beta/s_bar_{t+1} and
    n_bar_t = (1-beta) n_t + beta n_bar_{t+1} run on numpy scalars.

    Returns (m_star, C_star, s_bar, n_bar) over the filtered arrays given.
    """
    T = len(s)
    m_star, C_star = np.array(m, dtype=float), np.array(C, dtype=float)
    s_bar, n_bar = np.array(s, dtype=float), np.array(n, dtype=float)
    for t in range(T - 2, -1, -1):
        R_next = C[t] / delta
        R_next = 0.5 * (R_next + R_next.T)
        B = np.linalg.solve(R_next, C[t].T).T
        m_star[t] = m[t] + B @ (m_star[t + 1] - m[t])
        Cs = C[t] - B @ (R_next - C_star[t + 1]) @ B.T
        C_star[t] = 0.5 * (Cs + Cs.T)
        s_bar[t] = 1.0 / ((1.0 - beta) / s[t] + beta / s_bar[t + 1])
        n_bar[t] = (1.0 - beta) * n[t] + beta * n_bar[t + 1]
    return m_star, C_star, s_bar, n_bar


def stepwise_backward_sample(m, C, s, n, delta, beta, rng, n_samples):
    """Backward sampling one day at a time: the bit reference for
    `backward_sample`. Draw (phi_T, theta_T) from the filtered posterior,
    then for t = T-1..1 phi_t = beta phi_{t+1} + Gamma((1-beta) n_t/2,
    n_t s_t/2) and theta_t = (1-delta) m_t + delta theta_{t+1} + sqrt(1-delta)
    L_t xi / sqrt(s_t phi_t), with C_t = L_t L_t' and xi standard normal.

    Returns (theta, phi) with shapes (n_samples, T, d) and (n_samples, T).
    """
    T, d = np.shape(m)
    theta = np.empty((n_samples, T, d))
    phi = np.empty((n_samples, T))
    L = [np.linalg.cholesky(C[t]) for t in range(T)]
    nT, sT = float(n[-1]), float(s[-1])
    phi[:, -1] = rng.standard_gamma(0.5 * nT, n_samples) / (0.5 * nT * sT)
    xi = rng.standard_normal((n_samples, d))
    theta[:, -1, :] = m[-1] + (xi @ L[-1].T) / np.sqrt(sT * phi[:, -1])[:, None]
    for t in range(T - 2, -1, -1):
        n_t, s_t = float(n[t]), float(s[t])
        shock = rng.standard_gamma(0.5 * (1.0 - beta) * n_t, n_samples) / (0.5 * n_t * s_t)
        phi[:, t] = beta * phi[:, t + 1] + shock
        mean = (1.0 - delta) * m[t] + delta * theta[:, t + 1, :]
        xi = rng.standard_normal((n_samples, d))
        scale = math.sqrt(1.0 - delta) * L[t]
        theta[:, t, :] = mean + (xi @ scale.T) / np.sqrt(s_t * phi[:, t])[:, None]
    return theta, phi


def whole_array_sample_joint(prior, alpha, reg, rng, size):
    """`sample_joint` as whole-array expressions: the bit reference for its
    blocked form. Scaled-F draws (gamma precisions, then a conditional gamma
    over each), floored, then y = f + sqrt(q) t with the conditional law of
    every z at once and one standard t array.
    """
    d1, d2, scale = alpha, prior.n_star, prior.s_prev
    phi = rng.standard_gamma(0.5 * d2, size) / (0.5 * d2 * scale)
    z = np.maximum(rng.standard_gamma(0.5 * d1, size) / (0.5 * d1 * phi), reg.floor_eps)
    dof, f, q = forecast._conditional_law(prior, alpha, reg, z)
    return z, f + np.sqrt(q) * rng.standard_t(dof, size)


def static_joint_smoother(y, z, F, delta, alpha, a1, R1, n_star_1, s0, W_seq,
                          theta_lo, theta_hi, n_theta=700, phi_nodes=40):
    """Smoothed E/V of theta_t and E[phi] for the constant-precision model
    (beta = 1): exact forward-backward over a theta grid per phi node.

    `W_seq` are the state-evolution scale inputs for steps 2..T (variance
    units, divided by s0*phi inside). Returns (means, variances, e_phi).
    """
    T = len(y)
    edges = np.array([1e-6, 1e-4, 3e-3, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3,
                      2.0, 3.0, 4.5, 6.5, 9.0, 12.5, 17.0, 23.0]) / s0
    phi, wphi = gl_panels(edges, phi_nodes)
    theta, wth = gl_panels(np.linspace(theta_lo, theta_hi, 15), max(8, n_theta // 14))
    prior_phi = np.exp(log_gamma_pdf(phi, 0.5 * n_star_1, 0.5 * n_star_1 * s0))

    means = np.zeros(T)
    variances = np.zeros(T)
    e_phi_num = 0.0
    norm = 0.0
    m1 = np.zeros(T)
    m2 = np.zeros(T)
    for j, (pj, wj) in enumerate(zip(phi, wphi)):
        # likelihood factors at this phi
        lik = [np.exp(log_normal_pdf(y[t], F[t] * theta, 1.0 / pj)
                      + (log_gamma_pdf(z[t], 0.5 * alpha, 0.5 * alpha * pj)
                         if alpha > 0 else 0.0)) for t in range(T)]
        fwd = [None] * T
        fwd[0] = np.exp(log_normal_pdf(theta, a1, R1 / (s0 * pj))) * lik[0]
        kerns = []
        for t in range(1, T):
            var = W_seq[t - 1] / (s0 * pj)
            kern = np.exp(log_normal_pdf(theta[:, None], theta[None, :], var))
            kerns.append(kern)
            fwd[t] = lik[t] * (kern @ (fwd[t - 1] * wth))
        bwd = [None] * T
        bwd[T - 1] = np.ones_like(theta)
        for t in range(T - 2, -1, -1):
            bwd[t] = kerns[t].T @ (lik[t + 1] * bwd[t + 1] * wth)
        Zj = float((fwd[T - 1] * wth).sum())
        norm += wj * prior_phi[j] * Zj
        e_phi_num += wj * prior_phi[j] * Zj * pj
        for t in range(T):
            g = fwd[t] * bwd[t]
            m1[t] += wj * prior_phi[j] * float((g * theta * wth).sum())
            m2[t] += wj * prior_phi[j] * float((g * theta ** 2 * wth).sum())
    means = m1 / norm
    variances = m2 / norm - means ** 2
    return means, variances, e_phi_num / norm


def phi_chain_smoother(y, z, beta, alpha, n_star_1, s0, n_filtered,
                       phi_edges=None, phi_nodes=48):
    """Smoothed E[phi_t | all data] for the pure-precision chain (state
    regressor identically zero), by forward-backward over a phi grid with the
    exact multiplicative beta-shock transition.

    `n_filtered` must be the deterministic filtered dof path n_t (a model
    input of the shock law). Requires (1 - beta) n_t / 2 > 1 so the
    transition density vanishes at its upper support edge.
    """
    T = len(y)
    if phi_edges is None:
        phi_edges = np.array([1e-6, 1e-4, 3e-3, 0.02, 0.08, 0.2, 0.45, 0.8,
                              1.1, 1.4, 1.8, 2.3, 3.0, 4.0, 5.5, 7.5, 10.0,
                              14.0, 19.0, 26.0]) / s0
    phi, wphi = gl_panels(phi_edges, phi_nodes)

    def lik(t):
        ll = log_normal_pdf(y[t], 0.0, 1.0 / phi)
        if alpha > 0:
            ll = ll + log_gamma_pdf(z[t], 0.5 * alpha, 0.5 * alpha * phi)
        return np.exp(ll - ll.max())

    def transition(n_t):
        # phi' = phi * gamma / beta, gamma ~ Beta(beta n/2, (1-beta) n/2)
        a_, b_ = 0.5 * beta * n_t, 0.5 * (1.0 - beta) * n_t
        x = beta * phi[:, None] / phi[None, :]   # rows phi', cols phi
        ok = (x > 0.0) & (x < 1.0)
        xs = np.where(ok, x, 0.5)
        logpdf = ((a_ - 1.0) * np.log(xs) + (b_ - 1.0) * np.log1p(-xs)
                  - (sp.gammaln(a_) + sp.gammaln(b_) - sp.gammaln(a_ + b_)))
        dens = np.where(ok, np.exp(logpdf) * beta / phi[None, :], 0.0)
        return dens

    fwd = [None] * T
    fwd[0] = np.exp(log_gamma_pdf(phi, 0.5 * n_star_1, 0.5 * n_star_1 * s0)) * lik(0)
    fwd[0] /= (fwd[0] * wphi).sum()
    kerns = []
    for t in range(1, T):
        kern = transition(n_filtered[t - 1])
        kerns.append(kern)
        ft = lik(t) * (kern @ (fwd[t - 1] * wphi))
        fwd[t] = ft / (ft * wphi).sum()
    bwd = [None] * T
    bwd[T - 1] = np.ones_like(phi)
    for t in range(T - 2, -1, -1):
        b = kerns[t].T @ (lik(t + 1) * bwd[t + 1] * wphi)
        bwd[t] = b / (b * wphi).sum()
    out = []
    for t in range(T):
        g = fwd[t] * bwd[t] * wphi
        out.append(float((g * phi).sum() / g.sum()))
    return np.array(out)


def joint_predictive_quadrature(y_vals, z_vals, a, R, n_star, s_prev, alpha,
                                regressor_of_z, reanchor=True, theta_span=40.0,
                                n_theta=900, phi_nodes=44):
    """log p(y, z | info) for a scalar-state layout by quadrature.

    With `reanchor` the integrand applies the filter's convention: once z is
    in, the state conditional is expressed against the updated volatility
    scale s~(z) and the precision against its post-z gamma; the z margin is a
    separate 1-D quadrature. Without it, the static joint is integrated as
    written, which coincides with the model only when z equals the prior
    scale (the anchor does not move there).
    """
    edges = np.array([1e-6, 1e-4, 3e-3, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3,
                      2.0, 3.0, 4.5, 6.5, 9.0, 12.5, 17.0, 23.0]) / s_prev
    phi, wphi = gl_panels(edges, phi_nodes)
    half = theta_span * math.sqrt(R)
    theta, wth = gl_panels(np.linspace(a - half, a + half, 15), max(8, n_theta // 14))
    n_tilde = n_star + alpha
    out = []
    for yv, zv in zip(y_vals, z_vals):
        Fz = regressor_of_z(zv)
        if reanchor:
            s_til = (n_star + alpha * zv / s_prev) / n_tilde * s_prev
            # z margin: 1-D quadrature over the prior precision
            pz = float((np.exp(log_gamma_pdf(zv, 0.5 * alpha, 0.5 * alpha * phi)
                               + log_gamma_pdf(phi, 0.5 * n_star, 0.5 * n_star * s_prev))
                        * wphi).sum())
            cond = np.exp(
                log_normal_pdf(theta[:, None], a, (R / (s_til * phi))[None, :])
                + log_gamma_pdf(phi, 0.5 * n_tilde, 0.5 * n_tilde * s_til)[None, :]
                + log_normal_pdf(yv, Fz * theta[:, None], (1.0 / phi)[None, :]))
            out.append(math.log(pz) + math.log(float((wth @ cond) @ wphi)))
        else:
            dens = np.exp(
                log_normal_pdf(theta[:, None], a, (R / (s_prev * phi))[None, :])
                + log_gamma_pdf(phi, 0.5 * n_star, 0.5 * n_star * s_prev)[None, :]
                + log_normal_pdf(yv, Fz * theta[:, None], (1.0 / phi)[None, :])
                + log_gamma_pdf(zv, 0.5 * alpha, 0.5 * alpha * phi)[None, :])
            out.append(math.log(float((wth @ dens) @ wphi)))
    return np.array(out)


# ---------------------------------------------------------------------------
# ingestion, bar by bar


def reference_write_columns_csv(path, header, columns) -> None:
    """The CSV writer one row at a time: numpy columns as "%.17g" of each
    value, other columns as `str` of each item."""
    line = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*columns))


def reference_parse_csv(path, schema) -> list:
    """Read, check and date-sort an OHLC file into bars, one row at a time."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    header = rows[0][1]
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    cols = {}
    for field in ("date", "open", "high", "low", "close"):
        want = getattr(schema, field).lower()
        if want not in lookup:
            raise DataError(f"{path}: header {header!r} lacks required column {want!r}")
        if sum(name.strip().lower() == want for name in header) > 1:
            raise DataError(f"{path}: header {header!r} names required column {want!r} "
                            f"more than once")
        cols[field] = lookup[want]

    bars = []
    for line, row in rows[1:]:
        if max(cols.values()) >= len(row):
            raise DataError(f"{path}:{line}: row has {len(row)} fields, expected "
                            f"at least {max(cols.values()) + 1}")
        text = row[cols["date"]]
        try:
            date = dt.date.fromisoformat(text.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{line}: unparseable date {text!r}") from exc
        prices = {}
        for field in ("open", "high", "low", "close"):
            text = row[cols[field]].strip()
            if not text:
                raise DataError(f"{path}:{line}: missing {field}")
            try:
                prices[field] = float(text)
            except ValueError as exc:
                raise DataError(f"{path}:{line}: unparseable {field} {text!r}") from exc
            if not math.isfinite(prices[field]):
                raise DataError(f"{path}:{line}: non-finite {field}")
        bars.append(OhlcBar(date, prices["open"], prices["high"],
                            prices["low"], prices["close"]))

    bars.sort(key=lambda b: b.date)
    for prev, cur in zip(bars, bars[1:]):
        if cur.date == prev.date:
            raise DataError("duplicate bar", cur.date)
    return bars


def reference_validate_bar(bar, rel_tol=1e-9):
    """L <= min(O, C) and max(O, C) <= H on positive prices, clamped within
    the relative slack."""
    o, h, l, c = bar.open, bar.high, bar.low, bar.close
    for name, p in (("open", o), ("high", h), ("low", l), ("close", c)):
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0.0):
            raise DataError(f"{name} price must be finite and positive, got {p!r}", bar.date)
    hi_floor = max(o, c)
    lo_cap = min(o, c)
    if h < hi_floor:
        if hi_floor - h <= rel_tol * hi_floor:
            h = hi_floor
        else:
            raise DataError(f"high {h} below max(open, close) {hi_floor}", bar.date)
    if l > lo_cap:
        if l - lo_cap <= rel_tol * lo_cap:
            l = lo_cap
        else:
            raise DataError(f"low {l} above min(open, close) {lo_cap}", bar.date)
    if not l / h >= sys.float_info.min:
        raise DataError(f"low {l} / high {h} below {sys.float_info.min}", bar.date)
    return dataclasses.replace(bar, high=h, low=l)


def reference_rogers_satchell(bar) -> float:
    bar = reference_validate_bar(bar)
    h_c = math.log(bar.high / bar.close)
    h_o = math.log(bar.high / bar.open)
    l_c = math.log(bar.low / bar.close)
    l_o = math.log(bar.low / bar.open)
    return max(h_c * h_o + l_c * l_o, 0.0)


def reference_build_series(bars, floor_eps, ticker=""):
    """y = log close, floored Rogers-Satchell z, x = sqrt z and the lag
    columns, bar by bar."""
    if len(bars) < 2:
        raise DataError(f"need at least 2 bars to build a series, got {len(bars)}")
    if not floor_eps > 0.0:
        raise ConfigError(f"realized-variance floor must be positive, got {floor_eps!r}")
    z_all = np.array([max(reference_rogers_satchell(b), floor_eps) for b in bars])
    y_all = np.array([math.log(b.close) for b in bars])
    x_all = np.array([math.sqrt(z) for z in z_all])
    return SeriesFrame(ticker=ticker, dates=tuple(b.date for b in bars[1:]),
                       y=y_all[1:], z=z_all[1:], x=x_all[1:],
                       y_prev=y_all[:-1], x_prev=x_all[:-1])
