"""Experiment-layer tests: synthetic generators, the copula marginal stage,
importance diagnostics, the regression demo, and table plumbing."""

import dataclasses
import hashlib
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy import special as sp

from tailflow import autodiff as ad
from tailflow import experiments as E
from tailflow import flows, special, tailest, training

LOG_2PI = 1.8378770664093454836
# Cauchy at the mode plus a standard normal at its mode.
TARGET_AT_ORIGIN_D2_NU1 = -2.0636684190540729159


def full_sample(d, nu, seed=0, n=5000):
    tr, va, te, _ = E.gen_synthetic_de(E.SyntheticDeSpec(d, nu, n=n, seed=seed))
    return np.vstack([tr, va, te])


class TestSyntheticGenerator:
    def test_split_sizes_and_shapes(self):
        tr, va, te, logd = E.gen_synthetic_de(E.SyntheticDeSpec(3, 2.0, n=5000, seed=0))
        assert tr.shape == (2000, 3)
        assert va.shape == (1000, 3)
        assert te.shape == (2000, 3)
        assert callable(logd)

    def test_last_column_is_unit_noise_around_previous(self):
        x = full_sample(4, 2.0, seed=1)
        ks = stats.kstest(x[:, 3] - x[:, 2], "norm").statistic
        assert ks < 0.02

    def test_heavy_column_tail_index(self):
        tr, va, te, _ = E.gen_synthetic_de(
            E.SyntheticDeSpec(2, 1.0, n=1_000_000, seed=2)
        )
        col = np.abs(np.vstack([tr, va, te])[:, 0])
        assert abs(tailest.hill_estimator(col, 4000) - 1.0) < 0.1

    def test_log_density_matches_target_function(self):
        _, _, te, logd = E.gen_synthetic_de(E.SyntheticDeSpec(3, 2.0, n=1000, seed=3))
        pts = te[:50]
        np.testing.assert_array_equal(
            logd(pts), E.vi_target_log_density(pts, 3, 2.0)
        )

    @pytest.mark.parametrize("spec,message", [
        (dict(d=1, nu=2.0), "d >= 2"),
        (dict(d=2, nu=0.0), "must be positive"),
        (dict(d=2, nu=2.0, n=9), "too small to split"),
    ], ids=["d", "nu", "n"])
    def test_spec_validation(self, spec, message):
        with pytest.raises(ValueError, match=message):
            E.SyntheticDeSpec(**spec)

    def test_deterministic(self):
        a = full_sample(3, 1.0, seed=5, n=1000)
        b = full_sample(3, 1.0, seed=5, n=1000)
        np.testing.assert_array_equal(a, b)

    def test_true_density_near_reference_floor_d50(self):
        # the best fitted value in the reference grid is 1.47 per dim
        _, _, te, logd = E.gen_synthetic_de(E.SyntheticDeSpec(50, 30.0, n=5000, seed=0))
        val = -np.mean(logd(te)) / 50
        assert abs(val - 1.47) < 0.03

    def test_true_density_lower_bounds_fitted_model(self):
        cfg = training.TrainConfig(lr=5e-3, max_epochs=30, patience=100, seed=0)
        rows = E.run_de_cell("normal", 2, 30.0, 0, cfg)
        by_name = {r["metric_name"]: r["value"] for r in rows}
        assert by_name["nll_per_dim"] >= by_name["true_nll_per_dim"]


class TestViTarget:
    def test_origin_value_d2_cauchy(self):
        got = E.vi_target_log_density(np.zeros((1, 2)), 2, 1.0)[0]
        assert abs(got - (np.log(1.0 / np.pi) - 0.5 * LOG_2PI)) < 1e-12
        assert abs(got - TARGET_AT_ORIGIN_D2_NU1) < 1e-12

    def test_sign_symmetries(self):
        x = np.array([[1.7, 0.0]])
        a = E.vi_target_log_density(x, 2, 1.0)
        b = E.vi_target_log_density(-x, 2, 1.0)
        assert a[0] == b[0]
        y = np.array([[0.8, -2.3]])
        np.testing.assert_allclose(
            E.vi_target_log_density(y, 2, 2.0),
            E.vi_target_log_density(-y, 2, 2.0),
            atol=1e-14,
        )

    def test_normalized_on_d2_grid(self):
        f = lambda x2, x1: float(
            np.exp(E.vi_target_log_density(np.array([[x1, x2]]), 2, 1.0))[0]
        )
        val, err = integrate.dblquad(
            f, -np.inf, np.inf, lambda x1: x1 - 40, lambda x1: x1 + 40
        )
        assert abs(val - 1.0) < 1e-3

    @pytest.mark.parametrize("nu", [2.0, 3.0])
    def test_tape_route_matches_numeric(self, nu):
        # Bit for bit: the tape divides by nu exactly as numpy does.
        x = special.Rng(4).normal((20, 3))
        plain = E.vi_target_log_density(x, 3, nu)
        tape = ad.Tape()
        var = E.vi_target_log_density(tape.param(x, "x"), 3, nu)
        np.testing.assert_array_equal(np.asarray(var.value), plain)

    @pytest.mark.parametrize("x", [np.zeros((3, 1)), np.zeros(1)], ids=["matrix", "vector"])
    def test_rejects_one_dimension(self, x):
        # at d=1 no Student-T coordinate is left and the Gaussian gap
        # x[:, 0] - x[:, -1] is zero: the constant -log(2 pi)/2, improper
        with pytest.raises(ValueError, match="d >= 2"):
            E.vi_target_log_density(x, 1, 2.0)

    @pytest.mark.parametrize("x", [np.zeros((3, 2)), np.zeros(3)], ids=["columns", "vector"])
    def test_rejects_other_shapes(self, x):
        with pytest.raises(ValueError, match=r"expected an \(n, 3\) matrix"):
            E.vi_target_log_density(x, 3, 2.0)


def assert_kernel_matches_rows(m, x):
    """``_body_kernel`` at x, with and without the cdf, equals the per-row
    formulas bit for bit: each query alone, unsorted, with no fill."""
    width = m.bandwidth * E._SQRT2
    cdf, pdf = [], []
    for xi in x:
        z = (xi - m.points) / width
        cdf.append(0.5 * np.mean(special.erfc(-z)))
        z = (xi - m.points) / m.bandwidth
        pdf.append(np.mean(np.exp(-0.5 * z * z)) / (m.bandwidth * E._SQRT_2PI))
    got_cdf, got_pdf = E._body_kernel(m, x)
    np.testing.assert_array_equal(got_cdf, cdf)
    np.testing.assert_array_equal(got_pdf, pdf)
    no_cdf, got_pdf = E._body_kernel(m, x, cdf=False)
    assert no_cdf is None
    np.testing.assert_array_equal(got_pdf, pdf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCometMarginal:
    @pytest.fixture(scope="class")
    def t2_marginal(self):
        samples = special.Rng(33).student_t(2.0, 20_000)
        return samples, E.comet_marginal_fit(samples)

    def test_uniform_data_median(self):
        data = special.Rng(31).uniform(size=10_000)
        m = E.comet_marginal_fit(data)
        assert abs(E.comet_marginal(m, np.array([0.5]))[0][0] - 0.5) < 0.02

    def test_round_trip(self, t2_marginal):
        # both tails, the body and the median, through the logit and back
        samples, m = t2_marginal
        xs = np.quantile(samples, [0.01, 0.3, 0.5, 0.7, 0.99])[:, None]
        back, _ = E.comet_push(E.comet_logit(xs, [m])[0], [m])
        np.testing.assert_allclose(back, xs, atol=1e-6)

    def test_deep_lower_tail_quantile_round_trip(self, t2_marginal):
        # the tail quantile works from the log cdf, so a cdf far below
        # machine epsilon still maps to a finite point with that cdf
        _, m = t2_marginal
        u = np.array([1e-20, 1e-12, 1e-6, 0.01])
        x, _ = E.comet_push(np.log(u / (1.0 - u))[:, None], [m])
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(E.comet_marginal(m, x[:, 0])[0], u, rtol=1e-12)

    def test_heavy_tail_shape_recovered(self, t2_marginal):
        _, m = t2_marginal
        assert abs(m.shape_hi - 0.5) < 0.1
        assert abs(m.shape_lo - 0.5) < 0.1
        assert not m.tail_fallback

    def test_cdf_continuous_and_increasing(self, t2_marginal):
        _, m = t2_marginal
        eps = 1e-9
        for t in (m.t_lo, m.t_hi):
            lo = E.comet_marginal(m, np.array([t - eps]))[0][0]
            hi = E.comet_marginal(m, np.array([t + eps]))[0][0]
            assert abs(hi - lo) < 1e-6
        grid = np.linspace(-30.0, 30.0, 4001)
        c = E.comet_marginal(m, grid)[0]
        assert np.all(np.diff(c) > 0)
        assert c[0] > 0.0 and c[-1] < 1.0

    def test_pdf_differentiates_cdf(self, t2_marginal):
        _, m = t2_marginal
        pts = np.array([-8.0, -1.0, 0.3, 2.0, 9.0])
        h = 1e-5
        fd = (
            E.comet_marginal(m, pts + h)[0] - E.comet_marginal(m, pts - h)[0]
        ) / (2 * h)
        pdf = np.exp(E.comet_marginal(m, pts, cdf=False)[1])
        np.testing.assert_allclose(pdf, fd, rtol=1e-6)

    def test_pinned_tail_shape(self, t2_marginal):
        samples, _ = t2_marginal
        m = E.comet_marginal_fit(samples, tail_shape=0.5)
        assert m.shape_lo == 0.5 and m.shape_hi == 0.5

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 100"):
            E.comet_marginal_fit(np.linspace(0.0, 1.0, 99))
        # a body of zeros has no spread: the bandwidth falls back to 1e-3,
        # and the kernel cdf is still flat across the junctions
        x = np.concatenate([np.zeros(300), special.Rng(0).normal(20)])
        with pytest.raises(ValueError, match="degenerate body"):
            E.comet_marginal_fit(x)

    @pytest.mark.parametrize("rows", [1, E._KERNEL_ROWS - 1, E._KERNEL_ROWS, E._KERNEL_ROWS + 1])
    def test_kernel_blocks_match_single_rows(self, t2_marginal, rows):
        # each query's kernel mean is the same bits whichever block it lands
        # in.  The body spans ~44 bandwidths, so at a junction the farthest
        # body points lie past every fill edge, and erfc's asymptotic branch
        # runs in place too.
        _, m = t2_marginal
        x = special.Rng(37).normal(rows) * 2.0
        x[:2] = [m.t_lo, m.t_hi][:rows]
        width = m.bandwidth * E._SQRT2
        assert np.max((m.points - x[:, None]) / width) > E._ERFC_TINY
        assert_kernel_matches_rows(m, x)

    @given(
        nu=st.floats(0.3, 30.0),
        seed=st.integers(0, 2**16),
        rows=st.sampled_from([1, E._KERNEL_ROWS - 1, E._KERNEL_ROWS, E._KERNEL_ROWS + 1]),
        levels=st.lists(st.floats(0.0, 1.0), min_size=E._KERNEL_ROWS + 1,
                        max_size=E._KERNEL_ROWS + 1),
        tie=st.booleans(),
    )
    def test_kernel_matches_per_row_formulas(self, nu, seed, rows, levels, tie):
        # unsorted body queries, junctions and ties included, on a random
        # marginal: sorting, blocking and the fills leave every bit alone
        m = E.comet_marginal_fit(special.Rng(seed).student_t(nu, 400))
        x = m.t_lo + np.array(levels[:rows]) * (m.t_hi - m.t_lo)
        x[1:3] = [m.t_lo, m.t_hi][:rows - 1]
        if tie:
            x[-1] = x[0]
        assert_kernel_matches_rows(m, x)

    def test_kernel_skips_erfc_where_its_value_is_known(self, t2_marginal, monkeypatch):
        # at t_hi every argument is <= 0, so only the left fill can apply and
        # scipy's erfc runs unwrapped; at t_lo every one is >= 0, so only the
        # right fill can, and arguments past special._TAIL_SWITCH take the wrapper
        _, m = t2_marginal
        width = m.bandwidth * E._SQRT2
        calls = []

        def counting(name, erfc):
            def wrapped(z, out=None):
                calls.append((name, z.size))
                return erfc(z, out=out)
            return wrapped

        monkeypatch.setattr(special, "erfc", counting("wrapper", special.erfc))
        monkeypatch.setattr(E, "sp", types.SimpleNamespace(erfc=counting("scipy", sp.erfc)))
        for x, name, keep in ((m.t_hi, "scipy", lambda z: z > E._ERFC_TWO),
                              (m.t_lo, "wrapper", lambda z: z < E._ERFC_TINY)):
            calls.clear()
            E._body_kernel(m, np.array([x]))
            computed = np.sum(keep((m.points - x) / width))
            assert calls == [(name, computed)] and computed < m.points.size

    def test_kernel_keeps_the_erfc_tail_past_the_switch(self):
        # a query 27 times h sqrt 2 below a tight body: every argument lies
        # past special._TAIL_SWITCH, where scipy's erfc underflows to zero
        # and only the wrapper's asymptotic branch keeps the mean
        cluster = 1.0 + special.Rng(5).normal(1900) * 0.01
        m = E.comet_marginal_fit(np.concatenate([np.zeros(100), cluster]))
        x = np.array([np.min(cluster) - 27.0 * m.bandwidth * E._SQRT2])
        assert E._body_kernel(m, x)[0][0] > 0.0
        assert_kernel_matches_rows(m, x)

    def test_kernel_rejects_nan_query(self, t2_marginal):
        _, m = t2_marginal
        for cdf in (True, False):
            with pytest.raises(ValueError, match="NaN query"):
                E._body_kernel(m, np.array([0.0, np.nan, 1.0]), cdf)

    def test_body_quantile_newton_steps(self, t2_marginal, monkeypatch):
        # one kernel-cdf row per lane per Newton step; quadratic Newton from
        # the empirical quantile (within ~1e-2 of the root) needs about four
        # steps, and the bound leaves room for an occasional bisection
        _, m = t2_marginal
        u = special.Rng(39).uniform(size=200) * E._BODY_MASS + E._TAIL_MASS
        rows = []
        body_kernel = E._body_kernel

        def counting(mm, x, cdf=True):
            if cdf:
                rows.append(x.size)
            return body_kernel(mm, x, cdf)

        monkeypatch.setattr(E, "_body_kernel", counting)
        x = E._body_quantile(m, u)
        monkeypatch.undo()
        assert u.size <= sum(rows) <= 6 * u.size  # each lane takes a step
        np.testing.assert_allclose(E.comet_marginal(m, x)[0], u, rtol=0, atol=1e-15)

    def test_body_lanes_independent_of_batch(self, t2_marginal):
        # each lane gives the same bits alone as in a batch, junctions
        # included, and levels a hair outside the body land on a junction
        _, m = t2_marginal
        edges = [E._TAIL_MASS, 1.0 - E._TAIL_MASS]
        u = np.concatenate([
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            special.Rng(41).uniform(size=150) * E._BODY_MASS + E._TAIL_MASS,
        ])
        x = E._body_quantile(m, u)
        single = [E._body_quantile(m, u[i:i + 1])[0] for i in range(u.size)]
        np.testing.assert_array_equal(x, single)
        np.testing.assert_allclose(x[:6], [m.t_lo, m.t_hi] * 3, rtol=0, atol=1e-12)

    def test_logit_never_forms_the_whole_kernel_matrix(self):
        # the (queries x body points) kernel matrix is never formed whole:
        # the whole matrix for this split would take 2000 x 2700 doubles
        # (43 MB), and erfc makes three more of its size; two buffers of
        # _KERNEL_ROWS rows serve every block
        train, valid, test, _ = E.gen_synthetic_de(E.SyntheticDeSpec(d=5, nu=2.0, seed=0))
        fit = np.concatenate([train, valid])
        marginals = [E.comet_marginal_fit(fit[:, j]) for j in range(5)]
        tracemalloc.start()
        try:
            E.comet_logit(test, marginals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 2.0

    def test_test_rows_beyond_bounded_tail_raise(self):
        # uniform data gets ML tails with negative shape, whose upper support
        # ends near 1.02; a test value of 10 has no COMET density
        data = special.Rng(31).uniform(size=(1000, 2))
        train, valid, test = data[:400], data[400:600], data[600:].copy()
        test[3, 0] = 10.0
        marginals = [
            E.comet_marginal_fit(np.concatenate([train, valid])[:, j]) for j in range(2)
        ]
        cfg = training.TrainConfig(max_epochs=1)
        u, _ = E.comet_logit(test, marginals)  # the logit itself does not raise
        assert u[3, 0] == np.inf and np.isfinite(np.delete(u, 3, axis=0)).all()
        with pytest.raises(ValueError, match=r"dimension 0: 1 test rows .* upper tail's "
                                             r"endpoint 1\.0\d+ \(GPD shape -0\.\d+\)"):
            E.fit_de_cell("COMET", train, valid, test, 0, cfg)

    def test_log_det_beyond_bounded_tail_is_minus_inf(self):
        # both tails of uniform data are bounded (negative GPD shapes); rows
        # past an endpoint get u = +-inf and log-det -inf, with no warning
        data = special.Rng(31).uniform(size=(1000, 2))
        marginals = [E.comet_marginal_fit(data[:600, j]) for j in range(2)]
        test = data[600:].copy()
        test[3, 0] = 10.0
        test[5, 1] = -10.0
        test[8] = [10.0, -10.0]
        beyond = np.zeros(len(test), dtype=bool)
        beyond[[3, 5, 8]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, ld = E.comet_logit(test, marginals)
            _, ld_inside = E.comet_logit(test[~beyond], marginals)
        assert u[3, 0] == np.inf and u[5, 1] == -np.inf and list(u[8]) == [np.inf, -np.inf]
        assert np.array_equal(ld == -np.inf, beyond)
        np.testing.assert_array_equal(ld[~beyond], ld_inside)


class TestKernelFillPremises:
    # what _body_kernel's shortcuts rest on: the values it writes instead of
    # computing, and where special.erfc is scipy's; should scipy break one,
    # move the constant, not the test
    def test_erfc_is_two_at_and_below_the_left_edge(self):
        z = np.concatenate([np.linspace(-100.0, E._ERFC_TWO, 1_000_001),
                            -np.logspace(2.0, 300.0, 10_001)])
        assert np.all(sp.erfc(z) == 2.0) and np.all(special.erfc(z) == 2.0)

    def test_erfc_is_tiny_at_and_above_the_right_edge(self):
        z = np.concatenate([np.linspace(E._ERFC_TINY, 1000.0, 1_000_001),
                            np.logspace(3.0, 300.0, 10_001)])
        assert np.all(special.erfc(z) == special._TINY)

    def test_erfc_is_scipys_up_to_the_tail_switch(self):
        z = np.concatenate([np.linspace(-100.0, special._TAIL_SWITCH, 1_000_001),
                            -np.logspace(2.0, 300.0, 10_001)])
        assert np.array_equal(special.erfc(z), sp.erfc(z))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCometPush:
    @pytest.fixture(scope="class")
    def marginals(self):
        return [
            E.comet_marginal_fit(special.Rng(33).student_t(2.0, 20_000)),
            E.comet_marginal_fit(special.Rng(31).uniform(size=10_000)),
        ]

    def test_zero_maps_to_marginal_median(self, marginals):
        x, _ = E.comet_push(np.zeros((1, 2)), marginals)
        for j, m in enumerate(marginals):
            assert x[0, j] == E._body_quantile(m, np.array([0.5]))[0]

    def test_round_trip_with_log_det(self, marginals):
        z = special.Rng(35).normal((50, 2))
        x, ld_f = E.comet_push(z, marginals)
        back, ld_i = E.comet_logit(x, marginals)
        np.testing.assert_allclose(back, z, atol=1e-5)
        np.testing.assert_allclose(ld_f + ld_i, 0.0, atol=1e-8)

    def test_data_round_trip(self, marginals):
        # the benchmark's gate: comet_push(comet_logit(x)) recovers x to 1e-11
        # relative to 1 + |x|, tails and body alike
        x = np.column_stack([
            special.Rng(43).student_t(2.0, 200),
            special.Rng(45).uniform(size=200),
        ])
        back, _ = E.comet_push(E.comet_logit(x, marginals)[0], marginals)
        assert np.max(np.abs(back - x) / (1.0 + np.abs(x))) <= 1e-11

    def test_outputs_pinned(self):
        # sha256 of comet_logit's (u, log-det) of a test split and comet_push's
        # (x, log-det) of its first 100 rows, at nu = 0.5 and 2 on marginals
        # with ML tails: any change to the kernel's bits, the tails' or the
        # Newton loop's shows here
        digest = hashlib.sha256()
        for nu in (0.5, 2.0):
            train, valid, test, _ = E.gen_synthetic_de(E.SyntheticDeSpec(5, nu, n=2000, seed=0))
            fit = np.concatenate([train, valid])
            marginals = [E.comet_marginal_fit(fit[:, j]) for j in range(5)]
            u, ld = E.comet_logit(test, marginals)
            x, ld_push = E.comet_push(u[:100], marginals)
            for a in (u, ld, x, ld_push):
                digest.update(a.tobytes())
        assert digest.hexdigest() == \
            "78ea2ab60b5d3d33acc7be644aec1ba72b792fbc9db827afae34527702e57df5"

    def test_nan_rejected(self, marginals):
        u = np.zeros((3, 2))
        u[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            E.comet_push(u, marginals)

    def test_infinite_u_maps_to_tail_limits(self, marginals):
        # t(2) tails are unbounded; the uniform marginal's GPD tails (negative
        # shapes) end at scale / |shape| beyond their junctions.  The log-det,
        # one marginal at a time, is the limit of log scale - shape * log S
        # as the tail survivor S goes to 0.
        m = marginals[1]
        exponential = dataclasses.replace(m, shape_lo=0.0, shape_hi=0.0)
        cases = (
            (marginals[0], [np.inf, -np.inf], [np.inf, np.inf]),
            (m, [m.t_hi + m.scale_hi / -m.shape_hi, m.t_lo - m.scale_lo / -m.shape_lo],
             [-np.inf, -np.inf]),
            (exponential, [np.inf, -np.inf], [np.log(m.scale_hi), np.log(m.scale_lo)]),
        )
        for marginal, want_x, want_ld in cases:
            with np.errstate(all="raise"):
                x, ld = E.comet_push(np.array([[np.inf], [-np.inf]]), [marginal])
            np.testing.assert_allclose(x[:, 0], want_x, rtol=1e-14)
            assert ld.tolist() == want_ld

    def test_opposite_log_det_limits_give_nan(self, marginals):
        # +inf on the t(2) marginal adds +inf, on the uniform one -inf: the
        # row's log-det has no limit and is NaN, quietly; x is still the limit
        with np.errstate(all="raise"):
            x, ld = E.comet_push(np.array([[np.inf, np.inf], [np.inf, 0.0]]), marginals)
        assert np.isnan(ld[0]) and ld[1] == np.inf
        m = marginals[1]
        assert x[0, 0] == np.inf
        np.testing.assert_allclose(x[0, 1], m.t_hi + m.scale_hi / -m.shape_hi, rtol=1e-14)

    def test_log_det_matches_finite_differences(self, marginals):
        u0 = np.array([[0.4, -0.9]])
        _, ld = E.comet_push(u0, marginals)
        h = 1e-5
        total = 0.0
        for j in range(2):
            up, dn = u0.copy(), u0.copy()
            up[0, j] += h
            dn[0, j] -= h
            xu, _ = E.comet_push(up, marginals)
            xd, _ = E.comet_push(dn, marginals)
            total += np.log((xu[0, j] - xd[0, j]) / (2 * h))
        assert abs(float(ld[0]) - total) < 1e-5


class TestImportanceDiagnostics:
    def test_equal_weights(self):
        w = np.full(500, 2.5)
        assert E.ess_efficiency(w) == 1.0
        assert np.isnan(E.khat(w))
        # the top 68 of 500 tie above the threshold: no GPD fits their excesses
        assert np.isnan(E.khat(np.concatenate([np.full(432, 0.5), np.ones(68)])))

    def test_single_spike(self):
        w = np.zeros(1000)
        w[3] = 1.0
        assert E.ess_efficiency(w) == 1.0 / 1000

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_khat_recovers_exact_gpd_shape(self, seed):
        u = special.Rng(seed).uniform(size=100_000)
        w = ((1.0 - u) ** (-0.5) - 1.0) / 0.5
        assert abs(E.khat(w) - 0.5) < 0.1

    def test_scale_invariance_is_exact(self):
        u = special.Rng(53).uniform(size=10_000)
        w = ((1.0 - u) ** (-0.5) - 1.0) / 0.5
        for c in (4.0, 0.25, 1024.0):
            assert E.khat(c * w) == E.khat(w)
            assert E.ess_efficiency(c * w) == E.ess_efficiency(w)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 100"):
            E.khat(np.ones(99))
        with pytest.raises(ValueError, match="nonnegative"):
            E.khat(np.concatenate([np.ones(200), [-1.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            E.ess_efficiency(np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="zero"):
            E.ess_efficiency(np.zeros(10))

    def test_self_target_diagnostics_are_perfect(self):
        model = flows.build_architecture("normal", 2, seed=0)

        def target(x):
            return -0.5 * np.sum(np.asarray(x) ** 2, axis=1) - LOG_2PI

        diag = E.compute_vi_diagnostics(model, target, 5000, special.Rng(9))
        assert diag.ess_e == 1.0
        assert np.isnan(diag.k_hat)
        assert diag.n == 5000
        assert np.all(diag.weights == diag.weights[0])

    def test_target_without_mass_gives_nan_diagnostics(self):
        model = flows.build_architecture("normal", 2, seed=0)
        diag = E.compute_vi_diagnostics(model, lambda x: np.full(len(x), -np.inf), 200,
                                        special.Rng(9))
        assert diag.n == 200 and np.all(diag.weights == 0.0)
        assert np.isnan(diag.ess_e) and np.isnan(diag.k_hat)

    def test_ess_efficiency_never_exceeds_one(self):
        # Rounding in the two sums gave 1 + 2^-52; Cauchy-Schwarz bounds it by 1.
        assert E.ess_efficiency(np.array([1.0, 1.0, 1.0 - 2.0**-52])) == 1.0

    def test_log_2pi_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):  # at 53 bits mpmath also rounds 2 pi first
            assert E._LOG_2PI == float(mpmath.log(2 * mpmath.pi))
            assert E._SQRT_2PI == float(mpmath.sqrt(2 * mpmath.pi))

    @pytest.mark.parametrize("flow", ["TTF", "gTAF", "normal"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_weights_match_inverse_log_prob(self, flow, d):
        """log q from the sampling pass gives the weights p(x) / q(x) of the draws."""
        model = flows.build_architecture(flow, d, seed=0)
        r = np.random.default_rng(d)
        for k, v in model.params.items():
            model.params[k] = v + 0.3 * r.normal(size=v.shape)
        n = 2000
        dropped = np.arange(n) % 50 == 7

        def target(x):
            return np.where(dropped, np.nan, E.vi_target_log_density(x, d, 2.0))

        diag = E.compute_vi_diagnostics(model, target, n, special.Rng(d))
        x = flows.flow_sample(model, special.Rng(d), n)
        logp = target(x)
        logw = np.where(np.isfinite(logp), logp - flows.flow_log_prob(x, model), -np.inf)
        want = np.exp(logw - np.max(logw))
        np.testing.assert_allclose(diag.weights, want, rtol=1e-9, atol=0.0)
        assert np.all(diag.weights[dropped] == 0.0)

    def test_overflowing_draws_get_zero_weight(self):
        # on a few of these draws the affine layer's forward overflows before
        # the TTF layer: the draws come back non-finite, and weigh nothing
        d, nu = 20, 1.5
        model = flows.build_architecture("TTF_tBase", d, seed=1)
        r = np.random.default_rng(0)
        for k, v in model.params.items():
            model.params[k] = v + 0.1 * r.normal(size=v.shape)
        flows.set_frozen_nu(model, np.full(d, nu))

        def target(x):
            return E.vi_target_log_density(x, d, nu)

        x = flows.flow_sample(model, special.Rng(0), 200)
        diag = E.compute_vi_diagnostics(model, target, 200, special.Rng(0))
        bad = ~np.all(np.isfinite(x), axis=1)
        assert 0 < np.sum(bad) < 200
        assert np.all(diag.weights[bad] == 0.0) and np.all(np.isfinite(diag.weights))
        assert np.max(diag.weights) == 1.0 and np.isfinite(diag.ess_e)

    @pytest.mark.parametrize("flow", list(flows.ARCHITECTURES))
    def test_blocked_draws_give_one_pass_diagnostics(self, flow, monkeypatch):
        # khat needs 100 weights, so the sizes start below one block
        rows = flows._FLOW_ROWS
        model = flows.build_architecture(flow, 3, seed=0)
        r = np.random.default_rng(3)
        for k, v in model.params.items():
            model.params[k] = v + 0.1 * r.normal(size=v.shape)

        def target(x):
            return E.vi_target_log_density(x, 3, 2.0)

        for n in [rows - 1, rows, rows + 1, 2 * rows + 1]:
            got = E.compute_vi_diagnostics(model, target, n, special.Rng(n))
            with monkeypatch.context() as mp:
                mp.setattr(flows, "_FLOW_ROWS", 10**9)
                want = E.compute_vi_diagnostics(model, target, n, special.Rng(n))
            np.testing.assert_array_equal(got.weights, want.weights)
            assert (got.ess_e, got.n) == (want.ess_e, want.n)
            assert got.k_hat == want.k_hat or np.isnan(got.k_hat) and np.isnan(want.k_hat)

    def test_diagnostics_memory_at_10k_draws(self):
        # one pass over 10k draws at d=5 traced 20.7 MB
        model = flows.build_architecture("TTF", 5, seed=0)

        def target(x):
            return E.vi_target_log_density(x, 5, 2.0)

        E.compute_vi_diagnostics(model, target, 200, special.Rng(0))
        tracemalloc.start()
        try:
            E.compute_vi_diagnostics(model, target, 10_000, special.Rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 6.0

    def test_mismatched_target_degrades_ess(self):
        model = flows.build_architecture("normal", 2, seed=0)

        def wide_target(x):
            z = np.asarray(x) / 1.5
            return -0.5 * np.sum(z * z, axis=1) - LOG_2PI - 2 * np.log(1.5)

        diag = E.compute_vi_diagnostics(model, wide_target, 5000, special.Rng(9))
        assert 0.0 < diag.ess_e < 1.0
        assert np.isfinite(diag.k_hat)


class TestRegressionDemo:
    def test_generator_contract(self):
        x, y = E.gen_regression(5, 1.0, 3000, special.Rng(60))
        assert x.shape == (3000, 5) and y.shape == (3000,)
        assert stats.kstest(y - x[:, 4], "norm").statistic < 0.025
        assert np.max(np.abs(x)) > 20.0  # Cauchy inputs produce extremes

    def test_mlp_fits_light_tailed_problem(self):
        data = tuple(
            E.gen_regression(5, 30.0, 500, special.Rng(61 + i)) for i in range(3)
        )
        mse = E.fit_mlp_regressor("relu", data, seed=0, max_epochs=30)
        assert 0.5 < mse < 3.0

    def test_sigmoid_activation_accepted(self):
        data = tuple(
            E.gen_regression(3, 30.0, 300, special.Rng(71 + i)) for i in range(3)
        )
        mse = E.fit_mlp_regressor("sigmoid", data, seed=0, max_epochs=20)
        assert np.isfinite(mse)

    def test_unknown_activation_rejected(self):
        data = tuple(
            E.gen_regression(2, 30.0, 200, special.Rng(81 + i)) for i in range(3)
        )
        with pytest.raises(ValueError):
            E.fit_mlp_regressor("gelu", data, seed=0, max_epochs=5)


class TestTablePlumbing:
    CHEAP = training.TrainConfig(lr=5e-3, max_epochs=5, patience=100, seed=0)

    def test_de_cell_row_schema(self):
        rows = E.run_de_cell("normal", 2, 30.0, 0, self.CHEAP)
        names = [r["metric_name"] for r in rows]
        assert names[:3] == ["nll_per_dim", "true_nll_per_dim", "epochs"]
        for r in rows:
            assert set(r) == {
                "flow", "d", "nu", "seed", "metric_name", "value", "diverged"
            }
            assert r["flow"] == "normal" and r["d"] == 2 and r["seed"] == 0

    @pytest.mark.parametrize("flow", ["TTF", "TTFfix", "mTAF", "COMET"])
    def test_de_cell_is_the_shared_fit_with_true_tails(self, flow):
        tr, va, te, log_density = E.gen_synthetic_de(E.SyntheticDeSpec(2, 2.0, seed=0))
        rows = E.fit_de_cell(flow, tr, va, te, 0, self.CHEAP, nu=2.0)
        true_nll = dict(rows[0], metric_name="true_nll_per_dim",
                        value=float(-np.mean(log_density(te))) / 2)
        assert E.run_de_cell(flow, 2, 2.0, 0, self.CHEAP) == [rows[0], true_nll, *rows[1:]]

    def test_ttf_cells_report_learned_lambdas(self):
        rows = E.run_de_cell("TTF", 2, 2.0, 0, self.CHEAP)
        names = {r["metric_name"] for r in rows}
        assert {"lambda_pos[0]", "lambda_neg[0]", "lambda_pos[1]", "lambda_neg[1]"} <= names

    def test_ttffix_lambdas_frozen_at_true_value(self):
        cfg = training.TrainConfig(lr=5e-3, max_epochs=30, patience=100, seed=0)
        rows = E.run_de_cell("TTFfix", 2, 2.0, 0, cfg)
        lams = [r["value"] for r in rows if r["metric_name"].startswith("lambda_")]
        assert len(lams) == 4
        np.testing.assert_allclose(lams, E.true_tail_shape(2.0), rtol=1e-12)

    def test_comet_cell_runs_end_to_end(self):
        rows = E.run_de_cell("COMET", 2, 2.0, 0, self.CHEAP)
        by_name = {r["metric_name"]: r["value"] for r in rows}
        assert np.isfinite(by_name["nll_per_dim"])

    def test_vi_cell_reports_diagnostics(self):
        cfg = E.vi_train_config(0, 2.0, iterations=50)
        rows = E.run_vi_cell("TTFfix", 2, 2.0, 0, cfg)
        names = [r["metric_name"] for r in rows]
        assert names[:2] == ["ess_e", "khat"]
        assert all(np.isfinite(r["value"]) for r in rows[:1])

    def test_vi_train_config_protocol(self):
        cfg = E.vi_train_config(7, 2.0)
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 100
        assert cfg.max_epochs == 10_000
        assert cfg.clip_norm is None
        assert cfg.seed == 7
        heavy = E.vi_train_config(7, 0.5)
        assert heavy.clip_norm == 5.0

    def test_aggregate_mean_and_se(self):
        rows = [
            dict(flow="f", d=2, nu=1.0, seed=s, metric_name="m", value=v,
                 diverged=False)
            for s, v in enumerate([1.0, 2.0, 3.0])
        ]
        cell = E.aggregate_results(rows, "m")[("f", 2, 1.0)]
        assert cell["mean"] == 2.0
        assert abs(cell["se"] - 1.0 / np.sqrt(3)) < 1e-15
        assert cell["display"] == "2.00 (0.58)"

    def test_aggregate_dash_on_divergence(self):
        rows = [
            dict(flow="f", d=2, nu=1.0, seed=0, metric_name="m", value=1.0,
                 diverged=False),
            dict(flow="f", d=2, nu=1.0, seed=1, metric_name="m", value=2.0,
                 diverged=True),
        ]
        cell = E.aggregate_results(rows, "m")[("f", 2, 1.0)]
        assert cell["diverged"]
        assert cell["display"] == "-"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_aggregate_dash_on_non_finite_value(self, bad):
        # a non-finite seed must not leave the other seeds' mean with a smaller n
        rows = [
            dict(flow="f", d=2, nu=1.0, seed=s, metric_name="m", value=v,
                 diverged=False)
            for s, v in enumerate([1.0, bad, 3.0])
        ]
        cell = E.aggregate_results(rows, "m")[("f", 2, 1.0)]
        assert cell["display"] == "-"
        assert cell["n"] == 3
        assert np.isnan(cell["mean"]) and np.isnan(cell["se"])
        assert not cell["diverged"]
