"""Tail transform tests: forward/inverse/log-derivative against
high-precision oracle values, branch agreement, and the elementwise layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailflow import autodiff as ad
from tailflow import flows, special, tailest
from tailflow import tailtransform as tt

# Frozen 50-digit evaluations of the transform (mpmath oracle; see the
# derivations in the repo-external build notes).
R_1_LAM1 = 2.1514871875343770479            # R(1; lam=1)
R_17_LAM04 = 4.0754978818429888557          # R(1.7; lam=0.4)
R_N22_LAM04_13 = -80.263113097068376645     # R(-2.2; lam+=0.4, lam-=1.3)
R_3_LAM3_MU2_S05 = 8469464.7422097716265    # R(3; lam=3, mu=2, sigma=0.5)
LOG_DR_12_LAM07 = 1.5516282006777225277     # log dR/dz (1.2; lam=0.7)
LOG_DR_30_LAM2 = 910.65849897470502796      # log dR/dz (30; lam=2)
SQRT_2_OVER_PI = 0.79788456080286535588     # sqrt(2/pi)


def params(mu=0.0, sigma=1.0, lambda_pos=1.0, lambda_neg=None):
    """Keyword arguments of the tail transform; lambda_neg defaults to lambda_pos."""
    return dict(mu=mu, sigma=sigma, lambda_pos=lambda_pos,
                lambda_neg=lambda_pos if lambda_neg is None else lambda_neg)


def inverse(x, p):
    return tt.ttf_inverse_with_log_deriv(x, **p)[0]


def inverse_log_deriv(x, p):
    return tt.ttf_inverse_with_log_deriv(x, **p)[1]


class TestForward:
    def test_zero_maps_to_mu(self):
        for mu in (0.0, 2.0, -3.5):
            p = params(mu=mu, sigma=0.5, lambda_pos=2.0, lambda_neg=0.3)
            assert tt.ttf_forward(0.0, **p) == mu

    def test_odd_symmetry_when_tails_match(self):
        p = params(lambda_pos=0.7)
        assert abs(tt.ttf_forward(-1.7, **p) + tt.ttf_forward(1.7, **p)) < 1e-12

    def test_oracle_points(self):
        assert abs(tt.ttf_forward(1.0, **params()) - R_1_LAM1) < 1e-13
        p = params(lambda_pos=0.4)
        assert abs(tt.ttf_forward(1.7, **p) - R_17_LAM04) < 1e-13
        p = params(lambda_pos=0.4, lambda_neg=1.3)
        assert abs(tt.ttf_forward(-2.2, **p) - R_N22_LAM04_13) / abs(R_N22_LAM04_13) < 1e-13
        p = params(mu=2.0, sigma=0.5, lambda_pos=3.0)
        assert abs(tt.ttf_forward(3.0, **p) - R_3_LAM3_MU2_S05) / R_3_LAM3_MU2_S05 < 1e-13

    def test_monotone_increasing(self):
        z = np.linspace(-8, 8, 2001)
        for lam_p, lam_n in [(0.1, 0.1), (1.0, 3.0), (3.0, 0.5)]:
            x = tt.ttf_forward(z, **params(sigma=0.7, lambda_pos=lam_p, lambda_neg=lam_n))
            assert np.all(np.diff(x) > 0)

    def test_extreme_z_saturates_finite(self):
        x = tt.ttf_forward(np.array([50.0, -50.0]), **params(lambda_pos=3.0))
        assert np.all(np.isfinite(x))
        assert x[0] > 1e250 and x[1] < -1e250


class TestLogDeriv:
    def test_constants_are_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            assert tt._LOG_2_OVER_PI == float(mpmath.log(2 / mpmath.pi))
            assert tt._HALF_LOG_2_OVER_PI == float(mpmath.log(2 / mpmath.pi) / 2)

    def test_origin_value_no_lambda_dependence(self):
        for sigma in (1.0, 0.5, 3.0):
            for lam in (0.1, 1.0, 5.0):
                got = tt.ttf_log_deriv(0.0, **params(sigma=sigma, lambda_pos=lam))
                assert abs(got - np.log(sigma * SQRT_2_OVER_PI)) < 1e-10

    def test_oracle_points(self):
        assert abs(tt.ttf_log_deriv(1.2, **params(lambda_pos=0.7)) - LOG_DR_12_LAM07) < 1e-12
        got = tt.ttf_log_deriv(30.0, **params(lambda_pos=2.0))
        assert np.isfinite(got)
        assert abs(got - LOG_DR_30_LAM2) / LOG_DR_30_LAM2 < 1e-14

    def test_matches_finite_difference(self):
        p = params(sigma=1.3, lambda_pos=0.9, lambda_neg=1.8)
        for z in (-2.0, -0.3, 0.0, 1.2, 3.0):
            h = 1e-6 * max(1.0, abs(z))
            fd = (tt.ttf_forward(z + h, **p) - tt.ttf_forward(z - h, **p)) / (2 * h)
            got = tt.ttf_log_deriv(z, **p)
            assert abs(got - np.log(fd)) < 1e-6

    def test_c1_at_origin_one_sided(self):
        p = params(sigma=1.4, lambda_pos=2.5, lambda_neg=0.2)
        exact = 1.4 * SQRT_2_OVER_PI
        for side in (1.0, -1.0):
            h = side * 1e-6
            fd = (tt.ttf_forward(h, **p) - tt.ttf_forward(0.0, **p)) / h
            assert abs(fd - exact) / exact < 1e-4


class TestInverse:
    def test_mu_maps_to_zero(self):
        p = params(mu=1.5, sigma=2.0, lambda_pos=0.4, lambda_neg=1.1)
        assert inverse(1.5, p) == 0.0

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (2.0, 0.5)])
    def test_round_trip_z_grid(self, lam, mu, sigma):
        p = params(mu=mu, sigma=sigma, lambda_pos=lam)
        z = np.linspace(-8.0, 8.0, 641)
        back = inverse(tt.ttf_forward(z, **p), p)
        assert np.max(np.abs(back - z)) <= 1e-8

    def test_asymmetric_round_trip(self):
        p = params(mu=-0.7, sigma=1.9, lambda_pos=2.2, lambda_neg=0.15)
        z = np.linspace(-8.0, 8.0, 641)
        back = inverse(tt.ttf_forward(z, **p), p)
        assert np.max(np.abs(back - z)) <= 1e-8

    def test_branch_agreement_at_switch(self):
        # The asymptotic branch takes over once erfc(z/sqrt 2) would round
        # through 1e-6; at that switch point it must agree with the direct
        # erfc_inv formula (measured agreement ~4e-10, spec of 1e-4).
        direct = np.sqrt(2.0) * special.erfc_inv(1e-6)
        for lam in (0.5, 1.0, 2.0):
            # y^(-1/lam) = 1e-6  =>  y = 1e6^lam; x = (y-1)/lam
            x = (1e6 ** lam - 1.0) / lam
            p = params(lambda_pos=lam)
            above = inverse(x * (1 + 1e-9), p)
            below = inverse(x * (1 - 1e-9), p)
            assert abs(above - direct) < 1e-4
            assert abs(above - below) < 1e-6  # continuity across the switch

    def test_deep_tail_inverse_finite_and_monotone(self):
        zs = inverse(np.array([1e8, 1e12, 1e100, 1e300]), params())
        assert np.all(np.isfinite(zs))
        assert np.all(np.diff(zs) > 0)


class TestInverseLanes:
    """The inverse treats each lane on its own: the deep-tail Newton runs
    only on its lanes, and a lane gives the same bits in any batch."""

    @staticmethod
    def on_tape(x, lambda_pos, lambda_neg):
        tape = ad.Tape()
        xv = tape.param(x, "x")
        lp, ln = tape.param(lambda_pos, "lp"), tape.param(lambda_neg, "ln")
        z, ld = tt.ttf_inverse_with_log_deriv(xv, mu=0.3, sigma=1.7, lambda_pos=lp, lambda_neg=ln)
        assert tape.poisoned is None
        g = ad.backward((z + ld).sum())
        return z.value, ld.value, g["x"], g["lp"], g["ln"]

    @given(
        log10_x=st.lists(st.floats(-3.0, 300.0), min_size=1, max_size=12),
        signs=st.lists(st.booleans(), min_size=12, max_size=12),
        lambdas=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
    )
    def test_lane_alone_equals_lane_in_batch(self, log10_x, signs, lambdas):
        # a direct lane and a deep-tail lane on each side ride along always
        x = np.concatenate([
            np.where(signs[:len(log10_x)], 1.0, -1.0) * 10.0 ** np.array(log10_x),
            [0.5, -0.5, 1e300, -1e300],
        ])
        n = x.size
        lp, ln = np.full(n, lambdas[0]), np.full(n, lambdas[1])
        z, ld = tt.ttf_inverse_with_log_deriv(x, mu=0.3, sigma=1.7, lambda_pos=lp, lambda_neg=ln)
        batch = self.on_tape(x, lp, ln)
        for i in range(n):
            one = slice(i, i + 1)
            z1, ld1 = tt.ttf_inverse_with_log_deriv(
                x[one], mu=0.3, sigma=1.7, lambda_pos=lp[one], lambda_neg=ln[one])
            assert np.array_equal(z1, z[one]) and np.array_equal(ld1, ld[one])
            for got, want in zip(self.on_tape(x[one], lp[one], ln[one]), batch):
                assert np.array_equal(got, want[one]), (i, x[i])

    @pytest.mark.parametrize("tape", [False, True])
    def test_deep_tail_newton_runs_on_its_lanes(self, tape, monkeypatch):
        # three Newton steps, each with one log erfc, plus one more for the
        # tape's implicit step: at most 4 elements per deep-tail lane
        log_p = -np.concatenate([np.linspace(0.0, 13.0, 900), np.linspace(14.0, 700.0, 100)])
        stable = log_p < np.log(1e-6)
        lift = (lambda v: ad.Tape().param(v)) if tape else (lambda v: v)
        want = ad.value_of(tt._stable_inverse_branch(lift(log_p), stable))
        elements = []
        log_erfc = special.log_erfc

        def counting(w):
            elements.append(np.size(w))
            return log_erfc(w)

        monkeypatch.setattr(special, "log_erfc", counting)
        got = ad.value_of(tt._stable_inverse_branch(lift(log_p), stable))
        monkeypatch.undo()
        assert sum(elements) <= 4 * np.count_nonzero(stable)
        assert np.array_equal(got[stable], want[stable])


class TestInverseLogDeriv:
    def test_origin_reciprocal(self):
        got = inverse_log_deriv(0.5, params(mu=0.5, sigma=2.0))
        assert abs(got + np.log(2.0 * SQRT_2_OVER_PI)) < 1e-12

    def test_inverse_function_theorem(self):
        p = params(mu=0.2, sigma=1.1, lambda_pos=0.6, lambda_neg=2.4)
        for x in (-30.0, -1.0, 0.2, 4.0, 1e4):
            z, ld = tt.ttf_inverse_with_log_deriv(x, **p)
            assert abs(ld + tt.ttf_log_deriv(z, **p)) < 1e-8

    def test_matches_finite_difference_at_five(self):
        p = params(lambda_pos=0.8)
        h = 1e-6 * 5.0
        fd = (inverse(5.0 + h, p) - inverse(5.0 - h, p)) / (2 * h)
        got = inverse_log_deriv(5.0, p)
        assert abs(got - np.log(fd)) / abs(got) < 1e-6

    def test_huge_x_finite_matches_asymptotic_slope(self):
        # dz/dx ~ 1/(lam x sqrt(2 log x)) up to slowly varying terms; only
        # finiteness and the leading -log(x) behavior are pinned here.
        p = params()
        x = 1e8
        z, got = tt.ttf_inverse_with_log_deriv(x, **p)
        assert np.isfinite(got)
        # exact slope via the forward derivative at the preimage
        assert abs(got + tt.ttf_log_deriv(z, **p)) < 1e-8
        assert got < -np.log(x) / 2


class TestMarginalTtfLayer:
    """The flow layer that applies the transform with one (mu, sigma,
    lambda+, lambda-) row per dimension."""

    @staticmethod
    def _layer(mu, sigma, lam_p, lam_n):
        layer = flows.MarginalTtfLayer(len(mu), "tails")
        p = {
            "tails.mu": np.asarray(mu, dtype=float),
            "tails.sigma_raw": flows.softplus_inv(np.asarray(sigma, dtype=float)),
            "tails.lp_raw": flows.softplus_inv(np.asarray(lam_p, dtype=float)),
            "tails.ln_raw": flows.softplus_inv(np.asarray(lam_n, dtype=float)),
        }
        return layer, p

    def _three(self):
        return self._layer([0.1, -0.4, 0.0], [1.2, 0.8, 1.0],
                           [0.5, 2.0, 1.0], [1.5, 2.0, 0.3])

    def test_light_tail_convention_deviation_documented(self):
        # The lambda = 1/1000 convention is a light-tail limit, not a pointwise
        # identity: as lambda -> 0 the map tends to z -> -s log erfc(|z|/sqrt 2),
        # whose pushforward of a normal has exponential (light) tails.  The
        # measured deviations from the identity are frozen here.
        lam = tailest.LIGHT_TAIL_SHAPE
        assert lam == 1e-3
        layer, p = self._layer([0.0, 0.0], [1.0, 1.0], [lam, lam], [lam, lam])
        z = np.linspace(-3.0, 3.0, 301)
        x, _ = layer.forward(p, np.stack([z, z], axis=1))
        dev = np.abs(x[:, 0] - z)
        assert abs(np.max(dev) - 2.9321) < 1e-3          # at the interval edge
        body = np.abs(z) <= 1.0
        assert abs(np.max(dev[body]) - 0.14853) < 1e-4   # much tighter body

        # against the analytic small-lambda limit the layer is close everywhere
        limit = -np.sign(z) * np.log(special.erfc(np.abs(z) / np.sqrt(2.0)))
        assert np.max(np.abs(x[:, 0] - limit)) < 0.02

    def test_round_trip_random_rows(self):
        layer, p = self._three()
        z = np.random.default_rng(3).normal(size=(10, 3)) * 2.5
        x, ld_f = layer.forward(p, z)
        back, ld_i = layer.inverse(p, x)
        assert np.max(np.abs(back - z)) < 1e-8
        assert np.max(np.abs(ld_f + ld_i)) < 1e-8

    def test_log_det_equals_assembled_jacobian(self):
        layer, p = self._three()
        z0 = np.array([0.7, -1.1, 2.0])
        h = 1e-6
        jac = np.zeros((3, 3))
        for j in range(3):
            zp, zm = z0.copy(), z0.copy()
            zp[j] += h
            zm[j] -= h
            xp, _ = layer.forward(p, zp[None, :])
            xm, _ = layer.forward(p, zm[None, :])
            jac[:, j] = (xp[0] - xm[0]) / (2 * h)
        _, ld = layer.forward(p, z0[None, :])
        sign, logdet = np.linalg.slogdet(jac)
        assert sign > 0
        assert abs(ld[0] - logdet) < 1e-6
        # off-diagonal terms vanish: elementwise map
        assert np.max(np.abs(jac - np.diag(np.diag(jac)))) < 1e-8

    def test_batch_rows_match_single_rows(self):
        layer, p = self._three()
        zs = np.random.default_rng(11).normal(size=(5, 3))
        xb, ldb = layer.forward(p, zs)
        for i in range(5):
            xi, ldi = layer.forward(p, zs[i:i + 1])
            np.testing.assert_allclose(xb[i], xi[0], rtol=1e-14)
            assert abs(ldb[i] - ldi[0]) < 1e-12

    def test_dimension_mismatch_rejected(self):
        # the (3,) parameter rows do not broadcast against 4 columns
        layer, p = self._three()
        with pytest.raises(ValueError):
            layer.forward(p, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            layer.inverse(p, np.zeros((2, 4)))
