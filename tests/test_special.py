"""erfc family, normal quantile, and sampling primitives.

High-precision reference values were frozen from 50-digit mpmath
evaluations of the defining integrals (adaptive quadrature oracle).
"""

import math
import warnings

import numpy as np
import pytest

from tailflow import special

# mpmath oracles
ERFC_INV_SQRT2 = 0.31731050786291410283
ERFC_2P5 = 0.00040695201744495893956
ERFC_INV_1EM10 = 4.5728249673894852787
PHI_1 = 0.84134474606854294859
LOG_ERFC = {10.0: -102.8798890248448885748,
            20.0: -403.569343334104234963,
            30.0: -903.9741171106438780796}


class TestErfc:
    def test_at_zero(self):
        assert special.erfc(0.0) == 1.0

    def test_reflection(self):
        z = 1.3
        assert special.erfc(-z) == pytest.approx(2.0 - special.erfc(z), abs=1e-15)

    def test_oracle_values(self):
        assert special.erfc(1 / math.sqrt(2)) == pytest.approx(ERFC_INV_SQRT2, rel=1e-14)
        assert special.erfc(2.5) == pytest.approx(ERFC_2P5, rel=1e-13)

    def test_monotone_decreasing(self):
        # Below z ~ -5.9 the true value 2 - eps rounds to exactly 2.0 (the
        # float64 spacing at 2 is 4.4e-16), so strictness is only
        # observable where the value is representably below 2.
        z = np.linspace(-8, 8, 2001)
        v = special.erfc(z)
        assert np.all(np.diff(v) <= 0)
        strict = v[z >= -5.0]
        assert np.all(np.diff(strict) < 0)

    def test_small_positive_in_far_tail(self):
        for z in (27.0, 29.0, 30.0):
            v = special.erfc(z)
            assert 0.0 < v < 1e-300

    def test_log_tail_matches_asymptotic(self):
        for z, ref in LOG_ERFC.items():
            asym = -z * z - math.log(z * math.sqrt(math.pi))
            got = special.log_erfc(z)
            assert got == pytest.approx(ref, rel=1e-12)
            assert abs(got - asym) < 0.01

    @pytest.mark.parametrize("z", [1e200, 1e308])
    def test_overflowing_square_is_quiet(self, z):
        # z * z overflows above ~1.3e154; the limits hold without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert special.log_erfc(z) == -np.inf
            assert special.erfc(z) == 5e-324
            np.testing.assert_array_equal(special.log_erfc(np.array([30.0, z])),
                                          [special.log_erfc(30.0), -np.inf])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                special.erfc(bad)
            buf = np.array([[0.5, bad]])
            with pytest.raises(ValueError, match="non-finite"):
                special.erfc(buf, out=buf)

    def test_out_in_place(self):
        # both branches, z itself as the output: the far lanes are read
        # before the near branch overwrites them
        z = np.array([[-3.0, 0.0, 1.5, 25.9], [26.0, 26.5, 29.0, 1e3]])
        want = special.erfc(z)
        got = special.erfc(z, out=z)
        assert got is z
        np.testing.assert_array_equal(z, want)
        for zi, wi in zip(want.ravel(), [special.erfc(v) for v in
                                         [-3.0, 0.0, 1.5, 25.9, 26.0, 26.5, 29.0, 1e3]]):
            assert zi == wi


class TestErfcInv:
    def test_identity_points(self):
        assert special.erfc_inv(1.0) == 0.0
        assert special.erfc_inv(special.erfc(2.5)) == pytest.approx(2.5, abs=1e-12)

    def test_deep_tail_oracle(self):
        assert special.erfc_inv(1e-10) == pytest.approx(ERFC_INV_1EM10, rel=1e-8)

    def test_round_trip_z_grid(self):
        # Composition erfc_inv(erfc(z)). For z < -4 the inner value is so
        # close to 2 that float64 spacing limits the recoverable accuracy;
        # the bound below is that conditioning limit plus the 1e-9 budget.
        # Below z ~ -5.9, erfc(z) rounds to exactly 2.0 and the composition
        # leaves erfc_inv's open domain entirely.
        z = np.linspace(-8, 8, 1601)
        fwd = special.erfc(z)
        keep = fwd < 2.0
        assert np.all(z[~keep] < -5.8)
        z = z[keep]
        back = np.array([special.erfc_inv(special.erfc(t)) for t in z])
        err = np.abs(back - z)
        ulp2 = np.spacing(2.0)
        cond = ulp2 * np.exp(z * z) * math.sqrt(math.pi) / 2
        limit = np.where(z >= -4, 1e-9, cond + 1e-9)
        assert np.all(err <= limit)

    def test_forward_round_trip_relative(self):
        for p in (5e-324, 1e-280, 1e-100, 1e-10, 1e-3, 0.5, 1.0, 1.5, 1.999):
            assert special.erfc(special.erfc_inv(p)) == pytest.approx(p, rel=1e-10)

    def test_domain(self):
        for bad in (0.0, -1.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                special.erfc_inv(bad)


class TestStdNormalQuantile:
    def test_median(self):
        assert special.std_normal_quantile(0.5) == 0.0

    def test_symmetry(self):
        p = 0.01
        a = special.std_normal_quantile(p)
        b = special.std_normal_quantile(1 - p)
        assert a == pytest.approx(-b, abs=1e-12)

    def test_oracle_point(self):
        assert special.std_normal_quantile(PHI_1) == pytest.approx(1.0, abs=1e-8)

    def test_deep_tails_finite_and_accurate(self):
        for p in (1e-300, 1e-200, 1e-50, 1e-10):
            z = special.std_normal_quantile(p)
            assert np.isfinite(z) and z < 0
            # Phi(z) = erfc(-z/sqrt(2))/2 must reproduce p
            back = 0.5 * special.erfc(-z / math.sqrt(2))
            assert back == pytest.approx(p, rel=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                special.std_normal_quantile(bad)


class TestRng:
    def test_equal_seeds_identical(self):
        a = special.Rng(123).normal(size=1000)
        b = special.Rng(123).normal(size=1000)
        assert np.array_equal(a, b)

    def test_child_streams_reproducible_and_distinct(self):
        r = special.Rng(7)
        c1 = r.child(1).uniform(size=100)
        c1_again = special.Rng(7).child(1).uniform(size=100)
        c2 = special.Rng(7).child(2).uniform(size=100)
        assert np.array_equal(c1, c1_again)
        assert not np.array_equal(c1, c2)


class TestSampleGamma:
    def test_mean(self):
        x = special.sample_gamma(3.0, special.Rng(0), size=1_000_000)
        assert np.mean(x) == pytest.approx(3.0, rel=0.01)

    def test_small_shape_support(self):
        x = special.sample_gamma(0.25, special.Rng(1), size=100_000)
        assert np.all(x > 0)

    def test_mean_derivative_wrt_shape(self):
        # d E[gamma(shape)] / d shape = 1; E[draw] = shape is linear so a
        # wide step carries no bias, and equal seeds correlate the draws.
        h = 0.1
        up = special.sample_gamma(3.0 + h, special.Rng(5), size=400_000)
        dn = special.sample_gamma(3.0 - h, special.Rng(5), size=400_000)
        d = (np.mean(up) - np.mean(dn)) / (2 * h)
        assert d == pytest.approx(1.0, abs=0.05)

    def test_implicit_derivative_against_quantile_shift(self):
        # Definition: dz/dshape at a fixed CDF level. scipy's incomplete
        # gamma inverse provides that level shift independently.
        from scipy.special import gammainc, gammaincinv

        alpha, h = 2.0, 1e-5
        z = np.array([0.3, 1.0, 2.5, 6.0])
        u = gammainc(alpha, z)
        ref = (gammaincinv(alpha + h, u) - gammaincinv(alpha - h, u)) / (2 * h)
        got = special.gamma_dsample_dshape(alpha, z)
        assert np.allclose(got, ref, rtol=1e-4)

    def test_implicit_derivative_against_mpmath(self):
        # Live oracle over random (shape, u): a third each in the bulk, the
        # lower tail down to u = 1e-6 and the upper tail up to 1 - 1e-8,
        # where differencing P itself lost up to 3 digits.
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import gammaincinv

        r = np.random.default_rng(20)
        n = 240
        shapes = np.exp(r.uniform(np.log(0.4), np.log(15.0), n))
        region = np.arange(n) % 3
        us = np.select(
            [region == 0, region == 1],
            [r.uniform(0.01, 0.99, n), 10.0 ** r.uniform(-6, -2, n)],
            1.0 - 10.0 ** r.uniform(-8, -2, n),
        )
        for a, u in zip(shapes, us):
            z = float(gammaincinv(a, u))
            with mpmath.workdps(30):
                # dz/da = -dP/da / pdf = dQ/da / pdf at the same float z
                dq = mpmath.diff(
                    lambda s: mpmath.gammainc(s, z, mpmath.inf, regularized=True), a
                )
                log_pdf = (a - 1) * mpmath.log(z) - z - mpmath.loggamma(a)
                ref = float(dq / mpmath.exp(log_pdf))
            got = special.gamma_dsample_dshape(a, z)
            assert got == pytest.approx(ref, rel=1e-8), (a, u)

    def test_domain(self):
        with pytest.raises(ValueError):
            special.sample_gamma(0.0, special.Rng(0))
        with pytest.raises(ValueError):
            special.sample_gamma(-1.0, special.Rng(0))


class TestSampleStudentT:
    def test_large_nu_is_nearly_gaussian(self):
        x = special.sample_student_t(1e6, special.Rng(2), size=100_000)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_moderate_nu_variance(self):
        x = special.sample_student_t(5.0, special.Rng(3), size=1_000_000)
        assert np.var(x) == pytest.approx(5.0 / 3.0, rel=0.03)

    def test_clamp_keeps_output_finite(self):
        # Force the clamp by making the clamp threshold enormous.
        x = special.sample_student_t(0.3, special.Rng(4), eps=1e3, size=1000)
        assert np.all(np.isfinite(x))

    def test_domain(self):
        with pytest.raises(ValueError):
            special.sample_student_t(0.0, special.Rng(0))
