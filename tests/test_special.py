"""erfc family, the random stream, and the gamma draws' shape derivative.

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
            with pytest.raises(ValueError, match="log_erfc: non-finite"):
                special.log_erfc(bad)
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


class TestDlogErfc:
    def test_tail_against_mpmath(self):
        # Beyond the tail switch the derivative is -2z / (1 + corr), corr the
        # six-term asymptotic series: its truncation error is below the
        # first omitted term, 13!!/(2z^2)^7 (1.3e-17 at z = 26.5), and 1 + corr
        # and the division each round by at most half an ulp.  The oracle is
        # -2 / U(1/2, 1/2, z^2), since U(1/2, 1/2, z^2) = sqrt(pi) e^(z^2) erfc(z)
        # (mpmath's erfc itself fails above ~1e300).  Above ~1.3e154, where
        # z^2 overflows, the result is quiet and finite.
        mpmath = pytest.importorskip("mpmath")
        r = np.random.default_rng(26)
        z = np.concatenate([[26.5, 1e3, 1e5, 1e7, 1e8, 1e9, 1.3e154, 1e300],
                            np.exp(r.uniform(np.log(26.5), np.log(1e300), 200))])
        tol = np.finfo(float).eps + 135135.0 / (2.0 * 26.5**2) ** 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = special.dlog_erfc(z)
        with mpmath.workdps(40):
            for zi, gi in zip(z, got):
                ref = -2 / mpmath.hyperu(0.5, 0.5, mpmath.mpf(zi) ** 2)
                assert abs((gi - ref) / ref) <= tol, zi


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


class TestGammaDsampleDshape:
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
