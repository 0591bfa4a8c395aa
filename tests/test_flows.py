"""Flow layer tests: autoregressive masking, spline algebra, invertibility,
log-det consistency, base densities, architecture assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailflow import autodiff as ad
from tailflow import flows, special
from tailflow import tailtransform as tt

LOG_2PI = 1.8378770664093454836


def perturb(model, scale=0.3, seed=0):
    """Randomize all parameters so layers are far from their identity init."""
    r = np.random.default_rng(seed)
    for k, v in model.params.items():
        model.params[k] = v + scale * r.normal(size=v.shape)
    return model


def flow_inverse(x, model):
    cur, acc = x, 0.0
    for layer in reversed(model.layers):
        cur, ld = layer.inverse(model.params, cur)
        acc = ld + acc
    return cur, acc


class TestMaskedConditioner:
    def _cond_with_params(self, d=5, n_out=3, seed=1):
        cond = flows.MaskedConditioner(d, n_out, "c")
        params = cond.init_params(special.Rng(seed))
        r = np.random.default_rng(seed)
        for k in params:
            params[k] = params[k] + 0.4 * r.normal(size=params[k].shape)
        return cond, params

    def test_autoregressive_property_all_dims(self):
        d = 5
        cond, params = self._cond_with_params(d=d)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, d))
        base = cond.forward(params, x)
        for j in range(d):
            xp = x.copy()
            xp[:, j] += 1.3
            out = cond.forward(params, xp)
            for i in range(d):
                same = np.array_equal(
                    cond.dim_block(out, i), cond.dim_block(base, i)
                )
                if i <= j:
                    assert same, f"block {i} leaked input {j}"

    def test_first_dim_sees_only_biases(self):
        cond, params = self._cond_with_params(d=4)
        rng = np.random.default_rng(2)
        a = cond.forward(params, rng.normal(size=(3, 4)))
        b = cond.forward(params, rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(cond.dim_block(a, 0), cond.dim_block(b, 0))

    def test_zero_weights_give_bias_output(self):
        d, n_out = 3, 2
        cond = flows.MaskedConditioner(d, n_out, "c")
        params = cond.init_params(special.Rng(0))  # w3 starts at zero
        bias = np.arange(d * n_out, dtype=float)
        params["c.b3"] = bias
        out = cond.forward(params, np.random.default_rng(1).normal(size=(6, d)))
        np.testing.assert_array_equal(out, np.tile(bias, (6, 1)))

    def test_weight_gradients_match_finite_differences(self):
        d = 3
        cond, params = self._cond_with_params(d=d, n_out=2, seed=5)
        x = np.random.default_rng(7).normal(size=(4, d))
        w = np.linspace(0.5, 1.5, 4 * d * 2).reshape(4, d * 2)

        def loss_at(pvals):
            return float(np.sum(cond.forward(pvals, x) * w))

        tape = ad.Tape()
        tp = {k: tape.param(v, k) for k, v in params.items()}
        out = cond.forward(tp, x)
        grads = ad.backward((out * w).sum())

        rng = np.random.default_rng(3)
        for key in params:
            flat = params[key].reshape(-1)
            picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in picks:
                h = 1e-5 * max(1.0, abs(flat[i]))
                pp = {k: v.copy() for k, v in params.items()}
                pm = {k: v.copy() for k, v in params.items()}
                pp[key].reshape(-1)[i] += h
                pm[key].reshape(-1)[i] -= h
                fd = (loss_at(pp) - loss_at(pm)) / (2 * h)
                g = grads[key].reshape(-1)[i]
                assert abs(g - fd) / max(1.0, abs(g)) < 1e-4


def spline_eval(x, knots, bound, inverse):
    """The spline at each entry of the (m,) x under the knot-major (cumw,
    cumh, raw slopes) that ``_locate_bin`` takes, by the two halves the
    layers run."""
    return flows._spline_arith(x, *flows._locate_bin(x, *knots, bound, inverse), inverse)


def tiled_knots(widths, heights, derivs, n, bound=2.5):
    """One explicit knot set, as the cumulative relative sizes and raw inner
    slopes that give it, tiled to n knot-major columns for ``spline_eval``.
    The end slopes are pinned to 1, so derivs[0] and derivs[-1] are 1."""
    cols = (np.cumsum(widths) / (2.0 * bound), np.cumsum(heights) / (2.0 * bound),
            flows.softplus_inv(np.asarray(derivs[1:-1]) - flows._MIN_DERIVATIVE))
    return tuple(np.tile(v[:, None], (1, n)) for v in cols)


class TestSplineKnots:
    """The spline under explicit knot columns, on the path the layers take."""

    W = [0.5, 2.0, 1.0, 0.5, 1.0]
    H = [1.0, 1.0, 0.5, 1.5, 1.0]
    D = [1.0, 0.3, 2.0, 0.7, 1.1, 1.0]

    def spline(self, x, inverse=False, knots=None):
        x = np.asarray(x, dtype=float)
        w, h, dv = knots or (self.W, self.H, self.D)
        return spline_eval(x, tiled_knots(w, h, dv, x.size), 2.5, inverse)

    def test_uniform_unit_is_identity(self):
        x = np.linspace(-2.4, 2.4, 49)
        y, ld = self.spline(x, knots=([1.0] * 5, [1.0] * 5, [1.0] * 6))
        # The forward is written relative to the identity, so it is exact here.
        assert np.array_equal(y, x)
        assert np.all(ld == 0.0)

    def test_outside_box_identity_exact(self):
        x = np.array([3.0, -4.2, 2.5001, 100.0])
        y, ld = self.spline(x)
        assert np.array_equal(y, x)
        assert np.all(ld == 0.0)
        y2, ld2 = self.spline(x, inverse=True)
        assert np.array_equal(y2, x)
        assert np.all(ld2 == 0.0)

    def test_round_trip_and_monotone(self):
        x = np.linspace(-2.5, 2.5, 201)
        y, ld = self.spline(x)
        assert np.all(np.diff(y) > 0)
        back, ild = self.spline(y, inverse=True)
        np.testing.assert_allclose(back, x, atol=1e-8)
        np.testing.assert_allclose(ld + ild, 0.0, atol=1e-8)

    def test_log_det_matches_finite_differences(self):
        x = np.linspace(-2.3, 2.3, 31)
        h = 1e-6
        fd = (self.spline(x + h)[0] - self.spline(x - h)[0]) / (2 * h)
        _, ld = self.spline(x)
        np.testing.assert_allclose(ld, np.log(fd), atol=1e-5)

    @pytest.mark.parametrize(
        "w,h,dv",
        [
            (0.0, 0.0, None),     # K-1 derivative rows still give K+1 slopes
            (-1e3, 0.0, 0.0),     # very negative width logits
            (0.0, 0.0, -1e3),     # very negative slope logits
            (1e3, -1e3, 1e3),     # one bin takes all the mass
        ],
    )
    def test_raw_values_make_valid_knots(self, w, h, dv):
        # The layers take their knots from raw conditioner values, so no raw
        # values may make a knot set that the spline cannot use: K bins of
        # positive width and height that fill the box exactly, K+1 positive
        # slopes, the end ones 1.  Each column is located at the middle of
        # each of its K bins, so every knot is gathered.
        k, bound = 5, 2.5
        r = np.random.default_rng(0)
        raw = r.normal(size=(64, 3 * k - 1)).T  # knot-major, one column per entry
        raw[0, ::2] += w
        raw[k, ::2] += h
        if dv is not None:
            raw[2 * k, ::2] += dv
        raw = np.tile(raw, (1, k))  # column b * 64 + j: entry j in bin b
        cumw = flows._cum_sizes(raw[:k], flows._MIN_BIN_WIDTH)
        cumh = flows._cum_sizes(raw[k:2 * k], flows._MIN_BIN_HEIGHT)
        ends = np.full((1, raw.shape[1]), bound)
        knots_x, knots_y = (np.concatenate([-ends, c[:k - 1] * (2.0 * bound) - bound, ends])
                            for c in (cumw, cumh))
        for knots in (knots_x, knots_y):
            assert np.all(np.diff(knots, axis=0) > 0.0)
        b = np.repeat(np.arange(k), 64)
        cols = np.arange(raw.shape[1])
        x = 0.5 * (knots_x[b, cols] + knots_x[b + 1, cols])
        _, _, xs, ys, ds = flows._locate_bin(x, cumw, cumh, raw[2 * k:], bound, inverse=False)
        for got, knots in ((xs, knots_x), (ys, knots_y)):
            assert np.array_equal(got, np.stack([knots[b, cols], knots[b + 1, cols]]))
        assert np.all(ds > 0.0)
        assert np.all(ds[0, b == 0] == 1.0) and np.all(ds[1, b == k - 1] == 1.0)


class TestKnotMajorReductions:
    """The knot-major softmax (with its column max) and the bin count reduce
    along axis 0; each column must equal a plain per-entry computation on
    that entry's knots alone, bit for bit, on any values, ties, infinities
    and NaN included."""

    @staticmethod
    def awkward_cols(k, m, seed):
        r = np.random.default_rng(seed)
        v = np.round(r.normal(size=(k, m)), 1)  # rounding makes ties
        special_values = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
        hit = r.random((k, m)) < 0.15
        v[hit] = r.choice(special_values, size=hit.sum())
        return v

    def test_softmax_matches_per_entry_reference(self):
        for k in (1, 2, 5, 9):
            v = self.awkward_cols(k, 2000, seed=k)
            want = np.empty_like(v)
            with np.errstate(invalid="ignore"):
                got = flows._softmax_cols(v)
                for j in range(v.shape[1]):
                    e = np.exp(v[:, j] - np.max(v[:, j]))
                    total = e[0]
                    for term in e[1:]:  # the knots in order, one at a time
                        total = total + term
                    want[:, j] = e / total
            assert np.array_equal(got, want, equal_nan=True), k

    def test_bin_index_matches_per_entry_count(self):
        # The x knots are 1..K-1 in every column, and the first is pinned to
        # -bound, so the left x knot gives the bin index.  The searched y
        # knots are the awkward values, scaled to the box as the layers do.
        # (``_locate_bin`` needs K >= 2: one bin has no inner knot to search.)
        for k in (2, 5, 9):
            m, bound = 2000, 4.0
            cumh = self.awkward_cols(k, m, seed=10 + k)
            cumw = np.tile((np.arange(1.0, k + 1) + bound)[:, None] / (2.0 * bound), (1, m))
            knots_y = cumh[:k - 1] * (2.0 * bound) - bound
            r = np.random.default_rng(20 + k)
            x = np.where(r.random(m) < 0.5, knots_y[0], r.uniform(-5.0, 5.0, m))
            with np.errstate(invalid="ignore"):
                _, x_safe, xs, *_ = flows._locate_bin(x, cumw, cumh, np.zeros((k - 1, m)), bound,
                                                      inverse=True)
                want = [sum(x_safe[j] >= knots_y[i, j] for i in range(k - 1)) for j in range(m)]
            assert np.array_equal(np.where(xs[0] == -bound, 0.0, xs[0]), want), k


class TestRqsArLayer:
    def test_identity_at_init(self):
        # init_params promises the exact identity: bit for bit, in both
        # directions, on numpy and tape.
        for d in (1, 3, 20):
            layer = flows.RqsArLayer(d, "rqs")
            params = layer.init_params(special.Rng(0))
            z = np.random.default_rng(1).normal(size=(20, d)) * 2.0
            for direction in (layer.forward, layer.inverse):
                x, ld = direction(params, z)
                assert np.array_equal(x, z), (d, direction.__name__)
                assert np.all(np.asarray(ld) == 0.0), (d, direction.__name__)
                tape = ad.Tape()
                tp = {k: tape.param(v, k) for k, v in params.items()}
                xt, ldt = direction(tp, z)
                assert np.array_equal(ad.value_of(xt), z), (d, direction.__name__)
                assert np.all(ad.value_of(ldt) == 0.0), (d, direction.__name__)

    def _perturbed(self, d=3, seed=4):
        layer = flows.RqsArLayer(d, "rqs")
        params = layer.init_params(special.Rng(seed))
        r = np.random.default_rng(seed)
        for k in params:
            params[k] = params[k] + 0.5 * r.normal(size=params[k].shape)
        return layer, params

    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_inverse_matches_per_dimension_reference(self, d):
        # The one-pass inverse against the spline run dimension by dimension
        # on each dimension's block of the conditioner output.
        layer, params = self._perturbed(d=d, seed=5)
        x = np.random.default_rng(d).normal(size=(40, d)) * 1.5
        out = layer.cond.forward(params, x)
        z_ref, ld_ref = np.empty_like(x), 0.0
        for i in range(d):
            block = layer.cond.dim_block(out, i).T  # knot-major
            z_ref[:, i], ld_i = layer._spline(block, x[:, i], inverse=True)
            ld_ref = ld_ref + ld_i

        tape = ad.Tape()
        tp = {key: tape.param(v, key) for key, v in params.items()}
        for z, ld in (layer.inverse(params, x), layer.inverse(tp, x)):
            np.testing.assert_array_equal(ad.value_of(z), z_ref)
            np.testing.assert_allclose(ad.value_of(ld), ld_ref, rtol=0.0, atol=1e-12)

    @given(d=st.sampled_from([1, 3, 20]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.05, 2.0), n=st.integers(1, 40))
    def test_tape_inverse_is_per_dimension_reference(self, d, seed, scale, n):
        # Over random conditioner params, the one-pass inverse on the tape
        # gives each dimension's spline bit for bit, and the log-det is the
        # same row sum of the per-dimension log-dets.
        layer = flows.RqsArLayer(d, "rqs")
        r = np.random.default_rng(seed)
        params = {key: v + scale * r.normal(size=v.shape)
                  for key, v in layer.init_params(special.Rng(seed)).items()}
        x = r.normal(size=(n, d)) * 2.0
        out = layer.cond.forward(params, x)
        z_ref, ld_cols = np.empty_like(x), np.empty_like(x)
        for i in range(d):
            block = layer.cond.dim_block(out, i).T
            z_ref[:, i], ld_cols[:, i] = layer._spline(block, x[:, i], inverse=True)
        tape = ad.Tape()
        z, ld = layer.inverse({key: tape.param(v, key) for key, v in params.items()}, x)
        assert np.array_equal(z.value, z_ref)
        assert np.array_equal(ld.value, ld_cols.sum(axis=1))

    def test_outside_box_identity_with_random_params(self):
        layer, params = self._perturbed()
        x = np.array([[3.0, -0.5, 7.7], [2.6, -2.6, 0.1]])
        z, _ = layer.inverse(params, x)
        z = np.asarray(z)
        outside = np.abs(x) > 2.5
        assert np.array_equal(z[outside], x[outside])

    def test_outside_box_zero_log_det_dim(self):
        # d=1: the conditioner has no inputs, so knots are bias-driven and the
        # single dimension's log-det must vanish exactly outside the box.
        layer, params = self._perturbed(d=1)
        _, ld = layer.inverse(params, np.array([[3.0], [-2.51], [40.0]]))
        assert np.all(np.asarray(ld) == 0.0)
        _, ld_in = layer.inverse(params, np.array([[0.3]]))
        assert np.all(np.asarray(ld_in) != 0.0)

    def test_round_trip(self):
        layer, params = self._perturbed()
        z = np.random.default_rng(8).normal(size=(50, 3))
        x, ld_f = layer.forward(params, z)
        back, ld_i = layer.inverse(params, x)
        np.testing.assert_allclose(back, z, atol=1e-8)
        np.testing.assert_allclose(np.asarray(ld_f) + np.asarray(ld_i), 0.0, atol=1e-8)

    def test_jacobian_triangular_and_log_det(self):
        layer, params = self._perturbed()
        x0 = np.array([0.4, -1.2, 1.9])
        h = 1e-6
        jac = np.zeros((3, 3))
        for j in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            zp, _ = layer.inverse(params, xp[None, :])
            zm, _ = layer.inverse(params, xm[None, :])
            jac[:, j] = (np.asarray(zp)[0] - np.asarray(zm)[0]) / (2 * h)
        assert np.max(np.abs(np.triu(jac, 1))) < 1e-12
        _, ld = layer.inverse(params, x0[None, :])
        assert abs(float(np.asarray(ld)[0]) - np.sum(np.log(np.diag(jac)))) < 1e-5


AR_LAYERS = [flows.RqsArLayer, flows.AffineArLayer]


class TestSequentialForward:
    """Both autoregressive layers run their forward through one column loop
    (``MaskedConditioner.sequential``), over random parameters and d in
    {1, 3, 20}.

    The parameters are the initial ones plus ``scale`` times standard
    normal noise.  The affine map grows exponentially along the dimensions
    (its log-scale is not bounded in x_<i): at d=20 a scale of 0.3
    overflowed x to inf in 8 of 40 seeds, and the finite ones reached
    |x| ~ 1e164, where x - shift cancels every digit of z.  Up to 0.2 |x|
    stayed below ~160, and both round trips within 1e-12."""

    @staticmethod
    def _random_layer(cls, d, seed, scale):
        layer = cls(d, "ar")
        r = np.random.default_rng(seed)
        params = {k: v + scale * r.normal(size=v.shape)
                  for k, v in layer.init_params(special.Rng(seed)).items()}
        return layer, params, r

    @pytest.mark.parametrize("cls", AR_LAYERS, ids=lambda c: c.__name__)
    @given(d=st.sampled_from([1, 3, 20]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.05, 2.0), n=st.integers(1, 30))
    def test_numpy_forward_is_tape_forward(self, cls, d, seed, scale, n):
        # The spline's numpy forward copies each knot block to C order and
        # the tape's stays a strided view; at bins = 5 both give the same
        # bits.  They agree also where the affine map overflows to inf, and
        # an inf makes the later conditioners NaN (inf * 0 in a masked matmul).
        layer, params, r = self._random_layer(cls, d, seed, scale)
        z = r.normal(size=(n, d)) * 1.5
        tape = ad.Tape()
        with np.errstate(over="ignore", invalid="ignore"):
            x, ld = layer.forward(params, z)
            xt, ldt = layer.forward({k: tape.param(v, k) for k, v in params.items()}, z)
        assert x.tobytes() == xt.value.tobytes()
        assert np.asarray(ld).tobytes() == ldt.value.tobytes()

    @pytest.mark.parametrize("cls", AR_LAYERS, ids=lambda c: c.__name__)
    @given(d=st.sampled_from([1, 3, 20]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.01, 0.2), n=st.integers(1, 30))
    def test_inverse_undoes_forward(self, cls, d, seed, scale, n):
        layer, params, r = self._random_layer(cls, d, seed, scale)
        z = r.normal(size=(n, d)) * 1.5
        x, ld_f = layer.forward(params, z)
        back, ld_i = layer.inverse(params, x)
        np.testing.assert_allclose(back, z, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(ld_f + ld_i, 0.0, atol=1e-10)


class TestAffineArLayer:
    def test_identity_at_init(self):
        layer = flows.AffineArLayer(4, "affine")
        params = layer.init_params(special.Rng(0))
        z = np.random.default_rng(2).normal(size=(10, 4)) * 3
        x, ld = layer.forward(params, z)
        np.testing.assert_array_equal(np.asarray(x), z)
        np.testing.assert_allclose(np.asarray(ld), 0.0)

    def _perturbed(self, d, seed=9):
        layer = flows.AffineArLayer(d, "affine")
        params = layer.init_params(special.Rng(seed))
        r = np.random.default_rng(seed)
        for k in params:
            params[k] = params[k] + 0.4 * r.normal(size=params[k].shape)
        return layer, params

    def test_round_trip_d10(self):
        layer, params = self._perturbed(10)
        z = np.random.default_rng(3).normal(size=(30, 10))
        x, ld_f = layer.forward(params, z)
        back, ld_i = layer.inverse(params, x)
        np.testing.assert_allclose(back, z, atol=1e-9)
        np.testing.assert_allclose(np.asarray(ld_f) + np.asarray(ld_i), 0.0, atol=1e-9)

    def test_log_det_matches_numerical_jacobian(self):
        layer, params = self._perturbed(3)
        x0 = np.array([0.3, -0.8, 1.4])
        h = 1e-6
        jac = np.zeros((3, 3))
        for j in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            zp, _ = layer.inverse(params, xp[None, :])
            zm, _ = layer.inverse(params, xm[None, :])
            jac[:, j] = (np.asarray(zp)[0] - np.asarray(zm)[0]) / (2 * h)
        _, ld = layer.inverse(params, x0[None, :])
        sign, logdet = np.linalg.slogdet(jac)
        assert sign > 0
        assert abs(float(np.asarray(ld)[0]) - logdet) < 1e-7
        assert np.max(np.abs(np.triu(jac, 1))) < 1e-12

    def test_constant_conditioner_pushforward_moments(self):
        # with zero conditioner weights: x = b + exp(s) z exactly
        d = 3
        layer = flows.AffineArLayer(d, "affine")
        params = layer.init_params(special.Rng(0))
        b = np.array([1.0, -2.0, 0.5])
        s = np.array([0.2, -0.3, 0.0])
        params["affine.cond.b3"] = np.concatenate([b, s])
        n = 40_000
        z = special.Rng(5).normal((n, d))
        x, _ = layer.forward(params, z)
        x = np.asarray(x)
        se = np.exp(s) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - b) < 5 * se)
        assert np.all(np.abs(x.std(axis=0) - np.exp(s)) < 0.02)


class TestBases:
    def test_std_normal_origin(self):
        base = flows.StdNormalBase(2)
        lp = base.log_prob({}, np.zeros((1, 2)))
        assert float(np.asarray(lp)[0]) == -LOG_2PI

    def test_log_2pi_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):  # at 53 bits mpmath also rounds 2 pi first
            assert flows._LOG_2PI == float(mpmath.log(2 * mpmath.pi))

    def test_student_t_cauchy_at_zero(self):
        base = flows.StudentTBase(3)
        params = {"base.nu_raw": np.full(3, flows.softplus_inv(1.0))}
        lp = base.log_prob(params, np.zeros((1, 3)))
        assert abs(float(np.asarray(lp)[0]) - 3 * np.log(1.0 / np.pi)) < 1e-12

    def test_student_t_matches_scipy(self):
        from scipy import stats

        base = flows.StudentTBase(2)
        params = {"base.nu_raw": np.full(2, flows.softplus_inv(4.0))}
        z = np.array([[0.3, -1.7], [2.0, 0.0]])
        lp = np.asarray(base.log_prob(params, z))
        want = stats.t.logpdf(z, df=4.0).sum(axis=1)
        np.testing.assert_allclose(lp, want, atol=1e-10)

    def test_student_t_sample_moments(self):
        # nu starts at 30
        base = flows.StudentTBase(1)
        params = base.init_params(special.Rng(0))
        draws = base.sample(params, special.Rng(11), 200_000)[:, 0]
        assert abs(np.var(draws) - 30.0 / 28.0) < 0.03

    def test_mixture_matches_brute_force(self):
        base = flows.GaussianMixtureBase(3)
        params = base.init_params(special.Rng(2))
        r = np.random.default_rng(0)
        params["base.logits"] = r.normal(size=5)
        params["base.logstd"] = 0.3 * r.normal(size=(3, 5))
        z = r.normal(size=(20, 3)) * 2

        logits = params["base.logits"]
        logw = logits - np.log(np.sum(np.exp(logits)))
        means, logstd = params["base.means"], params["base.logstd"]
        want = np.zeros(20)
        for i in range(20):
            comp = np.zeros(5)
            for k in range(5):
                var = np.exp(2 * logstd[:, k])
                comp[k] = (
                    logw[k]
                    - 0.5 * np.sum((z[i] - means[:, k]) ** 2 / var)
                    - 0.5 * np.sum(2 * logstd[:, k])
                    - 1.5 * LOG_2PI
                )
            m = comp.max()
            want[i] = m + np.log(np.sum(np.exp(comp - m)))
        got = np.asarray(base.log_prob(params, z))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_gen_normal_init_is_standard_normal(self):
        base = flows.GenNormalBase(2)
        params = base.init_params(special.Rng(0))
        z = np.random.default_rng(1).normal(size=(15, 2)) * 2
        got = np.asarray(base.log_prob(params, z))
        want = -0.5 * np.sum(z * z, axis=1) - LOG_2PI
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gen_normal_sample_moments(self):
        base = flows.GenNormalBase(1)
        params = base.init_params(special.Rng(0))
        draws = base.sample(params, special.Rng(3), 100_000)[:, 0]
        assert abs(np.mean(draws)) < 0.02
        assert abs(np.std(draws) - 1.0) < 0.02

    @pytest.mark.parametrize("nu", [0.8, 1.5, 2.0, 3.0, 4.0, 30.0])
    def test_frozen_student_t_draws_match_tape_sampler(self, nu):
        # a frozen nu stays an array on a tape, so the base draws plain numpy
        # and adds no node; the draws equal the differentiable sampler's bit
        # for bit, so freezing nu leaves the samples unchanged
        model = flows.build_architecture("mTAF", 3, seed=0)
        model.params["base.nu_raw"] = np.full(3, flows.softplus_inv(nu))
        tape = ad.Tape()
        tp = model.tape_params(tape)
        before = len(tape.ops)
        got = model.base.sample(tp, special.Rng(5), 200)
        assert len(tape.ops) == before
        nu_raw = ad.Tape().param(model.params["base.nu_raw"], "base.nu_raw")
        want = model.base.sample({"base.nu_raw": nu_raw}, special.Rng(5), 200)
        np.testing.assert_array_equal(got, want.value)

    @pytest.mark.parametrize("name", ["mTAF", "gTAF", "TTF_tBase"])
    @pytest.mark.parametrize("nu", [0.7, 1.5, 5.0, 30.0])
    def test_numpy_draws_equal_tape_draws(self, name, nu):
        # one sampler for both paths: the numpy base draws what the tape
        # draws from the same Rng, with nu frozen (mTAF) or trainable
        model = flows.build_architecture(name, 3, seed=0)
        model.params["base.nu_raw"] = np.full(3, flows.softplus_inv(nu))
        tape = ad.Tape()
        on_tape = model.base.sample(model.tape_params(tape), special.Rng(5), 200)
        draws = model.base.sample(model.params, special.Rng(5), 200)
        np.testing.assert_array_equal(draws, ad.value_of(on_tape))

    def test_trainable_nu_gradient_flows(self):
        base = flows.StudentTBase(2)
        params = {"base.nu_raw": np.full(2, flows.softplus_inv(5.0))}
        tape = ad.Tape()
        tp = {k: tape.param(v, k) for k, v in params.items()}
        draws = base.sample(tp, special.Rng(1), 50)
        grads = ad.backward((draws * draws).sum())
        assert np.all(np.isfinite(grads["base.nu_raw"]))
        assert np.any(grads["base.nu_raw"] != 0.0)


ALL_ARCHS = list(flows.ARCHITECTURES)


class TestFlowModel:
    def test_architectures_tuple(self):
        assert set(ALL_ARCHS) == {
            "normal", "m_normal", "g_normal", "mTAF", "gTAF",
            "TTF", "TTFfix", "TTF_tBase",
        }

    def test_identity_init_log_prob_equals_base(self):
        model = flows.build_architecture("normal", 4, seed=0)
        x = np.random.default_rng(0).normal(size=(10, 4))
        got = np.asarray(flows.flow_log_prob(x, model))
        want = np.asarray(model.base.log_prob(model.params, x))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("name", ALL_ARCHS)
    @pytest.mark.parametrize("d", [2, 5])
    def test_bijectivity(self, name, d):
        model = perturb(flows.build_architecture(name, d, seed=1), seed=2)
        z = np.random.default_rng(3).normal(size=(100, d))
        x, ld_f = flows.flow_forward(z, model)
        back, ld_i = flow_inverse(np.asarray(x), model)
        assert np.max(np.abs(np.asarray(back) - z)) <= 1e-6
        np.testing.assert_allclose(
            np.asarray(ld_f) + np.asarray(ld_i), 0.0, atol=1e-8
        )

    @pytest.mark.parametrize("name", ALL_ARCHS)
    def test_bijectivity_d50(self, name):
        # scale kept small: at d=50 the sequential conditioner amplifies noise
        # and large perturbations push the tail map into saturation
        model = perturb(flows.build_architecture(name, 50, seed=1), scale=0.1, seed=4)
        z = np.random.default_rng(5).normal(size=(20, 50))
        x, _ = flows.flow_forward(z, model)
        back, _ = flow_inverse(np.asarray(x), model)
        assert np.max(np.abs(np.asarray(back) - z)) <= 1e-6

    def test_full_flow_triangular_jacobian(self):
        d = 5
        model = perturb(flows.build_architecture("TTF", d, seed=2), seed=6)
        x0 = np.random.default_rng(7).normal(size=d)
        h = 1e-6
        jac = np.zeros((d, d))
        for j in range(d):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            zp, _ = flow_inverse(xp[None, :], model)
            zm, _ = flow_inverse(xm[None, :], model)
            jac[:, j] = (np.asarray(zp)[0] - np.asarray(zm)[0]) / (2 * h)
        assert np.max(np.abs(np.triu(jac, 1))) < 1e-12

    @pytest.mark.parametrize("name", ALL_ARCHS)
    @pytest.mark.parametrize("d", [1, 3])
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.5))
    def test_log_det_matches_central_difference_jacobian(self, name, d, seed, scale):
        # the flow's total inverse log-det at four t(3) points against
        # log|det| of the central-difference Jacobian of x -> z, all 2d + 1
        # evaluations of each point in one inverse pass
        model = perturb(flows.build_architecture(name, d, seed=1), scale=scale, seed=seed)
        x = np.random.default_rng(seed).standard_t(3.0, size=(4, d))
        # (4, d): the step of each coordinate, short, as an RQS knot within
        # a step of x leaves a first-order error
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        steps = np.eye(d)[:, None, :] * h  # (d, 4, d): step j on coordinate j
        z, ld = flow_inverse(np.concatenate([x, (x + steps).reshape(-1, d),
                                             (x - steps).reshape(-1, d)]), model)
        zp, zm = np.split(z[4:], 2)
        jac = (zp - zm).reshape(d, 4, d) / (2.0 * h.T[:, :, None])  # [j, row, i] = dz_i/dx_j
        _, logdet = np.linalg.slogdet(jac.transpose(1, 0, 2))
        # The Jacobian is triangular, so log|det| sums log|dz_i/dx_i|; where
        # that derivative is tiny, the rounding of z_i dominates its
        # difference quotient, and the bound allows for it.
        diag = np.abs(jac[np.arange(d), :, np.arange(d)].T)
        rounding = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(z[:4])) / (h * diag)
        assert np.all(np.abs(ld[:4] - logdet) <= 1e-5 + rounding.sum(axis=1))

    @pytest.mark.parametrize("name", ALL_ARCHS)
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.5))
    def test_d1_density_integrates_to_one(self, name, seed, scale):
        # x = sinh(s) on a uniform s-grid reaches |x| ~ 3e34, beyond which a
        # tail as heavy as a Cauchy's holds less than 1e-34 of mass; the
        # rectangle rule in s weighs each node by dx/ds = cosh(s).  A
        # spline's density has a kink at each knot, so the grid's error is
        # O(ds^2): 1.2e-4 at most on these draws, 1.04e-3 at most over 240
        # random ones.  Ten draws per architecture keep the test near 1.5 s.
        model = perturb(flows.build_architecture(name, 1, seed=1), scale=scale, seed=seed)
        s = np.linspace(-80.0, 80.0, 16001)
        log_q = flows.flow_log_prob(np.sinh(s)[:, None], model)
        assert np.all(np.isfinite(log_q))
        mass = np.sum(np.exp(log_q) * np.cosh(s)) * (s[1] - s[0])
        assert abs(mass - 1.0) <= 1e-3

    def test_sample_shape_and_determinism(self):
        model = flows.build_architecture("TTF", 3, seed=5)
        a = flows.flow_sample(model, special.Rng(9), 50)
        b = flows.flow_sample(model, special.Rng(9), 50)
        assert a.shape == (50, 3)
        np.testing.assert_array_equal(a, b)

    def test_sample_log_prob_finite_at_unit_tails(self):
        model = flows.build_architecture("TTF", 2, seed=0)
        flows.set_frozen_tails(model, np.ones(2))
        x = flows.flow_sample(model, special.Rng(13), 100_000)
        lp = np.asarray(flows.flow_log_prob(x, model))
        assert np.all(np.isfinite(lp))

    def test_sample_with_log_prob_consistent(self):
        model = perturb(flows.build_architecture("TTF", 3, seed=1), scale=0.15, seed=8)
        tape = ad.Tape()
        tp = model.tape_params(tape)
        x, logq = flows.flow_sample_with_log_prob(model, tp, special.Rng(3), 200)
        recomputed = np.asarray(flows.flow_log_prob(np.asarray(x.value), model))
        np.testing.assert_allclose(np.asarray(logq.value), recomputed, atol=1e-6)

    def test_d1_ttf_density_change_of_variables(self):
        model = flows.build_architecture("TTF", 1, seed=3)
        lam_p = float(np.logaddexp(0, model.params["tails.lp_raw"][0]))
        lam_n = float(np.logaddexp(0, model.params["tails.ln_raw"][0]))
        x = np.concatenate([np.linspace(-40, 40, 81), [300.0, -75.0]])
        got = np.asarray(flows.flow_log_prob(x[:, None], model))
        z, ld = tt.ttf_inverse_with_log_deriv(
            x, mu=0.0, sigma=1.0, lambda_pos=lam_p, lambda_neg=lam_n
        )
        want = -0.5 * z * z - 0.5 * LOG_2PI + ld
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestArrayTapeParity:
    """Arrays and tape variables take one code path through every layer and
    base, so a numpy pass holds the tape's values bit for bit."""

    @pytest.mark.parametrize("name", ALL_ARCHS)
    @pytest.mark.parametrize("d", [1, 3])
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.5),
           nu=st.floats(0.5, 3.0), mag=st.floats(0.0, 4.0), n=st.integers(2, 12))
    def test_numpy_pass_is_the_tape_pass(self, name, d, seed, scale, nu, mag, n):
        # t(nu) rows scaled by 10^mag: a TTF lane takes the deep-tail
        # inverse once (lambda |t| + 1)^(-1/lambda) < 1e-6, beyond |t| ~ 20
        # at lambda = 0.05 and ~1e6 at lambda = 1.  A flow without the tail
        # layer hands such rows to its affine conditioner, which overflows:
        # both paths must then hold the same non-finite values.
        model = perturb(flows.build_architecture(name, d, seed=1), scale=scale, seed=seed)
        # Without an errstate here, the property also checks that the flow
        # passes raise no floating-point warning, diverged or not.
        x = np.random.default_rng(seed).standard_t(nu, size=(n, d)) * 10.0 ** mag
        on_tape = flows.flow_log_prob(x, model, model.tape_params(ad.Tape()))
        plain = flows.flow_log_prob(x, model)
        draws, log_q = flows.flow_sample_with_log_prob(
            model, model.params, special.Rng(seed), n)
        tape_draws, tape_log_q = flows.flow_sample_with_log_prob(
            model, model.tape_params(ad.Tape()), special.Rng(seed), n)
        np.testing.assert_array_equal(plain, on_tape.value)
        np.testing.assert_array_equal(draws, tape_draws.value)
        np.testing.assert_array_equal(log_q, tape_log_q.value)


R = flows._FLOW_ROWS
BLOCK_SIZES = [1, 2, R - 1, R, R + 1, 2 * R + 1]


class TestRowBlocks:
    """numpy passes run in row blocks with the same bits as one pass."""

    @pytest.fixture
    def one_pass(self, monkeypatch):
        def run(f, *args):
            with monkeypatch.context() as m:
                m.setattr(flows, "_FLOW_ROWS", 10**9)
                return f(*args)
        return run

    @pytest.mark.parametrize("name", ALL_ARCHS)
    def test_blocked_equals_one_pass(self, name, one_pass):
        model = perturb(flows.build_architecture(name, 3, seed=1), scale=0.1, seed=2)
        for n in BLOCK_SIZES:
            x = special.Rng(n).student_t(2.0, 3 * n).reshape(n, 3)
            np.testing.assert_array_equal(flows.flow_log_prob(x, model),
                                          one_pass(flows.flow_log_prob, x, model))
            args = (model, model.params, special.Rng(n + 1), n)
            got = flows.flow_sample_with_log_prob(*args)
            args = (model, model.params, special.Rng(n + 1), n)
            want = one_pass(flows.flow_sample_with_log_prob, *args)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_blocks_are_even_and_never_one_row(self, monkeypatch):
        sizes = []
        log_prob_pass = flows._log_prob_pass

        def counting(x, *args):
            sizes.append(len(x))
            return log_prob_pass(x, *args)

        monkeypatch.setattr(flows, "_log_prob_pass", counting)
        model = flows.build_architecture("normal", 2, seed=0)
        for n in [0, 1, 2, R, R + 1, 2 * R - 1, 2 * R + 1, 5 * R + 3]:
            sizes.clear()
            assert flows.flow_log_prob(np.zeros((n, 2)), model).shape == (n,)
            assert sum(sizes) == n and max(sizes) <= R
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or n < 2

    def test_tape_pass_is_not_blocked(self, monkeypatch):
        monkeypatch.setattr(flows, "_FLOW_ROWS", 4)
        model = flows.build_architecture("TTF", 2, seed=0)
        tape = ad.Tape()
        lp = flows.flow_log_prob(np.ones((9, 2)), model, model.tape_params(tape))
        assert isinstance(lp, ad.Var) and lp.value.shape == (9,)

    def test_log_prob_memory_at_10k_rows(self):
        # one pass over 10k rows at d=5 holds (5, 50000) knot values and
        # traced 17.1 MB; blocks of _FLOW_ROWS rows trace about 2 MB
        model = flows.build_architecture("TTF", 5, seed=0)
        x = special.Rng(2).student_t(2.0, 50_000).reshape(10_000, 5)
        flows.flow_log_prob(x[:10], model)
        tracemalloc.start()
        try:
            flows.flow_log_prob(x, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 5.0


class TestBuildArchitecture:
    def test_normal_stack(self):
        m = flows.build_architecture("normal", 5)
        assert isinstance(m.base, flows.StdNormalBase)
        assert [type(l) for l in m.layers] == [flows.RqsArLayer, flows.AffineArLayer]

    def test_ttf_appends_tail_layer(self):
        m = flows.build_architecture("TTF", 5)
        assert isinstance(m.base, flows.StdNormalBase)
        assert isinstance(m.layers[-1], flows.MarginalTtfLayer)
        assert m.frozen == set()

    def test_ttffix_freezes_tails(self):
        m = flows.build_architecture("TTFfix", 4)
        assert m.frozen == {"tails.lp_raw", "tails.ln_raw"}
        assert "tails.lp_raw" not in set(m.params) - m.frozen

    def test_mtaf_frozen_nu_gtaf_trainable(self):
        mt = flows.build_architecture("mTAF", 3)
        gt = flows.build_architecture("gTAF", 3)
        assert isinstance(mt.base, flows.StudentTBase)
        assert isinstance(gt.base, flows.StudentTBase)
        assert mt.frozen == {"base.nu_raw"}
        assert gt.frozen == set()

    def test_alternative_bases(self):
        assert isinstance(flows.build_architecture("m_normal", 3).base,
                          flows.GaussianMixtureBase)
        assert isinstance(flows.build_architecture("g_normal", 3).base,
                          flows.GenNormalBase)
        assert isinstance(flows.build_architecture("TTF_tBase", 3).base,
                          flows.StudentTBase)

    def test_lambda_init_range(self):
        m = flows.build_architecture("TTF", 40, seed=7)
        lam = np.logaddexp(0, m.params["tails.lp_raw"])
        assert np.all((lam >= 0.05) & (lam <= 1.0))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            flows.build_architecture("resnet", 3)
        # COMET is a fitting protocol over the normal flow (experiments.fit_de_cell)
        with pytest.raises(ValueError, match=r"unknown architecture 'COMET'; "
                                             r"expected one of \('normal', 'm_normal'"):
            flows.build_architecture("COMET", 3)
        with pytest.raises(ValueError):
            flows.build_architecture("TTF", 0)

    def test_set_frozen_tails_realizes_values(self):
        m = flows.build_architecture("TTFfix", 3)
        flows.set_frozen_tails(m, np.array([0.5, 1.0, 0.01]))
        for key in ("tails.lp_raw", "tails.ln_raw"):
            np.testing.assert_allclose(
                np.logaddexp(0, m.params[key]), [0.5, 1.0, 0.01], rtol=1e-12
            )
        assert m.params["tails.lp_raw"] is not m.params["tails.ln_raw"]

    def test_set_frozen_nu_realizes_values(self):
        m = flows.build_architecture("mTAF", 2)
        flows.set_frozen_nu(m, np.array([1.0, 30.0]))
        np.testing.assert_allclose(
            np.logaddexp(0, m.params["base.nu_raw"]), [1.0, 30.0], rtol=1e-12
        )
