"""Reverse-mode tape tests: primitive gradients against central finite
differences, accumulation semantics, and NaN poisoning."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as sp

from tailflow import autodiff as ad
from tailflow import flows, special, training

# d/dz erfc(z) at z = 0 is -2/sqrt(pi).
NEG_TWO_OVER_SQRT_PI = -1.1283791670955125739


def fd_grad(f, x, h_scale=1e-5):
    """Central finite differences of a scalar-valued f at array x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        h = h_scale * max(1.0, abs(flat[i]))
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return g.reshape(x.shape)


def assert_grad_close(tape_grad, fd, tol=1e-5):
    tape_grad = np.asarray(tape_grad, dtype=float)
    fd = np.asarray(fd, dtype=float)
    rel = np.abs(tape_grad - fd) / np.maximum(1.0, np.abs(tape_grad))
    assert np.all(rel <= tol), f"max rel err {rel.max():.3e}"


def check_against_fd(build, inputs, tol=1e-5, reference=None):
    """Compare tape gradients of build(tape, vars) with finite differences.

    ``build`` must construct a scalar Var from the named param Vars; the
    same construction rerun through plain values drives the differencing,
    unless ``reference`` (a function of the named values) is given.
    """
    tape = ad.Tape()
    pvars = {k: tape.param(np.asarray(v, dtype=float), k) for k, v in inputs.items()}
    out = build(tape, pvars)
    grads = ad.backward(out)
    for name in inputs:
        def f(x, _name=name):
            vals = {k: np.asarray(x if k == _name else v, dtype=float) for k, v in inputs.items()}
            if reference is not None:
                return reference(vals)
            t2 = ad.Tape()
            return float(build(t2, {k: t2.param(v, k) for k, v in vals.items()}).value)

        assert_grad_close(grads[name], fd_grad(f, inputs[name]), tol=tol)


class TestLeaves:
    def test_constant_operand_has_zero_gradient(self):
        # x's value as an array is a constant: d(c * x)/dx is c, not 2x, and
        # the constant is no node
        tape = ad.Tape()
        x = tape.param(2.0, "x")
        c = x.value
        grads = ad.backward(c * x)
        assert list(grads) == ["x"] and grads["x"] == 2.0
        assert tape.ops == ["param", "mul_const"]

    @pytest.mark.parametrize("value", [
        7.5, 3, True, np.int64(-2), np.bool_(False), np.float32(1.5), np.float64(2.5),
        np.array([1.0, -2.0], dtype=">f8"), np.arange(3),
    ], ids=["float", "int", "bool", "np.int64", "np.bool_", "np.float32", "np.float64",
            "big-endian", "int-array"])
    def test_param_identity_gradient_is_one(self, value):
        # every value is stored as a native float64 array, the leaf's and
        # those computed from it
        tape = ad.Tape()
        x = tape.param(value, "x")
        y = x * 1.0
        want = np.asarray(value, dtype=float)
        for v in (x.value, y.value):
            assert type(v) is np.ndarray and v.dtype == np.float64 and v.dtype.isnative
            assert v.tobytes() == want.tobytes()
        grads = ad.backward(y.sum())
        assert tape.poisoned is None
        np.testing.assert_array_equal(grads["x"], np.ones(want.shape))

    def test_param_square_gradient(self):
        tape = ad.Tape()
        x = tape.param(3.0, "x")
        grads = ad.backward(x * x)
        assert grads["x"] == 6.0

    def test_unnamed_params_get_distinct_names(self):
        tape = ad.Tape()
        a = tape.param(1.0)
        b = tape.param(2.0)
        grads = ad.backward(a * b)
        assert len(grads) == 2
        assert sorted(float(v) for v in grads.values()) == [1.0, 2.0]


class TestCalculusIdentities:
    def test_log_erfc_derivative_at_zero(self):
        # erfc'(0) / erfc(0) with erfc(0) = 1
        tape = ad.Tape()
        z = tape.param(0.0, "z")
        grads = ad.backward(ad.log_erfc(z))
        assert abs(grads["z"] - NEG_TWO_OVER_SQRT_PI) < 1e-14

    def test_log_derivative_at_two(self):
        tape = ad.Tape()
        x = tape.param(2.0, "x")
        grads = ad.backward(ad.log(x))
        assert abs(grads["x"] - 0.5) < 1e-15


UNARY_CASES = [
    ("exp", lambda v: ad.exp(v), np.array([-2.0, -0.3, 0.0, 1.1, 2.0])),
    ("log", lambda v: ad.log(v), np.array([0.1, 0.7, 1.0, 2.5, 5.0])),
    ("log1p", lambda v: ad.log1p(v), np.array([-0.9, -0.2, 0.0, 1.3, 5.0])),
    ("expm1", lambda v: ad.expm1(v), np.array([-2.0, -0.1, 0.0, 0.4, 2.0])),
    ("sqrt", lambda v: ad.sqrt(v), np.array([0.1, 0.5, 1.0, 4.0, 9.0])),
    ("sigmoid", lambda v: ad.sigmoid(v), np.array([-4.0, -1.0, 0.0, 0.5, 4.0])),
    ("relu", lambda v: ad.relu(v), np.array([-3.0, -0.5, 0.5, 1.0, 3.0])),
    ("softplus", lambda v: ad.softplus(v), np.array([-5.0, -1.0, 0.0, 1.0, 5.0])),
    ("abs", lambda v: ad.absolute(v), np.array([-3.0, -0.5, 0.5, 1.0, 3.0])),
    ("log_erfc", lambda v: ad.log_erfc(v), np.array([-3.0, -1.0, 0.0, 2.0, 8.0])),
    ("erfc_inv", lambda v: ad.erfc_inv(v), np.array([0.05, 0.5, 1.0, 1.5, 1.95])),
    ("lgamma", lambda v: ad.lgamma(v), np.array([0.3, 0.9, 1.5, 3.0, 6.0])),
    ("neg", lambda v: -v, np.array([-2.0, 0.0, 3.0])),
    ("maximum", lambda v: ad.maximum(v, 0.5), np.array([-1.0, 0.2, 0.8, 2.0])),
    ("minimum", lambda v: ad.minimum(v, 0.5), np.array([-1.0, 0.2, 0.8, 2.0])),
    ("add_const", lambda v: v + 2.5, np.array([-1.0, 0.0, 3.0])),
    ("rsub_const", lambda v: 2.5 - v, np.array([-1.0, 0.0, 3.0])),
    ("mul_const", lambda v: v * -1.3, np.array([-1.0, 0.0, 3.0])),
    ("div_const", lambda v: v / 4.0, np.array([-1.0, 0.0, 3.0])),
    ("rdiv_const", lambda v: 2.0 / v, np.array([0.3, 1.0, 2.5])),
    ("rpow_const", lambda v: np.linspace(0.5, 3.0, 4) ** v, np.array([-1.0, 0.0, 0.5, 2.0])),
]


class TestUnaryPrimitives:
    @pytest.mark.parametrize("name,op,x", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
    def test_matches_finite_differences(self, name, op, x):
        w = np.linspace(0.7, 1.3, x.size)  # non-uniform adjoint

        def build(tape, pv):
            return (op(pv["x"]) * w).sum()

        check_against_fd(build, {"x": x})

    def test_mul_const_by_array(self):
        x = np.array([0.5, -1.0, 2.0])
        w = np.array([2.0, 3.0, -1.0])
        tape = ad.Tape()
        xv = tape.param(x, "x")
        grads = ad.backward((xv * w).sum())
        np.testing.assert_allclose(grads["x"], w)


BINARY_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / b),
]
BINARY_INPUTS = {"a": np.array([0.4, 1.1, 2.3]), "b": np.array([1.7, 0.5, -0.8])}


class TestBinaryPrimitives:
    @pytest.mark.parametrize("name,op", BINARY_CASES)
    def test_matches_finite_differences(self, name, op):
        def build(tape, pv):
            return (op(pv["a"], pv["b"]) * np.array([1.0, -2.0, 0.5])).sum()

        check_against_fd(build, BINARY_INPUTS)

    def test_shape_mismatch_rejected(self):
        tape = ad.Tape()
        a = tape.param(np.array([1.0, 2.0]), "a")
        b = tape.param(np.array([1.0, 2.0, 3.0]), "b")
        with pytest.raises(ValueError, match="shape"):
            _ = a + b

    def test_scalar_broadcasts_against_vector(self):
        tape = ad.Tape()
        a = tape.param(np.array([1.0, 2.0, 3.0]), "a")
        s = tape.param(2.0, "s")
        grads = ad.backward((a * s).sum())
        np.testing.assert_allclose(grads["a"], [2.0, 2.0, 2.0])
        assert grads["s"] == 6.0

    def test_power_takes_a_constant_base(self):
        # c ** x is one rpow_const node; a Var base is no tape op
        tape = ad.Tape()
        a = tape.param(np.array([0.5, 2.0]), "a")
        with pytest.raises(TypeError):
            _ = a ** 2.0
        with pytest.raises(TypeError):
            _ = a ** a
        grads = ad.backward((2.0 ** a).sum())
        assert tape.ops == ["param", "rpow_const", "sum"]
        np.testing.assert_allclose(grads["a"], np.log(2.0) * 2.0 ** np.array([0.5, 2.0]))


A = np.array([[0.5, -1.2, 0.3], [2.0, 0.1, -0.7]])
B = np.array([[1.1, 0.4], [-0.6, 0.9], [0.2, -1.5]])
X = np.array([[0.5, -1.2, 0.3], [2.0, 0.1, -0.7]])
U3 = np.array([0.2, -1.0, 0.7])


def weighted_sum(tape, v):
    w = np.linspace(0.5, 1.5, v.value.size).reshape(v.value.shape)
    return (v * w).sum()


def _gamma_case():
    """The gamma node against differences taken at fixed CDF levels.

    The node's adjoint is the implicit derivative holding each draw's
    quantile fixed, so the reference moves the draws along their quantiles
    rather than rerunning the sampler.
    """
    a0, size = 3.0, 16
    draws = ad.sample_gamma(a0, special.Rng(11), size)
    levels = sp.gammainc(a0, draws)
    w = np.linspace(0.5, 1.5, size)

    def build(t, pv):
        return (ad.sample_gamma(pv["a"], special.Rng(11), size) * w).sum()

    def reference(vals):
        return float(np.sum(w * sp.gammaincinv(vals["a"], levels)))

    return dict(build=build, inputs={"a": a0}, reference=reference, tol=1e-6)


_MASK = np.array([[True, False, True], [False, True, True]])

# Every structural op, and each shape-specialised op the tape used to have in
# its broadcasting or indexing form, checked against central differences.
STRUCTURED_CASES = {
    "dot": dict(
        build=lambda t, pv: (pv["a"] * pv["b"]).sum(),
        inputs={"a": np.array([1.0, -2.0, 0.5]), "b": np.array([0.3, 1.1, -0.4])},
    ),
    "matvec": dict(
        build=lambda t, pv: weighted_sum(t, (pv["A"] * pv["v"]).sum(axis=1)),
        inputs={"A": A, "v": U3},
    ),
    "matmul": dict(
        build=lambda t, pv: weighted_sum(t, pv["A"] @ pv["B"]),
        inputs={"A": A, "B": B},
    ),
    "matmul_vector_operands": dict(
        build=lambda t, pv: weighted_sum(t, pv["A"] @ pv["v"])
        + weighted_sum(t, pv["u"] @ pv["A"]) + pv["v"] @ pv["v"],
        inputs={"A": A, "v": U3, "u": np.array([0.4, -0.9])},
    ),
    # one matmul_const node each, constant on the right or on the left,
    # against 2-d and 1-d Var operands and 2-d and 1-d constants
    "matmul_const_right": dict(
        build=lambda t, pv: weighted_sum(t, pv["A"] @ B) + weighted_sum(t, pv["v"] @ B)
        + weighted_sum(t, pv["A"] @ U3) + pv["v"] @ U3,
        inputs={"A": A, "v": np.array([0.4, -0.9, 1.3])},
    ),
    "matmul_const_left": dict(
        build=lambda t, pv: weighted_sum(t, B @ pv["A"]) + weighted_sum(t, B @ pv["v"])
        + weighted_sum(t, U3 @ pv["B"]) + U3 @ pv["u"],
        inputs={"A": A, "v": np.array([0.4, -0.9]), "B": B, "u": np.array([1.1, 0.2, -0.6])},
    ),
    "matmul_tb": dict(
        build=lambda t, pv: weighted_sum(t, pv["A"] @ pv["C"].T),
        inputs={"A": A, "C": A + 0.3},
    ),
    "add_rowvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] + pv["b"]),
        inputs={"X": X, "b": np.array([0.1, -0.4, 0.9])},
    ),
    "sub_colvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] - pv["c"][:, None]),
        inputs={"X": X, "c": np.array([0.7, -1.3])},
    ),
    "mul_colvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] * pv["c"][:, None]),
        inputs={"X": X, "c": np.array([0.7, -1.3])},
    ),
    "div_colvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] / pv["c"][:, None]),
        inputs={"X": X, "c": np.array([0.7, -1.3])},
    ),
    "mul_rowvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] * pv["r"]),
        inputs={"X": X, "r": np.array([0.7, -1.3, 2.1])},
    ),
    "div_rowvec": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"] / pv["r"]),
        inputs={"X": X, "r": np.array([0.7, -1.3, 2.1])},
    ),
    "col_and_elem": dict(
        build=lambda t, pv: pv["X"][:, 1].sum() + pv["v"][2] * 3.0,
        inputs={"X": X, "v": np.array([1.0, 2.0, 3.0, 4.0])},
    ),
    "strided_column_slice": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"][:, ::2]),
        inputs={"X": np.arange(12.0).reshape(3, 4) / 7.0},
    ),
    "select_cols": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"][np.arange(2), np.array([2, 0])]),
        inputs={"X": X},
    ),
    "gather_repeated_index": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"][np.array([0, 0, 1]), np.array([2, 2, 0])])
        + weighted_sum(t, pv["v"][[1, 1, 3]]),
        inputs={"X": X, "v": np.array([1.0, 2.0, 3.0, 4.0])},
    ),
    "rowsum_colsum": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"].sum(axis=1))
        + weighted_sum(t, pv["X"].sum(axis=0))
        + weighted_sum(t, pv["X"].sum(axis=1, keepdims=True))
        + weighted_sum(t, pv["X"].sum(axis=0, keepdims=True))
        + weighted_sum(t, pv["X"].sum(keepdims=True)),
        inputs={"X": X},
    ),
    "sum_negative_axis": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"].sum(axis=-1))
        + weighted_sum(t, pv["X"].sum(axis=-2))
        + weighted_sum(t, pv["X"].sum(axis=-1, keepdims=True)),
        inputs={"X": X},
    ),
    "cumsum_axis0": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"].cumsum(axis=0))
        + weighted_sum(t, pv["v"].cumsum(axis=0)),
        inputs={"X": X, "v": np.array([1.0, -2.0, 0.5, 3.0])},
    ),
    "cumsum_axis1": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"].cumsum(axis=1)),
        inputs={"X": X},
    ),
    # the column writes of the flows' sequential loop: (n,) columns into
    # plain zeros, then into the running matrix
    "column_writes": dict(
        build=lambda t, pv: weighted_sum(t, ad.where_mask(
            np.eye(3, dtype=bool)[2], pv["b"][:, None],
            ad.where_mask(np.eye(3, dtype=bool)[0], pv["a"][:, None], np.zeros((2, 3))))),
        inputs={"a": np.array([1.0, -0.5]), "b": np.array([0.3, 2.0])},
    ),
    "where_mask": dict(
        build=lambda t, pv: weighted_sum(t, pv["a"].where_mask(_MASK, pv["b"])),
        inputs={"a": X, "b": X[::-1] + 1.0},
    ),
    "where_mask_broadcast": dict(
        build=lambda t, pv: weighted_sum(t, pv["a"].where_mask(_MASK, pv["b"]))
        + weighted_sum(t, pv["b"].where_mask(_MASK, 2.0)),
        inputs={"a": X, "b": np.array([0.3, -1.0, 2.0])},
    ),
    "reshape": dict(
        build=lambda t, pv: weighted_sum(t, pv["X"].reshape(3, 2))
        + weighted_sum(t, pv["X"].reshape(6))
        + weighted_sum(t, pv["X"].T.reshape(2, 3)),
        inputs={"X": X},
    ),
    # The RQS inverse's regrouping: (n, k*d) -> (n, k, d) -> (k, n, d) ->
    # (k, n*d), a reshape of a swapped, non-contiguous value.
    "swapaxes": dict(
        build=lambda t, pv: weighted_sum(t, pv["Y"].swapaxes(0, 2))
        + weighted_sum(t, pv["Y"].reshape(2, 3, 2).swapaxes(0, 1).reshape(3, 4)),
        inputs={"Y": np.arange(12.0).reshape(2, 2, 3) / 5.0 - 1.0},
    ),
    "sample_gamma": _gamma_case(),
}


def check_case(name):
    case = STRUCTURED_CASES[name]
    check_against_fd(case["build"], case["inputs"], tol=case.get("tol", 1e-5),
                     reference=case.get("reference"))


class TestStructuredOps:
    """The tape's structural ops, and the broadcasting and indexing forms of
    the shape-specialised ops it used to have (dot, matvec, matmul_tb, the
    row and column vector ops, col/elem/cols/select_cols, rowsum/colsum)."""

    def test_dot(self):
        check_case("dot")

    def test_matvec(self):
        check_case("matvec")

    def test_matmul(self):
        check_case("matmul")

    def test_matmul_vector_operands(self):
        check_case("matmul_vector_operands")

    def test_matmul_constant_operands(self):
        check_case("matmul_const_right")
        check_case("matmul_const_left")

    def test_constant_operand_is_one_node_saving_nothing(self):
        # no node for the constant, and nothing saved for backward
        tape = ad.Tape()
        a = tape.param(A, "A")
        (B @ a).sum()
        (a @ B).sum()
        assert tape.ops == ["param", "matmul_const", "sum", "matmul_const", "sum"]
        assert all(v.size == 0 for v in tape.values)
        np.testing.assert_array_equal((B @ a).value, B @ A)
        np.testing.assert_array_equal((a @ B).value, A @ B)

    def test_matmul_tb(self):
        check_case("matmul_tb")

    def test_add_rowvec(self):
        check_case("add_rowvec")

    @pytest.mark.parametrize("name", ["sub_colvec", "mul_colvec", "div_colvec"])
    def test_colvec_ops(self, name):
        check_case(name)

    @pytest.mark.parametrize("name", ["mul_rowvec", "div_rowvec"])
    def test_rowvec_ops(self, name):
        check_case(name)

    def test_col_and_elem(self):
        check_case("col_and_elem")

    def test_strided_column_slice(self):
        check_case("strided_column_slice")

    def test_select_cols(self):
        check_case("select_cols")

    def test_gather_repeated_index(self):
        check_case("gather_repeated_index")
        tape = ad.Tape()
        v = tape.param(np.zeros(4), "v")
        grads = ad.backward(v[[1, 1, 3]].sum())
        np.testing.assert_array_equal(grads["v"], [0.0, 2.0, 0.0, 1.0])

    def test_indexing_matches_numpy(self):
        tape = ad.Tape()
        v = tape.param(X, "X")
        for key in (1, (1, 2), (slice(None), 1), (slice(None), slice(None, None, 2)),
                    (slice(None), slice(None), None), (np.arange(2), np.array([2, 0]))):
            np.testing.assert_array_equal(v[key].value, X[key])
        np.testing.assert_array_equal(v.T.value, X.T)

    def test_reshape(self):
        check_case("reshape")

    def test_swapaxes(self):
        check_case("swapaxes")
        y = np.arange(12.0).reshape(2, 3, 2)
        np.testing.assert_array_equal(
            ad.Tape().param(y).swapaxes(0, 1).reshape(3, 4).value, y.swapaxes(0, 1).reshape(3, 4)
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_cumsum(self, axis):
        check_case(f"cumsum_axis{axis}")
        np.testing.assert_array_equal(ad.Tape().param(X).cumsum(axis=axis).value,
                                      np.cumsum(X, axis=axis))

    @pytest.mark.parametrize("shape,axis", [
        ((9,), 0), ((9,), -1), ((5, 7), 0), ((5, 7), 1), ((5, 7), -1),
        ((4, 3, 6), 0), ((4, 3, 6), 1), ((4, 3, 6), -1),
    ])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_cumsum_is_numpys_bit_for_bit(self, shape, axis, layout):
        # row adds sum in numpy's sequential order, on any memory layout
        rng = np.random.default_rng(3)
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = np.repeat(a, 2, axis=0)[::-2]
        want = np.cumsum(a, axis=axis)
        assert ad.cumsum(a, axis).tobytes() == want.tobytes()
        assert ad.Tape().param(a).cumsum(axis).value.tobytes() == want.tobytes()

    def test_column_writes(self):
        check_case("column_writes")

    def test_rowsum_colsum(self):
        check_case("rowsum_colsum")

    def test_sum_negative_axis(self):
        check_case("sum_negative_axis")

    def test_where_mask_var_branches(self):
        mask = np.array([True, False, True])
        tape = ad.Tape()
        av = tape.param(np.array([1.0, 2.0, 3.0]), "a")
        bv = tape.param(np.array([10.0, 20.0, 30.0]), "b")
        grads = ad.backward(av.where_mask(mask, bv).sum())
        np.testing.assert_allclose(grads["a"], [1.0, 0.0, 1.0])
        np.testing.assert_allclose(grads["b"], [0.0, 1.0, 0.0])
        check_case("where_mask")

    def test_where_mask_broadcasts(self):
        check_case("where_mask_broadcast")

    def test_where_mask_keeps_bad_lane_out_of_gradient(self):
        # The inactive branch may hold values whose op would NaN elsewhere;
        # selection must keep the gradient clean on active lanes.
        mask = np.array([True, True, False])
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 4.0, -1.0]), "x")
        safe = x.where_mask(mask, 1.0)
        grads = ad.backward(ad.log(safe).sum())
        np.testing.assert_allclose(grads["x"], [1.0, 0.25, 0.0])

    def test_sample_gamma_at_fixed_quantiles(self):
        check_case("sample_gamma")


BIG = np.array([[0.5, -1.2, 0.3], [2.0, 0.1, -0.7]])
SMALL = {
    "(3,)": np.array([0.7, -1.3, 2.1]),
    "(1,3)": np.array([[0.7, -1.3, 2.1]]),
    "(2,1)": np.array([[0.7], [-1.3]]),
    "()": np.array(1.6),
}
BROADCAST_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def _broadcast_case(op, shape, small_left, kind):
    """BIG (2, 3) against a smaller operand; kind says which side is a Var.

    "var": both operands on the tape; "const_small": the small operand is a
    constant; "const_big": the (2, 3) operand is a constant, so the small
    Var's adjoint must be summed back from the broadcast shape.
    """
    fn = BROADCAST_OPS[op]
    small = SMALL[shape]

    def build(t, pv):
        big_v = BIG if kind == "const_big" else pv["big"]
        small_v = small if kind == "const_small" else pv["small"]
        left, right = (small_v, big_v) if small_left else (big_v, small_v)
        return weighted_sum(t, fn(left, right))

    inputs = {}
    if kind != "const_big":
        inputs["big"] = BIG
    if kind != "const_small":
        inputs["small"] = small
    return dict(build=build, inputs=inputs)


BROADCAST_CASES = [
    (f"{op}-{shape}-{'small_left' if left else 'small_right'}-{kind}",
     _broadcast_case(op, shape, left, kind))
    for op in BROADCAST_OPS
    for shape in SMALL
    for left in (True, False)
    for kind in ("var", "const_small", "const_big")
]


class TestBroadcasting:
    @pytest.mark.parametrize("case", [c for _, c in BROADCAST_CASES],
                             ids=[i for i, _ in BROADCAST_CASES])
    def test_binary_ops_match_finite_differences(self, case):
        check_against_fd(case["build"], case["inputs"])

    def test_adjoint_takes_operand_shape(self):
        tape = ad.Tape()
        b = tape.param(np.array([[1.0], [2.0]]), "b")
        grads = ad.backward((BIG * b).sum())
        assert grads["b"].shape == (2, 1)
        np.testing.assert_allclose(grads["b"][:, 0], BIG.sum(axis=1))


def _all_fd_cases():
    """Every (build, inputs) pair this module checks against differences."""
    for _, op, x in UNARY_CASES:
        yield (lambda tape, pv, _op=op, _n=x.size: (_op(pv["x"]) * np.ones(_n)).sum(), {"x": x})
    for _, op in BINARY_CASES:
        yield (lambda tape, pv, _op=op: _op(pv["a"], pv["b"]).sum(), BINARY_INPUTS)
    for case in STRUCTURED_CASES.values():
        yield case["build"], case["inputs"]
    for _, case in BROADCAST_CASES:
        yield case["build"], case["inputs"]


# What ``Tape._push`` skips when it tests node values for finiteness: ops
# whose output entries are operand entries, zeros, or bounded maps of them.
# Every other op can turn finite operands into inf or NaN (overflow, a
# domain edge, a NaN constant), takes an outside value (the leaves) or draws
# a fresh one, so its nodes are tested.
ENTRY_MOVING_OPS = {
    "getitem", "transpose", "reshape", "swapaxes", "where_mask", "neg", "relu", "absolute",
}
TESTED_OPS = {
    "param",
    "add", "add_const", "sub", "rsub_const", "mul", "mul_const", "div", "div_const",
    "rdiv_const", "rpow_const", "exp", "log", "log1p", "expm1", "sqrt",
    "sigmoid", "softplus", "log_erfc", "erfc_inv", "lgamma",
    "maximum", "minimum", "sum", "matmul", "matmul_const", "cumsum",
    "where_mask_const", "sample_gamma",
}
RULED_OPS = {op for op, rec in ad._OPS.items() if rec.rule is not None}


class RecordingTape(ad.Tape):
    """A tape that also keeps every node's value, for brute-force checks."""

    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def _push(self, op, ins, value, payload=None):
        v = super()._push(op, ins, value, payload)
        self.seen.append(v.value)
        return v


class TestRuleTable:
    def test_every_rule_is_classified_for_the_finiteness_test(self):
        assert not ENTRY_MOVING_OPS & TESTED_OPS
        assert ENTRY_MOVING_OPS | TESTED_OPS == set(ad._OPS)
        assert {op for op, rec in ad._OPS.items() if rec.moving} == ENTRY_MOVING_OPS

    @pytest.mark.parametrize("seed", range(5))
    def test_entry_moving_ops_keep_extreme_finite_values_finite(self, seed):
        rng = np.random.default_rng(seed)
        big = np.finfo(float).max
        x = rng.choice([-big, big, -1e-308, 5e-324, 0.0, -0.0, 1.0], size=(3, 4))
        t = RecordingTape()
        v = t.param(x, "x")
        nodes = [
            v[1:, ::2], v[np.array([2, 0, 2]), np.array([1, 1, 3])], v.T, v.reshape(2, 6),
            v.reshape(3, 2, 2).swapaxes(0, 2),
            v.where_mask(np.arange(12).reshape(3, 4) % 3 == 0, t.param(np.full((3, 4), -7.0))),
            -v, ad.relu(v), ad.absolute(v),
        ]
        assert {t.ops[n.idx] for n in nodes} == ENTRY_MOVING_OPS
        assert all(np.all(np.isfinite(v)) for v in t.seen)

    def test_every_rule_has_a_central_difference_case(self):
        covered = set()
        for build, inputs in _all_fd_cases():
            tape = ad.Tape()
            build(tape, {k: tape.param(np.asarray(v, dtype=float), k) for k, v in inputs.items()})
            covered.update(tape.ops)
        assert RULED_OPS - covered == set()
        assert set(ad._OPS) - RULED_OPS == {"param"}

    def test_every_rule_declares_what_it_reads(self):
        # the tape saves exactly the declared values for backward; a leaf
        # has no rule and reads nothing
        for op, rec in ad._OPS.items():
            assert isinstance(rec.own, bool) and all(k in (0, 1) for k in rec.reads), op
            if rec.rule is None:
                assert not rec.own and not rec.reads, op

    def test_rules_that_read_no_parent_run_without_parents(self):
        # backward passes ins=() to these rules, so none may use ins even
        # for its length
        rng = np.random.default_rng(0)
        readers = {op for op, rec in ad._OPS.items() if rec.reads}
        covered = set()
        for build, inputs in _all_fd_cases():
            tape = ad.Tape()
            build(tape, {k: tape.param(np.asarray(v, dtype=float), k) for k, v in inputs.items()})
            for op, par, v, pay, shape in zip(tape.ops, tape.parents, tape.values,
                                              tape.payloads, tape.shapes):
                if not par or op in readers:
                    continue
                covered.add(op)
                g = rng.normal(size=shape)
                rule = ad._OPS[op].rule
                got = rule(g, v, (), pay)
                want = rule(g, v, [tape.values[p] for p in par], pay)
                assert len(got) == len(want) == len(par), op
                for gp, wp, p in zip(got, want, par):
                    if isinstance(gp, ad._Scatter):
                        gp, wp = gp.dense(tape.shapes[p]), wp.dense(tape.shapes[p])
                    np.testing.assert_array_equal(gp, wp, err_msg=op)
        assert covered == RULED_OPS - readers

    def test_adjoints_that_own_their_data_are_new(self):
        # backward adds in place into a rule's adjoint that owns its data and
        # is not g, so no other adjoint, g or saved value may share its memory
        rng = np.random.default_rng(0)
        covered = set()
        for build, inputs in _all_fd_cases():
            tape = ad.Tape()
            build(tape, {k: tape.param(np.asarray(v, dtype=float), k) for k, v in inputs.items()})
            for op, par, v, pay, shape in zip(tape.ops, tape.parents, tape.values,
                                              tape.payloads, tape.shapes):
                if not par:
                    continue
                covered.add(op)
                g = rng.normal(size=shape)
                grads = ad._OPS[op].rule(g, v, [tape.values[p] for p in par], pay)
                arrays = [a for a in grads if type(a) is np.ndarray]
                for k, gp in enumerate(arrays):
                    if gp.flags.owndata and gp is not g:
                        held = [g, *tape.values, *arrays[:k], *arrays[k + 1:]]
                        assert not any(np.shares_memory(gp, a) for a in held), op
        assert covered == RULED_OPS

    def test_tape_keeps_only_declared_values(self):
        tape = ad.Tape()
        x = tape.param(np.array([0.5, 2.0]), "x")
        y = ad.log(x + 1.0)  # log reads its operand, add_const nothing
        z = ad.exp(y * 3.0)  # exp reads its own value, mul_const nothing
        z.sum()
        saved = [v.size > 0 for v in tape.values]
        assert tape.ops == ["param", "add_const", "log", "mul_const", "exp", "sum"]
        assert saved == [False, True, False, False, True, False]
        assert tape.shapes == [(2,)] * 5 + [()]


class TestComposedExpressions:
    def test_three_layer_network_gradient(self):
        """Two matrix-vector layers with nonlinearities, then a weighted reduction."""
        rng = np.random.default_rng(7)
        inputs = {
            "W1": rng.normal(size=(4, 3)) * 0.5,
            "b1": rng.normal(size=4) * 0.1,
            "W2": rng.normal(size=(2, 4)) * 0.5,
            "b2": rng.normal(size=2) * 0.1,
            "x": rng.normal(size=3),
        }

        def build(tape, pv):
            h = ad.softplus(pv["W1"] @ pv["x"] + pv["b1"])
            y = ad.sigmoid(pv["W2"] @ h + pv["b2"])
            return ad.exp(ad.log1p(y @ np.array([1.0, -2.0])))

        check_against_fd(build, inputs)

    def test_fan_out_accumulates(self):
        # x used twice: d/dx (x*x + 3x) = 2x + 3
        tape = ad.Tape()
        x = tape.param(2.0, "x")
        grads = ad.backward(x * x + x * 3.0)
        assert abs(grads["x"] - 7.0) < 1e-15


class TestBackwardSemantics:
    def test_sum_of_params_gives_unit_gradients(self):
        tape = ad.Tape()
        ps = [tape.param(float(i), f"p{i}") for i in range(5)]
        total = ps[0]
        for p in ps[1:]:
            total = total + p
        grads = ad.backward(total)
        for i in range(5):
            assert grads[f"p{i}"] == 1.0

    def test_sweep_frees_saved_values_and_a_second_sweep_raises(self):
        # a sweep frees each saved value once its rules have run; a sweep
        # that reaches a node an earlier one passed raises, while nodes
        # pushed after the sweep save their operands afresh
        tape = ad.Tape()
        x = tape.param(3.0, "x")
        y = x * x
        assert ad.backward(y)["x"] == 6.0
        assert all(v is ad._UNSAVED for v in tape.values)
        with pytest.raises(RuntimeError, match="swept before"):
            ad.backward(y)
        with pytest.raises(RuntimeError, match="swept before"):
            ad.backward(y * 2.0)
        assert ad.backward(x * x * 2.0)["x"] == 12.0

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 2.0]), "x")
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(x * 2.0)

    def test_unreached_param_gets_zeros(self):
        # each sweep returns zeros for a param its output does not reach
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 2.0]), "x")
        w = tape.param(3.0, "w")
        grads = ad.backward(w * 1.0)
        np.testing.assert_array_equal(grads["x"], [0.0, 0.0])
        assert grads["w"] == 1.0
        grads = ad.backward((x * x).sum())
        np.testing.assert_allclose(grads["x"], [2.0, 4.0])
        assert grads["w"] == 0.0


# Uses of one (6, 5) Var y: basic slices (some overlapping), gathers that
# repeat an index, and dense consumers whose adjoints are a read-only
# broadcast view ("colsum"), one array reaching y twice ("twice") or one
# array that y shares with another node w until w's rule runs ("plus_w").
_USES = {
    "rows": lambda y, w: y[1:4],
    "first_rows": lambda y, w: y[:3],
    "row": lambda y, w: y[2],
    "col": lambda y, w: y[:, 3],
    "strided_cols": lambda y, w: y[:, ::2],
    "block": lambda y, w: y[2:, 1:3],
    "gather_rows": lambda y, w: y[np.array([0, 5, 0, 2])],
    "gather_pairs": lambda y, w: y[np.array([1, 1, 4, 1]), np.array([0, 0, 2, 0])],
    "gather_cols": lambda y, w: y[:, [4, 4, 1]],
    "scaled": lambda y, w: y * 0.75,
    "colsum": lambda y, w: y.sum(axis=0),
    "transpose": lambda y, w: y.T,
    "twice": lambda y, w: y + y,
    "plus_w": lambda y, w: y + w,
    "exp": lambda y, w: ad.exp(y),
}


def _reference_backward(out):
    """A reference sweep: every getitem adjoint a full zero matrix, every
    adjoint sum a new array, in arrival order."""
    tape = out.tape
    adj = [None] * (out.idx + 1)
    adj[out.idx] = np.asarray(1.0)
    for i in range(out.idx, -1, -1):
        g, par = adj[i], tape.parents[i]
        if g is None or not par:
            continue
        if tape.ops[i] == "getitem":
            key, kind = tape.payloads[i]
            full = np.zeros(tape.shapes[par[0]])
            if kind != "slice":  # any gather
                np.add.at(full, key, g)
            else:
                full[key] = g
            grads = (full,)
        else:
            grads = ad._OPS[tape.ops[i]].rule(g, tape.values[i], [tape.values[p] for p in par],
                                              tape.payloads[i])
        for p, gp in zip(par, grads):
            if gp.shape != tape.shapes[p]:
                gp = ad._unbroadcast(gp, tape.shapes[p])
            adj[p] = gp if adj[p] is None else adj[p] + gp
    return {name: adj[idx] for idx, name in tape.param_nodes.items()}


def _large_keys(rng, k, m):
    """Gather keys into a (k, m) matrix: (2, m) row pairs (idx - 1, idx),
    where row -1 wraps to the last row, with every column in order; the same
    pairs with one row repeated in some columns; with rows -1 and k - 1,
    one entry, in some columns; each column, with its pair, twice; and
    column 0 as 0 and as -m, with the same pair."""
    idx = rng.integers(0, k, m)
    pairs = np.stack([idx - 1, idx])
    repeats, wrapped = pairs.copy(), pairs.copy()
    repeats[1, ::7] = repeats[0, ::7]
    wrapped[:, ::5] = [[-1], [k - 1]]
    cols = np.arange(m)
    same_first = pairs.copy()
    same_first[:, 1] = same_first[:, 0]
    return (pairs, repeats, wrapped, cols, np.repeat(pairs[:, ::2], 2, axis=1), cols // 2 * 2,
            same_first, np.concatenate([[-m, 0], cols[2:]]))


# Uses of a large y: once-only and repeating gathers, slices, and adjoints
# that y shares ("twice", "plus_w", "transposes") or not ("scaled", "exp").
_LARGE_USES = {
    "pairs": lambda y, w, keys: y[keys[0], keys[3]],
    "repeats": lambda y, w, keys: y[keys[1], keys[3]],
    "wrapped_repeats": lambda y, w, keys: y[keys[2], keys[3]],
    "repeated_cols": lambda y, w, keys: y[keys[4], keys[5]],
    "wrapped_col": lambda y, w, keys: y[keys[6], keys[7]],
    "rows": lambda y, w, keys: y[1:4],
    "strided_cols": lambda y, w, keys: y[:, ::2],
    "scaled": lambda y, w, keys: y * 0.75,
    "twice": lambda y, w, keys: y + y,
    "plus_w": lambda y, w, keys: y + w,
    "transposes": lambda y, w, keys: y.T + w.T,  # y and w get views of one array
    "exp": lambda y, w, keys: ad.exp(y),
}


# How the uses that index y scatter their adjoints back into it.
_LARGE_KINDS = {"pairs": "once", "repeats": "gather", "wrapped_repeats": "gather",
                "repeated_cols": "gather", "wrapped_col": "gather", "rows": "slice",
                "strided_cols": "slice"}


class TestScatterAdjoints:
    """Backward writes slice and gather adjoints into one buffer per operand;
    the gradients are those of summing full zero matrices."""

    @given(uses=st.lists(st.sampled_from(sorted(_USES)), min_size=3, max_size=10),
           on_param=st.booleans(), seed=st.integers(0, 2**16))
    def test_mixed_uses_match_full_matrix_sums(self, uses, on_param, seed):
        rng = np.random.default_rng(seed)
        tape = ad.Tape()
        x = tape.param(rng.normal(size=(6, 5)), "x")
        y = x if on_param else ad.exp(x * 1.5)
        w = x * 2.0
        total = None
        for name in uses:  # pushed in the drawn order, so reached in reverse
            u = _USES[name](y, w)
            term = (u * rng.normal(size=u.shape)).sum()
            total = term if total is None else total + term
        built = len(tape.ops)
        assert built == (2 if on_param else 4) + 3 * len(uses) + len(uses) - 1
        want = _reference_backward(total)["x"]
        np.testing.assert_array_equal(ad.backward(total)["x"], want)
        assert len(tape.ops) == built

    @given(uses=st.lists(st.sampled_from(sorted(_LARGE_USES)), min_size=3, max_size=10),
           on_param=st.booleans(), seed=st.integers(0, 2**16))
    def test_large_values_match_full_matrix_sums(self, uses, on_param, seed):
        # On values of _ONCE_CHECK_MIN entries or more, as a DE step's, a gather
        # that reaches each entry once scatters by assignment; with the
        # in-place adds into adjoints that nothing else holds, the sums stay
        # those of full zero matrices, bit for bit.
        rng = np.random.default_rng(seed)
        k, m = 6, ad._ONCE_CHECK_MIN // 2
        tape = ad.Tape()
        x = tape.param(rng.normal(size=(k, m)), "x")
        y = x if on_param else ad.exp(x * 1.5)
        w = x * 2.0
        keys = _large_keys(rng, k, m)
        total = None
        for name in uses:
            u = _LARGE_USES[name](y, w, keys)
            term = (u * rng.normal(size=u.shape)).sum()
            total = term if total is None else total + term
        assert [pay[1] for op, pay in zip(tape.ops, tape.payloads) if op == "getitem"] \
            == [_LARGE_KINDS[name] for name in uses if name in _LARGE_KINDS]
        want = _reference_backward(total)["x"]
        assert ad.backward(total)["x"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("key,kind", [
        ((np.array([[-1, 0], [0, 1]]), np.arange(2)), "once"),
        ((np.zeros((2, 0), dtype=int), np.arange(0)), "once"),
        ((np.array([[2, 0], [-1, 1]]), np.arange(2)), "gather"),  # row 2 twice in column 0
        ((np.array([[0, 0], [1, 1]]), np.array([1, 1])), "gather"),  # a column twice
        ((np.array([[0, 0], [1, 1]]), np.array([-2, 0])), "gather"),  # column 0 twice
        ((np.array([[0, 0], [1, 1]]), np.array([False, True])), "gather"),  # a mask
        ((np.array([0, 2]), np.arange(2)), "gather"),
        ((slice(1, 3), 0), "slice"),
    ])
    def test_scatter_kind(self, key, kind):
        assert ad._scatter_kind(key, (3, 2), ad._ONCE_CHECK_MIN) == kind
        # a smaller value is not checked: its gathers take np.add.at
        small = "slice" if kind == "slice" else "gather"
        assert ad._scatter_kind(key, (3, 2), ad._ONCE_CHECK_MIN - 1) == small

    def test_once_only_scatter_gives_add_at_bits(self):
        # assignment adds 0.0 first, so a -0.0 lands as np.add.at's +0.0
        k, m = 5, ad._ONCE_CHECK_MIN
        pairs, _, _, cols, *_ = _large_keys(np.random.default_rng(0), k, m)
        g = np.where(np.random.default_rng(1).random((2, m)) < 0.5, -0.0, 1.5)
        want = np.zeros((k, m))
        np.add.at(want, (pairs, cols), g)
        assert ad._Scatter((pairs, cols), "once", g).dense((k, m)).tobytes() == want.tobytes()

    def test_ttf_de_tape_matches_reference(self):
        # a d=20 TTF density tape whose (2, n d) knot gathers reach each
        # entry once, as a DE step's do
        model = flows.build_architecture("TTF", 20, seed=0)
        r = np.random.default_rng(3)
        for key, v in model.params.items():
            model.params[key] = v + 0.3 * r.normal(size=v.shape)
        x = special.Rng(1).student_t(2.0, (300, 20))
        loss = training.de_loss(model, x, model.tape_params(ad.Tape()))
        tape = loss.tape
        assert [pay[1] for op, pay in zip(tape.ops, tape.payloads)
                if op == "getitem" and pay[1] != "slice"] == ["once"] * 3
        want = _reference_backward(loss)
        got = ad.backward(loss)
        assert set(got) == set(want)
        for name, g in got.items():
            assert g.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("use", ["slice", "dense"])
    def test_shared_adjoint_is_not_written(self, use):
        # y + w hands one array to y and w as their adjoints; what reaches y
        # next must not write into the one w still holds
        tape = ad.Tape()
        x = tape.param(np.zeros(4), "x")
        y, w = x * 1.0, x * 2.0
        first = y[1:3].sum() if use == "slice" else (y * 3.0).sum()
        out = first + ((y + w) * np.array([1.0, 2.0, 3.0, 4.0])).sum()
        want = [3.0, 7.0, 10.0, 12.0] if use == "slice" else [6.0, 9.0, 12.0, 15.0]
        np.testing.assert_array_equal(ad.backward(out)["x"], want)


class TestPoisoning:
    @pytest.mark.parametrize("make", [
        lambda x: ad.log(x),  # NaN, recorded silently
        lambda x: x * float("nan"),  # a 0-d NaN constant, of each type
        lambda x: x * np.float64("nan"),
        lambda x: x * np.float32("nan"),
        lambda x: x * np.array(np.nan),
    ], ids=["log", "float", "np.float64", "np.float32", "0-d array"])
    def test_domain_violation_poisons_instead_of_raising(self, make):
        tape = ad.Tape()
        x = tape.param(-1.0, "x")
        y = make(x)
        assert tape.poisoned == y.idx
        with pytest.raises(ad.PoisonedTapeError) as exc:
            ad.backward(y + x)
        assert (exc.value.node, exc.value.op) == (y.idx, tape.ops[y.idx])

    def test_backward_reports_first_offending_node(self):
        tape = ad.Tape()
        x = tape.param(np.array([-1.0, 2.0]), "x")
        bad = ad.log(x)
        worse = ad.sqrt(bad)  # downstream NaN, must not displace the first
        with pytest.raises(ad.PoisonedTapeError) as exc:
            ad.backward(worse.sum())
        assert exc.value.node == bad.idx
        assert exc.value.op == "log"

    def test_erfc_inv_out_of_domain_poisons(self):
        tape = ad.Tape()
        x = tape.param(np.array([0.5, 2.5]), "x")
        y = ad.erfc_inv(x)
        assert tape.poisoned == y.idx
        assert np.isnan(y.value[1]) and np.isfinite(y.value[0])

    def test_clean_tape_not_poisoned(self):
        tape = ad.Tape()
        x = tape.param(np.array([0.5, 1.5]), "x")
        ad.backward(ad.log(x).sum())
        assert tape.poisoned is None

    # Values as large as a DE step's are tested entry by entry too: no
    # shortcut such as one dot v.v may miss an entry or overflow on finite
    # ones.
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2501, 4999])
    def test_one_bad_entry_of_a_large_value_poisons_its_node(self, scale, bad, at):
        tape = ad.Tape()
        x = tape.param(np.random.default_rng(at).normal(size=(2, 2500)) * scale, "x")
        clean = x * 0.5
        poison = np.zeros((2, 2500))
        poison.flat[at] = bad
        hit = clean + poison
        (hit * 2.0).sum()
        assert tape.poisoned == hit.idx

    def test_large_finite_values_whose_squares_overflow_do_not_poison(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tape = ad.Tape()
            x = tape.param(np.full((2, 2500), 1e200), "x")
            loss = (x * -1.5 + 1e200).sum()  # each node's v.v overflows
            assert tape.poisoned is None
            grads = ad.backward(loss)
        np.testing.assert_array_equal(grads["x"], -1.5)

    @pytest.mark.parametrize("seed", range(60))
    def test_poisoned_is_first_non_finite_node(self, seed):
        """Random chains of ops on (3, 4) values, with a NaN or inf put in at a
        random step: ``tape.poisoned`` is the first node whose value is not
        finite, found by scanning every node's value."""
        rng = np.random.default_rng(seed)
        t = RecordingTape()
        pool = [t.param(rng.normal(size=(3, 4)), "x"), t.param(rng.normal(size=(3, 4)), "u")]
        mask = lambda: rng.random((3, 4)) < 0.7  # noqa: E731
        bad = lambda: rng.choice([np.nan, np.inf, -np.inf])  # noqa: E731
        tri = np.triu(rng.normal(size=(4, 4)), 1) + np.diag(rng.uniform(0.5, 2.0, 4))

        def inject(v):
            """A non-finite value from a constant, or from finite operands."""
            poison = rng.normal(size=(3, 4))
            poison[rng.integers(3), rng.integers(4)] = bad()
            big = t.param(np.full((3, 4), 1e308))
            makers = [
                lambda: v.where_mask(mask(), bad()), lambda: v + poison,
                lambda: big + big, lambda: big - -big, lambda: big * 10.0,
                lambda: big.sum(axis=0, keepdims=True) + v, lambda: big.cumsum(axis=1),
                lambda: ad.exp(ad.absolute(v) + 800.0), lambda: ad.log(v * 0.0),
                lambda: v / (v * 0.0), lambda: big @ big.T @ v,
                lambda: v @ np.full((4, 4), 1e308),
            ]
            return makers[rng.integers(len(makers))]()

        steps = [
            lambda v, u: v + u, lambda v, u: v - u, lambda v, u: v * u, lambda v, u: v / u,
            lambda v, u: (np.abs(v.value) + 0.5) ** u, lambda v, u: v.where_mask(mask(), u),
            lambda v, u: v * 3.0, lambda v, u: 2.0 / v, lambda v, u: v / 0.5 - 1.0,
            lambda v, u: 1.5 - v * v, lambda v, u: ad.exp(ad.sigmoid(v)), lambda v, u: ad.expm1(v),
            lambda v, u: ad.log(ad.absolute(v) + 0.1), lambda v, u: ad.log1p(ad.sigmoid(v)),
            lambda v, u: ad.sqrt(ad.absolute(v)), lambda v, u: ad.softplus(v),
            lambda v, u: ad.exp(ad.log_erfc(v)),
            lambda v, u: ad.log_erfc(v), lambda v, u: ad.erfc_inv(ad.sigmoid(v) * 1.8 + 0.1),
            lambda v, u: ad.lgamma(ad.absolute(v) + 0.1), lambda v, u: ad.maximum(v, -0.5),
            lambda v, u: ad.minimum(v, 2.0),
            lambda v, u: v.sum(axis=0, keepdims=True) * u, lambda v, u: v.cumsum(axis=1),
            lambda v, u: v.cumsum(axis=0), lambda v, u: v @ u.T @ u,
            lambda v, u: u.value @ v.T @ v, lambda v, u: v.where_mask(mask(), 1.0),
            lambda v, u: v @ tri,
            lambda v, u: v[::-1], lambda v, u: v[np.array([2, 2, 0])],
            lambda v, u: v.T.T, lambda v, u: v.reshape(4, 3).reshape(3, 4),
            lambda v, u: v.reshape(3, 2, 2).swapaxes(0, 2).swapaxes(0, 2).reshape(3, 4),
            lambda v, u: ad.where_mask(np.eye(4, dtype=bool)[rng.integers(4)], u[:, 1][:, None], v),
            lambda v, u: -v, lambda v, u: ad.relu(v), lambda v, u: ad.absolute(v),
            lambda v, u: v.where_mask(mask(), -u), lambda v, u: v[0] + v,
        ]
        at = rng.integers(30)
        with np.errstate(all="ignore"):
            for k in range(30):
                v, u = (pool[i] for i in rng.integers(len(pool), size=2))
                pool.append(inject(v) if k == at else steps[rng.integers(len(steps))](v, u))
        first = next((i for i, val in enumerate(t.seen) if not np.all(np.isfinite(val))), None)
        assert t.poisoned == first


# The ops with a numpy function, whose module-level functions are
# generated from their records; some take a constant operand.
ELEMENTWISE_OPS = sorted(op for op, rec in ad._OPS.items() if rec.fn is not None)
CONSTANT_OPERAND = {"maximum", "minimum"}
# Non-finite values, signed zeros, values outside log's and erfc_inv's
# domains and at their edges, the smallest subnormal, and exp overflow.
EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0, 2.0, 1.9999999999999998,
               5e-324, 1e-300, 710.0, -750.0, 1e308, -1e308]


class TestModuleLevelDispatch:
    """ad.log / ad.exp etc. accept both Vars and ndarrays."""

    def test_numeric_passthrough(self):
        x = np.array([0.5, 1.5])
        np.testing.assert_allclose(ad.log(x), np.log(x))
        np.testing.assert_allclose(ad.sigmoid(x), 1.0 / (1.0 + np.exp(-x)))
        np.testing.assert_allclose(ad.softplus(x), np.logaddexp(0.0, x))
        np.testing.assert_allclose(ad.absolute(-x), x)
        assert ad.erfc_inv(0.5) == special.erfc_inv(0.5)
        assert ad.log_erfc(1.0) == special.log_erfc(1.0)
        assert np.isnan(ad.erfc_inv(2.0)) and np.isnan(ad.log_erfc(np.inf))

    def test_var_dispatch(self):
        """On a Var each function pushes one node of its op, holding its
        numpy function's bits; a Var has no method of its own for the op."""
        tape = ad.Tape()
        v = tape.param(np.array([0.5, 1.5]), "v")
        for op in ELEMENTWISE_OPS:
            const = (0.7,) if op in CONSTANT_OPERAND else ()
            out = getattr(ad, op)(v, *const)
            assert isinstance(out, ad.Var) and tape.ops[out.idx] == op
            assert out.value.tobytes() == ad._OPS[op].fn(v.value, *const).tobytes(), op
            assert not hasattr(v, op)

    @pytest.mark.parametrize("op", ELEMENTWISE_OPS)
    @given(x=st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)), min_size=1,
                      max_size=8),
           c=st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)))
    def test_array_path_is_the_tape_value(self, op, x, c):
        """On arrays an op returns, without raising, the bits its node would
        hold; a non-finite lane poisons the tape at that node."""
        x = np.array(x)
        const = (c,) if op in CONSTANT_OPERAND else ()
        plain = np.asarray(getattr(ad, op)(x, *const))
        tape = ad.Tape()
        node = getattr(ad, op)(tape.param(x), *const)
        assert plain.shape == node.shape and plain.tobytes() == node.value.tobytes()
        if not np.all(np.isfinite(x)):
            assert tape.poisoned == 0  # the input param
        else:
            assert tape.poisoned == (None if np.all(np.isfinite(plain)) else node.idx)

    def test_where_mask_function_mixed(self):
        """A Var on either side of the mask, a constant on the other: the
        Var's lanes get the adjoint, the constant's lanes 0."""
        mask = np.array([True, False])
        c = np.array([5.0, 6.0])
        for var_first, value, grad in ((True, [1.0, 6.0], [1.0, 0.0]),
                                       (False, [5.0, 2.0], [0.0, 1.0])):
            a = ad.Tape().param(np.array([1.0, 2.0]), "a")
            out = ad.where_mask(mask, a, c) if var_first else ad.where_mask(mask, c, a)
            np.testing.assert_array_equal(out.value, value)
            np.testing.assert_array_equal(ad.backward(out.sum())["a"], grad)

    def test_value_of(self):
        tape = ad.Tape()
        v = tape.param(np.array([1.0]), "v")
        np.testing.assert_allclose(ad.value_of(v), [1.0])
        np.testing.assert_allclose(ad.value_of([2.0]), [2.0])


class TestSamplers:
    def test_gamma_mean(self):
        x = ad.sample_gamma(3.0, special.Rng(0), 1_000_000)
        assert np.mean(x) == pytest.approx(3.0, rel=0.01)

    def test_gamma_small_shape_support(self):
        x = ad.sample_gamma(0.25, special.Rng(1), 100_000)
        assert np.all(x > 0)

    def test_gamma_mean_derivative_wrt_shape(self):
        # d E[gamma(shape)] / d shape = 1; E[draw] = shape is linear so a
        # wide step carries no bias, and equal seeds correlate the draws.
        h = 0.1
        up = ad.sample_gamma(3.0 + h, special.Rng(5), 400_000)
        dn = ad.sample_gamma(3.0 - h, special.Rng(5), 400_000)
        d = (np.mean(up) - np.mean(dn)) / (2 * h)
        assert d == pytest.approx(1.0, abs=0.05)

    def test_gamma_domain(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                ad.sample_gamma(bad, special.Rng(0), 1)

    def test_gamma_node_gradient_wiring(self):
        # For shape >= 1 the node's adjoint is the summed implicit derivative
        # of the acceptance path at the recorded draws.
        tape = ad.Tape()
        a = tape.param(3.0, "a")
        rng = special.Rng(11)
        x = ad.sample_gamma(a, rng, 64)
        grads = ad.backward(x.sum())
        expected = float(np.sum(special.gamma_dsample_dshape(3.0, x.value)))
        assert abs(grads["a"] - expected) / max(1.0, abs(expected)) < 1e-12

    def test_gamma_node_boost_path_below_one(self):
        # shape < 1 composes G_{a+1} * U^(1/a); replay the rng stream to
        # rebuild the same draws and check the hand chain rule.
        a0 = 0.4
        tape = ad.Tape()
        a = tape.param(a0, "a")
        rng = special.Rng(5)
        x = ad.sample_gamma(a, rng, 32)
        grads = ad.backward(x.sum())

        replay = special.Rng(5)
        boost = ad.sample_gamma(a0 + 1.0, replay, 32)
        u = replay.uniform(size=32)
        np.testing.assert_allclose(x.value, boost * u ** (1.0 / a0))
        np.testing.assert_array_equal(x.value, ad.sample_gamma(a0, special.Rng(5), 32))
        d_boost = special.gamma_dsample_dshape(a0 + 1.0, boost)
        expected = np.sum(
            u ** (1.0 / a0) * d_boost
            + boost * u ** (1.0 / a0) * np.log(u) * (-1.0 / a0 ** 2)
        )
        assert abs(grads["a"] - expected) / max(1.0, abs(expected)) < 1e-10

    def test_student_t_large_nu_is_nearly_gaussian(self):
        x = ad.sample_student_t(1e6, special.Rng(2), 100_000)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_student_t_moderate_nu_variance(self):
        x = ad.sample_student_t(5.0, special.Rng(3), 1_000_000)
        assert np.var(x) == pytest.approx(5.0 / 3.0, rel=0.03)

    def test_student_t_clamp_keeps_output_finite(self):
        # at nu = 0.02 the gamma variate (shape 0.01) falls below the floor
        # about half the time and underflows to 0 now and then; the floor
        # keeps every draw finite
        nu, n = 0.02, 10_000
        g = ad.sample_gamma(nu / 2, special.Rng(4), n)
        assert np.any(g == 0.0) and np.mean(g < ad._GAMMA_FLOOR) > 0.1
        x = ad.sample_student_t(nu, special.Rng(4), n)
        assert np.all(np.isfinite(x))

    def test_student_t_domain(self):
        with pytest.raises(ValueError):
            ad.sample_student_t(0.0, special.Rng(0), 1)

    def test_student_t_node_matches_plain_sampler(self):
        tape = ad.Tape()
        nu = tape.param(4.0, "nu")
        draws = ad.sample_student_t(nu, special.Rng(23), 128)
        plain = ad.sample_student_t(4.0, special.Rng(23), 128)
        np.testing.assert_array_equal(draws.value, plain)
        grads = ad.backward((draws * draws).sum())
        assert np.isfinite(grads["nu"])
