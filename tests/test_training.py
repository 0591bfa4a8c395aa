"""Training harness tests: objectives, Adam semantics, run control,
divergence handling, and small variational fits with analytic optima."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from tailflow import autodiff as ad
from tailflow import experiments, flows, special, training

LOG_2PI = 1.8378770664093454836


def quad_target(c):
    """log density -c*||x||^2, callable on arrays and tape variables."""

    def tgt(x):
        if isinstance(x, ad.Var):
            return (x * x).sum(axis=1) * (-c)
        return -c * np.sum(np.asarray(x) ** 2, axis=1)

    return tgt


def affine_1d(b3, seed=3):
    """Single-layer affine flow on R; with zero conditioner weights the
    map is exactly x = b3[0] + exp(b3[1]) * z."""
    layer = flows.AffineArLayer(1, "affine")
    params = layer.init_params(special.Rng(seed))
    params["affine.cond.b3"] = np.asarray(b3, dtype=float)
    return flows.FlowModel(
        name="affine1", d=1, base=flows.StdNormalBase(1),
        layers=[layer], params=params, frozen=set(),
    )


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="learning rate"):
            training.TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="max_epochs"):
            training.TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="patience"):
            training.TrainConfig(patience=0)
        with pytest.raises(ValueError, match="batch size"):
            training.TrainConfig(batch_size=0)
        for bad in (0.0, -1.0, float("nan")):  # a negative norm would flip every gradient
            with pytest.raises(ValueError, match="clip_norm"):
                training.TrainConfig(clip_norm=bad)

    def test_full_pass_sentinel_accepted(self):
        cfg = training.TrainConfig(batch_size=training.FULL_PASS)
        assert cfg.batch_size is None


class TestDeLoss:
    def test_identity_flow_at_origin(self):
        model = flows.build_architecture("normal", 3, seed=0)
        loss = training.de_loss(model, np.zeros((1, 3)))
        assert abs(loss - 1.5 * LOG_2PI) < 1e-12

    def test_empty_batch_rejected(self):
        model = flows.build_architecture("normal", 2, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            training.de_loss(model, np.zeros((0, 2)))

    def test_gradient_matches_finite_differences(self):
        layer = flows.MarginalTtfLayer(1, "tails")
        params = layer.init_params(special.Rng(3))
        model = flows.FlowModel(
            name="tiny", d=1, base=flows.StdNormalBase(1),
            layers=[layer], params=params, frozen=set(),
        )
        batch = np.array([[0.5], [-1.2], [3.0], [0.1]])

        tape = ad.Tape()
        tp = model.tape_params(tape)
        grads = ad.backward(training.de_loss(model, batch, tp))

        for key in params:
            h = 1e-6
            pp = dict(model.params)
            pm = dict(model.params)
            pp[key] = params[key] + h
            pm[key] = params[key] - h
            model.params = pp
            up = training.de_loss(model, batch)
            model.params = pm
            dn = training.de_loss(model, batch)
            model.params = dict(params)
            fd = (up - dn) / (2 * h)
            g = float(grads[key][0])
            assert abs(g - fd) / max(1.0, abs(g)) < 1e-4, key

    def test_loss_decreases_on_gaussian_data(self):
        r = np.random.default_rng(4)
        data = r.normal(size=(300, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]]) + 1.5
        model = flows.build_architecture("normal", 2, seed=1)
        cfg = training.TrainConfig(lr=5e-3, max_epochs=50, patience=100, seed=0)
        res = training.fit_density(model, data[:200], data[200:], cfg)
        assert res.trace[-1, 0] < res.trace[0, 0]


class TestTapeNodeCounts:
    """Tape sizes are deterministic, so they are gated.  Each bound is the
    count the code reached when the gate was set; lower it when a change
    shrinks the tape, never raise it."""

    @pytest.mark.parametrize("name,d,bound", [
        ("TTF", 5, 185), ("TTF", 20, 190), ("TTFfix", 5, 178), ("mTAF", 5, 156),
    ])
    def test_de_loss_tape(self, name, d, bound):
        model = flows.build_architecture(name, d, seed=0)
        x = special.Rng(1).student_t(2.0, (2000, d))
        tape = ad.Tape()
        training.de_loss(model, x, model.tape_params(tape))
        assert len(tape.ops) <= bound

    @pytest.mark.parametrize("direction", ["de", "elbo"])
    @pytest.mark.parametrize("name", flows.ARCHITECTURES)
    def test_tape_holds_no_constant_node(self, name, direction):
        # frozen params, data and draws stay arrays on the tape: its only
        # leaves are the trainable params
        tape = self._tape_of(name, direction, d=3)
        leaves = [i for i, par in enumerate(tape.parents) if not par]
        assert sorted(tape.param_nodes) == leaves
        model = flows.build_architecture(name, 3)
        assert sorted(tape.param_nodes.values()) == sorted(set(model.params) - model.frozen)

    def test_rqs_inverse_tape_does_not_grow_with_d(self):
        added = []
        for d in (5, 20):
            layer = flows.RqsArLayer(d, "rqs")
            tape = ad.Tape()
            params = {k: tape.param(v, k) for k, v in layer.init_params(special.Rng(0)).items()}
            x = special.Rng(1).student_t(2.0, (200, d))
            before = len(tape.ops)
            layer.inverse(params, x)
            added.append(len(tape.ops) - before)
        assert added[0] == added[1]

    @pytest.mark.parametrize("d,bound", [(5, 582), (20, 2142)])
    def test_ttf_elbo_sampling_tape(self, d, bound):
        model = flows.build_architecture("TTF", d, seed=0)
        tape = ad.Tape()
        flows.flow_sample_with_log_prob(model, model.tape_params(tape), special.Rng(2), 100)
        assert len(tape.ops) <= bound

    def test_mtaf_elbo_sampling_tape(self):
        # the frozen Student-T base draws plain numpy: its draws and its
        # density add no node
        model = flows.build_architecture("mTAF", 5, seed=0)
        tape = ad.Tape()
        flows.flow_sample_with_log_prob(model, model.tape_params(tape), special.Rng(2), 100)
        assert len(tape.ops) <= 547

    @pytest.mark.parametrize("name,d,bound", [
        ("gTAF", 5, 630), ("gTAF", 20, 2370), ("TTF_tBase", 5, 665), ("TTF_tBase", 20, 2405),
    ])
    def test_trainable_nu_elbo_sampling_tape(self, name, d, bound):
        # a trainable Student-T base draws one tape column per dimension and
        # writes each into its (n, d) draws with two nodes
        model = flows.build_architecture(name, d, seed=0)
        tape = ad.Tape()
        flows.flow_sample_with_log_prob(model, model.tape_params(tape), special.Rng(2), 100)
        assert len(tape.ops) <= bound

    @staticmethod
    def _tape_of(name, direction, d=5):
        model = flows.build_architecture(name, d, seed=0)
        tape = ad.Tape()
        params = model.tape_params(tape)
        if direction == "de":
            training.de_loss(model, special.Rng(1).student_t(2.0, (200, d)), params)
        else:
            flows.flow_sample_with_log_prob(model, params, special.Rng(2), 100)
        return tape

    def test_constant_product_is_a_matmul_const_node(self):
        # in a normal flow's DE pass the data feed the affine conditioner
        # as they are: their product with its weights is one matmul_const
        assert "matmul_const" in self._tape_of("normal", "de").ops


class TestOpCoverage:
    def test_library_pushes_every_op(self, monkeypatch):
        # Every tape op is pushed by some library path: the DE loss and its
        # backward and the ELBO step of every architecture, on heavy data with
        # nu < 2 so that the Student-T sampler takes its c ** x branch
        # (rpow_const), and the regression MLP with both activations.  An op
        # that only tests push should go.
        pushed = set()
        push = ad.Tape._push

        def recording(tape, op, ins, value, payload=None):
            pushed.add(op)
            return push(tape, op, ins, value, payload)

        monkeypatch.setattr(ad.Tape, "_push", recording)
        d, nu = 3, 1.5
        x = special.Rng(1).student_t(nu, (200, d))
        with np.errstate(all="ignore"):
            for name in flows.ARCHITECTURES:
                model = flows.build_architecture(name, d, seed=0)
                if "base.nu_raw" in model.params:
                    flows.set_frozen_nu(model, np.full(d, nu))
                ad.backward(training.de_loss(model, x, model.tape_params(ad.Tape())))
                step = training.elbo_gradient_step(
                    model, lambda z: experiments.vi_target_log_density(z, d, nu), 50,
                    special.Rng(2))
                assert step.grads is not None, name
            data = tuple(experiments.gen_regression(d, nu, 100, special.Rng(3 + i))
                         for i in range(3))
            for activation in ("sigmoid", "relu"):
                experiments.fit_mlp_regressor(activation, data, max_epochs=1)
        assert set(ad._OPS) - pushed == set()


class TestTapeMemory:
    """Traced memory of the tape of ``TestTapeNodeCounts`` once built,
    backward's on top of it, and the peak of the two.  Allocation sizes are
    deterministic for a given numpy, so they are gated, with headroom over
    what was measured when the gate was set.  A built tape took 7.8 MB (d=5)
    and 27.8 MB (d=20), backward 2.5 and 9.9 MB more, and the d=20 peak was
    39.8 MB.  Since ``div`` and ``rdiv_const`` recompute their quotients and
    ``relu`` reads its own output, the tapes take 5.9 and 22.1 MB; since
    backward frees each saved value once its rules have run, backward adds
    0.9 and 3.5 MB, and the d=20 peak is the build's, 25.8 MB.  Lower a
    bound when a change shrinks memory, never raise it."""

    @staticmethod
    def _model_and_data(d):
        return (flows.build_architecture("TTF", d, seed=0),
                special.Rng(1).student_t(2.0, (2000, d)))

    @pytest.mark.parametrize("d,bound_mb", [(5, 7.0), (20, 24.0)])
    def test_ttf_de_tape_size(self, d, bound_mb):
        # the tape keeps only the values backward reads
        model, x = self._model_and_data(d)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = training.de_loss(model, x, model.tape_params(ad.Tape()))
            built = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.tape.ops
        assert (built - before) / 1e6 <= bound_mb

    @pytest.mark.parametrize("d,bound_mb", [(5, 1.5), (20, 5.0)])
    def test_ttf_de_backward_overhead(self, d, bound_mb):
        model, x = self._model_and_data(d)
        tracemalloc.start()
        try:
            loss = training.de_loss(model, x, model.tape_params(ad.Tape()))
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - built) / 1e6 <= bound_mb

    def test_ttf_de_step_peak(self):
        # build and backward of a d=20 step, as ``training.gradient`` runs them
        model, x = self._model_and_data(20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            training.gradient(training.de_loss(model, x, model.tape_params(ad.Tape())))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1e6 <= 28.0

    @pytest.mark.parametrize("name", flows.ARCHITECTURES)
    def test_saved_values_are_not_views_of_larger_arrays(self, name):
        # a saved view would keep its whole base alive, e.g. a column slice
        # of the raw knot rows the whole (n d, 14) matrix
        model = flows.build_architecture(name, 3, seed=0)
        x = special.Rng(1).student_t(2.0, (100, 3))
        tape = training.de_loss(model, x, model.tape_params(ad.Tape())).tape
        for op, v in zip(tape.ops, tape.values):
            base = v.base
            assert not (isinstance(base, np.ndarray) and base.nbytes > v.nbytes), op


class TestRepeatedBackward:
    def test_second_sweep_raises(self):
        # backward frees the tape's saved values as it sweeps, so a second
        # sweep of the same loss raises instead of reading freed slots
        model = flows.build_architecture("TTF", 3, seed=0)
        model.params = {k: v + 0.05 for k, v in model.params.items()}
        x = special.Rng(1).student_t(2.0, (50, 3))
        loss = training.de_loss(model, x, model.tape_params(ad.Tape()))
        assert all(np.all(np.isfinite(g)) for g in ad.backward(loss).values())
        assert all(v is ad._UNSAVED for v in loss.tape.values)
        with pytest.raises(RuntimeError, match="swept before"):
            ad.backward(loss)


class TestAdam:
    def test_quadratic_bowl_converges(self):
        a = np.array([1.5, -0.8, 2.0])
        w = np.array([1.0, 4.0, 0.25])
        params = {"x": np.zeros(3)}
        state = training.adam_init(params)
        for _ in range(2000):
            params = training.adam_step(params, {"x": w * (params["x"] - a)}, state, 0.05)
        assert np.max(np.abs(params["x"] - a)) < 1e-6

    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"x": np.array([1.0, -2.0])}
        state = training.adam_init(params)
        out = training.adam_step(params, {"x": np.zeros(2)}, state, 0.1)
        np.testing.assert_array_equal(out["x"], params["x"])

    def test_clip_applied_before_moment_update(self):
        g = np.array([6.0, 8.0])  # norm 10, clipped to norm 5
        params = {"x": np.zeros(2)}
        state = training.adam_init(params)
        training.adam_step(params, {"x": g.copy()}, state, 0.01, clip_norm=5.0)
        np.testing.assert_allclose(state["m"]["x"], 0.1 * (g * 0.5), atol=1e-15)
        np.testing.assert_allclose(state["v"]["x"], 0.001 * (g * 0.5) ** 2, atol=1e-15)
        kept = {"x": g}
        assert training.clip_gradient_norm(kept, 10.0) is kept  # at the bound

    def test_clip_survives_squares_that_overflow(self):
        # g * g overflows to inf (silenced here, as under the fit's errstate),
        # so the norm is taken of g / max|g|; the clipped g keeps its direction
        g = np.array([1e160, 1.0, -3e159])
        with np.errstate(over="ignore"):
            out = training.clip_gradient_norm({"a": g[:2], "b": g[2:]}, 5.0)
        got = np.concatenate([out["a"], out["b"]])
        assert np.linalg.norm(got) == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(got, 5.0 * (g / 1e160) / np.linalg.norm(g / 1e160),
                                   rtol=1e-12)
        assert got[1] > 0.0

    def test_missing_gradient_passes_parameter_through(self):
        params = {"x": np.array([1.0]), "frozen": np.array([7.0])}
        state = training.adam_init(params)
        out = training.adam_step(params, {"x": np.array([0.3])}, state, 0.1)
        np.testing.assert_array_equal(out["frozen"], params["frozen"])
        assert out["x"][0] != params["x"][0]

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    def test_joined_update_is_the_per_array_formula_bit_for_bit(self, clip_norm):
        # mixed shapes, a 0-d entry and a key without a gradient: each
        # parameter and moment gets the bits of Adam run on its array alone
        b1, b2, eps = training._ADAM_BETA1, training._ADAM_BETA2, training._ADAM_EPS

        def per_array(params, grads, state, lr):
            if clip_norm is not None:
                grads = training.clip_gradient_norm(grads, clip_norm)
            state["t"] += 1
            c1, c2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
            out = dict(params)
            for k, g in grads.items():
                m = state["m"][k] = b1 * state["m"][k] + (1.0 - b1) * g
                v = state["v"][k] = b2 * state["v"][k] + (1.0 - b2) * (g * g)
                out[k] = params[k] - lr * (m / c1) / (np.sqrt(v / c2) + eps)
            return out

        rng = np.random.default_rng(0)
        shapes = {"w": (3, 4), "s": (), "frozen": (2,), "b": (4,), "row": (1, 5)}
        params = {k: np.asarray(rng.normal(size=s)) for k, s in shapes.items()}
        state = training.adam_init(params)
        ref, ref_state = dict(params), {"m": dict(state["m"]), "v": dict(state["v"]), "t": 0}
        for _ in range(4):
            grads = {k: np.asarray(rng.normal(size=s) * 10.0 ** rng.uniform(-3, 3))
                     for k, s in shapes.items() if k != "frozen"}
            params = training.adam_step(params, grads, state, 0.01, clip_norm)
            ref = per_array(ref, grads, ref_state, 0.01)
            assert state["t"] == ref_state["t"]
            for k in grads:
                for got, want in ((params, ref), (state["m"], ref_state["m"]),
                                  (state["v"], ref_state["v"])):
                    assert np.shape(got[k]) == shapes[k]
                    assert np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes(), k
            assert params["frozen"] is ref["frozen"]


class TestElboGradientStep:
    def test_gradient_mean_zero_at_optimum(self):
        # identity-initialised flow equals the N(0,I) target: every
        # parameter's gradient should average to zero across estimates
        model = flows.build_architecture("normal", 2, seed=0)
        rng = special.Rng(5)
        sums, sqs = {}, {}
        reps = 200
        for _ in range(reps):
            st = training.elbo_gradient_step(model, quad_target(0.5), 100, rng)
            for k, g in st.grads.items():
                sums[k] = sums.get(k, 0.0) + g
                sqs[k] = sqs.get(k, 0.0) + g * g
        for k in sums:
            mean = sums[k] / reps
            var = np.maximum(sqs[k] / reps - mean**2, 0.0)
            se = np.sqrt(var / reps)
            assert np.all(np.abs(mean) <= 3 * se + 1e-12), k

    def test_gradients_of_twenty_ttf_steps_pinned(self):
        # sha256 of the gradients of 20 d=5 TTF ELBO steps (M=100), Adam
        # moving the parameters in between: any change to the tape's values,
        # gradients or draws, or to Adam's bits, shows here
        model = flows.build_architecture("TTF", 5, seed=0)
        trained = [k for k in model.params if k not in model.frozen]
        state = training.adam_init({k: model.params[k] for k in trained})
        rng, digest = special.Rng(0), hashlib.sha256()
        with np.errstate(all="ignore"):
            for _ in range(20):
                st = training.elbo_gradient_step(
                    model, lambda x: experiments.vi_target_log_density(x, 5, 2.0), 100, rng)
                for k in sorted(st.grads):
                    digest.update(k.encode() + st.grads[k].tobytes())
                model.params.update(training.adam_step(
                    {k: model.params[k] for k in trained}, st.grads, state, 5e-3))
        assert digest.hexdigest() == \
            "b36a5c3a83d4352834a786a0f8306ca7d52789aadd2f91278e6274a60cf728cf"

    def test_sample_count_validated(self):
        model = flows.build_architecture("normal", 2, seed=0)
        with pytest.raises(ValueError):
            training.elbo_gradient_step(model, quad_target(0.5), 0, special.Rng(0))

    def test_non_finite_target_drops_samples(self):
        model = flows.build_architecture("normal", 2, seed=0)

        def patchy(x):
            vals = quad_target(0.5)(x)
            if isinstance(vals, ad.Var):
                first = np.asarray(x.value)[:, 0]
                return ad.where_mask(first < 0.5, vals, np.nan)
            return np.where(np.asarray(x)[:, 0] < 0.5, vals, np.nan)

        st = training.elbo_gradient_step(model, patchy, 400, special.Rng(7))
        assert st.dropped > 0
        assert st.grads is not None
        assert all(np.all(np.isfinite(g)) for g in st.grads.values())

    def test_all_dropped_signals_divergence(self):
        model = flows.build_architecture("normal", 2, seed=0)

        def hostile(x):
            vals = quad_target(0.5)(x)
            if isinstance(vals, ad.Var):
                n = np.asarray(x.value).shape[0]
                return ad.where_mask(np.zeros(n, dtype=bool), vals, np.nan)
            return np.full(np.asarray(x).shape[0], np.nan)

        st = training.elbo_gradient_step(model, hostile, 50, special.Rng(7))
        assert st.grads is None

    def test_fully_frozen_model_gives_empty_gradients(self):
        model = flows.build_architecture("normal", 2, seed=0)
        model.frozen = set(model.params)
        st = training.elbo_gradient_step(model, quad_target(0.5), 50, special.Rng(7))
        assert st.grads == {} and np.isfinite(st.elbo)


class TestFailuresOnRealTapes:
    """The failure returns of ``gradient`` and ``elbo_gradient_step``, reached
    by real tapes rather than by stubbed steps."""

    def test_nan_row_gives_a_nan_loss_and_no_gradients(self):
        model = flows.build_architecture("TTF", 3, seed=0)
        x = special.Rng(1).student_t(2.0, (20, 3))
        x[4, 1] = np.nan
        value, grads = training.gradient(
            training.de_loss(model, x, model.tape_params(ad.Tape())))
        assert np.isnan(value) and grads is None

    def test_finite_loss_over_a_poisoned_tape_gives_no_gradients(self):
        # the log of -1 poisons the tape; the mask keeps it out of the loss
        x = ad.Tape().param(np.array([2.0, -1.0]), "x")
        loss = ad.where_mask(np.array([True, False]), ad.log(x), 0.0).sum()
        value, grads = training.gradient(loss)
        assert value == np.log(2.0) and grads is None
        assert x.tape.ops[x.tape.poisoned] == "log"

    def test_target_poisoning_a_masked_lane_fails_the_elbo_step(self, caplog):
        def target(x):
            # finite on every draw, so none is dropped; on the tape the log
            # of a negative first coordinate poisons a node the mask drops
            positive = ad.value_of(x)[:, 0] > 0.0
            return ad.where_mask(positive, ad.log(x[:, 0]), 0.0) + quad_target(0.5)(x)

        model = flows.build_architecture("normal", 2, seed=0)
        st = training.elbo_gradient_step(model, target, 50, special.Rng(7))
        assert st.grads is None and np.isnan(st.elbo) and st.dropped == 50
        assert "dropped" not in caplog.text


class TestFit:
    def test_failed_step_restores_params_and_adam_state_at_half_lr(self, monkeypatch,
                                                                   tmp_path):
        # Calls 3, 5 and 6 of a quadratic step fail.  Each failure restores
        # the parameters and Adam's m, v and t of the last good step and halves
        # the lr, and the retry budget runs 5 -> 2 -> 1 -> 0: the third failure
        # ends the fit at the last good parameters.
        updates = []  # (params, m, v, t, lr, new params) of each Adam update
        adam_step = training.adam_step

        def recording(params, grads, state, lr, clip_norm=None):
            before = (dict(params), dict(state["m"]), dict(state["v"]), state["t"], lr)
            out = adam_step(params, grads, state, lr, clip_norm)
            updates.append(before + (out,))
            return out

        monkeypatch.setattr(training, "adam_step", recording)
        params = {"x": np.array([1.0, -2.0]), "c": np.array([0.5])}
        c = params["c"]
        calls = []

        def step(batch):
            calls.append(batch)
            if len(calls) in (3, 5, 6):
                return float("nan"), None
            r = params["x"] - params["c"]
            return 0.5 * float(r @ r), {"x": r}

        cfg = training.TrainConfig(lr=0.1, max_epochs=50)
        path = tmp_path / "trace.csv"
        res = training.fit(params, {"c"}, step, lambda: ["all"], None, cfg, str(path))

        assert calls == ["all"] * 6 and len(updates) == 3
        assert res.epochs == 6 and res.diverged
        failed = [2, 4, 5]
        assert np.all(np.isnan(res.trace[failed, 0]))
        assert np.all(np.isfinite(np.delete(res.trace[:, 0], failed)))
        assert np.all(np.isnan(res.trace[:, 1]))
        lines = path.read_text().strip().split("\n")
        np.testing.assert_array_equal([float(ln.split(",")[1]) for ln in lines[1:]],
                                      res.trace[:, 0])
        # the retry starts where the failed step's update did, at half its lr
        (p1, m1, v1, t1, lr1, failed_out), (p2, m2, v2, t2, lr2, retry_out) = updates[1:]
        np.testing.assert_array_equal(p2["x"], p1["x"])
        np.testing.assert_array_equal(m2["x"], m1["x"])
        np.testing.assert_array_equal(v2["x"], v1["x"])
        assert (t1, t2) == (1, 1) and (lr1, lr2) == (0.1, 0.05)
        np.testing.assert_allclose(retry_out["x"] - p1["x"], 0.5 * (failed_out["x"] - p1["x"]),
                                   rtol=1e-12)
        # two more failures: the fit ends restored to the last good parameters
        np.testing.assert_array_equal(params["x"], p1["x"])
        assert params["c"] is c and set(params) == {"x", "c"}

    def test_non_finite_gradient_of_finite_loss_is_a_failed_step(self, monkeypatch):
        # Call 2 adds sqrt(0 x), whose value is 0 but whose gradient is NaN:
        # ``gradient`` gives None, so the step is restored and retried at
        # half the lr, like a step whose loss is non-finite.
        updates = []  # (params, t, lr) of each Adam update
        adam_step = training.adam_step

        def recording(params, grads, state, lr, clip_norm=None):
            updates.append((dict(params), state["t"], lr))
            return adam_step(params, grads, state, lr, clip_norm)

        monkeypatch.setattr(training, "adam_step", recording)
        params = {"x": np.array([1.0, -2.0])}
        calls = []

        def step(batch):
            calls.append(batch)
            x = ad.Tape().param(params["x"], "x")
            loss = (x * x).sum() * 0.5
            if len(calls) == 2:
                loss = loss + ad.sqrt(x * 0.0).sum()
            return training.gradient(loss)

        cfg = training.TrainConfig(lr=0.1, max_epochs=4)
        res = training.fit(params, set(), step, lambda: ["all"], None, cfg)

        assert len(calls) == 4 and res.epochs == 4 and not res.diverged
        assert np.isnan(res.trace[1, 0])
        assert np.all(np.isfinite(np.delete(res.trace[:, 0], 1)))
        assert [(t, lr) for _, t, lr in updates] == [(0, 0.1), (0, 0.05), (1, 0.05)]
        np.testing.assert_array_equal(updates[1][0]["x"], updates[0][0]["x"])


class TestFitDensity:
    def test_flat_validation_stops_after_patience(self):
        model = flows.build_architecture("normal", 1, seed=0)
        model.frozen = set(model.params)  # nothing trains: loss exactly flat
        data = np.random.default_rng(0).normal(size=(50, 1))
        cfg = training.TrainConfig(lr=1e-3, max_epochs=10_000, patience=100, seed=0)
        res = training.fit_density(model, data, data, cfg)
        assert res.epochs == 101
        assert not res.diverged

    def test_synthetic_heavy_tail_fit_beats_two_nats(self):
        tr, va, te, _ = experiments.gen_synthetic_de(
            experiments.SyntheticDeSpec(5, 2.0, n=5000, seed=0)
        )
        cfg = training.TrainConfig(lr=5e-3, max_epochs=600, patience=100, seed=0)
        rows = experiments.fit_de_cell("TTF", tr, va, te, 0, cfg, nu=2.0)
        nll_per_dim = rows[0]["value"]
        assert not rows[0]["diverged"]
        assert nll_per_dim < 2.0

    def test_same_seed_reproduces_trace(self):
        r = np.random.default_rng(1)
        data = r.normal(size=(200, 2))
        cfg = training.TrainConfig(lr=5e-3, max_epochs=20, patience=100, seed=3)
        traces = []
        for _ in range(2):
            model = flows.build_architecture("TTF", 2, seed=4)
            res = training.fit_density(model, data[:150], data[150:], cfg)
            traces.append(res.trace)
        np.testing.assert_array_equal(traces[0], traces[1])

    def test_model_left_at_best_validation_params(self):
        r = np.random.default_rng(2)
        data = r.normal(size=(120, 2)) + 0.7
        model = flows.build_architecture("normal", 2, seed=5)
        cfg = training.TrainConfig(lr=1e-2, max_epochs=40, patience=100, seed=0)
        res = training.fit_density(model, data[:80], data[80:], cfg)
        valid_now = float(training.de_loss(model, data[80:])) / 40
        assert abs(valid_now - np.nanmin(res.trace[:, 1])) < 1e-12

    def test_huge_validation_loss_flags_divergence(self):
        model = flows.build_architecture("normal", 1, seed=0)
        train = np.random.default_rng(0).normal(size=(50, 1))
        valid = np.full((10, 1), 1e6)
        cfg = training.TrainConfig(lr=1e-3, max_epochs=3, patience=100, seed=0)
        res = training.fit_density(model, train, valid, cfg)
        assert res.diverged

    def test_failed_full_pass_step_is_retried_as_a_different_step(self, monkeypatch):
        # The second step comes back non-finite.  The retry starts from the
        # first step's parameters and Adam state, at half the learning rate:
        # Adam's first step moves each parameter by lr g / |g|, so the retry
        # moves it by half of what the first step did, not by the same again.
        seen = []
        de_gradient = training._de_gradient

        def second_fails(model, batch):
            seen.append(model.copy_params())
            loss, grads = de_gradient(model, batch)
            return (float("nan"), None) if len(seen) == 2 else (loss, grads)

        monkeypatch.setattr(training, "_de_gradient", second_fails)
        data = special.Rng(0).student_t(3.0, (120, 2))
        cfg = training.TrainConfig(lr=5e-3, max_epochs=4, patience=10, seed=0)
        res = training.fit_density(flows.build_architecture("TTF", 2, seed=0), data[:80],
                                   data[80:], cfg)
        assert res.epochs == 4 and not res.diverged
        assert np.isnan(res.trace[1, 0]) and np.all(np.isfinite(np.delete(res.trace, 1, 0)))
        start, failed, retry_start, retried = seen
        for k, p0 in start.items():
            np.testing.assert_array_equal(retry_start[k], p0)
            np.testing.assert_allclose(retried[k] - p0, 0.5 * (failed[k] - p0),
                                       rtol=1e-6, atol=1e-12)
        assert any(np.any(retried[k] != failed[k]) for k in start)

    def test_trace_file_schema(self, tmp_path):
        model = flows.build_architecture("normal", 1, seed=0)
        data = np.random.default_rng(0).normal(size=(60, 1))
        path = str(tmp_path / "trace.csv")
        cfg = training.TrainConfig(lr=1e-3, max_epochs=5, patience=100, seed=0)
        res = training.fit_density(model, data[:40], data[40:], cfg, trace_path=path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "epoch,train_loss,valid_loss"
        assert len(lines) == res.epochs + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == res.trace[0, 0]  # repr round-trips exactly


class TestFitVi:
    def test_affine_flow_recovers_standard_normal(self):
        model = affine_1d([0.8, 0.4])
        cfg = training.TrainConfig(lr=1e-2, batch_size=100, max_epochs=800,
                                   patience=1, seed=2)
        res = training.fit_vi(model, quad_target(0.5), cfg)
        b3 = model.params["affine.cond.b3"]
        assert not res.diverged
        assert abs(b3[0]) < 0.05
        assert abs(np.exp(b3[1]) - 1.0) < 0.05

    def test_smoothed_elbo_trace_non_decreasing(self):
        model = affine_1d([0.8, 0.4])
        cfg = training.TrainConfig(lr=1e-2, batch_size=100, max_epochs=800,
                                   patience=1, seed=2)
        res = training.fit_vi(model, quad_target(0.5), cfg)
        window_means = (-res.trace[:, 0]).reshape(8, 100).mean(axis=1)
        assert np.all(np.diff(window_means) > -0.01)
        assert window_means[-1] > window_means[0]

    def test_elbo_at_optimum_estimates_log_normalizer(self):
        # target exp(-x^2/8) integrates to 2*sqrt(2*pi)
        model = affine_1d([0.0, 0.0], seed=4)
        cfg = training.TrainConfig(lr=1e-2, batch_size=100, max_epochs=1500,
                                   patience=1, seed=5)
        training.fit_vi(model, quad_target(0.125), cfg)
        step = training.elbo_gradient_step(model, quad_target(0.125), 20_000,
                                           special.Rng(77))
        log_z = np.log(2.0) + 0.5 * np.log(2 * np.pi)
        assert abs(step.elbo - log_z) < 0.02

    def test_near_gaussian_target_reaches_high_ess(self):
        target = lambda x: experiments.vi_target_log_density(x, 5, 30.0)
        model = experiments._two_stage_model("TTFfix", 5, 0, 30.0)
        cfg = experiments.vi_train_config(0, 30.0, iterations=2000)
        res = training.fit_vi(model, target, cfg)
        diag = experiments.compute_vi_diagnostics(
            model, target, 10_000, special.Rng(0).child(991)
        )
        assert not res.diverged
        assert diag.ess_e >= 0.7

    def test_frozen_tail_parameters_never_move(self):
        model = experiments._two_stage_model("TTFfix", 2, 0, 2.0)
        lp = model.params["tails.lp_raw"].copy()
        ln = model.params["tails.ln_raw"].copy()
        step = training.elbo_gradient_step(model, quad_target(0.5), 50, special.Rng(1))
        assert "tails.lp_raw" not in step.grads
        cfg = training.TrainConfig(lr=1e-2, batch_size=50, max_epochs=100,
                                   patience=1, seed=0)
        training.fit_vi(model, quad_target(0.5), cfg)
        np.testing.assert_array_equal(model.params["tails.lp_raw"], lp)
        np.testing.assert_array_equal(model.params["tails.ln_raw"], ln)

    def test_full_pass_rejected(self):
        cfg = training.TrainConfig(batch_size=training.FULL_PASS)
        with pytest.raises(ValueError, match="full pass"):
            training.fit_vi(affine_1d([0.5, 0.1]), quad_target(0.5), cfg)

    @pytest.mark.parametrize("name", ["m_normal", "g_normal"])
    def test_base_without_reparameterized_draws_rejected(self, name):
        # the gradient would miss the base parameters' path through the draws
        cfg = training.TrainConfig(lr=1e-3, batch_size=20, max_epochs=2, patience=1)
        with pytest.raises(ValueError, match=f"VI needs reparameterized base draws; {name}'s"):
            training.fit_vi(flows.build_architecture(name, 2), quad_target(0.5), cfg)

    def test_hostile_target_exhausts_retry_budget(self):
        def hostile(x):
            vals = quad_target(0.5)(x)
            if isinstance(vals, ad.Var):
                n = np.asarray(x.value).shape[0]
                return ad.where_mask(np.zeros(n, dtype=bool), vals, np.nan)
            return np.full(np.asarray(x).shape[0], np.nan)

        model = flows.build_architecture("normal", 2, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = training.TrainConfig(lr=1e-3, batch_size=20, max_epochs=50,
                                   patience=1, seed=0)
        res = training.fit_vi(model, hostile, cfg)
        assert res.diverged
        assert res.epochs == 3  # retry budget 5 -> 2 -> 1 -> 0
        assert np.all(np.isnan(res.trace))
        for k, v in before.items():
            np.testing.assert_array_equal(model.params[k], v)

    def test_same_seed_reproduces_trace(self):
        traces = []
        for _ in range(2):
            model = affine_1d([0.5, 0.1])
            cfg = training.TrainConfig(lr=1e-2, batch_size=50, max_epochs=60,
                                       patience=1, seed=9)
            traces.append(training.fit_vi(model, quad_target(0.5), cfg).trace)
        np.testing.assert_array_equal(traces[0], traces[1])


class TestModuleLevelCalls:
    """The benchmark's epoch and step clocks replace ``training.de_loss`` and
    ``training.elbo_gradient_step`` by wrappers, so the fit loops must call
    them through the module: a numpy ``de_loss`` once per epoch, for the
    validation loss, and ``elbo_gradient_step`` once per iteration."""

    def test_fit_density_validates_through_de_loss_once_per_epoch(self, monkeypatch):
        calls = {"numpy": 0, "tape": 0}
        orig = training.de_loss

        def counting(model, batch, params=None):
            out = orig(model, batch, params)
            calls["tape" if isinstance(out, ad.Var) else "numpy"] += 1
            return out

        monkeypatch.setattr(training, "de_loss", counting)
        data = special.Rng(0).student_t(3.0, (120, 2))
        cfg = training.TrainConfig(lr=5e-3, max_epochs=4, batch_size=40, patience=10, seed=0)
        res = training.fit_density(flows.build_architecture("TTF", 2, seed=0), data[:80],
                                   data[80:], cfg)
        assert res.epochs == 4
        assert calls == {"numpy": 4, "tape": 8}  # two batches of 40 per epoch

    def test_fit_vi_steps_through_elbo_gradient_step(self, monkeypatch):
        calls = []
        orig = training.elbo_gradient_step

        def counting(model, log_unnorm_target, M, rng):
            calls.append(M)
            return orig(model, log_unnorm_target, M, rng)

        monkeypatch.setattr(training, "elbo_gradient_step", counting)
        cfg = training.TrainConfig(lr=1e-2, batch_size=30, max_epochs=5, patience=1, seed=0)
        res = training.fit_vi(affine_1d([0.5, 0.1]), quad_target(0.5), cfg)
        assert res.epochs == 5
        assert calls == [30] * 5
