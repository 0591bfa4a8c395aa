"""Minimal reverse-mode automatic differentiation.

A :class:`Tape` is an append-only list of nodes (operation id, parent
indices, saved payload); construction order is topological order, so a
single reversed sweep computes every adjoint.  Node values are numpy arrays,
and a :class:`Var` follows the subset of numpy semantics the package uses:
arithmetic broadcasts between operands and against constants, ``@`` is a
matrix product of 1-d and 2-d operands, ``x[key]`` takes basic slices, ints
and integer-array gathers, ``x.T``, ``x.reshape`` and ``x.swapaxes`` move
entries, ``x.sum(axis, keepdims)`` reduces and ``x.cumsum(axis)`` sums
along an axis.  As ``x * c`` is one ``mul_const`` node, a matrix product
with a constant operand, ``x @ C`` or ``C @ x``, is one ``matmul_const``
node: ``C`` goes in the payload, is never lifted onto the tape, and gets no
gradient, and the node saves nothing.  Each op computes exactly what numpy
computes (``x / c`` is a true division, not ``x * (1 / c)``), so one
formula gives the same bits on numpy arrays and on tape variables.

Each op is declared once, by its record in ``_OPS``: its backward rule,
what the rule reads, whether it is entry-moving (see below), and for an
elementwise op its numpy function.  The ``Var`` methods ``x.exp()``,
``x.log()``, ... and the module-level ``exp``, ``log``, ``absolute``, ...,
which take a Var or an array, are generated from those records, so the tape
and plain numpy compute with one function, in the same ``np.errstate``.
Backward runs one rule per node and sums each adjoint back to its operand's
shape, undoing any broadcast.

Each :class:`Var` carries its own value; the tape saves a value for
backward only where a rule reads it, as its record declares (the node's
own value, as ``exp`` reads, and/or some parents' values, as ``mul`` reads
both).  Every other slot of ``Tape.values`` holds one shared
zero-size placeholder, and ``Tape.shapes`` keeps every node's shape for
unbroadcasting.  So an intermediate that no rule reads, such as the output
of an ``add`` or a ``getitem``, is freed as soon as its last ``Var`` goes,
during the build rather than with the tape.  Backward keeps an adjoint only
while it can still grow, so its memory on top of the tape is the frontier
of live adjoints (plus the params'), not a second copy of the tape.  The
adjoint of ``x[key]`` is not a full zero matrix per node: backward writes
it into one buffer per operand, allocated at the first slice or gather
that reaches the operand, and adds every later adjoint of that operand
into the same buffer.  A run of tapes that build one graph, as the steps
of a density fit do, can share an :class:`Arena`: each tape's large values
are computed with ``out=`` into the arrays the tape before saved, so a
step allocates and page-faults in only what that step adds.

Domain violations never raise mid-graph: offending values propagate as NaN
and the tape records the first offending node ("poisoning"); the training
loop treats a poisoned tape as a diverged step.  ``log_erfc`` and
``erfc_inv``, whose ``special`` functions raise outside their domain, give
NaN there, on a tape and on arrays alike.  Finding the first offending node
costs a finiteness test per pushed value, except for the entry-moving ops
(``getitem``, ``transpose``, ``reshape``, ``swapaxes``, ``stack_cols``,
``where_mask``, ``neg``, ``relu`` and ``absolute``): their outputs are
operand entries, zeros, or bounded maps of them, so while every node before
them is finite they are finite too.
"""

from __future__ import annotations

from math import prod
from sys import getrefcount
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as sp

from . import special

__all__ = ["Tape", "Var", "PoisonedTapeError", "backward"]


class PoisonedTapeError(RuntimeError):
    """Backward was requested on a tape holding non-finite values.

    ``node`` is the index of the first offending node and ``op`` its
    operation id.
    """

    def __init__(self, node: int, op: str):
        super().__init__(f"tape poisoned at node {node} (op {op!r})")
        self.node = node
        self.op = op


# Stands in, on the tape, for every value that no backward rule reads.
_UNSAVED = np.empty(0)
_UNSAVED.flags.writeable = False


def _compact(value: np.ndarray) -> np.ndarray:
    """``value``, or a copy of it if it is a view of a larger buffer, so that
    saving it does not keep the rest of that buffer alive."""
    base = value.base
    if isinstance(base, np.ndarray) and base.nbytes > value.nbytes:
        return value.copy()
    return value


class Tape:
    """Append-only computation record supporting one-sweep backward passes.

    ``ops``, ``parents``, ``payloads``, ``values`` and ``shapes`` hold one
    entry per node; ``values[i]`` is the node's value if a rule reads it,
    else ``_UNSAVED``.
    """

    __slots__ = ("ops", "parents", "payloads", "values", "shapes", "grad_store",
                 "param_nodes", "poisoned", "arena")

    def __init__(self, arena: "Arena | None" = None):
        self.ops: list[str] = []
        self.parents: list[tuple] = []
        self.payloads: list = []
        self.values: list = []
        self.shapes: list[tuple] = []
        # Persistent param adjoints; repeated backward calls accumulate here.
        self.grad_store: dict[int, np.ndarray] = {}
        self.param_nodes: dict[int, str] = {}
        self.poisoned: int | None = None
        self.arena = arena

    def _apply(self, op: str, ins: tuple, payload, fn, *args) -> "Var":
        """``_push`` of ``fn(*args)``, computed into an arena array if it can."""
        arena = self.arena
        return self._push(op, ins, fn(*args) if arena is None else arena.compute(fn, args),
                          payload)

    def _push(self, op: str, ins: tuple, value, payload=None) -> "Var":
        """Append a node computed from the Vars ``ins``, saving the values
        that its record in ``_OPS`` says its rule reads, and nothing else.

        Until the tape is poisoned, the value is tested for finiteness unless
        the record marks the op entry-moving: all of ``ins`` are finite then,
        and such an op cannot make a non-finite value from finite operands.
        """
        value = np.asarray(value, dtype=float)
        idx = len(self.ops)
        rec = _OPS[op]
        values = self.values
        for k in rec.reads:
            p = ins[k].idx
            if values[p] is _UNSAVED:
                values[p] = _compact(ins[k].value)
        self.ops.append(op)
        self.parents.append(tuple([v.idx for v in ins]))
        self.payloads.append(payload)
        values.append(_compact(value) if rec.own else _UNSAVED)
        self.shapes.append(value.shape)
        # count_nonzero is the same test as isfinite().all() without the
        # reduction machinery, which dominates on the small arrays of VI.
        if self.poisoned is None and not rec.moving \
                and np.count_nonzero(np.isfinite(value)) != value.size:
            self.poisoned = idx
        return Var(self, idx, value)

    def lift(self, value) -> "Var":
        """A constant: participates in the graph with zero gradient."""
        return self._push("lift", (), value)

    def param(self, value, name: str | None = None) -> "Var":
        """A leaf that accumulates gradient under backward passes."""
        v = self._push("param", (), value)
        self.param_nodes[v.idx] = name if name is not None else f"param{v.idx}"
        return v

    def as_var(self, x) -> "Var":
        return x if isinstance(x, Var) else self.lift(x)


# Arrays smaller than this are left to malloc, which reuses freed chunks of
# their size without new page faults.
_ARENA_MIN = 4096


class Arena:
    """Float arrays that the nodes of one tape compute into, kept for the
    next tape of the same graph.

    A node whose value has at least ``_ARENA_MIN`` entries, from array
    operands that are all C-contiguous, computes with ``out=`` into an
    arena array of its shape that is free: that nothing but the arena
    refers to, no Var, tape or view.  ``keep`` then keeps the arrays the
    tape saved and drops the rest, so the saved values of one step of a fit
    are the arrays that the next step computes into.
    """

    __slots__ = ("arrays",)

    def __init__(self):
        self.arrays: dict[tuple, list] = {}  # shape -> arrays

    def compute(self, fn, args):
        for out in self.arrays.get(_result_shape(fn, args), ()):
            if getrefcount(out) == 3:  # the list, ``out`` and the argument
                return fn(*args, out=out)
        return fn(*args)

    def keep(self, tape: "Tape") -> None:
        """Keep the arrays ``tape`` saved that own their memory; drop the rest."""
        self.arrays = {}
        for v in tape.values:
            if v.size >= _ARENA_MIN and v.flags.owndata and v.flags.c_contiguous \
                    and v.dtype == float:
                self.arrays.setdefault(v.shape, []).append(v)


def _result_shape(fn, args):
    """The shape of ``fn(*args)`` if it may go in an arena array: at least
    ``_ARENA_MIN`` entries, from array operands that are all C-contiguous,
    so that numpy too would lay the value out in C order."""
    arrays = [a for a in args if type(a) is np.ndarray]
    if not all(a.flags.c_contiguous for a in arrays):
        return None
    shapes = [a.shape for a in arrays]
    if fn is _sum:
        a, axis, keepdims = args
        if not isinstance(axis, int):
            return None
        axis %= a.ndim
        shape = a.shape[:axis] + (1,) * keepdims + a.shape[axis + 1:]
    elif fn is np.matmul:
        shape = shapes[0][:-1] + shapes[1][1:]
    else:  # elementwise: the one operand that broadcasting does not stretch
        shape = shapes[0] if shapes.count(shapes[0]) == len(shapes) \
            else np.broadcast_shapes(*shapes)
        if shape not in shapes:
            return None
    return shape if prod(shape) >= _ARENA_MIN else None


def _is_gather(key) -> bool:
    """Whether an index holds an integer array (advanced indexing)."""
    if isinstance(key, tuple):
        for k in key:
            if isinstance(k, (np.ndarray, list)):
                return True
        return False
    return isinstance(key, (np.ndarray, list))


class Var:
    """Handle to one tape node: (tape, node index, value)."""

    __slots__ = ("tape", "idx", "value")

    # Make ndarray <op> Var defer to the reflected Var operator instead of
    # numpy trying to coerce the Var into an object array.
    __array_ufunc__ = None

    def __init__(self, tape: Tape, idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic (broadcasting) ------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            return self.tape._apply("add", (self, other), None, np.add, self.value, other.value)
        return self.tape._apply("add_const", (self,), None, np.add, self.value, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return self.tape._apply("sub", (self, other), None, np.subtract, self.value,
                                    other.value)
        return self.tape._apply("add_const", (self,), None, np.subtract, self.value, other)

    def __rsub__(self, other):
        return self.tape._apply("rsub_const", (self,), None, np.subtract, other, self.value)

    def __mul__(self, other):
        if isinstance(other, Var):
            return self.tape._apply("mul", (self, other), None, np.multiply, self.value,
                                    other.value)
        return self.tape._apply("mul_const", (self,), other, np.multiply, self.value, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        with np.errstate(all="ignore"):
            if isinstance(other, Var):
                return self.tape._apply("div", (self, other), None, np.divide, self.value,
                                        other.value)
            return self.tape._apply("div_const", (self,), other, np.divide, self.value, other)

    def __rtruediv__(self, other):
        with np.errstate(all="ignore"):
            return self.tape._apply("rdiv_const", (self,), other, np.divide, other, self.value)

    def __neg__(self):
        return self.tape._apply("neg", (self,), None, np.negative, self.value)

    def __pow__(self, other):
        with np.errstate(all="ignore"):
            if isinstance(other, Var):
                return self.tape._push("pow", (self, other), self.value ** other.value)
            return self.tape._push("pow_const", (self,), self.value ** other, payload=other)

    def __matmul__(self, other):
        """Matrix product of 1-d or 2-d operands, as numpy's ``@``."""
        if isinstance(other, Var):
            return self.tape._apply("matmul", (self, other), None, np.matmul, self.value,
                                    other.value)
        other = np.asarray(other, dtype=float)
        return self.tape._apply("matmul_const", (self,), (other, False, self.shape), np.matmul,
                                self.value, other)

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=float)
        return self.tape._apply("matmul_const", (self,), (other, True, self.shape), np.matmul,
                                other, self.value)

    # x.exp(), x.maximum(c) and the other elementwise methods come from ``_OPS``.

    # -- reductions and structure -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return self.tape._apply("sum", (self,), (axis, keepdims, self.shape), _sum, self.value,
                                axis, keepdims)

    def __getitem__(self, key):
        """Basic slices and ints, or an integer-array gather, as numpy."""
        return self.tape._push("getitem", (self,), self.value[key], payload=(key, _is_gather(key)))

    @property
    def T(self):
        return self.tape._push("transpose", (self,), self.value.T)

    def reshape(self, *shape):
        return self.tape._push("reshape", (self,), self.value.reshape(*shape), payload=self.shape)

    def swapaxes(self, a: int, b: int):
        return self.tape._push("swapaxes", (self,), self.value.swapaxes(a, b), payload=(a, b))

    def cumsum(self, axis: int):
        return self.tape._push("cumsum", (self,), _cumsum_array(self.value, axis), payload=axis)

    def where_mask(self, mask: np.ndarray, other):
        """mask ? self : other, with a constant boolean mask.

        ``other`` may be a Var or a constant; gradients flow through each
        branch only on its own lanes, so the inactive branch can hold safe
        substitute values without contaminating the result.
        """
        if isinstance(other, Var):
            return self.tape._apply("where_mask", (self, other), mask, _where, mask, self.value,
                                    other.value)
        return self.tape._apply("where_mask_const", (self,), mask, _where, mask, self.value, other)


def _sum(a, axis, keepdims, out=None):
    return a.sum(axis=axis, keepdims=keepdims, out=out)


def _where(mask, a, b, out=None):
    """``np.where(mask, a, b)``, into ``out`` if that is given."""
    if out is None:
        return np.where(mask, a, b)
    np.copyto(out, b)
    np.copyto(out, a, where=mask)
    return out


def stack_cols(cols: list[Var]) -> Var:
    """Stack (n,) vectors into the columns of an (n, k) matrix."""
    tape = cols[0].tape
    value = np.stack([c.value for c in cols], axis=1)
    return tape._push("stack_cols", tuple(cols), value)


def sample_gamma_node(alpha: Var, rng: special.Rng, size: int) -> Var:
    """Draw Gamma(alpha, 1) samples on the tape, differentiable in alpha.

    For alpha < 1 the draw is composed as G_{alpha+1} * U^{1/alpha} out of
    tape primitives; the raw node's backward uses the implicit derivative of
    the sampler's acceptance path.
    """
    a = float(alpha.value)
    if a >= 1.0:
        draws = np.asarray(special.sample_gamma(a, rng, size=size))
        return alpha.tape._push("sample_gamma", (alpha,), draws, payload=a)
    boost_alpha = alpha + 1.0
    draws = np.asarray(special.sample_gamma(a + 1.0, rng, size=size))
    boost = boost_alpha.tape._push("sample_gamma", (boost_alpha,), draws, payload=a + 1.0)
    u = alpha.tape.lift(rng.uniform(size=size))
    return boost * (u ** (1.0 / alpha))


def sample_student_t_node(nu: Var, rng: special.Rng, size: int, eps: float = 1e-24) -> Var:
    """Student-T draws z sqrt(nu / (2 max(g, eps))) with gradient in nu."""
    g = sample_gamma_node(nu * 0.5, rng, size)
    g = g.maximum(eps)
    z = rng.normal(size)
    return (nu.tape.lift(z)) * (nu / (2.0 * g)).sqrt()


# -- op records ---------------------------------------------------------------
#
# Each rule maps (adjoint g of the node, node value v, parent values, payload)
# to one adjoint per parent, in the node's output shape or the parent's;
# backward sums away whatever broadcasting added.  ``getitem``'s adjoint is a
# ``_Scatter`` that backward writes into the operand's buffer.  A rule may
# read v and the parent values only as its record declares; the others are
# ``_UNSAVED``, and a rule that reads no parent gets ``ins=()``.


def _cumsum_array(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.cumsum(a, axis)`` as one vector add per step along the axis.

    numpy's accumulate makes one inner-loop call per line along the other
    axes, so on a knot matrix (K, m) it loops m times over K entries; these
    are K-1 adds of length-m rows.  Both sum sequentially, so the bits are
    the same.
    """
    out = np.array(a, dtype=float)
    v = out if axis in (0, -out.ndim) else np.moveaxis(out, axis, 0)
    if v.ndim == 1:
        v = v[:, None]  # rows that are arrays, so that they can be outputs
    for prev, row in zip(v, v[1:]):
        np.add(prev, row, out=row)
    return out


def _unbroadcast(g, shape) -> np.ndarray:
    """Sum an adjoint over the axes that broadcasting added or stretched;
    backward calls it only when the shapes differ."""
    lead = g.ndim - len(shape)
    if lead > 0:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def _sum_rule(g, v, ins, pay):
    axis, keepdims, shape = pay
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape),)


class _Scatter:
    """The adjoint of ``x[key]`` for x: ``g`` at ``key`` in zeros of x's
    shape, left for backward to write into x's adjoint buffer."""

    __slots__ = ("key", "gather", "g")

    def __init__(self, key, gather: bool, g):
        self.key = key
        self.gather = gather
        self.g = g

    def dense(self, shape, plus=None) -> np.ndarray:
        """The adjoint as a new array, plus ``plus`` if that is given."""
        full = np.zeros(shape)
        if self.gather:
            np.add.at(full, self.key, self.g)  # a repeated index receives every adjoint
        else:
            full[self.key] = self.g
        if plus is not None:
            full += plus
        return full

    def add_into(self, buf: np.ndarray) -> None:
        if self.gather:
            # the repeats of one index sum among themselves first, as in dense
            buf += self.dense(buf.shape)
        else:
            buf[self.key] += self.g


def _getitem_rule(g, v, ins, pay):
    return (_Scatter(*pay, g),)


def _matmul_adjoint(g, c, left: bool, shape) -> np.ndarray:
    """The adjoint of x, of the given shape, in ``c @ x`` (left) or
    ``x @ c``, for 1-d or 2-d operands."""
    two_d = len(shape) == 2
    if left:
        c2 = c[None, :] if c.ndim == 1 else c
        return (c2.T @ g.reshape(c2.shape[0], shape[1] if two_d else 1)).reshape(shape)
    c2 = c[:, None] if c.ndim == 1 else c
    return (g.reshape(shape[0] if two_d else 1, c2.shape[1]) @ c2.T).reshape(shape)


def _matmul_rule(g, v, ins, pay):
    a, b = ins
    return _matmul_adjoint(g, b, False, a.shape), _matmul_adjoint(g, a, True, b.shape)


class _Op(NamedTuple):
    """Everything the tape knows of one op."""

    rule: Callable | None  # (g, v, ins, payload) -> adjoints; None for a leaf
    own: bool = False  # the rule reads the node's own value
    reads: tuple = ()  # positions of the parents whose values the rule reads
    moving: bool = False  # entry-moving: finite whenever its operands are
    # an elementwise op's numpy function, with its ``np.errstate`` and guard
    fn: Callable | None = None


def _quiet(fn, **errstate):
    """``fn`` under ``np.errstate(**errstate)``."""
    def quiet(x, **out):
        with np.errstate(**errstate):
            return fn(x, **out)
    return quiet


def _guarded(name: str, bad, fill: float):
    """``special.<name>``, NaN on the lanes ``bad(x)`` marks, which it would
    reject; those lanes get ``fill`` on the way in.  The function is looked
    up at each call, so that a wrapper put in its place sees every call.
    It ignores an ``out`` array: its value is always a new one."""
    def guarded(x, out=None):
        fn = getattr(special, name)
        out_of_domain = bad(x)
        if np.any(out_of_domain):
            return np.where(out_of_domain, np.nan, fn(np.where(out_of_domain, fill, x)))
        return fn(x)
    return guarded


# One record per op.  Leaves (``lift``, ``param``) have no rule.
_OPS = {
    "lift": _Op(None),
    "param": _Op(None),
    "add": _Op(lambda g, v, ins, pay: (g, g)),
    "add_const": _Op(lambda g, v, ins, pay: (g,)),
    "sub": _Op(lambda g, v, ins, pay: (g, -g)),
    "rsub_const": _Op(lambda g, v, ins, pay: (-g,)),
    "mul": _Op(lambda g, v, ins, pay: (g * ins[1], g * ins[0]), reads=(0, 1)),
    "mul_const": _Op(lambda g, v, ins, pay: (g * pay,)),
    "div": _Op(lambda g, v, ins, pay: (g / ins[1], -g * v / ins[1]), own=True, reads=(1,)),
    "div_const": _Op(lambda g, v, ins, pay: (g / pay,)),
    "rdiv_const": _Op(lambda g, v, ins, pay: (-g * v / ins[0],), own=True, reads=(0,)),
    "neg": _Op(lambda g, v, ins, pay: (-g,), moving=True),
    "pow": _Op(lambda g, v, ins, pay: (g * ins[1] * ins[0] ** (ins[1] - 1.0),
                                       g * v * np.log(ins[0])), own=True, reads=(0, 1)),
    "pow_const": _Op(lambda g, v, ins, pay: (g * pay * ins[0] ** (pay - 1.0),), reads=(0,)),
    "exp": _Op(lambda g, v, ins, pay: (g * v,), own=True,
               fn=_quiet(np.exp, over="ignore", under="ignore")),
    "log": _Op(lambda g, v, ins, pay: (g / ins[0],), reads=(0,),
               fn=_quiet(np.log, all="ignore")),
    "log1p": _Op(lambda g, v, ins, pay: (g / (1.0 + ins[0]),), reads=(0,),
                 fn=_quiet(np.log1p, all="ignore")),
    "expm1": _Op(lambda g, v, ins, pay: (g * (v + 1.0),), own=True,
                 fn=_quiet(np.expm1, over="ignore", under="ignore")),
    "sqrt": _Op(lambda g, v, ins, pay: (0.5 * g / v,), own=True,
                fn=_quiet(np.sqrt, invalid="ignore")),
    "sigmoid": _Op(lambda g, v, ins, pay: (g * v * (1.0 - v),), own=True, fn=sp.expit),
    "relu": _Op(lambda g, v, ins, pay: (g * (ins[0] > 0.0),), reads=(0,), moving=True,
                fn=lambda x, out=None: np.maximum(x, 0.0, out=out)),
    "softplus": _Op(lambda g, v, ins, pay: (g * sp.expit(ins[0]),), reads=(0,),
                    fn=_quiet(lambda x, **out: np.logaddexp(0.0, x, **out), invalid="ignore")),
    "absolute": _Op(lambda g, v, ins, pay: (g * np.sign(ins[0]),), reads=(0,), moving=True,
                    fn=np.abs),
    "log_erfc": _Op(lambda g, v, ins, pay: (g * special.dlog_erfc(ins[0]),), reads=(0,),
                    fn=_guarded("log_erfc", lambda x: ~np.isfinite(x), 0.0)),
    "erfc_inv": _Op(lambda g, v, ins, pay: (g * (-np.sqrt(np.pi) / 2.0) * np.exp(v * v),),
                    own=True, fn=_guarded(
                        "erfc_inv", lambda x: ~np.isfinite(x) | (x <= 0.0) | (x >= 2.0), 1.0)),
    "lgamma": _Op(lambda g, v, ins, pay: (g * sp.digamma(ins[0]),), reads=(0,),
                  fn=_quiet(sp.gammaln, all="ignore")),
    "maximum": _Op(lambda g, v, ins, pay: (g * (ins[0] >= pay),), reads=(0,), fn=np.maximum),
    "minimum": _Op(lambda g, v, ins, pay: (g * (ins[0] <= pay),), reads=(0,), fn=np.minimum),
    "sum": _Op(_sum_rule),
    "getitem": _Op(_getitem_rule, moving=True),
    "transpose": _Op(lambda g, v, ins, pay: (g.T,), moving=True),
    "reshape": _Op(lambda g, v, ins, pay: (g.reshape(pay),), moving=True),
    "swapaxes": _Op(lambda g, v, ins, pay: (g.swapaxes(*pay),), moving=True),
    "matmul": _Op(_matmul_rule, reads=(0, 1)),
    "matmul_const": _Op(lambda g, v, ins, pay: (_matmul_adjoint(g, *pay),)),
    "cumsum": _Op(lambda g, v, ins, axis: (
        np.flip(_cumsum_array(np.flip(g, axis), axis), axis),)),
    "stack_cols": _Op(lambda g, v, ins, pay: tuple(g[:, k] for k in range(g.shape[1])),
                      moving=True),
    "where_mask": _Op(lambda g, v, ins, pay: (g * pay, g * ~pay), moving=True),
    "where_mask_const": _Op(lambda g, v, ins, pay: (g * pay,)),  # the constant may be NaN
    "sample_gamma": _Op(lambda g, v, ins, pay: (
        np.sum(g * special.gamma_dsample_dshape(pay, v)),), own=True),
}


def _elementwise(op: str, fn):
    """The ``Var`` method and the module-level function (Var or array) of an
    elementwise op, both computing with ``fn``.  A constant second operand,
    as ``maximum`` takes, goes in the node's payload."""
    def method(self, const=None):
        if const is None:
            return self.tape._apply(op, (self,), None, fn, self.value)
        return self.tape._apply(op, (self,), const, fn, self.value, const)

    def function(x, const=None):
        if isinstance(x, Var):
            return method(x, const)
        return fn(x) if const is None else fn(x, const)

    method.__name__ = function.__name__ = op
    return method, function


for _op, _rec in _OPS.items():
    if _rec.fn is not None:
        _method, globals()[_op] = _elementwise(_op, _rec.fn)
        setattr(Var, _op, _method)
Var.abs = Var.absolute
del _op, _rec, _method


# -- module-level forms of the structural ops: a Var method or plain numpy -----


def cumsum(x, axis: int):
    return x.cumsum(axis) if isinstance(x, Var) else _cumsum_array(x, axis)


def where_mask(mask, a, b):
    if isinstance(a, Var):
        return a.where_mask(mask, b)
    if isinstance(b, Var):
        # mask ? const : var == ~mask ? var : const
        return b.where_mask(~mask, a)
    return np.where(mask, a, b)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def backward(out: Var) -> dict[str, np.ndarray]:
    """Accumulate d(out)/d(param) for every param on out's tape.

    Returns a map from parameter name to its accumulated adjoint.  Repeated
    calls without clearing grads add another full contribution (gradients
    double after calling twice).  Raises :class:`PoisonedTapeError` if any
    node holds a non-finite value.

    The sweep runs each node's rule from its record in ``_OPS``.  It reads
    only the values the tape saved for the rule, as the record declares, and
    never changes them, so a tape can be swept again.  A node's adjoint is
    released as soon as its rule has run, so besides the tape only the
    frontier lives: the adjoints of nodes already reached whose rules have
    not run yet, plus those of the params.

    The only arrays written in place are the buffers this sweep allocates
    when a slice or gather adjoint (a ``_Scatter``) reaches an operand:
    later slices add into it at their key, later gathers and dense adjoints
    add in whole.  Nothing else can hold such a buffer until the operand's
    own rule runs, and by then every write to it is done.  Any other
    adjoint may be shared (``add`` hands one array to both operands,
    ``transpose`` a view, ``sum`` a read-only broadcast), so a scatter that
    lands on one gets a new buffer, to which the old adjoint is added.
    Every entry gets the sum that adding each adjoint as a full array, in
    arrival order, would give; only a -0.0 outside a slice's key keeps its
    sign where adding a zero would make it +0.0.
    """
    tape = out.tape
    if tape.poisoned is not None:
        raise PoisonedTapeError(tape.poisoned, tape.ops[tape.poisoned])
    if out.value.shape != ():
        raise ValueError("backward: output must be scalar")

    n = out.idx + 1
    ops, parents, payloads, values, shapes = (
        tape.ops, tape.parents, tape.payloads, tape.values, tape.shapes)
    adj: list = [None] * n
    adj[out.idx] = np.asarray(1.0)
    owned: set[int] = set()  # nodes whose adjoint is a buffer made for a scatter

    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            g = adj[i]
            par = parents[i]
            if g is None or not par:  # unreached, or a leaf
                continue
            rec = _OPS[ops[i]]
            ins = [values[p] for p in par] if rec.reads else ()
            grads = rec.rule(g, values[i], ins, payloads[i])
            # Every write to adj[i] came from a later node, so it is final;
            # drop it now (param leaves never get here and keep theirs).  The
            # local g stays bound until the next node: freeing it before the
            # sums below measured ~8% slower in the DE fit (more page faults).
            adj[i] = None
            for p, gp in zip(par, grads):
                if ops[p] == "lift":
                    continue  # constants carry zero gradient by definition
                if type(gp) is _Scatter:
                    if p in owned:
                        gp.add_into(adj[p])
                    else:
                        # adj[p] may be an array shared with other adjoints,
                        # so the scatter gets a buffer of its own
                        adj[p] = gp.dense(shapes[p], adj[p])
                        owned.add(p)
                    continue
                if gp.shape != shapes[p]:
                    gp = _unbroadcast(gp, shapes[p])
                if adj[p] is None:
                    adj[p] = gp
                elif p in owned:
                    adj[p] += gp
                else:
                    adj[p] = adj[p] + gp

    grads: dict[str, np.ndarray] = {}
    for idx, name in tape.param_nodes.items():
        if idx < n and adj[idx] is not None:
            prev = tape.grad_store.get(idx)
            tape.grad_store[idx] = np.array(adj[idx], dtype=float) if prev is None \
                else prev + adj[idx]
        g = tape.grad_store.get(idx)
        grads[name] = np.zeros(shapes[idx]) if g is None else g
    return grads
