"""Minimal reverse-mode automatic differentiation.

A :class:`Tape` is an append-only list of nodes (operation id, parent
indices, saved payload); construction order is topological order, so a
single reversed sweep computes every adjoint.  Node values are numpy arrays,
and a :class:`Var` follows the subset of numpy semantics the package uses:
arithmetic broadcasts between operands and against constants, ``@`` is a
matrix product of 1-d and 2-d operands, ``x[key]`` takes basic slices, ints
and integer-array gathers, ``x.T``, ``x.reshape`` and ``x.swapaxes`` move
entries, ``x.sum(axis, keepdims)`` reduces over one int axis or all, and
``x.cumsum(axis)`` sums along an axis.  As ``x * c`` is one ``mul_const``
node, a matrix product with a constant operand, ``x @ C`` or ``C @ x``, is
one ``matmul_const`` node, and a power ``c ** x`` of a constant base one
``rpow_const`` node: the constant goes in the payload and gets no gradient.
So constants stay arrays, never nodes: a model's frozen parameters and its
non-reparameterized draws add no node to a tape, and a tape's only leaves
are its params.  Each op computes exactly what numpy computes (``x / c`` is a
true division, not ``x * (1 / c)``), so one formula gives the same bits on
numpy arrays and on tape variables.  ``sample_gamma`` and
``sample_student_t`` draw numpy arrays given a float and, given a 0-d Var,
draws on its tape, differentiable in it.

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
both).  A rule does not save what it can recompute, bit for bit, from
values it reads anyway: ``x / y`` and ``c / x`` recompute their quotients
from their operands, and ``relu`` takes its mask from its own output, which
the next matrix product saves.  Every other slot of ``Tape.values`` holds
one shared zero-size placeholder, and ``Tape.shapes`` keeps every node's
shape for unbroadcasting.  So an intermediate that no rule reads, such as the output
of an ``add`` or a ``getitem``, is freed as soon as its last ``Var`` goes,
during the build rather than with the tape.  Backward consumes the tape:
it frees each saved value once the rules that read it have run, and keeps
an adjoint only while it can still grow, so its memory shrinks with the
tape as it sweeps.  The adjoint of ``x[key]`` is not a full zero matrix per
node: backward writes it into one buffer per operand, allocated at the
first slice or gather that reaches the operand, and adds every later
adjoint of that operand into the same buffer.

Backward adds into an adjoint in place when nothing else holds it.  From
``_ONCE_CHECK_MIN`` entries on, a gather whose key reaches each entry at most
once scatters its adjoint by assignment, not ``np.add.at``
(``_scatter_kind``).

Domain violations never raise mid-graph: offending values propagate as NaN
and the tape records the first offending node ("poisoning"); the training
loop treats a poisoned tape as a diverged step.  ``log_erfc`` and
``erfc_inv``, whose ``special`` functions raise outside their domain, give
NaN there, on a tape and on arrays alike.  Finding the first offending node
costs a finiteness test per pushed value, except for the entry-moving ops
(``getitem``, ``transpose``, ``reshape``, ``swapaxes``, ``where_mask``,
``neg``, ``relu`` and ``absolute``): their outputs are
operand entries, zeros, or bounded maps of them, so while every node before
them is finite they are finite too.
"""

from __future__ import annotations

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
_FLOAT = np.dtype(float)  # numpy's one float64 dtype object: a pushed value of it is kept as is


def _compact(value: np.ndarray) -> np.ndarray:
    """``value``, or a copy of it if it is a view of a larger buffer, so that
    saving it does not keep the rest of that buffer alive."""
    base = value.base
    if isinstance(base, np.ndarray) and base.nbytes > value.nbytes:
        return value.copy()
    return value


class Tape:
    """Append-only computation record, consumed by one backward sweep.

    ``ops``, ``parents``, ``payloads``, ``values`` and ``shapes`` hold one
    entry per node; ``values[i]`` is the node's value if a rule reads it and
    no sweep has passed the node, else ``_UNSAVED``.  ``spent`` counts the
    nodes pushed before the last sweep, whose values it may have freed.
    """

    __slots__ = ("ops", "parents", "payloads", "values", "shapes", "param_nodes", "poisoned",
                 "spent")

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple] = []
        self.payloads: list = []
        self.values: list = []
        self.shapes: list[tuple] = []
        self.param_nodes: dict[int, str] = {}
        self.poisoned: int | None = None
        self.spent = 0

    def _push(self, op: str, ins: tuple, value, payload=None) -> "Var":
        """Append a node computed from the Vars ``ins``, saving the values
        that its record in ``_OPS`` says its rule reads, and nothing else.

        Until the tape is poisoned, the value is tested for finiteness unless
        the record marks the op entry-moving: all of ``ins`` are finite then,
        and such an op cannot make a non-finite value from finite operands.
        """
        if type(value) is not np.ndarray or value.dtype is not _FLOAT:
            value = np.asarray(value, dtype=float)
        own, reads, moving = _PUSH_FLAGS[op]
        values = self.values
        for k in reads:
            v = ins[k]
            if values[v.idx] is _UNSAVED:
                values[v.idx] = _compact(v.value)
        idx = len(self.ops)
        self.ops.append(op)
        self.parents.append((ins[0].idx,) if len(ins) == 1 else tuple([v.idx for v in ins]))
        self.payloads.append(payload)
        values.append(_compact(value) if own else _UNSAVED)
        self.shapes.append(value.shape)
        # A zero byte in isfinite's mask is a non-finite entry: the same test
        # as isfinite().all(), without the reduction machinery or
        # count_nonzero's Python wrapper, which dominate on the small arrays
        # of VI.
        if self.poisoned is None and not moving and 0 in np.isfinite(value).tobytes():
            self.poisoned = idx
        return Var(self, idx, value)

    def param(self, value, name: str | None = None) -> "Var":
        """A named leaf; ``backward`` returns the gradient under its name."""
        v = self._push("param", (), value)
        self.param_nodes[v.idx] = name if name is not None else f"param{v.idx}"
        return v


_ONCE_CHECK_MIN = 4096  # see ``_scatter_kind``
_BASIC_KEYS = frozenset({int, slice, type(None)})  # the key types of most slices, tested first


def _scatter_kind(key, shape: tuple, size: int) -> str:
    """How the adjoint of ``x[key]`` goes back into x (of ``shape``): by
    "slice" for basic indexing, else by "gather", or by "once" where a
    matrix's (rows, cols) key reaches each entry at most once: cols (m,)
    rising from 0 and, in each column, two rows that differ once wrapped.
    As both are valid indices, in [-K, K) for K = shape[0], they differ by
    less than 2K, so they are the same row wrapped only where they differ by
    0 or K: two comparisons, where a modulo is a slow integer division.
    That is checked only for a value of ``size`` >= ``_ONCE_CHECK_MIN``
    entries; on smaller ones the check costs more than it saves."""
    keys = key if type(key) is tuple else (key,)
    if _BASIC_KEYS.issuperset(map(type, keys)) \
            or not any(isinstance(k, (np.ndarray, list)) for k in keys):
        return "slice"
    rows, cols = key if len(keys) == 2 and size >= _ONCE_CHECK_MIN else (0, 0)
    once = type(rows) is type(cols) is np.ndarray and rows.dtype.kind == cols.dtype.kind == "i" \
        and cols.ndim == 1 and rows.shape == (2, cols.size) and np.all(cols[:1] >= 0) \
        and np.all(cols[1:] > cols[:-1])
    if once:
        apart = np.abs(rows[0] - rows[1])
        once = not ((apart == 0) | (apart == shape[0])).any()
    return "once" if once else "gather"


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
        if type(other) is Var:
            return self.tape._push("add", (self, other), self.value + other.value)
        return self.tape._push("add_const", (self,), self.value + other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Var:
            return self.tape._push("sub", (self, other), self.value - other.value)
        return self.tape._push("add_const", (self,), self.value - other)

    def __rsub__(self, other):
        return self.tape._push("rsub_const", (self,), other - self.value)

    def __mul__(self, other):
        if type(other) is Var:
            return self.tape._push("mul", (self, other), self.value * other.value)
        return self.tape._push("mul_const", (self,), self.value * other, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        with np.errstate(all="ignore"):
            if type(other) is Var:
                return self.tape._push("div", (self, other), self.value / other.value)
            return self.tape._push("div_const", (self,), self.value / other, other)

    def __rtruediv__(self, other):
        with np.errstate(all="ignore"):
            return self.tape._push("rdiv_const", (self,), other / self.value, other)

    def __neg__(self):
        return self.tape._push("neg", (self,), -self.value)

    def __rpow__(self, other):
        other = np.asarray(other, dtype=float)
        with np.errstate(all="ignore"):
            return self.tape._push("rpow_const", (self,), other ** self.value, other)

    def __matmul__(self, other):
        """Matrix product of 1-d or 2-d operands, as numpy's ``@``."""
        if type(other) is Var:
            return self.tape._push("matmul", (self, other), self.value @ other.value)
        other = np.asarray(other, dtype=float)
        return self.tape._push("matmul_const", (self,), self.value @ other,
                               (other, False, self.shape))

    def __rmatmul__(self, other):
        other = np.asarray(other, dtype=float)
        return self.tape._push("matmul_const", (self,), other @ self.value,
                               (other, True, self.shape))

    # x.exp(), x.maximum(c) and the other elementwise methods come from ``_OPS``.

    # -- reductions and structure -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return self.tape._push("sum", (self,), self.value.sum(axis=axis, keepdims=keepdims),
                               (axis, keepdims, self.shape))

    def __getitem__(self, key):
        """Basic slices and ints, or an integer-array gather, as numpy."""
        value = self.value[key]
        return self.tape._push("getitem", (self,), value,
                               payload=(key, _scatter_kind(key, self.shape, value.size)))

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
        if type(other) is Var:
            return self.tape._push("where_mask", (self, other),
                                   np.where(mask, self.value, other.value), mask)
        return self.tape._push("where_mask_const", (self,), np.where(mask, self.value, other),
                               mask)


# -- op records ---------------------------------------------------------------
#
# Each rule maps (adjoint g of the node, node value v, parent values, payload)
# to one adjoint per parent, in the node's output shape or the parent's;
# backward sums away whatever broadcasting added.  ``getitem``'s adjoint is a
# ``_Scatter`` that backward writes into the operand's buffer.  An adjoint
# that owns its data and is not g must be new: backward adds into it.  A rule
# may read v and the parent values only as its record declares; the others
# are ``_UNSAVED``, and a rule that reads no parent gets ``ins=()``.


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
    if lead > 0:  # np.add.reduce is ndarray.sum without its Python wrapper
        g = np.add.reduce(g, axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=stretched, keepdims=True) if stretched else g


def _sum_rule(g, v, ins, pay):
    axis, keepdims, shape = pay
    if axis is not None and not keepdims:  # put the summed axis back, by indexing
        g = g[(slice(None),) * (axis % len(shape)) + (None,)]
    full = np.empty(shape)  # g stretched over the summed axes, as a new array:
    full[...] = g  # a fraction of np.broadcast_to's cost on the small arrays of VI
    return (full,)


def _cumsum_rule(g, v, ins, axis):
    # the sums of g from each entry to the end of the axis, as a cumsum of g
    # reversed along it, reversed back
    rev = (slice(None),) * (axis % g.ndim) + (slice(None, None, -1),)
    return (_cumsum_array(g[rev], axis)[rev],)


class _Scatter:
    """The adjoint of ``x[key]`` for x: ``g`` at ``key`` in zeros of x's
    shape, left for backward to write into x's adjoint buffer.  ``kind`` is
    the key's ``_scatter_kind``."""

    __slots__ = ("key", "kind", "g")

    def __init__(self, key, kind: str, g):
        self.key = key
        self.kind = kind
        self.g = g

    def dense(self, shape, plus=None) -> np.ndarray:
        """The adjoint as a new array, plus ``plus`` if that is given."""
        full = np.zeros(shape)
        if self.kind == "gather":
            np.add.at(full, self.key, self.g)  # a repeated index receives every adjoint
        else:  # a once-only gather gives np.add.at's +0.0 for -0.0
            full[self.key] = self.g if self.kind == "slice" else 0.0 + self.g
        if plus is not None:
            full += plus
        return full

    def add_into(self, buf: np.ndarray) -> None:
        if self.kind == "gather":
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
    def quiet(x):
        with np.errstate(**errstate):
            return fn(x)
    return quiet


def _guarded(name: str, bad, fill: float):
    """``special.<name>``, NaN on the lanes ``bad(x)`` marks, which it would
    reject; those lanes get ``fill`` on the way in.  The function is looked
    up at each call, so that a wrapper put in its place sees every call."""
    def guarded(x):
        fn = getattr(special, name)
        out_of_domain = bad(x)
        if np.any(out_of_domain):
            return np.where(out_of_domain, np.nan, fn(np.where(out_of_domain, fill, x)))
        return fn(x)
    return guarded


# One record per op.  The leaf ``param`` has no rule.
_OPS = {
    "param": _Op(None),
    "add": _Op(lambda g, v, ins, pay: (g, g)),
    "add_const": _Op(lambda g, v, ins, pay: (g,)),
    "sub": _Op(lambda g, v, ins, pay: (g, -g)),
    "rsub_const": _Op(lambda g, v, ins, pay: (-g,)),
    "mul": _Op(lambda g, v, ins, pay: (g * ins[1], g * ins[0]), reads=(0, 1)),
    "mul_const": _Op(lambda g, v, ins, pay: (g * pay,)),
    "div": _Op(lambda g, v, ins, pay: (g / ins[1], -g * (ins[0] / ins[1]) / ins[1]),
               reads=(0, 1)),
    "div_const": _Op(lambda g, v, ins, pay: (g / pay,)),
    "rdiv_const": _Op(lambda g, v, ins, pay: (-g * (pay / ins[0]) / ins[0],), reads=(0,)),
    "neg": _Op(lambda g, v, ins, pay: (-g,), moving=True),
    "rpow_const": _Op(lambda g, v, ins, pay: (g * v * np.log(pay),), own=True),
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
    # v > 0 is x > 0, NaN included, and a matmul saves the output anyway
    "relu": _Op(lambda g, v, ins, pay: (g * (v > 0.0),), own=True, moving=True,
                fn=lambda x: np.maximum(x, 0.0)),
    "softplus": _Op(lambda g, v, ins, pay: (g * sp.expit(ins[0]),), reads=(0,),
                    fn=_quiet(lambda x: np.logaddexp(0.0, x), invalid="ignore")),
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
    "cumsum": _Op(_cumsum_rule),
    "where_mask": _Op(lambda g, v, ins, pay: (g * pay, g * ~pay), moving=True),
    "where_mask_const": _Op(lambda g, v, ins, pay: (g * pay,)),  # the constant may be NaN
    "sample_gamma": _Op(lambda g, v, ins, pay: (
        np.sum(g * special.gamma_dsample_dshape(pay, v)),), own=True),
}
# The fields of each record that ``Tape._push`` and ``backward`` read for
# every node, as plain tuples, which unpack faster than a record.
_PUSH_FLAGS = {op: (rec.own, rec.reads, rec.moving) for op, rec in _OPS.items()}
_RULES = {op: (rec.rule, rec.reads) for op, rec in _OPS.items()}


def _elementwise(op: str, fn):
    """The ``Var`` method and the module-level function (Var or array) of an
    elementwise op, both computing with ``fn``.  A constant second operand,
    as ``maximum`` takes, goes in the node's payload."""
    def method(self, const=None):
        value = fn(self.value) if const is None else fn(self.value, const)
        return self.tape._push(op, (self,), value, const)

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


# -- samplers: numpy draws, or draws on the tape of a Var parameter ------------


_GAMMA_FLOOR = 1e-24  # keeps a Student-T draw's nu / (2 g) finite where g underflows


def _sample_gamma_ge1(shape: float, rng: special.Rng, n: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze sampler for shape >= 1.
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 16)
        x = rng.normal(m)
        v = (1.0 + c * x) ** 3
        u = rng.uniform(size=m)
        ok = v > 0
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = ok & (
                (u < 1.0 - 0.0331 * x2 * x2)
                | (np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(np.where(ok, v, 1.0))))
            )
        cand = d * v[accept]
        take = min(cand.size, n - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
    return out


def sample_gamma(shape, rng: special.Rng, n: int):
    """n Gamma(shape, 1) draws; shape is a positive float or a 0-d Var.

    Draws of a Var shape are differentiable in it: a ``sample_gamma`` node's
    adjoint is the implicit derivative that holds each draw's CDF level
    fixed (``special.gamma_dsample_dshape``).  Below shape 1 a draw is
    G_{shape+1} U^{1/shape}, and the derivative flows through both factors.
    """
    a = float(value_of(shape))
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError("sample_gamma: shape must be positive")
    if a < 1.0:
        boost = sample_gamma(shape + 1.0, rng, n)
        with np.errstate(under="ignore"):
            return boost * rng.uniform(size=n) ** (1.0 / shape)
    draws = _sample_gamma_ge1(a, rng, n)
    if isinstance(shape, Var):
        return shape.tape._push("sample_gamma", (shape,), draws, payload=a)
    return draws


def sample_student_t(nu, rng: special.Rng, n: int):
    """n Student-T draws z sqrt(nu / (2 g)), g ~ Gamma(nu/2, 1) floored at
    ``_GAMMA_FLOOR``; nu is a positive float or a 0-d Var, as in ``sample_gamma``."""
    g = maximum(sample_gamma(nu * 0.5, rng, n), _GAMMA_FLOOR)
    return rng.normal(n) * sqrt(nu / (2.0 * g))


def backward(out: Var) -> dict[str, np.ndarray]:
    """d(out)/d(param) for every param on out's tape.

    Returns a map from parameter name to this sweep's adjoint (zeros for a
    param that out does not reach).  Raises :class:`PoisonedTapeError` if
    any node holds a non-finite value, and RuntimeError on reaching a node
    pushed before an earlier sweep.

    The sweep runs each node's rule from its record in ``_OPS``.  It reads
    only the values the tape saved for the rule, as the record declares.  A
    node's value and adjoint are freed as soon as its rule has run (an
    unreached node's value at once): every rule that reads them, its own and
    those of the later nodes, has run by then.  So what lives is the part of
    the tape not yet swept, the frontier of adjoints of nodes reached whose
    rules have not run yet, and the params' adjoints.  The tape is spent: a
    later sweep raises once it reaches a node pushed before this sweep,
    whose values may be gone.  Nodes pushed later save their operands afresh.

    Adjoints are written in place only where nothing else holds them: an
    array this sweep made (the buffer allocated when a slice or gather
    adjoint, a ``_Scatter``, first reaches an operand, or the sum of two
    adjoints) or one a rule made for that operand alone (an array that owns
    its data and is not g).  Slices and once-only gathers
    (``_scatter_kind``) add into such an adjoint at their key, the rest in
    whole.  Any other adjoint may be shared (``add`` hands g to both
    operands, ``transpose`` a view, ``sum`` a read-only broadcast), so what
    reaches it goes into a new array.  A gather that may repeat an
    entry scatters by ``np.add.at``; a once-only one assigns ``0.0 + g``,
    the same sums.  Every entry gets the sum that adding each adjoint as a
    full array, in arrival order, would give; only a -0.0 outside a slice's
    or once-only gather's key keeps its sign where adding a zero would make
    it +0.0.
    """
    tape = out.tape
    if tape.poisoned is not None:
        raise PoisonedTapeError(tape.poisoned, tape.ops[tape.poisoned])
    if out.value.shape != ():
        raise ValueError("backward: output must be scalar")

    n = out.idx + 1
    ops, parents, payloads, values, shapes = (
        tape.ops, tape.parents, tape.payloads, tape.values, tape.shapes)
    spent, tape.spent = tape.spent, len(ops)
    adj: list = [None] * n
    adj[out.idx] = np.asarray(1.0)
    owned: set[int] = set()  # nodes whose adjoint is a buffer this sweep made

    with np.errstate(all="ignore"):
        for i in range(n - 1, -1, -1):
            g = adj[i]
            par = parents[i]
            if g is None or not par:  # unreached, or a leaf
                values[i] = _UNSAVED
                continue
            if i < spent:
                raise RuntimeError(f"backward: node {i} ({ops[i]!r}) was swept before, "
                                   "and its saved values may be freed")
            rule, reads = _RULES[ops[i]]
            grads = rule(g, values[i], [values[p] for p in par] if reads else (), payloads[i])
            # Every rule that reads values[i] has run, and every write to
            # adj[i] came from a later node, so it is final; drop both now
            # (param leaves never get here and keep their adjoints).  The
            # local g stays bound until the next node: freeing it before the
            # sums below saves no page faults now that the package pins
            # malloc's thresholds (~0 per d=20 DE fit either way), and
            # measured no faster (median 46 against 43 ms CPU a step).
            values[i] = _UNSAVED
            adj[i] = None
            for p, gp in zip(par, grads):
                scatter = type(gp) is _Scatter
                if not scatter and gp.shape != shapes[p]:
                    gp = _unbroadcast(gp, shapes[p])
                a = adj[p]
                if p in owned:
                    if scatter:
                        gp.add_into(a)
                    else:
                        a += gp
                elif scatter:
                    # adj[p] may be an array shared with other adjoints, so
                    # the scatter gets a buffer of its own
                    adj[p] = gp.dense(shapes[p], a)
                    owned.add(p)
                else:
                    adj[p] = gp = gp if a is None else a + gp
                    if type(gp) is np.ndarray and gp.base is None and gp is not g:
                        owned.add(p)  # a new array, made for p alone

    return {name: np.zeros(shapes[idx]) if idx >= n or adj[idx] is None
            else np.array(adj[idx], dtype=float) for idx, name in tape.param_nodes.items()}
