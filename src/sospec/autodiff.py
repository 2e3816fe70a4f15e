"""Reverse-mode differentiation over numpy arrays, one entry per stage.

A `Tape` records entries append-only as they execute (define-by-run);
`backward` replays them in strict reverse order, accumulating adjoints.
Values are float64 numpy arrays (scalars are 0-d). An entry is a whole
closed-form stage of the model: `record` runs a function that returns
(value, vjp), where vjp maps the output's adjoint to one adjoint per input.
`add` and `scale` combine the scalar terms of an objective.

A value holds its tape only through a weak reference, so a finished tape
and every array its stages keep are freed as soon as the caller drops it.
Graphs are rebuilt per step; a tape is confined to one thread.
"""

import weakref

import numpy as np


class Var:
    """A value recorded on a tape. `grad` is populated by Tape.backward."""

    __slots__ = ("value", "grad", "_tape", "_track")

    def __init__(self, value, tape_ref, track):
        self.value = value
        self.grad = None
        self._tape = tape_ref
        self._track = track

    @property
    def shape(self):
        return self.value.shape


def _as_value(x):
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tape:
    def __init__(self):
        # entries: (output, inputs, vjp). vjp maps the output adjoint to
        # input adjoints, aligned positionally.
        self._entries = []
        self._params = []
        self._ref = weakref.ref(self)

    # -- leaves ------------------------------------------------------------

    def param(self, value):
        v = Var(_as_value(value), self._ref, track=True)
        self._params.append(v)
        return v

    def constant(self, value):
        return Var(_as_value(value), self._ref, track=False)

    def _lift(self, x):
        if isinstance(x, Var):
            if x._tape is not self._ref:
                raise ValueError("operand recorded on a different tape")
            return x
        return self.constant(x)

    def _push(self, value, inputs, vjp):
        out = Var(value, self._ref, track=True)
        self._entries.append((out, inputs, vjp))
        return out

    # -- entries -------------------------------------------------------------

    def record(self, stage, inputs, *args):
        """Run `stage(*input values, *args) -> (value, vjp)` as one entry.

        `inputs` are Vars (or arrays, taken as constants); `args` are passed
        through untouched and get no adjoint.
        """
        inputs = tuple(self._lift(x) for x in inputs)
        value, vjp = stage(*(x.value for x in inputs), *args)
        return self._push(_as_value(value), inputs, vjp)

    def add(self, a, b):
        a, b = self._lift(a), self._lift(b)
        return self._push(
            a.value + b.value,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        )

    def scale(self, a, c):
        a = self._lift(a)
        c = float(c)
        return self._push(a.value * c, (a,), lambda g: (g * c,))

    # -- backward -----------------------------------------------------------------

    def backward(self, loss):
        """Accumulate adjoints of `loss` back to every parameter.

        Returns {param Var: gradient array}. Adjoints are reset first, so
        repeated calls are independent. Gradients are never updated in
        place, so one array may serve as the adjoint of several values.
        """
        if not self._entries:
            raise RuntimeError("backward called before any forward op")
        if not isinstance(loss, Var) or loss._tape is not self._ref:
            raise ValueError("loss is not a Var of this tape")
        if loss.value.ndim != 0:
            raise ValueError("loss must be scalar")

        for out, ins, _ in self._entries:
            out.grad = None
            for i in ins:
                i.grad = None
        for p in self._params:
            p.grad = None

        loss.grad = np.ones((), dtype=np.float64)
        for out, ins, vjp in reversed(self._entries):
            if out.grad is None:
                continue
            for iv, ig in zip(ins, vjp(out.grad)):
                if not iv._track:
                    continue
                iv.grad = ig if iv.grad is None else iv.grad + ig

        for p in self._params:
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
        return {p: p.grad for p in self._params}
