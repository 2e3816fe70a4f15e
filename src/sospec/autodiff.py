"""Reverse-mode differentiation over numpy arrays, one entry per closed-form
function.

A `Tape` records entries append-only as they execute (define-by-run);
`backward` replays them in strict reverse order, accumulating adjoints.
Values are float64 numpy arrays (scalars are 0-d). Leaves come from
`param`; every other value is the output of an entry. `record` runs a
function that returns (value, vjp), where vjp maps the output's adjoint to
one adjoint per input. There are no arithmetic ops. The model records its
whole training objective as one entry (model.build_objective), so a step's
tape holds one entry over the parameter leaves.

Values hold no reference to their tape, so a finished tape and every array
its stages keep are freed as soon as the caller drops it. Graphs are
rebuilt per step; a tape is confined to one thread.
"""

import numpy as np


class Var:
    """A value recorded on a tape. `grad` is populated by Tape.backward."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None


class Tape:
    def __init__(self):
        # entries: (output, inputs, vjp). vjp maps the output adjoint to
        # input adjoints, aligned positionally.
        self._entries = []
        self._params = []

    def param(self, value):
        v = Var(value)
        self._params.append(v)
        return v

    def record(self, stage, inputs, *args):
        """Run `stage(*input values, *args) -> (value, vjp)` as one entry.

        `inputs` are params or entry outputs of this tape; `args` are
        passed through untouched and get no adjoint.
        """
        value, vjp = stage(*(x.value for x in inputs), *args)
        out = Var(value)
        self._entries.append((out, inputs, vjp))
        return out

    def backward(self, loss):
        """Accumulate adjoints of the scalar `loss` into every param's grad.

        Adjoints are reset first, so repeated calls are independent.
        Gradients are never updated in place, so one array may serve as the
        adjoint of several values. `loss` must be the output of one of this
        tape's entries: values hold no reference to their tape, so a loss
        from another tape would otherwise leave every gradient zero.
        """
        if not self._entries:
            raise RuntimeError("backward called before any forward op")
        if not any(out is loss for out, _, _ in self._entries):
            raise ValueError("loss is not the output of an entry of this tape")
        if loss.value.ndim != 0:
            raise ValueError("loss must be scalar")

        for out, _, _ in self._entries:
            out.grad = None
        for p in self._params:
            p.grad = None

        loss.grad = np.ones((), dtype=np.float64)
        for out, ins, vjp in reversed(self._entries):
            if out.grad is None:
                continue
            for iv, ig in zip(ins, vjp(out.grad)):
                iv.grad = ig if iv.grad is None else iv.grad + ig

        for p in self._params:
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
