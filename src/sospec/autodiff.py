"""The record of one training step's gradient.

model.build_objective computes the training objective in closed form and
records its VJP here; train reads the gradient, laid out as
GeneratorParams.flat, back with `backward`, which drops the record and so
frees the step's stage arrays before Adam steps. perfbench/tracing.py
counts `record` calls and times `backward`. A tape is confined to one
thread.
"""


class Tape:
    def record(self, value, vjp):
        """Keep `vjp`, the map from the scalar `value`'s adjoint to its
        gradient, and return `value`."""
        self._vjp = vjp
        return value

    def backward(self):
        """vjp(1.0), the gradient of the recorded value; drops the record."""
        vjp = self._vjp
        del self._vjp
        return vjp(1.0)
