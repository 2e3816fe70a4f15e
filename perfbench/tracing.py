"""In-process tracer that wraps sospec's functions from the outside.

`Tracer.install` replaces every public function of every `sospec` module, at
every module attribute that names it (so `matrix_exp` is wrapped in `lie`,
`metrics`, `data` and the package root alike), plus a few named private
phases of the training loop and two classes' methods:

- a call that crosses a layer boundary (the innermost open span belongs to
  another module, or none is open) records a span; a call nested inside its
  own layer is only counted, unless it is one of the named PHASES;
- every recording method of `autodiff.Tape` (one per tape op) is a counter,
  keyed by the innermost open span, so ops per objective are measured
  without a span per op;
- `Tape.backward` and `Adam.step` record spans.

Spans (id, parent id, name, stage, request, start, end) are kept in an
`array` of integers, so the tracer adds no objects the cyclic garbage
collector has to walk, and are written out once when the run ends. Span
durations are also folded into per-(stage, parent, name) totals as they
close, from which `layer_metrics` derives the per-layer figures. A span's
self time is its duration minus the part its child spans cover.
"""

import array
import contextlib
import gc
import inspect
import json
import sys
from functools import wraps
from time import perf_counter_ns

STAGES = ("setup", "train", "round")

# Training-loop phases that get a span even when nested in their own layer.
PHASES = frozenset(
    {
        "train.train",
        "train._train_single",
        "train._forward_loss",
        "train.evaluate_params",
        "train.Adam.step",
    }
)
PRIVATE_WRAPPED = frozenset({"train._train_single", "train._forward_loss"})
SPAN_METHODS = (("autodiff", "Tape", "backward"), ("train", "Adam", "step"))
NOT_OPS = frozenset({"backward", "param", "constant"})

SPAN_FIELDS = ("id", "parent", "name", "stage", "request", "start_ns", "end_ns")
MAX_SPANS = 100_000  # spans kept for the trace file; totals cover every span

_W = 1 << 12  # id space of one key component (names, parents)
_NONE = _W - 1  # parent id of a root span


def _batch_rows(x):
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


# name -> (counter name, amount from positional args), counted on every call
HOOKS = {
    "model.predict": ("model.predict_rows", lambda args: _batch_rows(args[1])),
    "kernels.torus_fwd": (
        "kernels.characters",
        lambda args: args[0].shape[0] * args[1].shape[0],
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.stage = -1  # index into STAGES; -1 pauses recording
        self.request = 0
        self.occurrences = [0] * len(STAGES)
        self.spans = array.array("q")
        self._next_id = 0
        # open-span stack as parallel lists of ints/interned strings
        self._sid, self._nid, self._layer, self._start, self._child = [], [], [], [], []
        self.calls, self.incl, self.self_ns, self.counts = {}, {}, {}, {}

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            if i >= _NONE:
                raise RuntimeError("too many traced names")
            self.names.append(name)
        return i

    def _key(self, stage, name_id):
        parent = self._nid[-1] if self._nid else _NONE
        return (stage * _W + parent) * _W + name_id

    def _count(self, stage, name_id, amount):
        key = self._key(stage, name_id)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        tracer = self
        nid = self._id(name)
        nested_id = self._id(name + "#nested")
        phase = name in PHASES
        hook = HOOKS.get(name)
        if hook is not None:
            hook_id, hook_amount = self._id(hook[0]), hook[1]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stage = tracer.stage
            if stage < 0:
                return fn(*args, **kwargs)
            if hook is not None:
                tracer._count(stage, hook_id, hook_amount(args))
            layers = tracer._layer
            if layers and layers[-1] is layer and not phase:
                tracer._count(stage, nested_id, 1)
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            tracer._sid.append(sid)
            tracer._nid.append(nid)
            layers.append(layer)
            tracer._child.append(0)
            start = perf_counter_ns()
            tracer._start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._close(stage, sid, nid, end)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _close(self, stage, sid, nid, end):
        self._sid.pop()
        self._nid.pop()
        self._layer.pop()
        start = self._start.pop()
        child = self._child.pop()
        dur = end - start
        if self._child:
            self._child[-1] += dur
            parent_sid = self._sid[-1]
        else:
            parent_sid = -1
        key = self._key(stage, nid)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.incl[key] = self.incl.get(key, 0) + dur
        self.self_ns[key] = self.self_ns.get(key, 0) + dur - child
        if len(self.spans) < MAX_SPANS * len(SPAN_FIELDS):
            self.spans.extend((sid, parent_sid, nid, stage, self.request, start, end))

    def _op_wrapper(self, fn):
        tracer = self
        ops_id = self._id("autodiff.ops")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stage >= 0:
                tracer._count(tracer.stage, ops_id, 1)
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def install(self, package="sospec"):
        """Wrap the freshly imported `package` in place."""
        prefix = package + "."
        wrapped = {}
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or getattr(obj, "__perfbench_wrapped__", False):
                    continue
                if not (obj.__module__ or "").startswith(prefix):
                    continue
                layer = sys.intern(obj.__module__[len(prefix) :])
                name = f"{layer}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in PRIVATE_WRAPPED:
                    continue
                wrapper = wrapped.get(obj)
                if wrapper is None:
                    wrapper = wrapped[obj] = self._span_wrapper(obj, name, layer)
                setattr(mod, attr, wrapper)
        for layer, cls_name, method in SPAN_METHODS:
            cls = getattr(sys.modules[prefix + layer], cls_name)
            fn = vars(cls)[method]
            if not getattr(fn, "__perfbench_wrapped__", False):
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, self._span_wrapper(fn, name, sys.intern(layer)))
        tape = sys.modules[prefix + "autodiff"].Tape
        for attr, fn in list(vars(tape).items()):
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and attr not in NOT_OPS
                and not getattr(fn, "__perfbench_wrapped__", False)
            ):
                setattr(tape, attr, self._op_wrapper(fn))

    # -- stages ----------------------------------------------------------------

    def begin(self, stage, request):
        self.stage = STAGES.index(stage)
        self.request = request
        self.occurrences[self.stage] += 1

    def pause(self):
        self.stage = -1

    # -- read-out ----------------------------------------------------------------

    def _sum(self, table, stage, name, parent=None):
        nid = self._ids.get(name)
        if nid is None:
            return 0
        pid = None if parent is None else self._ids.get(parent, -2)
        total = 0
        for key, value in table.items():
            k_stage, rest = divmod(key, _W * _W)
            k_parent, k_name = divmod(rest, _W)
            if k_stage == stage and k_name == nid and (pid is None or k_parent == pid):
                total += value
        return total

    def calls_of(self, stage, name, parent=None):
        return self._sum(self.calls, stage, name, parent)

    def incl_s(self, stage, name, parent=None):
        return self._sum(self.incl, stage, name, parent) * 1e-9

    def self_s(self, stage, name, parent=None):
        return self._sum(self.self_ns, stage, name, parent) * 1e-9

    def count(self, stage, name, parent=None):
        return self._sum(self.counts, stage, name, parent)

    def stage_of(self, name, prefer=("round", "train")):
        """The stage whose work a metric on `name` describes: the first
        stage of `prefer` that calls it, else set-up."""
        for stage in prefer:
            index = STAGES.index(stage)
            if self.calls_of(index, name) or self.count(index, name):
                return index
        return STAGES.index("setup")

    def _rows(self, table):
        """[stage, parent, name, value] for every key of an aggregate table."""
        rows = []
        for key, value in sorted(table.items()):
            stage, rest = divmod(key, _W * _W)
            parent, name = divmod(rest, _W)
            rows.append([STAGES[stage], None if parent == _NONE else self.names[parent],
                         self.names[name], value])
        return rows

    def write(self, path, meta):
        """Write the span names, the aggregate tables and the kept spans as
        one JSON document."""
        width = len(SPAN_FIELDS)
        spans = self.spans.tolist()
        doc = {
            "meta": meta,
            "stages": list(STAGES),
            "occurrences": self.occurrences,
            "names": self.names,
            "calls": self._rows(self.calls),
            "inclusiveNs": self._rows(self.incl),
            "selfNs": self._rows(self.self_ns),
            "counters": self._rows(self.counts),
            "fields": list(SPAN_FIELDS),
            "spansKept": len(spans) // width,
            "spansTotal": self._next_id,
            "spans": [spans[i : i + width] for i in range(0, len(spans), width)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


class GcCounter:
    """Garbage-collector runs per stage, from `gc.get_stats` deltas."""

    def __init__(self):
        self.collections = [0] * len(STAGES)
        self.gen2 = [0] * len(STAGES)
        self._open = None

    @staticmethod
    def _snapshot():
        stats = gc.get_stats()
        return sum(s["collections"] for s in stats), stats[2]["collections"]

    def begin(self, stage):
        self._open = (STAGES.index(stage), self._snapshot())

    def end(self):
        stage, (total0, gen2_0) = self._open
        total1, gen2_1 = self._snapshot()
        self.collections[stage] += total1 - total0
        self.gen2[stage] += gen2_1 - gen2_0
        self._open = None


class Recorder:
    """Tracer and garbage-collector counts of one run; inert when tracing
    is off."""

    def __init__(self, enabled):
        self.tracer = Tracer() if enabled else None
        self.gc = GcCounter() if enabled else None
        self._stage = None

    def install(self):
        if self.tracer is not None:
            self.tracer.install()

    def begin(self, stage, request):
        if self.tracer is not None:
            self.tracer.begin(stage, request)
            self.gc.begin(stage)
            self._stage = stage

    def end(self):
        if self.tracer is not None:
            self.tracer.pause()
            self.gc.end()
            self._stage = None

    @contextlib.contextmanager
    def paused(self):
        """Keep the benchmark's own work out of the trace and the gc counts."""
        if self._stage is None:
            yield
            return
        stage = self.tracer.stage
        self.tracer.pause()
        self.gc.end()
        try:
            yield
        finally:
            self.tracer.stage = stage
            self.gc.begin(self._stage)


def _per(value, count):
    return value / count if count else 0.0


# Kernel figures describe training steps where a workload trains apart from
# its rounds.
TRAINING_FIRST = ("train", "round")


def layer_metrics(tracer, gc_counter, file_mb, round_s):
    """Per-layer figures; each comes from the stage that does its work,
    normalised per call, per step or per occurrence of that stage."""
    t = tracer
    occ = t.occurrences
    out = {}

    s = t.stage_of("train.Adam.step")
    steps = t.calls_of(s, "train.Adam.step")
    trains = t.calls_of(s, "train.train")
    single = t.incl_s(s, "train._train_single")
    validation = t.incl_s(s, "train._forward_loss", parent="train._train_single")
    out["train.steps"] = (_per(steps, trains), "count")
    out["train.step_ms"] = (_per(single - validation, steps) * 1e3, "ms")
    out["train.adam_ms"] = (_per(t.incl_s(s, "train.Adam.step"), steps) * 1e3, "ms")
    out["train.validation_s"] = (_per(validation, trains), "s")
    out["model.objective_ms"] = (
        _per(
            t.self_s(s, "model.build_objective", parent="train._train_single"),
            t.calls_of(s, "model.build_objective", parent="train._train_single"),
        )
        * 1e3,
        "ms",
    )
    out["autodiff.ops_per_step"] = (
        _per(
            t.count(s, "autodiff.ops", parent="model.build_objective"),
            t.calls_of(s, "model.build_objective"),
        ),
        "count",
    )
    out["autodiff.backward_ms"] = (
        _per(t.self_s(s, "autodiff.Tape.backward"), t.calls_of(s, "autodiff.Tape.backward")) * 1e3,
        "ms",
    )

    s = t.stage_of("train.evaluate_params")
    evals = t.calls_of(s, "train.evaluate_params")
    out["train.evaluate_s"] = (_per(t.incl_s(s, "train.evaluate_params"), evals), "s")
    out["model.predict_s"] = (_per(t.incl_s(s, "model.predict"), evals), "s")
    out["model.predict_rows"] = (_per(t.count(s, "model.predict_rows"), evals), "count")

    for kernel in ("block_polar_fwd", "block_polar_bwd", "torus_fwd", "torus_bwd", "adam_step"):
        name = f"kernels.{kernel}"
        s = t.stage_of(name, prefer=TRAINING_FIRST)
        out[f"{name}_ms"] = (_per(t.incl_s(s, name), t.calls_of(s, name)) * 1e3, "ms")
    s = t.stage_of("kernels.characters", prefer=TRAINING_FIRST)
    out["kernels.characters"] = (_per(t.count(s, "kernels.characters"), occ[s]), "count")

    s = t.stage_of("lie.matrix_exp")
    exp_spans = t.calls_of(s, "lie.matrix_exp")
    exp_calls = exp_spans + t.count(s, "lie.matrix_exp#nested")
    out["lie.matrix_exp_calls"] = (_per(exp_calls, occ[s]), "count")
    out["lie.matrix_exp_ms"] = (_per(t.incl_s(s, "lie.matrix_exp"), exp_spans) * 1e3, "ms")

    s = t.stage_of("metrics.invariance_error")
    out["metrics.invariance_error_s"] = (
        _per(t.incl_s(s, "metrics.invariance_error"), t.calls_of(s, "metrics.invariance_error")),
        "s",
    )

    generators = ("data.double_pendulum_task", "data.synth_invariant_regression")
    s = max(t.stage_of(g) for g in generators)
    out["data.generate_s"] = (
        _per(sum(t.incl_s(s, g) for g in generators), sum(t.calls_of(s, g) for g in generators)),
        "s",
    )
    for what in ("save", "load"):
        name = f"data.{what}_dataset"
        s = t.stage_of(name)
        out[f"data.{what}_s"] = (_per(t.incl_s(s, name), t.calls_of(s, name)), "s")
    out["data.file_mb"] = (file_mb, "MB")

    s = t.stage_of("train.Adam.step")
    out["gc.collections"] = (_per(gc_counter.collections[s], occ[s]), "count")
    out["gc.gen2_collections"] = (_per(gc_counter.gen2[s], occ[s]), "count")
    out["trace.round_s"] = (round_s, "s")
    return out
