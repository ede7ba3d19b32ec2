"""Span tracing of the speechface library from outside the program.

The tracer replaces each traced public function with a wrapper that records
one span per call: name, layer label, start, end, parent span, the unit
(frame or step) being worked on, and an optional size taken from the call.
Functions are replaced at their module attribute and in every speechface
module that imported them by name, so calls made through module globals
(``lstm_step`` calling ``dense``, ``stream`` calling ``forward``) are seen
too. Spans stay in memory; :func:`analyze` turns them into per-layer numbers
after the run, and :meth:`Tracer.uninstall` restores every attribute.
"""

from __future__ import annotations

import functools
import sys
import time

# Units below zero are not measured: set-up, warm-up, and calls the
# benchmark itself makes outside the workload.
SETUP, WARMUP, IGNORE = -1, -2, -3

# Span fields, one list per span.
NAME, LABEL, START, END, PARENT, UNIT, EXTRA = range(7)

RECURRENT_STEPS = ("lstm_step", "gru_step")


def _param_label(param, suffix):
    name = getattr(param, "name", "")
    return name[:-len(suffix)] if name.endswith(suffix) else (name or None)


def _conv_extra(args, kwargs, out):
    w = args[1].data
    od = out.data
    return (2.0 * od.size * w.shape[1] * w.shape[2] * w.shape[3], od.nbytes, od.itemsize)


def _dense_extra(args, kwargs, out):
    od = out.data
    return (2.0 * od.size * args[1].data.shape[1], od.nbytes, od.itemsize)


# (module, attribute, raw label from the call, size taken from the call).
# An attribute the library no longer has is skipped, not an error.
TRACED = [
    ("autograd", "add", None, None),
    ("autograd", "sub", None, None),
    ("autograd", "mul", None, None),
    ("autograd", "sum_all", None, None),
    ("autograd", "reshape", None, None),
    ("autograd", "narrow", None, None),
    ("autograd", "take_rows", None, None),
    ("autograd", "relu", None, None),
    ("autograd", "tanh", None, None),
    ("autograd", "sigmoid", None, None),
    ("autograd", "dense", lambda a, k: _param_label(a[1], ".w"), _dense_extra),
    ("autograd", "conv2d", lambda a, k: _param_label(a[1], ".w"), _conv_extra),
    ("autograd", "max_pool2d", None, None),
    ("autograd", "batch_norm", lambda a, k: _param_label(a[1].gamma, ".gamma"), None),
    ("autograd", "lstm_step", None, None),
    ("autograd", "gru_step", None, None),
    ("autograd", "Tensor.backward", None, None),
    ("audio", "load_wav", None, None),
    ("audio", "compute_spectrogram", None, None),
    ("audio", "clip_spectrograms", None, None),
    ("audio", "normalize", None, None),
    ("model", "build_model", None, None),
    ("model", "load_checkpoint", None, None),
    ("model", "forward", None, None),
    ("model", "forward_sequence", None, None),
    ("model", "Model.trunk", None, None),
    ("model", "Model.recur", None, None),
    ("model", "Model.head_out", None, None),
    ("face", "compose_shape", None, None),
    ("data", "load_dataset", None, None),
    ("data", "write_param_csv", None, None),
    ("trainer", "train", None, None),
    ("trainer", "make_batches", None, None),
    ("trainer", "adam_step", None, None),
    ("stream", "StreamingSession.push", None, lambda a, k, out: len(out)),
]


class NullTracer:
    """Stands in for a tracer in untraced runs; only carries the unit id."""

    unit = SETUP


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.unit = SETUP
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, fn, name, label_of, extra_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, label_of(args, kwargs) if label_of else None, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.unit, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extra_of is not None:
                rec[EXTRA] = extra_of(args, kwargs, out)
            return out

        return traced

    def install(self, package_name: str = "speechface") -> None:
        """Wrap every function in :data:`TRACED` that the package has."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package_name or n.startswith(package_name + "."))]
        for mod_name, attr, label_of, extra_of in TRACED:
            module = sys.modules.get(f"{package_name}.{mod_name}")
            if module is None:
                continue
            span_name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span_name, label_of, extra_of))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, span_name, label_of, extra_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put back every original attribute, in reverse order of patching."""
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


def attribute_snapshot(package_name: str = "speechface") -> dict:
    """Identity of every module and class attribute in the package."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == package_name or name.startswith(package_name + ".")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for ckey, cvalue in vars(value).items():
                    snap[(name, f"{key}.{ckey}")] = id(cvalue)
    return snap


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children.

    Calls run on one thread, so children of one span never overlap and their
    durations add up to the time they cover.
    """
    self_t = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= s[END] - s[START]
    return self_t


def nesting_errors(spans) -> int:
    """Children outside their parent's interval or overlapping a sibling."""
    errors = 0
    last_end = {}
    for s in spans:
        p = s[PARENT]
        lo, hi = (spans[p][START], spans[p][END]) if p >= 0 else (float("-inf"), float("inf"))
        if not (lo <= s[START] <= s[END] <= hi) or s[START] < last_end.get(p, lo):
            errors += 1
        last_end[p] = s[END]
    return errors


def layer_labels(spans, pool_names) -> list:
    """Layer of each autograd span, or None for spans outside autograd.

    Convolutions and dense layers are labelled by their weight Parameter
    name, batch norms by their BatchNormState parameter name, a ReLU by the
    convolution before it, pools by their order among the pools of one parent
    call, and a tanh or sigmoid by the dense layer it directly follows. Every
    op inside a recurrent step carries the step's label; anything else is
    ``other``.
    """
    labels = [None] * len(spans)
    context: dict = {}
    for i, s in enumerate(spans):
        name, raw, parent = s[NAME], s[LABEL], s[PARENT]
        if not name.startswith("autograd.") or name == "autograd.backward":
            continue
        op = name.split(".", 1)[1]
        if parent >= 0 and labels[parent] in RECURRENT_STEPS:
            labels[i] = labels[parent]
            continue
        ctx = context.setdefault(parent, {"conv": None, "dense": None, "pools": 0})
        label = "other"
        if op in RECURRENT_STEPS:
            label = op
        elif op == "conv2d" and raw:
            label = ctx["conv"] = raw
        elif op == "batch_norm" and raw:
            label = raw
        elif op == "relu" and ctx["conv"]:
            label = f"{ctx['conv']}.relu"
        elif op == "max_pool2d":
            if ctx["pools"] < len(pool_names):
                label = pool_names[ctx["pools"]]
            ctx["pools"] += 1
        elif op == "dense" and raw:
            label = ctx["dense"] = raw
            labels[i] = label
            continue
        elif op in ("tanh", "sigmoid") and ctx["dense"]:
            label = ctx["dense"]
        ctx["dense"] = None
        labels[i] = label
    return labels
