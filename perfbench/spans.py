"""In-memory span tracing installed from outside the library.

A ``Tracer`` replaces selected functions with wrappers that record one
span per call: name, start, end and the index of the enclosing span.
Wrappers go in every place a caller looks the name up (a module
attribute, a name another module imported, a class attribute), and
``uninstall`` puts the originals back.  Counters attached to a wrapper
read the call's arguments and result; they never modify them, so a
traced run computes the same bits as an untraced one.
"""

import functools
import json
import os
import time

import numpy as np

from tmfusion import (cli, config, ctc, experiment, losses, metrics, model, oracle,
                      synth, verify)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lattice(args, kwargs, result):
    T = np.shape(_arg(args, kwargs, 0, "y"))[0]
    return {"ctc.lattice_cells": T * len(result.zp)}


def _frames(args, kwargs, result):
    return {"model.forward.frames": len(_arg(args, kwargs, 1, "x"))}


def _gate(args, kwargs, result):
    bank = _arg(args, kwargs, 0, "bank")
    label_cells = _arg(args, kwargs, 2, "gamma")[:, 1::2]
    return {"losses.center_gate_cells": label_cells.size,
            "losses.center_gate_passed":
                int((label_cells >= bank.occupancy_threshold).sum())}


def _file_bytes(key, index, name):
    def count(args, kwargs, result):
        return {key: os.path.getsize(_arg(args, kwargs, index, name))}
    return count


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if callable(value) and not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


COUNTERS = {
    "ctc.forward_backward": _lattice,
    "model.forward": _frames,
    "losses.center_delta_tmf": _gate,
    "synth.save_jsonl": _file_bytes("synth.save_jsonl.bytes", 1, "path"),
    "synth.load_jsonl": _file_bytes("synth.load_jsonl.bytes", 0, "path"),
    "config.save_checkpoint": _file_bytes("config.save_checkpoint.bytes", 0, "path"),
}


def _targets():
    """(owner, attribute, span name): every public function of the
    library's layers, the names cli imported from config and experiment,
    and the one method on the training path."""
    out = []
    for module in (ctc, losses, model, metrics, experiment, synth, config, oracle):
        short = module.__name__.rsplit(".", 1)[1]
        for attr in _public_functions(module):
            out.append((module, attr, "%s.%s" % (short, attr)))
    for attr in ("save_checkpoint", "load_checkpoint", "load_config", "append_metrics",
                 "open_metrics"):
        out.append((cli, attr, "config." + attr))
    out.append((cli, "evaluate_model", "experiment.evaluate_model"))
    out.append((losses.CenterBank, "step", "losses.CenterBank.step"))
    return out


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._saved = []
        self._suites = {}

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result
        return traced

    def install(self):
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, COUNTERS.get(name)))
        # the suites are called through their table, not by name
        self._suites = dict(verify.SUITES)
        for suite, (fn, tol, tag) in self._suites.items():
            verify.SUITES[suite] = (self.wrap("verify." + suite, fn), tol, tag)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        verify.SUITES.update(self._suites)

    def summary(self):
        """Per name: calls, total seconds and self seconds (the span
        minus the time its direct child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return out

    def write(self, path):
        """Spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
