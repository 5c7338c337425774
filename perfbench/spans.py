"""Per-layer spans recorded from outside the library.

A span wraps the name a caller looks up (``score_kit.cli.sdr_evalues``,
``score_kit.simulate.knn_predict``, ...) and is named ``module.function`` at
that call boundary.  Self time is a span's duration minus the time its child
spans cover.  Computed counts are read from arguments and return values inside
the wrappers, and the time spent computing them is charged to no layer.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

import score_kit.cli as cli
import score_kit.simulate as simulate
from score_kit.sdr import SdrEvalueSet

ROOTS = ("cli.main", "simulate.run_experiment")

# span name -> the modules whose global of the same function name is wrapped.
SPANS = {
    "cli.main": (cli,),
    "simulate.run_experiment": (simulate,),
    "cli._read_feature_csv": (cli,),
    "core.read_calibration_csv": (cli,),
    "core.read_test_csv": (cli,),
    "core.validate_batch": (cli,),
    "sdr.sdr_evalues": (cli,),
    "sdr.weighted_sdr_evalues": (cli,),
    "sdr.sdr_evalues_conservative": (cli,),
    "sdr._sdr_kernel": (simulate,),
    "mdr.deploy_mask": (cli, simulate),
    "selection.ebh": (cli, simulate),
    "selection.boost_hete": (cli, simulate),
    "selection.boost_homo": (cli, simulate),
    "models.knn_predict": (simulate,),
    "models.knn_fit": (simulate,),
    "models.logistic_fit_weights": (cli, simulate),
    "models.weight_predict": (cli, simulate),
    "baselines.concentration_mdr_threshold": (simulate,),
    "baselines.concentration_sdr_threshold": (simulate,),
    "simulate.generate_dataset": (simulate,),
    "simulate.rejection_sample_shifted": (simulate,),
}

# Computed counts: name -> (unit, how it is reported).  "per_op" counts are
# summed and divided by the traced op count; "share" counts are a summed
# numerator over a summed denominator.
COUNTS = {
    "sdr.breakpoint_path_share": ("ratio", "share"),
    "sdr.zero_evalue_share": ("ratio", "share"),
    "selection.selected_share": ("ratio", "share"),
    "sdr.kernel_elem_ops": ("count/op", "per_op"),
    "sdr.sdr_evalues_conservative.dense_bytes": ("B/op", "per_op"),
    "models.knn_predict.pairs": ("count/op", "per_op"),
    "core.read.rows": ("count/op", "per_op"),
    "core.read.bytes": ("B/op", "per_op"),
}


def _kernel_counts(acc, batch, ev, t0, t1):
    covered = batch.test_scores <= t1            # nan thresholds compare False
    acc["sdr.breakpoint_path_share"] += np.array([np.sum(covered & ~(t0 == t1)), batch.m])
    acc["sdr.zero_evalue_share"] += np.array([np.sum(ev == 0.0), batch.m])
    acc["sdr.kernel_elem_ops"] += batch.m * (batch.n + batch.m)


def _count_exact(acc, args, kwargs, res):
    _kernel_counts(acc, args[0], res.evalues, res.thresholds_at_0, res.thresholds_at_1)


def _count_kernel(acc, args, kwargs, res):
    _kernel_counts(acc, args[0], *res)


def _count_conservative(acc, args, kwargs, res):
    batch = args[0]
    pooled = np.unique(np.concatenate([batch.calib_scores, batch.test_scores]))
    acc["sdr.sdr_evalues_conservative.dense_bytes"] += pooled.size * batch.n * 8


def _count_selection(acc, args, kwargs, res):
    acc["selection.selected_share"] += np.array([res.tau, np.size(args[0])])


def _count_knn(acc, args, kwargs, res):
    acc["models.knn_predict.pairs"] += np.atleast_2d(args[1]).shape[0] * args[0].train_x.shape[0]


def _count_read(acc, args, kwargs, res):
    acc["core.read.rows"] += len(res)
    acc["core.read.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "sdr.sdr_evalues": _count_exact,
    "sdr.weighted_sdr_evalues": _count_exact,
    "sdr._sdr_kernel": _count_kernel,
    "sdr.sdr_evalues_conservative": _count_conservative,
    "selection.ebh": _count_selection,
    "selection.boost_hete": _count_selection,
    "selection.boost_homo": _count_selection,
    "models.knn_predict": _count_knn,
    "core.read_calibration_csv": _count_read,
    "core.read_test_csv": _count_read,
}


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.op_type = None      # set by the runner before each operation
        self.self_s = defaultdict(float)       # (op type, span) -> seconds
        self.calls = Counter()
        self.counts = defaultdict(float)
        self._open = []          # child time accumulated by each open span
        self._saved = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[self.op_type, name] += elapsed - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if counter is not None:
                start = time.perf_counter()
                counter(self.counts, args, kwargs, return_value)
                if self._open:
                    self._open[-1] += time.perf_counter() - start
            return return_value

        return span

    def __enter__(self):
        for name, modules in SPANS.items():
            attr = name.split(".", 1)[1]
            for module in modules:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span_self_s(self, op_types=None):
        """Self time per span, over all operations or those of ``op_types``."""
        total = dict.fromkeys(SPANS, 0.0)
        for (op_type, name), s in self.self_s.items():
            if op_types is None or op_type in op_types:
                total[name] += s
        return total

    def metrics(self, ops, op_wall_s):
        """Per-layer metrics over ``ops`` traced operations taking
        ``op_wall_s`` seconds of wall time in total."""
        out = {}
        for name, self_s in self.span_self_s().items():
            out[f"{name}.calls"] = (self.calls[name] / ops, "calls/op")
            out[f"{name}.self_s_per_op"] = (self_s / ops, "s")
            out[f"{name}.share"] = (self_s / op_wall_s, "ratio")
        for name, (unit, how) in COUNTS.items():
            value = self.counts.get(name, 0.0)
            if how == "share":
                num, den = value if isinstance(value, np.ndarray) else (0.0, 0.0)
                out[name] = (float(num / den) if den else 0.0, unit)
            else:
                out[name] = (float(value) / ops, unit)
        return out
