"""Span tracer for the traced benchmark run.

The tracer replaces public pairsim functions at the name where their caller
looks them up (``pairsim.trainer.batch_loss``, ``pairsim.cli.load_csv``, ...)
with wrappers that record one span per call: (name, start, end, parent, op).
Spans stay in memory until the run ends.  A layer's self time is the time its
spans cover minus the time their direct child spans cover, so the self times
of every span in an op add up to the op's root span exactly.

An *opaque* span hides the layers below it: calls made inside it get no span
of their own, so their time stays in the opaque span's self time.  The EMA
re-encode and the in-training evaluation are reported whole that way.

Only ``run.py --trace 1`` imports this module; untraced ops never see a
wrapper.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import Counter

import numpy as np


def _count_pairs(tracer, pairs):
    labels = getattr(pairs, "labels", None)  # a PairBatch today
    if labels is None:
        return
    tracer.counts["pair_queue.pairs"] += len(labels)
    tracer.counts["pair_queue.pos_pairs"] += int(np.count_nonzero(labels))


def _count_clusters(tracer, comp):
    tracer.counts["evaluation.clusters"] = int(np.unique(comp).size)


# (module, attribute, span name, options).  Training boundaries first, then
# the eval boundaries; a boundary a run never crosses simply records nothing.
BOUNDARIES = (
    ("pairsim.cli", "generate", "data.generate", {}),
    ("pairsim.cli", "train", "trainer", {}),
    ("pairsim.cli", "save_runlog", "trainer.save_runlog", {}),
    ("pairsim.trainer", "forward", "encoder.forward", {}),
    ("pairsim.trainer", "encode", "encoder.ema_encode", {"opaque": True}),
    ("pairsim.trainer", "backward", "encoder.backward", {}),
    ("pairsim.trainer", "sgd_step", "encoder.sgd_step", {}),
    ("pairsim.trainer", "ema_update", "encoder.ema_update", {}),
    ("pairsim.trainer", "form_pairs", "pair_queue.form_pairs", {"count": _count_pairs}),
    ("pairsim.pair_queue", "score_matrix", "similarity.score_matrix", {}),
    ("pairsim.trainer", "score_matrix_grad_left", "similarity.grad_left", {}),
    ("pairsim.trainer", "enqueue_batch", "pair_queue.enqueue", {}),
    ("pairsim.trainer", "batch_loss", "losses.batch_loss", {}),
    ("pairsim.trainer", "proxy_gip_ce", "baselines.ce", {}),
    ("pairsim.trainer", "softmax_ce", "baselines.ce", {}),
    # the one private boundary: the whole per-epoch validation pass
    ("pairsim.trainer", "_eval_on_pairs", "evaluation.in_train", {"opaque": True}),
    ("pairsim.cli", "load_csv", "data.load_csv", {}),
    ("pairsim.cli", "load_encoder", "encoder.load", {}),
    ("pairsim.cli", "encode", "encoder.encode", {"opaque": True}),
    ("pairsim.evaluation", "sample_pair_indices", "evaluation.sample_pairs", {}),
    ("pairsim.evaluation", "score_pairs", "evaluation.score_pairs", {}),
    ("pairsim.evaluation", "compute_eer", "evaluation.eer", {}),
    ("pairsim.evaluation", "tpr_at_far", "evaluation.tpr_roc", {}),
    ("pairsim.evaluation", "roc_points", "evaluation.tpr_roc", {}),
    ("pairsim.evaluation", "desideratum_audit", "evaluation.audit", {"peak": True}),
    (
        "pairsim.evaluation",
        "cluster_by_threshold",
        "evaluation.cluster",
        {"peak": True, "count": _count_clusters},
    ),
    ("pairsim.evaluation", "clustering_accuracy", "evaluation.cluster_acc", {}),
    ("pairsim.evaluation", "score_matrix", "similarity.score_matrix", {}),
)

ROOT = "cli"


class Tracer:
    """In-memory span recorder; `install` puts the wrappers in place of the
    boundary functions, `restore` puts the originals back."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.calls = Counter()
        self.counts = Counter()
        self.peak_bytes = Counter()
        self.missing = []  # boundaries this version of the program lacks
        self.op = 0
        self._stack = []
        self._opaque = 0
        self._targets = []  # (module, attribute, original, wrapper)
        for modname, attr, name, opts in BOUNDARIES:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._targets.append((module, attr, fn, self._wrap(fn, name, **opts)))

    def install(self):
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, fn, _ in self._targets:
            setattr(module, attr, fn)

    def _open(self, name, opaque):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._opaque += opaque
        return idx, parent

    def _close(self, idx, parent, name, opaque, t0, t1):
        self._stack.pop()
        self._opaque -= opaque
        self.spans[idx] = (name, t0, t1, parent, self.op)

    def _wrap(self, fn, name, opaque=False, peak=False, count=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if self._opaque:
                return fn(*args, **kwargs)
            idx, parent = self._open(name, opaque)
            if peak:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(idx, parent, name, opaque, t0, t1)
                if peak:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], top)
            if count is not None:
                count(self, out)
            return out

        return traced

    def run_op(self, op_id, fn):
        """Call fn() under a root span; returns (result, seconds)."""
        self.op = op_id
        idx, parent = self._open(ROOT, False)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._close(idx, parent, ROOT, False, t0, t1)
        return out, t1 - t0

    def self_times(self):
        """{span name: total self seconds} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def root_seconds(self):
        return sum(t1 - t0 for name, t0, t1, parent, _ in self.spans if parent < 0)

    def write(self, path):
        with open(path, "w", newline="\n") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps([name, t0, t1, parent, op]) + "\n")
