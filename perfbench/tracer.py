"""Span-recording shims around dorsalhash's public functions.

``Tracer.install()`` replaces each traced function or method with a shim
that records one span (name, start, end, parent) per call.  A function is
replaced wherever a ``dorsalhash`` module holds a reference to it, because
``pipeline``, ``enrollment`` and ``cli`` import several functions by name
and would otherwise keep calling the original.  ``uninstall()`` puts every
original back.

Spans live in flat arrays while the run is going and are written out once,
at the end, by ``save()``.  ``layer_metrics()`` turns a range of spans into
the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

from dorsalhash import cli, corpus, enrollment, evaluation, hashing, network, ops, pipeline

# Conv stages are told apart by the size of the bank they apply.
STAGE_BY_BANK = {12: 1, 24: 2, 36: 3, 64: 4, 128: 5}

CLI_COMMANDS = ("enroll", "verify", "revoke")

# (metric, unit, kind, source): kind "s" is total span time, "self_s" span
# time minus the time of its direct child spans, "calls" the span count and
# "counter" the sum of a counter.  The trace.* rows are filled in by the
# runner from its own unit timings.
PER_LAYER: list[tuple[str, str, str, str]] = (
    [(f"ops.conv2d.stage{s}.s", "s", "s", f"ops.conv2d.stage{s}") for s in range(1, 6)]
    + [(f"ops.conv2d.stage{s}.calls", "count", "calls", f"ops.conv2d.stage{s}") for s in range(1, 6)]
    + [("ops.conv2d.gflop", "GFLOP", "counter", "ops.conv2d.gflop")]
    + [(f"ops.conv2d_input_grad.stage{s}.s", "s", "s", f"ops.conv2d_input_grad.stage{s}") for s in range(2, 6)]
    + [(f"ops.{op}.s", "s", "s", f"ops.{op}")
       for op in ("combine1x1", "combine1x1_grads", "maxpool2", "maxpool2_grad", "relu", "sgd_step")]
    + [
        ("network.forward.self_s", "s", "self_s", "network.forward"),
        ("network.forward.calls", "count", "calls", "network.forward"),
        ("network.train.self_s", "s", "self_s", "network.train"),
        ("network.calibrate_dense.s", "s", "s", "network.calibrate_dense"),
        ("network.load.s", "s", "s", "network.load"),
    ]
    + [row for fn in ("generate_random_vectors", "orthonormalize", "project", "binarize", "template_distance")
       for row in ((f"hashing.{fn}.s", "s", "s", f"hashing.{fn}"),
                   (f"hashing.{fn}.calls", "count", "calls", f"hashing.{fn}"))]
    + [
        ("evaluation.eer.s", "s", "s", "evaluation.eer"),
        ("evaluation.far_frr.calls", "count", "calls", "evaluation.far_frr"),
        ("evaluation.roc_grid.s", "s", "s", "evaluation.roc_grid"),
        ("evaluation.crr_rank1.s", "s", "s", "evaluation.crr_rank1"),
        ("evaluation.decidability_index.s", "s", "s", "evaluation.decidability_index"),
        ("evaluation.scores_from_matches.s", "s", "s", "evaluation.scores_from_matches"),
        ("pipeline.protocol_from_features.self_s", "s", "self_s", "pipeline.protocol_from_features"),
        ("enrollment.vault_open.s", "s", "s", "enrollment.vault_open"),
        ("enrollment.vault_open.records", "count", "counter", "enrollment.vault_open.records"),
        ("enrollment.vault_open.bytes", "bytes", "counter", "enrollment.vault_open.bytes"),
        ("enrollment.issue_key.s", "s", "s", "enrollment.issue_key"),
        ("enrollment.load_basis.s", "s", "s", "enrollment.load_basis"),
        ("enrollment.active_record.s", "s", "s", "enrollment.active_record"),
        ("enrollment.bytes_appended", "bytes", "counter", "enrollment.bytes_appended"),
        ("corpus.synthesize_sample.s", "s", "s", "corpus.synthesize_sample"),
        ("corpus.load_image.s", "s", "s", "corpus.load_image"),
        ("corpus.bilinear_resize.s", "s", "s", "corpus.bilinear_resize"),
    ]
    + [(f"cli.main.{c}.self_s", "s", "self_s", f"cli.main.{c}") for c in CLI_COMMANDS]
    + [
        ("trace.unit_s", "s", "runner", "untraced unit time"),
        ("trace.traced_unit_s", "s", "runner", "traced unit time"),
        ("trace.overhead_s", "s", "runner", "traced minus untraced unit time"),
    ]
)


def _stage(kernels) -> str:
    count = int(np.shape(kernels)[0]) if np.ndim(kernels) == 3 else 1
    return f"stage{STAGE_BY_BANK[count]}" if count in STAGE_BY_BANK else f"bank{count}"


# The network passes kernels positionally: conv2d(image, kernels) and
# conv2d_input_grad(grad_out, kernels, input_shape); the benchmark calls
# cli.main(argv) with the command first.
def _conv_name(args, kwargs) -> str:
    return f"ops.conv2d.{_stage(args[1])}"


def _conv_grad_name(args, kwargs) -> str:
    return f"ops.conv2d_input_grad.{_stage(args[1])}"


def _conv_gflop(args, kwargs, before, result):
    # One multiply and one add per kernel tap per output cell.
    k, h, w = result.shape
    kh, kw = np.shape(args[1])[-2:]
    return [("ops.conv2d.gflop", 2.0 * k * h * w * kh * kw / 1e9)]


def _cli_name(args, kwargs) -> str:
    return f"cli.main.{args[0][0]}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def _vault_opened(args, kwargs, before, result):
    vault = args[0]
    return [
        ("enrollment.vault_open.records", len(vault.keys) + len(vault.templates)),
        ("enrollment.vault_open.bytes", _file_size(vault.keys.path) + _file_size(vault.templates.path)),
    ]


def _size_before_append(args, kwargs):
    return _file_size(args[0].path)


def _bytes_appended(args, kwargs, before, result):
    return [("enrollment.bytes_appended", _file_size(args[0].path) - before)]


# (owner, attribute, span name or name function, before hook, after hook)
TARGETS = [
    (ops, "conv2d", _conv_name, None, _conv_gflop),
    (ops, "conv2d_input_grad", _conv_grad_name, None, None),
    (ops, "combine1x1", "ops.combine1x1", None, None),
    (ops, "combine1x1_grads", "ops.combine1x1_grads", None, None),
    (ops, "maxpool2", "ops.maxpool2", None, None),
    (ops, "maxpool2_grad", "ops.maxpool2_grad", None, None),
    (ops, "relu", "ops.relu", None, None),
    (ops.SgdMomentum, "step", "ops.sgd_step", None, None),
    # _trace is the forward pass behind forward(), calibrate_dense() and
    # every training sample.
    (network.FixedFilterNet, "_trace", "network.forward", None, None),
    (network.FixedFilterNet, "calibrate_dense", "network.calibrate_dense", None, None),
    (network.FixedFilterNet, "load", "network.load", None, None),
    (network, "train", "network.train", None, None),
    (hashing, "generate_random_vectors", "hashing.generate_random_vectors", None, None),
    (hashing, "orthonormalize", "hashing.orthonormalize", None, None),
    (hashing, "project", "hashing.project", None, None),
    (hashing, "binarize", "hashing.binarize", None, None),
    (hashing, "template_distance", "hashing.template_distance", None, None),
    (evaluation, "eer", "evaluation.eer", None, None),
    (evaluation, "far_frr", "evaluation.far_frr", None, None),
    (evaluation, "roc_grid", "evaluation.roc_grid", None, None),
    (evaluation, "crr_rank1", "evaluation.crr_rank1", None, None),
    (evaluation, "decidability_index", "evaluation.decidability_index", None, None),
    (evaluation, "scores_from_matches", "evaluation.scores_from_matches", None, None),
    (pipeline, "protocol_from_features", "pipeline.protocol_from_features", None, None),
    (enrollment.TemplateVault, "__init__", "enrollment.vault_open", None, _vault_opened),
    (enrollment.TemplateVault, "issue_key", "enrollment.issue_key", None, None),
    (enrollment.TemplateVault, "load_basis", "enrollment.load_basis", None, None),
    (enrollment.TemplateVault, "active_record", "enrollment.active_record", None, None),
    (enrollment._JsonlStore, "append", "enrollment.append", _size_before_append, _bytes_appended),
    (corpus, "synthesize_sample", "corpus.synthesize_sample", None, None),
    (corpus, "load_image", "corpus.load_image", None, None),
    (corpus, "bilinear_resize", "corpus.bilinear_resize", None, None),
    (cli, "main", _cli_name, None, None),
]


class Tracer:
    """Records spans from shims installed around the TARGETS."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # (index of the span that produced it, name id, value)
        self.counters: list[tuple[int, int, float]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _shim(self, fn, name, before, after):
        stack, start, end = self._stack, self.start, self.end

        def shim(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            state = before(args, kwargs) if before else None
            index = len(start)
            self.name_id.append(self._id(label))
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if after:
                for key, value in after(args, kwargs, state, result):
                    self.counters.append((index, self._id(key), float(value)))
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", "shim")
        return shim

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "dorsalhash" or key.startswith("dorsalhash.")]
        for owner, attr, name, before, after in TARGETS:
            original = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    self._replace(owner, attr, classmethod(self._shim(original.__func__, name, before, after)))
                else:
                    self._replace(owner, attr, self._shim(original, name, before, after))
                continue
            shim = self._shim(original, name, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, shim)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over spans [lo, hi) and the counters they made."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64))[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        inside = parent >= lo
        child = np.zeros(hi - lo)
        np.add.at(child, parent[inside] - lo, dur[inside])
        n = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        calls = np.bincount(ids, minlength=n)
        counted = np.zeros(n)
        for index, key, value in self.counters:
            if lo <= index < hi:
                counted[key] += value
        source = {"s": total, "self_s": own, "calls": calls, "counter": counted}
        out = {}
        for metric, _unit, kind, name in PER_LAYER:
            if kind == "runner":
                continue
            i = self._ids.get(name)
            value = source[kind][i] if i is not None else 0.0
            out[metric] = int(value) if kind == "calls" else float(value)
        return out

    def save(self, path) -> None:
        """Write every span (name, start, end, parent index) and counter."""
        counters = np.array(self.counters, dtype=np.float64).reshape(-1, 3)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counters=counters,
        )
