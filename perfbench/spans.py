"""Spans recorded from outside the program, for the traced run only.

``Tracer.install`` replaces public crosspool functions with timing
wrappers in the modules that call them (``crosspool.pipeline.run_network``,
``crosspool.network.conv_forward``, ...), so nothing under ``src/``
changes.  Each call records a span: its name, start, end and parent span.
Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; the pipeline runs with one worker, so
children never overlap and the self times of a tree add up to its root.

Some wrappers also add computed work counts (conv multiply-accumulates from
stage shapes, kernel bytes touched from matrix shapes); these are derived
from the arguments, never measured.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import crosspool.network
import crosspool.pipeline
import crosspool.pooling


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _conv_macs(args, result):
    tensor, layer = args[0], args[1]
    oh, ow = layer.output_dims(tensor.height, tensor.width)
    return oh * ow * layer.out_depth * layer.kernel_h * layer.kernel_w * layer.in_depth


def _float_gram_bytes(args, result):
    n, dim = args[0].data.shape
    return n * n * dim * 8


def _float_rows_bytes(args, result):
    return args[0].count * args[1].count * args[1].dim * 8


def _packed_gram_bytes(args, result):
    n = len(args[0])
    return n * n * ((args[0][0].dim + 3) // 4)


def _packed_rows_bytes(args, result):
    return len(args[0]) * len(args[1]) * ((args[1][0].dim + 3) // 4)


def _parts(args, result):
    return len(result)


# (module, attribute, span name, computed count name, count function)
TARGETS = (
    (crosspool.pipeline, "run_pipeline", "pipeline.run", None, None),
    (crosspool.pipeline, "parse_network_file", "network.parse", None, None),
    (crosspool.pipeline, "run_network", "network.forward", None, None),
    (crosspool.network, "conv_forward", "network.conv", "network.conv_macs", _conv_macs),
    (crosspool.network, "relu_forward", "network.relu", None, None),
    (crosspool.network, "maxpool_forward", "network.maxpool", None, None),
    (crosspool.network, "load_features", "tensor.load_features", None, None),
    (crosspool.pipeline, "extract_local_features", "features.extract", None, None),
    (crosspool.pooling, "extract_local_features", "features.extract", None, None),
    (crosspool.pipeline, "correspondence_map", "features.correspondence", None, None),
    (crosspool.pipeline, "cross_layer_pool", "pooling.pool", None, None),
    (crosspool.pipeline, "direct_max_pool", "pooling.pool", None, None),
    (crosspool.pipeline, "direct_sum_sqrt_pool", "pooling.pool", None, None),
    (crosspool.pipeline, "spp_pool", "pooling.pool", None, None),
    (crosspool.pooling, "gather_indicator_weights", "pooling.indicator", None, None),
    (crosspool.pooling, "indicator_pool", "pooling.indicator", None, None),
    (crosspool.pipeline, "pca_fit", "postproc.pca_fit", None, None),
    (crosspool.pooling, "pca_project", "postproc.pca_project", None, None),
    (crosspool.pipeline, "power_normalize", "postproc.power_normalize", None, None),
    (crosspool.pipeline, "sign_quantize", "postproc.sign_quantize", None, None),
    (crosspool.pipeline, "save_sign_stack", "postproc.save", None, None),
    (crosspool.pipeline, "save_pca", "postproc.save", None, None),
    (crosspool.pipeline, "iter_parts", "multires.iter_parts", "multires.parts", _parts),
    (crosspool.pipeline, "gram_matrix", "svm.gram", "svm.kernel_bytes", _float_gram_bytes),
    (crosspool.pipeline, "kernel_rows", "svm.kernel_rows", "svm.kernel_bytes",
     _float_rows_bytes),
    (crosspool.pipeline, "gram_matrix_packed", "svm.gram_packed", "svm.kernel_bytes",
     _packed_gram_bytes),
    (crosspool.pipeline, "packed_rows", "svm.packed_rows", "svm.kernel_bytes",
     _packed_rows_bytes),
    (crosspool.pipeline, "svm_train", "svm.train", None, None),
    (crosspool.pipeline, "svm_predict", "svm.predict", None, None),
    (crosspool.pipeline, "save_svm", "svm.save", None, None),
    (crosspool.pipeline, "load_svm", "svm.load", None, None),
    (crosspool.pipeline, "load_tensor", "tensor.load_tensor", None, None),
    (crosspool.pipeline, "load_features", "tensor.load_features", None, None),
    (crosspool.pipeline, "save_features", "tensor.save_features", None, None),
    (crosspool.pipeline, "network_digest", "pipeline.digest", None, None),
    (crosspool.pipeline, "manifest_digest", "pipeline.digest", None, None),
)


class Tracer:
    """Records spans and computed counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.end - record.start

    def _wrap(self, fn, name, count_name, count_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count_name is not None:
                self.counts[count_name] += count_fn(args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the program no longer has,
        so that a later refactor that drops one loses only its span."""
        missing = []
        for module, attr, name, count_name, count_fn in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count_name, count_fn))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: call count and summed self time; per layer: summed
        self time."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.self_s
            layer_s[s.layer] += s.self_s
        return calls, self_s, layer_s
