"""crosspool benchmark: end-to-end metrics, or per-layer spans with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-compare --seed 7 --seconds 60 --trace 0

The workload's inputs are generated from ``--seed`` before any timing.  The
pipeline then runs in this process through ``crosspool.pipeline.run_pipeline``
with ``workers=1`` and one BLAS thread.  Every time is ``time.perf_counter``
around calls made in this thread; the pipeline's own ``timing`` block is
never read.

The untraced run (``--trace 0``) times five phases, one config at a time,
and sums each metric over the workload's configs:

1. cold ``run_pipeline`` in a fresh workdir A                -> total_s
2. identical reruns on A, every stage a cache hit           -> cached_rerun_s
3. cold ``stages="representations"`` in a fresh workdir B    -> images_per_s
4. full runs on B, representations cached, kernel, model and
   report removed before each                               -> classify_s
5. ``parse_manifest`` + ``parse_network_file``                 -> setup_s

The phases are visited in turn, config by config, the short ones repeated
within a visit, so that samples spread over the whole ``--seconds``; the
run ends at the first visit that would end after ``--seconds``.  Every
timing takes each config's fastest sample (see ``Phases``).

The traced run (``--trace 1``) repeats one unit: phase 1 untraced, then
phases 1 and 2 with the spans of ``spans.py`` installed.  Per-layer metrics
come from the traced phases; the tracing overhead is the traced total_s
minus the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count configs, and a config fails when it raises or fails a check.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import functools
import json
import platform
import resource
import shutil
import signal
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

STAGES = ("representations", "kernel", "model", "report")

# How often one visit of a phase repeats it: at least MIN times, then again
# while the visit's summed time stays under BUDGET seconds, at most MAX.
# Set-up and reruns take milliseconds everywhere but on paper-geometry,
# where the seeded weights make them about 0.5 s.  The budgets keep the
# short phases from crowding out the cold and classify runs, whose fastest
# sample needs tens of visits to settle.
SETUP_REPEATS = (3, 0.02, 50)
RERUN_REPEATS = (3, 0.03, 20)
REPRESENT_REPEATS = (1, 0.2, 5)
CLASSIFY_REPEATS = (1, 0.0, 1)

# The traced cold run's root spans must cover the time run.py measured for it.
MIN_ACCOUNTED = 0.98

ALL_HIT = dict.fromkeys(("representations", "kernel", "model"), "hit")
ALL_MISS = dict.fromkeys(("representations", "kernel", "model"), "miss")
CLASSIFY = {"representations": "hit", "kernel": "miss", "model": "miss"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _repeat(fn, repeats):
    """Call ``fn`` (which returns the seconds it measured, or None when
    nothing could run) as ``repeats`` asks; returns the measured seconds."""
    low, budget, high = repeats
    times = []
    while len(times) < low or (sum(times) < budget and len(times) < high):
        seconds = fn()
        if seconds is None:
            break
        times.append(seconds)
    return times


def _keep_freed_memory() -> bool:
    """Have glibc's allocator keep freed memory for reuse.

    By default glibc maps an allocation above a threshold afresh, and moves
    that threshold, and the one above which it returns the heap's free top
    to the kernel, as the process frees memory.  Whether a 30-MB array then
    reuses warm heap pages or faults in fresh ones depends on what the
    process freed before: parts-quantized's cached rerun took 16-25 ms or
    40-50 ms from one run to the next.  Fixed thresholds (1 GiB, above any
    array the workloads make, and no trimming) make every visit after the
    first reuse the same pages.  Returns False where there is no glibc.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(m_mmap_threshold, 1 << 30)) and bool(
        mallopt(m_trim_threshold, 2**31 - 1))


def _fresh(parent, name):
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Run:
    """The workload's inputs, the samples taken and the failures seen."""

    workload: object
    manifest_path: str
    net_path: str
    manifest: object
    configs: list
    failures: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    samples: dict = field(default_factory=lambda: defaultdict(list))

    def fail(self, label, message):
        self.failures.setdefault(label, []).append(message)
        print(f"FAIL {label}: {message}", file=sys.stderr)

    def live(self):
        return [(label, c) for label, c in self.configs if label not in self.failures]

    def run_one(self, label, config, workdir, what, expect, **kwargs):
        """Run one config and check its report.  Returns the seconds taken and
        the report, or (None, None) when it raised."""
        from crosspool.pipeline import run_pipeline

        if label in self.failures:
            return None, None
        start = time.perf_counter()
        try:
            report = run_pipeline(config, self.manifest, workdir, workers=1, **kwargs)
        except Exception as exc:  # a config that raises counts as failed
            self.fail(label, f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        seconds = time.perf_counter() - start
        self.check(label, report, what, expect)
        return seconds, report

    def phase(self, workdir, what, expect, **kwargs):
        """Run every config once.  Returns the seconds summed over configs
        (None when none ran) and the reports by label."""
        seconds, reports = 0.0, {}
        for label, config in self.configs:
            taken, report = self.run_one(label, config, workdir, what, expect, **kwargs)
            if report is not None:
                seconds += taken
                reports[label] = report
        return (seconds if reports else None), reports

    def check(self, label, report, what, expect):
        for stage, state in expect.items():
            if report["cache"].get(stage) != state:
                self.fail(label, f"{what}: {stage} cache {report['cache'].get(stage)}, "
                                 f"expected {state}")
        if report["metrics"] is None:
            return
        got = report["metrics"]["accuracy"]
        want = self.accuracy.setdefault(label, got)
        if got != want:
            self.fail(label, f"{what}: accuracy {got} differs from the first run's {want}")

    def check_workload(self, reports):
        if len(reports) == len(self.configs):
            for message in self.workload.check(reports):
                self.fail("cross-layer", message)


class Phases:
    """The untraced run's phases, one config per visit, so that each config's
    samples are taken at different times; each per-config metric is summed
    over configs from its fastest samples.

    Other tenants of a shared machine only ever slow a sample down, and on a
    2-core machine they slow pure-Python code by up to 1.9x for tens of
    seconds at a time: the median of a run moves with their load, while the
    fastest sample stays close to the program's own cost.  The fastest of
    few long samples is itself noisy, since a whole sample must fall in a
    quiet spell; the workloads are sized so that one sample takes a second
    or two at most and a run holds ten or more of each.

    Phase 1 leaves workdir A/<config> for phase 2; phase 3 leaves workdir
    B/<config> for phase 4, which removes B's kernel, model and report
    before each run."""

    def __init__(self, run: Run, work):
        self.run = run
        self.work = work
        self.cold_reports = {}

    def _dir(self, kind, index):
        return os.path.join(self.work, kind, str(index))

    def cold(self, index, label, config):
        workdir = _fresh(self.work, os.path.join("A", str(index)))
        seconds, report = self.run.run_one(label, config, workdir, "cold run", ALL_MISS)
        if report is None:
            return
        self.run.samples[f"total_s[{label}]"].append(seconds)
        if label not in self.cold_reports:
            self.cold_reports[label] = report
            self.run.check_workload(self.cold_reports)

    def rerun(self, index, label, config):
        workdir = self._dir("A", index)
        self.run.samples[f"cached_rerun_s[{label}]"] += _repeat(
            lambda: self.run.run_one(label, config, workdir, "cached rerun", ALL_HIT)[0],
            RERUN_REPEATS,
        )

    def setup(self):
        from crosspool.network import parse_network_file
        from crosspool.pipeline import parse_manifest

        def once():
            start = time.perf_counter()
            parse_manifest(self.run.manifest_path)
            parse_network_file(self.run.net_path)
            return time.perf_counter() - start

        self.run.samples["setup_s"] += _repeat(once, SETUP_REPEATS)

    def represent(self, index, label, config):
        def once():
            workdir = _fresh(self.work, os.path.join("B", str(index)))
            return self.run.run_one(label, config, workdir, "representations run",
                                    {"representations": "miss"},
                                    stages="representations")[0]

        self.run.samples[f"represent_s[{label}]"] += _repeat(once, REPRESENT_REPEATS)

    def classify(self, index, label, config):
        workdir = self._dir("B", index)

        def once():
            for stage in STAGES[1:]:
                shutil.rmtree(os.path.join(workdir, stage), ignore_errors=True)
            return self.run.run_one(label, config, workdir, "classify run", CLASSIFY)[0]

        self.run.samples[f"classify_s[{label}]"] += _repeat(once, CLASSIFY_REPEATS)

    def cycle(self):
        steps = []
        for index, (label, config) in enumerate(self.run.configs):
            args = (index, label, config)
            steps += [functools.partial(self.cold, *args),
                      functools.partial(self.rerun, *args), self.setup,
                      functools.partial(self.represent, *args),
                      functools.partial(self.classify, *args)]
        return steps

    def metrics(self) -> dict:
        samples = self.run.samples

        def summed(name):
            return sum(min(samples[f"{name}[{label}]"], default=0.0)
                       for label, _ in self.run.configs)

        represent_s = summed("represent_s")
        images = len(self.run.manifest.entries) * len(self.run.configs)
        cross = self.cold_reports.get("cross-layer")
        return {
            "setup_s": min(samples["setup_s"], default=0.0),
            "total_s": summed("total_s"),
            "images_per_s": images / represent_s if represent_s else 0.0,
            "classify_s": summed("classify_s"),
            "cached_rerun_s": summed("cached_rerun_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": cross["metrics"]["accuracy"] if cross else 0.0,
        }


def svm_diagnostics(run: Run, reports) -> dict:
    """Recompute each class's final max projected gradient of the dual from
    the run's Gram and model artifacts, with c0 = trace(K)/n, alpha = |beta|."""
    import numpy as np

    from crosspool.svm import load_svm
    from crosspool.tensor import load_features

    labels = [e.labels for e in run.manifest.split("train")]
    worst, unconverged, support, bounded = 0.0, 0, 0, 0
    for label, config in run.configs:
        if label not in reports:
            continue
        artifacts = reports[label]["artifacts"]
        gram = load_features(os.path.join(artifacts["kernel"], "gram.fmat")).data
        gram = gram.astype(np.float64)
        model = load_svm(os.path.join(artifacts["model"], "model.svm"))
        augmented = gram + float(np.trace(gram)) / gram.shape[0]
        c = model.regularization_c
        for k, name in enumerate(model.classes):
            y = np.where([name in s for s in labels], 1.0, -1.0)
            beta = model.dual_coeffs[k]
            alpha = np.abs(beta)
            grad = y * (augmented @ beta) - 1.0
            projected = np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                                 np.where(alpha >= c, np.maximum(grad, 0.0), grad))
            class_worst = float(np.abs(projected).max())
            worst = max(worst, class_worst)
            unconverged += class_worst > config.svm_tol
            support += int(np.count_nonzero(alpha > 0.0))
            bounded += int(np.count_nonzero(alpha >= c))
    return {
        "svm.max_projected_gradient": worst,
        "svm.unconverged_classes": unconverged,
        "svm.support_vectors": support,
        "svm.bounded_support_vectors": bounded,
    }


def artifact_bytes(workdir) -> dict:
    sizes = {}
    for stage in STAGES:
        total = 0
        for parent, _, files in os.walk(os.path.join(workdir, stage)):
            total += sum(os.path.getsize(os.path.join(parent, f)) for f in files)
        sizes[f"tensor.artifact_bytes.{stage}"] = total
    sizes["tensor.artifact_bytes"] = sum(sizes.values())
    return sizes


def traced_unit(run: Run, work):
    """Phase 1 untraced, then phases 1 and 2 traced; per-layer samples."""
    from spans import Tracer

    untraced_s, _ = run.phase(_fresh(work, "A-plain"), "cold run", ALL_MISS)
    tracer = Tracer()
    for name in tracer.install():
        print(f"note: {name} no longer exists, its span is not recorded", file=sys.stderr)
    try:
        workdir = _fresh(work, "A-traced")
        traced_s, cold = run.phase(workdir, "traced cold run", ALL_MISS)
        accounted = sum(s.end - s.start for s in tracer.spans if s.parent is None)
        _, again = run.phase(workdir, "traced cached rerun", ALL_HIT)
    finally:
        tracer.uninstall()
    if untraced_s is None or traced_s is None:
        return
    run.check_workload(cold)
    if not MIN_ACCOUNTED <= accounted / traced_s <= 1.0:
        run.fail("cross-layer", f"spans account for {accounted:.4f} s of the traced "
                                f"{traced_s:.4f} s total")
    metrics = layer_metrics(tracer, list(cold.values()) + list(again.values()))
    metrics.update(svm_diagnostics(run, cold))
    metrics.update(artifact_bytes(workdir))
    metrics.update({
        "trace.total_s": traced_s,
        "trace.untraced_total_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.accounted_fraction": accounted / traced_s,
    })
    for name, value in metrics.items():
        run.samples[name].append(value)


def layer_metrics(tracer, reports) -> dict:
    calls, self_s, layer_s = tracer.summary()
    counts = tracer.counts
    conv_gmac = counts["network.conv_macs"] / 1e9
    kernel_s = sum(self_s[n] for n in ("svm.gram", "svm.kernel_rows",
                                        "svm.gram_packed", "svm.packed_rows"))
    cache = [state for r in reports for state in r["cache"].values()]
    metrics = {
        "network.parse_s": self_s["network.parse"],
        "network.forward_calls": calls["network.forward"],
        "network.conv_s": self_s["network.conv"],
        "network.relu_s": self_s["network.relu"],
        "network.conv_gmac": conv_gmac,
        "network.conv_gmac_per_s": conv_gmac / self_s["network.conv"]
        if self_s["network.conv"] else 0.0,
        "features.extract_calls": calls["features.extract"],
        "features.extract_s": self_s["features.extract"],
        "features.correspondence_s": self_s["features.correspondence"],
        "pooling.pool_calls": calls["pooling.pool"],
        "pooling.pool_s": self_s["pooling.pool"],
        "pooling.indicator_s": self_s["pooling.indicator"],
        "postproc.pca_fit_s": self_s["postproc.pca_fit"],
        "postproc.pca_project_s": self_s["postproc.pca_project"],
        "postproc.power_normalize_s": self_s["postproc.power_normalize"],
        "postproc.sign_quantize_calls": calls["postproc.sign_quantize"],
        "postproc.sign_quantize_s": self_s["postproc.sign_quantize"],
        "multires.parts_per_image": counts["multires.parts"] / calls["multires.iter_parts"]
        if calls["multires.iter_parts"] else 0.0,
        "svm.gram_s": self_s["svm.gram"],
        "svm.kernel_rows_s": self_s["svm.kernel_rows"],
        "svm.gram_packed_s": self_s["svm.gram_packed"],
        "svm.packed_rows_s": self_s["svm.packed_rows"],
        "svm.kernel_bytes": counts["svm.kernel_bytes"],
        "svm.kernel_gb_per_s": counts["svm.kernel_bytes"] / 1e9 / kernel_s
        if kernel_s else 0.0,
        "svm.train_s": self_s["svm.train"],
        "svm.predict_s": self_s["svm.predict"],
        "tensor.load_tensor_calls": calls["tensor.load_tensor"],
        "tensor.load_tensor_s": self_s["tensor.load_tensor"],
        "tensor.load_features_s": self_s["tensor.load_features"],
        "tensor.save_features_s": self_s["tensor.save_features"],
        "pipeline.digest_s": self_s["pipeline.digest"],
        "pipeline.cache_hits": cache.count("hit"),
        "pipeline.cache_misses": cache.count("miss"),
    }
    for layer in ("network", "features", "pooling", "postproc", "multires", "svm",
                  "tensor", "pipeline"):
        metrics[f"{layer}.self_s"] = layer_s[layer]
    return metrics


def measure(run: Run, args, work) -> tuple[dict, int]:
    """Visit the phases in turn.  The first pass visits every phase; the
    run ends at the first later visit that would no longer end within
    --seconds, had it taken as long as its last one, so that every phase is
    sampled amid the same mix of work.  Returns the metrics and the visits
    made."""
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        cycle = (functools.partial(traced_unit, run, work),)
    else:
        phases = Phases(run, work)
        cycle = phases.cycle()
    took = {}
    visits = 0
    while run.live():
        for index, step in enumerate(cycle):
            if index in took and time.perf_counter() + took[index] > deadline:
                break
            begun = time.perf_counter()
            step()
            took[index] = time.perf_counter() - begun
            visits += 1
        else:
            continue
        break
    if args.trace:
        return {name: _median(values) for name, values in run.samples.items()}, visits
    return phases.metrics(), visits


END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "images_per_s": "1/s", "classify_s": "s",
    "cached_rerun_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction",
}

COMPUTED = {"network.conv_gmac", "network.conv_gmac_per_s", "svm.kernel_bytes",
            "svm.kernel_gb_per_s", "tensor.artifact_bytes", "multires.parts_per_image",
            "svm.max_projected_gradient", "svm.unconverged_classes",
            "svm.support_vectors", "svm.bounded_support_vectors"} | {
    f"tensor.artifact_bytes.{stage}" for stage in STAGES}


UNITS = dict(END_TO_END_UNITS, **{
    "network.conv_gmac": "GMAC", "network.conv_gmac_per_s": "GMAC/s",
    "svm.kernel_gb_per_s": "GB/s", "svm.max_projected_gradient": "gradient",
    "multires.parts_per_image": "parts", "trace.accounted_fraction": "fraction",
})


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "_bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "crosspool" / "__init__.py").is_file():
        print(f"error: no crosspool sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    keeps_freed_memory = _keep_freed_memory()
    import numpy as np

    import crosspool
    from crosspool.pipeline import parse_manifest
    from workloads import WORKLOADS

    if Path(crosspool.__file__).resolve().parent != SRC / "crosspool":
        print(f"error: imported crosspool from {crosspool.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, pick one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Turn a termination request into SystemExit so the scratch tree is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        manifest_path, net_path = workload.build(os.path.join(work, "data"), args.seed)
        run = Run(workload, manifest_path, net_path, parse_manifest(manifest_path),
                  workload.configs(net_path, args.seed))
        metrics, visits = measure(run, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run.configs)
    failed = len(run.failures)
    env = {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "configs": [label for label, _ in run.configs],
        "visits": visits, "samples": {n: len(v) for n, v in run.samples.items()},
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "malloc_keeps_freed_memory": keeps_freed_memory,
        "numpy": np.__version__, "python": platform.python_version(),
    }
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        note = "  (computed)" if name in COMPUTED else ""
        print(f"{name:32s} {value:>16.6g} {unit_of(name)}{note}")
    print(f"{'failure_rate':32s} {failed / attempted:>16.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
