"""The benchmark's traced run, in small: ``perfbench/spans.py`` replaces
public crosspool functions with timing wrappers by name, and reads the
arguments and results of some of them, so the pipeline must keep working,
and keep its results, with those wrappers installed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.synth import generate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

ALL_MISS = {"representations": "miss", "kernel": "miss", "model": "miss"}
ALL_HIT = {"representations": "hit", "kernel": "hit", "model": "hit"}


def load_tracer(monkeypatch):
    if not SPANS.is_file():
        pytest.skip(f"no {SPANS.name} in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("options, parts", [
    (dict(pca_dim=4), 1),
    (dict(scheme="direct-max"), 1),
    (dict(resolution="both", quantize=True), 5),
], ids=["pca", "direct-max", "quantized-parts"])
def test_traced_cold_and_cached_runs(tmp_path, monkeypatch, options, parts):
    """Cold, then cached, with every span installed: nothing raises, the
    rerun hits every stage, accuracy equals an untraced run's, the conv
    count is positive and every image is cut into the config's parts,
    each training image twice with PCA."""
    tracer_class = load_tracer(monkeypatch)
    manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=3)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=net_path, seed=1, **options)
    untraced = run_pipeline(config, manifest, tmp_path / "plain")
    tracer = tracer_class()
    tracer.install()
    try:
        cold = run_pipeline(config, manifest, tmp_path / "traced", workers=1)
        cached = run_pipeline(config, manifest, tmp_path / "traced", workers=1)
    finally:
        tracer.uninstall()
    # a PCA config also reports its PCA stage
    pca = {"pca": ...} if options.get("pca_dim") else {}
    assert cold["cache"] == {**dict.fromkeys(pca, "miss"), **ALL_MISS}
    assert cached["cache"] == {**dict.fromkeys(pca, "hit"), **ALL_HIT}
    assert cold["metrics"]["accuracy"] == untraced["metrics"]["accuracy"]
    assert cached["metrics"]["accuracy"] == untraced["metrics"]["accuracy"]
    assert tracer.counts["network.conv_macs"] > 0
    calls, _, _ = tracer.summary()
    # the PCA stage cuts each training image once more, for its sample
    images = len(manifest.entries) + len(manifest.split("train")) * bool(pca)
    assert calls["multires.iter_parts"] == images
    assert tracer.counts["multires.parts"] == parts * images
