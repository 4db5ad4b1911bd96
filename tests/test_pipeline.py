"""End-to-end pipeline tests on small synthetic datasets."""

import builtins
import dataclasses
import json
import os
import re
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crosspool
import crosspool.network
import crosspool.pipeline
import crosspool.svm
from crosspool.errors import ConfigError, ContractError, GeometryError, ValidationError
from crosspool.features import extract_local_features
from crosspool.multires import ResolutionConfig, iter_parts
from crosspool.network import (
    ConvLayerSpec,
    MaxPoolStage,
    NetworkSpec,
    ReluStage,
    parse_network_file,
    run_network,
    write_network_file,
)
from crosspool.pipeline import (
    DatasetManifest,
    PipelineConfig,
    average_precision,
    compare_schemes,
    load_config,
    parse_manifest,
    run_pipeline,
)
from crosspool.postproc import load_pca, load_sign_stack, sign_quantize
from crosspool.svm import load_svm
from crosspool.synth import generate, make_image
from crosspool.tensor import ActivationTensor, load_features, load_tensor, save_tensor
from test_pool_drift import assert_rows_within_bound, parts_dataset

ALL_HIT = {"representations": "hit", "kernel": "hit", "model": "hit"}
# a cross-layer config with PCA also reports its PCA stage
PCA_HIT = {"pca": "hit", **ALL_HIT}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest_path, net_path = generate(root, n_train=24, n_test=24, seed=11)
    return parse_manifest(manifest_path), str(net_path)


def test_average_precision_oracle():
    rng = np.random.default_rng(110)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        scores = rng.normal(size=n)
        relevant = rng.random(n) < 0.4
        if not relevant.any():
            relevant[0] = True
        got = average_precision(scores, relevant)

        order = sorted(range(n), key=lambda i: (-scores[i], i))
        hits = 0
        total = 0.0
        for rank, idx in enumerate(order, start=1):
            if relevant[idx]:
                hits += 1
                total += hits / rank
        expect = total / relevant.sum()
        assert abs(got - expect) < 1e-12


def test_average_precision_perfect_and_worst():
    scores = np.array([3.0, 2.0, 1.0, 0.0])
    assert average_precision(scores, np.array([True, True, False, False])) == 1.0
    worst = average_precision(scores, np.array([False, False, False, True]))
    assert abs(worst - 0.25) < 1e-12


def test_manifest_parsing(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "# comment line\n"
        "a.tens\ttrain\tcat\n"
        "b.tens\ttrain\tdog\n"
        "c.tens\ttest\tcat,dog\n"
    )
    manifest = parse_manifest(path)
    train, test = manifest.split("train"), manifest.split("test")
    assert len(train) == 2 and len(test) == 1
    assert manifest.classes() == ("cat", "dog")
    assert not manifest.single_label
    assert test[0].labels == frozenset({"cat", "dog"})


@pytest.mark.parametrize(
    "body",
    [
        "a.tens\ttrain\n",                        # missing label column
        "a.tens\tvalidation\tcat\n",              # unknown split
        "a.tens\ttrain\t\n",                      # empty label
        "a.tens\ttrain\tcat\n",                   # no test rows
        "a.tens\ttest\tcat\n",                    # no train rows
    ],
)
def test_manifest_rejects(tmp_path, body):
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(ValidationError):
        parse_manifest(path)


def test_config_file_round_trip(tmp_path, dataset):
    _, net_path = dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "network": net_path,
        "scheme": "cross-layer",
        "pca_dim": 10,
        "svm_c": 2.0,
        "resolution": {"blocks_m": 2, "blocks_n": 2, "include_whole_image": True},
    }))
    config = load_config(cfg_path)
    assert config.pca_dim == 10
    assert config.svm_c == 2.0
    assert config.resolution.blocks_m == 2


def test_readme_config_example_loads(tmp_path):
    """The README's example config, the json block under "Pipeline config
    (JSON)", loads as it is written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("### Pipeline config (JSON)", 1)[1]
    example = re.search(r"^```json\n(.*?)^```$", section, re.M | re.S).group(1)
    (tmp_path / "cfg.json").write_text(example)
    config = load_config(tmp_path / "cfg.json")
    assert config.network == str(tmp_path / "net.spec")
    assert config.pca_dim == 20 and config.resolution.blocks_m == 2


def test_config_rejects_unknown_keys(tmp_path):
    """A misspelt key, or one that version 0.4.0 read and 0.5.0 fixed (every
    row takes one signed square root; the pyramid has levels 1 and 2), is
    named as unknown."""
    path = tmp_path / "bad.json"
    for key, value in (("sceme", "cross-layer"), ("power_norm", True), ("spp_levels", [1, 2])):
        path.write_text(json.dumps({"network": "net.spec", key: value}))
        with pytest.raises(ConfigError, match=f"unknown config keys \\['{key}'\\]"):
            load_config(path)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(network="net.spec", scheme="majority-vote")
    with pytest.raises(ConfigError):
        PipelineConfig(network="net.spec", pca_dim=-1)
    with pytest.raises(ConfigError):
        PipelineConfig(network="net.spec", layer_pair=(2, 1))
    with pytest.raises(ConfigError):
        PipelineConfig(network="net.spec", svm_c=0.0)
    # an integer past the largest float
    with pytest.raises(ConfigError):
        PipelineConfig(network="net.spec", svm_c=10**400)


def test_integer_svm_c_reuses_the_model(dataset, tmp_path):
    """``svm_c`` 1 and 1.0 pose the same problem, so they share one model."""
    manifest, net_path = dataset
    workdir = tmp_path / "work"
    first = run_pipeline(PipelineConfig(network=net_path, svm_c=1.0), manifest, workdir)
    again = run_pipeline(PipelineConfig(network=net_path, svm_c=1), manifest, workdir)
    assert again["cache"] == ALL_HIT
    assert again["artifacts"]["model"] == first["artifacts"]["model"]


def test_integer_overlap_reuses_every_stage(dataset, tmp_path):
    """``overlap_fraction`` 0 in a config file and the ``both`` preset's 0.0
    describe one block grid, so they share every stage."""
    manifest, net_path = dataset
    workdir = tmp_path / "work"
    run_pipeline(PipelineConfig(network=net_path, resolution="both"), manifest, workdir)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"network": net_path, "resolution": {
        "blocks_m": 2, "blocks_n": 2, "overlap_fraction": 0, "include_whole_image": True,
    }}))
    again = run_pipeline(load_config(cfg_path), manifest, workdir)
    assert again["cache"] == ALL_HIT


def test_synth_images_are_balanced():
    rng = np.random.default_rng(5)
    img = make_image(rng, class_index=1).data
    assert img.shape == (20, 20, 6)
    pattern_mass = [img[:, :, k][img[:, :, k] > 0.5].size for k in range(3)]
    assert max(pattern_mass) - min(pattern_mass) == 0
    # context channel is decided by pattern channel plus the class offset
    for r in range(20):
        for c in range(20):
            spikes = np.flatnonzero(img[r, c] > 0.5)
            if spikes.size:
                assert spikes.size == 2
                p, ctx = spikes[0], spikes[1] - 3
                assert ctx == (p + 1) % 3


def test_generate_writes_loadable_tensors(tmp_path):
    manifest_path, net_path = generate(tmp_path, n_train=3, n_test=3, seed=2)
    manifest = parse_manifest(manifest_path)
    entry = manifest.split("train")[0]
    tensor = load_tensor(entry.path)
    assert tensor.data.shape == (20, 20, 6)


def test_run_pipeline_separates_classes(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=12, seed=3)
    report = run_pipeline(config, manifest, tmp_path / "work")
    assert report["metrics"]["accuracy"] >= 0.9
    assert report["dims"]["representation_dim"] == 12 * 3
    assert set(report["metrics"]["average_precision"]) == {
        "class0", "class1", "class2"
    }


def test_run_pipeline_cache_hit_is_identical(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    workdir = tmp_path / "work"
    first = run_pipeline(config, manifest, workdir)
    second = run_pipeline(config, manifest, workdir)
    assert first["cache"]["representations"] == "miss"
    assert second["cache"]["representations"] == "hit"
    assert first["metrics"] == second["metrics"]


def test_failed_build_publishes_nothing(dataset, tmp_path, monkeypatch):
    """A stage whose build raises partway leaves no directory under its
    final name and no temp directory; the next run builds it afresh."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    workdir = tmp_path / "work"

    def torn_save(model, path):
        with open(path, "wb") as fh:
            fh.write(b"CPSVM001")
        raise OSError("disk full")

    monkeypatch.setattr(crosspool.pipeline, "save_svm", torn_save)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(config, manifest, workdir)
    monkeypatch.undo()
    assert list((workdir / "model").iterdir()) == []
    assert not [p for p in workdir.rglob(".*")]

    again = run_pipeline(config, manifest, workdir)
    assert again["cache"] == {"pca": "hit", "representations": "hit", "kernel": "hit",
                              "model": "miss"}
    clean = run_pipeline(config, manifest, tmp_path / "clean")
    assert again["metrics"] == clean["metrics"]


@pytest.mark.parametrize("quantize", [False, True])
def test_all_hit_rerun_skips_representations(dataset, tmp_path, monkeypatch, quantize):
    """With every stage cached, no representation file, train/test.fmat
    or train/test.signs, is ever opened, through ``open`` or through
    ``os.open``."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1, quantize=quantize)
    first = run_pipeline(config, manifest, tmp_path / "work")
    opened = []

    def recording(real):
        def record(file, *args, **kwargs):
            opened.append(str(file))
            return real(file, *args, **kwargs)

        return record

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(os, "open", recording(os.open))
    second = run_pipeline(config, manifest, tmp_path / "work")
    monkeypatch.undo()
    assert second["cache"] == PCA_HIT
    names = {name.rsplit("/", 1)[-1] for name in opened}
    assert "rows.fmat" in names and "model.svm" in names
    assert sorted(name for name in opened if name.endswith("solver.json")) == [
        f"{second['artifacts']['model']}/solver.json"
    ]
    assert not names & {"train.fmat", "test.fmat", "train.signs", "test.signs"}
    assert second["metrics"] == first["metrics"]
    with open(second["artifacts"]["report"], encoding="utf-8") as fh:
        assert json.load(fh)["cache"] == PCA_HIT


def test_solver_diagnostics_in_report(dataset, tmp_path):
    """Each class's solver diagnostics go to model/<key>/solver.json and
    into the report, the same on a miss and on a hit."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    second = run_pipeline(config, manifest, tmp_path / "work")
    assert second["cache"] == PCA_HIT
    with open(f"{first['artifacts']['model']}/solver.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    assert first["solver"] == second["solver"] == stored
    with open(second["artifacts"]["report"], encoding="utf-8") as fh:
        assert json.load(fh)["solver"] == stored
    model = load_svm(f"{first['artifacts']['model']}/model.svm")
    assert [d["class"] for d in stored] == list(model.classes)
    for d, beta in zip(stored, model.dual_coeffs):
        assert d["converged"] and d["projected_gradient"] <= config.svm_tol
        assert d["iterations"] >= 1
        assert d["support_vectors"] == np.count_nonzero(beta)
        assert d["bounded_support_vectors"] == np.count_nonzero(np.abs(beta) >= config.svm_c)


def test_workdir_holds_only_published_stages(dataset, tmp_path):
    """No marker or temp file is left, and a rebuild without the cache
    replaces each stage directory in place."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1, quantize=True)
    workdir = tmp_path / "work"
    first = run_pipeline(config, manifest, workdir)
    rebuilt = run_pipeline(config, manifest, workdir, use_cache=False)
    assert set(rebuilt["cache"].values()) == {"miss"}
    assert rebuilt["artifacts"] == first["artifacts"]
    assert rebuilt["metrics"] == first["metrics"]
    assert not [p for p in workdir.rglob(".*")]
    contents = {
        stage: sorted(p.name for p in (workdir / stage).rglob("*") if p.is_file())
        for stage in ("pca", "representations", "kernel", "model", "report")
    }
    assert contents == {
        "pca": ["meta.json", "pca_whole.pca"],
        "representations": ["meta.json", "test.signs", "train.signs"],
        "kernel": ["gram.fmat", "rows.fmat"],
        "model": ["model.svm", "solver.json"],
        "report": [Path(first["artifacts"]["report"]).name],
    }
    # named by the model key and the test labels' digest
    assert contents["report"][0].startswith(Path(first["artifacts"]["model"]).name + "-")


def test_edited_tensors_miss_the_cache(tmp_path):
    """Overwriting every tensor in place changes the representation key, so
    a rerun in the same workdir matches a fresh workdir's metrics."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=9, n_test=9, seed=5)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=str(net_path), pca_dim=6, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    rng = np.random.default_rng(0)
    for entry in manifest.entries:
        shape = load_tensor(entry.path).data.shape
        save_tensor(ActivationTensor(rng.uniform(0.0, 1.0, size=shape)), entry.path)
    rerun = run_pipeline(config, manifest, tmp_path / "work")
    fresh = run_pipeline(config, manifest, tmp_path / "fresh")
    assert rerun["cache"]["representations"] == "miss"
    assert rerun["config_hash"] != first["config_hash"]
    assert rerun["metrics"] == fresh["metrics"]


def test_stage_past_layer_t1_keeps_every_stage_cached(tmp_path):
    """No stage past the ReLU after the second convolution runs, so a max
    pool appended to the network file leaves every stage a cache hit."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=5)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=str(net_path), seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    with open(net_path, "a", encoding="utf-8") as fh:
        fh.write("maxpool size=2 stride=2\n")
    assert len(parse_network_file(net_path).stages) == 5
    rerun = run_pipeline(config, manifest, tmp_path / "work")
    assert rerun["cache"] == ALL_HIT
    assert rerun["metrics"] == first["metrics"]


def test_package_version_matches_pyproject():
    """The representation key holds ``crosspool.__version__``, so it must
    be the version ``pyproject.toml`` declares (read with a regex, since
    Python 3.10 has no ``tomllib``)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    declared = re.search(r'^\[project\][^\[]*?^version\s*=\s*"([^"]+)"', text, re.M | re.S)
    assert declared and declared.group(1) == crosspool.__version__


@pytest.mark.parametrize("weights", ["sidecars", "seeded"])
def test_network_seed_keys_only_the_weights_it_draws(tmp_path, weights):
    """The network file's ``seed`` only draws the weights of convolutions
    that carry no sidecar files.  When every one carries them, editing the
    seed reruns as three hits; when the weights are drawn from it, the
    rerun misses all three stages."""
    if weights == "sidecars":
        manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=5)
        manifest = parse_manifest(manifest_path)
    else:
        manifest, net_path = parts_dataset(tmp_path / "data")
    config = PipelineConfig(network=str(net_path), seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    text = Path(net_path).read_text(encoding="utf-8")
    seed = parse_network_file(net_path).seed
    assert f"seed = {seed}\n" in text
    Path(net_path).write_text(text.replace(f"seed = {seed}\n", f"seed = {seed + 1}\n"))
    assert parse_network_file(net_path).seed == seed + 1
    rerun = run_pipeline(config, manifest, tmp_path / "work")
    if weights == "sidecars":
        assert rerun["cache"] == ALL_HIT
        assert rerun["metrics"] == first["metrics"]
    else:
        assert set(rerun["cache"].values()) == {"miss"}
        assert rerun["config_hash"] != first["config_hash"]


def test_layer_pairs_key_apart_through_the_network_digest(tmp_path):
    """The representation key holds no layer pair, window or stride: the
    network digest, which ends at the second convolution's ReLU, fixes
    them.  On a 3-conv seeded network, pairs (1, 2) and (2, 3) key apart in
    one workdir, and (1, 2) then reruns as a hit."""
    manifest, net_path = parts_dataset(tmp_path / "data")
    with open(net_path, "a", encoding="utf-8") as fh:
        fh.write("conv out_depth=8 kernel=3x3 stride=1 pad=1\nrelu\n")
    reports = [
        run_pipeline(PipelineConfig(network=net_path, layer_pair=pair, seed=1), manifest,
                     tmp_path / "work", stages="representations")
        for pair in ((1, 2), (2, 3), (1, 2))
    ]
    assert [r["dims"]["channels"] for r in reports] == [32, 8, 32]
    assert reports[0]["config_hash"] != reports[1]["config_hash"]
    assert reports[2]["config_hash"] == reports[0]["config_hash"]
    assert [r["cache"]["representations"] for r in reports] == ["miss", "miss", "hit"]


def test_run_pipeline_deterministic_across_workers(dataset, tmp_path):
    """``run_pipeline`` still accepts ``workers=1``, the way
    ``perfbench/run.py`` calls it, and the run equals one that does not pass it."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    a = run_pipeline(config, manifest, tmp_path / "w1", workers=1)
    b = run_pipeline(config, manifest, tmp_path / "w0")
    assert a["metrics"] == b["metrics"]
    assert a["config_hash"] == b["config_hash"]


def test_representation_stage_starts_no_thread(dataset, tmp_path, monkeypatch):
    """The whole pipeline runs in the calling thread."""

    def no_thread(self):
        raise AssertionError("the pipeline started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    manifest, net_path = dataset
    for config in (
        PipelineConfig(network=net_path, pca_dim=8, seed=1),
        PipelineConfig(network=net_path, scheme="direct-max", seed=1),
    ):
        report = run_pipeline(config, manifest, tmp_path / "work")
        assert report["cache"]["representations"] == "miss"


def test_per_image_total_is_stage_wall_time(dataset, tmp_path):
    """``per_image.total`` covers the whole representation stage, the PCA
    fit included, and no more than the run it belongs to; with and without
    PCA, and with parts forwarded in batches."""
    manifest, net_path = dataset
    configs = [
        PipelineConfig(network=net_path, pca_dim=8, seed=1),
        PipelineConfig(network=net_path, resolution="both", seed=1),
    ]
    for config in configs:
        start = time.perf_counter()
        report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
        elapsed = time.perf_counter() - start
        timing = report["timing"]
        per_image = timing["per_image"]
        images = timing["images"]
        assert (timing["pca_fit_seconds"] > 0) == bool(config.pca_dim)
        inner = (per_image["extraction"] + per_image["pooling"]) * images
        assert per_image["total"] * images >= inner + timing["pca_fit_seconds"] - 1e-9
        assert per_image["total"] * images <= elapsed


# the schemes whose rows the drift contract's oracle derives
ORACLE_SCHEMES = ("cross-layer", "direct-max", "direct-sum-sqrt")


def test_forward_batches_parts_by_shape(tmp_path, monkeypatch):
    """Parts of several images go through the network in one call per shape,
    each stack's layer t is cut into local features in one more call, and
    every row is within the drift contract's bound of the float64 oracle's
    full per-part forward pass, on a manifest that mixes 20x20 and 26x26
    images."""
    sets = []
    for sub, grid in (("small", 6), ("large", 8)):
        path, net_path = generate(tmp_path / sub, n_train=6, n_test=6, seed=grid, grid=grid)
        sets.append(parse_manifest(path).entries)
    manifest = DatasetManifest([entry for pair in zip(*sets) for entry in pair])
    config = PipelineConfig(network=net_path, resolution="both", seed=1)

    calls = []
    forward = crosspool.pipeline.run_network

    def counted(tensor, net):
        calls.append(tensor.data.shape)
        return forward(tensor, net)

    extracts = []
    extract = crosspool.pipeline.extract_local_features

    def counted_extract(tensor, *args):
        extracts.append(tensor.data.shape[0])
        return extract(tensor, *args)

    monkeypatch.setattr(crosspool.pipeline, "run_network", counted)
    monkeypatch.setattr(crosspool.pipeline, "extract_local_features", counted_extract)
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    parts = 5 * len(manifest.entries)
    assert sum(shape[0] for shape in calls) == parts
    assert len(calls) < parts
    assert {shape[1:3] for shape in calls} == {(20, 20), (10, 10), (26, 26), (13, 13)}
    assert extracts == [shape[0] for shape in calls]
    # synth's network: conv 1x1, relu (layer t), conv 3x3, relu (layer t+1)
    assert_rows_within_bound(report, manifest, parse_network_file(net_path), config, 1, 3)


@pytest.mark.parametrize(
    "kernel, stride, pad", [((3, 3), 1, 1), ((3, 3), 2, 2), ((2, 3), 1, 0)]
)
def test_representations_match_the_full_forward_pass(
    tmp_path, monkeypatch, kernel, stride, pad
):
    """On a network with biases, a second conv padded or not and strided or
    not, and stages past layer t+1, every scheme's rows are within the
    drift contract's bound of the float64 oracle's full per-part forward
    pass, while the pipeline runs the network only through layer t: the one
    conv it runs is layer t's."""
    rng = np.random.default_rng(10 * stride + pad)
    stages = [
        ConvLayerSpec(3, 3, 4, 6, pad=1, bias=rng.normal(size=6) / 4),
        ReluStage(),
        ConvLayerSpec(
            *kernel, 6, 5, stride=stride, pad=pad, bias=rng.normal(size=5) / 4
        ),
        ReluStage(),
        MaxPoolStage(size=2, stride=1),
        ConvLayerSpec(1, 1, 5, 3),
    ]
    net_path = tmp_path / "net.spec"
    write_network_file(NetworkSpec(stages, seed=3), net_path)
    lines = []
    for i, size in enumerate((11, 11, 11, 11, 9, 9, 9, 9)):
        image = ActivationTensor(rng.uniform(size=(size, size, 4)))
        save_tensor(image, tmp_path / f"{i}.tens")
        lines.append(f"{i}.tens\t{('train', 'test')[i // 2 % 2]}\tc{i % 2}")
    (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n")
    manifest = parse_manifest(tmp_path / "manifest.tsv")
    net = parse_network_file(net_path)

    convs, forwards = [], []
    conv_forward = crosspool.network.conv_forward
    forward = crosspool.pipeline.run_network

    def recorded_conv(tensor, layer):
        convs.append(layer.out_depth)
        return conv_forward(tensor, layer)

    def recorded_forward(tensor, spec):
        forwards.append(len(spec.stages))
        return forward(tensor, spec)

    monkeypatch.setattr(crosspool.network, "conv_forward", recorded_conv)
    monkeypatch.setattr(crosspool.pipeline, "run_network", recorded_forward)
    for scheme in ORACLE_SCHEMES:
        config = PipelineConfig(network=str(net_path), scheme=scheme, resolution="both")
        convs.clear()
        forwards.clear()
        report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
        assert forwards and set(forwards) == {2}
        assert convs and set(convs) == {6}
        assert_rows_within_bound(report, manifest, net, config, 1, 3)


def test_images_too_small_for_later_stages_are_encoded(tmp_path):
    """Only the layers through t+1 must fit an image part: the maxpool and
    4x4 conv past layer t+1, which a 6x6 image cannot pass through, never
    run, and every scheme's rows are within the drift contract's bound of
    the float64 oracle's forward pass through the ReLU after conv t+1."""
    rng = np.random.default_rng(6)
    head = [
        ConvLayerSpec(3, 3, 4, 6, pad=1, bias=rng.normal(size=6) / 4),
        ReluStage(),
        ConvLayerSpec(3, 3, 6, 5, pad=1, bias=rng.normal(size=5) / 4),
        ReluStage(),
    ]
    net_path = tmp_path / "net.spec"
    stages = head + [MaxPoolStage(size=4, stride=4), ConvLayerSpec(4, 4, 5, 3)]
    write_network_file(NetworkSpec(stages, seed=3), net_path)
    lines = []
    for i in range(8):
        save_tensor(ActivationTensor(rng.uniform(size=(6, 6, 4))), tmp_path / f"{i}.tens")
        lines.append(f"{i}.tens\t{('train', 'test')[i // 2 % 2]}\tc{i % 2}")
    (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n")
    manifest = parse_manifest(tmp_path / "manifest.tsv")
    net = parse_network_file(net_path)
    with pytest.raises(GeometryError, match="for input 1x1 .kernel 4x4"):
        run_network(load_tensor(manifest.entries[0].path), net)
    truncated = NetworkSpec(net.stages[: len(head)], seed=net.seed)
    for scheme in ORACLE_SCHEMES:
        config = PipelineConfig(network=str(net_path), scheme=scheme, resolution="both")
        report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
        if scheme == "cross-layer":
            assert report["dims"]["parts"][0] == ["whole", 0, 270]
        assert_rows_within_bound(report, manifest, truncated, config, 1, 3)


def test_block_with_no_rows_rejected(tmp_path):
    """Block sizes are left to the layers that run; only an empty block, cut
    from an image with fewer rows than block rows, is rejected, as its stack
    is built, and the stage publishes nothing."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=2, n_test=2, seed=6)
    manifest = parse_manifest(manifest_path)
    depth = parse_network_file(net_path).input_depth()
    save_tensor(
        ActivationTensor(np.ones((1, 3, depth), dtype=np.float32)), manifest.entries[0].path
    )
    config = PipelineConfig(network=net_path, resolution="blocks")
    with pytest.raises(ValidationError, match="dimensions must be positive"):
        run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    assert os.listdir(tmp_path / "work" / "representations") == []


def test_pca_fit_subsamples_past_the_cap(dataset, tmp_path, monkeypatch):
    """Past ``pca_sample_cap`` descriptors, each resolution's model is the
    fit on the seeded ``rng.choice`` of the stacked training descriptors'
    rows, in index order; another seed picks other rows."""
    samples = []
    fit = crosspool.pipeline.pca_fit

    def recorded(sample, dim):
        samples.append(sample)
        return fit(sample, dim)

    monkeypatch.setattr(crosspool.pipeline, "pca_fit", recorded)
    manifest, net_path = dataset
    config = PipelineConfig(
        network=net_path, pca_dim=4, pca_sample_cap=60, resolution="both", seed=3
    )
    net = parse_network_file(net_path)
    head, conv, _ = crosspool.pipeline._resolve_geometry(net, config)
    buckets = {}
    for entry in manifest.split("train"):
        image = load_tensor(entry.path)
        for _, resolution, part in iter_parts(image, config.resolution):
            grid = extract_local_features(
                run_network(ActivationTensor(part), head)[-1],
                conv.kernel_h, conv.kernel_w, conv.stride,
            )
            buckets.setdefault(resolution, []).append(grid.reshape(-1, grid.shape[-1]))
    assert len(buckets) == 2

    models = {}
    for seed in (3, 4):
        samples.clear()
        report = run_pipeline(
            dataclasses.replace(config, seed=seed), manifest, tmp_path / "work",
            stages="representations",
        )
        pca_dir = report["artifacts"]["pca"]
        for resolution, sample in zip(sorted(buckets), samples, strict=True):
            stacked = np.concatenate(buckets[resolution])
            assert stacked.shape[0] > config.pca_sample_cap
            chosen = np.random.default_rng(seed).choice(
                stacked.shape[0], config.pca_sample_cap, replace=False
            )
            rows = stacked[np.sort(chosen)]
            assert sample.tobytes() == rows.tobytes()
            want = fit(rows, config.pca_dim)
            got = load_pca(os.path.join(pca_dir, f"pca_{resolution}.pca"))
            for name in ("mean", "basis", "eigenvalues"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name).astype(np.float32)
                )
            models[seed, resolution] = got
    for resolution in buckets:
        assert not np.allclose(models[3, resolution].mean, models[4, resolution].mean)


def test_run_pipeline_quantize_reports_bytes(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, quantize=True)
    report = run_pipeline(config, manifest, tmp_path / "work")
    dim = report["dims"]["representation_dim"]
    assert report["dims"]["packed_bytes_per_image"] == (dim + 3) // 4


def test_quantized_kernel_unpacks_each_block_once(dataset, tmp_path, monkeypatch):
    """One quantized run quantizes each row once, whole, where it is
    encoded, unpacks each column block of each split once, and the kernel
    does not depend on the block size."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=0, resolution="both", quantize=True)
    unpack = crosspool.svm.sign_unpack
    calls = []

    def counting(codes):
        calls.append(codes.shape[1])
        return unpack(codes)

    monkeypatch.setattr(crosspool.svm, "sign_unpack", counting)
    quantize = crosspool.pipeline.sign_quantize
    quantized = []

    def counting_quantize(values):
        quantized.append(values.shape)
        return quantize(values)

    monkeypatch.setattr(crosspool.pipeline, "sign_quantize", counting_quantize)
    kernel_bytes = []
    for block_dims in (crosspool.svm.BLOCK_DIMS, 64):
        monkeypatch.setattr(crosspool.svm, "BLOCK_DIMS", block_dims)
        calls.clear()
        quantized.clear()
        report = run_pipeline(config, manifest, tmp_path / str(block_dims))
        blocks = -(-report["dims"]["packed_bytes_per_image"] // (block_dims // 4))
        assert len(calls) == 2 * blocks
        dim = report["dims"]["representation_dim"]
        assert quantized == [(1, dim)] * len(manifest.entries)
        kernel_dir = report["artifacts"]["kernel"]
        kernel_bytes.append([
            (Path(kernel_dir) / name).read_bytes() for name in ("gram.fmat", "rows.fmat")
        ])
    assert blocks > 1
    assert kernel_bytes[0] == kernel_bytes[1]


def test_quantized_rows_are_coded_unrooted(dataset, tmp_path, monkeypatch):
    """A float config roots each row once; a quantized one roots none,
    since the root keeps every sign, and its codes equal those of its
    float twin's rooted rows.  PCA makes the rows signed."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, resolution="both")
    root = crosspool.pipeline.power_normalize
    rooted = []

    def counting(values):
        rooted.append(values.shape)
        return root(values)

    monkeypatch.setattr(crosspool.pipeline, "power_normalize", counting)
    reports, roots = {}, {}
    for quantize in (False, True):
        rooted.clear()
        reports[quantize] = run_pipeline(
            dataclasses.replace(config, quantize=quantize), manifest, tmp_path / "work",
            stages="representations",
        )
        roots[quantize] = list(rooted)
    dim = reports[False]["dims"]["representation_dim"]
    assert roots == {False: [(dim,)] * len(manifest.entries), True: []}
    for split in ("train", "test"):
        rows = load_features(f"{reports[False]['artifacts']['representations']}/{split}.fmat")
        codes, code_dim = load_sign_stack(
            f"{reports[True]['artifacts']['representations']}/{split}.signs"
        )
        assert code_dim == dim
        assert (rows.data < 0).any()
        np.testing.assert_array_equal(codes, sign_quantize(rows.data))


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """64 training and 8 test 8x8x16 random images under a seeded 16 -> 32
    -> 64 network; whole image plus 2x2 blocks give 92 160 dimensions,
    over 8 * BLOCK_DIMS.  Returns a function of the training count that
    writes a manifest of that many training images and every test image."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(31)
    lines = []
    for split, count in (("train", 64), ("test", 8)):
        for i in range(count):
            save_tensor(ActivationTensor(rng.uniform(0.0, 1.0, (8, 8, 16))),
                        root / f"{split}{i}.tens")
            lines.append((split, f"{split}{i}.tens\t{split}\tc{i % 2}"))
    net = root / "net.spec"
    net.write_text(
        "input_depth = 16\nseed = 3\n"
        "conv out_depth=32 kernel=3x3 stride=1 pad=1\nrelu\n"
        "conv out_depth=64 kernel=3x3 stride=1 pad=1\nrelu\n"
    )

    def manifest(n_train):
        path = root / f"manifest{n_train}.tsv"
        chosen = [line for split, line in lines if split == "test"]
        chosen += [line for split, line in lines if split == "train"][:n_train]
        path.write_text("\n".join(chosen) + "\n")
        return parse_manifest(path)

    return manifest, PipelineConfig(network=str(net), pca_dim=0, resolution="both")


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_representation_memory_does_not_grow_with_images(wide_dataset, tmp_path):
    """Without PCA the representation stage holds one forward batch and one
    row: four times the training images leave its peak within 1.25x.  16
    images fill a forward batch.  Quantized, it also holds the split's
    codes, ceil(dim/4) bytes per image, and writes them from their own
    buffer: the 48 more images raise the peak by their codes and at most
    64 KiB more.  With PCA, past the sample cap, the PCA stage holds one
    forward batch and the fixed samples, so the bound is again 1.25x."""
    manifest, config = wide_dataset
    # 16 images already pass the PCA config's cap in both resolutions, so
    # its PCA stage holds two fixed samples of 100 rows
    pca = dataclasses.replace(config, pca_dim=8, pca_sample_cap=100)
    for quantize, config in ((False, config), (True, dataclasses.replace(config, quantize=True)),
                             ("pca", pca)):
        peaks = []
        for n_train in (16, 64):
            report, peak = _traced_peak(lambda: run_pipeline(
                config, manifest(n_train), tmp_path / f"{quantize}-{n_train}",
                stages="representations",
            ))
            assert report["dims"]["representation_dim"] == (2560 if config.pca_dim else 92160)
            peaks.append(peak)
        if quantize is True:
            assert peaks[1] - peaks[0] <= 48 * (92160 + 3) // 4 + 64 * 1024
        else:
            assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("quantize", [False, True])
def test_kernel_stage_reads_column_blocks(wide_dataset, tmp_path, quantize):
    """The kernel stage, and the model and report after it, peak below a
    quarter of the two splits' float32 rows at 22.5 column blocks, whether
    it reads the rows or their sign codes."""
    manifest, config = wide_dataset
    config = dataclasses.replace(config, quantize=quantize)
    reps = run_pipeline(config, manifest(8), tmp_path, stages="representations")
    dim = reps["dims"]["representation_dim"]
    floats = (reps["dataset"]["train"] + reps["dataset"]["test"]) * dim * 4
    report, peak = _traced_peak(lambda: run_pipeline(config, manifest(8), tmp_path))
    assert report["cache"]["kernel"] == "miss"
    assert dim >= 8 * crosspool.svm.BLOCK_DIMS
    assert peak < floats / 4


def test_failed_representation_build_leaves_nothing(dataset, tmp_path, monkeypatch):
    """A representation build that fails after rows were written closes
    its file and leaves no stage or temp directory."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=0)
    pool = crosspool.pipeline.cross_layer_pool
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 30:
            raise OSError("disk full")
        return pool(*args, **kwargs)

    monkeypatch.setattr(crosspool.pipeline, "cross_layer_pool", failing)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(config, manifest, tmp_path / "work")
    assert list((tmp_path / "work" / "representations").iterdir()) == []


def test_run_pipeline_representations_stage_only(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8)
    report = run_pipeline(
        config, manifest, tmp_path / "work", stages="representations"
    )
    assert report["metrics"] is None
    assert "extraction" in report["timing"]["per_image"]
    assert "pooling" in report["timing"]["per_image"]
    assert "total" in report["timing"]["per_image"]


def test_multipart_representation_dim(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(
        network=net_path,
        pca_dim=6,
        resolution=ResolutionConfig(blocks_m=2, blocks_n=2, include_whole_image=True),
    )
    report = run_pipeline(config, manifest, tmp_path / "work")
    # five parts, each 6 x 3 channels, tiling the vector in order
    assert report["dims"]["representation_dim"] == 5 * 6 * 3
    assert report["dims"]["parts"] == [
        [label, 18 * k, 18]
        for k, label in enumerate(
            ["whole", "block(0,0)", "block(0,1)", "block(1,0)", "block(1,1)"]
        )
    ]


def test_direct_schemes_run(dataset, tmp_path):
    manifest, net_path = dataset
    for scheme in ("direct-max", "direct-sum-sqrt"):
        config = PipelineConfig(network=net_path, scheme=scheme)
        report = run_pipeline(config, manifest, tmp_path / scheme)
        assert report["metrics"]["accuracy"] is not None
        assert report["dims"]["representation_dim"] == 9 * 6


def test_spp_scheme_dim(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, scheme="spp")
    report = run_pipeline(config, manifest, tmp_path / "work")
    assert report["dims"]["representation_dim"] == 5 * 9 * 6


def test_pca_dim_larger_than_local_dim_rejected(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=100)
    with pytest.raises(ConfigError):
        run_pipeline(config, manifest, tmp_path / "work")


def test_cross_layer_needs_adjacent_convs(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, layer_pair=(1, 3))
    with pytest.raises(ConfigError):
        run_pipeline(config, manifest, tmp_path / "work")


def test_compare_schemes_table(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=12)
    rows = compare_schemes(
        config, manifest, tmp_path / "work",
        ["cross-layer", "direct-max"],
    )
    assert [row["scheme"] for row in rows] == ["cross-layer", "direct-max"]
    for row in rows:
        assert 0.0 <= row["mean_average_precision"] <= 1.0
        assert row["per_image_seconds"] > 0
    with pytest.raises(ContractError):
        compare_schemes(config, manifest, tmp_path / "work", ["cross-layer"])


def test_report_written_to_workdir(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8)
    workdir = tmp_path / "work"
    report = run_pipeline(config, manifest, workdir)
    on_disk = json.loads(Path(report["artifacts"]["report"]).read_text())
    assert on_disk["metrics"] == report["metrics"]
    assert str(workdir) in report["artifacts"]["report"]


def _stage_files(report):
    """The bytes of every file in the report's representation, kernel and
    model stages, except meta.json, whose timing block varies by run."""
    return {
        (stage, path.name): path.read_bytes()
        for stage in ("representations", "kernel", "model")
        for path in Path(report["artifacts"][stage]).iterdir()
        if path.name != "meta.json"
    }


@pytest.mark.parametrize("scheme", ["direct-max", "spp"])
def test_baseline_key_leaves_out_the_fields_it_does_not_read(dataset, tmp_path, scheme):
    """A baseline reads neither ``seed``, ``pca_dim`` nor ``pca_sample_cap``:
    a rerun that changes only one of them hits all three stages, and a
    fresh build with all three changed writes the same bytes."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, scheme=scheme)
    first = run_pipeline(config, manifest, tmp_path / "w")
    built = _stage_files(first)
    changes = dict(seed=5, pca_dim=8, pca_sample_cap=50)
    for name, value in changes.items():
        rerun = run_pipeline(dataclasses.replace(config, **{name: value}), manifest, tmp_path / "w")
        assert rerun["cache"] == ALL_HIT, name
        assert _stage_files(rerun) == built
    fresh = run_pipeline(dataclasses.replace(config, **changes), manifest, tmp_path / "fresh")
    assert fresh["config_hash"] == first["config_hash"]
    assert _stage_files(fresh) == built


@pytest.mark.parametrize("pca_dim", [0, 6])
def test_cross_layer_keys_pca_sample_fields_only_with_pca(tmp_path, pca_dim):
    """Without PCA a cross-layer config reads neither ``seed`` nor
    ``pca_sample_cap``: a rerun that changes only one of them hits all
    three stages.  With PCA the fit reads both, so either change misses
    the representation stage.  ``pca_dim`` itself is always keyed."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=5)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=str(net_path), pca_dim=pca_dim, pca_sample_cap=50, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "w")
    built = _stage_files(first)
    for name, value in (("seed", 2), ("pca_sample_cap", 40)):
        rerun = run_pipeline(dataclasses.replace(config, **{name: value}), manifest, tmp_path / "w")
        if pca_dim:
            assert rerun["cache"]["representations"] == "miss", name
        else:
            assert rerun["cache"] == ALL_HIT, name
            assert _stage_files(rerun) == built
    other = dataclasses.replace(config, pca_dim=6 - pca_dim)
    assert run_pipeline(other, manifest, tmp_path / "w")["cache"]["representations"] == "miss"


def test_seed_and_cap_under_the_cap_reuse_every_stage(dataset, tmp_path):
    """A PCA config whose training features stay under ``pca_sample_cap``
    fits on every row and never draws from the seed, so a rerun that
    changes only ``seed``, or only ``pca_sample_cap``, hits the PCA,
    representation, kernel and model stages with the same bytes.  (Past
    the cap both are keyed: see the 6/6 set at a cap of 50 above.)"""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "w")
    built = _stage_files(first)
    for name, value in (("seed", 2), ("pca_sample_cap", 50000)):
        rerun = run_pipeline(dataclasses.replace(config, **{name: value}), manifest, tmp_path / "w")
        assert rerun["cache"] == PCA_HIT, name
        assert rerun["config_hash"] == first["config_hash"]
        assert _stage_files(rerun) == built


def test_changed_test_entries_reuse_the_pca_stage(dataset, tmp_path):
    """The PCA fit reads only the training entries, so a run whose manifest
    changes only its test entries hits the PCA stage and rebuilds the
    representations with the same models."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "w")
    fewer = DatasetManifest(manifest.split("train") + manifest.split("test")[:-3])
    rerun = run_pipeline(config, fewer, tmp_path / "w")
    assert rerun["cache"] == {"pca": "hit", "representations": "miss", "kernel": "miss",
                              "model": "miss"}
    assert rerun["artifacts"]["pca"] == first["artifacts"]["pca"]


def test_relabeled_entries_miss_only_the_model(dataset, tmp_path):
    """No stage before the model reads a label.  Relabeling one test entry
    hits the PCA, representation, kernel and model stages, with the metrics
    of a fresh workdir, and keeps a report of its own; relabeling one
    training entry misses the model stage only.  Each report records the
    package version and the key of every stage, so the keys tell which
    stage missed."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "w")
    assert first["version"] == crosspool.__version__
    assert set(first["keys"]) == {"pca", "representations", "kernel", "model"}
    assert first["keys"]["representations"] == first["config_hash"]
    for stage, key in first["keys"].items():
        assert Path(first["artifacts"][stage]).name == key

    def relabeled(split):
        entries = [dataclasses.replace(e) for e in manifest.entries]
        entry = next(e for e in entries if e.split == split)
        entry.labels = frozenset({next(c for c in manifest.classes() if c not in entry.labels)})
        return DatasetManifest(entries)

    test_relabeled = relabeled("test")
    rerun = run_pipeline(config, test_relabeled, tmp_path / "w")
    fresh = run_pipeline(config, test_relabeled, tmp_path / "fresh")
    assert rerun["cache"] == PCA_HIT
    assert rerun["keys"] == first["keys"]
    assert rerun["metrics"] == fresh["metrics"] != first["metrics"]
    assert rerun["artifacts"]["report"] != first["artifacts"]["report"]
    assert json.loads(Path(first["artifacts"]["report"]).read_text())["metrics"] == first["metrics"]

    train_relabeled = relabeled("train")
    rerun = run_pipeline(config, train_relabeled, tmp_path / "w")
    fresh = run_pipeline(config, train_relabeled, tmp_path / "fresh2")
    assert rerun["cache"] == {**PCA_HIT, "model": "miss"}
    assert {s: k for s, k in rerun["keys"].items() if k != first["keys"][s]} == {
        "model": rerun["keys"]["model"]
    }
    assert rerun["metrics"] == fresh["metrics"]
