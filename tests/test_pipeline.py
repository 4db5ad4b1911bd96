"""End-to-end pipeline tests on small synthetic datasets."""

import builtins
import dataclasses
import json
import threading
import time

import numpy as np
import pytest

import crosspool.pipeline
from crosspool.errors import ConfigError, ContractError, ValidationError
from crosspool.multires import ResolutionConfig
from crosspool.pipeline import (
    PipelineConfig,
    average_precision,
    compare_schemes,
    load_config,
    parse_manifest,
    run_pipeline,
)
from crosspool.svm import load_svm
from crosspool.synth import generate, make_image
from crosspool.tensor import ActivationTensor, load_tensor, save_tensor

ALL_HIT = {"representations": "hit", "kernel": "hit", "model": "hit"}


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


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"network": "net.spec", "sceme": "cross-layer"}))
    with pytest.raises(ConfigError):
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
    assert again["cache"] == {"representations": "hit", "kernel": "hit", "model": "miss"}
    clean = run_pipeline(config, manifest, tmp_path / "clean")
    assert again["metrics"] == clean["metrics"]


def test_all_hit_rerun_skips_representations(dataset, tmp_path, monkeypatch):
    """With every stage cached, train.fmat and test.fmat are never opened."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    second = run_pipeline(config, manifest, tmp_path / "work")
    monkeypatch.undo()
    assert second["cache"] == ALL_HIT
    names = {name.rsplit("/", 1)[-1] for name in opened}
    assert "rows.fmat" in names and "model.svm" in names
    assert sorted(name for name in opened if name.endswith("solver.json")) == [
        f"{second['artifacts']['model']}/solver.json"
    ]
    assert not names & {"train.fmat", "test.fmat"}
    assert second["metrics"] == first["metrics"]
    with open(second["artifacts"]["report"], encoding="utf-8") as fh:
        assert json.load(fh)["cache"] == ALL_HIT


def test_solver_diagnostics_in_report(dataset, tmp_path):
    """Each class's solver diagnostics go to model/<key>/solver.json and
    into the report, the same on a miss and on a hit."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    first = run_pipeline(config, manifest, tmp_path / "work")
    second = run_pipeline(config, manifest, tmp_path / "work")
    assert second["cache"] == ALL_HIT
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
        for stage in ("representations", "kernel", "model", "report")
    }
    assert contents == {
        "representations": ["meta.json", "pca_whole.pca", "test.fmat", "train.fmat"],
        "kernel": ["gram.fmat", "rows.fmat", "test.signs", "train.signs"],
        "model": ["model.svm", "solver.json"],
        "report": [f"{first['artifacts']['model'].rsplit('/', 1)[-1]}.json"],
    }


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


def test_run_pipeline_deterministic_across_workers(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    a = run_pipeline(config, manifest, tmp_path / "w1", workers=1)
    b = run_pipeline(config, manifest, tmp_path / "w4", workers=4)
    assert a["metrics"] == b["metrics"]
    assert a["config_hash"] == b["config_hash"]


def test_representation_stage_starts_no_thread(dataset, tmp_path, monkeypatch):
    """The whole pipeline runs in the calling thread, whatever ``workers``
    asks for."""

    def no_thread(self):
        raise AssertionError("the pipeline started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    manifest, net_path = dataset
    for config in (
        PipelineConfig(network=net_path, pca_dim=8, seed=1),
        PipelineConfig(network=net_path, scheme="direct-max", seed=1),
    ):
        report = run_pipeline(config, manifest, tmp_path / "work", workers=4)
        assert report["cache"]["representations"] == "miss"


def test_per_image_total_is_stage_wall_time(dataset, tmp_path):
    """``per_image.total`` covers the whole representation stage, the PCA
    fit included, and no more than the run it belongs to."""
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, seed=1)
    start = time.perf_counter()
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    elapsed = time.perf_counter() - start
    timing = report["timing"]
    per_image = timing["per_image"]
    images = timing["images"]
    assert timing["pca_fit_seconds"] > 0
    inner = (per_image["extraction"] + per_image["pooling"]) * images
    assert per_image["total"] * images >= inner + timing["pca_fit_seconds"] - 1e-9
    assert per_image["total"] * images <= elapsed


def test_run_pipeline_quantize_reports_bytes(dataset, tmp_path):
    manifest, net_path = dataset
    config = PipelineConfig(network=net_path, pca_dim=8, quantize=True)
    report = run_pipeline(config, manifest, tmp_path / "work")
    dim = report["dims"]["representation_dim"]
    assert report["dims"]["packed_bytes_per_image"] == (dim + 3) // 4


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
    config = PipelineConfig(network=net_path, scheme="spp", spp_levels=(1, 2))
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
    on_disk = json.loads(open(report["artifacts"]["report"]).read())
    assert on_disk["metrics"] == report["metrics"]
    assert str(workdir) in report["artifacts"]["report"]


def test_seed_changes_network_hash(dataset, tmp_path):
    """Same config except the seed gives a different cache key."""
    manifest, net_path = dataset
    a = run_pipeline(
        PipelineConfig(network=net_path, pca_dim=8, seed=1),
        manifest, tmp_path / "w",
    )
    b = run_pipeline(
        PipelineConfig(network=net_path, pca_dim=8, seed=2),
        manifest, tmp_path / "w",
    )
    assert a["config_hash"] != b["config_hash"]
