"""Exercises the console entry point in-process, including exit codes."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crosspool.cli
from crosspool.cli import main
from crosspool.features import extract_local_features
from crosspool.network import parse_network_file
from crosspool.pipeline import SCHEME_TABLE, SCHEMES, PipelineConfig, parse_manifest, run_pipeline
from crosspool.pooling import cross_layer_pool
from crosspool.postproc import (
    load_pca,
    load_sign_stack,
    pca_fit,
    power_normalize,
    save_pca,
    save_sign_stack,
    sign_quantize,
)
from crosspool.svm import SvmModel, kernels, load_svm, save_svm
from crosspool.synth import generate
from crosspool.tensor import (
    ActivationTensor,
    load_features,
    load_tensor,
    save_features,
    save_tensor,
)
from test_pool_drift import assert_within, oracle_row


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    manifest_path, net_path = generate(root, n_train=15, n_test=15, seed=13)
    return str(manifest_path), str(net_path), root


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_and_report(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli(
        "--workdir", tmp_path / "work",
        "run", "--net", net, "--manifest", manifest, "--pca-dim", "10",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy:" in out
    assert "report:" in out
    report_path = out.rsplit("report:", 1)[1].strip()
    report = json.loads(Path(report_path).read_text())
    assert report["scheme"] == "cross-layer"


def test_run_with_config_file(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": net, "pca_dim": 8, "quantize": True}))
    code = run_cli(
        "--workdir", tmp_path / "work",
        "run", "--config", cfg, "--manifest", manifest,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "(quantized)" in out
    assert "packed bytes per image:" in out


def test_compare_table(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli(
        "--workdir", tmp_path / "work",
        "compare", "--net", net, "--manifest", manifest, "--pca-dim", "10",
        "--schemes", "cross-layer,direct-max,direct-sum-sqrt",
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].split() == ["scheme", "accuracy", "mAP", "dim", "s/image"]
    assert len(lines) == 2 + 3


def test_bench_columns(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli(
        "--workdir", tmp_path / "work",
        "bench", "--net", net, "--manifest", manifest,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "extraction" in out and "pooling" in out and "total" in out


def test_forward_and_extract(dataset, tmp_path, capsys):
    _, net, root = dataset
    rng = np.random.default_rng(3)
    image = tmp_path / "img.tens"
    save_tensor(ActivationTensor(rng.random((20, 20, 6)).astype(np.float32)), image)
    code = run_cli("forward", "--net", net, "--input", image,
                   "--out-dir", tmp_path / "stages")
    assert code == 0
    out = capsys.readouterr().out
    assert "stage 0 conv" in out
    assert (tmp_path / "stages" / "stage_01_relu.tens").exists()

    code = run_cli(
        "extract", "--input", tmp_path / "stages" / "stage_01_relu.tens",
        "--window", "3x3", "--out", tmp_path / "feats.fmat",
    )
    assert code == 0
    assert "324 features of dim 54 (18x18 grid)" in capsys.readouterr().out
    assert load_features(tmp_path / "feats.fmat").data.shape == (18 * 18, 9 * 6)


def test_quantize_and_gram_read_column_blocks(tmp_path, capsys):
    """``quantize`` and ``gram`` on a 40-block matrix file write the bytes
    of the whole-matrix computations and never hold the float matrix."""
    rng = np.random.default_rng(8)
    reps = tmp_path / "reps.fmat"
    save_features(rng.standard_normal((8, 163837), dtype=np.float32), reps)
    whole = load_features(reps).data
    save_sign_stack(sign_quantize(whole), whole.shape[1], tmp_path / "want.sgns")
    save_features(kernels(whole, whole[:0])[0], tmp_path / "want.fmat")
    del whole
    tracemalloc.start()
    try:
        assert run_cli("quantize", "--input", reps, "--out", tmp_path / "q.sgns") == 0
        assert run_cli("gram", "--reps", reps, "--out", tmp_path / "k.fmat") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < reps.stat().st_size / 4
    assert (tmp_path / "q.sgns").read_bytes() == (tmp_path / "want.sgns").read_bytes()
    assert (tmp_path / "k.fmat").read_bytes() == (tmp_path / "want.fmat").read_bytes()
    codes, _ = load_sign_stack(tmp_path / "q.sgns")
    save_features(kernels(codes, codes[:0])[0], tmp_path / "wantq.fmat")
    assert run_cli("gram", "--reps", tmp_path / "q.sgns", "--out", tmp_path / "kq.fmat") == 0
    assert (tmp_path / "kq.fmat").read_bytes() == (tmp_path / "wantq.fmat").read_bytes()
    assert "8 vectors quantized to 40960 bytes each" in capsys.readouterr().out


@pytest.mark.parametrize("options,split", [
    (["--pca-dim", "10"], "train.fmat"),
    (["--quantize", "--resolution", "both"], "train.signs"),
])
def test_gram_of_a_split_file_is_the_kernel_stage_gram(dataset, tmp_path, capsys, options, split):
    """``gram`` on the representation stage's training file, a matrix file
    or a sign stack, writes the kernel stage's ``gram.fmat`` byte for byte."""
    manifest, net, _ = dataset
    code = run_cli("--workdir", tmp_path / "w", "run", "--net", net, "--manifest", manifest,
                   *options)
    assert code == 0
    report_path = capsys.readouterr().out.rsplit("report:", 1)[1].strip()
    artifacts = json.loads(Path(report_path).read_text())["artifacts"]
    reps = Path(artifacts["representations"]) / split
    assert run_cli("gram", "--reps", reps, "--out", tmp_path / "k.fmat") == 0
    want = Path(artifacts["kernel"]) / "gram.fmat"
    assert (tmp_path / "k.fmat").read_bytes() == want.read_bytes()


def test_pool_quantize_gram_train_predict_chain(dataset, tmp_path, capsys):
    """Drive the plumbing commands end to end on a toy matrix."""
    rng = np.random.default_rng(7)
    reps = tmp_path / "reps.fmat"
    data = np.vstack([rng.normal(size=(6, 8)) + 3, rng.normal(size=(6, 8)) - 3])
    save_features(data, reps)

    assert run_cli("quantize", "--input", reps, "--out", tmp_path / "q.sgns") == 0
    codes, dim = load_sign_stack(tmp_path / "q.sgns")
    assert codes.shape == (12, 2) and dim == 8

    assert run_cli("gram", "--reps", reps, "--out", tmp_path / "k.fmat") == 0
    assert load_features(tmp_path / "k.fmat").data.shape == (12, 12)

    assert run_cli("gram", "--reps", tmp_path / "q.sgns",
                   "--out", tmp_path / "kq.fmat") == 0
    assert load_features(tmp_path / "kq.fmat").data[0, 0] == 8.0

    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(["hi"] * 6 + ["lo"] * 6) + "\n")
    assert run_cli("train", "--gram", tmp_path / "k.fmat", "--labels", labels,
                   "--out", tmp_path / "m.svm") == 0
    model = load_svm(tmp_path / "m.svm")
    assert model.classes == ("hi", "lo")

    assert run_cli("predict", "--model", tmp_path / "m.svm",
                   "--rows", tmp_path / "k.fmat",
                   "--out", tmp_path / "preds.tsv") == 0
    lines = (tmp_path / "preds.tsv").read_text().strip().splitlines()
    assert lines[0].split("\t") == ["index", "label", "hi", "lo"]
    got = [line.split("\t")[1] for line in lines[1:]]
    assert got == ["hi"] * 6 + ["lo"] * 6


@pytest.mark.parametrize("flag,value", [
    ("--c", "nan"), ("--c", "inf"), ("--c", "0"), ("--tol", "nan"), ("--tol", "-1"),
])
def test_exit_code_bad_train_flags(tmp_path, capsys, flag, value):
    """A C or tolerance that is not positive and finite is a bad flag."""
    save_features(np.eye(4), tmp_path / "k.fmat")
    labels = tmp_path / "labels.txt"
    labels.write_text("a\na\nb\nb\n")
    assert run_cli("train", "--gram", tmp_path / "k.fmat", "--labels", labels,
                   flag, value, "--out", tmp_path / "m.svm") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "m.svm").exists()


def test_pca_fit_and_pool(dataset, tmp_path, capsys):
    rng = np.random.default_rng(8)
    feats = tmp_path / "f.fmat"
    save_features(rng.normal(size=(50, 6)), feats)
    assert run_cli("pca-fit", "--features", feats, "--dim", "3",
                   "--out", tmp_path / "m.pca") == 0

    assert run_cli("pool", "--scheme", "direct-max", "--features", feats,
                   "--out", tmp_path / "v.fmat") == 0
    assert load_features(tmp_path / "v.fmat").data.shape == (1, 6)


@pytest.mark.parametrize("scheme,pool", [
    ("direct-max", lambda m: m.max(axis=0)),
    ("direct-sum-sqrt", lambda m: m.sum(axis=0)),
])
def test_pool_roots_the_direct_schemes_once(tmp_path, scheme, pool):
    """``pool`` writes one signed square root of the float32 column maxima
    or sums, bit for bit, as the pipeline does for a one-part image."""
    feats = tmp_path / "f.fmat"
    matrix = np.random.default_rng(8).uniform(-1.0, 3.0, size=(50, 6)).astype(np.float32)
    save_features(matrix, feats)
    assert run_cli("pool", "--scheme", scheme, "--features", feats,
                   "--out", tmp_path / "v.fmat") == 0
    got = load_features(tmp_path / "v.fmat").data
    assert got.dtype == np.float32
    assert got.tobytes() == power_normalize(pool(matrix)).tobytes()


@pytest.mark.parametrize("scheme,pca_dim", [(s, 0) for s in SCHEMES] + [("cross-layer", 8)])
def test_pool_writes_the_pipeline_row(tmp_path, scheme, pca_dim):
    """``pool``, given the files that ``forward`` and ``extract`` save for
    one whole image and the flags that the scheme's table entry lists,
    writes the pipeline's row for that image.  The baselines pool the same
    float32 layer t grid and agree bit for bit.  Cross-layer reads layer
    t+1 from ``forward``'s conv output, where the pipeline takes the
    float32 product of the feature grids, and the two round differently:
    both are within the drift module's bound of the float64 oracle's row,
    so they agree to within twice that bound, that is to float32 rounding."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=3, n_test=1, seed=5)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=str(net_path), scheme=scheme, pca_dim=pca_dim)
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    rep_dir = Path(report["artifacts"]["representations"])
    row = load_features(rep_dir / "train.fmat").data[0]
    image, stages = manifest.split("train")[0].path, tmp_path / "stages"
    assert run_cli("forward", "--net", net_path, "--input", image, "--out-dir", stages) == 0
    layer_t = stages / "stage_01_relu.tens"
    assert run_cli("extract", "--input", layer_t, "--window", "3x3",
                   "--out", tmp_path / "f.fmat") == 0
    given = {"layer_t": layer_t, "layer_t1": stages / "stage_03_relu.tens",
             "features": tmp_path / "f.fmat", "input": layer_t}
    if pca_dim:
        given["pca"] = Path(report["artifacts"]["pca"]) / "pca_whole.pca"
    flags = [arg for name in SCHEME_TABLE[scheme].flags if name in given
             for arg in ("--" + name.replace("_", "-"), given[name])]
    assert run_cli("pool", "--scheme", scheme, *flags, "--out", tmp_path / "v.fmat") == 0
    vector = load_features(tmp_path / "v.fmat").data[0]
    assert vector.shape == row.shape == (report["dims"]["representation_dim"],)
    if "layer_t1" not in SCHEME_TABLE[scheme].flags:
        assert vector.tobytes() == row.tobytes()
        return
    models = {"whole": load_pca(given["pca"])} if pca_dim else None
    want, bound = oracle_row(image, parse_network_file(net_path), config, 1, 3, models)
    assert_within(row, want, bound, "pipeline row")
    assert_within(vector, want, bound, "pool vector")


def test_pool_cross_layer_files(tmp_path):
    rng = np.random.default_rng(9)
    layer_t = tmp_path / "t.tens"
    layer_t1 = tmp_path / "t1.tens"
    save_tensor(
        ActivationTensor(rng.random((8, 8, 2)).astype(np.float32), rectified=True),
        layer_t,
    )
    save_tensor(
        ActivationTensor(rng.random((6, 6, 3)).astype(np.float32), rectified=True),
        layer_t1,
    )
    grid = extract_local_features(load_tensor(layer_t), 3, 3, 1)
    save_pca(pca_fit(grid.reshape(-1, 18), 4), tmp_path / "m.pca")
    for pca, dim in ((None, 18), (tmp_path / "m.pca", 4)):
        flags = ["--pca", pca] if pca else []
        assert run_cli(
            "pool", "--scheme", "cross-layer",
            "--layer-t", layer_t, "--layer-t1", layer_t1,
            "--window", "3x3", "--stride", "1", "--pad", "0", *flags,
            "--out", tmp_path / "v.fmat",
        ) == 0
        got = load_features(tmp_path / "v.fmat").data
        assert got.shape == (1, dim * 3)
        pooled = cross_layer_pool(
            grid, load_tensor(layer_t1).data, 0, pca=load_pca(pca) if pca else None
        )
        assert got.tobytes() == power_normalize(pooled).tobytes()


def test_exit_code_pad_not_aligned_with_stride(tmp_path, capsys):
    rng = np.random.default_rng(9)
    layer_t = tmp_path / "t.tens"
    layer_t1 = tmp_path / "t1.tens"
    save_tensor(
        ActivationTensor(rng.random((8, 8, 2)).astype(np.float32), rectified=True),
        layer_t,
    )
    save_tensor(
        ActivationTensor(rng.random((4, 4, 3)).astype(np.float32), rectified=True),
        layer_t1,
    )
    code = run_cli(
        "pool", "--scheme", "cross-layer",
        "--layer-t", layer_t, "--layer-t1", layer_t1,
        "--window", "2x2", "--stride", "2", "--pad", "1",
        "--out", tmp_path / "v.fmat",
    )
    assert code == 3
    assert "not aligned" in capsys.readouterr().err
    assert not (tmp_path / "v.fmat").exists()


def test_gather_requires_rectified(tmp_path, capsys):
    """Cross-layer pooling takes its indicator weights only from a
    ``--layer-t1`` file flagged rectified: an unflagged one is a data error
    whatever its values, and nothing is written."""
    rng = np.random.default_rng(9)
    layer_t, layer_t1 = tmp_path / "t.tens", tmp_path / "t1.tens"
    save_tensor(ActivationTensor(rng.random((4, 4, 2)), rectified=True), layer_t)
    for fill in (-1.0, 1.0):
        save_tensor(ActivationTensor(np.full((4, 4, 2), fill)), layer_t1)
        code = run_cli(
            "pool", "--scheme", "cross-layer", "--layer-t", layer_t,
            "--layer-t1", layer_t1, "--window", "2x2", "--out", tmp_path / "v.fmat",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "data error: indicator weights must come from a rectified layer" in err
        assert not (tmp_path / "v.fmat").exists()


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_exit_code_pca_dim_below_one(tmp_path, capsys, monkeypatch, dim):
    """``pca-fit --dim`` below 1 is a config error found before
    ``--features`` is read; a ``--dim`` larger than the sample supports
    stays a data error."""
    feats, model = tmp_path / "f.fmat", tmp_path / "m.pca"
    save_features(np.random.default_rng(12).normal(size=(5, 4)), feats)
    reads, load = [], crosspool.cli.load_features

    def recorded(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(crosspool.cli, "load_features", recorded)
    code = run_cli("pca-fit", "--features", feats, "--dim", dim, "--out", model)
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: --dim must be positive, got {dim}" in err
    assert reads == [] and not model.exists()
    assert run_cli("pca-fit", "--features", feats, "--dim", "5", "--out", model) == 3
    assert "data error" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("argv,flag", [
    (["extract", "--window", "0x3"], "--window"),
    (["extract", "--window", "3x3", "--stride", "0"], "--stride"),
    (["pool", "--scheme", "cross-layer", "--stride", "0"], "--stride"),
    (["pool", "--scheme", "spp", "--stride", "0"], "--stride"),
    (["pool", "--scheme", "spp", "--pca", "m.pca"], "--pca"),
    (["pool", "--scheme", "cross-layer", "--pad", "-1"], "--pad"),
])
def test_exit_code_bad_window_flags(tmp_path, capsys, monkeypatch, argv, flag):
    """A window, stride or pad flag out of range, or a PCA model for a
    scheme other than cross-layer, is a config error, found before any
    input is read."""
    rng = np.random.default_rng(9)
    layer_t, layer_t1 = tmp_path / "t.tens", tmp_path / "t1.tens"
    for path, shape in ((layer_t, (8, 8, 2)), (layer_t1, (6, 6, 3))):
        save_tensor(ActivationTensor(rng.random(shape), rectified=True), path)
    save_pca(pca_fit(rng.random((20, 18)), 4), tmp_path / "m.pca")
    argv = [tmp_path / a if a == "m.pca" else a for a in argv]
    reads, load = [], crosspool.cli.load_tensor

    def recorded(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(crosspool.cli, "load_tensor", recorded)
    inputs = {
        "extract": ["--input", layer_t],
        "pool": ["--input", layer_t, "--layer-t", layer_t, "--layer-t1", layer_t1],
    }
    code = run_cli(*argv, *inputs[argv[0]], "--out", tmp_path / "v.fmat")
    err = capsys.readouterr().err
    assert code == 2, err
    assert "config error" in err and flag in err
    assert reads == []
    assert not (tmp_path / "v.fmat").exists()


@pytest.mark.parametrize("scheme,reads,unread,named", [
    ("direct-max", ["--features", "f.fmat"],
     ["--window", "5x5", "--stride", "4", "--pad", "8"], "--window, --stride, --pad"),
    ("direct-sum-sqrt", ["--features", "f.fmat"],
     ["--layer-t", "t.tens", "--input", "t.tens", "--pca", "m.pca"],
     "--layer-t, --input, --pca"),
    ("spp", ["--input", "t.tens", "--window", "3x3", "--stride", "1"],
     ["--pad", "8", "--layer-t1", "missing.tens"], "--layer-t1, --pad"),
    ("cross-layer", ["--layer-t", "t.tens", "--layer-t1", "t1.tens", "--pad", "0",
                     "--pca", "m.pca"],
     ["--features", "f.fmat", "--input", "t.tens"], "--features, --input"),
], ids=["direct-max", "direct-sum-sqrt", "spp", "cross-layer"])
def test_pool_rejects_flags_its_scheme_does_not_read(
    tmp_path, capsys, monkeypatch, scheme, reads, unread, named
):
    """``pool`` with only the flags its scheme reads writes its vector; one
    more flag that the scheme does not read is a config error that names
    every such flag, found before any input is read, and nothing is
    written."""
    rng = np.random.default_rng(9)
    for name, shape in (("t.tens", (8, 8, 2)), ("t1.tens", (6, 6, 3))):
        save_tensor(ActivationTensor(rng.random(shape), rectified=True), tmp_path / name)
    save_features(rng.random((20, 18)), tmp_path / "f.fmat")
    save_pca(pca_fit(rng.random((20, 18)), 4), tmp_path / "m.pca")
    reads, unread = ([tmp_path / a if a.endswith((".tens", ".fmat", ".pca")) else a
                      for a in argv] for argv in (reads, unread))
    out = tmp_path / "v.fmat"
    assert run_cli("pool", "--scheme", scheme, *reads, "--out", out) == 0
    out.unlink()
    loaded = []
    for name in ("load_tensor", "load_features", "load_pca"):
        monkeypatch.setattr(crosspool.cli, name, lambda path: loaded.append(path))
    capsys.readouterr()
    code = run_cli("pool", "--scheme", scheme, *reads, *unread, "--out", out)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {scheme} pooling does not read {named}" in err
    assert loaded == [] and not out.exists()


def test_exit_code_parts_too_small_for_the_head(dataset, tmp_path, capsys):
    """2x2 blocks that the second convolution's 3x3 window cannot fit stop
    the run with exit 3, and the representation stage publishes nothing.
    With PCA the header count gives those blocks no features, and the PCA
    stage's forward pass stops the run the same way, before either stage
    publishes a directory."""
    _, net, _ = dataset
    rng = np.random.default_rng(4)
    lines = []
    for i, split in enumerate(("train", "train", "test", "test")):
        save_tensor(ActivationTensor(rng.random((4, 4, 6))), tmp_path / f"{i}.tens")
        lines.append(f"{i}.tens\t{split}\tc{i % 2}")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    for pca_dim in ("0", "4"):
        workdir = tmp_path / f"w{pca_dim}"
        code = run_cli("--workdir", workdir, "run", "--net", net, "--manifest", manifest,
                       "--resolution", "both", "--pca-dim", pca_dim)
        err = capsys.readouterr().err
        assert code == 3, pca_dim
        assert "data error" in err and "exceeds tensor 2x2" in err
        assert "Traceback" not in err
        for stage in ("pca", "representations"):
            assert not (workdir / stage).is_dir() or list((workdir / stage).iterdir()) == []
        assert (workdir / "pca").is_dir() == (pca_dim == "4")


def test_exit_code_config_error(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli(
        "--workdir", tmp_path / "w",
        "run", "--net", net, "--manifest", manifest, "--layer-pair", "9,10",
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("layer_pair", 3),
    ("layer_pair", [1, "x"]),
    ("pca_sample_cap", 20),
    ("layer_pair", [1, 2, 3]),
    ("pca_dim", True),
    ("pca_dim", 2.5),
    ("quantize", "no"),
    ("seed", "abc"),
    ("quantize", 1),
    ("svm_c", "1.0"),
    ("svm_c", float("nan")),
    ("svm_tol", float("inf")),
    ("seed", True),
    ("network", 5),
    ("network", None),
    ("resolution", {"blocks_m": 2.5}),
    ("resolution", {"blocks_m": True}),
    ("resolution", {"include_whole_image": "no"}),
])
def test_exit_code_config_value_of_wrong_type(dataset, tmp_path, capsys, field, value):
    """A config value of the wrong JSON type, a NaN or infinite SVM
    parameter, or a value that no dataset could satisfy (a PCA sample cap
    no larger than the 20 components it must yield) is a config error
    before any stage runs, not a traceback or a silently different run.  A resolution field is named as
    ``resolution.<field>``."""
    manifest, net, _ = dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": net, "pca_dim": 20, field: value}))
    code = run_cli("--workdir", tmp_path / "w", "run", "--config", cfg, "--manifest", manifest)
    assert code == 2
    name = f"{field}.{next(iter(value))}" if isinstance(value, dict) else field
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--blocks", "0x2", "blocks_m"),
    ("--overlap", "1.5", "overlap_fraction"),
])
def test_exit_code_resolution_flag_out_of_range(dataset, tmp_path, capsys, flag, value, field):
    """An out-of-range block grid or overlap flag is a config error, as the
    same value in a config file is."""
    manifest, net, _ = dataset
    code = run_cli("--workdir", tmp_path / "w",
                   "run", "--net", net, "--manifest", manifest, flag, value)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_exit_code_negative_seed(dataset, tmp_path, capsys, source):
    """A negative seed is a config error before a workdir is created, from
    a config file or from ``--seed``, on a set whose descriptors exceed the
    PCA sample cap, where ``np.random.default_rng`` would refuse it."""
    manifest, net, _ = dataset
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"network": net, "pca_dim": 2, "pca_sample_cap": 10, "seed": -1}
        ))
        argv = ["run", "--config", cfg, "--manifest", manifest]
    else:
        argv = ["--seed", "-1", "run", "--net", net, "--manifest", manifest,
                "--pca-dim", "2"]
    assert run_cli("--workdir", tmp_path / "w", *argv) == 2
    assert "config error: seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_compare_checks_every_scheme_before_running(dataset, tmp_path, capsys):
    """A PCA sample cap, or a PCA dim, that only the cross-layer scheme
    uses is rejected before the direct scheme listed first runs."""
    manifest, net, _ = dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": net, "scheme": "direct-max",
                               "pca_dim": 20, "pca_sample_cap": 20}))
    code = run_cli("--workdir", tmp_path / "w", "compare", "--config", cfg,
                   "--manifest", manifest, "--schemes", "direct-max,cross-layer")
    assert code == 2
    assert "config error: pca_sample_cap must be" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()
    # a pca_dim past the local feature dim, found once the network is read
    cfg.write_text(json.dumps({"network": net, "pca_dim": 5000, "pca_sample_cap": 10**7}))
    code = run_cli("--workdir", tmp_path / "w", "compare", "--config", cfg,
                   "--manifest", manifest, "--schemes", "direct-max,cross-layer")
    assert code == 2
    assert "config error: pca_dim 5000 exceeds local feature dim 54" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_window_and_stride_come_from_the_network(dataset, tmp_path, capsys):
    """The local-feature window and stride are the second convolution's
    kernel and stride: a config file that sets either is rejected as an
    unknown key, and run has no flag for them."""
    manifest, net, _ = dataset
    for key in ("window", "stride"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"network": net, key: None}))
        code = run_cli("--workdir", tmp_path / "w", "run", "--config", cfg, "--manifest", manifest)
        assert code == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
    code = run_cli("--workdir", tmp_path / "w",
                   "run", "--net", net, "--manifest", manifest, "--window", "3x3")
    assert code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_quantize_flags_exclude_each_other(dataset, tmp_path, capsys):
    """``--quantize`` and ``--no-quantize`` together are a usage error;
    either one alone overrides the config file."""
    manifest, net, _ = dataset
    run = ("--workdir", tmp_path / "w", "run", "--net", net, "--manifest", manifest)
    assert run_cli(*run, "--quantize", "--no-quantize") == 2
    assert "not allowed with argument" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": net, "quantize": True}))
    run = ("--workdir", tmp_path / "w", "run", "--config", cfg, "--manifest", manifest)
    assert run_cli(*run) == 0
    assert "(quantized)" in capsys.readouterr().out
    assert run_cli(*run, "--no-quantize") == 0
    assert "(quantized)" not in capsys.readouterr().out


def test_workers_flag_is_gone(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli("--workdir", tmp_path / "w",
                   "run", "--net", net, "--manifest", manifest, "--workers", "2")
    assert code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_exit_code_argparse(capsys):
    assert run_cli("run", "--manifest", "x.tsv", "--scheme", "nonsense") == 2


def test_exit_code_data_error(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli("--workdir", tmp_path / "w",
                   "run", "--net", "missing.spec", "--manifest", manifest)
    assert code == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "run", "forward"])
def test_exit_code_path_through_a_regular_file(dataset, tmp_path, capsys, command):
    """An output path or workdir that runs through a regular file is a data
    error (exit 3), not a traceback."""
    manifest, net, root = dataset
    tensor = root / "tensors" / "train_0000.tens"
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {
        "extract": ["extract", "--input", tensor, "--window", "3x3",
                    "--out", afile / "x.fmat"],
        "run": ["--workdir", afile, "run", "--net", net, "--manifest", manifest],
        "forward": ["forward", "--net", net, "--input", tensor, "--out-dir", afile],
    }[command]
    assert run_cli(*argv) == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_corrupt_tensor(dataset, tmp_path, capsys):
    blob = tmp_path / "corrupt.tens"
    blob.write_bytes(b"CPTENS01" + b"\x01\x00\x00\x00" * 3 + b"\x00" + b"\xff")
    code = run_cli("extract", "--input", blob, "--window", "1x1",
                   "--out", tmp_path / "f.fmat")
    assert code == 3


def test_exit_code_non_finite_tensor(tmp_path, capsys):
    """A NaN in one input tensor stops the run with exit 3 and names the
    file, before any representation is computed."""
    manifest, net = generate(tmp_path / "data", n_train=6, n_test=6, seed=5)
    bad = sorted((tmp_path / "data" / "tensors").iterdir())[3]
    blob = bytearray(bad.read_bytes())
    blob[21:25] = struct.pack("<f", float("nan"))
    bad.write_bytes(bytes(blob))
    code = run_cli("--workdir", tmp_path / "w", "run", "--net", net, "--manifest", manifest)
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and bad.name in err
    assert not list((tmp_path / "w").glob("representations/*"))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["pca-fit", "pool", "train"])
def test_exit_code_non_finite_features(tmp_path, capsys, command, value):
    """A feature matrix holding one NaN or one infinity stops ``pca-fit``,
    ``pool --scheme direct-max`` and ``train --gram`` with exit 3, naming
    the file, and writes nothing."""
    rng = np.random.default_rng(11)
    data = rng.normal(size=(20, 6))
    if command == "train":
        data = data @ data.T
    data[3, 2] = value
    bad, out = tmp_path / "f.fmat", tmp_path / "out"
    save_features(data, bad)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"c{i % 2}\n" for i in range(20)))
    argv = {
        "pca-fit": ["pca-fit", "--features", bad, "--dim", "3", "--out", out],
        "pool": ["pool", "--scheme", "direct-max", "--features", bad, "--out", out],
        "train": ["train", "--gram", bad, "--labels", labels, "--out", out],
    }[command]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "f.fmat" in err and "NaN or infinite" in err
    assert not out.exists()


@pytest.mark.parametrize("dim,payload", [
    (1, [0b11]),        # code 11
    (1, [0b0100]),      # nonzero padding past dim
    (8, [0b01]),        # truncated: 2 bytes promised
    (8, [0b01, 0, 0]),  # overlong
])
def test_exit_code_corrupt_sign_stack(tmp_path, capsys, dim, payload):
    path = tmp_path / "bad.sgns"
    path.write_bytes(b"CPSIGS01" + struct.pack("<II", 1, dim) + bytes(payload))
    assert run_cli("gram", "--reps", path, "--out", tmp_path / "k.fmat") == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "k.fmat").exists()


@pytest.mark.parametrize("blob", [b"", b"CPSIGS", b"CPTENS01" + bytes(16)])
def test_exit_code_gram_of_neither_container(tmp_path, capsys, blob):
    """``gram`` on a file that starts with neither a matrix file's nor a
    sign stack's magic exits 3 with a message that names both."""
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    assert run_cli("gram", "--reps", path, "--out", tmp_path / "k.fmat") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "CPFMAT01" in err and "CPSIGS01" in err
    assert not (tmp_path / "k.fmat").exists()


def test_exit_code_numerical_error(tmp_path, capsys):
    rng = np.random.default_rng(10)
    line = np.outer(rng.normal(size=30), [1.0, 2.0])
    feats = tmp_path / "f.fmat"
    save_features(line, feats)
    code = run_cli("pca-fit", "--features", feats, "--dim", "2",
                   "--out", tmp_path / "m.pca")
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,code,kind_of_error", [
    ("manifest", 3, "data error"),
    ("network", 2, "config error"),
    ("config", 2, "config error"),
    ("model", 3, "data error"),
    ("labels", 3, "data error"),
])
def test_exit_code_non_utf8_input(dataset, tmp_path, capsys, kind, code, kind_of_error):
    """A stray 0xff byte in a text input or a model's class label maps to
    the documented exit code instead of a decoding traceback."""
    manifest, net, _ = dataset
    bad = tmp_path / "bad"
    workdir = ("--workdir", tmp_path / "w")
    if kind == "manifest":
        bad.write_bytes(b"a.tens\ttrain\tcat\xff\n")
        argv = [*workdir, "run", "--net", net, "--manifest", bad]
    elif kind == "network":
        bad.write_bytes(Path(net).read_bytes() + b"# \xff\n")
        argv = [*workdir, "run", "--net", bad, "--manifest", manifest]
    elif kind == "config":
        bad.write_bytes(b'{"network": "net.spec", "scheme": "cross-layer\xff"}')
        argv = [*workdir, "run", "--config", bad, "--manifest", manifest]
    elif kind == "labels":
        save_features(np.eye(2), tmp_path / "gram.fmat")
        bad.write_bytes(b"cat\n\xffdog\n")
        argv = ["train", "--gram", tmp_path / "gram.fmat", "--labels", bad,
                "--out", tmp_path / "m.svm"]
    else:
        model = SvmModel(("a", "z"), np.zeros((2, 3)), np.zeros(2), 1.0)
        save_svm(model, bad)
        blob = bad.read_bytes()
        bad.write_bytes(blob.replace(b"\x01\x00\x00\x00z", b"\x01\x00\x00\x00\xff"))
        save_features(np.zeros((1, 3)), tmp_path / "rows.fmat")
        argv = ["predict", "--model", bad, "--rows", tmp_path / "rows.fmat"]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert kind_of_error in err and "UTF-8" in err
