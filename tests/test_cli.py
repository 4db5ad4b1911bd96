"""Exercises the console entry point in-process, including exit codes."""

import json
import struct

import numpy as np
import pytest

from crosspool.cli import main
from crosspool.postproc import load_sign_stack
from crosspool.svm import SvmModel, load_svm, save_svm
from crosspool.synth import generate
from crosspool.tensor import (
    ActivationTensor,
    FeatureMatrix,
    load_features,
    save_features,
    save_tensor,
)


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
    report = json.loads(open(report_path).read())
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
        "--workdir", tmp_path / "work", "--workers", "2",
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
    feats = load_features(tmp_path / "feats.fmat")
    assert feats.count == 18 * 18 and feats.dim == 9 * 6


def test_pool_quantize_gram_train_predict_chain(dataset, tmp_path, capsys):
    """Drive the plumbing commands end to end on a toy matrix."""
    rng = np.random.default_rng(7)
    reps = tmp_path / "reps.fmat"
    data = np.vstack([rng.normal(size=(6, 8)) + 3, rng.normal(size=(6, 8)) - 3])
    save_features(FeatureMatrix(data), reps)

    assert run_cli("quantize", "--input", reps, "--out", tmp_path / "q.sgns") == 0
    codes, dim = load_sign_stack(tmp_path / "q.sgns")
    assert codes.shape == (12, 2) and dim == 8

    assert run_cli("gram", "--reps", reps, "--out", tmp_path / "k.fmat") == 0
    gram = load_features(tmp_path / "k.fmat")
    assert gram.count == 12 and gram.dim == 12

    assert run_cli("gram", "--reps", tmp_path / "q.sgns",
                   "--out", tmp_path / "kq.fmat") == 0
    packed_gram = load_features(tmp_path / "kq.fmat")
    assert packed_gram.data[0, 0] == 8.0

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


def test_pca_fit_and_pool(dataset, tmp_path, capsys):
    rng = np.random.default_rng(8)
    feats = tmp_path / "f.fmat"
    save_features(FeatureMatrix(rng.normal(size=(50, 6))), feats)
    assert run_cli("pca-fit", "--features", feats, "--dim", "3",
                   "--out", tmp_path / "m.pca") == 0

    assert run_cli("pool", "--scheme", "direct-max", "--features", feats,
                   "--out", tmp_path / "v.fmat") == 0
    pooled = load_features(tmp_path / "v.fmat")
    assert pooled.count == 1 and pooled.dim == 6


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
    assert run_cli(
        "pool", "--scheme", "cross-layer",
        "--layer-t", layer_t, "--layer-t1", layer_t1,
        "--window", "3x3", "--stride", "1", "--pad", "0",
        "--out", tmp_path / "v.fmat",
    ) == 0
    pooled = load_features(tmp_path / "v.fmat")
    assert pooled.dim == (3 * 3 * 2) * 3


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


def test_exit_code_config_error(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli(
        "--workdir", tmp_path / "w",
        "run", "--net", net, "--manifest", manifest, "--layer-pair", "9,10",
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_argparse(capsys):
    assert run_cli("run", "--manifest", "x.tsv", "--scheme", "nonsense") == 2


def test_exit_code_data_error(dataset, tmp_path, capsys):
    manifest, net, _ = dataset
    code = run_cli("--workdir", tmp_path / "w",
                   "run", "--net", "missing.spec", "--manifest", manifest)
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_corrupt_tensor(dataset, tmp_path, capsys):
    blob = tmp_path / "corrupt.tens"
    blob.write_bytes(b"CPTENS01" + b"\x01\x00\x00\x00" * 3 + b"\x00" + b"\xff")
    code = run_cli("extract", "--input", blob, "--window", "1x1",
                   "--out", tmp_path / "f.fmat")
    assert code == 3


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


def test_exit_code_numerical_error(tmp_path, capsys):
    rng = np.random.default_rng(10)
    line = np.outer(rng.normal(size=30), [1.0, 2.0])
    feats = tmp_path / "f.fmat"
    save_features(FeatureMatrix(line), feats)
    code = run_cli("pca-fit", "--features", feats, "--dim", "2",
                   "--out", tmp_path / "m.pca")
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,code,kind_of_error", [
    ("manifest", 3, "data error"),
    ("network", 2, "config error"),
    ("config", 2, "config error"),
    ("model", 3, "data error"),
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
        bad.write_bytes(open(net, "rb").read() + b"# \xff\n")
        argv = [*workdir, "run", "--net", bad, "--manifest", manifest]
    elif kind == "config":
        bad.write_bytes(b'{"network": "net.spec", "scheme": "cross-layer\xff"}')
        argv = [*workdir, "run", "--config", bad, "--manifest", manifest]
    else:
        model = SvmModel(("a", "z"), np.zeros((2, 3)), np.zeros(2), 1.0)
        save_svm(model, bad)
        blob = bad.read_bytes()
        bad.write_bytes(blob.replace(b"\x01\x00\x00\x00z", b"\x01\x00\x00\x00\xff"))
        save_features(FeatureMatrix(np.zeros((1, 3))), tmp_path / "rows.fmat")
        argv = ["predict", "--model", bad, "--rows", tmp_path / "rows.fmat"]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert kind_of_error in err and "UTF-8" in err
