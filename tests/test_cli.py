"""Exercises the console entry point in-process, including exit codes."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crosspool.cli import main
from crosspool.postproc import load_sign_stack, save_sign_stack, sign_quantize
from crosspool.svm import SvmModel, kernels, load_svm, save_svm
from crosspool.synth import generate
from crosspool.tensor import (
    ActivationTensor,
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
    assert load_features(tmp_path / "v.fmat").data.shape == (1, (3 * 3 * 2) * 3)


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


@pytest.mark.parametrize("field,value", [
    ("layer_pair", 3),
    ("layer_pair", [1, "x"]),
    ("window", ["a", "b"]),
    ("spp_levels", ["a"]),
    ("stride", "2"),
    ("pca_dim", 2.5),
    ("quantize", "no"),
    ("seed", "abc"),
    ("power_norm", 1),
    ("svm_c", "1.0"),
    ("svm_c", float("nan")),
    ("svm_tol", float("inf")),
    ("seed", True),
])
def test_exit_code_config_value_of_wrong_type(dataset, tmp_path, capsys, field, value):
    """A config value of the wrong JSON type, or a NaN or infinite SVM
    parameter, is a config error before any stage runs, not a traceback or
    a silently different run."""
    manifest, net, _ = dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": net, field: value}))
    code = run_cli("--workdir", tmp_path / "w", "run", "--config", cfg, "--manifest", manifest)
    assert code == 2
    assert f"config error: {field} must be" in capsys.readouterr().err
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
