import hashlib
import json
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import dorsalhash
from dorsalhash import cli, corpus
from dorsalhash.cli import main
from dorsalhash.enrollment import TemplateVault
from dorsalhash.corpus import write_pgm
from dorsalhash.network import FixedFilterNet, NetworkConfig

# Small geometry keeps the end-to-end flow fast; the config file doubles as
# coverage for file-based settings resolution.
CFG_TEXT = "input_height=32\ninput_width=64\nfc1_dim=96\nfc2_dim=128\n"


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "settings.cfg"
    cfg.write_text(CFG_TEXT, encoding="utf-8")
    data = root / "corpus"
    model = root / "model.dfn"
    rc = main(["synth", "--subjects", "3", "--samples", "4", "--noise", "0.05",
               "--seed", "0", "--out", str(data), "--config", str(cfg)])
    assert rc == 0
    rc = main(["train", "--data", str(data), "--out", str(model), "--epochs", "2",
               "--gallery-count", "2", "--seed", "0", "--config", str(cfg)])
    assert rc == 0
    return {"root": root, "cfg": cfg, "data": data, "model": model}


def common(env, *extra):
    return [*extra, "--config", str(env["cfg"]), "--seed", "0"]


# -- usage errors ---------------------------------------------------------------

def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["polish", "--out", "x"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "model.dfn"])
    assert exc.value.code == 2


def test_unsupported_bit_length_is_usage_error(cli_env):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
              "--out", "x", "--bits", "256"])
    assert exc.value.code == 2


def test_unsupported_bits_via_config_file_fails_cleanly(cli_env, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CFG_TEXT + "bits=256\n", encoding="utf-8")
    rc = main(["evaluate", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
               "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 1


def test_missing_data_directory_is_operational_failure(cli_env, tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m.dfn"),
               *common(cli_env)])
    assert rc == 1


# -- synth / augment ------------------------------------------------------------

def test_synth_layout_on_disk(cli_env):
    data = cli_env["data"]
    subjects = sorted(p.name for p in data.iterdir() if p.is_dir())
    assert subjects == ["s00", "s01", "s02"]
    files = sorted(p.name for p in (data / "s00").iterdir())
    assert files == ["img00.pgm", "img01.pgm", "img02.pgm", "img03.pgm"]


@pytest.mark.parametrize("bad", ["input_height=0", "input_width=0", "input_height=-3"])
def test_synth_zero_size_fails_and_writes_nothing(tmp_path, capsys, bad):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(bad + "\n", encoding="utf-8")
    out = tmp_path / "corpus"
    rc = main(["synth", "--subjects", "2", "--samples", "2", "--out", str(out), "--config", str(cfg)])
    assert rc == 1
    assert "image size must be positive" in capsys.readouterr().err
    assert not out.exists()


# "-inf" would parse as a flag, so every value goes in the --noise=VALUE form.
@pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
def test_synth_non_finite_noise_fails_and_writes_nothing(tmp_path, capsys, noise):
    out = tmp_path / "corpus"
    rc = main(["synth", "--subjects", "2", "--samples", "2", f"--noise={noise}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "noise level" in err
    assert not out.exists()


def test_augment_writes_requested_count(cli_env, tmp_path):
    src = cli_env["data"] / "s00" / "img00.pgm"
    out = tmp_path / "aug"
    rc = main(["augment", "--image", str(src), "--out", str(out), "--count", "5",
               *common(cli_env)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [f"aug{i:02d}.pgm" for i in range(5)]


# -- train ------------------------------------------------------------------------

@pytest.mark.parametrize("count, images", [(0, 12), (2, 6)])
def test_train_gallery_count_zero_means_every_sample(cli_env, tmp_path, capsys, count, images):
    rc = main(["train", "--data", str(cli_env["data"]), "--out", str(tmp_path / "m.dfn"), "--epochs", "0",
               "--gallery-count", str(count), *common(cli_env)])
    assert rc == 0
    assert f"saved untrained model for {images} images" in capsys.readouterr().out


def test_train_refuses_a_negative_gallery_count_before_loading(cli_env, tmp_path, capsys):
    # The missing root shows that the count is checked before the corpus loads.
    for data in (cli_env["data"], tmp_path / "missing"):
        out = tmp_path / "model.dfn"
        rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                   "--gallery-count", "-1", *common(cli_env)])
        assert rc == 1
        assert "gallery count must be >= 0" in capsys.readouterr().err
        assert not out.exists()


# -- extract ----------------------------------------------------------------------

def test_extract_dumps_features_for_every_image(cli_env, tmp_path):
    out = tmp_path / "features.json"
    rc = main(["extract", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
               "--out", str(out), "--config", str(cli_env["cfg"])])
    assert rc == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["feature_dim"] == 128
    assert len(blob["images"]) == 12
    assert all(len(e["features"]) == 128 for e in blob["images"])


# BLAKE2b-128 of what a seeded train run writes and prints, and of the
# features extract then dumps with its model.  The stdout and features were
# recorded when the trainable parameters were still held as separate arrays,
# and the model when its file stopped storing the banks (version 2).  Two
# epochs at 32x64 run calibrate_dense and the 1.0 gradient clip.  Like the
# basis digests they depend on libm and BLAS.
PINNED_TRAIN_OUTPUTS = {
    "model.dfn": "3be4ab780e87000c587cf4496133cfd8",
    "train stdout": "cff9d128534b2c2866d624f411ebd5dc",
    "features.json": "beb3acb3aee58218606269469124827f",
}


def test_train_and_extract_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    # Relative paths keep the printed and dumped paths free of tmp_path.
    monkeypatch.chdir(tmp_path)
    Path("settings.cfg").write_text(CFG_TEXT, encoding="utf-8")
    flags = ["--config", "settings.cfg", "--seed", "0"]
    assert main(["synth", "--subjects", "3", "--samples", "4", "--noise", "0.05",
                 "--out", "corpus", *flags]) == 0
    capsys.readouterr()
    assert main(["train", "--data", "corpus", "--out", "model.dfn", "--epochs", "2",
                 "--gallery-count", "2", *flags]) == 0
    got = {"train stdout": capsys.readouterr().out.encode()}
    assert main(["extract", "--data", "corpus", "--model", "model.dfn",
                 "--out", "features.json", "--config", "settings.cfg"]) == 0
    got.update({name: Path(name).read_bytes() for name in ("model.dfn", "features.json")})
    assert {k: hashlib.blake2b(v, digest_size=16).hexdigest() for k, v in got.items()} \
        == PINNED_TRAIN_OUTPUTS


# -- enroll / verify / revoke lifecycle -------------------------------------------

def test_enrollment_lifecycle(cli_env, tmp_path, capsys):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    probe = str(cli_env["data"] / "s00" / "img02.pgm")

    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, "--bits", "64", *common(cli_env)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "enrolled s00/major v1 (64 bits:" in out
    assert (store / "keys.jsonl").is_file()
    assert (store / "templates.jsonl").is_file()

    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", probe, "--threshold", "1.0", *common(cli_env)])
    assert rc == 0
    assert "-> accept" in capsys.readouterr().out

    rc = main(["revoke", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    assert "as v2" in capsys.readouterr().out

    # The superseded credential must stop working; the reissued one must work.
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", probe, "--threshold", "1.0",
               "--key-version", "1", *common(cli_env)])
    assert rc == 1
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", probe, "--threshold", "1.0", *common(cli_env)])
    assert rc == 0


def test_verify_of_a_revoked_version_fails_after_its_sidecar_entries_are_blanked(cli_env, tmp_path, capsys):
    # Blanking the revoke and reissue entries of s00's line in the template
    # sidecar, at the same length, once made v1 look active again.
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    flags = ["--model", str(cli_env["model"]), "--store", str(store), "--user", "s00", *common(cli_env)]
    verify_v1 = ["verify", "--image", imgs[0], "--threshold", "1.0", "--key-version", "1", *flags]
    assert main(["enroll", "--images", *imgs, *flags]) == 0
    assert main(["revoke", "--images", *imgs, *flags]) == 0
    assert main(verify_v1) == 1  # this open writes a sidecar for every line
    sidecar = store / "templates.jsonl.index"
    lines = sidecar.read_bytes().split(b"\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(b'["s00",'))
    first = json.dumps(json.loads(lines[i])[:3], separators=(",", ":")).encode()
    assert len(first) < len(lines[i])
    lines[i] = first[:-1] + b" " * (len(lines[i]) - len(first)) + b"]"
    sidecar.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(verify_v1) == 1
    assert "revoked" in capsys.readouterr().err


# BLAKE2b-128 of the stdout of PINNED_FLOW and of both store files it leaves
# (index sidecars excluded), recorded when the vault still extracted
# features itself.  Like the basis digests they depend on libm and BLAS.
PINNED_FLOW_OUTPUTS = {
    "stdout": "175411b7675d6b7240ae97933be9163e",
    "keys.jsonl": "5b632e39e09ada9015e58455138f9541",
    "templates.jsonl": "7bff99504779fc9600da0d5301008fcf",
}
# (exit code, argv head) of each call: enroll, verify, enroll again
# (supersedes v1), revoke, verify the superseded v1, verify the active v3.
PINNED_FLOW = [
    (0, ["enroll", "--images", "img00", "img01"]),
    (0, ["verify", "--image", "img02", "--threshold", "0.35"]),
    (0, ["enroll", "--images", "img01", "img02"]),
    (0, ["revoke", "--images", "img00", "img01"]),
    (1, ["verify", "--image", "img02", "--threshold", "0.35", "--key-version", "1"]),
    (0, ["verify", "--image", "img02", "--threshold", "0.35"]),
]


def test_enroll_verify_revoke_flow_is_pinned(streams_env, tmp_path, capsys):
    store, subject = tmp_path / "store", streams_env / "major" / "s00"
    codes = []
    for code, (command, *rest) in PINNED_FLOW:
        rest = [str(subject / f"{a}.pgm") if a.startswith("img") else a for a in rest]
        codes.append(main([command, *rest, "--model", str(streams_env / "model.dfn"),
                           "--store", str(store), "--user", "s00", "--seed", "0"]))
    assert codes == [code for code, _ in PINNED_FLOW]
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update({name: (store / name).read_bytes() for name in ("keys.jsonl", "templates.jsonl")})
    assert {k: hashlib.blake2b(v, digest_size=16).hexdigest() for k, v in got.items()} == PINNED_FLOW_OUTPUTS


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1.5", "-0.5"])
def test_verify_refuses_a_threshold_outside_the_unit_interval(cli_env, tmp_path, capsys, threshold, source):
    # Another subject's image: an infinite threshold would accept it.
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    assert main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
                 "--user", "s00", "--images", *imgs, *common(cli_env)]) == 0
    capsys.readouterr()
    if source == "flag":
        extra = [f"--threshold={threshold}", *common(cli_env)]
    else:
        cfg = tmp_path / "threshold.cfg"
        cfg.write_text(CFG_TEXT + f"threshold={threshold}\n", encoding="utf-8")
        extra = ["--config", str(cfg), "--seed", "0"]
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store), "--user", "s00",
               "--image", str(cli_env["data"] / "s01" / "img02.pgm"), *extra])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: threshold must lie in [0, 1], got {float(threshold)}\n"


def test_verify_unenrolled_user_fails(cli_env, tmp_path):
    store = tmp_path / "store"
    probe = str(cli_env["data"] / "s00" / "img00.pgm")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "ghost", "--image", probe, "--threshold", "0.5", *common(cli_env)])
    assert rc == 1


def test_verify_with_tampered_key_record_fails(cli_env, tmp_path):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    keys = store / "keys.jsonl"
    record = json.loads(keys.read_text(encoding="utf-8"))
    record["seed"] += 1
    keys.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", imgs[0], "--threshold", "1.0", *common(cli_env)])
    assert rc == 1


def test_verify_with_key_record_missing_a_field_fails(cli_env, tmp_path, capsys):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    capsys.readouterr()
    keys = store / "keys.jsonl"
    record = json.loads(keys.read_text(encoding="utf-8"))
    del record["seed"]
    keys.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", imgs[0], "--threshold", "1.0", *common(cli_env)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "keys.jsonl:1" in err and "seed" in err


def test_verify_with_key_record_of_wrong_type_fails(cli_env, tmp_path, capsys):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    capsys.readouterr()
    keys = store / "keys.jsonl"
    record = json.loads(keys.read_text(encoding="utf-8"))
    record["seed"] = "abc"
    keys.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", imgs[0], "--threshold", "1.0", *common(cli_env)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "keys.jsonl:1" in err and "seed" in err


def test_verify_with_template_bits_that_are_not_hex_fails(cli_env, tmp_path, capsys):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    capsys.readouterr()
    templates = store / "templates.jsonl"
    record = json.loads(templates.read_text(encoding="utf-8"))
    record["bits_hex"] = "zz" * (len(record["bits_hex"]) // 2)
    templates.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--image", imgs[0], "--threshold", "1.0", *common(cli_env)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "templates.jsonl:1" in err and "bits_hex" in err


def _resealed(source, out, edit):
    """Write to out the model container at source with edit(header,
    payload) applied; the edit returns the new payload, and the header
    length and CRC32 are recomputed."""
    blob = source.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    payload = edit(header, blob[16 + header_len:-4])
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = head + payload
    out.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + body + struct.pack("<I", zlib.crc32(body)))
    return out


def test_verify_with_a_model_header_that_lacks_an_array_fails(cli_env, tmp_path, capsys):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    capsys.readouterr()

    def drop_combine3(header, payload):
        header["arrays"] = [e for e in header["arrays"] if e[0] != "combine3"]
        return payload

    model = _resealed(cli_env["model"], tmp_path / "model.dfn", drop_combine3)
    rc = main(["verify", "--model", str(model), "--store", str(store),
               "--user", "s00", "--image", imgs[0], "--threshold", "1.0", *common(cli_env)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(model) in err and "combine3" in err


def test_extract_with_a_non_finite_model_value_fails(cli_env, tmp_path, capsys):
    # A NaN in combine2 under a valid CRC once loaded, and extract then
    # wrote bare NaN tokens, which are not JSON.
    at = 8 * (12 + 1)  # combine2[1]
    model = _resealed(cli_env["model"], tmp_path / "model.dfn",
                      lambda header, payload: payload[:at] + struct.pack("<d", float("nan")) + payload[at + 8:])
    out = tmp_path / "features.json"
    rc = main(["extract", "--data", str(cli_env["data"]), "--model", str(model),
               "--out", str(out), "--config", str(cli_env["cfg"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(model) in err and "combine2" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "enroll"])
def test_zero_size_image_fails_cleanly(cli_env, tmp_path, capsys, command):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    rc = main(["enroll", "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", "--images", *imgs, *common(cli_env)])
    assert rc == 0
    capsys.readouterr()
    empty = tmp_path / "empty.pgm"
    empty.write_bytes(b"P5\n0 0\n255\n")
    if command == "verify":
        argv = ["verify", "--image", str(empty), "--threshold", "1.0"]
    else:
        argv = ["enroll", "--images", imgs[0], str(empty)]
    rc = main([*argv, "--model", str(cli_env["model"]), "--store", str(store),
               "--user", "s00", *common(cli_env)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(empty) in err


def _cli_exit(argv):
    sys.exit(main(argv))


def test_concurrent_enrolls_keep_one_active_record(cli_env, tmp_path):
    store = tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    argv = ["enroll", "--model", str(cli_env["model"]), "--store", str(store),
            "--user", "s00", "--images", *imgs, *common(cli_env)]
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_cli_exit, args=(argv,)) for _ in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert [proc.exitcode for proc in procs] == [0, 0]
    vault = TemplateVault(store / "keys.jsonl", store / "templates.jsonl")
    assert vault.active_record("s00")["key_version"] == 2
    keys = [json.loads(line) for line in (store / "keys.jsonl").read_text().splitlines()]
    assert sorted(r["key_version"] for r in keys) == [1, 2]


def test_verify_without_threshold_fails(cli_env, tmp_path):
    probe = str(cli_env["data"] / "s00" / "img00.pgm")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(tmp_path / "s"),
               "--user", "s00", "--image", probe, *common(cli_env)])
    assert rc == 1


def test_verify_checks_threshold_before_loading_the_model(cli_env, tmp_path, capsys):
    probe = str(cli_env["data"] / "s00" / "img00.pgm")
    rc = main(["verify", "--model", str(tmp_path / "missing.dfn"), "--store", str(tmp_path / "s"),
               "--user", "s00", "--image", probe, *common(cli_env)])
    assert rc == 1
    assert "verify needs --threshold" in capsys.readouterr().err


# -- evaluate ---------------------------------------------------------------------

def test_evaluate_writes_metrics_scores_and_roc(cli_env, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
               "--out", str(out), "--gallery-count", "2", *common(cli_env)])
    assert rc == 0
    assert "protocol@128bit" in capsys.readouterr().out
    metrics = json.loads((out / "metrics_128.json").read_text(encoding="utf-8"))
    assert set(metrics) >= {"eer", "eer_threshold", "crr", "di", "roc"}
    scores = json.loads((out / "scores_128.json").read_text(encoding="utf-8"))
    assert len(scores["genuine"]) == 3 * 2
    assert len(scores["impostor"]) == 3 * 2 * 2
    roc = (out / "roc_128.csv").read_text(encoding="utf-8")
    assert roc.splitlines()[0] == "threshold,far,frr,gar"


def test_evaluate_reruns_byte_identical(cli_env, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["evaluate", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
                   "--out", str(out), "--gallery-count", "2", *common(cli_env)])
        assert rc == 0
        outs.append(out)
    for fname in ("metrics_128.json", "scores_128.json", "roc_128.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_degenerate_scores_exit_with_metric_code(cli_env, tmp_path):
    # One texture shared by every subject collapses all scores to a single
    # value, so the decidability index has no defined value.
    data = tmp_path / "flat"
    texture = np.random.default_rng(3).uniform(0.2, 0.8, (32, 64))
    for sid in ("s00", "s01"):
        d = data / sid
        d.mkdir(parents=True)
        for i in range(3):
            write_pgm(d / f"img{i:02d}.pgm", texture)
    model = tmp_path / "m.dfn"
    FixedFilterNet.build(NetworkConfig(
        num_classes=2, input_height=32, input_width=64, fc1_dim=96, fc2_dim=128,
        lbc_seed=1,
    )).save(model)
    rc = main(["evaluate", "--data", str(data), "--model", str(model),
               "--out", str(tmp_path / "out"), "--gallery-count", "2", *common(cli_env)])
    assert rc == 3


# -- fuse -------------------------------------------------------------------------

def test_fused_protocol_writes_report(cli_env, tmp_path, capsys):
    second = tmp_path / "minor"
    rc = main(["synth", "--subjects", "3", "--samples", "4", "--noise", "0.05",
               "--seed", "7", "--out", str(second), "--config", str(cli_env["cfg"])])
    assert rc == 0
    out = tmp_path / "eval"
    rc = main(["fuse", "--data", str(cli_env["data"]), str(second),
               "--model", str(cli_env["model"]), "--out", str(out),
               "--gallery-count", "2", *common(cli_env)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fused@128bit" in printed
    assert (out / "metrics_fused_128.json").is_file()
    assert (out / "roc_fused_128.csv").is_file()


def test_fuse_requires_two_streams(cli_env, tmp_path):
    rc = main(["fuse", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
               "--out", str(tmp_path / "out"), *common(cli_env)])
    assert rc == 1


STREAMS = ("major", "minor", "nail")


@pytest.fixture(scope="module")
def streams_env(tmp_path_factory):
    """Three seeded 3-subject x 4-sample streams at 32x64 and an untrained
    model built from a seed."""
    root = tmp_path_factory.mktemp("streams")
    cfg = root / "geometry.cfg"
    cfg.write_text("input_height=32\ninput_width=64\n", encoding="utf-8")
    for seed, name in enumerate(STREAMS):
        assert main(["synth", "--subjects", "3", "--samples", "4", "--seed", str(seed),
                     "--out", str(root / name), "--config", str(cfg)]) == 0
    FixedFilterNet.build(NetworkConfig(
        num_classes=3, input_height=32, input_width=64, fc1_dim=96, fc2_dim=128, lbc_seed=5,
    )).save(root / "model.dfn")
    return root

# BLAKE2b-128 of stdout and of every file evaluate and fuse write on
# streams_env, recorded when fuse still extracted every image twice.  Like
# the basis digests they depend on libm and BLAS.
PINNED_PROTOCOL_OUTPUTS = {
    ("evaluate", "stdout"): "cbdc92e9b1ebd79c8fc79eccae38c27c",
    ("evaluate", "metrics_128.json"): "941bf7776e764d3f03067888ef0ffc44",
    ("evaluate", "roc_128.csv"): "4b86a1bf4458b473e49cb66e6255f69e",
    ("evaluate", "scores_128.json"): "5d2fe2008b509b59bca2ecb0e97b0e46",
    ("fuse", "stdout"): "8ce971a335340d2718cce84eed8d504a",
    ("fuse", "metrics_fused_128.json"): "a63b11bf5725d49fd57bf11bb07a5133",
    ("fuse", "roc_fused_128.csv"): "230461e358779902c56bb66bdf21f4fb",
    ("fuse", "scores_fused_128.json"): "b91dee56c99d05a9dd2fdd8db2c09c20",
}


def _protocol_argv(command, root, streams, out):
    return [command, "--data", *[str(root / s) for s in streams], "--model", str(root / "model.dfn"),
            "--out", str(out), "--gallery-count", "2", "--seed", "0"]


def test_evaluate_and_fuse_outputs_are_pinned(streams_env, tmp_path, capsys):
    got = {}
    for command, streams in (("evaluate", STREAMS[:1]), ("fuse", STREAMS)):
        out = tmp_path / command
        assert main(_protocol_argv(command, streams_env, streams, out)) == 0
        got[command, "stdout"] = capsys.readouterr().out.encode()
        got.update({(command, f.name): f.read_bytes() for f in out.iterdir()})
    assert {k: hashlib.blake2b(v, digest_size=16).hexdigest() for k, v in got.items()} \
        == PINNED_PROTOCOL_OUTPUTS


def test_fuse_extracts_each_image_once(streams_env, tmp_path, monkeypatch, capsys):
    calls = []
    trace = FixedFilterNet._trace

    def counted(self, *args, **kwargs):
        calls.append(1)
        return trace(self, *args, **kwargs)

    monkeypatch.setattr(FixedFilterNet, "_trace", counted)
    assert main(_protocol_argv("fuse", streams_env, STREAMS, tmp_path / "out")) == 0
    assert len(calls) == len(STREAMS) * 3 * 4


def test_fuse_refuses_two_roots_with_one_name(streams_env, tmp_path, capsys):
    # Streams are named by directory: a second "major" would replace the
    # first and fuse two streams where three were given.
    shutil.copytree(streams_env / "major", tmp_path / "other" / "major")
    argv = _protocol_argv("fuse", streams_env, STREAMS, tmp_path / "out")
    argv[argv.index("--model"):argv.index("--model")] = [str(tmp_path / "other" / "major")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "['major']" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_fuse_refuses_streams_with_other_subjects_before_loading(streams_env, tmp_path, monkeypatch, capsys):
    # "short" has s00 and s01 only; the comparison must come before the
    # model loads, so no stream is extracted or reported.
    assert main(["synth", "--subjects", "2", "--samples", "4", "--out", str(tmp_path / "short"),
                 "--config", str(streams_env / "geometry.cfg")]) == 0
    capsys.readouterr()

    def no_load(path):
        raise AssertionError("the model loaded before the streams' subjects were compared")

    monkeypatch.setattr(FixedFilterNet, "load", no_load)
    argv = _protocol_argv("fuse", streams_env, STREAMS[:2], tmp_path / "out")
    argv[argv.index("--model"):argv.index("--model")] = [str(tmp_path / "short")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "stream" not in captured.out
    assert "short lacks ['s02']" in captured.err
    assert not (tmp_path / "out").exists()


# -- models whose banks are not those of their config ------------------------------

V1_MODEL = Path(__file__).parent / "data" / "model_v1.dfn"


def _zero_bank4(header, payload):
    start = 8 * 15 * (12 + 24 + 36)  # banks 1-3 precede it in a version-1 payload
    return payload[:start] + bytes(8 * 15 * 64) + payload[start + 8 * 15 * 64:]


def _set_lbc_seed(header, payload):
    header["config"]["lbc_seed"] = 12345
    return payload


def _wrong_banks_digest(header, payload):
    header["banks_blake2b"] = "00" * 32
    return payload


BANK_FAULTS = {
    "v1-bank4-zeroed": (V1_MODEL, _zero_bank4, "bank4"),
    "v1-lbc-seed-edited": (V1_MODEL, _set_lbc_seed, "bank4"),
    "v2-lbc-seed-edited": ("model.dfn", _set_lbc_seed, "banks_blake2b"),
    "v2-banks-digest-wrong": ("model.dfn", _wrong_banks_digest, "banks_blake2b"),
}


def _model_commands(root, out):
    """argv, less --model, of every command that loads a model; each writes
    only under out."""
    imgs = [str(root / "major" / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    store = ["--store", str(out / "store"), "--user", "s00"]
    return {
        "extract": ["extract", "--data", str(root / "major"), "--out", str(out / "features.json")],
        "evaluate": ["evaluate", "--data", str(root / "major"), "--out", str(out / "eval"), "--gallery-count", "2"],
        "fuse": ["fuse", "--data", *[str(root / s) for s in STREAMS], "--out", str(out / "fused"),
                 "--gallery-count", "2"],
        "enroll": ["enroll", *store, "--images", *imgs],
        "verify": ["verify", *store, "--image", imgs[0], "--threshold", "0.35"],
        "revoke": ["revoke", *store, "--images", *imgs],
    }


@pytest.mark.parametrize("command", ["extract", "evaluate", "fuse", "enroll", "verify", "revoke"])
@pytest.mark.parametrize("fault", BANK_FAULTS)
def test_every_model_command_refuses_banks_its_config_does_not_derive(streams_env, tmp_path, capsys,
                                                                      command, fault):
    source, edit, names = BANK_FAULTS[fault]
    model = _resealed(streams_env / source, tmp_path / "model.dfn", edit)
    (tmp_path / "out").mkdir()
    assert main([*_model_commands(streams_env, tmp_path / "out")[command], "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and names in err
    assert not any((tmp_path / "out").iterdir())


# -- roc --------------------------------------------------------------------------

def test_roc_command_row_count_and_precedence(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"genuine": [0.1, 0.2], "impostor": [0.6, 0.8]}),
                      encoding="utf-8")
    cfg = tmp_path / "r.cfg"
    cfg.write_text("points=9\n", encoding="utf-8")

    out = tmp_path / "a.csv"
    rc = main(["roc", "--scores", str(scores), "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 9

    out2 = tmp_path / "b.csv"
    rc = main(["roc", "--scores", str(scores), "--out", str(out2),
               "--config", str(cfg), "--points", "5"])
    assert rc == 0
    # The explicit flag wins over the config file value.
    assert len(out2.read_text(encoding="utf-8").splitlines()) == 1 + 5


@pytest.mark.parametrize("text, fault", [
    ('{"genuine": [0.1]}', "missing the 'impostor' array"),
    ("genuine=0.1", "not JSON"),
    ('{"genuine": "x", "impostor": [0.6]}', "could not convert"),
    ("[0.1, 0.6]", "top level must be a JSON object, got list"),
], ids=["missing_key", "not_json", "not_numbers", "top_level_list"])
def test_roc_on_a_malformed_scores_file_fails_cleanly(tmp_path, capsys, text, fault):
    scores = tmp_path / "scores.json"
    scores.write_text(text, encoding="utf-8")
    rc = main(["roc", "--scores", str(scores), "--out", str(tmp_path / "roc.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scores file {scores}: ") and fault in err
    assert not (tmp_path / "roc.csv").exists()


# -- settings ---------------------------------------------------------------------

def test_unknown_config_key_is_refused_before_the_command_runs(cli_env, tmp_path, capsys):
    # A misspelled key (the setting is "lr") must not train at the default.
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(CFG_TEXT + "learning_rate=0.5\nlr=0.01\nbit=64\n", encoding="utf-8")
    out = tmp_path / "model.dfn"
    rc = main(["train", "--data", str(cli_env["data"]), "--out", str(out), "--epochs", "1",
               "--gallery-count", "2", "--config", str(cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config file {cfg}: unknown keys ['bit', 'learning_rate']\n"
    assert not out.exists()


@pytest.mark.parametrize("text, fault", [
    ("points=9\nthreshold\n", ":2: expected key=value, got 'threshold'"),
    ("=3\n", ":1: empty key"),
    ("points=nine\n", "config key 'points': 'nine' is not an integer"),
    ("points=9.5\n", "config key 'points': '9.5' is not an integer"),
], ids=["no_equals", "empty_key", "word", "fraction"])
def test_malformed_config_file_fails_cleanly(tmp_path, capsys, text, fault):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"genuine": [0.1, 0.2], "impostor": [0.6, 0.8]}), encoding="utf-8")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    rc = main(["roc", "--scores", str(scores), "--out", str(tmp_path / "roc.csv"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fault in err and err.count("\n") == 1
    assert not (tmp_path / "roc.csv").exists()


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    rc = main(["roc", "--scores", "s.json", "--out", str(tmp_path / "roc.csv"),
               "--config", str(tmp_path / "nowhere.cfg")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: config file {tmp_path / 'nowhere.cfg'} does not exist\n"


def test_threshold_from_config_must_be_a_number(cli_env, tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threshold=high\n", encoding="utf-8")
    rc = main(["verify", "--model", str(tmp_path / "missing.dfn"), "--store", str(tmp_path / "s"),
               "--user", "s00", "--image", str(cli_env["data"] / "s00" / "img00.pgm"), "--config", str(cfg)])
    assert rc == 1
    assert "config key 'threshold': 'high' is not a number" in capsys.readouterr().err


# The settings each command reads; the README's settings table lists the same.
SETTINGS_READ = {
    "synth": {"seed", "subjects", "samples", "input_height", "input_width", "noise"},
    "augment": {"seed", "count"},
    "train": {"seed", "gallery_count", "input_height", "input_width", "fc1_dim", "fc2_dim",
              "lr", "momentum", "batch_size", "clip_norm", "epochs"},
    "extract": set(),
    "enroll": {"seed", "bits"},
    "verify": {"seed", "threshold"},
    "revoke": {"seed"},
    "evaluate": {"seed", "bits", "gallery_count"},
    "fuse": {"seed", "bits", "gallery_count"},
    "roc": {"points"},
}


def test_every_setting_is_read_and_nothing_else(cli_env, tmp_path, capsys, monkeypatch):
    # Run each command once and record what it asks the resolver for: a
    # setting no command reads is dead, and a name outside the table would
    # be a setting with no default and no config key.
    second = tmp_path / "second"
    assert main(["synth", "--subjects", "3", "--samples", "4", "--seed", "7", "--out", str(second),
                 "--config", str(cli_env["cfg"])]) == 0
    reads = {}
    resolve = cli._Settings.__getitem__

    def recording(self, name):
        reads.setdefault(self.args.command, set()).add(name)
        return resolve(self, name)

    monkeypatch.setattr(cli._Settings, "__getitem__", recording)
    data, model, store = str(cli_env["data"]), str(cli_env["model"]), str(tmp_path / "store")
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    vault = ["--model", model, "--store", store, "--user", "s00"]
    calls = [
        ["synth", "--subjects", "2", "--samples", "2", "--out", str(tmp_path / "c")],
        ["augment", "--image", imgs[0], "--out", str(tmp_path / "aug"), "--count", "2"],
        ["train", "--data", data, "--out", str(tmp_path / "m.dfn"), "--epochs", "0", "--gallery-count", "2"],
        ["extract", "--data", data, "--model", model, "--out", str(tmp_path / "f.json")],
        ["enroll", *vault, "--images", *imgs],
        ["verify", *vault, "--image", imgs[1], "--threshold", "0.5"],
        ["revoke", *vault, "--images", *imgs],
        ["evaluate", "--data", data, "--model", model, "--out", str(tmp_path / "eval"), "--gallery-count", "2"],
        ["fuse", "--data", data, str(second), "--model", model, "--out", str(tmp_path / "fused"),
         "--gallery-count", "2"],
        ["roc", "--scores", str(tmp_path / "eval" / "scores_128.json"), "--out", str(tmp_path / "roc.csv")],
    ]
    for argv in calls:
        assert main([*argv, "--config", str(cli_env["cfg"])]) == 0, argv
    assert [argv[0] for argv in calls] == list(cli._COMMANDS)
    assert {c: reads.get(c, set()) for c in cli._COMMANDS} == SETTINGS_READ
    assert set().union(*SETTINGS_READ.values()) == set(cli.SETTINGS)
    # The table's "read by" column, flag or not, says the same.
    assert {c: {n for n, row in cli.SETTINGS.items() if c in row[2].split()} for c in cli._COMMANDS} \
        == SETTINGS_READ


# The settings that have a flag; the rest are config keys only.
FLAG_SETTINGS = {"seed", "bits", "subjects", "samples", "noise", "count", "epochs", "gallery_count",
                 "threshold", "points"}


@pytest.mark.parametrize("command", list(SETTINGS_READ))
def test_each_command_takes_the_setting_flags_it_reads_and_no_other(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = run_in_process([command, "--help"], capsys)
    assert code == 0
    flags = {name.replace("-", "_") for name in re.findall(r"--([a-z][a-z0-9-]*)", out)}
    assert "config" in flags
    assert flags & set().union(*SETTINGS_READ.values()) == SETTINGS_READ[command] & FLAG_SETTINGS


def test_a_setting_flag_where_it_is_not_read_is_a_usage_error(cli_env, tmp_path, capsys):
    # The parent accepted and ignored each of these: revoke --bits 32 on a
    # 128-bit enrollment reissued it at 128 bits and exited 0.
    data, model, store = str(cli_env["data"]), str(cli_env["model"]), tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    vault = ["--model", model, "--store", str(store), "--user", "s00"]
    assert main(["enroll", *vault, "--images", *imgs]) == 0
    scores = tmp_path / "scores.json"
    scores.write_text('{"genuine": [0.1], "impostor": [0.9]}', encoding="utf-8")
    capsys.readouterr()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    out = tmp_path / "out"
    calls = [
        ["revoke", *vault, "--images", *imgs, "--bits", "32"],
        ["verify", *vault, "--image", imgs[1], "--threshold", "0.5", "--bits", "64"],
        ["extract", "--data", data, "--model", model, "--out", str(out / "f.json"), "--seed", "9"],
        ["roc", "--scores", str(scores), "--out", str(out / "roc.csv"), "--seed", "1"],
        ["--seed", "3", "synth", "--subjects", "2", "--samples", "2", "--out", str(out / "corpus")],
    ]
    for argv in calls:
        code, stdout, err = run_in_process(argv, capsys)
        assert (code, stdout) == (2, ""), argv
        assert "error:" in err and "Traceback" not in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    assert {store / "keys.jsonl", store / "templates.jsonl"} <= before.keys()


def test_an_abbreviated_flag_is_a_usage_error(cli_env, tmp_path, capsys):
    # argparse takes a unique prefix for the flag unless told not to: the
    # parent ran verify --thr 1.0 as --threshold 1.0.
    data, model, store = str(cli_env["data"]), str(cli_env["model"]), tmp_path / "store"
    imgs = [str(cli_env["data"] / "s00" / f"img{i:02d}.pgm") for i in range(2)]
    vault = ["--model", model, "--store", str(store), "--user", "s00"]
    assert main(["enroll", *vault, "--images", *imgs]) == 0
    capsys.readouterr()
    def tree():
        return {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}

    before = tree()
    out = tmp_path / "out"
    calls = [
        ["verify", *vault, "--image", imgs[1], "--thr", "1.0"],
        ["verify", *vault, "--image", imgs[1], "--threshold", "1.0", "--key", "1"],
        ["synth", "--sub", "2", "--samples", "2", "--out", str(out / "corpus")],
        ["train", "--data", data, "--out", str(out / "m.dfn"), "--conf", str(cli_env["cfg"])],
    ]
    for argv in calls:
        code, stdout, err = run_in_process(argv, capsys)
        assert (code, stdout) == (2, ""), argv
        assert "error:" in err and "Traceback" not in err
    assert tree() == before


@pytest.mark.parametrize("command, argv, unknown", [
    ("verify", ["--model", "m", "--store", "v", "--user", "s00", "--image", "p"], ["--thr", "1.0"]),
    ("synth", ["--out", "corpus"], ["--bogus"]),
])
def test_an_unknown_flag_is_reported_with_its_commands_usage(capsys, command, argv, unknown):
    # The parent printed the top-level usage, which lists only the commands.
    code, stdout, err = run_in_process([command, *argv, *unknown], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"usage: dorsalhash {command} ")
    assert err.splitlines()[-1] == f"dorsalhash {command}: error: unrecognized arguments: {' '.join(unknown)}"


def test_train_on_a_png_without_pillow_fails_with_one_error_line(cli_env, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
    data = tmp_path / "corpus"
    shutil.copytree(cli_env["data"], data)
    (data / "s01" / "img09.png").write_bytes(b"\x89PNG\r\n\x1a\n")
    model = tmp_path / "model.dfn"
    code, stdout, err = run_in_process(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
                                        "--gallery-count", "2", "--config", str(cli_env["cfg"])], capsys)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {data / 's01' / 'img09.png'}: PNG support requires Pillow"]
    assert not model.exists()


def test_evaluate_decodes_each_image_once(cli_env, tmp_path, monkeypatch):
    decoded = []
    load_image = corpus.load_image

    def counted(path):
        decoded.append(Path(path).name)
        return load_image(path)

    monkeypatch.setattr(corpus, "load_image", counted)
    assert main(["evaluate", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
                 "--out", str(tmp_path / "eval"), "--gallery-count", "2"]) == 0
    assert len(decoded) == 3 * 4


# -- model geometry ---------------------------------------------------------------

def test_model_commands_read_images_at_the_model_geometry(cli_env, tmp_path, capsys):
    # The model was trained at 32x64 from the config file; without that file
    # the defaults say 64x128, and the commands must follow the model.
    model = str(cli_env["model"])
    store = str(tmp_path / "store")
    imgs = [str(cli_env["data"] / "s01" / f"img{i:02d}.pgm") for i in range(2)]
    probe = str(cli_env["data"] / "s01" / "img02.pgm")
    assert main(["enroll", "--model", model, "--store", store, "--user", "s01", "--images", *imgs]) == 0
    assert main(["verify", "--model", model, "--store", store, "--user", "s01", "--image", probe,
                 "--threshold", "1.0"]) == 0
    assert "-> accept" in capsys.readouterr().out
    assert main(["revoke", "--model", model, "--store", store, "--user", "s01", "--images", *imgs]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(cli_env["data"]), "--model", model, "--out", str(out),
                 "--gallery-count", "2"]) == 0
    assert (out / "metrics_128.json").is_file()
    assert "error:" not in capsys.readouterr().err


# -- one parser per process ---------------------------------------------------------

SRC = str(Path(dorsalhash.__file__).resolve().parents[1])


def run_in_process(argv, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one main(argv) call in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_process(argv) -> tuple[int, str, str]:
    """The same for ``python -m dorsalhash.cli`` in a new interpreter."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dorsalhash.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_keeps_no_state_between_calls(cli_env, tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    # Help wraps at the terminal width; pin it for both processes.
    monkeypatch.setenv("COLUMNS", "100")
    store = str(tmp_path / "store")
    cfg = tmp_path / "threshold.cfg"
    cfg.write_text("threshold=1.0\n", encoding="utf-8")
    imgs = [str(cli_env["data"] / "s02" / f"img{i:02d}.pgm") for i in range(2)]
    base = ["--model", str(cli_env["model"]), "--store", store, "--user", "s02"]
    verify = ["verify", *base, "--image", str(cli_env["data"] / "s02" / "img03.pgm")]
    assert main(["enroll", *base, "--images", *imgs, "--bits", "64"]) == 0
    assert main(["revoke", *base, "--images", *imgs]) == 0
    capsys.readouterr()
    calls = [
        (verify + ["--config", str(cfg), "--key-version", "1"], 1),  # v1 was revoked
        (verify + ["--config", str(cfg)], 0),  # must not inherit --key-version
        (verify, 1),  # must not inherit the config file's threshold
        (["verify", *base], 2),  # no --image
        (["verify", "--help"], 0),
        (["--help"], 0),
        (verify + ["--threshold", "1.0", "--key-version", "2"], 0),
    ]
    seen = [run_in_process(argv, capsys) for argv, _ in calls]
    assert [code for code, _, _ in seen] == [code for _, code in calls]
    assert " v2: " in seen[1][1] and seen[1] == seen[-1]
    assert "needs --threshold" in seen[2][2]
    for (argv, _), in_process in zip(calls, seen):
        assert run_fresh_process(argv) == in_process, argv
