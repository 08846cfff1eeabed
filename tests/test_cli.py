import json
import multiprocessing
import sys

import numpy as np
import pytest

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


def test_augment_writes_requested_count(cli_env, tmp_path):
    src = cli_env["data"] / "s00" / "img00.pgm"
    out = tmp_path / "aug"
    rc = main(["augment", "--image", str(src), "--out", str(out), "--count", "5",
               *common(cli_env)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [f"aug{i:02d}.pgm" for i in range(5)]


# -- extract ----------------------------------------------------------------------

def test_extract_dumps_features_for_every_image(cli_env, tmp_path):
    out = tmp_path / "features.json"
    rc = main(["extract", "--data", str(cli_env["data"]), "--model", str(cli_env["model"]),
               "--out", str(out), *common(cli_env)])
    assert rc == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["feature_dim"] == 128
    assert len(blob["images"]) == 12
    assert all(len(e["features"]) == 128 for e in blob["images"])


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
    assert sorted(r["key_version"] for r in vault.keys.records) == [1, 2]


def test_verify_without_threshold_fails(cli_env, tmp_path):
    probe = str(cli_env["data"] / "s00" / "img00.pgm")
    rc = main(["verify", "--model", str(cli_env["model"]), "--store", str(tmp_path / "s"),
               "--user", "s00", "--image", probe, *common(cli_env)])
    assert rc == 1


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
