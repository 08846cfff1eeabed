import json
import struct
import zlib

import numpy as np
import pytest

from dorsalhash import ops
from dorsalhash.errors import (
    ConfigError,
    DataError,
    DimensionError,
    ModelFormatError,
    TrainingError,
)
from dorsalhash.network import (
    FixedFilterNet,
    NetworkConfig,
    TrainConfig,
    _loss_and_grads,
    train,
)


def fresh_net(tiny_config):
    return FixedFilterNet.build(tiny_config)


# -- configuration ------------------------------------------------------------

def test_config_validates_geometry():
    with pytest.raises(ConfigError):
        NetworkConfig(num_classes=3, input_height=30, input_width=60)  # h % 4 != 0
    with pytest.raises(ConfigError):
        NetworkConfig(num_classes=3, input_height=32, input_width=100)  # w != 2h
    with pytest.raises(ConfigError):
        NetworkConfig(num_classes=1)
    with pytest.raises(ConfigError):
        NetworkConfig(num_classes=3, fc2_dim=64)  # shorter than longest template


def test_default_geometry_flattens_to_512():
    cfg = NetworkConfig(num_classes=5)
    assert (cfg.input_height, cfg.input_width) == (64, 128)
    assert cfg.flat_dim == 512


# -- structure ----------------------------------------------------------------

def test_bank_sizes_and_trainable_parameter_split(tiny_net):
    sizes = [b.shape[0] for b in tiny_net.banks]
    assert sizes == [12, 24, 36, 64, 128]
    fixed_cells = sum(b.size for b in tiny_net.banks)
    assert fixed_cells == (12 + 24 + 36 + 64 + 128) * 15
    combine_scalars = sum(w.size for w in tiny_net.combine)
    assert combine_scalars == 12 + 24 + 36 + 64 + 128
    # The convolutional side trains only the per-channel mixing vectors,
    # far fewer scalars than sit frozen in the banks.
    assert combine_scalars < fixed_cells


def test_forward_shapes(tiny_net, tiny_config):
    img = np.random.default_rng(0).uniform(0, 1, (16, 32))
    feats, probs = tiny_net.forward(img)
    assert feats.shape == (tiny_config.fc2_dim,)
    assert probs.shape == (tiny_config.num_classes,)
    assert np.isclose(probs.sum(), 1.0, rtol=1e-12)
    assert np.isfinite(feats).all()


def test_input_validation(tiny_net):
    with pytest.raises(DimensionError):
        tiny_net.forward(np.zeros((16, 30)))
    with pytest.raises(DataError):
        tiny_net.forward(np.full((16, 32), np.nan))


def test_extract_features_stacks(tiny_net):
    rng = np.random.default_rng(1)
    imgs = [rng.uniform(0, 1, (16, 32)) for _ in range(3)]
    feats = tiny_net.extract_features(imgs)
    assert feats.shape == (3, 128)
    one, _ = tiny_net.forward(imgs[1])
    assert np.array_equal(feats[1], one)


# -- invariances --------------------------------------------------------------

def test_constant_images_share_one_feature_vector(tiny_net):
    f1 = tiny_net.forward(np.full((16, 32), 0.2))[0]
    f2 = tiny_net.forward(np.full((16, 32), 0.9))[0]
    assert np.array_equal(f1, f2)


def test_illumination_offset_leaves_features_unchanged(tiny_net):
    rng = np.random.default_rng(5)
    img = rng.uniform(0.2, 0.7, (16, 32))
    base = tiny_net.forward(img)[0]
    for off in (-0.15, 0.1, 0.25):
        shifted = tiny_net.forward(img + off)[0]
        denom = max(np.linalg.norm(base), 1e-12)
        assert np.linalg.norm(shifted - base) / denom < 1e-6


def test_same_seed_builds_identical_nets(tiny_config):
    a = FixedFilterNet.build(tiny_config)
    b = FixedFilterNet.build(tiny_config)
    for x, y in zip(a.banks, b.banks):
        assert np.array_equal(x, y)
    for n in ("fc1", "fc2", "fc3"):
        assert np.array_equal(getattr(a, n).weights, getattr(b, n).weights)


# -- gradients ----------------------------------------------------------------

def _fd_group_errors(net, img, label, eps, coords_per_group=8, pick_seed=1234):
    params = net.params()
    _, _, grads = _loss_and_grads(net, img, label)
    picker = np.random.default_rng(pick_seed)
    worst = {}
    for name, p in params.items():
        flat = p.ravel()
        idx = picker.choice(flat.size, size=min(coords_per_group, flat.size), replace=False)
        analytic = grads[name].ravel()[idx]
        fd = np.empty_like(analytic)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            net.set_params(params)
            lp, _, _ = _loss_and_grads(net, img, label)
            flat[i] = orig - eps
            net.set_params(params)
            lm, _, _ = _loss_and_grads(net, img, label)
            flat[i] = orig
            net.set_params(params)
            fd[j] = (lp - lm) / (2 * eps)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
        worst[name] = np.linalg.norm(analytic - fd) / denom
    return worst


@pytest.mark.parametrize("img_seed", [1, 3, 8])
def test_gradients_match_finite_differences(tiny_net, img_seed):
    # Image seeds are screened: replicate padding puts relu kinks of the
    # loss surface exactly at some border cells for many inputs, where a
    # two-sided difference cannot agree with any one-sided subgradient.
    # These seeds keep every kink at a safe distance from the 1e-6 step.
    img = np.random.default_rng(img_seed).uniform(0.05, 0.95, (16, 32))
    errs = _fd_group_errors(tiny_net, img, img_seed % 3, eps=1e-6)
    assert set(errs) == {"combine1", "combine2", "combine3", "combine4", "combine5",
                         "fc1.w", "fc1.b", "fc2.w", "fc2.b", "fc3.w", "fc3.b"}
    for name, err in errs.items():
        assert err < 1e-3, f"{name}: finite-difference mismatch {err:.2e}"


def test_loss_decreases_on_separable_toy_problem(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(2)
    yy, xx = np.mgrid[0:16, 0:32]
    bases = [
        0.5 + 0.4 * np.sin(2 * np.pi * xx / 6.0),
        0.5 + 0.4 * np.sin(2 * np.pi * yy / 5.0),
        0.5 + 0.4 * np.sin(2 * np.pi * (xx + 2 * yy) / 7.0),
    ]
    images, labels = [], []
    for label, base in enumerate(bases):
        for _ in range(4):
            images.append(np.clip(base + rng.normal(0, 0.02, (16, 32)), 0, 1))
            labels.append(label)
    history = train(net, images, labels, epochs=20, config=TrainConfig(batch_size=4))
    assert history[0].loss > history[-1].loss
    assert history[-1].accuracy >= 0.95


def test_training_never_touches_banks(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    before = [b.copy() for b in net.banks]
    rng = np.random.default_rng(3)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(6)]
    labels = [0, 0, 1, 1, 2, 2]
    train(net, images, labels, epochs=2, config=TrainConfig(batch_size=3))
    for a, b in zip(before, net.banks):
        assert np.array_equal(a, b)
    fresh = FixedFilterNet.build(tiny_config)
    for a, b in zip(fresh.banks, net.banks):
        assert np.array_equal(a, b)


def test_zero_epochs_is_a_no_op(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    before = {k: v.copy() for k, v in net.params().items()}
    imgs = [np.zeros((16, 32))] * 3
    history = train(net, imgs, [0, 1, 2], epochs=0)
    assert history == []
    for k, v in net.params().items():
        assert np.array_equal(before[k], v)


def test_training_validates_labels(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    imgs = [np.zeros((16, 32))] * 4
    with pytest.raises(DataError):
        train(net, imgs, [0, 0, 0, 0], epochs=1)  # class 1, 2 never seen
    with pytest.raises(DataError):
        train(net, imgs, [0, 1, 2, 3], epochs=1)  # label out of range


def test_training_is_deterministic(tiny_config):
    rng = np.random.default_rng(4)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    runs = []
    for _ in range(2):
        net = FixedFilterNet.build(tiny_config)
        train(net, images, labels, epochs=3, config=TrainConfig(batch_size=2))
        runs.append(net.params())
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_clip_norm_must_be_positive():
    with pytest.raises(TrainingError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(clip_norm=-1.0)


def test_huge_clip_threshold_changes_nothing(tiny_config):
    rng = np.random.default_rng(9)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    runs = []
    for clip in (None, 1e9):
        net = FixedFilterNet.build(tiny_config)
        train(net, images, labels, epochs=3,
              config=TrainConfig(batch_size=2, clip_norm=clip))
        runs.append(net.params())
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_epoch_stats_report_grad_norm_and_clipped_fraction(tiny_config):
    rng = np.random.default_rng(9)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    logs = {}
    for clip in (None, 1e9, 1e-9):
        net = FixedFilterNet.build(tiny_config)
        logs[clip] = train(net, images, labels, epochs=2,
                           config=TrainConfig(batch_size=2, clip_norm=clip))
    for stats in logs[None] + logs[1e9]:
        assert stats.clipped_frac == 0.0
    for stats in logs[1e-9]:
        assert stats.clipped_frac == 1.0
    # A threshold that never binds leaves the whole log unchanged.
    assert logs[None] == logs[1e9]
    assert all(np.isfinite(s.grad_norm) and s.grad_norm > 0.0 for log in logs.values() for s in log)


def test_tight_clip_still_learns(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(10)
    yy, xx = np.mgrid[0:16, 0:32]
    bases = [
        0.5 + 0.4 * np.sin(2 * np.pi * xx / 6.0),
        0.5 + 0.4 * np.sin(2 * np.pi * yy / 5.0),
        0.5 + 0.4 * np.sin(2 * np.pi * (xx + 2 * yy) / 7.0),
    ]
    images, labels = [], []
    for label, base in enumerate(bases):
        for _ in range(4):
            images.append(np.clip(base + rng.normal(0, 0.02, (16, 32)), 0, 1))
            labels.append(label)
    history = train(net, images, labels, epochs=20,
                    config=TrainConfig(batch_size=4, clip_norm=0.5))
    assert history[0].loss > history[-1].loss


# -- dense calibration ---------------------------------------------------------

def test_calibration_centers_first_dense_layer(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(11)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(8)]
    net.calibrate_dense(images)
    z1 = np.stack([net._trace(img)["z1"] for img in images])
    # b1 is chosen as -W1 @ mean(flatten), so the calibration set itself
    # must come out centered, and the 1/sd scaling keeps spreads near unity.
    assert np.abs(z1.mean(axis=0)).max() < 1e-8
    spread = z1.std()
    assert 0.05 < spread < 20.0


def test_calibration_is_deterministic(tiny_config):
    rng = np.random.default_rng(12)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(5)]
    nets = []
    for _ in range(2):
        net = FixedFilterNet.build(tiny_config)
        net.calibrate_dense(images)
        nets.append(net)
    for k in nets[0].params():
        assert np.array_equal(nets[0].params()[k], nets[1].params()[k])


def test_calibration_rejects_empty_set(tiny_net):
    with pytest.raises(DataError):
        tiny_net.calibrate_dense([])


def test_calibration_then_training_learns_toy(tiny_config):
    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(13)
    yy, xx = np.mgrid[0:16, 0:32]
    bases = [
        0.5 + 0.4 * np.sin(2 * np.pi * xx / 6.0),
        0.5 + 0.4 * np.sin(2 * np.pi * yy / 5.0),
        0.5 + 0.4 * np.sin(2 * np.pi * (xx + 2 * yy) / 7.0),
    ]
    images, labels = [], []
    for label, base in enumerate(bases):
        for _ in range(4):
            images.append(np.clip(base + rng.normal(0, 0.02, (16, 32)), 0, 1))
            labels.append(label)
    net.calibrate_dense(images)
    history = train(net, images, labels, epochs=15,
                    config=TrainConfig(batch_size=4, clip_norm=1.0))
    assert history[-1].accuracy >= 0.9


# -- persistence --------------------------------------------------------------

def test_save_load_round_trip(tmp_path, tiny_config):
    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(8)
    images = [rng.uniform(0, 1, (16, 32)) for _ in range(6)]
    train(net, images, [0, 1, 2, 0, 1, 2], epochs=1, config=TrainConfig(batch_size=2))
    path = tmp_path / "model.dfn"
    net.save(path)
    loaded = FixedFilterNet.load(path)
    assert loaded.config == net.config
    img = rng.uniform(0, 1, (16, 32))
    assert np.array_equal(net.forward(img)[0], loaded.forward(img)[0])
    for a, b in zip(net.banks, loaded.banks):
        assert np.array_equal(a, b)


def test_save_is_byte_identical(tmp_path, tiny_config):
    net = FixedFilterNet.build(tiny_config)
    p1, p2 = tmp_path / "a.dfn", tmp_path / "b.dfn"
    net.save(p1)
    net.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_corruption(tmp_path, tiny_config):
    net = FixedFilterNet.build(tiny_config)
    path = tmp_path / "model.dfn"
    net.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        FixedFilterNet.load(path)


def test_load_rejects_truncation(tmp_path, tiny_config):
    net = FixedFilterNet.build(tiny_config)
    path = tmp_path / "model.dfn"
    net.save(path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ModelFormatError):
        FixedFilterNet.load(path)


def _with_config_keys(path, **extra):
    """Rewrite a saved model's JSON header with extra config keys, keeping
    the container valid (header length and CRC32 recomputed)."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    header["config"].update(extra)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = head + blob[16 + header_len:-4]
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + body + struct.pack("<I", zlib.crc32(body)))


def test_load_accepts_parent_format_header(tmp_path, tiny_config):
    # Model files written before the star bank and hard binarization were
    # removed carry both options, set to false.
    net = FixedFilterNet.build(tiny_config)
    path = tmp_path / "model.dfn"
    net.save(path)
    _with_config_keys(path, use_star_bank=False, hard_binarize=False)
    loaded = FixedFilterNet.load(path)
    assert loaded.config == tiny_config
    img = np.random.default_rng(8).uniform(0, 1, (16, 32))
    assert np.array_equal(net.forward(img)[0], loaded.forward(img)[0])


@pytest.mark.parametrize("extra", [{"use_star_bank": True}, {"hard_binarize": True}, {"dropout": 0.5}])
def test_load_rejects_removed_or_unknown_options(tmp_path, tiny_config, extra):
    path = tmp_path / "model.dfn"
    FixedFilterNet.build(tiny_config).save(path)
    _with_config_keys(path, **extra)
    with pytest.raises(ModelFormatError):
        FixedFilterNet.load(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "model.dfn"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        FixedFilterNet.load(path)
