"""Command-line front end.

Exit codes: 0 success, 1 operational failure (bad data, unknown identity,
corrupt files), 2 usage errors, 3 undefined metrics.  All randomness flows
from --seed (default 0), so rerunning a command on the same inputs
reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import corpus, pipeline
from .enrollment import TemplateVault
from .errors import DataError, DorsalHashError, MetricUndefinedError
from .evaluation import ScoreSet, export_roc
from .hashing import BIT_LENGTHS
from .network import FixedFilterNet, NetworkConfig, TrainConfig, train

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNDEFINED_METRIC = 3


# Built once per process: parse_args returns a fresh Namespace each call and
# help reads the terminal width when it prints, so in-process callers of
# main share one parser without sharing state.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed (default 0)")
    common.add_argument(
        "--bits", type=int, choices=list(BIT_LENGTHS), default=argparse.SUPPRESS,
        help="template bit length",
    )

    p = argparse.ArgumentParser(prog="dorsalhash", parents=[common], description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    sp.add_argument("--subjects", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--out", required=True)
    sp.add_argument("--noise", type=float)

    sp = sub.add_parser("augment", parents=[common], help="write augmented variants of one image")
    sp.add_argument("--image", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--count", type=int)

    sp = sub.add_parser("train", parents=[common], help="train a feature extractor on a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, help="model file to write")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--gallery-count", type=int, help="train on the first N samples per subject (0 = all)")

    sp = sub.add_parser("extract", parents=[common], help="dump feature vectors for a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("enroll", parents=[common], help="enroll a user from images")
    sp.add_argument("--model", required=True)
    sp.add_argument("--store", required=True, help="directory for keys.jsonl and templates.jsonl")
    sp.add_argument("--user", required=True)
    sp.add_argument("--images", required=True, nargs="+")
    sp.add_argument("--modality", default="major")

    sp = sub.add_parser("verify", parents=[common], help="verify a claim against the store")
    sp.add_argument("--model", required=True)
    sp.add_argument("--store", required=True)
    sp.add_argument("--user", required=True)
    sp.add_argument("--image", required=True)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--modality", default="major")
    sp.add_argument("--key-version", type=int, help="address a specific enrollment version")

    sp = sub.add_parser("revoke", parents=[common], help="revoke the active key and re-enroll")
    sp.add_argument("--model", required=True)
    sp.add_argument("--store", required=True)
    sp.add_argument("--user", required=True)
    sp.add_argument("--images", required=True, nargs="+")
    sp.add_argument("--modality", default="major")

    sp = sub.add_parser("evaluate", parents=[common], help="run the verification protocol on a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True, help="directory for metrics, scores and ROC files")
    sp.add_argument("--gallery-count", type=int)

    sp = sub.add_parser("fuse", parents=[common], help="fused multi-stream protocol run")
    sp.add_argument("--data", required=True, nargs="+", help="two or more stream corpus roots")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--gallery-count", type=int)

    sp = sub.add_parser("roc", parents=[common], help="export a ROC CSV from a scores file")
    sp.add_argument("--scores", required=True, help="JSON file with genuine/impostor arrays")
    sp.add_argument("--out", required=True)
    sp.add_argument("--points", type=int)
    return p


class _Settings:
    """Flag > config-file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg: dict[str, str] = {}
        path = getattr(args, "config", None)
        if path:
            self.cfg = cfgmod.load_config(path)

    def _flag(self, name: str):
        return getattr(self.args, name, None)

    def get_int(self, name: str, default: int) -> int:
        v = self._flag(name)
        return int(v) if v is not None else cfgmod.coerce_int(self.cfg, name, default)

    def get_float(self, name: str, default: float) -> float:
        v = self._flag(name)
        return float(v) if v is not None else cfgmod.coerce_float(self.cfg, name, default)

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    @property
    def bits(self) -> int:
        bits = self.get_int("bits", 128)
        if bits not in BIT_LENGTHS:
            raise cfgmod.ConfigError(f"bits must be one of {BIT_LENGTHS}, got {bits}")
        return bits

    def network_config(self, num_classes: int) -> NetworkConfig:
        return NetworkConfig(
            num_classes=num_classes,
            input_height=self.get_int("input_height", 64),
            input_width=self.get_int("input_width", 128),
            fc1_dim=self.get_int("fc1_dim", 512),
            fc2_dim=self.get_int("fc2_dim", 256),
            lbc_seed=self.seed,
        )


def _load_corpus(root, height: int, width: int) -> dict[str, list[np.ndarray]]:
    return corpus.load_samples(corpus.ingest(root), height, width)


def _vault(settings: _Settings, store_dir: str) -> TemplateVault:
    d = Path(store_dir)
    return TemplateVault(d / "keys.jsonl", d / "templates.jsonl", master_seed=settings.seed)


@contextlib.contextmanager
def _store_lock(store_dir: str):
    """Exclusive lock on ``<store>/.lock`` for one whole write command, so
    concurrent enroll/revoke calls replay and append one after another."""
    d = Path(store_dir)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / ".lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def _write_protocol_outputs(run: pipeline.ProtocolRun, out_dir: Path, tag: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"metrics_{tag}.json").write_text(
        json.dumps(run.report.to_dict(), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    (out_dir / f"scores_{tag}.json").write_text(
        json.dumps(
            {"genuine": run.scores.genuine.tolist(), "impostor": run.scores.impostor.tolist()},
            sort_keys=True, separators=(",", ":"),
        ) + "\n",
        encoding="utf-8",
    )
    export_roc(run.scores, out_dir / f"roc_{tag}.csv")


def _print_report(run: pipeline.ProtocolRun, label: str) -> None:
    r = run.report
    print(
        f"{label}: eer={r.eer * 100:.3f}% at threshold {r.eer_threshold:.6f}, "
        f"crr={r.crr:.2f}%, di={r.di:.4f}, "
        f"genuine={run.scores.genuine.size}, impostor={run.scores.impostor.size}"
    )


# -- command bodies -----------------------------------------------------------


def _cmd_synth(settings: _Settings, args) -> int:
    spec = corpus.SyntheticSpec(
        num_subjects=settings.get_int("subjects", 20),
        samples_per_subject=settings.get_int("samples", 12),
        height=settings.get_int("input_height", 64),
        width=settings.get_int("input_width", 128),
        noise_level=settings.get_float("noise", 0.05),
        seed=settings.seed,
    )
    layout = corpus.generate_synthetic(spec, args.out)
    total = sum(len(v) for v in layout.subjects.values())
    print(f"wrote {total} images for {len(layout.subjects)} subjects under {layout.root}")
    return EXIT_OK


def _cmd_augment(settings: _Settings, args) -> int:
    image = corpus.load_image(args.image)
    spec = corpus.AugmentationSpec(count=settings.get_int("count", 45), seed=settings.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, variant in enumerate(corpus.augment(image, spec)):
        corpus.write_pgm(out / f"aug{i:02d}.pgm", variant)
    print(f"wrote {spec.count} augmented images under {out}")
    return EXIT_OK


def _training_arrays(samples: dict[str, list[np.ndarray]], gallery_count: int):
    images, labels = [], []
    for label, sid in enumerate(sorted(samples)):
        take = samples[sid] if gallery_count == 0 else samples[sid][:gallery_count]
        for img in take:
            images.append(img)
            labels.append(label)
    return images, labels


def _cmd_train(settings: _Settings, args) -> int:
    gallery_count = settings.get_int("gallery_count", 6)
    if gallery_count < 0:
        raise cfgmod.ConfigError(f"gallery count must be >= 0 (0 = all samples), got {gallery_count}")
    samples = _load_corpus(
        args.data, settings.get_int("input_height", 64), settings.get_int("input_width", 128)
    )
    images, labels = _training_arrays(samples, gallery_count)
    model = FixedFilterNet.build(settings.network_config(num_classes=len(samples)))
    # Whitened re-init plus clipping is the house training recipe: flatten
    # activations off the fixed banks are tiny and share one dominant
    # direction, which plain SGD from a data-blind init cannot unwind.
    model.calibrate_dense(images)
    tc = TrainConfig(
        lr=settings.get_float("lr", 0.01),
        momentum=settings.get_float("momentum", 0.9),
        batch_size=settings.get_int("batch_size", 32),
        shuffle_seed=settings.seed,
        clip_norm=settings.get_float("clip_norm", 1.0),
    )
    history = train(model, images, labels, epochs=settings.get_int("epochs", 20), config=tc)
    model.save(args.out)
    if history:
        last = history[-1]
        print(
            f"trained {len(history)} epochs on {len(images)} images; "
            f"final loss {last.loss:.4f}, accuracy {last.accuracy * 100:.1f}%, "
            f"grad norm {last.grad_norm:.4g}, clipped {last.clipped_frac * 100:.1f}% of steps"
        )
    else:
        print(f"saved untrained model for {len(images)} images")
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_extract(settings: _Settings, args) -> int:
    model = FixedFilterNet.load(args.model)
    layout = corpus.ingest(args.data)
    samples = corpus.load_samples(layout, model.config.input_height, model.config.input_width)
    entries = []
    for sid in sorted(samples):
        feats = model.extract_features(samples[sid])
        for path, f in zip(layout.subjects[sid], feats):
            entries.append({"subject": sid, "path": str(path), "features": f.tolist()})
    Path(args.out).write_text(
        json.dumps({"feature_dim": model.feature_dim, "images": entries},
                   sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} feature vectors to {args.out}")
    return EXIT_OK


def _load_images(model: FixedFilterNet, paths) -> list[np.ndarray]:
    """Images resized to the geometry the model was built for."""
    h, w = model.config.input_height, model.config.input_width
    return [corpus.bilinear_resize(corpus.load_image(p), h, w) for p in paths]


def _cmd_enroll(settings: _Settings, args) -> int:
    model = FixedFilterNet.load(args.model)
    features = model.extract_features(_load_images(model, args.images)).mean(axis=0)
    with _store_lock(args.store):
        vault = _vault(settings, args.store)
        template = vault.enroll_features(args.user, features, modality=args.modality, bit_length=settings.bits)
    print(
        f"enrolled {args.user}/{args.modality} v{template.key_version} "
        f"({template.bit_length} bits: {template.to_hex()})"
    )
    return EXIT_OK


def _cmd_verify(settings: _Settings, args) -> int:
    threshold = args.threshold if args.threshold is not None else settings.get_float("threshold", None)
    if threshold is None:
        raise cfgmod.ConfigError("verify needs --threshold (or a threshold config key)")
    model = FixedFilterNet.load(args.model)
    vault = _vault(settings, args.store)
    features = model.extract_features(_load_images(model, [args.image]))[0]
    decision = vault.verify(
        features, args.user, threshold, modality=args.modality, key_version=args.key_version
    )
    verdict = "accept" if decision.accepted else "reject"
    print(
        f"{decision.user_id}/{decision.modality} v{decision.key_version}: "
        f"score={decision.score:.6f} threshold={decision.threshold:.6f} -> {verdict}"
    )
    return EXIT_OK


def _cmd_revoke(settings: _Settings, args) -> int:
    model = FixedFilterNet.load(args.model)
    features = model.extract_features(_load_images(model, args.images)).mean(axis=0)
    with _store_lock(args.store):
        vault = _vault(settings, args.store)
        template = vault.revoke_and_reissue(args.user, features, modality=args.modality)
    print(f"reissued {args.user}/{args.modality} as v{template.key_version} ({template.bit_length} bits)")
    return EXIT_OK


def _cmd_evaluate(settings: _Settings, args) -> int:
    model = FixedFilterNet.load(args.model)
    samples = _load_corpus(args.data, model.config.input_height, model.config.input_width)
    features = pipeline.stream_features(model, samples, settings.get_int("gallery_count", 6))
    run = pipeline.protocol_from_features(*features, settings.bits, settings.seed)
    _write_protocol_outputs(run, Path(args.out), str(settings.bits))
    _print_report(run, f"protocol@{settings.bits}bit")
    return EXIT_OK


def _cmd_fuse(settings: _Settings, args) -> int:
    if len(args.data) < 2:
        raise cfgmod.ConfigError("fuse needs at least two stream corpus roots")
    # A stream is named by its root's last component, so two roots that
    # share one would silently fuse as a single stream.
    names = [Path(root).name for root in args.data]
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise cfgmod.ConfigError(f"fuse streams are named by directory; more than one root is named {clashes}")
    # Subjects are compared before the model loads or any image is extracted.
    layouts = {name: corpus.ingest(root) for name, root in zip(names, args.data)}
    pipeline.require_same_subjects({name: layout.subjects for name, layout in layouts.items()})
    model = FixedFilterNet.load(args.model)
    gallery_count = settings.get_int("gallery_count", 6)
    h, w = model.config.input_height, model.config.input_width
    streams = {name: pipeline.stream_features(model, corpus.load_samples(layout, h, w), gallery_count)
               for name, layout in layouts.items()}
    for name in sorted(streams):
        single = pipeline.protocol_from_features(*streams[name], settings.bits, settings.seed)
        _print_report(single, f"stream {name}@{settings.bits}bit")
    run = pipeline.protocol_from_features(*pipeline.fuse_streams(streams), settings.bits, settings.seed)
    _write_protocol_outputs(run, Path(args.out), f"fused_{settings.bits}")
    _print_report(run, f"fused@{settings.bits}bit")
    return EXIT_OK


def _read_scores(path) -> ScoreSet:
    """The genuine and impostor arrays of a scores file; a malformed file
    raises DataError naming the file and the fault."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(blob, dict):
            raise TypeError(f"top level must be a JSON object, got {type(blob).__name__}")
        return ScoreSet(**{name: np.asarray(blob[name], dtype=np.float64) for name in ("genuine", "impostor")})
    except json.JSONDecodeError as exc:
        raise DataError(f"scores file {path}: not JSON ({exc})") from None
    except KeyError as exc:
        raise DataError(f"scores file {path}: missing the {exc} array") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"scores file {path}: {exc}") from None


def _cmd_roc(settings: _Settings, args) -> int:
    export_roc(_read_scores(args.scores), args.out, points=settings.get_int("points", 1000))
    print(f"wrote ROC ({settings.get_int('points', 1000)} rows) to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "enroll": _cmd_enroll,
    "verify": _cmd_verify,
    "revoke": _cmd_revoke,
    "evaluate": _cmd_evaluate,
    "fuse": _cmd_fuse,
    "roc": _cmd_roc,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _Settings(args)
        return _COMMANDS[args.command](settings, args)
    except MetricUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_METRIC
    except (DorsalHashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
