"""Command-line front end.

Exit codes: 0 success, 1 operational failure (bad data, unknown identity,
corrupt files), 2 usage errors, 3 undefined metrics.  Setting flags go after
the subcommand, and a command takes only the ones it reads; any other is a
usage error.  All randomness flows from --seed (default 0), so rerunning a
command on the same inputs reproduces its outputs byte for byte.
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

from . import corpus, pipeline
from .enrollment import TemplateVault
from .errors import ConfigError, DataError, DorsalHashError, MetricUndefinedError
from .evaluation import ScoreSet, export_roc
from .hashing import BIT_LENGTHS
from .network import FixedFilterNet, NetworkConfig, TrainConfig, train

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNDEFINED_METRIC = 3

# Every setting a command reads: its type, its default, the commands that
# read it, and the help of its flag.  A setting with a help text has a flag
# of the same name (dashes for underscores) on exactly those commands.  The
# flag beats a key of the --config file, which beats the default; a config
# key not named here is refused, and one in _CHOICES must take one of its values.
SETTINGS: dict[str, tuple[type, object, str, str | None]] = {
    "seed": (int, 0, "synth augment train enroll verify revoke evaluate fuse", "master seed"),
    "bits": (int, 128, "enroll evaluate fuse", "template bit length"),
    "input_height": (int, 64, "synth train", None),
    "input_width": (int, 128, "synth train", None),
    "subjects": (int, 20, "synth", "number of subjects"),
    "samples": (int, 12, "synth", "samples per subject"),
    "noise": (float, 0.05, "synth", "noise level"),
    "count": (int, 45, "augment", "number of variants"),
    "epochs": (int, 20, "train", "training epochs"),
    "gallery_count": (int, 6, "train evaluate fuse", "use the first N samples per subject, 0 for all"),
    "lr": (float, 0.01, "train", None),
    "momentum": (float, 0.9, "train", None),
    "batch_size": (int, 32, "train", None),
    "clip_norm": (float, 1.0, "train", None),
    "fc1_dim": (int, 512, "train", None),
    "fc2_dim": (int, 256, "train", None),
    "threshold": (float, None, "verify", "accept at a normalized Hamming distance up to this"),
    "points": (int, 1000, "roc", "ROC rows"),
}
_CHOICES = {"bits": BIT_LENGTHS}


def _read_config(path) -> dict[str, str]:
    """A flat key=value file: one assignment per line, ``#`` comments and
    blank lines ignored, values kept as strings; every key must be in
    SETTINGS."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    out: dict[str, str] = {}
    for line_no, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{p}:{line_no}: expected key=value, got {raw!r}")
        if not key.strip():
            raise ConfigError(f"{p}:{line_no}: empty key")
        out[key.strip()] = value.strip()
    unknown = sorted(out.keys() - SETTINGS.keys())
    if unknown:
        raise ConfigError(f"config file {p}: unknown keys {unknown}")
    return out


class _Settings:
    """``settings[name]`` is one entry of SETTINGS: its flag, else its config
    key, else its default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(args.config) if args.config else {}

    def __getitem__(self, name: str):
        kind, default, _, _ = SETTINGS[name]
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name not in self.cfg:
            return default
        text = self.cfg[name]
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"config key {name!r}: {text!r} is not {noun}") from None
        if name in _CHOICES and value not in _CHOICES[name]:
            raise ConfigError(f"{name} must be one of {_CHOICES[name]}, got {value}")
        return value


# Built once per process: parse_args returns a fresh Namespace each call and
# help reads the terminal width when it prints, so in-process callers of
# main share one parser without sharing state.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", required=True, help="directory for keys.jsonl and templates.jsonl")
    store.add_argument("--user", required=True)
    store.add_argument("--modality", default="major")

    p = argparse.ArgumentParser(prog="dorsalhash", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)
    # No parser takes a prefix of a flag for the flag.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)

    sp = add("augment", help="write augmented variants of one image")
    sp.add_argument("--image", required=True)
    sp.add_argument("--out", required=True)

    sp = add("train", help="train a feature extractor on a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, help="model file")

    sp = add("extract", parents=[model], help="dump feature vectors for a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = add("enroll", parents=[model, store], help="enroll a user from images")
    sp.add_argument("--images", required=True, nargs="+")

    sp = add("verify", parents=[model, store], help="verify a claim against the store")
    sp.add_argument("--image", required=True)
    sp.add_argument("--key-version", type=int, help="address a specific enrollment version")

    sp = add("revoke", parents=[model, store], help="revoke the active key and re-enroll")
    sp.add_argument("--images", required=True, nargs="+")

    sp = add("evaluate", parents=[model], help="run the verification protocol on a corpus")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("fuse", parents=[model], help="fused multi-stream protocol run")
    sp.add_argument("--data", required=True, nargs="+", help="two or more stream corpus roots")
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("roc", help="export a ROC CSV from a scores file")
    sp.add_argument("--scores", required=True, help="JSON file with genuine/impostor arrays")
    sp.add_argument("--out", required=True)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="flat key=value config file")
        sp.set_defaults(command_parser=sp)
    for name, (kind, default, read_by, text) in SETTINGS.items():
        for command in read_by.split() if text else ():
            sub.choices[command].add_argument(
                "--" + name.replace("_", "-"), type=kind, choices=_CHOICES.get(name),
                help=text if default is None else f"{text} (default {default})",
            )
    return p


def _load_corpus(root, height: int, width: int) -> dict[str, list[np.ndarray]]:
    return corpus.load_samples(corpus.ingest(root), height, width)


def _model_features(model_path, image_paths) -> np.ndarray:
    """Features of each image, resized to the geometry the model was built for."""
    model = FixedFilterNet.load(model_path)
    h, w = model.config.input_height, model.config.input_width
    return model.extract_features([corpus.bilinear_resize(corpus.load_image(p), h, w) for p in image_paths])


def _vault(settings: _Settings, store_dir: str) -> TemplateVault:
    d = Path(store_dir)
    return TemplateVault(d / "keys.jsonl", d / "templates.jsonl", master_seed=settings["seed"])


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
        num_subjects=settings["subjects"],
        samples_per_subject=settings["samples"],
        height=settings["input_height"],
        width=settings["input_width"],
        noise_level=settings["noise"],
        seed=settings["seed"],
    )
    layout = corpus.generate_synthetic(spec, args.out)
    total = sum(len(v) for v in layout.subjects.values())
    print(f"wrote {total} images for {len(layout.subjects)} subjects under {layout.root}")
    return EXIT_OK


def _cmd_augment(settings: _Settings, args) -> int:
    image = corpus.load_image(args.image)
    spec = corpus.AugmentationSpec(count=settings["count"], seed=settings["seed"])
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
    gallery_count = settings["gallery_count"]
    if gallery_count < 0:
        raise ConfigError(f"gallery count must be >= 0 (0 = all samples), got {gallery_count}")
    samples = _load_corpus(args.data, settings["input_height"], settings["input_width"])
    images, labels = _training_arrays(samples, gallery_count)
    model = FixedFilterNet.build(NetworkConfig(
        num_classes=len(samples),
        input_height=settings["input_height"],
        input_width=settings["input_width"],
        fc1_dim=settings["fc1_dim"],
        fc2_dim=settings["fc2_dim"],
        lbc_seed=settings["seed"],
    ))
    # Whitened re-init plus clipping is the house training recipe: flatten
    # activations off the fixed banks are tiny and share one dominant
    # direction, which plain SGD from a data-blind init cannot unwind.
    model.calibrate_dense(images)
    tc = TrainConfig(
        lr=settings["lr"],
        momentum=settings["momentum"],
        batch_size=settings["batch_size"],
        shuffle_seed=settings["seed"],
        clip_norm=settings["clip_norm"],
    )
    history = train(model, images, labels, epochs=settings["epochs"], config=tc)
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


def _cmd_enroll(settings: _Settings, args) -> int:
    features = _model_features(args.model, args.images).mean(axis=0)
    with _store_lock(args.store):
        vault = _vault(settings, args.store)
        template = vault.enroll_features(args.user, features, modality=args.modality, bit_length=settings["bits"])
    print(
        f"enrolled {args.user}/{args.modality} v{template.key_version} "
        f"({template.bit_length} bits: {template.to_hex()})"
    )
    return EXIT_OK


def _cmd_verify(settings: _Settings, args) -> int:
    threshold = settings["threshold"]
    if threshold is None:
        raise ConfigError("verify needs --threshold (or a threshold config key)")
    features = _model_features(args.model, [args.image])[0]
    decision = _vault(settings, args.store).verify(
        features, args.user, threshold, modality=args.modality, key_version=args.key_version
    )
    verdict = "accept" if decision.accepted else "reject"
    print(
        f"{decision.user_id}/{decision.modality} v{decision.key_version}: "
        f"score={decision.score:.6f} threshold={decision.threshold:.6f} -> {verdict}"
    )
    return EXIT_OK


def _cmd_revoke(settings: _Settings, args) -> int:
    features = _model_features(args.model, args.images).mean(axis=0)
    with _store_lock(args.store):
        vault = _vault(settings, args.store)
        template = vault.revoke_and_reissue(args.user, features, modality=args.modality)
    print(f"reissued {args.user}/{args.modality} as v{template.key_version} ({template.bit_length} bits)")
    return EXIT_OK


def _cmd_evaluate(settings: _Settings, args) -> int:
    bits, seed = settings["bits"], settings["seed"]
    model = FixedFilterNet.load(args.model)
    samples = _load_corpus(args.data, model.config.input_height, model.config.input_width)
    features = pipeline.stream_features(model, samples, settings["gallery_count"])
    run = pipeline.protocol_from_features(*features, bits, seed)
    _write_protocol_outputs(run, Path(args.out), str(bits))
    _print_report(run, f"protocol@{bits}bit")
    return EXIT_OK


def _cmd_fuse(settings: _Settings, args) -> int:
    if len(args.data) < 2:
        raise ConfigError("fuse needs at least two stream corpus roots")
    # A stream is named by its root's last component, so two roots that
    # share one would silently fuse as a single stream.
    names = [Path(root).name for root in args.data]
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ConfigError(f"fuse streams are named by directory; more than one root is named {clashes}")
    # Subjects are compared before the model loads or any image is extracted.
    layouts = {name: corpus.ingest(root) for name, root in zip(names, args.data)}
    pipeline.require_same_subjects({name: layout.subjects for name, layout in layouts.items()})
    model = FixedFilterNet.load(args.model)
    bits, seed, gallery_count = settings["bits"], settings["seed"], settings["gallery_count"]
    h, w = model.config.input_height, model.config.input_width
    streams = {name: pipeline.stream_features(model, corpus.load_samples(layout, h, w), gallery_count)
               for name, layout in layouts.items()}
    for name in sorted(streams):
        single = pipeline.protocol_from_features(*streams[name], bits, seed)
        _print_report(single, f"stream {name}@{bits}bit")
    run = pipeline.protocol_from_features(*pipeline.fuse_streams(streams), bits, seed)
    _write_protocol_outputs(run, Path(args.out), f"fused_{bits}")
    _print_report(run, f"fused@{bits}bit")
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
    points = settings["points"]
    export_roc(_read_scores(args.scores), args.out, points=points)
    print(f"wrote ROC ({points} rows) to {args.out}")
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
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        # The command's own parser reports them, so that its usage shows the
        # flags the command takes.
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
