"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup()`` and then runs
one fixed, seeded unit of work per ``unit()`` call.  A unit is a sequence of
short calls into the package, each timed as a *step* of a named kind, so a
run holds many samples of every kind.  ``finish()`` then checks the unit's
outputs and returns their digests, outside the timed and traced region.  The
runner repeats units until the time is up.

The workloads call the package only through module attributes
(``pipeline.protocol_from_features``, not a name imported from it), so the
traced run's shims see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import percentile

from dorsalhash import cli, corpus, enrollment, evaluation, hashing, network, pipeline, rand

BITS = 128


def digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# Called after every step, outside its timing.  A timed run sets it to
# sample the host reference (reference.py).
after_step = None


def timed(steps: dict, kind: str, fn, *args, **kwargs):
    """Call fn and append its wall time to steps[kind]."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    steps.setdefault(kind, []).append(perf_counter() - t0)
    if after_step is not None:
        after_step()
    return out


def unit_s(steps: dict) -> float:
    return sum(sum(times) for times in steps.values())


def step_times(units: list[dict], kind: str) -> list[float]:
    return [t for u in units for t in u["steps"][kind]]


# The step percentile: low enough to follow the program rather than the
# host's load, high enough to be a steady order statistic over the few dozen
# samples a run holds of its rarest step kinds.
STEP_PERCENTILE = 25


def unit_fast_s(units: list[dict]) -> float:
    """One unit's time, summed over its steps from each step kind's
    STEP_PERCENTILE over the run.  Contention from outside the process only
    ever slows a call down, and a low percentile of many short calls reads
    the program's own speed where a median reads the host's load as well."""
    first = units[0]["steps"]
    return sum(len(first[kind]) * percentile(step_times(units, kind), STEP_PERCENTILE) for kind in first)


class Checks:
    """Counts attempted operations and the ones whose checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def protocol_counts_ok(run, subjects: int, probes_each: int) -> bool:
    """S*P genuine and S*(S-1)*P impostor scores."""
    return (run.scores.genuine.size == subjects * probes_each
            and run.scores.impostor.size == subjects * (subjects - 1) * probes_each)


class DeskTrain:
    """The paper's loop at desk scale: synthesize (setup), calibrate, train,
    extract, protocol at 128 bits."""

    name = "desk_train"
    # Convolution windows and their gradients are large array passes.
    unit_reference = ("stream",)
    subjects = 20
    samples = 12
    gallery = 6
    epochs = 1
    warmup_units = 0
    min_units = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = corpus.SyntheticSpec(num_subjects=self.subjects, samples_per_subject=self.samples,
                                         noise_level=0.05, seed=seed)
        self.config = network.NetworkConfig(num_classes=self.subjects, fc2_dim=128,
                                            lbc_seed=rand.derive_seed(seed, "model"))
        self.train_config = network.TrainConfig(lr=0.03, batch_size=32, shuffle_seed=seed, clip_norm=1.0)
        self.master_seed = rand.derive_seed(seed, "keys")

    def setup(self) -> None:
        self.images = [corpus.synthesize_sample(self.spec, s, i)
                       for s in range(self.subjects) for i in range(self.samples)]
        self.sids = [f"s{s:02d}" for s in range(self.subjects)]
        self.train_images = [self.images[s * self.samples + i]
                             for s in range(self.subjects) for i in range(self.gallery)]

    def _calibrated_model(self) -> network.FixedFilterNet:
        model = network.FixedFilterNet.build(self.config)
        model.calibrate_dense(self.train_images)
        return model

    def unit(self) -> dict:
        """Training runs as one ``network.train`` call per gallery index, each
        on one image of every subject (a 20-sample batch), so a unit holds six
        short training steps rather than one long one."""
        steps: dict[str, list[float]] = {}
        model = timed(steps, "calibrate", self._calibrated_model)
        labels = list(range(self.subjects))
        history = []
        for i in range(self.gallery):
            batch = [self.images[s * self.samples + i] for s in range(self.subjects)]
            history += timed(steps, "train", network.train, model, batch, labels,
                             epochs=self.epochs, config=self.train_config)
        feats = np.concatenate([timed(steps, "extract", model.extract_features, [img]) for img in self.images])
        rows = feats.reshape(self.subjects, self.samples, -1)
        gallery = {sid: rows[s, :self.gallery].mean(axis=0) for s, sid in enumerate(self.sids)}
        probes = {sid: list(rows[s, self.gallery:]) for s, sid in enumerate(self.sids)}
        run = timed(steps, "protocol", pipeline.protocol_from_features, gallery, probes, BITS, self.master_seed)
        return {
            "unit_s": unit_s(steps),
            "steps": steps,
            "eer_128_pct": 100.0 * run.report.eer,
            "crr_128_pct": run.report.crr,
            "_outputs": (history, feats, gallery, run),
        }

    def finish(self, result: dict, checks: Checks) -> dict:
        history, feats, gallery, run = result.pop("_outputs")
        checks.record(len(history) == self.gallery * self.epochs and all(np.isfinite(h.loss) for h in history),
                      f"training loss not finite: {[h.loss for h in history]}")
        checks.record(feats.shape == (self.subjects * self.samples, self.config.fc2_dim)
                      and bool(np.isfinite(feats).all()), f"bad feature matrix {feats.shape}")
        checks.record(protocol_counts_ok(run, self.subjects, self.samples - self.gallery),
                      "protocol count identities broken")
        bits = [
            np.packbits(hashing.hash_features(gallery[sid], hashing.UserKey(
                user_id=sid, seed=rand.derive_seed(self.master_seed, sid, "protocol", 1), bit_length=BITS,
            )).bits).tobytes()
            for sid in self.sids
        ]
        metrics = json.dumps(run.report.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        return {
            "features": digest(np.ascontiguousarray(feats, dtype="<f8").tobytes()),
            "template_bits": digest(*bits),
            "metrics_json": digest(metrics.encode("utf-8")),
        }

    def summary(self, units: list[dict]) -> dict:
        train, extract, protocol = (step_times(units, k) for k in ("train", "extract", "protocol"))
        pairs = self.subjects ** 2 * (self.samples - self.gallery)
        return {
            "train_samples_per_s": (self.subjects / statistics.median(train), "1/s", len(train)),
            "extract_images_per_s": (1.0 / statistics.median(extract), "1/s", len(extract)),
            "protocol_pairs_per_s": (pairs / statistics.median(protocol), "1/s", len(protocol)),
            "eer_128_pct": (units[0]["eer_128_pct"], "%", len(units)),
            "crr_128_pct": (units[0]["crr_128_pct"], "%", len(units)),
        }


class ProtocolScale:
    """The stolen-token protocol plus ROC export over seeded synthetic
    features, so the extractor is bypassed."""

    name = "protocol_scale"
    # Thousands of small projections over per-subject bases that do not fit
    # in the per-core cache, and threshold sweeps: interpreter overhead and
    # memory traffic.
    unit_reference = ("stream", "interp")
    subjects = 64
    probes = 2
    feature_dim = 256
    noise = 0.8
    warmup_units = 0
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.master_seed = rand.derive_seed(seed, "keys")

    def setup(self) -> None:
        # A subject centroid plus per-sample noise: one gallery vector and
        # `probes` probe vectors per subject.
        gen = np.random.default_rng([self.seed, 3])
        centroids = gen.standard_normal((self.subjects, self.feature_dim))
        noisy = centroids[:, None, :] + self.noise * gen.standard_normal(
            (self.subjects, 1 + self.probes, self.feature_dim))
        sids = [f"u{s:04d}" for s in range(self.subjects)]
        self.gallery = {sid: noisy[s, 0] for s, sid in enumerate(sids)}
        self.probe_features = {sid: list(noisy[s, 1:]) for s, sid in enumerate(sids)}

    def _protocol(self, roc_path: Path):
        run = pipeline.protocol_from_features(self.gallery, self.probe_features, BITS, self.master_seed)
        evaluation.export_roc(run.scores, roc_path)
        return run

    def unit(self) -> dict:
        roc_path = self.workdir / "roc_128.csv"
        steps: dict[str, list[float]] = {}
        run = timed(steps, "protocol", self._protocol, roc_path)
        return {
            "unit_s": unit_s(steps),
            "steps": steps,
            "eer_128_pct": 100.0 * run.report.eer,
            "crr_128_pct": run.report.crr,
            "_outputs": (run, roc_path.read_bytes()),
        }

    def finish(self, result: dict, checks: Checks) -> dict:
        run, roc = result.pop("_outputs")
        checks.record(protocol_counts_ok(run, self.subjects, self.probes), "protocol count identities broken")
        return {
            "scores": digest(run.scores.genuine.astype("<f8").tobytes(), run.scores.impostor.astype("<f8").tobytes()),
            "roc_csv": digest(roc),
        }

    def summary(self, units: list[dict]) -> dict:
        pairs = self.subjects ** 2 * self.probes
        return {
            "protocol_pairs_per_s": (pairs / statistics.median(step_times(units, "protocol")), "1/s", len(units)),
            "eer_128_pct": (units[0]["eer_128_pct"], "%", len(units)),
            "crr_128_pct": (units[0]["crr_128_pct"], "%", len(units)),
        }


class VaultCli:
    """Operator flow: bulk-enroll users into a fresh vault, then rounds of a
    seeded closed-loop mix of CLI calls, each through ``cli.main(argv)``."""

    name = "vault_cli"
    # Parsing the store's JSON records, then a forward pass over the probe.
    unit_reference = ("stream", "interp")
    users = 100
    corpus_subjects = 8
    corpus_samples = 4
    feature_dim = 256
    mix = {"verify": 20, "enroll": 2, "revoke": 2}
    threshold = 0.3
    # The first round bulk-enrolls, and the first rounds in a process run
    # slower while the allocator and the page cache settle, so one round is
    # run untimed.  Five timed rounds give 100 verify calls, so ten samples
    # lie beyond p90.
    warmup_units = 1
    min_units = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.master_seed = rand.derive_seed(seed, "vault") >> 1  # fits the CLI's --seed
        self.store = workdir / "store"
        self.bulk_sizes = None

    def setup(self) -> None:
        """Write a calibrated model file and a small probe corpus."""
        base = self.workdir / "setup"
        shutil.rmtree(base, ignore_errors=True)
        spec = corpus.SyntheticSpec(num_subjects=self.corpus_subjects, samples_per_subject=self.corpus_samples,
                                    seed=self.seed)
        images = []
        self.paths = {}
        for s in range(self.corpus_subjects):
            folder = base / "corpus" / f"p{s}"
            folder.mkdir(parents=True)
            for i in range(self.corpus_samples):
                img = corpus.synthesize_sample(spec, s, i)
                path = folder / f"img{i:02d}.pgm"
                corpus.write_pgm(path, img)
                images.append(img)
                self.paths[s, i] = str(path)
        model = network.FixedFilterNet.build(
            network.NetworkConfig(num_classes=self.corpus_subjects, lbc_seed=rand.derive_seed(self.seed, "model")))
        model.calibrate_dense(images)
        self.model_path = str(base / "model.dhfn")
        model.save(self.model_path)

        gen = np.random.default_rng([self.seed, 4])
        self.bulk = [(f"u{u:04d}", gen.standard_normal(self.feature_dim)) for u in range(self.users)]
        kinds = [k for k, n in self.mix.items() for _ in range(n)]
        self.plan = [(kinds[k], int(gen.integers(self.users)), int(gen.integers(2)))
                     for k in gen.permutation(len(kinds))]

    def _argv(self, store: Path, kind: str, user: int, pick: int) -> list[str]:
        """A CLI call on user `user`; verify uses probe sample 2 + pick of the
        user's corpus subject, enroll and revoke use samples 0 and 1."""
        subject = user % self.corpus_subjects
        argv = [kind, "--model", self.model_path, "--store", str(store), "--user", f"u{user:04d}",
                "--seed", str(self.master_seed)]
        if kind == "verify":
            return argv + ["--image", self.paths[subject, 2 + pick], "--threshold", str(self.threshold)]
        return argv + ["--images", self.paths[subject, 0], self.paths[subject, 1]]

    def _open(self):
        return enrollment.TemplateVault(self.store / "keys.jsonl", self.store / "templates.jsonl",
                                        master_seed=self.master_seed)

    def _bulk_enroll(self) -> None:
        """Phase 1: enroll every user into a fresh vault, timed on its own."""
        shutil.rmtree(self.store, ignore_errors=True)
        t0 = perf_counter()
        vault = self._open()
        for user_id, features in self.bulk:
            vault.enroll_features(user_id, features, bit_length=BITS)
        self.bulk_s = perf_counter() - t0
        self.bulk_sizes = {path: path.stat().st_size for path in (vault.keys.path, vault.templates.path)}

    def unit(self) -> dict:
        """One round of the mix.  The first round bulk-enrolls the users.
        Later rounds cut the append-only store files back to their length
        after bulk enrollment, which restores that state exactly without
        writing the 35 MB store again."""
        if self.bulk_sizes is None:
            self._bulk_enroll()
        else:
            for path, size in self.bulk_sizes.items():
                os.truncate(path, size)
        steps = {kind: [] for kind in self.mix}
        outputs, codes = [], []
        for step in self.plan:
            argv = self._argv(self.store, *step)
            code, out, err = timed(steps, argv[0], self._call, argv)
            outputs.append(out)
            codes.append((code, argv[0], argv[6], err))
        return {"unit_s": unit_s(steps), "steps": steps, "_outputs": (outputs, codes)}

    @staticmethod
    def _call(argv: list[str]) -> tuple:
        """One in-process CLI call: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue().strip()

    def _store_consistent(self) -> bool:
        """The store replays, every user has exactly one active record, and
        the record counts match bulk enrollment plus the plan."""
        try:
            vault = self._open()
            active = [vault.active_record(user_id) for user_id, _ in self.bulk]
        except Exception:
            return False
        changes = sum(1 for kind, _, _ in self.plan if kind != "verify")
        return (all(r is not None for r in active)
                and len(vault.keys) == self.users + changes
                and len(vault.templates) == self.users + 2 * changes)

    def finish(self, result: dict, checks: Checks) -> dict:
        outputs, codes = result.pop("_outputs")
        for code, command, user, err in codes:
            checks.record(code == 0, f"{command} {user} exited {code}: {err}")
        checks.record(self._store_consistent(), "store does not replay to one active record per user")
        return {
            "cli_output": digest("".join(outputs).encode("utf-8")),
            "store": digest(*(path.read_bytes() for path in self.bulk_sizes)),
        }

    def summary(self, units: list[dict]) -> dict:
        lat = {kind: [1000.0 * t for t in step_times(units, kind)] for kind in self.mix}
        verify = lat["verify"]
        return {
            "bulk_enroll_users_per_s": (self.users / self.bulk_s, "1/s", 1),
            "verify_p50_ms": (statistics.median(verify), "ms", len(verify)),
            "verify_p90_ms": (percentile(verify, 90), "ms", len(verify)),
            "enroll_p50_ms": (statistics.median(lat["enroll"]), "ms", len(lat["enroll"])),
            "revoke_p50_ms": (statistics.median(lat["revoke"]), "ms", len(lat["revoke"])),
            "vault_bytes_per_user": (sum(self.bulk_sizes.values()) / self.users, "bytes", 1),
        }


WORKLOADS = {w.name: w for w in (DeskTrain, ProtocolScale, VaultCli)}
