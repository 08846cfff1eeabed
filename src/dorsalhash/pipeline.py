"""End-to-end experiment composition: split a corpus, enroll the gallery,
score the probes, compute the metric report.

Enrollment here is in-memory (per-subject keys derived from one master
seed); the persistent stores in :mod:`dorsalhash.enrollment` serve the
operational CLI flows, while this module serves evaluation runs where no
state should outlive the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rand
from .enrollment import fuse_features
from .errors import DataError, DimensionError, ProtocolError
from .evaluation import (
    DEFAULT_ROC_POINTS,
    MatchMatrix,
    MetricsReport,
    ScoreSet,
    crr_rank1,
    decidability_index,
    eer,
    roc_grid,
    scores_from_matches,
)
from .hashing import UserKey, basis_for_key, binarize, project, template_distance


def split_gallery_probe(
    samples: dict[str, list[np.ndarray]], gallery_count: int
) -> tuple[dict[str, list[np.ndarray]], dict[str, list[np.ndarray]]]:
    """First gallery_count samples per subject enroll; the rest probe."""
    if gallery_count < 1:
        raise DataError(f"gallery count must be >= 1, got {gallery_count}")
    gallery, probes = {}, {}
    for sid, imgs in samples.items():
        if len(imgs) <= gallery_count:
            raise DataError(
                f"subject {sid!r} has {len(imgs)} samples; need more than gallery count {gallery_count}"
            )
        gallery[sid] = imgs[:gallery_count]
        probes[sid] = imgs[gallery_count:]
    return gallery, probes


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Everything a protocol execution produced."""

    report: MetricsReport
    scores: ScoreSet
    matches: MatchMatrix


def protocol_from_features(
    gallery_features: dict[str, np.ndarray],
    probe_features: dict[str, list[np.ndarray]],
    bit_length: int,
    master_seed: int,
    roc_points: int = DEFAULT_ROC_POINTS,
) -> ProtocolRun:
    """Hash per-subject gallery features, score every probe feature against
    every template under that template's key, and compute metrics.

    This is the stolen-token setting: an impostor probe is projected with
    the claimed identity's own basis.  Per gallery subject, one batch call
    of ``project``, ``binarize`` and ``template_distance``, the functions
    the vault scores with, scores every probe at once.
    """
    if len(gallery_features) < 2:
        raise ProtocolError(f"protocol needs >= 2 subjects, got {len(gallery_features)}")
    unknown = set(probe_features) - set(gallery_features)
    if unknown:
        raise ProtocolError(f"probe subjects missing from gallery: {sorted(unknown)}")
    subjects = sorted(gallery_features)
    gallery = [np.asarray(gallery_features[sid], dtype=np.float64) for sid in subjects]
    probe_ids = [pid for pid in sorted(probe_features) for _ in probe_features[pid]]
    probes = [np.asarray(f, dtype=np.float64) for pid in sorted(probe_features) for f in probe_features[pid]]
    shape = gallery[0].shape
    if any(v.ndim != 1 or v.shape != shape for v in gallery + probes):
        raise DimensionError("gallery and probe features must be 1-D vectors of one length")
    probe_matrix = np.array(probes).reshape(len(probes), shape[0])

    distances = np.empty((len(probes), len(subjects)))
    for j, (sid, f) in enumerate(zip(subjects, gallery)):
        key = UserKey(
            user_id=sid,
            seed=rand.derive_seed(master_seed, sid, "protocol", 1),
            bit_length=bit_length,
        )
        basis = basis_for_key(key, f.shape[0])
        bits = binarize(project(f, basis))
        distances[:, j] = template_distance(binarize(project(probe_matrix, basis)), bits)

    matches = MatchMatrix(distances=distances, probe_ids=probe_ids, gallery_ids=subjects)
    scores = scores_from_matches(matches)
    eer_value, eer_thr = eer(scores)
    report = MetricsReport(
        eer=eer_value,
        eer_threshold=eer_thr,
        crr=crr_rank1(matches),
        di=decidability_index(scores),
        roc=tuple(roc_grid(scores, roc_points)),
    )
    return ProtocolRun(report=report, scores=scores, matches=matches)


def mean_gallery_features(model, gallery: dict[str, list[np.ndarray]]) -> dict[str, np.ndarray]:
    return {sid: model.extract_features(imgs).mean(axis=0) for sid, imgs in sorted(gallery.items())}


def probe_feature_lists(model, probes: dict[str, list[np.ndarray]]) -> dict[str, list[np.ndarray]]:
    return {sid: [model.forward(img)[0] for img in imgs] for sid, imgs in sorted(probes.items())}


def evaluate_split(
    model,
    gallery: dict[str, list[np.ndarray]],
    probes: dict[str, list[np.ndarray]],
    bit_length: int,
    master_seed: int,
    roc_points: int = DEFAULT_ROC_POINTS,
) -> ProtocolRun:
    """Single-stream protocol: multishot gallery means versus probe images."""
    return protocol_from_features(
        mean_gallery_features(model, gallery),
        probe_feature_lists(model, probes),
        bit_length,
        master_seed,
        roc_points,
    )


def evaluate_fused(
    model,
    galleries: dict[str, dict[str, list[np.ndarray]]],
    probes: dict[str, dict[str, list[np.ndarray]]],
    bit_length: int,
    master_seed: int,
    roc_points: int = DEFAULT_ROC_POINTS,
) -> ProtocolRun:
    """Multi-stream protocol: per-stream features are min-max normalized,
    centered, and summed before hashing.  Streams must agree on subjects and
    on the number of probe samples per subject (sample k of every stream
    fuses together).
    """
    if len(galleries) < 2:
        raise DataError(f"fusion needs >= 2 streams, got {len(galleries)}")
    stream_names = sorted(galleries)
    if sorted(probes) != stream_names:
        raise DataError("gallery and probe stream names differ")
    subject_sets = [set(galleries[s]) for s in stream_names]
    if any(s != subject_sets[0] for s in subject_sets[1:]):
        raise DataError("streams disagree on gallery subjects")

    per_stream_gallery = {s: mean_gallery_features(model, galleries[s]) for s in stream_names}
    fused_gallery = {
        sid: fuse_features([per_stream_gallery[s][sid] for s in stream_names])
        for sid in subject_sets[0]
    }

    per_stream_probe = {s: probe_feature_lists(model, probes[s]) for s in stream_names}
    fused_probe: dict[str, list[np.ndarray]] = {}
    for sid in sorted(per_stream_probe[stream_names[0]]):
        lengths = {len(per_stream_probe[s][sid]) for s in stream_names}
        if len(lengths) != 1:
            raise DataError(f"streams disagree on probe count for subject {sid!r}")
        count = lengths.pop()
        fused_probe[sid] = [
            fuse_features([per_stream_probe[s][sid][k] for s in stream_names])
            for k in range(count)
        ]
    return protocol_from_features(fused_gallery, fused_probe, bit_length, master_seed, roc_points)
