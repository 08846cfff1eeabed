"""End-to-end experiment composition: images -> per-stream features ->
optional fusion -> the protocol (enroll, score, report).

Every image goes through the extractor once; single-stream and fused runs
score the same features.  Enrollment here is in-memory (per-subject keys
derived from one master seed); the persistent stores in
:mod:`dorsalhash.enrollment` serve the operational CLI flows, while this
module serves evaluation runs where no state should outlive the
experiment.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import parallel, rand
from .errors import DataError, DimensionError, NormalizationError, ProtocolError
from .evaluation import (
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


def stream_features(
    model, samples: dict[str, list[np.ndarray]], gallery_count: int
) -> tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]]]:
    """(gallery means, probe feature lists) of one stream: per subject, the
    first gallery_count samples enroll as their mean feature vector and the
    rest probe.  Each image is extracted once."""
    if gallery_count < 1:
        raise DataError(f"gallery count must be >= 1, got {gallery_count}")
    for sid, imgs in samples.items():
        if len(imgs) <= gallery_count:
            raise DataError(
                f"subject {sid!r} has {len(imgs)} samples; need more than gallery count {gallery_count}"
            )
    gallery, probes = {}, {}
    for sid, imgs in sorted(samples.items()):
        feats = model.extract_features(imgs)
        gallery[sid] = feats[:gallery_count].mean(axis=0)
        probes[sid] = list(feats[gallery_count:])
    return gallery, probes


def fuse_features(vectors) -> np.ndarray:
    """Sum-rule fusion: min-max each vector to [0, 1], center it to zero
    mean, then add.

    Centering is load-bearing for sign-projection hashing: a sum of
    [0, 1]-range vectors rides a large shared positive offset, and that
    common component correlates projections across unrelated subjects,
    compressing the score distribution. All vectors must share one
    length; a constant vector cannot be normalized and raises.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        raise DataError("fuse_features needs at least one vector")
    length = vecs[0].shape
    if any(v.ndim != 1 for v in vecs) or any(v.shape != length for v in vecs):
        raise DimensionError(f"fusion vectors must be 1-D with equal length, got {[v.shape for v in vecs]}")
    fused = np.zeros(length, dtype=np.float64)
    for v in vecs:
        lo, hi = float(v.min()), float(v.max())
        if hi == lo:
            raise NormalizationError("cannot min-max normalize a constant vector")
        ranged = (v - lo) / (hi - lo)
        fused += ranged - ranged.mean()
    return fused


def require_same_subjects(subjects: dict[str, Iterable[str]]) -> None:
    """Raise DataError unless every stream in {stream name: subject ids}
    has the same subjects, naming for each stream the ones it lacks."""
    sets = {name: set(ids) for name, ids in subjects.items()}
    every = set().union(*sets.values())
    lacking = [f"{name} lacks {sorted(every - have)}" for name, have in sorted(sets.items()) if have != every]
    if lacking:
        raise DataError(f"streams disagree on gallery subjects: {'; '.join(lacking)}")


def fuse_streams(
    streams: dict[str, tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]]]],
) -> tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]]]:
    """Fuse {stream name: (gallery, probes)} from stream_features into one
    (gallery, probes) pair, fusing streams in name order.  Streams must
    agree on subjects and on the number of probe samples per subject
    (sample k of every stream fuses together).
    """
    if len(streams) < 2:
        raise DataError(f"fusion needs >= 2 streams, got {len(streams)}")
    require_same_subjects({name: gallery for name, (gallery, _) in streams.items()})
    galleries, probes = zip(*(streams[name] for name in sorted(streams)))
    fused_gallery = {sid: fuse_features([g[sid] for g in galleries]) for sid in sorted(galleries[0])}
    fused_probes = {}
    for sid in sorted(probes[0]):
        if len({len(p[sid]) for p in probes}) != 1:
            raise DataError(f"streams disagree on probe count for subject {sid!r}")
        fused_probes[sid] = [fuse_features(sample) for sample in zip(*(p[sid] for p in probes))]
    return fused_gallery, fused_probes


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Everything a protocol execution produced."""

    report: MetricsReport
    scores: ScoreSet
    matches: MatchMatrix


# The fewest gallery subjects a process scores in the protocol.  Below 6-8
# subjects a process, forking a child and piping its distances back costs
# more than the key bases it takes over (2-vCPU VM, 45 and 87 MB processes);
# 11 keeps a 20-subject protocol, such as the desk loop's, in one process.
MIN_SUBJECTS_PER_PROCESS = 11


def protocol_from_features(
    gallery_features: dict[str, np.ndarray],
    probe_features: dict[str, list[np.ndarray]],
    bit_length: int,
    master_seed: int,
) -> ProtocolRun:
    """Hash per-subject gallery features, score every probe feature against
    every template under that template's key, and compute metrics.

    This is the stolen-token setting: an impostor probe is projected with
    the claimed identity's own basis.  Per gallery subject, one batch call
    of ``project``, ``binarize`` and ``template_distance``, the functions
    the vault scores with, scores every probe at once.  The sorted subjects
    split into contiguous column blocks, one per process (parallel.process_count);
    every block is scored by the same code on the same inputs, so the
    distances do not depend on the split.
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
    _require_finite(np.array(gallery), subjects, "gallery")
    _require_finite(probe_matrix, probe_ids, "probe")

    def _score_columns(block: range) -> np.ndarray:
        out = np.empty((len(probes), len(block)))
        for c, j in enumerate(block):
            key = UserKey(
                user_id=subjects[j],
                seed=rand.derive_seed(master_seed, subjects[j], "protocol", 1),
                bit_length=bit_length,
            )
            basis = basis_for_key(key, shape[0])
            bits = binarize(project(gallery[j], basis))
            out[:, c] = template_distance(binarize(project(probe_matrix, basis)), bits)
        return out

    n = parallel.process_count(len(subjects), 1, MIN_SUBJECTS_PER_PROCESS)
    columns = parallel.map_blocks(_score_columns, parallel.blocks(len(subjects), n),
                                  lambda block: f"scoring columns {block.start}..{block.stop - 1}")
    distances = np.concatenate(columns, axis=1)

    matches = MatchMatrix(distances=distances, probe_ids=probe_ids, gallery_ids=subjects)
    scores = scores_from_matches(matches)
    eer_value, eer_thr = eer(scores)
    report = MetricsReport(
        eer=eer_value,
        eer_threshold=eer_thr,
        crr=crr_rank1(matches),
        di=decidability_index(scores),
        roc=tuple(roc_grid(scores)),
    )
    return ProtocolRun(report=report, scores=scores, matches=matches)


def _require_finite(rows: np.ndarray, subject_ids: list[str], role: str) -> None:
    """Raise DataError naming the first subject whose row of ``rows`` holds
    a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise DataError(f"{role} features of subject {subject_ids[bad[0]]!r} are not finite")
