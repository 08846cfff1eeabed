"""Verification-protocol metrics over a probes x gallery distance matrix.

Scores are distances: a probe is accepted when score <= threshold, so FAR
(fraction of impostor attempts accepted) grows with the threshold while FRR
(fraction of genuine attempts rejected) shrinks.  A protocol run yields a
:class:`MatchMatrix`, one row per probe and one column per enrolled
template; the cell of a probe's own identity is its genuine score and every
other cell an impostor score.

Every operating point is counted from sorted scores: each side is sorted
once and ``searchsorted`` gives the number of scores at or below any set of
thresholds, so a sweep over U thresholds and N scores costs
O((N + U) log N) rather than O(U * N).  ``count / n`` equals the mean of the
per-threshold comparison mask bit for bit, so ``far_frr`` stays the
reference.  The equal-error rate is read off the lower convex hull of the
empirical (FAR, FRR) operating points with linear interpolation between the
two points bracketing FAR = FRR; the hull keeps the estimator inside
[0, 0.5] and handles stepwise score ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, MetricUndefinedError, ProtocolError

DEFAULT_ROC_POINTS = 1000


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Genuine and impostor distance scores from one protocol run."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.genuine, dtype=np.float64).ravel()
        i = np.asarray(self.impostor, dtype=np.float64).ravel()
        object.__setattr__(self, "genuine", g)
        object.__setattr__(self, "impostor", i)
        for name, arr in (("genuine", g), ("impostor", i)):
            if arr.size and not np.isfinite(arr).all():
                raise DataError(f"{name} scores contain non-finite values")
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise DataError(f"{name} scores must lie in [0, 1]")

    def all_scores(self) -> np.ndarray:
        return np.concatenate([self.genuine, self.impostor])


@dataclass(frozen=True, eq=False)
class MetricsReport:
    eer: float
    eer_threshold: float
    crr: float
    di: float
    roc: tuple  # ((threshold, far, frr), ...) strictly increasing thresholds

    def __post_init__(self):
        if not (0.0 <= self.eer <= 0.5):
            raise DataError(f"eer out of range: {self.eer}")
        if not (0.0 <= self.crr <= 100.0):
            raise DataError(f"crr out of range: {self.crr}")
        ts = [row[0] for row in self.roc]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DataError("roc thresholds must be strictly increasing")

    def to_dict(self) -> dict:
        return {
            "eer": self.eer,
            "eer_threshold": self.eer_threshold,
            "crr": self.crr,
            "di": self.di,
            "roc": [list(row) for row in self.roc],
        }


@dataclass(frozen=True, eq=False)
class MatchMatrix:
    """Distances of every probe (rows) to every enrolled template (columns).

    ``probe_ids[i]`` is the true identity of row i and ``gallery_ids[j]`` the
    identity enrolled in column j.  Gallery identities are unique and every
    probe identity is enrolled, so each row holds exactly one genuine score,
    in column ``own_column[i]``.
    """

    distances: np.ndarray  # (probes, templates)
    probe_ids: tuple
    gallery_ids: tuple
    own_column: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        probe_ids, gallery_ids = tuple(self.probe_ids), tuple(self.gallery_ids)
        if d.shape != (len(probe_ids), len(gallery_ids)):
            raise DataError(
                f"distance matrix shape {d.shape} does not match "
                f"{len(probe_ids)} probes x {len(gallery_ids)} templates"
            )
        if not np.isfinite(d).all():
            raise DataError("distance matrix contains non-finite values")
        column = {sid: j for j, sid in enumerate(gallery_ids)}
        if len(column) != len(gallery_ids):
            raise ProtocolError("gallery identities must be unique")
        missing = sorted(set(probe_ids) - set(column))
        if missing:
            raise ProtocolError(f"probe subjects missing from gallery: {missing}")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "probe_ids", probe_ids)
        object.__setattr__(self, "gallery_ids", gallery_ids)
        object.__setattr__(self, "own_column", np.array([column[p] for p in probe_ids], dtype=np.intp))

    def own_scores(self) -> np.ndarray:
        """Each probe's distance to its own identity's template."""
        return self.distances[np.arange(len(self.probe_ids)), self.own_column]


def far_frr(scores: ScoreSet, threshold: float) -> tuple[float, float]:
    """Operating point at one threshold (accept when score <= threshold)."""
    if scores.genuine.size == 0 or scores.impostor.size == 0:
        raise DataError("far_frr needs non-empty genuine and impostor scores")
    far = float(np.mean(scores.impostor <= threshold))
    frr = float(np.mean(scores.genuine > threshold))
    return far, frr


def _rates(scores: ScoreSet, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FAR and FRR at every threshold, as ``far_frr`` gives them one at a time.

    Both sides are sorted once and the count of scores at or below each
    threshold is a binary search; ``count / n`` is the mean of the
    comparison mask, exactly.
    """
    impostor, genuine = np.sort(scores.impostor), np.sort(scores.genuine)
    far = np.searchsorted(impostor, thresholds, side="right") / impostor.size
    frr = (genuine.size - np.searchsorted(genuine, thresholds, side="right")) / genuine.size
    return far, frr


def _operating_points(scores: ScoreSet) -> list[tuple[float, float, float]]:
    """(threshold, far, frr) swept over the sorted union of scores, plus a
    virtual below-minimum threshold contributing the (0, 1) corner."""
    union = np.unique(scores.all_scores())
    lo = float(union[0]) - max(1e-9, (float(union[-1]) - float(union[0])) * 1e-3)
    far, frr = _rates(scores, union)
    return [(lo, 0.0, 1.0), *zip(union.tolist(), far.tolist(), frr.tolist())]


def _lower_hull(points: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """Lower convex hull in the (far, frr) plane, thresholds carried along."""
    pts = sorted(points, key=lambda p: (p[1], p[2]))

    def cross(o, a, b):
        return (a[1] - o[1]) * (b[2] - o[2]) - (a[2] - o[2]) * (b[1] - o[1])

    hull: list[tuple[float, float, float]] = []
    for p in pts:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal-error rate and its threshold.

    Returns (eer, threshold) where eer is the height of the FAR = FRR
    crossing of the convex operating frontier and threshold the linearly
    interpolated score at which it occurs.
    """
    if scores.genuine.size == 0 or scores.impostor.size == 0:
        raise DataError("eer needs non-empty genuine and impostor scores")
    hull = _lower_hull(_operating_points(scores))
    diffs = [far - frr for _, far, frr in hull]
    for i, d in enumerate(diffs):
        if d == 0.0:
            t, far, frr = hull[i]
            return (far + frr) / 2.0, t
        if i + 1 < len(diffs) and d < 0.0 < diffs[i + 1]:
            t0, f0, r0 = hull[i]
            t1, f1, r1 = hull[i + 1]
            lam = -d / (diffs[i + 1] - d)
            far = f0 + lam * (f1 - f0)
            frr = r0 + lam * (r1 - r0)
            return (far + frr) / 2.0, t0 + lam * (t1 - t0)
    raise MetricUndefinedError("no FAR = FRR crossing found")  # unreachable for non-empty sets


def crr_rank1(matches: MatchMatrix) -> float:
    """Rank-1 correct recognition rate, in percent.

    A probe counts as recognized only when its own identity's score is
    strictly below every other score in its row (ties break toward
    failure): the own cell is the only one at or below it.
    """
    if not matches.probe_ids:
        raise DataError("crr_rank1 needs at least one probe")
    d = matches.distances
    at_or_below_own = np.count_nonzero(d <= matches.own_scores()[:, None], axis=1)
    correct = int(np.count_nonzero(at_or_below_own == 1))
    return 100.0 * correct / d.shape[0]


def decidability_index(scores: ScoreSet) -> float:
    """Separation of the two score distributions:
    |mean_g - mean_i| / sqrt((var_g + var_i) / 2), sample variances."""
    g, i = scores.genuine, scores.impostor
    if g.size < 2 or i.size < 2:
        raise DataError("decidability_index needs >= 2 scores on each side")
    pooled = (g.var(ddof=1) + i.var(ddof=1)) / 2.0
    if pooled == 0.0:
        raise MetricUndefinedError("zero variance in both score sets; index undefined")
    return float(abs(g.mean() - i.mean()) / np.sqrt(pooled))


def roc_grid(scores: ScoreSet, points: int = DEFAULT_ROC_POINTS) -> list[tuple[float, float, float]]:
    """(threshold, far, frr) rows over an even grid spanning the score range."""
    if points < 2:
        raise DataError(f"roc grid needs >= 2 points, got {points}")
    if scores.genuine.size == 0 or scores.impostor.size == 0:
        raise DataError("roc needs non-empty genuine and impostor scores")
    all_scores = scores.all_scores()
    lo, hi = float(all_scores.min()), float(all_scores.max())
    if hi <= lo:
        raise DataError("degenerate score range; roc grid undefined")
    thresholds = np.linspace(lo, hi, points)
    far, frr = _rates(scores, thresholds)
    return list(zip(thresholds.tolist(), far.tolist(), frr.tolist()))


def export_roc(scores: ScoreSet, path, points: int = DEFAULT_ROC_POINTS) -> None:
    """Write the ROC as CSV with columns threshold,far,frr,gar (gar = 1 - frr).

    Formatting is repr-based, so re-exporting the same scores is
    byte-identical.
    """
    rows = roc_grid(scores, points)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,far,frr,gar\n")
        for t, far, frr in rows:
            fh.write(f"{t!r},{far!r},{frr!r},{1.0 - frr!r}\n")


def scores_from_matches(matches: MatchMatrix) -> ScoreSet:
    """Split the matrix into genuine (own-identity) and impostor cells, each
    in row-major order."""
    genuine = np.zeros(matches.distances.shape, dtype=bool)
    genuine[np.arange(len(matches.probe_ids)), matches.own_column] = True
    return ScoreSet(genuine=matches.distances[genuine], impostor=matches.distances[~genuine])
