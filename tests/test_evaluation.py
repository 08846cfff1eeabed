"""Error-metric oracles and protocol accounting.

EER cases are worked by hand from the operating-point geometry: with scores
on [0, 1] and accept-if-below semantics, every case below has a frontier
small enough to enumerate by hand.  The sorted sweep and the matrix
protocol are also checked against per-threshold and per-pair references
kept in this file.
"""

import json
import multiprocessing
import os
import textwrap
import threading
import time

import numpy as np
import pytest
from conftest import run_fresh
from hypothesis import given, settings
from hypothesis import strategies as st

from dorsalhash import evaluation, parallel, pipeline, rand
from dorsalhash.errors import (
    DataError,
    DegenerateKeyError,
    DimensionError,
    MetricUndefinedError,
    ProtocolError,
    UndefinedScoreError,
)
from dorsalhash.evaluation import (
    MatchMatrix,
    MetricsReport,
    ScoreSet,
    crr_rank1,
    decidability_index,
    eer,
    export_roc,
    far_frr,
    roc_grid,
    scores_from_matches,
)
from dorsalhash.hashing import UserKey, basis_for_key, binarize, project, template_distance
from dorsalhash.pipeline import fuse_features, fuse_streams, protocol_from_features, stream_features


def _scores(genuine, impostor):
    return ScoreSet(genuine=np.array(genuine, dtype=float), impostor=np.array(impostor, dtype=float))


class TestScoreSet:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            _scores([0.1, np.nan], [0.5])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            _scores([0.1], [1.5])
        with pytest.raises(DataError):
            _scores([-0.2], [0.5])

    def test_all_scores_concatenates(self):
        s = _scores([0.1, 0.2], [0.7])
        assert s.all_scores().tolist() == [0.1, 0.2, 0.7]


class TestFarFrr:
    def test_separated_sets_have_clean_midpoint(self):
        s = _scores([0.0, 0.1, 0.2], [0.8, 0.9, 1.0])
        assert far_frr(s, 0.5) == (0.0, 0.0)

    def test_worked_example(self):
        s = _scores([0.1, 0.3], [0.2, 0.4])
        assert far_frr(s, 0.1) == (0.0, 0.5)
        assert far_frr(s, 0.2) == (0.5, 0.5)
        assert far_frr(s, 0.4) == (1.0, 0.0)

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            far_frr(_scores([], [0.5]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_threshold(self, gen, imp, t_lo, t_hi):
        if t_hi < t_lo:
            t_lo, t_hi = t_hi, t_lo
        s = _scores(gen, imp)
        far_lo, frr_lo = far_frr(s, t_lo)
        far_hi, frr_hi = far_frr(s, t_hi)
        assert far_lo <= far_hi
        assert frr_lo >= frr_hi


class TestEer:
    def test_perfect_separation_is_zero(self):
        value, threshold = eer(_scores([0.0, 0.1, 0.2], [0.6, 0.7, 0.8]))
        assert value == 0.0
        assert 0.2 <= threshold < 0.6

    def test_interleaved_quarter(self):
        # Union sweep gives frontier (0,1) (0,.5) (.5,0) (1,0); the FAR=FRR
        # crossing sits halfway along the middle segment.
        value, threshold = eer(_scores([0.1, 0.3], [0.2, 0.4]))
        assert value == pytest.approx(0.25)
        assert threshold == pytest.approx(0.2)

    def test_identical_distributions_are_chance(self):
        value, _ = eer(_scores([0.2, 0.8], [0.2, 0.8]))
        assert value == pytest.approx(0.5)

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            eer(_scores([], [0.1]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    def test_bounded_by_half(self, gen, imp):
        value, threshold = eer(_scores(gen, imp))
        assert 0.0 <= value <= 0.5
        assert np.isfinite(threshold)

    def test_swapping_sides_of_separated_data_degrades(self):
        # Genuine above impostor scores: the frontier collapses to chance.
        value, _ = eer(_scores([0.8, 0.9], [0.1, 0.2]))
        assert value == pytest.approx(0.5)


def _matrix(rows, probe_ids, gallery_ids=("a", "b")):
    return MatchMatrix(distances=np.array(rows, dtype=float), probe_ids=probe_ids, gallery_ids=gallery_ids)


def _crr_reference(matches):
    """Per-probe rule: recognized when the own score is strictly below the
    minimum of every other score in the row."""
    correct = 0
    for row, pid in zip(matches.distances.tolist(), matches.probe_ids):
        own = [s for sid, s in zip(matches.gallery_ids, row) if sid == pid]
        others = [s for sid, s in zip(matches.gallery_ids, row) if sid != pid]
        if not others or own[0] < min(others):
            correct += 1
    return 100.0 * correct / len(matches.probe_ids)


class TestCrr:
    def test_all_correct(self):
        assert crr_rank1(_matrix([[0.1, 0.5], [0.6, 0.2]], ("a", "b"))) == 100.0

    def test_tie_counts_as_failure(self):
        assert crr_rank1(_matrix([[0.3, 0.3]], ("a",))) == 0.0

    def test_mixed(self):
        assert crr_rank1(_matrix([[0.1, 0.2], [0.1, 0.2]], ("a", "b"))) == 50.0

    def test_missing_true_identity_rejected(self):
        with pytest.raises(ProtocolError):
            crr_rank1(_matrix([[0.1]], ("a",), gallery_ids=("b",)))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            crr_rank1(_matrix(np.empty((0, 2)), ()))
        with pytest.raises(DataError):
            crr_rank1(_matrix(np.empty((1, 0)), ("a",), gallery_ids=()))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_on_matrix_count_as_failures(self, seed):
        # Four score levels over twelve templates: most rows hold a tie at
        # their minimum, some with the own cell in it.
        rng = np.random.default_rng(seed)
        gallery_ids = tuple(f"g{j}" for j in range(12))
        probe_ids = tuple(gallery_ids[j] for j in rng.integers(0, 12, 200))
        matches = MatchMatrix(rng.integers(0, 4, (200, 12)) / 4.0, probe_ids, gallery_ids)
        own = matches.own_scores()
        tied = [np.count_nonzero(row == o) > 1 and o == row.min() for row, o in zip(matches.distances, own)]
        assert any(tied)
        value = crr_rank1(matches)
        assert value == _crr_reference(matches)
        assert value < 100.0 * np.mean(own == matches.distances.min(axis=1))


class TestMatchMatrix:
    def test_shape_must_match_ids(self):
        with pytest.raises(DataError):
            _matrix([[0.1, 0.2]], ("a", "b"))

    def test_gallery_ids_unique(self):
        with pytest.raises(ProtocolError):
            _matrix([[0.1, 0.2]], ("a",), gallery_ids=("a", "a"))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            _matrix([[0.1, np.nan]], ("a",))


class TestDecidability:
    def test_plugin_value(self):
        # Two-point sets m +/- a have sample variance 2a^2; with a = 0.1 and
        # a mean gap of 0.1*sqrt(2) the index is exactly 1.
        gap = 0.1 * np.sqrt(2.0)
        value = decidability_index(_scores([0.3, 0.5], [0.3 + gap, 0.5 + gap]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_two_sigma_plugin(self):
        value = decidability_index(_scores([0.2, 0.4], [0.6, 0.8]))
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_affine_invariance(self):
        base_g, base_i = [0.2, 0.4], [0.6, 0.8]
        ref = decidability_index(_scores(base_g, base_i))
        mapped = decidability_index(
            _scores([0.5 * x + 0.1 for x in base_g], [0.5 * x + 0.1 for x in base_i])
        )
        assert mapped == pytest.approx(ref, rel=1e-12)

    def test_zero_variance_undefined(self):
        with pytest.raises(MetricUndefinedError):
            decidability_index(_scores([0.3, 0.3], [0.7, 0.7]))

    def test_needs_two_scores_each_side(self):
        with pytest.raises(DataError):
            decidability_index(_scores([0.3], [0.6, 0.7]))


class TestRoc:
    def test_grid_spans_score_range(self):
        s = _scores([0.1, 0.2], [0.6, 0.9])
        rows = roc_grid(s, points=11)
        assert len(rows) == 11
        assert rows[0][0] == pytest.approx(0.1)
        assert rows[-1][0] == pytest.approx(0.9)

    def test_grid_needs_two_points_and_range(self):
        s = _scores([0.1], [0.9])
        with pytest.raises(DataError):
            roc_grid(s, points=1)
        with pytest.raises(DataError):
            roc_grid(_scores([0.5], [0.5]), points=5)

    def test_export_header_and_determinism(self, tmp_path):
        s = _scores([0.05, 0.1, 0.15], [0.7, 0.8, 0.9])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_roc(s, p1, points=50)
        export_roc(s, p2, points=50)
        text = p1.read_text()
        assert text.splitlines()[0] == "threshold,far,frr,gar"
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_gar_complements_frr(self, tmp_path):
        s = _scores([0.05, 0.1], [0.7, 0.9])
        path = tmp_path / "roc.csv"
        export_roc(s, path, points=20)
        for line in path.read_text().splitlines()[1:]:
            _, _, frr, gar = (float(v) for v in line.split(","))
            assert gar == pytest.approx(1.0 - frr)


def _graded_scores(seed, levels, n_genuine, n_impostor):
    """Overlapping genuine (low) and impostor (high) scores, rounded to
    ``levels`` steps when given, so that few distinct values carry many ties."""
    rng = np.random.default_rng(seed)
    genuine, impostor = rng.beta(2, 5, n_genuine), rng.beta(5, 2, n_impostor)
    if levels is not None:
        genuine, impostor = np.round(genuine * levels) / levels, np.round(impostor * levels) / levels
    return ScoreSet(genuine=genuine, impostor=impostor)


def _sweep_points(scores):
    """Reference operating points: one far_frr call per distinct score,
    after the below-minimum (0, 1) corner."""
    union = np.unique(scores.all_scores())
    lo = float(union[0]) - max(1e-9, (float(union[-1]) - float(union[0])) * 1e-3)
    return [(lo, 0.0, 1.0)] + [(float(t), *far_frr(scores, float(t))) for t in union]


def _roc_reference(scores, points):
    all_scores = scores.all_scores()
    return [(float(t), *far_frr(scores, float(t)))
            for t in np.linspace(float(all_scores.min()), float(all_scores.max()), points)]


def _protocol_like_scores(rng, n, flip_rate):
    """Distances sqrt(h) / (sqrt(|q|) + sqrt(|t|)) of 128-bit templates with
    Hamming counts h drawn at ``flip_rate``: the value set the protocol
    produces, tens of thousands of distinct scores at 10^6 pairs."""
    q, t = rng.binomial(128, 0.5, n), rng.binomial(128, 0.5, n)
    h = np.minimum(rng.binomial(128, flip_rate, n), q + t)
    return np.sqrt(h) / (np.sqrt(q) + np.sqrt(t))


class TestSortedSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("levels", [2, 5, 40, None])
    def test_operating_points_and_eer_equal_far_frr_sweep(self, seed, levels, monkeypatch):
        scores = _graded_scores(seed, levels, 300, 2_000)
        reference = _sweep_points(scores)
        assert evaluation._operating_points(scores) == reference
        value = eer(scores)
        monkeypatch.setattr(evaluation, "_operating_points", _sweep_points)
        assert value == eer(scores)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("levels", [2, 5, 40, None])
    def test_roc_grid_equals_far_frr_sweep(self, seed, levels):
        scores = _graded_scores(seed, levels, 300, 2_000)
        assert roc_grid(scores, 257) == _roc_reference(scores, 257)

    def test_single_value_sides(self):
        scores = _scores([0.5, 0.5, 0.5], [0.5, 0.5])
        assert evaluation._operating_points(scores) == _sweep_points(scores)


# A per-threshold sweep scans all N scores once per distinct score: at the
# 24,745 distinct values of the scale test's 1.206 M scores that is about
# 37 s at 1.5 ms per far_frr call on a 2-vCPU VM, against under 0.1 s for
# eer plus roc_grid through the sorted sweep.  The bound sits well clear of both.
SCALE_BOUND_S = 5.0


def test_metrics_exact_below_quadratic_cost_at_a_million_scores():
    rng = np.random.default_rng(rand.derive_seed(0, "metrics-scale"))
    scores = ScoreSet(genuine=_protocol_like_scores(rng, 6_000, 0.3),
                      impostor=_protocol_like_scores(rng, 1_200_000, 0.5))
    assert scores.impostor.size >= 10**6
    start = time.perf_counter()
    value, threshold = eer(scores)
    rows = roc_grid(scores)
    elapsed = time.perf_counter() - start

    points = evaluation._operating_points(scores)
    assert len(points) > 20_000
    sampled = [points[i] for i in np.linspace(1, len(points) - 1, 200).astype(int)]
    sampled += [rows[i] for i in np.linspace(0, len(rows) - 1, 200).astype(int)]
    for t, far, frr in sampled:
        assert (far, frr) == far_frr(scores, t)
    assert 0.0 < value <= min(max(far, frr) for _, far, frr in sampled)
    assert points[1][0] <= threshold <= points[-1][0]
    assert elapsed < SCALE_BOUND_S, f"eer + roc_grid took {elapsed:.2f} s"


def _feature_corpus(num_subjects, probe_counts, seed, dim=64, noise=0.6):
    """Gallery vector and probe vectors around one centroid per subject;
    ``probe_counts`` is one count for all subjects or a list of counts."""
    rng = np.random.default_rng(seed)
    counts = probe_counts if isinstance(probe_counts, list) else [probe_counts] * num_subjects
    centers = rng.standard_normal((num_subjects, dim))
    gallery = {f"s{s}": centers[s] + noise * rng.standard_normal(dim) for s in range(num_subjects)}
    probes = {f"s{s}": [centers[s] + noise * rng.standard_normal(dim) for _ in range(counts[s])]
              for s in range(num_subjects)}
    return gallery, probes


def _per_pair_distances(gallery, probes, bit_length, master_seed):
    """Reference protocol: every (probe, template) pair scored on its own
    with binarize(project(...)) and template_distance, rows in probe order
    and columns in subject order, each template under its subject's key."""
    subjects = sorted(gallery)
    enrolled = {}
    for sid in subjects:
        key = UserKey(user_id=sid, seed=rand.derive_seed(master_seed, sid, "protocol", 1), bit_length=bit_length)
        basis = basis_for_key(key, gallery[sid].shape[0])
        enrolled[sid] = (basis, binarize(project(gallery[sid], basis)))
    return np.array([
        [template_distance(binarize(project(f, enrolled[sid][0])), enrolled[sid][1]) for sid in subjects]
        for pid in sorted(probes) for f in probes[pid]
    ])


class TestProtocol:
    def test_score_counts(self):
        gallery, probes = _feature_corpus(4, 2, seed=1)
        result = protocol_from_features(gallery, probes, 32, master_seed=11).scores
        assert result.genuine.size == 4 * 2
        assert result.impostor.size == 4 * 3 * 2

    def test_scores_match_hand_loop(self):
        gallery, probes = _feature_corpus(3, 2, seed=3)
        result = protocol_from_features(gallery, probes, 32, master_seed=12).scores
        reference = _per_pair_distances(gallery, probes, 32, 12)
        probe_ids = [pid for pid in sorted(probes) for _ in probes[pid]]
        genuine, impostor = [], []
        for pid, row in zip(probe_ids, reference.tolist()):
            for sid, score in zip(sorted(gallery), row):
                (genuine if sid == pid else impostor).append(score)
        assert result.genuine.tolist() == genuine
        assert result.impostor.tolist() == impostor

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bit_length", [32, 64, 128])
    def test_matrix_equals_per_pair_reference(self, seed, bit_length):
        gallery, probes = _feature_corpus(7, [1, 3, 0, 2, 5, 1, 4], seed=seed, dim=128)
        # An all-zero gallery vector gives an all-zero template: each of its
        # distances is 1 while the probe bits are not all zero too.
        gallery["s3"] = np.zeros(128)
        run = protocol_from_features(gallery, probes, bit_length, master_seed=seed + 100)
        reference = _per_pair_distances(gallery, probes, bit_length, seed + 100)
        assert np.array_equal(run.matches.distances, reference)
        assert run.matches.gallery_ids == tuple(sorted(gallery))
        assert run.matches.probe_ids == tuple(pid for pid in sorted(probes) for _ in probes[pid])
        assert run.report.crr == _crr_reference(run.matches)

    def test_both_templates_all_zero_is_undefined(self):
        gallery, probes = _feature_corpus(3, 1, seed=4)
        gallery["s0"] = np.zeros(64)
        probes["s1"] = [np.zeros(64)]
        with pytest.raises(UndefinedScoreError):
            protocol_from_features(gallery, probes, 32, master_seed=13)

    def test_feature_shapes_must_agree(self):
        gallery, probes = _feature_corpus(3, 1, seed=4)
        probes["s1"] = [np.zeros(65)]
        with pytest.raises(DimensionError):
            protocol_from_features(gallery, probes, 32, master_seed=13)

    def test_uneven_probe_counts(self):
        gallery, probes = _feature_corpus(3, [2, 1, 1], seed=5)
        result = protocol_from_features(gallery, probes, 32, master_seed=14).scores
        total_probes = sum(len(v) for v in probes.values())
        assert result.genuine.size == total_probes
        assert result.impostor.size == total_probes * 2

    def test_needs_two_subjects(self):
        gallery, probes = _feature_corpus(1, 2, seed=6)
        with pytest.raises(ProtocolError):
            protocol_from_features(gallery, probes, 32, master_seed=15)

    def test_probe_without_gallery_rejected(self):
        gallery, _ = _feature_corpus(2, 1, seed=7)
        _, probes = _feature_corpus(3, 1, seed=8)
        with pytest.raises(ProtocolError):
            protocol_from_features(gallery, probes, 32, master_seed=16)

    def test_empty_gallery_subject_rejected(self, tiny_net):
        rng = np.random.default_rng(9)
        images = {sid: [rng.uniform(0, 1, (16, 32)) for _ in range(2)] for sid in ("s0", "s1")}
        with pytest.raises(DataError, match="'s0' has 0 samples"):
            stream_features(tiny_net, dict(images, s0=[]), 1)
        with pytest.raises(DataError, match="gallery count"):
            stream_features(tiny_net, images, 0)
        # Two samples and a gallery of two leave s0 no probe.
        with pytest.raises(DataError, match="'s0' has 2 samples"):
            stream_features(tiny_net, images, 2)

    def test_scores_from_matches_partition(self):
        s = scores_from_matches(_matrix([[0.1, 0.6], [0.7, 0.2]], ("a", "b")))
        assert sorted(s.genuine.tolist()) == [0.1, 0.2]
        assert sorted(s.impostor.tolist()) == [0.6, 0.7]

    def test_scores_from_matches_row_major_order(self):
        s = scores_from_matches(_matrix([[0.1, 0.6, 0.3], [0.7, 0.2, 0.4], [0.5, 0.8, 0.9]],
                                        ("a", "b", "a"), gallery_ids=("a", "b", "c")))
        assert s.genuine.tolist() == [0.1, 0.2, 0.5]
        assert s.impostor.tolist() == [0.6, 0.3, 0.7, 0.4, 0.8, 0.9]

    @pytest.mark.parametrize("role", ["gallery", "probe"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused_before_any_basis(self, monkeypatch, role, bad):
        gallery, probes = _feature_corpus(5, 2, seed=17)
        if role == "gallery":
            gallery["s3"] = np.where(np.arange(64) == 7, bad, gallery["s3"])
        else:
            probes["s3"][1] = np.full(64, bad)
        built, forks = _count_calls(monkeypatch, pipeline, "basis_for_key"), _count_forks(monkeypatch)
        _force_processes(monkeypatch, 2)
        with pytest.raises(DataError, match=f"{role} features of subject 's3' are not finite"):
            protocol_from_features(gallery, probes, 32, master_seed=18)
        assert built == [] and forks == []


def _force_processes(monkeypatch, n):
    """Split every protocol into n processes: n usable CPUs, a one-thread
    BLAS pool and one subject per process at least."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(pipeline, "MIN_SUBJECTS_PER_PROCESS", 1)


def _count_calls(monkeypatch, owner, name):
    """A list that gains the result of each call of owner.name that returns
    in this process (for os.fork, the pid of each child)."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_forks(monkeypatch):
    return _count_calls(monkeypatch, os, "fork")


def _fail_for(monkeypatch, failing, slow=()):
    """basis_for_key raises DegenerateKeyError for the subject ``failing``
    and sleeps for a minute before the subjects in ``slow``."""
    real = pipeline.basis_for_key

    def patched(key, feature_dim):
        if key.user_id == failing:
            raise DegenerateKeyError(f"injected: key of {key.user_id!r} is rank-deficient")
        if key.user_id in slow:
            time.sleep(60)
        return real(key, feature_dim)

    monkeypatch.setattr(pipeline, "basis_for_key", patched)


def _assert_no_child_process(pids):
    """No child is left running or unreaped.  Another live child of the test
    process (a spawn context's resource tracker) may make waitpid return
    (0, 0), but none may have exited unreaped, and every pid forked here is
    gone."""
    assert multiprocessing.active_children() == []
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        pass
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _outputs(run):
    return (
        run.matches.distances.tobytes(),
        run.matches.probe_ids,
        run.matches.gallery_ids,
        run.scores.genuine.tobytes(),
        run.scores.impostor.tobytes(),
        json.dumps(run.report.to_dict(), sort_keys=True, separators=(",", ":")),
    )


class TestProtocolSplit:
    """The protocol's subjects split into contiguous column blocks, one per
    process; the split may change nothing but where the bases are built."""

    # 7 subjects: blocks of 3 + 4 in two processes and 2 + 2 + 3 in three.
    @pytest.mark.parametrize("processes", [2, 3])
    def test_split_is_byte_identical_to_one_process(self, monkeypatch, processes):
        gallery, probes = _feature_corpus(7, [1, 3, 0, 2, 5, 1, 4], seed=21, dim=128)
        one = protocol_from_features(gallery, probes, 64, master_seed=22)
        forks = _count_forks(monkeypatch)
        _force_processes(monkeypatch, processes)
        split = protocol_from_features(gallery, probes, 64, master_seed=22)
        assert len(forks) == processes - 1
        assert _outputs(split) == _outputs(one)
        _assert_no_child_process(forks)

    def test_process_count_follows_cpus_and_subjects(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        per = pipeline.MIN_SUBJECTS_PER_PROCESS
        counts = [parallel.process_count(s, 1, per) for s in (2, 2 * per - 1, 2 * per, 3 * per, 100 * per)]
        assert counts == [1, 1, 2, 3, 4]
        monkeypatch.delattr(os, "fork")
        assert parallel.process_count(100 * per, 1, per) == 1

    def test_desk_protocol_stays_in_one_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        assert pipeline.MIN_SUBJECTS_PER_PROCESS > 10
        assert parallel.process_count(20, 1, pipeline.MIN_SUBJECTS_PER_PROCESS) == 1

    def test_child_error_reraises_in_the_parent(self, monkeypatch):
        gallery, probes = _feature_corpus(7, 2, seed=23)
        forks = _count_forks(monkeypatch)
        _force_processes(monkeypatch, 3)
        _fail_for(monkeypatch, "s5")
        with pytest.raises(DegenerateKeyError, match=r"^injected: key of 's5' is rank-deficient$"):
            protocol_from_features(gallery, probes, 32, master_seed=24)
        assert len(forks) == 2
        _assert_no_child_process(forks)

    def test_child_that_dies_without_a_result_raises(self, monkeypatch):
        gallery, probes = _feature_corpus(7, 2, seed=23)
        forks = _count_forks(monkeypatch)
        _force_processes(monkeypatch, 2)
        real = pipeline.basis_for_key
        monkeypatch.setattr(pipeline, "basis_for_key",
                            lambda key, dim: os._exit(3) if key.user_id == "s5" else real(key, dim))
        with pytest.raises(RuntimeError, match=r"scoring columns 3\.\.6 ended without a result"):
            protocol_from_features(gallery, probes, 32, master_seed=24)
        _assert_no_child_process(forks)

    def test_parent_error_kills_its_children(self, monkeypatch):
        gallery, probes = _feature_corpus(7, 2, seed=23)
        forks = _count_forks(monkeypatch)
        _force_processes(monkeypatch, 2)
        # The parent scores s0..s2 and fails at once; the child would sleep
        # a minute before each of its subjects unless it is killed.
        _fail_for(monkeypatch, "s1", slow={"s3", "s4", "s5", "s6"})
        t0 = time.perf_counter()
        with pytest.raises(DegenerateKeyError, match="'s1'"):
            protocol_from_features(gallery, probes, 32, master_seed=24)
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1
        _assert_no_child_process(forks)

    def test_another_live_thread_keeps_one_process(self, monkeypatch):
        gallery, probes = _feature_corpus(7, 2, seed=25)
        one = protocol_from_features(gallery, probes, 32, master_seed=26)
        forks = _count_forks(monkeypatch)
        _force_processes(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run = protocol_from_features(gallery, probes, 32, master_seed=26)
        finally:
            release.set()
            other.join()
        assert forks == []
        assert _outputs(run) == _outputs(one)

    def test_unflushed_stdout_line_is_written_once(self):
        # stdout to a pipe is block-buffered, so the line is still in the
        # buffer when the children fork.
        script = textwrap.dedent("""
            import os
            import numpy as np
            from dorsalhash import parallel, pipeline
            forks = []
            real_fork = os.fork
            os.fork = lambda: forks.append(1) or real_fork()
            parallel.usable_cpus = lambda: 3
            pipeline.MIN_SUBJECTS_PER_PROCESS = 1
            rng = np.random.default_rng(0)
            gallery = {f"s{s}": rng.standard_normal(32) for s in range(6)}
            probes = {sid: [v + rng.standard_normal(32)] for sid, v in gallery.items()}
            print("written before the protocol")
            pipeline.protocol_from_features(gallery, probes, 32, master_seed=0)
            print("forks", len(forks))
        """)
        proc = run_fresh("-X", "dev", "-W", "error::ResourceWarning", "-c", script,
                         env={"OPENBLAS_NUM_THREADS": "1", "PYTHONUNBUFFERED": None})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "written before the protocol\nforks 2\n"
        assert proc.stderr == ""


class TestStreamFeatures:
    """stream_features and fuse_streams against per-image references: the
    gallery mean over separately extracted gallery images, each probe
    through its own forward pass, and fuse_features per sample."""

    @staticmethod
    def _samples(seed, subjects=("s0", "s1", "s2"), count=4):
        rng = np.random.default_rng(seed)
        return {sid: [rng.uniform(0, 1, (16, 32)) for _ in range(count)] for sid in subjects}

    def test_equals_separate_gallery_and_probe_extraction(self, tiny_net):
        samples = self._samples(21)
        gallery, probes = stream_features(tiny_net, samples, 3)
        assert list(gallery) == list(probes) == sorted(samples)
        for sid, imgs in samples.items():
            assert np.array_equal(gallery[sid], tiny_net.extract_features(imgs[:3]).mean(axis=0))
            assert len(probes[sid]) == 1
            assert np.array_equal(probes[sid][0], tiny_net.forward(imgs[3])[0])

    def test_fuse_streams_fuses_sample_k_of_every_stream(self, tiny_net):
        streams = {name: stream_features(tiny_net, self._samples(seed), 2)
                   for name, seed in (("nail", 22), ("major", 23))}
        gallery, probes = fuse_streams(streams)
        order = ("major", "nail")
        for sid in gallery:
            assert np.array_equal(gallery[sid], fuse_features([streams[n][0][sid] for n in order]))
            assert len(probes[sid]) == 2
            for k, fused in enumerate(probes[sid]):
                assert np.array_equal(fused, fuse_features([streams[n][1][sid][k] for n in order]))

    def test_fuse_streams_rejects_mismatched_streams(self):
        gallery, probes = _feature_corpus(3, 2, seed=24)
        with pytest.raises(DataError, match=">= 2 streams"):
            fuse_streams({"major": (gallery, probes)})
        fewer = {sid: v for sid, v in gallery.items() if sid != "s2"}
        with pytest.raises(DataError, match=r"gallery subjects: minor lacks \['s2'\]$"):
            fuse_streams({"major": (gallery, probes), "minor": (fewer, probes)})
        other = {sid: v for sid, v in gallery.items() if sid != "s0"}
        with pytest.raises(DataError, match=r"major lacks \['s0'\]; minor lacks \['s2'\]$"):
            fuse_streams({"major": (other, probes), "minor": (fewer, probes)})
        short = dict(probes, s1=probes["s1"][:1])
        with pytest.raises(DataError, match="probe count for subject 's1'"):
            fuse_streams({"major": (gallery, probes), "minor": (gallery, short)})


class TestMetricsReport:
    def test_validation(self):
        with pytest.raises(DataError):
            MetricsReport(eer=0.7, eer_threshold=0.5, crr=90.0, di=1.0, roc=())
        with pytest.raises(DataError):
            MetricsReport(eer=0.1, eer_threshold=0.5, crr=101.0, di=1.0, roc=())
        with pytest.raises(DataError):
            MetricsReport(
                eer=0.1, eer_threshold=0.5, crr=90.0, di=1.0,
                roc=((0.2, 0.0, 1.0), (0.1, 0.5, 0.5)),
            )

    def test_to_dict_round_trip_fields(self):
        report = MetricsReport(
            eer=0.05, eer_threshold=0.4, crr=97.5, di=2.1,
            roc=((0.1, 0.0, 1.0), (0.9, 1.0, 0.0)),
        )
        d = report.to_dict()
        assert d["eer"] == 0.05
        assert d["roc"] == [[0.1, 0.0, 1.0], [0.9, 1.0, 0.0]]
