#!/usr/bin/env python3
"""Small-desk evaluation: synthetic corpus -> training -> EER/CRR per bit length.

Generates an in-memory synthetic identification corpus, trains the feature
extractor on the gallery half, then runs the verification protocol at each
supported template length and prints a summary table.
"""
import argparse
import sys
import time

import numpy as np

from dorsalhash import rand
from dorsalhash.corpus import SyntheticSpec, synthesize_sample
from dorsalhash.network import FixedFilterNet, NetworkConfig, TrainConfig, train
from dorsalhash.hashing import BIT_LENGTHS
from dorsalhash.pipeline import protocol_from_features, stream_features


def build_corpus(spec: SyntheticSpec) -> dict[str, list[np.ndarray]]:
    corpus = {}
    for s in range(spec.num_subjects):
        sid = f"s{s:02d}"
        corpus[sid] = [synthesize_sample(spec, s, i) for i in range(spec.samples_per_subject)]
    return corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--subjects", type=int, default=20)
    ap.add_argument("--samples", type=int, default=12)
    ap.add_argument("--gallery", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--lr", type=float, default=0.03)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spec = SyntheticSpec(
        num_subjects=args.subjects,
        samples_per_subject=args.samples,
        noise_level=args.noise,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    corpus = build_corpus(spec)
    subjects = sorted(corpus)
    print(f"corpus: {len(subjects)} subjects x {args.samples} samples "
          f"({time.perf_counter() - t0:.1f}s)")

    # fc2_dim matches the longest template: at 128 hash bits every feature
    # dimension carries identity, which measures a few points better here
    # than the wider default head.
    cfg = NetworkConfig(num_classes=len(subjects), fc2_dim=128,
                        lbc_seed=rand.derive_seed(args.seed, "model"))
    model = FixedFilterNet.build(cfg)
    images, labels = [], []
    for idx, sid in enumerate(subjects):
        for img in corpus[sid][:args.gallery]:
            images.append(img)
            labels.append(idx)
    t0 = time.perf_counter()
    model.calibrate_dense(images)
    history = train(model, images, labels, epochs=args.epochs,
                    config=TrainConfig(lr=args.lr, shuffle_seed=args.seed, clip_norm=1.0))
    print(f"training: {args.epochs} epochs in {time.perf_counter() - t0:.1f}s, "
          f"final loss {history[-1].loss:.4f}, accuracy {history[-1].accuracy:.3f}")

    t0 = time.perf_counter()
    gallery_feats, probe_feats = stream_features(model, corpus, args.gallery)
    print(f"features: {time.perf_counter() - t0:.1f}s")

    print(f"{'bits':>5} {'EER %':>8} {'CRR %':>8} {'DI':>7} {'thr':>8}")
    for bits in BIT_LENGTHS:
        t0 = time.perf_counter()
        run = protocol_from_features(gallery_feats, probe_feats, bits,
                                     master_seed=rand.derive_seed(args.seed, "keys"))
        r = run.report
        print(f"{bits:>5} {r.eer * 100:>8.3f} {r.crr:>8.2f} {r.di:>7.3f} "
              f"{r.eer_threshold:>8.4f}  ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
