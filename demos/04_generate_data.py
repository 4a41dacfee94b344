"""Tour the synthetic sequence generator and its three noise
conditions.

Sequences are runs of class segments: each segment holds one class mean
for a few frames, and the label sequence lists the classes in order with
no framewise annotation.  Training corrupts features with Gaussian noise
(the seen condition); evaluation adds a second corruption the model
never trained on (uniform noise, wider, plus a constant per-sequence
offset).  The script prints sample structure, confirms the conditions
differ the way they should, and round-trips a dataset through disk.
"""

import dataclasses
import filecmp
import tempfile
from pathlib import Path

import numpy as np

from tmfusion import synth


def main():
    cfg = synth.GeneratorConfig(num_classes=4, feature_dim=6,
                                segment_length=(3, 6),
                                labels_per_sequence=(2, 5), seed=42)

    sample = synth.generate(cfg, 1)[0]
    print("one clean sample:")
    print("  labels        ", [int(v) for v in sample.collapsed])
    print("  frames        ", sample.x.shape)
    print("  segment starts", [i for i in range(len(sample.framewise))
                               if i == 0
                               or sample.framewise[i]
                               != sample.framewise[i - 1]])
    print()

    means = synth.class_means(cfg)
    clean = synth.generate(cfg, 200)
    hits = sum(
        int(np.argmin(np.linalg.norm(means - f, axis=1)) + 1 == lab)
        for s in clean for f, lab in zip(s.x, s.framewise))
    frames = sum(len(s.framewise) for s in clean)
    print("clean frames sit near their class means:")
    print("  nearest-mean accuracy %.1f%% over %d frames"
          % (100.0 * hits / frames, frames))
    print()

    seen_cfg = dataclasses.replace(cfg, noise_condition="seen")
    unseen_cfg = dataclasses.replace(cfg, noise_condition="unseen")
    seen = synth.generate(seen_cfg, 200)
    unseen = synth.generate(unseen_cfg, 200)
    def residuals(samples):
        return np.concatenate([
            (s.x - means[np.asarray(s.framewise) - 1]).ravel()
            for s in samples])
    r_seen, r_unseen = residuals(seen), residuals(unseen)
    print("noise residuals around the class means:")
    print("  seen    var %.4f  max |r| %.2f" % (r_seen.var(),
                                                np.abs(r_seen).max()))
    print("  unseen  var %.4f  max |r| %.2f" % (r_unseen.var(),
                                                np.abs(r_unseen).max()))
    print("the unseen condition is wider but bounded; the seen condition")
    print("is Gaussian, so its tails run past the unseen bound.")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.npz"
        b = Path(tmp) / "b.npz"
        synth.save_dataset(clean[:20], a)
        synth.save_dataset(synth.load_dataset(a), b)
        print("disk round trip byte-identical:", filecmp.cmp(a, b,
                                                             shallow=False))


if __name__ == "__main__":
    main()
