"""Train all four objectives on one small task and compare them.

Two baselines and two fused objectives share the same network, data,
and optimizer:

  ce   framewise cross entropy (needs framewise labels)
  fmf  cross entropy plus a center loss on the features
  ctc  sequence loss over all alignments (needs only label sequences)
  tmf  sequence loss plus the occupancy-weighted expected center loss

The script trains each briefly, prints the validation trace, and closes
with the degeneracy check: at fusion weight zero the fused objectives
reproduce their baselines bit for bit.
"""

import numpy as np

from tmfusion import losses, model, synth


def build(mode, lam, data, seed=9):
    temporal = mode in ("ctc", "tmf")
    K = 4 if temporal else 3
    state = model.ModelState(model.NetworkSpec(5, [12], K, recurrent=True),
                             seed=seed, lr=5e-3)
    bank = losses.CenterBank(3, 12)
    settings = model.TrainSettings(
        mode=mode, batch_size=8, max_batches=120, eval_interval=30,
        seed=seed, lam=lam)
    return model.train(state, bank, data[:160], data[160:], settings)


def main():
    cfg = synth.GeneratorConfig(num_classes=3, feature_dim=5,
                                segment_length=(2, 5),
                                labels_per_sequence=(1, 4),
                                noise_condition="seen", seed=21)
    data = synth.generate(cfg, 200)

    for mode, lam in (("ce", 0.0), ("fmf", 0.05), ("ctc", 0.0),
                      ("tmf", 0.02)):
        _, _, rows = build(mode, lam, data)
        trace = "  ".join("%8.4f" % r["val_score"] for r in rows)
        print("%-4s validation score per eval (higher is better):  %s"
              % (mode, trace))
    print()

    print("fusion weight zero collapses onto the baseline:")
    s_tmf, _, r_tmf = build("tmf", 0.0, data)
    s_ctc, _, r_ctc = build("ctc", 0.0, data)
    same_params = all(np.array_equal(s_tmf.params[k], s_ctc.params[k])
                      for k in s_tmf.param_names())
    print("  tmf(lam=0) vs ctc: parameters identical %s, metrics identical %s"
          % (same_params, r_tmf == r_ctc))

    s_fmf, _, r_fmf = build("fmf", 0.0, data)
    s_ce, _, r_ce = build("ce", 0.0, data)
    same_params = all(np.array_equal(s_fmf.params[k], s_ce.params[k])
                      for k in s_fmf.param_names())
    print("  fmf(lam=0) vs ce:  parameters identical %s, metrics identical %s"
          % (same_params, r_fmf == r_ce))


if __name__ == "__main__":
    main()
