"""Cross-validation suites: every DP table, loss value, and analytic
gradient against its brute-force or finite-difference reference.

Each suite returns (max_error, instance_count); the CLI `check`
subcommand wraps them with tolerances and exit codes, and the test suite
calls them directly.  The max error is NaN when any instance's error is
NaN, so that such a suite fails.

The instances are drawn as probabilities, which the brute-force oracles
take, all first and in the order a loop over instances would draw them.
Each suite then runs its lattices and networks in few batched calls: on
all its instances, on every feasible labeling of one posterior
(``partition``), or on the 2n points of one finite difference
(``oracle.finite_diff`` hands them over stacked).  ``grad_ml`` and
``grad_ecl`` take each base point's tables from the one-pair
``ctc.forward_backward`` on purpose, so that the public B=1 API stays
under check.  ``grad_full`` scores its points by training's own
objective code (``model._alignment`` and ``model.sequence_losses``), not
a copy of it.  The errors keep every bit of a per-instance loop: the
batched lattice and network equal a call per instance bit for bit, the
points are built by the same elementwise additions, each sums its own
contiguous block of an ECL table, and the partition sums its
probabilities in enumeration order.
"""

import copy

import numpy as np

from . import ctc, losses, model, oracle, synth


def _random_posteriors(rng, T, K):
    y = rng.uniform(0.1, 1.0, (T, K))
    return y / y.sum(axis=1, keepdims=True)


def _random_labels(rng, K, T, r_max):
    while True:
        r = int(rng.integers(0, r_max + 1))
        z = rng.integers(1, K, r)
        if ctc.min_frames(z) <= T:
            return z


def _random_instance(rng, K_hi, T_hi, r_max):
    """K in [2, K_hi) classes, T in [2, T_hi) frames, their posteriors
    and a labeling of at most r_max labels that fits."""
    K = int(rng.integers(2, K_hi))
    T = int(rng.integers(2, T_hi))
    y = _random_posteriors(rng, T, K)
    return y, _random_labels(rng, K, T, r_max)


def _lattice(ys, zs):
    """One forward_backward_batch call on the instances (y, z): the logs
    of their posteriors stacked, padded with 0.0 (the lattice reads only
    each instance's own frames and classes)."""
    stack = np.zeros((len(ys), max(len(y) for y in ys), max(y.shape[1] for y in ys)))
    for row, y in zip(stack, ys):
        row[:len(y), :y.shape[1]] = np.log(y)
    return ctc.forward_backward_batch(stack, [len(y) for y in ys], zs)


def seq_prob_suite(n=200, seed=0):
    """DP sequence probability vs. path enumeration, probability domain."""
    rng = np.random.default_rng(seed)
    ys, zs = zip(*[_random_instance(rng, 5, 7, 3) for _ in range(n)])
    # only log p(z|x) is read: the tables go before the oracles run
    log_ps = _lattice(ys, zs).log_seq_prob
    errors = [abs(np.exp(log_p) - oracle.brute_force_seq_prob(y, z))
              for y, z, log_p in zip(ys, zs, log_ps)]
    return _max_err(errors), n


def occupancy_suite(n=100, seed=1):
    """DP occupancy and ECL vs. their brute-force counterparts: the raw
    alpha*beta product vs. the path mass of each cell, and the occupancy
    vs. that mass with each frame's row divided by its sum."""
    rng = np.random.default_rng(seed)
    D, cases = 3, []
    for _ in range(n):
        y, z = _random_instance(rng, 4, 6, 2)
        u = rng.normal(size=(len(y), D))
        bank = losses.CenterBank(y.shape[1] - 1, D)
        bank.centers = rng.normal(size=bank.centers.shape)
        cases.append((y, z, u, bank))
    ys, zs, _, _ = zip(*cases)
    batch, errors = _lattice(ys, zs), []
    for b, (y, z, u, bank) in enumerate(cases):
        tables = batch.sequence(b)
        gamma = ctc.occupancy(tables)
        occ = oracle.brute_force_occupancy(y, z)
        errors.append(float(np.abs(np.exp(tables.log_alpha + tables.log_beta) - occ).max()))
        errors.append(float(np.abs(gamma - occ / occ.sum(axis=1, keepdims=True)).max()))
        dp_ecl = losses.ecl(u, gamma[:, 1::2], bank.gather(tables.zp[1::2]))
        bf_ecl = oracle.brute_force_ecl(
            y, z, u, dict(enumerate(bank.centers, start=1)))
        errors.append(abs(dp_ecl - bf_ecl))
    return _max_err(errors), n


def partition_suite(n=20, K=3, T=5, seed=2):
    """Sum of DP probabilities over every labeling equals one."""
    labelings = [np.array(z) for z in oracle.all_label_sequences(K - 1, T)]
    labelings = [z for z in labelings if ctc.min_frames(z) <= T]
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n):
        y = _random_posteriors(rng, T, K)
        total = 0.0
        for log_p in ctc.log_seq_probs(np.broadcast_to(np.log(y), (len(labelings), T, K)),
                                       [T] * len(labelings), labelings):
            total += np.exp(log_p)
        errors.append(abs(total - 1.0))
    return _max_err(errors), n


def consistency_suite(n=100, seed=3):
    """Per-frame forward-backward identity: summing alpha*beta with the
    emission divided out reproduces the sequence log probability."""
    rng = np.random.default_rng(seed)
    ys, zs = zip(*[_random_instance(rng, 6, 10, 4) for _ in range(n)])
    batch, errors = _lattice(ys, zs), []
    for b in range(n):
        tables = batch.sequence(b)
        stack = tables.log_alpha + tables.log_beta - tables.log_emissions
        peak = stack.max(axis=1, keepdims=True)
        lse = (peak[:, 0] + np.log(np.exp(stack - peak).sum(axis=1)))
        errors.append(float(np.abs(lse - tables.log_seq_prob).max()))
    return _max_err(errors), n


def grad_ml_suite(n=50, seed=4):
    """Softmax-layer CTC error signal vs. finite differences of the
    likelihood loss with respect to the logits."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        z = _random_labels(rng, K, T, 2)
        logits = rng.normal(size=(T, K))

        def loss_of(points):
            log_ys, _ = model.log_softmax(points.reshape(len(points), T, K))
            return -ctc.log_seq_probs(log_ys, [T] * len(points), [z] * len(points))

        log_y, y = model.log_softmax(logits)
        tables = ctc.forward_backward(log_y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = oracle.finite_diff(loss_of, logits.ravel())
        errors.append(_rel_err(analytic, fd))
    return _max_err(errors), n


def grad_ecl_suite(n=50, seed=5):
    """Feature-space ECL error signal (doubled, to undo the absorbed
    factor) vs. finite differences of the ECL value."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        D = int(rng.integers(2, 5))
        y = _random_posteriors(rng, T, K)
        z = _random_labels(rng, K, T, 2)
        tables = ctc.forward_backward(np.log(y), z)
        gamma = ctc.occupancy(tables)
        bank = losses.CenterBank(K - 1, D)
        bank.centers = rng.normal(size=bank.centers.shape)
        u = rng.normal(size=(T, D))
        w, centers = gamma[:, 1::2], bank.gather(tables.zp[1::2])

        def ecl_of(points):
            terms = losses.ecl_terms(points.reshape(len(points), T, D), w, centers)
            return [float(t.sum()) for t in terms]

        analytic = 2.0 * losses.ecl_grad_features(u, w, centers).ravel()
        fd = oracle.finite_diff(ecl_of, u.ravel())
        errors.append(_rel_err(analytic, fd))
    return _max_err(errors), n


def network_loss(state, points, batch, settings, bank):
    """The loss whose gradient a training step sums, at each flat
    parameter vector in ``points``, by training's own objective code:
    ``model.sequence_losses`` over the sequences of ``batch``, plus in the
    fusion modes (lam/2) * ECL with ``model._alignment``'s (w, labels)
    frozen at the state's parameters.  One ``forward_stacks`` call runs
    every sequence at those and at every point, the points run the
    lattice's forward rows only, and each sequence sums its own
    (T_b, r_b) block of one ``ecl_terms`` table.  The state is left as it was."""
    B, P, rows = len(batch), len(points), np.vstack([state.flat_params(), points])
    runs = copy.copy(state)
    runs.params = state.unflatten(np.repeat(rows, B, axis=0))
    Ts, stacks, log_y, y = model.forward_stacks(runs, [s.x for s in batch] * (P + 1))
    _, _, w, labels = model._alignment(batch, Ts[:B], log_y[:B], y[:B], settings)
    seq_losses = model.sequence_losses(settings.mode, batch * P, Ts[B:],
                                       log_y[B:]).reshape(P, B)
    if w is not None:
        # label 0 pads, with weight 0
        u = stacks[-1][B:]
        terms = losses.ecl_terms(u.reshape((P, B) + u.shape[1:]), w, bank.centers[labels - 1])
        for b, (Tb, rb) in enumerate(zip(Ts, np.count_nonzero(labels, axis=1))):
            block = np.ascontiguousarray(terms[:, b, :Tb, :rb]).reshape(P, -1)
            seq_losses[:, b] += 0.5 * settings.lam * block.sum(axis=1)
    return seq_losses.sum(axis=1)


def _random_batch(rng, mode, C, F):
    """Two sequences of different lengths in random order, the shorter
    one frame (ce, fmf) or the minimum frames of its labeling (ctc, tmf)."""
    zs = [rng.integers(1, C + 1, int(rng.integers(1, 3))) for _ in range(2)]
    need = [ctc.min_frames(z) if mode in model.TEMPORAL_MODES else 1 for z in zs]
    Ts = [need[0], max(need) + int(rng.integers(1, 3))]
    batch = [synth.SequenceSample(rng.normal(size=(T, F)), rng.integers(1, C + 1, T),
                                  z, "clean") for T, z in zip(Ts, zs)]
    return batch[::-1] if rng.integers(2) else batch


def grad_full_suite(n=50, seed=6, lam=0.1):
    """The summed gradient of ``model._batch_step`` vs. finite differences
    of ``network_loss`` over every parameter.  Instance i trains mode
    MODES[i % 4] on a ``_random_batch`` through one or two hidden layers
    of widths 1 to 3; the recurrence switches every 4 instances.  The
    objective per sequence is CTC or CE + (lam/2) * ECL, lam the training
    weight: the ECL signal omits its factor 2.  ECL weights and centers
    stay frozen at the base point (they move by their own rules, not by
    the gradient)."""
    rng = np.random.default_rng(seed)
    errors, C, F = [], 2, 2
    for i in range(n):
        mode = model.MODES[i % 4]
        settings = model.TrainSettings(mode=mode, lam=lam)
        hidden = [int(h) for h in rng.integers(1, 4, int(rng.integers(1, 3)))]
        spec = model.NetworkSpec(F, hidden, model.output_units(mode, C),
                                 recurrent=bool(i // 4 % 2))
        state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
        bank = losses.CenterBank(C, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)
        batch = _random_batch(rng, mode, C, F)
        _, grads, _ = model._batch_step(state, batch, settings, bank)
        analytic = np.concatenate([grads[k].ravel() for k in state.param_names()])

        def loss_of(points):
            return network_loss(state, points, batch, settings, bank)

        fd = oracle.finite_diff(loss_of, state.flat_params())
        errors.append(_rel_err(analytic, fd))
    return _max_err(errors), n


def _rel_err(a, b):
    scale = np.max([np.abs(a).max(), np.abs(b).max(), 1e-12])
    return float(np.abs(a - b).max() / scale)


def _max_err(errors):
    """A suite's max error: NaN when any error is NaN, so that the
    suite fails its ``err <= tol``."""
    return float(np.max(errors))


SUITES = {
    "seq_prob": (seq_prob_suite, 1e-10, "ctc"),
    "occupancy_ecl": (occupancy_suite, 1e-9, "ctc"),
    "partition": (partition_suite, 1e-9, "ctc"),
    "consistency": (consistency_suite, 1e-8, "ctc"),
    "grad_ml": (grad_ml_suite, 1e-5, "losses"),
    "grad_ecl": (grad_ecl_suite, 1e-5, "losses"),
    "grad_full": (grad_full_suite, 1e-4, "model"),
}


def run_suites(scope="all"):
    """Run the selected suites; yields (name, max_err, tolerance, ok).

    A suite that raises has failed: its max_err is the exception, ok is
    False, and the remaining suites still run."""
    for name, (fn, tol, tag) in SUITES.items():
        if scope != "all" and tag != scope:
            continue
        try:
            err, _ = fn()
        except Exception as exc:
            yield name, exc, tol, False
            continue
        yield name, err, tol, err <= tol
