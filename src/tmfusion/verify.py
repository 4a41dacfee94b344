"""Cross-validation suites: every DP table, loss value, and analytic
gradient against its brute-force or finite-difference reference.

Each suite returns (max_error, instance_count); the CLI `check`
subcommand wraps them with tolerances and exit codes, and the test suite
calls them directly.

Three suites run many lattices for one instance, and put them in one
``ctc.forward_backward_batch`` call: ``partition`` every feasible
labeling of one posterior, ``grad_ml`` and ``grad_full`` the 2n points
of one finite difference (``oracle.finite_diff`` hands them over
stacked).  ``grad_ml`` takes the softmax of all its points in one call,
``grad_full`` runs the network once for all of them, each point's
parameters a view of its row, and ``grad_ecl`` and ``grad_full`` take
one ECL table for all their points.  Their errors keep every bit of a
per-point loop: the batched lattice and network equal
``forward_backward`` and ``forward`` on each point bit for bit, each
point sums its own contiguous slice of the ECL table, the points are
built by the same elementwise additions, and the partition sums its
probabilities in enumeration order.
"""

import copy

import numpy as np

from . import ctc, losses, model, oracle


def _random_posteriors(rng, T, K):
    y = rng.uniform(0.1, 1.0, (T, K))
    return y / y.sum(axis=1, keepdims=True)


def _random_labels(rng, K, T, r_max):
    while True:
        r = int(rng.integers(0, r_max + 1))
        z = rng.integers(1, K, r)
        if ctc.min_frames(z) <= T:
            return z


def seq_prob_suite(n=200, seed=0):
    """DP sequence probability vs. path enumeration, probability domain."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 7))
        y = _random_posteriors(rng, T, K)
        z = _random_labels(rng, K, T, 3)
        dp = np.exp(ctc.forward_backward(y, z).log_seq_prob)
        bf = oracle.brute_force_seq_prob(y, z)
        worst = max(worst, abs(dp - bf))
    return worst, n


def occupancy_suite(n=100, seed=1):
    """DP literal occupancy and ECL vs. their brute-force counterparts."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 4))
        T = int(rng.integers(2, 6))
        y = _random_posteriors(rng, T, K)
        z = _random_labels(rng, K, T, 2)
        tables = ctc.forward_backward(y, z)
        gamma = ctc.occupancy(tables, "paper_literal")
        occ = oracle.brute_force_occupancy(y, z)
        worst = max(worst, float(np.abs(gamma - occ).max()))

        D = 3
        u = rng.normal(size=(T, D))
        bank = losses.CenterBank(K - 1, D)
        bank.centers = rng.normal(size=bank.centers.shape)
        dp_ecl = losses.ecl(u, gamma[:, 1::2], bank.gather(tables.zp[1::2]))
        bf_ecl = oracle.brute_force_ecl(
            y, z, u, dict(enumerate(bank.centers, start=1)))
        worst = max(worst, abs(dp_ecl - bf_ecl))
    return worst, n


def partition_suite(n=20, K=3, T=5, seed=2):
    """Sum of DP probabilities over every labeling equals one."""
    labelings = [np.array(z) for z in oracle.all_label_sequences(K - 1, T)]
    labelings = [z for z in labelings if ctc.min_frames(z) <= T]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        y = _random_posteriors(rng, T, K)
        total = 0.0
        for tables in ctc.forward_backward_batch([y] * len(labelings), labelings):
            total += np.exp(tables.log_seq_prob)
        worst = max(worst, abs(total - 1.0))
    return worst, n


def consistency_suite(n=100, seed=3):
    """Per-frame forward-backward identity: summing alpha*beta with the
    emission divided out reproduces the sequence log probability."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 6))
        T = int(rng.integers(2, 10))
        y = _random_posteriors(rng, T, K)
        z = _random_labels(rng, K, T, 4)
        tables = ctc.forward_backward(y, z)
        stack = tables.log_alpha + tables.log_beta - np.log(y)[:, tables.zp]
        peak = stack.max(axis=1, keepdims=True)
        lse = (peak[:, 0] + np.log(np.exp(stack - peak).sum(axis=1)))
        worst = max(worst, float(np.abs(lse - tables.log_seq_prob).max()))
    return worst, n


def grad_ml_suite(n=50, seed=4):
    """Softmax-layer CTC error signal vs. finite differences of the
    likelihood loss with respect to the logits."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        z = _random_labels(rng, K, T, 2)
        logits = rng.normal(size=(T, K))

        def loss_of(points):
            ys = list(model.softmax(points.reshape(len(points), T, K)))
            return [-tables.log_seq_prob
                    for tables in ctc.forward_backward_batch(ys, [z] * len(ys))]

        y = model.softmax(logits)
        tables = ctc.forward_backward(y, z)
        analytic = ctc.ctc_grad_logits(tables, y).ravel()
        fd = oracle.finite_diff(loss_of, logits.ravel())
        worst = max(worst, _rel_err(analytic, fd))
    return worst, n


def grad_ecl_suite(n=50, seed=5):
    """Feature-space ECL error signal (doubled, to undo the absorbed
    factor) vs. finite differences of the ECL value."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        D = int(rng.integers(2, 5))
        y = _random_posteriors(rng, T, K)
        z = _random_labels(rng, K, T, 2)
        tables = ctc.forward_backward(y, z)
        gamma = ctc.occupancy(tables, "paper_literal")
        bank = losses.CenterBank(K - 1, D)
        bank.centers = rng.normal(size=bank.centers.shape)
        u = rng.normal(size=(T, D))
        w, centers = gamma[:, 1::2], bank.gather(tables.zp[1::2])

        def ecl_of(points):
            terms = losses.ecl_terms(points.reshape(len(points), T, D), w, centers)
            return [float(t.sum()) for t in terms]

        analytic = 2.0 * losses.ecl_grad_features(u, w, centers).ravel()
        fd = oracle.finite_diff(ecl_of, u.ravel())
        worst = max(worst, _rel_err(analytic, fd))
    return worst, n


def tmf_network_loss(state, points, x, z, lam, w, centers):
    """Fused sequence loss of one input at each flat parameter vector in
    ``points``, with the label occupancy weights ``w`` and the gathered
    ``centers`` held fixed (how the learning rule treats them).  One
    ``forward_stacks`` call runs the input at every point, each point's
    parameters a view of its row; the lattices run as one batch and the
    ECL terms as one table.  The state is left as it was."""
    points_state = copy.copy(state)
    points_state.params = state.unflatten(points)
    _, u, _, y = model.forward_stacks(points_state, [x] * len(points))
    batch = ctc.forward_backward_batch(list(y), [z] * len(points))
    return [-tables.log_seq_prob + lam * float(terms.sum())
            for tables, terms in zip(batch, losses.ecl_terms(u, w, centers))]


def grad_full_suite(n=50, seed=6, lam=0.05):
    """Whole-network chain: the fused error signal pushed through
    backward() vs. finite differences of the fused loss over every
    parameter.  Occupancy weights and centers are frozen at the base
    point (they are updated by their own rules, not differentiated), and
    the feature-space signal is doubled to undo the absorbed factor."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n):
        spec = model.NetworkSpec(input_dim=4, hidden=[5], num_classes=4,
                                 recurrent=bool(i % 2))
        state = model.ModelState(spec, seed=int(rng.integers(1 << 30)))
        T = 5
        x = rng.normal(size=(T, spec.input_dim))
        z = _random_labels(rng, spec.num_classes, T, 2)
        bank = losses.CenterBank(spec.num_classes - 1, spec.feature_dim)
        bank.centers = rng.normal(size=bank.centers.shape)

        u, _, y = model.forward(state, x)
        tables = ctc.forward_backward(y, z)
        w = ctc.occupancy(tables, "paper_literal")[:, 1::2]
        centers = bank.gather(tables.zp[1::2])
        delta_ml = ctc.ctc_grad_logits(tables, y)
        delta_ecl = losses.ecl_grad_features(u, w, centers)
        fused = losses.fuse_feature_grad(delta_ml, state.params["W"], delta_ecl, 2.0 * lam)
        grads = model.backward(state, delta_ml, fused)
        analytic = np.concatenate([grads[k].ravel() for k in state.param_names()])

        def loss_of(points):
            return tmf_network_loss(state, points, x, z, lam, w, centers)

        fd = oracle.finite_diff(loss_of, state.flat_params())
        worst = max(worst, _rel_err(analytic, fd))
    return worst, n


def _rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


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
