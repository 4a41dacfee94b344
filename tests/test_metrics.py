"""Unit tests for decoding, error rates, and embedding geometry."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmfusion import experiment, losses, metrics, model, synth


def posteriors_for(argmaxes, K=3):
    """A posterior matrix whose per-frame argmax is the given class list."""
    y = np.full((len(argmaxes), K), 0.1)
    for t, c in enumerate(argmaxes):
        y[t, c] = 0.8
    return y / y.sum(axis=1, keepdims=True)


# -------------------------------------------------------------------- decode

def greedy_decode(*ys):
    """The best paths of posterior matrices, decoded as evaluate_model
    decodes a score group: the per-frame argmax of their padded stack
    (ties to the lowest index), then best_paths."""
    Ts = [len(y) for y in ys]
    stack = np.zeros((len(ys), max(Ts), ys[0].shape[1]))
    for b, y in enumerate(ys):
        stack[b, :len(y)] = y
    paths, counts = metrics.best_paths(np.argmax(stack, axis=2), Ts)
    return [path[:count] for path, count in zip(paths.tolist(), counts.tolist())]


def test_greedy_decode_collapses_and_drops_blanks():
    assert greedy_decode(posteriors_for([0, 1, 1, 0, 2])) == [[1, 2]]


def test_greedy_decode_all_blank():
    assert greedy_decode(posteriors_for([0, 0, 0])) == [[]]


def test_greedy_decode_blank_separates_repeat():
    assert greedy_decode(posteriors_for([1, 0, 1])) == [[1, 1]]


def test_greedy_decode_ties_go_to_lowest_index():
    assert greedy_decode(np.full((2, 3), 1.0 / 3.0), np.array([[0.1, 0.45, 0.45]])) == [[], [1]]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_greedy_decode_invariant_to_monotone_transforms(argmaxes):
    y = posteriors_for(argmaxes, K=4)
    base = greedy_decode(y)
    assert greedy_decode(y ** 3, np.exp(y), 10.0 * y + 2.0) == base * 3


def loop_collapse(steps):
    """collapse as a loop over one sequence's steps."""
    out, prev = [], -1
    for c in steps:
        if c != prev and c != 0:
            out.append(c)
        prev = c
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=10), min_size=1,
                max_size=8), st.integers(0, 3))
def test_best_paths_are_collapse_of_each_live_row(rows, pad):
    # padding frames carry a class too; only live frames may reach a path
    T = max(map(len, rows))
    steps = np.array([row + [pad] * (T - len(row)) for row in rows])
    paths, counts = metrics.best_paths(steps, [len(row) for row in rows])
    assert paths.shape == (len(rows), max(counts, default=0))
    for path, count, row in zip(paths.tolist(), counts.tolist(), rows):
        assert path[:count] == loop_collapse(row) == metrics.collapse(np.array(row))
        assert path[count:] == [0] * (len(path) - count)


# ------------------------------------------------------------- edit distance

def quadratic_edit_distance(hyp, ref):
    m, n = len(hyp), len(ref)
    d = np.zeros((m + 1, n + 1), dtype=int)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (hyp[i - 1] != ref[j - 1]))
    return int(d[m, n])


def pair_distances(pairs):
    """edit_distances of (hypothesis, reference) pairs, in one call."""
    return metrics.edit_distances(*metrics._padded([h for h, _ in pairs]),
                                  *metrics._padded([r for _, r in pairs])).tolist()


def test_edit_distance_basics():
    pairs = [([1, 2, 3], [1, 2, 3]), ([], [1, 2]), ([1, 2], []), ([1, 2], [1, 3]),
             ([2, 1], [1, 2])]
    assert pair_distances(pairs) == [0, 2, 2, 1, 2]
    assert metrics.token_error_rate(pairs) == 100.0 * 7 / 9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=10),
       st.lists(st.integers(1, 4), max_size=10))
def test_edit_distance_matches_quadratic_reference(hyp, ref):
    assert pair_distances([(hyp, ref)]) == [quadratic_edit_distance(hyp, ref)]


def ragged_pairs(max_ref):
    # hypotheses up to five times longer than the longest reference
    return st.lists(st.tuples(st.lists(st.integers(1, 4), max_size=5 * max_ref),
                              st.lists(st.integers(1, 4), max_size=max_ref)),
                    max_size=12)


@settings(max_examples=150, deadline=None)
@given(ragged_pairs(6))
@example([([], [1, 2]), ([3, 1], []), ([], []), ([1, 1, 2, 2, 3, 3, 4, 4, 1, 2], [1, 2])])
@example([([1] * 20, [2, 3, 4, 1])])
def test_batched_edit_distances_match_quadratic_reference(pairs):
    hyps, hyp_lens = metrics._padded([h for h, _ in pairs])
    refs, ref_lens = metrics._padded([r for _, r in pairs])
    got = metrics.edit_distances(hyps, hyp_lens, refs, ref_lens)
    assert got.tolist() == [quadratic_edit_distance(h, r) for h, r in pairs]
    tokens = sum(len(r) for _, r in pairs)
    if tokens:
        edits = sum(quadratic_edit_distance(h, r) for h, r in pairs)
        assert metrics.token_error_rate(pairs) == 100.0 * edits / tokens


def test_edit_distances_ignore_padding_values():
    # the cells past each pair's lengths never reach its distance
    hyps, refs = np.array([[1, 2, 9, 9]]), np.array([[1, 3, 9]])
    for fill in (0, 1, 3):
        hyps[0, 2:], refs[0, 2:] = fill, fill
        assert metrics.edit_distances(hyps, np.array([2]), refs, np.array([2])).tolist() == [1]


# ----------------------------------------------------------------------- ter

def test_ter_zero_on_exact_match():
    assert metrics.token_error_rate([([1, 2], [1, 2])]) == 0.0


def test_ter_single_substitution():
    assert metrics.token_error_rate([([1, 2], [1, 3])]) == 50.0


def test_ter_all_deletions():
    assert metrics.token_error_rate([([], [1, 2, 3])]) == 100.0


def test_ter_aggregates_at_corpus_level():
    pairs = [([1], [1]), ([2], [1, 2, 3])]
    # 0 + 2 edits over 1 + 3 reference tokens
    assert metrics.token_error_rate(pairs) == 50.0


def test_ter_requires_reference_tokens():
    with pytest.raises(metrics.EmptyReferenceCorpus):
        metrics.token_error_rate([([1], [])])


# -------------------------------------------------------------------- frames

def test_frame_accuracy():
    # evaluate_model counts a frame right when its argmax class is the
    # frame label; in a sequence mode a blank argmax counts as wrong
    gen = synth.GeneratorConfig(num_classes=2, feature_dim=4,
                                segment_length=(2, 4),
                                labels_per_sequence=(1, 3), seed=5)
    samples = synth.generate(gen, 12)
    for mode in ("ce", "ctc"):
        spec = model.NetworkSpec(4, [6], model.output_units(mode, 2))
        state = model.ModelState(spec, seed=1)
        right = total = 0
        for s in samples:
            steps = model.forward_stacks(state, [s.x])[3][0].argmax(axis=1)
            pred = steps if mode in model.TEMPORAL_MODES else steps + 1
            right += int((pred == s.framewise).sum())
            total += len(s.framewise)
        report = experiment.evaluate_model(state, losses.CenterBank(2, 6),
                                           samples, mode, "clean")
        assert report.frame_accuracy == 100.0 * right / total
        if mode == "ce":
            assert 0 < right < total


def frozen_evaluate_model(state, bank, samples, mode, condition):
    """The per-sequence scoring that evaluate_model replaced, frozen: one
    sequence at a time, a loop collapse and a quadratic edit distance
    per pair, features kept per sample and concatenated."""
    hyps, feats, assigns, correct = [], [], [], 0
    for sample in samples:
        _, stacks, _, (y,) = model.forward_stacks(state, [sample.x])
        u = stacks[-1][0]
        if mode in model.TEMPORAL_MODES:
            steps = np.argmax(y, axis=1)
            keep = steps != 0
            hyps.append(loop_collapse(steps.tolist()))
            feats.append(u[keep])
            assigns.append(steps[keep])
            correct += int((steps == sample.framewise).sum())
        else:
            pred = y.argmax(axis=1) + 1
            hyps.append(loop_collapse(pred.tolist()))
            feats.append(u)
            assigns.append(pred)
            correct += int((pred == sample.framewise).sum())
    edits = sum(quadratic_edit_distance(h, s.collapsed) for h, s in zip(hyps, samples))
    tokens = sum(len(s.collapsed) for s in samples)
    frames = sum(len(s.framewise) for s in samples)
    try:
        intra, inter, ratio = metrics.embedding_report(
            np.concatenate(feats), np.concatenate(assigns), bank)
    except metrics.DegenerateBank:
        intra = inter = ratio = float("nan")
    return metrics.EvalReport(condition, 100.0 * edits / tokens, 100.0 * correct / frames,
                              intra, inter, ratio, len(samples))


def scoring_case(mode, case):
    """(state, bank, samples) for one evaluate_model case: a random
    recurrent network on more samples than one score group holds, the
    same on length-1 inputs, or a degenerate network whose output 0
    always wins: all blank in the sequence modes, all class 1 in the
    framewise ones, so fewer than two classes are populated and the
    scatter is NaN."""
    K = 3
    spec = model.NetworkSpec(4, [5, 6], model.output_units(mode, K), recurrent=True)
    state = model.ModelState(spec, seed=11)
    bank = losses.CenterBank(K, 6)
    rng = np.random.default_rng(3)
    if case == "length_1":
        labels = rng.integers(1, K + 1, 40)
        samples = [synth.SequenceSample(rng.normal(size=(1, 4)), np.array([c]),
                                        np.array([c]), "clean") for c in labels]
    else:
        gen = synth.GeneratorConfig(num_classes=K, feature_dim=4, segment_length=(1, 5),
                                    labels_per_sequence=(1, 4), noise_condition="unseen",
                                    seed=8)
        samples = synth.generate(gen, 2 * model.SCORE_GROUP + 7)
    if case == "degenerate":
        state.params["B"][0] = 1e3
    return state, bank, samples


@pytest.mark.parametrize("case", ["groups", "length_1", "degenerate"])
@pytest.mark.parametrize("mode", model.MODES)
def test_evaluate_model_equals_per_sequence_scoring(mode, case):
    state, bank, samples = scoring_case(mode, case)
    got = experiment.evaluate_model(state, bank, samples, mode, "unseen")
    want = frozen_evaluate_model(state, bank, samples, mode, "unseen")
    assert repr(got) == repr(want)
    if case == "degenerate":
        assert np.isnan(got.scatter_ratio)
        assert (got.token_error_rate == 100.0) == (mode in model.TEMPORAL_MODES)
    else:
        assert got == want and 0.0 < got.scatter_ratio


# ----------------------------------------------------------------- embedding

def test_embedding_report_zero_scatter_at_centers():
    bank = losses.CenterBank(2, 2)
    features = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    assignments = np.array([1, 1, 2])
    intra, inter, ratio = metrics.embedding_report(features, assignments, bank)
    assert intra == 0.0
    assert inter == pytest.approx(3.0)
    assert ratio == 0.0


def test_embedding_report_hand_case():
    bank = losses.CenterBank(2, 2)
    # class means land at (0,0) and (2,0); every point sits one unit away
    features = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assignments = np.array([1, 1, 2, 2])
    intra, inter, ratio = metrics.embedding_report(features, assignments, bank)
    assert intra == pytest.approx(1.0)
    assert inter == pytest.approx(2.0)
    assert ratio == pytest.approx(0.25)


def test_embedding_report_needs_two_populated_classes():
    bank = losses.CenterBank(3, 2)
    with pytest.raises(metrics.DegenerateBank):
        metrics.embedding_report(np.ones((4, 2)), np.array([1, 1, 1, 1]), bank)


def test_embedding_report_is_order_independent():
    rng = np.random.default_rng(0)
    bank = losses.CenterBank(3, 4)
    features = rng.normal(size=(30, 4))
    assignments = rng.integers(1, 4, 30)
    base = metrics.embedding_report(features, assignments, bank)
    perm = rng.permutation(30)
    shuffled = metrics.embedding_report(features[perm], assignments[perm], bank)
    assert base == pytest.approx(shuffled, rel=1e-12)


# ----------------------------------------------------------------- csv shape

def test_eval_report_csv_row_order():
    report = metrics.EvalReport("clean", 1.0, 99.0, 0.5, 2.0, 0.125, 10)
    assert report.csv_row() == ["clean", 1.0, 99.0, 0.5, 2.0, 0.125, 10]
    assert metrics.EvalReport.CSV_COLUMNS[0] == "condition"
