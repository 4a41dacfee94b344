"""Unit tests for decoding, error rates, and embedding geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion import experiment, losses, metrics, model, synth


def posteriors_for(argmaxes, K=3):
    """A posterior matrix whose per-frame argmax is the given class list."""
    y = np.full((len(argmaxes), K), 0.1)
    for t, c in enumerate(argmaxes):
        y[t, c] = 0.8
    return y / y.sum(axis=1, keepdims=True)


# -------------------------------------------------------------------- decode

def test_greedy_decode_collapses_and_drops_blanks():
    assert metrics.greedy_decode(posteriors_for([0, 1, 1, 0, 2])) == [1, 2]


def test_greedy_decode_all_blank():
    assert metrics.greedy_decode(posteriors_for([0, 0, 0])) == []


def test_greedy_decode_blank_separates_repeat():
    assert metrics.greedy_decode(posteriors_for([1, 0, 1])) == [1, 1]


def test_greedy_decode_ties_go_to_lowest_index():
    y = np.full((2, 3), 1.0 / 3.0)
    assert metrics.greedy_decode(y) == []
    y = np.array([[0.1, 0.45, 0.45]])
    assert metrics.greedy_decode(y) == [1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_greedy_decode_invariant_to_monotone_transforms(argmaxes):
    y = posteriors_for(argmaxes, K=4)
    base = metrics.greedy_decode(y)
    assert metrics.greedy_decode(y ** 3) == base
    assert metrics.greedy_decode(np.exp(y)) == base
    assert metrics.greedy_decode(10.0 * y + 2.0) == base


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


def test_edit_distance_basics():
    assert metrics.edit_distance([1, 2, 3], [1, 2, 3]) == 0
    assert metrics.edit_distance([], [1, 2]) == 2
    assert metrics.edit_distance([1, 2], []) == 2
    assert metrics.edit_distance([1, 2], [1, 3]) == 1
    assert metrics.edit_distance([2, 1], [1, 2]) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=10),
       st.lists(st.integers(1, 4), max_size=10))
def test_edit_distance_matches_quadratic_reference(hyp, ref):
    assert metrics.edit_distance(hyp, ref) == quadratic_edit_distance(hyp, ref)


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


def test_temporal_assignments_drop_blank_frames():
    y = posteriors_for([0, 2, 0, 1])
    steps, keep = metrics.temporal_assignments(y)
    np.testing.assert_array_equal(steps, [2, 1])
    np.testing.assert_array_equal(keep, [False, True, False, True])


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
