"""Decoding and evaluation: greedy decode, token error rate, the
per-condition report, and embedding-geometry measures."""

from dataclasses import dataclass

import numpy as np

from .ctc import BLANK


class EmptyReferenceCorpus(Exception):
    pass


class DegenerateBank(Exception):
    """Fewer than two class centers: separation is undefined."""


@dataclass
class EvalReport:
    condition: str
    token_error_rate: float
    frame_accuracy: float           # blank predictions count as errors
    intra_class_scatter: float
    inter_center_separation: float
    scatter_ratio: float
    sample_count: int

    CSV_COLUMNS = ("condition", "token_error_rate", "frame_accuracy",
                   "intra_class_scatter", "inter_center_separation",
                   "scatter_ratio", "sample_count")

    def csv_row(self):
        return [getattr(self, c) for c in self.CSV_COLUMNS]


def greedy_decode(y):
    """Best-path decode: per-frame argmax (ties to the lowest index),
    merge repeats, drop blanks."""
    return collapse(np.argmax(y, axis=1))


def collapse(steps):
    """Merge repeated steps of a class sequence, then drop blanks."""
    out = []
    prev = -1
    for c in steps.tolist():
        if c != prev and c != BLANK:
            out.append(c)
        prev = c
    return out


def edit_distance(hyp, ref):
    """Levenshtein distance with unit insert/delete/substitute costs."""
    hyp, ref = list(hyp), list(ref)
    row = list(range(len(hyp) + 1))
    for j, rj in enumerate(ref, start=1):
        prev_diag, row[0] = row[0], j
        for i, hi in enumerate(hyp, start=1):
            cur = min(row[i] + 1, row[i - 1] + 1,
                      prev_diag + (0 if hi == rj else 1))
            prev_diag, row[i] = row[i], cur
    return row[-1]


def token_error_rate(pairs):
    """Corpus-level rate: 100 * total edits / total reference tokens,
    over (hypothesis, reference) pairs."""
    edits, tokens = 0, 0
    for hyp, ref in pairs:
        edits += edit_distance(hyp, ref)
        tokens += len(ref)
    if tokens == 0:
        raise EmptyReferenceCorpus("reference corpus has no tokens")
    return 100.0 * edits / tokens


def temporal_assignments(y):
    """Frame-to-class assignment for embedding measures in sequence mode:
    argmax over classes, keeping only frames where blank does not win."""
    steps = np.argmax(y, axis=1)
    keep = steps != BLANK
    return steps[keep], keep


def embedding_report(features, assignments, bank):
    """Geometry of the features: mean squared distance to the assigned
    class's empirical center, mean pairwise distance between those
    centers, and their scale-free ratio intra / inter**2.

    Centers are the per-class means of ``features``: measured geometry,
    comparable across models whether or not they trained a center bank.
    ``bank`` supplies the class inventory.
    """
    features = np.asarray(features, dtype=float)
    assignments = np.asarray(assignments, dtype=np.intp)
    classes = [j for j in range(1, bank.num_classes + 1)
               if np.any(assignments == j)]
    if len(classes) < 2:
        raise DegenerateBank("need at least two populated classes")
    centers = {}
    intra, n = 0.0, 0
    for j in classes:
        pts = features[assignments == j]
        centers[j] = pts.mean(axis=0)
        d = pts - centers[j]
        intra += float((d * d).sum())
        n += len(pts)
    intra /= n
    seps = [np.linalg.norm(centers[a] - centers[b])
            for i, a in enumerate(classes) for b in classes[i + 1:]]
    inter = float(np.mean(seps))
    return intra, inter, intra / inter ** 2
