"""Decoding and evaluation: best-path decode, token error rate, the
per-condition report, and embedding-geometry measures.

Decoding and the edit distance work on stacks.  best_paths takes a score
group's per-frame classes as one padded (G, T_max) array with each row's
live length.  edit_distances takes N (hypothesis, reference) pairs as
zero-padded (N, H) and (N, R) integer arrays with their lengths, and
runs one DP for all of them.  No cell past a row's length reaches that
row's result.  collapse is best_paths' one-sequence case.  All of it
is integer arithmetic, so each count is exact, whatever the grouping."""

import itertools
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


def collapse(steps):
    """Merge repeated steps of a class sequence, then drop blanks."""
    paths, counts = best_paths(steps[None], [len(steps)])
    return paths[0, :counts[0]].tolist()


def best_paths(steps, lengths):
    """collapse of each row of a (G, T_max) stack of per-frame classes,
    row g live for its first lengths[g] frames: (paths, counts), the
    kept steps left-aligned in a (G, H_max) array, zero past each row's
    count.  A step is kept where it is new (differs from the step
    before), live and not blank."""
    steps = np.asarray(steps)
    G, T = steps.shape
    new = np.ones((G, T), dtype=bool)
    np.not_equal(steps[:, 1:], steps[:, :-1], out=new[:, 1:])
    keep = new & (steps != BLANK) & (np.arange(T) < np.asarray(lengths)[:, None])
    counts = keep.sum(axis=1)
    paths = np.zeros((G, counts.max(initial=0)), dtype=steps.dtype)
    paths[np.arange(paths.shape[1]) < counts[:, None]] = steps[keep]
    return paths, counts


def _padded(seqs):
    """Ragged integer sequences as (N, L_max) rows, left-aligned and zero
    past each row's length, and the lengths."""
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    out = np.zeros((len(seqs), lengths.max(initial=0)), dtype=np.intp)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(seqs), dtype=np.intp, count=lengths.sum())
    return out, lengths


def edit_distances(hyps, hyp_lens, refs, ref_lens):
    """Levenshtein distances of N pairs at once, unit costs, from padded
    (N, H) hypotheses and (N, R) references with their lengths.

    One row of the DP over hypothesis prefixes per reference position,
    for every pair: row j holds the distances of hyp[:i] to ref[:j].  A
    substitution or deletion comes from row j - 1; an insertion extends
    row j itself, so row j[i] = min over k <= i of cand[k] + (i - k),
    one running minimum.  Pair n's distance is row ref_lens[n] at column
    hyp_lens[n]; the cells past either length never reach it, so the
    padding values do not matter.  All integer, so exact."""
    N, H = hyps.shape
    hyp_lens, ref_lens = np.asarray(hyp_lens), np.asarray(ref_lens)
    cols = np.arange(H + 1)
    row = np.broadcast_to(cols, (N, H + 1))
    dist = hyp_lens.astype(np.intp)
    cand = np.empty((N, H + 1), dtype=np.intp)
    for j in range(refs.shape[1]):
        cand[:, 0] = j + 1
        np.minimum(row[:, 1:] + 1, row[:, :-1] + (hyps != refs[:, j:j + 1]),
                   out=cand[:, 1:])
        row = np.minimum.accumulate(cand - cols, axis=1) + cols
        done = ref_lens == j + 1
        dist[done] = row[done, hyp_lens[done]]
    return dist


def token_error_rate(pairs):
    """Corpus-level rate: 100 * total edits / total reference tokens,
    over (hypothesis, reference) pairs, by one edit_distances call."""
    pairs = list(pairs)
    hyps, hyp_lens = _padded([hyp for hyp, _ in pairs])
    refs, ref_lens = _padded([ref for _, ref in pairs])
    tokens = int(ref_lens.sum())
    if tokens == 0:
        raise EmptyReferenceCorpus("reference corpus has no tokens")
    return 100.0 * int(edit_distances(hyps, hyp_lens, refs, ref_lens).sum()) / tokens


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
    centers, intra, n = {}, 0.0, 0
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
