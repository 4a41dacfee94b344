"""Brute-force reference implementations.

Everything here enumerates paths in the plain probability domain and
shares no code with the dynamic-programming routines it is used to
cross-check.  Deliberately naive; guarded by a hard size bound.

The paths are enumerated in ``itertools.product`` order as integer
arrays, in blocks of at most BLOCK_PATHS paths, so that the largest
enumeration allowed stays at a few MB; an enumeration that fits one
block is cached per shape.  Each path's collapsed labeling and its
positions come from elementwise masks and a cumsum over its block.  The
results are bit for bit those of a loop over paths: each path's
probability is multiplied frame by frame from 1.0, and every sum adds
its paths in enumeration order, carried from block to block.
"""

import functools
import itertools

import numpy as np

MAX_PATHS = 10 ** 7
BLOCK_PATHS = 1 << 12


class TooLarge(Exception):
    """K**T exceeds the enumeration bound."""


def _check_size(T, K):
    if K ** T > MAX_PATHS:
        raise TooLarge("K**T = %d exceeds %d" % (K ** T, MAX_PATHS))


def _digits(T, K):
    """The K**T paths of T frames over K classes in itertools.product
    order, one path per column of a (T, K**T) array."""
    return np.indices((K,) * T).reshape(T, K ** T)


def _walk(paths, K):
    """The paths (one per column), each path's collapse code and each
    path's positions, as read-only arrays (they may be cached).

    A frame emits its class where that is not the blank and differs
    from the frame before's.  The code reads the emitted labels, all in
    1..K-1, as the digits of one base-K number, so two paths share a
    code exactly when they collapse to the same labeling.  A path starts
    at position 0 (blank) or 1 (label) of its blank-extended labeling
    and moves one position where it enters or leaves a blank and two
    where one label follows another."""
    labeled = paths != 0
    moves = np.empty(paths.shape, dtype=np.intp)
    moves[:1] = labeled[:1]
    moves[1:] = (1 + (labeled[1:] & labeled[:-1])) * (paths[1:] != paths[:-1])
    codes = np.zeros(paths.shape[1], dtype=np.int64)
    # a frame moves exactly where it differs from the frame before
    for c, emits in zip(paths, (moves != 0) & labeled):
        codes = np.where(emits, codes * K + c, codes)
    out = paths, codes, np.cumsum(moves, axis=0)
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _whole(T, K):
    """_walk of all K**T paths at once."""
    return _walk(_digits(T, K), K)


def _path_blocks(T, K):
    """_walk of every path of T frames over K classes, in blocks of at
    most BLOCK_PATHS paths in enumeration order: a block fixes the first
    T - m frames and runs the last m through all K**m values.  An
    enumeration of one block is cached: the checks enumerate a few small
    shapes thousands of times."""
    m = T
    while K ** m > BLOCK_PATHS:
        m -= 1
    if m == T:
        yield _whole(T, K)
        return
    tail = _digits(m, K)
    for head in itertools.product(range(K), repeat=T - m):
        paths = np.empty((T, K ** m), dtype=np.intp)
        paths[:T - m] = np.reshape(head, (-1, 1))
        paths[T - m:] = tail
        yield _walk(paths, K)


def _code(z, K):
    """The collapse code of labeling z, or -1 (no path's) when a label
    lies outside 1..K-1."""
    code = 0
    for c in z:
        if not 0 < c < K:
            return -1
        code = code * K + int(c)
    return code


def _path_probs(y, paths):
    """Each path's probability, multiplied frame by frame from 1.0."""
    p = np.ones(paths.shape[1])
    for yt, ct in zip(y, paths):
        p *= yt[ct]
    return p


def brute_force_seq_prob(y, z):
    """Total probability of paths that collapse to z, by enumeration,
    added in enumeration order."""
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    _check_size(T, K)
    code, total = _code(z, K), 0.0
    for paths, codes, _ in _path_blocks(T, K):
        p = _path_probs(y, paths[:, codes == code])
        # the running sum carried across blocks, one path at a time
        total = float(np.add.accumulate(np.concatenate([[total], p]))[-1])
    return total


def brute_force_occupancy(y, z):
    """Path mass through each (frame, extended position), by enumeration.

    Matches the DP's alpha*beta product, i.e. the mass of every
    collapsing path that sits at extended position s during frame t,
    multiplied once more by that frame's emission probability; each
    cell adds its paths' masses in enumeration order.
    """
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    _check_size(T, K)
    code, S = _code(z, K), 2 * len(z) + 1
    occ = np.zeros(T * S)
    frames = np.arange(T)[:, None]
    for paths, codes, positions in _path_blocks(T, K):
        match = codes == code
        paths = paths[:, match]
        mass = _path_probs(y, paths) * y[frames, paths]
        # a cell is hit once per path, by one frame's row, in path order;
        # the sums carried from earlier blocks go first
        cells = frames * S + positions[:, match]
        occ = np.bincount(np.concatenate([np.arange(T * S), cells.ravel()]),
                          weights=np.concatenate([occ, mass.ravel()]))
    return occ.reshape(T, S)


def brute_force_ecl(y, z, u, centers):
    """Occupancy-weighted squared center distances, blanks skipped, each
    frame's occupancy row divided by its sum as ctc.occupancy divides it.

    centers : mapping from label class to its center vector.
    """
    occ = brute_force_occupancy(y, z)
    occ = occ / occ.sum(axis=1, keepdims=True)
    u = np.asarray(u, dtype=float)
    total = 0.0
    for i, c in enumerate(z):
        s = 2 * i + 1
        d = u - np.asarray(centers[int(c)], dtype=float)
        total += float(occ[:, s] @ (d * d).sum(axis=1))
    return total


def all_label_sequences(num_classes, max_len):
    """Every label sequence over classes 1..num_classes up to max_len."""
    for r in range(max_len + 1):
        for z in itertools.product(range(1, num_classes + 1), repeat=r):
            yield z


def finite_diff(f, x, epsilon=1e-6):
    """Central-difference gradient of a scalar function at x.

    ``f`` is called once, with all 2n perturbed points stacked as a
    (2n, n) array, n = x.size: rows 0..n-1 are x + epsilon * e_i and rows
    n..2n-1 are x - epsilon * e_i, each built by the elementwise
    addition (subtraction) of a step that is zero off coordinate i.  It
    returns the 2n function values in row order, so a caller can run its
    points through one batched computation.  The gradient is
    ``(v[:n] - v[n:]) / (2 epsilon)``, shaped like x.

    The (2n, n) points are meant for the small vectors the checks use:
    a vector of n entries costs 16 n^2 bytes.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = np.zeros((n, n))
    np.fill_diagonal(steps, epsilon)
    flat = x.ravel()
    values = np.asarray(f(np.concatenate([flat + steps, flat - steps])), dtype=float)
    return ((values[:n] - values[n:]) / (2.0 * epsilon)).reshape(x.shape)
