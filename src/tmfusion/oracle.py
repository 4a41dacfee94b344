"""Brute-force reference implementations.

Everything here enumerates paths in the plain probability domain and
shares no code with the dynamic-programming routines it is used to
cross-check.  Deliberately naive; guarded by a hard size bound.
"""

import itertools

import numpy as np

MAX_PATHS = 10 ** 7


class TooLarge(Exception):
    """K**T exceeds the enumeration bound."""


def _check_size(T, K):
    if K ** T > MAX_PATHS:
        raise TooLarge("K**T = %d exceeds %d" % (K ** T, MAX_PATHS))


def collapse(path):
    """CTC collapse: merge adjacent repeats, then drop blanks (class 0)."""
    out = []
    prev = None
    for c in path:
        if c != prev and c != 0:
            out.append(c)
        prev = c
    return tuple(out)


def _walk_positions(path, target):
    """Map each frame of ``path`` to its position in the blank-extended
    target.  Assumes collapse(path) == target; the mapping is unique.
    """
    positions = []
    cur = 0 if path[0] == 0 else 1
    positions.append(cur)
    for t in range(1, len(path)):
        a, b = path[t - 1], path[t]
        if b == a:
            pass
        elif b == 0:
            cur += 1
        elif a == 0:
            cur += 1
        else:
            cur += 2
        positions.append(cur)
    ext_len = 2 * len(target) + 1
    assert cur in (ext_len - 1, max(ext_len - 2, 0))
    return positions


def brute_force_seq_prob(y, z):
    """Total probability of paths that collapse to z, by enumeration."""
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    _check_size(T, K)
    z = tuple(int(c) for c in z)
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        if collapse(path) == z:
            p = 1.0
            for t, c in enumerate(path):
                p *= y[t, c]
            total += p
    return total


def brute_force_occupancy(y, z):
    """Path mass through each (frame, extended position), by enumeration.

    Matches the DP's literal alpha*beta product, i.e. the mass of every
    collapsing path that sits at extended position s during frame t,
    multiplied once more by that frame's emission probability.
    """
    y = np.asarray(y, dtype=float)
    T, K = y.shape
    _check_size(T, K)
    z = tuple(int(c) for c in z)
    ext = [0]
    for c in z:
        ext.extend((c, 0))
    occ = np.zeros((T, 2 * len(z) + 1))
    for path in itertools.product(range(K), repeat=T):
        if collapse(path) != z:
            continue
        p = 1.0
        for t, c in enumerate(path):
            p *= y[t, c]
        for t, s in enumerate(_walk_positions(path, z)):
            occ[t, s] += p * y[t, ext[s]]
    return occ


def brute_force_ecl(y, z, u, centers):
    """Occupancy-weighted squared center distances, blanks skipped.

    centers : mapping from label class to its center vector.
    """
    occ = brute_force_occupancy(y, z)
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
