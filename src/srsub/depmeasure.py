"""Functional dependence scores on samples.

Implements the rank-based coefficients (the univariate consecutive-rank
coefficient and its multivariate nearest-neighbor generalization), a kernel
association measure over a 1-NN graph with a Gaussian RBF kernel, and a
volume-of-parallelepiped baseline.  All scores are pure functions of their
inputs: nearest-neighbor ties break to the lowest index, in the 1-NN map and
in the volume's neighbor sets alike, and internal subsampling is strided, so
repeated calls are bitwise reproducible.

`neighbor_map` and `volume_score` take an optional memo, a dict the caller
keeps for as long as it likes (the beam search keeps one per search).  Both
key it by the standardized point set the measure sees, up to the sign of each
column: negating a column changes no squared distance and no |det|, so a hit
returns exactly what a fresh call would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateY

_CROSS_TERM_CAP = 2000


@dataclass(frozen=True)
class RankVectors:
    """Upper and lower rank counts of an output sample.

    r[i] counts indices j with Y[j] <= Y[i]; l[i] counts indices j with
    Y[j] >= Y[i].  For distinct values r is a permutation of 1..n and
    l = n + 1 - r.  The sums codec needs from y alone are derived on
    construction: `spread` = sum l(n - l), its denominator, and
    `l_squares` = sum l^2.
    """

    r: np.ndarray
    l: np.ndarray
    spread: int = field(init=False, repr=False, compare=False)
    l_squares: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.l)
        object.__setattr__(self, "spread", int((self.l * (n - self.l)).sum()))
        object.__setattr__(self, "l_squares", int((self.l * self.l).sum()))


def compute_ranks(y: np.ndarray) -> RankVectors:
    """Exact <=/>=-counting ranks, ties included, from one stable argsort:
    a run of equal sorted values shares r = the end of the run and
    l = n - its start."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        raise ValueError("need at least two observations")
    order = np.argsort(y, kind="stable")
    ys = y[order]
    first = np.empty(n, dtype=bool)  # where a run of equal values starts
    first[0] = True
    np.not_equal(ys[1:], ys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    r = np.empty(n, dtype=np.int64)
    l = np.empty(n, dtype=np.int64)
    r[order] = np.append(starts[1:], n)[run]
    l[order] = n - starts[run]
    return RankVectors(r=r, l=l)


def _standardize(X: np.ndarray) -> np.ndarray:
    """Each column centred and divided by its population std (1 where that
    is 0), as `(X - X.mean(0)) / X.std(0)` computes it bit for bit on a
    C-ordered copy: the deviations are taken once and give the std too.
    Working on C order keeps the column sums, and so the result, the same
    whatever the caller's memory layout."""
    X = np.ascontiguousarray(X, dtype=float)
    n = len(X)
    dev = X - X.sum(axis=0) / n
    std = np.sqrt(np.square(dev).sum(axis=0) / n)
    std[~(std > 0)] = 1.0
    dev /= std
    return dev


def _memoised(memo: dict | None, kind: str, Z: np.ndarray, compute):
    """`compute(Z)`, looked up in `memo` by the standardized point set Z up
    to column sign: each column is negated where its first entry has the sign
    bit set, -0.0 becomes 0.0, and the whole is hashed.  `kind` keeps the
    measures apart."""
    if memo is None:
        return compute(Z)
    canonical = np.where(np.signbit(Z[0]), -Z, Z) + 0.0
    key = (kind, Z.shape,
           hashlib.blake2b(canonical.view(np.uint8), digest_size=32).digest())
    if key not in memo:
        memo[key] = compute(Z)
    return memo[key]


def neighbor_map(X: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """1-NN indices of X after per-column standardization: the graph that
    codec and kmac score over, as `nearest_neighbors` returns it.  It depends
    on X alone, so callers scoring several outputs against one design matrix
    can build it once and pass it in.  With `memo`, a point set already seen
    up to column sign (say x1-x2 after x2-x1) reuses its map."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return _memoised(memo, "nn", _standardize(X), nearest_neighbors)


def nearest_neighbors(X: np.ndarray) -> np.ndarray:
    """1-NN indices with deterministic lowest-index tie-breaking: entry i of
    the int64 result is the row nearest to row i.

    One column is searched exactly by sorting, more columns with a k-d
    tree.  A neighbor whose squared distance is within relative 1e-12 (plus
    1e-300) of the nearest counts as a tie.  Ties (exact-duplicate points
    included) resolve to the lowest index; rows whose tie set may hold more
    than one point fall back to a brute-force scan.

    The tree's query window is three points.  A row is settled from it
    when exactly one point in it other than the row lies within the tie
    bound.  The row is then in the window (it drops out only behind three
    coincident points, which all tie), so the window's far edge lies
    outside the bound, and every point outside the window is at least as
    far: the one point is the whole tie set.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least two rows")
    if d == 1:
        return _sorted_nn_1d(X)
    dist, idx = cKDTree(X).query(X, k=min(n, 3))
    rows = np.arange(n)
    valid = idx != rows[:, None]
    # distance to the closest non-self candidate
    dmin = np.where(valid, dist, np.inf).min(axis=1)
    tol = _tie_tolerance(dmin)
    tie = valid & (dist <= tol[:, None])
    nu = np.where(tie, idx, n).min(axis=1).astype(np.int64)
    for i in np.flatnonzero(tie.sum(axis=1) > 1):
        nu[i] = _brute_force_row(X, i)
    return nu


def _tie_tolerance(dmin: np.ndarray) -> np.ndarray:
    """Distance bound that holds every tie of `_brute_force_row`, which ties
    squared distances d2 <= dmin2 * (1 + 1e-12) + 1e-300.  A row with one
    point inside it has that point as its tie set; a wider bound only sends
    more rows to the brute-force scan."""
    return dmin * (1 + 1e-12) + 1e-150


def _sorted_nn_1d(X: np.ndarray) -> np.ndarray:
    """Exact 1-NN of a single column from its sorted order.

    The points within tie distance of a value are contiguous in sorted
    order, so the two neighbors on each side decide whether the nearest is
    unique.  Rows with a second point in the tie set go to the brute-force
    scan, as in the k-d tree path.
    """
    n = len(X)
    order = np.argsort(X[:, 0], kind="stable")
    xs = X[order, 0]
    inf1, inf2 = np.full(1, np.inf), np.full(2, np.inf)
    # distances as the k-d tree and the brute-force scan see them, through
    # the squared difference, so that underflow and overflow agree
    with np.errstate(over="ignore", under="ignore"):
        gap1 = np.sqrt(np.square(np.diff(xs)))  # to the next sorted value
        gap2 = np.sqrt(np.square(xs[2:] - xs[:-2]))  # to the value two places on
    left = np.concatenate([inf1, gap1])
    right = np.concatenate([gap1, inf1])
    tol = _tie_tolerance(np.minimum(left, right))
    near_left = left <= tol
    ties = (near_left.astype(np.int8) + (right <= tol)
            + (np.concatenate([inf2, gap2]) <= tol)
            + (np.concatenate([gap2, inf2]) <= tol))
    pos = np.arange(n)
    nu = np.empty(n, dtype=np.int64)
    nu[order] = order[np.where(near_left, pos - 1, np.minimum(pos + 1, n - 1))]
    for i in order[ties > 1]:
        nu[i] = _brute_force_row(X, i)
    return nu


def _brute_force_row(X: np.ndarray, i: int) -> int:
    diff = X - X[i]
    d2 = np.einsum("ij,ij->i", diff, diff)
    d2[i] = np.inf
    dmin = d2.min()
    return int(np.flatnonzero(d2 <= dmin * (1 + 1e-12) + 1e-300)[0])


def chatterjee_xi(x: np.ndarray, y: np.ndarray) -> float:
    """Univariate rank coefficient from consecutive rank differences.

    Pairs are sorted by x (stable). With all values distinct the result
    equals 1 - 3*sum|r_{i+1}-r_i| / (n^2-1).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(x)
    if n < 2 or len(y) != n:
        raise ValueError("need two equal-length samples of size >= 2")
    order = np.argsort(x, kind="stable")
    ranks = compute_ranks(y[order])
    num = int(n) * int(np.abs(np.diff(ranks.r)).sum())
    den = 2 * ranks.spread
    if den == 0:
        raise DegenerateY("constant output column")
    return 1.0 - num / den


def _neighbor_indices(X: np.ndarray, n: int, nn: np.ndarray | None) -> np.ndarray:
    nu = nn if nn is not None else neighbor_map(X)
    if len(nu) != n:
        raise ValueError("neighbor map and output differ in length")
    return nu


def codec(X: np.ndarray, y: np.ndarray, form: str = "min",
          ranks: RankVectors | None = None,
          nn: np.ndarray | None = None) -> float:
    """Multivariate dependence via nearest-neighbor rank comparison.

    `form` selects between the direct minimum-based numerator and the
    algebraically rewritten numerator (n/2)(R + S - sum|r_i - r_nu(i)|) - L;
    the two agree exactly.  `ranks` may carry precomputed ranks of y, and
    `nn` the neighbor indices `neighbor_map(X)` returns; X is not read when
    `nn` is given.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(y)
    if n < 3:
        raise ValueError("need at least three observations")
    if ranks is None:
        ranks = compute_ranks(y)
    r = ranks.r
    nu = _neighbor_indices(X, n, nn)
    den = ranks.spread
    if den == 0:
        raise DegenerateY("constant output column")
    r_nu = r[nu]
    L = ranks.l_squares
    if form == "min":
        num = n * int(np.minimum(r, r_nu).sum()) - L
    elif form == "rewritten":
        R = int(r.sum())
        S = int(r_nu.sum())
        twice = n * (R + S - int(np.abs(r - r_nu).sum())) - 2 * L
        return twice / (2 * den)
    else:
        raise ValueError(f"unknown form {form!r}")
    return num / den


def default_bandwidth(y: np.ndarray) -> float:
    """Median pairwise |y_i - y_j| on a strided subsample of <= 500 rows."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(y) > 500:
        stride = int(np.ceil(len(y) / 500))
        y = y[::stride]
    diffs = np.abs(y[:, None] - y[None, :])
    vals = diffs[np.triu_indices(len(y), k=1)]
    med = float(np.median(vals))
    if med > 0:
        return med
    pos = vals[vals > 0]
    if len(pos):
        return float(pos.mean())
    raise DegenerateY("constant output column")


def kmac(X: np.ndarray, y: np.ndarray, nn: np.ndarray | None = None) -> float:
    """Kernel association over the 1-NN graph with a Gaussian RBF kernel.

    score = [mean_i k(y_i, y_nu(i)) - cross] / [k(0) - cross] where `cross`
    is the mean kernel value over distinct pairs (subsampled above 2000
    rows).  `nn` may carry the neighbor indices `neighbor_map(X)` returns;
    X is not read when it is given.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(y)
    if n < 3:
        raise ValueError("need at least three observations")
    bandwidth = default_bandwidth(y)
    nu = _neighbor_indices(X, n, nn)
    inv2bw2 = 1.0 / (2.0 * bandwidth * bandwidth)
    local = float(np.exp(-((y - y[nu]) ** 2) * inv2bw2).mean())
    ys = y
    if n > _CROSS_TERM_CAP:
        stride = int(np.ceil(n / _CROSS_TERM_CAP))
        ys = y[::stride]
    m = len(ys)
    K = np.exp(-((ys[:, None] - ys[None, :]) ** 2) * inv2bw2)
    cross = float((K.sum() - m) / (m * (m - 1)))
    den = 1.0 - cross
    if den == 0:
        raise DegenerateY("kernel sees a constant output column")
    return (local - cross) / den


def parallelepiped_volumes(Z: np.ndarray) -> np.ndarray:
    """|det| of the difference vectors from each row to its dim nearest
    other rows in the given joint space, taken in (distance, index) order.

    The k-d tree's order is kept where a row's window of dim + 2 distances
    holds no two equal ones, since it is then the (distance, index) order.
    A row with a tie, self against a duplicate included, is scanned in full.
    """
    Z = np.asarray(Z, dtype=float)
    n, dim = Z.shape
    if n < dim + 1:
        raise ValueError("need at least dim + 1 rows")
    dist, idx = cKDTree(Z).query(Z, k=min(n, dim + 2))
    rows = np.arange(n)
    valid = idx != rows[:, None]
    # first `dim` non-self neighbors per row, still in distance order
    take = valid & (np.cumsum(valid, axis=1) <= dim)
    nbrs = idx[take].reshape(n, dim)
    # the tree orders equidistant points by its own traversal
    for i in np.flatnonzero((np.diff(dist, axis=1) == 0).any(axis=1)):
        diff = Z - Z[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        nbrs[i] = np.argsort(d2, kind="stable")[:dim]
    diffs = Z[nbrs] - Z[:, None, :]
    return np.abs(np.linalg.det(diffs))


def volume_score(X: np.ndarray, y: np.ndarray, memo: dict | None = None) -> float:
    """Baseline score from mean parallelepiped volume in joint (x, y) space.

    On data sampled densely from a function the d+1 difference vectors to the
    nearest neighbors are nearly linearly dependent, so volumes approach
    zero; the score 1/(1 + mean volume) makes higher mean more dependent.
    With `memo`, a joint point set already seen up to column sign reuses
    its score.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).reshape(-1)
    n, d = X.shape
    if n < d + 2:
        raise ValueError("need at least d + 2 observations")
    Z = _standardize(np.column_stack([X, y]))
    return _memoised(memo, "volume", Z, _mean_volume_score)


def _mean_volume_score(Z: np.ndarray) -> float:
    return 1.0 / (1.0 + float(parallelepiped_volumes(Z).mean()))
