"""Rank statistics and dependence scores against quadratic-time oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsub import chatterjee_xi, codec, compute_ranks, kmac, volume_score
from srsub.depmeasure import (
    _standardize,
    default_bandwidth,
    nearest_neighbors,
    neighbor_map,
    parallelepiped_volumes,
)
from srsub.errors import DegenerateY

from oracles import (
    codec_direct,
    det_cofactor,
    kmac_direct,
    nn_bruteforce,
    ranks_quadratic,
    standardize_columns,
    volumes_bruteforce,
    xi_direct,
)


def test_ranks_small():
    rv = compute_ranks(np.array([10.0, 20.0, 30.0]))
    assert rv.r.tolist() == [1, 2, 3]
    assert rv.l.tolist() == [3, 2, 1]


def test_ranks_ties():
    rv = compute_ranks(np.array([5.0, 5.0]))
    assert rv.r.tolist() == [2, 2]
    assert rv.l.tolist() == [2, 2]


def test_ranks_against_quadratic_oracle():
    rng = np.random.default_rng(0)
    y = rng.uniform(size=1000)
    y[::7] = y[::3][: len(y[::7])]  # force ties
    rv = compute_ranks(y)
    r_o, l_o = ranks_quadratic(y)
    assert np.array_equal(rv.r, r_o)
    assert np.array_equal(rv.l, l_o)


@st.composite
def _tie_heavy_outputs(draw):
    """Integer-valued outputs of 2 to 60 rows from a range of 1 to 11
    values, so that most values repeat and some samples are all equal."""
    n = draw(st.integers(2, 60))
    width = draw(st.integers(0, 10))
    values = draw(st.lists(st.integers(-width, width), min_size=n, max_size=n))
    return np.array(values, dtype=float) * draw(st.sampled_from((1.0, -0.5, 1e-300, 1e300)))


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_outputs())
def test_ranks_match_quadratic_oracle_on_tie_heavy_outputs(y):
    rv = compute_ranks(y)
    r_o, l_o = ranks_quadratic(y)
    assert rv.r.dtype == rv.l.dtype == np.int64
    assert np.array_equal(rv.r, r_o) and np.array_equal(rv.l, l_o)
    n = len(y)
    assert rv.spread == sum(int(v) * (n - int(v)) for v in l_o)
    assert rv.l_squares == sum(int(v) ** 2 for v in l_o)


def test_ranks_of_two_and_of_all_equal_values():
    for y, r, l in (([2.0, 1.0], [2, 1], [1, 2]), ([3.0] * 5, [5] * 5, [5] * 5)):
        rv = compute_ranks(np.array(y))
        assert rv.r.tolist() == r and rv.l.tolist() == l
    assert compute_ranks(np.full(5, 3.0)).spread == 0


@st.composite
def _columns(draw):
    """1 to 4 columns of 1 to 50 rows: continuous, integer-valued or
    constant, each with its own scale and offset."""
    n = draw(st.integers(1, 50))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("float", "int", "constant")))
        if kind == "float":
            col = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        elif kind == "int":
            col = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
        else:
            col = np.full(n, draw(st.floats(-1e3, 1e3)))
        scale = 10.0 ** draw(st.integers(-150, 150))
        cols.append(col * scale + draw(st.floats(-1e3, 1e3)) * scale)
    return np.column_stack(cols)


@settings(max_examples=300, deadline=None)
@given(_columns())
def test_standardize_equals_oracle_bitwise_in_either_memory_order(X):
    want = standardize_columns(X).tobytes()
    assert _standardize(X).tobytes() == want
    assert _standardize(np.asfortranarray(X)).tobytes() == want


@st.composite
def _three_point_window_cases(draw):
    """Rows on a small grid in 2 or 3 columns, then a cluster of three or
    more coincident rows and a row with two neighbours at one distance on
    opposite sides; n = 3 makes the query window every row."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(3, 30))
    X = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d) * draw(st.sampled_from((1.0, 0.37, 1e3)))
    if n >= 5 and draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=5, unique=True))
        X[rows] = X[rows[0]]
    if n >= 4 and draw(st.booleans()):
        i, j, k = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        step = np.zeros(d)
        step[draw(st.integers(0, d - 1))] = 0.25
        X[j], X[k] = X[i] - step, X[i] + step
    return X


@settings(max_examples=300, deadline=None)
@given(_three_point_window_cases())
def test_nearest_neighbors_three_point_window_matches_bruteforce(X):
    assert np.array_equal(nearest_neighbors(X), nn_bruteforce(X))


def test_nearest_neighbors_three_rows_and_coincident_rows():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])  # row 0: two at one distance
    assert nearest_neighbors(X).tolist() == nn_bruteforce(X).tolist() == [1, 0, 0]
    X = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, 0.0]])
    assert nearest_neighbors(X).tolist() == nn_bruteforce(X).tolist() == [2, 0, 0, 0, 0, 0]


def test_xi_monotone_closed_form():
    x = np.arange(1.0, 5.0)
    s = chatterjee_xi(x, x)
    assert s == pytest.approx(1 - 3 / 5, abs=1e-15)
    assert s == pytest.approx(0.4)


def test_xi_constant_y_degenerate():
    with pytest.raises(DegenerateY):
        chatterjee_xi(np.arange(4.0), np.ones(4))


def test_xi_matches_direct_formula_and_is_small_for_independent():
    rng = np.random.default_rng(2024)
    n = 500
    x = rng.uniform(size=n)
    y = rng.permutation(rng.uniform(size=n))
    s = chatterjee_xi(x, y)
    assert s == pytest.approx(xi_direct(x.tolist(), y.tolist()), abs=1e-12)
    assert abs(s) < 0.15


def test_nearest_neighbor_map_matches_bruteforce():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(200, 3))
    X[50] = X[10]  # exact duplicate pair
    got = nearest_neighbors(X)
    exp = nn_bruteforce(X)
    assert np.array_equal(got, exp)
    assert got[50] == 10 or got[10] == 50


# relative perturbations that put neighbors within or just outside the
# 1e-12 tie tolerance
_NEAR_TIE = (0.0, 0.0, 1e-12, -1e-12, 5e-13, 3e-12)


@st.composite
def _tie_heavy_points(draw):
    """Points in one or two columns on a small integer grid (many
    equidistant neighbors), optionally spread by a continuous offset, with
    near-tie perturbations and exact duplicate rows."""
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 40))
    half_width = draw(st.integers(1, 8))
    cells = n * d
    X = np.array(draw(st.lists(st.integers(-half_width, half_width),
                               min_size=cells, max_size=cells)), dtype=float)
    if draw(st.booleans()):
        X = X + np.array(draw(st.lists(st.floats(0.0, 0.99), min_size=cells, max_size=cells)))
    rel = draw(st.lists(st.sampled_from(_NEAR_TIE), min_size=cells, max_size=cells))
    X = (X * (1.0 + np.array(rel)) * draw(st.sampled_from((1.0, 0.37, 1e3)))).reshape(n, d)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6)):
        X[j] = X[i]
    return X


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_points())
def test_nearest_neighbors_matches_bruteforce_property(X):
    assert np.array_equal(nearest_neighbors(X), nn_bruteforce(X))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rel, expected", [(4e-13, 1), (1e-12, 2), (3e-12, 2)])
def test_nearest_neighbors_near_tie_at_relative_1e12(d, rel, expected):
    # row 0 sits between a neighbor at distance 1 (index 2) and one at
    # distance 1 + rel (index 1).  Squared distances within relative 1e-12
    # tie, and a tie goes to the lower index.
    x = np.array([0.0, -(1.0 + rel), 1.0, 5.0, 9.0])
    X = np.column_stack([x] + [np.zeros_like(x)] * (d - 1))
    got = nearest_neighbors(X)
    assert np.array_equal(got, nn_bruteforce(X))
    assert got[0] == expected


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tiny", [1e-177, 1.3e-151])
def test_nearest_neighbors_tie_floor_of_squared_distances(d, tiny):
    # squared distances within 1e-300 of the nearest tie, so a point 1e-151
    # or 1e-177 away ties with an exact duplicate, and the lower index wins
    x = np.array([0.0, 1.0, tiny, 0.0, 2.0])
    X = np.column_stack([x] + [np.zeros_like(x)] * (d - 1))
    got = nearest_neighbors(X)
    assert np.array_equal(got, nn_bruteforce(X))
    assert got[0] == 2


def test_nearest_neighbors_one_column_ties_and_duplicates():
    rng = np.random.default_rng(43)
    x = rng.integers(0, 60, size=400).astype(float)  # every value repeated
    x[::17] += rng.uniform(size=len(x[::17]))
    got = nearest_neighbors(x[:, None])
    assert np.array_equal(got, nn_bruteforce(x[:, None]))


def test_precomputed_neighbor_map_gives_identical_scores():
    rng = np.random.default_rng(47)
    for d in (1, 3):
        X = rng.uniform(size=(300, d))
        y = np.cos(3 * X[:, 0]) + 0.2 * rng.normal(size=300)
        nn = neighbor_map(X)
        assert codec(X, y, nn=nn) == codec(X, y)
        assert codec(X, y, form="rewritten", nn=nn) == codec(X, y, form="rewritten")
        assert kmac(X, y, nn=nn) == kmac(X, y)
    with pytest.raises(ValueError):
        codec(X[:-1], y[:-1], nn=nn)


def test_codec_functional_vs_independent():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(500, 2))
    y = X[:, 0] ** 2 + X[:, 1]
    s = codec(X, y)
    assert s > 0.8
    assert s == pytest.approx(codec_direct(X, y), abs=1e-12)
    y_ind = rng.normal(size=500)
    s2 = codec(X, y_ind)
    assert abs(s2) < 0.15
    assert s2 == pytest.approx(codec_direct(X, y_ind), abs=1e-12)


def test_codec_both_forms_agree():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = 200
        d = 1 + trial % 3
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) if trial % 2 else X[:, 0] + rng.normal(size=n) * 0.1
        a = codec(X, y, form="min")
        b = codec(X, y, form="rewritten")
        assert abs(a - b) <= 1e-12


def test_codec_degenerate_y():
    rng = np.random.default_rng(1)
    with pytest.raises(DegenerateY):
        codec(rng.uniform(size=(10, 2)), np.full(10, 3.0))


def test_rank_measures_invariant_under_monotone_y_transform():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(300, 2))
    y = np.sin(X[:, 0]) + X[:, 1]
    y2 = y ** 3 + y  # strictly increasing
    assert codec(X, y) == codec(X, y2)
    assert chatterjee_xi(X[:, 0], y) == chatterjee_xi(X[:, 0], y2)


def test_codec_invariant_under_row_permutation():
    rng = np.random.default_rng(17)
    X = rng.uniform(size=(300, 3))
    y = X[:, 0] * X[:, 1] + X[:, 2]
    perm = rng.permutation(300)
    assert codec(X, y) == codec(X[perm], y[perm])


def test_scores_nondecreasing_in_sample_size():
    rng = np.random.default_rng(19)
    vals_codec = []
    vals_xi = []
    for n in (100, 500, 2000):
        X = rng.uniform(size=(n, 2))
        y = X[:, 0] * X[:, 1]
        vals_codec.append(codec(X, y))
        vals_xi.append(chatterjee_xi(X[:, 0], X[:, 0] ** 2 + 1))
    assert vals_codec == sorted(vals_codec)
    assert vals_xi == sorted(vals_xi)


def test_kmac_functional_and_independent():
    rng = np.random.default_rng(23)
    X = rng.uniform(size=(500, 2))
    y = np.cos(X[:, 0]) * X[:, 1]
    s = kmac(X, y)
    assert s > 0.8
    y_ind = rng.normal(size=500)
    s2 = kmac(X, y_ind)
    assert abs(s2) < 0.2


def test_kmac_matches_direct_oracle():
    rng = np.random.default_rng(29)
    X = rng.uniform(size=(150, 2))
    y = X[:, 0] + 0.3 * rng.normal(size=150)
    s = kmac(X, y)
    assert s == pytest.approx(kmac_direct(X, y, default_bandwidth(y)), abs=1e-10)


def test_kmac_constant_y_degenerate():
    rng = np.random.default_rng(31)
    with pytest.raises(DegenerateY):
        kmac(rng.uniform(size=(20, 2)), np.full(20, 1.0))


def test_volume_collinear_points_score_one():
    x = np.linspace(0.0, 1.0, 10)[:, None]
    s = volume_score(x, x[:, 0])
    assert s == pytest.approx(1.0, abs=1e-12)


def test_volume_unit_square_determinant():
    Z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vols = parallelepiped_volumes(Z)
    assert vols[0] == pytest.approx(1.0, abs=1e-12)


def test_volume_matches_cofactor_determinant_oracle():
    rng = np.random.default_rng(37)
    X = rng.uniform(size=(40, 2))
    y = rng.uniform(size=40)
    Z = _standardize(np.column_stack([X, y]))
    vols = parallelepiped_volumes(Z)
    nbrs = nn_bruteforce(Z)  # independent neighbor sanity only
    from scipy.spatial import cKDTree

    _, idx = cKDTree(Z).query(Z, k=5)
    for i in range(0, 40, 7):
        picked = [j for j in idx[i] if j != i][:3]
        M = Z[picked] - Z[i]
        assert vols[i] == pytest.approx(abs(det_cofactor(M)), rel=1e-9)


@pytest.mark.parametrize("shape, n_duplicates", [((6, 6), 0), ((4, 4, 4), 0), ((5, 3), 4)])
def test_volume_neighbors_tie_to_the_lowest_index(shape, n_duplicates):
    # a shuffled integer grid: almost every row has several equidistant
    # neighbors, which the k-d tree returns in its own traversal order; a
    # duplicated row ties its own copy at distance 0
    grid = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), -1)
    Z = grid.reshape(-1, len(shape)).astype(float)
    Z = Z[np.random.default_rng(5).permutation(len(Z))]
    Z = np.vstack([Z, Z[:n_duplicates]])
    want = volumes_bruteforce(Z)
    assert parallelepiped_volumes(Z) == pytest.approx(want, rel=1e-9, abs=1e-9)


@st.composite
def _signed_grid(draw):
    """A small-integer grid with duplicate rows, a column sign vector and a
    power-of-two factor."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 2, 30))
    X = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4)):
        X[j] = X[i]
    signs = np.array(draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=d, max_size=d)))
    return X, signs, 2.0 ** draw(st.integers(-20, 20))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_signed_grid())
def test_scores_see_points_up_to_column_sign_and_scale(case):
    # the memo of neighbor_map and volume_score keys by the standardized
    # points up to column sign; these identities make a hit equal a fresh call
    X, signs, scale = case
    Z = _standardize(X)
    # bitwise but for the sign of zero: x - mean is +0.0 on either side
    assert np.array_equal(_standardize(X * signs), Z * signs)
    assert _standardize(X * scale).tobytes() == Z.tobytes()
    assert np.array_equal(nearest_neighbors(Z * signs), nearest_neighbors(Z))
    assert parallelepiped_volumes(Z * signs).tobytes() == parallelepiped_volumes(Z).tobytes()


def test_memo_serves_sign_flipped_point_sets():
    rng = np.random.default_rng(53)
    X = rng.integers(0, 5, size=(60, 2)).astype(float)
    y = X[:, 0] - X[:, 1] + rng.integers(0, 2, size=60)
    memo = {}
    nn = neighbor_map(X, memo)
    assert neighbor_map(-X, memo) is nn
    assert np.array_equal(nn, neighbor_map(-X))
    vol = volume_score(X, y, memo)
    assert volume_score(X * [1, -1], -y, memo) == vol == volume_score(X * [1, -1], -y)
    assert len(memo) == 2
    assert neighbor_map(X[:, ::-1], memo) is not nn  # a permutation is another key
    assert len(memo) == 3


def test_memoised_scores_ignore_memory_order():
    rng = np.random.default_rng(59)
    X = rng.uniform(size=(80, 3))
    y = X[:, 0] * X[:, 1] + X[:, 2]
    fortran = np.asfortranarray(X)
    assert neighbor_map(fortran, memo={}).tobytes() == neighbor_map(X, memo={}).tobytes()
    assert volume_score(fortran, y, memo={}) == volume_score(X, y, memo={})
    memo = {}
    assert neighbor_map(fortran, memo) is neighbor_map(X, memo)


def test_volume_score_orders_functional_above_noise():
    rng = np.random.default_rng(41)
    X = rng.uniform(size=(400, 2))
    y_fun = X[:, 0] + X[:, 1]
    y_ind = rng.uniform(-2, 2, size=400)
    assert volume_score(X, y_fun) > volume_score(X, y_ind)
