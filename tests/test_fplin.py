"""Exact F_p linear algebra: frozen examples plus randomized invariants."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bgsplit
from bgsplit import fplin
from bgsplit.fplin import (
    compose,
    coset_representatives,
    dense_ranks,
    homology_basis,
    joined,
    kernel_array,
    lookup,
    minus,
    nonzeros,
    quotient_projection,
    ragged,
    rank,
    ranks,
    reduce_mod_rows,
    rref_array,
    run_starts,
    summed,
)


def _m(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def _rank(a: np.ndarray, p: int) -> int:
    """The reference rank: the pivot count of the full echelon form."""
    return len(rref_array(a, p)[1])


def _row_space(a: np.ndarray, p: int) -> np.ndarray:
    red, pivots = rref_array(a, p)
    return red[: len(pivots)]


def _image(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon rows spanning the column space of a."""
    return _row_space(a.T, p)


def _contains(rows: np.ndarray, vector, p: int) -> bool:
    return coset_representatives(_m([vector]), rows, p).shape[0] == 0


def test_rref_rank_one_example():
    red, pivots = rref_array(_m([[1, 2], [2, 4]]), 5)
    assert len(pivots) == 1
    assert pivots == [0]
    assert red.tolist() == [[1, 2], [0, 0]]


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    red, pivots = rref_array(eye, 7)
    assert len(pivots) == 3
    assert pivots == [0, 1, 2]
    assert np.array_equal(red, eye)


def test_rref_zero_and_empty_shapes():
    red, pivots = rref_array(np.zeros((2, 3), dtype=np.int64), 3)
    assert len(pivots) == 0 and pivots == []
    red, pivots = rref_array(np.zeros((0, 4), dtype=np.int64), 3)
    assert len(pivots) == 0 and red.shape == (0, 4)


def test_kernel_contains_expected_vector():
    ker = kernel_array(_m([[1, 2], [2, 4]]), 5)
    assert ker.shape[0] == 1
    assert _contains(ker, [3, 1], 5)
    assert not _contains(ker, [1, 0], 5)


def test_kernel_of_injective_map_is_zero():
    assert kernel_array(_m([[1, 0], [0, 1], [1, 1]]), 3).shape[0] == 0


def test_kernel_of_zero_rows_is_everything():
    assert kernel_array(np.zeros((0, 3), dtype=np.int64), 3).shape[0] == 3


def test_image_basis_example():
    im = _image(_m([[1, 2], [2, 4]]), 5)
    assert im.shape[0] == 1
    assert _contains(im, [1, 2], 5)
    assert _contains(im, [2, 4], 5)
    assert not _contains(im, [0, 1], 5)


def test_quotient_basis_picks_nonpivot_standard_vectors():
    reps = coset_representatives(np.eye(2, dtype=np.int64), _m([[1, 2]]), 5)
    assert len(reps) == 1
    assert reps[0].tolist() == [0, 1]


def test_quotient_basis_full_and_trivial():
    eye = np.eye(2, dtype=np.int64)
    assert coset_representatives(eye, eye, 3).tolist() == []
    reps = coset_representatives(eye, np.zeros((0, 2), dtype=np.int64), 3)
    assert [r.tolist() for r in reps] == [[1, 0], [0, 1]]


def test_quotient_basis_accepts_dependent_rows():
    # a spanning set with repeated directions gives the same quotient as a basis
    eye = np.eye(2, dtype=np.int64)
    dependent = coset_representatives(eye, _m([[1, 2], [2, 4]]), 3)
    assert np.array_equal(dependent, coset_representatives(eye, _m([[1, 2]]), 3))
    assert dependent.shape[0] == 1


def test_rank_counts_distinct_rows_of_singleton_columns():
    # both columns are singletons on row 0: one pivot, not two
    assert rank(_m([[1, 2], [0, 0]]), 3) == 1
    assert rank(_m([[1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]]), 5) == 3


def test_rank_peels_singleton_rows():
    # no singleton column; row 0 is a singleton on column 0
    assert rank(_m([[1, 0], [1, 1], [1, 2]]), 3) == 2
    # rows 0 and 1 are singletons on the same column: one pivot, not two
    assert rank(_m([[1, 0], [2, 0], [1, 1], [1, 2]]), 3) == 2


def test_rank_of_a_core_without_singletons():
    assert rank(_m([[1, 1], [1, 2]]), 3) == 2
    assert rank(_m([[1, 1], [2, 2]]), 3) == 1


def test_rank_of_empty_shapes():
    for shape in ((0, 0), (0, 4), (4, 0)):
        assert rank(np.zeros(shape, dtype=np.int64), 3) == 0


def test_rank_reduces_entries_first():
    # mod 3 this is [[0, 1], [0, 1]]; read unreduced, column 0 would be a singleton
    assert rank(_m([[3, 1], [0, 1]]), 3) == 1
    assert rank(_m([[-1, 3], [4, -3]]), 3) == 1
    assert rank(_m([[-1, 0], [0, 7]]), 5) == 2


def test_ranks_rejects_two_entries_at_one_position_in_a_core():
    # [[1, 1], [1, 2]] has no singleton; its (0, 0) given as 2 + 2 = 1 mod 3
    # would be read as one of the two
    row, col, val = _m([0, 0, 0, 1, 1]), _m([0, 0, 1, 0, 1]), _m([2, 2, 1, 1, 2])
    with pytest.raises(ValueError, match="share a position"):
        ranks(row, col, val, _m([[2, 2]]), 3)


def test_ranks_allows_a_pair_whose_row_the_peel_deletes():
    # column 0 is a singleton on row 0, so row 0 goes with its pair at (0, 1)
    # before the core [[1, 1], [1, 2]] is reached; the pair's sum cannot count
    row, col, val = _m([0, 0, 0, 1, 1, 2, 2]), _m([0, 1, 1, 1, 2, 1, 2]), _m([1, 1, 1, 1, 1, 1, 2])
    assert ranks(row, col, val, _m([[3, 3]]), 3).tolist() == [3]


def test_rank_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, which costs every invocation about 1.7 MB of RSS
    src = Path(bgsplit.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import bgsplit.cli, bgsplit.ext\n"
        "from bgsplit.fplin import rank\n"
        "assert rank(np.array([[1, 2, 0], [0, 0, 1], [0, 0, 2]]), 3) == 2\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@st.composite
def sparse_fp_matrices(draw):
    """Mostly-zero matrices up to 12 x 12, rich in singleton rows and columns."""
    p = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(min_value=0, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=12))
    a = np.zeros((rows, cols), dtype=np.int64)
    if rows and cols:
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(1, p - 1))
        for i, j, v in draw(st.lists(cells, max_size=rows * cols // 4 + 2)):
            a[i, j] = v
    return p, a


@settings(max_examples=200, deadline=None)
@given(sparse_fp_matrices())
def test_rank_matches_echelon_pivots(pm):
    p, a = pm
    assert rank(a, p) == _rank(a, p)
    assert rank(a.T, p) == rank(a, p)


@st.composite
def sparse_fp_batches(draw):
    """Up to five sparse matrices, some empty or all zero, with unreduced entries."""
    p = draw(st.sampled_from([3, 5, 7]))
    shapes = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=5))
    mats = []
    for rows, cols in shapes:
        a = np.zeros((rows, cols), dtype=np.int64)
        if rows and cols:
            # multiples of p are stored entries that vanish mod p
            cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(-3 * p, 3 * p))
            for i, j, v in draw(st.lists(cells, max_size=rows * cols // 3 + 2)):
                a[i, j] = v
        mats.append(a)
    return p, mats, draw(st.randoms())


@settings(max_examples=200, deadline=None)
@given(sparse_fp_batches())
@example((5, [], None))
@example((3, [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 3), dtype=np.int64), _m([[3, 1], [0, 1]])], None))
def test_batched_ranks_match_echelon_pivots(batch):
    p, mats, rng = batch
    # rows, and columns, numbered across the batch, matrix by matrix
    shapes = np.array([a.shape for a in mats], dtype=np.int64).reshape(-1, 2)
    first = np.cumsum(shapes, axis=0) - shapes
    entries = [
        (first[b, 0] + i, first[b, 1] + j, a[i, j])
        for b, a in enumerate(mats)
        for i, j in zip(*np.nonzero(a))
    ]
    if rng is not None:
        rng.shuffle(entries)
    row, col, val = (np.array([e[k] for e in entries], dtype=np.int64) for k in range(3))
    got = ranks(row, col, val, shapes, p)
    assert got.tolist() == [_rank(a, p) for a in mats]


@settings(max_examples=100, deadline=None)
@given(sparse_fp_batches())
def test_dense_ranks_match_echelon_pivots_in_any_batching(batch):
    p, mats, _ = batch
    want = [_rank(a, p) for a in mats]
    for bound in (10**9, 8, 1):
        with mock.patch.object(fplin, "_COLUMNS", bound):
            assert dense_ranks(iter(mats), p).tolist() == want


def test_dense_ranks_hold_at_most_columns_per_batch(monkeypatch):
    # widths 2, 2, 2 under a bound of 5 make batches of 4 and 2 columns; a
    # wider matrix is a batch alone
    batches, peel = [], fplin._peel

    def counted(rows, cols, val, row_of, col_of, n, p):
        batches.append(col_of.size)
        return peel(rows, cols, val, row_of, col_of, n, p)

    monkeypatch.setattr(fplin, "_peel", counted)
    monkeypatch.setattr(fplin, "_COLUMNS", 5)
    mats = [np.eye(2, dtype=np.int64)] * 3 + [np.ones((2, 7), dtype=np.int64)]
    assert dense_ranks(mats, 3).tolist() == [2, 2, 2, 1]
    assert batches == [4, 2, 7]


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    entries = draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return p, np.array(entries, dtype=np.int64).reshape((rows, cols))


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_rank_nullity_and_idempotence(pm):
    p, a = pm
    red, pivots = rref_array(a, p)
    ker = kernel_array(a, p)
    assert len(pivots) + ker.shape[0] == a.shape[1]
    again, pivots2 = rref_array(red, p)
    assert len(pivots2) == len(pivots) and pivots2 == pivots
    assert np.array_equal(again, red)


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_kernel_vectors_annihilate(pm):
    p, a = pm
    ker = kernel_array(a, p)
    if ker.shape[0] and a.shape[0]:
        prod = (a @ ker.T) % p
        assert not prod.any()


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_image_matches_rank_and_membership(pm):
    p, a = pm
    im = _image(a, p)
    _, pivots = rref_array(a, p)
    assert im.shape[0] == len(pivots)
    for j in range(a.shape[1]):
        assert _contains(im, a[:, j], p)


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_quotient_reps_complete_to_basis(pm):
    p, a = pm
    cols = a.shape[1]
    sub = _row_space(a, p)
    reps = coset_representatives(np.eye(cols, dtype=np.int64), a, p)
    assert len(reps) == cols - sub.shape[0]
    if cols:
        stacked = np.concatenate([sub, reps], axis=0)
        assert _row_space(stacked, p).shape[0] == cols


@st.composite
def chain_pairs(draw):
    """(p, d_out, d_in) with d_out @ d_in = 0: d_out factors through ker d_in^T."""
    p = draw(st.sampled_from([3, 5]))
    n, m, r = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))

    def matrix(rows, cols):
        entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(entries, dtype=np.int64).reshape((rows, cols))

    d_in = matrix(n, m)
    annihilator = kernel_array(d_in.T, p)
    d_out = (matrix(r, annihilator.shape[0]) @ annihilator) % p
    return p, d_out, d_in


@settings(max_examples=120, deadline=None)
@given(chain_pairs())
def test_homology_basis_counts_cycles_modulo_boundaries(pair):
    p, d_out, d_in = pair
    assert not ((d_out @ d_in) % p).any()
    n = d_in.shape[0]
    reps, rep_piv, borders, border_piv = homology_basis(d_out, d_in, p)
    assert len(rep_piv) == reps.shape[0] and len(border_piv) == borders.shape[0]
    assert not ((d_out @ reps.T) % p).any()
    assert reps.shape[0] == (n - _rank(d_out, p)) - _rank(d_in, p)
    stacked = np.concatenate([reps, borders], axis=0)
    assert _rank(stacked, p) == stacked.shape[0]


@settings(max_examples=120, deadline=None)
@given(fp_matrices(), st.data())
def test_quotient_projection_is_reduction_mod_rows(pm, data):
    p, a = pm
    n = a.shape[1]
    red, piv = rref_array(a, p)
    rows = red[: len(piv)]
    keep, proj = quotient_projection(rows, piv, n, p)
    assert keep == [c for c in range(n) if c not in piv]
    assert proj.shape == (len(keep), n)
    for _ in range(3):
        v = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
        assert np.array_equal((proj @ v) % p, reduce_mod_rows(v, rows, tuple(piv), p)[keep])
    assert not ((proj @ rows.T) % p).any()


def _reduce_row_by_row(v: np.ndarray, rows: np.ndarray, pivots, p: int) -> np.ndarray:
    """The sequential reference: subtract each echelon row in pivot order."""
    out = v % p
    for row, c in zip(rows, pivots):
        out = (out - out[c] * row) % p
    return out


@st.composite
def echelon_rows_and_vectors(draw):
    """(p, reduced-echelon rows, their pivots, a matrix of residue rows)."""
    p, a = draw(fp_matrices())
    rows, pivots = _row_space(a, p), rref_array(a, p)[1]
    k = draw(st.integers(min_value=0, max_value=4))
    n = a.shape[1]
    entries = draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    return p, rows, pivots, np.array(entries, dtype=np.int64).reshape((k, n))


@settings(max_examples=150, deadline=None)
@given(echelon_rows_and_vectors())
@example((3, np.zeros((0, 3), dtype=np.int64), [], _m([[1, 2, 0], [0, 0, 2]])))
@example((5, _m([[1, 0, 3], [0, 1, 4]]), [0, 1], np.zeros((0, 3), dtype=np.int64)))
@example((3, np.zeros((0, 2), dtype=np.int64), [], np.zeros((0, 2), dtype=np.int64)))
def test_matrix_reduction_equals_row_by_row(case):
    p, rows, pivots, vecs = case
    reduced = reduce_mod_rows(vecs, rows, tuple(pivots), p)
    assert reduced.shape == vecs.shape
    expected = [_reduce_row_by_row(v, rows, pivots, p) for v in vecs]
    for got, single, want in zip(reduced, vecs, expected):
        assert np.array_equal(got, want)
        assert np.array_equal(reduce_mod_rows(single, rows, tuple(pivots), p), want)
    assert not reduced[:, list(pivots)].any()


# -- entry tables -----------------------------------------------------------------


@st.composite
def entry_tables(draw, shape, p):
    """Entries (a, b, val) inside shape, unreduced mod p, with positions that may repeat."""
    n_a, n_b = shape
    cells = st.tuples(st.integers(0, max(n_a - 1, 0)), st.integers(0, max(n_b - 1, 0)), st.integers(-2 * p, 2 * p))
    found = draw(st.lists(cells, max_size=12)) if n_a and n_b else []
    return tuple(np.array([c[k] for c in found], dtype=np.int64) for k in range(3))


def _dense(entries, shape, p: int) -> np.ndarray:
    """The matrix with entry (a, b) the sum of the values at (a, b), mod p."""
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, (entries[0], entries[1]), entries[2])
    return out % p


def _is_summed(entries, p: int) -> bool:
    """Sorted by (a, b) with no position twice, and every value a nonzero residue."""
    a, b, val = entries
    keys = list(zip(a.tolist(), b.tolist()))
    return keys == sorted(set(keys)) and all(0 < v < p for v in val.tolist())


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([3, 5, 7]), st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
def test_summed_minus_and_compose_match_dense_arithmetic(data, p, dims):
    n0, n1, n2 = dims
    first, other = data.draw(entry_tables((n0, n1), p)), data.draw(entry_tables((n0, n1), p))
    second = data.draw(entry_tables((n1, n2), p))
    # second read as a map needs its entries in order of a; duplicates may stay
    second = tuple(x[np.argsort(second[0], kind="stable")] for x in second)
    a, b = _dense(first, (n0, n1), p), _dense(other, (n0, n1), p)
    got = summed(*first, p)
    assert _is_summed(got, p) and np.array_equal(_dense(got, (n0, n1), p), a)
    got = minus(first, other, p)
    assert _is_summed(got, p) and np.array_equal(_dense(got, (n0, n1), p), (a - b) % p)
    # as maps, first sends a to b and second sends b to c, so the matrices
    # with rows indexed by the target compose as B @ A
    got = compose(first, second, p)
    want = (_dense(second, (n1, n2), p).T @ a.T) % p
    assert _is_summed(got, p) and np.array_equal(_dense(got, (n0, n2), p).T, want)


@settings(max_examples=100, deadline=None)
@given(sparse_fp_batches())
def test_nonzeros_round_trip(batch):
    _, mats, _ = batch
    count, start, rows, cols, vals = nonzeros(iter(mats))
    assert count.tolist() == [np.count_nonzero(a) for a in mats]
    assert start.tolist() == (np.cumsum(count) - count).tolist()
    for a, n, lo in zip(mats, count, start):
        r, c, v = rows[lo : lo + n], cols[lo : lo + n], vals[lo : lo + n]
        back = np.zeros_like(a)
        back[r, c] = v
        assert np.array_equal(back, a) and v.all()
        assert (r * max(a.shape[1], 1) + c).tolist() == sorted((r * max(a.shape[1], 1) + c).tolist())


def test_joined_and_nonzeros_of_nothing_are_empty_int64_tables():
    for got in (joined([]), nonzeros([])[2:]):
        assert [(x.size, x.dtype) for x in got] == [(0, np.int64)] * 3


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-50, 50), unique=True, max_size=12),
    st.lists(st.integers(-60, 60), max_size=12),
    st.randoms(),
)
@example([], [], None)
@example([], [3, -1], None)
def test_lookup_matches_a_dict(keys, want, rng):
    index = {k: i for i, k in enumerate(sorted(keys))}
    expected = [index.get(w, -1) for w in want]
    ordered, want = np.array(sorted(keys), dtype=np.int64), np.array(want, dtype=np.int64)
    assert lookup(ordered, want).tolist() == expected
    # the same keys out of order, found through a sorter, give their own positions
    if rng is not None:
        rng.shuffle(keys)
    shuffled = np.array(keys, dtype=np.int64)
    by_key = {k: i for i, k in enumerate(keys)}
    got = lookup(shuffled, want.reshape(-1, 1), np.argsort(shuffled))
    assert got.shape == (want.size, 1)
    assert got.ravel().tolist() == [by_key.get(w, -1) for w in want.tolist()]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 5)), max_size=10))
def test_ragged_matches_python_ranges(runs):
    starts, counts = (np.array([r[k] for r in runs], dtype=np.int64) for k in (0, 1))
    assert ragged(starts, counts).tolist() == [x for s, c in runs for x in range(s, s + c)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=12))
def test_run_starts_match_python_runs(pairs):
    a, b = (np.array([x[k] for x in pairs], dtype=np.int64) for k in (0, 1))
    assert run_starts(a, b).tolist() == [i for i, x in enumerate(pairs) if i == 0 or x != pairs[i - 1]]
