"""Exact F_p linear algebra: frozen examples plus randomized invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.fplin import coset_representatives, kernel_array, rref_array, solve_columns


def _m(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


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


def test_solve_columns_consistent_and_inconsistent():
    a = _m([[1, 1], [0, 1]])
    x = solve_columns(a, _m([2, 1]), 3)
    assert x is not None
    assert ((a @ x) % 3).tolist() == [2, 1]
    b = _m([[1, 1], [2, 2]])
    assert solve_columns(b, _m([0, 1]), 3) is None


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
