"""Minimal exterior resolutions and the resolution route to Ext(M, N)."""

from __future__ import annotations

import pytest

from bgsplit.browngitler import bp_homology, weight_restricted_C
from bgsplit.ext.koszul import ext_koszul
from bgsplit.ext.resolution import ext_general, minimal_resolution
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import free_module, suspend, trivial_module, verify_map

P3 = PrimeContext(3)
FULL = (0, 1, 2)

# Ext(C_9, F_p) for s <= 5, t in [-20, 5]; the only odd t - s class in
# the whole module is the bottom one at (0, -17)
EXT_C9_UNIT = {
    (0, -17): 1, (0, -8): 1, (0, -4): 1,
    (1, -11): 1, (1, -7): 1, (1, -3): 2, (1, 1): 2, (1, 5): 1,
    (2, -10): 1, (2, -6): 2, (2, -2): 2, (2, 2): 3,
    (3, -9): 1, (3, -5): 2, (3, -1): 3, (3, 3): 3,
    (4, -8): 1, (4, -4): 2, (4, 0): 3, (4, 4): 4,
    (5, -7): 1, (5, -3): 2, (5, 1): 3, (5, 5): 4,
}


def test_c9_minimal_generators():
    c9 = weight_restricted_C(P3, 9)
    stages = minimal_resolution(c9, s_max=0)
    assert stages[0].gen_degrees == [17, 8, 4]


def test_free_module_resolves_in_one_stage():
    free = free_module(P3, FULL, 10)
    stages = minimal_resolution(free, s_max=5)
    assert len(stages) == 1
    assert stages[0].gen_degrees == [10]


def test_stage_maps_are_equivariant_and_gens_descend():
    c9 = weight_restricted_C(P3, 9)
    stages = minimal_resolution(c9, s_max=3)
    for stage in stages:
        verify_map(stage.map_down)
    tops = [max(stage.gen_degrees) for stage in stages]
    assert tops == sorted(tops, reverse=True)
    assert len(set(tops)) == len(tops)


def test_resolution_requires_complete_module():
    bounded = bp_homology(P3, 2, 20).module
    with pytest.raises(ValueError, match="complete"):
        minimal_resolution(bounded, s_max=2)


def test_ext_general_agrees_with_koszul_for_unit_source():
    c9 = weight_restricted_C(P3, 9)
    unit = trivial_module(P3, FULL)
    from_resolution = ext_general(unit, c9, 3, 24)
    from_koszul = ext_koszul(c9, 3, 24)
    assert from_resolution.dims == {
        bd: d for bd, d in from_koszul.dims.items() if bd[0] <= 3
    }


def test_ext_general_c9_to_unit_oracle():
    c9 = weight_restricted_C(P3, 9)
    unit = trivial_module(P3, FULL)
    ext = ext_general(c9, unit, 5, 5, t_min=-20)
    assert ext.dims == EXT_C9_UNIT
    odd = [(s, t) for s, t in ext.dims if (t - s) % 2]
    assert odd == [(0, -17)]


def test_ext_general_shifts_with_target_suspension():
    c3 = weight_restricted_C(P3, 3)
    unit = trivial_module(P3, FULL)
    base = ext_general(c3, unit, 3, 6, t_min=-10)
    moved = ext_general(c3, suspend(unit, 8), 3, 14, t_min=-2)
    assert moved.dims == {(s, t + 8): d for (s, t), d in base.dims.items()}


def test_truncated_target_shrinks_certified_range():
    c9 = weight_restricted_C(P3, 9)
    shallow = bp_homology(P3, 2, 20).module
    ext = ext_general(c9, shallow, 2, 40)
    assert ext.note is not None
    assert ext.t_max == 20 - 17
    # a deeper truncation of the same module agrees on the overlap
    deep = ext_general(c9, bp_homology(P3, 2, 40).module, 2, ext.t_max, t_min=ext.t_min)
    assert deep.dims == ext.dims
