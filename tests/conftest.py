"""Shared fixtures."""

from __future__ import annotations

import pytest

from bgsplit.ext import compare, poly


class PolyWork:
    """What the P(2) side built while a test ran.

    A block build is one `ext_p_module` call whose output is resolved
    once; every other resolution (projective_dimension's) is `outside`.
    """

    def __init__(self) -> None:
        self.blocks = []  # modules handed to ext_p_module
        self.exts = []  # what it returned
        self.realized = []  # what realize returned
        self.resolved = []  # modules handed to p_resolution

    @property
    def outside(self) -> list:
        return [m for m in self.resolved if not any(m is e for e in self.exts)]


@pytest.fixture
def poly_work(monkeypatch):
    """Empty the block and pd memos and record the P(2) work from then on.

    The wrappers replace each name wherever the pipeline binds it, so a
    resolution or realization made from the comparison is seen too.
    """
    work = PolyWork()
    ext_p_module, realize, p_resolution = poly.ext_p_module, poly.realize, poly.p_resolution

    def counting_ext(module, t_max):
        work.blocks.append(module)
        out = ext_p_module(module, t_max)
        work.exts.append(out)
        return out

    def counting_realize(pres, t_max=None):
        out = realize(pres, t_max)
        work.realized.append(out)
        return out

    def counting_resolution(m, u_max):
        work.resolved.append(m)
        return p_resolution(m, u_max)

    monkeypatch.setattr(poly, "_BLOCKS", {})
    monkeypatch.setattr(poly, "_PD", {})
    for name, wrapper in (
        ("ext_p_module", counting_ext),
        ("realize", counting_realize),
        ("p_resolution", counting_resolution),
    ):
        for module in (poly, compare):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return work
