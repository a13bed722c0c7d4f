"""Bigraded Ext over exterior algebras and over the polynomial algebra P(2)."""

from .compare import (
    ObstructionClass,
    ObstructionReport,
    PropisoReport,
    dual_module,
    ext_via_dual,
    obstruction_report,
    propiso_check,
)
from .koszul import (
    BigradedDims,
    BocksteinE1,
    EvenConcentrationReport,
    KoszulComplex,
    VInjectivityReport,
    bockstein_e1,
    even_concentration_check,
    ext_koszul,
    v_injectivity,
    v_monomials,
)
from .poly import (
    PdReport,
    PModule,
    PolyPresentation,
    ext_p_module,
    gr_module,
    p_resolution,
    projective_dimension,
)
from .resolution import ResolutionStage, ext_general, minimal_resolution

__all__ = [
    "BigradedDims",
    "BocksteinE1",
    "EvenConcentrationReport",
    "KoszulComplex",
    "ObstructionClass",
    "ObstructionReport",
    "PModule",
    "PdReport",
    "PolyPresentation",
    "PropisoReport",
    "ResolutionStage",
    "VInjectivityReport",
    "bockstein_e1",
    "dual_module",
    "even_concentration_check",
    "ext_general",
    "ext_koszul",
    "ext_p_module",
    "ext_via_dual",
    "gr_module",
    "minimal_resolution",
    "obstruction_report",
    "p_resolution",
    "projective_dimension",
    "propiso_check",
    "v_injectivity",
    "v_monomials",
]
