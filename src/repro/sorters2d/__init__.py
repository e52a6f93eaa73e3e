"""Two-dimensional sorters — the paper's pluggable ``S_2(N)`` black box.

* :mod:`repro.sorters2d.base` — cost-model and executable-sorter interfaces
  plus the routing (``R(N)``) models;
* :mod:`repro.sorters2d.analytic` — the §5 closed-form catalog
  (Schnorr-Shamir grids, Kunde tori, the 3-step hypercube sorter, Batcher
  emulation for de Bruijn products, torus emulation for arbitrary factors);
* :mod:`repro.sorters2d.oddeven_snake`, :mod:`repro.sorters2d.shearsort`,
  :mod:`repro.sorters2d.hypercube2d` — executable sorters driving the
  fine-grained machine backend.
"""

from .analytic import (
    batcher_emulation_model,
    hypercube_three_step_model,
    kunde_torus_model,
    schnorr_shamir_model,
    sorter_for_factor,
    sublinear_term,
    torus_emulation_model,
)
from .base import (
    AdjacentStepRoutingModel,
    AnalyticSorterModel,
    ConstantRoutingModel,
    ExecutableTwoDimSorter,
    MeasuredExecutableModel,
    PublishedRoutingModel,
    RoutingModel,
    SorterTemplate,
    TwoDimSorterModel,
)
from .hypercube2d import HypercubeThreeStepSorter
from .oddeven_snake import OddEvenSnakeSorter
from .shearsort import ShearSorter

__all__ = [
    "AnalyticSorterModel",
    "TwoDimSorterModel",
    "ExecutableTwoDimSorter",
    "SorterTemplate",
    "MeasuredExecutableModel",
    "RoutingModel",
    "PublishedRoutingModel",
    "AdjacentStepRoutingModel",
    "ConstantRoutingModel",
    "batcher_emulation_model",
    "hypercube_three_step_model",
    "kunde_torus_model",
    "schnorr_shamir_model",
    "sorter_for_factor",
    "sublinear_term",
    "torus_emulation_model",
    "HypercubeThreeStepSorter",
    "OddEvenSnakeSorter",
    "ShearSorter",
]
