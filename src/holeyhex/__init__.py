"""Exact enumeration and interaction asymptotics for holey hexagons."""

from .arith import binomial, gamma_ratio, hyp_terminating, product_formula
from .regions import (InducedHole, RegionSpec, SpecValidationError, TriangularRegion,
                      build_region, distance, lgv_points, merge_induced_holes, validate)
from .matrices import (CountResult, closed_form_entry, count_region, det_exact,
                       hole_matrix, path_matrix)
from .oracle import count_families, count_tilings, enumerate_tilings
from .asymptotics import (CorrelationReport, classify_regime, entry_asym, finite_correlation,
                          predicted_interaction, separation_sweep, size_sweep)
from .zeta import pair_holes, verify_injection, zeta

__version__ = "0.1.0"
