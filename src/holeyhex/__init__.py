"""Exact enumeration and interaction asymptotics for holey hexagons."""

from .arith import binomial, gamma_ratio, hyp_terminating, product_formula
from .regions import (InducedHole, RegionSpec, SpecValidationError, TriangularRegion,
                      build_region, distance, induced_holes, lgv_points,
                      merge_induced_holes, parse_spec, validate)
from .matrices import (CountResult, closed_form_entry, count_region, det_exact,
                       hole_matrix, lu_factor_entry, path_count, path_matrix,
                       verify_lu)
from .oracle import count_families, count_tilings, enumerate_tilings
from .asymptotics import (CorrelationReport, cauchy_det, classify_regime, entry_asym,
                          finite_correlation, predicted_interaction, separation_sweep,
                          size_sweep)
from .zeta import pair_holes, verify_injection, zeta

__version__ = "0.1.0"
