"""Geodesics of metric connections with vectorial torsion.

Simulation library for the twisted geodesic flow on 2D Riemannian charts
and surfaces of revolution: pointwise connection algebra, RK integration,
invariants of motion, conformal equivalence with classical geodesics, and
scenario tooling (CSV/JSON/SVG artifacts, CLI).
"""

from .algebra import Decomposition, DifferenceTensor, decompose, torsion_from, vectorial_tensor
from .audit import (InvariantReport, Isometry, conformal_constant, curvature_general,
                    killing_curvature_check, killing_flow_symmetry, kinematic_curvature)
from .conformal import compare_point_sets, conformal_metric, reparametrize
from .errors import ChartDomainError, ConfigError, MetricDegeneracyError
from .geometry import (ChartGeometry, VectorFieldSpec, christoffel, euclidean_plane, grad,
                       half_plane, inner, norm)
from .integrate import (GeodesicState, IntegratorSettings, Trace, geodesic_rhs,
                        integrate, integrate_adaptive, integrate_two_sided,
                        levi_civita_integrate)
from .plane import (StripBounds, arcsin_invariant, flat_invariant, plane_curvature,
                    shear_field, shooting_sweep, strip_bounds, strip_quadrature,
                    winding_field)
from .surfaces import (CatalogSurface, RevolutionProfile, embed, gauss_map,
                       gaussian_curvature, loxodrome_check, make_catenoid,
                       make_pseudosphere, make_sphere, mercator_map)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
