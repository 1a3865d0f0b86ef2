"""Exact star products on symplectic charts and their quantization maps.

Truncated-jet arithmetic over complex rationals, the flatness recursion
for a symplectic connection, the induced star product, and polarization
operators for cotangent and complex charts.
"""

from .rational import CRat, rational_sqrt
from .jets import (Chart, ChartMismatch, DomainError, Jet, JetError,
                   OrderExhausted, jet_exp, jet_log, jet_sqrt)
from .exprparse import ParseError, jet_of
from .weyl import (GradingError, WeylForm, graded_commutator, op_delta,
                   op_delta_inv, op_delta_star, weyl_mul)
from .geometry import (ChartGeometry, CheckReport, GeometryError,
                       ValidationFailure, build_darboux, build_flat,
                       build_kaehler, complex_chart, lift_cotangent, nabla,
                       phase_chart, poisson, validate_connection)
from .fedosov import (FedosovError, FedosovState, StarSeries, check_flatness,
                      flat_section, moyal_reference, section_defect, solve_r,
                      star)
from .quantization import (DiffOp, HbarSeries, QuantizationError,
                           diffop_apply, diffop_compose, gq_cotangent,
                           gq_kaehler, kinetic_alpha,
                           kinetic_energy_observable, laplace_beltrami,
                           rho_extend, scalar_curvature)
from .suites import SUITES

__version__ = "0.1.0"
