"""Exact-arithmetic verification of the secant-line linear algebra of
deformations of Fermat hypersurfaces.

The package decides, over the rationals and with no floating point, the
finite rank/kernel/span statements that control whether two points of a
degree-(2n+2) hypersurface in P^(n+1) can sit on a common low-contact line:
bases of distinguished quadratic bundle sections, kernels of restriction to
secant lines for the three classes of point pairs, and the rigidity of
two-point tangent lines.
"""

from .errors import (CoordinatePointError, DimensionMismatch, InfeasibleSystem,
                     LineInHypersurface, NonGenericScheme, NotInTangencyStratum)
from .exact import (Matrix, Subspace, format_fraction, kernel_basis,
                    sample_rational)
from .family import (DeformationPoint, FamilyShape, c_coeff, eta, koszul_eta_m,
                     omega_basis, sample_b_through)
from .lines import (Line, ProjPoint, classify, distinct_root_count, ip_linear,
                    iz_linear, monomial_index, restrict_mod_f, restrict_poly,
                    restrict_section)
from .poly import (EulerSection, HomogPoly, MonomialSet, all_monomials,
                   euler_alpha, gen_jd, jd_size_formula)
from .rng import Rng
from .verifiers import (LemmaReport, incidence_dimension, secant_obstruction,
                        tangency_deformation_dim, verify_generic_systems,
                        verify_incidence, verify_kernel_generic,
                        verify_kernel_special, verify_point_ideal,
                        verify_secant, verify_tangency, verify_w_basis,
                        verify_xi_generic, verify_xi_special)
from .cli import REGISTRY, RunConfig, run, run_lemma

__version__ = "0.1.0"
