"""Strict complete intersections in Cox rings and Galois descent.

Exact computer algebra over finite fields: multigraded polynomial rings,
reduced Groebner bases, saturation against the irrelevant ideal, the
strict-complete-intersection test, and constructive rewriting of
Galois-invariant generators into orbit form.
"""

from .cox import (CoxAmbient, StrictCIVerdict, is_complete_intersection,
                  is_strict_ci, make_custom, make_product_projective,
                  make_segre_p1p1, subscheme_ideal)
from .descent import (DegreeOrbitPartition, DescentResult, SemilinearAction,
                      apply_action, degree_orbits, descend, fixed_space,
                      graded_piece_basis, is_invariant_ideal, lower_piece_basis)
from .errors import (ActionError, CoxDescentError, DescentPreconditionError,
                     ExponentCapError, InhomogeneousError, ParseError, RingMismatchError,
                     SaturationDirectionError, TowerMismatchError,
                     UnitIdealError)
from .fields import FieldElement, FieldTower, frobenius
from .groebner import (IdealHandle, ambient_dimension, dimension, height,
                       ideal_equal, intersect, normal_form, reduced_gb,
                       saturate)
from .problemfile import Problem, load_problem, parse_problem
from .rings import (Multidegree, MultigradedRing, Polynomial, degree_leq,
                    monomials_of_degree, multidegree)

__version__ = "0.1.0"
