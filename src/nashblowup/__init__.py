"""Exact computation with higher-order Jacobian matrices of hypersurfaces."""

from .groebner import (
    BudgetExceededError,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    normal_form,
    radical_membership,
)
from .hilbert import MonomialIdeal, graded_dim, local_hilbert, nonsingular_by_dimension
from .hjac import (
    HigherJacobian,
    PointNotOnHypersurfaceError,
    SingularPointError,
    build,
    is_singular,
    maximal_minors,
    nash_ideal,
    rank_at,
    shape,
    tangent_space,
)
from .limits import (
    LimitIdealResult,
    containment_oracle,
    describe_planes,
    limit_ideal,
    translate_to_origin,
)
from .parser import ParseError, format_polynomial, parse_polynomial
from .polynomial import (
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    elimination_order,
    grevlex,
    grlex,
    lex,
    make_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
