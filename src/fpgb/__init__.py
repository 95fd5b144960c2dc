"""fpgb: exact Groebner basis engine over prime fields.

Batches of shifted reducers are compiled into static sparse matrices by a
deterministic two-pass bulk pipeline; structured elimination or black-box
kernel extraction runs on the result; an F4-style driver consumes both,
with a textbook Buchberger implementation kept as the independent oracle.
"""

__version__ = "0.1.0"

from .fp import Backend, FieldModulus
from .monomials import Ring, count_monomials
from .polynomials import Poly, poly_parse, poly_format

__all__ = [
    "Backend",
    "FieldModulus",
    "Ring",
    "Poly",
    "count_monomials",
    "poly_parse",
    "poly_format",
    "__version__",
]
