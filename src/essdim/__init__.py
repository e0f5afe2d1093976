"""Essential dimension of the maximal-torus normalizer at a prime p.

Exact combinatorial machinery: zero-sum character lattices, Sylow
p-subgroups of symmetric groups, witness weight-set constructions,
generic-freeness certification, minimal invariant generating-set searches,
and the closed-form value calculator.
"""

__version__ = "0.1.0"

from .edcalc import EdReport, ed_value  # noqa: F401
from .lattice import LatticeSpec, WeightSet  # noqa: F401
