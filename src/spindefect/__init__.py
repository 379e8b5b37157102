"""Exact spin Dirac defects of spherical 3-manifolds.

The defect delta(S, c) of a spherical space form S with spin structure c is
the integer making ind D(Z) = -(sign Z + delta)/8 for spin fillings Z.  It is
computed here three independent ways -- a closed-form row catalog, a general
rearrangement engine, and negative-definite plumbing trees -- and fed into
ten-eighths-theorem applications (filling shapes, cobordism order, embedded
surfaces).  Everything is exact integer/rational arithmetic.

The package re-exports each module's ``__all__``; that list is where a
public name is declared.
"""

from . import catalog, errors, obstruction, plumbing, seifert, sigma

__version__ = "0.1.0"

__all__ = sorted(
    catalog.__all__
    + errors.__all__
    + obstruction.__all__
    + plumbing.__all__
    + seifert.__all__
    + sigma.__all__
)

from .catalog import *
from .errors import *
from .obstruction import *
from .plumbing import *
from .seifert import *
from .sigma import *  # last, so that ``spindefect.sigma`` is the function
