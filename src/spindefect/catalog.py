"""Closed-form catalog of the spin defect for spherical space forms.

Every spherical Seifert space over S^2 with three exceptional fibers falls,
after normalization -- fiber permutation, coefficient shifts, and if needed an
orientation reversal to make the Euler number negative -- into one of four
families named after the finite symmetry groups: dihedral D(2,2,n),
tetrahedral T(2,3,3), octahedral O(2,3,4) and icosahedral I(2,3,5).  Within a
family the defect of a normalized representative is tabulated row by row: the
D rows are lens-defect expressions in (n, b), the T/O/I rows are constants
indexed by the residue class of the third coefficient (parameter k) and,
where the space has several spin structures, by the transported label
pattern.

``classify`` normalizes given data onto a row directly, without a search:
negate every b when the Euler number is positive; in D(2,2,n) move the
n-fiber to the third slot and shift both 2-fibers to b = 1; in T/O/I order
the fibers 2, 3, a_3 and shift the first two to b = t, with t = +1 iff
b_2 = 1 mod 3.  The third coefficient and the transported labels then pick
the row.  ``delta_table`` evaluates a row at its parameters; ``delta``
combines the two and cross-checks the result against the torus-splitting
engine; ``instantiate_case`` rebuilds concrete data from a case id, which
is how the tables are round-trip tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    InternalDisagreement,
    NoSpinForm,
    UnrecognizedForm,
)
from .seifert import (
    LensSpace,
    SeifertData,
    SpinAssignment,
    _pairs_of,
    delta_engine,
    reverse_orientation,
    spin_conditions_hold,
)
from .sigma import _sigma

__all__ = [
    "DeltaCaseId",
    "FAMILY_D",
    "FAMILY_T",
    "FAMILY_O",
    "FAMILY_I",
    "classify",
    "delta_table",
    "delta",
    "instantiate_case",
    "iter_cases",
]

FAMILY_D = "D(2,2,n)"
FAMILY_T = "T(2,3,3)"
FAMILY_O = "O(2,3,4)"
FAMILY_I = "I(2,3,5)"


@dataclass(frozen=True)
class DeltaCaseId:
    """A catalog row plus the parameters that pin down one instance.

    ``params`` carries (n, b[, eps]) for D rows and (k[, eps]) for T/O/I
    rows.  ``orientation_reversed`` records that the row describes the
    orientation reversal of the data handed to ``classify`` (the defect of
    the original is minus the row value).
    """

    family: str
    row: str
    params: Mapping[str, int] = field(default_factory=dict)
    orientation_reversed: bool = False

    def describe(self) -> str:
        bits = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tail = " [orientation reversed]" if self.orientation_reversed else ""
        return f"{self.family} row ({self.row}): {bits}{tail}"


# --- constant rows of the T/O/I families -----------------------------------
#
# Third coefficient b3 = 2*t*a3*k + offset in the printed orientation, with
# a3 = 3, 4, 5 fixed by the family; rows with t = +1 carry (2,1),(3,1) and
# k >= 0, rows with t = -1 carry (2,-1),(3,-1) and k <= -1.  c3 is the
# printed third spin label where the family has two structures (O only);
# eps tags the sub-rows of the +-eps rows.


@dataclass(frozen=True)
class _ConstRow:
    family: str
    label: str
    t: int
    offset: int
    delta: int
    c3: int | None = None
    eps: int | None = None

    @property
    def a3(self) -> int:
        return _A3_OF_FAMILY[self.family]

    def b3_of(self, k: int) -> int:
        return 2 * self.t * self.a3 * k + self.offset

    def k_in_range(self, k: int) -> bool:
        return k >= 0 if self.t == 1 else k <= -1

    def params(self, k: int) -> dict[str, int]:
        return {"k": k} if self.eps is None else {"k": k, "eps": self.eps}


_CONST_ROWS = [
    _ConstRow(FAMILY_T, "3-1", +1, 2, -2),
    _ConstRow(FAMILY_T, "3-2", -1, -2, 0),
    _ConstRow(FAMILY_T, "3-3", +1, -2, -6),
    _ConstRow(FAMILY_T, "3-4", -1, 2, 4),
    _ConstRow(FAMILY_T, "3-5", +1, 1, -4),
    _ConstRow(FAMILY_T, "3-6", -1, -1, 2),
    _ConstRow(FAMILY_O, "4-1", +1, 1, -3, c3=0),
    _ConstRow(FAMILY_O, "4-2", +1, 1, -5, c3=1),
    _ConstRow(FAMILY_O, "4-3", -1, -1, 1, c3=0),
    _ConstRow(FAMILY_O, "4-4", -1, -1, 3, c3=1),
    _ConstRow(FAMILY_O, "4-5", +1, -1, -5, c3=0),
    _ConstRow(FAMILY_O, "4-6", +1, -1, 1, c3=1),
    _ConstRow(FAMILY_O, "4-7", -1, 1, 3, c3=0),
    _ConstRow(FAMILY_O, "4-8", -1, 1, -3, c3=1),
    _ConstRow(FAMILY_O, "4-9", +1, 3, -1, c3=0),
    _ConstRow(FAMILY_O, "4-10", +1, 3, -3, c3=1),
    _ConstRow(FAMILY_O, "4-11", -1, -3, -1, c3=0),
    _ConstRow(FAMILY_O, "4-12", -1, -3, 1, c3=1),
    _ConstRow(FAMILY_O, "4-13", +1, -3, -7, c3=0),
    _ConstRow(FAMILY_O, "4-14", +1, -3, -1, c3=1),
    _ConstRow(FAMILY_O, "4-15", -1, 3, 5, c3=0),
    _ConstRow(FAMILY_O, "4-16", -1, 3, -1, c3=1),
    _ConstRow(FAMILY_I, "5-1-ε", +1, 2, -4, eps=+1),
    _ConstRow(FAMILY_I, "5-1-ε", +1, -2, -4, eps=-1),
    _ConstRow(FAMILY_I, "5-2-ε", -1, -2, 2, eps=+1),
    _ConstRow(FAMILY_I, "5-2-ε", -1, 2, 2, eps=-1),
    _ConstRow(FAMILY_I, "5-3", +1, 4, 0),
    _ConstRow(FAMILY_I, "5-4", -1, -4, -2),
    _ConstRow(FAMILY_I, "5-5", +1, -4, -8),
    _ConstRow(FAMILY_I, "5-6", -1, 4, 6),
    _ConstRow(FAMILY_I, "5-7", +1, 1, -6),
    _ConstRow(FAMILY_I, "5-8", -1, -1, 4),
    _ConstRow(FAMILY_I, "5-9", +1, -1, 2),
    _ConstRow(FAMILY_I, "5-10", -1, 1, -4),
    _ConstRow(FAMILY_I, "5-11-ε", +1, 3, -2, eps=+1),
    _ConstRow(FAMILY_I, "5-11-ε", +1, -3, -2, eps=-1),
    _ConstRow(FAMILY_I, "5-12-ε", -1, -3, 0, eps=+1),
    _ConstRow(FAMILY_I, "5-12-ε", -1, 3, 0, eps=-1),
]

_FAMILY_OF_A3 = {3: FAMILY_T, 4: FAMILY_O, 5: FAMILY_I}
_A3_OF_FAMILY = {family: a3 for a3, family in _FAMILY_OF_A3.items()}

# Two indexes of _CONST_ROWS, built once here and in table order: the one
# row of each (family, t, c3, b3 mod 2*t*a3), which the classifier looks
# up, and the one row of each (label, eps), which a case id names.  A row
# without a c3 fits either label and goes in under both.
_ROW_OF_RESIDUE = {
    (row.family, row.t, c3, row.offset % (2 * row.t * row.a3)): row
    for row in _CONST_ROWS
    for c3 in ((0, 1) if row.c3 is None else (row.c3,))
}
_ROW_OF_LABEL = {(row.label, row.eps): row for row in _CONST_ROWS}


def _const_row(label: str, eps: int | None) -> _ConstRow:
    row = _ROW_OF_LABEL.get((label, eps))
    if row is not None:
        return row
    if any(known == label for known, _ in _ROW_OF_LABEL):
        raise ValueError(f"row ({label}) needs eps=+1 or -1")
    raise UnrecognizedForm(f"unknown catalog row ({label})")


# --- dihedral rows ----------------------------------------------------------
#
# label -> (parity of n, sign of b, (c1, c2) pattern, addend); rows whose
# defect is sigma(n, n+b, -1) are marked "sum" and carry the free label eps.

_D_ROWS = {
    "2-1": ("odd", "neg", (0, 0), 0),
    "2-2": ("odd", "neg", (1, 1), -4),
    "2-3": ("odd", "pos", (0, 0), 2),
    "2-4": ("odd", "pos", (1, 1), -2),
    "2-5": ("odd", "sum", None, 0),
    "2-6": ("even", "neg", (0, 0), 0),
    "2-7": ("even", "neg", (1, 1), -4),
    "2-8": ("even", "pos", (0, 0), 2),
    "2-9": ("even", "pos", (1, 1), -2),
    "2-10": ("even", "sum", None, 0),
}

_D_ROW_OF = {row[:3]: label for label, row in _D_ROWS.items()}


def _d_row_domain_error(label: str, n: int, b: int) -> str | None:
    """Why (n, b) lies outside D row ``label``, or None when it is inside."""
    parity, brange, _, _ = _D_ROWS[label]
    if n < 2 or math.gcd(n, b) != 1:
        return f"row ({label}): (n, b) = ({n}, {b}) is not a valid pair"
    if (n % 2 == 0) != (parity == "even"):
        return f"row ({label}) needs n {parity}, got n = {n}"
    if brange == "sum":
        if n + b <= 0:
            return f"row ({label}) needs n + b > 0"
        if n % 2 == 1 and b % 2 == 0:
            return f"row ({label}) needs b odd when n is odd"
    elif n % 2 == 1 and b % 2 != 0:
        return f"row ({label}) needs b even"
    elif brange == "neg" and not -n < b < 0:
        return f"row ({label}) needs -n < b < 0, got b = {b}"
    elif brange == "pos" and b <= 0:
        return f"row ({label}) needs b > 0, got b = {b}"
    return None


# --- classification ---------------------------------------------------------


def classify(s: SeifertData, c: SpinAssignment) -> DeltaCaseId:
    """Normalize (s, c) onto a catalog row.

    The input orientation is kept when the Euler number is negative,
    otherwise every b is negated (labels kept) and the case is flagged as
    the reversal.  One fiber order and one coefficient shift, read off the
    data, then put it in a row's printed form; no presentation is searched.
    Raises UnrecognizedForm when the multiplicities are not spherical and
    NoSpinForm when the labels violate the spin constraints.
    """
    pairs = _pairs_of(s)
    if not s.is_spherical_candidate():  # which implies three fibers
        raise UnrecognizedForm(
            f"{s.pairs} is not a three-fiber spherical form; cannot classify"
        )
    if not spin_conditions_hold(s, c):
        raise NoSpinForm(f"labels {c.cg};{c.ch} are not a spin structure on {s.pairs}")
    reversed_flag = s._euler < 0  # e > 0
    sign = -1 if reversed_flag else 1
    # c(h) = 0 on every spherical form (each has a 2-fiber), so a shift by
    # k_i moves the label c(g_i) by k_i mod 2
    fibers = [(a, sign * b, cg) for (a, b), cg in zip(pairs, c.cg)]
    (a1, _), (a2, _), (a3, _) = pairs
    _, middle, largest = sorted((a1, a2, a3))
    if middle == 2:
        case = _classify_dihedral(fibers, reversed_flag)
    else:
        case = _classify_polyhedral(fibers, largest, reversed_flag)
    if case is None:
        # the rows cover every negative-Euler-number spherical form, so a
        # fall-through means the tables or the normalizer are broken
        raise InternalDisagreement(f"no catalog row matched {s.pairs} / {c.cg}")
    return case


def _classify_dihedral(fibers, reversed_flag: bool) -> DeltaCaseId | None:
    # the n-fiber to slot 3 (with three 2-fibers the third stays), the other
    # two in their order, shifted to b = 1
    third = next((i for i in range(3) if fibers[i][0] != 2), 2)
    (_, b1, c1), (_, b2, c2) = [f for i, f in enumerate(fibers) if i != third]
    n, b, c3 = fibers[third]
    k1, k2 = (b1 - 1) // 2, (b2 - 1) // 2
    b += n * (k1 + k2)
    c1, c2, c3 = (c1 + k1) % 2, (c2 + k2) % 2, (c3 + k1 + k2) % 2
    parity = "odd" if n % 2 else "even"
    if c3:
        label = _D_ROW_OF.get((parity, "sum", None))
        params = {"n": n, "b": b, "eps": c1}
    else:
        label = _D_ROW_OF.get((parity, "neg" if b < 0 else "pos", (c1, c2)))
        params = {"n": n, "b": b}
    if label is None or _d_row_domain_error(label, n, b) is not None:
        return None
    return DeltaCaseId(FAMILY_D, label, params, reversed_flag)


def _classify_polyhedral(fibers, a3: int, reversed_flag: bool) -> DeltaCaseId | None:
    # the 2-fiber to slot 1, a 3-fiber to slot 2 (in T the lower-index one)
    # and the a3-fiber to slot 3; the first two are shifted to b = t
    first = next(f for f in fibers if f[0] == 2)
    second, third = [f for f in fibers if f[0] != 2]
    if second[0] != 3:
        second, third = third, second
    t, b3, c3 = _polyhedral_form(first, second, third)
    if a3 == 3 and b3 % 2 and (second[1] - third[1]) % 3:
        # then b3 = -t (mod 3) and b3 is odd, a class no row of this t
        # carries; the swapped order is the one that fits
        second, third = third, second
        t, b3, c3 = _polyhedral_form(first, second, third)
    return _const_row_case(_FAMILY_OF_A3[a3], t, c3, b3, reversed_flag)


def _const_row_case(family, t, c3, b3, reversed_flag) -> DeltaCaseId | None:
    """The case of the (family, t) row with label c3 and b3 = 2*t*a3*k +
    offset, k in its range, or None: b3's residue names the one candidate."""
    slope = 2 * t * _A3_OF_FAMILY[family]
    row = _ROW_OF_RESIDUE.get((family, t, c3, b3 % slope))
    if row is None:
        return None
    k = (b3 - row.offset) // slope
    if not row.k_in_range(k):
        return None
    return DeltaCaseId(family, row.label, row.params(k), reversed_flag)


def _polyhedral_form(first, second, third) -> tuple[int, int, int]:
    """(t, b_3, c_3) once the first two fibers are shifted to b = t = +-1.

    t = +1 iff b_2 = 1 (mod 3); the shift moves c_3 by its total mod 2.
    """
    (_, b1, _), (_, b2, _), (a3, b3, c3) = first, second, third
    t = 1 if b2 % 3 == 1 else -1
    k = (b1 - t) // 2 + (b2 - t) // 3
    return t, b3 + a3 * k, (c3 + k) % 2


# --- row evaluation and dispatch --------------------------------------------


def delta_table(case: DeltaCaseId) -> int:
    """The printed defect of a catalog row at the case's parameters.

    This is the value for the row's own orientation; ``delta`` negates it
    when the case carries the orientation-reversed flag.  The case id is
    checked in order: its row (the label, with eps where the label needs
    one), then its family against the row's, then the presence of the row's
    parameters, then their values.
    """
    label, params = case.row, case.params
    if label in _D_ROWS:
        family, keys = FAMILY_D, ("n", "b")
    else:
        row = _const_row(label, params.get("eps"))
        family, keys = row.family, ("k",)
    if case.family != family:
        raise ValueError(f"row ({label}) does not belong to {case.family}")
    for key in keys:
        if key not in params:
            raise ValueError(f"row ({label}) needs the parameter {key}")
    if family == FAMILY_D:
        n, b = params["n"], params["b"]
        error = _d_row_domain_error(label, n, b)
        if error is not None:
            raise ValueError(error)
        _, brange, _, addend = _D_ROWS[label]
        # the domain check gives n >= 2 and gcd(n, b) = 1, so b != 0 and
        # gcd(n, n + b) = 1, and a sum row has n + b > 0: both pairs are in
        # the domain of the kernel _sigma
        return _sigma(n, n + b, -1) if brange == "sum" else _sigma(n, b, -1) + addend
    k = params["k"]
    if not row.k_in_range(k):
        side = "k >= 0" if row.t == 1 else "k <= -1"
        raise ValueError(f"row ({label}) needs {side}, got k = {k}")
    return row.delta


def delta(s, c=None) -> int:
    """delta(S, c) for a lens space or a three-fiber spherical form.

    A lens space, whose structure is its eps, takes no labels and goes
    straight to the lens defect.  Three-fiber data is
    classified onto a catalog row, and the row value is cross-checked
    against the independent splitting engine; a mismatch means a bug and
    raises InternalDisagreement.
    """
    if isinstance(s, LensSpace):
        if c is not None:
            raise TypeError("a LensSpace carries its structure as eps and takes no labels")
        return s.defect()
    if not isinstance(s, SeifertData):
        raise TypeError(f"expected SeifertData or LensSpace, got {type(s).__name__}")
    if not isinstance(c, SpinAssignment):
        raise TypeError("three-fiber data needs a SpinAssignment")
    return _cross_checked(s, c, classify(s, c))


def _cross_checked(s: SeifertData, c: SpinAssignment, case: DeltaCaseId) -> int:
    """The defect from ``case = classify(s, c)``, checked against the engine.

    For callers that also report the case, so each spin structure is
    classified once.
    """
    value = delta_table(case)
    if case.orientation_reversed:
        value = -value
    engine = delta_engine(s, c)
    if engine != value:
        raise InternalDisagreement(
            f"table row ({case.row}) gives {value} but the splitting "
            f"engine gives {engine} on {s.pairs} / {c.cg}"
        )
    return value


# --- fixtures ----------------------------------------------------------------


def instantiate_case(case: DeltaCaseId) -> tuple[SeifertData, SpinAssignment]:
    """Concrete (SeifertData, SpinAssignment) realizing a catalog case.

    Builds the row's printed form at the case parameters, then reverses
    orientation when the case is flagged.  The parameters are range-checked
    through delta_table.
    """
    delta_table(case)  # validates parameters
    if case.family == FAMILY_D:
        n, b = case.params["n"], case.params["b"]
        _, brange, pattern, _ = _D_ROWS[case.row]
        if brange == "sum":
            eps = case.params.get("eps", 1)
            cg = (eps % 2, (1 - eps) % 2, 1)
        else:
            cg = (*pattern, 0)
        s = SeifertData([(2, 1), (2, 1), (n, b)])
        c = SpinAssignment(cg)
    else:
        row = _const_row(case.row, case.params.get("eps"))
        b3 = row.b3_of(case.params["k"])
        s = SeifertData([(2, row.t), (3, row.t), (row.a3, b3)])
        c3 = row.c3 if row.c3 is not None else b3 % 2
        c = SpinAssignment(((1 + c3) % 2, 1, c3))
    assert spin_conditions_hold(s, c), (s.pairs, c.cg)
    if case.orientation_reversed:
        s, c = reverse_orientation(s, c)
    return s, c


def iter_cases(k_span: int = 3, n_max: int = 8, b_max: int = 8):
    """Catalog cases on a small parameter grid, for tests and self-checks.

    Yields DeltaCaseId values covering every row: T/O/I rows at |k| up to
    k_span (on the row's side of 0), D rows over coprime (n, b) grids.
    """
    for row in _CONST_ROWS:
        ks = range(0, k_span + 1) if row.t == 1 else range(-1, -k_span - 1, -1)
        for k in ks:
            yield DeltaCaseId(row.family, row.label, row.params(k))
    for label, (_, brange, _, _) in _D_ROWS.items():
        for n in range(2, n_max + 1):
            for b in range(-b_max, b_max + 1):
                if _d_row_domain_error(label, n, b) is not None:
                    continue
                if brange == "sum":
                    for eps in (0, 1):
                        yield DeltaCaseId(FAMILY_D, label, {"n": n, "b": b, "eps": eps})
                else:
                    yield DeltaCaseId(FAMILY_D, label, {"n": n, "b": b})
