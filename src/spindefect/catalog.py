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

``classify`` normalizes given data onto a row; ``delta_table`` evaluates a
row at its parameters; ``delta`` combines the two and cross-checks the result
against the torus-splitting engine; ``instantiate_case`` rebuilds concrete
data from a case id, which is how the tables are round-trip tested.
"""

from __future__ import annotations

import itertools
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
    delta_engine,
    euler_number,
    permute_fibers,
    reverse_orientation,
    shift_move,
    spin_conditions_hold,
)
from .sigma import sigma

__all__ = [
    "DeltaCaseId",
    "FAMILY_LENS",
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

FAMILY_LENS = "Lens"
FAMILY_D = "D(2,2,n)"
FAMILY_T = "T(2,3,3)"
FAMILY_O = "O(2,3,4)"
FAMILY_I = "I(2,3,5)"


@dataclass(frozen=True)
class DeltaCaseId:
    """A catalog row plus the parameters that pin down one instance.

    ``params`` carries (p, q, eps) for lens rows, (n, b[, eps]) for D rows
    and (k[, eps]) for T/O/I rows.  ``orientation_reversed`` records that the
    row describes the orientation reversal of the data handed to
    ``classify`` (the defect of the original is minus the row value).
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
# Third coefficient b3 = slope*k + offset in the printed orientation; rows
# with t = +1 carry (2,1),(3,1) and k >= 0, rows with t = -1 carry
# (2,-1),(3,-1) and k <= -1.  c3 is the printed third spin label where the
# family has two structures (O only); eps tags the sub-rows of the +-eps rows.


@dataclass(frozen=True)
class _ConstRow:
    family: str
    label: str
    t: int
    a3: int
    slope: int
    offset: int
    delta: int
    c3: int | None = None
    eps: int | None = None

    def b3_of(self, k: int) -> int:
        return self.slope * k + self.offset

    def k_in_range(self, k: int) -> bool:
        return k >= 0 if self.t == 1 else k <= -1


_CONST_ROWS = [
    _ConstRow(FAMILY_T, "3-1", +1, 3, 6, 2, -2),
    _ConstRow(FAMILY_T, "3-2", -1, 3, -6, -2, 0),
    _ConstRow(FAMILY_T, "3-3", +1, 3, 6, -2, -6),
    _ConstRow(FAMILY_T, "3-4", -1, 3, -6, 2, 4),
    _ConstRow(FAMILY_T, "3-5", +1, 3, 6, 1, -4),
    _ConstRow(FAMILY_T, "3-6", -1, 3, -6, -1, 2),
    _ConstRow(FAMILY_O, "4-1", +1, 4, 8, 1, -3, c3=0),
    _ConstRow(FAMILY_O, "4-2", +1, 4, 8, 1, -5, c3=1),
    _ConstRow(FAMILY_O, "4-3", -1, 4, -8, -1, 1, c3=0),
    _ConstRow(FAMILY_O, "4-4", -1, 4, -8, -1, 3, c3=1),
    _ConstRow(FAMILY_O, "4-5", +1, 4, 8, -1, -5, c3=0),
    _ConstRow(FAMILY_O, "4-6", +1, 4, 8, -1, 1, c3=1),
    _ConstRow(FAMILY_O, "4-7", -1, 4, -8, 1, 3, c3=0),
    _ConstRow(FAMILY_O, "4-8", -1, 4, -8, 1, -3, c3=1),
    _ConstRow(FAMILY_O, "4-9", +1, 4, 8, 3, -1, c3=0),
    _ConstRow(FAMILY_O, "4-10", +1, 4, 8, 3, -3, c3=1),
    _ConstRow(FAMILY_O, "4-11", -1, 4, -8, -3, -1, c3=0),
    _ConstRow(FAMILY_O, "4-12", -1, 4, -8, -3, 1, c3=1),
    _ConstRow(FAMILY_O, "4-13", +1, 4, 8, -3, -7, c3=0),
    _ConstRow(FAMILY_O, "4-14", +1, 4, 8, -3, -1, c3=1),
    _ConstRow(FAMILY_O, "4-15", -1, 4, -8, 3, 5, c3=0),
    _ConstRow(FAMILY_O, "4-16", -1, 4, -8, 3, -1, c3=1),
    _ConstRow(FAMILY_I, "5-1-ε", +1, 5, 10, 2, -4, eps=+1),
    _ConstRow(FAMILY_I, "5-1-ε", +1, 5, 10, -2, -4, eps=-1),
    _ConstRow(FAMILY_I, "5-2-ε", -1, 5, -10, -2, 2, eps=+1),
    _ConstRow(FAMILY_I, "5-2-ε", -1, 5, -10, 2, 2, eps=-1),
    _ConstRow(FAMILY_I, "5-3", +1, 5, 10, 4, 0),
    _ConstRow(FAMILY_I, "5-4", -1, 5, -10, -4, -2),
    _ConstRow(FAMILY_I, "5-5", +1, 5, 10, -4, -8),
    _ConstRow(FAMILY_I, "5-6", -1, 5, -10, 4, 6),
    _ConstRow(FAMILY_I, "5-7", +1, 5, 10, 1, -6),
    _ConstRow(FAMILY_I, "5-8", -1, 5, -10, -1, 4),
    _ConstRow(FAMILY_I, "5-9", +1, 5, 10, -1, 2),
    _ConstRow(FAMILY_I, "5-10", -1, 5, -10, 1, -4),
    _ConstRow(FAMILY_I, "5-11-ε", +1, 5, 10, 3, -2, eps=+1),
    _ConstRow(FAMILY_I, "5-11-ε", +1, 5, 10, -3, -2, eps=-1),
    _ConstRow(FAMILY_I, "5-12-ε", -1, 5, -10, -3, 0, eps=+1),
    _ConstRow(FAMILY_I, "5-12-ε", -1, 5, -10, 3, 0, eps=-1),
]

_FAMILY_OF_A3 = {3: FAMILY_T, 4: FAMILY_O, 5: FAMILY_I}


def _const_row(label: str, eps: int | None) -> _ConstRow:
    for row in _CONST_ROWS:
        if row.label == label and row.eps == eps:
            return row
    if any(row.label == label for row in _CONST_ROWS):
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


def _d_row_value(label: str, n: int, b: int) -> int:
    try:
        parity, brange, _, addend = _D_ROWS[label]
    except KeyError:
        raise UnrecognizedForm(f"unknown catalog row ({label})") from None
    if n < 2 or math.gcd(n, b) != 1:
        raise ValueError(f"row ({label}): (n, b) = ({n}, {b}) is not a valid pair")
    if (n % 2 == 0) != (parity == "even"):
        raise ValueError(f"row ({label}) needs n {parity}, got n = {n}")
    if brange == "sum":
        if n + b <= 0:
            raise ValueError(f"row ({label}) needs n + b > 0")
        if n % 2 == 1 and b % 2 == 0:
            raise ValueError(f"row ({label}) needs b odd when n is odd")
        return sigma(n, n + b, -1)
    if n % 2 == 1 and b % 2 != 0:
        raise ValueError(f"row ({label}) needs b even")
    if brange == "neg" and not -n < b < 0:
        raise ValueError(f"row ({label}) needs -n < b < 0, got b = {b}")
    if brange == "pos" and b <= 0:
        raise ValueError(f"row ({label}) needs b > 0, got b = {b}")
    return sigma(n, b, -1) + addend


# --- classification ---------------------------------------------------------


def classify(s: SeifertData, c: SpinAssignment) -> DeltaCaseId:
    """Normalize (s, c) onto a catalog row.

    The input orientation is kept when the Euler number is negative,
    otherwise the reversal is classified and flagged.  Raises
    UnrecognizedForm when the multiplicities are not spherical and
    NoSpinForm when the labels violate the spin constraints.
    """
    if len(s) != 3 or not s.is_spherical_candidate():
        raise UnrecognizedForm(
            f"{s.pairs} is not a three-fiber spherical form; cannot classify"
        )
    if not spin_conditions_hold(s, c):
        raise NoSpinForm(f"labels {c.cg};{c.ch} are not a spin structure on {s.pairs}")
    reversed_flag = euler_number(s) > 0
    if reversed_flag:
        s, c = reverse_orientation(s, c)
    mults = sorted(s.multiplicities)
    if mults[1] == 2:
        case = _classify_dihedral(s, c)
    else:
        case = _classify_polyhedral(s, c, mults[2])
    if case is None:
        # the rows cover every negative-Euler-number spherical form, so a
        # fall-through means the tables or the normalizer are broken
        raise InternalDisagreement(f"no catalog row matched {s.pairs} / {c.cg}")
    if reversed_flag:
        case = DeltaCaseId(case.family, case.row, case.params, True)
    return case


def _classify_dihedral(s: SeifertData, c: SpinAssignment) -> DeltaCaseId | None:
    for perm in itertools.permutations(range(3)):
        pairs = [s.pairs[i] for i in perm]
        if pairs[0][0] != 2 or pairs[1][0] != 2:
            continue
        sp, cp = permute_fibers(s, c, perm)
        k1 = (pairs[0][1] - 1) // 2
        k2 = (pairs[1][1] - 1) // 2
        sp, cp = shift_move(sp, cp, (k1, k2, -(k1 + k2)))
        n, b = sp.pairs[2]
        c1, c2, c3 = cp.cg
        if c3 == 1:
            label = "2-5" if n % 2 == 1 else "2-10"
            params = {"n": n, "b": b, "eps": c1}
        else:
            neg = b < 0
            if (c1, c2) == (0, 0):
                label = {(1, True): "2-1", (1, False): "2-3",
                         (0, True): "2-6", (0, False): "2-8"}[(n % 2, neg)]
            else:
                label = {(1, True): "2-2", (1, False): "2-4",
                         (0, True): "2-7", (0, False): "2-9"}[(n % 2, neg)]
            params = {"n": n, "b": b}
        return DeltaCaseId(FAMILY_D, label, params)
    return None


def _classify_polyhedral(s: SeifertData, c: SpinAssignment, a3: int) -> DeltaCaseId | None:
    family = _FAMILY_OF_A3[a3]
    rows = [r for r in _CONST_ROWS if r.family == family]
    for perm in itertools.permutations(range(3)):
        pairs = [s.pairs[i] for i in perm]
        if pairs[0][0] != 2 or pairs[1][0] != 3 or pairs[2][0] != a3:
            continue
        t = 1 if pairs[1][1] % 3 == 1 else -1
        sp, cp = permute_fibers(s, c, perm)
        k1 = (pairs[0][1] - t) // 2
        k2 = (pairs[1][1] - t) // 3
        sp, cp = shift_move(sp, cp, (k1, k2, -(k1 + k2)))
        b3 = sp.pairs[2][1]
        for row in rows:
            if row.t != t:
                continue
            k, rem = divmod(b3 - row.offset, row.slope)
            if rem != 0 or not row.k_in_range(k):
                continue
            if row.c3 is not None and row.c3 != cp.cg[2]:
                continue
            if row.c3 is not None:
                expected = (1 - row.c3, 1, row.c3)
                assert cp.cg == expected, (cp.cg, expected)
            params = {"k": k}
            if row.eps is not None:
                params["eps"] = row.eps
            return DeltaCaseId(family, row.label, params)
    return None


# --- row evaluation and dispatch --------------------------------------------


def delta_table(case: DeltaCaseId) -> int:
    """The printed defect of a catalog row at the case's parameters.

    This is the value for the row's own orientation; ``delta`` negates it
    when the case carries the orientation-reversed flag.
    """
    if case.family == FAMILY_LENS:
        p, q = case.params["p"], case.params["q"]
        if not p > q > 0:
            raise ValueError(f"lens row needs p > q > 0, got ({p}, {q})")
        lens = LensSpace(p, q, case.params["eps"])
        return sigma(lens.q, lens.p, lens.eps)
    if case.family == FAMILY_D:
        return _d_row_value(case.row, case.params["n"], case.params["b"])
    row = _const_row(case.row, case.params.get("eps"))
    if row.family != case.family:
        raise ValueError(f"row ({case.row}) does not belong to {case.family}")
    k = case.params["k"]
    if not row.k_in_range(k):
        side = "k >= 0" if row.t == 1 else "k <= -1"
        raise ValueError(f"row ({case.row}) needs {side}, got k = {k}")
    return row.delta


def delta(s, c=None) -> int:
    """delta(S, c) for a lens space or a three-fiber spherical form.

    Lens spaces go straight to the lens defect.  Three-fiber data is
    classified onto a catalog row, and the row value is cross-checked
    against the independent splitting engine; a mismatch means a bug and
    raises InternalDisagreement.
    """
    if isinstance(s, LensSpace):
        if c is not None and c != s.eps:
            s = LensSpace(s.p, s.q, c)
        return s.defect()
    if not isinstance(s, SeifertData):
        raise TypeError(f"expected SeifertData or LensSpace, got {type(s).__name__}")
    if not isinstance(c, SpinAssignment):
        raise TypeError("three-fiber data needs a SpinAssignment")
    case = classify(s, c)
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
    if case.family == FAMILY_LENS:
        raise ValueError("lens rows are realized by LensSpace, not SeifertData")
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
            params = {"k": k}
            if row.eps is not None:
                params["eps"] = row.eps
            yield DeltaCaseId(row.family, row.label, params)
    for label, (parity, brange, _, _) in _D_ROWS.items():
        ns = range(3, n_max + 1, 2) if parity == "odd" else range(2, n_max + 1, 2)
        for n in ns:
            for b in range(-b_max, b_max + 1):
                if b == 0 or math.gcd(n, b) != 1:
                    continue
                if brange == "sum":
                    if n + b <= 0 or (n % 2 == 1 and b % 2 == 0):
                        continue
                    for eps in (0, 1):
                        yield DeltaCaseId(FAMILY_D, label, {"n": n, "b": b, "eps": eps})
                    continue
                if n % 2 == 1 and b % 2 != 0:
                    continue
                if brange == "neg" and not -n < b < 0:
                    continue
                if brange == "pos" and b <= 0:
                    continue
                yield DeltaCaseId(FAMILY_D, label, {"n": n, "b": b})
