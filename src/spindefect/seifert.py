"""Seifert fibered spaces over S^2, their spin structures, and the defect engine.

A closed Seifert fibration over the 2-sphere is recorded by its unnormalized
invariants {(a_1, b_1), ..., (a_m, b_m)} with a_i >= 1, gcd(a_i, b_i) = 1.
The Euler number is e = -sum(b_i / a_i); we insist e != 0 throughout (the
defect is not defined for the flat/degenerate case).

Spin structures are described by a mod-2 labelling c: one bit c(h) for the
fiber class and one bit c(g_i) per singular fiber, subject to

    a_i c(g_i) + b_i c(h) = a_i b_i      (mod 2)   for each i,
    sum_i c(g_i)          = 0            (mod 2).

``delta_engine`` evaluates the spin defect delta(S, c) for any spin
labelling of a three-fiber space with at least one even a_i (every
spherical space form with three singular fibers has one).  It puts a fiber
labelled 0 in the third slot, repairs a vanishing b_3 or a_1 b_2 + a_2 b_1
with one even coefficient shift, splits a lens-space piece off the first
two fibers, and adds up lens defects.  The arrangement is read off the
labels, independently of the catalog's normalization, and is applied to
the (a, b) pairs directly: a fiber permutation and an even shift keep the
gcds, the Euler number and the labels, so nothing needs re-checking.
``shift_move`` and ``permute_fibers`` are the general moves; ``shift_move``
transports labels formally, without re-checking the constraints, so it is
usable on raw (a, b, c) triples too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateEuler, NoAdmissibleRearrangement, NoSpinForm
from .sigma import is_spin_sign_admissible, sgn, sigma

__all__ = [
    "SeifertData",
    "SpinAssignment",
    "LensSpace",
    "euler_number",
    "spin_conditions_hold",
    "spin_enumerate",
    "shift_move",
    "reverse_orientation",
    "permute_fibers",
    "delta_engine",
    "parse_seifert",
    "parse_spin",
]


@dataclass(frozen=True)
class SeifertData:
    """Unnormalized Seifert invariants {(a_i, b_i)} of a fibration over S^2.

    The constructor checks the pairs and records two facts it derives on
    the way, outside ==, hash and repr: ``_euler``, the integer Euler
    numerator N = sum(b_i A / a_i) with e = -N / A (A = prod(a_i)), and
    ``_spherical``, read by ``is_spherical_candidate``.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        if not 1 <= len(pairs) <= 3:
            raise ValueError("need between one and three (a, b) pairs")
        for a, b in pairs:
            if a < 1:
                raise ValueError(f"fiber multiplicity must be >= 1, got a = {a}")
            if math.gcd(a, b) != 1:
                raise ValueError(f"(a, b) = ({a}, {b}) is not coprime")
        euler = _euler_numerator(pairs)
        if euler == 0:
            raise DegenerateEuler(f"Euler number of {pairs} vanishes")
        mults = sorted(a for a, _ in pairs)
        three_singular = len(pairs) == 3 and mults[0] >= 2
        spherical = three_singular and _platonic(mults)
        if three_singular and not spherical:
            # three genuinely singular fibers must sit over a spherical base
            raise ValueError(
                f"multiplicities {tuple(mults)} give infinite fundamental group; "
                "only (2,2,n), (2,3,3), (2,3,4), (2,3,5) are supported"
            )
        object.__setattr__(self, "pairs", pairs)
        # not dataclass fields, so they stay out of ==, hash and repr
        object.__setattr__(self, "_euler", euler)
        object.__setattr__(self, "_spherical", spherical)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def is_spherical_candidate(self) -> bool:
        """True for three genuinely singular fibers over a spherical base.

        Multiplicities (2, 2, n), (2, 3, 3), (2, 3, 4) or (2, 3, 5) --
        together with e != 0 these are exactly the fibrations with finite
        fundamental group and three exceptional fibers.  Decided once, by
        the constructor.
        """
        return self._spherical


def _platonic(sorted_mults) -> bool:
    x, y, z = sorted_mults
    return (x, y) == (2, 2) or (x == 2 and y == 3 and z in (3, 4, 5))


def euler_number(s: SeifertData) -> Fraction:
    """e = -sum(b_i / a_i), exactly."""
    return -sum(Fraction(b, a) for a, b in s)


def _euler_numerator(pairs) -> int:
    """N = sum(b_i * A / a_i) with A = prod(a_i), so that e = -N / A.

    The a_i are positive, so e > 0 iff N < 0; for e != 0, |N| = |H_1|.
    """
    prod = math.prod(a for a, _ in pairs)
    return sum(b * (prod // a) for a, b in pairs)


@dataclass(frozen=True)
class SpinAssignment:
    """Mod-2 labels (c(g_1), ..., c(g_m); c(h)) of a candidate spin structure.

    A labelling that ``spin_enumerate`` built also carries ``_pairs``, the
    ``pairs`` tuple of the space it was built valid for, outside ==, hash
    and repr like ``SeifertData._euler``.  Any other labelling reads the
    class's None.
    """

    cg: tuple[int, ...]
    ch: int = 0
    _pairs = None  # not a field: no annotation

    def __init__(self, cg, ch=0):
        object.__setattr__(self, "cg", tuple(int(x) % 2 for x in cg))
        object.__setattr__(self, "ch", int(ch) % 2)


def spin_conditions_hold(s: SeifertData, c: SpinAssignment) -> bool:
    """Whether the labels c satisfy the spin constraints on s.

    Trusts a labelling whose stamp *is* ``s.pairs``, the very tuple
    ``spin_enumerate`` built it valid for: pairs and labels are immutable,
    so the check would give True again, and True is returned without it.
    An equal but distinct ``SeifertData``, a labelling from the constructor
    or from a move, and a stamped labelling handed another space all take
    the full check.
    """
    # the checks read the pairs; an argument without them (a LensSpace) is
    # taken as it is, so len() and iteration still raise TypeError on it
    pairs = getattr(s, "pairs", s)
    if c._pairs is pairs and pairs is not None:
        return True
    cg, ch = c.cg, c.ch
    if len(cg) != len(pairs):
        raise ValueError("label count does not match fiber count")
    for (a, b), g in zip(pairs, cg):
        if (a * g + b * ch - a * b) % 2 != 0:
            return False
    return sum(cg) % 2 == 0


def spin_enumerate(s: SeifertData) -> list[SpinAssignment]:
    """All labellings satisfying the spin constraints, c(h)-major order.

    Built directly rather than filtered: for a given c(h), an odd a_i fixes
    c(g_i) = b_i (a_i - c(h)) mod 2, while an even a_i (so b_i is odd) needs
    c(h) = 0 and leaves c(g_i) free.  Of those combinations, in
    ``itertools.product`` order, the ones with an even label sum are kept.
    A space with some even multiplicity pins c(h) = 0; an all-odd space can
    admit c(h) = 1 labellings too.  Spherical spaces always have a 2-fiber,
    so there the list never contains ch = 1.  The bits and c(h) are already
    0/1 ints, so each labelling is made directly, without the constructor's
    normalization.

    Each labelling of a ``SeifertData`` is stamped with its ``pairs`` tuple,
    which lets ``spin_conditions_hold`` skip re-checking it on that same
    space (the engine, ``classify`` and ``seifert_to_plumbing`` each ask).
    """
    pairs = getattr(s, "pairs", s)  # see spin_conditions_hold
    # only a SeifertData's pairs are known immutable and valid
    stamp = pairs if isinstance(s, SeifertData) else None
    out = []
    for ch in (0, 1):
        choices = []
        for a, b in pairs:
            if a % 2:
                choices.append((b * (a - ch) % 2,))
            elif ch:
                break  # b odd: b c(h) = 0 mod 2 fails
            else:
                choices.append((0, 1))
        else:
            for bits in itertools.product(*choices):
                if sum(bits) % 2 == 0:
                    c = object.__new__(SpinAssignment)
                    object.__setattr__(c, "cg", bits)
                    object.__setattr__(c, "ch", ch)
                    object.__setattr__(c, "_pairs", stamp)
                    out.append(c)
    if not out:
        raise NoSpinForm(f"{s.pairs} admits no spin labelling")
    return out


def shift_move(s: SeifertData, c: SpinAssignment, shifts) -> tuple[SeifertData, SpinAssignment]:
    """Replace (a_i, b_i) by (a_i, b_i - a_i k_i) for shifts k_i summing to 0.

    The total space is unchanged; the labelling is carried along by
    c(g_i) -> c(g_i) + k_i c(h) + k_i (mod 2).  Transport is formal: the
    input labels are not validated, so the move is also usable on raw data.
    """
    shifts = tuple(int(k) for k in shifts)
    if len(shifts) != len(s):
        raise ValueError("shift count does not match fiber count")
    if sum(shifts) != 0:
        raise ValueError(f"shifts must sum to 0, got {shifts}")
    if len(c.cg) != len(s):
        raise ValueError("label count does not match fiber count")
    new_pairs = [(a, b - a * k) for (a, b), k in zip(s, shifts)]
    new_cg = [(cg + k * c.ch + k) % 2 for cg, k in zip(c.cg, shifts)]
    return SeifertData(new_pairs), SpinAssignment(new_cg, c.ch)


def reverse_orientation(s: SeifertData, c: SpinAssignment) -> tuple[SeifertData, SpinAssignment]:
    """-S has invariants {(a_i, -b_i)}; the labelling is unchanged."""
    return SeifertData([(a, -b) for a, b in s]), SpinAssignment(c.cg, c.ch)


def permute_fibers(s: SeifertData, c: SpinAssignment, perm) -> tuple[SeifertData, SpinAssignment]:
    perm = tuple(perm)
    if sorted(perm) != list(range(len(s))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(s) - 1}")
    return (
        SeifertData([s.pairs[i] for i in perm]),
        SpinAssignment([c.cg[i] for i in perm], c.ch),
    )


@dataclass(frozen=True)
class LensSpace:
    """L(p, q) with spin structure eps; p odd forces eps = (-1)**(q-1)."""

    p: int
    q: int
    eps: int

    def __init__(self, p, q, eps):
        p, q, eps = int(p), int(q), int(eps)
        if p == 0:
            raise ValueError("p must be nonzero")
        if math.gcd(p, q) != 1:
            raise ValueError(f"L({p}, {q}): parameters not coprime")
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if p < 0:
            p, q = -p, -q  # L(p, q) = L(|p|, sgn(p) q)
        if not is_spin_sign_admissible(q, p, eps):
            raise NoSpinForm(
                f"L({p}, {q}) with p odd has only the eps = {-eps:+d} structure"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eps", eps)

    def defect(self) -> int:
        return sigma(self.q, self.p, self.eps)


# ---------------------------------------------------------------------------
# the engine


def _engine_value(pairs, cg, ch, u1, v1) -> int:
    (a1, b1), (a2, b2), (a3, b3) = pairs
    q_split = a1 * b2 + a2 * b1
    p_split = a2 * v1 + b2 * u1
    # meridian label of the splitting torus; eps = +1 iff the label is 1
    cm = (u1 * cg[0] + v1 * ch + u1 * v1) % 2
    eps = 1 if cm == 1 else -1
    # self-pairing s0 = a1 a2 / q_split + a3 / b3 of the section class after
    # splitting, nonzero iff e != 0; only its sign enters
    num = a1 * a2 * b3 + a3 * q_split
    if num == 0:
        raise DegenerateEuler("splitting produced a null section class")
    return sgn(num) * sgn(q_split * b3) + sigma(p_split, q_split, eps) + sigma(a3, b3, -1)


_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))  # the other two fibers, in order


def _arrangement(s: SeifertData, c: SpinAssignment) -> tuple[tuple, tuple[int, ...]]:
    """(pairs, cg) of a presentation the splitting engine can use.

    A spin labelling has an even label sum, so some fiber has label 0 and
    the other two labels agree; the first such fiber goes to slot 3 and the
    other two keep their order.  An even shift (0, k, -k) or (k, 0, -k)
    leaves every label alone (c(h) = 0 here) and repairs a vanishing b_3 or
    a_1 b_2 + a_2 b_1.  The two cannot vanish together: that would make
    e = -b_3/a_3 = 0.  Both moves are applied to the tuples: they keep each
    gcd, the Euler number and the base, so there is nothing to re-check.
    """
    pairs, cg = s.pairs, c.cg
    third = cg.index(0)
    i, j = _OTHER_SLOTS[third]
    (a1, b1), (a2, b2), (a3, b3) = pairs[i], pairs[j], pairs[third]
    cg = (cg[i], cg[j], cg[third])
    if b3 == 0:
        # (0, k, -k) moves a1 b2 + a2 b1 by -k a1 a2; pick the k that keeps it nonzero
        k = 2 if a1 * b2 + a2 * b1 != 2 * a1 * a2 else -2
        b2 -= a2 * k
        b3 += a3 * k
    elif a1 * b2 + a2 * b1 == 0:
        # (k, 0, -k) moves b3 by k a3 and makes a1 b2 + a2 b1 = -k a1 a2
        k = 2 if b3 != -2 * a3 else -2
        b1 -= a1 * k
        b3 += a3 * k
    return ((a1, b1), (a2, b2), (a3, b3)), cg


def delta_engine(s: SeifertData, c: SpinAssignment) -> int:
    """delta(S, c) for a three-fiber space with a spin labelling, by torus splitting.

    The data is first put in a presentation with c(g_3) = 0,
    c(g_1) = c(g_2), a_1 b_2 + a_2 b_1 != 0 and b_3 != 0, chosen directly
    from the labels (see ``_arrangement``).  Splitting along a vertical
    torus then writes the space as a union of two lens-space pieces glued
    to the third fiber's solid torus, and the defect is the sign of the
    section self-pairing plus two lens defects.  Raises
    NoAdmissibleRearrangement when every multiplicity is odd and
    NoSpinForm when the labels are not a spin structure.
    """
    pairs = getattr(s, "pairs", s)  # see spin_conditions_hold
    if len(pairs) != 3:
        raise ValueError("the splitting engine needs exactly three fiber pairs")
    if len(c.cg) != 3:
        raise ValueError("label count does not match fiber count")
    (a1, _), (a2, _), (a3, _) = pairs
    if a1 % 2 == 1 and a2 % 2 == 1 and a3 % 2 == 1:
        raise NoAdmissibleRearrangement(
            "splitting needs an even multiplicity among the a_i"
        )
    if not spin_conditions_hold(s, c):
        raise NoSpinForm(f"labels {c.cg};{c.ch} are not a spin structure on {s.pairs}")
    pairs, cg = _arrangement(s, c)
    a1, b1 = pairs[0]
    # a1 v1 - b1 u1 = 1; any solution (u1 + t a1, v1 + t b1) gives the same
    # delta, so take u1 = -1/b1 mod a1 (pow raises if gcd(a1, b1) != 1)
    u1 = -pow(b1, -1, a1)
    v1 = (1 + b1 * u1) // a1
    return _engine_value(pairs, cg, c.ch, u1, v1)


# ---------------------------------------------------------------------------
# parsing helpers shared with the CLI


def parse_seifert(text: str) -> SeifertData:
    """Parse "(a1,b1),(a2,b2),..." (whitespace ignored, brackets optional)."""
    stripped = "".join(text.split())
    if stripped.startswith("{") and stripped.endswith("}"):
        stripped = stripped[1:-1]
    if not stripped:
        raise ValueError("empty Seifert description")
    pairs = []
    for chunk in stripped.replace("),(", ");(").split(";"):
        chunk = chunk.strip("()")
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot read fiber pair from {chunk!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"cannot read fiber pair from {chunk!r}") from None
    return SeifertData(pairs)


def parse_spin(text: str, fibers: int) -> SpinAssignment:
    """Parse "c1,c2,...[;ch]" into a SpinAssignment (ch defaults to 0)."""
    stripped = "".join(text.split())
    ch = 0
    if ";" in stripped:
        stripped, ch_text = stripped.split(";", 1)
        ch = int(ch_text)
    bits = [int(tok) for tok in stripped.split(",") if tok != ""]
    if len(bits) != fibers:
        raise ValueError(f"expected {fibers} fiber labels, got {len(bits)}")
    if any(b not in (0, 1) for b in bits) or ch not in (0, 1):
        raise ValueError("spin labels must be 0 or 1")
    return SpinAssignment(bits, ch)
