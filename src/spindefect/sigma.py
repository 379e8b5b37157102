"""Even continued fractions and the integer spin defect of lens spaces.

A lens space L(p, q) (the -p/q surgery on the unknot, with the convention
L(p, q) = L(|p|, sgn(p) q)) carries one spin structure when p is odd and two
when p is even.  Labelling the structure by a sign eps, the spin defect
sigma(q, p, eps) is the integer correction term relating the signature of a
spin 4-manifold bounded by the lens space to the index of its Dirac operator.

Three independent evaluations are provided:

* ``sigma`` -- exact integer arithmetic.  The value is pinned down by a small
  rewrite system: shifting q by p flips eps, sigma is odd under negating
  either argument, sigma(q, 1, eps) = 0, reciprocity in (q, p), and a closed
  form through even continued fractions.
* ``sigma_trig`` -- a cotangent/cosecant sum evaluated in floating point and
  rounded.  Numerical cross-check only; never used by the exact route.
* ``even_cf_expand`` / ``cf_eval`` -- expansion of p/q as
  [[a_1, ..., a_n]] = a_1 - 1/(a_2 - 1/(... - 1/a_n)) with all a_i even,
  |a_i| >= 2.  When p + q is odd, eps = -1 and |p| > |q|,
  sigma(q, p, -1) = -sum_i sgn(a_i).

When p is odd only eps = (-1)**(q-1) labels an honest spin structure.  For
the other sign the trig sum is a non-integral rational (for example the
(q, p, eps) = (1, 3, -1) sum equals 2/9), so ``sigma_trig`` reports a
precision failure there.  ``sigma`` stays total: on those arguments it is
defined by extending the reciprocity rule to same-parity pairs, which is the
unique Euclidean-terminating extension compatible with the shift and sign
rules.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import PrecisionError

__all__ = [
    "even_cf_expand",
    "cf_eval",
    "sigma",
    "sigma_trig",
    "TrigSum",
    "is_spin_sign_admissible",
]

#: |sigma_trig - round(sigma_trig)| must stay below this, or we refuse to round.
SIGMA_TRIG_TOL = 1e-6


def sgn(x) -> int:
    """Sign of a number as -1, 0 or +1."""
    return (x > 0) - (x < 0)


def _check_eps(eps: int) -> None:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")


def is_spin_sign_admissible(q: int, p: int, eps: int) -> bool:
    """Whether eps labels a spin structure on L(p, q).

    For p even both signs do; for p odd only eps = (-1)**(q-1).
    """
    _check_eps(eps)
    if p % 2 == 0:
        return True
    return eps == (1 if q % 2 == 1 else -1)


# ---------------------------------------------------------------------------
# even continued fractions


def even_cf_expand(p: int, q: int) -> tuple[int, ...]:
    """Expand p/q as [[a_1, ..., a_n]] with every a_i even, |a_i| >= 2.

    Exists and is unique exactly when gcd(p, q) = 1, p + q is odd and
    |p| > |q| >= 1.  This is the public entry: it checks those conditions,
    raising ValueError on each, and hands the pair to ``_even_cf``, which
    trusts them.  See ``_even_cf`` for the algorithm and its one error of
    its own, a run too long to list.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    if (p + q) % 2 == 0:
        raise ValueError(
            f"{p}/{q} has no even expansion (p and q have the same parity); "
            "reduce with the shift/sign rules first"
        )
    if abs(p) <= abs(q):
        raise ValueError(f"need |p| > |q|, got {p}/{q}")
    return _even_cf(p, q)


def _even_cf(p: int, q: int) -> tuple[int, ...]:
    """The even expansion of p/q, for a pair its caller has already checked.

    Trusts gcd(p, q) = 1, p + q odd and |p| > |q| >= 1 without looking:
    every caller gets those from its own reduction or constructor.
    ``_sigma`` reduces to coprime 0 < q < p of opposite parity (or to
    (q + p, p) from there); a compiled star arm is (a, b') with
    0 < |b'| < a, a + b' odd and gcd(a, b) = 1 from ``SeifertData``; a lens
    chain is (-p, q') with 0 < |q'| < p, the parity an admissible eps gives
    and gcd(p, q) = 1 from ``LensSpace``.  Outside that domain the result
    means nothing (a tie raises AssertionError); ``even_cf_expand`` is the
    checked entry.

    Each step takes the unique even a with |p - a*q| < |q| and recurses on
    (q, a*q - p).  The entries depend on p/q alone, so the pair is kept
    with q > 0.

    Along a run of entries a = 2h (h = +-1), each step is, up to the sign
    of the pair, (p, q) -> (p - e, q - h*e) with e = p - h*q, and e does
    not change.  So a whole run is one step, as in the Euclidean
    reciprocity algorithm for Dedekind sums (Rademacher-Grosswald, 1972):
    with d = |p| - |q| the run has j = (3|q| - |p| - 1) // (2d) + 1
    entries, and (p, q) becomes (p - j*e, q - h*j*e).  That step is taken
    when the run has at least two entries, 5|q| > 3|p|; a lone +-2 and
    every |a| >= 4 cost one division each.  So p/(p - 1), whose p - 1
    entries are all 2, takes one step; only the returned tuple is O(p).
    A run of more than ``sys.maxsize`` entries cannot be listed and raises
    ValueError naming its length.
    """
    entries = []
    while q != 0:
        if q < 0:
            p, q = -p, -q
        # a = 2h, the even number nearest p/q; a tie |p - a*q| = q would
        # need q | p, so q = 1 and p odd, which the parity rule excludes
        h, r = divmod(p, 2 * q)
        if r > q:
            h += 1
        elif r == q:
            raise AssertionError(f"even-quotient tie for {p}/{q}; input not coprime?")
        if (h == 1 or h == -1) and 5 * q > 3 * h * p:  # then h*p = |p|
            j = (3 * q - h * p - 1) // (2 * (h * p - q)) + 1
            try:
                entries.extend(itertools.repeat(2 * h, j))
            except OverflowError:
                raise ValueError(
                    f"the even expansion has a run of {j} entries {2 * h}, "
                    "too many to list"
                ) from None
            e = p - h * q
            p, q = p - j * e, q - h * j * e
        else:
            entries.append(2 * h)
            p, q = q, 2 * h * q - p
    return tuple(entries)


def _check_cf_entries(entries) -> tuple[int, ...]:
    entries = tuple(entries)
    for a in entries:
        if not isinstance(a, int) or a % 2 != 0 or abs(a) < 2:
            raise ValueError(f"invalid even continued fraction entry {a!r}")
    return entries


def cf_eval(entries) -> Fraction:
    """Value of [[a_1, ..., a_n]] = a_1 - 1/(a_2 - ... - 1/a_n) as a Fraction.

    Folded from the tail on integer continuants: a tail num/den becomes
    (a*num - den)/num, with one Fraction at the end.  Every tail of a valid
    even expansion has absolute value > 1, so no step divides by zero; we
    assert that as we fold.
    """
    entries = _check_cf_entries(entries)
    if not entries:
        raise ValueError("empty continued fraction has no rational value")
    num, den = entries[-1], 1
    for a in reversed(entries[:-1]):
        assert abs(num) > abs(den), "even continued fraction tail <= 1 in absolute value"
        num, den = a * num - den, num
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# exact sigma


def sigma(q: int, p: int, eps: int) -> int:
    """The spin defect of L(p, q) with spin structure labelled eps, exactly.

    Total on coprime pairs with p != 0.  Reductions applied, in order: make
    p positive and q positive (each negation flips the overall sign), shift
    q modulo 2p (eps-preserving) and reflect into 0 < q < p, then:

    * q, p of opposite parity, eps = -1: read off the even continued
      fraction of p/q;
    * opposite parity, eps = +1: shift q by p (flipping eps) and, when the
      shifted pair has opposite parity, swap via reciprocity
      sigma(q', p, -1) = -sgn(p q') - sigma(p, q', -1) before expanding;
    * both odd: one eps reduces to the previous bullet; the other never
      meets the base rules and is evaluated by extending reciprocity to
      same-parity pairs (see the module docstring).

    The sign sum lists the expansion's entries, so a pair whose expansion
    holds a run of more than ``sys.maxsize`` entries raises ValueError from
    the expansion kernel ``_even_cf``.  Such pairs wait for a sign sum
    taken run by run, without listing the entries.
    """
    _check_eps(eps)
    if p == 0:
        raise ValueError("p must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"q = {q} and p = {p} are not coprime")
    return _sigma(q, p, eps)


def _sigma(q: int, p: int, e: int) -> int:
    # Invariant: the answer is offset + sign * sigma(q, p, e) for the current
    # (q, p, e).  Only the reciprocity extension goes round the loop: it swaps
    # the pair once per step of an odd Euclidean chain, which can be long
    # (p, p - 2, ...), so it must not recurse.
    offset, sign = 0, 1
    if p < 0:
        p, sign = -p, -1
    while True:
        if p == 1:
            return offset
        s = sign
        if q < 0:
            q, s = -q, -s
        q %= 2 * p  # even multiple of p: eps unchanged
        if q > p:
            q, s = 2 * p - q, -s  # q -> -q mod 2p, another sign flip
        # now 0 < q < p and the pair is still coprime
        if (p + q) % 2 == 1:
            if e == -1:
                return offset - s * _cf_sign_sum(p, q)
            if p % 2 == 0:
                # shift q by p (eps -> -1), then reciprocity + expansion of (q+p)/p
                return offset + s * (_cf_sign_sum(q + p, p) - 1)
            # p odd, q even, eps = +1 is not a spin sign; shift into the
            # same-parity pocket and use the reciprocity extension there.
            q, s = p - q, -s
        elif e == 1:
            # both odd; one shift lands on (q+p even, eps=-1) with q+p > p,
            # so reciprocity applies directly
            return offset + s * (_cf_sign_sum(q + p, p) - 1)
        # both odd, 0 < q < p, eps = -1: not reachable by the defining rules;
        # extend reciprocity sigma(q,p,-1) + sigma(p,q,-1) = -1 as the definition
        offset, sign = offset - s, -s
        q, p, e = p, q, -1


def _cf_sign_sum(p: int, q: int) -> int:
    # _sigma hands over a coprime pair of opposite parity with p > q > 0
    return sum(sgn(a) for a in _even_cf(p, q))


# ---------------------------------------------------------------------------
# floating-point cross-check


class TrigSum(NamedTuple):
    value: float
    rounded: int


def sigma_trig(q: int, p: int, eps: int, tol: float = SIGMA_TRIG_TOL) -> TrigSum:
    """The defining trigonometric sum for sigma(q, p, eps), rounded.

    Computes (1/p) * sum_{k=1}^{|p|-1} [cot(pi k/p) cot(pi k q/p)
    + 2 eps**k csc(pi k/p) csc(pi k q/p)] after normalizing p > 0 via
    L(p, q) = L(|p|, sgn(p) q).  Compensated summation (math.fsum) keeps the
    error far below ``tol`` for |p| up to a few hundred.

    Raises PrecisionError when the sum is not within ``tol`` of an integer.
    That is the expected outcome for the sign choices that do not label a
    spin structure (p odd, eps = (-1)**q), where the sum is a non-integral
    rational.
    """
    _check_eps(eps)
    if p == 0:
        raise ValueError("p must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"q = {q} and p = {p} are not coprime")
    if p < 0:
        q, p = -q, -p
    terms = []
    for k in range(1, p):
        # reduce k*q mod p before multiplying by pi/p; cot has period pi,
        # csc picks up (-1)**m under a shift by m*pi
        m, r = divmod(k * q, p)
        t1 = math.pi * k / p
        t2 = math.pi * r / p
        cot = math.cos(t1) / math.sin(t1) * (math.cos(t2) / math.sin(t2))
        csc = (-1.0 if m % 2 else 1.0) / (math.sin(t1) * math.sin(t2))
        terms.append(cot + 2.0 * (eps**k) * csc)
    value = math.fsum(terms) / p
    rounded = round(value)
    if abs(value - rounded) >= tol:
        raise PrecisionError(
            f"sigma_trig({q}, {p}, {eps:+d}) = {value!r} is not within "
            f"{tol} of an integer"
        )
    return TrigSum(value, int(rounded))
