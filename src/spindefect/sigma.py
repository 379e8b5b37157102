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

When p is odd only eps = (-1)**(q-1) labels a spin structure.  For the
other sign the trig sum is a non-integral rational (for example the
(q, p, eps) = (1, 3, -1) sum equals 2/9): ``sigma`` refuses that sign, and
``sigma_trig`` reports a precision failure there.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import NoSpinForm, PrecisionError

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
_MAX_RUN = 10**7  # the longest run of +-2 that ``_even_cf`` lists


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


def _check_spin_sign(q: int, p: int, eps: int) -> None:
    """Raise NoSpinForm unless eps labels a spin structure on L(p, q).

    The message names L(|p|, sgn(p) q) and the admissible sign.  The rule
    is ``is_spin_sign_admissible``'s, written out for an eps the caller has
    checked, so that ``sigma`` does not check eps twice.
    """
    if p % 2 == 1 and eps != (1 if q % 2 == 1 else -1):
        if p < 0:
            p, q = -p, -q
        raise NoSpinForm(f"L({p}, {q}) with p odd has only the eps = {-eps:+d} structure")


def _check_args(q: int, p: int, eps: int) -> None:
    """The checks ``sigma`` and ``sigma_trig`` share: eps, p != 0 and the gcd."""
    _check_eps(eps)
    if p == 0:
        raise ValueError("p must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"q = {q} and p = {p} are not coprime")


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
    A run of more than ``_MAX_RUN`` = 10**7 entries, ten times the longest
    CI lists, raises ValueError naming its length before it is listed: list
    and tuple take 16 bytes an entry (CPython 3.11, 64-bit) and a lens chain
    over the run about 100 more, about 1 GB of an 8 GB machine at the bound.
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
            if j > _MAX_RUN:
                raise ValueError(
                    f"the even expansion has a run of {j} entries {2 * h}, "
                    "too many to list"
                )
            entries.extend(itertools.repeat(2 * h, j))
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

    Defined on coprime pairs with p != 0 and a sign eps that labels a spin
    structure; for p odd the other sign raises NoSpinForm, with the message
    ``LensSpace`` gives.  Reductions applied, in order: make p positive and
    q positive (each negation flips the overall sign), shift q modulo 2p
    (eps-preserving) and reflect into 0 < q < p, then:

    * eps = -1: q and p have opposite parity; read off the even continued
      fraction of p/q;
    * eps = +1: shift q by p (flipping eps) and swap the pair (q + p, p),
      of opposite parity, via reciprocity
      sigma(q', p, -1) = -sgn(p q') - sigma(p, q', -1) before expanding.

    The sign sum lists the expansion's entries and counts the negative
    ones in one C-level pass (``_sign_sum``), so it still costs O(p) on a
    long run, and a pair whose expansion holds a run of more than 10**7
    entries raises ValueError from the expansion kernel ``_even_cf``.
    Such pairs wait for a sign sum taken run by run, without listing the
    entries, which waits in turn on a bound on the benchmark's wall time:
    with items that cheap, its unbounded drawing and checking stretch a
    run well past its nominal length.
    """
    _check_args(q, p, eps)
    _check_spin_sign(q, p, eps)
    return _sigma(q, p, eps)


def _sigma(q: int, p: int, e: int) -> int:
    """sigma(q, p, e) for arguments its caller has already checked.

    Trusts p != 0, gcd(p, q) = 1, e in (1, -1) and e a spin sign without
    looking, as ``_even_cf`` trusts its pair: ``sigma`` checks them at the
    public entry, the engine gets them from ``SeifertData`` and its
    arrangement, and a catalog D row from its domain check.  Outside that
    domain the result means nothing (it may raise anything); ``sigma`` is
    the checked entry.
    """
    s = 1
    if p < 0:
        p, s = -p, -1
    if p == 1:
        return 0
    if q < 0:
        q, s = -q, -s
    q %= 2 * p  # even multiple of p: eps unchanged
    if q > p:
        q, s = 2 * p - q, -s  # q -> -q mod 2p, another sign flip
    # now 0 < q < p and still coprime; on a spin sign, eps = -1 means that
    # q and p have opposite parity, and eps = +1 that q + p and p do
    if e == -1:
        return -s * _sign_sum(_even_cf(p, q))
    return s * (_sign_sum(_even_cf(q + p, p)) - 1)


def _sign_sum(entries: tuple[int, ...]) -> int:
    """sum(sgn(a) for a in entries) for a listed even expansion.

    Every entry is a nonzero even integer, so sgn(a) = 1 - 2*[a < 0]: the
    sum is the length less twice the number of negative entries, and those
    are counted in one C-level pass, with no Python call per entry.
    """
    return len(entries) - 2 * sum(map(operator.lt, entries, itertools.repeat(0)))


# ---------------------------------------------------------------------------
# floating-point cross-check


class TrigSum(NamedTuple):
    value: float
    rounded: int


def sigma_trig(q: int, p: int, eps: int) -> TrigSum:
    """The defining trigonometric sum for sigma(q, p, eps), rounded.

    Computes (1/p) * sum_{k=1}^{|p|-1} [cot(pi k/p) cot(pi k q/p)
    + 2 eps**k csc(pi k/p) csc(pi k q/p)] after normalizing p > 0 via
    L(p, q) = L(|p|, sgn(p) q).  Compensated summation (math.fsum) keeps the
    error far below ``SIGMA_TRIG_TOL`` for |p| up to a few hundred.

    Raises PrecisionError, whose message carries the sum, when the sum is
    not within ``SIGMA_TRIG_TOL`` of an integer.  That is the expected
    outcome for the sign choices that do not label a spin structure (p odd,
    eps = (-1)**q), where the sum is a non-integral rational.
    """
    _check_args(q, p, eps)
    if p < 0:
        q, p = -q, -p
    terms = []
    eps_k = 1
    for k in range(1, p):
        # reduce k*q mod p before multiplying by pi/p; cot has period pi,
        # csc picks up (-1)**m under a shift by m*pi
        m, r = divmod(k * q, p)
        t1 = math.pi * k / p
        t2 = math.pi * r / p
        s1, s2 = math.sin(t1), math.sin(t2)
        cot = math.cos(t1) / s1 * (math.cos(t2) / s2)
        csc = (-1.0 if m % 2 else 1.0) / (s1 * s2)
        eps_k *= eps  # eps**k
        terms.append(cot + 2.0 * eps_k * csc)
    value = math.fsum(terms) / p
    rounded = round(value)
    if abs(value - rounded) >= SIGMA_TRIG_TOL:
        raise PrecisionError(
            f"sigma_trig({q}, {p}, {eps:+d}) = {value!r} is not within "
            f"{SIGMA_TRIG_TOL} of an integer"
        )
    return TrigSum(value, int(rounded))
