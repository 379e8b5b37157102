import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindefect.errors import NoSpinForm, PrecisionError
from spindefect.seifert import LensSpace
from spindefect.sigma import (
    cf_eval,
    even_cf_expand,
    is_spin_sign_admissible,
    sgn,
    sigma,
    sigma_trig,
)

from conftest import coprime_pairs, coprime_to, pairs_of

# Frozen against an independent 50-digit evaluation of the cot/csc sum
# (mpmath); every entry agreed with the rounded high-precision value to
# better than 1e-40.
_ORACLE = [
    (1, 2, 1, 1),
    (1, 2, -1, -1),
    (1, 3, 1, 2),
    (2, 3, -1, -2),
    (1, 4, 1, 3),
    (1, 4, -1, -1),
    (3, 4, 1, 1),
    (3, 4, -1, -3),
    (2, 5, -1, 0),
    (3, 5, 1, 0),
    (4, 7, -1, -2),
    (3, 7, 1, 2),
    (5, 8, 1, -1),
    (5, 8, -1, -1),
    (3, 8, 1, 1),
    (3, 8, -1, 1),
    (8, 21, -1, 0),
    (13, 21, 1, 0),
    (9, 32, 1, -1),
    (9, 32, -1, -1),
    (12, 25, -1, 0),
    (7, 25, 1, 0),
    (31, 64, 1, 1),
    (31, 64, -1, 1),
    (17, 48, 1, 3),
    (17, 48, -1, 3),
    (23, 60, 1, 1),
    (23, 60, -1, -3),
    (44, 117, -1, 0),
    (53, 117, 1, 4),
    (-3, 7, 1, -2),
    (3, -7, 1, -2),
    (-5, 8, 1, 1),
    (5, -8, -1, 1),
    (37, 128, 1, 7),
    (37, 128, -1, -1),
    (99, 200, 1, 1),
    (99, 200, -1, 1),
]


@pytest.mark.parametrize("q,p,eps,expected", _ORACLE)
def test_sigma_against_high_precision_oracle(q, p, eps, expected):
    assert sigma(q, p, eps) == expected
    if is_spin_sign_admissible(q, p, eps):
        assert sigma_trig(q, p, eps).rounded == expected


def test_trig_and_exact_agree_on_a_grid():
    # the trig sum reproduces sigma on admissible signs; on the others,
    # where sigma refuses as LensSpace does, it is usually non-integral,
    # and integral only by accident (first at (2, 5, +1))
    integral = non_integral = 0
    for p, q in coprime_pairs(48):
        for eps in (1, -1):
            if is_spin_sign_admissible(q, p, eps):
                assert sigma_trig(q, p, eps).rounded == sigma(q, p, eps)
            else:
                with pytest.raises(NoSpinForm) as refused:
                    sigma(q, p, eps)
                with pytest.raises(NoSpinForm) as lens:
                    LensSpace(p, q, eps)
                assert str(refused.value) == str(lens.value)
                try:
                    sigma_trig(q, p, eps)
                except PrecisionError:
                    non_integral += 1
                else:
                    integral += 1
    assert non_integral > 20 * integral > 0


def test_inadmissible_sign_sum_is_non_integral():
    # the (1, 3, -1) cot/csc sum is exactly 2/9
    with pytest.raises(PrecisionError):
        sigma_trig(1, 3, -1)
    value = sigma_trig(1, 3, -1, tol=0.5).value
    assert abs(value - 2 / 9) < 1e-9


def test_argument_validation():
    with pytest.raises(ValueError):
        sigma(2, 4, -1)  # not coprime
    with pytest.raises(ValueError):
        sigma(1, 0, -1)
    with pytest.raises(ValueError):
        sigma(1, 2, 0)  # bad eps
    with pytest.raises(ValueError):
        sigma_trig(3, 9, 1)


def test_admissibility_rule():
    assert is_spin_sign_admissible(1, 2, 1) and is_spin_sign_admissible(1, 2, -1)
    assert is_spin_sign_admissible(1, 3, 1)
    assert not is_spin_sign_admissible(1, 3, -1)
    assert is_spin_sign_admissible(2, 3, -1)
    assert not is_spin_sign_admissible(2, 3, 1)


# --- the defining rewrite laws ------------------------------------------------

_coprime = pairs_of(st.integers(2, 400), lambda p: coprime_to(p, 400))


def _other_parity(p, q_max):
    # q in [-q_max, q_max] coprime to p: every unit of an even p is odd,
    # and for p odd, q = 2r with r a unit
    if p % 2 == 0:
        return coprime_to(p, q_max)
    return coprime_to(p, q_max // 2).map(lambda r: 2 * r)


@settings(max_examples=150, deadline=None)
@given(_coprime, st.sampled_from((1, -1)), st.integers(min_value=-4, max_value=4))
def test_shift_law(pq, eps, c):
    p, q = pq
    flipped = eps if c % 2 == 0 else -eps
    assume(is_spin_sign_admissible(q, p, flipped))
    assert sigma(q + c * p, p, eps) == sigma(q, p, flipped)


@settings(max_examples=150, deadline=None)
@given(_coprime, st.sampled_from((1, -1)))
def test_oddness_in_each_argument(pq, eps):
    p, q = pq
    assume(is_spin_sign_admissible(q, p, eps))
    base = sigma(q, p, eps)
    assert sigma(-q, p, eps) == -base
    assert sigma(q, -p, eps) == -base
    assert sigma(-q, -p, eps) == base


@settings(max_examples=200, deadline=None)
@given(pairs_of(st.integers(2, 400), lambda p: _other_parity(p, 400)))
def test_reciprocity_for_opposite_parity(pq):
    p, q = pq
    assert sigma(p, q, -1) + sigma(q, p, -1) == -sgn(p * q)


@settings(max_examples=200, deadline=None)
@given(pairs_of(st.integers(1, 300).map(lambda a: 2 * a + 1),
                lambda p: _other_parity(p, 600).map(abs)))
def test_parity_of_values(pq):
    # p odd, q even, coprime: sigma(p, q, +-1) is odd, sigma(q, p, -1) even
    p, q = pq
    assert sigma(p, q, 1) % 2 == 1
    assert sigma(p, q, -1) % 2 == 1
    assert sigma(q, p, -1) % 2 == 0


def test_lens_relabelling_convention():
    # L(p, q) = L(|p|, sgn(p) q): negating both arguments fixes the value
    for p, q in coprime_pairs(30):
        for eps in (1, -1):
            if is_spin_sign_admissible(q, p, eps):
                assert sigma(-q, -p, eps) == sigma(q, p, eps)
            else:
                # a refused sign is named the same way from either side
                with pytest.raises(NoSpinForm) as positive:
                    sigma(q, p, eps)
                with pytest.raises(NoSpinForm) as negative:
                    sigma(-q, -p, eps)
                assert str(negative.value) == str(positive.value)
    with pytest.raises(NoSpinForm) as refused:
        sigma(1, -3, -1)
    assert str(refused.value) == "L(3, -1) with p odd has only the eps = +1 structure"


# --- even continued fractions --------------------------------------------------


def _nearest_even(p, q):
    # the unique even a with |p - a*q| < |q|
    if q < 0:
        p, q = -p, -q
    b, r = divmod(p, 2 * q)
    if r > q:
        b += 1
    assert r != q, f"even-quotient tie for {p}/{q}"
    return 2 * b


def _expand_per_entry(p, q):
    """``even_cf_expand`` one division per entry, runs of +-2 included: the
    oracle for its run-length steps (input already validated)."""
    entries = []
    while q != 0:
        a = _nearest_even(p, q)
        entries.append(a)
        p, q = q, a * q - p
    return tuple(entries)


def _fraction_fold(entries):
    """``cf_eval`` as a Fraction per entry: the oracle for its integer fold."""
    val = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        val = a - 1 / val
    return val


def _assert_expansion(p, q):
    entries = even_cf_expand(p, q)
    assert entries == _expand_per_entry(p, q), (p, q)
    assert cf_eval(entries) == Fraction(p, q)
    return entries


def test_expansion_matches_the_per_entry_loop_below_200():
    checked = 0
    for p in range(2, 200):
        for q in range(1 - p, p):
            if (p + q) % 2 and math.gcd(p, q) == 1:
                _assert_expansion(p, q)
                _assert_expansion(-p, q)
                checked += 2
    assert checked > 15000


@st.composite
def _thirty_digit_pairs(draw):
    # q stays at least a thousandth of p below p, so that a run of 2s at
    # the start, which the per-entry oracle walks entry by entry, is short;
    # a pair of the same parity becomes (p + q, q), which keeps the gcd 1
    x = draw(st.integers(10**29, 10**30))
    y = draw(st.integers(1, x - x // 1000))
    g = math.gcd(x, y)
    p, q = x // g, y // g
    if (p + q) % 2 == 0:
        p += q
    return draw(st.sampled_from((p, -p))), draw(st.sampled_from((q, -q)))


@settings(max_examples=300, deadline=None)
@given(_thirty_digit_pairs())
def test_expansion_matches_the_per_entry_loop_on_thirty_digit_pairs(pq):
    entries = _assert_expansion(*pq)
    assert cf_eval(entries) == _fraction_fold(entries)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 10, 11, 32, 99, 100, 317, 1000, 1001, 3162, 10**4])
def test_expansion_matches_the_per_entry_loop_on_runs(p):
    # p/(p - 1) is p - 1 entries 2; (p + 1)/p, the lens chain's shape, p twos
    for pp, q in ((p, p - 1), (p + 1, p)):
        for sp, sq in itertools.product((1, -1), repeat=2):
            _assert_expansion(sp * pp, sq * q)


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (7, 4, (2, 4)),
        (4, 3, (2, 2, 2)),
        (8, 5, (2, 2, -2)),
        (11, 8, (2, 2, 2, -2)),
        (5, 4, (2, 2, 2, 2)),
        (2, 1, (2,)),
        (2, -1, (-2,)),
        (-7, 4, (-2, -4)),
    ],
)
def test_even_expansion_fixtures(p, q, expected):
    assert even_cf_expand(p, q) == expected


@settings(max_examples=250, deadline=None)
@given(pairs_of(st.integers(2, 400), lambda p: _other_parity(p, p - 1)))
def test_even_expansion_roundtrip(pq):
    p, q = pq
    entries = even_cf_expand(p, q)
    assert all(a % 2 == 0 and abs(a) >= 2 for a in entries)
    assert cf_eval(entries) == Fraction(p, q)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((-6, -4, -2, 2, 4, 6)), min_size=1, max_size=8))
def test_every_even_word_is_an_expansion(entries):
    # any word in even digits |a| >= 2 evaluates to a fraction whose
    # expansion is the word itself (uniqueness)
    val = cf_eval(entries)
    assert val == _fraction_fold(entries)
    assert even_cf_expand(val.numerator, val.denominator) == tuple(entries)


def test_expansion_rejects_bad_input():
    with pytest.raises(ValueError):
        even_cf_expand(6, 4)  # not coprime
    with pytest.raises(ValueError):
        even_cf_expand(7, 3)  # same parity
    with pytest.raises(ValueError):
        even_cf_expand(3, 4)  # |p| <= |q|
    with pytest.raises(ValueError):
        even_cf_expand(3, 0)
    with pytest.raises(ValueError):
        cf_eval([2, 3])
    with pytest.raises(ValueError):
        cf_eval([])


def test_a_run_too_long_to_list_raises_value_error():
    # the expansion of this pair holds a run of about 2.6 * 10**21 twos,
    # more than sys.maxsize: it is refused before the run is listed
    p, q = 1418743667764364333709519393452, 709016970533566768071940907347
    with pytest.raises(ValueError, match="run of 2610296979461915686707 entries 2"):
        even_cf_expand(p, q)
    with pytest.raises(ValueError, match="too many to list"):
        sigma(q, p, -1)


def test_sign_sum_rule():
    # opposite parity, eps = -1: the defect is minus the digit-sign sum
    for p, q in coprime_pairs(40):
        if (p + q) % 2 == 1:
            entries = even_cf_expand(p, q)
            assert sigma(q, p, -1) == -sum(sgn(a) for a in entries)
