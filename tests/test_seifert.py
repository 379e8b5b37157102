import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spindefect.errors import (
    DegenerateEuler,
    NoAdmissibleRearrangement,
    NoSpinForm,
)
from spindefect.plumbing import plumbing_delta, seifert_to_plumbing
from spindefect.seifert import (
    LensSpace,
    SeifertData,
    SpinAssignment,
    _arrangement,
    _euler_numerator,
    _engine_value,
    _platonic,
    delta_engine,
    euler_number,
    parse_seifert,
    parse_spin,
    permute_fibers,
    reverse_orientation,
    shift_move,
    spin_conditions_hold,
    spin_enumerate,
)
from spindefect.sigma import is_spin_sign_admissible, sigma

from conftest import coprime_pairs, coprime_to, pairs_of, seifert_data


def test_seifert_data_validation():
    SeifertData([(2, 1), (3, 1), (5, -4)])
    SeifertData([(1, 1)])
    with pytest.raises(ValueError):
        SeifertData([])
    with pytest.raises(ValueError):
        SeifertData([(2, 1)] * 4)
    with pytest.raises(ValueError):
        SeifertData([(0, 1)])
    with pytest.raises(ValueError):
        SeifertData([(4, 2)])  # not coprime
    with pytest.raises(DegenerateEuler):
        SeifertData([(2, 1), (2, -1)])
    with pytest.raises(ValueError):
        SeifertData([(2, 1), (4, 1), (5, 1)])  # (2,4,5) base is not spherical
    with pytest.raises(ValueError):
        SeifertData([(3, 1), (3, 1), (3, 1)])


def test_euler_number():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    assert euler_number(s) == Fraction(-1, 30)
    assert euler_number(SeifertData([(1, -2)])) == 2


_raw_pairs = st.lists(
    pairs_of(st.integers(1, 12), lambda a: coprime_to(a, 30)), min_size=1, max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(_raw_pairs)
@example([(2, 1), (2, -1)])  # e = 0
@example([(1, 0)])
@example([(2, 1), (3, 1), (5, -4)])  # |H_1| = 1
def test_euler_numerator_matches_the_fraction_sum(pairs):
    numerator = _euler_numerator(pairs)
    prod = math.prod(a for a, _ in pairs)
    e = -sum(Fraction(b, a) for a, b in pairs)
    assert Fraction(-numerator, prod) == e
    # |H_1| = |prod(a_i) e|, so the numerator carries its parity
    assert (abs(numerator) % 2 == 1) == ((e * prod).numerator % 2 == 1)
    try:
        s = SeifertData(pairs)
    except DegenerateEuler:
        assert e == 0
    except ValueError:
        assert len(pairs) == 3 and e != 0  # a non-spherical triple
    else:
        assert euler_number(s) == e != 0


@settings(max_examples=300, deadline=None)
@given(seifert_data())
@example(SeifertData([(2, 1), (2, 1), (7, 1)]))
@example(SeifertData([(1, 1), (2, 1), (3, 1)]))  # an a = 1 fiber: not three singular
def test_spherical_shape_is_recorded_once(s):
    mults = sorted(a for a, _ in s)
    expected = len(mults) == 3 and mults[0] >= 2 and _platonic(mults)
    assert s.is_spherical_candidate() is expected
    # the recorded shape stays out of ==, hash and repr
    twin = SeifertData(s.pairs)
    object.__setattr__(twin, "_spherical", not expected)
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
    assert repr(s) == f"SeifertData(pairs={s.pairs!r})"


@settings(max_examples=300, deadline=None)
@given(seifert_data())
@example(SeifertData([(2, 1), (3, 1), (5, -4)]))  # |H_1| = 1
@example(SeifertData([(2, -1), (3, -1), (5, 4)]))  # e > 0
def test_euler_numerator_is_recorded_once(s):
    assert s._euler == _euler_numerator(s.pairs) != 0
    # the recorded numerator stays out of ==, hash and repr
    twin = SeifertData(s.pairs)
    object.__setattr__(twin, "_euler", -s._euler)
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
    assert repr(s) == f"SeifertData(pairs={s.pairs!r})"


def test_spin_structure_counts():
    # (2,2,n): two structures for n odd, four for n even;
    # (2,3,3) and (2,3,5): one; (2,3,4): two
    assert len(spin_enumerate(SeifertData([(2, 1), (2, 1), (3, 1)]))) == 2
    assert len(spin_enumerate(SeifertData([(2, 1), (2, 1), (5, -2)]))) == 2
    assert len(spin_enumerate(SeifertData([(2, 1), (2, 1), (4, 1)]))) == 4
    assert len(spin_enumerate(SeifertData([(2, 1), (2, 1), (6, 1)]))) == 4
    assert len(spin_enumerate(SeifertData([(2, 1), (3, 1), (3, -2)]))) == 1
    assert len(spin_enumerate(SeifertData([(2, 1), (3, 1), (4, 1)]))) == 2
    assert len(spin_enumerate(SeifertData([(2, 1), (3, 1), (5, -4)]))) == 1


def test_enumeration_is_ch_major_and_valid():
    s = SeifertData([(2, 1), (2, 1), (4, 1)])
    out = spin_enumerate(s)
    assert all(spin_conditions_hold(s, c) for c in out)
    keys = [(c.ch, c.cg) for c in out]
    assert keys == sorted(keys)
    # a 2-fiber pins ch = 0
    assert all(c.ch == 0 for c in out)


def test_all_odd_multiplicities_allow_ch_one():
    # S^3 presented as a single (1, 1) pair: the unique labelling has ch = 1
    out = spin_enumerate(SeifertData([(1, 1)]))
    assert [(c.cg, c.ch) for c in out] == [((0,), 1)]


def _spin_enumerate_by_filtering(s):
    """Every candidate labelling, c(h)-major, filtered by the spin conditions."""
    out = []
    for ch in (0, 1):
        for bits in itertools.product((0, 1), repeat=len(s)):
            c = SpinAssignment(bits, ch)
            if spin_conditions_hold(s, c):
                out.append(c)
    return out


@settings(max_examples=400, deadline=None)
@given(seifert_data())
@example(SeifertData([(1, 1), (3, 1), (5, 2)]))  # all odd: c(h) = 1 and c(h) = 0
@example(SeifertData([(1, 2), (3, 1), (5, 2)]))  # all odd, odd b-sum: c(h) = 1 only
@example(SeifertData([(3, 1), (5, -2)]))
def test_spin_enumerate_matches_the_filtered_product(s):
    expected = _spin_enumerate_by_filtering(s)
    assert expected  # every valid space is spin
    assert spin_enumerate(s) == expected


@settings(max_examples=300, deadline=None)
@given(seifert_data())
@example(SeifertData([(1, 1), (3, 1), (5, 2)]))  # all odd: c(h) = 1 and c(h) = 0
def test_spin_enumerate_builds_what_the_constructor_builds(s):
    for c in spin_enumerate(s):
        assert c == SpinAssignment(c.cg, c.ch)
        assert hash(c) == hash(SpinAssignment(c.cg, c.ch))
        assert type(c.cg) is tuple and all(type(x) is int for x in c.cg)
        assert type(c.ch) is int


def test_shift_move_transport():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    c = SpinAssignment((1, 1, 0))
    s2, c2 = shift_move(s, c, (1, -1, 0))
    assert s2.pairs == ((2, -1), (3, 4), (5, -4))
    # c(g_i) -> c(g_i) + k_i c(h) + k_i with ch = 0
    assert c2.cg == (0, 0, 0) and c2.ch == 0
    assert euler_number(s2) == euler_number(s)
    assert spin_conditions_hold(s2, c2)
    with pytest.raises(ValueError):
        shift_move(s, c, (1, 1, 0))  # does not sum to zero
    with pytest.raises(ValueError):
        shift_move(s, c, (1, -1))


def test_reverse_and_permute():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    c = SpinAssignment((1, 1, 0))
    rs, rc = reverse_orientation(s, c)
    assert rs.pairs == ((2, -1), (3, -1), (5, 4))
    assert rc == c
    assert euler_number(rs) == -euler_number(s)
    ps, pc = permute_fibers(s, c, (2, 0, 1))
    assert ps.pairs == ((5, -4), (2, 1), (3, 1))
    assert pc.cg == (0, 1, 1)
    with pytest.raises(ValueError):
        permute_fibers(s, c, (0, 0, 1))


# --- the splitting engine -------------------------------------------------------


def test_engine_worked_examples():
    s = SeifertData([(2, 1), (2, 1), (3, 1)])
    # (0, 0, 0) breaks the (3, 1) fiber's constraint: not a spin structure
    with pytest.raises(NoSpinForm):
        delta_engine(s, SpinAssignment((0, 0, 0)))
    spins = spin_enumerate(s)
    assert [c.cg for c in spins] == [(0, 1, 1), (1, 0, 1)]
    assert [delta_engine(s, c) for c in spins] == [-3, -3]
    s2 = SeifertData([(2, 1), (2, 1), (2, -1)])
    assert delta_engine(s2, SpinAssignment((1, 0, 1))) == 0


@pytest.mark.parametrize("pairs, cg, arranged, value", [
    # a1 b2 + a2 b1 = 0, repaired by (2, 0, -2)
    (((2, -9), (2, -9), (2, 9)), (0, 0, 0), ((2, -13), (2, 9), (2, -5)), 0),
    # b3 = 0, repaired by (0, 2, -2)
    (((1, -9), (1, 0), (2, -9)), (1, 0, 1), ((1, -9), (2, -13), (1, 2)), 2),
    # a1 b2 + a2 b1 = 0 and b3 = -2 a3, repaired by (-2, 0, 2)
    (((1, -2), (2, -9), (2, 9)), (0, 0, 0), ((2, -5), (2, 9), (1, -4)), 1),
    # b3 = 0 and a1 b2 + a2 b1 = 2 a1 a2, repaired by (0, -2, 2)
    (((1, 0), (2, -5), (2, 9)), (0, 0, 0), ((2, -5), (2, 13), (1, -2)), -1),
])
def test_arrangement_rule_branches(pairs, cg, arranged, value):
    s, c = SeifertData(pairs), SpinAssignment(cg)
    got, cg = _arrangement(s, c)
    assert got == arranged
    assert cg[2] == 0 and cg[0] == cg[1]
    assert delta_engine(s, c) == value


def _arrangement_by_moves(s, c):
    """The arrangement through ``permute_fibers`` and ``shift_move``, each
    building and re-checking a ``SeifertData``."""
    third = c.cg.index(0)
    s, c = permute_fibers(s, c, [i for i in range(3) if i != third] + [third])
    (a1, b1), (a2, b2), (a3, b3) = s.pairs
    if b3 == 0:
        k = 2 if a1 * b2 + a2 * b1 != 2 * a1 * a2 else -2
        s, c = shift_move(s, c, (0, k, -k))
    elif a1 * b2 + a2 * b1 == 0:
        k = 2 if b3 != -2 * a3 else -2
        s, c = shift_move(s, c, (k, 0, -k))
    return s.pairs, c.cg


@settings(max_examples=400, deadline=None)
@given(seifert_data(engine=True), st.data())
@example(SeifertData([(2, -9), (2, -9), (2, 9)]), None)
@example(SeifertData([(1, -9), (1, 0), (2, -9)]), None)
@example(SeifertData([(1, -2), (2, -9), (2, 9)]), None)
def test_arrangement_matches_the_permute_and_shift_moves(s, data):
    spins = spin_enumerate(s)
    c = spins[0] if data is None else data.draw(st.sampled_from(spins))
    pairs, cg = _arrangement(s, c)
    assert (pairs, cg) == _arrangement_by_moves(s, c)
    (a1, b1), (a2, b2), (a3, b3) = pairs
    assert b3 != 0 and a1 * b2 + a2 * b1 != 0


def test_engine_agrees_with_plumbing_on_a_repaired_arrangement():
    s, c = SeifertData([(2, -9), (2, -9), (2, 9)]), SpinAssignment((0, 0, 0))
    assert delta_engine(s, c) == plumbing_delta(*seifert_to_plumbing(s, c)) == 0


def test_engine_rejects_labels_that_are_not_spin():
    # every fiber constraint holds (all a_i even), but the label sum is odd
    s = SeifertData([(2, 1), (2, 1), (4, 1)])
    with pytest.raises(NoSpinForm):
        delta_engine(s, SpinAssignment((1, 0, 0)))


def test_engine_on_poincare_like_data():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    (c,) = spin_enumerate(s)
    assert delta_engine(s, c) == -8
    rs, rc = reverse_orientation(s, c)
    assert delta_engine(rs, rc) == 8


def test_engine_needs_an_even_multiplicity():
    s = SeifertData([(1, 1), (3, 1), (3, -1)])
    with pytest.raises(NoAdmissibleRearrangement):
        delta_engine(s, SpinAssignment((0, 0, 0)))


def test_engine_requires_three_fibers():
    with pytest.raises(ValueError):
        delta_engine(SeifertData([(2, 1)]), SpinAssignment((0,)))
    s = SeifertData([(2, 1), (2, 1), (3, 1)])
    with pytest.raises(ValueError):
        delta_engine(s, SpinAssignment((0, 0)))


@settings(max_examples=200, deadline=None)
@given(seifert_data(b_max=60, engine=True), st.data(), st.integers(-4, 4))
@example(SeifertData([(2, 1), (2, 1), (3, 1)]), None, -3)
@example(SeifertData([(2, 1), (3, 1), (5, -4)]), None, 2)
@example(SeifertData([(2, -1), (3, -1), (4, 9)]), None, 3)
def test_delta_engine_is_independent_of_the_bezout_pair(s, data, t):
    # the engine may take any solution of a1 v1 - b1 u1 = 1; all of them,
    # (u1 + t a1, v1 + t b1), give its delta
    spins = spin_enumerate(s)
    c = spins[0] if data is None else data.draw(st.sampled_from(spins))
    pairs, cg = _arrangement(s, c)
    a1, b1 = pairs[0]
    u1 = next(u for u in range(a1) if (1 + b1 * u) % a1 == 0)
    v1 = (1 + b1 * u1) // a1
    value = _engine_value(pairs, cg, c.ch, u1 + t * a1, v1 + t * b1)
    assert value == delta_engine(s, c)


def test_engine_invariant_under_shift_moves(rng):
    s = SeifertData([(2, 1), (3, 1), (4, 1)])
    for c in spin_enumerate(s):
        base = delta_engine(s, c)
        for _ in range(10):
            k1 = rng.randrange(-3, 4)
            k2 = rng.randrange(-3, 4)
            s2, c2 = shift_move(s, c, (k1, k2, -(k1 + k2)))
            assert delta_engine(s2, c2) == base
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            s2, c2 = permute_fibers(s, c, perm)
            assert delta_engine(s2, c2) == base


# --- lens spaces ----------------------------------------------------------------


def test_lens_space_normalization_and_defect():
    lens = LensSpace(-4, 3, 1)
    assert (lens.p, lens.q) == (4, -3)
    assert lens.defect() == sigma(-3, 4, 1)
    with pytest.raises(NoSpinForm):
        LensSpace(3, 1, -1)  # p odd: only eps = +1 exists
    assert LensSpace(3, 1, 1).defect() == sigma(1, 3, 1)
    with pytest.raises(ValueError):
        LensSpace(4, 2, 1)
    with pytest.raises(ValueError):
        LensSpace(0, 1, 1)
    with pytest.raises(ValueError):
        LensSpace(4, 1, 2)


def test_inadmissible_lens_sign_names_the_other_one():
    for (p, q, eps), message in [
        ((3, -2, 1), "L(3, -2) with p odd has only the eps = -1 structure"),
        ((-3, 2, 1), "L(3, -2) with p odd has only the eps = -1 structure"),
        ((1, 0, 1), "L(1, 0) with p odd has only the eps = -1 structure"),
        ((3, 1, -1), "L(3, 1) with p odd has only the eps = +1 structure"),
        ((5, -3, -1), "L(5, -3) with p odd has only the eps = +1 structure"),
    ]:
        with pytest.raises(NoSpinForm) as exc:
            LensSpace(p, q, eps)
        assert str(exc.value) == message
        assert LensSpace(p, q, -eps).eps == -eps


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(coprime_pairs(60))))
def test_lens_defect_antisymmetry(pq):
    p, q = pq
    for eps in (1, -1):
        if not is_spin_sign_admissible(q, p, eps):
            continue
        assert LensSpace(p, -q, eps).defect() == -LensSpace(p, q, eps).defect()


# --- parsing --------------------------------------------------------------------


def test_parse_seifert():
    s = parse_seifert("(2,1),(3,1),(5,-4)")
    assert s.pairs == ((2, 1), (3, 1), (5, -4))
    assert parse_seifert("{(2, 1), (3, 1)}").pairs == ((2, 1), (3, 1))
    with pytest.raises(ValueError):
        parse_seifert("")
    with pytest.raises(ValueError):
        parse_seifert("(2,1,3)")
    with pytest.raises(ValueError):
        parse_seifert("(2,x)")


def test_parse_spin():
    c = parse_spin("1,0,1", 3)
    assert c.cg == (1, 0, 1) and c.ch == 0
    c = parse_spin("0,0,0;1", 3)
    assert c.ch == 1
    with pytest.raises(ValueError):
        parse_spin("1,0", 3)
    with pytest.raises(ValueError):
        parse_spin("2,0,0", 3)
