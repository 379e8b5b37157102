import itertools
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindefect.catalog import (
    _CONST_ROWS,
    _ROW_OF_LABEL,
    _ROW_OF_RESIDUE,
    FAMILY_D,
    FAMILY_I,
    FAMILY_O,
    FAMILY_T,
    DeltaCaseId,
    _const_row,
    _const_row_case,
    classify,
    delta,
    delta_table,
    instantiate_case,
    iter_cases,
)
from spindefect.errors import NoSpinForm, UnrecognizedForm
from spindefect.plumbing import plumbing_delta, seifert_to_plumbing
from spindefect.seifert import (
    LensSpace,
    SeifertData,
    SpinAssignment,
    _euler_numerator,
    delta_engine,
    euler_number,
    permute_fibers,
    reverse_orientation,
    shift_move,
    spin_conditions_hold,
    spin_enumerate,
)
from spindefect.sigma import sigma

from conftest import coprime_to, pairs_of

_GRID = list(iter_cases(k_span=2, n_max=8, b_max=8))


def test_grid_covers_every_row():
    rows = {(c.family, c.row) for c in _GRID}
    assert sum(1 for f, _ in rows if f == FAMILY_T) == 6
    assert sum(1 for f, _ in rows if f == FAMILY_O) == 16
    assert sum(1 for f, _ in rows if f == FAMILY_I) == 12
    assert sum(1 for f, _ in rows if f == FAMILY_D) == 10


def test_instantiate_classify_roundtrip():
    for case in _GRID:
        s, c = instantiate_case(case)
        back = classify(s, c)
        assert back == case, (case, back)


def test_classify_flags_the_reversed_orientation():
    for case in _GRID[::7]:
        s, c = instantiate_case(case)
        rs, rc = reverse_orientation(s, c)
        back = classify(rs, rc)
        assert back.orientation_reversed
        assert (back.family, back.row, dict(back.params)) == (
            case.family,
            case.row,
            dict(case.params),
        )
        assert delta(rs, rc) == -delta(s, c)


def test_classification_survives_presentation_changes(rng):
    # shifts and permutations present the same spin space, so the normalized
    # row and the defect cannot move.  One caveat: swapping the two identical
    # (2, b) fibers of a dihedral sum row exchanges the labels c_1, c_2, so
    # the eps tag may flip there; everything else is pinned.
    for case in _GRID:
        s, c = instantiate_case(case)
        want = delta(s, c)
        free_eps = case.family == FAMILY_D and "eps" in case.params
        # with all three multiplicities equal to 2 any fiber can play the
        # cone role, so rows legitimately overlap; only delta is pinned
        free_row = case.family == FAMILY_D and case.params["n"] == 2
        for _ in range(4):
            k1, k2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
            s2, c2 = shift_move(s, c, (k1, k2, -(k1 + k2)))
            perm = rng.sample(range(3), 3)
            s2, c2 = permute_fibers(s2, c2, perm)
            got = classify(s2, c2)
            if free_row:
                assert got.family == case.family
                assert got.orientation_reversed == case.orientation_reversed
            elif free_eps:
                alt = DeltaCaseId(case.family, case.row,
                                  {**case.params,
                                   "eps": 1 - case.params["eps"]},
                                  case.orientation_reversed)
                assert got == case or got == alt
            else:
                assert got == case
            assert delta(s2, c2) == want


def test_every_spin_structure_lands_on_some_row():
    shapes = [
        [(2, 1), (2, 1), (3, 1)],
        [(2, 1), (2, 1), (4, 1)],
        [(2, 1), (2, 1), (5, -3)],
        [(2, 1), (2, 1), (7, 4)],
        [(2, 1), (2, 1), (8, -5)],
        [(2, 1), (3, 1), (3, -2)],
        [(2, 1), (3, 1), (4, 1)],
        [(2, -1), (3, -1), (4, -9)],
        [(2, 1), (3, 1), (5, -4)],
        [(2, -1), (3, 2), (5, 2)],
        [(2, 3), (3, -2), (5, 3)],
    ]
    for pairs in shapes:
        s = SeifertData(pairs)
        for c in spin_enumerate(s):
            case = classify(s, c)
            value = delta(s, c)
            ref = delta_table(case)
            assert value == (-ref if case.orientation_reversed else ref)


def test_poincare_like_fixture():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    (c,) = spin_enumerate(s)
    case = classify(s, c)
    assert (case.family, case.row, case.params["k"]) == (FAMILY_I, "5-5", 0)
    assert not case.orientation_reversed
    assert delta(s, c) == -8
    assert "row (5-5)" in case.describe()


def test_dihedral_sum_row_fixture():
    s = SeifertData([(2, 1), (2, 1), (3, 1)])
    for c in spin_enumerate(s):
        case = classify(s, c)
        assert case.row == "2-5"
        assert (case.params["n"], case.params["b"]) == (3, 1)
        assert delta(s, c) == sigma(3, 4, -1) == -3


def test_direct_normalization_branches():
    # expected cases and values computed by the permutation-scanning
    # classifier this rule replaced
    t_case = DeltaCaseId(FAMILY_T, "3-2", {"k": -2})
    # T(2,3,3) with 3-fibers that differ mod 3: the order (3,1),(3,5) leaves
    # b3 odd and needs the swap, the order (3,5),(3,1) does not
    for pairs in ([(2, 1), (3, 1), (3, 5)], [(2, 1), (3, 5), (3, 1)]):
        s, c = SeifertData(pairs), SpinAssignment((0, 1, 1))
        assert classify(s, c) == t_case
        assert delta(s, c) == 0
    # positive Euler number: the b's are negated and the case flagged
    s, c = SeifertData([(2, -1), (3, -1), (3, -5)]), SpinAssignment((0, 1, 1))
    assert classify(s, c) == DeltaCaseId(FAMILY_T, "3-2", {"k": -2}, True)
    # the n-fiber comes first and moves to slot 3
    s = SeifertData([(7, 4), (2, 1), (2, -1)])
    for cg, eps in (((0, 0, 0), 0), ((0, 1, 1), 1)):
        c = SpinAssignment(cg)
        assert classify(s, c) == DeltaCaseId(FAMILY_D, "2-5", {"n": 7, "b": -3, "eps": eps})
        assert delta(s, c) == 1


def test_constant_row_values():
    fixtures = {
        ("3-1", 0): -2,
        ("3-2", -1): 0,
        ("3-3", 1): -6,
        ("3-4", -2): 4,
        ("4-13", 0): -7,
        ("4-16", -1): -1,
        ("5-5", 2): -8,
        ("5-9", 0): 2,
    }
    family = {"3": FAMILY_T, "4": FAMILY_O, "5": FAMILY_I}
    for (row, k), expected in fixtures.items():
        case = DeltaCaseId(family[row[0]], row, {"k": k})
        assert delta_table(case) == expected


def test_lens_rows_and_dispatch():
    assert delta(LensSpace(4, 3, 1)) == sigma(3, 4, 1) == 1
    assert delta(LensSpace(4, 3, -1)) == sigma(3, 4, -1)
    # the structure is the lens space's eps: labels beside it are refused
    for c in (-1, 1, SpinAssignment((0, 1, 1))):
        with pytest.raises(TypeError, match="takes no labels"):
            delta(LensSpace(4, 3, 1), c)
    # the catalog has no lens family: a hand-built lens case names no row
    with pytest.raises(UnrecognizedForm, match=r"unknown catalog row \(lens\)"):
        delta_table(DeltaCaseId("Lens", "lens", {"p": 4, "q": 3, "eps": 1}))


def test_delta_table_parameter_validation():
    with pytest.raises(UnrecognizedForm):
        delta_table(DeltaCaseId(FAMILY_T, "9-9", {"k": 0}))
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_T, "3-1", {"k": -1}))  # t=+1 needs k >= 0
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_T, "3-2", {"k": 0}))  # t=-1 needs k <= -1
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_O, "5-5", {"k": 0}))  # family mismatch
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_I, "5-1-ε", {"k": 0}))  # missing eps
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_D, "2-1", {"n": 4, "b": -1}))  # n parity
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_D, "2-1", {"n": 5, "b": 1}))  # b range
    with pytest.raises(ValueError):
        delta_table(DeltaCaseId(FAMILY_D, "2-5", {"n": 5, "b": -7}))  # n + b <= 0
    # the label is resolved first, then the family, then the parameters, so
    # each id is refused for its own fault and never with a KeyError
    for case, error, message in [
        (DeltaCaseId(FAMILY_D, "3-1", {"k": 0}), ValueError, r"row \(3-1\) does not belong to D\(2,2,n\)"),
        (DeltaCaseId(FAMILY_D, "2-1", {"k": 0}), ValueError, r"row \(2-1\) needs the parameter n$"),
        (DeltaCaseId(FAMILY_T, "3-1", {}), ValueError, r"row \(3-1\) needs the parameter k$"),
        (DeltaCaseId("Lens", "2-1", {"n": 3, "b": -2}), ValueError, r"row \(2-1\) does not belong to Lens"),
        (DeltaCaseId(FAMILY_O, "2-1", {"n": 3, "b": -2}), ValueError, r"row \(2-1\) does not belong to O\(2,3,4\)"),
    ]:
        for f in (delta_table, instantiate_case):
            with pytest.raises(error, match=message):
                f(case)


def test_classify_input_validation():
    with pytest.raises(UnrecognizedForm):
        classify(SeifertData([(1, 1), (2, 1), (3, 1)]), SpinAssignment((0, 0, 0)))
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    with pytest.raises(NoSpinForm):
        classify(s, SpinAssignment((0, 0, 0)))
    with pytest.raises(UnrecognizedForm):
        classify(SeifertData([(2, 1), (3, 1)]), SpinAssignment((0, 0)))


def test_row_indexes_partition_the_table_in_order():
    # one row per (family, t, c3, b3 mod 2*t*a3): no two rows share a key,
    # and a row without c3 is under both labels, in table order
    entries = [((r.family, r.t, c3, r.offset % (2 * r.t * r.a3)), r)
               for r in _CONST_ROWS for c3 in ((0, 1) if r.c3 is None else (r.c3,))]
    assert len({key for key, _ in entries}) == len(entries)
    assert [(key, id(r)) for key, r in entries] == [(key, id(r)) for key, r in _ROW_OF_RESIDUE.items()]
    # one row per (label, eps), in table order
    assert list(_ROW_OF_LABEL) == [(r.label, r.eps) for r in _CONST_ROWS]
    assert all(a is b for a, b in zip(_ROW_OF_LABEL.values(), _CONST_ROWS))


def _const_row_case_by_loop(family, t, c3, b3, reversed_flag):
    """The classifier's last search before the residue index: the rows of
    (family, t) in table order, one division each."""
    slope = 2 * t * {FAMILY_T: 3, FAMILY_O: 4, FAMILY_I: 5}[family]
    for row in _CONST_ROWS:
        if (row.family, row.t) != (family, t) or row.c3 not in (None, c3):
            continue
        k, rem = divmod(b3 - row.offset, slope)
        if rem == 0 and row.k_in_range(k):
            return DeltaCaseId(family, row.label, row.params(k), reversed_flag)
    return None


def test_residue_lookup_matches_the_row_loop():
    found = set()
    for family, t, c3, reversed_flag in itertools.product(
            (FAMILY_T, FAMILY_O, FAMILY_I), (1, -1), (0, 1), (False, True)):
        for b3 in range(-150, 151):
            case = _const_row_case(family, t, c3, b3, reversed_flag)
            assert case == _const_row_case_by_loop(family, t, c3, b3, reversed_flag), (family, t, c3, b3)
            if case is not None:
                found.add((case.row, case.params.get("eps")))
    # the grid reaches every row
    assert found == set(_ROW_OF_LABEL)


def _const_row_by_scan(label, eps):
    """The linear scan that the (label, eps) index replaced."""
    for row in _CONST_ROWS:
        if row.label == label and row.eps == eps:
            return row
    if any(row.label == label for row in _CONST_ROWS):
        raise ValueError(f"row ({label}) needs eps=+1 or -1")
    raise UnrecognizedForm(f"unknown catalog row ({label})")


def _outcome(f, *args):
    try:
        return "returns", f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_const_row_lookup_matches_the_linear_scan():
    labels = {r.label for r in _CONST_ROWS} | {"9-9", "3-0", "4-17", "5-1", "2-1", ""}
    for label in labels:
        for eps in (None, 1, -1, 0, 2, True, 1.0):
            assert _outcome(_const_row, label, eps) == _outcome(_const_row_by_scan, label, eps)
    for row in _CONST_ROWS:
        assert _const_row(row.label, row.eps) is row


# each public entry on the catalog, engine and plumbing path keeps the
# outcome it had when it walked the SeifertData itself; a LensSpace has no
# len() and no iteration, and only seifert_to_plumbing and delta accept one
_S = SeifertData([(2, 1), (3, 1), (5, -4)])
_GUARD_INPUTS = {
    "lens": (LensSpace(5, 2, -1), SpinAssignment((0, 1, 1))),
    "two fibers": (SeifertData([(2, 1), (3, 1)]), SpinAssignment((1, 1))),
    "wrong length": (_S, SpinAssignment((0, 1))),
    "not spin": (_S, SpinAssignment((1, 1, 1))),
    # the pairs of a SeifertData without the type that checked them
    "bare pairs": (_S.pairs, SpinAssignment((1, 1, 0))),
    "namespace": (types.SimpleNamespace(pairs=_S.pairs), SpinAssignment((1, 1, 0))),
    "none": (None, SpinAssignment(())),
    "no labels": (_S, None),
}
def _spin_enumerate_of(s, c):
    return spin_enumerate(s)


def _shift_move_of(s, c):
    return shift_move(s, c, (0,) * len(s))


def _not_seifert(name):
    return TypeError, f"expected SeifertData, got {name}"


_WRONG_LENGTH = (ValueError, "label count does not match fiber count")
_NOT_SPIN = (NoSpinForm, "labels (1, 1, 1);0 are not a spin structure on "
                         "((2, 1), (3, 1), (5, -4))")


@pytest.mark.parametrize("f, given, expected", [
    (classify, "lens", _not_seifert("LensSpace")),
    (classify, "two fibers", (UnrecognizedForm, "((2, 1), (3, 1)) is not a "
                              "three-fiber spherical form; cannot classify")),
    (classify, "wrong length", _WRONG_LENGTH),
    (classify, "not spin", _NOT_SPIN),
    (delta_engine, "lens", _not_seifert("LensSpace")),
    (delta_engine, "two fibers", (ValueError, "the splitting engine needs exactly "
                                  "three fiber pairs")),
    (delta_engine, "wrong length", _WRONG_LENGTH),
    (delta_engine, "not spin", _NOT_SPIN),
    (seifert_to_plumbing, "two fibers", (ValueError, "need a LensSpace or "
                                         "three-fiber spherical SeifertData")),
    (seifert_to_plumbing, "wrong length", _WRONG_LENGTH),
    (seifert_to_plumbing, "not spin", (NoSpinForm, "labels are not a spin "
                                       "structure on ((2, 1), (3, 1), (5, -4))")),
    (spin_conditions_hold, "lens", _not_seifert("LensSpace")),
    (spin_conditions_hold, "wrong length", _WRONG_LENGTH),
    (_spin_enumerate_of, "lens", _not_seifert("LensSpace")),
    *((f, given, _not_seifert(name))
      for given, name in [("bare pairs", "tuple"), ("namespace", "SimpleNamespace")]
      for f in (classify, delta_engine, spin_conditions_hold, _spin_enumerate_of)),
    (spin_conditions_hold, "none", _not_seifert("NoneType")),
    (delta, "bare pairs", (TypeError, "expected SeifertData or LensSpace, got tuple")),
    (delta, "no labels", (TypeError, "three-fiber data needs a SpinAssignment")),
    (_shift_move_of, "wrong length", _WRONG_LENGTH),
], ids=lambda x: getattr(x, "__name__", None))
def test_entry_guards_keep_their_errors(f, given, expected):
    assert _outcome(f, *_GUARD_INPUTS[given]) == expected


def test_entry_guards_keep_what_they_let_through():
    lens, _ = _GUARD_INPUTS["lens"]
    two, two_c = _GUARD_INPUTS["two fibers"]
    assert seifert_to_plumbing(lens, None) == seifert_to_plumbing(lens)
    assert seifert_to_plumbing(lens)[0].vertices == ((0, -2), (1, 2))
    assert spin_conditions_hold(two, two_c) is True
    assert spin_conditions_hold(*_GUARD_INPUTS["not spin"]) is False
    assert spin_enumerate(two) == [SpinAssignment((1, 1))]
    assert spin_enumerate(_S) == [SpinAssignment((1, 1, 0))]


def test_instantiate_rejects_lens_cases():
    with pytest.raises(UnrecognizedForm):
        instantiate_case(DeltaCaseId("Lens", "lens", {"p": 4, "q": 1, "eps": 1}))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GRID), st.integers(min_value=0, max_value=5))
def test_delta_cross_check_never_disagrees(case, salt):
    # delta() runs the table and the splitting engine on every call and
    # raises InternalDisagreement on mismatch, so surviving the grid is
    # itself the assertion; the salt permutes the presentation first
    s, c = instantiate_case(case)
    if salt:
        s, c = permute_fibers(s, c, ((salt % 3, (salt + 1) % 3, (salt + 2) % 3)))
    assert isinstance(delta(s, c), int)


@st.composite
def _spherical_data(draw):
    # three-fiber spherical data drawn directly, not through the catalog
    kind = draw(st.sampled_from(["D", 3, 4, 5]))
    if kind == "D":
        mults = (2, 2, draw(st.integers(min_value=2, max_value=30)))
    else:
        mults = (2, 3, kind)
    pairs = [(a, draw(coprime_to(a, 200))) for a in mults]
    assume(sum(Fraction(b, a) for a, b in pairs) != 0)
    return SeifertData(pairs)


# (k1, k2) with |k1|, |k2| and |k1 + k2| at most 50
_shifts = pairs_of(st.integers(-50, 50),
                   lambda k1: st.integers(max(-50, -50 - k1), min(50, 50 - k1)))


@settings(max_examples=150, deadline=None)
@given(_spherical_data())
def test_integer_orientation_sign_matches_the_euler_number(s):
    # classify reads the sign of e from the integer numerator, never from a
    # Fraction sum: e > 0 iff the numerator is negative
    assert (_euler_numerator(s.pairs) < 0) == (euler_number(s) > 0)
    mirror = SeifertData([(a, -b) for a, b in s])
    assert _euler_numerator(mirror.pairs) == -_euler_numerator(s.pairs)
    assert (_euler_numerator(mirror.pairs) < 0) == (euler_number(mirror) > 0)
    assert (euler_number(mirror) > 0) != (euler_number(s) > 0)


@settings(max_examples=150, deadline=None)
@given(_spherical_data(), st.permutations(range(3)), _shifts, st.booleans())
def test_three_routes_agree_and_are_invariant_under_re_presentation(s, perm, shift, flip):
    # shift/permutation invariance of delta, with orientation reversal negating it
    k1, k2 = shift
    for c in spin_enumerate(s):
        base = delta_engine(s, c)
        assert base == plumbing_delta(*seifert_to_plumbing(s, c)) == delta(s, c)
        s2, c2 = shift_move(*permute_fibers(s, c, perm), (k1, k2, -(k1 + k2)))
        if flip:
            s2, c2 = reverse_orientation(s2, c2)
        expected = -base if flip else base
        assert delta_engine(s2, c2) == expected
        assert plumbing_delta(*seifert_to_plumbing(s2, c2)) == expected
        assert delta(s2, c2) == expected
