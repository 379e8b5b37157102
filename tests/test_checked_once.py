"""Each fact on the ``delta --all-spin`` path is checked once, at a public entry.

The private shortcuts trust what their callers have already established:
``_even_cf`` trusts its pair, ``_sigma`` trusts the engine's arguments,
which always come from a ``SeifertData``, and the D rows',
``spin_conditions_hold`` trusts a labelling that ``spin_enumerate``
stamped for the very ``pairs`` tuple of the ``SeifertData`` it is handed,
the verdict kernel hands out shared fixed verdicts, ``mirror`` skips
re-validation and ``plumbing_delta`` skips the sum on an empty support.
These tests pin each shortcut to the checked computation it replaces, and
check that every internal caller stays inside what the shortcut trusts.
"""

import copy
import dataclasses
import importlib
import itertools
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spindefect import catalog, plumbing, seifert
from spindefect.catalog import FAMILY_D, classify, delta, instantiate_case, iter_cases
from spindefect.errors import NoSpinForm
from spindefect.obstruction import (
    FourManifoldShape,
    TenEighthsVerdict,
    VerdictStatus,
    spin_filling_feasible,
    ten_eighths_verdict,
)
from spindefect.plumbing import WuVector, plumbing_delta, seifert_to_plumbing, star_graph
from spindefect.seifert import (
    LensSpace,
    SeifertData,
    SpinAssignment,
    _euler_numerator,
    delta_engine,
    permute_fibers,
    reverse_orientation,
    shift_move,
    spin_conditions_hold,
    spin_enumerate,
)
from spindefect.sigma import _even_cf, even_cf_expand, is_spin_sign_admissible, sigma

from conftest import PLATONIC, seifert_data

# the module: the package's own ``sigma`` is the function
sigma_module = importlib.import_module("spindefect.sigma")

# --- the unchecked expansion kernel ------------------------------------------


@st.composite
def _kernel_pairs(draw):
    """(p, q) in the expansion's domain, either sign: coprime, p + q odd,
    |p| > |q| >= 1; a pair of the same parity becomes (p + q, q), which
    keeps the gcd 1.  Half of them sit on a run of +-2 up to 10**5 long;
    the others keep q at least a thousandth of p below p, so their runs
    stay short (a q just below p lists a run of about p / (p - q) twos)."""
    if draw(st.booleans()):
        p = draw(st.integers(2, 10**5))
        p, q = draw(st.sampled_from(((p, p - 1), (p + 1, p), (2 * p + 1, 2 * p - 1))))
        if (p + q) % 2 == 0:
            p += q
    else:
        x = draw(st.integers(2, 10**30))
        y = draw(st.integers(1, max(1, x - x // 1000)))
        g = math.gcd(x, y)
        p, q = x // g, y // g
        if (p + q) % 2 == 0:
            p += q
    return draw(st.sampled_from((p, -p))), draw(st.sampled_from((q, -q)))


@settings(max_examples=400, deadline=None)
@given(_kernel_pairs())
@example((2, 1))
@example((-3, 2))
@example((534774834313772, 267253656568013))  # a run of 1,110,046,380 twos
def test_kernel_equals_the_checked_expansion(pq):
    # the outcomes agree: the expansion, or the error a run too long to
    # list raises
    def outcome(expand):
        try:
            return expand(*pq)
        except ValueError as exc:
            return str(exc)

    assert outcome(_even_cf) == outcome(even_cf_expand)


@pytest.mark.parametrize("p, q, message", [
    (3, 0, "q must be nonzero"),
    (6, 4, "6/4 is not in lowest terms"),
    (7, 3, "7/3 has no even expansion (p and q have the same parity); "
           "reduce with the shift/sign rules first"),
    (3, 4, "need |p| > |q|, got 3/4"),
    (1418743667764364333709519393452, 709016970533566768071940907347,
     "the even expansion has a run of 2610296979461915686707 entries 2, too many to list"),
    (534774834313772, 267253656568013,
     "the even expansion has a run of 1110046380 entries 2, too many to list"),
])
def test_checked_expansion_keeps_its_errors(p, q, message):
    with pytest.raises(ValueError) as exc:
        even_cf_expand(p, q)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_the_kernel_keeps_the_too_long_run_error():
    # the run check is the kernel's own: no caller can rule it out cheaply
    with pytest.raises(ValueError, match="too many to list"):
        _even_cf(1418743667764364333709519393452, 709016970533566768071940907347)


def test_internal_callers_meet_the_kernel_preconditions(monkeypatch):
    callers = []
    real = _even_cf

    def checked(p, q):
        assert q != 0 and math.gcd(p, q) == 1, (p, q)
        assert (p + q) % 2 == 1 and abs(p) > abs(q), (p, q)
        callers.append((p, q))
        return real(p, q)

    monkeypatch.setattr(sigma_module, "_even_cf", checked)
    monkeypatch.setattr(plumbing, "_even_cf", checked)
    # _sigma's reductions, on every sign, parity and spin sign
    for p in range(-50, 51):
        for q in range(-2 * abs(p) - 1, 2 * abs(p) + 2):
            if p and math.gcd(p, q) == 1:
                for eps in (1, -1):
                    if is_spin_sign_admissible(q, p, eps):
                        sigma(q, p, eps)
    from_sigma = len(callers)
    assert from_sigma > 8_000
    # the lens chains, on every spin structure
    for p in range(-50, 51):
        for q in range(-abs(p), abs(p) + 1):
            if p and math.gcd(p, q) == 1:
                for eps in (1, -1):
                    if is_spin_sign_admissible(q, abs(p), eps):
                        seifert_to_plumbing(LensSpace(p, q, eps))
    from_lens = len(callers) - from_sigma
    assert from_lens > 1_000
    # the compiled star arms, on catalog cases and shifted presentations
    for case in iter_cases(k_span=3, n_max=12, b_max=12):
        s, c = instantiate_case(case)
        for k in (-3, 0, 2):
            shifted = SeifertData([(a, b - a * t) for (a, b), t in zip(s.pairs, (k, -k, 0))])
            for d in spin_enumerate(shifted):
                seifert_to_plumbing(shifted, d)
    assert len(callers) - from_sigma - from_lens > 3 * 1_000


# --- the unchecked sigma kernel in the engine and the D rows --------------------


def _presentations(s, c):
    """(s, c) as given, reversed, with its fibers permuted, and shifted."""
    yield s, c
    yield reverse_orientation(s, c)
    yield permute_fibers(s, c, (2, 0, 1))
    yield shift_move(s, c, (2, -3, 1))


def _random_platonic(rng, count):
    spaces = []
    while len(spaces) < count:
        mults = rng.sample(rng.choice(PLATONIC), 3)
        pairs = [(a, rng.choice([b for b in range(-40, 41) if math.gcd(a, b) == 1]))
                 for a in mults]
        if _euler_numerator(pairs):
            spaces.append(SeifertData(pairs))
    return spaces


def test_engine_and_d_rows_meet_the_sigma_kernel_preconditions(monkeypatch, rng):
    seen = []

    def checked(q, p, e):
        assert p != 0 and math.gcd(p, q) == 1 and e in (1, -1), (q, p, e)
        assert is_spin_sign_admissible(q, p, e), (q, p, e)
        seen.append((q, p, e))
        return sigma(q, p, e)

    monkeypatch.setattr(seifert, "_sigma", checked)
    monkeypatch.setattr(catalog, "_sigma", checked)
    structures = 0
    d_rows = 0
    for case in iter_cases(3, 14, 14):
        d_rows += case.family == FAMILY_D
        for s, c in _presentations(*instantiate_case(case)):
            delta(s, c)  # the row value, checked against the engine
            structures += 1
    for s in _random_platonic(rng, 1_500):
        for c in spin_enumerate(s):
            delta(s, c)
            structures += 1
    # two lens pieces per engine call, and one D row for each presentation
    # of a D case, besides the random spaces' D rows
    assert len(seen) > 2 * structures + 4 * d_rows and structures > 6_000


# --- labellings stamped by spin_enumerate -------------------------------------


def _unstamped(c):
    """The same labelling from the constructor, which stamps nothing."""
    bare = SpinAssignment(c.cg, c.ch)
    assert bare._pairs is None
    return bare


def _catalog_spaces():
    for case in iter_cases(k_span=2, n_max=10, b_max=10):
        yield instantiate_case(case)[0]


@settings(max_examples=300, deadline=None)
@given(seifert_data())
def test_every_stamped_labelling_passes_the_full_check(s):
    labellings = spin_enumerate(s)
    assert labellings  # every valid space is spin
    for c in labellings:
        assert c._pairs is s.pairs
        assert c == _unstamped(c) and hash(c) == hash(_unstamped(c))
        assert repr(c) == repr(_unstamped(c))
        object.__delattr__(c, "_pairs")  # back to the class's None
        assert c._pairs is None
        assert spin_conditions_hold(s, c) is True


def test_catalog_labellings_are_stamped_and_valid():
    count = 0
    for s in _catalog_spaces():
        for c in spin_enumerate(s):
            assert c._pairs is s.pairs
            assert spin_conditions_hold(s, _unstamped(c)) is True
            count += 1
    assert count > 500


def test_the_stamp_is_not_a_field():
    assert [f.name for f in dataclasses.fields(SpinAssignment)] == ["cg", "ch"]
    s = SeifertData([(2, 1), (2, 1), (4, 1)])
    c = spin_enumerate(s)[0]
    assert copy.copy(c)._pairs is s.pairs
    assert dataclasses.replace(c)._pairs is None  # a new labelling, unstamped


def _forged(s, cg):
    """A labelling stamped for s whose labels are not spin on s."""
    c = object.__new__(SpinAssignment)
    object.__setattr__(c, "cg", cg)
    object.__setattr__(c, "ch", 0)
    object.__setattr__(c, "_pairs", s.pairs)
    return c


_POINCARE = SeifertData([(2, 1), (3, 1), (5, -4)])  # one structure, (1, 1, 0)


def test_only_the_very_pairs_tuple_is_trusted():
    forged = _forged(_POINCARE, (1, 1, 1))
    # the shortcut: the stamp is s.pairs itself, so the labels are not read
    assert spin_conditions_hold(_POINCARE, forged) is True
    # an equal but distinct SeifertData takes the full check
    twin = SeifertData(_POINCARE.pairs)
    assert twin == _POINCARE and twin.pairs is not _POINCARE.pairs
    assert spin_conditions_hold(twin, forged) is False
    # so does a labelling from the constructor
    assert spin_conditions_hold(_POINCARE, SpinAssignment((1, 1, 1))) is False
    # and every public caller reaches the full check through it
    for f in (classify, delta_engine, seifert_to_plumbing):
        with pytest.raises(NoSpinForm):
            f(twin, forged)


def test_a_stamped_labelling_handed_another_space_takes_the_full_check():
    spaces = [s for s in _catalog_spaces() if len(s) == 3][::7]
    checked = 0
    for s1, s2 in itertools.product(spaces, repeat=2):
        if s1 is s2:
            continue
        for c in spin_enumerate(s1):
            assert spin_conditions_hold(s2, c) is spin_conditions_hold(s2, _unstamped(c))
            checked += 1
    assert checked > 1_000
    # one that fails there, through the callers
    other = SeifertData([(2, 1), (2, 1), (3, 1)])
    (c,) = spin_enumerate(_POINCARE)
    assert spin_conditions_hold(other, c) is False
    for f in (classify, delta_engine, seifert_to_plumbing):
        with pytest.raises(NoSpinForm):
            f(other, c)


# --- shared verdicts and the mirrored shape -----------------------------------


def _fresh_verdict(z, delta_total):
    """The kernel's trichotomy, every verdict built fresh: the oracle."""
    total = z.sign + delta_total
    if total % 16 != 0:
        return TenEighthsVerdict(VerdictStatus.EXCLUDED, None, False)
    ind = -total // 8
    if 1 - z.b_minus <= ind <= z.b_plus - 1:
        return TenEighthsVerdict(VerdictStatus.RANGE_ADMISSIBLE, ind, True)
    if ind == 0:
        return TenEighthsVerdict(VerdictStatus.FORCED_EQUAL, 0, True)
    return TenEighthsVerdict(VerdictStatus.EXCLUDED, ind, True)


def _shapes(b_max):
    for bp, bm in itertools.product(range(b_max + 1), repeat=2):
        yield FourManifoldShape(bp, bm, bp - bm)


def test_shared_verdicts_equal_fresh_ones_over_a_grid():
    statuses = set()
    for z in _shapes(10):
        for d in range(-48, 49):
            v = ten_eighths_verdict(z, d)
            fresh = _fresh_verdict(z, d)
            assert type(v) is TenEighthsVerdict
            assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
            statuses.add((v.status, v.residue_ok))
            mirrored = FourManifoldShape(z.b_minus, z.b_plus, -z.sign)
            assert spin_filling_feasible(z, d) == _fresh_verdict(mirrored, d)
    assert len(statuses) == 4  # both Excluded kinds, ForcedEqual, RangeAdmissible


def test_fixed_verdicts_are_shared_and_frozen():
    forced = ten_eighths_verdict(FourManifoldShape(0, 0, 0), 0)
    assert forced is ten_eighths_verdict(FourManifoldShape(0, 8, -8), 8)
    off = ten_eighths_verdict(FourManifoldShape(0, 0, 0), 5)
    assert off is ten_eighths_verdict(FourManifoldShape(3, 1, 2), 1)
    for v in (forced, off):
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.ind = 2


def test_mirror_equals_a_validated_shape():
    for z in _shapes(12):
        m = z.mirror()
        validated = FourManifoldShape(z.b_minus, z.b_plus, -z.sign)  # runs __post_init__
        assert type(m) is FourManifoldShape
        assert m == validated and hash(m) == hash(validated) and repr(m) == repr(validated)
        assert m.mirror() == z
        assert pickle.loads(pickle.dumps(m)) == m and copy.copy(m) == m
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.sign = 0


# --- plumbing_delta on an empty support ---------------------------------------


def test_empty_support_on_a_tree_with_an_odd_weight_is_refused():
    # the shortcut comes after the Wu check, which the zero vector fails here
    with pytest.raises(ValueError, match="is not a Wu vector"):
        plumbing_delta(star_graph(-2, [[-1]]), WuVector())
