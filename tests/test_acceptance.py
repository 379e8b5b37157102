"""End-to-end acceptance checks: one printed pass/fail line per criterion.

The printed lines bypass pytest capture so a `pytest -v` run shows the
ledger even when everything passes.  Each criterion also enforces its own
runtime budget.
"""

import random
import sys
import time
from contextlib import contextmanager

from spindefect.catalog import (
    DeltaCaseId,
    FAMILY_I,
    FAMILY_O,
    FAMILY_T,
    delta,
    delta_table,
    instantiate_case,
    iter_cases,
)
from spindefect.obstruction import (
    FourManifoldShape,
    definite_filling_signature,
    rp2_embedding_check,
)
from spindefect.plumbing import (
    WuVector,
    intersection_matrix,
    plumbing_delta,
    seifert_to_plumbing,
    signature,
    star_graph,
)
from spindefect.seifert import delta_engine, reverse_orientation
from spindefect.sigma import (
    even_cf_expand,
    is_spin_sign_admissible,
    sgn,
    sigma,
    sigma_trig,
)

from conftest import coprime_pairs


@contextmanager
def criterion(n, label, capfd, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: {label} ... FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    with capfd.disabled():
        print(f"ACCEPTANCE {n}: {label} ... PASS ({dt:.2f}s)", flush=True)
    if budget is not None:
        assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"


_GRID = None


def regression_grid():
    global _GRID
    if _GRID is None:
        _GRID = list(iter_cases(k_span=5, n_max=12, b_max=12))
    return _GRID


def test_criterion_1_sigma_three_way(capfd):
    with criterion(1, "sigma three-way agreement, p <= 60, both eps", capfd,
                   budget=10.0):
        checked = 0
        for p, q0 in coprime_pairs(60):
            for q in (q0, -q0):
                for eps in (1, -1):
                    # agreement is claimed on the sign choices that label
                    # spin structures; the other choices have no defect
                    # reading (and usually a non-integral trig sum)
                    if not is_spin_sign_admissible(q, p, eps):
                        continue
                    exact = sigma(q, p, eps)
                    tr = sigma_trig(q, p, eps, tol=1e-6)
                    assert tr.rounded == exact
                    assert abs(tr.value - exact) < 1e-6
                    if (p + q) % 2 == 1 and eps == -1:
                        cf = even_cf_expand(p, q)
                        assert exact == -sum(sgn(a) for a in cf)
                    checked += 1
        assert checked > 2900


def test_criterion_2_reciprocity_and_parity(capfd):
    with criterion(2, "reciprocity and parity corollary, exact", capfd):
        for p, q0 in coprime_pairs(60):
            for q in (q0, -q0):
                if (p + q) % 2 == 1:
                    assert sigma(p, q, -1) + sigma(q, p, -1) == -sgn(p * q)
                    odd, even_ = (p, q) if p % 2 == 1 else (q, p)
                    # first slot odd, second even: both signs, odd value
                    assert sigma(odd, even_, 1) % 2 == 1
                    assert sigma(odd, even_, -1) % 2 == 1
                    # swapped slots only admit eps = -1, even value
                    assert sigma(even_, odd, -1) % 2 == 0


def test_criterion_3_table_vs_engine(capfd):
    with criterion(3, "table = splitting engine, |k| <= 5, n <= 12", capfd,
                   budget=30.0):
        grid = regression_grid()
        assert len(grid) > 400
        for case in grid:
            s, c = instantiate_case(case)
            assert delta_table(case) == delta_engine(s, c), case
        spot = {
            ("3-1", 0): -2, ("3-3", 0): -6, ("4-13", 0): -7,
            ("5-5", 0): -8, ("5-9", 0): 2, ("4-16", -1): -1,
        }
        fam = {"3": FAMILY_T, "4": FAMILY_O, "5": FAMILY_I}
        for (row, k), want in spot.items():
            case = DeltaCaseId(fam[row[0]], row, {"k": k})
            assert delta_table(case) == want, row


def test_criterion_4_antisymmetry(capfd):
    with criterion(4, "delta(-S,-c) = -delta(S,c) over the regression set", capfd):
        for case in regression_grid():
            s, c = instantiate_case(case)
            d = delta(s, c)
            assert delta(*reverse_orientation(s, c)) == -d, case


def test_criterion_5_plumbing_resolutions(capfd):
    with criterion(5, "spin definite resolutions, sign = delta; E8 fixture", capfd,
                   budget=5.0):
        rows = [
            (FAMILY_T, "3-3", -6),
            (FAMILY_O, "4-5", -5),
            (FAMILY_O, "4-13", -7),
            (FAMILY_I, "5-5", -8),
        ]
        for fam, row, want in rows:
            for k in (0, 1, 2):
                for reversed_ in (False, True):
                    # reversed instances stand in for the k < 0 side, which
                    # these rows only reach through the opposite orientation
                    case = DeltaCaseId(fam, row, {"k": k},
                                       orientation_reversed=reversed_)
                    s, c = instantiate_case(case)
                    g, w = seifert_to_plumbing(s, c)
                    assert w == WuVector(), case
                    plus, minus, zero = signature(intersection_matrix(g))
                    assert zero == 0 and (plus == 0 or minus == 0), case
                    d = -want if reversed_ else want
                    assert plus - minus == d == delta(s, c), case
                    assert plumbing_delta(g, w) == d
        e8 = star_graph(-2, [(-2,), (-2, -2), (-2, -2, -2, -2)])
        assert len(e8) == 8
        assert signature(intersection_matrix(e8)) == (0, 8, 0)


def test_criterion_6_delta_column_fixtures(capfd):
    fixtures = [
        (FAMILY_T, "3-5", {"k": 0}, -4),
        (FAMILY_O, "4-2", {"k": 0}, -5),
        (FAMILY_O, "4-8", {"k": -1}, -3),
        (FAMILY_O, "4-10", {"k": 0}, -3),
        (FAMILY_I, "5-1-ε", {"k": 0, "eps": 1}, -4),
        (FAMILY_I, "5-7", {"k": 0}, -6),
        (FAMILY_T, "3-6", {"k": -1}, 2),
        (FAMILY_O, "4-4", {"k": -1}, 3),
        (FAMILY_O, "4-11", {"k": -1}, -1),
        (FAMILY_O, "4-12", {"k": -1}, 1),
        (FAMILY_O, "4-14", {"k": 0}, -1),
        (FAMILY_I, "5-2-ε", {"k": -1, "eps": 1}, 2),
        (FAMILY_I, "5-8", {"k": -1}, 4),
        (FAMILY_I, "5-11-ε", {"k": 0, "eps": -1}, -2),
    ]
    with criterion(6, "delta column fixtures (14 rows), exact", capfd):
        for fam, row, params, want in fixtures:
            s, c = instantiate_case(DeltaCaseId(fam, row, params))
            assert delta(s, c) == want, (row, params)


def test_criterion_7_definite_forcing(capfd):
    with criterion(7, "definite forcing |delta| <= 18, survivor at 26", capfd,
                   budget=10.0):
        for d in range(-18, 19):
            res = definite_filling_signature(d)
            assert res.forced and res.counterexample is None, d
        for d, survivor in ((26, FourManifoldShape(10, 0, 10)),
                            (-26, FourManifoldShape(0, 10, -10))):
            res = definite_filling_signature(d)
            assert not res.forced
            assert res.counterexample == survivor
            assert res.counterexample.sign != d


def test_criterion_8_rp2_constraints(capfd):
    with criterion(8, "RP^2 Euler numbers: S^4 set, residue, mirror", capfd):
        s4 = FourManifoldShape(0, 0, 0)
        admitted = {e for e in range(-60, 61)
                    if rp2_embedding_check(s4, e).admissible}
        assert admitted == {-2, 2}

        rng = random.Random(0xD1AC)
        for _ in range(500):
            bp, bm = rng.randrange(0, 9), rng.randrange(0, 9)
            x = FourManifoldShape(bp, bm, bp - bm)
            e = rng.randrange(-40, 41)
            res = rp2_embedding_check(x, e)
            for eps in (1, -1):
                if (x.sign - e - 2 * eps) % 16 != 0:
                    assert res.verdicts[eps].excluded, (x, e, eps)
            mirrored = rp2_embedding_check(x.mirror(), -e)
            assert res.admissible_eps == {-v for v in mirrored.admissible_eps}
            for eps in (1, -1):
                assert (res.verdicts[eps].status
                        == mirrored.verdicts[-eps].status)


def test_criterion_9_route_agreement(capfd):
    with criterion(9, "plumbing route = catalog/engine route on |k| <= 3", capfd,
                   budget=60.0):
        count = 0
        for case in iter_cases(k_span=3, n_max=8, b_max=8):
            s, c = instantiate_case(case)
            g, w = seifert_to_plumbing(s, c)
            assert plumbing_delta(g, w) == delta(s, c), case
            count += 1
        assert count > 250
