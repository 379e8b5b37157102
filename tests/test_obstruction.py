import math

import pytest

from spindefect.catalog import DeltaCaseId, FAMILY_I, FAMILY_T, instantiate_case, iter_cases
from spindefect.errors import InternalDisagreement
from spindefect.obstruction import (
    DefiniteForcing,
    FourManifoldShape,
    VerdictStatus,
    characteristic_sphere_check,
    cobordism_order_certificate,
    definite_filling_signature,
    rp2_embedding_check,
    spin_filling_feasible,
    ten_eighths_verdict,
    verdict_report,
)
from spindefect.seifert import LensSpace, SeifertData, euler_number, spin_enumerate


def random_shape(rng, b_max=24):
    bp = rng.randrange(0, b_max + 1)
    bm = rng.randrange(0, b_max + 1)
    return FourManifoldShape(bp, bm, bp - bm)


def test_shape_validation():
    FourManifoldShape(2, 3, -1)
    with pytest.raises(ValueError):
        FourManifoldShape(-1, 0, -1)
    with pytest.raises(ValueError):
        FourManifoldShape(2, 3, 0)  # sign must equal b_plus - b_minus
    assert FourManifoldShape(2, 3, -1).mirror() == FourManifoldShape(3, 2, 1)


def test_verdict_trichotomy():
    v = ten_eighths_verdict(FourManifoldShape(0, 0, 0), 0)
    assert v.status is VerdictStatus.FORCED_EQUAL and v.ind == 0 and v.residue_ok

    # residue failure
    v = ten_eighths_verdict(FourManifoldShape(0, 0, 0), 5)
    assert v.excluded and not v.residue_ok and v.ind is None

    # b+- <= 2 forces ind = 0: any even nonzero index is out of range
    v = ten_eighths_verdict(FourManifoldShape(2, 2, 0), 16)
    assert v.excluded and v.residue_ok and v.ind == -2

    # sign = -8, delta = 8: consistent only through ind = 0
    v = ten_eighths_verdict(FourManifoldShape(0, 8, -8), 8)
    assert v.status is VerdictStatus.FORCED_EQUAL and v.ind == 0

    # roomy shape: the same total sits inside the index window
    v = ten_eighths_verdict(FourManifoldShape(4, 4, 0), 16)
    assert v.status is VerdictStatus.RANGE_ADMISSIBLE and v.ind == -2


def test_verdicts_only_pass_on_zero_residue(rng):
    for _ in range(300):
        z = random_shape(rng)
        d = rng.randrange(-40, 41)
        v = ten_eighths_verdict(z, d)
        if not v.excluded:
            assert (z.sign + d) % 16 == 0
            assert v.residue_ok


def test_feasible_worked_examples():
    assert spin_filling_feasible(FourManifoldShape(0, 8, -8), -8).status \
        is VerdictStatus.FORCED_EQUAL
    assert spin_filling_feasible(FourManifoldShape(0, 24, -24), -8).excluded
    assert not spin_filling_feasible(FourManifoldShape(0, 0, 0), 0).excluded


def test_feasible_matches_the_literal_inequalities(rng):
    # independent oracle: residue plus the two printed linear inequalities,
    # with the sign(Y) = delta escape hatch
    for _ in range(1000):
        y = random_shape(rng)
        d = rng.randrange(-64, 65)
        verdict = spin_filling_feasible(y, d)
        residue = (y.sign - d) % 16 == 0
        window = (y.b_plus - 9 * y.b_minus <= d - 8
                  and 9 * y.b_plus - y.b_minus >= d + 8)
        feasible = residue and (y.sign == d or window)
        assert (not verdict.excluded) == feasible, (y, d)
        if verdict.status is VerdictStatus.FORCED_EQUAL:
            assert y.sign == d


def definite_scan(delta_s, bound):
    """The definite-forcing oracle: push every definite shape with second
    Betti number up to ``bound`` through the 10/8 kernel.

    A non-Excluded shape with sign != delta inside |delta| <= 18 raises
    InternalDisagreement; outside that regime the first survivor is the
    counterexample, or None when no survivor has b <= bound.
    """
    forced = abs(delta_s) <= 18
    counterexample = None
    for b in range(bound + 1):
        for shape in (
            FourManifoldShape(b, 0, b),
            FourManifoldShape(0, b, -b),
        ):
            if shape.sign == delta_s:
                continue
            if not spin_filling_feasible(shape, delta_s).excluded:
                if forced:
                    raise InternalDisagreement(
                        f"definite shape {shape} survives the 10/8 scan "
                        f"at delta = {delta_s} inside the forcing range"
                    )
                if counterexample is None:
                    counterexample = shape
            if b == 0:
                break  # (0,0,0) only once
    return DefiniteForcing(delta_s, forced, counterexample)


def test_definite_forcing_range():
    for d in (-18, -8, -5, 0, 5, 18):
        res = definite_filling_signature(d)
        assert res.forced and res.counterexample is None
        assert "sign" in res.summary
    res = definite_filling_signature(20)
    assert not res.forced
    assert res.counterexample is not None
    assert res.counterexample.sign != 20


def test_definite_scan_is_verified_not_quoted():
    # a defect far outside the window has an explicit survivor
    res = definite_filling_signature(26)
    assert res.counterexample == FourManifoldShape(10, 0, 10)


def test_closed_form_forcing_matches_the_scan():
    # every survivor with |delta| <= 400 has b <= 60, inside the scan
    for d in range(-400, 401):
        assert definite_filling_signature(d) == definite_scan(d, 64), d


def test_closed_form_forcing_reports_a_survivor_at_any_delta():
    # the least survivor at -1000 has b = 120, past any small scan
    res = definite_filling_signature(-1000)
    assert res.counterexample == FourManifoldShape(0, 120, -120)
    assert res == definite_scan(-1000, 120)
    # and at 10**30, where no scan reaches, the closed form still answers
    big = 10**30
    res = definite_filling_signature(big)
    assert not res.forced and res.counterexample.b_minus == 0
    b = res.counterexample.b_plus
    assert b % 16 == big % 16 and 9 * (b - 16) < big + 8 <= 9 * b
    assert not spin_filling_feasible(res.counterexample, big).excluded


def test_cobordism_certificates():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    (c,) = spin_enumerate(s)
    cert = cobordism_order_certificate(s, c)
    assert cert.delta == -8 and cert.infinite_order and cert.z2_homology_sphere

    # row (3-2) instance has defect 0: no conclusion
    s0, c0 = instantiate_case(DeltaCaseId(FAMILY_T, "3-2", {"k": -1}))
    cert = cobordism_order_certificate(s0, c0)
    assert cert.delta == 0 and not cert.infinite_order

    s0, c0 = instantiate_case(DeltaCaseId(FAMILY_I, "5-3", {"k": 0}))
    assert not cobordism_order_certificate(s0, c0).infinite_order

    # |H1| even: the order statement does not apply even though delta != 0
    s4 = SeifertData([(2, 1), (2, 1), (4, 1)])
    c4 = spin_enumerate(s4)[0]
    cert = cobordism_order_certificate(s4, c4)
    assert not cert.z2_homology_sphere

    cert = cobordism_order_certificate(LensSpace(7, 3, 1))
    assert cert.z2_homology_sphere and cert.infinite_order


def test_rp2_worked_examples():
    s4 = FourManifoldShape(0, 0, 0)
    res = rp2_embedding_check(s4, 2)
    assert res.admissible_eps == {-1}
    assert res.verdicts[-1].status is VerdictStatus.FORCED_EQUAL
    assert res.forced_e == {-2, 2}

    assert not rp2_embedding_check(s4, 10).admissible

    cp2 = FourManifoldShape(1, 0, 1)
    assert rp2_embedding_check(cp2, -1).admissible
    assert rp2_embedding_check(cp2, 3).admissible
    for e in range(-30, 31):
        expected = e in (-1, 3)
        assert rp2_embedding_check(cp2, e).admissible == expected, e


def test_rp2_matches_the_literal_inequalities(rng):
    for _ in range(500):
        x = random_shape(rng, b_max=8)
        e = rng.randrange(-40, 41)
        res = rp2_embedding_check(x, e)
        for eps in (1, -1):
            residue = (x.sign - e - 2 * eps) % 16 == 0
            window = (8 * (1 - x.b_minus) + x.sign <= e + 2 * eps
                      <= 8 * (x.b_plus - 1) + x.sign)
            ok = residue and (e + 2 * eps == x.sign or window)
            assert (eps in res.admissible_eps) == ok, (x, e, eps)


def test_rp2_mirror_symmetry(rng):
    for _ in range(500):
        x = random_shape(rng)
        e = rng.randrange(-40, 41)
        res = rp2_embedding_check(x, e)
        mirrored = rp2_embedding_check(x.mirror(), -e)
        assert res.admissible_eps == {-eps for eps in mirrored.admissible_eps}
        for eps in (1, -1):
            assert res.verdicts[eps].status == mirrored.verdicts[-eps].status


def test_char_sphere_worked_examples():
    v = characteristic_sphere_check(FourManifoldShape(1, 0, 1), 1)
    assert v.status is VerdictStatus.FORCED_EQUAL and v.ind == 0

    v = characteristic_sphere_check(FourManifoldShape(2, 0, 2), 18)
    assert v.excluded

    for k in range(1, 6):
        v = characteristic_sphere_check(FourManifoldShape(k, 0, k), k)
        assert not v.excluded, k

    with pytest.raises(ValueError):
        characteristic_sphere_check(FourManifoldShape(1, 0, 1), 0)
    with pytest.raises(ValueError):
        characteristic_sphere_check(FourManifoldShape(0, 1, -1), 2)


def test_verdict_report_structure():
    y = FourManifoldShape(0, 8, -8)
    verdict = spin_filling_feasible(y, -8)
    report = verdict_report(
        verdict,
        input={"b_plus": 0, "b_minus": 8, "sign": -8, "delta": -8},
        assembled_shape=y.mirror(),
        delta=-8,
    )
    assert set(report) == {
        "input", "assembled_shape", "delta", "ind", "status",
        "residue_ok", "citations",
    }
    assert report["status"] == "ForcedEqual"
    assert report["assembled_shape"] == {"b_plus": 8, "b_minus": 0, "sign": 8}
    assert report["citations"]


def test_forcing_window_is_scan_clean():
    # the scan raises InternalDisagreement on a survivor inside |delta| <= 18,
    # so the closed form's forcing window is checked, not quoted
    for d in range(-18, 19):
        res = definite_scan(d, 32)
        assert res.forced and res.counterexample is None
        assert definite_filling_signature(d) == res
    # and the guard machinery is wired to the exception type we document
    assert issubclass(InternalDisagreement, Exception)
    assert not issubclass(InternalDisagreement, ValueError)


def test_z2_homology_sphere_flag_is_the_parity_of_h1():
    # |H_1| = |a_1 a_2 a_3 e|, computed here from the Fraction Euler number
    for case in iter_cases(k_span=3, n_max=12, b_max=12):
        s, c = instantiate_case(case)
        h1 = abs(euler_number(s) * math.prod(a for a, _ in s))
        assert h1.denominator == 1
        cert = cobordism_order_certificate(s, c)
        assert cert.z2_homology_sphere == (h1.numerator % 2 == 1), case
