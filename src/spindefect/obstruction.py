"""Consistency verdicts from the 10/8 inequality for spin (V) 4-manifolds.

Capping a spherical space form (S, c) with its cone yields a spin V
4-manifold Z with ind D(Z) = -(sign Z + delta(S, c))/8.  The 10/8 bound (in
Furuta's V form, with b_1 = 0 arranged by surgery) then says

    ind D(Z) = 0   or   1 - b_minus(Z) <= ind D(Z) <= b_plus(Z) - 1,

and sign Z + delta must vanish mod 16 (the Rochlin residue) for Z to exist
at all.  ``ten_eighths_verdict`` is the single kernel implementing this
trichotomy; everything else in the module -- spin-filling feasibility,
definite-signature forcing, homology-cobordism order certificates, RP^2
normal-Euler-number constraints, characteristic-sphere bounds -- is a thin
adapter assembling the right shape and defect and delegating to it.
Definite forcing reads its answer off a closed form in |delta| and has the
kernel confirm the one counterexample shape it reports.

Verdicts state consistency only: Excluded is a proof of non-existence, while
ForcedEqual/RangeAdmissible never claim a filling exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from . import catalog
from .errors import InternalDisagreement
from .seifert import LensSpace

__all__ = [
    "VerdictStatus",
    "FourManifoldShape",
    "TenEighthsVerdict",
    "ten_eighths_verdict",
    "spin_filling_feasible",
    "DefiniteForcing",
    "definite_filling_signature",
    "CobordismCertificate",
    "cobordism_order_certificate",
    "RP2Verdict",
    "rp2_embedding_check",
    "characteristic_sphere_check",
    "verdict_report",
]


class VerdictStatus(str, Enum):
    FORCED_EQUAL = "ForcedEqual"
    RANGE_ADMISSIBLE = "RangeAdmissible"
    EXCLUDED = "Excluded"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class FourManifoldShape:
    """Betti data (b_plus, b_minus, sign) of a 4-manifold with b_1 = 0."""

    b_plus: int
    b_minus: int
    sign: int

    def __post_init__(self):
        if self.b_plus < 0 or self.b_minus < 0:
            raise ValueError("b_plus and b_minus must be non-negative")
        if self.sign != self.b_plus - self.b_minus:
            raise ValueError(
                f"sign {self.sign} != b_plus - b_minus = {self.b_plus - self.b_minus}"
            )

    def mirror(self) -> "FourManifoldShape":
        """The shape of the reversed orientation: b_plus and b_minus swap
        and sign negates.

        Built without ``__post_init__``: the swap keeps both Betti numbers
        non-negative and -sign = b_minus - b_plus, so the mirror of a valid
        shape is valid, and re-checking it could only pass.
        """
        m = object.__new__(FourManifoldShape)
        m.__dict__.update(b_plus=self.b_minus, b_minus=self.b_plus, sign=-self.sign)
        return m


@dataclass(frozen=True)
class TenEighthsVerdict:
    status: VerdictStatus
    ind: int | None
    residue_ok: bool

    @property
    def excluded(self) -> bool:
        return self.status is VerdictStatus.EXCLUDED


# the two verdicts that carry no index of their own; a verdict is frozen, so
# every call that reaches one of them can share it
_OFF_RESIDUE = TenEighthsVerdict(VerdictStatus.EXCLUDED, None, False)
_FORCED_EQUAL = TenEighthsVerdict(VerdictStatus.FORCED_EQUAL, 0, True)


def ten_eighths_verdict(z: FourManifoldShape, delta_total: int) -> TenEighthsVerdict:
    """Trichotomy for a closed spin V 4-manifold of the given shape.

    Requires sign + delta_total = 0 (mod 16), else Excluded outright.  With
    ind = -(sign + delta_total)/8 (always even): RangeAdmissible when
    1 - b_minus <= ind <= b_plus - 1; ForcedEqual when ind = 0 is consistent
    but the range branch is not (small b_plus/b_minus force the index to
    vanish); otherwise Excluded.

    The off-residue Excluded and ForcedEqual verdicts are fixed values, so
    each is one shared frozen instance, equal to a fresh one; the caller
    gets the same object every time.
    """
    total = z.sign + delta_total
    if total % 16 != 0:
        return _OFF_RESIDUE
    ind = -total // 8
    in_range = 1 - z.b_minus <= ind <= z.b_plus - 1
    if in_range:
        return TenEighthsVerdict(VerdictStatus.RANGE_ADMISSIBLE, ind, True)
    if ind == 0:
        return _FORCED_EQUAL
    return TenEighthsVerdict(VerdictStatus.EXCLUDED, ind, True)


def spin_filling_feasible(y: FourManifoldShape, delta_s: int) -> TenEighthsVerdict:
    """Can a spin 4-manifold of shape y fill (S, c) with defect delta_s?

    Capping the reversed filling with the cone on (S, c) gives a closed
    spin V manifold of shape (y.b_minus, y.b_plus, -y.sign) and total defect
    delta_s; the verdict is the kernel's on that assembly.  ForcedEqual is
    the sign(Y) = delta case.
    """
    return ten_eighths_verdict(y.mirror(), delta_s)


@dataclass(frozen=True)
class DefiniteForcing:
    """Definite-filling forcing for one defect value."""

    delta: int
    forced: bool  # every definite spin filling must have sign = delta
    counterexample: FourManifoldShape | None  # surviving shape with sign != delta

    @property
    def summary(self) -> str:
        if self.forced:
            return f"any definite spin filling must have sign = {self.delta}"
        return "unconstrained by the definite-filling criterion"


def definite_filling_signature(delta_s: int) -> DefiniteForcing:
    """Definite spin fillings must carry sign = delta when |delta| <= 18.

    Closed form: a definite shape with sign != delta escapes exclusion
    exactly when its sign has the sign of delta and its second Betti number
    b satisfies b = |delta| (mod 16) and (|delta| + 8)/9 <= b <= |delta| - 16.
    So only the least b = |delta| (mod 16) with (|delta| + 8)/9 <= b needs
    testing: the forcing holds exactly when b > |delta| - 16, that is when
    |delta| <= 18.  Otherwise the definite shape of Betti number b with the
    sign of delta is the survivor of least b; it is reported, at any
    |delta|, and confirmed by the 10/8 kernel.
    """
    d = abs(delta_s)
    lo = -(-(d + 8) // 9)  # ceil((|delta| + 8) / 9)
    b = lo + (d - lo) % 16
    forced = b > d - 16
    counterexample = None
    if not forced:
        shape = FourManifoldShape(b, 0, b)
        counterexample = shape if delta_s > 0 else shape.mirror()
        if spin_filling_feasible(counterexample, delta_s).excluded:
            raise InternalDisagreement(
                f"closed-form survivor {counterexample} is excluded by the "
                f"10/8 kernel at delta = {delta_s}"
            )
    return DefiniteForcing(delta_s, forced, counterexample)


@dataclass(frozen=True)
class CobordismCertificate:
    delta: int
    infinite_order: bool
    z2_homology_sphere: bool


def cobordism_order_certificate(s, c=None) -> CobordismCertificate:
    """Nonzero defect certifies infinite order in homology cobordism.

    A nonzero delta rules out rationally acyclic spin fillings of any
    multiple, so a Z_2 homology sphere with delta != 0 has infinite order in
    the Z_2-homology cobordism group.  The certificate records delta and
    whether the order-1 first homology condition actually holds (the
    infinite-order conclusion needs it).  s and c are ``catalog.delta``'s:
    a lens space takes no labels.
    """
    value = catalog.delta(s, c)
    if isinstance(s, LensSpace):
        odd = s.p % 2 == 1
    else:
        odd = s._euler % 2 == 1  # |H_1| = |numerator|
    return CobordismCertificate(value, value != 0, odd)


@dataclass(frozen=True)
class RP2Verdict:
    """Normal-Euler-number constraints for a characteristic embedded RP^2."""

    admissible_eps: frozenset[int]
    forced_e: frozenset[int] | None  # complete e-list when both b_+- < 3
    verdicts: Mapping[int, TenEighthsVerdict]

    @property
    def admissible(self) -> bool:
        return bool(self.admissible_eps)


def rp2_embedding_check(x: FourManifoldShape, e: int) -> RP2Verdict:
    """Constraints on the normal Euler number e of a characteristic RP^2.

    The twisted cap construction turns the embedding into a spin V manifold
    whose defect is -(e + 2*eps) for a sign eps = +-1, so each eps funnels
    through the 10/8 kernel on x itself: the residue demands
    sign - e = 2*eps (mod 16), and then either e + 2*eps = sign or the
    index range must hold.  When b_plus < 3 and b_minus < 3 only
    e = sign -+ 2 can ever survive, reported as ``forced_e``.

    The caller is responsible for x having H_1 = 0 and the RP^2 being
    characteristic; the verdict is vacuous otherwise.
    """
    verdicts = {eps: ten_eighths_verdict(x, -(e + 2 * eps)) for eps in (1, -1)}
    admissible = frozenset(eps for eps, v in verdicts.items() if not v.excluded)
    forced = None
    if x.b_plus < 3 and x.b_minus < 3:
        forced = frozenset((x.sign - 2, x.sign + 2))
    return RP2Verdict(admissible, forced, verdicts)


def characteristic_sphere_check(x: FourManifoldShape, n: int) -> TenEighthsVerdict:
    """Can a characteristic class of square n > 0 be a sphere in shape x?

    Excising the sphere's neighborhood leaves a filling of the lens space
    L(n, -1), whose defect with the induced structure is -(n - 1); capping
    with the cone gives shape (b_plus - 1, b_minus, sign - 1) and the kernel
    decides.  For n <= 0 reverse the orientation first (not done here).
    """
    return ten_eighths_verdict(*_sphere_assembly(x, n))


def _sphere_assembly(x: FourManifoldShape, n: int) -> tuple[FourManifoldShape, int]:
    """The closed shape and the defect that ``characteristic_sphere_check``
    hands the kernel, after the same checks of n and x."""
    if n <= 0:
        raise ValueError("need n > 0; reverse the ambient orientation first")
    if x.b_plus < 1:
        raise ValueError("a class of positive square needs b_plus >= 1")
    return FourManifoldShape(x.b_plus - 1, x.b_minus, x.sign - 1), -(n - 1)


_CITATIONS = (
    "Furuta 10/8 inequality, V-manifold version",
    "Rochlin signature residue mod 16",
)


def _shape_json(x: FourManifoldShape, **extra) -> dict:
    """A shape as JSON, {"b_plus", "b_minus", "sign"}, with any further keys."""
    return {"b_plus": x.b_plus, "b_minus": x.b_minus, "sign": x.sign, **extra}


def verdict_report(
    verdict: TenEighthsVerdict,
    *,
    input: Mapping,
    assembled_shape: FourManifoldShape,
    delta: int,
) -> dict:
    """Uniform report structure shared by the CLI's verdict commands."""
    return {
        "input": dict(input),
        "assembled_shape": _shape_json(assembled_shape),
        "delta": delta,
        "ind": verdict.ind,
        "status": str(verdict.status),
        "residue_ok": verdict.residue_ok,
        "citations": list(_CITATIONS),
    }
