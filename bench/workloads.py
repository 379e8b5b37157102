"""The workloads: seeded inputs, the calls one item makes, output checks.

Every workload is a closed loop on one thread: the runner starts the next
item only when the previous one has returned.  Inputs come in rounds, and
every round holds the same kinds of item (family and size) in the same
order; only the values inside each slot depend on the seed.  Each round is
drawn afresh from its own generator, seeded by (workload, seed, round
index), so no input is timed twice in a run and a cache keyed on inputs
gains nothing.  The runner stops at a round boundary and times each slot
by its best repetition, so each run measures the same mix whatever the seed.

A workload has ``rounds(sd, seed)`` (an endless iterator of rounds; the
set-up draws the first), ``run(api, item)`` (the timed calls, made through
the functions ``spans.bind`` hands out) and ``checker(sd)``, whose result is
called on each (item, output) outside the timed span, with the package's
bare functions, and returns None or a message.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import random
import sys
from collections import defaultdict
from typing import NamedTuple


class Workload:
    name: str

    def checker(self, sd):
        """The output check, bound to the package's bare functions."""
        return functools.partial(self.check, sd)

    @staticmethod
    def is_growth_item(item) -> bool:
        """Whether the item's ``sigma`` call enters ``sigma.sigma.growth_exp``."""
        return False

    def round_rngs(self, seed):
        """One generator per round, each seeded by (workload, seed, round index)."""
        for index in itertools.count():
            yield random.Random(f"{self.name}/{seed}/{index}")


def _coprime_q(rng, p: int, span: int) -> int:
    while True:
        q = rng.randrange(-span, span)
        if q != 0 and math.gcd(p, q) == 1:
            return q


def _max_partial_quotient(p: int, q: int) -> int:
    """Largest partial quotient of the regular continued fraction of p/q, 0 < q < p."""
    largest = 0
    while q:
        a, r = divmod(p, q)
        largest = max(largest, a)
        p, q = q, r
    return largest


def _spin_eps(rng, q: int, p: int) -> int:
    # p odd: only eps = (-1)**(q-1) labels a spin structure on L(p, q)
    if p % 2 == 0:
        return rng.choice((1, -1))
    return 1 if q % 2 else -1


# ---------------------------------------------------------------------------
# small-spaces: the catalog and the splitting engine


class SpaceItem(NamedTuple):
    space: object
    spin: object  # the structure the row value below belongs to
    row_value: int


class SmallSpaces(Workload):
    name = "small-spaces"
    k_max = 300  # |k| of the T/O/I rows
    n_max = 12  # D rows over (n, b) up to this
    shift_max = 3

    def rounds(self, sd, seed):
        const_rows = {}
        d_rows = defaultdict(list)
        for case in sd.iter_cases(k_span=1, n_max=self.n_max, b_max=self.n_max):
            if case.family == sd.FAMILY_D:
                d_rows[case.row].append(case)
            else:
                const_rows.setdefault((case.row, case.params.get("eps")), case)
        for rng in self.round_rngs(seed):
            items = []
            for case in const_rows.values():
                k = rng.randint(0, self.k_max) if case.params["k"] >= 0 else -rng.randint(1, self.k_max)
                params = dict(case.params, k=k)
                items.append(self._present(sd, rng, sd.DeltaCaseId(case.family, case.row, params)))
            for cases in d_rows.values():
                items.append(self._present(sd, rng, rng.choice(cases)))
            yield items

    def _present(self, sd, rng, case):
        s, c = sd.instantiate_case(case)
        value = sd.delta_table(case)
        if rng.random() < 0.5:
            s, c = sd.reverse_orientation(s, c)
            value = -value
        s, c = sd.permute_fibers(s, c, rng.sample(range(3), 3))
        k1 = rng.randint(-self.shift_max, self.shift_max)
        k2 = rng.randint(-self.shift_max, self.shift_max)
        s, c = sd.shift_move(s, c, (k1, k2, -(k1 + k2)))
        return SpaceItem(s, c, value)

    def run(self, api, item):
        s = item.space
        out = []
        for c in api.spin_enumerate(s):
            case = api.classify(s, c)
            table = api.delta_table(case)
            if case.orientation_reversed:
                table = -table
            engine = api.delta_engine(s, c)
            g, w = api.seifert_to_plumbing(s, c)
            plumb = api.plumbing_delta(g, w)
            verdict = api.spin_filling_feasible(_definite_shape(api.FourManifoldShape, table), table)
            out.append((c, table, engine, plumb, verdict.status))
        return out

    def check(self, sd, item, out):
        seen = False
        for c, table, engine, plumb, status in out:
            if not table == engine == plumb:
                return f"routes disagree on {item.space.pairs} {c.cg}: {table}/{engine}/{plumb}"
            # a definite filling whose signature equals delta is the sharp case
            if status is not sd.VerdictStatus.FORCED_EQUAL:
                return f"definite filling of sign {table} got {status}"
            if c == item.spin:
                seen = True
                if table != item.row_value:
                    return f"{item.space.pairs} {c.cg}: {table} != row value {item.row_value}"
        if not seen:
            return f"{item.spin} missing from the spin structures of {item.space.pairs}"
        return None


def _definite_shape(shape, delta):
    return shape(max(delta, 0), max(-delta, 0), delta)


# ---------------------------------------------------------------------------
# long-cf: sigma on large lens spaces


class LensItem(NamedTuple):
    q: int
    p: int
    eps: int
    closed_form: int | None  # set on the run-heavy families


class LongCF(Workload):
    name = "long-cf"
    random_exponents = (1, 2, 3, 4, 5)  # p drawn from [10**e, 10**(e+1))
    random_per_exponent = 6
    big_digits = 100
    big_per_round = 4
    # run-heavy p ~ 10**x, half a decade apart from 10 to 10**5; 9 of the 43
    # items in a round, so the 90th percentile falls inside the p ~ 10**3.5
    # slot.  The sweep stops at 10**5 (about 30 ms a call) so that its
    # costliest slot still repeats hundreds of times in a run.
    heavy_exponents = tuple(1 + j / 2 for j in range(9))
    heavy_jitter = 0.02
    # A random q's even expansion is long where a partial quotient of p/q is
    # large, and those quotients are heavy-tailed (Gauss-Kuzmin): about one
    # 100-digit item in 3000 expands to ~10**6 entries, which alone sets the
    # run's peak memory.  Random items keep every quotient below this, so
    # they stay at O(log p) entries; long runs are the run-heavy slots' job.
    max_partial_quotient = 10**4

    def rounds(self, sd, seed):
        for rng in self.round_rngs(seed):
            items = []
            for e in self.random_exponents:
                for _ in range(self.random_per_exponent):
                    items.append(self._random(rng, rng.randrange(10**e, 10 ** (e + 1))))
            for _ in range(self.big_per_round):
                items.append(self._random(rng, rng.randrange(10 ** (self.big_digits - 1), 10**self.big_digits)))
            for x in self.heavy_exponents:
                p = max(2, round(10**x * (1 + self.heavy_jitter * (rng.random() - 0.5))))
                items.append(self._run_heavy(rng, p))
            yield items

    def _random(self, rng, p):
        while True:
            q = _coprime_q(rng, p, 2 * p)
            if _max_partial_quotient(p, q % p) <= self.max_partial_quotient:
                return LensItem(q, p, _spin_eps(rng, q, p), None)

    @staticmethod
    def _run_heavy(rng, p):
        # p/(p-1) expands to p-1 entries of 2; q -> -q and q -> q + 2p move
        # along the same run, and sigma(q, p, -1) = -(sum of entry signs)
        q, value = rng.choice(((p - 1, -(p - 1)), (1 - p, p - 1), (p + 1, p - 1)))
        return LensItem(q, p, -1, value)

    def run(self, api, item):
        return api.sigma(item.q, item.p, item.eps)

    @staticmethod
    def is_growth_item(item):
        return item.closed_form is not None

    def check(self, sd, item, value):
        q, p, eps, _ = item
        if item.closed_form is not None:
            if value != item.closed_form:
                return f"sigma({q},{p},{eps}) = {value}, closed form {item.closed_form}"
        else:
            # reciprocity on the shifted pair: sigma(q,p,+1) = sigma(q+p,p,-1)
            qq = q if eps == -1 else q + p
            other = sd.sigma(p, qq, -1)
            if value != -((p * qq > 0) - (p * qq < 0)) - other:
                return f"sigma({q},{p},{eps}) = {value} breaks reciprocity"
        if p <= 300 and sd.sigma_trig(q, p, eps).rounded != value:
            return f"sigma({q},{p},{eps}) = {value} disagrees with sigma_trig"
        return None


# ---------------------------------------------------------------------------
# big-plumbing: resolution graphs of 20 to 160 vertices


class GraphItem(NamedTuple):
    space: object
    spin: object  # None for lens spaces
    lens: bool


class BigPlumbing(Workload):
    name = "big-plumbing"
    # 20 .. 160 vertices, half an octave apart; the sweep stops at 160 (about
    # 0.1 s a call) so that its costliest slots repeat dozens of times in a run
    vertex_targets = tuple(round(20 * 2 ** (j / 2)) for j in range(7))
    jitter = 0.02

    def rounds(self, sd, seed):
        for rng in self.round_rngs(seed):
            items = []
            for j, target in enumerate(self.vertex_targets):
                # an even jitter keeps the parity of n, which sets the tree's shape
                n = target + 2 * round(target * self.jitter * (rng.random() - 0.5) / 2)
                # L(n+1, n): a chain of n vertices, all weights -2
                items.append(GraphItem(sd.LensSpace(n + 1, n, -1), None, True))
                # D(2,2,m) with (m, m-1): a star with a long arm, m+2 vertices.
                # Orientation and spin structure change the signature's cost
                # up to twofold, so they follow the slot, not the seed.
                sign = (1, -1)[j % 2]
                s = sd.SeifertData([(2, sign), (2, sign), (n - 2, sign * (n - 3))])
                spins = [c for c in sd.spin_enumerate(s) if c.cg[2] == 0]
                items.append(GraphItem(s, spins[j // 2 % len(spins)], False))
            yield items

    def run(self, api, item):
        if item.lens:
            g, w = api.seifert_to_plumbing(item.space)
        else:
            g, w = api.seifert_to_plumbing(item.space, item.spin)
        solutions = api.wu_solutions(g)
        return len(g), w in solutions, api.plumbing_delta(g, w)

    def check(self, sd, item, out):
        vertices, wu_found, value = out
        if not wu_found:
            return f"Wu vector of the compiled tree missing from wu_solutions ({vertices} vertices)"
        if item.lens:
            lens = item.space
            expected = sd.sigma(lens.q, lens.p, lens.eps)
        else:
            expected = sd.delta(item.space, item.spin)
        if value != expected:
            return f"plumbing_delta {value} != {expected} on {vertices} vertices"
        return None


# ---------------------------------------------------------------------------
# the command-line session of traced runs: one process per command


class CliItem(NamedTuple):
    sub: str
    argv: tuple[str, ...]
    stdin: str | None
    exit_code: int


class CliSession(Workload):
    name = "cli-session"

    def rounds(self, sd, seed):
        cases = list(sd.iter_cases(k_span=2, n_max=9, b_max=9))
        # T and I spaces are Z2 homology spheres: a nonzero delta there
        # certifies infinite cobordism order, which is exit 1
        z2_spheres = [case for case in cases
                      if case.family in (sd.FAMILY_T, sd.FAMILY_I) and sd.delta_table(case) != 0]
        for rng in self.round_rngs(seed):
            yield self._round(sd, rng, cases, z2_spheres)

    def _round(self, sd, rng, cases, z2_spheres):
        def space(pool):
            s, c = sd.instantiate_case(rng.choice(pool))
            return ",".join(f"({a},{b})" for a, b in s), ",".join(map(str, c.cg))

        def star():
            arms = [",".join(str(rng.choice((-2, -3))) for _ in range(rng.randint(1, 4)))
                    for _ in range(3)]
            return "(" + "; ".join(["-2", *arms]) + ")"

        p = rng.randrange(3, 10**4)
        q = _coprime_q(rng, p, p)
        cf_p = rng.randrange(3, 10**4)
        cf_q = rng.randrange(1, cf_p)
        while math.gcd(cf_p, cf_q) != 1 or (cf_p + cf_q) % 2 == 0:
            cf_q = rng.randrange(1, cf_p)
        lens_p = rng.randrange(2, 200, 2)
        lens = ("--lens", str(lens_p), str(_coprime_q(rng, lens_p, lens_p)), "--eps", str(rng.choice((1, -1))))
        b = rng.randint(1, 40)
        m = rng.randint(1, 3)
        sq = rng.randint(1, 3)
        graph = json.dumps(sd.graph_to_json(sd.parse_star(star())))
        items = []
        for form, verdict in (((), 0), (("--json",), 1)):
            seif, _ = space(cases)
            seif2, spin2 = space(cases)
            z2, z2_spin = space(z2_spheres)
            # S^4: only e = +-2 survives; a sphere of square sq in shape (sq, 0)
            # is forced-equal, of square sq + 16m excluded
            euler = rng.choice((-2, 2)) if verdict == 0 else rng.choice((-6, -4, 0, 4, 6))
            square = sq if verdict == 0 else sq + 16 * m
            items += [CliItem(sub, argv + form, None, code) for sub, argv, code in (
                ("sigma", ("sigma", str(q), str(p), "--eps", str(_spin_eps(rng, q, p))), 0),
                ("evencf", ("evencf", str(cf_p), str(cf_q)), 0),
                ("spin-list", ("spin-list", "--seifert", seif), 0),
                ("delta", ("delta", "--seifert", seif, "--all-spin"), 0),
                ("plumbing", ("plumbing", "--star", star()), 0),
                ("seifert-to-plumbing", ("seifert-to-plumbing", "--seifert", seif2, "--spin", spin2), 0),
                # b_plus = 0 and sign + delta = 16m: index -2m is out of range
                ("feasible", ("feasible", "--bplus", "0", "--bminus", str(b), "--delta", str(16 * m - b)), 1),
                ("definite", ("definite", "--delta", str(rng.randint(-30, 30))), 0),
                ("cobordism", ("cobordism", "--seifert", z2, "--spin", z2_spin), 1),
                ("rp2", ("rp2", "--bplus", "0", "--bminus", "0", "--euler", str(euler)), verdict),
                ("char-sphere", ("char-sphere", "--bplus", str(sq), "--bminus", "0", "--square", str(square)),
                 verdict),
                ("selftest", ("selftest",), 0),
            )]
        items += [
            CliItem("feasible", ("feasible", "--bplus", "0", "--bminus", str(b), "--delta", str(-b)), None, 0),
            CliItem("delta", ("delta", *lens), None, 0),
            # L(p, q) with p even is no Z2 homology sphere: no verdict
            CliItem("cobordism", ("cobordism", *lens), None, 0),
            CliItem("plumbing", ("plumbing", "--graph", "-"), graph, 0),
            # bad input
            CliItem("sigma", ("sigma", str(2 * q), str(2 * p)), None, 2),
            CliItem("delta", ("delta", "--seifert", seif.replace("),(", ")(", 1), "--all-spin"), None, 2),
            CliItem("plumbing", ("plumbing", "--star", "(-2; nope)"), None, 2),
            CliItem("evencf", ("evencf", str(cf_q), str(cf_p)), None, 2),
            CliItem("sigma", ("sigma", str(q)), None, 2),
        ]
        return items

    def run(self, api, item):
        return api.cli[item.sub](item.argv, item.stdin)

    def checker(self, sd):
        cli = importlib.import_module("spindefect.cli")
        expected = {}

        def check(item, out):
            code, stdout, stderr = out
            command = " ".join(item.argv)
            if code != item.exit_code:
                return f"{command}: exit {code}, expected {item.exit_code}"
            if code == 2 and not stderr.startswith(("error:", "usage:")):
                return f"{command}: exit 2 without an error message"
            key = (item.argv, item.stdin)
            if key not in expected:
                expected[key] = _in_process(cli, item)
            if stdout != expected[key]:
                return f"{command}: stdout differs from the in-process run"
            return None

        return check


def _in_process(cli, item) -> str:
    """stdout of ``spindefect.cli.main`` run in this process on the same argv."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(item.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(list(item.argv))
            except SystemExit:  # argparse rejected the argv; stdout stays empty
                pass
    finally:
        sys.stdin = saved
    return out.getvalue()


WORKLOADS = {w.name: w for w in (SmallSpaces(), LongCF(), BigPlumbing())}
