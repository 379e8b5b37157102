"""Record what the package and its CLI commands return, one digest per family.

Run from anywhere, naming the tree whose ``src/spindefect`` to import
(default: the tree this script sits in)::

    python3 tools/same_outputs.py [TREE]

Each output line is ``family records raised sha256``: the number of
records, how many of them hold a call that raised, and the digest.  Run it
at two trees, for instance a change and its parent, and compare the lines:
a family whose digest moved has a record that differs.  The random inputs
are drawn from ``random.Random`` seeded from ``SEED``, so both trees see the
same ones.  A family in which every record raised is taken for a broken
recorder or a broken tree rather than a result, and the script exits 1
after printing every line.  Standard library only.

A plumbing record holds, for each tree, its rooted arrays, runs, odd
vertices, inertia, Wu supports in order, each Wu vector's defect and the
types of its ids and weights (plus the fields and neighbours of a validated
graph).  The ``sigma`` family records ``sigma``, ``is_spin_sign_admissible``,
``even_cf_expand`` and, for small p, the rounded ``sigma_trig``; the
``catalog``, ``engine`` and ``obstruction`` families record ``classify``,
``delta_table``, ``delta``, ``delta_engine`` and the verdict functions on
catalog cases, re-presentations of them and seeded data.  A call that
raises records its error type and message instead.  The two CLI families
record stdout, stderr and the exit code of the fixtures of
``tests/test_cli.py``, in text and ``--json``: ``cli`` the ``plumbing``,
``seifert-to-plumbing`` and ``selftest`` ones, ``cli-routes`` the others.
More families can be added as further functions at the end of
``FAMILIES``, which keeps the inputs of the families before them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import sys
import types
from pathlib import Path

# the weights the random builder trees draw their runs from
RUN_WEIGHTS = (-4, -2, 2, 4, -3, -1, 0, 1, 3)
RANDOM_TREES = 20_000
# each family draws from random.Random(SEED * 1000 + its index in FAMILIES),
# and the catalog presentations the later families share from SEED * 1000 + 999
SEED = 17


def attempt(call):
    """call(), or the (error type, message) it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - every error is a recorded outcome
        return ("raised", type(exc).__name__, str(exc))


def raised(record) -> bool:
    """Whether a record holds an outcome of ``attempt`` that raised."""
    if type(record) is tuple and record[:1] == ("raised",):
        return True
    return type(record) in (list, tuple) and any(map(raised, record))


def tree_record(sd, make, validated=False):
    """What the plumbing route gives for the tree ``make()`` builds, which may
    be a (graph, Wu vector) pair from the compile path."""
    built = attempt(make)
    if isinstance(built, tuple) and built and built[0] == "raised":
        return [built]
    g, given = built if isinstance(built, tuple) else (built, None)
    order, weights, up = g._rooted
    rec = [
        list(order), weights, up,  # a builder's ids are a range
        sorted({type(v).__name__ for v in (*order, *weights)}),
        list(g._runs.items()),
        sorted(g._odd),
        attempt(lambda: g._inertia),
    ]
    if validated:
        rec += [g.vertices, g.edges, [(v, g.neighbors(v)) for v in sorted(g.ids)]]
    sols = attempt(lambda: sd.plumbing.wu_solutions(g))
    if isinstance(sols, tuple):
        rec.append(sols)
    else:
        rec.append([sorted(w.support) for w in sols])
        rec.append([attempt(lambda w=w: sd.plumbing.plumbing_delta(g, w)) for w in sols])
    if given is not None:
        rec += [sorted(given.support), attempt(lambda: sd.plumbing.plumbing_delta(g, given))]
    return rec


def validated_record(sd, make):
    """``tree_record`` with the fields and neighbours the constructor checked."""
    return tree_record(sd, make, validated=True)


def lens_chains(sd, rng):
    """Lens chains of every L(p, q) with 1 <= p < 200, |q| <= p, gcd 1, both eps;
    a sign that labels no spin structure records its error."""
    for p in range(1, 200):
        for q in range(-p, p + 1):
            if math.gcd(p, q) == 1:
                for eps in (1, -1):
                    yield lambda p=p, q=q, eps=eps: sd.plumbing.seifert_to_plumbing(
                        sd.seifert.LensSpace(p, q, eps))


def catalog_stars(sd, rng):
    """The compiled star of every case of ``iter_cases(3, 14, 14)``."""
    for case in sd.catalog.iter_cases(k_span=3, n_max=14, b_max=14):
        yield lambda case=case: sd.plumbing.seifert_to_plumbing(*sd.catalog.instantiate_case(case))


def _run_arm(rng, max_blocks):
    """An arm of blocks of equal weights, long blocks common."""
    arm = []
    for _ in range(rng.randrange(max_blocks + 1)):
        arm += [rng.choice(RUN_WEIGHTS)] * rng.choice((1, 1, 2, 3, 4, 7))
    return arm


def builder_stars(sd, rng):
    """Random ``star_graph`` trees with runs in their arms, some arms empty."""
    for _ in range(RANDOM_TREES):
        center = rng.choice(RUN_WEIGHTS)
        arms = [_run_arm(rng, 4) for _ in range(rng.randrange(5))]
        yield lambda center=center, arms=arms: sd.plumbing.star_graph(center, arms)


def builder_chains(sd, rng):
    """Random ``chain_graph`` trees."""
    for _ in range(RANDOM_TREES):
        weights = _run_arm(rng, 6)
        yield lambda weights=weights: sd.plumbing.chain_graph(weights)


def validated_trees(sd, rng):
    """Random trees through the validating constructor, sparse ids, edges
    shuffled and turned either way round; about one in five has a fault."""
    for _ in range(RANDOM_TREES):
        n = rng.randrange(15)
        ids = rng.sample(range(-10**6, 10**6), n)
        vertices = [(i, rng.randrange(-4, 5)) for i in ids]
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
        fault = rng.randrange(10) if n >= 3 else 9
        if fault == 0:
            edges.append(rng.choice(edges))  # a repeated edge
        elif fault == 1:
            edges.append(tuple(rng.sample(ids, 2)))  # a cycle
        elif fault == 2:
            edges.pop(rng.randrange(len(edges)))  # a forest
        elif fault == 3:
            edges[rng.randrange(len(edges))] = tuple(rng.sample(ids, 2))  # cycle and forest
        elif fault == 4:
            vertices[-1] = (ids[0], 0)  # a repeated id
        elif fault == 5:
            edges.append((ids[0], ids[0]))  # a self-loop
        rng.shuffle(edges)
        edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
        yield lambda vertices=vertices, edges=edges: sd.plumbing.PlumbingGraph(vertices, edges)


def long_trees(sd, rng):
    """L(n + 1, n) and every spin structure of D(2, 2, n) at n = 10^3 and 10^5,
    and a 10^5-vertex chain with shuffled sparse ids through the validating
    constructor."""
    for n in (10**3, 10**5):
        yield lambda n=n: sd.plumbing.seifert_to_plumbing(sd.seifert.LensSpace(n + 1, n, -1))
        s = sd.seifert.SeifertData([(2, 1), (2, 1), (n, n - 1)])
        for c in sd.seifert.spin_enumerate(s):
            yield lambda s=s, c=c: sd.plumbing.seifert_to_plumbing(s, c)
    ids = rng.sample(range(-10**9, 10**9), 10**5)
    vertices = [(i, -2) for i in ids]
    edges = list(zip(ids, ids[1:]))
    yield lambda: sd.plumbing.PlumbingGraph(vertices, edges)


def _e8_document():
    """The E8 star (-2; -2; -2,-2; -2,-2,-2,-2) as graph JSON, with its Wu bits."""
    edges = [[0, 1], [0, 2], [2, 3], [0, 4], [4, 5], [5, 6], [6, 7]]
    return json.dumps({"vertices": [{"id": i, "weight": -2} for i in range(8)],
                       "edges": edges, "wu": [0] * 8})


# (argv, stdin) of the CLI fixtures; each runs in text and with --json
CLI_FIXTURES = [
    (["plumbing", "--star", "(-2; -2; -2,-2; -2,-2,-2,-2)"], ""),
    (["plumbing", "--star", "(0; 3)", "--wu", "1,0"], ""),
    (["plumbing", "--star", "(-2; nope)"], ""),
    (["plumbing", "--star", "(0; 0; 0; 1,2)"], ""),
    (["plumbing", "--star", "(0" + "; 0" * 14 + ")"], ""),
    *[(["plumbing", "--star", "(0; 3)", "--wu", bits], "") for bits in ("2,0", "0,-1", "1,3")],
    (["plumbing", "--graph", "-"], _e8_document()),
    (["plumbing", "--graph", "-"], '{"vertices":[{"id":0}]}'),
    (["plumbing", "--graph", "-"], "[1,2]"),
    (["plumbing", "--graph", "-"], "{not json"),
    (["plumbing", "--graph", "-"], "[" * 200_000 + "]" * 200_000),
    (["seifert-to-plumbing", "--seifert", "(2,1),(3,1),(5,-4)", "--spin", "1,1,0"], ""),
    (["seifert-to-plumbing", "--seifert", "(2,1),(3,1),(5,-4)"], ""),
    (["seifert-to-plumbing", "--lens", "8", "3", "--eps", "-1"], ""),
    (["selftest"], ""),
]


def cli_runs(fixtures):
    """The inputs of a CLI family: each (argv, stdin) fixture, in text and
    with ``--json``."""
    def runs(sd, rng):
        for argv, stdin in fixtures:
            for mode in ([], ["--json"]):
                yield argv + mode, stdin
    return runs


def cli_record(sd, fixture):
    """(exit code, stdout, stderr) of one ``main`` call."""
    argv, stdin = fixture
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = sd.cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
    finally:
        sys.stdin = saved
    return [rc, out.getvalue(), err.getvalue()]


def sigma_values(sd, rng):
    """Every (q, p, eps) with 1 <= p < 120 and -2p <= q <= 2p, seeded pairs of
    up to 30 digits, and q = p - 1, 1 - p, p + 1 at p = 10^k for k <= 5."""
    triples = [(q, p, eps) for p in range(1, 120) for q in range(-2 * p, 2 * p + 1) for eps in (1, -1)]
    for _ in range(2000):
        p = rng.randrange(1, 10 ** rng.randrange(2, 31))
        q = rng.randrange(-2 * p, 2 * p + 1)
        triples += [(q, p, 1), (q, p, -1)]
    for k in range(6):
        p = 10**k
        triples += [(q, p, eps) for q in (p - 1, 1 - p, p + 1) for eps in (1, -1)]
    return triples


def sigma_record(sd, triple):
    q, p, eps = triple
    rec = [triple,
           attempt(lambda: sd.sigma.sigma(q, p, eps)),
           attempt(lambda: sd.sigma.is_spin_sign_admissible(q, p, eps)),
           attempt(lambda: sd.sigma.even_cf_expand(p, q))]
    if p <= 40:
        rec.append(attempt(lambda: sd.sigma.sigma_trig(q, p, eps).rounded))
    return rec


def _case_fields(case):
    return [case.family, case.row, sorted(case.params.items()), case.orientation_reversed]


def _presentations(sd):
    """Each case of ``iter_cases(3, 14, 14)`` as the catalog instantiates it,
    then three times re-presented as the bench does: maybe reversed, fibers
    permuted, coefficients shifted by (k1, k2, -k1 - k2) with |k| <= 3.  One
    fixed draw, so every family that reads it sees the same data."""
    rng = random.Random(SEED * 1000 + 999)
    spaces = []
    for case in sd.catalog.iter_cases(k_span=3, n_max=14, b_max=14):
        s, c = sd.catalog.instantiate_case(case)
        spaces.append((s, c))
        for _ in range(3):
            t, d = sd.seifert.reverse_orientation(s, c) if rng.random() < 0.5 else (s, c)
            t, d = sd.seifert.permute_fibers(t, d, rng.sample(range(3), 3))
            k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
            spaces.append(sd.seifert.shift_move(t, d, (k1, k2, -(k1 + k2))))
    return spaces


def catalog_values(sd, rng):
    """Every case of ``iter_cases(3, 14, 14)`` and its row value; each
    presentation; ``delta_table`` on parameters moved off their rows; and
    hand-built ``"Lens"`` cases, a family the catalog does not have, with
    p < 60, q from -1 to p + 1."""
    cases = list(sd.catalog.iter_cases(k_span=3, n_max=14, b_max=14))
    for case in cases:
        yield "case", case
    for space in _presentations(sd):
        yield "space", space
    for case in rng.sample(cases, 400):
        params = dict(case.params)
        key = rng.choice(sorted(params))
        params[key] = rng.choice((-params[key], params[key] + 1, params[key] - 1, 0, rng.randint(-40, 40)))
        yield "case", sd.catalog.DeltaCaseId(case.family, case.row, params, case.orientation_reversed)
    for p in range(1, 60):
        for q in range(-1, p + 2):
            for eps in (1, -1):
                yield "case", sd.catalog.DeltaCaseId("Lens", "lens", {"p": p, "q": q, "eps": eps})
    yield "case", sd.catalog.DeltaCaseId(sd.catalog.FAMILY_D, "no-such-row", {"n": 3, "b": 1})
    yield "case", sd.catalog.DeltaCaseId(sd.catalog.FAMILY_I, "3-1", {"k": 0})


def catalog_record(sd, item):
    kind, x = item
    if kind == "case":
        return [_case_fields(x), attempt(lambda: sd.catalog.delta_table(x))]
    s, c = x
    case = attempt(lambda: sd.catalog.classify(s, c))
    if isinstance(case, tuple):
        return [s.pairs, c.cg, c.ch, case]
    return [s.pairs, c.cg, c.ch, _case_fields(case),
            attempt(lambda: sd.catalog.delta_table(case)), attempt(lambda: sd.catalog.delta(s, c))]


_PLATONIC = ((2, 2, 2), (2, 2, 3), (2, 2, 5), (2, 2, 8), (2, 2, 13), (2, 3, 3), (2, 3, 4), (2, 3, 5))


def _coprime(rng, a, bound):
    b = 0
    while math.gcd(a, b) != 1:
        b = rng.randint(-bound, bound)
    return b


def engine_values(sd, rng):
    """The presentations, with their labels; seeded platonic data with
    |b| <= 40 under every labelling, non-spin ones among them; and all-odd
    data, which the engine cannot split."""
    for s, c in _presentations(sd):
        yield s.pairs, c.cg, c.ch
    labellings = [(cg, ch) for cg in itertools.product((0, 1), repeat=3) for ch in (0, 1)]
    for _ in range(1500):
        mults = rng.sample(rng.choice(_PLATONIC), 3)
        pairs = tuple((a, _coprime(rng, a, 40)) for a in mults)
        for cg, ch in labellings:
            yield pairs, cg, ch
    for _ in range(200):
        mults = [1, rng.choice((1, 3, 5, 7, 9)), rng.choice((3, 5, 7, 9, 11))]
        rng.shuffle(mults)
        pairs = tuple((a, _coprime(rng, a, 40)) for a in mults)
        yield pairs, tuple(rng.randrange(2) for _ in range(3)), rng.randrange(2)


def engine_record(sd, item):
    pairs, cg, ch = item
    return [item, attempt(lambda: sd.seifert.delta_engine(sd.seifert.SeifertData(pairs),
                                                          sd.seifert.SpinAssignment(cg, ch)))]


def obstruction_values(sd, rng):
    """``cobordism_order_certificate`` on the presentations and the spin lens
    spaces with p < 60; ``definite_filling_signature`` for |delta| <= 300;
    and the verdicts on shapes with b+- <= 6, with some inconsistent signs."""
    for s, c in _presentations(sd):
        yield "cobordism", (s, c)
    for p in range(1, 60):
        for q in range(-p, p + 1):
            for eps in (1, -1):
                if math.gcd(p, q) == 1 and sd.sigma.is_spin_sign_admissible(q, p, eps):
                    yield "cobordism", (sd.seifert.LensSpace(p, q, eps), None)
    for d in range(-300, 301):
        yield "definite", d
    yield "definite", (26, -1)
    for bp in range(7):
        for bm in range(7):
            for sign in (bp - bm, bp - bm + 2):
                for x in range(-24, 25):
                    yield "shape", (bp, bm, sign, x)


def obstruction_record(sd, item):
    ob = sd.obstruction
    kind, x = item
    if kind == "cobordism":
        s, c = x
        return [repr(s), repr(c), attempt(lambda: ob.cobordism_order_certificate(s, c))]
    if kind == "definite":
        args = x if isinstance(x, tuple) else (x,)
        return [args, attempt(lambda: ob.definite_filling_signature(*args))]
    bp, bm, sign, n = x
    shape = attempt(lambda: ob.FourManifoldShape(bp, bm, sign))
    if isinstance(shape, tuple):
        return [x, shape]
    return [x,
            attempt(lambda: ob.spin_filling_feasible(shape, n)),
            attempt(lambda: ob.rp2_embedding_check(shape, n)),
            attempt(lambda: ob.characteristic_sphere_check(shape, n))]


# (argv, stdin) of the CLI fixtures of the other commands; the argv that
# combine conflicting flags are left out, since their outcome is what a
# change to flag checking changes
_POINCARE = "(2,1),(3,1),(5,-4)"
CLI_ROUTE_FIXTURES = [
    (["sigma", "3", "4", "--eps", "+1"], ""),
    (["sigma", "1", "3", "--eps", "-1"], ""),
    (["sigma", "2", "4"], ""),
    (["sigma", "3"], ""),
    (["sigma", "709016970533566768071940907347", "1418743667764364333709519393452", "--eps", "-1"], ""),
    (["evencf", "7", "4"], ""),
    (["evencf", "-7", "4"], ""),
    (["evencf", "1418743667764364333709519393452", "709016970533566768071940907347"], ""),
    (["spin-list", "--seifert", "(2,1),(2,1),(4,1)"], ""),
    (["spin-list", "--seifert", _POINCARE], ""),
    (["delta", "--seifert", _POINCARE, "--all-spin"], ""),
    (["delta", "--seifert", "(2,1),(3,1),(4,1)", "--all-spin"], ""),
    (["delta", "--seifert", "(2,1),(2,1),(3,1)", "--spin", "0,1,1"], ""),
    (["delta", "--seifert", "(2,1),(3,1)(5,-4)", "--all-spin"], ""),
    (["delta", "--seifert", _POINCARE, "--spin", "0,0,0"], ""),
    (["delta", "--lens", "8", "3", "--eps", "-1"], ""),
    (["delta", "--lens", "7", "3"], ""),
    (["delta", "--lens", "8", "3"], ""),
    (["delta", "--lens", "8", "2", "--eps", "1"], ""),
    (["delta", "--lens", "3", "-2", "--eps", "1"], ""),
    (["delta", "--lens", "0", "1"], ""),
    (["cobordism", "--seifert", _POINCARE, "--spin", "1,1,0"], ""),
    (["cobordism", "--seifert", "(2,1),(2,1),(4,1)", "--spin", "0,0,0"], ""),
    (["cobordism", "--lens", "7", "3"], ""),
    (["feasible", "--bplus", "0", "--bminus", "24", "--delta", "-8"], ""),
    (["feasible", "--bplus", "0", "--bminus", "24", "--sign", "-24", "--delta", "-8"], ""),
    (["feasible", "--bplus", "0", "--bminus", "8", "--delta", "-8"], ""),
    (["definite", "--delta", "26"], ""),
    (["definite", "--delta", "-8"], ""),
    (["definite", "--delta", "4", "--scan-limit", "-1"], ""),
    (["definite", "--delta", "26", "--scan-limit", "10000"], ""),
    (["rp2", "--bplus", "0", "--bminus", "0", "--euler", "2"], ""),
    (["rp2", "--bplus", "0", "--bminus", "0", "--euler", "10"], ""),
    (["char-sphere", "--bplus", "0", "--bminus", "1", "--square", "2"], ""),
    (["char-sphere", "--bplus", "2", "--bminus", "0", "--square", "18"], ""),
]



# family name -> (its inputs, drawn from the family's generator, and the
# function that records one input)
FAMILIES = {
    "lens-chains": (lens_chains, tree_record),
    "catalog-stars": (catalog_stars, tree_record),
    "builder-stars": (builder_stars, tree_record),
    "builder-chains": (builder_chains, tree_record),
    "validated-trees": (validated_trees, validated_record),
    "long-trees": (long_trees, tree_record),
    "cli": (cli_runs(CLI_FIXTURES), cli_record),
    "sigma": (sigma_values, sigma_record),
    "catalog": (catalog_values, catalog_record),
    "engine": (engine_values, engine_record),
    "obstruction": (obstruction_values, obstruction_record),
    "cli-routes": (cli_runs(CLI_ROUTE_FIXTURES), cli_record),
}


def record_family(sd, inputs, record, rng):
    """(records, records that raised, sha256 hex digest) of one family."""
    digest = hashlib.sha256()
    count = failed = 0
    for each in inputs(sd, rng):
        rec = record(sd, each)
        digest.update(repr(rec).encode() + b"\n")
        count += 1
        failed += raised(rec)
    return count, failed, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parent.parent),
                        help="tree whose src/spindefect to import")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree) / "src"))
    # the modules by name: the package's own ``sigma`` is the function
    sd = types.SimpleNamespace(**{name: importlib.import_module(f"spindefect.{name}") for name in (
        "catalog", "cli", "obstruction", "plumbing", "seifert", "sigma")})
    broken = []
    for k, (name, (inputs, record)) in enumerate(FAMILIES.items()):
        count, failed, digest = record_family(sd, inputs, record, random.Random(SEED * 1000 + k))
        print(f"{name} {count} {failed} {digest}", flush=True)
        if count and failed == count:
            broken.append(name)
    if broken:
        print(f"every record raised in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
