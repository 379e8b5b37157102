"""Record what the plumbing route and its CLI commands return, one digest per family.

Run from anywhere, naming the tree whose ``src/spindefect`` to import
(default: the tree this script sits in)::

    python3 tools/same_outputs.py [TREE]

Each output line is ``family records sha256``.  Run it at two trees, for
instance a change and its parent, and compare the lines: a family whose
digest moved has a record that differs.  The inputs are drawn from
``random.Random`` seeded from ``SEED`` and never from the package, so both
trees see the same ones.  Standard library only.

A record holds, for each tree, its rooted arrays, runs, odd vertices,
inertia, Wu supports in order, each Wu vector's defect and the types of its
ids and weights (plus the fields and neighbours of a validated graph); a
call that raises records its error type and message instead.  The CLI
family records stdout, stderr and the exit code of the ``plumbing``,
``seifert-to-plumbing`` and ``selftest`` fixtures of ``tests/test_cli.py``,
in text and ``--json``.  More families can be added as further functions in
``FAMILIES``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

# the weights the random builder trees draw their runs from
RUN_WEIGHTS = (-4, -2, 2, 4, -3, -1, 0, 1, 3)
RANDOM_TREES = 20_000
# each family draws from random.Random(SEED * 1000 + its index in FAMILIES)
SEED = 17


def attempt(call):
    """call(), or the (error type, message) it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - every error is a recorded outcome
        return ("raised", type(exc).__name__, str(exc))


def tree_record(sd, make, validated=False):
    """What the plumbing route gives for the tree ``make()`` builds, which may
    be a (graph, Wu vector) pair from the compile path."""
    built = attempt(make)
    if isinstance(built, tuple) and built and built[0] == "raised":
        return [built]
    g, given = built if isinstance(built, tuple) else (built, None)
    order, weights, up = g._rooted
    rec = [
        order, weights, up,
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
    """Random ``chain_graph`` trees with a nonzero ``start_id``."""
    for _ in range(RANDOM_TREES):
        weights = _run_arm(rng, 6)
        start = rng.choice([s for s in range(-40, 41) if s])
        yield lambda weights=weights, start=start: sd.plumbing.chain_graph(weights, start)


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


def cli_runs(sd, rng):
    """Each CLI fixture, in text and with ``--json``."""
    for argv, stdin in CLI_FIXTURES:
        for mode in ([], ["--json"]):
            yield argv + mode, stdin


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


# family name -> (its inputs, drawn from the family's generator, and the
# function that records one input)
FAMILIES = {
    "lens-chains": (lens_chains, tree_record),
    "catalog-stars": (catalog_stars, tree_record),
    "builder-stars": (builder_stars, tree_record),
    "builder-chains": (builder_chains, tree_record),
    "validated-trees": (validated_trees, validated_record),
    "long-trees": (long_trees, tree_record),
    "cli": (cli_runs, cli_record),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parent.parent),
                        help="tree whose src/spindefect to import")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree) / "src"))
    import spindefect.catalog
    import spindefect.cli
    import spindefect.plumbing
    import spindefect.seifert

    sd = spindefect
    for k, (name, (inputs, record)) in enumerate(FAMILIES.items()):
        rng = random.Random(SEED * 1000 + k)
        digest = hashlib.sha256()
        count = 0
        for each in inputs(sd, rng):
            digest.update(repr(record(sd, each)).encode() + b"\n")
            count += 1
        print(f"{name} {count} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
