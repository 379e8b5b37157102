import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import pickle
import random
import re
import time
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spindefect
from spindefect import plumbing
from spindefect.catalog import delta, instantiate_case, iter_cases
from spindefect.errors import NoSolution, NoSpinForm
from spindefect.plumbing import (
    _KERNEL_CAP,
    PlumbingGraph,
    WuVector,
    _is_wu,
    _run_continuants,
    _tree_inertia,
    _wu_forms,
    blow_down,
    chain_graph,
    graph_from_json,
    graph_to_json,
    intersection_matrix,
    parse_star,
    plumbing_delta,
    seifert_to_plumbing,
    signature,
    star_graph,
    wu_solutions,
)
from spindefect.seifert import LensSpace, SeifertData, SpinAssignment, spin_enumerate
from spindefect.sigma import even_cf_expand, is_spin_sign_admissible, sigma

E8 = star_graph(-2, [(-2,), (-2, -2), (-2, -2, -2, -2)])


def test_graph_validation():
    PlumbingGraph([], [])
    PlumbingGraph([(0, -2)])
    with pytest.raises(ValueError):
        PlumbingGraph([(0, 1), (0, 2)])  # duplicate id
    with pytest.raises(ValueError):
        PlumbingGraph([(0, 1), (1, 2)], [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        PlumbingGraph([(0, 1), (1, 2)], [(0, 2)])  # unknown endpoint
    with pytest.raises(ValueError):
        PlumbingGraph([(0, 1), (1, 2)], [])  # disconnected
    with pytest.raises(ValueError):
        PlumbingGraph([(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(ValueError, match="graph is disconnected"):
        # |edges| = |vertices| - 1, but a cycle leaves vertex 3 unreached
        PlumbingGraph([(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (1, 2), (0, 2)])
    g = chain_graph([-2, -3, -2])
    assert g.weight(1) == -3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 1
    for lookup in (g.weight, g.neighbors, g.degree):
        with pytest.raises(KeyError):
            lookup(7)


def _constructor_by_separate_checks(vertices, edges):
    """The validating constructor as it was before its one-pass search: an
    id set, a duplicate-edge set and an edge count ahead of the search over
    tuple adjacency.  Returns (vertices, edges, rooted, adjacency) or the
    (error type, message) it raised; the reference for ``__init__``."""
    try:
        vertices = tuple((int(i), int(w)) for i, w in vertices)
        idset = {i for i, _ in vertices}
        if len(idset) != len(vertices):
            raise ValueError("duplicate vertex ids")
        norm = []
        for e in edges:
            i, j = e
            if i == j or i not in idset or j not in idset:
                raise ValueError(f"bad edge {e!r}")
            norm.append((min(i, j), max(i, j)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edges")
        if vertices and len(norm) != len(vertices) - 1:
            raise ValueError("not a tree: |edges| != |vertices| - 1")
        edges = tuple(sorted(norm))
        adj = {i: [] for i, _ in vertices}
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        adj = {i: tuple(nb) for i, nb in adj.items()}
        order, up = [], []
        if vertices:
            root = vertices[0][0]
            seen, order, up = {root}, [root], [-1]
            for k, v in enumerate(order):
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        order.append(u)
                        up.append(k)
        if len(order) != len(vertices):
            raise ValueError("not a tree: graph is disconnected")
        weight = dict(vertices)
        return vertices, edges, (order, [weight[v] for v in order], up), adj
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _constructor_outcome(vertices, edges):
    try:
        g = PlumbingGraph(vertices, edges)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return g.vertices, g.edges, g._rooted, {v: g.neighbors(v) for v in g.ids}


_FAULTS = ("duplicate id", "self-loop", "unknown end", "duplicate edge", "cycle",
           "forest", "cycle and forest", "float end")


@st.composite
def constructor_inputs(draw):
    """Vertex and edge lists for the validating constructor: a random tree
    with up to two faults, edges shuffled and turned either way round."""
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-6, 9), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    pick = st.sampled_from(ids) if ids else st.integers(-6, 9)
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        if fault == "duplicate id" and n >= 2:
            k = draw(st.integers(1, n - 1))
            ids[k] = ids[draw(st.integers(0, k - 1))]
        elif fault == "self-loop":
            v = draw(pick)
            edges.append((v, v))
        elif fault == "unknown end":
            stranger = draw(st.integers(-8, 11).filter(lambda v: v not in ids))
            edges.append((draw(pick), stranger))
        elif fault == "duplicate edge" and edges:
            i, j = draw(st.sampled_from(edges))
            edges.append((j, i) if draw(st.booleans()) else (i, j))
        elif fault in ("cycle", "cycle and forest") and n >= 3:
            edges.append(tuple(draw(st.lists(pick, min_size=2, max_size=2, unique=True))))
            if fault == "cycle and forest":
                edges.pop(draw(st.integers(0, len(edges) - 2)))
        elif fault == "forest" and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif fault == "float end" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = (float(edges[k][0]), edges[k][1])
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in draw(st.permutations(edges))]
    return list(zip(ids, weights)), edges


@settings(max_examples=500, deadline=None)
@given(constructor_inputs())
def test_validating_constructor_matches_the_separate_checks(graph):
    # same fields, rooted order and neighbours, or the same rejection, in
    # the same precedence when an input has several faults
    vertices, edges = graph
    assert _constructor_outcome(vertices, edges) == _constructor_by_separate_checks(vertices, edges)


def test_lookup_maps_stay_out_of_equality():
    vertices = [(5, -2), (3, 1), (9, 0), (1, -4)]
    g = PlumbingGraph(vertices, [(3, 5), (9, 3), (1, 3)])
    h = PlumbingGraph(vertices, [(1, 3), (5, 3), (3, 9)])
    assert g == h and hash(g) == hash(h)
    assert "_adj" not in repr(g)
    # neighbours come in sorted-edge order, whatever order the edges came in
    assert g.neighbors(3) == h.neighbors(3) == (1, 5, 9)
    assert g.weight(9) == 0 and g.degree(3) == 3


def test_intersection_matrix_fixtures():
    assert intersection_matrix(PlumbingGraph([(0, -2)])) == [[-2]]
    assert intersection_matrix(chain_graph([-2, -2])) == [[-2, 1], [1, -2]]
    m = intersection_matrix(E8)
    assert len(m) == 8
    assert sum(row.count(1) for row in m) == 14  # 7 edges, two entries each
    assert all(m[i][i] == -2 for i in range(8))


def test_signature_fixtures():
    assert signature([[-2]]) == (0, 1, 0)
    assert signature([[0, 2], [2, 0]]) == (1, 1, 0)
    assert signature([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) == (1, 1, 1)
    assert signature([]) == (0, 0, 0)
    assert signature(intersection_matrix(E8)) == (0, 8, 0)
    row33 = star_graph(-2, [(-2,), (-2, -2), (-2, -2)])
    assert signature(intersection_matrix(row33)) == (0, 6, 0)
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        signature([[1, 2]])  # not square


def test_signature_against_eigenvalue_counts():
    rng = random.Random(20240811)
    for _ in range(60):
        n = rng.randrange(1, 13)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(-4, 5)
        eigs = np.linalg.eigvalsh(np.array(m, dtype=float))
        plus = int(np.sum(eigs > 1e-7))
        minus = int(np.sum(eigs < -1e-7))
        assert signature(m) == (plus, minus, n - plus - minus), m


@st.composite
def random_trees(draw, max_vertices=14, weight=st.integers(-3, 3)):
    """Trees of up to max_vertices with weights from ``weight`` and distinct
    ids from a sparse signed range, so that an id is not its position."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    return PlumbingGraph(
        [(ids[i], w) for i, w in enumerate(weights)],
        [(ids[p], ids[i]) for i, p in enumerate(parents, start=1)],
    )


@settings(max_examples=400, deadline=None)
@given(random_trees())
def test_tree_inertia_matches_dense_signature(g):
    # weight 0 makes zero effective weights common: the hyperbolic branch
    assert _tree_inertia(g) == signature(intersection_matrix(g))


@settings(max_examples=200, deadline=None)
@given(random_trees(), st.data())
def test_local_wu_check_matches_dense_product(g, data):
    support = data.draw(st.sets(st.sampled_from(g.ids)))
    m = intersection_matrix(g)
    bits = WuVector(support).as_bits(g)
    dense = all(
        (sum(m[i][j] * bits[j] for j in range(len(g))) - m[i][i]) % 2 == 0
        for i in range(len(g))
    )
    assert _is_wu(g, WuVector(support)) == dense
    plus, minus, _ = signature(m)
    for w in wu_solutions(g):
        assert _is_wu(g, w)
        x = w.as_bits(g)
        w_m_w = sum(x[i] * m[i][j] * x[j] for i in range(len(g)) for j in range(len(g)))
        assert plumbing_delta(g, w) == plus - minus - w_m_w


def test_tree_inertia_fixtures():
    assert _tree_inertia(PlumbingGraph([], [])) == (0, 0, 0)
    assert _tree_inertia(PlumbingGraph([(0, 0)])) == (0, 0, 1)
    assert _tree_inertia(E8) == (0, 8, 0)
    # a center of weight 0 with three leaves of weight 0: one hyperbolic
    # pair, the other two leaves isolated
    assert _tree_inertia(star_graph(0, [(0,), (0,), (0,)])) == (1, 1, 2)
    # the hyperbolic pair's parent drops out; the root keeps its weight
    assert _tree_inertia(chain_graph([5, 3, 0])) == (2, 1, 0)


def test_ten_thousand_vertex_chain_matches_sigma():
    lens = LensSpace(10001, 10000, -1)
    g, w = seifert_to_plumbing(lens)
    assert len(g) == 10000
    assert plumbing_delta(g, w) == sigma(10000, 10001, -1)


def _gf2_solve(g: PlumbingGraph):
    """Row-reduce M x = diag(M) over GF(2); rows/solutions as bitmasks.

    The dense reference for the leaf-to-root solve under ``wu_solutions``.
    """
    n = len(g)
    index = {v: k for k, v in enumerate(g.ids)}
    rows = []
    for k, (v, w) in enumerate(g.vertices):
        mask = (w & 1) << k  # diagonal contributes only for odd weight
        for u in g.neighbors(v):
            mask |= 1 << index[u]
        rows.append((mask, w & 1))
    pivots = {}  # column -> reduced row
    for mask, rhs in rows:
        for col, (pmask, prhs) in pivots.items():
            if mask >> col & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                raise NoSolution("characteristic system is inconsistent")
            continue
        col = mask.bit_length() - 1
        pivots[col] = (mask, rhs)
        for c2 in list(pivots):
            if c2 != col and pivots[c2][0] >> col & 1:
                m2, r2 = pivots[c2]
                pivots[c2] = (m2 ^ mask, r2 ^ rhs)
    particular = 0
    for col, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << col
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = 1 << fc
        for col, (pmask, _) in pivots.items():
            if pmask >> fc & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def _dense_wu_solutions(g: PlumbingGraph) -> list[WuVector]:
    """``wu_solutions`` as the dense solve gives it: same cap, same order."""
    if len(g) == 0:
        return [WuVector()]
    particular, basis = _gf2_solve(g)
    if len(basis) > _KERNEL_CAP:
        raise NoSolution(
            f"GF(2) kernel dimension {len(basis)} exceeds the enumeration cap"
        )
    sols = []
    for bits in itertools.product((0, 1), repeat=len(basis)):
        x = particular
        for take, vec in zip(bits, basis):
            if take:
                x ^= vec
        sols.append(WuVector(v for k, v in enumerate(g.ids) if x >> k & 1))
    return sorted(sols, key=lambda w: sorted(w.support))


def _wu_outcome(solve, g):
    try:
        return solve(g)
    except NoSolution as exc:
        return str(exc)


# zero weights make unpinned and pinned vertices common, +-2 keeps them even
_WU_WEIGHTS = st.sampled_from((-3, -2, -2, -1, 0, 0, 0, 1, 2, 2, 3))


@settings(max_examples=300, deadline=None)
@given(random_trees(max_vertices=18, weight=_WU_WEIGHTS))
def test_wu_solutions_match_the_dense_gf2_solve(g):
    assert _wu_outcome(wu_solutions, g) == _wu_outcome(_dense_wu_solutions, g)


def test_wu_solutions_at_the_enumeration_cap():
    # a zero leaf fixes the zero center at 0, and the center's equation asks
    # the leaves to sum to 0: kernel dimension = arms - 1
    at_cap = star_graph(0, [(0,)] * 13)
    sols = wu_solutions(at_cap)
    assert len(sols) == 4096 == 2**_KERNEL_CAP
    assert sols == _dense_wu_solutions(at_cap)
    past_cap = star_graph(0, [(0,)] * 14)
    message = "GF(2) kernel dimension 13 exceeds the enumeration cap"
    with pytest.raises(NoSolution, match=re.escape(message)):
        wu_solutions(past_cap)
    assert _wu_outcome(_dense_wu_solutions, past_cap) == message


def test_ten_thousand_vertex_chain_wu_is_linear():
    g, _ = seifert_to_plumbing(LensSpace(10001, 10000, -1))
    start = time.perf_counter()
    assert wu_solutions(g) == [WuVector()]
    # the dense solve took about 20 s here
    assert time.perf_counter() - start < 0.5


def test_wu_solutions_fixtures():
    assert wu_solutions(PlumbingGraph([], [])) == [WuVector()]
    # even weights: the zero vector solves the characteristic system
    assert WuVector() in wu_solutions(chain_graph([-2, -4, -2]))
    # a single odd vertex forces eps = 1
    assert wu_solutions(PlumbingGraph([(0, 3)])) == [WuVector([0])]
    assert wu_solutions(E8) == [WuVector()]


def test_wu_solutions_assert_no_support_vertex_is_next_to_its_parent(monkeypatch):
    # BFS from 7 puts -5 at position 1 and 300 at position 2, below -5
    g = PlumbingGraph([(7, -2), (300, -2), (-5, -2)], [(300, -5), (-5, 7)])
    assert g._rooted == ([7, -5, 300], [-2, -2, -2], [-1, 0, 1])
    real = plumbing._wu_forms

    def forms(h):
        _, _, k = real(h)
        # a vertex and its parent both carry eps = 1, and nothing else does
        return [(1, slice(1, 3))], {(1, 1)}, k

    monkeypatch.setattr(plumbing, "_wu_forms", forms)
    with pytest.raises(AssertionError, match="adjacent Wu pair -5,300"):
        wu_solutions(g)


def test_wu_non_adjacency_and_count():
    g = chain_graph([-2, -2, -2])  # boundary L(4, -3): two structures
    sols = wu_solutions(g)
    assert len(sols) == 2
    for w in sols:
        for i, j in g.edges:
            assert not (i in w.support and j in w.support)


def test_wu_vector_bits():
    g = chain_graph([1, 1])
    w = WuVector([1])
    assert w.as_bits(g) == (0, 1)
    with pytest.raises(ValueError):
        WuVector([7]).as_bits(g)


def test_plumbing_delta_fixtures():
    assert plumbing_delta(E8, WuVector()) == -8
    row45 = star_graph(-2, [(-2,), (-4,), (-2, -2)])
    assert plumbing_delta(row45, WuVector()) == -5
    for n in (3, 5, 9, 15):
        g = PlumbingGraph([(0, n)])
        assert plumbing_delta(g, WuVector([0])) == 1 - n == sigma(-1, n, 1)
    with pytest.raises(ValueError):
        plumbing_delta(E8, WuVector([0]))  # not a Wu vector


def test_blow_down_examples():
    g = PlumbingGraph([(0, 1)])
    g2, sols = blow_down(g, WuVector([0]), 0)
    assert len(g2) == 0 and sols == [WuVector()]

    g = chain_graph([-2, -1, -2])
    w = wu_solutions(g)[0]
    g2, sols = blow_down(g, w, 1)
    assert [wt for _, wt in g2.vertices] == [-1, -1]
    assert len(g2.edges) == 1


def test_blow_down_preserves_the_defect_multiset():
    graphs = [
        chain_graph([-2, -1, -2]),
        chain_graph([3, 1]),
        chain_graph([1, -1, 1, 2]),
        star_graph(1, [(-2,), (-2,), (2, 1)]),
        PlumbingGraph([(0, -1)]),
        # 60 vertices, four Wu vectors, 36 vertices of weight +-1
        star_graph(-2, [(-2, 1, -1, -2) * 5, (1, 1, -2) * 6 + (1, 1),
                        (-2, -1, -1) * 6 + (-2,)]),
    ]
    for g in graphs:
        for v, wt in g.vertices:
            if wt in (1, -1) and g.degree(v) <= 2:
                before = Counter(plumbing_delta(g, w) for w in wu_solutions(g))
                g2, sols = blow_down(g, wu_solutions(g)[0], v)
                after = Counter(plumbing_delta(g2, w) for w in sols)
                assert before == after, (g.vertices, v)


def test_blow_down_preserves_the_defect_multiset_at_scale():
    # 1,066 vertices, 8 Wu vectors; 644 blow-down candidates, sampled along
    # every arm, at the arm ends and next to the center
    g = star_graph(-2, [(-2, 1, -1, -2) * 100, (1, 1, -2) * 110 + (1, 1),
                        (-2, -1, -1) * 110 + (-2,), (0,), (1, -1)])
    sols = wu_solutions(g)
    before = Counter(plumbing_delta(g, w) for w in sols)
    assert len(sols) == 8 and len(before) == 4
    candidates = [v for v, wt in g.vertices if wt in (1, -1) and g.degree(v) <= 2]
    sample = set(candidates[::25])
    sample.update(v for v in candidates if g.degree(v) == 1 or 0 in g.neighbors(v))
    for v in sorted(sample):
        g2, sols2 = blow_down(g, sols[0], v)
        assert Counter(plumbing_delta(g2, w) for w in sols2) == before, v


def test_blow_down_validation():
    g = chain_graph([-2, -1, -2])
    w = wu_solutions(g)[0]
    with pytest.raises(ValueError):
        blow_down(g, w, 0)  # weight -2
    star = star_graph(1, [(-2,), (-2,), (-2,)])
    ws = wu_solutions(star)[0]
    with pytest.raises(ValueError):
        blow_down(star, ws, 0)  # degree 3
    with pytest.raises(ValueError):
        blow_down(g, WuVector([1]), 1)  # not a Wu vector


# --- runs of 2s and of -2s -------------------------------------------------------


def _tree_inertia_by_vertex(g: PlumbingGraph) -> tuple[int, int, int]:
    """``_tree_inertia`` one vertex at a time, with no run stepped over: the
    reference for the run steps."""
    _, weights, up = g._rooted
    n = len(weights)
    num = list(weights)
    den = [1] * n
    zero_children = [0] * n
    plus = minus = zero = 0
    for i in range(n - 1, -1, -1):
        if zero_children[i]:
            plus += 1
            minus += 1
            zero += zero_children[i] - 1
            continue
        a, b, p = num[i], den[i], up[i]
        if a == 0:
            if p < 0:
                zero += 1
            else:
                zero_children[p] += 1
            continue
        if (a > 0) == (b > 0):
            plus += 1
        else:
            minus += 1
        if p >= 0:
            num[p] = num[p] * a - den[p] * b
            den[p] *= a
    return plus, minus, zero


def _wu_forms_by_vertex(g: PlumbingGraph) -> tuple[list[int], int]:
    """``_wu_forms`` one vertex at a time, with no run stepped over: the
    reference for the run steps."""
    _, weights, up = g._rooted
    n = len(weights)
    eff = [w & 1 for w in weights]
    pinned = [None] * n  # a pinned vertex's eff-0 children, the first one defined
    free = []
    for i in range(n - 1, -1, -1):
        if pinned[i] is not None:
            continue
        p = up[i]
        if eff[i]:
            if p >= 0:
                eff[p] ^= 1
        elif p < 0:
            free.append(i)
        elif pinned[p] is not None:
            free.append(i)
            pinned[p].append(i)
        else:
            pinned[p] = [i]
    if len(free) > _KERNEL_CAP:
        raise NoSolution(
            f"GF(2) kernel dimension {len(free)} exceeds the enumeration cap"
        )
    x = [-1] * n
    for j, i in enumerate(free):
        x[i] = 2 << j
    for i in range(n):
        p = up[i]
        above = 0 if p < 0 else x[p]
        children = pinned[i]
        if children is not None:
            x[i] = 0
            f = eff[i] ^ above
            for c in children[1:]:
                f ^= x[c]
            x[children[0]] = f
        elif x[i] < 0:
            x[i] = 1 ^ above
    return x, len(free)


def _forms_by_vertex_with_links(g):
    """(x, links, k) from ``_wu_forms_by_vertex``: links are the (vertex,
    parent) pairs of forms with neither form 0, each pair sorted."""
    x, k = _wu_forms_by_vertex(g)
    up = g._rooted[2]
    return x, {tuple(sorted((x[i], x[up[i]]))) for i in range(1, len(x)) if x[i] and x[up[i]]}, k


def _forms_from_segments(g):
    """``_wu_forms``' segments read back position by position, as (x,
    links, k) with each link's pair sorted, 0 at a position no segment
    covers: the nonempty segments come in the order of their first
    positions, and none covers a position another covers."""
    segments, links, k = _wu_forms(g)
    positions = range(len(g))
    x = [None] * len(g)
    for f, s in segments:
        for i in positions[s]:
            assert x[i] is None, (i, segments)
            x[i] = f
    x = [f or 0 for f in x]
    firsts = [s.start for _, s in segments if positions[s]]
    assert firsts == sorted(firsts)
    return x, {tuple(sorted(link)) for link in links}, k


def _assert_run_steps_match(g):
    assert _tree_inertia(g) == _tree_inertia_by_vertex(g)
    assert _wu_outcome(_forms_from_segments, g) == _wu_outcome(_forms_by_vertex_with_links, g)


def _wu_solutions_by_sort(g: PlumbingGraph) -> list[WuVector]:
    """``wu_solutions`` from the per-vertex forms: the positions are grouped
    by their nonzero form once, by a sort, and a solution's support is the
    union of the groups whose form is odd there.  The reference for the
    segments of ``_wu_forms``."""
    if len(g) == 0:
        return [WuVector()]
    order, _, up = g._rooted
    x, k = _wu_forms_by_vertex(g)
    by_form = sorted(itertools.compress(range(len(x)), x), key=x.__getitem__)
    groups = [(f, list(at_f)) for f, at_f in itertools.groupby(by_form, x.__getitem__)]
    sols = []
    for free in range(1 << k):
        at = free << 1 | 1  # the constant bit, then the free variables' values
        support = set().union(*[at_f for f, at_f in groups if (f & at).bit_count() & 1])
        assert support.isdisjoint(map(up.__getitem__, support))
        sols.append(WuVector(map(order.__getitem__, support)))
    return sorted(sols, key=lambda w: sorted(w.support))


# 2 and -2, the weights of runs, among +-4 and odd weights, which the
# passes walk vertex by vertex however long they repeat, and zero and
# |w| < 2 ones, below which a run's bottom can fail the inertia step's test
_RUN_WEIGHTS = st.sampled_from((-4, -2, -2, 2, 2, 4, -3, -1, 0, 0, 1, 3))


@st.composite
def run_arms(draw, max_blocks=5):
    """An arm of blocks of equal weights, long ones common."""
    blocks = draw(st.lists(st.tuples(_RUN_WEIGHTS, st.sampled_from((1, 1, 2, 3, 4, 7))),
                           max_size=max_blocks))
    return [w for w, length in blocks for _ in range(length)]


@st.composite
def run_trees(draw):
    """Builder trees, chains and stars, whose arms hold runs."""
    if draw(st.booleans()):
        return chain_graph(draw(run_arms(max_blocks=7)))
    return star_graph(draw(_RUN_WEIGHTS), draw(st.lists(run_arms(), max_size=4)))


def _runs_by_scan(g):
    """{bottom: top} for every maximal run of at least three weights 2, or
    of weights -2, below the root, in which each vertex but the bottom has
    one child."""
    _, weights, up = g._rooted
    children = [[] for _ in weights]
    for i in range(1, len(weights)):
        children[up[i]].append(i)
    only = [c[0] if len(c) == 1 else None for c in children]
    runs = {}
    for v in range(1, len(weights)):
        p = up[v]
        if p > 0 and only[p] == v and weights[p] == weights[v]:
            continue  # v continues its parent's run
        bottom = v
        while only[bottom] is not None and weights[only[bottom]] == weights[v]:
            bottom = only[bottom]
        if bottom - v >= 2 and weights[v] in (2, -2):
            runs[bottom] = v
    return runs


@settings(max_examples=400, deadline=None)
@given(run_trees())
def test_run_steps_match_the_per_vertex_passes(g):
    _assert_run_steps_match(g)
    if len(g) <= 40:
        assert _wu_outcome(wu_solutions, g) == _wu_outcome(_dense_wu_solutions, g)


@settings(max_examples=300, deadline=None)
@given(run_trees())
def test_wu_solutions_match_the_sort_and_group_oracle(g):
    # at any size: the oracle is linear in the tree, as the solve is
    assert _wu_outcome(wu_solutions, g) == _wu_outcome(_wu_solutions_by_sort, g)


@settings(max_examples=300, deadline=None)
@given(run_trees())
# arms of one weight throughout, of 2, 3 and 4 vertices, and arms equal but
# for their last entry
@example(star_graph(-2, [[2, 2], [2, 2, 2], [-2] * 4, [4] * 3 + [2], [2, 2, 4]]))
@example(chain_graph([7, 2, 2]))
@example(chain_graph([7, -2, -2, -2]))
@example(chain_graph(np.array([1, 4, 4, 4, 4])))
@example(chain_graph([0, -2, -2, -2, -2, 3]))
def test_builders_record_every_run(g):
    # each run is a chain from parent to child, stored bottom first in
    # ascending order, so that the passes can take them in either direction
    runs = g._runs
    assert runs == _runs_by_scan(g)
    assert list(runs) == sorted(runs)
    order, weights, up = g._rooted
    for bottom, top in runs.items():
        assert all(up[i] == i - 1 and weights[i] == weights[top] for i in range(top + 1, bottom + 1))


@settings(max_examples=200, deadline=None)
@given(random_trees(max_vertices=18, weight=_WU_WEIGHTS))
def test_validated_graphs_have_no_runs(g):
    assert g._runs == {}
    _assert_run_steps_match(g)


def _odd_by_low_bits(g):
    """The odd-weight vertices by a low-bit test of every weight: the
    reference for ``_derive_odd``, which picks the odd values first."""
    order, weights, _ = g._rooted
    low_bits = map(operator.and_, weights, itertools.repeat(1))
    return frozenset(itertools.compress(order, low_bits))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    random_trees(weight=_WU_WEIGHTS),
    random_trees(weight=st.sampled_from((-4, -2, 0, 2, 4))),
    run_trees(),
))
def test_odd_vertices_match_the_low_bit_test(g):
    # zero, negative odd and all-even weights, on validated and builder trees
    assert g._odd == _odd_by_low_bits(g)


def test_run_steps_at_the_edges():
    # below a -2 run, a -1 over a -3 leaves the bottom at -1/2: |a| < |b|,
    # and the vertex above it has effective weight 0, a hyperbolic pair
    # with the next one
    g = chain_graph([-2] * 5 + [-1, -3])
    assert g._runs == {4: 1}
    assert _tree_inertia(g) == (1, 6, 0) == signature(intersection_matrix(g))
    # a 0 over a 3 turns the bottom's sign
    for g in (chain_graph([-2] * 5 + [0, 3]),
              star_graph(0, [[-2] * 4 + [0] * 3, [2] * 3 + [1, 0]])):
        assert g._runs
        _assert_run_steps_match(g)
    # an odd stretch and an arm of +4s are no runs, and are walked vertex
    # by vertex; the star's -2s below them are one
    for g, runs in ((chain_graph([5, 3, 3, 3, 3, 1]), {}),
                    (star_graph(4, [[4] * 6, [-2, -2, -2, 0], [1]]), {9: 7})):
        assert g._runs == runs
        _assert_run_steps_match(g)
    # a one-armed star and a chain keep the root out of their runs
    assert star_graph(-2, [[-2, -2, -2]])._runs == chain_graph([-2] * 4)._runs == {3: 1}


def test_run_continuants_follow_the_recurrence():
    # a run step hands its top the per-vertex loop's own unreduced
    # (num, den), not just their ratio; only runs of +-2 are stepped over
    for w in (2, -2):
        u = [0, 1]  # U_{-1}, U_0
        for m in range(1, 40):
            u.append(w * u[-1] - u[-2])
            assert _run_continuants(w, m) == tuple(u[-3:]), (w, m)


def _spin_lens_chains(p_max):
    for p in range(2, p_max):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                for eps in (1, -1):
                    if is_spin_sign_admissible(q, p, eps):
                        yield seifert_to_plumbing(LensSpace(p, q, eps))[0]


def test_run_steps_on_compiled_trees():
    graphs = list(_spin_lens_chains(200))
    assert len(graphs) > 10000
    graphs += [seifert_to_plumbing(*instantiate_case(case))[0]
               for case in iter_cases(k_span=3, n_max=14, b_max=14)]
    for g in graphs:
        _assert_run_steps_match(g)
    # the smallest lens chain with three equal weights other than +-2 in a
    # row records no run, and its 4s are walked vertex by vertex
    g, w = seifert_to_plumbing(LensSpace(97, 41, 1))
    assert g._rooted[1] == [2, 4, 4, 4]
    assert g._runs == {}
    _assert_run_steps_match(g)
    assert plumbing_delta(g, w) == 4 == sigma(41, 97, 1)


@pytest.mark.parametrize("n", [10**3, 10**5])
def test_run_steps_on_long_arms(n):
    s = SeifertData([(2, 1), (2, 1), (n, n - 1)])
    graphs = [seifert_to_plumbing(LensSpace(n + 1, n, -1))[0]]
    graphs += [seifert_to_plumbing(s, c)[0] for c in spin_enumerate(s)]
    # the chain is one run below its root; so is a star's long arm
    assert graphs[0]._runs == {n - 1: 1}
    for g in graphs:
        _assert_run_steps_match(g)


def test_plumbing_route_agrees_at_scale():
    n = 10**5
    g, w = seifert_to_plumbing(LensSpace(n + 1, n, -1))
    assert plumbing_delta(g, w) == sigma(n, n + 1, -1)
    assert WuVector() in wu_solutions(g)
    s = SeifertData([(2, 1), (2, 1), (n, n - 1)])
    structures = spin_enumerate(s)
    assert len(structures) == 4
    for c in structures:
        g, w = seifert_to_plumbing(s, c)
        assert plumbing_delta(g, w) == delta(s, c), c


# --- compiling Seifert data ------------------------------------------------------


def test_poincare_sphere_compiles_to_e8():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    (c,) = spin_enumerate(s)
    g, w = seifert_to_plumbing(s, c)
    assert g == E8
    assert w == WuVector()


def test_row_3_4_instance_is_indefinite_with_defect_4():
    s = SeifertData([(2, -1), (3, -1), (3, 8)])
    (c,) = spin_enumerate(s)
    g, w = seifert_to_plumbing(s, c)
    assert w == WuVector()
    plus, minus, zero = signature(intersection_matrix(g))
    assert (plus, minus, zero) == (5, 1, 0)
    assert plumbing_delta(g, w) == 4 == delta(s, c)


def test_compiled_wu_count_matches_spin_count():
    shapes = [
        [(2, 1), (2, 1), (3, 1)],
        [(2, 1), (2, 1), (4, 1)],
        [(2, 1), (2, 1), (6, -1)],
        [(2, 1), (3, 1), (3, -2)],
        [(2, 1), (3, 1), (4, 1)],
        [(2, 1), (3, 1), (5, -4)],
    ]
    for pairs in shapes:
        s = SeifertData(pairs)
        structures = spin_enumerate(s)
        g, _ = seifert_to_plumbing(s, structures[0])
        sols = wu_solutions(g)
        assert len(sols) == len(structures)
        # the compiled tree bounds S, so the defects over its Wu set are
        # exactly the defects over the spin structures of S
        wu_side = Counter(plumbing_delta(g, w) for w in sols)
        spin_side = Counter(delta(s, c) for c in structures)
        assert wu_side == spin_side, pairs


def test_lens_chains_reproduce_the_lens_defect():
    for p in range(2, 21):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for eps in (1, -1):
                if not is_spin_sign_admissible(q, p, eps):
                    continue
                g, w = seifert_to_plumbing(LensSpace(p, q, eps))
                assert w == WuVector()
                assert all(wt % 2 == 0 for _, wt in g.vertices)
                assert plumbing_delta(g, w) == sigma(q, p, eps)


def _lens_chain_by_candidates(lens):
    """The lens chain by the two-candidate selection: of the representatives
    of q and q + p mod 2p in (-p, p), p even takes the one the shift names
    and p odd takes the even one."""
    p, q, eps = lens.p, lens.q, lens.eps
    if p == 1:
        return PlumbingGraph([], [])
    candidates = []
    for shift in (0, p):
        r = (q + shift) % (2 * p)
        if r >= p:
            r -= 2 * p
        candidates.append((shift, r))
    if p % 2 == 0:
        want = 0 if eps == -1 else 1
        qp = next(r for shift, r in candidates if (shift // p) % 2 == want)
    else:
        qp = next(r for _, r in candidates if r % 2 == 0)
    return chain_graph(even_cf_expand(-p, qp))


def test_lens_chain_matches_the_two_candidate_selection():
    checked = 0
    for p in range(1, 60):
        for q in range(-2 * p, 2 * p + 1):
            if math.gcd(p, q) != 1:
                continue
            for eps in (1, -1):
                if not is_spin_sign_admissible(q, p, eps):
                    continue
                for sign in (1, -1):  # L(-p, -q) = L(p, q)
                    lens = LensSpace(sign * p, sign * q, eps)
                    g, w = seifert_to_plumbing(lens)
                    assert w == WuVector()
                    assert g == _lens_chain_by_candidates(lens), (p, q, eps)
                    checked += 1
    assert checked > 5000


def test_lens_trivial_and_odd_cases():
    g, w = seifert_to_plumbing(LensSpace(1, 1, 1))
    assert len(g) == 0 and w == WuVector()
    g, _ = seifert_to_plumbing(LensSpace(3, 1, 1))
    assert all(wt % 2 == 0 for _, wt in g.vertices)


def test_seifert_to_plumbing_validation():
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    with pytest.raises(NoSpinForm):
        seifert_to_plumbing(s, SpinAssignment((0, 0, 0)))
    with pytest.raises(ValueError):
        seifert_to_plumbing(SeifertData([(2, 1), (3, 1)]), SpinAssignment((0, 0)))


def test_route_agreement_spot_checks():
    for case in list(iter_cases(k_span=1, n_max=6, b_max=6))[::5]:
        s, c = instantiate_case(case)
        g, w = seifert_to_plumbing(s, c)
        assert plumbing_delta(g, w) == delta(s, c), case


# --- builders and serialization ---------------------------------------------------


def test_star_and_parse_star():
    assert parse_star("(-2; -2; -2,-2; -2,-2,-2,-2)") == E8
    assert parse_star("(0; 2; 2,2; 2,2)") == star_graph(0, [(2,), (2, 2), (2, 2)])
    with pytest.raises(ValueError):
        parse_star("")
    with pytest.raises(ValueError):
        parse_star("(2; ; 3)")
    with pytest.raises(ValueError):
        parse_star("(2; x)")


def test_compiled_trees_hold_python_ints(monkeypatch):
    stars = [seifert_to_plumbing(*instantiate_case(case))[0]
             for case in iter_cases(k_span=3, n_max=14, b_max=14)]
    for g in [*_spin_lens_chains(200), *stars]:
        assert all(type(w) is int for w in g._rooted[1])
    # the public builders turn numpy ints and booleans into ints
    bits = np.array([True, False, True, True, True])
    # each tree but the bits chain, whose 1s are no run, has a run of 2s
    for g, runs in ((chain_graph(np.array([-3, 2, 2, 2])), {3: 1}), (chain_graph(bits), {}),
                    (star_graph(np.int32(-2), [np.array([2, 2, 2]), bits]), {3: 1}),
                    (parse_star("(-2; 2,2,2; 1)"), {3: 1})):
        assert all(type(w) is int for w in g._rooted[1])
        assert all(type(i) is int for i in g._rooted[0])
        assert g._runs == runs
    # and refuse what int() refuses, with its error
    for build, error, message in (
        (lambda: chain_graph(["a"]), ValueError, "invalid literal for int() with base 10: 'a'"),
        (lambda: chain_graph(5), TypeError, "'int' object is not iterable"),
        (lambda: star_graph(0, [["a"]]), ValueError, "invalid literal for int() with base 10: 'a'"),
        # the arms are read before any weight is converted
        (lambda: star_graph("x", [5]), TypeError, "'int' object is not iterable"),
        (lambda: star_graph(None, []), TypeError,
         "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
    # the compile path hands its ints straight to _tree, without the public
    # builders, whose int() copy alone cost big-plumbing about 9 % of its
    # items_per_s
    monkeypatch.setattr(plumbing, "chain_graph", None)
    monkeypatch.setattr(plumbing, "star_graph", None)
    assert seifert_to_plumbing(LensSpace(6, 5, -1))[0] == chain_graph([-2] * 5)
    s = SeifertData([(2, 1), (3, 1), (5, -4)])
    assert seifert_to_plumbing(s, spin_enumerate(s)[0])[0] == E8


def _validated_star(center, arms):
    """The star through the public, validating constructor."""
    vertices, edges, nxt = [(0, center)], [], 1
    for arm in arms:
        prev = 0
        for w in arm:
            vertices.append((nxt, w))
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return PlumbingGraph(vertices, edges)


def _assert_rooted_order(g):
    """``_rooted`` is a rooted order of the tree: the first vertex first,
    each vertex after its parent, a neighbour, all covered, and the weights
    aligned; and the passes that walk it agree with the validating
    constructor's."""
    order, weights, up = g._rooted
    assert len(order) == len(weights) == len(up)
    assert sorted(order) == sorted(g.ids)
    assert weights == [g.weight(v) for v in order]
    if order:
        assert order[0] == g.vertices[0][0] and up[0] == -1
    for i in range(1, len(order)):
        assert 0 <= up[i] < i and order[up[i]] in g.neighbors(order[i])
    h = PlumbingGraph(g.vertices, g.edges)
    assert _wu_outcome(wu_solutions, g) == _wu_outcome(wu_solutions, h)
    assert g._inertia == h._inertia


def _assert_same_graph(g, h):
    assert (g.vertices, g.edges) == (h.vertices, h.edges) and g == h
    assert g._weight == h._weight and g._adj == h._adj
    assert all(type(w) is int for _, w in g.vertices)
    _assert_rooted_order(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=20))
def test_chain_graph_matches_the_validating_constructor(weights):
    ids = range(len(weights))
    _assert_same_graph(
        chain_graph(np.array(weights, dtype=np.int64)),
        PlumbingGraph(list(zip(ids, weights)), [(i, i + 1) for i in ids[:-1]]),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 5), st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=6), max_size=5))
def test_star_builders_match_the_validating_constructor(center, arms):
    expected = _validated_star(center, arms)
    _assert_same_graph(star_graph(center, arms), expected)
    text = "(" + "; ".join([str(center)] + [",".join(map(str, arm)) for arm in arms]) + ")"
    _assert_same_graph(parse_star(text), expected)


# what a builder's tree derives from its rooted arrays on first use
_DERIVED = {"vertices", "edges", "_weight", "_adj"}


def test_compiled_trees_keep_their_rooted_order():
    # the empty chain, lens chains (p = 1 is the empty graph) and stars
    graphs = [chain_graph([])]
    graphs += [seifert_to_plumbing(LensSpace(p, q, eps))[0]
               for p, q, eps in ((1, 1, 1), (2, 1, 1), (7, 2, -1), (12, 5, 1), (101, 100, -1))]
    for case in list(iter_cases(k_span=1, n_max=6, b_max=6))[::7]:
        graphs.append(seifert_to_plumbing(*instantiate_case(case))[0])
    for g in graphs:
        # compiling, solving and measuring a builder's tree reads only its
        # rooted arrays: neither field nor lookup map is ever built
        assert WuVector() in wu_solutions(g)
        plumbing_delta(g, WuVector())
        assert not _DERIVED & vars(g).keys()
        # derived afterwards, they are the validated twin's
        h = PlumbingGraph(g.vertices, g.edges)
        assert (g.vertices, g.edges) == (h.vertices, h.edges)
        assert g._weight == h._weight and g._adj == h._adj
        _assert_rooted_order(g)
        # built afterwards on demand, it lists neighbours in sorted-edge order
        expected = {v: [] for v in g.ids}
        for i, j in g.edges:
            expected[i].append(j)
            expected[j].append(i)
        assert all(g.neighbors(v) == tuple(sorted(nb)) == tuple(nb)
                   for v, nb in expected.items())


def test_builder_trees_derive_their_fields_on_demand():
    def fresh():
        # arm after arm, the parent-child pairs are not yet in sorted order
        return star_graph(-2, [(3, 1), (-2,)])

    g = fresh()
    assert len(g) == 4 and not _DERIVED & vars(g).keys()
    # the generated ==, hash and repr read the fields, so they derive them
    twin = PlumbingGraph(g.vertices, g.edges)
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert repr(fresh()) == (
        "PlumbingGraph(vertices=((0, -2), (1, 3), (2, 1), (3, -2)), "
        "edges=((0, 1), (0, 3), (1, 2)))"
    )
    assert fresh() == twin and hash(fresh()) == hash(twin)
    # each derived field is stored once and handed back as it is
    g = fresh()
    assert g.edges is g.edges and vars(g)["edges"] is g.edges
    for name in ("vertices", "edges"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fresh(), name, ())
    with pytest.raises(AttributeError, match="'PlumbingGraph' object has no attribute 'nope'"):
        fresh().nope
    # an underived tree copies and pickles as itself
    for clone in (copy.copy(fresh()), copy.deepcopy(fresh()), pickle.loads(pickle.dumps(fresh()))):
        assert not _DERIVED & vars(clone).keys()
        assert clone == twin and clone._rooted == fresh()._rooted


def test_inertia_is_computed_once_per_graph(monkeypatch):
    arms = [(0,), (2,), (-2, 1), (3,)]
    doc = graph_to_json(star_graph(0, arms))
    h = star_graph(0, arms)
    # every derived attribute comes from one table, read on first use
    calls = []
    real = plumbing._DERIVE["_inertia"]
    monkeypatch.setitem(plumbing._DERIVE, "_inertia", lambda g: calls.append(g) or real(g))
    # the rooted order is searched for once per validated graph, for the
    # connectivity check, the Wu solve and the inertia alike, and never for
    # a builder's tree, which comes with its own
    orders = []
    real_order = plumbing._DERIVE["_rooted"]
    monkeypatch.setitem(plumbing._DERIVE, "_rooted", lambda g: orders.append(real_order(g)) or orders[-1])
    for make, searches in (
        (lambda: star_graph(0, arms), 0),
        (lambda: PlumbingGraph(h.vertices, h.edges), 1),
        (lambda: graph_from_json(doc)[0], 1),
    ):
        calls.clear()
        orders.clear()
        g = make()
        deltas = [plumbing_delta(g, w) for w in wu_solutions(g)]
        assert len(deltas) > 1 and len(calls) == 1
        assert len(orders) == searches
        if searches:
            assert g._rooted is orders[0]
    g = star_graph(0, arms)
    assert g._inertia == _tree_inertia(g) == signature(intersection_matrix(g))
    # a derived value, like the lookup maps, stays out of ==, hash and repr
    assert g == h and hash(g) == hash(h)
    assert "_inertia" not in repr(g) and "_rooted" not in repr(g)
    assert not any(isinstance(v, functools.cached_property) for v in vars(PlumbingGraph).values())


def test_every_derived_name_is_a_descriptor_on_the_class():
    # no failed-lookup fallback: each name in the table has its own descriptor
    assert not hasattr(PlumbingGraph, "__getattr__")
    for name in plumbing._DERIVE:
        served = vars(PlumbingGraph)[name]
        assert isinstance(served, plumbing._Derived) and served.name == name
        assert getattr(PlumbingGraph, name) is served


def test_a_derived_attribute_is_derived_once_and_stored(monkeypatch):
    calls = Counter()
    for name, real in plumbing._DERIVE.items():
        def counted(g, name=name, real=real):
            calls[name] += 1
            return real(g)
        monkeypatch.setitem(plumbing._DERIVE, name, counted)
    arms = [(-2, -2, -2, -2), (3,), (-2, 1)]
    h = star_graph(0, arms)
    for make, underived in (
        # a builder stores only its rooted arrays and runs
        (lambda: star_graph(0, arms), {"vertices", "edges", "_weight", "_adj", "_odd", "_inertia"}),
        # the validating constructor stores its fields, maps and search
        (lambda: PlumbingGraph(h.vertices, h.edges), {"_odd", "_inertia"}),
    ):
        assert set(plumbing._DERIVE) - vars(make()).keys() == underived
        for name in underived:
            g = make()
            calls.clear()
            value = getattr(g, name)
            assert calls[name] == 1 and vars(g)[name] is value
            # the instance dict wins over the descriptor from now on
            calls.clear()
            assert getattr(g, name) is value and not calls


def test_json_roundtrip():
    g = star_graph(-2, [(-2,), (-2, -2)])
    w = WuVector()
    doc = graph_to_json(g, w)
    assert json.loads(json.dumps(doc)) == doc
    g2, w2 = graph_from_json(doc)
    assert g2 == g and w2 == w
    doc_no_wu = graph_to_json(g)
    g3, w3 = graph_from_json(doc_no_wu)
    assert g3 == g and w3 is None
    with pytest.raises(ValueError):
        graph_from_json({"vertices": [{"id": 0, "weight": 2}], "edges": [], "wu": [1, 0]})


_NOT_AN_OBJECT = "graph JSON must be an object"
_BAD_VERTICES = '"vertices" must be a list of {"id": int, "weight": int}'
_BAD_EDGES = '"edges" must be a list of [int, int] pairs'
_BAD_WU = '"wu" must be a list of 0/1'
_BAD_SHAPES = [
    ([1, 2], _NOT_AN_OBJECT),
    ("graph", _NOT_AN_OBJECT),
    ({}, _BAD_VERTICES),
    ({"vertices": {"id": 0, "weight": 2}}, _BAD_VERTICES),
    ({"vertices": [{"id": 0}]}, _BAD_VERTICES),
    ({"vertices": [{"weight": 2}]}, _BAD_VERTICES),
    ({"vertices": [[0, 2]]}, _BAD_VERTICES),
    ({"vertices": [{"id": "0", "weight": 2}]}, _BAD_VERTICES),
    ({"vertices": [{"id": 0, "weight": 2.5}]}, _BAD_VERTICES),
    ({"vertices": [{"id": True, "weight": 2}]}, _BAD_VERTICES),
    ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [[0]]}, _BAD_EDGES),
    ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [[[0], 1]]}, _BAD_EDGES),
    ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": {"0": 1}}, _BAD_EDGES),
    ({"vertices": [{"id": 0, "weight": 2}], "wu": [2]}, _BAD_WU),
    ({"vertices": [{"id": 0, "weight": 2}], "wu": "0"}, _BAD_WU),
    # booleans are refused in every int slot
    ({"vertices": [{"id": 0, "weight": False}]}, _BAD_VERTICES),
    ({"vertices": [{"id": 0, "weight": 2}, {"id": 1, "weight": 2}], "edges": [[0, True]]}, _BAD_EDGES),
    ({"vertices": [{"id": 0, "weight": 2}], "wu": [True]}, _BAD_WU),
]


# the ids a parametrization over the documents alone gives them
@pytest.mark.parametrize("doc, message", [
    pytest.param(doc, message, id=doc if isinstance(doc, str) else f"doc{k}")
    for k, (doc, message) in enumerate(_BAD_SHAPES)
])
def test_graph_from_json_rejects_bad_shapes(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        graph_from_json(doc)


def test_package_exports_every_public_name():
    public = {
        name for name in dir(spindefect)
        if not name.startswith("_")
        and not isinstance(getattr(spindefect, name), types.ModuleType)
    }
    assert public == set(spindefect.__all__)
    assert "wu_solutions" in spindefect.__all__
