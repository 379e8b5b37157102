"""Plumbing trees: intersection forms, Wu classes, blow-downs, and compilation
of spin Seifert data into spin plumbed 4-manifolds.

A plumbing tree is a finite weighted tree; the plumbed 4-manifold it encodes
has intersection matrix M with M_ii the weight of vertex i and M_ij = 1 on
edges.  A Wu vector is a GF(2) solution w of M w = diag(M); w = 0 exactly
when all weights are even, i.e. when the 4-manifold is spin.  For a tree
bounding a spherical space form with spin structure matched to w,

    delta = sign(M) - w.M.w

which gives a third, homological route to the defect, independent of both
the closed-form catalog and the torus-splitting engine.  ``blow_down``
removes a +-1 vertex; the multiset of defects over all Wu vectors is
invariant under it, which is how the routine is tested.

The signature of a tree is found in linear time by eliminating vertices from
the leaves to the root: each vertex's effective weight is its weight minus
the reciprocals of its children's effective weights, a continued fraction
over its subtree (Neumann's plumbing calculus, Trans. AMS 268, 1981).  A tree
has no fill-in, so nothing else changes as a vertex goes.  The dense
rational congruent diagonalization ``signature`` stays as the reference it
is tested against.  All signature work is exact; nothing here touches
floating point.

The Wu vectors come from the same leaf-to-root order over GF(2).  A vertex
whose reduced diagonal is 1 is solved in terms of its parent and folded
into the parent's equation; one whose reduced diagonal is 0 fixes its
parent at 0, and its own value is then defined by the parent's equation,
or is free when a sibling already fixed the parent.  Back-substitution from
the root gives every solution as an affine form in the free variables, so
the whole solve is linear in the tree, with no fill-in and no dense matrix.

Both passes run over positions in one rooted order of the tree, stored
once per graph as three aligned lists: the vertex ids with the root first
and every vertex after its parent, their weights, and each parent's
position.  Every tree edge joins a vertex to its parent, so the passes
need nothing else.  Every builder makes its tree through ``_tree``, which
puts each vertex after its parent, and those lists are all a builder's
tree stores, with its runs: its ``vertices`` and ``edges`` fields and its
weight and adjacency maps are derived from them on first use, so a tree
that is only compiled, solved and measured never builds any of them.
``chain_graph`` and ``star_graph`` put each weight through ``int()``;
``parse_star`` and the compile path hand their ints to ``_tree`` as they
are.  A graph from the validating constructor stores the fields it was
given and gets the lists once, from its connectivity check.  Every attribute a
graph derives, fields, maps, lists, its odd vertices and its inertia,
comes from one table, ``_DERIVE``, read on first use and stored in the
instance dict.  Each name is a small descriptor on the class, so the first
read is one call and every later read finds the stored value.
The odd vertices are found from the distinct weights, so an all-even tree
has none without a look at each vertex.

A run is a stretch of at least three vertices of one weight w below the
root, each but the lowest with one child, the next; the builders record
each maximal run in an arm, and the even expansions a compiled tree is
made of are mostly long runs of +-2.  An arm of one weight throughout is
recognised as one run by ``list.count``, and only a mixed arm is grouped
into runs in Python.  Both passes cross a run in one step.  The inertia
pass does when the lowest vertex's effective weight has w's sign and
absolute value at least 1 and |w| >= 2: every vertex above then has w's
sign, and the top's effective weight is a product of the run's transfer
matrix, in closed form for w = +-2.  The Wu pass does when w is even:
either every vertex above an unpinned lowest vertex with reduced diagonal
1 has diagonal 1, and the forms alternate f, 1 + f, or pinned vertices,
which read 0, alternate with ones that all carry one form.
"""

from __future__ import annotations

import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction

from .errors import NoSolution, NoSpinForm
from .seifert import LensSpace, SeifertData, SpinAssignment, spin_conditions_hold
from .sigma import _even_cf

__all__ = [
    "PlumbingGraph",
    "WuVector",
    "intersection_matrix",
    "signature",
    "wu_solutions",
    "plumbing_delta",
    "blow_down",
    "seifert_to_plumbing",
    "star_graph",
    "chain_graph",
    "parse_star",
    "graph_to_json",
    "graph_from_json",
]

_KERNEL_CAP = 12  # refuse to enumerate GF(2) kernels of dimension above this
_MIN_RUN = 3  # a run needs an interior vertex for a pass to step over
_TO_THE_ROOT = ((0, None),)  # a pass's one stretch on a tree without runs


@dataclass(frozen=True)
class PlumbingGraph:
    """A weighted tree: vertices as (id, weight) pairs, edges as id pairs.

    The empty graph is allowed (it is the terminal state of blow-down
    sequences); any nonempty graph must be a connected tree.  A builder's
    tree (``_tree``) stores only its rooted arrays and its runs, and derives
    ``vertices``, ``edges`` and the lookup maps on first use, storing each
    one once; ==, hash and repr read the fields, so they see the same graph
    either way.  Each name in ``_DERIVE`` is served by a ``_Derived``
    descriptor installed on this class, which stores what it derives in the
    instance dict.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    # {bottom position: top position} of each run a builder found (_tree);
    # a validated graph has none
    _runs = types.MappingProxyType({})

    def __init__(self, vertices, edges=()):
        vertices = tuple([(int(i), int(w)) for i, w in vertices])
        weight = dict(vertices)
        if len(weight) != len(vertices):
            raise ValueError("duplicate vertex ids")
        norm = []
        for e in edges:
            i, j = e
            if i == j or i not in weight or j not in weight:
                raise ValueError(f"bad edge {e!r}")
            norm.append((j, i) if j < i else (i, j))
        norm.sort()
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_weight", weight)
        # n - 1 edges that reach every vertex from the first are a tree, with
        # no edge repeated, so the search rejects a repeated edge too; only
        # a graph that is not a tree pays for naming its fault: a repeated
        # edge first, then the edge count, then connectivity
        n = len(vertices)
        if n and (len(norm) != n - 1 or len(self._rooted[0]) != n):
            if len(set(norm)) != len(norm):
                raise ValueError("duplicate edges")
            if len(norm) != n - 1:
                raise ValueError("not a tree: |edges| != |vertices| - 1")
            raise ValueError("not a tree: graph is disconnected")

    def __len__(self):
        return len(self._rooted[0])

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.vertices)

    def weight(self, v: int) -> int:
        return self._weight[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])


def _derive_edges(g: PlumbingGraph) -> tuple[tuple[int, int], ...]:
    """A builder's edges: each (parent, child) pair of its rooted order is an
    edge already in (min, max) form."""
    order, _, up = g._rooted
    return tuple(sorted(zip([order[p] for p in up[1:]], order[1:])))


def _derive_adj(g: PlumbingGraph) -> dict[int, list[int]]:
    """Each vertex's neighbours, in ascending order because the edges come
    sorted, built in one pass over them; read by the connectivity search,
    ``neighbors`` / ``degree``, a Wu check on a nonempty support and
    ``blow_down``.  The lists stay private: ``neighbors`` hands out
    tuples."""
    adj = {i: [] for i, _ in g.vertices}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _derive_rooted(g: PlumbingGraph) -> tuple[list[int], list[int], list[int]]:
    """(order, weights, up) of a validated graph: the vertex ids in
    breadth-first order from the first vertex (every vertex after its
    parent, neighbours in ascending order), their weights, and each one's
    parent as a position in ``order``, -1 at the root; ([], [], []) for the
    empty graph.  Found once, by this search, which doubles as the
    connectivity check: on a graph that is not a tree ``order`` misses the
    vertices the search did not reach."""
    if not g.vertices:
        return [], [], []
    adj = g._adj
    root = g.vertices[0][0]
    seen = {root}
    order = [root]
    up = [-1]
    for i, v in enumerate(order):
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
                up.append(i)
    return order, list(map(g._weight.__getitem__, order)), up


def _derive_odd(g: PlumbingGraph) -> frozenset[int]:
    """The vertices of odd weight, the only ones a Wu check must reach
    beyond the support.  The odd values are picked from the distinct
    weights, so an all-even tree, as every compiled one is, reads no
    vertex's weight in Python."""
    order, weights, _ = g._rooted
    odd = {w for w in set(weights) if w & 1}
    if not odd:
        return frozenset()
    return frozenset(itertools.compress(order, map(odd.__contains__, weights)))


@dataclass(frozen=True)
class WuVector:
    """Support of a GF(2) characteristic vector: the ids with eps = 1."""

    support: frozenset[int]

    def __init__(self, support=()):
        object.__setattr__(self, "support", frozenset(map(int, support)))

    def as_bits(self, g: PlumbingGraph) -> tuple[int, ...]:
        self._check_in(g)
        return tuple(1 if i in self.support else 0 for i in g.ids)

    def _check_in(self, g: PlumbingGraph) -> None:
        # an empty support is in every graph, and reads none of its maps
        unknown = self.support and self.support.difference(g._weight)
        if unknown:
            raise ValueError(f"Wu support {sorted(unknown)} not in the graph")


def _wu_vector(support: frozenset[int]) -> WuVector:
    """The WuVector of a frozenset of int ids, kept as it is, without the copy
    through ``int()`` that ``WuVector()`` makes of outside input."""
    w = object.__new__(WuVector)
    object.__setattr__(w, "support", support)
    return w


_NO_WU = WuVector()  # the zero vector, shared: a WuVector is immutable


def intersection_matrix(g: PlumbingGraph) -> list[list[int]]:
    """M with M_ii = weight(i), M_ij = 1 on edges, in vertex order."""
    index = {v: k for k, v in enumerate(g.ids)}
    n = len(g)
    m = [[0] * n for _ in range(n)]
    for k, (_, w) in enumerate(g.vertices):
        m[k][k] = w
    for i, j in g.edges:
        m[index[i]][index[j]] = 1
        m[index[j]][index[i]] = 1
    return m


def signature(m) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix, exactly.

    Congruent diagonalization over the rationals: pick a nonzero diagonal
    pivot and clear its row/column; when the active diagonal vanishes but an
    off-diagonal entry b survives, the 2x2 block [[0,b],[b,0]] splits off a
    hyperbolic (+1,-1) pair.  No eigenvalues, no floating point.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    plus = minus = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                plus += 1
            else:
                minus += 1
            active.remove(piv)
            for r in active:
                if a[r][piv] == 0:
                    continue
                f = a[r][piv] / d
                for s in active:
                    a[r][s] -= f * a[piv][s]
            for r in active:
                a[r][piv] = a[piv][r] = Fraction(0)
            continue
        off = next(
            ((i, j) for i, j in itertools.combinations(active, 2) if a[i][j] != 0),
            None,
        )
        if off is None:
            break  # remaining block is zero
        i, j = off
        b = a[i][j]
        plus += 1
        minus += 1
        active.remove(i)
        active.remove(j)
        for r in active:
            ci, cj = a[r][i], a[r][j]
            if ci == 0 and cj == 0:
                continue
            for s in active:
                a[r][s] -= (ci * a[j][s] + cj * a[i][s]) / b
        for r in active:
            a[r][i] = a[i][r] = a[r][j] = a[j][r] = Fraction(0)
    return plus, minus, n - plus - minus


def _wu_forms(g: PlumbingGraph) -> tuple[list[int], int]:
    """Solve M x = diag(M) over GF(2) from the leaves to the root.

    Returns (x, k): x[i], for the vertex at position i of ``g._rooted``, as
    an affine form over the k free variables, bit 0 its constant and bit
    j + 1 free variable j.  Eliminating leaves first is a perfect
    elimination order on a tree, so once v's children are done its equation
    holds only x_v, x_parent and the x of its children with reduced diagonal
    0.  That diagonal, eff_v, is w_v mod 2 plus the number of children with
    eff 1, and it is also the equation's right-hand side: folding in an
    eff-1 child flips both.

    - eff 1: x_v = 1 + x_parent, folded into the parent's equation.
    - eff 0: the equation reads x_parent = 0.  The first such child c pins
      its parent v to 0, and v's equation then defines x_c; each later one,
      and an eff-0 root no child pins, is a free variable.

    Every equation is used or reads 0 = 0, so the system is always solvable,
    as it is for any symmetric form.  Raises NoSolution past the enumeration
    cap, before any form is built.

    A run of even weight (``g._runs``) is crossed in one step, because each
    of its vertices has one child and its state follows from that child's.
    Above an unpinned eff-1 bottom every vertex has eff 1, and back-
    substitution alternates f, 1 + f down the run.  Otherwise pinned and
    eff-0 vertices alternate up the run: the pinned ones read 0 and the
    others all carry one form.  Either way only the top's state is needed,
    and the forms below it are filled in by slices.  Odd-weight runs are
    taken one vertex at a time.
    """
    _, weights, up = g._rooted
    n = len(weights)
    # an all-even tree, which every compiled one is, starts from all zeros
    eff = [w & 1 for w in weights] if g._odd else [0] * n
    pin = [-1] * n  # a pinned vertex's first eff-0 child, the one its equation defines
    later = {}  # a pinned vertex's later eff-0 children, each a free variable
    free = []
    even_runs = [(bottom, top) for bottom, top in g._runs.items() if not weights[bottom] & 1]
    stop = n
    # leaves first, run by run; the last stretch, (0, None), ends at the root
    for bottom, top in [*reversed(even_runs), (0, None)] if even_runs else _TO_THE_ROOT:
        for i in range(stop - 1, bottom - 1, -1):
            if pin[i] >= 0:
                continue  # x_v = 0: nothing to fold into the parent
            p = up[i]
            if eff[i]:
                if p >= 0:
                    eff[p] ^= 1
            elif p < 0:
                free.append(i)
            elif pin[p] >= 0:
                free.append(i)
                later.setdefault(p, []).append(i)
            else:
                pin[p] = i
        if top is None:
            break
        # only the top's state is read again: back-substitution fills in the
        # forms below it
        stop = top + 1
        if eff[bottom] and pin[bottom] < 0:
            eff[top] = 1
        else:
            first_pinned = bottom if pin[bottom] >= 0 else bottom - 1
            if (first_pinned - top) % 2 == 0:
                pin[top] = top + 1
    if len(free) > _KERNEL_CAP:
        raise NoSolution(
            f"GF(2) kernel dimension {len(free)} exceeds the enumeration cap"
        )
    x = [-1] * n  # -1: not yet set
    for j, i in enumerate(free):
        x[i] = 2 << j
    first = 0
    # root first, so that x_parent is known before x_v, jumping each run's interior
    for top, bottom in [*((top, bottom) for bottom, top in even_runs), (n - 1, None)]:
        for i in range(first, top + 1):
            p = up[i]
            above = 0 if p < 0 else x[p]
            c = pin[i]
            if c >= 0:
                x[i] = 0
                f = eff[i] ^ above
                for extra in later.get(i, ()):
                    f ^= x[extra]
                x[c] = f
            elif x[i] < 0:  # free variables and defined children are set
                x[i] = 1 ^ above
        if bottom is None:
            break
        # the forms repeat with period 2 below the top
        even = x[top]
        if pin[top] >= 0:
            odd = x[top + 1]
        elif eff[top]:
            odd = even ^ 1
        else:
            odd = 0
        x[top + 1:bottom + 1:2] = [odd] * ((bottom - top + 1) // 2)
        x[top + 2:bottom + 1:2] = [even] * ((bottom - top) // 2)
        first = bottom
    return x, len(free)


def wu_solutions(g: PlumbingGraph) -> list[WuVector]:
    """All Wu vectors of the tree, deterministically ordered.

    The system M x = diag(M) over GF(2) is always solvable (the diagonal
    functional vanishes on the kernel of a symmetric form); it is solved in
    one pass from the leaves to the root, O(n) up to the 2^k solutions of a
    kernel of dimension k.  NoSolution is raised when k exceeds the
    enumeration cap.  The positions are grouped by their nonzero affine
    form once, by a sort, so a solution's support is the union of the
    groups whose form is odd there.  Solutions are checked against the fact
    that no two adjacent vertices can both carry eps = 1; every tree edge
    joins a vertex to its parent, so the check reads each support vertex's
    parent.
    """
    if len(g) == 0:
        return [_NO_WU]
    order, _, up = g._rooted
    x, k = _wu_forms(g)
    by_form = sorted(itertools.compress(range(len(x)), x), key=x.__getitem__)
    groups = [(f, list(at_f)) for f, at_f in itertools.groupby(by_form, x.__getitem__)]
    sols = []
    for free in range(1 << k):
        at = free << 1 | 1  # the constant bit, then the free variables' values
        support = set().union(*[at_f for f, at_f in groups if (f & at).bit_count() & 1])
        if not support.isdisjoint(map(up.__getitem__, support)):
            i = next(i for i in support if up[i] in support)
            u, v = sorted((order[i], order[up[i]]))
            raise AssertionError(f"adjacent Wu pair {u},{v}: not a plumbing tree?")
        sols.append(_wu_vector(frozenset(map(order.__getitem__, support))))
    sols.sort(key=lambda w: sorted(w.support))
    return sols


def _is_wu(g: PlumbingGraph, w: WuVector) -> bool:
    """Whether (M w)_v = M_vv mod 2 at every vertex v, read off the tree.

    (M w)_v is w_v M_vv plus the number of support neighbours of v, so the
    condition is that this count has the parity of M_vv when v is outside
    the support, and is even when v is in it: the vertices with an odd
    count must be exactly the odd-weight vertices outside the support.
    Only the support's neighbour lists are read, and none for the zero
    vector, which is a Wu vector exactly when every weight is even.
    """
    support = w.support
    if not support:
        return not g._odd  # an empty support is in every graph
    w._check_in(g)
    odd_count = set()
    for v in support:
        odd_count.symmetric_difference_update(g._adj[v])
    return odd_count == g._odd - support


def _tree_inertia(g: PlumbingGraph) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of the intersection form of a tree.

    Linear time, exact, no recursion.  Vertices are eliminated from the
    leaves to the root (the first vertex); each vertex's effective weight is
    its weight minus the reciprocals of its children's nonzero effective
    weights, and its sign is one diagonal entry.  The effective weight is
    kept as an unreduced integer ratio num/den: as long as no zero turns up
    below v these are det(subtree of v) and det(subtree of v minus v), so
    they grow no faster than the determinants.

    A child with effective weight 0 is a vertex whose only link is the
    edge to its parent.  With the parent it splits off a hyperbolic
    (+1, -1) block, and clearing the parent's other entries with it changes
    nothing else, so the parent is removed and contributes nothing to its
    own parent.  Any further zero child of that parent is then isolated and
    adds one to n_zero.

    A run of weight w (``g._runs``), whose vertices each have one child, is
    crossed in one step when its bottom's effective weight a/b has the sign
    of w, with |a| >= |b| and |w| >= 2.  Then each vertex above has
    |w - 1/x| >= |w| - 1 >= 1 and w's sign, so the m - 1 vertices strictly
    between bottom and top (m = bottom - top) all count with w's sign, and
    the top's (num, den) is (U_m a - U_{m-1} b, U_{m-1} a - U_{m-2} b),
    exactly what the step (num, den) -> (w num - den, num) reaches in m
    steps (``_run_continuants``).  A bottom that fails the test is followed
    one vertex at a time.  Every run of a compiled arm passes it: each tail
    of an even expansion exceeds 1 in absolute value and has the sign of
    its first entry.
    """
    _, weights, up = g._rooted
    n = len(weights)
    num = list(weights)
    den = [1] * n
    zero_children = [0] * n
    plus = minus = zero = 0
    runs = g._runs
    stop = n
    # leaves first, run by run; the last stretch, (0, None), ends at the root
    for bottom, top in [*reversed(runs.items()), (0, None)] if runs else _TO_THE_ROOT:
        for i in range(stop - 1, bottom - 1, -1):
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
                # eff(p) -= 1 / (a / b)
                num[p] = num[p] * a - den[p] * b
                den[p] *= a
        if top is None:
            break
        stop = bottom
        a, b, w = num[bottom], den[bottom], weights[bottom]
        if -2 < w < 2 or zero_children[bottom] or not a:
            continue
        if ((a > 0) == (b > 0)) != (w > 0) or abs(a) < abs(b):
            continue
        m = bottom - top
        u0, u1, u2 = _run_continuants(w, m)
        num[top] = u2 * a - u1 * b
        den[top] = u1 * a - u0 * b
        if w > 0:
            plus += m - 1
        else:
            minus += m - 1
        stop = top + 1
    return plus, minus, zero


def _run_continuants(w: int, m: int) -> tuple[int, int, int]:
    """(U_{m-2}, U_{m-1}, U_m) for m >= 1, where U_{-1} = 0, U_0 = 1 and
    U_k = w U_{k-1} - U_{k-2}; U_k = (k + 1) (w/2)^k when w = +-2."""
    if w == 2:
        return m - 1, m, m + 1
    if w == -2:
        s = -1 if m & 1 else 1
        return s * (m - 1), -s * m, s * (m + 1)
    u0, u1 = 0, 1
    for _ in range(m - 1):
        u0, u1 = u1, w * u1 - u0
    return u0, u1, w * u1 - u0


class _Derived:
    """A derived attribute of ``PlumbingGraph``, served on first read.

    A non-data descriptor: the first read calls ``_DERIVE[name](g)`` and
    stores the value in the instance dict, which Python consults before a
    non-data descriptor, so every later read finds the value there and
    calls nothing.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __get__(self, g, owner=None):
        if g is None:
            return self
        value = g.__dict__[self.name] = _DERIVE[self.name](g)
        return value


# How each attribute a graph has not stored is derived, on first read; all
# but a builder's ``vertices`` and ``edges`` stay outside ==, hash and repr.
# A builder stores ``_rooted``, so only a validated graph derives it.  Each
# name is served by a ``_Derived`` on the class rather than by
# ``__getattr__``: on CPython 3.11 a first read that missed the instance and
# the class and fell through to ``__getattr__`` cost about 730 ns, against
# about 195 ns through the descriptor (timeit, both storing the value), and
# a compiled tree reads ``_odd`` and ``_inertia`` once each.
_DERIVE = {
    "vertices": lambda g: tuple(zip(*g._rooted[:2])),
    "edges": _derive_edges,
    "_weight": lambda g: dict(g.vertices),
    "_adj": _derive_adj,
    "_rooted": _derive_rooted,
    "_odd": _derive_odd,
    "_inertia": _tree_inertia,
}
for _name in _DERIVE:
    setattr(PlumbingGraph, _name, _Derived(_name))
del _name


def plumbing_delta(g: PlumbingGraph, w: WuVector) -> int:
    """sign(M) - w.M.w for a Wu vector w (integer 0/1 lift).

    sign(M) is computed once per graph, however many Wu vectors are asked.
    """
    if not _is_wu(g, w):
        raise ValueError(f"{sorted(w.support)} is not a Wu vector of the graph")
    plus, minus, _ = g._inertia
    support = w.support
    if not support:
        return plus - minus
    # a support vertex has an even number of support neighbours (_is_wu),
    # which in a forest means none: w.M.w has no cross terms
    return (plus - minus) - sum(g.weight(v) for v in support)


def blow_down(g: PlumbingGraph, w: WuVector, v: int) -> tuple[PlumbingGraph, list[WuVector]]:
    """Remove a +-1 vertex of degree <= 2, reconnecting across it.

    Each neighbor loses the blown-down weight; the two neighbors of a
    degree-2 vertex become adjacent.  Returns the reduced tree together
    with its full Wu-solution set; the multiset of defects over that set
    matches the input graph's.
    """
    if not _is_wu(g, w):
        raise ValueError(f"{sorted(w.support)} is not a Wu vector of the graph")
    wv = g.weight(v)
    if wv not in (1, -1):
        raise ValueError(f"vertex {v} has weight {wv}, need +-1")
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        raise ValueError(f"vertex {v} has degree {len(nbrs)} > 2")
    new_vertices = [(i, wt - wv if i in nbrs else wt) for i, wt in g.vertices if i != v]
    new_edges = [e for e in g.edges if v not in e]
    if len(nbrs) == 2:
        new_edges.append((min(nbrs), max(nbrs)))
    g2 = PlumbingGraph(new_vertices, new_edges)
    return g2, wu_solutions(g2)


# ---------------------------------------------------------------------------
# builders and compilation


def _tree(root, arms, start_id: int = 0) -> PlumbingGraph:
    """The tree of every builder, not re-validated: the root, then each arm
    as a chain hanging off it.

    ``root`` holds the root's weight, or nothing for the empty chain; each
    arm is a sequence of ints, taken as it is (``int()`` is the public
    builders' job).  The vertex at position i gets id ``start_id + i``, ids
    run along each arm, arm after arm, and every vertex comes after its
    parent, so the positions are a rooted order, stored as ``_rooted``
    without a search.  Graphs from outside come through
    ``PlumbingGraph.__init__`` instead.

    Each maximal run of at least ``_MIN_RUN`` equal weights in an arm is
    stored in ``_runs`` as {bottom position: top position}, so that the
    passes can step over its interior (``_tree_inertia``, ``_wu_forms``).
    An arm of one weight throughout, as most compiled arms are, is found to
    be one run by ``list.count``; only a mixed arm is grouped.
    """
    weights = list(root)
    up = [-1] * len(weights)
    runs = {}
    for arm in arms:
        first = len(weights)
        n = len(arm)
        if not n:
            continue
        weights += arm
        up.append(0)
        up += range(first, first + n - 1)
        if n < _MIN_RUN:
            continue
        if arm.count(arm[0]) == n:
            runs[first + n - 1] = first
            continue
        top = first
        for _, same in itertools.groupby(arm):
            bottom = top + len(list(same)) - 1
            if bottom - top >= _MIN_RUN - 1:
                runs[bottom] = top
            top = bottom + 1
    g = object.__new__(PlumbingGraph)
    object.__setattr__(g, "_rooted", (list(range(start_id, start_id + len(weights))), weights, up))
    if runs:
        object.__setattr__(g, "_runs", runs)
    return g


def chain_graph(weights, start_id: int = 0) -> PlumbingGraph:
    """Linear chain with consecutive ids from ``start_id``, in weight order;
    its vertices below the root are one arm.  Each weight goes through
    ``int()`` here, before ``_tree``, so numpy ints and booleans come out as
    ints."""
    weights = list(map(int, weights))
    return _tree(weights[:1], [weights[1:]], start_id)


def star_graph(center_weight: int, arms) -> PlumbingGraph:
    """Star-shaped tree: center id 0, each arm a chain hanging off it.

    Ids are consecutive along each arm, arm after arm, and every new vertex
    hangs off an earlier one, so ``_tree`` builds it as a tree by
    construction, in a rooted order, without ``PlumbingGraph``'s
    re-validation.  The arms are read first, and then each weight goes
    through ``int()`` here, the center's first.
    """
    arms = [list(arm) for arm in arms]
    return _tree([int(center_weight)], [list(map(int, arm)) for arm in arms])


def seifert_to_plumbing(s, c=None) -> tuple[PlumbingGraph, WuVector]:
    """Spin plumbing tree bounded by (S, c); the Wu vector is always zero.

    For three-fiber data: rewrite each (a_i, b_i) as (a_i, b_i') with
    |b_i'| < a_i and b_i' of opposite parity to a_i, which is possible in
    exactly one way compatible with the transported labels vanishing on the
    meridians; the extracted integer framings sum to an even central weight.
    The tree is the star with center -sum(shifts) and arms the even
    expansions of a_i / b_i'.  Lens spaces compile to a single chain.
    """
    if isinstance(s, LensSpace):
        return _lens_to_plumbing(s)
    if not isinstance(s, SeifertData) or not s.is_spherical_candidate():
        raise ValueError("need a LensSpace or three-fiber spherical SeifertData")
    if not isinstance(c, SpinAssignment) or not spin_conditions_hold(s, c):
        raise NoSpinForm(f"labels are not a spin structure on {s.pairs}")
    # c(h) = 0 is forced by the 2-fiber, so the meridian condition reads
    # k_i = c(g_i) mod 2; of the two integers with |b_i - a_i k_i| < a_i
    # exactly one has the right parity
    shifts = []
    arms = []
    for (a, b), cg in zip(s.pairs, c.cg):
        k = b // a  # floor; candidates are k and k+1
        if k % 2 != cg:
            k += 1
        bp = b - a * k
        assert 0 < abs(bp) < a and (a + bp) % 2 == 1, (a, b, k)
        shifts.append(k)
        # gcd(a, bp) = gcd(a, b) = 1 from SeifertData: the kernel's domain
        arms.append(_even_cf(a, bp))
    total = sum(shifts)
    assert total % 2 == 0, "meridian shifts should sum to an even framing"
    # the expansions are ints, so they go to the tree without int()
    g = _tree([-total], arms)
    assert _is_wu(g, _NO_WU)
    return g, _NO_WU


def _lens_to_plumbing(lens: LensSpace) -> tuple[PlumbingGraph, WuVector]:
    p, q, eps = lens.p, lens.q, lens.eps
    if p == 1:
        return _tree([], []), _NO_WU
    # the eps = -1 chain expands q' = q, the eps = +1 chain q' = q + p, with
    # q' reduced mod 2p into (-p, p); for p odd the admissible eps makes q'
    # even, which is the spin chain; gcd(p, q') = gcd(p, q) = 1 from
    # LensSpace, so q' != 0 and the pair is in the kernel's domain
    qp = (q + (p if eps == 1 else 0)) % (2 * p)
    if qp >= p:
        qp -= 2 * p
    entries = _even_cf(-p, qp)
    g = _tree(entries[:1], [entries[1:]])
    assert _is_wu(g, _NO_WU)
    return g, _NO_WU


# ---------------------------------------------------------------------------
# text and JSON forms


def parse_star(text: str) -> PlumbingGraph:
    """Parse "(a; c1,c2; d1; e1,e2,e3)": center weight, then arm chains."""
    stripped = "".join(text.split())
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped:
        raise ValueError("empty star description")
    parts = stripped.split(";")
    try:
        center = int(parts[0])
        arms = [[int(tok) for tok in arm.split(",") if tok != ""] for arm in parts[1:]]
    except ValueError:
        raise ValueError(f"cannot read star weights from {text!r}") from None
    if any(not arm for arm in arms):
        raise ValueError("empty arm in star description")
    return _tree([center], arms)


def graph_to_json(g: PlumbingGraph, w: WuVector | None = None) -> dict:
    doc = {
        "vertices": [{"id": i, "weight": wt} for i, wt in g.vertices],
        "edges": [list(e) for e in g.edges],
    }
    if w is not None:
        doc["wu"] = list(w.as_bits(g))
    return doc


def graph_from_json(doc: dict) -> tuple[PlumbingGraph, WuVector | None]:
    """Read the form written by ``graph_to_json``; ValueError on any other shape.

    Ids, weights, edge ends and Wu bits must be of type int exactly, so
    booleans are refused.
    """
    if not isinstance(doc, dict):
        raise ValueError("graph JSON must be an object")
    bad_vertices = '"vertices" must be a list of {"id": int, "weight": int}'
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        raise ValueError(bad_vertices)
    pairs = []
    for v in vertices:
        if not isinstance(v, dict):
            raise ValueError(bad_vertices)
        i, w = v.get("id"), v.get("weight")
        if type(i) is not int or type(w) is not int:
            raise ValueError(bad_vertices)
        pairs.append((i, w))
    bad_edges = '"edges" must be a list of [int, int] pairs'
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError(bad_edges)
    ends = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(bad_edges)
        i, j = e
        if type(i) is not int or type(j) is not int:
            raise ValueError(bad_edges)
        ends.append((i, j))
    g = PlumbingGraph(pairs, ends)
    w = None
    if "wu" in doc:
        bits = doc["wu"]
        if not isinstance(bits, list) or not all(type(b) is int and 0 <= b <= 1 for b in bits):
            raise ValueError('"wu" must be a list of 0/1')
        if len(bits) != len(g):
            raise ValueError("wu vector length does not match vertex count")
        w = WuVector(i for (i, _), b in zip(g.vertices, bits) if b)
    return g, w
