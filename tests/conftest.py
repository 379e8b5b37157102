"""Shared fixtures, and Hypothesis strategies that draw valid data by construction."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from spindefect.seifert import SeifertData, _euler_numerator

# the spherical multiplicity triples, with the dihedral family cut at n = 12
PLATONIC = [(2, 2, n) for n in range(2, 13)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]


@pytest.fixture
def rng():
    # one fixed stream per test so failures replay exactly
    return random.Random(0x5EED)


def coprime_pairs(limit):
    """All (p, q) with 1 <= q < p <= limit, gcd = 1."""
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


@functools.cache
def coprime_to(a, b_max):
    """b in [-b_max, b_max] with gcd(a, b) = 1, for any integer a; shrinks
    toward small |b|."""
    units = (b for b in range(-b_max, b_max + 1) if math.gcd(a, b) == 1)
    return st.sampled_from(sorted(units, key=lambda b: (abs(b), b)))


def pairs_of(firsts, seconds):
    """(x, y) with x drawn from ``firsts`` and y from ``seconds(x)``."""
    return firsts.flatmap(lambda x: seconds(x).map(lambda y: (x, y)))


@st.composite
def seifert_data(draw, b_max=30, engine=False):
    """One to three fibers with a <= 12 and |b| <= b_max; with ``engine``,
    three fibers and an even a, the splitting engine's domain.  Three fibers
    are a permuted spherical triple or carry an a = 1 fiber, as
    ``SeifertData`` requires.  Half of them mirror a fiber onto one of the
    same multiplicity, (a, -b), so that a_1 b_2 + a_2 b_1 can vanish."""
    m = 3 if engine else draw(st.integers(1, 3))
    mirror = m == 3 and draw(st.booleans())
    if m == 3 and draw(st.booleans()):
        triples = [t for t in PLATONIC if len(set(t)) < 3] if mirror else PLATONIC
        mults = draw(st.sampled_from(triples))
    elif m == 3:
        # an a = 1 fiber, an even one for the engine, and a third, which
        # the mirror makes equal to the second
        x = 2 * draw(st.integers(1, 6)) if engine else draw(st.integers(1, 12))
        mults = (1, x, x if mirror else draw(st.integers(1, 12)))
    else:
        mults = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    mults = draw(st.permutations(mults))
    pairs = [(a, draw(coprime_to(a, b_max))) for a in mults]
    if mirror:
        i, j = next((i, j) for i, j in itertools.combinations(range(3), 2)
                    if mults[i] == mults[j])
        pairs[j] = (mults[i], -pairs[i][1])
    assume(_euler_numerator(pairs) != 0)
    return SeifertData(pairs)
