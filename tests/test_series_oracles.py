"""Series elements on the packed kernel against the dict arithmetic it replaced.

A `SeriesElement` is the 1 x 1 case of the kernel in `padic`: its sum,
difference, negation, product, inverse, m-adic depth and p-content are
`_add`, `_mul`, `_newton` and `_valuations`.  The oracles below are the
arithmetic it used to carry itself, over dicts from monomial index to
residue: the dict product over the ring's product table, the Newton loop
x <- x(2 - ux) on such dicts, and the per-term valuations.  They read an
element only through its `coeffs` view.
"""

import itertools
import random

import pytest

from tamelab.errors import NonUnit
from tamelab.matgrp import RingMatrix, _from_entries
from tamelab.padic import SeriesElement, SeriesRing, _Layout, int_valuation


def _terms(x):
    """x as a dict from monomial index to residue."""
    index = _Layout(x.ring).index
    return {index[e]: c for e, c in x.coeffs.items()}


def _reduce(ring, raw):
    """The coefficient dict (exponent tuple -> nonzero residue) of raw."""
    layout = _Layout(ring)
    return {
        layout.monos[i]: c % layout.mods[i] for i, c in raw.items() if c % layout.mods[i]
    }


def _oracle_add(a, b, sign=1):
    raw = dict(a)
    for i, c in b.items():
        raw[i] = raw.get(i, 0) + sign * c
    return raw


def _oracle_mul(ring, a, b):
    """The dict product over the product table, reduced once."""
    layout, acc = _Layout(ring), {}
    for i, c1 in a.items():
        row = layout[i]
        for j, c2 in b.items():
            if j < len(row):
                acc[row[j]] = acc.get(row[j], 0) + c1 * c2
    mods = layout.mods
    return {k: c % mods[k] for k, c in acc.items() if c % mods[k]}


def _oracle_inv(ring, u):
    """x <- x(2 - ux) from the inverse of the constant term, on dicts."""
    x = {0: pow(u[0], -1, ring.p**ring.trunc)}
    depth = 1
    while depth < ring.trunc:
        ux = _oracle_mul(ring, u, x)
        x = _oracle_mul(ring, x, _oracle_add({0: 2}, ux, -1))
        depth *= 2
    return x


def _oracle_valuations(ring, a):
    """(degree, p-adic valuation) of each term."""
    degs, p, trunc = _Layout(ring).degs, ring.p, ring.trunc
    return [(degs[i], int_valuation(c, p, trunc - degs[i])) for i, c in a.items()]


def _random_element(rng, ring, kind):
    """A zero, unit, non-unit or random element, built from unreduced ints."""
    layout, p = _Layout(ring), ring.p
    if kind == "zero":
        raw = {i: rng.randrange(-2, 3) * mod for i, mod in enumerate(layout.mods)}
    else:
        raw = {
            i: rng.randrange(-3 * mod, 3 * mod)
            for i, mod in enumerate(layout.mods)
            if rng.random() < 0.6
        }
        if kind == "unit":
            raw[0] = rng.randrange(1, p) + p * rng.randrange(p**ring.trunc)
        elif kind == "non-unit":
            raw[0] = p * rng.randrange(p**ring.trunc)
    return ring.from_terms({layout.monos[i]: c for i, c in raw.items()})


_KINDS = ("zero", "unit", "non-unit", "random")


@pytest.mark.parametrize("trunc", range(1, 6))
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n_vars", [0, 1, 2])
def test_series_arithmetic_matches_the_dict_oracles(n_vars, p, trunc):
    ring = SeriesRing(p, n_vars, trunc)
    rng = random.Random(100 * n_vars + 10 * p + trunc)
    xs = [_random_element(rng, ring, kind) for kind in _KINDS for _ in range(3)]
    for x, y in itertools.product(xs, repeat=2):
        a, b = _terms(x), _terms(y)
        assert dict((x + y).coeffs) == _reduce(ring, _oracle_add(a, b))
        assert dict((x - y).coeffs) == _reduce(ring, _oracle_add(a, b, -1))
        assert dict((x * y).coeffs) == _reduce(ring, _oracle_mul(ring, a, b))
    for x in xs:
        a = _terms(x)
        assert dict((-x).coeffs) == _reduce(ring, {i: -c for i, c in a.items()})
        pairs = _oracle_valuations(ring, a)
        assert x.m_adic_depth() == min((d + v for d, v in pairs), default=trunc)
        assert x.p_content() == min((v for _, v in pairs), default=trunc)
        if a.get(0, 0) % p:
            inverse = x.inv()
            assert dict(inverse.coeffs) == _reduce(ring, _oracle_inv(ring, a))
            assert x * inverse == ring.one() == inverse * x
        else:
            with pytest.raises(NonUnit):
                x.inv()


def _five_ways(ring, n):
    """The constant n of ring built by from_terms, from_int, arithmetic,
    RingMatrix.rows and a JSON round trip."""
    one, modulus = ring.one(), ring.p**ring.trunc
    x = ring.from_terms({(0,) * ring.n_vars: n + modulus})
    t = ring.variable(0) if ring.n_vars else ring.from_int(ring.p)
    return [
        x,
        ring.from_int(n),
        (ring.from_int(n) + t) * one - t,
        _from_entries(ring, 2, {}, x).rows[1][1],
        SeriesElement.from_json(ring, x.to_json()),
    ]


@pytest.mark.parametrize(
    "ring",
    [SeriesRing(3, 0, 2), SeriesRing(3, 1, 4), SeriesRing(5, 2, 3), SeriesRing(7, 2, 5)],
    ids=repr,
)
def test_equality_and_hash_agree_however_an_element_is_built(ring):
    for n in (0, 1, ring.p, 2 + ring.p**2):
        ways = _five_ways(ring, n)
        assert all(w == ways[0] for w in ways) and len(set(ways)) == 1
        assert len({hash(w) for w in ways}) == 1
    # a non-constant element (from_int makes only constants)
    x = ring.from_terms({e: 1 + i for i, e in enumerate(_Layout(ring).monos)})
    ways = [
        x,
        ring.from_terms({e: c - ring.p**ring.trunc for e, c in x.coeffs.items()}),
        (x + ring.one()) - ring.one(),
        RingMatrix(ring, [[ring.zero(), x], [x, x]]).rows[1][0],
        SeriesElement.from_json(ring, x.to_json()),
    ]
    assert all(w == x for w in ways) and len({hash(w) for w in ways}) == 1
