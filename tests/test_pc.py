"""Induced pc sequences against Dimino enumeration.

Over Z/p^N and over truncated series rings alike, a group is a pc sequence
(`pcentral._PcSet`); the same generators are enumerated by Dimino's loop
(`test_pcentral.enumerated_closure`), which `test_pcentral` checks against
breadth-first oracles.  Each pc answer (order, element set, every P_n, the
depth filtration, the uniformity report at every window) must equal the
enumerated one.
"""

import functools
import itertools
import math
import operator
import random
import sys
import time

import pytest

from tamelab.errors import LimitExceeded
from tamelab.matgrp import int_power, sl_standard_generators
from tamelab.padic import ScalarRing, SeriesRing
from tamelab.pcentral import _PcSet, _uniformity, closure, pcentral_series
from test_entries import gamma1_generators
from test_pcentral import _ORACLE_GROUPS, _random_sl2_subgroup_gens, enumerated_closure


def _cli_generators(m, p, prec, k):
    """The generators `tamelab pcentral` closes: Gamma_k mod p^prec."""
    gens = sl_standard_generators(m, p, prec)
    return [int_power(g, p ** (k - 1)) for g in gens]


def _sweep_depths(G):
    """The element sweep: {a: depth of a} over an enumerated G, each depth
    read off the gcd of the entries of a - I over Z/p^N, and off the least
    m-adic depth of an entry over a series ring (I lies in every Gamma_n)."""
    identity, mod, p = G.identity, G.modulus, G.p
    depths = {}
    for a in G.elements:
        if not isinstance(mod, int):
            rows_a, rows_i = (G.to_matrix(x).rows for x in (a, identity))
            diffs = [e - d for r, s in zip(rows_a, rows_i) for e, d in zip(r, s)]
            nonzero = [x.m_adic_depth() for x in diffs if not x.is_zero()]
            depths[a] = min(nonzero, default=float("inf"))
            continue
        diffs = [e - d for e, d in zip(a, identity)]
        g = math.gcd(*(x % mod for x in diffs))
        depth = 0
        while g and g % p == 0:
            g, depth = g // p, depth + 1
        depths[a] = depth if g else float("inf")
    return depths


def _assert_pc_matches_dimino(gens):
    pc = closure(gens)
    enum = enumerated_closure(gens)
    assert isinstance(pc.elements, _PcSet)
    assert isinstance(enum.elements, frozenset)
    assert pc.order == enum.order
    pc_chain, enum_chain = pcentral_series(pc), pcentral_series(enum)
    assert pc_chain.dims == enum_chain.dims
    assert pc_chain.level_gens == enum_chain.level_gens
    assert pc_chain.gens(1) == list(pc.generators)
    for window in range(len(pc_chain.levels) + 2):
        want = _uniformity(enum, window, enum_chain)
        assert _uniformity(pc, window, pc_chain) == want
    # nothing so far has built the element set
    assert pc.elements._frozen is None
    depths = _sweep_depths(enum)
    for n in range(1, pc.prec + 2):
        want = frozenset(a for a, depth in depths.items() if depth >= n)
        assert pc_chain.depth_filtration(n) == want
    for level, want in zip(pc_chain.levels, enum_chain.levels):
        assert set(level) == want
    assert pc.elements == enum.elements
    return pc, enum


# (m, p, prec, k) of every `pcentral` argument set whose group has at most
# 3^12 elements: |Gamma_k / Gamma_prec| = p^((m^2 - 1)(prec - k))
_CLI_GROUPS = [
    (m, p, prec, k)
    for m, p, prec, k in itertools.product((2, 3), (3, 5, 7), range(2, 6), range(1, 4))
    if p ** ((m * m - 1) * max(prec - k, 0)) <= 3**12
]




def _shifted_layer(m, p, prec, k):
    """Whether the group is Gamma_k mod p^(k+1) with k >= 2: like Gamma_1 mod
    p^2, an elementary abelian group of rank m^2 - 1 in a single layer."""
    return k >= 2 and prec == k + 1


_ENUMERATED = [g for g in _CLI_GROUPS if not _shifted_layer(*g)]
_SHIFTED = [g for g in _CLI_GROUPS if _shifted_layer(*g)]


def test_cli_grid_holds_the_reach_instance_and_skips_larger_groups():
    assert (2, 3, 5, 1) in _ENUMERATED and (3, 5, 2, 1) in _ENUMERATED
    assert (3, 5, 3, 2) in _SHIFTED and (3, 5, 4, 3) in _SHIFTED
    assert (3, 3, 3, 1) not in _CLI_GROUPS and (2, 5, 4, 1) not in _CLI_GROUPS


@pytest.mark.parametrize("m, p, prec, k", _ENUMERATED)
def test_pc_matches_dimino_on_every_pcentral_argument_set(m, p, prec, k):
    _assert_pc_matches_dimino(_cli_generators(m, p, prec, k))


# Gamma_1 mod p^2 is compared with Dimino above, so its pc answers are the
# oracle for the shifted layers; none of them is enumerated (SL_3 mod 5^k
# would cost 5^8 elements twice each).
@pytest.mark.parametrize("m, p, prec, k", _SHIFTED)
def test_shifted_layers_match_gamma_1_mod_p2_without_enumerating(m, p, prec, k):
    base = closure(_cli_generators(m, p, 2, 1))
    base_chain = pcentral_series(base)
    G = closure(_cli_generators(m, p, prec, k))
    chain = pcentral_series(G)
    assert isinstance(G.elements, _PcSet)
    assert G.order == base.order == p ** (m * m - 1)
    assert chain.dims == base_chain.dims == [m * m - 1]
    assert chain.level_gens == [list(G.generators), []]
    for window in range(len(chain.levels) + 2):
        assert _uniformity(G, window, chain) == _uniformity(base, window, base_chain)
    for n in range(1, prec + 2):
        want = G.elements if n <= k else {G.identity}
        assert chain.depth_filtration(n) == want
    assert G.elements._frozen is None


@pytest.mark.parametrize(
    "name", [name for name, (_, depth_zero) in _ORACLE_GROUPS.items() if not depth_zero]
)
def test_pc_matches_dimino_on_the_oracle_groups(name):
    _assert_pc_matches_dimino(_ORACLE_GROUPS[name][0]())


@pytest.mark.parametrize(
    "p, prec, seed", [(3, 4, 1), (3, 4, 3), (3, 4, 5), (5, 3, 1), (5, 3, 4)]
)
def test_pc_matches_dimino_on_seeded_two_element_subgroups(p, prec, seed):
    _assert_pc_matches_dimino(_random_sl2_subgroup_gens(p, prec, seed))


# Gamma_1 of SL_2 over Z_p[[T_1..T_v]]/m^2: one layer of weight-1 digits,
# of orders 3^6, 3^9 and 5^6
@pytest.mark.parametrize(
    "ring", [SeriesRing(3, 1, 2), SeriesRing(3, 2, 2), SeriesRing(5, 1, 2)], ids=repr
)
def test_pc_matches_dimino_on_series_rings(ring):
    pc, _ = _assert_pc_matches_dimino(gamma1_generators(ring))
    assert pc.order == ring.p ** (3 * (ring.n_vars + 1))


def _gamma_order(ring, n):
    """log_p |Gamma_n / Gamma_M| in SL_2 over Z_p[[T_1..T_v]]/m^M: a layer of
    weight k has dimension 3 C(k + v, v), one per trace-0 entry and monomial."""
    v = ring.n_vars
    return 3 * sum(math.comb(k + v, v) for k in range(n, ring.trunc))


@pytest.mark.parametrize("ring", [SeriesRing(3, 1, 4), SeriesRing(3, 2, 3)], ids=repr)
def test_series_reach_needs_no_element_set(ring):
    # both have order 3^27: enumeration would need 7.6 * 10^12 elements
    G = closure(gamma1_generators(ring), limit=3**27)
    chain = pcentral_series(G)
    assert G.order == 3 ** _gamma_order(ring, 1) == 3**27
    for n in range(1, ring.trunc + 2):
        assert chain.depth_filtration(n).order == 3 ** _gamma_order(ring, n)
    assert sum(chain.dims) == 27
    assert G.elements._frozen is None


@functools.cache
def _ambient(p, prec):
    """Gamma_1 of SL_2 mod p^prec, enumerated, in sorted order."""
    gens = sl_standard_generators(2, p, prec)
    return sorted(enumerated_closure(gens).elements)


@pytest.mark.parametrize("p, prec, seed", [(3, 4, 1), (3, 4, 5), (5, 3, 4)])
def test_sifting_membership_matches_the_enumerated_set(p, prec, seed):
    gens = _random_sl2_subgroup_gens(p, prec, seed)
    pc, enum = closure(gens), enumerated_closure(gens)
    rng = random.Random(seed)
    for x in rng.sample(_ambient(p, prec), 300):
        assert (x in pc.elements) == (x in enum.elements)
    assert pc.elements._frozen is None
    # a depth-0 matrix, malformed tuples and a list are no members, before
    # and after iteration caches the element set
    ring = ScalarRing(p, prec)
    strangers = [
        (2, 0, 0, pow(2, -1, ring.modulus)), (1, 0, 0), list(pc.identity), (1, [2]),
    ]
    assert not any(x in pc.elements for x in strangers)
    assert set(pc.elements) == enum.elements and pc.elements._frozen is not None
    assert not any(x in pc.elements for x in strangers)


def _non_canonical(x):
    """Tuples equal to no packed form, each made from the member x: an entry
    raised by its modulus, and over a series ring a zero block, a list
    block, a repeated or out-of-range index and the blocks out of order."""
    if not isinstance(x[0], tuple):  # Z/p^N: x is one flat block
        return [(x[0] + 27,) + x[1:], x[:-1], x + (0,)]
    (i, block), rest = x[0], x[1:]
    out = [
        ((i, (block[0] + 9,) + block[1:]),) + rest,
        ((i, list(block)),) + rest,
        ((i, block),) + x,
        x + ((10**6, block),),
        x + ((x[-1][0] + 1, (0, 0, 0, 0)),),
        (i, block),
    ]
    return out + ([tuple(reversed(x))] if len(x) > 1 else [])


def _bool_twin(x):
    """x with each 0 and 1 written as False and True: equal to x, so a member
    exactly when x is."""
    if not isinstance(x[0], tuple):
        return tuple(bool(v) if v in (0, 1) else v for v in x)
    return tuple((bool(i) if i in (0, 1) else i, _bool_twin(b)) for i, b in x)


@pytest.mark.parametrize(
    "gens",
    [sl_standard_generators(2, 3, 3), gamma1_generators(SeriesRing(3, 1, 2))],
    ids=["SL_2 mod 27", "Gamma_1 over Z_3[[T]]/m^2"],
)
def test_membership_refuses_non_canonical_tuples_before_and_after_iteration(gens):
    # (28, 0, 0, 1) sifts like I (28 = 1 mod 27) but equals no element tuple:
    # both paths must say no, whether or not the element set is built
    G = closure(gens)
    members = [G.identity, *(g._flat for g in gens[:3])]
    members += [_bool_twin(x) for x in members]
    strangers = [y for x in members for y in _non_canonical(x)]
    answers = [[x in G.elements for x in xs] for xs in (members, strangers)]
    assert answers == [[True] * len(members), [False] * len(strangers)]
    assert G.elements._frozen is None
    assert len(set(G.elements)) == G.order and G.elements._frozen is not None
    assert [[x in G.elements for x in xs] for xs in (members, strangers)] == answers


def test_sequences_compare_by_sifting_without_enumerating():
    gens = sl_standard_generators(2, 3, 5)
    G = closure(gens)
    H = closure(list(reversed(gens)) + [gens[0] * gens[1]])
    assert G.elements == H.elements
    K = closure(gens[:2])
    assert K.elements != G.elements and K.order < G.order
    assert G.elements._frozen is H.elements._frozen is K.elements._frozen is None


def test_normal_closure_returns_what_the_series_stores():
    G = closure(sl_standard_generators(2, 3, 5))
    chain = pcentral_series(G)
    pairs = list(zip(G.generators, G.generator_inverses))
    seed = [G.power(y, G.p) for y in G.generators]
    seed += [G.comm(x, y) for x, _ in pairs for y in G.generators]
    level, gens = G.normal_closure(seed)
    assert (level, gens) == (chain.levels[1], chain.level_gens[1])
    assert len(gens) == 3 and G.subgroup_closure(gens) == level


def test_reach_instance_needs_no_element_set():
    # SL_2 mod 3^5 has 3^12 elements; order, dims and uniformity through the
    # trusted window come from the ranks alone
    G = closure(sl_standard_generators(2, 3, 5))
    chain = pcentral_series(G)
    report = _uniformity(G, 3, chain)
    assert G.order == 3**12 and chain.dims == [3, 3, 3, 3]
    assert report.uniform and report.power_map_bijective == [True] * 3
    assert G.elements._frozen is None


def test_closure_cap_is_decided_from_the_rank():
    # SL_3 mod 3^3 has 3^16 elements: the cap stops it after 13 insertions
    gens = sl_standard_generators(3, 3, 3)
    with pytest.raises(LimitExceeded, match="past 1000000"):
        closure(gens)
    assert closure(gens, limit=3**16).order == 3**16
    with pytest.raises(LimitExceeded, match=f"past {3**16 - 1}"):
        closure(gens, limit=3**16 - 1)


@functools.cache
def _sl5_mod27():
    """SL_5 mod 27 and its chain: 3^48 elements, past sys.maxsize."""
    G = closure(sl_standard_generators(5, 3, 3), limit=10**30)
    return G, pcentral_series(G)


def test_orders_past_sys_maxsize_come_from_the_ranks():
    # SL_5 mod 27 has 3^48 elements; `len` would raise LimitExceeded
    G, chain = _sl5_mod27()
    report = _uniformity(G, 1, chain)
    assert G.order == G.elements.order == 3**48 > sys.maxsize
    assert chain.dims == [24, 24] and report.uniform
    with pytest.raises(LimitExceeded, match=f"past {3**48 - 1}"):
        closure(sl_standard_generators(5, 3, 3), limit=3**48 - 1)
    assert G.elements._frozen is None


def test_iteration_enumerates_once_and_set_operations_give_frozensets():
    G = closure(sl_standard_generators(2, 5, 3))
    elements = G.elements
    first = set(elements)
    cached = elements._frozen
    assert len(first) == G.order == 5**6 and cached == first
    assert set(elements) == first and elements._frozen is cached
    rest = frozenset(elements) - {G.identity}
    assert isinstance(rest, frozenset) and len(rest) == G.order - 1


def test_comparisons_past_sys_maxsize_never_take_len():
    # `len` of a 3^48 set raises LimitExceeded; levels past the chain are
    # trivial pc sequences, and a pc set checks another set's size first
    G, chain = _sl5_mod27()
    k = len(chain.levels) + 1
    assert isinstance(chain.level(k), _PcSet) and chain.level(k).order == 1
    assert chain.level(k) == chain.level(k + 1) == chain.levels[-1]
    assert chain.level(k) == frozenset([G.identity])
    assert (G.elements == frozenset([G.identity])) is False
    assert G.elements != frozenset([G.identity])
    assert G.elements._frozen is None


def test_order_comparisons_past_sys_maxsize_never_take_len():
    # `len` of a 3^48 set raises LimitExceeded, so comparisons read orders
    G, chain = _sl5_mod27()
    H, trivial = chain.levels[1], frozenset([G.identity])
    assert H <= G.elements and G.elements >= trivial and trivial < G.elements
    assert H < G.elements and G.elements > H and G.elements >= H
    assert not G.elements <= H and not H >= G.elements and not G.elements < G.elements
    assert trivial <= G.elements and not G.elements <= trivial
    assert not trivial > G.elements and not trivial >= G.elements
    assert G.elements._frozen is None
    with pytest.raises(LimitExceeded, match="read order"):
        len(G.elements)  # callers read `order`


def test_past_sys_maxsize_nothing_builds_the_element_set():
    # iteration and `len` stop at the cap before any word is formed, and the
    # set operators and hashing, which would build all 3^48 elements, are gone
    G, _ = _sl5_mod27()
    elements, trivial = G.elements, frozenset([G.identity])
    start = time.perf_counter()
    for call in (iter, len, set):
        with pytest.raises(LimitExceeded):
            call(elements)
    for op in (operator.or_, operator.sub, operator.xor, operator.and_):
        for a, b in ((elements, trivial), (trivial, elements)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(AttributeError):
        elements.isdisjoint(trivial)
    for x in (elements, G):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    assert time.perf_counter() - start < 1
    assert elements._frozen is None


def test_order_comparisons_agree_with_frozensets():
    # against a set or frozenset a pc set answers as a frozenset would;
    # against a list it refuses the same orderings and is never equal
    G = closure(sl_standard_generators(2, 3, 3))
    levels = pcentral_series(G).levels
    sets = [*levels, frozenset([G.identity])]
    sets += [frozenset(s) for s in sets] + [frozenset(list(G.elements)[:5])]
    sets += [set(s) for s in levels] + [list(G.elements)[:5]]
    ops = [operator.le, operator.lt, operator.ge, operator.gt, operator.eq]

    def outcome(op, a, b):
        try:
            return op(a, b)
        except TypeError:
            return TypeError

    def plain(x):
        return x if isinstance(x, list) else frozenset(x)

    for a, b in itertools.product(sets, repeat=2):
        for op in ops:
            assert outcome(op, a, b) == outcome(op, plain(a), plain(b)), (op, a, b)
    assert all((level == sets[-1]) is False for level in levels)
