"""Enumeration, p-central series, uniformity, and the commutator-limit bracket."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamelab.errors import (
    DepthError,
    DomainError,
    InsufficientPrecision,
    LimitExceeded,
    NotPGroup,
    WindowTooLarge,
)
from tamelab.matgrp import RingMatrix, int_power, mat_exp, mat_log, sl_standard_generators
from tamelab.padic import ScalarRing
from tamelab.pcentral import (
    UniformityReport,
    _p_log,
    _reduce_matrix,
    closure,
    closure_limit,
    dictionary_bracket,
    pcentral_series,
    uniformity_check,
)


def unipotent(ring, entry, where="upper"):
    rows = [[1, entry], [0, 1]] if where == "upper" else [[1, 0], [entry, 1]]
    return RingMatrix.from_int_rows(ring, rows)


# ---------------------------------------------------------------------------
# closure


def test_closure_identity_only():
    ring = ScalarRing(3, 3)
    G = closure([RingMatrix.identity(ring, 2)])
    assert G.order == 1


@pytest.mark.parametrize("p", [3, 5])
def test_closure_cyclic_unipotent(p):
    ring = ScalarRing(p, 3)
    G = closure([unipotent(ring, p)])
    assert G.order == p**2
    # oracle: direct powering until the identity returns
    g = unipotent(ring, p)
    acc, order = g, 1
    while acc != RingMatrix.identity(ring, 2):
        acc, order = acc * g, order + 1
    assert order == p**2


def test_closure_sl2_mod9_against_brute_enumeration():
    G = closure(sl_standard_generators(2, 3, 2))
    assert G.order == 27
    # oracle: every matrix congruent to I mod 3 with determinant 1 mod 9
    expected = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    m = (1 + 3 * a, 3 * b, 3 * c, 1 + 3 * d)
                    if (m[0] * m[3] - m[1] * m[2]) % 9 == 1:
                        expected.add(m)
    assert G.elements == expected


def test_closure_limit_exceeded():
    with pytest.raises(LimitExceeded):
        closure(sl_standard_generators(2, 3, 4), limit=100)


def test_closure_rejects_depth_zero_by_default():
    ring = ScalarRing(3, 2)
    g = RingMatrix.from_int_rows(ring, [[2, 0], [0, 5]])
    with pytest.raises(DepthError):
        closure([g])


def test_closure_not_p_group():
    ring = ScalarRing(3, 2)
    g = RingMatrix.from_int_rows(ring, [[2, 0], [0, 5]])  # order 6
    with pytest.raises(NotPGroup):
        closure([g], allow_depth_zero=True)


def test_p_log_reads_exponents_and_rejects_other_orders():
    for p in (3, 5):
        for d in range(5):
            assert _p_log(p**d, p, "order") == d
    for n in (2, 6, 54, 3**5 * 2, 5**3 + 1):
        with pytest.raises(NotPGroup, match=f"order {n} is not a power of 3"):
            _p_log(n, 3, "order")


# ---------------------------------------------------------------------------
# p-central series


def test_elementary_abelian_series_terminates_immediately():
    ring = ScalarRing(3, 3)
    gens = [
        RingMatrix.from_int_rows(ring, [[1, 9], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [9, 1]]),
    ]
    G = closure(gens)
    assert G.order == 9
    chain = pcentral_series(G)
    assert [len(level) for level in chain.levels] == [9, 1]
    assert chain.dims == [2]


def test_sl2_series_matches_depth_filtration(sl2_mod81, sl2_mod81_chain):
    chain = sl2_mod81_chain
    assert [len(level) for level in chain.levels] == [3**9, 3**6, 3**3, 1]
    assert chain.dims == [3, 3, 3]
    assert chain.levels[1] == chain.depth_filtration(2)
    assert chain.levels[2] == chain.depth_filtration(3)


def test_sl2_series_layer_sizes_are_p_powers(sl2_mod81_chain):
    for a, b in zip(sl2_mod81_chain.levels, sl2_mod81_chain.levels[1:]):
        quotient = len(a) // len(b)
        while quotient % 3 == 0:
            quotient //= 3
        assert quotient == 1


def test_graded_layers_elementary_abelian(sl2_mod81, sl2_mod81_chain):
    # g^p and [g, h] land one level deeper, on a sample
    G = sl2_mod81
    rng = random.Random(0)
    for n in (1, 2):
        level = sorted(sl2_mod81_chain.level(n))
        nxt = sl2_mod81_chain.level(n + 1)
        sample = [level[rng.randrange(len(level))] for _ in range(20)]
        for g in sample:
            assert G.power(g, 3) in nxt
        for g, h in zip(sample[:10], sample[10:]):
            assert G.comm(g, h) in nxt


def test_minimal_generation_nakayama(sl2_mod81, sl2_mod81_chain):
    # adding a redundant generator changes neither the group nor d_1
    gens = sl_standard_generators(2, 3, 4)
    redundant = gens + [gens[0] * gens[1]]
    G2 = closure(redundant)
    assert G2.elements == sl2_mod81.elements
    assert pcentral_series(G2).dims[0] == sl2_mod81_chain.dims[0] == 3
    # dropping an essential generator shrinks the closure: d(G) is really 3
    assert closure(gens[:2]).order < sl2_mod81.order


# ---------------------------------------------------------------------------
# uniformity


def test_sl2_uniform_on_window(sl2_mod81, sl2_mod81_chain):
    report = uniformity_check(sl2_mod81, 2, sl2_mod81_chain)
    assert report.uniform
    assert report.frattini_abelian
    assert report.power_map_bijective == [True, True]


def test_elementary_abelian_not_uniform():
    ring = ScalarRing(3, 3)
    gens = [
        RingMatrix.from_int_rows(ring, [[1, 9], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [9, 1]]),
    ]
    G = closure(gens)
    report = uniformity_check(G, 1)
    assert not report.uniform
    assert report.power_map_bijective == [False]


def test_semidirect_action_group_not_uniform():
    # <t> acting on (Z/9)^2 by the order-3 unit C with C^2 + C + I = 0,
    # realized as affine matrices mod 27 (translations scaled by 3)
    ring = ScalarRing(3, 3)
    t = RingMatrix.from_int_rows(ring, [[0, -1, 0], [1, -1, 0], [0, 0, 1]])
    a1 = RingMatrix.from_int_rows(ring, [[1, 0, 3], [0, 1, 0], [0, 0, 1]])
    G = closure([t, a1], allow_depth_zero=True)
    assert G.order == 3 * 81
    chain = pcentral_series(G)
    assert chain.dims[0] == 2 and chain.dims[1] == 1
    report = uniformity_check(G, 1, chain)
    assert not report.uniform
    assert not report.frattini_abelian
    assert report.power_map_bijective == [False]


def test_window_too_large(sl2_mod81):
    with pytest.raises(WindowTooLarge):
        uniformity_check(sl2_mod81, 3)


# ---------------------------------------------------------------------------
# Dimino enumeration and coset labelling against the old paths


def _oracle_subgroup_closure(G, seed, limit=None):
    """The breadth-first closure: every element times every seed element."""
    limit = closure_limit() if limit is None else limit
    seed = [s for s in seed if s != G.identity]
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for s in seed:
                c = G.mul(a, s)
                if c not in seen:
                    if len(seen) >= limit:
                        raise LimitExceeded(f"subgroup closure past {limit}")
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def _oracle_normal_closure(G, seed):
    """Rounds of breadth-first closures, conjugating every seed each round."""
    seed = [s for s in dict.fromkeys(seed) if s != G.identity]
    gen_invs = [G.inv(g) for g in G.generators]
    while True:
        sub = _oracle_subgroup_closure(G, seed)
        new = []
        for s in seed:
            for g, ginv in zip(G.generators, gen_invs):
                t = G.mul(G.mul(g, s), ginv)
                if t not in sub:
                    new.append(t)
        if not new:
            return sub
        seed.extend(dict.fromkeys(new))


def _oracle_coset_rep(G, a, subgroup):
    return min(G.mul(a, h) for h in subgroup)


def _oracle_uniformity(G, window, chain):
    """Frattini test on the breadth-first closure, images by min coset reps."""
    gp = _oracle_subgroup_closure(G, {G.power(a, G.p) for a in G.elements})
    frattini_abelian = all(
        G.comm(x, y) in gp for x in G.generators for y in G.generators
    )
    bijective = []
    for n in range(1, window + 1):
        pn = chain.level(n)
        size_n = len(pn) // len(chain.level(n + 1))
        size_n1 = len(chain.level(n + 1)) // len(chain.level(n + 2))
        lower = sorted(chain.level(n + 2))
        images = {_oracle_coset_rep(G, G.power(a, G.p), lower) for a in pn}
        bijective.append(len(images) == size_n == size_n1)
    uniform = frattini_abelian and all(bijective)
    return UniformityReport(window, frattini_abelian, bijective, chain.dims, uniform)


def _semidirect_gens():
    ring = ScalarRing(3, 3)
    t = RingMatrix.from_int_rows(ring, [[0, -1, 0], [1, -1, 0], [0, 0, 1]])
    a1 = RingMatrix.from_int_rows(ring, [[1, 0, 3], [0, 1, 0], [0, 0, 1]])
    return [t, a1]


def _elementary_abelian_gens():
    ring = ScalarRing(3, 3)
    return [
        RingMatrix.from_int_rows(ring, [[1, 9], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [9, 1]]),
    ]


# name -> (generator maker, allow_depth_zero)
_ORACLE_GROUPS = {
    "sl2-3^2": (lambda: sl_standard_generators(2, 3, 2), False),
    "sl2-3^3": (lambda: sl_standard_generators(2, 3, 3), False),
    "sl2-3^4": (lambda: sl_standard_generators(2, 3, 4), False),
    "sl2-5^3": (lambda: sl_standard_generators(2, 5, 3), False),
    "sl3-3^2": (lambda: sl_standard_generators(3, 3, 2), False),
    "semidirect": (_semidirect_gens, True),
    "elementary-abelian": (_elementary_abelian_gens, False),
}


def _oracle_group(name):
    make, allow_depth_zero = _ORACLE_GROUPS[name]
    return closure(make(), allow_depth_zero=allow_depth_zero)


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_closure_matches_breadth_first_oracle(name):
    G = _oracle_group(name)
    assert G.elements == _oracle_subgroup_closure(G, G.generators)
    # a reversed, repeated seed with the identity in it gives the same set
    seed = list(reversed(G.generators)) * 2 + [G.identity]
    assert G.subgroup_closure(seed) == G.elements


def _check_normal_closure(G, seed):
    """normal_closure(seed) against the oracle; returns it."""
    elements, gens = G.normal_closure(seed)
    assert elements == _oracle_normal_closure(G, seed)
    # the returned kept elements generate the closure, each one raising the
    # order by at least p
    assert G.subgroup_closure(gens) == elements
    assert len(gens) <= _p_log(len(elements), G.p, "order")
    return elements, gens


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_pcentral_levels_match_oracle_normal_closures(name):
    G = _oracle_group(name)
    chain = pcentral_series(G)
    for gens, nxt, nxt_gens in zip(
        chain.level_gens, chain.levels[1:], chain.level_gens[1:]
    ):
        seed = [G.power(y, G.p) for y in gens]
        seed += [G.comm(x, y) for x in G.generators for y in gens]
        assert _check_normal_closure(G, seed) == (nxt, nxt_gens)


def test_normal_closure_of_single_elements_matches_oracle(sl2_mod81):
    G = sl2_mod81
    rng = random.Random(5)
    elements = sorted(G.elements)
    for _ in range(6):
        _check_normal_closure(G, [elements[rng.randrange(len(elements))]])
    semi = _oracle_group("semidirect")
    for a in sorted(semi.elements)[:12]:
        _check_normal_closure(semi, [a])


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_level_generating_sets_have_at_most_log_p_elements(name):
    G = _oracle_group(name)
    chain = pcentral_series(G)
    for gens, level in zip(chain.level_gens, chain.levels):
        assert len(gens) <= _p_log(len(level), G.p, "order")


def test_enumerated_closures_ignore_the_env_cap(sl2_mod81, monkeypatch):
    # closures inside an enumerated G are bounded by |G|, not by the cap that
    # only governs the enumeration of G itself
    chain = pcentral_series(sl2_mod81)
    report = uniformity_check(sl2_mod81, 2)
    monkeypatch.setenv("TAMELAB_CLOSURE_LIMIT", "10")
    assert pcentral_series(sl2_mod81) == chain
    assert uniformity_check(sl2_mod81, 2) == report


def test_closures_of_seeds_outside_a_smaller_group_exceed_its_order(sl2_mod81):
    ring = ScalarRing(3, 4)
    H = closure([unipotent(ring, 3)])
    assert H.order == 27
    seed = sl2_mod81.generators
    with pytest.raises(LimitExceeded, match="past 27"):
        H.subgroup_closure(seed)
    with pytest.raises(LimitExceeded, match="past 27"):
        H.normal_closure(seed)
    # an explicit limit still overrides the default bound
    assert H.subgroup_closure(seed, 3**9) == sl2_mod81.elements


@pytest.fixture(scope="module")
def sl2_mod81_sorted(sl2_mod81):
    return sl2_mod81, sorted(sl2_mod81.elements)


@given(st.lists(st.integers(0, 3**9 - 1), max_size=4))
def test_subgroup_closure_of_drawn_seeds_matches_oracle(sl2_mod81_sorted, picks):
    G, elements = sl2_mod81_sorted
    seed = [elements[i] for i in picks]
    assert G.subgroup_closure(seed) == _oracle_subgroup_closure(G, seed)


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_uniformity_matches_coset_rep_oracle(name):
    G = _oracle_group(name)
    chain = pcentral_series(G)
    # every admissible window: 1 <= window < N - 1
    for window in range(1, G.prec - 1):
        report = uniformity_check(G, window, chain)
        assert report == _oracle_uniformity(G, window, chain)


@pytest.mark.parametrize("name", ["sl2-3^4", "sl3-3^2", "semidirect"])
def test_limit_boundary_matches_oracle(name):
    make, allow_depth_zero = _ORACLE_GROUPS[name]
    gens = make()
    G = closure(gens, allow_depth_zero=allow_depth_zero)
    assert closure(gens, limit=G.order, allow_depth_zero=allow_depth_zero) == G
    with pytest.raises(LimitExceeded):
        closure(gens, limit=G.order - 1, allow_depth_zero=allow_depth_zero)
    assert _oracle_subgroup_closure(G, G.generators, G.order) == G.elements
    with pytest.raises(LimitExceeded):
        _oracle_subgroup_closure(G, G.generators, G.order - 1)
    with pytest.raises(LimitExceeded):
        G.subgroup_closure(G.generators, G.order - 1)


@pytest.mark.parametrize("window", [0, -1])
def test_uniformity_rejects_empty_window(sl2_mod81, window):
    with pytest.raises(DomainError):
        uniformity_check(sl2_mod81, window)


# ---------------------------------------------------------------------------
# dictionary bracket


def rand_sl2_element(ring, rng):
    p, prec = ring.p, ring.prec
    a, b, c = (rng.randrange(p ** (prec - 1)) for _ in range(3))
    x = RingMatrix.from_int_rows(ring, [[p * a, p * b], [p * c, -p * a]])
    return mat_exp(x)


def test_bracket_of_commuting_elements_is_zero():
    ring = ScalarRing(5, 6)
    g = unipotent(ring, 5)
    h = unipotent(ring, 25)
    result = dictionary_bracket(g, h)
    assert result.matrix == RingMatrix.zeros(result.matrix.ring, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bracket_matches_matrix_bracket_oracle(p):
    prec = 6
    ring = ScalarRing(p, prec)
    # the documented level: the best min(N - 2n, n + gain) over the steps n
    gain = 3 if p >= 5 else 2
    level = max(min(prec - 2 * n, n + gain) for n in range(1, (prec - 2) // 2 + 1))
    rng = random.Random(21)
    for _ in range(20):
        g, h = rand_sl2_element(ring, rng), rand_sl2_element(ring, rng)
        result = dictionary_bracket(g, h)
        assert result.certified_levels == level
        lg, lh = mat_log(g), mat_log(h)
        oracle = lg * lh - lh * lg
        assert _reduce_matrix(oracle, result.certified_levels) == result.matrix


def test_bracket_antisymmetry():
    ring = ScalarRing(5, 6)
    rng = random.Random(22)
    for _ in range(10):
        g, h = rand_sl2_element(ring, rng), rand_sl2_element(ring, rng)
        ab = dictionary_bracket(g, h)
        ba = dictionary_bracket(h, g)
        assert ab.matrix == -ba.matrix


def test_bracket_scaling_bilinearity():
    # [g^c, h] = c [g, h]: log(g^c) = c log(g) exactly
    ring = ScalarRing(5, 6)
    rng = random.Random(23)
    for c in (2, 3, 7):
        g, h = rand_sl2_element(ring, rng), rand_sl2_element(ring, rng)
        scaled = dictionary_bracket(int_power(g, c), h)
        base = dictionary_bracket(g, h)
        lvl = min(scaled.certified_levels, base.certified_levels)
        want = base.matrix.scale(base.matrix.ring.from_int(c))
        assert _reduce_matrix(scaled.matrix, lvl) == _reduce_matrix(want, lvl)


def test_bracket_additivity_mod_p_cubed():
    # [g, h1 h2] = [g, h1] + [g, h2] holds through level 3; beyond that the
    # product formula picks up the depth-3 correction from log(h1 h2)
    ring = ScalarRing(5, 6)
    rng = random.Random(24)
    for _ in range(5):
        g = rand_sl2_element(ring, rng)
        h1, h2 = rand_sl2_element(ring, rng), rand_sl2_element(ring, rng)
        combined = dictionary_bracket(g, h1 * h2)
        split = dictionary_bracket(g, h1).matrix + dictionary_bracket(g, h2).matrix
        lvl = min(3, combined.certified_levels)
        assert _reduce_matrix(combined.matrix, lvl) == _reduce_matrix(split, lvl)


def test_sl4_bracket_is_multiple_of_log_z():
    from tamelab.certify import quaternion_matrices

    p = 5
    ring = ScalarRing(p, 6)
    mats = quaternion_matrices(ring, 2)
    a0 = mats["A"].scale(ring.from_int(p))
    b0 = mats["B"].scale(ring.from_int(p))
    c0 = (mats["A"] * mats["B"]).scale(ring.from_int(p))
    x, y = mat_exp(a0), mat_exp(b0)
    result = dictionary_bracket(x, y)
    want = _reduce_matrix(c0.scale(ring.from_int(2 * p)), result.certified_levels)
    assert result.matrix == want
    assert result.matrix != RingMatrix.zeros(want.ring, 4)


def test_bracket_insufficient_precision():
    ring = ScalarRing(5, 3)
    g = unipotent(ring, 5)
    with pytest.raises(InsufficientPrecision):
        dictionary_bracket(g, g)


def test_bracket_requires_depth():
    ring = ScalarRing(5, 6)
    g = RingMatrix.from_int_rows(ring, [[2, 0], [0, pow(2, -1, 5**6)]])
    with pytest.raises(DepthError):
        dictionary_bracket(g, unipotent(ring, 5))
