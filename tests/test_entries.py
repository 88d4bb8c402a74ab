"""One entry contract for both coefficient rings.

Enumerated groups, the matrix inverse and the graded-layer span check read
their entries through `matgrp._Entries`, over Z/p^N and over truncated
series rings alike.
"""

import itertools
import math
import random
from bisect import bisect_right

import pytest

from tamelab.certify import _weight_monomials, brute_search_certificate, slm_series_suite
from tamelab.errors import NonUnitDeterminant, PrecisionMismatch
from tamelab.liealg import rank
from tamelab.matgrp import (
    RingMatrix,
    _add,
    _from_entries,
    _mul,
    _weight_digits,
    congruence_depth,
    sl_standard_generators,
)
from tamelab.padic import ScalarRing, SeriesRing, _Layout, int_valuation
from tamelab.pcentral import _PcSet, closure, pcentral_series


def gamma1_generators(ring, m=2):
    """Unipotent and diagonal generators of Gamma_1 in SL_m over Z/p^N or a
    series ring: I + t E_ij (i != j) and the diagonal (1 + t, (1 + t)^-1)
    steps, for each F_p basis element t of the ideal modulo its square (p,
    then each variable).
    """
    smalls = [ring.from_int(ring.p)]
    smalls += [ring.variable(i) for i in range(getattr(ring, "n_vars", 0))]
    out = []
    for t in smalls:
        u = ring.one() + t
        out += [
            _from_entries(ring, m, {(i, j): t})
            for i in range(m)
            for j in range(m)
            if i != j
        ]
        out += [
            _from_entries(ring, m, {(i, i): u, (i + 1, i + 1): u.inv()})
            for i in range(m - 1)
        ]
    return out


# ---------------------------------------------------------------------------
# enumeration over series rings


def test_series_closure_is_every_determinant_one_lift_mod_m2():
    # Gamma_1 / Gamma_2 over Z_3[[T]]/m^2 is every I + X with X in M_2(m/m^2)
    # and det 1: the trace of X vanishes, so 3^6 elements, elementary abelian
    ring = SeriesRing(3, 1, 2)
    G = closure(gamma1_generators(ring))
    small = [ring.from_terms({(0,): 3 * a, (1,): b}) for a in range(3) for b in range(3)]
    one = ring.one()
    brute = set()
    for x0, x1, x2, x3 in itertools.product(small, repeat=4):
        g = RingMatrix(ring, [[one + x0, x1], [x2, one + x3]])
        if g.det() == one:
            brute.add(g._flat)
    assert G.elements == brute
    assert G.order == 3**6
    assert pcentral_series(G).dims == [6]


def test_series_closure_in_two_variables():
    G = closure(gamma1_generators(SeriesRing(3, 2, 2)))
    assert G.order == 3**9
    assert G.prec == 2


# ---------------------------------------------------------------------------
# one inverse


def _mixed_matrices(ring):
    """A few invertible 2x2 matrices over ring, not all of depth one."""
    t = ring.variable(0) if isinstance(ring, SeriesRing) else ring.from_int(ring.p)
    two, one, zero = ring.from_int(2), ring.one(), ring.zero()
    return [
        RingMatrix(ring, [[one + t, two], [t, one]]),
        RingMatrix(ring, [[two, t], [zero, two.inv()]]),
        RingMatrix(ring, [[zero, -one], [one, t * t]]),
    ]


@pytest.mark.parametrize(
    "ring, gens",
    [
        (ScalarRing(3, 3), sl_standard_generators(2, 3, 3)),
        (SeriesRing(3, 1, 2), gamma1_generators(SeriesRing(3, 1, 2))),
    ],
    ids=["scalar", "series"],
)
def test_group_and_matrix_inverses_agree(ring, gens):
    G = closure(gens)
    samples = sorted(G.elements, key=repr)[:: max(1, G.order // 50)]
    samples += [g._flat for g in _mixed_matrices(ring)]
    for a in samples:
        a_inv = G.inv(a)
        assert a_inv == G.to_matrix(a).inverse()._flat
        assert G.mul(a, a_inv) == G.identity == G.mul(a_inv, a)


@pytest.mark.parametrize(
    "ring", [ScalarRing(3, 3), SeriesRing(3, 1, 3)], ids=["scalar", "series"]
)
def test_nonunit_determinant_raises_in_both_inverses(ring):
    # det 3, or det T over the series ring: neither is a unit
    small = ring.variable(0) if isinstance(ring, SeriesRing) else ring.from_int(3)
    g = _from_entries(ring, 2, {(0, 0): small})
    G = closure([_from_entries(ring, 2, {(0, 1): 3})])
    with pytest.raises(NonUnitDeterminant):
        g.inverse()
    with pytest.raises(NonUnitDeterminant):
        G.inv(g._flat)


@pytest.mark.parametrize("ring", [ScalarRing(3, 3), SeriesRing(3, 1, 3)])
def test_entries_from_another_ring_are_refused(ring):
    # each entry's ring is checked, a scalar's from (p, prec) alone
    one = ring.one()
    assert RingMatrix(ring, [[one, one], [one, one]]).ring == ring
    foreign = [R.one() for R in (ScalarRing(3, 4), ScalarRing(5, 3), SeriesRing(3, 1, 4))]
    for e in foreign + [SeriesRing(3, 2, 3).one(), 1, None]:
        with pytest.raises(PrecisionMismatch):
            RingMatrix(ring, [[one, e], [e, one]])
    for e in foreign:
        with pytest.raises(PrecisionMismatch):
            _from_entries(ring, 2, {(0, 1): e})


def test_certificate_search_refuses_a_series_group():
    # the scan orders G, and series entries have no order
    ring = SeriesRing(3, 1, 3)
    y = _from_entries(ring, 2, {(0, 1): 3})
    x = _from_entries(ring, 2, {(0, 0): 4, (1, 1): ring.from_int(4).inv()})
    G = closure([x, y])
    assert G.order == 81
    with pytest.raises(PrecisionMismatch):
        brute_search_certificate(G, y, 2)


# ---------------------------------------------------------------------------
# graded-layer digits


def _oracle_weight_digits(e, k):
    """The weight-k digits of one series entry, read off its coefficients:
    per monomial of degree d <= k in layout order, over p^(k - d), mod p."""
    ring = e.ring
    monos = [b for b in _Layout(ring).monos if sum(b) <= k]
    return [e.coeffs.get(b, 0) // ring.p ** (k - sum(b)) % ring.p for b in monos]


def _digits_of_entry(x, k):
    """`_weight_digits` of the 1 x 1 matrix I + x."""
    g = RingMatrix(x.ring, [[x.ring.one() + x]])
    return _weight_digits(g._flat, 1, k, g._ent)


def test_weight_digits_read_the_packed_coefficients():
    ring = SeriesRing(3, 1, 4)
    x = ring.from_terms({(0,): 18, (1,): 6, (2,): 5, (3,): 1})
    # 18 = 2 * 9, 6 = 2 * 3, 5 = 2 mod 3; T^3 lies in m^3
    assert _digits_of_entry(x, 2) == _oracle_weight_digits(x, 2) == [2, 2, 2]
    # 27 and 3 T^2 lie in m^3
    y = ring.from_terms({(0,): 27, (1,): 3, (2,): 3})
    assert _digits_of_entry(y, 2) == _oracle_weight_digits(y, 2) == [0, 1, 0]


def _sl_basis_coords(w, k, monomials, m):
    """The slm suite's earlier reader: gr_k coordinates in `sl_table`'s basis.

    Per monomial, the off-diagonal entries of (w - I)'s weight-k part, then
    the partial sums of its diagonal; each digit's valuation is derived again
    from the coefficient.
    """
    ring = w.ring
    p, trunc = ring.p, ring.trunc
    mono_index = {beta: t for t, (a0, beta, _) in enumerate(monomials)}
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    pair_index = {pr: t for t, pr in enumerate(pairs)}
    mat_dim = len(pairs) + (m - 1)
    coords = [0] * (len(monomials) * mat_dim)
    delta = (w - RingMatrix.identity(ring, m)).rows
    for i in range(m):
        for j in range(m):
            for exps, coeff in delta[i][j].coeffs.items():
                t_deg = sum(exps)
                val = int_valuation(coeff, p, trunc - t_deg)
                if t_deg + val != k or exps not in mono_index:
                    continue
                digit = (coeff // p**val) % p
                slot = mono_index[exps] * mat_dim
                if i != j:
                    coords[slot + pair_index[(i, j)]] = digit
                else:
                    for t in range(i, m - 1):
                        base = slot + len(pairs) + t
                        coords[base] = (coords[base] + digit) % p
    return coords


# (m, k, n_vars, trunc, p): the acceptance gate's slm cases (the `--suite all`
# golden files among them), then the two `--suite slm` golden files
_SLM_CASES = [
    (2, k, n_vars, 3, p) for p in (3, 5, 7) for k in (1, 2) for n_vars in (0, 1)
] + [(4, 2, 2, 4, 3), (3, 3, 2, 5, 5)]


@pytest.mark.parametrize("m, k, n_vars, trunc, p", _SLM_CASES)
def test_weight_digit_rank_matches_the_sl_basis_oracle(m, k, n_vars, trunc, p):
    ring = SeriesRing(p, n_vars, trunc)
    monomials = list(_weight_monomials(ring, k))
    identity = RingMatrix.identity(ring, m)
    new, old = [], []
    for _, _, mu in monomials:
        for i, j in itertools.combinations(range(m), 2):
            n_mat = _from_entries(
                ring, m, {(i, i): 1, (i, j): 1, (j, i): -1, (j, j): -1}, 0
            )
            for w in (
                _from_entries(ring, m, {(i, j): mu}),
                _from_entries(ring, m, {(j, i): mu}),
                identity + n_mat.scale(mu),
            ):
                digits = _weight_digits(w._flat, m, k, w._ent)
                entries = [e for row in (w - identity).rows for e in row]
                assert digits == [d for e in entries for d in _oracle_weight_digits(e, k)]
                new.append(digits)
                old.append(_sl_basis_coords(w, k, monomials, m))
    gr_dim = len(monomials) * (m * m - 1)
    assert rank(new, p) == rank(old, p) == gr_dim
    report = slm_series_suite(m, k, n_vars, trunc, p)
    assert report.all_pass
    assert report.data["gr_dim"] == gr_dim


# ---------------------------------------------------------------------------
# one graded-layer reader: the earlier formulas as oracles


def _scalar_layer_oracle(flat, m, n, p):
    """(x - I)/p^n mod p entrywise, the Z/p^N layer vector read before
    `_weight_digits` read both rings."""
    identity = [int(i == j) for i in range(m) for j in range(m)]
    return [(e - d) // p**n % p for e, d in zip(flat, identity)]


def _difference_digits_oracle(a, m, n, ent):
    """The weight-n digits of a - I, I subtracted first: the series reader
    before it read a itself."""
    p, degs = ent.ring.p, ent.degs
    width = bisect_right(degs, n)
    out = [0] * (m * m * width)
    for t, block in _add(a, ent.identity(m), ent.mod, -1):
        if t >= width:
            break
        out[t::width] = [c // p ** (n - degs[t]) % p for c in block]
    return out


def _diagonal_constants(p, cap, n):
    """1 and 1 + (p^(cap - n) - 1) p^n: the least and the largest reduced
    constant congruent to 1 mod p^n."""
    return [1, 1 + (p ** (cap - n) - 1) * p**n]


def _random_sl_gamma(rng, ring, m, n, corner):
    """An element of SL_m(Z/p^N) congruent to I mod p^n, with `corner` at
    (0, 0): random entries, then the last row scaled by the inverse of the
    determinant (a unit congruent to 1 mod p^n)."""
    p, q = ring.p, ring.modulus
    rows = [
        [int(i == j) + p**n * rng.randrange(p ** (ring.prec - n)) for j in range(m)]
        for i in range(m)
    ]
    rows[0][0] = corner
    det = RingMatrix.from_int_rows(ring, rows).det().value
    rows[-1] = [e * pow(det, -1, q) % q for e in rows[-1]]
    g = RingMatrix.from_int_rows(ring, rows)
    assert g.det() == ring.one()
    return g


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_weight_digits_match_the_scalar_layer_formula(m, p):
    rng = random.Random(f"{m}-{p}")
    for prec in range(2, 6):
        ring = ScalarRing(p, prec)
        for n in range(1, prec):
            corners = _diagonal_constants(p, prec, n)
            corners += [1 + p**n * rng.randrange(p ** (prec - n)) for _ in range(6)]
            for corner in corners:
                g = _random_sl_gamma(rng, ring, m, n, corner)
                assert congruence_depth(g) >= n
                digits = _weight_digits(g._flat, m, n, g._ent)
                assert digits == _scalar_layer_oracle(g._flat, m, n, p)
            # every diagonal constant at an extreme at once (not in SL_m)
            for c in corners[:2]:
                flat = tuple(c if i == j else 0 for i in range(m) for j in range(m))
                assert _weight_digits(flat, m, n, g._ent) == _scalar_layer_oracle(
                    flat, m, n, p
                )


def _random_series_gamma(rng, ring, m, n, constant):
    """A matrix over `ring` congruent to I mod m^n: each coefficient of
    degree d a random multiple of p^(n - d), and `constant` as the constant
    term of every diagonal entry."""
    p, layout = ring.p, _Layout(ring)

    def entry(diagonal):
        terms = {}
        for beta in layout.monos:
            d, low = sum(beta), max(n - sum(beta), 0)
            terms[beta] = p**low * rng.randrange(p ** (ring.trunc - d - low))
        if diagonal:
            terms[(0,) * ring.n_vars] = constant
        return ring.from_terms(terms)

    return RingMatrix(ring, [[entry(i == j) for j in range(m)] for i in range(m)])


@pytest.mark.parametrize("n_vars", [0, 1, 2])
@pytest.mark.parametrize("p", [3, 5])
def test_weight_digits_match_the_digits_of_x_minus_identity(n_vars, p):
    rng = random.Random(f"{n_vars}-{p}")
    for m, trunc in itertools.product((2, 3), (2, 3, 4)):
        ring = SeriesRing(p, n_vars, trunc)
        for n in range(1, trunc):
            constants = _diagonal_constants(p, trunc, n)
            constants += [1 + p**n * rng.randrange(p ** (trunc - n)) for _ in range(3)]
            for c in constants:
                g = _random_series_gamma(rng, ring, m, n, c)
                assert congruence_depth(g) >= n
                digits = _weight_digits(g._flat, m, n, g._ent)
                assert digits == _difference_digits_oracle(g._flat, m, n, g._ent)
                entries = [e for row in (g - RingMatrix.identity(ring, m)).rows for e in row]
                assert digits == [d for e in entries for d in _oracle_weight_digits(e, n)]


@pytest.mark.parametrize(
    "ring",
    [ScalarRing(3, 5), ScalarRing(7, 2), SeriesRing(3, 0, 4), SeriesRing(3, 1, 4),
     SeriesRing(5, 2, 3), SeriesRing(3, 3, 4)],
    ids=repr,
)
@pytest.mark.parametrize("m", [2, 3])
def test_pc_level_widths_are_the_layer_dimensions(ring, m):
    # m^2 digits per level over Z/p^N, m^2 C(n + v, v) over A/m^N
    v = getattr(ring, "n_vars", 0)
    pc = _PcSet(ring, m)
    widths = [
        len(_weight_digits(pc.identity, m, n, pc._ent))
        for n in range(1, len(pc.levels) + 1)
    ]
    assert widths == [m * m * math.comb(n + v, v) for n in range(1, ring.cap)]


@pytest.mark.parametrize(
    "ring, m",
    [(ScalarRing(3, 4), 2), (ScalarRing(5, 3), 2), (ScalarRing(3, 4), 3),
     (SeriesRing(3, 1, 3), 2), (SeriesRing(3, 2, 3), 2), (SeriesRing(3, 1, 3), 3)],
    ids=repr,
)
def test_pc_levels_stay_forward_reduced(ring, m):
    # each stored row is its element's layer vector, 1 at its pivot and 0 at
    # the pivots of the rows stored before it on its level
    G = closure(gamma1_generators(ring, m), limit=10**100)
    parts = [G.elements.at_depth(n) for n in range(1, ring.cap)]
    for pc in parts + pcentral_series(G).levels:
        for n, level in enumerate(pc.levels, 1):
            for j, (row, c, b, b_inv) in enumerate(level):
                assert row == _weight_digits(b, pc.m, n, pc._ent)
                assert row[c] == 1 and not any(row[:c])
                assert all(row[c2] == 0 for _, c2, _, _ in level[:j])
                assert _mul(b, b_inv, pc.m, pc.mod) == pc.identity
