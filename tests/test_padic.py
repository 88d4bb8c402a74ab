"""Scalar and series arithmetic: exactness, special functions, serialization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tamelab.errors import DomainError, NonResidue, NonUnit, PrecisionMismatch
from tamelab.padic import (
    PadicScalar,
    SeriesElement,
    SeriesRing,
    _exp_cutoff,
    _log_cutoff,
    _sqrt_mod_prime,
    alpha_ratio,
    first_nonresidue,
    hensel_sqrt,
    int_valuation,
    is_nonresidue,
    pexp,
    plog,
)

PRIMES = [3, 5, 7]

scalar_params = st.tuples(
    st.sampled_from(PRIMES), st.integers(1, 5), st.integers(-(10**6), 10**6)
)


def mk(p, prec, v):
    return PadicScalar(p, prec, v)


# ---------------------------------------------------------------------------
# ring structure


def test_inv_identity():
    assert mk(5, 3, 1).inv() == mk(5, 3, 1)


def test_inv_two_mod_nine_brute_force():
    got = mk(3, 2, 2).inv()
    brute = [r for r in range(9) if (2 * r) % 9 == 1]
    assert brute == [5]
    assert got.value == 5


@given(scalar_params)
def test_additive_inverse(params):
    p, prec, v = params
    x = mk(p, prec, v)
    assert (x + (-x)).value == 0


@given(scalar_params, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_ring_axioms(params, b, c):
    p, prec, a = params
    x, y, z = mk(p, prec, a), mk(p, prec, b), mk(p, prec, c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(scalar_params)
def test_unit_inverse_roundtrip(params):
    p, prec, v = params
    x = mk(p, prec, v)
    if x.is_unit():
        assert (x * x.inv()).value == 1
    else:
        with pytest.raises(NonUnit):
            x.inv()


def test_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        mk(3, 2, 1) + mk(3, 3, 1)
    with pytest.raises(PrecisionMismatch):
        mk(3, 2, 1) * mk(5, 2, 1)


def test_valuation_capped_at_zero():
    assert mk(3, 4, 0).valuation() == 4
    assert mk(3, 4, 9).valuation() == 2
    assert mk(3, 4, 2).valuation() == 0


def test_even_prime_rejected():
    with pytest.raises(DomainError):
        mk(2, 3, 1)
    with pytest.raises(DomainError):
        mk(9, 3, 1)


# ---------------------------------------------------------------------------
# hensel square roots


def test_hensel_trivial():
    assert hensel_sqrt(mk(5, 4, 1)).value == 1


def test_hensel_perfect_square_one_unit():
    for p in PRIMES:
        u = mk(p, 4, (1 + p) ** 2)
        assert hensel_sqrt(u).value == 1 + p


def test_hensel_p7_sqrt2_brute_force():
    # independent oracle: every residue mod 7^4 whose square is 2
    roots = [r for r in range(7**4) if (r * r) % 7**4 == 2]
    chosen = [r for r in roots if r % 7 == 3]
    assert len(roots) == 2 and len(chosen) == 1
    assert hensel_sqrt(mk(7, 4, 2)).value == chosen[0]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("prec", [1, 2, 3, 4])
def test_hensel_full_unit_sweep(p, prec):
    squares = {pow(r, 2, p) for r in range(1, p)}
    for u in range(1, p**prec):
        if u % p == 0:
            continue
        x = mk(p, prec, u)
        if u % p in squares:
            r = hensel_sqrt(x)
            assert (r * r) == x
            assert 1 <= r.value % p <= (p - 1) // 2
        else:
            with pytest.raises(NonResidue):
                hensel_sqrt(x)


def test_hensel_nonunit():
    with pytest.raises(NonUnit):
        hensel_sqrt(mk(5, 3, 10))


# ---------------------------------------------------------------------------
# log / exp


def test_plog_one():
    assert plog(mk(3, 4, 1)).value == 0


def test_plog_pexp_inverse_pair():
    for p in PRIMES:
        u = mk(p, 4, 1 + p)
        assert pexp(plog(u)) == u


def test_plog_pexp_exhaustive_p3():
    # all of 1 + 3Z/81 one way, all of 3Z/81 the other
    for k in range(27):
        u = mk(3, 4, 1 + 3 * k)
        assert pexp(plog(u)) == u
        x = mk(3, 4, 3 * k)
        assert plog(pexp(x)) == x


def test_plog_pexp_exhaustive_p3_prec3():
    for k in range(9):
        u = mk(3, 3, 1 + 3 * k)
        assert pexp(plog(u)) == u
        x = mk(3, 3, 3 * k)
        assert plog(pexp(x)) == x


def test_plog_against_rational_series_oracle():
    # sum_{i=1}^{10} (-1)^(i+1) 3^i / i, evaluated exactly over Q
    total = sum(Fraction((-1) ** (i + 1) * 3**i, i) for i in range(1, 11))
    got = plog(mk(3, 4, 4))
    diff = total - got.value
    num, den = diff.numerator, diff.denominator
    val = 0
    while num and num % 3 == 0:
        num //= 3
        val += 1
    assert den % 3 != 0 and (diff == 0 or val >= 4)


def test_plog_domain():
    with pytest.raises(DomainError):
        plog(mk(5, 3, 2))
    with pytest.raises(DomainError):
        pexp(mk(5, 3, 1))


# ---------------------------------------------------------------------------
# the series against the per-function loops it replaced, kept as oracles


def _oracle_factorial_valuation(n, p):
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def _oracle_plog(u):
    p, prec = u.p, u.prec
    modulus = p**prec
    x = u.value - 1
    cutoff = _log_cutoff(p, prec)
    headroom = max(int_valuation(i, p, prec) for i in range(1, cutoff + 1))
    work = p ** (prec + headroom)
    total = 0
    power = 1
    for i in range(1, cutoff + 1):
        power = power * x % work
        e = int_valuation(i, p, prec + headroom)
        term = (power // p**e) * pow(i // p**e, -1, modulus) % modulus
        total = (total - term if i % 2 == 0 else total + term) % modulus
    return PadicScalar(p, prec, total)


def _oracle_pexp(x):
    p, prec = x.p, x.prec
    modulus = p**prec
    cutoff = _exp_cutoff(p, prec)
    headroom = _oracle_factorial_valuation(cutoff, p)
    work = p ** (prec + headroom)
    total = 1
    power = 1
    fact = 1
    for i in range(1, cutoff + 1):
        power = power * x.value % work
        fact *= i
        e = _oracle_factorial_valuation(i, p)
        unit = (fact // p**e) % modulus
        total = (total + (power // p**e) * pow(unit, -1, modulus)) % modulus
    return PadicScalar(p, prec, total)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("prec", [1, 2, 3, 4])
def test_plog_pexp_match_series_loop_oracles(p, prec):
    # every 1-unit and every multiple of p mod p^prec
    for v in range(0, p**prec, p):
        u, x = mk(p, prec, v + 1), mk(p, prec, v)
        assert plog(u) == _oracle_plog(u), (p, prec, v + 1)
        assert pexp(x) == _oracle_pexp(x), (p, prec, v)


def test_series_oracles_at_higher_precision():
    # the cutoffs and headrooms grow with the precision
    rng = random.Random(11)
    for p in PRIMES:
        for prec in (6, 9, 13):
            for _ in range(20):
                v = p * rng.randrange(p ** (prec - 1))
                assert plog(mk(p, prec, v + 1)) == _oracle_plog(mk(p, prec, v + 1))
                assert pexp(mk(p, prec, v)) == _oracle_pexp(mk(p, prec, v))


_ODD_PRIMES = [p for p in range(3, 100) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", _ODD_PRIMES)
def test_square_roots_and_nonresidues_match_brute_force(p):
    squares = {a * a % p for a in range(p)}
    assert first_nonresidue(p) == min(a for a in range(2, p) if a not in squares)
    for a in range(p):
        assert is_nonresidue(a, p) == (a not in squares)
        r = _sqrt_mod_prime(a, p)
        assert (r is None) == (a not in squares)
        if r is not None:
            assert r * r % p == a


# ---------------------------------------------------------------------------
# alpha ratios


def test_alpha_ratio_same_argument():
    a = mk(5, 4, 3)
    assert alpha_ratio(a, a, 2).value == 1


def test_alpha_ratio_zero_numerator():
    a, b = mk(5, 4, 3), mk(5, 4, 0)
    assert alpha_ratio(a, b, 1).value == 0


def test_alpha_ratio_p5_example():
    alpha = alpha_ratio(mk(5, 4, 1), mk(5, 4, 2), 1)
    assert pow(6, alpha.value, 5**4) == 11 % 5**4


def test_alpha_ratio_nonunit_rejected():
    with pytest.raises(DomainError):
        alpha_ratio(mk(5, 4, 5), mk(5, 4, 2), 1)


@pytest.mark.parametrize("p", PRIMES)
def test_alpha_ratio_powering_oracle(p):
    import random

    rng = random.Random(p)
    prec = 4
    for _ in range(100):
        k = rng.randint(1, 2)
        a = mk(p, prec, rng.choice([v for v in range(1, p)]) + p * rng.randrange(p ** (prec - 1)))
        b = mk(p, prec, rng.randrange(p**prec))
        alpha = alpha_ratio(a, b, k)
        mod = p ** (prec + k)
        assert pow(1 + a.value * p**k, alpha.value, mod) == (1 + b.value * p**k) % mod


# ---------------------------------------------------------------------------
# series elements


def test_series_depth_examples():
    ring = SeriesRing(3, 1, 4)
    x = ring.from_int(3) + ring.variable(0)
    assert x.m_adic_depth() == 1
    y = ring.from_terms({(1,): 9})
    assert y.m_adic_depth() == 3
    assert ring.zero().m_adic_depth() == 4


def test_series_square_graded_precision():
    ring = SeriesRing(5, 1, 3)
    t = ring.variable(0)
    sq = t * t
    # degree-2 coefficient lives mod p^(M-2) = 5
    assert sq.coeffs == {(2,): 1}
    big = ring.from_terms({(1,): 1 + 5})  # (1+5)T
    prod = big * big
    assert prod.coeffs == {(2,): (1 + 5) ** 2 % 5}


def test_series_mul_against_polynomial_oracle():
    import random

    rng = random.Random(11)
    ring = SeriesRing(3, 2, 4)
    for _ in range(30):
        raw_a = {
            (e1, e2): rng.randrange(81)
            for e1 in range(4)
            for e2 in range(4)
            if e1 + e2 < 4
        }
        raw_b = {
            (e1, e2): rng.randrange(81)
            for e1 in range(4)
            for e2 in range(4)
            if e1 + e2 < 4
        }
        got = ring.from_terms(raw_a) * ring.from_terms(raw_b)
        # oracle: full polynomial product over Z, then reduce
        conv = {}
        for ea, ca in raw_a.items():
            for eb, cb in raw_b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                conv[e] = conv.get(e, 0) + ca * cb
        assert got == ring.from_terms(conv)


def test_series_degenerates_to_scalar():
    ring = SeriesRing(5, 0, 3)
    x = ring.from_int(7)
    y = ring.from_int(11)
    assert (x * y).constant_coefficient() == (7 * 11) % 125
    assert x.m_adic_depth() == PadicScalar(5, 3, 7).valuation()


def test_series_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        SeriesRing(3, 1, 3).variable(0) + SeriesRing(3, 1, 4).variable(0)


def test_series_inverse():
    ring = SeriesRing(3, 1, 4)
    u = ring.from_int(2) + ring.variable(0)
    assert u * u.inv() == ring.one()
    with pytest.raises(NonUnit):
        (ring.from_int(3) + ring.variable(0)).inv()


# ---------------------------------------------------------------------------
# serialization


def test_scalar_json_roundtrip():
    x = mk(7, 3, 123)
    payload = json.loads(json.dumps(x.to_json()))
    assert PadicScalar.from_json(payload) == x
    assert payload["value"] == "123"


def test_series_json_graded_lex_order():
    ring = SeriesRing(3, 2, 4)
    x = ring.from_terms({(0, 2): 1, (1, 0): 2, (0, 0): 5, (2, 0): 7, (0, 1): 1})
    payload = x.to_json()
    exps = [tuple(e) for e, _ in payload["coeffs"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))
    assert SeriesElement.from_json(ring, payload) == x
