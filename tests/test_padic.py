"""Scalar and series arithmetic: exactness, special functions, serialization."""

import itertools
import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tamelab.certify import _weight_monomials
from tamelab.errors import (
    DomainError,
    LimitExceeded,
    NonResidue,
    NonUnit,
    PrecisionMismatch,
    SchemaError,
)
from tamelab.padic import (
    MAX_PRECISION,
    PadicScalar,
    ScalarRing,
    SeriesElement,
    SeriesRing,
    _Layout,
    _exp_cutoff,
    _factorial_units,
    _log_cutoff,
    _series_coefficients,
    _sqrt_mod_prime,
    alpha_ratio,
    first_nonresidue,
    hensel_sqrt,
    int_valuation,
    is_nonresidue,
    pexp,
    plog,
    ring_from_header,
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


def loads_without(module: str, absent: str) -> bool:
    """Whether importing `module` in a fresh interpreter leaves `absent` out
    of sys.modules."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = f"import sys, {module}\nprint({absent!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "False"


def test_padic_loads_without_matgrp():
    # the packed kernel lives here and matgrp imports it: no cycle
    assert loads_without("tamelab.padic", "tamelab.matgrp")


def test_precision_past_the_bound_raises_before_any_power_is_formed():
    # ScalarRing(3, 10**7).modulus alone took seconds; the check comes first
    for prec in (MAX_PRECISION + 1, 10**7, 2 * 10**8):
        for make in (
            lambda: ScalarRing(3, prec),
            lambda: mk(3, prec, 1),
            lambda: SeriesRing(3, 1, prec),
            lambda: ring_from_header({"type": "padic", "p": 3, "prec": prec}),
        ):
            with pytest.raises(LimitExceeded, match="past the bound"):
                make()
    assert ScalarRing(3, MAX_PRECISION).modulus == 3**MAX_PRECISION
    assert SeriesRing(5, 2, MAX_PRECISION).trunc == MAX_PRECISION
    assert mk(3, MAX_PRECISION, -1).value == 3**MAX_PRECISION - 1
    # the lower bound stays a usage error
    for make in (lambda: ScalarRing(3, 0), lambda: SeriesRing(3, 1, 0)):
        with pytest.raises(DomainError, match="must be >= 1"):
            make()


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


def _oracle_series_coefficients(kind, p, prec):
    """`_series_coefficients` inverting the unit part of each full i!, the
    formula it had before it read `_factorial_units`."""
    cutoff = (_exp_cutoff if kind == "exp" else _log_cutoff)(p, prec)
    denoms = range(1, cutoff + 1)
    vals = [int_valuation(i, p, i) for i in denoms]
    if kind == "exp":  # v_p(i!) sums v_p(j) over j <= i
        denoms = list(itertools.accumulate(denoms, operator.mul))
        vals = list(itertools.accumulate(vals))
    h = max(vals)
    work = p ** (prec + h)
    coeffs = [p**h if kind == "exp" else 0]
    for i, (d, e) in enumerate(zip(denoms, vals), 1):
        sign = -1 if kind == "log" and i % 2 == 0 else 1
        coeffs.append(sign * p ** (h - e) * pow(d // p**e, -1, p**prec) % work)
    return h, tuple(coeffs)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_series_coefficients_match_the_full_factorial_formula(p):
    for prec in [*range(1, 60), 100, 257, 400, 990]:
        for kind in ("exp", "log"):
            got = _series_coefficients(kind, p, prec)
            assert got == _oracle_series_coefficients(kind, p, prec), (kind, prec)


def test_factorial_units_against_the_factorials():
    for p, prec in ((3, 1), (3, 5), (5, 3), (13, 2)):
        vals, invs = _factorial_units(p, prec, 40)
        fact = 1
        for i in range(41):
            fact *= max(i, 1)
            assert vals[i] == _oracle_factorial_valuation(i, p)
            assert invs[i] * (fact // p ** vals[i]) % p**prec == 1 % p**prec


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


# ---------------------------------------------------------------------------
# packed series elements against the dict-of-exponent-tuples arithmetic they
# replaced, kept here as an oracle on (ring, {exps: coeff}) pairs


def _oracle_reduce(ring, coeffs):
    out = {}
    for exps, c in coeffs.items():
        deg = sum(exps)
        if deg >= ring.trunc:
            continue
        c %= ring.p ** (ring.trunc - deg)
        if c:
            out[tuple(exps)] = c
    return out


def _oracle_add(ring, a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return _oracle_reduce(ring, out)


def _oracle_neg(ring, a):
    return _oracle_reduce(ring, {e: -c for e, c in a.items()})


def _oracle_sub(ring, a, b):
    return _oracle_add(ring, a, _oracle_neg(ring, b))


def _oracle_mul(ring, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if sum(exps) < ring.trunc:
                out[exps] = out.get(exps, 0) + c1 * c2
    return _oracle_reduce(ring, out)


def _oracle_inv(ring, a):
    zero = (0,) * ring.n_vars
    x = {zero: pow(a[zero], -1, ring.p**ring.trunc)}
    depth = 1
    while depth < ring.trunc:
        x = _oracle_mul(ring, x, _oracle_sub(ring, {zero: 2}, _oracle_mul(ring, a, x)))
        depth *= 2
    assert _oracle_mul(ring, a, x) == {zero: 1}
    return x


def _oracle_m_adic_depth(ring, a):
    depth = ring.trunc
    for exps, c in a.items():
        deg = sum(exps)
        depth = min(depth, deg + int_valuation(c, ring.p, ring.trunc - deg))
    return depth


def _oracle_p_content(ring, a):
    if not a:
        return ring.trunc
    return min(int_valuation(c, ring.p, ring.trunc - sum(e)) for e, c in a.items())


def _oracle_to_json(ring, a):
    terms = sorted(a.items(), key=lambda item: (sum(item[0]), item[0]))
    return {
        "p": ring.p,
        "n_vars": ring.n_vars,
        "trunc": ring.trunc,
        "coeffs": [[list(e), str(c)] for e, c in terms],
    }


def _all_monomials(n_vars, max_degree):
    return [
        e
        for e in itertools.product(range(max_degree + 1), repeat=n_vars)
        if sum(e) <= max_degree
    ]


@st.composite
def _series_pair(draw):
    """A ring and two raw coefficient dicts, each sparse or dense."""
    ring = SeriesRing(
        draw(st.sampled_from(PRIMES)), draw(st.integers(0, 3)), draw(st.integers(1, 6))
    )
    bound = ring.p ** (ring.trunc + 1)
    coeff = st.integers(-bound, bound)

    def raw():
        if draw(st.booleans()):  # dense: every monomial of degree < M
            monos = _all_monomials(ring.n_vars, ring.trunc - 1)
            return {e: draw(coeff) for e in monos}
        exps = st.tuples(*[st.integers(0, ring.trunc)] * ring.n_vars)
        return draw(st.dictionaries(exps, coeff, max_size=6))

    return ring, raw(), raw()


@given(_series_pair())
def test_packed_series_arithmetic_matches_dict_oracle(case):
    ring, raw_a, raw_b = case
    a, b = _oracle_reduce(ring, raw_a), _oracle_reduce(ring, raw_b)
    x, y = SeriesElement(ring, raw_a), SeriesElement(ring, raw_b)
    assert x.coeffs == a and y.coeffs == b
    assert (x + y).coeffs == _oracle_add(ring, a, b)
    assert (x - y).coeffs == _oracle_sub(ring, a, b)
    assert (-x).coeffs == _oracle_neg(ring, a)
    assert (x * y).coeffs == _oracle_mul(ring, a, b)
    assert x.m_adic_depth() == _oracle_m_adic_depth(ring, a)
    assert x.p_content() == _oracle_p_content(ring, a)
    assert x.to_json() == _oracle_to_json(ring, a)
    assert SeriesElement.from_json(ring, x.to_json()) == x
    zero = (0,) * ring.n_vars
    unit = dict(a)
    unit[zero] = unit.get(zero, 0) * ring.p + 1
    inv = SeriesElement(ring, unit).inv()
    assert inv.coeffs == _oracle_inv(ring, _oracle_reduce(ring, unit))


@pytest.mark.parametrize("n_vars", [0, 1, 2, 4])
@pytest.mark.parametrize("trunc", [1, 3, 5])
def test_layout_is_graded_lex_and_prefix_stable(n_vars, trunc):
    layout = _Layout(SeriesRing(3, n_vars, trunc))
    expected = sorted(
        _all_monomials(n_vars, trunc - 1), key=lambda e: (sum(e), e)
    )
    assert layout.monos == expected
    assert all(layout.index[e] == i for i, e in enumerate(expected))
    assert layout.mods == [3 ** (trunc - sum(e)) for e in expected]
    for h in (1, 3):
        wider = _Layout(SeriesRing(5, n_vars, trunc + h))
        assert wider.monos[: len(layout.monos)] == layout.monos


def test_equal_rings_share_eq_and_hash():
    first, second = SeriesRing(5, 2, 3), SeriesRing(5, 2, 3)
    assert first is not second
    x = SeriesElement(first, {(1, 0): 7, (0, 0): 2})
    y = SeriesElement(second, {(0, 0): 2, (1, 0): 7})
    assert x == y and hash(x) == hash(y)
    # a layout that is not the cached one falls back to comparing the rings
    y._layout = _Layout.__wrapped__(second)
    assert x == y and hash(x) == hash(y)
    assert x + y == x * SeriesElement(first, {(0, 0): 2})


@pytest.mark.parametrize(
    "other", [SeriesRing(5, 2, 4), SeriesRing(7, 2, 3), SeriesRing(5, 1, 3)]
)
def test_series_ring_mismatch_raises(other):
    x = SeriesRing(5, 2, 3).one()
    y = other.one()
    assert x != y
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(PrecisionMismatch):
            op()


def test_product_in_a_wide_ring_builds_only_the_rows_it_uses():
    ring = SeriesRing(3, 60, 3)
    layout = _Layout(ring)
    assert len(layout.monos) == 1891
    x = ring.from_int(2) + ring.variable(0) + ring.variable(59)
    y = ring.from_int(1) + ring.variable(1) * ring.variable(58) + ring.variable(59)
    got = x * y
    assert got.coeffs == _oracle_mul(ring, x.coeffs, y.coeffs)
    # the layout maps the index of each left factor used so far to its row
    assert len(layout) <= 4
    assert sum(map(len, layout.values())) < 3 * len(layout.monos)


def test_weight_monomials_come_from_the_layout_in_lex_order():
    assert len(list(_weight_monomials(SeriesRing(3, 30, 2), 1))) == 31
    ring = SeriesRing(5, 3, 4)
    for k in (1, 2, 3):
        got = [(a0, beta) for a0, beta, _ in _weight_monomials(ring, k)]
        assert got == [(k - sum(b), b) for b in _all_monomials(3, k)]


@pytest.mark.parametrize(
    "coeffs", [{(-1, 2): 1}, {(1,): 1}, {(1, 0, 0): 1}, {(0, -3): 1, (0, 0): 1}]
)
def test_series_constructor_rejects_non_monomials(coeffs):
    with pytest.raises(DomainError):
        SeriesElement(SeriesRing(3, 2, 4), coeffs)


def test_series_constructor_truncates_high_degrees():
    ring = SeriesRing(3, 2, 4)
    assert SeriesElement(ring, {(4, 0): 1, (2, 3): 5}).is_zero()


@pytest.mark.parametrize(
    "coeffs",
    [[[[-1, 2], "1"]], [[[1, 0], "1"], [[1, 0], "2"]], [[[1], "1"]], [[[0, 0]]]],
)
def test_series_from_json_rejects_malformed_terms(coeffs):
    payload = {"p": 3, "n_vars": 2, "trunc": 4, "coeffs": coeffs}
    with pytest.raises(SchemaError):
        SeriesElement.from_json(SeriesRing(3, 2, 4), payload)


def test_series_coeffs_view_is_read_only():
    x = SeriesRing(3, 1, 3).variable(0)
    with pytest.raises(TypeError):
        x.coeffs[(0,)] = 1
