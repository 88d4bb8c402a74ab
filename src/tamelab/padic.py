"""Exact fixed-precision arithmetic in Z/p^N and in Z_p[[T_1..T_n]] mod m^M.

Scalars carry their odd prime and precision; operations between values with
different (p, N) raise PrecisionMismatch instead of coercing, so precision
loss is never silent.  Series elements carry graded precision: the
coefficient of a total-degree-j monomial is a residue mod p^(M-j), which is
exactly the information present in the quotient by m^M, m = (p, T_1..T_n).

A monomial is named by its index, its place in graded-lex order (degree,
then exponent tuple) among the monomials of degree < M.  Each ring caches
this layout once (`_Layout`), with the moduli and, built row by row on
first use, the product table.  Graded-lex order is prefix-stable: the
monomials of (p, n, M) are the first ones of (p, n, M + h), so moving an
element to a wider or narrower truncation keeps its indices.

This module owns the one packed kernel (`_int_product`, `_mul`, `_add`,
the Newton lift `_newton`, the valuation reader `_valuations`): `matgrp`'s
matrices, `pcentral`'s pc groups and `SeriesElement`, the 1 x 1 case, all
run on it.  `matgrp`, from which nothing is imported here, owns the entry
contract, the matrices and the group operations.

The truncated exp/log series is specified once, here: its cutoff, headroom
and term coefficients come from `_series_coefficients`, which `plog`/`pexp`
evaluate on scalars and `matgrp.mat_exp`/`mat_log` on matrices.  The
series, the Hensel square root and the quadratic-nonresidue helpers feed
the congruence-group constructions in `matgrp` and `certify`.

Each ring writes its JSON header (`json_header`), and `ring_from_header`
alone reads one back.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd
from operator import add
from types import MappingProxyType

from .errors import (
    DomainError,
    GuardFailed,
    LimitExceeded,
    NonResidue,
    NonUnit,
    PrecisionMismatch,
    SchemaError,
    json_int,
    json_list,
)

# ---------------------------------------------------------------------------
# integer helpers


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017), 985-1003)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Exact for p below `_PRIME_BOUND`; a larger p raises DomainError."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= _PRIME_BOUND:
        raise DomainError(f"p = {p} is not below {_PRIME_BOUND}, the primality bound")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (0, 1, p - 1):  # 0 only when p is the base a
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int, cap: int) -> int:
    """Largest v <= cap with p^v | n; 0 reports the cap."""
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def is_nonresidue(a: int, p: int) -> bool:
    return pow(a % p, (p - 1) // 2, p) == p - 1


def first_nonresidue(p: int) -> int:
    """The least a >= 2 that is a quadratic nonresidue mod p."""
    a = 2
    while not is_nonresidue(a, p):
        a += 1
    return a


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root mod an odd prime, or None for a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if is_nonresidue(a, p):
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(first_nonresidue(p), q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


# ---------------------------------------------------------------------------
# scalar ring Z/p^N


# the largest precision of any ring, working ones (exp/log headroom,
# `alpha_ratio` guard digits) included; checked before p^N is formed
MAX_PRECISION = 1000


def _check_ring(p: int, prec: int, what: str = "precision"):
    if not is_odd_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    if prec < 1:
        raise DomainError(f"{what} must be >= 1, got {prec}")
    if prec > MAX_PRECISION:
        raise LimitExceeded(f"{what} {prec} is past the bound {MAX_PRECISION}")


def _check_work(prec: int, work: int, what: str = "precision"):
    """Refuse a working precision past the bound, naming the given one too."""
    if work > MAX_PRECISION:
        bound = f"working precision {work}, past the bound {MAX_PRECISION}"
        raise LimitExceeded(f"{what} {prec} needs {bound}")


@dataclass(frozen=True)
class ScalarRing:
    """Descriptor for Z/p^N viewed as the length-N truncation of Z_p."""

    p: int
    prec: int

    def __post_init__(self):
        _check_ring(self.p, self.prec)

    @property
    def cap(self) -> int:
        return self.prec

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def zero(self) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, 0)

    def one(self) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, 1)

    def from_int(self, n: int) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, n)

    def element_from_json(self, obj) -> "PadicScalar":
        return PadicScalar.from_json(obj)

    def json_header(self) -> dict:
        return {"type": "padic", "p": self.p, "prec": self.prec}


class PadicScalar:
    """A residue in [0, p^N) standing for a p-adic integer known mod p^N."""

    __slots__ = ("p", "prec", "value")

    def __init__(self, p: int, prec: int, value: int):
        _check_ring(p, prec)
        self.p = p
        self.prec = prec
        self.value = value % p**prec

    @property
    def ring(self) -> ScalarRing:
        return ScalarRing(self.p, self.prec)

    def _check(self, other: "PadicScalar"):
        if not isinstance(other, PadicScalar):
            raise TypeError(f"expected PadicScalar, got {type(other).__name__}")
        if self.p != other.p or self.prec != other.prec:
            raise PrecisionMismatch(
                f"(p={self.p}, N={self.prec}) vs (p={other.p}, N={other.prec})"
            )

    def __add__(self, other):
        self._check(other)
        return PadicScalar(self.p, self.prec, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return PadicScalar(self.p, self.prec, self.value - other.value)

    def __neg__(self):
        return PadicScalar(self.p, self.prec, -self.value)

    def __mul__(self, other):
        self._check(other)
        return PadicScalar(self.p, self.prec, self.value * other.value)

    def inv(self) -> "PadicScalar":
        if not self.is_unit():
            raise NonUnit(f"{self!r} has valuation {self.valuation()}")
        return PadicScalar(self.p, self.prec, pow(self.value, -1, self.p**self.prec))

    def valuation(self) -> int:
        """v_p capped at the precision; the zero residue reports the cap."""
        return int_valuation(self.value, self.p, self.prec)

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        return (
            isinstance(other, PadicScalar)
            and self.p == other.p
            and self.prec == other.prec
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.value))

    def __repr__(self):
        return f"PadicScalar(p={self.p}, N={self.prec}, {self.value})"

    def to_json(self) -> dict:
        return {"p": self.p, "prec": self.prec, "value": str(self.value)}

    @classmethod
    def from_json(cls, obj) -> "PadicScalar":
        try:
            return cls(*(json_int(obj[key]) for key in ("p", "prec", "value")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad scalar payload {obj!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# special functions on scalars


def hensel_sqrt(u: PadicScalar) -> PadicScalar:
    """Square root of a unit by Newton lifting from a Tonelli-Shanks seed.

    Of the two roots the one whose residue mod p lies in [1, (p-1)/2] is
    returned, so a square that is 1 mod p gets the root that is 1 mod p.
    """
    if not u.is_unit():
        raise NonUnit("hensel_sqrt needs a unit argument")
    p, prec = u.p, u.prec
    r = _sqrt_mod_prime(u.value % p, p)
    if r is None:
        raise NonResidue(f"{u.value} is not a square mod {p}")
    if r > p - r:
        r = p - r
    inv2 = pow(2, -1, p**prec)
    modulus = p
    while modulus < p**prec:
        modulus = min(modulus * modulus, p**prec)
        r = (r + u.value * pow(r, -1, modulus)) * inv2 % modulus
    root = PadicScalar(p, prec, r)
    if (root * root).value != u.value:
        raise GuardFailed("Hensel lift does not square to its argument")
    return root


def _log_cutoff(p: int, prec: int) -> int:
    # all terms x^i/i with i > B have valuation i - v_p(i) >= prec
    e = 0
    while p**e < prec + e:
        e += 1
    return prec + e


def _exp_cutoff(p: int, prec: int) -> int:
    # term i has valuation >= i - (i-1)/(p-1), increasing in i
    i = 1
    while i * (p - 2) + 1 < prec * (p - 1):
        i += 1
    return i


@lru_cache(maxsize=None)
def _factorial_units(p: int, prec: int, n: int) -> tuple[tuple, tuple]:
    """v_p(i!) and the inverse mod p^prec of the unit part i! / p^v_p(i!),
    for i = 0..n, carried over the factors j <= i."""
    q, vals, invs = p**prec, [0], [1]
    for j in range(1, n + 1):
        v = int_valuation(j, p, j)
        vals.append(vals[-1] + v)
        invs.append(invs[-1] * pow(j // p**v, -1, q) % q)
    return tuple(vals), tuple(invs)


@lru_cache(maxsize=None)
def _series_coefficients(kind: str, p: int, prec: int) -> tuple[int, tuple]:
    """Headroom h and c_0..c_B with p^h f(x) = sum c_i x^i mod p^(prec+h).

    f is exp or log, cut off where every later term of x in pZ_p vanishes
    mod p^prec.  Term i, x^i / d_i with d_i = i! (exp) or (-1)^(i+1) i
    (log) and v_p(d_i) = e_i, becomes c_i = p^(h - e_i) / unit(d_i) with
    h the largest e_i, so a sum of such terms needs no division until
    the final one by p^h.  Scalars (`plog`, `pexp`) and matrices
    (`matgrp.mat_exp`, `matgrp.mat_log`) both read these coefficients.
    """
    cutoff = (_exp_cutoff if kind == "exp" else _log_cutoff)(p, prec)
    if kind == "exp":
        vals, invs = (t[1:] for t in _factorial_units(p, prec, cutoff))
    else:
        vals = [int_valuation(i, p, i) for i in range(1, cutoff + 1)]
        invs = [pow(i // p**e, -1, p**prec) for i, e in enumerate(vals, 1)]
    h = max(vals)
    work = p ** (prec + h)
    coeffs = [p**h if kind == "exp" else 0]
    for i, (e, u) in enumerate(zip(vals, invs), 1):
        sign = -1 if kind == "log" and i % 2 == 0 else 1
        coeffs.append(sign * p ** (h - e) * u % work)
    return h, tuple(coeffs)


def _series_at(kind: str, x: int, p: int, prec: int) -> PadicScalar:
    h, coeffs = _series_coefficients(kind, p, prec)
    work = p ** (prec + h)
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % work
    return PadicScalar(p, prec, total // p**h)


def plog(u: PadicScalar) -> PadicScalar:
    """p-adic logarithm of a 1-unit, truncated exactly at the carried precision."""
    if u.value % u.p != 1:
        raise DomainError("plog needs u congruent to 1 mod p")
    return _series_at("log", u.value - 1, u.p, u.prec)


def pexp(x: PadicScalar) -> PadicScalar:
    """p-adic exponential of an element of pZ_p, truncated exactly."""
    if x.value % x.p != 0:
        raise DomainError("pexp needs x congruent to 0 mod p")
    return _series_at("exp", x.value, x.p, x.prec)


def alpha_ratio(a: PadicScalar, b: PadicScalar, k: int) -> PadicScalar:
    """log(1+bp^k) / log(1+ap^k) for a unit a, computed with k+2 guard levels.

    The result alpha satisfies (1+ap^k)^alpha = 1+bp^k mod p^(N+k) and is
    returned at precision N.
    """
    a._check(b)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not a.is_unit():
        raise DomainError("alpha_ratio needs a unit first argument")
    p, prec = a.p, a.prec
    work = prec + k + 2
    _check_work(prec, work)
    num = plog(PadicScalar(p, work, 1 + a.value * p**k))
    den = plog(PadicScalar(p, work, 1 + b.value * p**k))
    # log(1+ap^k) has valuation exactly k for unit a
    unit = num.value // p**k
    alpha = (den.value // p**k) * pow(unit, -1, p ** (work - k)) % p ** (work - k)
    return PadicScalar(p, prec, alpha)


# ---------------------------------------------------------------------------
# truncated multivariate power series


@dataclass(frozen=True)
class SeriesRing:
    """Descriptor for Z_p[[T_1..T_n]] / m^M with m = (p, T_1..T_n)."""

    p: int
    n_vars: int
    trunc: int

    def __post_init__(self):
        _check_ring(self.p, self.trunc, "truncation")
        if self.n_vars < 0:
            raise DomainError("n_vars must be >= 0")

    @property
    def cap(self) -> int:
        return self.trunc

    def coeff_modulus(self, degree: int) -> int:
        return self.p ** (self.trunc - degree)

    def zero(self) -> "SeriesElement":
        return SeriesElement(self, {})

    def one(self) -> "SeriesElement":
        return SeriesElement(self, {(0,) * self.n_vars: 1})

    def from_int(self, n: int) -> "SeriesElement":
        return SeriesElement(self, {(0,) * self.n_vars: n})

    def from_terms(self, terms: dict) -> "SeriesElement":
        return SeriesElement(self, terms)

    def variable(self, index: int) -> "SeriesElement":
        exps = [0] * self.n_vars
        exps[index] = 1
        return SeriesElement(self, {tuple(exps): 1})

    def element_from_json(self, obj) -> "SeriesElement":
        return SeriesElement.from_json(self, obj)

    def json_header(self) -> dict:
        return {
            "type": "series",
            "p": self.p,
            "n_vars": self.n_vars,
            "trunc": self.trunc,
        }


def ring_from_header(header) -> ScalarRing | SeriesRing:
    """The ring whose `json_header` is header.

    A missing field or a string that is no integer raises KeyError,
    TypeError or ValueError for the caller's payload parser to report; a
    float, a bool or an unknown type raises SchemaError.
    """
    if header["type"] == "padic":
        return ScalarRing(json_int(header["p"]), json_int(header["prec"]))
    if header["type"] == "series":
        n_vars, trunc = json_int(header["n_vars"]), json_int(header["trunc"])
        return SeriesRing(json_int(header["p"]), n_vars, trunc)
    raise SchemaError(f"unknown ring type {header!r}")


@lru_cache(maxsize=None)
class _Layout(dict):
    """The monomials of degree < M of one series ring, in graded-lex order.

    One per ring (the class is cached): monomial i is `monos[i]`, of degree
    `degs[i]` and coefficient modulus `mods[i]`.  As a dict it maps i to its
    product row, built on first use: row[j] is the index of monos[i] * monos[j]
    for each j < len(row), the j of degree < M - degs[i].
    """

    def __init__(self, ring: SeriesRing):
        # the variable multisets of one degree come in descending lex order
        # of their exponent tuples
        n, self.ring = ring.n_vars, ring
        self.monos = [
            tuple(map(combo.count, range(n)))
            for d in range(ring.trunc)
            for combo in reversed([*combinations_with_replacement(range(n), d)])
        ]
        self.index = {exps: i for i, exps in enumerate(self.monos)}
        self.degs = [sum(exps) for exps in self.monos]
        self.mods = [ring.coeff_modulus(d) for d in self.degs]

    def __missing__(self, i: int) -> list:
        exps, index = self.monos[i], self.index
        cut = bisect_left(self.degs, self.ring.trunc - self.degs[i])
        self[i] = row = [index[tuple(map(add, exps, e))] for e in self.monos[:cut]]
        return row


# ---------------------------------------------------------------------------
# the packed kernel on flat forms of m x m matrices: over Z/p^N (`mod` = p^N)
# a row-major tuple of ints in [0, p^N); over A/m^M (`mod` = the `_Layout`)
# sum_beta T^beta C_beta as (index of beta, C_beta) pairs sorted by index,
# each block a flat integer tuple reduced mod p^(M - deg beta), zero blocks
# left out, so equal matrices have equal forms


@lru_cache(maxsize=None)
def _int_product(m: int):
    """product(mod, a, b) of flat m x m integer tuples, generated for m: unpack
    both, then one (a0*b0 + ...) % mod per entry (for m = 2, the hand unroll).
    Built at the first product of each m; the source grows as m^3."""
    a, b = (", ".join(f"{x}{k}" for k in range(m * m)) for x in "ab")
    entries = ", ".join(
        "(" + " + ".join(f"a{i + t} * b{t * m + j}" for t in range(m)) + ") % mod"
        for i in range(0, m * m, m)
        for j in range(m)
    )
    code: dict = {}
    exec(f"def product(mod, a, b):\n {a}, = a\n {b}, = b\n return ({entries},)", code)
    return code["product"]


def _sorted_blocks(acc: dict, mods: list) -> tuple:
    """The series form of acc (index -> block): sorted, each list (a sum)
    reduced mod its modulus, zero blocks dropped; tuples come reduced."""
    out = []
    for k in sorted(acc):
        c = acc[k]
        if type(c) is list:
            q = mods[k]
            c = tuple([e % q for e in c])
        if any(c):
            out.append((k, c))
    return tuple(out)


def _mul(a: tuple, b: tuple, m: int, mod) -> tuple:
    """a b; over a series ring C_b1 C_b2 is added into block b1 + b2 when its
    degree is below the truncation."""
    product = _int_product(m)
    if isinstance(mod, int):
        return product(mod, a, b)
    mods, acc = mod.mods, {}
    for i, x in a:
        row = mod[i]
        size = len(row)
        for j, y in b:
            if j >= size:  # b is sorted by degree: the rest vanish too
                break
            k = row[j]
            c = product(mods[k], x, y)
            acc[k] = [*map(add, acc[k], c)] if k in acc else c
    return _sorted_blocks(acc, mods)


def _add(a: tuple, b: tuple, mod, c: int = 1) -> tuple:
    """a + c b for an integer c."""
    if isinstance(mod, int):
        return tuple((x + c * y) % mod for x, y in zip(a, b))
    acc = dict(a)
    for k, y in b:
        x = acc.get(k)
        acc[k] = [u + c * v for u, v in zip(x, y)] if x else [c * v for v in y]
    return _sorted_blocks(acc, mod.mods)


def _newton(a: tuple, x: tuple, m: int, mod, one: tuple, cap: int) -> tuple:
    """a^-1 lifted from x, an inverse of a's constant block mod p^cap.  Each
    step X <- X + X(I - aX) squares the residual I - aX, whose blocks start
    at degree >= 1: no step over Z/p^N, at most ceil(log2 M) over A/m^M, and
    a return only once aX = I (GuardFailed past that bound)."""
    for _ in range(cap.bit_length() + 1):  # ceil(log2 M) steps, checked
        ax = _mul(a, x, m, mod)
        if ax == one:
            return x
        x = _add(x, _mul(x, _add(one, ax, mod, -1), m, mod), mod)
    raise GuardFailed("Newton lifting did not reach the inverse")


def _valuations(blocks, ring: ScalarRing | SeriesRing, degs: list) -> list:
    """(degree, least p-adic valuation) of each (index, block) pair; a zero
    block (only a scalar matrix has one) reports the precision cap."""
    p, cap = ring.p, ring.cap
    return [(degs[i], int_valuation(gcd(*c), p, cap)) for i, c in blocks]


class SeriesElement:
    """Element of A/m^M as the packed form of a 1 x 1 matrix: sorted (monomial
    index, (residue,)) pairs, each residue nonzero mod p^(M - degree); `coeffs`
    is the read-only view keyed by exponent tuples."""

    __slots__ = ("ring", "_layout", "_flat")

    def __init__(self, ring: SeriesRing, coeffs):
        layout, raw = _Layout(ring), {}
        for exps, c in coeffs.items():
            i = layout.index.get(tuple(exps))
            if i is not None:
                raw[i] = [c]
            elif len(exps) != ring.n_vars or not all(
                isinstance(e, int) and e >= 0 for e in exps
            ):
                raise DomainError(f"{exps} is not a monomial of {ring}")
            # any other exponent vector has degree >= M: zero in A/m^M
        self.ring, self._layout = ring, layout
        self._flat = _sorted_blocks(raw, layout.mods)

    @classmethod
    def _packed(cls, layout: _Layout, flat: tuple) -> "SeriesElement":
        """Wrap a packed form (reduced, canonical) without checks."""
        x = object.__new__(cls)
        x.ring, x._layout, x._flat = layout.ring, layout, flat
        return x

    def _check(self, other: "SeriesElement"):
        if not isinstance(other, SeriesElement):
            raise TypeError(f"expected SeriesElement, got {type(other).__name__}")
        if other._layout is not self._layout and other.ring != self.ring:
            raise PrecisionMismatch(f"{self.ring} vs {other.ring}")

    @property
    def coeffs(self) -> MappingProxyType:
        monos = self._layout.monos
        return MappingProxyType({monos[i]: c for i, (c,) in self._flat})

    def __add__(self, other):
        self._check(other)
        return self._packed(self._layout, _add(self._flat, other._flat, self._layout))

    def __neg__(self):
        return self._packed(self._layout, _add((), self._flat, self._layout, -1))

    def __sub__(self, other):
        self._check(other)
        layout = self._layout
        return self._packed(layout, _add(self._flat, other._flat, layout, -1))

    def __mul__(self, other):
        self._check(other)
        layout = self._layout
        return self._packed(layout, _mul(self._flat, other._flat, 1, layout))

    def m_adic_depth(self) -> int:
        """Largest k with the element in m^k, capped at the truncation order."""
        pairs = _valuations(self._flat, self.ring, self._layout.degs)
        return min((d + v for d, v in pairs), default=self.ring.trunc)

    def p_content(self) -> int:
        """Minimal coefficient valuation; infinite (capped) for the zero element."""
        pairs = _valuations(self._flat, self.ring, self._layout.degs)
        return min((v for _, v in pairs), default=self.ring.trunc)

    def constant_coefficient(self) -> int:
        return self._flat[0][1][0] if self._flat and self._flat[0][0] == 0 else 0

    def is_unit(self) -> bool:
        return self.constant_coefficient() % self.ring.p != 0

    def is_zero(self) -> bool:
        return not self._flat

    def inv(self) -> "SeriesElement":
        """Newton lifting from the inverse of the constant coefficient."""
        if not self.is_unit():
            raise NonUnit("series inverse needs a unit constant coefficient")
        layout = self._layout
        seed = ((0, (pow(self.constant_coefficient(), -1, layout.mods[0]),)),)
        x = _newton(self._flat, seed, 1, layout, ((0, (1,)),), self.ring.trunc)
        return self._packed(layout, x)

    def sorted_terms(self) -> list:
        """(exponent tuple, residue) pairs in graded-lex order."""
        monos = self._layout.monos
        return [(monos[i], c) for i, (c,) in self._flat]

    def __eq__(self, other):
        return (
            isinstance(other, SeriesElement)
            and (other._layout is self._layout or other.ring == self.ring)
            and self._flat == other._flat
        )

    def __hash__(self):
        return hash(self._flat)

    def __repr__(self):
        if not self._flat:
            return "SeriesElement(0)"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"T{i+1}^{e}" if e > 1 else f"T{i+1}" for i, e in enumerate(exps) if e
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return f"SeriesElement({' + '.join(parts)})"

    def to_json(self) -> dict:
        return {
            "p": self.ring.p,
            "n_vars": self.ring.n_vars,
            "trunc": self.ring.trunc,
            "coeffs": [[list(e), str(c)] for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, ring: SeriesRing, obj) -> "SeriesElement":
        try:
            header = tuple(json_int(obj[key]) for key in ("p", "n_vars", "trunc"))
            if header != (ring.p, ring.n_vars, ring.trunc):
                raise SchemaError(f"series payload {obj!r} does not match {ring}")
            pairs = json_list(obj["coeffs"])
            terms = [(tuple(map(json_int, json_list(e))), json_int(c)) for e, c in pairs]
            if len(dict(terms)) != len(terms):
                raise SchemaError(f"series payload {obj!r} repeats a monomial")
            return cls(ring, dict(terms))
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise SchemaError(f"bad series payload {obj!r}: {exc}") from exc
