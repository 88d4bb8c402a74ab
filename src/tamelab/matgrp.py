"""Matrices over Z/p^N or truncated power-series rings.

Covers the group-side kernel machinery: commutators under the convention
[g, h] = g h g^-1 h^-1, Z_p-exponent powering, exact truncated matrix
exp/log, congruence depth, and the standard depth-one generating set of
the first congruence subgroup of SL_m.  Every fixed matrix of the
suites (the generators below, the SL_2 witnesses, the quaternion lattice,
the series-ring conjugators) comes from one builder, `_from_entries`: a
multiple of I with a dict of entries overwritten.

The commutator convention is load-bearing: it is the one under which the
diagonal/unipotent relations of the SL_2 construction hold with exponent q-1 on the nose, and
flipping it flips exponent signs everywhere downstream.

This module owns the one packed matrix kernel.  A matrix is a flat
row-major tuple of ring-native entries (ints in [0, p^N) over a
`ScalarRing`, `SeriesElement`s over a `SeriesRing`), and the private loops
below run on such tuples with + - * only, finishing each entry with
`% mod`: p^N for scalars, a no-op for series, which reduce themselves.
Over Z/p^N a product is one generated product per m (`_int_product`,
straight-line code built at the first product of that m); over a series
ring, on each pair of integer blocks of sum_beta T^beta C_beta whose degrees
sum below the truncation (`_block_mul`).  `RingMatrix` and the enumerated
groups of `pcentral` share them, `_inverse` included;
`PadicScalar` is the view at the boundary (`rows`, `det`, `trace`, JSON).
Narrowing (`_reduce_matrix`) and the entry contract of both rings
(`_Entries`: zero, one, modulus, valuations, view) are written here only.
The exp/log series is not: `mat_exp`/`mat_log` sum the coefficients that
`padic` specifies for its scalar `pexp`/`plog`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import (
    DepthError,
    NonUnit,
    NonUnitDeterminant,
    PrecisionMismatch,
    SchemaError,
    json_int,
)
from .padic import (
    PadicScalar,
    ScalarRing,
    SeriesRing,
    _Layout,
    _reduced,
    _series_coefficients,
    int_valuation,
    ring_from_header,
)

Ring = ScalarRing | SeriesRing


@lru_cache(maxsize=None)
class _Entries:
    """How a matrix over `ring` packs its entries, and the view back.

    One instance per ring (the class is cached).  Series elements reduce
    themselves, so over a series ring `mod` is this object, and `e % mod`
    returns e unchanged; its `layout` holds the ring's monomials.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.scalar = isinstance(ring, ScalarRing)
        self.mod = ring.modulus if self.scalar else self
        self.zero, self.one = (0, 1) if self.scalar else (ring.zero(), ring.one())
        self.layout = None if self.scalar else _Layout(ring)

    def __rmod__(self, e):
        return e

    def pack(self, e):
        if getattr(e, "ring", None) != self.ring:
            raise PrecisionMismatch("entries live in different rings")
        return e.value if self.scalar else e

    def view(self, e):
        return PadicScalar(self.ring.p, self.ring.prec, e) if self.scalar else e

    def depth(self, e) -> int:
        """The m-adic depth of e (its p-adic valuation over Z/p^N)."""
        if self.scalar:
            return int_valuation(e % self.mod, self.ring.p, self.ring.prec)
        return e.m_adic_depth()

    def content(self, e) -> int:
        """The least p-adic valuation of a coefficient of e."""
        return self.depth(e) if self.scalar else e.p_content()


# ---------------------------------------------------------------------------
# the kernel: loops over flat row-major tuples of size m*m


def _identity(m: int, zero, one) -> tuple:
    return tuple(one if i == j else zero for i in range(m) for j in range(m))


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


def _blocks(a: tuple) -> dict:
    """A series matrix as sum_beta T^beta C_beta: monomial index -> the flat
    integer block C_beta (a list), zero blocks left out."""
    blocks = {}
    for k, e in enumerate(a):
        for i, c in e._terms.items():
            if i not in blocks:
                blocks[i] = [0] * len(a)
            blocks[i][k] = c
    return blocks


def _block_entries(blocks: dict, m: int, layout: _Layout) -> tuple:
    """The flat series matrix with these (reduced) blocks."""
    keys, cols = [*blocks], zip(*blocks.values()) if blocks else [()] * (m * m)
    return tuple(
        _reduced(layout.ring, layout, {i: c for i, c in zip(keys, col) if c})
        for col in cols
    )


def _block_mul(x: dict, y: dict, m: int, layout: _Layout) -> dict:
    """The blocks of a product: C_b1 C_b2 added into block b1 + b2 when its
    degree is below the truncation, each block reduced mod its modulus."""
    product, mods, acc = _int_product(m), layout.mods, {}
    for i, a in x.items():
        row = layout[i]
        for j, b in y.items():
            if j < len(row):
                k = row[j]
                c = product(mods[k], a, b)
                acc[k] = [*map(add, acc[k], c)] if k in acc else c
    for k, c in acc.items():
        if type(c) is list:  # a sum of products (one product is a reduced tuple)
            acc[k] = [e % mods[k] for e in c]
    return {k: c for k, c in acc.items() if any(c)}


def _mul(a: tuple, b: tuple, m: int, mod) -> tuple:
    if isinstance(mod, int):
        return _int_product(m)(mod, a, b)
    layout = mod.layout
    return _block_entries(_block_mul(_blocks(a), _blocks(b), m, layout), m, layout)


def _scale(a: tuple, c, mod) -> tuple:
    return tuple(c * e % mod for e in a)


def _pow(a: tuple, e: int, m: int, mod) -> tuple:
    """a^e for e >= 1 by square-and-multiply from the leading bit of e; over
    a series ring on blocks, converted once each way."""
    series = e > 1 and not isinstance(mod, int)
    mul, x, mod = (_block_mul, _blocks(a), mod.layout) if series else (_mul, a, mod)
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc, m, mod)
        if bit == "1":
            acc = mul(acc, x, m, mod)
    return _block_entries(acc, m, mod) if series else acc


def _det(a: tuple, m: int, mod, one):
    """Division-free determinant: row-by-row expansion as a DP over used columns."""
    dp = {0: one}
    for k in range(m):
        row = a[k * m : (k + 1) * m]
        nxt: dict = {}
        for mask, val in dp.items():
            odd = False
            for j in range(m):
                bit = 1 << j
                if mask & bit:
                    continue
                term = -(val * row[j]) if odd else val * row[j]
                new = mask | bit
                nxt[new] = nxt[new] + term if new in nxt else term
                odd = not odd
        dp = {mask: val % mod for mask, val in nxt.items()}
    return dp[(1 << m) - 1]


def _inverse(a: tuple, m: int, ent: _Entries) -> tuple:
    """a^-1, adj a scaled by det(a)^-1; NonUnitDeterminant unless det a is a unit."""
    mod, one = ent.mod, ent.one
    if m == 2:
        a0, a1, a2, a3 = a
        det, adj = (a0 * a3 - a1 * a2) % mod, (a3, -a1 % mod, -a2 % mod, a0)
    else:
        det, adj = _det(a, m, mod, one), []
        for i in range(m):
            for j in range(m):
                minor = tuple(
                    a[r * m + c] for r in range(m) if r != j for c in range(m) if c != i
                )
                cof = _det(minor, m - 1, mod, one)
                adj.append(-cof % mod if (i + j) % 2 else cof)
    try:
        det_inv = pow(det, -1, mod) if ent.scalar else det.inv()
    except (ValueError, NonUnit):
        raise NonUnitDeterminant(f"determinant {ent.view(det)!r} is not a unit")
    return _scale(adj, det_inv, mod)


def _depth(a: tuple, m: int, ent: _Entries) -> int:
    """Largest k <= the precision cap with a congruent to I mod m^k."""
    out = ent.ring.cap
    for k, e in enumerate(a):
        out = min(out, ent.depth(e - ent.one if k % (m + 1) == 0 else e))
        if out == 0:
            return 0
    return out


# ---------------------------------------------------------------------------
# matrices


class RingMatrix:
    """Square matrix with entries in one coefficient ring."""

    __slots__ = ("ring", "m", "_ent", "_flat")

    def __init__(self, ring: Ring, rows):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self.ring, self.m, self._ent = ring, len(rows), _Entries(ring)
        self._flat = tuple(self._ent.pack(e) for row in rows for e in row)

    @classmethod
    def _packed(cls, ring: Ring, m: int, flat: tuple) -> "RingMatrix":
        """Wrap a flat tuple of reduced, ring-native entries without checks."""
        g = object.__new__(cls)
        g.ring, g.m, g._ent, g._flat = ring, m, _Entries(ring), flat
        return g

    def _like(self, flat: tuple) -> "RingMatrix":
        g = object.__new__(RingMatrix)
        g.ring, g.m, g._ent, g._flat = self.ring, self.m, self._ent, flat
        return g

    @property
    def rows(self) -> tuple:
        view, m = self._ent.view, self.m
        return tuple(
            tuple(view(e) for e in self._flat[i : i + m]) for i in range(0, m * m, m)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, ring: Ring, m: int) -> "RingMatrix":
        ent = _Entries(ring)
        return cls._packed(ring, m, _identity(m, ent.zero, ent.one))

    @classmethod
    def zeros(cls, ring: Ring, m: int) -> "RingMatrix":
        return cls._packed(ring, m, (_Entries(ring).zero,) * (m * m))

    @classmethod
    def from_int_rows(cls, ring: Ring, rows) -> "RingMatrix":
        return cls(ring, [[ring.from_int(e) for e in row] for row in rows])

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RingMatrix"):
        if not isinstance(other, RingMatrix):
            raise TypeError(f"expected RingMatrix, got {type(other).__name__}")
        if self.ring != other.ring or self.m != other.m:
            raise PrecisionMismatch("matrices live in different rings or sizes")

    def __mul__(self, other):
        self._check(other)
        return self._like(_mul(self._flat, other._flat, self.m, self._ent.mod))

    def __add__(self, other):
        self._check(other)
        mod = self._ent.mod
        return self._like(tuple((x + y) % mod for x, y in zip(self._flat, other._flat)))

    def __sub__(self, other):
        self._check(other)
        mod = self._ent.mod
        return self._like(tuple((x - y) % mod for x, y in zip(self._flat, other._flat)))

    def __neg__(self):
        mod = self._ent.mod
        return self._like(tuple(-x % mod for x in self._flat))

    def scale(self, c) -> "RingMatrix":
        return self._like(_scale(self._flat, self._ent.pack(c), self._ent.mod))

    def trace(self):
        flat, step = self._flat, self.m + 1
        return self._ent.view(sum(flat[step::step], flat[0]) % self._ent.mod)

    def det(self):
        ent = self._ent
        return ent.view(_det(self._flat, self.m, ent.mod, ent.one))

    def inverse(self) -> "RingMatrix":
        return self._like(_inverse(self._flat, self.m, self._ent))

    # -- comparisons and serialization ----------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self._flat == other._flat
        )

    def __hash__(self):
        return hash((self.ring, self._flat))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.rows
        )
        return f"RingMatrix[{body}]"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.json_header(),
            "m": self.m,
            "entries": [e.to_json() for row in self.rows for e in row],
        }

    @classmethod
    def from_json(cls, obj) -> "RingMatrix":
        try:
            ring = ring_from_header(obj["ring"])
            m = json_int(obj["m"])
            if m < 1:
                raise SchemaError(f"matrix size must be >= 1, got {m}")
            entries = [ring.element_from_json(e) for e in obj["entries"]]
            if len(entries) != m * m:
                raise SchemaError("entry count does not match size")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad matrix payload: {exc}") from exc
        if any(e.ring != ring for e in entries):
            raise SchemaError("matrix entry does not match the matrix ring header")
        return cls(ring, [entries[i * m : (i + 1) * m] for i in range(m)])


def _reduce_matrix(g: RingMatrix, cap: int, shift: int = 1) -> RingMatrix:
    """g / shift over the ring of g at precision cap, narrower or wider.

    shift must divide every entry of g.  Over Z/p^N the result lives in
    Z/p^cap, over a series ring in the truncation at m^cap.
    """
    ring = g.ring
    if isinstance(ring, ScalarRing):
        ring = ScalarRing(ring.p, cap)
        flat = tuple(v // shift % ring.modulus for v in g._flat)
    else:
        ring = SeriesRing(ring.p, ring.n_vars, cap)
        flat = tuple(e._retag(ring, shift) for e in g._flat)
    return RingMatrix._packed(ring, g.m, flat)


# ---------------------------------------------------------------------------
# commutators and powering


def commutator(g: RingMatrix, h: RingMatrix) -> RingMatrix:
    """[g, h] = g h g^-1 h^-1."""
    g._check(h)
    return g * h * g.inverse() * h.inverse()


def int_power(g: RingMatrix, e: int) -> RingMatrix:
    if e < 0:
        return int_power(g.inverse(), -e)
    if e == 0:
        return RingMatrix.identity(g.ring, g.m)
    return g._like(_pow(g._flat, e, g.m, g._ent.mod))


def congruence_depth(g: RingMatrix) -> int:
    """Largest k <= precision cap with g congruent to I mod m^k."""
    return _depth(g._flat, g.m, g._ent)


def zp_power(g: RingMatrix, alpha: PadicScalar) -> RingMatrix:
    """g^alpha for a depth->=1 element, via the canonical integer representative.

    A depth-1 element satisfies g^(p^(cap-1)) = I at the working precision, so
    the result depends only on alpha mod p^(cap-1).
    """
    if g.ring.p != alpha.p:
        raise PrecisionMismatch("exponent prime differs from matrix prime")
    if congruence_depth(g) < 1:
        raise DepthError("zp_power needs g congruent to I mod m")
    window = min(alpha.prec, g.ring.cap - 1)
    return int_power(g, alpha.value % g.ring.p**window)


# ---------------------------------------------------------------------------
# truncated matrix exp / log
#
# The series is specified once, by `padic._series_coefficients`: the
# headroom h and the integers c_i with p^h f(x) = sum c_i x^i.  The sum
# runs on the kernel over the ring widened by h extra p-adic digits (and,
# for series rings, as many extra degrees), and the headroom and the
# extra degrees are dropped at the end.


def _content(g: RingMatrix) -> int:
    return min(map(g._ent.content, g._flat))


def _series_sum(x: RingMatrix, kind: str) -> RingMatrix:
    ring, m = x.ring, x.m
    headroom, coeffs = _series_coefficients(kind, ring.p, ring.cap)
    wide = _reduce_matrix(x, ring.cap + headroom)
    ent = wide._ent
    mod = ent.mod
    coeffs = [ent.pack(wide.ring.from_int(c)) for c in coeffs]

    power = _identity(m, ent.zero, ent.one)
    acc = _scale(power, coeffs[0], mod)
    for c in coeffs[1:]:
        power = _mul(power, wide._flat, m, mod)
        acc = tuple((s + c * t) % mod for s, t in zip(acc, power))
    return _reduce_matrix(wide._like(acc), ring.cap, ring.p**headroom)


def mat_exp(x: RingMatrix) -> RingMatrix:
    """exp of a matrix divisible by p, truncated exactly at the ring precision."""
    if _content(x) < 1:
        raise DepthError("mat_exp needs every entry divisible by p")
    return _series_sum(x, "exp")


def mat_log(g: RingMatrix) -> RingMatrix:
    """log of a matrix congruent to I mod p, truncated exactly."""
    delta = g - RingMatrix.identity(g.ring, g.m)
    if _content(delta) < 1:
        raise DepthError("mat_log needs g congruent to I mod p")
    return _series_sum(delta, "log")


# ---------------------------------------------------------------------------
# fixed matrices: the one builder, and the standard generators of the
# first congruence subgroup of SL_m


def _from_entries(ring: Ring, m: int, entries: dict, diagonal: int = 1) -> RingMatrix:
    """diagonal * I with entries[(i, j)] (ints or ring elements) overwritten."""
    ent = _Entries(ring)
    flat = list(_identity(m, ent.zero, ent.pack(ring.from_int(diagonal))))
    for (i, j), e in entries.items():
        flat[i * m + j] = ent.pack(ring.from_int(e) if isinstance(e, int) else e)
    return RingMatrix._packed(ring, m, tuple(flat))


def sl_standard_generators(m: int, p: int, prec: int = 4) -> list[RingMatrix]:
    """Depth-one generators of ker(SL_m(Z/p^prec) -> SL_m(Z/p)).

    Off-diagonal generators are exp of the elementary matrices with p in
    place of 1; the m-1 diagonal-block generators are exp of
    E_i = E_(i,i) - E_(i+1,i+1) + E_(i,i+1) - E_(i+1,i), all trace zero.
    Total count m^2 - 1.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    ring = ScalarRing(p, prec)
    logs = [{(i, j): p} for i in range(m) for j in range(m) if i != j]
    logs += [
        {(i, i): p, (i + 1, i + 1): -p, (i, i + 1): p, (i + 1, i): -p}
        for i in range(m - 1)
    ]
    return [mat_exp(_from_entries(ring, m, log, 0)) for log in logs]
