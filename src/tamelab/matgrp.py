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

The packed kernel (`_int_product`, `_mul`, `_add`, `_newton`,
`_valuations`) and its flat forms are `padic`'s.  This module owns the
entry contract of both rings (`_Entries`: how entries pack into a flat
form, and the view back), the matrices, and the group operations on flat
forms: powering (`_pow`: in Gamma_1 the binomial series, when
square-and-multiply would take more steps), the seed of the Newton
inverse, depth, the weight-n digits (`_weight_digits`) and narrowing
(`_reduce_matrix`).  `PadicScalar`
and `SeriesElement` are the entry views at the boundary (constructor,
`rows`, `det`, `trace`, JSON); `mat_exp`/`mat_log` sum the exp/log
coefficients that `padic` specifies for its scalar `pexp`/`plog`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd
from operator import sub

from .errors import (
    DepthError,
    NonUnitDeterminant,
    PrecisionMismatch,
    SchemaError,
    json_int,
)
from .padic import (
    PadicScalar,
    ScalarRing,
    SeriesElement,
    SeriesRing,
    _add,
    _check_work,
    _factorial_units,
    _Layout,
    _mul,
    _newton,
    _series_coefficients,
    _sorted_blocks,
    _valuations,
    int_valuation,
    ring_from_header,
)

Ring = ScalarRing | SeriesRing


@lru_cache(maxsize=None)
class _Entries:
    """How a matrix over `ring` packs its entries, and the view back.

    One instance per ring (the class is cached).  `mod` reduces the flat
    form: p^N over Z/p^N, and over a series ring the ring's `_Layout`,
    whose `mods` reduce each block.  `blocks` reads either form as (monomial
    index, block) pairs, a scalar matrix being one block of degree 0.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.scalar = isinstance(ring, ScalarRing)
        self.mod = ring.modulus if self.scalar else _Layout(ring)
        self.degs = [0] if self.scalar else self.mod.degs
        self.tag = (ring.p, ring.prec) if self.scalar else ring
        self.cap = ring.cap

    def blocks(self, flat: tuple) -> tuple:
        return ((0, flat),) if self.scalar else flat

    @lru_cache(maxsize=None)
    def identity(self, m: int) -> tuple:
        one = _identity(m, 0, 1)
        return one if self.scalar else ((0, one),)

    def zeros(self, m: int) -> tuple:
        return (0,) * (m * m) if self.scalar else ()

    def cell(self, e):
        """The packed form of one entry, its ring checked by `tag` (a scalar's
        is (p, prec); none is built): its residue or a series entry's 1 x 1 form."""
        tag = (e.p, e.prec) if isinstance(e, PadicScalar) else getattr(e, "ring", None)
        if tag != self.tag:
            raise PrecisionMismatch("entries live in different rings")
        return e.value if self.scalar else e._flat

    def pack(self, cells: list) -> tuple:
        """The flat form of m*m cells, row-major: ints, or over a series ring
        1 x 1 forms merged into one m x m form, reduced here."""
        if self.scalar:
            return tuple(c % self.mod for c in cells)
        n, blocks = len(cells), {}
        for k, cell in enumerate(cells):
            for i, (c,) in cell:
                blocks.setdefault(i, [0] * n)[k] = c
        return _sorted_blocks(blocks, self.mod.mods)

    def view(self, flat: tuple, m: int) -> list:
        """The m*m entries of `flat`, row-major, as ring elements."""
        ring, layout = self.ring, self.mod
        if self.scalar:
            return [PadicScalar(ring.p, ring.prec, e) for e in flat]
        return [
            SeriesElement._packed(layout, tuple([(i, (c[k],)) for i, c in flat if c[k]]))
            for k in range(m * m)
        ]

    def is_packed(self, x, m: int) -> bool:
        """Whether x, of ints only, is the reduced flat form of an m x m matrix."""
        try:
            ints = isinstance(x, tuple) and all(
                isinstance(i, int) and 0 <= i < len(self.degs) and len(b) == m * m
                and all(isinstance(v, int) for v in b) for i, b in self.blocks(x)
            )
        except (TypeError, ValueError):  # an item that is no (index, block) pair
            return False
        # sorted and reduced, and over a series ring without a zero block
        return ints and _add(self.zeros(m), x, self.mod) == x

    def sums_to_int(self, x) -> bool:
        """Whether the entries of x (and a series form's monomial indices) sum
        to an int: one pass that refuses the float or Fraction twin of a flat
        form, which equals and hashes like it; TypeError if they do not add."""
        flat = x if self.scalar else [v for i, b in x for v in (i, *b)]
        return type(sum(flat)) is int


# ---------------------------------------------------------------------------
# matrix loops on flat forms, over `padic`'s product and sum


def _identity(m: int, zero, one) -> tuple:
    return tuple(one if i == j else zero for i in range(m) for j in range(m))


def _pow(a: tuple, e: int, m: int, ent: _Entries) -> tuple:
    """a^e for e >= 1.  Square-and-multiply takes s = bit_length(e) +
    popcount(e) - 2 products; the binomial sum below takes at most cap - 2
    products and cap - 1 scaled sums.  When s > 2 cap - 3 and a = I + X is
    in Gamma_1 (X's constant block is 0 mod p), a^e = sum_i C(e, i) X^i,
    summed up to the first zero X^i.  Proof: X^i lies in m^i, so it is zero
    for i >= cap, and its degree-d block, of modulus p^(cap - d), lies in
    p^(i - d): only C(e, i) mod p^(cap - i) counts, and as i! C(e, i) is in
    Z[e] and v_p(i!) < i, e mod q = p^cap fixes it.  For i <= e < q,
    C(e, i) = p^(v - v_p(i!)) u / u_i, u and v the unit part mod q and the
    valuation of e (e - 1) ... (e - i + 1), 1 / u_i the inverse unit part
    of i! (`_factorial_units`)."""
    mod, cap = ent.mod, ent.cap
    if e.bit_length() + e.bit_count() - 2 > 2 * cap - 3:
        one, p = ent.identity(m), ent.ring.p
        x = tuple(map(sub, a, one)) if ent.scalar else _add(a, one, mod, -1)
        if not gcd(*dict(ent.blocks(x)).get(0, ())) % p:
            q = p**cap
            e %= q
            vals, invs = _factorial_units(p, cap, cap)
            v = int_valuation(e, p, cap)
            acc, power, unit = _add(one, x, mod, e), x, e // p**v
            for i in range(2, min(cap, e + 1)):
                power = _mul(power, x, m, mod)
                if not any(power):
                    break
                w = int_valuation(e - i + 1, p, cap)
                unit, v = unit * ((e - i + 1) // p**w) % q, v + w
                if v - vals[i] < cap:
                    acc = _add(acc, power, mod, unit * invs[i] * p ** (v - vals[i]))
            return acc
    acc = a
    for bit in bin(e)[3:]:
        acc = _mul(acc, acc, m, mod)
        if bit == "1":
            acc = _mul(acc, a, m, mod)
    return acc


def _det(a: list, m: int, one):
    """Division-free determinant of row-major ring elements (which reduce
    themselves): row-by-row expansion as a DP over used columns."""
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
        dp = nxt
    return dp[(1 << m) - 1]


def _block_inverse(c: tuple, m: int, q: int, p: int) -> tuple | None:
    """c^-1 mod q = p^k for a flat integer block, None when c is singular mod
    p: the closed form for m = 2, Gauss-Jordan on unit pivots otherwise."""
    if m == 2:
        c0, c1, c2, c3 = c
        det = (c0 * c3 - c1 * c2) % q
        if det % p == 0:
            return None
        d = pow(det, -1, q)
        return (c3 * d % q, -c1 * d % q, -c2 * d % q, c0 * d % q)
    rows = [[*c[r * m : r * m + m], *(int(r == j) for j in range(m))] for r in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        s = pow(rows[col][col], -1, q)
        top = rows[col] = [v * s % q for v in rows[col]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                rows[r] = [(u - f * v) % q for u, v in zip(row, top)]
    return tuple(v for row in rows for v in row[m:])


def _inverse(a: tuple, m: int, ent: _Entries) -> tuple:
    """a^-1 by `_newton` from the inverse of the constant block mod p^cap;
    NonUnitDeterminant (naming det a) when that block is singular mod p."""
    mod, ring, blocks = ent.mod, ent.ring, ent.blocks(a)
    c0 = blocks[0][1] if blocks and blocks[0][0] == 0 else (0,) * (m * m)
    q = mod if ent.scalar else mod.mods[0]
    x = _block_inverse(c0, m, q, ring.p)
    if x is None:
        det = _det(ent.view(a, m), m, ring.one())
        raise NonUnitDeterminant(f"determinant {det!r} is not a unit")
    return _newton(a, x if ent.scalar else ((0, x),), m, mod, ent.identity(m), ring.cap)


def _depth(a: tuple, m: int, ent: _Entries) -> int:
    """Largest k <= the precision cap with a congruent to I mod m^k."""
    diff = _add(a, ent.identity(m), ent.mod, -1)
    pairs = _valuations(ent.blocks(diff), ent.ring, ent.degs)
    return min((d + v for d, v in pairs), default=ent.ring.cap)


def _weight_digits(a: tuple, m: int, n: int, ent: _Entries) -> list:
    """The image of a - I in M_m(m^n/m^(n+1)) for a in Gamma_n, n >= 1, over
    either ring (Z/p^N as one degree-0 block): entry by entry (row-major),
    per monomial T^beta of degree d <= n in layout order, its coefficient
    over p^(n - d), mod p.  Read off a itself: a - I differs from a only in
    the constant diagonal c = 1 + k p^n, and c // p^n = k = (c - 1) // p^n
    as p^n > 1."""
    p, degs = ent.ring.p, ent.degs
    width = bisect_right(degs, n)
    out = [0] * (m * m * width)
    for t, block in ent.blocks(a):
        if t >= width:
            break
        q = p ** (n - degs[t])
        out[t::width] = [c // q % p for c in block]
    return out


# ---------------------------------------------------------------------------
# matrices


class RingMatrix:
    """Square matrix with entries in one coefficient ring."""

    __slots__ = ("ring", "m", "_ent", "_flat")

    def __init__(self, ring: Ring, rows):
        rows = [tuple(row) for row in rows]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and at least 1 x 1")
        self.ring, self.m, self._ent = ring, len(rows), _Entries(ring)
        self._flat = self._ent.pack([self._ent.cell(e) for row in rows for e in row])

    @classmethod
    def _packed(cls, ring: Ring, m: int, flat: tuple) -> "RingMatrix":
        """Wrap a flat form (reduced, canonical) without checks."""
        g = object.__new__(cls)
        g.ring, g.m, g._ent, g._flat = ring, m, _Entries(ring), flat
        return g

    def _like(self, flat: tuple) -> "RingMatrix":
        g = object.__new__(RingMatrix)
        g.ring, g.m, g._ent, g._flat = self.ring, self.m, self._ent, flat
        return g

    @property
    def rows(self) -> tuple:
        entries, m = self._ent.view(self._flat, self.m), self.m
        return tuple(tuple(entries[i : i + m]) for i in range(0, m * m, m))

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, ring: Ring, m: int) -> "RingMatrix":
        return cls._packed(ring, m, _Entries(ring).identity(m))

    @classmethod
    def zeros(cls, ring: Ring, m: int) -> "RingMatrix":
        return cls._packed(ring, m, _Entries(ring).zeros(m))

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
        return self._like(_add(self._flat, other._flat, self._ent.mod))

    def __sub__(self, other):
        self._check(other)
        return self._like(_add(self._flat, other._flat, self._ent.mod, -1))

    def __neg__(self):
        return self._like(_add(self._ent.zeros(self.m), self._flat, self._ent.mod, -1))

    def scale(self, c) -> "RingMatrix":
        """c times this matrix, c a ring element: (c I) times it."""
        c_id = _from_entries(self.ring, self.m, {}, c)._flat
        return self._like(_mul(c_id, self._flat, self.m, self._ent.mod))

    def trace(self):
        entries = self._ent.view(self._flat, self.m)
        return sum(entries[self.m + 1 :: self.m + 1], entries[0])

    def det(self):
        return _det(self._ent.view(self._flat, self.m), self.m, self.ring.one())

    def inverse(self) -> "RingMatrix":
        return self._like(_inverse(self._flat, self.m, self._ent))

    # -- comparisons and serialization ----------------------------------

    def __eq__(self, other):
        # the size too: over a series ring every zero matrix packs to ()
        return (
            isinstance(other, RingMatrix)
            and (self.ring, self.m, self._flat) == (other.ring, other.m, other._flat)
        )

    def __hash__(self):
        return hash((self.ring, self.m, self._flat))

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
        # graded-lex order is prefix-stable: later indices have degree >= cap
        mods = _Layout(ring).mods
        flat = _sorted_blocks(
            {i: [v // shift for v in c] for i, c in g._flat if i < len(mods)}, mods
        )
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
    return g._like(_pow(g._flat, e, g.m, g._ent) if e else g._ent.identity(g.m))


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
    """The least p-adic valuation of a coefficient of g."""
    pairs = _valuations(g._ent.blocks(g._flat), g.ring, g._ent.degs)
    return min((v for _, v in pairs), default=g.ring.cap)


def _series_sum(x: RingMatrix, kind: str) -> RingMatrix:
    ring, m = x.ring, x.m
    headroom, coeffs = _series_coefficients(kind, ring.p, ring.cap)
    what = "precision" if isinstance(ring, ScalarRing) else "truncation"
    _check_work(ring.cap, ring.cap + headroom, what)
    wide = _reduce_matrix(x, ring.cap + headroom)
    ent = wide._ent
    mod, power = ent.mod, ent.identity(m)
    acc = _add(ent.zeros(m), power, mod, coeffs[0])
    for c in coeffs[1:]:
        power = _mul(power, wide._flat, m, mod)
        if not any(power):  # so is every later power of x
            break
        acc = _add(acc, power, mod, c)
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


def _from_entries(ring: Ring, m: int, entries: dict, diagonal=1) -> RingMatrix:
    """diagonal * I with entries[(i, j)] overwritten (ints or ring elements)."""
    ent = _Entries(ring)

    def cell(e):  # an int stands for its image in the ring
        if not isinstance(e, int):
            return ent.cell(e)
        return e if ent.scalar else ((0, (e,)),) if e else ()

    cells = [cell(0)] * (m * m)
    cells[:: m + 1] = [cell(diagonal)] * m
    for (i, j), e in entries.items():
        cells[i * m + j] = cell(e)
    return RingMatrix._packed(ring, m, ent.pack(cells))


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
