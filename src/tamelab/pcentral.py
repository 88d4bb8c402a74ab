"""Finite congruence quotients: pc sequences, p-central series, uniformity.

A group is a set of flat tuples, matrices over Z/p^N or A/m^M in the packed
form of `padic`, which owns the one packed kernel; `matgrp` owns the entry
contract (`_Entries`) of both rings and the group operations on that
kernel.  Multiplication, inversion, powering and depth run on it, and an
element tuple is exactly the packed form of the matching `RingMatrix`.  No
matrix loops live here.

Every group lies in Gamma_1 = ker(GL_m(R) -> GL_m(F_p)), over either ring
R, and is held as an induced polycyclic (pc) sequence, `_PcSet`: one F_p
echelon basis (`liealg.SpanTracker`) of each depth layer, the image of
h - I in M_m(m^n/m^(n+1)), each row paired with a group element.  Order,
membership, subgroup and normal closures, the p-central series, the depth
filtration and the uniformity checks all run on these sequences, in about
rank^2 multiplies; only iteration builds an element set, under the cap.
`matgrp._weight_digits` reads the layer vector of h in Gamma_n over both
rings; a seed element of depth 0 raises `DepthError`: it has none.
Uniformity is decided on the p-th powers of each level's generators, one
subgroup closure per level.

The p-central series is computed level by level: with Y generating P_n and X
generating G, P_(n+1) is the normal closure of {y^p} union {[x, y]} over
y in Y, x in X.  (In the quotient by that closure the images of Y are
central of order p, so the image of P_n is central elementary abelian and
the image of P_(n+1) vanishes; the reverse inclusion is immediate.)
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partialmethod
from operator import eq, ge, gt, le, lt

from .errors import (
    DepthError,
    DomainError,
    InsufficientPrecision,
    LimitExceeded,
    NotPGroup,
    PrecisionMismatch,
    SchemaError,
    WindowTooLarge,
)
from .matgrp import (
    Ring,
    RingMatrix,
    _depth,
    _Entries,
    _inverse,
    _pow,
    _reduce_matrix,
    _weight_digits,
    commutator,
    congruence_depth,
    int_power,
    mat_log,
)
from .liealg import SpanTracker
from .padic import ScalarRing, _mul, int_valuation

DEFAULT_CLOSURE_LIMIT = 10**6


def closure_limit() -> int:
    """Default element cap; TAMELAB_CLOSURE_LIMIT, a positive integer, overrides."""
    env = os.environ.get("TAMELAB_CLOSURE_LIMIT")
    if not env:
        return DEFAULT_CLOSURE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise SchemaError(
            f"TAMELAB_CLOSURE_LIMIT must be a positive integer, got {env!r}"
        )
    return limit


# ---------------------------------------------------------------------------
# induced pc sequences


def _commutator(a, a_inv, b, b_inv, m, mod) -> tuple:
    """[a, b] = a b a^-1 b^-1 from the inverses kept with a and b."""
    return _mul(_mul(a, b, m, mod), _mul(a_inv, b_inv, m, mod), m, mod)


class _PcSet:
    """A subgroup H of Gamma_1 = ker(GL_m(R) -> GL_m(F_p)), as a pc sequence.

    R is Z/p^N or A/m^N, A = Z_p[[T_1..T_v]] and m = (p, T_1..T_v).  H is
    held as an induced pc sequence: for each depth n < N, a basis of the layer
    (H cap Gamma_n) / (H cap Gamma_(n+1)), embedded in the F_p-space
    M_m(m^n/m^(n+1)) by h -> (h - I) mod m^(n+1) (a homomorphism, as
    2n >= n + 1).  `matgrp._weight_digits` reads the layer vector off h in
    Gamma_n over either ring (sifting reads level n only there): per entry,
    one digit per weight-n monomial p^a T^b, m^2 C(n + v, v) in all.  Row i of
    `levels[n - 1][0]`, a `SpanTracker` in reduced echelon form, is the
    layer vector of the element `levels[n - 1][1][i]`, kept with its
    inverse.  So |H| = p^rank, and h is in H exactly when sifting ends at I:
    at h's depth n, multiply h by b_i^(-c_i), c_i the entry of h's vector at
    row i's pivot, which clears the layer, and go down a level.  H cap
    Gamma_n is the part of the sequence at depth >= n (`at_depth`).

    `order` reads p^rank, and so does `len` up to sys.maxsize (LimitExceeded
    past it).  Only iteration builds the element set, the normal words (basis
    elements in order, exponents below p), once and under the closure cap,
    and `in` is then a lookup in it; no set operator or hash builds one.  Two
    sequences over one ring compare by sifting one's basis in the other.
    `closure` builds them (proving the sequence is one of <seed>); `at_depth`
    takes their parts.
    """

    def __init__(self, ring: Ring, m: int):
        ent = self._ent = _Entries(ring)
        self.ring, self.m, self.mod = ring, m, ent.mod
        self.identity = ent.identity(m)
        widths = (m * m * bisect_right(ent.degs, n) for n in range(1, ring.cap))
        self.levels = [(SpanTracker(w, ring.p), []) for w in widths]
        self._frozen = None

    @classmethod
    def closure(cls, ring: Ring, m: int, seed, limit: int, conjugates=None):
        """(H, kept): H = <seed>, normal under `conjugates` when it is given.

        Sifting an element either ends at I or inserts its residual r as a
        new basis element b = r^s at r's depth n (s scales the pivot to 1);
        the rows the tracker then reduces by b's row are mirrored on their
        elements.  Each insertion queues b^p and [b, a] for every element a
        inserted before, skipping those that are I by depth alone (depths
        add in commutators, and b^p is one deeper), and these are sifted
        before the next seed element.  Proof, by descent on n, that H_n, the
        group generated by the elements ever inserted at depth >= n, is the
        set of normal words from depth n on, with H_n cap Gamma_(n+1) =
        H_(n+1): these powers and commutators sift to I through depths
        >= n + 1, so they lie in H_(n+1), which the depth-n insertions
        therefore normalize, and modulo which they commute and have order
        p; H_n / H_(n+1) is then elementary abelian and maps onto the
        depth-n rows, of rank r_n, by the layer map, which is 0 on H_(n+1).
        Every basis element is a word in the insertions and back, so before
        each seed element s, H is the group that the earlier members of
        `kept` generate, and s joins `kept` when H does not hold it.  With
        `conjugates`, a map from s to the g s g^-1 over generators g, these
        join the seed for each kept s, so g H g^-1 <= H.  DepthError for a
        seed element of depth 0, which has no layer vector (conjugates keep
        the depth); LimitExceeded as soon as p^rank would pass `limit`,
        before any element set is made.
        """
        pc = cls(ring, m)
        p, last, mod = ring.p, ring.cap, pc.mod
        inserted, kept = [], []
        queue = list(seed)
        if any(_depth(s, m, pc._ent) < 1 for s in queue):
            raise DepthError("seed element not congruent to I mod m")
        for s in queue:  # with `conjugates`, queue grows while it is walked
            work = [s]
            for i, x in enumerate(work):  # so does work, closing H before the next s
                hit = pc._sift(x)
                if hit is None:
                    continue
                if pc.order * p > limit:
                    raise LimitExceeded(f"subgroup closure past {limit}")
                if i == 0:
                    kept.append(s)
                    if conjugates is not None:
                        queue += conjugates(s)
                n, r, vec = hit
                b, b_inv = pc._insert(n, r, vec)
                if n + 1 < last:
                    work.append(_pow(b, p, m, mod))
                work += [
                    _commutator(b, b_inv, a, a_inv, m, mod)
                    for a, a_inv, d in inserted
                    if n + d < last
                ]
                inserted.append((b, b_inv, n))
        return pc, kept

    def _sift(self, x: tuple):
        """None when x sifts to I, else (n, r, vec): x reduced to r of depth
        n, whose layer vector vec is outside the depth-n span."""
        m, mod, ent = self.m, self.mod, self._ent
        for n, (tracker, basis) in enumerate(self.levels, 1):
            vec = _weight_digits(x, m, n, ent)
            if not any(vec):
                continue
            for (_, b_inv), c in zip(basis, tracker.pivots):
                k = vec[c]
                if k:
                    x = _mul(x, _pow(b_inv, k, m, mod), m, mod)
            vec = _weight_digits(x, m, n, ent)
            if any(vec):
                return n, x, vec
        return None

    def _insert(self, n: int, r: tuple, vec: list) -> tuple:
        """Add r's row at depth n; returns the new (b, b^-1)."""
        m, mod, p = self.m, self.mod, self.ring.p
        tracker, basis = self.levels[n - 1]
        c = next(i for i, v in enumerate(vec) if v)
        s = pow(vec[c], -1, p)
        r_inv = _inverse(r, m, self._ent)
        b, b_inv = r, r_inv
        if s != 1:
            b, b_inv = _pow(r, s, m, mod), _pow(r_inv, s, m, mod)
        # the tracker subtracts row[c] times b's row from each row: so do the elements
        for i, row in enumerate(tracker.rows):
            if row[c]:
                a, a_inv = basis[i]
                basis[i] = (
                    _mul(a, _pow(b_inv, row[c], m, mod), m, mod),
                    _mul(_pow(b, row[c], m, mod), a_inv, m, mod),
                )
        tracker.add(vec)
        basis.append((b, b_inv))
        return b, b_inv

    def at_depth(self, n: int) -> "_PcSet":
        """H cap Gamma_n: the levels at depth >= n."""
        if n <= 1:
            return self
        out = _PcSet(self.ring, self.m)
        out.levels[n - 1 :] = self.levels[n - 1 :]
        return out

    def basis(self) -> list:
        return [b for _, level in self.levels for b, _ in level]

    def _elements(self) -> frozenset:
        if self._frozen is None:
            cap = min(closure_limit(), sys.maxsize)
            if self.order > cap:
                raise LimitExceeded(f"element set past {cap}")
            m, mod = self.m, self.mod
            words = [self.identity]
            for b in reversed(self.basis()):
                powers = [_pow(b, e, m, mod) for e in range(1, self.ring.p)]
                words += [_mul(c, w, m, mod) for c in powers for w in words]
            self._frozen = frozenset(words)
        return self._frozen

    @property
    def order(self) -> int:
        """|H| = p^rank, at any size (`len` stops at sys.maxsize)."""
        return self.ring.p ** sum(len(level) for _, level in self.levels)

    def __len__(self) -> int:
        if self.order > sys.maxsize:
            raise LimitExceeded(f"len past {sys.maxsize}: read order")
        return self.order

    def __iter__(self):
        return iter(self._elements())

    def __contains__(self, x) -> bool:
        if self._frozen is not None:
            try:
                return x in self._frozen
            except TypeError:  # a tuple holding an unhashable item
                return False
        # the element set holds reduced packed forms only: so does sifting
        return (
            self._ent.is_packed(x, self.m)
            and _depth(x, self.m, self._ent) >= 1
            and self._sift(x) is None
        )

    def _compare(self, op, other, flip=False):
        """op(|H|, |other|) and H within other (other within H if flip), with
        orders first and never `len` of H; two sequences over one ring compare
        by testing one's basis in the other."""
        if not isinstance(other, (set, frozenset, _PcSet)):
            return NotImplemented
        inner, outer = (other, self) if flip else (self, other)
        if not isinstance(other, _PcSet):
            return op(self.order, len(other)) and all(x in outer for x in inner)
        if (self.ring, self.m) != (other.ring, other.m):
            return False
        return op(self.order, other.order) and all(b in outer for b in inner.basis())

    __le__ = partialmethod(_compare, le)
    __lt__ = partialmethod(_compare, lt)
    __eq__ = partialmethod(_compare, eq)
    __ge__ = partialmethod(_compare, ge, flip=True)
    __gt__ = partialmethod(_compare, gt, flip=True)

    def __repr__(self) -> str:
        return f"_PcSet({self.ring!r}, m={self.m}, basis={self.basis()!r})"


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FiniteQuotientGroup:
    """A finite p-group in Gamma_1 over Z/p^N or A/m^M, held as a pc sequence.

    Invariant: `generators` generate `elements`, a `_PcSet`.  `closure`,
    the only constructor, makes `elements` the subgroup the generators
    produce, so an orbit under conjugation by the generators is a full
    conjugacy class, and a normal closure under them is normal in G.  Its
    subgroup and normal closures are pc sequences too.
    """

    ring: Ring
    m: int
    generators: tuple
    elements: _PcSet

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def prec(self) -> int:
        return self.ring.cap

    @cached_property
    def _ent(self) -> _Entries:
        return _Entries(self.ring)

    @cached_property
    def modulus(self):
        return self._ent.mod

    @property
    def order(self) -> int:
        return self.elements.order

    @cached_property
    def identity(self) -> tuple:
        return self._ent.identity(self.m)

    @cached_property
    def generator_inverses(self) -> tuple:
        return tuple(self.inv(g) for g in self.generators)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _mul(a, b, self.m, self.modulus)

    def inv(self, a: tuple) -> tuple:
        return _inverse(a, self.m, self._ent)

    def power(self, a: tuple, e: int) -> tuple:
        if e < 0:
            return self.inv(self.power(a, -e))
        return _pow(a, e, self.m, self.modulus) if e else self.identity

    def comm(self, a: tuple, b: tuple) -> tuple:
        return _commutator(a, self.inv(a), b, self.inv(b), self.m, self.modulus)

    def _conjugates(self, z: tuple) -> list:
        """g z g^-1 over the generators g: two multiplies each."""
        return [
            self.mul(self.mul(g, z), g_inv)
            for g, g_inv in zip(self.generators, self.generator_inverses)
        ]

    def conjugacy_class(self, a: tuple):
        """Yield (z, path) for the conjugates z of a, a first, each once.

        A breadth-first orbit under the generator conjugations.  The orbit
        is closed under the generators, hence (G being finite and generated
        by them) under all of G, so it is the whole class.  `path` is the
        tuple of generator indices from a to z: x = g_path[-1] ... g_path[0]
        gives x a x^-1 = z.  Only the indices are kept, so the walk costs
        no multiply beyond the conjugations.
        """
        paths = {a: ()}
        orbit = [a]
        for z in orbit:  # orbit grows while it is walked
            path = paths[z]
            yield z, path
            for i, c in enumerate(self._conjugates(z)):
                if c not in paths:
                    paths[c] = path + (i,)
                    orbit.append(c)

    def element_depth(self, a: tuple) -> int:
        return _depth(a, self.m, self._ent)

    def to_matrix(self, a: tuple) -> RingMatrix:
        return RingMatrix._packed(self.ring, self.m, a)

    def to_tuple(self, g: RingMatrix) -> tuple:
        if g.ring != self.ring:
            raise PrecisionMismatch("matrix ring differs from group ring")
        return g._flat

    def subgroup_closure(self, seed) -> _PcSet:
        """The subgroup `seed` generates (see `_PcSet.closure`), at most |G|."""
        return _PcSet.closure(self.ring, self.m, seed, self.order)[0]

    def normal_closure(self, seed):
        """(elements, generating set) of the normal closure of `seed` in G.

        The set is the kept elements of `_PcSet.closure`, at most
        log_p |elements|.
        """
        return _PcSet.closure(self.ring, self.m, seed, self.order, self._conjugates)


def _p_log(n: int, p: int, what: str) -> int:
    """d with p^d = n; NotPGroup (naming n as `what`) when n is no power of p."""
    d = int_valuation(n, p, n.bit_length())
    if p**d != n:
        raise NotPGroup(f"{what} {n} is not a power of {p}")
    return d


def closure(
    generators: list[RingMatrix], limit: int | None = None
) -> FiniteQuotientGroup:
    """The group the generators produce mod p^N or mod m^M, of order <= `limit`.

    Generators must be congruent to I mod m = (p, T_1..T_n), DepthError
    otherwise; over either ring the group is a pc sequence.
    """
    if not generators:
        raise ValueError("need at least one generator")
    limit = closure_limit() if limit is None else limit
    ring, m = generators[0].ring, generators[0].m
    if any(g.ring != ring or g.m != m for g in generators):
        raise PrecisionMismatch("generators live in different rings")
    gens = tuple(g._flat for g in generators)
    return FiniteQuotientGroup(ring, m, gens, _PcSet.closure(ring, m, gens, limit)[0])


# ---------------------------------------------------------------------------
# p-central series


@dataclass
class PCentralChain:
    """P_1 >= P_2 >= ... >= {1} with per-level generating sets and dims."""

    group: FiniteQuotientGroup
    levels: list[_PcSet]
    level_gens: list[list]
    dims: list[int] = field(default_factory=list)

    def level(self, n: int) -> _PcSet:
        """P_n, defined as the trivial group past the computed chain."""
        if n < 1:
            raise ValueError("levels are indexed from 1")
        if n <= len(self.levels):
            return self.levels[n - 1]
        return _PcSet(self.group.ring, self.group.m)

    def gens(self, n: int) -> list:
        """A generating set of P_n, empty past the computed chain."""
        if n < 1:
            raise ValueError("levels are indexed from 1")
        return list(self.level_gens[n - 1]) if n <= len(self.level_gens) else []

    def depth_filtration(self, n: int) -> _PcSet:
        """Elements of G congruent to I mod m^n, the dictionary's other side:
        G's pc sequence from depth n on."""
        return self.group.elements.at_depth(n)


def pcentral_series(G: FiniteQuotientGroup) -> PCentralChain:
    """The chain, each P_(n+1) seeded by y^p and [x, y] (module docstring).

    Those that are I by depth alone are not built, as in `_PcSet.closure`:
    [x, y] when depth x + depth y >= N, y^p when y's depth d has d + 1 >= N
    (N the precision).
    """
    levels = [G.elements]
    level_gens = [list(G.generators)]
    last = G.prec
    conj = ys = [
        (g, g_inv, G.element_depth(g))
        for g, g_inv in zip(G.generators, G.generator_inverses)
    ]
    while levels[-1].order > 1:
        seed = [G.power(y, G.p) for y, _, d in ys if d + 1 < last]
        seed += [
            _commutator(x, x_inv, y, y_inv, G.m, G.modulus)
            for x, x_inv, dx in conj
            for y, y_inv, dy in ys
            if dx + dy < last
        ]
        nxt, gens = G.normal_closure(seed)
        ys = [(y, G.inv(y), G.element_depth(y)) for y in gens]
        if nxt.order >= levels[-1].order:
            raise NotPGroup("p-central series failed to descend")
        levels.append(nxt)
        level_gens.append(gens)
    dims = [
        _p_log(a.order // b.order, G.p, "layer size")
        for a, b in zip(levels, levels[1:])
    ]
    return PCentralChain(G, levels, level_gens, dims)


# ---------------------------------------------------------------------------
# uniformity


@dataclass
class UniformityReport:
    window: int
    frattini_abelian: bool
    power_map_bijective: list[bool]
    dims: list[int]
    uniform: bool


def _trusted_levels(prec: int, depth: int) -> tuple[int, int]:
    """The last levels (dims, power map) that Gamma_depth mod p^prec shows faithfully.

    P_n = Gamma_(depth+n-1) / Gamma_prec (p odd), so gr_n is faithful for
    n <= prec - depth and the power map gr_n -> gr_(n+1) one level less.
    """
    return prec - depth, prec - depth - 1


def uniformity_check(
    G: FiniteQuotientGroup,
    window: int,
    chain: PCentralChain | None = None,
) -> UniformityReport:
    """Check the powering maps gr_n -> gr_(n+1) for 1 <= n <= window.

    A quotient mod p^N only reflects the pro-p group faithfully for
    n < N - 1 (the depth-1 rule of `_trusted_levels`), hence the window
    precondition.
    """
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    if window > _trusted_levels(G.prec, 1)[1]:
        raise WindowTooLarge(f"window {window} needs precision > {window + 1}")
    return _uniformity(G, window, pcentral_series(G) if chain is None else chain)


def _uniformity(G: FiniteQuotientGroup, window: int, chain) -> UniformityReport:
    """`uniformity_check` past its window checks; window 0 checks Frattini only.

    Rule (p odd, as every ring requires): the power map gr_n -> gr_(n+1) is
    onto exactly when the p-th powers of P_n's generators generate P_(n+1)
    modulo P_(n+2).  Proof, from [P_i, P_j] <= P_(i+j) (Dixon, du Sautoy,
    Mann & Segal, ch. 1):
    - For x, y in P_n, Hall-Petrescu gives x^p y^p = (xy)^p prod c_i^C(p,i)
      over 2 <= i <= p, c_i in gamma_i(<x, y>) <= P_(in).  For i < p, p |
      C(p,i), so c_i^C(p,i) lies in P_(in)^p <= P_(in+1) <= P_(n+2), and
      c_p in P_(pn) <= P_(n+2).  As P_(n+1)^p <= P_(n+2), x -> x^p induces a
      homomorphism gr_n -> gr_(n+1), whose image the images of P_n's
      generators generate; it is bijective iff onto and |gr_n| = |gr_(n+1)|.
    - Level 1 onto gives P_2 = G^p P_3 with P_3 = [P_2, G] P_2^p, so in
      G/G^p (where P_2^p dies) the image of P_2 is its commutator with G,
      hence trivial, G being nilpotent: [G, G] <= P_2 = G^p.  Conversely,
      G/G^p abelian gives P_2 = G^p, generated by p-th powers, which the
      map reaches.  So G/G^p is abelian exactly when level 1 is onto.
    """
    level, onto = chain.level, []
    for n in range(1, max(window, 1) + 1):
        seed = [G.power(y, G.p) for y in chain.gens(n)] + chain.gens(n + 2)
        onto.append(G.subgroup_closure(seed).order == level(n + 1).order)

    def layer(n):
        return level(n).order // level(n + 1).order

    bijective = [onto[n - 1] and layer(n) == layer(n + 1) for n in range(1, window + 1)]
    uniform = onto[0] and all(bijective)
    return UniformityReport(window, onto[0], bijective, chain.dims, uniform)


# ---------------------------------------------------------------------------
# the dictionary bracket


@dataclass
class DictionaryBracket:
    """Stabilized value of log([g^(p^n), h^(p^n)])^(p^-2n) with its trust level."""

    matrix: RingMatrix
    certified_levels: int
    steps: int


def dictionary_bracket(g: RingMatrix, h: RingMatrix) -> DictionaryBracket:
    """Lie bracket of log g and log h read off the group commutator limit.

    Step n computes log([g^(p^n), h^(p^n)]) and strips p^(2n); the p^(-2n)
    root of the limit formula is realized by this precision shift, never by
    root extraction.  The (N - 2) // 2 steps must agree on their overlap,
    and the certified level is what the series analysis guarantees:
    min(N - 2n, n + 3) levels (n + 2 for p = 3).
    """
    g._check(h)
    ring = g.ring
    if not isinstance(ring, ScalarRing):
        raise PrecisionMismatch("dictionary bracket needs a scalar ring")
    if congruence_depth(g) < 1 or congruence_depth(h) < 1:
        raise DepthError("dictionary bracket needs depth >= 1 arguments")
    p, prec = ring.p, ring.prec
    steps = (prec - 2) // 2
    if steps < 1:
        raise InsufficientPrecision(f"precision {prec} supports no step; need >= 4")
    gain = 3 if p >= 5 else 2

    results = []
    for n in range(1, steps + 1):
        gn = int_power(g, p**n)
        hn = int_power(h, p**n)
        level = mat_log(commutator(gn, hn))
        shift = p ** (2 * n)
        if any(v % shift for v in level._flat):
            raise InsufficientPrecision(f"commutator log not divisible by p^{2 * n}")
        results.append(_reduce_matrix(level, prec - 2 * n, shift))

    for n in range(1, steps):
        overlap = min(prec - 2 * (n + 1), n + gain)
        if _reduce_matrix(results[n - 1], overlap) != _reduce_matrix(
            results[n], overlap
        ):
            raise InsufficientPrecision(f"no stabilization between steps {n}, {n + 1}")

    certified, best = 0, 1
    for n in range(1, steps + 1):
        level = min(prec - 2 * n, n + gain)
        if level > certified:
            certified, best = level, n
    return DictionaryBracket(
        _reduce_matrix(results[best - 1], certified), certified, steps
    )
