"""Finite congruence quotients: enumeration, p-central series, uniformity.

Groups are enumerated as sets of plain int tuples: matrices mod p^N in the
flat row-major layout of `matgrp`, which owns the one packed matrix kernel.
Group multiplication, inversion (by the adjugate), powering and depth all
run on that kernel, and an element tuple is exactly the packed form of
the matching `RingMatrix`.  This module has no matrix loops of its own.

Every subgroup is enumerated by Dimino's algorithm: each generator that
is not yet a member extends the subgroup H built so far by whole right
cosets H r, so each element is made by one multiply and no membership
test.  The uniformity check counts the cosets of P_(n+2) that the p-th
powers of P_n hit by labelling each such coset once.

The p-central series is computed level by level: with Y generating P_n and X
generating G, P_(n+1) is the normal closure of {y^p} union {[x, y]} over
y in Y, x in X.  (In the quotient by that closure the images of Y are
central of order p, so the image of P_n is central elementary abelian and
the image of P_(n+1) vanishes; the reverse inclusion is immediate.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

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
    RingMatrix,
    _depth,
    _det_adj,
    _Entries,
    _identity,
    _mul,
    _pow,
    _scale,
    commutator,
    congruence_depth,
    int_power,
    mat_log,
)
from .padic import ScalarRing, int_valuation

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
# enumerated groups


@dataclass(frozen=True)
class FiniteQuotientGroup:
    """A finite p-group of matrices mod p^N with its full element set.

    Invariant: `generators` generate `elements`.  `closure`, the only
    constructor, enumerates `elements` as the subgroup the generators
    produce, so an orbit under conjugation by the generators is a full
    conjugacy class, and a normal closure under them is normal in G.
    """

    ring: ScalarRing
    m: int
    generators: tuple
    elements: frozenset

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def prec(self) -> int:
        return self.ring.prec

    @property
    def modulus(self) -> int:
        return self.ring.modulus

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity(self) -> tuple:
        return _identity(self.m, 0, 1)

    @cached_property
    def sorted_elements(self) -> tuple:
        """The elements in tuple order, sorted once per group."""
        return tuple(sorted(self.elements))

    @cached_property
    def generator_inverses(self) -> tuple:
        return tuple(self.inv(g) for g in self.generators)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _mul(a, b, self.m, self.modulus)

    def inv(self, a: tuple) -> tuple:
        mod = self.modulus
        det, adj = _det_adj(a, self.m, mod, 1)
        return _scale(adj, pow(det, -1, mod), mod)

    def power(self, a: tuple, e: int) -> tuple:
        if e < 0:
            return self.inv(self.power(a, -e))
        return _pow(a, e, self.m, self.modulus) if e else self.identity

    def comm(self, a: tuple, b: tuple) -> tuple:
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def conjugacy_class(self, a: tuple):
        """Yield the conjugates of a, a first, each once.

        A breadth-first orbit under g z g^-1 over the generators g: each
        conjugate costs two multiplies per generator.  The orbit is closed
        under the generators, hence (G being finite and generated by them)
        under all of G, so it is the whole class.
        """
        seen = {a}
        orbit = [a]
        for z in orbit:  # orbit grows while it is walked
            yield z
            for g, g_inv in zip(self.generators, self.generator_inverses):
                c = self.mul(self.mul(g, z), g_inv)
                if c not in seen:
                    seen.add(c)
                    orbit.append(c)

    def element_depth(self, a: tuple) -> int:
        return _depth(a, self.m, _Entries(self.ring))

    def to_matrix(self, a: tuple) -> RingMatrix:
        mod = self.modulus
        return RingMatrix._packed(self.ring, self.m, tuple(v % mod for v in a))

    def to_tuple(self, g: RingMatrix) -> tuple:
        if g.ring != self.ring:
            raise PrecisionMismatch("matrix ring differs from group ring")
        return g._flat

    def subgroup_closure(self, seed, limit: int | None = None) -> frozenset:
        """Elements generated by `seed`, by Dimino's coset extension.

        A seed element s outside the subgroup H built so far is kept, and
        <H, s> is filled in by whole right cosets H r: each costs |H|
        multiplies and no membership tests.  New representatives come from
        r g over the representatives r and the kept generators g; the union
        is closed under right multiplication by them, so (being finite) it
        is the group.  Seed elements already in H are skipped.
        """
        limit = closure_limit() if limit is None else limit
        elements = [self.identity]
        members = set(elements)
        kept = []
        for s in seed:
            if s in members:
                continue
            kept.append(s)
            sub = elements[:]
            reps = []

            def add_coset(r):
                if len(elements) + len(sub) > limit:
                    raise LimitExceeded(f"subgroup closure past {limit}")
                coset = [self.mul(h, r) for h in sub]
                elements.extend(coset)
                members.update(coset)
                reps.append(r)

            add_coset(s)
            for r in reps:  # reps grows while it is walked
                for g in kept:
                    t = self.mul(r, g)
                    if t not in members:
                        add_coset(t)
        return frozenset(members)

    def normal_closure(self, seed, limit: int | None = None):
        """Normal closure of `seed` under the group generators.

        Returns (elements, generating set); the set returned generates the
        closure as a plain subgroup.
        """
        seed = [s for s in dict.fromkeys(seed) if s != self.identity]
        fresh = seed
        while True:
            sub = self.subgroup_closure(seed, limit)
            # conjugates of earlier rounds' seeds lie in the earlier closure
            # or were added as seeds, so only the fresh ones are conjugated
            new = []
            for s in fresh:
                for g, ginv in zip(self.generators, self.generator_inverses):
                    t = self.mul(self.mul(g, s), ginv)
                    if t not in sub:
                        new.append(t)
            if not new:
                return sub, seed
            fresh = list(dict.fromkeys(new))
            seed = seed + fresh


def _p_log(n: int, p: int, what: str) -> int:
    """d with p^d = n; NotPGroup (naming n as `what`) when n is no power of p."""
    d = int_valuation(n, p, n.bit_length())
    if p**d != n:
        raise NotPGroup(f"{what} {n} is not a power of {p}")
    return d


def closure(
    generators: list[RingMatrix],
    limit: int | None = None,
    allow_depth_zero: bool = False,
) -> FiniteQuotientGroup:
    """Enumeration of the group the generators produce mod p^N.

    Generators must be congruent to I mod p unless `allow_depth_zero` opts
    out (needed for p-groups, like semidirect products with a nontrivial
    mod-p action, that admit no congruence-kernel model).  The resulting
    order must be a power of p.
    """
    if not generators:
        raise ValueError("need at least one generator")
    limit = closure_limit() if limit is None else limit
    ring = generators[0].ring
    if not isinstance(ring, ScalarRing):
        raise PrecisionMismatch("enumeration works over scalar rings only")
    m = generators[0].m
    gens = []
    for g in generators:
        if g.ring != ring or g.m != m:
            raise PrecisionMismatch("generators live in different rings")
        if not allow_depth_zero and congruence_depth(g) < 1:
            raise DepthError("generator not congruent to I mod p")
        gens.append(g._flat)

    shell = FiniteQuotientGroup(ring, m, tuple(gens), frozenset([_identity(m, 0, 1)]))
    elements = shell.subgroup_closure(gens, limit)
    _p_log(len(elements), ring.p, "order")
    return FiniteQuotientGroup(ring, m, tuple(gens), elements)


# ---------------------------------------------------------------------------
# p-central series


@dataclass
class PCentralChain:
    """P_1 >= P_2 >= ... >= {1} with per-level generating sets and dims."""

    group: FiniteQuotientGroup
    levels: list[frozenset]
    level_gens: list[list]
    dims: list[int] = field(default_factory=list)

    def level(self, n: int) -> frozenset:
        """P_n, defined as the trivial group past the computed chain."""
        if n < 1:
            raise ValueError("levels are indexed from 1")
        if n <= len(self.levels):
            return self.levels[n - 1]
        return frozenset([self.group.identity])

    def depth_filtration(self, n: int) -> frozenset:
        """Elements of G congruent to I mod p^n; the dictionary's other side."""
        return frozenset(
            a for a in self.group.elements if self.group.element_depth(a) >= n
        )


def pcentral_series(G: FiniteQuotientGroup, limit: int | None = None) -> PCentralChain:
    levels = [G.elements]
    level_gens = [list(G.generators)]
    while len(levels[-1]) > 1:
        seed = []
        for y in level_gens[-1]:
            seed.append(G.power(y, G.p))
        for x in G.generators:
            for y in level_gens[-1]:
                seed.append(G.comm(x, y))
        nxt, gens = G.normal_closure(seed, limit)
        if len(nxt) >= len(levels[-1]):
            raise NotPGroup("p-central series failed to descend")
        levels.append(nxt)
        level_gens.append(gens)
    dims = [
        _p_log(len(a) // len(b), G.p, "layer size") for a, b in zip(levels, levels[1:])
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


def _frattini_abelian(G: FiniteQuotientGroup, powers) -> bool:
    """Whether G/G^p is abelian (G is powerful), given G's p-th powers.

    G^p, the subgroup the powers generate, is normal, so this holds exactly
    when the generator commutators lie in it.
    """
    gp = G.subgroup_closure(powers)
    return all(G.comm(x, y) in gp for x in G.generators for y in G.generators)


def _p_powers(G: FiniteQuotientGroup, elements) -> set:
    return {G.power(a, G.p) for a in elements}


def uniformity_check(
    G: FiniteQuotientGroup,
    window: int,
    chain: PCentralChain | None = None,
) -> UniformityReport:
    """Check the powering maps gr_n -> gr_(n+1) for 1 <= n <= window.

    A quotient mod p^N only reflects the pro-p group faithfully for
    n < N - 1, hence the window precondition.
    """
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    if window >= G.prec - 1:
        raise WindowTooLarge(f"window {window} needs precision > {window + 1}")
    chain = pcentral_series(G) if chain is None else chain

    # P_1 = G: one pass of the power map gives the Frattini seed and the
    # level-1 images
    images = _p_powers(G, G.elements)
    frattini_abelian = _frattini_abelian(G, images)

    bijective = []
    for n in range(1, window + 1):
        if n > 1:
            images = _p_powers(G, chain.level(n))
        size_n = len(chain.level(n)) // len(chain.level(n + 1))
        size_n1 = len(chain.level(n + 1)) // len(chain.level(n + 2))
        lower = chain.level(n + 2)
        # powering is well-defined on graded layers for any p-central series
        # (Hall-Petrescu), so counting the cosets b P_(n+2) that the images b
        # hit decides bijectivity: a count of |gr_n| forces injectivity, one
        # of |gr_(n+1)| surjectivity.  Each coset hit is labelled once, so a
        # level costs at most |P_(n+1)| multiplies.
        labelled = set()
        cosets = 0
        for b in images:
            if b not in labelled:
                cosets += 1
                labelled.update(G.mul(b, h) for h in lower)
        bijective.append(cosets == size_n == size_n1)

    uniform = frattini_abelian and all(bijective)
    return UniformityReport(window, frattini_abelian, bijective, chain.dims, uniform)


# ---------------------------------------------------------------------------
# the dictionary bracket


@dataclass
class DictionaryBracket:
    """Stabilized value of log([g^(p^n), h^(p^n)])^(p^-2n) with its trust level."""

    matrix: RingMatrix
    certified_levels: int
    steps: int


def _reduce_matrix(g: RingMatrix, prec: int) -> RingMatrix:
    ring = ScalarRing(g.ring.p, prec)
    return RingMatrix._packed(ring, g.m, tuple(v % ring.modulus for v in g._flat))


def dictionary_bracket(
    g: RingMatrix, h: RingMatrix, steps: int | None = None
) -> DictionaryBracket:
    """Lie bracket of log g and log h read off the group commutator limit.

    Step n computes log([g^(p^n), h^(p^n)]) and strips p^(2n); the p^(-2n)
    root of the limit formula is realized by this precision shift, never by
    root extraction.  Successive steps must agree on their overlap, and the
    certified level is what the series analysis guarantees:
    min(N - 2n, n + 3) levels (n + 2 for p = 3).
    """
    g._check(h)
    ring = g.ring
    if not isinstance(ring, ScalarRing):
        raise PrecisionMismatch("dictionary bracket needs a scalar ring")
    if congruence_depth(g) < 1 or congruence_depth(h) < 1:
        raise DepthError("dictionary bracket needs depth >= 1 arguments")
    p, prec = ring.p, ring.prec
    max_steps = (prec - 2) // 2
    if steps is None:
        steps = max_steps
    if steps < 1 or steps > max_steps:
        raise InsufficientPrecision(
            f"precision {prec} supports 1..{max_steps} steps, got {steps}"
        )
    gain = 3 if p >= 5 else 2

    results = []
    for n in range(1, steps + 1):
        gn = int_power(g, p**n)
        hn = int_power(h, p**n)
        level = mat_log(commutator(gn, hn))._flat
        shift = p ** (2 * n)
        if any(v % shift for v in level):
            raise InsufficientPrecision(f"commutator log not divisible by p^{2 * n}")
        results.append(
            RingMatrix._packed(
                ScalarRing(p, prec - 2 * n), g.m, tuple(v // shift for v in level)
            )
        )

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
