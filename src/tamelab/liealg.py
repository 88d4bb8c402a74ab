"""Finite-dimensional Lie algebras over exact rationals, by structure constants.

Implements the classification pipeline: perfectness, Killing form and
Cartan radical, adjoint semisimplicity, the inertial-element linear solver
(an element y is inertial iff y lies in the image of ad_y), spanning
harvests of inertial elements closed under exp(ad y), and the three-valued
toral / pluperfect verdicts.  Universal toral-ness is not decidable by
sampling, so sampled all-pass results are reported as evidence, never
upgraded to certainty; the only exact toral verdict is the abelian case.

Work over Q runs on ints: a sparse integer structure-constant table, and
`SpanTracker`, the one exact elimination kernel, fraction-free over Q or
over F_p, behind rref, rank, solve, nullspace and minimal polynomials
(one Krylov pass); squarefreeness is a primitive pseudo-remainder
sequence on ints.  `Fraction`s are made only where a result leaves the
kernel.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, GuardFailed, SchemaError, ZeroVector, json_list

Vector = tuple
Matrix = tuple

_FIXTURE_DIR = Path(__file__).parent / "fixtures"

# The most basis triples a `tamelab lie` input may give `validate` to check
# for Jacobi: about 0.2 s at the 2 us per triple it takes on sl7 (dim 48,
# 17,296 triples); dim 86 is past it.  Library calls are not capped.
MAX_JACOBI_TRIPLES = 10**5


# ---------------------------------------------------------------------------
# exact linear algebra: one reduced-echelon kernel over Q or F_p


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _numerators(v) -> tuple[list, int]:
    """(nums, den) with v = nums / den: integer numerators over a common denominator."""
    den = math.lcm(*(x.denominator for x in v))
    if den == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (den // x.denominator) for x in v], den


def _eliminate(v: list, row: list, c: int) -> list:
    """(a*v - b*row) / content with a > 0 clearing column c; row[c] > 0."""
    g = math.gcd(v[c], row[c])
    a, b = row[c] // g, v[c] // g
    if a == 1:
        w = [x - b * y if y else x for x, y in zip(v, row)]
    else:
        w = [a * x - b * y if y else a * x for x, y in zip(v, row)]
    g = math.gcd(*w)
    return w if g < 2 else [x // g for x in w]


def _sub_multiple(u: list, f, row: list, p: int) -> list:
    """u - f * row over F_p, entrywise, skipping the zero entries of row."""
    return [(x - f * y) % p if y else x for x, y in zip(u, row)]


class SpanTracker:
    """Row space in reduced row echelon form, over Q or, given a prime p, F_p.

    This is the package's one elimination routine.  rows stay in insertion
    order; rows[i] is 0 in every pivot column but pivots[i].  Over F_p its
    entries are in [0, p) with a 1 at the pivot; over Q it is a primitive
    integer row with a positive pivot, to be divided by it.  Over F_p,
    inserting a row with pivot c subtracts row[c] times it from each stored
    row.
    """

    def __init__(self, dim: int, p: int | None = None):
        self.dim = dim
        self.p = p
        self.rows: list = []
        self.pivots: list = []

    def _reduce(self, v) -> list:
        """v minus the combination of stored rows that clears every pivot column.

        v holds ints; over Q the result is known up to a positive factor.
        """
        p = self.p
        if p is None:
            for row, c in zip(self.rows, self.pivots):
                if v[c]:
                    v = _eliminate(v, row, c)
            return v
        v = [x % p for x in v]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = _sub_multiple(v, v[c], row, p)
        return v

    def _insert(self, v: list) -> bool:
        """Store a reduced vector as a pivot row; False when it is zero."""
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        p = self.p
        if p is None:
            g = math.gcd(*v) if v[c] > 0 else -math.gcd(*v)
            v = [x // g for x in v]
            for i, row in enumerate(self.rows):
                if row[c]:
                    self.rows[i] = _eliminate(row, v, c)
        else:
            if v[c] != 1:
                inv = pow(v[c], -1, p)
                v = [inv * x % p for x in v]
            for i, row in enumerate(self.rows):
                if row[c]:
                    self.rows[i] = _sub_multiple(row, row[c], v, p)
        self.rows.append(v)
        self.pivots.append(c)
        return True

    def contains(self, v: Vector) -> bool:
        return not any(self._reduce(_numerators(v)[0]))

    def add(self, v: Vector) -> bool:
        """Insert v; True when it enlarged the span."""
        return self._insert(self._reduce(_numerators(v)[0]))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.dim


def _echelon(rows, p: int | None = None) -> tuple[list, list]:
    """Reduced echelon form (rows, pivots) by pivot: fraction-free over Q, or
    over F_p for rows of ints given a prime p (see `SpanTracker`)."""
    tracker = SpanTracker(len(rows[0]) if rows else 0, p)
    for row in rows:
        tracker._insert(tracker._reduce(_numerators(row)[0] if p is None else row))
    order = sorted(range(tracker.rank), key=tracker.pivots.__getitem__)
    return [tracker.rows[i] for i in order], [tracker.pivots[i] for i in order]


def rref(rows) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ints, pivots = _echelon(rows)
    return [
        tuple(Fraction(x, row[c]) for x in row) for row, c in zip(ints, pivots)
    ], pivots


def rank(rows, p: int | None = None) -> int:
    return len(_echelon(rows, p)[1])


def solve(a_rows, b: Vector):
    """One solution of A x = b, or None; free variables are set to zero."""
    ncols = len(a_rows[0]) if a_rows else 0
    ints, pivots = _echelon([[*row, bi] for row, bi in zip(a_rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(ints, pivots):
        x[c] = Fraction(row[-1], row[c])
    return tuple(x)


def nullspace(a_rows) -> list:
    """Basis of the kernel of the matrix whose rows are a_rows."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    ints, pivots = _echelon(a_rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(ints, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis


# polynomial helpers (coefficient lists, low degree first)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divisors(n: int) -> set:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


_ROOT_SEARCH_BOUND = 10**9


def rational_roots(poly: list) -> list:
    """All rational roots of a polynomial over Q (rational root theorem)."""
    ints = _poly_trim(_numerators(list(map(Fraction, poly)))[0])
    low = next((i for i, c in enumerate(ints) if c), 0)
    roots = {Fraction(0)} if low else set()
    ints = ints[low:]
    if len(ints) > 1 and max(abs(ints[0]), abs(ints[-1])) <= _ROOT_SEARCH_BOUND:
        for num, den in itertools.product(_divisors(ints[0]), _divisors(ints[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if _poly_eval(ints, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _row_times(row: list, sparse_rows: list) -> list:
    """The integer row times a matrix given as each row's nonzero (column, entry)."""
    out = [0] * len(row)
    for x, entries in zip(row, sparse_rows):
        if x:
            for c, b in entries:
                out[c] += x * b
    return out


def minimal_polynomial(mat: Matrix) -> list:
    """Monic minimal polynomial of a square matrix, low degree first.

    One Krylov pass on N = D * mat, D the entries' common denominator: the
    flattened powers I, N, N^2, ... are reduced in turn against the earlier
    ones, each tagged by a unit vector in d + 1 extra columns.  The first
    power whose matrix part reduces to zero carries a relation sum c_i N^i
    = 0 in its tag columns; mat's coefficients are c_i D^i, made monic.
    """
    d = len(mat)
    size = d * d
    nums, den = _numerators([x for row in mat for x in row])
    sparse_rows = [
        [(c, b) for c, b in enumerate(nums[r * d : r * d + d]) if b] for r in range(d)
    ]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    tracker = SpanTracker(size + d + 1)
    for k in range(d + 1):
        tags = [int(j == k) for j in range(d + 1)]
        v = tracker._reduce([x for row in power for x in row] + tags)
        if not any(v[:size]):
            lead = v[size + k] * den**k
            return [Fraction(v[size + i] * den**i, lead) for i in range(k + 1)]
        tracker._insert(v)
        power = [_row_times(row, sparse_rows) for row in power]
    raise GuardFailed("minimal polynomial degree exceeds the dimension")


def is_squarefree(poly: list) -> bool:
    """gcd(f, f') = 1 over Q[t], by the primitive pseudo-remainder sequence
    (Knuth, TAOCP 2, 4.6.1) of f's integer numerators and their derivative.
    Each pseudo-division step (`_eliminate` on the top coefficient) replaces
    a by (s a - u t^k b) / c with s > 0 and c a's new content, and b is
    negated when its lead is negative: every step multiplies by nonzero
    constants, so gcd(a, b) over Q[t] keeps its degree along the sequence.
    The degrees fall, so the last b is a nonzero constant when that degree
    is 0 and zero otherwise.  Zero, constant and linear f are squarefree."""
    a = _poly_trim(_numerators(poly)[0])
    if len(a) <= 2:
        return True
    b = _poly_derivative(a)
    while len(b) > 1:
        if b[-1] < 0:
            b = [-x for x in b]
        while len(a) >= len(b):
            a = _poly_trim(_eliminate(a, [0] * (len(a) - len(b)) + b, len(a) - 1))
        a, b = b, a
    return bool(b)


# ---------------------------------------------------------------------------
# the algebra


@dataclass(frozen=True)
class LieAlgebra:
    """table[i]: the sorted (c, t, k), k != 0, with [e_i, e_c] = sum k / den * e_t.

    den is the constants' least common denominator, so equal algebras have
    equal fields.
    """

    dim: int
    table: tuple
    den: int

    @classmethod
    def from_brackets(cls, dim, brackets: dict) -> "LieAlgebra":
        """Build from {(i, j): coeffs} for i < j; antisymmetry is filled in."""
        if dim < 1:
            raise DomainError(f"dimension must be at least 1, got {dim}")
        vectors = {}
        for (i, j), coeffs in brackets.items():
            if not 0 <= i < j < dim:
                raise DomainError(f"bracket indices ({i}, {j}) out of range")
            v = _vec(coeffs)
            if len(v) != dim:
                raise DomainError(f"bracket ({i}, {j}) has wrong length")
            vectors[i, j] = v
        den = math.lcm(*(x.denominator for v in vectors.values() for x in v))
        table = [[] for _ in range(dim)]
        for (i, j), v in vectors.items():
            for t, x in enumerate(v):
                if x:
                    k = x.numerator * (den // x.denominator)
                    table[i].append((j, t, k))
                    table[j].append((i, t, -k))
        return cls(dim, tuple(tuple(sorted(r)) for r in table), den)

    def _ad_numerators(self, x: list) -> list:
        """Integer N with ad_x = N / den (column c is den [x, e_c]), for integer x."""
        out = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi:
                for c, t, k in self.table[i]:
                    out[t][c] += xi * k
        return out

    def _bracket_numerators(self, u: list, v: list) -> list:
        """Integer w with [u, v] = w / den, for integer vectors u and v."""
        return [sum(map(operator.mul, row, v)) for row in self._ad_numerators(u)]

    def bracket(self, u: Vector, v: Vector) -> Vector:
        (nu, du), (nv, dv) = _numerators(u), _numerators(v)
        den = du * dv * self.den
        return tuple(Fraction(w, den) for w in self._bracket_numerators(nu, nv))

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad_x: y -> [x, y]; column c is [x, e_c]."""
        nums, den = _numerators(x)
        rows = self._ad_numerators(nums)
        return tuple(tuple(Fraction(n, den * self.den) for n in row) for row in rows)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def to_json(self) -> dict:
        brackets = [
            [i, j, [str(Fraction(k, self.den)) for k in w]]
            for (i, j), w in _brackets(self).items()
        ]
        return {"dim": self.dim, "field": "Q", "brackets": brackets}

    @classmethod
    def from_json(cls, obj) -> "LieAlgebra":
        try:
            dim, brackets = obj["dim"], {}
            for i, j, coeffs in json_list(obj["brackets"]):
                if (i, j) in brackets:
                    raise SchemaError(f"bracket ({i}, {j}) is listed twice")
                brackets[i, j] = json_list(coeffs)
            # bool is an int subclass, and int() would truncate a float
            if any(type(n) is not int for n in (dim, *itertools.chain(*brackets))):
                raise SchemaError("dim and bracket indices must be integers")
            # a JSON float holds a binary approximation, never the decimal text
            if any(type(c) not in (int, str) for v in brackets.values() for c in v):
                raise SchemaError("coefficients must be integers or strings")
            if dim < 1:
                raise SchemaError(f"dim must be at least 1, got {dim}")
            field_desc = obj.get("field", "Q")
            if field_desc != "Q":
                raise SchemaError(f"unsupported field {field_desc!r}; only Q is exact")
            brackets = {pair: _vec(v) for pair, v in brackets.items()}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad Lie algebra payload: {exc}") from exc
        return cls.from_brackets(dim, brackets)


def load_algebra(path) -> LieAlgebra:
    with open(path) as fh:
        return LieAlgebra.from_json(json.load(fh))


def load_fixture(name: str) -> LieAlgebra:
    return load_algebra(_FIXTURE_DIR / f"{name}.json")


def list_fixtures() -> list:
    return sorted(p.stem for p in _FIXTURE_DIR.glob("*.json"))


# ---------------------------------------------------------------------------
# validation


def validate(L: LieAlgebra) -> list:
    """Antisymmetry and Jacobi on all basis triples; empty list means valid."""
    brackets = {}  # (i, c) -> {t: k}, the nonzeros of den [e_i, e_c]
    for i, row in enumerate(L.table):
        for c, t, k in row:
            brackets.setdefault((i, c), {})[t] = k
    violations = []
    for i in range(L.dim):
        if (i, i) in brackets:
            violations.append({"kind": "antisymmetry", "triple": (i, i)})
        for j in range(L.dim):
            minus = {t: -k for t, k in brackets.get((j, i), {}).items()}
            if brackets.get((i, j), {}) != minus:
                violations.append({"kind": "antisymmetry", "triple": (i, j)})
    for i, j, k in itertools.combinations(range(L.dim), 3):
        acc = {}  # den^2 ([e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]])
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s, x in brackets.get((b, c), {}).items():
                for t, y in brackets.get((a, s), {}).items():
                    acc[t] = acc.get(t, 0) + x * y
        if any(acc.values()):
            violations.append({"kind": "jacobi", "triple": (i, j, k)})
    return violations


def require_valid(L: LieAlgebra):
    bad = validate(L)
    if bad:
        raise DomainError(f"invalid structure constants: {bad[0]}")


# ---------------------------------------------------------------------------
# classical invariants


def _brackets(L: LieAlgebra) -> dict:
    """{(i, j): w}, i < j, w the dense ints with [e_i, e_j] = w / den != 0, sorted."""
    out = {}
    for i, row in enumerate(L.table):
        for c, t, k in row:
            if i < c:
                out.setdefault((i, c), [0] * L.dim)[t] = k
    return out


def derived_subalgebra(L: LieAlgebra) -> list:
    basis, _ = rref(list(_brackets(L).values()))
    return basis


def is_perfect(L: LieAlgebra) -> bool:
    return len(derived_subalgebra(L)) == L.dim


def killing_form(L: LieAlgebra) -> Matrix:
    """kappa(e_i, e_j) = tr(ad_i ad_j), summed once per pair over table[i]."""
    d, den = L.dim, L.den * L.den
    ads = [{(c, t): k for c, t, k in row} for row in L.table]
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            ad_j = ads[j]
            total = sum(k * ad_j.get((t, c), 0) for c, t, k in L.table[i])
            out[i][j] = out[j][i] = Fraction(total, den)
    return tuple(tuple(row) for row in out)


def radical(L: LieAlgebra) -> list:
    """Cartan's criterion: rad(L) is the Killing-orthogonal of [L, L]."""
    derived, _ = _echelon(list(_brackets(L).values()))
    if not derived:
        return [L.basis_vector(i) for i in range(L.dim)]
    kappa = killing_form(L)
    constraints = [
        [sum(k_row[c] * x for c, x in enumerate(dvec) if x) for k_row in kappa]
        for dvec in derived
    ]
    return nullspace(constraints)


def ad_semisimple(L: LieAlgebra, x: Vector) -> bool:
    """True iff the minimal polynomial of ad_x (or of a multiple) is squarefree."""
    nums, _ = _numerators(_vec(x))
    return is_squarefree(minimal_polynomial(L._ad_numerators(nums)))


# ---------------------------------------------------------------------------
# inertial elements


@dataclass(frozen=True)
class InertialLieCertificate:
    """Witness (x, lambda) for an inertial y: [x, y] = lambda * y, lambda != 0."""

    y: Vector
    x: Vector
    lam: Fraction

    def holds_in(self, L: LieAlgebra) -> bool:
        """[x, y] = w / (dx dy den) against lambda y = lam y / dy, exactly."""
        (x, dx), (y, _) = _numerators(self.x), _numerators(self.y)
        lam = Fraction(self.lam)
        w, scale = L._bracket_numerators(x, y), lam.numerator * dx * L.den
        return lam != 0 and all(a * lam.denominator == scale * b for a, b in zip(w, y))


def inertial_solve(L: LieAlgebra, y) -> InertialLieCertificate | None:
    """Solve [x, y] = y for x; feasible iff y lies in image(ad_y).

    Returns a lambda = 1 certificate, or None when the linear system is
    infeasible (which is exactly the non-inertial condition, up to scaling).
    """
    y = _vec(y)
    nums, _ = _numerators(y)
    if not any(nums):
        raise ZeroVector("inertial elements are nonzero by definition")
    # with y = nums / a, ad_y = N / (a den), so ad_y x = -y is N x = -den nums
    x = solve(L._ad_numerators(nums), [-L.den * c for c in nums])
    if x is None:
        return None
    cert = InertialLieCertificate(y, x, Fraction(1))
    if not cert.holds_in(L):
        raise GuardFailed("solver returned x with [x, y] != y")
    return cert


@dataclass
class ToralReport:
    verdict: str  # "toral" | "toral-likely" | "not-toral"
    witness: Vector | None
    trials: int
    seed: int
    samples: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": [str(c) for c in self.witness] if self.witness else None,
            "trials": self.trials,
            "seed": self.seed,
        }


def _random_vector(rng: random.Random, dim: int) -> Vector:
    while True:
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        if any(v):
            return v


def is_toral_sampled(L: LieAlgebra, trials: int = 200, seed: int = 0) -> ToralReport:
    """Test ad-semisimplicity on the basis plus seeded random vectors.

    One failure is a definitive not-toral witness.  All-pass is evidence
    only, except for the abelian case where toral-ness is exact.
    """
    abelian = not any(L.table)
    rng = random.Random(seed)
    samples = [L.basis_vector(i) for i in range(L.dim)]
    samples += [_random_vector(rng, L.dim) for _ in range(trials)]
    if abelian:
        return ToralReport("toral", None, trials, seed, samples)
    for x in samples:
        if not ad_semisimple(L, x):
            return ToralReport("not-toral", x, trials, seed, samples)
    return ToralReport("toral-likely", None, trials, seed, samples)


@dataclass
class InertialSpanResult:
    status: str  # "certified" | "inconclusive"
    certificates: list
    span_dim: int
    seed: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "span_dim": self.span_dim,
            "seed": self.seed,
            "certificates": [
                {
                    "y": [str(c) for c in cert.y],
                    "x": [str(c) for c in cert.x],
                    "lambda": str(cert.lam),
                }
                for cert in self.certificates
            ],
        }


def _mining_probes(L: LieAlgebra):
    """e_i, then e_i + e_j and e_i - e_j for i < j, as integer vectors."""
    units = [[int(i == j) for j in range(L.dim)] for i in range(L.dim)]
    yield from units
    for u, v in itertools.combinations(units, 2):
        yield [a + b for a, b in zip(u, v)]
        yield [a - b for a, b in zip(u, v)]


def _exp_ad(cols: list, scale: int, v: Vector) -> Vector:
    """sum_k ad_g^k v / k! for a nilpotent ad_g = N / scale, N by sparse columns."""
    term, den = _numerators(v)
    out = list(v)
    for k in range(1, len(out) + 1):
        term = _row_times(term, cols)
        if not any(term):
            return tuple(out)
        den *= k * scale
        out = [a + Fraction(t, den) for a, t in zip(out, term)]
    raise GuardFailed("ad_y of a certificate is not nilpotent")


def _closure_images(L: LieAlgebra, certificates: list, tracker: SpanTracker):
    """(phi c.x, phi c.y, c.lam), phi = exp(ad g.y), for g, c in the growing
    list; phi c.x is built and checked only when `tracker` misses phi c.y."""
    for g in certificates:
        nums, d = _numerators(g.y)
        ad, scale = L._ad_numerators(nums), d * L.den
        cols = [[(r, a) for r, a in enumerate(col) if a] for col in zip(*ad)]
        for c in certificates:
            phi_y = _exp_ad(cols, scale, c.y)
            if tracker.contains(phi_y):
                continue
            cert = InertialLieCertificate(phi_y, _exp_ad(cols, scale, c.x), c.lam)
            if not cert.holds_in(L):
                raise GuardFailed("exp(ad y) image fails [x, y] = lambda y")
            yield cert


def _mined_certificates(L: LieAlgebra):
    """Eigenvectors of ad_x for rational nonzero eigenvalues, x a mining probe."""
    for x in _mining_probes(L):
        ad = L._ad_numerators(x)
        if not any(map(any, ad)):
            continue  # ad_x = 0 has only the eigenvalue 0
        for root in filter(None, rational_roots(minimal_polynomial(ad))):
            num, den = root.numerator, root.denominator
            shifted = [
                [den * a - num if r == c else den * a for c, a in enumerate(row)]
                for r, row in enumerate(ad)
            ]
            for y in nullspace(shifted):
                cert = InertialLieCertificate(y, _vec(x), root / L.den)
                if not cert.holds_in(L):
                    raise GuardFailed("mined eigenvector fails [x, y] = lambda y")
                yield cert


def inertial_span(
    L: LieAlgebra, extra_samples: int = 20, seed: int = 0
) -> InertialSpanResult:
    """Harvest inertial elements and test whether they span L.

    Routes, in turn, until the y's span L: the solver over basis vectors;
    the closure under exp(ad y); eigenvector mining over probes x with
    ad_x != 0; the solver over seeded random vectors.  "Certified" means
    the listed certificates are exact and their y's span L.

    The closure maps each harvested c by phi = exp(ad y), [x, y] = lambda y
    harvested.  ad_x is a derivation, so (ad_x - mu - lambda)^n [y, v] =
    [y, (ad_x - mu)^n v]: ad_y maps each generalized eigenspace L_mu of ad_x
    into L_(mu+lambda).  As lambda != 0, ad_y is nilpotent and phi is an
    automorphism of L over Q: (phi c.x, phi c.y, c.lam) is a certificate.
    """
    tracker = SpanTracker(L.dim)
    certificates = []
    rng = random.Random(seed)
    for cert in itertools.chain(
        (inertial_solve(L, L.basis_vector(i)) for i in range(L.dim)),
        _closure_images(L, certificates, tracker),
        _mined_certificates(L),
        (inertial_solve(L, _random_vector(rng, L.dim)) for _ in range(extra_samples)),
    ):
        if cert is not None and tracker.add(cert.y):
            certificates.append(cert)
        if tracker.full:
            break
    status = "certified" if tracker.full else "inconclusive"
    return InertialSpanResult(status, certificates, tracker.rank, seed)


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassifyReport:
    perfect: bool
    radical_dim: int
    toral: ToralReport
    inertial: InertialSpanResult
    pluperfect: str  # "certified-yes" | "certified-no" | "inconclusive"
    reason: str

    def to_json(self) -> dict:
        return {
            "perfect": self.perfect,
            "radical_dim": self.radical_dim,
            "toral": self.toral.to_json(),
            "inertial": self.inertial.to_json(),
            "pluperfect": self.pluperfect,
            "reason": self.reason,
        }


def classify(
    L: LieAlgebra, trials: int = 200, seed: int = 0, extra_samples: int = 20
) -> ClassifyReport:
    """Full verdict report.

    Certified-yes needs a spanning inertial certificate list (inertially
    generated algebras are pluperfect).  Certified-no needs an exact
    nontrivial toral quotient; the abelianization L/[L,L] provides one
    whenever L is not perfect.  Everything else stays inconclusive, with
    the sampled evidence attached.
    """
    require_valid(L)
    perfect = is_perfect(L)
    radical_dim = len(radical(L))
    toral = is_toral_sampled(L, trials=trials, seed=seed)
    span_result = inertial_span(L, extra_samples=extra_samples, seed=seed)

    if span_result.status == "certified":
        pluperfect = "certified-yes"
        reason = "spanning inertial certificates"
    elif not perfect and L.dim > 0:
        pluperfect = "certified-no"
        reason = "nontrivial abelian (hence toral) quotient L/[L,L]"
    elif toral.verdict == "toral" and L.dim > 0:
        pluperfect = "certified-no"
        reason = "L itself is a nontrivial toral quotient"
    else:
        pluperfect = "inconclusive"
        reason = (
            "no spanning inertial set found and toral-ness is only sampled"
            if toral.verdict == "toral-likely"
            else "no certified route applies"
        )
    return ClassifyReport(perfect, radical_dim, toral, span_result, pluperfect, reason)


# ---------------------------------------------------------------------------
# stock tables


def abelian_table(dim: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(dim, {})


def solvable2_table() -> LieAlgebra:
    # [x, y] = y
    return LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})


def sl2_table() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra.from_brackets(
        3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}
    )


def quaternion_table(a: int, p: int) -> LieAlgebra:
    # trace-zero quaternions of (a, p): [x,y] = pz, [x,z] = pay, [y,z] = p^2 x
    return LieAlgebra.from_brackets(
        3, {(0, 1): [0, 0, p], (0, 2): [0, a * p, 0], (1, 2): [p * p, 0, 0]}
    )


def sl_table(m: int) -> LieAlgebra:
    """Trace-zero m x m matrices: basis E_ij (i != j) then H_k = E_kk - E_(k+1,k+1)."""
    if m < 2:
        raise DomainError("m must be >= 2")

    def matrix(*entries):
        mat = [[0] * m for _ in range(m)]
        for r, c, x in entries:
            mat[r][c] = x
        return mat

    off = [(i, j) for i in range(m) for j in range(m) if i != j]
    mats = [matrix((i, j, 1)) for i, j in off]
    mats += [matrix((k, k, 1), (k + 1, k + 1, -1)) for k in range(m - 1)]
    brackets, idx = {}, range(m)
    for (i, a), (j, b) in itertools.combinations(enumerate(mats), 2):
        comm = [
            [sum(a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in idx) for c in idx]
            for r in idx
        ]
        # coordinates: the off-diagonal entries, then the diagonal's partial sums
        v = [comm[r][c] for r, c in off]
        v += itertools.accumulate(comm[k][k] for k in range(m - 1))
        if any(v):
            brackets[i, j] = v
    return LieAlgebra.from_brackets(len(mats), brackets)
