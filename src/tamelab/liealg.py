"""Finite-dimensional Lie algebras over exact rationals, by structure constants.

Implements the classification pipeline: perfectness, Killing form and
Cartan radical, adjoint semisimplicity, the inertial-element linear solver
(an element y is inertial iff y lies in the image of ad_y), spanning
harvests of inertial elements, and the three-valued toral / pluperfect
verdicts.  Universal toral-ness is not decidable by sampling, so sampled
all-pass results are reported as evidence, never upgraded to certainty;
the only exact toral verdict is the abelian case.

`SpanTracker` is the one exact elimination kernel, a reduced echelon basis
over Q or F_p; rref, solve, nullspace, minimal polynomials (one Krylov
pass) and the F_p rank of `certify` all run on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, GuardFailed, SchemaError, ZeroVector

Vector = tuple
Matrix = tuple

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# exact linear algebra: one reduced-echelon kernel over Q or F_p


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _zero_vec(d: int) -> Vector:
    return (Fraction(0),) * d


def _vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, u: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in u)


def _is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def _sub_multiple(u: list, f, row: list, p) -> list:
    """u - f * row, entrywise, skipping the zero entries of row."""
    if p is None:
        return [x - f * y if y else x for x, y in zip(u, row)]
    return [(x - f * y) % p if y else x for x, y in zip(u, row)]


class SpanTracker:
    """Row space in reduced row echelon form, over Q or, given a prime p, F_p.

    This is the package's one elimination routine.  rows[i] has a 1 in
    column pivots[i] and a 0 in every other pivot column; rows stay in
    insertion order.  Over F_p the entries are ints in [0, p).
    """

    def __init__(self, dim: int, p: int | None = None):
        self.dim = dim
        self.p = p
        self.rows: list = []
        self.pivots: list = []

    def _reduce(self, v) -> list:
        """v minus the combination of stored rows that clears every pivot column."""
        p = self.p
        v = [Fraction(x) for x in v] if p is None else [x % p for x in v]
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
        if v[c] != 1 and p is None:
            inv = 1 / v[c]
            v = [inv * x if x else x for x in v]
        elif v[c] != 1:
            inv = pow(v[c], -1, p)
            v = [inv * x % p for x in v]
        for i, row in enumerate(self.rows):
            if row[c]:
                self.rows[i] = _sub_multiple(row, row[c], v, p)
        self.rows.append(v)
        self.pivots.append(c)
        return True

    def contains(self, v: Vector) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Vector) -> bool:
        """Insert v; True when it enlarged the span."""
        return self._insert(self._reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.dim


def rref(rows) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows:
        return [], []
    tracker = SpanTracker(len(rows[0]))
    for row in rows:
        tracker._insert(tracker._reduce(row))
    order = sorted(range(tracker.rank), key=tracker.pivots.__getitem__)
    return [tuple(tracker.rows[i]) for i in order], [tracker.pivots[i] for i in order]


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve(a_rows, b: Vector):
    """One solution of A x = b, or None; free variables are set to zero."""
    n = len(b)
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [list(a_rows[i]) + [b[i]] for i in range(n)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return tuple(x)


def nullspace(a_rows) -> list:
    """Basis of the kernel of the matrix whose rows are a_rows."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    reduced, pivots = rref(a_rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


# polynomial helpers (coefficient lists, low degree first)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_mod(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _poly_trim(a)
    return a


def _poly_gcd(a: list, b: list) -> list:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


_ROOT_SEARCH_BOUND = 10**9


def rational_roots(poly: list) -> list:
    """All rational roots of a polynomial over Q (rational root theorem)."""
    poly = _poly_trim(list(map(Fraction, poly)))
    if not poly:
        return []
    roots = []
    low = 0
    while poly[low] == 0:
        roots.append(Fraction(0))
        low += 1
    poly = poly[low:]
    if len(poly) <= 1:
        return sorted(set(roots))
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * denom) for c in poly]
    a0, an = ints[0], ints[-1]
    if abs(a0) > _ROOT_SEARCH_BOUND or abs(an) > _ROOT_SEARCH_BOUND:
        return sorted(set(roots))
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if _poly_eval(poly, cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def minimal_polynomial(mat: Matrix) -> list:
    """Monic minimal polynomial of a square matrix, low degree first.

    One Krylov pass: the flattened powers I, A, A^2, ... are reduced in turn
    against the earlier ones, each tagged by a unit vector in d + 1 extra
    columns.  The first power whose matrix part reduces to zero carries the
    monic relation in its tag columns.
    """
    d = len(mat)
    size = d * d
    tracker = SpanTracker(size + d + 1)
    columns = [[(t, b) for t, b in enumerate(col) if b] for col in zip(*mat)]
    power = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for k in range(d + 1):
        tags = [int(j == k) for j in range(d + 1)]
        v = tracker._reduce([x for row in power for x in row] + tags)
        if not any(v[:size]):
            return v[size : size + k + 1]
        tracker._insert(v)
        power = [
            [sum(row[t] * b for t, b in col if row[t]) for col in columns]
            for row in power
        ]
    raise GuardFailed("minimal polynomial degree exceeds the dimension")


def is_squarefree(poly: list) -> bool:
    return len(_poly_gcd(poly, _poly_derivative(list(poly)))) <= 1


# ---------------------------------------------------------------------------
# the algebra


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants table[i][j] = [e_i, e_j] as coordinate vectors."""

    dim: int
    table: tuple
    field: str = "Q"
    name: str = ""

    @classmethod
    def from_brackets(cls, dim, brackets: dict, field="Q", name="") -> "LieAlgebra":
        """Build from {(i, j): coeffs} for i < j; antisymmetry is filled in."""
        table = [[_zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not 0 <= i < j < dim:
                raise DomainError(f"bracket indices ({i}, {j}) out of range")
            v = _vec(coeffs)
            if len(v) != dim:
                raise DomainError(f"bracket ({i}, {j}) has wrong length")
            table[i][j] = v
            table[j][i] = _vec_scale(-1, v)
        return cls(dim, tuple(tuple(r) for r in table), field, name)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        out = list(_zero_vec(self.dim))
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                w = self.table[i][j]
                c = ui * vj
                for t, wt in enumerate(w):
                    if wt != 0:
                        out[t] += c * wt
        return tuple(out)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad_x: y -> [x, y]; column c is [x, e_c]."""
        cols = [self.bracket(x, self.basis_vector(c)) for c in range(self.dim)]
        return tuple(zip(*cols))

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def to_json(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not _is_zero(self.table[i][j]):
                    brackets.append([i, j, [str(c) for c in self.table[i][j]]])
        return {"dim": self.dim, "field": self.field, "brackets": brackets}

    @classmethod
    def from_json(cls, obj, name="") -> "LieAlgebra":
        try:
            dim = int(obj["dim"])
            field_desc = obj.get("field", "Q")
            if field_desc != "Q":
                raise SchemaError(f"unsupported field {field_desc!r}; only Q is exact")
            brackets = {
                (int(i), int(j)): [Fraction(c) for c in coeffs]
                for i, j, coeffs in obj["brackets"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad Lie algebra payload: {exc}") from exc
        return cls.from_brackets(dim, brackets, "Q", name)


def load_algebra(path) -> LieAlgebra:
    path = Path(path)
    with open(path) as fh:
        return LieAlgebra.from_json(json.load(fh), name=path.stem)


def load_fixture(name: str) -> LieAlgebra:
    return load_algebra(_FIXTURE_DIR / f"{name}.json")


def list_fixtures() -> list:
    return sorted(p.stem for p in _FIXTURE_DIR.glob("*.json"))


# ---------------------------------------------------------------------------
# validation


def validate(L: LieAlgebra) -> list:
    """Antisymmetry and Jacobi on all basis triples; empty list means valid."""
    violations = []
    for i in range(L.dim):
        if not _is_zero(L.table[i][i]):
            violations.append({"kind": "antisymmetry", "triple": (i, i)})
        for j in range(L.dim):
            if L.table[i][j] != _vec_scale(-1, L.table[j][i]):
                violations.append({"kind": "antisymmetry", "triple": (i, j)})
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                ei, ej, ek = (L.basis_vector(t) for t in (i, j, k))
                acc = _vec_add(
                    _vec_add(
                        L.bracket(ei, L.table[j][k]), L.bracket(ej, L.table[k][i])
                    ),
                    L.bracket(ek, L.table[i][j]),
                )
                if not _is_zero(acc):
                    violations.append({"kind": "jacobi", "triple": (i, j, k)})
    return violations


def require_valid(L: LieAlgebra):
    bad = validate(L)
    if bad:
        raise DomainError(f"invalid structure constants: {bad[0]}")


# ---------------------------------------------------------------------------
# classical invariants


def derived_subalgebra(L: LieAlgebra) -> list:
    rows = [
        L.table[i][j]
        for i in range(L.dim)
        for j in range(i + 1, L.dim)
        if not _is_zero(L.table[i][j])
    ]
    basis, _ = rref(rows)
    return basis


def is_perfect(L: LieAlgebra) -> bool:
    return len(derived_subalgebra(L)) == L.dim


def killing_form(L: LieAlgebra) -> Matrix:
    """kappa(e_i, e_j) = tr(ad_i ad_j), summed once per pair over ad_i's nonzeros."""
    d = L.dim
    ads = [L.ad(L.basis_vector(i)) for i in range(d)]
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        support = [
            (r, c, v) for r, row in enumerate(ads[i]) for c, v in enumerate(row) if v
        ]
        for j in range(i, d):
            ad_j = ads[j]
            out[i][j] = out[j][i] = sum(
                (v * ad_j[c][r] for r, c, v in support), Fraction(0)
            )
    return tuple(tuple(row) for row in out)


def radical(L: LieAlgebra) -> list:
    """Cartan's criterion: rad(L) is the Killing-orthogonal of [L, L]."""
    kappa = killing_form(L)
    derived = derived_subalgebra(L)
    if not derived:
        return [L.basis_vector(i) for i in range(L.dim)]
    constraints = []
    for dvec in derived:
        constraints.append(
            tuple(
                sum(kappa[r][c] * dvec[c] for c in range(L.dim)) for r in range(L.dim)
            )
        )
    return nullspace(constraints)


def ad_semisimple(L: LieAlgebra, x: Vector) -> bool:
    """True iff the minimal polynomial of ad_x is squarefree."""
    return is_squarefree(minimal_polynomial(L.ad(_vec(x))))


# ---------------------------------------------------------------------------
# inertial elements


@dataclass(frozen=True)
class InertialLieCertificate:
    """Witness (x, lambda) for an inertial y: [x, y] = lambda * y, lambda != 0."""

    y: Vector
    x: Vector
    lam: Fraction

    def holds_in(self, L: LieAlgebra) -> bool:
        return self.lam != 0 and L.bracket(self.x, self.y) == _vec_scale(
            self.lam, self.y
        )


def inertial_solve(L: LieAlgebra, y) -> InertialLieCertificate | None:
    """Solve [x, y] = y for x; feasible iff y lies in image(ad_y).

    Returns a lambda = 1 certificate, or None when the linear system is
    infeasible (which is exactly the non-inertial condition, up to scaling).
    """
    y = _vec(y)
    if _is_zero(y):
        raise ZeroVector("inertial elements are nonzero by definition")
    ady = L.ad(y)
    x = solve([list(r) for r in ady], _vec_scale(-1, y))
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
        if not _is_zero(v):
            return v


def is_toral_sampled(L: LieAlgebra, trials: int = 200, seed: int = 0) -> ToralReport:
    """Test ad-semisimplicity on the basis plus seeded random vectors.

    One failure is a definitive not-toral witness.  All-pass is evidence
    only, except for the abelian case where toral-ness is exact.
    """
    abelian = all(
        _is_zero(L.table[i][j]) for i in range(L.dim) for j in range(L.dim)
    )
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
    for i in range(L.dim):
        yield L.basis_vector(i)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ei, ej = L.basis_vector(i), L.basis_vector(j)
            yield _vec_add(ei, ej)
            yield _vec_sub(ei, ej)


def inertial_span(
    L: LieAlgebra, extra_samples: int = 20, seed: int = 0
) -> InertialSpanResult:
    """Harvest inertial elements and test whether they span L.

    Harvest routes: the linear solver over basis vectors and random
    combinations, and eigenvector mining (rational nonzero eigenvalues of
    ad_x for deterministic probe vectors x).  "Certified" means the listed
    certificates are exact and their y's span L.
    """
    tracker = SpanTracker(L.dim)
    certificates = []

    def harvest(cert):
        if cert is not None and tracker.add(cert.y):
            certificates.append(cert)

    for i in range(L.dim):
        harvest(inertial_solve(L, L.basis_vector(i)))
        if tracker.full:
            break

    if not tracker.full:
        for x in _mining_probes(L):
            ad = L.ad(x)
            for lam in rational_roots(minimal_polynomial(ad)):
                if lam == 0:
                    continue
                shifted = [
                    [a - lam if r == c else a for c, a in enumerate(row)]
                    for r, row in enumerate(ad)
                ]
                for y in nullspace(shifted):
                    cert = InertialLieCertificate(y, x, lam)
                    if not cert.holds_in(L):
                        raise GuardFailed("mined eigenvector fails [x, y] = lambda y")
                    harvest(cert)
            if tracker.full:
                break

    rng = random.Random(seed)
    for _ in range(extra_samples):
        if tracker.full:
            break
        harvest(inertial_solve(L, _random_vector(rng, L.dim)))

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
    return LieAlgebra.from_brackets(dim, {}, name=f"abelian{dim}")


def solvable2_table() -> LieAlgebra:
    # [x, y] = y
    return LieAlgebra.from_brackets(2, {(0, 1): [0, 1]}, name="solvable2")


def sl2_table() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra.from_brackets(
        3,
        {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]},
        name="sl2",
    )


def quaternion_table(a: int, p: int) -> LieAlgebra:
    # trace-zero quaternions of (a, p): [x,y] = pz, [x,z] = pay, [y,z] = p^2 x
    return LieAlgebra.from_brackets(
        3,
        {(0, 1): [0, 0, p], (0, 2): [0, a * p, 0], (1, 2): [p * p, 0, 0]},
        name=f"quaternion_a{a}_p{p}",
    )


def sl_table(m: int) -> LieAlgebra:
    """Trace-zero m x m matrices: basis E_ij (i != j) then H_k = E_kk - E_(k+1,k+1)."""
    if m < 2:
        raise DomainError("m must be >= 2")
    basis = []
    for i in range(m):
        for j in range(m):
            if i != j:
                basis.append(("E", i, j))
    for k in range(m - 1):
        basis.append(("H", k, k + 1))
    dim = len(basis)

    def to_matrix(tag):
        mat = [[Fraction(0)] * m for _ in range(m)]
        kind, i, j = tag
        if kind == "E":
            mat[i][j] = Fraction(1)
        else:
            mat[i][i] = Fraction(1)
            mat[j][j] = Fraction(-1)
        return mat

    def coords(mat):
        out = []
        for i in range(m):
            for j in range(m):
                if i != j:
                    out.append(mat[i][j])
        partial = Fraction(0)
        for k in range(m - 1):
            partial += mat[k][k]
            out.append(partial)
        return tuple(out)

    mats = [to_matrix(t) for t in basis]
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = mats[i], mats[j]
            comm = [
                [
                    sum(a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(m))
                    for c in range(m)
                ]
                for r in range(m)
            ]
            v = coords(comm)
            if not _is_zero(v):
                brackets[(i, j)] = v
    return LieAlgebra.from_brackets(dim, brackets, name=f"sl{m}")
