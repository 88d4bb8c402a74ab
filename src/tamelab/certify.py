"""Group-side inertial certificates, local plans, and identity suites.

A certificate is a pair (x, y) with [x, y] = y^(a p^k) for a unit a and
k >= 1.  Powering x by alpha = log(1+bp^k)/log(1+ap^k) turns it into a
lift of the two-generator tame local group, whose single defining relation
[sigma, tau] = tau^(q-1) the plan must satisfy exactly; because the local
presentation has one relation, that check alone certifies the lift extends.

The suites reproduce, with exact equality at the stated precision, every
explicit matrix identity the constructions rest on: the SL_2 diagonal /
unipotent relations, the quaternion-lattice identities inside SL_4, and
the weight-k conjugation relations over truncated power-series rings,
together with the span of their images in the graded layer.

Each fixed matrix family is built once, by `matgrp._from_entries`: one SL_2
pair (x, s) serves the standard certificate and the witness family, one
(c, s) both symmetric conjugators, and each quaternion suite builds its
lattice and exponentials once and reduces them to the suite's precision.

Both certificate searches, the exhaustive one in a finite quotient and the
bounded cyclic-direction one in the quaternion lattice, work on flat tuples
and one table.  Since [x, y] = y^h is x y x^-1 = y^(h+1), a conjugate of y
is looked up in y's power table shifted by one and restricted to the
admissible exponents.  The cyclic-direction search looks up each
candidate's conjugate, two multiplies.  The exhaustive search walks the
conjugacy class of y once, as a breadth-first orbit under the group's
generators that records each conjugate's generator path: a class that
misses the table is an exhaustive "no", at |class(y)| |generators|
conjugations, and otherwise the path to the first class element in the
table, multiplied out, is the witness x.  Neither answer builds G's
element set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

from .errors import (
    CertificateInvalid,
    DomainError,
    GuardFailed,
    NonUnitDeterminant,
    NotNonresidue,
    PrecisionMismatch,
    RingMismatch,
    SchemaError,
    TameRelationFailed,
    ZeroVector,
    json_int,
)
from .matgrp import (
    RingMatrix,
    _from_entries,
    _reduce_matrix,
    _weight_digits,
    commutator,
    int_power,
    mat_exp,
    mat_log,
    zp_power,
)
from .padic import (
    PadicScalar,
    ScalarRing,
    SeriesRing,
    _int_product,
    _Layout,
    alpha_ratio,
    first_nonresidue,
    hensel_sqrt,
    int_valuation,
    is_nonresidue,
)
from .liealg import rank
from .pcentral import FiniteQuotientGroup, PCentralChain, dictionary_bracket
from .report import SuiteReport


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class GroupInertialCertificate:
    """y != 1 together with x, a unit a and k >= 1 with [x, y] = y^(a p^k)."""

    y: RingMatrix
    x: RingMatrix
    a: PadicScalar
    k: int

    @property
    def ring(self):
        return self.y.ring

    @property
    def exponent(self) -> int:
        return self.a.value * self.ring.p**self.k

    def to_json(self) -> dict:
        return {
            "y": self.y.to_json(),
            "x": self.x.to_json(),
            "a": self.a.to_json(),
            "k": self.k,
        }

    @classmethod
    def from_json(cls, obj) -> "GroupInertialCertificate":
        try:
            return cls(
                RingMatrix.from_json(obj["y"]),
                RingMatrix.from_json(obj["x"]),
                PadicScalar.from_json(obj["a"]),
                json_int(obj["k"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad certificate payload: {exc}") from exc


def verify_certificate(cert: GroupInertialCertificate) -> bool:
    """Exact check of [x, y] = y^(a p^k) at the working precision."""
    if cert.x.ring != cert.y.ring or cert.x.m != cert.y.m or cert.a.p != cert.y.ring.p:
        raise RingMismatch("certificate pieces live over different rings or sizes")
    if cert.k < 1 or not cert.a.is_unit():
        return False
    if cert.y == RingMatrix.identity(cert.y.ring, cert.y.m):
        return False
    try:
        lhs = commutator(cert.x, cert.y)
    except NonUnitDeterminant:  # x or y is not invertible
        return False
    return lhs == int_power(cert.y, cert.exponent)


@dataclass(frozen=True)
class LocalPlan:
    """Lift sigma -> x^alpha, tau -> y of the tame local group at q = 1 + b p^k."""

    certificate: GroupInertialCertificate
    b: PadicScalar
    alpha: PadicScalar
    sigma_image: RingMatrix
    tau_image: RingMatrix

    @property
    def q_minus_one(self) -> int:
        return self.b.value * self.certificate.ring.p**self.certificate.k

    def to_json(self) -> dict:
        # q - 1 = b p^k is faithful at k extra levels beyond b's precision
        ring = self.certificate.ring
        q_scalar = PadicScalar(ring.p, self.b.prec + self.certificate.k, self.q_minus_one)
        out = self.certificate.to_json()
        out.update(
            {
                "b": self.b.to_json(),
                "alpha": self.alpha.to_json(),
                "q_minus_1": q_scalar.to_json(),
            }
        )
        return out


def build_local_plan(cert: GroupInertialCertificate, b: PadicScalar) -> LocalPlan:
    """Construct and exactly re-verify the plan for a prime of norm 1 + b p^k.

    TameRelationFailed is raised, not reported: with a verified certificate
    and alpha computed at k+2 guard digits the relation can only fail
    through a precision shortfall, which must halt loudly.
    """
    if not verify_certificate(cert):
        raise CertificateInvalid("certificate identity fails at this precision")
    b._check(cert.a)
    alpha = alpha_ratio(cert.a, b, cert.k)
    sigma = zp_power(cert.x, alpha)
    plan = LocalPlan(cert, b, alpha, sigma, cert.y)
    lhs = commutator(sigma, cert.y)
    rhs = int_power(cert.y, plan.q_minus_one)
    if lhs != rhs:
        raise TameRelationFailed("tame relation failed despite valid certificate")
    return plan


def standard_inertial_certificate(
    p: int, precision: int, a: PadicScalar | int, k: int
) -> GroupInertialCertificate:
    """Diagonal-versus-unipotent certificate with exponent exactly a p^k.

    y is the upper unipotent with entry p, x = diag(beta, beta^-1) with
    beta the square root of 1 + a p^k that is 1 mod p; conjugation scales
    the unipotent entry by beta^2.
    """
    if isinstance(a, int):
        a = PadicScalar(p, precision, a)
    y, x, _ = _sl2_pair(ScalarRing(p, precision), 1 + a.value * p**k)
    return GroupInertialCertificate(y, x, a, k)


# ---------------------------------------------------------------------------
# the SL_2 witness family


def _sl2_pair(ring: ScalarRing, qnorm: int):
    """x = [[1, p], [0, 1]], s = diag(alpha, 1/alpha), alpha = sqrt(qnorm) = 1 mod p."""
    alpha = hensel_sqrt(ring.from_int(qnorm))
    x = _from_entries(ring, 2, {(0, 1): ring.p})
    s = _from_entries(ring, 2, {(0, 0): alpha, (1, 1): alpha.inv()})
    return x, s, alpha


def _conjugator(u, u_inv):
    """(c, s) = ((u + u^-1)/2, (u^-1 - u)/2), the symmetric conjugator's entries.

    [[c, s], [s, c]] conjugates the nilpotent [[1, 1], [-1, -1]] to u^2 times it.
    The caller passes u^-1, which over a series ring is costly to recompute.
    """
    half = u.ring.from_int(2).inv()
    return (u + u_inv) * half, (u_inv - u) * half


def sl2_witnesses(ring: ScalarRing, qnorm: int) -> dict:
    """Generators x, y, z of depth one and the diagonal/rotation pair s, t.

    alpha is the square root of qnorm that is 1 mod p.  t is symmetric with
    off-diagonal (alpha^-1 - alpha)/2, the sign under which conjugation
    scales the nilpotent direction of z by alpha^2.
    """
    p = ring.p
    if qnorm % p != 1:
        raise ValueError("qnorm must be 1 mod p")
    x, s, alpha = _sl2_pair(ring, qnorm)
    c, s_off = _conjugator(alpha, alpha.inv())
    z = {(0, 0): 1 + p, (0, 1): p, (1, 0): -p, (1, 1): 1 - p}
    t = {(0, 0): c, (0, 1): s_off, (1, 0): s_off, (1, 1): c}
    return {
        "x": x,
        "y": _from_entries(ring, 2, {(1, 0): p}),
        "z": _from_entries(ring, 2, z),
        "s": s,
        "t": _from_entries(ring, 2, t),
        "alpha": alpha,
    }


def sl2_relation_suite(p: int, precision: int, qnorm: int) -> SuiteReport:
    """The three tame relations of the SL_2 construction, checked exactly."""
    ring = ScalarRing(p, precision)
    w = sl2_witnesses(ring, qnorm)
    report = SuiteReport("sl2", data={"p": p, "precision": precision, "qnorm": qnorm})
    e = qnorm - 1
    for anchor, g, u in (
        ("[s,x]=x^(q-1)", w["s"], w["x"]),
        ("[s^-1,y]=y^(q-1)", w["s"].inverse(), w["y"]),
        ("[t,z]=z^(q-1)", w["t"], w["z"]),
    ):
        report.add(anchor, commutator(g, u) == int_power(u, e))
    return report


# ---------------------------------------------------------------------------
# weight-k relations over truncated series rings


def _weight_monomials(ring: SeriesRing, k: int):
    """Elements p^(a0) T^beta of total weight k, as (a0, beta, element).

    The betas are the ring's monomials of degree <= k (k < M), a prefix of
    its graded-lex layout, taken in lexicographic order.
    """
    layout = _Layout(ring)
    for beta in sorted(layout.monos[: bisect_right(layout.degs, k)]):
        a0 = k - sum(beta)
        yield a0, beta, ring.from_terms({beta: ring.p**a0})


def slm_series_suite(
    m: int, k: int, n_vars: int, truncation: int, p: int
) -> SuiteReport:
    """Conjugation relations in weight k over Z_p[[T_1..T_n]]/m^M, plus span.

    For every weight-k monomial mu and ordered basis pair (i, j), checks the
    diagonal conjugations of I + mu E_ij and I + mu E_ji and the D/N pair
    (N the rank-one nilpotent, D the symmetric conjugator scaling N by
    (p^k - 1)^2), each with exponent (p^k - 1)^2 exactly.  The harvested
    unipotent directions must span the full graded layer, verified by an
    independent rank computation over F_p.

    A direction w is read as the weight-k digits of the entries of w - I
    (`matgrp._weight_digits`).  Each harvested w - I is trace zero,
    so its digits lie in gr_k, the |monomials| (m^2 - 1)-dimensional space
    of blocks with trace zero, one block per monomial; any coordinates of
    gr_k (`liealg.sl_table`'s basis among them) give the same rank.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if truncation <= k:
        raise ValueError("truncation must exceed the weight k")
    ring = SeriesRing(p, n_vars, truncation)
    report = SuiteReport(
        f"slm-series/m{m}k{k}n{n_vars}",
        data={"m": m, "k": k, "n_vars": n_vars, "trunc": truncation, "p": p},
    )
    u = ring.from_int(1 - p**k)
    u_inv = u.inv()
    c, s_off = _conjugator(u, u_inv)
    exponent = (p**k - 1) ** 2

    monomials = list(_weight_monomials(ring, k))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]

    gr_dim = len(monomials) * (m * m - 1)
    identity = RingMatrix.identity(ring, m)
    harvested = []

    # diag[(j, i)] is the inverse of diag[(i, j)] and D is symmetric in
    # (i, j), so one inversion per unordered pair builds every conjugator
    diag, dual = {}, {}
    for i, j in pairs:
        diag[(i, j)] = _from_entries(ring, m, {(i, i): u, (j, j): u_inv})
        if i > j:
            if diag[(i, j)] * diag[(j, i)] != identity:
                raise GuardFailed("diagonal conjugators are not mutually inverse")
            d_mat = _from_entries(
                ring, m, {(i, i): c, (i, j): s_off, (j, i): s_off, (j, j): c}
            )
            dual[(i, j)] = dual[(j, i)] = (d_mat, d_mat.inverse())

    checked_dn = False
    for a0, beta, mu in monomials:
        mono_label = f"p^{a0}" + "".join(
            f"*T{i+1}^{e}" for i, e in enumerate(beta) if e
        )
        for i, j in pairs:
            s, s_inv, (d_mat, d_inv) = diag[(i, j)], diag[(j, i)], dual[(i, j)]
            n_mat = _from_entries(
                ring, m, {(i, i): 1, (i, j): 1, (j, i): -1, (j, j): -1}, 0
            )
            upper = _from_entries(ring, m, {(i, j): mu})
            report.add(
                f"{mono_label}/({i},{j})/diag-conj-upper",
                s * upper * s_inv == int_power(upper, exponent),
            )
            lower = _from_entries(ring, m, {(j, i): mu})
            report.add(
                f"{mono_label}/({i},{j})/diag-conj-lower",
                s_inv * lower * s == int_power(lower, exponent),
            )
            if not checked_dn:
                report.add("N-nilpotent", n_mat * n_mat == RingMatrix.zeros(ring, m))
                report.add(
                    "DND^-1=(p^k-1)^2*N",
                    d_mat * n_mat * d_inv == n_mat.scale(ring.from_int(exponent)),
                )
                checked_dn = True
            w = identity + n_mat.scale(mu)
            report.add(
                f"{mono_label}/({i},{j})/DN-conj",
                d_mat * w * d_inv == int_power(w, exponent),
            )
            if i < j:
                harvested += [
                    _weight_digits(g._flat, m, k, g._ent) for g in (upper, lower, w)
                ]

    spanned = rank(harvested, p) == gr_dim
    report.add("gr_k-span", spanned, f"rank target {gr_dim}")
    report.data["gr_dim"] = gr_dim
    return report


# ---------------------------------------------------------------------------
# stable generation audits


@dataclass
class AuditLevel:
    level: int
    membership_ok: bool
    certificates_ok: bool
    meaningful: bool
    spans: bool

    @property
    def ok(self) -> bool:
        return self.membership_ok and self.certificates_ok and self.spans


def stable_generation_audit(
    G: FiniteQuotientGroup,
    chain: PCentralChain,
    certs_by_level: dict,
    window: int,
    require_deeper_x: bool = False,
) -> list[AuditLevel]:
    """Per-level audit: certificates live in P_n, hold exactly, and span gr_n.

    `require_deeper_x` additionally demands x in P_(n+1) (the power-shift
    refinement; off by default since the base definitions do not need it).
    At finite modulus a certificate only carries information when
    y^(a p^k) != I, which is recorded in `meaningful`.
    """
    out = []
    for n in range(1, window + 1):
        pn = chain.level(n)
        pn1 = chain.level(n + 1)
        certs = certs_by_level.get(n, [])
        membership_ok = True
        certs_ok = bool(certs)
        meaningful = bool(certs)
        y_tuples = []
        for cert in certs:
            y_t = G.to_tuple(cert.y)
            x_t = G.to_tuple(cert.x)
            y_tuples.append(y_t)
            if y_t not in pn or x_t not in G.elements:
                membership_ok = False
            if require_deeper_x and x_t not in pn1:
                membership_ok = False
            if not verify_certificate(cert):
                certs_ok = False
            if int_power(cert.y, cert.exponent) == RingMatrix.identity(
                cert.ring, cert.y.m
            ):
                meaningful = False
        gen_set = y_tuples + chain.gens(n + 1)
        spans = certs_ok and membership_ok and G.subgroup_closure(gen_set) == pn
        out.append(AuditLevel(n, membership_ok, certs_ok, meaningful, spans))
    return out


# ---------------------------------------------------------------------------
# quaternion lattice inside SL_4


def quaternion_matrices(ring: ScalarRing, a: int) -> dict:
    """A, B with A^2 = pI, B^2 = aI, AB = -BA, in 2x2 blocks.

    A = [[u, 0], [0, -u]] with u = [[0, p], [1, 0]], and B = [[0, aI], [I, 0]].
    """
    p = ring.p
    return {
        "A": _from_entries(ring, 4, {(0, 1): p, (1, 0): 1, (2, 3): -p, (3, 2): -1}, 0),
        "B": _from_entries(ring, 4, {(0, 2): a, (1, 3): a, (2, 0): 1, (3, 1): 1}, 0),
    }


def quaternion_uniform_suite(a: int, p: int, precision: int) -> SuiteReport:
    """Identities of the quaternion lattice and a bounded certificate search.

    Builds A, B with A^2 = pI, B^2 = aI, AB = -BA, exponentiates the scaled
    lattice basis to x, y, z, searches cyclic-direction candidates for any
    meaningful inertial certificate (none should exist: the associated Lie
    algebra is toral), and records the structure constants the commutator
    limit produces on (log x, log y, log z).
    Everything is built once at the bracket's working precision; truncated
    exp is exact, so its reduction to `precision` is the value computed there.
    """
    if not is_nonresidue(a, p):
        raise NotNonresidue(f"{a} is a square mod {p}")
    report = SuiteReport("quaternion", data={"a": a, "p": p, "precision": precision})
    # bracket recording needs headroom: the commutator limit divides by p^2
    # and the interesting coordinates carry one extra factor of p
    wring = ScalarRing(p, max(precision, 6))
    mats = quaternion_matrices(wring, a)
    wa, wb = mats["A"], mats["B"]
    basis = tuple(g.scale(wring.from_int(p)) for g in (wa, wb, wa * wb))
    wx, wy, wz = (mat_exp(g) for g in basis)

    big_a, big_b, a0, b0, c0, x, y, z = (
        _reduce_matrix(g, precision) for g in (wa, wb, *basis, wx, wy, wz)
    )
    report.add("A^2=pI", big_a * big_a == _from_entries(x.ring, 4, {}, p))
    report.add("B^2=aI", big_b * big_b == _from_entries(x.ring, 4, {}, a))
    report.add("AB=-BA", big_a * big_b == -(big_b * big_a))
    report.add(
        "log-roundtrip", mat_log(x) == a0 and mat_log(y) == b0 and mat_log(z) == c0
    )

    bound = p ** min(3, precision - 1)
    found = _cyclic_direction_certificate_search((x, y, z), bound)
    report.add(
        "no-inertial-certificate",
        found is None,
        f"cyclic-direction search, exponent bound {bound}",
    )

    constants = {}
    pairs = {"xy": (wx, wy), "xz": (wx, wz), "yz": (wy, wz)}
    ok_brackets = True
    for label, (g, h) in pairs.items():
        bra = dictionary_bracket(g, h)
        coords = _quaternion_coordinates(bra.matrix, basis, p)
        constants[label] = {
            "coords": [str(v) for v in coords] if coords else None,
            "certified_levels": bra.certified_levels,
        }
        if coords is None:
            ok_brackets = False
    report.add("dictionary-brackets-in-lattice", ok_brackets)
    report.data["structure_constants"] = constants
    return report


def _quaternion_coordinates(bracket: RingMatrix, basis, p: int):
    """Solve bracket = c1 A0 + c2 B0 + c3 C0 on packed entries via probes."""
    prec = bracket.ring.prec
    flats = [_reduce_matrix(mat, prec)._flat for mat in basis]
    coords, combo_prec = [], prec
    # (1,0), (2,0), (3,0): A0, B0, C0 are the only ones nonzero there
    for flat, i in zip(flats, (4, 8, 12)):
        denom, num = flat[i], bracket._flat[i]
        v = int_valuation(denom, p, prec)
        if denom == 0 or num % p**v:
            return None
        scaled = p ** (prec - v)
        coords.append(num // p**v * pow(denom // p**v, -1, scaled) % scaled)
        combo_prec = min(combo_prec, prec - v)
    # consistency: the combination must reproduce the bracket at that precision
    low = p**combo_prec
    for i, b in enumerate(bracket._flat):
        if (b - sum(c * flat[i] for c, flat in zip(coords, flats))) % low:
            return None
    return coords


# ---------------------------------------------------------------------------
# certificate searches: quaternion directions and finite quotients


def _conjugate_table(y, identity, mul, p, k_max, cap=None):
    """{y^j: j - 1} over the exponents j - 1 a certificate may carry.

    x y x^-1 = y^j is [x, y] = y^(j-1), so the table keeps y^j for
    2 <= j < ord(y) with 1 <= v_p(j - 1) <= k_max, and j - 1 <= `cap`.
    """
    table = {}
    acc, hit = mul(y, y), 1
    while acc != identity:
        if hit % p == 0 and hit % p ** (k_max + 1):
            table[acc] = hit
        if hit == cap:
            break
        acc, hit = mul(acc, y), hit + 1
    return table


def _cyclic_direction_certificate_search(directions, exponent_bound: int):
    """Search [g^e, y] = y^(a p^k) over cyclic powers of the given directions."""
    ring, m = directions[0].ring, directions[0].m
    ident = RingMatrix.identity(ring, m)._flat
    mul = partial(_int_product(m), ring.modulus)
    # g^e and g^-e for 1 <= e < exponent_bound, built one factor at a time
    # and shared by every y
    candidates = []
    for d in directions:
        g, g_inv = d._flat, d.inverse()._flat
        base = base_inv = ident
        for _ in range(1, exponent_bound):
            base, base_inv = mul(base, g), mul(g_inv, base_inv)
            candidates.append((base, base_inv))

    for y in directions:
        y_t, cap = y._flat, exponent_bound * ring.p
        table = _conjugate_table(y_t, ident, mul, ring.p, ring.prec, cap)
        for x, x_inv in candidates:
            hit = table.get(mul(mul(x, y_t), x_inv))
            if hit is not None:
                return {"y": y, "x": RingMatrix._packed(ring, m, x), "exponent": hit}
    return None


def brute_search_certificate(
    G: FiniteQuotientGroup, y, k_max: int
) -> GroupInertialCertificate | None:
    """Exhaustive search over x in G for [x, y] = y^(a p^k), y^(a p^k) != 1.

    Sound and complete at the given modulus.  [x, y] = y^h is x y x^-1 =
    y^(h+1), so a certificate exists exactly when the conjugacy class of y
    meets y's `_conjugate_table`.  That class is the orbit of y under
    conjugation by the generators, complete because they generate G (the
    `FiniteQuotientGroup` invariant): the orbit is closed under each
    generator, hence under the group they generate, which is all of G.  When
    the orbit closes without meeting the table the answer is an exhaustive
    "no".  Otherwise the walk stops at the first class element z in the
    table, and x is the product of the generators along z's path from y
    (`conjugacy_class`), len(path) multiplies: x y x^-1 = z, the witness.
    Neither answer builds G's element set.  Torsion-degenerate certificates
    (exponent annihilating y) are excluded; at finite modulus they exist for
    every element and carry no information.
    """
    # series-ring certificates wait for one re-checkable witness format
    # (ROADMAP item 8)
    if not isinstance(G.ring, ScalarRing):
        raise PrecisionMismatch("certificate search needs a scalar ring")
    y_t = y if isinstance(y, tuple) else G.to_tuple(y)
    if y_t == G.identity:
        raise ZeroVector("y must differ from the identity")
    if y_t not in G.elements:
        raise DomainError("y is not an element of the group")
    # a valuation is read only up to the group's precision
    k_max = min(k_max, G.prec)
    table = _conjugate_table(y_t, G.identity, G.mul, G.p, k_max)
    if not table:
        return None
    found = next(((z, path) for z, path in G.conjugacy_class(y_t) if z in table), None)
    if found is None:
        return None
    z, path = found
    x_t = G.identity
    for i in path:
        x_t = G.mul(G.generators[i], x_t)
    hit = table[z]
    k = int_valuation(hit, G.p, k_max)
    cert = GroupInertialCertificate(
        G.to_matrix(y_t),
        G.to_matrix(x_t),
        PadicScalar(G.p, G.prec, hit // G.p**k),
        k,
    )
    if not verify_certificate(cert):
        raise GuardFailed("searched certificate fails its identity")
    return cert
