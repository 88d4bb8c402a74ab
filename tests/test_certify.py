"""Certificates, local plans, identity suites, audits, searches."""

import json
import math
import random
from functools import partial, reduce

import pytest

from tamelab.certify import (
    GroupInertialCertificate,
    _cyclic_direction_certificate_search,
    brute_search_certificate,
    build_local_plan,
    first_nonresidue,
    is_nonresidue,
    quaternion_uniform_suite,
    sl2_relation_suite,
    sl2_witnesses,
    slm_series_suite,
    stable_generation_audit,
    quaternion_matrices,
    standard_inertial_certificate,
    verify_certificate,
)
from tamelab.errors import (
    CertificateInvalid,
    DepthError,
    DomainError,
    NotNonresidue,
    RingMismatch,
    ZeroVector,
)
from tamelab.liealg import rank
from tamelab.matgrp import (
    RingMatrix,
    _from_entries,
    _weight_digits,
    commutator,
    int_power,
    mat_exp,
    sl_standard_generators,
)
from tamelab import certify, pcentral
from tamelab.padic import (
    PadicScalar,
    ScalarRing,
    SeriesRing,
    _int_product,
    hensel_sqrt,
    int_valuation,
)
from tamelab.pcentral import closure, pcentral_series
from tamelab.report import SuiteReport


# ---------------------------------------------------------------------------
# certificate verification


def test_verify_example_sl2_certificate():
    # (x=s, y=upper unipotent, a p^k = N(q) - 1) at p=5, N(q) = 1 + 5^2
    ring = ScalarRing(5, 4)
    w = sl2_witnesses(ring, 26)
    cert = GroupInertialCertificate(w["x"], w["s"], PadicScalar(5, 4, 1), 2)
    assert verify_certificate(cert)


def test_verify_torsion_certificate_with_trivial_x():
    ring = ScalarRing(5, 3)
    y = RingMatrix.from_int_rows(ring, [[1, 25], [0, 1]])  # order 5
    cert = GroupInertialCertificate(
        y, RingMatrix.identity(ring, 2), PadicScalar(5, 3, 1), 1
    )
    assert verify_certificate(cert)


def test_verify_random_pair_fails():
    ring = ScalarRing(5, 3)
    y = RingMatrix.from_int_rows(ring, [[1, 5], [0, 1]])
    x = RingMatrix.from_int_rows(ring, [[1, 0], [5, 1]])
    cert = GroupInertialCertificate(y, x, PadicScalar(5, 3, 1), 1)
    assert not verify_certificate(cert)


def test_verify_rejects_identity_y_and_bad_parameters():
    ring = ScalarRing(5, 3)
    ident = RingMatrix.identity(ring, 2)
    y = RingMatrix.from_int_rows(ring, [[1, 5], [0, 1]])
    assert not verify_certificate(
        GroupInertialCertificate(ident, ident, PadicScalar(5, 3, 1), 1)
    )
    assert not verify_certificate(
        GroupInertialCertificate(y, ident, PadicScalar(5, 3, 5), 1)
    )  # a not a unit
    assert not verify_certificate(
        GroupInertialCertificate(y, ident, PadicScalar(5, 3, 1), 0)
    )  # k < 1


def test_verify_ring_mismatch():
    y = RingMatrix.from_int_rows(ScalarRing(5, 3), [[1, 5], [0, 1]])
    x = RingMatrix.identity(ScalarRing(5, 4), 2)
    with pytest.raises(RingMismatch):
        verify_certificate(GroupInertialCertificate(y, x, PadicScalar(5, 3, 1), 1))


def test_certificate_json_roundtrip():
    cert = standard_inertial_certificate(5, 4, 2, 1)
    payload = json.loads(json.dumps(cert.to_json()))
    back = GroupInertialCertificate.from_json(payload)
    assert back == cert and verify_certificate(back)


# ---------------------------------------------------------------------------
# local plans


def test_plan_same_exponent_gives_alpha_one():
    cert = standard_inertial_certificate(5, 4, 3, 1)
    plan = build_local_plan(cert, PadicScalar(5, 4, 3))
    assert plan.alpha.value == 1
    assert plan.sigma_image == cert.x


def test_plan_zero_b_gives_unramified_split():
    cert = standard_inertial_certificate(5, 4, 3, 1)
    plan = build_local_plan(cert, PadicScalar(5, 4, 0))
    assert plan.alpha.value == 0
    assert plan.sigma_image == RingMatrix.identity(cert.ring, 2)
    assert plan.q_minus_one == 0


def test_plan_p5_example_exact_mod_625():
    cert = standard_inertial_certificate(5, 4, 1, 1)
    plan = build_local_plan(cert, PadicScalar(5, 4, 2))
    # independent oracle: explicit products, exponent via plain powering
    sigma, tau = plan.sigma_image, plan.tau_image
    lhs = sigma * tau * sigma.inverse() * tau.inverse()
    rhs = RingMatrix.identity(cert.ring, 2)
    for _ in range(plan.q_minus_one):
        rhs = rhs * tau
    assert lhs == rhs


def test_plan_rejects_invalid_certificate():
    ring = ScalarRing(5, 4)
    y = RingMatrix.from_int_rows(ring, [[1, 5], [0, 1]])
    x = RingMatrix.from_int_rows(ring, [[1, 0], [5, 1]])
    bad = GroupInertialCertificate(y, x, PadicScalar(5, 4, 1), 1)
    with pytest.raises(CertificateInvalid):
        build_local_plan(bad, PadicScalar(5, 4, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_plan_random_triples(p):
    rng = random.Random(p)
    prec = 4
    for _ in range(30):
        k = rng.randint(1, 2)
        a_val = rng.randrange(1, p**prec)
        if a_val % p == 0:
            a_val += 1
        b_val = rng.randrange(p**prec)
        cert = standard_inertial_certificate(p, prec, a_val, k)
        plan = build_local_plan(cert, PadicScalar(p, prec, b_val))
        assert commutator(plan.sigma_image, plan.tau_image) == int_power(
            plan.tau_image, plan.q_minus_one
        )


# ---------------------------------------------------------------------------
# SL_2 suite


def test_sl2_suite_p5():
    report = sl2_relation_suite(5, 5, 1 + 5**2)
    assert report.all_pass
    assert len(report.items) == 3


def test_sl2_suite_p7():
    assert sl2_relation_suite(7, 4, 1 + 7).all_pass


def test_sl2_suite_other_root_also_works():
    # replacing alpha by -alpha leaves [s, x] = x^(q-1): only alpha^2 enters
    p, prec, q = 5, 4, 26
    ring = ScalarRing(p, prec)
    alpha = hensel_sqrt(ring.from_int(q))
    neg = -alpha
    s = RingMatrix(ring, [[neg, ring.zero()], [ring.zero(), neg.inv()]])
    x = RingMatrix.from_int_rows(ring, [[1, p], [0, 1]])
    assert commutator(s, x) == int_power(x, q - 1)


def test_sl2_witness_t_has_determinant_one():
    ring = ScalarRing(5, 4)
    w = sl2_witnesses(ring, 26)
    assert w["t"].det() == ring.one()
    assert w["z"].det() == ring.one()


# ---------------------------------------------------------------------------
# series suite


def test_slm_series_suite_one_variable():
    report = slm_series_suite(2, 1, 1, 3, 3)
    assert report.all_pass
    assert report.data["gr_dim"] == 6  # two weight-1 monomials x three directions


def test_slm_series_suite_weight_two_scalar():
    report = slm_series_suite(2, 2, 0, 4, 5)
    assert report.all_pass
    anchors = [item.anchor for item in report.items]
    assert any("DND^-1" in a for a in anchors)
    assert any("N-nilpotent" in a for a in anchors)


def test_slm_series_suite_m3_spanning():
    report = slm_series_suite(3, 1, 0, 3, 3)
    assert report.all_pass
    assert report.data["gr_dim"] == 8


def test_slm_series_suite_gr_dim_formula():
    # dim = C(k + n, n) * (m^2 - 1) by counting weight-k monomials
    import math

    for m, k, n in ((2, 1, 1), (2, 2, 1), (3, 1, 0), (2, 2, 0)):
        report = slm_series_suite(m, k, n, k + 2, 3)
        assert report.data["gr_dim"] == math.comb(k + n, n) * (m * m - 1)
        assert report.all_pass


def test_slm_series_suite_needs_headroom():
    with pytest.raises(ValueError):
        slm_series_suite(2, 3, 0, 3, 3)


def test_slm_series_suite_refuses_k_below_one_before_any_ring_work(monkeypatch):
    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(certify, "SeriesRing", no_ring)
    for k in (0, -1):
        with pytest.raises(DomainError, match=f"k must be >= 1, got {k}"):
            slm_series_suite(2, k, 0, 3, 3)


def _oracle_slm_series_suite(m, k, n_vars, truncation, p):
    """The per-ordered-pair loop: both diagonal conjugations of every pair,
    each powered on its own, with N rebuilt for every monomial."""
    ring = SeriesRing(p, n_vars, truncation)
    report = SuiteReport(
        f"slm-series/m{m}k{k}n{n_vars}",
        data={"m": m, "k": k, "n_vars": n_vars, "trunc": truncation, "p": p},
    )
    u = ring.from_int(1 - p**k)
    u_inv = u.inv()
    c, s_off = certify._conjugator(u, u_inv)
    exponent = (p**k - 1) ** 2
    monomials = list(certify._weight_monomials(ring, k))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    identity = RingMatrix.identity(ring, m)
    harvested, checked_dn = [], False
    for a0, beta, mu in monomials:
        mono_label = f"p^{a0}" + "".join(
            f"*T{i+1}^{e}" for i, e in enumerate(beta) if e
        )
        for i, j in pairs:
            s = _from_entries(ring, m, {(i, i): u, (j, j): u_inv})
            s_inv = _from_entries(ring, m, {(i, i): u_inv, (j, j): u})
            d_mat = _from_entries(
                ring, m, {(i, i): c, (i, j): s_off, (j, i): s_off, (j, j): c}
            )
            d_inv = d_mat.inverse()
            n_mat = _from_entries(
                ring, m, {(i, i): 1, (i, j): 1, (j, i): -1, (j, j): -1}, 0
            )
            upper = _from_entries(ring, m, {(i, j): mu})
            report.add(
                f"{mono_label}/({i},{j})/diag-conj-upper",
                s * upper * s_inv == certify.int_power(upper, exponent),
            )
            lower = _from_entries(ring, m, {(j, i): mu})
            report.add(
                f"{mono_label}/({i},{j})/diag-conj-lower",
                s_inv * lower * s == certify.int_power(lower, exponent),
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
                d_mat * w * d_inv == certify.int_power(w, exponent),
            )
            if i < j:
                harvested += [
                    _weight_digits(g._flat, m, k, g._ent) for g in (upper, lower, w)
                ]
    gr_dim = len(monomials) * (m * m - 1)
    report.add("gr_k-span", rank(harvested, p) == gr_dim, f"rank target {gr_dim}")
    report.data["gr_dim"] = gr_dim
    return report


def _ledger(report):
    return [(i.anchor, i.status, i.detail) for i in report.items], report.data


_SLM_CASES = [
    (m, k, n, k + extra, p)
    for m in (2, 3)
    for k in (1, 2)
    for n in (0, 1, 2)
    for extra in (1, 2)
    for p in (3, 5)
]


@pytest.mark.parametrize("m, k, n_vars, truncation, p", _SLM_CASES)
def test_slm_series_suite_matches_the_per_pair_oracle(m, k, n_vars, truncation, p):
    report = slm_series_suite(m, k, n_vars, truncation, p)
    assert report.all_pass
    assert _ledger(report) == _ledger(
        _oracle_slm_series_suite(m, k, n_vars, truncation, p)
    )


@pytest.mark.parametrize("m, n_vars", [(2, 1), (3, 0), (3, 1)])
def test_a_broken_power_fails_exactly_the_two_lines_of_its_identity(
    monkeypatch, m, n_vars
):
    # I + mu E_ij for the last weight-1 monomial is powered wrongly; that
    # identity is the upper line of (i, j) and the lower line of (j, i)
    k, p, i, j = 1, 3, m - 1, 0
    ring = SeriesRing(p, n_vars, k + 2)
    a0, beta, mu = list(certify._weight_monomials(ring, k))[-1]
    target = _from_entries(ring, m, {(i, j): mu})
    real = certify.int_power

    def forged(g, e):
        h = real(g, e)
        return h * target if g == target else h

    monkeypatch.setattr(certify, "int_power", forged)
    mono = f"p^{a0}" + "".join(f"*T{v+1}^{e}" for v, e in enumerate(beta) if e)
    name = f"slm-series/m{m}k{k}n{n_vars}/{mono}"
    broken = {f"{name}/({i},{j})/diag-conj-upper", f"{name}/({j},{i})/diag-conj-lower"}
    for report in (
        slm_series_suite(m, k, n_vars, k + 2, p),
        _oracle_slm_series_suite(m, k, n_vars, k + 2, p),
    ):
        assert {item.anchor for item in report.items if not item.ok} == broken


@pytest.mark.parametrize("m, k, n_vars, truncation, p", [(2, 1, 1, 3, 3), (3, 2, 2, 4, 5)])
def test_slm_series_suite_powers_each_conjugation_once(
    monkeypatch, m, k, n_vars, truncation, p
):
    calls = []
    real = certify.int_power
    monkeypatch.setattr(
        certify, "int_power", lambda g, e: calls.append(e) or real(g, e)
    )
    slm_series_suite(m, k, n_vars, truncation, p)
    # one diagonal conjugation and one D/N conjugation per ordered pair
    assert len(calls) == 2 * m * (m - 1) * math.comb(k + n_vars, n_vars)


# ---------------------------------------------------------------------------
# stable generation audit


def _powered_certs(w, qnorm, levels):
    p = w["x"].ring.p
    a = PadicScalar(p, w["x"].ring.prec, (qnorm - 1) // p)
    certs = {}
    for n in levels:
        power = p ** (n - 1)
        certs[n] = [
            GroupInertialCertificate(int_power(w["x"], power), w["s"], a, 1),
            GroupInertialCertificate(int_power(w["y"], power), w["s"].inverse(), a, 1),
            GroupInertialCertificate(int_power(w["z"], power), w["t"], a, 1),
        ]
    return certs


def test_audit_sl2_family_spans_two_levels():
    ring = ScalarRing(3, 4)
    w = sl2_witnesses(ring, 1 + 3)
    G = closure([w["x"], w["y"], w["z"]])
    chain = pcentral_series(G)
    certs = _powered_certs(w, 1 + 3, (1, 2))
    audit = stable_generation_audit(G, chain, certs, window=2)
    assert all(level.ok for level in audit)
    assert all(level.meaningful for level in audit)


def test_audit_requires_certificates():
    ring = ScalarRing(3, 3)
    gens = [
        RingMatrix.from_int_rows(ring, [[1, 9], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [9, 1]]),
    ]
    G = closure(gens)
    chain = pcentral_series(G)
    audit = stable_generation_audit(G, chain, {}, window=1)
    assert not audit[0].ok


def test_audit_strict_x_level_flag():
    ring = ScalarRing(3, 4)
    w = sl2_witnesses(ring, 1 + 3)
    G = closure([w["x"], w["y"], w["z"]])
    chain = pcentral_series(G)
    certs = _powered_certs(w, 1 + 3, (1,))
    strict = stable_generation_audit(G, chain, certs, window=1, require_deeper_x=True)
    # s and t have depth 1, not 2, so the refinement fails as it should
    assert not strict[0].membership_ok
    relaxed = stable_generation_audit(G, chain, certs, window=1)
    assert relaxed[0].ok


# ---------------------------------------------------------------------------
# quaternion suite


def test_quaternion_identities_p5():
    report = quaternion_uniform_suite(2, 5, 4)
    assert report.all_pass
    by_anchor = {item.anchor.split("/", 1)[1]: item for item in report.items}
    assert by_anchor["A^2=pI"].ok
    assert by_anchor["AB=-BA"].ok
    assert by_anchor["no-inertial-certificate"].ok


def test_quaternion_identities_p3():
    assert quaternion_uniform_suite(2, 3, 4).all_pass


def test_quaternion_rejects_square():
    with pytest.raises(NotNonresidue):
        quaternion_uniform_suite(4, 5, 4)
    assert is_nonresidue(2, 5) and not is_nonresidue(4, 5)


def test_quaternion_structure_constants_match_matrix_brackets():
    # [pA, pB] = 2p (pAB), [pA, pAB] = 2p^2 (pB), [pB, pAB] = -2ap (pA)
    a, p = 2, 5
    report = quaternion_uniform_suite(a, p, 4)
    constants = report.data["structure_constants"]

    def coords(label):
        return [int(v) for v in constants[label]["coords"]]

    lvl = constants["xy"]["certified_levels"]
    mod = p ** (lvl - 1)
    assert coords("xy")[0] % mod == 0
    assert coords("xy")[1] % mod == 0
    assert coords("xy")[2] % mod == (2 * p) % mod
    assert coords("xz")[1] % mod == (2 * p * p) % mod
    assert coords("yz")[0] % mod == (-2 * a * p) % mod


def _oracle_quaternion_coordinates(bracket, basis, p):
    """The PadicScalar path: probe entries as views, the check as matrices."""
    prec = bracket.ring.prec
    reduced = [pcentral._reduce_matrix(mat, prec) for mat in basis]
    probes = [(1, 0), (2, 0), (3, 0)]
    coords = []
    for idx, (r, c) in enumerate(probes):
        denom = reduced[idx].rows[r][c]
        num = bracket.rows[r][c]
        v = denom.valuation()
        if denom.is_zero() or num.value % p**v:
            return None
        scaled_prec = prec - v
        coord = (
            num.value
            // p**v
            * pow(denom.value // p**v, -1, p**scaled_prec)
            % p**scaled_prec
        )
        coords.append(PadicScalar(p, scaled_prec, coord))
    combo_prec = min(c_.prec for c_ in coords)
    lhs = pcentral._reduce_matrix(bracket, combo_prec)
    combo = None
    for coord, mat in zip(coords, reduced):
        term = pcentral._reduce_matrix(mat, combo_prec).scale(
            PadicScalar(p, combo_prec, coord.value)
        )
        combo = term if combo is None else combo + term
    if combo != lhs:
        return None
    return [c_.value for c_ in coords]


def _suite_brackets(p, precision):
    """(bracket, basis) for x, y, z as `quaternion_uniform_suite` builds them."""
    wring = ScalarRing(p, max(precision, 6))
    mats = quaternion_matrices(wring, first_nonresidue(p))
    wa, wb = mats["A"], mats["B"]
    basis = tuple(g.scale(wring.from_int(p)) for g in (wa, wb, wa * wb))
    x, y, z = (mat_exp(g) for g in basis)
    pairs = ((x, y), (x, z), (y, z))
    return [(pcentral.dictionary_bracket(g, h).matrix, basis) for g, h in pairs]


def _with_entry(matrix, index, value):
    flat = list(matrix._flat)
    flat[index] = value % matrix.ring.modulus
    return RingMatrix._packed(matrix.ring, matrix.m, tuple(flat))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("precision", [4, 5, 6, 7])
def test_quaternion_coordinates_match_padic_scalar_oracle(p, precision):
    solve = certify._quaternion_coordinates
    for bracket, basis in _suite_brackets(p, precision):
        coords = solve(bracket, basis, p)
        assert coords is not None
        assert coords == _oracle_quaternion_coordinates(bracket, basis, p)
        prec = bracket.ring.prec
        # each None path: a probe entry the denominator's valuation does not
        # divide, a mismatch off the probes, a zero denominator (B0 at (1, 0))
        for bad, bad_basis in (
            (_with_entry(bracket, 4, 1), basis),
            (_with_entry(bracket, 0, bracket._flat[0] + 1), basis),
            (bracket, (basis[1], basis[0], basis[2])),
        ):
            assert solve(bad, bad_basis, p) is None
            assert _oracle_quaternion_coordinates(bad, bad_basis, p) is None
        # every entry moved by every power of p below the precision
        for i in range(16):
            for j in range(prec):
                moved = _with_entry(bracket, i, bracket._flat[i] + p**j)
                assert solve(moved, basis, p) == _oracle_quaternion_coordinates(
                    moved, basis, p
                )


# ---------------------------------------------------------------------------
# exhaustive searches


def test_brute_search_finds_diagonal_witness(sl2_mod27):
    gens = sl_standard_generators(2, 3, 3)
    cert = brute_search_certificate(sl2_mod27, gens[0], k_max=2)
    assert cert is not None
    assert verify_certificate(cert)
    assert cert.k >= 1 and cert.a.is_unit()


def test_brute_search_identity_rejected(sl2_mod27):
    with pytest.raises(ZeroVector):
        brute_search_certificate(sl2_mod27, sl2_mod27.identity, k_max=2)


def test_brute_search_abelian_none():
    ring = ScalarRing(3, 3)
    gens = [
        RingMatrix.from_int_rows(ring, [[1, 9], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [9, 1]]),
    ]
    G = closure(gens)
    for y in sorted(G.elements):
        if y == G.identity:
            continue
        assert brute_search_certificate(G, y, k_max=2) is None


def _double_loop_oracle(G, y_t, k_max):
    """Straight double loop: all x against the power table of y."""
    powers = {}
    acc = y_t
    e = 1
    while acc != G.identity:
        powers[acc] = e
        acc = G.mul(acc, y_t)
        e += 1
    hits = []
    for x_t in G.elements:
        com = G.comm(x_t, y_t)
        if com == G.identity or com not in powers:
            continue
        exp = powers[com]
        k = 0
        reduced = exp
        while reduced % G.p == 0:
            reduced //= G.p
            k += 1
        if 1 <= k <= k_max and reduced % G.p != 0:
            hits.append((x_t, exp))
    return hits


def test_brute_search_agrees_with_double_loop_on_nonabelian_group():
    # order-81 nonabelian: diagonal unit acting on a unipotent, mod 27
    ring = ScalarRing(3, 3)
    s = RingMatrix.from_int_rows(ring, [[4, 0], [0, pow(4, -1, 27)]])
    x = RingMatrix.from_int_rows(ring, [[1, 3], [0, 1]])
    G = closure([s, x])
    assert G.order == 81
    mism = 0
    for y in sorted(G.elements):
        if y == G.identity:
            continue
        found = brute_search_certificate(G, y, k_max=2)
        oracle = _double_loop_oracle(G, y, 2)
        if (found is not None) != bool(oracle):
            mism += 1
    assert mism == 0


# ---------------------------------------------------------------------------
# the one certificate scan against the two searches it replaced, kept as
# oracles


def _oracle_cyclic_direction_certificate_search(directions, exponent_bound):
    ring = directions[0].ring
    p = ring.p
    ident = RingMatrix.identity(ring, directions[0].m)
    for y in directions:
        powers = {}
        acc = ident
        e = 1
        while True:
            acc = acc * y
            if acc == ident:
                break
            powers[acc] = e
            e += 1
            if e > exponent_bound * p:
                break
        y_inv = y.inverse()
        for g in directions:
            g_inv = g.inverse()
            base, base_inv = ident, ident
            for _ in range(1, exponent_bound):
                base = base * g
                base_inv = g_inv * base_inv
                com = base * y * base_inv * y_inv
                if com == ident:
                    continue
                if com in powers:
                    hit = powers[com]
                    k = int_valuation(hit, p, ring.prec)
                    if 1 <= k and hit // p**k % p:
                        return {"y": y, "x": base, "exponent": hit}
    return None


def _oracle_orbit(G, y_t):
    """y's class as (z, x, depth) in breadth-first order under the generator
    conjugations, each z with its full conjugator x = g x_parent, x y x^-1 = z."""
    conjugators = {y_t: (G.identity, 0)}
    orbit = [y_t]
    for z in orbit:
        x_t, depth = conjugators[z]
        for g in G.generators:
            c = G.mul(G.mul(g, z), G.inv(g))
            if c not in conjugators:
                conjugators[c] = (G.mul(g, x_t), depth + 1)
                orbit.append(c)
    return [(z, *conjugators[z]) for z in orbit]


def _oracle_brute_search_certificate(G, y_t, k_max):
    """The first x in orbit order whose commutator with y is y^(a p^k)."""
    powers = {}
    acc = y_t
    e = 1
    while acc != G.identity:
        powers[acc] = e
        acc = G.mul(acc, y_t)
        e += 1
    y_inv = G.inv(y_t)
    for _, x_t, _ in _oracle_orbit(G, y_t):
        com = G.mul(G.mul(x_t, y_t), G.mul(G.inv(x_t), y_inv))
        if com == G.identity or com not in powers:
            continue
        hit = powers[com]
        k = int_valuation(hit, G.p, G.prec)
        if k < 1 or k > k_max:
            continue
        unit = hit // G.p**k
        if unit % G.p == 0:
            continue
        return x_t, unit, k
    return None


def _quaternion_directions(p, prec):
    ring = ScalarRing(p, prec)
    mats = quaternion_matrices(ring, first_nonresidue(p))
    big_a, big_b = mats["A"], mats["B"]
    scale = ring.from_int(p)
    return tuple(mat_exp(m.scale(scale)) for m in (big_a, big_b, big_a * big_b))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quaternion_scan_matches_oracle(p):
    # at precision 6 the orbit periods pass the bound p^3
    for prec in (4, 6):
        directions = _quaternion_directions(p, prec)
        for bound in (p**2, p**3):
            found = _cyclic_direction_certificate_search(directions, bound)
            oracle = _oracle_cyclic_direction_certificate_search(directions, bound)
            assert found == oracle
            assert found is None


def _counting_products(monkeypatch):
    """Count the products of every kernel `certify` binds from then on."""
    real, calls = certify._int_product, [0]

    def counted(m):
        mul = real(m)

        def run(*args):
            calls[0] += 1
            return mul(*args)

        return run

    monkeypatch.setattr(certify, "_int_product", counted)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quaternion_scan_walks_two_products_per_conjugate(monkeypatch, p):
    directions = _quaternion_directions(p, 4)
    ring, m = directions[0].ring, directions[0].m
    calls = _counting_products(monkeypatch)
    for bound in (p**2, p**3):
        calls[0] = 0
        mul = partial(certify._int_product(m), ring.modulus)
        for y in directions:
            certify._conjugate_table(y._flat, mul, p, ring.prec, bound * p)
        table_products = calls[0]
        calls[0] = 0
        assert _cyclic_direction_certificate_search(directions, bound) is None
        walk = 2 * len(directions) ** 2 * (bound - 1)
        assert calls[0] <= table_products + walk


def _order(y):
    ident, acc, n = RingMatrix.identity(y.ring, y.m), y, 1
    while acc != ident:
        acc, n = acc * y, n + 1
    return n


def _period(g, y):
    """The least t >= 1 with g^t y g^-t = y."""
    g_inv = g.inverse()
    z, t = g * y * g_inv, 1
    while z != y:
        z, t = g * z * g_inv, t + 1
    return t


@pytest.mark.parametrize(
    "p, products", [(3, (115, 123)), (5, (305, 313)), (7, (583, 591))]
)
def test_quaternion_scan_products_follow_periods_and_orders(monkeypatch, p, products):
    # per y: p products reach y^(p+1), then one a y^p step while the walk
    # stays below ord(y) and the cap bound * p; per (y, g): two a conjugate
    # until the orbit returns to y, at most bound - 1 of them
    directions = _quaternion_directions(p, 4)
    orders = [_order(y) for y in directions]
    periods = [[_period(g, y) for g in directions] for y in directions]
    calls = _counting_products(monkeypatch)
    for bound, pinned in zip((p**2, p**3), products):
        expected = sum(
            p + min(order // p, bound + 1) - 1
            + sum(2 * min(t, bound - 1) for t in row)
            for order, row in zip(orders, periods)
        )
        calls[0] = 0
        assert _cyclic_direction_certificate_search(directions, bound) is None
        assert calls[0] == expected == pinned


def test_cyclic_scan_refuses_a_depth_zero_direction_before_any_product(monkeypatch):
    ring = ScalarRing(3, 4)
    directions = (
        RingMatrix.from_int_rows(ring, [[1, 3], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[2, 0], [0, pow(2, -1, 81)]]),
    )
    calls = _counting_products(monkeypatch)
    with pytest.raises(DepthError):
        _cyclic_direction_certificate_search(directions, 9)
    assert calls[0] == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclic_scan_matches_oracle_where_certificates_exist(p):
    # SL_2 directions do have certificates: diagonal units act on unipotents
    ring = ScalarRing(p, 4)
    u = 1 + p
    directions = (
        RingMatrix.from_int_rows(ring, [[1, p], [0, 1]]),
        RingMatrix.from_int_rows(ring, [[u, 0], [0, pow(u, -1, p**4)]]),
        RingMatrix.from_int_rows(ring, [[1, 0], [p, 1]]),
    )
    for bound in (p, p**2, p**3):
        found = _cyclic_direction_certificate_search(directions, bound)
        assert found == _oracle_cyclic_direction_certificate_search(directions, bound)
    assert found is not None
    for order in (directions[::-1], directions[1:]):
        found = _cyclic_direction_certificate_search(order, p**2)
        assert found == _oracle_cyclic_direction_certificate_search(order, p**2)


def _criterion_7_groups():
    ring2, ring3, ring4 = ScalarRing(3, 2), ScalarRing(3, 3), ScalarRing(3, 4)
    seeds = [
        RingMatrix.from_int_rows(ring2, [[1, 3], [0, 1]]),
        RingMatrix.from_int_rows(ring3, [[1, 3], [0, 1]]),
        RingMatrix.from_int_rows(ring3, [[1, 0], [3, 1]]),
        RingMatrix.from_int_rows(ring3, [[4, 3], [6, 7]]),
        RingMatrix.from_int_rows(ring3, [[4, 0], [0, 7]]),
        RingMatrix.from_int_rows(ring4, [[1, 3], [0, 1]]),
        RingMatrix.from_int_rows(ring4, [[1 + 3, 3], [-3, 1 - 3]]),
        RingMatrix.from_int_rows(ring4, [[4, 0], [0, pow(4, -1, 81)]]),
        RingMatrix.from_int_rows(ring4, [[4, 3], [3, pow(4, -1, 81)]]),
    ]
    return [closure([g]) for g in seeds]


def _oracle_conjugate_table(y, identity, mul, p, k_max, cap=None):
    """The power table walked one power of y at a step, to the identity."""
    table = {}
    acc, hit = mul(y, y), 1
    while acc != identity:
        if hit % p == 0 and hit % p ** (k_max + 1):
            table[acc] = hit
        if hit == cap:
            break
        acc, hit = mul(acc, y), hit + 1
    return table


def _assert_tables_match(ys, m, ring):
    p, n = ring.p, ring.prec
    mul = partial(_int_product(m), ring.modulus)
    ident = RingMatrix.identity(ring, m)._flat
    for y in ys:
        for k_max in sorted({1, 2, 3, n}):
            for cap in (None, 1, 5, 7, p, p * p):
                table = certify._conjugate_table(y, mul, p, k_max, cap)
                assert table == _oracle_conjugate_table(y, ident, mul, p, k_max, cap)


@pytest.mark.parametrize(
    "m, p, prec", [(2, 3, 4), (2, 5, 3), (2, 3, 5), (2, 7, 3), (3, 3, 2)]
)
def test_stepped_table_matches_oracle_on_seeded_gamma_1(m, p, prec):
    # random words in the depth-one generators, some raised to p-power
    # powers, so the orders run from p up to the largest in the group
    gens = [g._flat for g in sl_standard_generators(m, p, prec)]
    ring = ScalarRing(p, prec)
    mul = partial(_int_product(m), ring.modulus)
    rng = random.Random(m * p * prec)
    ys = []
    for _ in range(300):
        y = rng.choice(gens)
        for _ in range(rng.randrange(8)):
            y = mul(y, rng.choice(gens))
        for _ in range(rng.randrange(prec - 1)):  # y <- y^p
            y = reduce(mul, [y] * p)
        ys.append(y)
    _assert_tables_match(ys, m, ring)


def test_stepped_table_matches_oracle_on_criterion_7_groups():
    for G in _criterion_7_groups():
        ys = [y for y in sorted(G.elements) if y != G.identity]
        _assert_tables_match(ys, G.m, G.ring)


def _nonabelian_order_81():
    ring = ScalarRing(3, 3)
    s = RingMatrix.from_int_rows(ring, [[4, 0], [0, pow(4, -1, 27)]])
    x = RingMatrix.from_int_rows(ring, [[1, 3], [0, 1]])
    return closure([s, x])


def _assert_same_certificate(G, y, k_max):
    """brute_search_certificate gives the oracle's (x, a, k), or None with it."""
    cert = brute_search_certificate(G, y, k_max=k_max)
    oracle = _oracle_brute_search_certificate(G, y, k_max)
    if oracle is None:
        assert cert is None, y
        return False
    x_t, unit, k = oracle
    assert cert.y == G.to_matrix(y)
    assert cert.x == G.to_matrix(x_t)
    assert (cert.a, cert.k) == (PadicScalar(G.p, G.prec, unit), k)
    return True


def _assert_same_certificates(G, k_max):
    found = [
        _assert_same_certificate(G, y, k_max)
        for y in sorted(G.elements)
        if y != G.identity
    ]
    return any(found)


def test_brute_search_returns_oracle_certificate_on_criterion_7_groups():
    for G in _criterion_7_groups():
        for k_max in (1, 2, 3, 5):
            _assert_same_certificates(G, k_max)


@pytest.mark.parametrize("k_max", [1, 2, 3, 5])
def test_brute_search_returns_oracle_certificate_on_nonabelian_group(k_max):
    # k_max past the precision reads valuations only up to the precision
    assert _assert_same_certificates(_nonabelian_order_81(), k_max)


@pytest.mark.parametrize("k_max", [1, 2, 3, 5])
def test_brute_search_returns_oracle_certificate_on_seeded_sl2_mod27(
    sl2_mod27, k_max
):
    G = sl2_mod27
    ys = random.Random(27).sample(sorted(frozenset(G.elements) - {G.identity}), 40)
    found = [_assert_same_certificate(G, y, k_max) for y in ys]
    assert any(found) and not all(found)


def _conjugate(G, g, core):
    return G.mul(G.mul(g, core), G.inv(g))


def _split_diagonal(beta, mod):
    return (beta, 0, 0, pow(beta, -1, mod))


@pytest.mark.parametrize("k_max", [1, 2, 3, 5])
def test_brute_search_returns_oracle_certificate_on_sl2_mod81(sl2_mod81, k_max):
    # a unipotent (a certificate exists) and two split diagonals (none does),
    # each conjugated into general position
    G = sl2_mod81
    g = sorted(G.elements)[5000]
    cores = [(1, 6, 0, 1), _split_diagonal(4, 81), _split_diagonal(7, 81)]
    found = [_assert_same_certificate(G, _conjugate(G, g, c), k_max) for c in cores]
    assert found == [True, False, False]


def test_conjugacy_class_is_the_orbit_under_all_of_g(sl2_mod27):
    G = sl2_mod27
    for y in random.Random(3).sample(sorted(G.elements), 5):
        walk = list(G.conjugacy_class(y))
        orbit = [z for z, _ in walk]
        assert walk[0] == (y, ()) and len(orbit) == len(set(orbit))
        assert set(orbit) == {_conjugate(G, x, y) for x in G.elements}
        for z, path in walk:
            # x = g_path[-1] ... g_path[0] conjugates y to z
            x = G.identity
            for i in path:
                x = G.mul(G.generators[i], x)
            assert _conjugate(G, x, y) == z


def _counting_group_ops(monkeypatch):
    """Count the kernel products `certify` binds plus the group's own
    multiplies, and the group's inversions."""
    products = _counting_products(monkeypatch)
    muls, invs = [], []
    mul, inv = pcentral.FiniteQuotientGroup.mul, pcentral.FiniteQuotientGroup.inv

    def counting_mul(self, a, b):
        muls.append(1)
        return mul(self, a, b)

    def counting_inv(self, a):
        invs.append(1)
        return inv(self, a)

    monkeypatch.setattr(pcentral.FiniteQuotientGroup, "mul", counting_mul)
    monkeypatch.setattr(pcentral.FiniteQuotientGroup, "inv", counting_inv)
    return (lambda: products[0] + len(muls)), invs


def test_brute_search_no_costs_the_orbit_not_the_group(sl2_mod81, monkeypatch):
    G = sl2_mod81
    y = _conjugate(G, sorted(G.elements)[7000], _split_diagonal(10, 81))
    size = len({_conjugate(G, x, y) for x in G.elements})
    order = next(e for e in range(1, G.order + 1) if G.power(y, e) == G.identity)
    products, invs = _counting_group_ops(monkeypatch)
    assert brute_search_certificate(G, y, k_max=3) is None
    # the power table in steps of y^p, then two multiplies per conjugate and
    # generator; at most the generators are inverted
    assert products() <= order // G.p + G.p + 2 * size * len(G.generators)
    assert len(invs) <= len(G.generators)


def test_brute_search_builds_no_element_set_and_pays_the_path_on_yes(monkeypatch):
    # a fresh group, whose element set nothing has built yet
    G = closure(sl_standard_generators(2, 3, 3))
    g, h = G.generators[:2]
    yes = _conjugate(G, h, g)
    no = _conjugate(G, h, _split_diagonal(10, 27))
    order = next(e for e in range(1, G.order + 1) if G.power(yes, e) == G.identity)
    oracle = _oracle_brute_search_certificate(G, yes, 2)
    walk = _oracle_orbit(G, yes)
    prefix, depth = next((i + 1, d) for i, (_, x, d) in enumerate(walk) if x == oracle[0])
    products, invs = _counting_group_ops(monkeypatch)
    cert = brute_search_certificate(G, yes, k_max=2)
    assert cert.x == G.to_matrix(oracle[0])
    # the power table in steps of y^p, two multiplies per generator on the
    # orbit prefix the walk conjugated, then one multiply per step of the
    # found path
    bound = order // G.p + G.p + 2 * prefix * len(G.generators) + depth
    assert products() <= bound
    assert len(invs) <= len(G.generators)
    assert brute_search_certificate(G, no, k_max=2) is None
    assert G.elements._frozen is None


def test_brute_search_on_sl3_mod_27_builds_no_element_set():
    # order 3^16: the element set would hold 43M tuples
    G = closure(sl_standard_generators(3, 3, 3), limit=3**16)
    assert G.order == 3**16
    for y in G.generators[:3]:
        cert = brute_search_certificate(G, y, k_max=2)
        assert cert is not None and verify_certificate(cert)
    assert G.elements._frozen is None


# ---------------------------------------------------------------------------
# fixed matrix families against the builders they replaced, kept as oracles


def _oracle_standard_inertial_certificate(p, precision, a, k):
    ring = ScalarRing(p, precision)
    if isinstance(a, int):
        a = PadicScalar(p, precision, a)
    beta = hensel_sqrt(PadicScalar(p, precision, 1 + a.value * p**k))
    y = RingMatrix.from_int_rows(ring, [[1, p], [0, 1]])
    x = RingMatrix(
        ring,
        [[beta, ring.zero()], [ring.zero(), beta.inv()]],
    )
    return GroupInertialCertificate(y, x, a, k)


def _oracle_quaternion_matrices(ring, a):
    p = ring.p
    u = [[0, p], [1, 0]]
    zeros = [[0, 0], [0, 0]]

    def block(tl, tr, bl, br):
        rows = []
        for r in range(2):
            rows.append(list(tl[r]) + list(tr[r]))
        for r in range(2):
            rows.append(list(bl[r]) + list(br[r]))
        return RingMatrix.from_int_rows(ring, rows)

    neg_u = [[-e for e in row] for row in u]
    a_id = [[a, 0], [0, a]]
    ident = [[1, 0], [0, 1]]
    return {
        "A": block(u, zeros, zeros, neg_u),
        "B": block(zeros, a_id, ident, zeros),
    }


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("prec", [3, 4, 6])
def test_standard_certificate_matches_oracle_and_sl2_witnesses(p, prec):
    ring = ScalarRing(p, prec)
    for a in range(1, p * p):
        if a % p == 0:
            continue
        for k in (1, 2):
            cert = standard_inertial_certificate(p, prec, a, k)
            assert cert == _oracle_standard_inertial_certificate(p, prec, a, k)
            padic_a = PadicScalar(p, prec, a)
            assert standard_inertial_certificate(p, prec, padic_a, k) == cert
            # (y, x) is the witness pair (x, s) at qnorm = 1 + a p^k
            w = sl2_witnesses(ring, 1 + a * p**k)
            assert (w["x"], w["s"]) == (cert.y, cert.x)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("prec", [3, 4, 6])
def test_quaternion_matrices_match_block_oracle(p, prec):
    ring = ScalarRing(p, prec)
    for a in range(-p, p * p):
        assert quaternion_matrices(ring, a) == _oracle_quaternion_matrices(ring, a)


@pytest.mark.parametrize("prec", [3, 4, 6, 7])
def test_quaternion_suite_builds_its_lattice_once(monkeypatch, prec):
    builds, exps = [], []

    def counting_matrices(ring, a):
        builds.append(ring.prec)
        return quaternion_matrices(ring, a)

    def counting_exp(x):
        exps.append(x.ring.prec)
        return mat_exp(x)

    monkeypatch.setattr(certify, "quaternion_matrices", counting_matrices)
    monkeypatch.setattr(certify, "mat_exp", counting_exp)
    assert quaternion_uniform_suite(2, 3, prec).all_pass
    assert builds == [max(prec, 6)]
    assert exps == [max(prec, 6)] * 3


@pytest.mark.parametrize("m", [2, 3, 4])
def test_slm_series_suite_inverts_one_conjugator_per_unordered_pair(monkeypatch, m):
    inverted = []
    inverse = RingMatrix.inverse

    def counting_inverse(g):
        inverted.append(g)
        return inverse(g)

    monkeypatch.setattr(RingMatrix, "inverse", counting_inverse)
    report = slm_series_suite(m, 1, 1, 3, 3)
    assert report.all_pass
    assert len(inverted) == m * (m - 1) // 2
