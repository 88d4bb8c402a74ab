"""Lie classification: invariants, solvers, verdicts, fixtures."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tamelab import liealg as liealg_module
from tamelab.liealg import rank as _fp_rank

from tamelab.errors import DomainError, GuardFailed, SchemaError, ZeroVector
from tamelab.liealg import (
    MAX_JACOBI_TRIPLES,
    LieAlgebra,
    SpanTracker,
    abelian_table,
    ad_semisimple,
    classify,
    derived_subalgebra,
    inertial_solve,
    inertial_span,
    is_perfect,
    is_squarefree,
    is_toral_sampled,
    killing_form,
    list_fixtures,
    load_fixture,
    minimal_polynomial,
    nullspace,
    quaternion_table,
    radical,
    rank,
    rational_roots,
    rref,
    sl2_table,
    sl_table,
    solvable2_table,
    solve,
    validate,
)

F = Fraction


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# ---------------------------------------------------------------------------
# validation


def test_abelian_valid():
    assert validate(abelian_table(3)) == []


def test_sl2_valid():
    assert validate(sl2_table()) == []


def test_broken_sl2_reports_jacobi_violation():
    # replace [e, f] = h by [e, f] = e
    bad = LieAlgebra.from_brackets(
        3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [0, 1, 0]}
    )
    violations = validate(bad)
    assert any(v["kind"] == "jacobi" and v["triple"] == (0, 1, 2) for v in violations)


def test_quaternion_tables_valid():
    for a, p in ((2, 5), (2, 3)):
        assert validate(quaternion_table(a, p)) == []


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sl_m_tables_valid(m):
    assert validate(sl_table(m)) == []


# The cap bounds `tamelab lie` inputs (tests/test_cli.py); library calls
# past it still validate.
def test_jacobi_cap_admits_sl7_and_every_fixture_and_stops_dim_86():
    assert math.comb(sl_table(7).dim, 3) <= MAX_JACOBI_TRIPLES
    for name in list_fixtures():
        assert math.comb(load_fixture(name).dim, 3) <= MAX_JACOBI_TRIPLES
    assert math.comb(85, 3) <= MAX_JACOBI_TRIPLES < math.comb(86, 3)
    assert validate(LieAlgebra.from_brackets(86, {})) == []


# ---------------------------------------------------------------------------
# derived subalgebra, Killing form, radical


def test_abelian_not_perfect():
    assert derived_subalgebra(abelian_table(2)) == []
    assert not is_perfect(abelian_table(2))


def test_sl2_perfect():
    assert is_perfect(sl2_table())
    assert rank([[0, 2, 0], [0, 0, -2], [1, 0, 0]]) == 3


def test_quaternion_perfect():
    assert is_perfect(quaternion_table(2, 5))


def test_sl2_killing_determinant():
    kappa = killing_form(sl2_table())
    assert det3(kappa) == -128
    assert radical(sl2_table()) == []


def test_abelian_radical_is_everything():
    assert len(radical(abelian_table(3))) == 3


def test_solvable2_radical_is_everything():
    assert len(radical(solvable2_table())) == 2


def test_killing_symmetric_and_invariant():
    L = sl2_table()
    kappa = killing_form(L)
    rng = random.Random(3)

    def kf(u, v):
        return sum(
            kappa[i][j] * u[i] * v[j] for i in range(L.dim) for j in range(L.dim)
        )

    def rand_vec():
        return tuple(F(rng.randint(-3, 3)) for _ in range(L.dim))

    for _ in range(25):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        assert kf(x, y) == kf(y, x)
        assert kf(L.bracket(x, y), z) == kf(x, L.bracket(y, z))


def test_ad_is_derivation():
    for L in (sl2_table(), quaternion_table(2, 5), sl_table(3)):
        rng = random.Random(5)

        def rand_vec():
            return tuple(F(rng.randint(-2, 2)) for _ in range(L.dim))

        for _ in range(15):
            x, y, z = rand_vec(), rand_vec(), rand_vec()
            lhs = L.bracket(x, L.bracket(y, z))
            rhs = tuple(
                a + b
                for a, b in zip(
                    L.bracket(L.bracket(x, y), z), L.bracket(y, L.bracket(x, z))
                )
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# adjoint semisimplicity


def test_ad_zero_semisimple():
    L = sl2_table()
    assert ad_semisimple(L, (0, 0, 0))


def test_ad_nilpotent_not_semisimple():
    L = sl2_table()
    e = (0, 1, 0)
    assert not ad_semisimple(L, e)
    mu = minimal_polynomial(L.ad(e))
    assert mu == [F(0), F(0), F(0), F(1)]  # t^3


def test_quaternion_every_basis_semisimple():
    L = quaternion_table(2, 5)
    for i in range(3):
        assert ad_semisimple(L, L.basis_vector(i))


# ---------------------------------------------------------------------------
# inertial solver


def test_inertial_solve_sl2_e():
    L = sl2_table()
    cert = inertial_solve(L, (0, 1, 0))
    assert cert is not None and cert.holds_in(L)
    # the classical witness: [h, e] = 2e
    h, e = (1, 0, 0), (0, 1, 0)
    assert L.bracket(h, e) == tuple(F(2) * c for c in e)


def test_inertial_solve_abelian_none():
    L = abelian_table(3)
    for i in range(3):
        assert inertial_solve(L, L.basis_vector(i)) is None


def test_inertial_solve_quaternion_none_on_basis():
    L = quaternion_table(2, 5)
    for i in range(3):
        assert inertial_solve(L, L.basis_vector(i)) is None


def test_inertial_solve_zero_vector():
    with pytest.raises(ZeroVector):
        inertial_solve(sl2_table(), (0, 0, 0))


def _rank_by_minors(rows):
    """Independent rank oracle: largest nonvanishing minor, via itertools."""
    rows = [list(r) for r in rows]
    n, m = len(rows), len(rows[0])

    def det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        acc = F(0)
        for j in range(k):
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            term = sub[0][j] * det(minor)
            acc += term if j % 2 == 0 else -term
        return acc

    for size in range(min(n, m), 0, -1):
        for rsel in itertools.combinations(range(n), size):
            for csel in itertools.combinations(range(m), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if det(sub) != 0:
                    return size
    return 0


def test_inertial_solve_completeness_against_minor_rank_oracle():
    # none <=> the linear system ad_y x = -y is infeasible, on 3-dim algebras
    rng = random.Random(7)
    for L in (sl2_table(), quaternion_table(2, 5), solvable2_table(), abelian_table(3)):
        vecs = [L.basis_vector(i) for i in range(L.dim)]
        vecs += [
            tuple(F(rng.randint(-2, 2)) for _ in range(L.dim)) for _ in range(10)
        ]
        for y in vecs:
            if all(c == 0 for c in y):
                continue
            ady = [list(r) for r in L.ad(y)]
            aug = [row + [-y[i]] for i, row in enumerate(ady)]
            feasible = _rank_by_minors(ady) == _rank_by_minors(aug)
            assert (inertial_solve(L, y) is not None) == feasible


# ---------------------------------------------------------------------------
# toral sampling and spans


def test_sl2_not_toral_witness_e():
    report = is_toral_sampled(sl2_table(), trials=10, seed=0)
    assert report.verdict == "not-toral"
    assert report.witness == (F(0), F(1), F(0))


def test_quaternion_toral_likely_200_trials():
    report = is_toral_sampled(quaternion_table(2, 5), trials=200, seed=0)
    assert report.verdict == "toral-likely"


def test_abelian_exactly_toral():
    report = is_toral_sampled(abelian_table(2), trials=5, seed=0)
    assert report.verdict == "toral"


def test_toral_consistency_with_inertial_solver():
    # on the same samples that pass semisimplicity, the solver finds nothing
    L = quaternion_table(2, 5)
    report = is_toral_sampled(L, trials=200, seed=1)
    assert report.verdict == "toral-likely"
    for x in report.samples:
        assert inertial_solve(L, x) is None


def test_inertial_span_sl2_certified():
    result = inertial_span(sl2_table())
    assert result.status == "certified"
    assert result.span_dim == 3
    for cert in result.certificates:
        assert cert.holds_in(sl2_table())


def test_inertial_span_abelian_empty():
    result = inertial_span(abelian_table(2))
    assert result.status == "inconclusive"
    assert result.certificates == []


@pytest.mark.parametrize("m", [2, 3, 4])
def test_inertial_span_sl_m_certified(m):
    L = sl_table(m)
    result = inertial_span(L)
    assert result.status == "certified"
    assert result.span_dim == m * m - 1
    for cert in result.certificates:
        assert cert.holds_in(L)


def _span_without_closure(L, extra_samples=20, seed=0):
    """(status, rank) of the harvest with no exp(ad y) closure: basis solves,
    eigenvectors of ad_x over Q for every mining probe x, then seeded random
    solves, each until the y's span L."""
    tracker = SpanTracker(L.dim)

    def harvest(y):
        if y is not None and not tracker.full:
            tracker.add(y)

    for i in range(L.dim):
        cert = inertial_solve(L, L.basis_vector(i))
        harvest(cert.y if cert else None)
    for x in liealg_module._mining_probes(L):
        if tracker.full:
            break
        ad = L.ad(x)
        for root in rational_roots(minimal_polynomial(ad)):
            shifted = [[a - root * (r == c) for c, a in enumerate(row)]
                       for r, row in enumerate(ad)]
            for y in nullspace(shifted) if root else []:
                assert L.bracket(x, y) == tuple(root * c for c in y)
                harvest(y)
    rng = random.Random(seed)
    for _ in range(extra_samples):
        y = liealg_module._random_vector(rng, L.dim)
        harvest(y if inertial_solve(L, y) else None)
    return ("certified" if tracker.full else "inconclusive"), tracker.rank


def _algebra_from(dim, bracket):
    """The algebra with [e_i, e_j] = bracket(i, j) for i < j."""
    pairs = itertools.combinations(range(dim), 2)
    return LieAlgebra.from_brackets(dim, {(i, j): bracket(i, j) for i, j in pairs})


def _unimodular_basis_change(L, seed):
    """L in the basis given by the columns of a seeded unimodular integer matrix."""
    rng, d = random.Random(seed), L.dim
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.choice([-2, -1, 1, 2])
        P[i] = [a + f * b for a, b in zip(P[i], P[j])]
    cols = [tuple(F(row[j]) for row in P) for j in range(d)]
    return _algebra_from(d, lambda i, j: solve(P, L.bracket(cols[i], cols[j])))


def _direct_sum(A, B):
    def bracket(i, j):
        if j < A.dim:
            return A.bracket(A.basis_vector(i), A.basis_vector(j)) + (0,) * B.dim
        if i >= A.dim:
            u, v = B.basis_vector(i - A.dim), B.basis_vector(j - A.dim)
            return (0,) * A.dim + B.bracket(u, v)
        return (0,) * (A.dim + B.dim)

    return _algebra_from(A.dim + B.dim, bracket)


BASIS_CHANGED = {
    "sl2": sl2_table, "sl3": partial(sl_table, 3), "solvable2": solvable2_table,
}
SPAN_CASES = {
    **{name: partial(load_fixture, name) for name in list_fixtures()},
    **{f"sl{m}": partial(sl_table, m) for m in range(2, 6)},
    **{
        f"{name}-basis{seed}": lambda table=table, seed=seed: _unimodular_basis_change(
            table(), seed
        )
        for name, table in BASIS_CHANGED.items()
        for seed in (1, 2)
    },
    "sl2+solvable2": lambda: _direct_sum(sl2_table(), solvable2_table()),
    "sl2+abelian2": lambda: _direct_sum(sl2_table(), abelian_table(2)),
}
# where the closure must reach exactly the span of the path without it
SAME_SPAN = {*list_fixtures(), "sl2", "sl3", "sl4", "sl5"}


@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_inertial_span_reaches_the_span_of_the_path_without_closure(case):
    L = SPAN_CASES[case]()
    assert validate(L) == []
    result = inertial_span(L)
    status, span_rank = _span_without_closure(L)
    assert result.span_dim >= span_rank
    if case in SAME_SPAN:
        assert (result.status, result.span_dim) == (status, span_rank)
    assert all(cert.holds_in(L) for cert in result.certificates)
    ys = [cert.y for cert in result.certificates]
    assert len(ys) == result.span_dim == rank(ys)
    if result.status == "certified":
        assert rank(ys) == L.dim


@pytest.mark.parametrize(
    "table", [partial(sl_table, m) for m in range(2, 7)] + [partial(abelian_table, 6)],
    ids=[f"sl{m}" for m in range(2, 7)] + ["abelian6"],
)
def test_sl_m_and_abelian_spans_need_no_minimal_polynomial(monkeypatch, table):
    calls, real = [], liealg_module.minimal_polynomial
    monkeypatch.setattr(
        liealg_module, "minimal_polynomial", lambda mat: calls.append(1) or real(mat)
    )
    inertial_span(table())
    assert calls == []


def _closure_checking_every_image(L, certificates, tracker):
    """The closure that builds and checks every image, even one whose y the
    tracker already spans; yields what it builds."""
    for g in certificates:
        nums, d = liealg_module._numerators(g.y)
        ad, scale = L._ad_numerators(nums), d * L.den
        cols = [[(r, a) for r, a in enumerate(col) if a] for col in zip(*ad)]
        for c in certificates:
            phi_y, phi_x = (liealg_module._exp_ad(cols, scale, v) for v in (c.y, c.x))
            cert = liealg_module.InertialLieCertificate(phi_y, phi_x, c.lam)
            assert cert.holds_in(L)
            yield cert


CLOSURE_CASES = {**SPAN_CASES, "sl6": partial(sl_table, 6), "sl8": partial(sl_table, 8)}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
def test_closure_builds_only_the_images_it_keeps(monkeypatch, case):
    L = CLOSURE_CASES[case]()
    with monkeypatch.context() as patch:
        built = []

        def every_image(L, certificates, tracker):
            for cert in _closure_checking_every_image(L, certificates, tracker):
                built.append(cert)
                yield cert

        patch.setattr(liealg_module, "_closure_images", every_image)
        oracle = inertial_span(L)
    kept = [c for c in oracle.certificates if any(c is b for b in built)]
    calls, real = [], liealg_module._exp_ad
    monkeypatch.setattr(
        liealg_module, "_exp_ad", lambda *args: calls.append(1) or real(*args)
    )
    result = inertial_span(L)
    assert result.certificates == oracle.certificates
    assert (result.status, result.span_dim) == (oracle.status, oracle.span_dim)
    # one series for each image's y, one more for the x of each kept image
    assert len(calls) == len(built) + len(kept)
    if case == "sl8":
        assert (len(built), len(kept)) == (407, 7)


def test_a_forged_closure_image_raises(monkeypatch):
    # an image whose y stays in the span is skipped unchecked: the forgery
    # moves y out of it, so the image is kept and must be checked
    monkeypatch.setattr(
        liealg_module, "_exp_ad", lambda cols, scale, v: tuple(a + 1 for a in v)
    )
    with pytest.raises(GuardFailed, match="exp"):
        inertial_span(sl2_table())


def test_exp_ad_refuses_a_series_that_does_not_stop():
    identity = [[(0, 1)], [(1, 1)]]
    with pytest.raises(GuardFailed):
        liealg_module._exp_ad(identity, 1, (F(1), F(0)))


# ---------------------------------------------------------------------------
# classification


def test_classify_sl2():
    rep = classify(sl2_table())
    assert rep.perfect
    assert rep.radical_dim == 0
    assert rep.toral.verdict == "not-toral"
    assert rep.pluperfect == "certified-yes"
    assert rep.inertial.status == "certified"


@pytest.mark.parametrize("fixture", ["quaternion_a2_p5", "quaternion_a2_p3"])
def test_classify_quaternion(fixture):
    rep = classify(load_fixture(fixture), trials=200, seed=0)
    assert rep.perfect
    assert rep.radical_dim == 0
    assert rep.toral.verdict == "toral-likely"
    assert rep.inertial.span_dim == 0
    assert rep.pluperfect == "inconclusive"


def test_classify_abelian():
    rep = classify(abelian_table(2))
    assert not rep.perfect
    assert rep.pluperfect == "certified-no"


def test_classify_solvable2():
    rep = classify(solvable2_table())
    assert not rep.perfect
    assert rep.radical_dim == 2
    assert rep.toral.verdict == "not-toral"
    assert rep.pluperfect == "certified-no"
    # y itself is inertial ([x, y] = y) even though the span stays proper
    assert rep.inertial.span_dim == 1


def test_classify_rejects_invalid():
    bad = LieAlgebra.from_brackets(
        3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [0, 1, 0]}
    )
    with pytest.raises(DomainError):
        classify(bad)


# ---------------------------------------------------------------------------
# fixtures on disk


def test_fixture_inventory():
    names = list_fixtures()
    for wanted in (
        "sl2",
        "sl3",
        "sl4",
        "quaternion_a2_p5",
        "quaternion_a2_p3",
        "abelian2",
        "solvable2",
    ):
        assert wanted in names


def test_fixtures_load_and_validate():
    for name in list_fixtures():
        L = load_fixture(name)
        assert validate(L) == []


def test_fixture_roundtrip_sl2():
    assert load_fixture("sl2").table == sl2_table().table


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 0, "brackets": []},
        {"dim": -1, "brackets": []},
        {"dim": 2.7, "brackets": [[0, 1, ["0", "1"]]]},
        {"dim": True, "brackets": []},
        {"dim": 2, "brackets": [[0, 1, ["1/0", "0"]]]},
        {"dim": 2, "brackets": [[0, 1, [True, "0"]]]},
        {"dim": 2, "brackets": [[0, 1, [0.1, "0"]]]},
        {"dim": 2, "brackets": [[0.0, 1, ["0", "1"]]]},
        {"dim": 2, "brackets": [[0, 1, ["0", "1"]], [0, 1, ["1", "0"]]]},
    ],
    ids=["dim-0", "dim-negative", "dim-non-integral", "dim-boolean",
         "coefficient-division-by-zero", "coefficient-boolean", "coefficient-float",
         "index-float",
         "pair-listed-twice"],
)
def test_from_json_rejects_malformed_payloads(payload):
    with pytest.raises(SchemaError):
        LieAlgebra.from_json(payload)


@pytest.mark.parametrize("dim", [0, -1])
def test_from_brackets_rejects_dimension_below_one(dim):
    with pytest.raises(DomainError):
        LieAlgebra.from_brackets(dim, {})


# ---------------------------------------------------------------------------
# the elimination kernel against the routines it replaced
#
# The oracles below are the earlier column-wise Gauss-Jordan `rref`, the
# per-power `solve` behind the earlier `minimal_polynomial`, and the earlier
# F_p rank of `certify`, kept verbatim apart from their names.


def _oracle_rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def _oracle_solve(a_rows, b):
    n = len(b)
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [list(a_rows[i]) + [b[i]] for i in range(n)]
    reduced, pivots = _oracle_rref(aug)
    for row, c in zip(reduced, pivots):
        if c == ncols:
            return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return tuple(x)


def _oracle_minimal_polynomial(mat):
    d = len(mat)
    size = d * d

    def flat(m):
        return tuple(m[i][j] for i in range(d) for j in range(d))

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(d)) for j in range(d))
            for i in range(d)
        )

    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )
    powers = [ident]
    current = ident
    while True:
        rows = [flat(m) for m in powers]
        current = mul(current, mat)
        target = flat(current)
        coeffs = _oracle_solve(
            [[rows[r][c] for r in range(len(rows))] for c in range(size)], target
        )
        if coeffs is not None:
            return [-c for c in coeffs] + [Fraction(1)]
        powers.append(current)
        if len(powers) > d + 1:
            raise AssertionError("minimal polynomial search exceeded dimension")


def _oracle_fp_rank(rows, p):
    rows = [list(r) for r in rows if any(r)]
    rank_ = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        inv = pow(rows[rank_][c], -1, p)
        rows[rank_] = [(inv * x) % p for x in rows[rank_]]
        for i in range(len(rows)):
            if i != rank_ and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def _random_entry(rng):
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _rational_matrix(rng, shape, nrows, ncols):
    """Seeded matrices of a named shape: empty, zero-rows, deficient, wide, tall."""
    if shape == "empty":
        return []
    if shape == "deficient":
        k = max(1, min(nrows, ncols) - 2)
        left = [[_random_entry(rng) for _ in range(k)] for _ in range(nrows)]
        right = [[_random_entry(rng) for _ in range(ncols)] for _ in range(k)]
        return [
            [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(ncols)]
            for i in range(nrows)
        ]
    if shape == "wide":
        nrows, ncols = min(nrows, ncols), max(nrows, ncols) + 3
    elif shape == "tall":
        nrows, ncols = max(nrows, ncols) + 3, min(nrows, ncols)
    rows = [[_random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "zero-rows":
        for i in rng.sample(range(nrows), k=max(1, nrows // 2)):
            rows[i] = [Fraction(0)] * ncols
    return rows


_SHAPES = ["empty", "zero-rows", "deficient", "wide", "tall"]


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("seed", range(8))
def test_rref_rank_solve_nullspace_match_oracle(shape, seed):
    rng = random.Random(1000 * seed + _SHAPES.index(shape))
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = _rational_matrix(rng, shape, nrows, ncols)
    want = _oracle_rref(rows)
    assert rref(rows) == want
    assert rank(rows) == len(want[0])
    if not rows:
        assert nullspace(rows) == []
        return
    ncols = len(rows[0])
    kernel = nullspace(rows)
    assert len(kernel) == ncols - len(want[0])
    for v in kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    for b in (
        tuple(_random_entry(rng) for _ in rows),
        tuple(sum(row[j] for j in range(0, ncols, 2)) for row in rows),
    ):
        assert solve(rows, b) == _oracle_solve(rows, b)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("seed", range(10))
def test_fp_rank_matches_oracle(p, seed):
    rng = random.Random(seed * 31 + p)
    nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
    rows = [[rng.randint(-2 * p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]
    if rows and seed % 2:
        rows[rng.randrange(nrows)] = [p * rng.randint(0, 2) for _ in range(ncols)]
        rows.append([(a + 2 * b) for a, b in zip(rows[0], rows[-1])])
    assert _fp_rank(rows, p) == _oracle_fp_rank(rows, p)
    tracker = SpanTracker(ncols, p)
    for row in rows:
        tracker.add(row)
    for row, c in zip(tracker.rows, tracker.pivots):
        assert all(0 <= x < p for x in row)
        assert [row[c2] for c2 in tracker.pivots] == [int(c2 == c) for c2 in tracker.pivots]
    assert all(tracker.contains(row) for row in rows)


@pytest.mark.parametrize("seed", range(10))
def test_span_tracker_sequence_matches_oracle(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 7)
    tracker = SpanTracker(dim)
    inserted = []
    for _ in range(3 * dim):
        roll = rng.random()
        if roll < 0.15:
            v = (Fraction(0),) * dim
        elif roll < 0.45 and inserted:
            picks = rng.sample(inserted, k=min(len(inserted), 2))
            v = tuple(
                sum(_random_entry(rng) * w[j] for w in picks) for j in range(dim)
            )
            v = tuple(Fraction(x) for x in v)
        else:
            v = tuple(_random_entry(rng) for _ in range(dim))
        before = len(_oracle_rref(inserted)[0]) if inserted else 0
        after = len(_oracle_rref(inserted + [v])[0])
        assert tracker.contains(v) == (after == before)
        assert tracker.add(v) == (after > before)
        inserted.append(v)
        assert tracker.rank == after
        assert tracker.full == (after == dim)
    order = sorted(range(tracker.rank), key=tracker.pivots.__getitem__)
    assert ([tuple(tracker.rows[i]) for i in order], sorted(tracker.pivots)) == (
        _oracle_rref(inserted)
    )


@pytest.mark.parametrize("m", [3, 4])
def test_adjoint_rref_and_minimal_polynomials_match_oracle(m):
    L = sl_table(m)
    rng = random.Random(m)
    probes = [L.basis_vector(i) for i in range(0, L.dim, 3)]
    probes.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.dim)))
    if m == 3:
        probes += [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(L.dim)) for _ in range(3)
        ]
    for x in probes:
        ad = L.ad(x)
        assert rref(ad) == _oracle_rref(ad)
        assert minimal_polynomial(ad) == _oracle_minimal_polynomial(ad)


@pytest.mark.parametrize("d", range(6))
def test_random_minimal_polynomials_match_oracle(d):
    rng = random.Random(d)
    mat = [[_random_entry(rng) for _ in range(d)] for _ in range(d)]
    if d % 2:
        # a repeated eigenvalue keeps the minimal polynomial below degree d
        mat = [[Fraction(2 if i == j else 0) for j in range(d)] for i in range(d)]
        mat[0][d - 1] += 1
    assert minimal_polynomial(mat) == _oracle_minimal_polynomial(mat)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction kernel it replaced
#
# The oracles below are the earlier Fraction kernel, kept apart from their
# names: its SpanTracker over Q, its dense bracket, adjoint, Jacobi check and
# Killing form over a dense Fraction table, its Krylov minimal polynomial,
# its Euclidean squarefree test and rational root search, and the
# Sylvester-rank squarefree test of the integer kernel.


class _FractionSpanTracker:
    def __init__(self, dim):
        self.dim = dim
        self.rows = []
        self.pivots = []

    def _reduce(self, v):
        v = [Fraction(x) for x in v]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [x - f * y if y else x for x, y in zip(v, row)]
        return v

    def _insert(self, v):
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        if v[c] != 1:
            inv = 1 / v[c]
            v = [inv * x if x else x for x in v]
        for i, row in enumerate(self.rows):
            if row[c]:
                f = row[c]
                self.rows[i] = [x - f * y if y else x for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(c)
        return True


def _fraction_rref(rows):
    if not rows:
        return [], []
    tracker = _FractionSpanTracker(len(rows[0]))
    for row in rows:
        tracker._insert(tracker._reduce(row))
    order = sorted(range(len(tracker.rows)), key=tracker.pivots.__getitem__)
    return [tuple(tracker.rows[i]) for i in order], [tracker.pivots[i] for i in order]


def _fraction_nullspace(a_rows):
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    reduced, pivots = _fraction_rref(a_rows)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def _fraction_minimal_polynomial(mat):
    d = len(mat)
    size = d * d
    tracker = _FractionSpanTracker(size + d + 1)
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
    raise AssertionError("minimal polynomial degree exceeds the dimension")


def _dense_table(dim, brackets):
    table = [[(Fraction(0),) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        table[i][j] = tuple(Fraction(c) for c in coeffs)
        table[j][i] = tuple(-c for c in table[i][j])
    return table


def _unit(dim, i):
    return tuple(Fraction(int(j == i)) for j in range(dim))


def _dense_bracket(table, u, v):
    out = [Fraction(0)] * len(table)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            w = table[i][j]
            c = ui * vj
            for t, wt in enumerate(w):
                if wt != 0:
                    out[t] += c * wt
    return tuple(out)


def _dense_ad(table, x):
    dim = len(table)
    return tuple(zip(*(_dense_bracket(table, x, _unit(dim, c)) for c in range(dim))))


def _dense_validate(table):
    dim = len(table)
    violations = []
    for i in range(dim):
        if any(table[i][i]):
            violations.append({"kind": "antisymmetry", "triple": (i, i)})
        for j in range(dim):
            if table[i][j] != tuple(-c for c in table[j][i]):
                violations.append({"kind": "antisymmetry", "triple": (i, j)})
    for i, j, k in itertools.combinations(range(dim), 3):
        ei, ej, ek = (_unit(dim, t) for t in (i, j, k))
        terms = (
            _dense_bracket(table, ei, table[j][k]),
            _dense_bracket(table, ej, table[k][i]),
            _dense_bracket(table, ek, table[i][j]),
        )
        if any(sum(col) for col in zip(*terms)):
            violations.append({"kind": "jacobi", "triple": (i, j, k)})
    return violations


def _dense_killing_form(table):
    dim = len(table)
    ads = [_dense_ad(table, _unit(dim, i)) for i in range(dim)]
    supports = [
        [(r, c, v) for r, row in enumerate(ad) for c, v in enumerate(row) if v]
        for ad in ads
    ]
    return tuple(
        tuple(
            sum((v * ads[j][c][r] for r, c, v in supports[i]), Fraction(0))
            for j in range(dim)
        )
        for i in range(dim)
    )


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _poly_trim(a)
    return a


def _euclid_is_squarefree(poly):
    a = _poly_trim([Fraction(c) for c in poly])
    b = _poly_trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) <= 1


def _sylvester_is_squarefree(poly):
    """gcd(f, f') = 1, i.e. the Sylvester matrix of f and f' has full rank."""
    f = _poly_trim(list(poly))
    df = _poly_trim([i * c for i, c in enumerate(f)][1:])
    n, m = len(f) - 1, len(df) - 1
    if m < 1:
        return True
    rows = [[0] * i + f + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + df + [0] * (n - 1 - i) for i in range(n)]
    return rank(rows) == n + m


def _oracle_rational_roots(poly):
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
    if abs(a0) > 10**9 or abs(an) > 10**9:
        return sorted(set(roots))

    def divisors(n):
        n, out, d = abs(n), [], 1
        while d * d <= n:
            if n % d == 0:
                out += [d, n // d]
            d += 1
        return sorted(set(out))

    for num in divisors(a0):
        for den in divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                acc = Fraction(0)
                for c in reversed(poly):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _brackets_of(L):
    return {(i, j): coeffs for i, j, coeffs in L.to_json()["brackets"]}


def _random_brackets(seed, dim, denominators):
    """Seeded structure constants with the given denominators; most break Jacobi."""
    rng = random.Random(seed)
    brackets = {}
    for i, j in itertools.combinations(range(dim), 2):
        if rng.random() < 0.6:
            brackets[i, j] = [
                Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.choice(denominators))
                for _ in range(dim)
            ]
    return brackets


_KERNEL_CASES = {
    **{f"sl{m}": (lambda m=m: _brackets_of(sl_table(m))) for m in (2, 3, 4, 5)},
    # the quaternion table scaled by 1/2 is again a Lie algebra, with den = 2
    "quaternion-half": lambda: {
        pair: [Fraction(c) / 2 for c in coeffs]
        for pair, coeffs in _brackets_of(quaternion_table(2, 5)).items()
    },
    **{
        f"random-integer-{seed}": lambda s=seed: _random_brackets(s, 4 + s, [1])
        for seed in range(3)
    },
    "random-fraction": lambda: _random_brackets(7, 5, [1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_integer_kernel_matches_fraction_kernel(case):
    brackets = _KERNEL_CASES[case]()
    dim = len(next(iter(brackets.values())))
    L = LieAlgebra.from_brackets(dim, brackets)
    table = _dense_table(dim, brackets)
    coefficients = [Fraction(c) for v in brackets.values() for c in v]
    assert L.den == math.lcm(*(c.denominator for c in coefficients))
    assert {pair: list(map(Fraction, v)) for pair, v in _brackets_of(L).items()} == {
        pair: list(map(Fraction, v)) for pair, v in brackets.items() if any(v)
    }
    assert validate(L) == _dense_validate(table)
    assert killing_form(L) == _dense_killing_form(table)
    rng = random.Random(dim)
    probes = [L.basis_vector(i) for i in range(0, dim, 1 + dim // 8)]
    # past dim 16 a dense probe's Fraction Krylov pass takes seconds
    support = dim if dim <= 16 else 6
    probes += [
        tuple(_random_entry(rng) if i < support else Fraction(0) for i in range(dim))
        for _ in range(2)
    ]
    for x in probes:
        ad = L.ad(x)
        assert ad == _dense_ad(table, x)
        assert rref(ad) == _fraction_rref(ad)
        assert nullspace(ad) == _fraction_nullspace(ad)
        mu = minimal_polynomial(ad)
        assert mu == _fraction_minimal_polynomial(ad)
        assert is_squarefree(mu) == _euclid_is_squarefree(mu)
        assert rational_roots(mu) == _oracle_rational_roots(mu)
        for y in probes[-3:]:
            assert L.bracket(x, y) == _dense_bracket(table, x, y)


@pytest.mark.parametrize("seed", range(10))
def test_rational_span_tracker_keeps_primitive_reduced_integer_rows(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 7)
    tracker, oracle = SpanTracker(dim), _FractionSpanTracker(dim)
    for _ in range(2 * dim):
        v = tuple(_random_entry(rng) for _ in range(dim - 1)) + (Fraction(0),)
        assert tracker.contains(v) == (not any(oracle._reduce(v)))
        assert tracker.add(v) == oracle._insert(oracle._reduce(v))
        assert tracker.pivots == oracle.pivots
        for row, c, want in zip(tracker.rows, tracker.pivots, oracle.rows):
            assert all(type(x) is int for x in row)
            assert row[c] > 0 and math.gcd(*row) == 1
            assert [row[c2] for c2 in tracker.pivots] == [
                row[c] if c2 == c else 0 for c2 in tracker.pivots
            ]
            assert [Fraction(x, row[c]) for x in row] == want


@pytest.mark.parametrize("seed", range(6))
def test_polynomial_helpers_match_oracle(seed):
    # products of rational linear factors, some repeated, times a random factor
    rng = random.Random(seed)
    poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    for _ in range(rng.randint(0, 4)):
        root = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            poly = [b - root * a for a, b in zip(poly + [0], [0] + poly)]
    assert is_squarefree(poly) == _euclid_is_squarefree(poly)
    assert rational_roots(poly) == _oracle_rational_roots(poly)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _repeated_factor_polynomials(draw):
    """A large rational constant times rational linear and quadratic factors
    up to degree cap, and maybe one of them once more.

    The cap runs to 40 and the factors' coefficients shrink as it grows:
    at degree 40 the two Fraction oracles take 1-5 s with integer factors
    in [-10, 10] and up to 17 s with thirds, against under 1 s in [-3, 3].
    """
    cap = draw(st.integers(2, 40))
    size, den = (10 ** max(1, 36 // cap), 3) if cap <= 20 else (3, 1)
    coeff = st.fractions(min_value=-size, max_value=size, max_denominator=den)
    factor = st.lists(coeff, min_size=2, max_size=3).filter(lambda f: f[-1])
    big = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
    poly, factors = [draw(big.filter(bool))], []
    while len(poly) <= cap:
        factors.append(draw(factor))
        poly = _poly_mul(poly, factors[-1])
    if draw(st.booleans()):
        poly = _poly_mul(poly, draw(st.sampled_from(factors)))
    return poly


@settings(max_examples=20)
@given(_repeated_factor_polynomials())
def test_squarefree_matches_both_oracles(poly):
    want = _sylvester_is_squarefree(poly)
    assert is_squarefree(poly) == want == _euclid_is_squarefree(poly)


@pytest.mark.parametrize(
    "poly", [[], [0], [0, 0], [F(7, 3)], [F(7, 3), 0], [0, F(-5, 2)], [F(1, 2), 3, 0]]
)
def test_zero_constant_and_linear_polynomials_are_squarefree(poly):
    assert is_squarefree(poly)
    assert _sylvester_is_squarefree(poly) and _euclid_is_squarefree(poly)


def _old_ad_semisimple(L, x):
    """ad_semisimple as it was composed with the Sylvester-rank test."""
    nums, _ = liealg_module._numerators(tuple(map(Fraction, x)))
    return _sylvester_is_squarefree(minimal_polynomial(L._ad_numerators(nums)))


def _sl_coordinates(mat):
    """sl_table(m)'s coordinates of a trace-zero matrix."""
    m = len(mat)
    off = [mat[i][j] for i in range(m) for j in range(m) if i != j]
    return tuple(off) + tuple(itertools.accumulate(mat[k][k] for k in range(m - 1)))


def _conjugated(rng, mat):
    """P mat P^-1 for a seeded unimodular integer P."""
    m = len(mat)
    P = [[int(i == j) for j in range(m)] for i in range(m)]
    P_inv = [row[:] for row in P]
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        f = rng.choice([-2, -1, 1, 2])
        P[i] = [a + f * b for a, b in zip(P[i], P[j])]  # (I + f E_ij) P
        for row in P_inv:  # P^-1 (I - f E_ij)
            row[j] -= f * row[i]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    return times(times(P, mat), P_inv)


def _sl_elements(m, seed):
    """Seeded nilpotent, Jordan (semisimple plus commuting nilpotent) and generic elements."""
    rng = random.Random(seed)
    nilpotent = [[rng.randint(-3, 3) if j > i else 0 for j in range(m)] for i in range(m)]
    a = rng.choice([-2, -1, 1, 2])
    jordan = [[0] * m for _ in range(m)]
    for k in range(m):
        jordan[k][k] = a if k < m - 1 else -a * (m - 1)
    jordan[0][1] = 1
    generic = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)]
    generic[-1][-1] = -sum(generic[k][k] for k in range(m - 1))
    return [_conjugated(rng, mat) for mat in (nilpotent, jordan, generic)]


def _ad_semisimple_cases():
    for name in list_fixtures():
        L = load_fixture(name)
        rng = random.Random(0)
        samples = [L.basis_vector(i) for i in range(L.dim)]
        yield name, L, samples + [liealg_module._random_vector(rng, L.dim) for _ in range(200)]
    for m in (3, 4):
        elements = [el for seed in range(4) for el in _sl_elements(m, seed)]
        yield f"sl{m}-elements", sl_table(m), [_sl_coordinates(el) for el in elements]
    for table in (sl2_table, partial(sl_table, 3)):
        for seed in (1, 2):
            L = _unimodular_basis_change(table(), seed)
            rng = random.Random(seed)
            samples = [L.basis_vector(i) for i in range(L.dim)]
            yield f"basis{seed}-dim{L.dim}", L, samples + [
                liealg_module._random_vector(rng, L.dim) for _ in range(20)
            ]


def test_ad_semisimple_matches_the_sylvester_composition():
    for name, L, samples in _ad_semisimple_cases():
        verdicts = [ad_semisimple(L, x) for x in samples]
        assert verdicts == [_old_ad_semisimple(L, x) for x in samples], name
        if name.endswith("-elements"):  # nilpotent, Jordan, generic per seed
            assert verdicts[0::3] == verdicts[1::3] == [False] * 4, name


def test_sympy_cross_check_rref_and_minimal_polynomial():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    x = sympy.Symbol("x")
    for shape in _SHAPES[1:]:
        rows = _rational_matrix(rng, shape, 4, 5)
        reduced, pivots = rref(rows)
        want, want_pivots = sympy.Matrix(rows).rref()
        assert list(want_pivots) == pivots
        assert [tuple(want.row(i)) for i in range(len(pivots))] == [
            tuple(sympy.Rational(c.numerator, c.denominator) for c in row)
            for row in reduced
        ]
    L = sl_table(3)
    for vec in (L.basis_vector(0), L.basis_vector(6), tuple(range(-4, 4))):
        ad = L.ad(vec)
        mu = minimal_polynomial(ad)
        A = sympy.Matrix(ad)
        poly = sympy.Poly(list(reversed(mu)), x)
        value = sympy.zeros(*A.shape)
        for k, c in enumerate(mu):
            value += c * A**k
        assert value == sympy.zeros(*A.shape)
        assert sympy.div(A.charpoly(x).as_expr(), poly.as_expr(), x)[1] == 0
        krylov = sympy.Matrix([list(A**k) for k in range(len(mu) - 1)])
        assert krylov.rank() == len(mu) - 1


# ---------------------------------------------------------------------------
# exactness guards survive python -O


def test_closure_guards_and_minimal_polynomial_count_hold_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        from tamelab import liealg
        from tamelab.errors import GuardFailed

        real, calls = liealg.minimal_polynomial, []
        liealg.minimal_polynomial = lambda mat: calls.append(1) or real(mat)
        spans = [liealg.inertial_span(L).span_dim
                 for L in (liealg.sl_table(4), liealg.abelian_table(6))]
        print("spans", spans, "minimal polynomials", len(calls))
        liealg._exp_ad = lambda cols, scale, v: tuple(a + 1 for a in v)
        try:
            liealg.inertial_span(liealg.sl2_table())
        except GuardFailed:
            print("guard raised", sys.flags.optimize)
        """
    )
    src = str(Path(liealg_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "spans [15, 0] minimal polynomials 0", "guard raised 1"
    ]


def test_inertial_solve_guard_runs_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from tamelab import liealg
        from tamelab.errors import GuardFailed

        liealg.solve = lambda a_rows, b: tuple(Fraction(0) for _ in b)
        try:
            liealg.inertial_solve(liealg.sl2_table(), (0, 1, 0))
        except GuardFailed:
            print("guard raised", sys.flags.optimize)
        """
    )
    src = str(Path(liealg_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "guard raised 1"
