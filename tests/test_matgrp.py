"""Matrix kernels: commutators, powering, exp/log, depth, generators."""

import itertools
import operator
import os
import re
import random
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tamelab.errors import (
    DepthError,
    LimitExceeded,
    NonUnitDeterminant,
    PrecisionMismatch,
    SchemaError,
)
from tamelab.matgrp import (
    RingMatrix,
    commutator,
    congruence_depth,
    int_power,
    mat_exp,
    mat_log,
    sl_standard_generators,
    zp_power,
)
from tamelab import certify, matgrp, padic
from tamelab.matgrp import (
    _content,
    _Entries,
    _identity,
    _mul,
    _pow,
    _reduce_matrix,
)
from tamelab.padic import (
    PadicScalar,
    ScalarRing,
    SeriesElement,
    SeriesRing,
    _add,
    _int_product,
    _Layout,
    _exp_cutoff,
    _log_cutoff,
    _sorted_blocks,
    int_valuation,
    pexp,
)


def ident(ring, m=2):
    return RingMatrix.identity(ring, m)


def random_products(gens, count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = gens[rng.randrange(len(gens))]
        for _ in range(rng.randint(1, 4)):
            g = g * gens[rng.randrange(len(gens))]
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# determinants and inverses


def test_det_of_unipotent_is_one():
    ring = ScalarRing(5, 4)
    x = RingMatrix.from_int_rows(ring, [[1, 5], [0, 1]])
    assert x.det() == ring.one()


def test_inverse_identity():
    ring = ScalarRing(3, 3)
    assert ident(ring).inverse() == ident(ring)


def test_inverse_of_generator_products():
    gens = sl_standard_generators(2, 3, 4)
    ring = gens[0].ring
    for g in random_products(gens, 100, seed=1):
        assert g * g.inverse() == ident(ring)


def test_inverse_nonunit_det():
    ring = ScalarRing(3, 3)
    g = RingMatrix.from_int_rows(ring, [[3, 0], [0, 3]])
    with pytest.raises(NonUnitDeterminant):
        g.inverse()


def test_gauss_jordan_path_matches_adjugate():
    # 5x5 forces the elimination path; check against defining property
    ring = ScalarRing(3, 3)
    rng = random.Random(2)
    rows = [
        [1 if i == j else 3 * rng.randrange(9) for j in range(5)] for i in range(5)
    ]
    g = RingMatrix.from_int_rows(ring, rows)
    assert g * g.inverse() == RingMatrix.identity(ring, 5)


def test_mixed_ring_rejected():
    a = ident(ScalarRing(3, 3))
    b = ident(ScalarRing(3, 4))
    with pytest.raises(PrecisionMismatch):
        a * b


@pytest.mark.parametrize("ring", [ScalarRing(3, 3), SeriesRing(3, 1, 3)], ids=repr)
def test_empty_and_non_square_row_lists_are_refused(ring):
    # a 0 x 0 matrix used to fail only at its first product, inside the
    # generated kernel (range() arg 3 must not be zero)
    one = ring.one()
    for rows in ([], [[one, one]], [[one], [one, one]]):
        with pytest.raises(ValueError, match="square"):
            RingMatrix(ring, rows)
    with pytest.raises(ValueError):
        RingMatrix.from_int_rows(ring, [])
    payload = {**ident(ring).to_json(), "m": 0, "entries": []}
    with pytest.raises(SchemaError):
        RingMatrix.from_json(payload)


# ---------------------------------------------------------------------------
# commutators


def test_commutator_self_trivial():
    gens = sl_standard_generators(2, 5, 4)
    for g in gens:
        assert commutator(g, g) == ident(g.ring)


def test_commutator_inverse_swap():
    gens = sl_standard_generators(2, 3, 4)
    for g, h in zip(random_products(gens, 20, 3), random_products(gens, 20, 4)):
        assert commutator(g, h).inverse() == commutator(h, g)


depth_one = st.tuples(
    st.sampled_from([3, 5]), *(st.integers(0, 5**3 - 1) for _ in range(4))
)


def _depth_one_matrix(params):
    p, a, b, c, d = params
    ring = ScalarRing(p, 4)
    return RingMatrix.from_int_rows(
        ring, [[1 + p * a, p * b], [p * c, 1 + p * d]]
    )


@given(depth_one, st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_commutator_swap_property(params, e1, e2):
    g = _depth_one_matrix(params)
    h = _depth_one_matrix((params[0], e1, e2, params[3], params[1]))
    assert commutator(g, h).inverse() == commutator(h, g)


@given(depth_one)
def test_power_depth_property(params):
    g = _depth_one_matrix(params)
    d = congruence_depth(g)
    assert congruence_depth(int_power(g, params[0])) >= min(d + 1, 4)


def test_diagonal_conjugation_relation():
    # [s, x] = x^(q-1) for s = diag(alpha, alpha^-1), alpha^2 = q
    from tamelab.padic import hensel_sqrt

    p, prec, q = 5, 4, 1 + 5**2
    ring = ScalarRing(p, prec)
    alpha = hensel_sqrt(ring.from_int(q))
    s = RingMatrix(ring, [[alpha, ring.zero()], [ring.zero(), alpha.inv()]])
    x = RingMatrix.from_int_rows(ring, [[1, p], [0, 1]])
    assert commutator(s, x) == int_power(x, q - 1)


# ---------------------------------------------------------------------------
# powering


def test_zp_power_zero_and_one():
    gens = sl_standard_generators(2, 7, 4)
    g = gens[0]
    assert zp_power(g, PadicScalar(7, 4, 0)) == ident(g.ring)
    assert zp_power(g, PadicScalar(7, 4, 1)) == g


def test_zp_power_additivity_against_direct_powering():
    rng = random.Random(9)
    p, prec = 5, 4
    ring = ScalarRing(p, prec)
    x = RingMatrix.from_int_rows(ring, [[1, p], [0, 1]])
    for _ in range(25):
        a = rng.randrange(p**prec)
        b = rng.randrange(p**prec)
        lhs = zp_power(x, PadicScalar(p, prec, a)) * zp_power(x, PadicScalar(p, prec, b))
        rhs = int_power(x, (a % p ** (prec - 1)) + (b % p ** (prec - 1)))
        assert lhs == rhs
        assert lhs == zp_power(x, PadicScalar(p, prec, a + b))


def test_zp_power_depends_on_window_only():
    p, prec = 3, 4
    ring = ScalarRing(p, prec)
    g = RingMatrix.from_int_rows(ring, [[1, 3], [3, 1 + 3 * 3]])
    assert congruence_depth(g) >= 1
    a = PadicScalar(p, prec, 5)
    b = PadicScalar(p, prec, 5 + p ** (prec - 1))
    assert zp_power(g, a) == zp_power(g, b)


def test_zp_power_needs_depth():
    ring = ScalarRing(3, 3)
    g = RingMatrix.from_int_rows(ring, [[2, 0], [0, 14]])
    with pytest.raises(DepthError):
        zp_power(g, PadicScalar(3, 3, 1))


# ---------------------------------------------------------------------------
# exp / log


def test_mat_exp_zero():
    ring = ScalarRing(3, 4)
    assert mat_exp(RingMatrix.zeros(ring, 2)) == ident(ring)


def test_mat_log_exp_roundtrip():
    ring = ScalarRing(3, 4)
    x = RingMatrix.from_int_rows(ring, [[0, 3], [0, 0]])
    assert mat_log(mat_exp(x)) == x
    rng = random.Random(5)
    for p, prec in [(3, 5), (5, 4), (7, 3)]:
        ring = ScalarRing(p, prec)
        for _ in range(10):
            x = RingMatrix.from_int_rows(
                ring, [[p * rng.randrange(p**prec) for _ in range(2)] for _ in range(2)]
            )
            assert mat_log(mat_exp(x)) == x


def test_exp_headroom_past_the_bound_names_the_given_truncation(monkeypatch):
    monkeypatch.setattr(padic, "MAX_PRECISION", 5)
    ring = SeriesRing(3, 1, 4)
    x = RingMatrix.from_int_rows(ring, [[0, 3], [0, 0]])
    with pytest.raises(LimitExceeded, match=r"^truncation 4 needs working precision \d+, past the bound 5$"):
        mat_exp(x)


def test_mat_exp_det_is_exp_trace():
    rng = random.Random(6)
    ring = ScalarRing(5, 4)
    for _ in range(10):
        x = RingMatrix.from_int_rows(
            ring, [[5 * rng.randrange(125) for _ in range(3)] for _ in range(3)]
        )
        assert mat_exp(x).det() == pexp(x.trace())


def test_mat_exp_additive_on_commuting_pairs():
    ring = ScalarRing(3, 4)
    x = RingMatrix.from_int_rows(ring, [[3, 6], [9, 3]])
    for y in (x, x * x, RingMatrix.from_int_rows(ring, [[3, 0], [0, 3]])):
        assert x * y == y * x
        assert mat_exp(x) * mat_exp(y) == mat_exp(x + y)


def test_quaternion_generator_lands_in_kernel():
    # x = exp(pA) for the 4x4 quaternion A at p=5, a=2: det 1 and depth >= 1
    from tamelab.certify import quaternion_matrices

    ring = ScalarRing(5, 4)
    a_mat = quaternion_matrices(ring, 2)["A"]
    x = mat_exp(a_mat.scale(ring.from_int(5)))
    assert x.det() == ring.one()
    assert congruence_depth(x) >= 1


def test_mat_exp_needs_divisibility():
    ring = ScalarRing(3, 3)
    with pytest.raises(DepthError):
        mat_exp(RingMatrix.from_int_rows(ring, [[0, 1], [0, 0]]))
    with pytest.raises(DepthError):
        mat_log(RingMatrix.from_int_rows(ring, [[1, 1], [0, 1]]))


# ---------------------------------------------------------------------------
# standard generators


def test_sl2_generators_traces_and_count():
    gens = sl_standard_generators(2, 3, 4)
    assert len(gens) == 3
    for g in gens:
        assert mat_log(g).trace().value == 0
        assert g.det() == g.ring.one()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sl_generator_count(m):
    gens = sl_standard_generators(m, 3, 3)
    assert len(gens) == m * m - 1


def test_sl_generators_depth_exactly_one():
    for m in (2, 3):
        for g in sl_standard_generators(m, 5, 4):
            assert congruence_depth(g) == 1


# ---------------------------------------------------------------------------
# congruence depth


def test_depth_of_identity_is_cap():
    ring = ScalarRing(3, 4)
    assert congruence_depth(ident(ring)) == 4


def test_depth_of_unipotent():
    ring = ScalarRing(5, 4)
    assert congruence_depth(RingMatrix.from_int_rows(ring, [[1, 5], [0, 1]])) == 1


def test_powering_raises_depth():
    # the engine behind the powering isomorphism between graded layers
    for p in (3, 5, 7):
        gens = sl_standard_generators(2, p, 4)
        for g in gens + random_products(gens, 10, seed=p):
            d = congruence_depth(g)
            if d >= 1:
                assert congruence_depth(int_power(g, p)) >= d + 1


def test_depth_of_product_bound():
    gens = sl_standard_generators(2, 3, 4)
    for g, h in zip(random_products(gens, 15, 7), random_products(gens, 15, 8)):
        assert congruence_depth(g * h) >= min(congruence_depth(g), congruence_depth(h))


# ---------------------------------------------------------------------------
# series-ring variants


def test_series_ring_matrix_operations():
    ring = SeriesRing(3, 1, 4)
    t = ring.variable(0)
    p_elt = ring.from_int(3)
    g = RingMatrix(
        ring,
        [[ring.one(), p_elt * t + t * t], [ring.zero(), ring.one()]],
    )
    h = RingMatrix(ring, [[ring.one(), ring.zero()], [t, ring.one()]])
    assert congruence_depth(g) == 2
    assert congruence_depth(h) == 1
    assert commutator(g, h).inverse() == commutator(h, g)
    assert congruence_depth(int_power(h, 3)) >= 2


def test_series_ring_exp_log_roundtrip():
    ring = SeriesRing(3, 1, 4)
    t = ring.variable(0)
    p_elt = ring.from_int(3)
    x = RingMatrix(
        ring,
        [[p_elt, p_elt * t], [ring.zero(), -p_elt]],
    )
    g = mat_exp(x)
    assert mat_log(g) == x
    assert congruence_depth(g) >= 1


def test_series_matrix_json_roundtrip():
    ring = SeriesRing(3, 1, 3)
    g = RingMatrix(
        ring,
        [[ring.one(), ring.variable(0)], [ring.from_int(3), ring.one()]],
    )
    assert RingMatrix.from_json(g.to_json()) == g


def test_scalar_matrix_json_roundtrip():
    ring = ScalarRing(7, 3)
    g = RingMatrix.from_int_rows(ring, [[1, 7], [14, 8]])
    assert RingMatrix.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# the object-entry kernel the packed one replaced, kept as test oracles
#
# These are the earlier RingMatrix multiply, determinant and Gauss-Jordan
# inverse on nested lists of PadicScalar / SeriesElement objects, the
# cofactor inverse that Newton lifting replaced, on the same objects, and
# the earlier group inverse that powered an int tuple by p^(N+m) - 1.


def _oracle_mul(a, b):
    m = len(a)
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, m):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def _oracle_det(a, one):
    m = len(a)
    dp = {0: one}
    for k in range(m):
        nxt = {}
        for mask, val in dp.items():
            idx = 0
            for j in range(m):
                bit = 1 << j
                if mask & bit:
                    continue
                term = val * a[k][j]
                if idx % 2 == 1:
                    term = -term
                new = mask | bit
                nxt[new] = nxt[new] + term if new in nxt else term
                idx += 1
        dp = nxt
    return dp[(1 << m) - 1]


def _oracle_inverse(g):
    """The cofactor inverse that Newton lifting replaced, on entry objects:
    adj g scaled by det(g)^-1, the adjugate in closed form for m = 2, and
    NonUnitDeterminant naming det g when it is no unit."""
    ring, m = g.ring, g.m
    a = [e for row in g.rows for e in row]
    det = a[0] * a[3] - a[1] * a[2] if m == 2 else _oracle_det(g.rows, ring.one())
    if not det.is_unit():
        raise NonUnitDeterminant(f"determinant {det!r} is not a unit")
    if m == 2:
        adj = [a[3], -a[1], -a[2], a[0]]
    else:
        adj = []
        for i in range(m):
            for j in range(m):
                minor = [
                    [a[r * m + c] for c in range(m) if c != i] for r in range(m) if r != j
                ]
                cof = _oracle_det(minor, ring.one())
                adj.append(-cof if (i + j) % 2 else cof)
    d = det.inv()
    return RingMatrix(ring, [[adj[i * m + j] * d for j in range(m)] for i in range(m)])


def _oracle_gauss_jordan_inverse(a, zero, one):
    # unit pivots always exist for invertible matrices over a local ring
    m = len(a)
    a = [list(row) for row in a]
    b = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next(
            (r for r in range(col, m) if a[r][col].is_unit()),
            None,
        )
        if pivot is None:
            raise NonUnitDeterminant(f"no unit pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        scale = a[col][col].inv()
        a[col] = [scale * e for e in a[col]]
        b[col] = [scale * e for e in b[col]]
        for r in range(m):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    return tuple(tuple(row) for row in b)


def _oracle_tmul(a, b, m, mod):
    return tuple(
        sum(a[i * m + t] * b[t * m + j] for t in range(m)) % mod
        for i in range(m)
        for j in range(m)
    )


def _oracle_tpow_inverse(a, m, p, prec):
    # every element order in these p-groups divides p^(prec + m)
    mod = p**prec
    acc = tuple(1 if i == j else 0 for i in range(m) for j in range(m))
    e = p ** (prec + m) - 1
    while e:
        if e & 1:
            acc = _oracle_tmul(acc, a, m, mod)
        a = _oracle_tmul(a, a, m, mod)
        e >>= 1
    return acc


def _check_against_oracles(a, b, ring):
    one, zero = ring.one(), ring.zero()
    assert (a * b).rows == _oracle_mul(a.rows, b.rows)
    assert a.det() == _oracle_det(a.rows, one)
    if not a.det().is_unit():
        with pytest.raises(NonUnitDeterminant):
            a.inverse()
        with pytest.raises(NonUnitDeterminant):
            _oracle_gauss_jordan_inverse(a.rows, zero, one)
        return
    inverse = a.inverse()
    assert inverse == _oracle_inverse(a)
    assert inverse.rows == _oracle_gauss_jordan_inverse(a.rows, zero, one)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_kernel_matches_object_oracles_on_scalar_matrices(p, m):
    ring = ScalarRing(p, 3)
    rng = random.Random(100 * p + m)
    for trial in range(6):
        # odd trials are congruent to I mod p, so always invertible
        a, b = (
            RingMatrix.from_int_rows(
                ring,
                [
                    [
                        (i == j) + p * rng.randrange(p**2)
                        if trial % 2
                        else rng.randrange(p**3)
                        for j in range(m)
                    ]
                    for i in range(m)
                ],
            )
            for _ in range(2)
        )
        _check_against_oracles(a, b, ring)


@pytest.mark.parametrize("m", [2, 3])
def test_packed_kernel_matches_object_oracles_on_series_matrices(m):
    ring = SeriesRing(3, 2, 4)
    rng = random.Random(m)

    def entry(diagonal):
        terms = {
            (i, j): rng.randrange(27)
            for i in range(3)
            for j in range(3 - i)
            if rng.random() < 0.5
        }
        terms[(0, 0)] = (1 if diagonal else 0) + 3 * rng.randrange(9)
        return ring.from_terms(terms)

    for _ in range(3):
        a, b = (
            RingMatrix(ring, [[entry(i == j) for j in range(m)] for i in range(m)])
            for _ in range(2)
        )
        _check_against_oracles(a, b, ring)
    singular = RingMatrix(ring, [[entry(False) for _ in range(m)] for _ in range(m)])
    _check_against_oracles(singular, singular, ring)


def test_group_inverse_matches_powering_oracle(sl2_mod27):
    # every element of the first congruence subgroup of SL_2(Z/27)
    G = sl2_mod27
    assert G.order == 3**6
    for a in G.elements:
        inverse = G.inv(a)
        assert inverse == _oracle_tpow_inverse(a, G.m, G.p, G.prec)
        assert G.mul(a, inverse) == G.identity


# ---------------------------------------------------------------------------
# the generated integer product against the slice loop it replaced, kept as
# an oracle


def _oracle_slice_mul(a, b, m, mod):
    rows = [(a[i], a[i + 1 : i + m]) for i in range(0, m * m, m)]
    cols = [(b[j], b[j + m :: m]) for j in range(m)]
    return tuple(
        sum(map(mul, r_tail, c_tail), r0 * c0) % mod
        for r0, r_tail in rows
        for c0, c_tail in cols
    )


@pytest.mark.parametrize("mod", [3**4, 5**3, 7**6, 3**41], ids=str)  # 3^41 > 2^64
@pytest.mark.parametrize("m", range(1, 10))
def test_generated_product_matches_slice_oracle(m, mod):
    rng = random.Random(1000 * m + mod % 1000)
    for _ in range(10):
        a, b = (tuple(rng.randrange(mod) for _ in range(m * m)) for _ in range(2))
        assert _mul(a, b, m, mod) == _oracle_slice_mul(a, b, m, mod)
    extreme = (mod - 1,) * (m * m)
    assert _mul(extreme, extreme, m, mod) == _oracle_slice_mul(
        extreme, extreme, m, mod
    )


@pytest.mark.parametrize("m", [1, 3, 11])
def test_generated_product_is_built_once_per_m(m):
    a = _identity(m, 0, 1)
    kernel = _int_product(m)
    misses = _int_product.cache_info().misses
    assert _mul(a, a, m, 5**3) == a
    assert _int_product(m) is kernel
    assert _int_product.cache_info().misses == misses


def test_importing_the_cli_generates_no_product():
    src = str(Path(matgrp.__file__).resolve().parent.parent)
    probe = (
        "import tamelab.cli\n"
        "from tamelab.padic import _int_product\n"
        "print(_int_product.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# the series block product against the row-column accumulation it replaced,
# kept as an oracle


def _oracle_series_dot(xs, ys):
    """sum(x * y for x, y in zip(xs, ys)), accumulated over the product table
    and reduced once."""
    layout, acc = xs[0]._layout, {}
    for x, y in zip(xs, ys):
        for i, (c1,) in x._flat:
            row = layout[i]
            for j, (c2,) in y._flat:
                if j < len(row):
                    acc[row[j]] = acc.get(row[j], 0) + c1 * c2
    return _element(xs[0].ring, layout, acc)


def _element(ring, layout, raw):
    """The element with terms raw (monomial index -> integer)."""
    return ring.from_terms({layout.monos[i]: c for i, c in raw.items()})


def _oracle_series_mul(a, b, m):
    """The product of row-major entry lists, as a row-major list."""
    rows = [a[i : i + m] for i in range(0, m * m, m)]
    return [_oracle_series_dot(r, b[j::m]) for r in rows for j in range(m)]


def _oracle_series_pow(a, e, m):
    """a^e from oracle products, squaring from the low bit of e (`_pow` starts
    at the leading bit)."""
    acc = None
    while e:
        if e & 1:
            acc = a if acc is None else _oracle_series_mul(acc, a, m)
        e >>= 1
        if e:
            a = _oracle_series_mul(a, a, m)
    return acc


def _random_series_matrix(rng, ring, m, density):
    """m * m random series entries, row-major."""
    layout = _Layout(ring)
    return [
        _element(ring, layout, {
            i: rng.randrange(mod) for i, mod in enumerate(layout.mods)
            if rng.random() < density
        })
        for _ in range(m * m)
    ]


def _flat_of(ent, entries):
    """The flat form of row-major ring elements."""
    return ent.pack([ent.cell(e) for e in entries])


def _extreme_entries(ring, m):
    """Row-major entries of the matrix with every coefficient at its modulus
    minus one, of the zero matrix and of I."""
    layout = _Layout(ring)
    top = _element(ring, layout, {i: mod - 1 for i, mod in enumerate(layout.mods)})
    zero, one = ring.zero(), ring.one()
    return [top] * (m * m), [zero] * (m * m), list(_identity(m, zero, one))


@pytest.mark.parametrize("trunc", range(1, 6))
@pytest.mark.parametrize("n_vars", range(4))
def test_series_block_product_and_power_match_the_oracle(n_vars, trunc):
    rng = random.Random(100 * n_vars + trunc)
    for p in (3, 5, 7):
        ring = SeriesRing(p, n_vars, trunc)
        ent = _Entries(ring)
        mod = ent.mod
        for m in range(1, 6):
            for density in (0.2, 1.0):  # sparse and dense entries
                a, b = (_random_series_matrix(rng, ring, m, density) for _ in "ab")
                x, y = _flat_of(ent, a), _flat_of(ent, b)
                assert ent.view(_mul(x, y, m, mod), m) == _oracle_series_mul(a, b, m)
                for e in (1, 2, 3, (p - 1) ** 2):
                    assert ent.view(_pow(x, e, m, ent), m) == _oracle_series_pow(a, e, m)
    assert _pow(x, 1, m, ent) is x


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_series_block_product_on_extreme_matrices(m, p):
    ring = SeriesRing(p, 2, 4)
    ent = _Entries(ring)
    extreme, zero, one = _extreme_entries(ring, m)
    for a, b in itertools.product((extreme, zero, one), repeat=2):
        product = _mul(_flat_of(ent, a), _flat_of(ent, b), m, ent.mod)
        assert ent.view(product, m) == _oracle_series_mul(a, b, m)
    assert _mul(_flat_of(ent, extreme), ent.identity(m), m, ent.mod) == _flat_of(ent, extreme)
    assert _mul(ent.zeros(m), _flat_of(ent, extreme), m, ent.mod) == ent.zeros(m) == ()
    for a in (extreme, zero, one):
        for e in (1, 2, 3, (p - 1) ** 2, (p**2 - 1) ** 2):
            power = _pow(_flat_of(ent, a), e, m, ent)
            assert ent.view(power, m) == _oracle_series_pow(a, e, m)


# ---------------------------------------------------------------------------
# the block form of series matrices and the Newton inverse against oracles
# on SeriesElement / PadicScalar entries


def _check_inverse(g):
    """g.inverse() equals the cofactor oracle, or both raise one message."""
    try:
        want = _oracle_inverse(g)
    except NonUnitDeterminant as exc:
        with pytest.raises(NonUnitDeterminant) as info:
            g.inverse()
        assert str(info.value) == str(exc)
        return False
    assert g.inverse() == want
    return True


def _entrywise(f, *mats):
    return tuple(tuple(map(f, *rows)) for rows in zip(*(g.rows for g in mats)))


def _oracle_reduce(x, ring, shift=1):
    """The entry x divided by shift, re-read in ring (dropping what is past
    its truncation)."""
    return ring.from_terms({e: c // shift for e, c in x.coeffs.items()})


def _check_block_form(a, b, c):
    """Every operation on a, b (and the ring element c) against its oracle on
    the entries."""
    ring, m, p = a.ring, a.m, a.ring.p
    rows = a.rows
    twin = RingMatrix(ring, rows)
    assert twin == a and hash(twin) == hash(a) and twin._flat == a._flat
    assert (a == b) == (rows == b.rows)
    assert (a + b).rows == _entrywise(operator.add, a, b)
    assert (a - b).rows == _entrywise(operator.sub, a, b)
    assert (-a).rows == _entrywise(operator.neg, a)
    assert a.scale(c).rows == _entrywise(lambda x: c * x, a)
    assert (a * b).rows == _oracle_mul(rows, b.rows)
    square = _oracle_mul(rows, rows)
    assert int_power(a, 2).rows == square
    assert int_power(a, 3).rows == _oracle_mul(square, rows)
    assert a.trace() == sum((rows[i][i] for i in range(1, m)), rows[0][0])
    delta = _entrywise(operator.sub, a, ident(ring, m))
    assert congruence_depth(a) == min(x.m_adic_depth() for r in delta for x in r)
    assert _content(a) == min(x.p_content() for r in rows for x in r)
    payload = a.to_json()
    assert payload["entries"] == [x.to_json() for r in rows for x in r]
    assert RingMatrix.from_json(payload) == a
    trunc = ring.trunc
    for cap in {max(1, trunc - 1), trunc + 2}:  # narrow and widen
        new = SeriesRing(p, ring.n_vars, cap)
        assert _reduce_matrix(a, cap).rows == _entrywise(
            lambda x: _oracle_reduce(x, new), a
        )
    shifted = a.scale(ring.from_int(p))
    assert _reduce_matrix(shifted, trunc, p).rows == _entrywise(
        lambda x: _oracle_reduce(x, ring, p), shifted
    )


def _random_rows(rng, ring, m, density, unit):
    """Random entries with a random constant coefficient, each other
    coefficient present with the given density; with unit, I plus p times
    them, which is invertible."""
    layout, p = _Layout(ring), ring.p

    def entry(diagonal):
        terms = {
            i: rng.randrange(mod) for i, mod in enumerate(layout.mods)
            if i == 0 or rng.random() < density
        }
        if unit:
            terms = {i: p * c + (i == 0 and diagonal) for i, c in terms.items()}
        return _element(ring, layout, terms)

    return [[entry(i == j) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("trunc", range(1, 6))
@pytest.mark.parametrize("n_vars", range(4))
def test_series_block_form_matches_entry_oracles(n_vars, trunc):
    rng = random.Random(1000 + 10 * n_vars + trunc)
    for p in (3, 5, 7):
        ring = SeriesRing(p, n_vars, trunc)
        c = ring.from_terms({(0,) * n_vars: rng.randrange(p**trunc)})
        if n_vars:
            c = c + ring.variable(n_vars - 1)
        for m in range(1, 6):
            density = 0.5 if m < 4 else 0.25
            a, b, u = (
                RingMatrix(ring, _random_rows(rng, ring, m, density, unit))
                for unit in (False, False, True)
            )
            _check_block_form(a, b, c)
            _check_block_form(u, a, c)
            assert _check_inverse(u)  # I plus p times a matrix
            _check_inverse(a)
            extreme, zero, one = (
                RingMatrix(ring, [r[i : i + m] for i in range(0, m * m, m)])
                for r in _extreme_entries(ring, m)
            )
            assert zero._flat == () and one == ident(ring, m)
            for x, y in itertools.product((extreme, zero, one), repeat=2):
                _check_block_form(x, y, c)
            assert _check_inverse(extreme) == (m == 1)
            assert not _check_inverse(zero)
            assert _check_inverse(one)


@pytest.mark.parametrize(
    "ring", [ScalarRing(3, 3), SeriesRing(3, 1, 3), SeriesRing(5, 2, 2)], ids=repr
)
def test_matrices_of_different_sizes_are_unequal(ring):
    # over a series ring every zero matrix packs to (), whatever its size
    for make in (RingMatrix.zeros, RingMatrix.identity):
        small, big = make(ring, 2), make(ring, 3)
        assert small != big and not small == big
        assert hash(small) != hash(big) and len({small, big}) == 2
        assert small == make(ring, 2) and hash(small) == hash(make(ring, 2))


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_scalar_inverse_matches_the_cofactor_oracle(p, m):
    # random matrices, half of them singular for small p, and units near I
    ring = ScalarRing(p, 6 if m < 8 else 3)
    rng = random.Random(10 * p + m)
    units = 0
    for trial in range(12 if m < 6 else 2):
        rows = [
            [
                (i == j) + p * rng.randrange(p**5) if trial % 2
                else rng.randrange(ring.modulus)
                for j in range(m)
            ]
            for i in range(m)
        ]
        units += _check_inverse(RingMatrix.from_int_rows(ring, rows))
    assert units >= (6 if m < 6 else 1)
    top = RingMatrix.from_int_rows(ring, [[ring.modulus - 1] * m] * m)
    assert _check_inverse(top) == (m == 1)
    assert not _check_inverse(RingMatrix.zeros(ring, m))
    assert _check_inverse(ident(ring, m))


def test_series_inverse_of_size_eight_matches_the_cofactor_oracle():
    rng = random.Random(8)
    ring = SeriesRing(3, 1, 3)
    g = RingMatrix(ring, _random_rows(rng, ring, 8, 0.5, True))
    assert _check_inverse(g)
    assert g * g.inverse() == ident(ring, 8) == g.inverse() * g
    rows = _random_rows(rng, ring, 8, 0.5, True)
    rows[7] = rows[0]
    assert not _check_inverse(RingMatrix(ring, rows))


def test_singular_inverses_name_the_determinant():
    scalar = RingMatrix.from_int_rows(ScalarRing(3, 3), [[3, 0], [0, 3]])
    ring = SeriesRing(3, 1, 3)
    t = ring.variable(0)
    series = RingMatrix(ring, [[t, ring.one()], [ring.zero(), ring.one() + t]])
    three = matgrp._from_entries(ring, 3, {(2, 2): t})
    for g, det in (
        (scalar, "PadicScalar(p=3, N=3, 9)"),
        (series, "SeriesElement(1*T1 + 1*T1^2)"),
        (three, "SeriesElement(1*T1)"),
    ):
        with pytest.raises(NonUnitDeterminant, match=re.escape(f"determinant {det} ")):
            g.inverse()
        _check_inverse(g)


def test_newton_inverse_lifts_at_most_log2_trunc_times(monkeypatch):
    # each Newton step costs two products after the residual check
    ring = SeriesRing(3, 1, 8)
    rng = random.Random(3)
    g = RingMatrix(ring, _random_rows(rng, ring, 3, 1.0, True))
    calls = []

    def counting_mul(*args):
        calls.append(1)
        return _mul(*args)

    monkeypatch.setattr(padic, "_mul", counting_mul)
    inverse = g.inverse()
    monkeypatch.undo()
    assert inverse == _oracle_inverse(g)
    assert 1 < len(calls) <= 1 + 2 * 3  # ceil(log2 8) = 3 steps
    calls.clear()
    monkeypatch.setattr(padic, "_mul", counting_mul)
    ident(ScalarRing(3, 4), 3).inverse()
    assert len(calls) == 1  # the exact seed: one residual check


def test_reduce_matrix_widens_and_narrows_like_the_coefficient_dicts():
    rng = random.Random(5)
    ring, wide = SeriesRing(3, 2, 4), SeriesRing(3, 2, 7)
    monos = _Layout(wide).monos
    for _ in range(20):
        raw = {e: rng.randrange(-(3**8), 3**8) for e in monos}
        x = RingMatrix(ring, [[SeriesElement(ring, raw)]])
        assert _reduce_matrix(x, 7).rows[0][0].coeffs == x.rows[0][0].coeffs
        assert _reduce_matrix(_reduce_matrix(x, 7), 4) == x
        w = RingMatrix(wide, [[SeriesElement(wide, raw)]])
        assert _reduce_matrix(w, 4, 27).rows[0][0] == _oracle_reduce(
            w.rows[0][0], ring, 27
        )


# ---------------------------------------------------------------------------
# powering: square-and-multiply, or the binomial series in Gamma_1


def _oracle_pow(a, e, m, mod):
    """a^e by square-and-multiply from the leading bit of e, which `_pow`
    keeps for depth 0 and for exponents of at most 2 cap - 3 products."""
    acc = a
    for bit in bin(e)[3:]:
        acc = _mul(acc, acc, m, mod)
        if bit == "1":
            acc = _mul(acc, a, m, mod)
    return acc


def _near_identity(rng, ent, m, depth):
    """A random flat m x m form congruent to I mod m^depth; at depth 0 its
    (0, 0) entry is a unit plus 1, so the form is not in Gamma_1."""
    p = ent.ring.p
    mods = [ent.mod] if ent.scalar else ent.mod.mods
    blocks = {
        i: [rng.randrange(q) * p ** max(0, depth - d) for _ in range(m * m)]
        for i, (d, q) in enumerate(zip(ent.degs, mods))
    }
    if depth == 0:
        blocks[0][0] = p * rng.randrange(mods[0]) + rng.randrange(1, p)
    x = tuple(c % mods[0] for c in blocks[0]) if ent.scalar else _sorted_blocks(blocks, mods)
    return _add(ent.identity(m), x, ent.mod)


_POWER_RINGS = [ScalarRing(3, 1), ScalarRing(3, 4), ScalarRing(5, 3), ScalarRing(7, 6),
                SeriesRing(3, 1, 4), SeriesRing(5, 2, 3), SeriesRing(3, 0, 5),
                SeriesRing(7, 1, 2)]


@pytest.mark.parametrize("ring", _POWER_RINGS, ids=repr)
def test_binomial_powers_match_square_and_multiply(ring):
    rng = random.Random(repr(ring))
    ent, p = _Entries(ring), ring.p
    exponents = [1, 2, 3, p, p - 1, (p - 1) ** 2, (p**2 - 1) ** 2]
    for m in range(1, 5):
        for depth in (0, 1, 2):
            a = _near_identity(rng, ent, m, depth)
            for e in exponents + [rng.randrange(1, 10**6) for _ in range(3)]:
                assert _pow(a, e, m, ent) == _oracle_pow(a, e, m, ent.mod), (m, depth, e)


@pytest.mark.parametrize("ring", [ScalarRing(3, 300), ScalarRing(5, 700),
                                  SeriesRing(3, 0, 300), SeriesRing(5, 0, 700)], ids=repr)
def test_binomial_powers_at_caps_300_and_700(ring):
    rng = random.Random(ring.cap)
    ent, p = _Entries(ring), ring.p
    for depth in (1, 2):
        a = _near_identity(rng, ent, 2, depth)
        for e in (rng.randrange(p ** (ring.cap - 1)), p ** (ring.cap - 1) - 1):
            assert _pow(a, e, 2, ent) == _oracle_pow(a, e, 2, ent.mod), depth


@pytest.fixture
def product_count(monkeypatch):
    calls = []

    def counting_mul(*args):
        calls.append(1)
        return _mul(*args)

    monkeypatch.setattr(matgrp, "_mul", counting_mul)
    return calls


@pytest.mark.parametrize("args", [(4, 2, 2, 4, 3), (3, 3, 2, 5, 5), (2, 2, 1, 3, 7)])
def test_each_slm_power_makes_one_product(args, product_count, monkeypatch):
    # each power of the suite is of I + X with X^2 = 0: the binomial sum
    # stops at its first product
    per_power = []

    def counting_power(g, e):
        before = len(product_count)
        out = int_power(g, e)
        per_power.append(len(product_count) - before)
        return out

    monkeypatch.setattr(certify, "int_power", counting_power)
    report = certify.slm_series_suite(*args)
    assert all(item.status == "pass" for item in report.items)
    assert per_power and set(per_power) == {1}


@pytest.mark.parametrize("ring", _POWER_RINGS, ids=repr)
def test_depth_one_powers_make_at_most_2cap_minus_3_products(ring, product_count):
    # square-and-multiply runs only up to 2 cap - 3 products, the binomial
    # sum's cap - 2 products and cap - 1 sums; the sum makes at most cap - 2
    rng = random.Random(repr(ring) + "count")
    ent, p = _Entries(ring), ring.p
    for m in (1, 2, 3):
        a = _near_identity(rng, ent, m, 1)
        for e in [2, 3, p, (p**2 - 1) ** 2, *(rng.randrange(1, p**ring.cap) for _ in range(5))]:
            product_count.clear()
            _pow(a, e, m, ent)
            assert len(product_count) <= max(2 * ring.cap - 3, 0), (m, e)


def test_powering_counts_and_results(sl2_mod27, product_count):
    G = sl2_mod27
    a = sorted(G.elements)[5]
    g = G.to_matrix(a)
    expected = {0: G.identity}
    for e in range(1, 10):
        expected[e] = _oracle_tmul(expected[e - 1], a, G.m, G.modulus)
    for e, want in expected.items():
        assert G.power(a, e) == want
        assert int_power(g, e) == G.to_matrix(want)
        assert G.power(a, -e) == G.inv(want)
        assert int_power(g, -e) == G.to_matrix(G.inv(want))
    # cap 3: a cube and a fifth power take square-and-multiply's 2 and 3
    # products (<= 2 cap - 3); a ninth power (4) sums I + 9X + 36X^2, one
    product_count.clear()
    G.power(a, 3)
    assert len(product_count) == 2
    product_count.clear()
    int_power(g, 5)
    assert len(product_count) == 3
    product_count.clear()
    int_power(g, 9)
    assert len(product_count) == 1


# ---------------------------------------------------------------------------
# exp/log against the per-kind series loop they replaced, kept as an oracle


def _oracle_factorial_valuation(n, p):
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def _oracle_series_sum(x, kind):
    ring, m = x.ring, x.m
    p, cap = ring.p, ring.cap
    if kind == "exp":
        cutoff = _exp_cutoff(p, cap)
        headroom = _oracle_factorial_valuation(cutoff, p)
    else:
        cutoff = _log_cutoff(p, cap)
        headroom = max(int_valuation(i, p, cap) for i in range(1, cutoff + 1))
    # the sum runs on entry objects, widened by the headroom
    if isinstance(ring, SeriesRing):
        wide = SeriesRing(p, ring.n_vars, ring.trunc + headroom)
        base = [[SeriesElement(wide, e.coeffs) for e in row] for row in x.rows]
    else:
        wide = ScalarRing(p, cap + headroom)
        base = [[wide.from_int(e.value) for e in row] for row in x.rows]

    def scaled(rows, c):
        return [[wide.from_int(c) * e for e in row] for row in rows]

    power = [[wide.from_int(int(i == j)) for j in range(m)] for i in range(m)]
    start = p**headroom if kind == "exp" else 0
    acc = scaled(power, start)
    fact = 1
    for i in range(1, cutoff + 1):
        power = _oracle_mul(power, base)
        if kind == "exp":
            fact *= i
            e = _oracle_factorial_valuation(i, p)
            unit, sign = fact // p**e, 1
        else:
            e = int_valuation(i, p, cap + headroom)
            unit, sign = i // p**e, 1 if i % 2 == 1 else -1
        coeff = sign * p ** (headroom - e) * pow(unit, -1, p**cap)
        term = scaled(power, coeff)
        acc = [[s + t for s, t in zip(r, q)] for r, q in zip(acc, term)]

    shift = p**headroom
    if isinstance(ring, SeriesRing):
        rows = [
            [SeriesElement(ring, {exps: c // shift for exps, c in e.coeffs.items()})
             for e in row]
            for row in acc
        ]
    else:
        rows = [[ring.from_int(e.value // shift) for e in row] for row in acc]
    return RingMatrix(ring, rows)


def _check_exp_log(x):
    g = ident(x.ring, x.m) + x
    assert mat_exp(x) == _oracle_series_sum(x, "exp")
    assert mat_log(g) == _oracle_series_sum(x, "log")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_mat_exp_log_match_series_oracle_on_scalar_matrices(p, m):
    rng = random.Random(10 * p + m)
    for prec in (2, 4, 6):
        ring = ScalarRing(p, prec)
        for _ in range(4):
            rows = [
                [p * rng.randrange(p ** (prec - 1)) for _ in range(m)] for _ in range(m)
            ]
            _check_exp_log(RingMatrix.from_int_rows(ring, rows))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_exp_log_stop_at_the_first_zero_power(p, depth, product_count):
    # x lies in p^depth M_m, so x^i vanishes mod p^(prec + headroom) once
    # i depth >= prec + headroom: the sum makes one product per power of x
    # up to the first zero one, not one per coefficient of the series
    prec, m = 12, 3
    rng = random.Random(10 * p + depth)
    rows = [[p**depth * rng.randrange(1, p**prec) for _ in range(m)] for _ in range(m)]
    x = RingMatrix.from_int_rows(ScalarRing(p, prec), rows)
    for kind, run, arg in (("exp", mat_exp, x), ("log", mat_log, ident(x.ring, m) + x)):
        headroom, coeffs = padic._series_coefficients(kind, p, prec)
        mod, power, first_zero = p ** (prec + headroom), rows, 1
        while any(map(any, power)) and first_zero < len(coeffs) - 1:
            power = [
                [sum(a * b for a, b in zip(row, col)) % mod for col in zip(*rows)]
                for row in power
            ]
            first_zero += 1
        product_count.clear()
        assert run(arg) == _oracle_series_sum(x, kind)
        assert len(product_count) == first_zero < len(coeffs) - 1, kind


_EXP_LOG_RINGS = [
    SeriesRing(3, 2, 4), SeriesRing(5, 1, 3), SeriesRing(3, 0, 4), SeriesRing(5, 3, 3),
    SeriesRing(7, 2, 5),
]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("ring", _EXP_LOG_RINGS)
def test_mat_exp_log_match_series_oracle_on_series_matrices(ring, m):
    rng = random.Random(m * ring.p)
    p, trunc = ring.p, ring.trunc

    def entry():
        terms = {
            exps: p * rng.randrange(p ** (trunc - 1))
            for exps in [(0,) * ring.n_vars, *_monomials(ring.n_vars, trunc - 1)]
            if rng.random() < 0.6
        }
        return ring.from_terms(terms)

    for _ in range(3):
        rows = [[entry() for _ in range(m)] for _ in range(m)]
        _check_exp_log(RingMatrix(ring, rows))


@pytest.mark.parametrize("headroom", [1, 2])
@pytest.mark.parametrize("n_vars", [1, 2])
@pytest.mark.parametrize("p", [3, 5])
def test_series_exp_commutes_with_narrowing(p, n_vars, headroom):
    trunc = 3
    wide = SeriesRing(p, n_vars, trunc + headroom)
    rng = random.Random(100 * p + 10 * n_vars + headroom)
    monos = [(0,) * n_vars, *_monomials(n_vars, trunc + headroom - 1)]

    def entry():
        return wide.from_terms({e: p * rng.randrange(p**trunc) for e in monos})

    x = RingMatrix(wide, [[entry() for _ in range(2)] for _ in range(2)])
    narrow = _reduce_matrix(x, trunc)
    assert narrow.ring == SeriesRing(p, n_vars, trunc)
    assert _reduce_matrix(mat_exp(x), trunc) == mat_exp(narrow)
    assert _reduce_matrix(_reduce_matrix(narrow, trunc + headroom), trunc) == narrow


def test_series_mat_exp_needs_p_divisible_entries():
    ring = SeriesRing(3, 1, 4)
    t = ring.variable(0)
    with pytest.raises(DepthError):
        mat_exp(RingMatrix(ring, [[ring.zero(), t], [ring.zero(), ring.zero()]]))
    pt = ring.from_int(3) * t
    g = mat_exp(RingMatrix(ring, [[ring.zero(), pt], [ring.zero(), ring.zero()]]))
    assert g == RingMatrix(ring, [[ring.one(), pt], [ring.zero(), ring.one()]])


def _monomials(n_vars, max_degree):
    out = [()]
    for _ in range(n_vars):
        out = [e + (d,) for e in out for d in range(max_degree + 1)]
    return [e for e in out if 0 < sum(e) <= max_degree]


# ---------------------------------------------------------------------------
# standard generators against the two loops they replaced, kept as an oracle


def _oracle_sl_standard_generators(m, p, prec=4):
    ring = ScalarRing(p, prec)
    gens = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            e = [[0] * m for _ in range(m)]
            e[i][j] = p
            gens.append(mat_exp(RingMatrix.from_int_rows(ring, e)))
    for i in range(m - 1):
        e = [[0] * m for _ in range(m)]
        e[i][i] = p
        e[i + 1][i + 1] = -p
        e[i][i + 1] = p
        e[i + 1][i] = -p
        gens.append(mat_exp(RingMatrix.from_int_rows(ring, e)))
    return gens


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("prec", [2, 4])
def test_sl_generators_match_loop_oracle(m, p, prec):
    assert sl_standard_generators(m, p, prec) == _oracle_sl_standard_generators(
        m, p, prec
    )


@pytest.mark.parametrize("ring", [ScalarRing(5, 3), SeriesRing(3, 2, 3)])
def test_entry_builder_overwrites_a_multiple_of_the_identity(ring):
    seven = ring.from_int(7)
    rows = [[ring.from_int(3 * (i == j)) for j in range(3)] for i in range(3)]
    rows[0][2], rows[2][1] = ring.from_int(-4), seven
    built = matgrp._from_entries(ring, 3, {(0, 2): -4, (2, 1): seven}, 3)
    assert built == RingMatrix(ring, rows)
    assert matgrp._from_entries(ring, 3, {}) == ident(ring, 3)
