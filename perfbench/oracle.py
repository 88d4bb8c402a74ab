"""Independent re-checks for benchmark outputs.

Nothing here imports tamelab: group-side matrices are 2x2 nested lists of
ints reduced mod p^N, Lie-side matrices nested lists of Fractions, and each
check takes a different route from the library's (characteristic
polynomials instead of Krylov minimal polynomials, matrix powers instead
of linear solves).  Every function is called outside the timed region of
a job.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b, mod):
    m = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(m)) % mod for j in range(m)]
        for i in range(m)
    ]


def mat_identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def mat_pow(a, e, mod):
    acc = mat_identity(len(a))
    base = [row[:] for row in a]
    while e:
        if e & 1:
            acc = mat_mul(acc, base, mod)
        base = mat_mul(base, base, mod)
        e >>= 1
    return acc


def mat_inv(a, mod):
    """Inverse of a 2x2 matrix with unit determinant, by the adjugate, mod p^N."""
    (a0, a1), (a2, a3) = a
    d = pow(a0 * a3 - a1 * a2, -1, mod)
    return [[a3 * d % mod, -a1 * d % mod], [-a2 * d % mod, a0 * d % mod]]


def mat_log(g, p, prec):
    """log g mod p^prec for an integer matrix g = I mod p: sum (-1)^(k+1) (g - I)^k / k.

    Powers are kept to enough extra p-adic digits that dividing by the
    p-part of k is exact; terms with k - v_p(k) >= prec vanish mod p^prec,
    which holds for every k > 3 prec.
    """
    m, mod = len(g), p**prec
    terms = 3 * prec
    work = p ** (prec + terms.bit_length())
    delta = [[(g[i][j] - (i == j)) % work for j in range(m)] for i in range(m)]
    acc = [[0] * m for _ in range(m)]
    power = mat_identity(m)
    for k in range(1, terms + 1):
        power = mat_mul(power, delta, work)
        unit, shift = k, 1
        while unit % p == 0:
            unit //= p
            shift *= p
        coeff = (1 if k % 2 else -1) * pow(unit, -1, mod)
        for i in range(m):
            for j in range(m):
                acc[i][j] = (acc[i][j] + coeff * (power[i][j] // shift)) % mod
    return acc


def commutator(g, h, mod):
    """[g, h] = g h g^-1 h^-1, the library's convention."""
    return mat_mul(
        mat_mul(g, h, mod), mat_mul(mat_inv(g, mod), mat_inv(h, mod), mod), mod
    )


def square(flat):
    m = int(round(len(flat) ** 0.5))
    return [list(flat[i * m : (i + 1) * m]) for i in range(m)]


def relation_holds(x, y, exponent, mod):
    """[x, y] == y^exponent on int matrices mod p^N."""
    return commutator(x, y, mod) == mat_pow(y, exponent, mod)


def double_loop_certificates(elements, y, p, k_max, mod):
    """Every x with [x, y] = y^(a p^k), 1 <= k <= k_max, a a unit, y^(a p^k) != I."""
    ident = mat_identity(len(y))
    powers = {}
    acc, e = y, 1
    while acc != ident:
        powers[_key(acc)] = e
        acc = mat_mul(acc, y, mod)
        e += 1
    hits = []
    for x in elements:
        e = powers.get(_key(commutator(x, y, mod)))
        if e is None:
            continue
        k = 0
        while e % p == 0:
            e //= p
            k += 1
        if 1 <= k <= k_max:
            hits.append(x)
    return hits


def _key(mat):
    return tuple(x for row in mat for x in row)


# ---------------------------------------------------------------------------
# sl_n coordinates: E_ij (i != j) in row-major order, then H_k = E_kk - E_(k+1,k+1)


def sl_coords(mat):
    m = len(mat)
    out = [Fraction(mat[i][j]) for i in range(m) for j in range(m) if i != j]
    partial = Fraction(0)
    for k in range(m - 1):
        partial += mat[k][k]
        out.append(partial)
    return tuple(out)


def sl_matrix(coords, m):
    mat = [[Fraction(0)] * m for _ in range(m)]
    it = iter(coords)
    for i in range(m):
        for j in range(m):
            if i != j:
                mat[i][j] = Fraction(next(it))
    for k in range(m - 1):
        c = Fraction(next(it))
        mat[k][k] += c
        mat[k + 1][k + 1] -= c
    return mat


def qmul(a, b):
    m = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(m)] for i in range(m)]


def _is_zero(mat):
    return all(e == 0 for row in mat for e in row)


def is_nilpotent(mat):
    power = mat
    for _ in range(len(mat) - 1):
        power = qmul(power, mat)
    return _is_zero(power)


def charpoly(mat):
    """Characteristic polynomial by Faddeev-LeVerrier, low degree first."""
    m = len(mat)
    coeffs = [Fraction(0)] * m + [Fraction(1)]
    acc = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        acc = qmul(mat, acc)
        for i in range(m):
            acc[i][i] += coeffs[m - k + 1]
        coeffs[m - k] = -sum(qmul(mat, acc)[i][i] for i in range(m)) / k
    return coeffs


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_div(a, b):
    a, out = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        out[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return out


def is_diagonalizable(mat):
    """Over the algebraic closure: the squarefree part of the char poly kills mat."""
    chi = charpoly(mat)
    a, b = chi, [i * c for i, c in enumerate(chi)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    radical = _poly_div(chi, a)
    m = len(mat)
    value = [[Fraction(0)] * m for _ in range(m)]
    for c in reversed(radical):
        value = qmul(value, mat)
        for i in range(m):
            value[i][i] += c
    return _is_zero(value)


def rank_q(vectors):
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# bounds, by floating point with a margin; only far-from-threshold cases decide


def splitting_verdict(disc, r1, r2, norms, grh, margin=1e-6):
    import math

    gamma, pi = 0.5772156649015329, math.pi
    finite = sum(
        math.log(n) / ((math.sqrt(n) - 1) if grh else (n - 1)) for n in norms
    )
    if grh:
        real = (pi / 2 + gamma + math.log(8 * pi)) / 2
        cplx = gamma + math.log(8 * pi)
    else:
        real = (gamma + math.log(4 * pi)) / 2
        cplx = gamma + math.log(2 * pi)
    total = finite + r1 * real + r2 * cplx
    threshold = math.log(disc) / 2
    if total > threshold + margin:
        return "true"
    if total < threshold - margin:
        return "false"
    return None


def gs_nonnegative_on_grid(d, degrees, grid):
    """True when 1 - d t + sum t^e is >= 0 at every t = j / grid in (0, 1)."""
    return all(
        1 - d * t + sum(t**e for e in degrees) >= 0
        for t in (Fraction(j, grid) for j in range(1, grid))
    )
