"""Job lists of the three workloads, with an output check per job.

`build(workload, seed, workdir)` imports tamelab, generates every seeded
input from `seed`, writes the certificate files the CLI reads, and returns
the job list.  A job's `run(state)` makes the timed library or CLI call;
`state` carries results between dependent jobs of one pass (a closure
feeding its p-central series).  `check(output)` runs with the clock
stopped and returns True only for an exactly correct output.  Checks that
need an independent route (oracle.py, the acceptance gate's double loop)
cache it per job, so only the first pass pays for it.

Jobs call the library through module attributes (`liealg.classify`, not a
name bound at build time), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

WORKLOADS = ("identity-cli", "congruence-quotient", "lie-classify")


@dataclass
class Job:
    label: str
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    makers = {
        "identity-cli": _identity_cli,
        "congruence-quotient": _congruence_quotient,
        "lie-classify": _lie_classify,
    }
    return makers[workload](random.Random(f"{workload}:{seed}"), workdir)


# ---------------------------------------------------------------------------
# identity-cli: the CLI path a user takes, plus the bracket oracle pairs


def _cli_run(cli, argv):
    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--json", *argv])
        return rc, out.getvalue()

    return run


def _payload(output, command):
    rc, text = output
    payload = json.loads(text)
    if payload["command"] != command:
        raise ValueError(f"expected {command}, got {payload['command']}")
    return rc, payload


def _check_all_pass(output) -> bool:
    rc, payload = _payload(output, "verify-examples")
    items = payload["items"]
    return rc == 0 and bool(items) and all(i["status"] == "pass" for i in items)


def _int_matrix(obj):
    return oracle.square([int(e["value"]) for e in obj["entries"]])


def _check_plan(output) -> bool:
    rc, payload = _payload(output, "plan")
    data = payload["data"]
    p, prec = data["a"]["p"], data["a"]["prec"]
    mod = p**prec
    x, y = _int_matrix(data["x"]), _int_matrix(data["y"])
    a, b, k = int(data["a"]["value"]), int(data["b"]["value"]), data["k"]
    q_minus_1 = int(data["q_minus_1"]["value"])
    sigma = oracle.mat_pow(x, int(data["alpha"]["value"]), mod)
    return (
        rc == 0
        and [i["status"] for i in payload["items"]] == ["pass"]
        and q_minus_1 == b * p**k
        and oracle.relation_holds(x, y, a * p**k, mod)
        and oracle.relation_holds(sigma, y, q_minus_1, mod)
    )


def _certificate_holds(cert_json) -> bool:
    """verify_certificate's contract: k >= 1, a a unit, y != I, [x, y] = y^(a p^k)."""
    p, prec = cert_json["a"]["p"], cert_json["a"]["prec"]
    mod = p**prec
    x, y = _int_matrix(cert_json["x"]), _int_matrix(cert_json["y"])
    a, k = int(cert_json["a"]["value"]), cert_json["k"]
    return (
        k >= 1
        and a % p != 0
        and y != oracle.mat_identity(len(y))
        and oracle.relation_holds(x, y, a * p**k, mod)
    )


def _check_certify(cert_json):
    expected = functools.cache(lambda: _certificate_holds(cert_json))

    def check(output) -> bool:
        rc, payload = _payload(output, "certify")
        status = [i["status"] for i in payload["items"]]
        if expected():
            return rc == 0 and status == ["pass"]
        return rc == 1 and status == ["fail"]

    return check


def _check_bound(disc, r1, r2, norms, grh):
    expected = oracle.splitting_verdict(disc, r1, r2, norms, grh)

    def check(output) -> bool:
        rc, payload = _payload(output, "bound")
        verdict = payload["data"]["verdict"]
        if expected is not None and verdict != expected:
            return False
        return rc == (1 if verdict == "false" else 0)

    return check


def _check_gs(d, degrees, grid):
    nonnegative = functools.cache(lambda: oracle.gs_nonnegative_on_grid(d, degrees, grid))

    def check(output) -> bool:
        rc, payload = _payload(output, "gs")
        data = payload["data"]
        if rc != 0:
            return False
        if data["negative"]:
            t = Fraction(data["witness_t"])
            return 0 < t < 1 and 1 - d * t + sum(t**e for e in degrees) < 0
        return nonnegative()

    return check


def _identity_cli(rng: random.Random, workdir: Path) -> list[Job]:
    from tamelab import certify, cli, matgrp, padic, pcentral

    suites, plans, certs, bounds, scans, brackets = [], [], [], [], [], []
    for p in (3, 5, 7):
        for suite in ("sl2", "quaternion"):
            argv = ["verify-examples", "--p", str(p), "--suite", suite]
            suites.append(Job(f"verify-{suite}-p{p}", _cli_run(cli, argv), _check_all_pass))

    # series-ring sweep: two large cases, then the acceptance gate's small ones
    slm_cases = [(4, 2, 2, 4, 3), (3, 3, 2, 5, 5)]
    slm_cases += [(2, k, n, 3, p) for p in (3, 5, 7) for k in (1, 2) for n in (0, 1)]
    for m, k, nvars, trunc, p in slm_cases:
        argv = ["verify-examples", "--p", str(p), "--suite", "slm", "--m", str(m),
                "--k", str(k), "--nvars", str(nvars), "--trunc", str(trunc)]
        suites.append(Job(f"verify-slm-m{m}k{k}n{nvars}t{trunc}-p{p}",
                          _cli_run(cli, argv), _check_all_pass))

    # p cycles through 3, 5, 7 so every seed runs the same mix of primes
    for i in range(100):
        p = (3, 5, 7)[i % 3]
        a = rng.randrange(1, p**4)
        if a % p == 0:
            a += 1
        b, k = rng.randrange(1, p**4), rng.randint(1, 2)
        argv = ["plan", "--a", str(a), "--b", str(b), "--k", str(k), "--p", str(p), "--prec", "4"]
        plans.append(Job(f"plan-{i}", _cli_run(cli, argv), _check_plan))

    # certificate files; every fourth has its unit bumped so the identity fails
    cert_dir = workdir / "certs"
    cert_dir.mkdir(parents=True, exist_ok=True)
    for i in range(12):
        p = (3, 5, 7)[i % 3]
        a = rng.randrange(1, p**4)
        if a % p == 0:
            a += 1
        k = rng.randint(1, 2)
        cert_json = certify.standard_inertial_certificate(p, 4, a, k).to_json()
        if i % 4 == 3:
            bumped = a + 1 if (a + 1) % p else a + 2
            cert_json["a"]["value"] = str(bumped % p**4)
        path = cert_dir / f"cert-{i}.json"
        path.write_text(json.dumps(cert_json))
        certs.append(Job(f"certify-{i}", _cli_run(cli, ["certify", "--cert", str(path)]),
                         _check_certify(cert_json)))

    for i in range(10):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        if r1 + 2 * r2 < 1:
            r1 = 1
        norms = [rng.choice((2, 3, 4, 5, 9)) for _ in range(rng.randint(0, 3))]
        disc = rng.choice((1, 3, 100, 10**6))
        argv = ["bound", "--disc", str(disc), "--r1", str(r1), "--r2", str(r2)]
        for n in norms:
            argv += ["--norm", str(n)]
        for grh in (False, True):
            bounds.append(Job(f"bound-{i}{'-grh' if grh else ''}",
                              _cli_run(cli, argv + (["--grh"] if grh else [])),
                              _check_bound(disc, r1, r2, norms, grh)))

    for i in range(4):
        d = rng.randint(1, 3)
        degrees = sorted(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        argv = ["gs", "--d", str(d), "--degrees", *map(str, degrees)]
        scans.append(Job(f"gs-{i}", _cli_run(cli, argv), _check_gs(d, degrees, 100)))

    # criterion-3 bracket pairs, through the library
    p, prec = 5, 6
    ring = padic.ScalarRing(p, prec)

    def element():
        a, b, c = (rng.randrange(p ** (prec - 1)) for _ in range(3))
        return matgrp.mat_exp(
            matgrp.RingMatrix.from_int_rows(ring, [[p * a, p * b], [p * c, -p * a]])
        )

    for i in range(20):
        g, h = element(), element()
        brackets.append(Job(f"bracket-{i}",
                            lambda state, g=g, h=h: pcentral.dictionary_bracket(g, h),
                            _check_bracket(g, h, p, prec)))
    return suites + plans + certs + bounds + scans + brackets


def _check_bracket(g, h, p, prec):
    def log_bracket():
        lg = oracle.mat_log([[e.value for e in row] for row in g.rows], p, prec)
        lh = oracle.mat_log([[e.value for e in row] for row in h.rows], p, prec)
        mod = p**prec
        return [[(a - b) % mod for a, b in zip(r1, r2)]
                for r1, r2 in zip(oracle.mat_mul(lg, lh, mod), oracle.mat_mul(lh, lg, mod))]

    expected = functools.cache(log_bracket)

    def check(result) -> bool:
        level = result.certified_levels
        mod = p**level
        got = [[e.value % mod for e in row] for row in result.matrix.rows]
        return level >= prec - 2 and got == [[e % mod for e in row] for row in expected()]

    return check


# ---------------------------------------------------------------------------
# congruence-quotient: enumeration, p-central series, certificate search


def _congruence_quotient(rng: random.Random, workdir: Path) -> list[Job]:
    from tamelab import matgrp, padic, pcentral

    quotient, searches, seeded = [], [], []
    # (m, p, N, expected p-central dims, uniformity window or None)
    quotients = [
        (2, 3, 4, [3, 3, 3], 2),
        (2, 5, 3, [3, 3], 1),
        (3, 3, 2, [8], None),
        (2, 3, 5, [3, 3, 3, 3], None),
    ]
    for m, p, prec, dims, window in quotients:
        tag = f"sl{m}-{p}^{prec}"
        gens = matgrp.sl_standard_generators(m, p, prec)
        order = p ** sum(dims)

        def do_closure(state, tag=tag, gens=gens):
            state[tag] = pcentral.closure(gens)
            return state[tag]

        def do_series(state, tag=tag):
            state[tag + "/chain"] = pcentral.pcentral_series(state[tag])
            return state[tag + "/chain"]

        quotient.append(Job(f"closure-{tag}", do_closure,
                            lambda G, order=order: G.order == order))
        sizes = [p ** sum(dims[i:]) for i in range(len(dims))]
        quotient.append(Job(f"series-{tag}", do_series,
                            lambda chain, dims=dims, sizes=sizes: chain.dims == dims
                            and [len(lv) for lv in chain.levels[:-1]] == sizes))
        if window is None:
            continue
        # the congruence kernel is uniform: P_n is the depth-n filtration
        for n in range(2, prec):
            quotient.append(Job(
                f"depth-filtration-{tag}-P{n}",
                lambda state, tag=tag, n=n: state[tag + "/chain"].level(n)
                == state[tag + "/chain"].depth_filtration(n),
                lambda same: same is True,
            ))
        quotient.append(Job(
            f"uniformity-{tag}-w{window}",
            lambda state, tag=tag, window=window: pcentral.uniformity_check(
                state[tag], window, state[tag + "/chain"]
            ),
            lambda rep, window=window: rep.uniform and rep.frattini_abelian
            and rep.power_map_bijective == [True] * window,
        ))

    # criterion-7 single-generator groups: every nontrivial y
    groups = [
        pcentral.closure([matgrp.RingMatrix.from_int_rows(padic.ScalarRing(3, prec), rows)])
        for prec, rows in _CRITERION7_SEEDS
    ]
    for gi, G in enumerate(groups):
        for yi, y in enumerate(sorted(G.elements)):
            if y != G.identity:
                searches.append(_search_job(f"search-c7g{gi}-{yi}", G, y))

    # Seeded y's in the 3^9 group, a fixed number of each kind so every seed
    # does the same work: three conjugates of a unipotent (a certificate
    # exists, the scan stops early) and seven of a split diagonal (none can
    # exist, the scan covers all of G).  With seven full scans the tail
    # percentile falls on a job that stands apart from its neighbours in
    # cost, instead of inside a cluster of near-equal ones.
    big = pcentral.closure(matgrp.sl_standard_generators(2, 3, 4))
    elements = sorted(big.elements)
    for i in range(10):
        unit = rng.choice([u for u in range(1, 27) if u % 3])
        if i >= 3:
            beta = 1 + 3 * unit
            core = [[beta, 0], [0, pow(beta, -1, 81)]]
        else:
            core = [[1, 3 * unit], [0, 1]]
        g = oracle.square(rng.choice(elements))
        y = oracle.mat_mul(oracle.mat_mul(g, core, 81), oracle.mat_inv(g, 81), 81)
        y = tuple(e for row in y for e in row)
        seeded.append(_search_job(f"search-3^9-{i}", big, y))
    return quotient + searches + seeded


_CRITERION7_SEEDS = [
    (2, [[1, 3], [0, 1]]),
    (3, [[1, 3], [0, 1]]),
    (3, [[1, 0], [3, 1]]),
    (3, [[4, 3], [6, 7]]),
    (3, [[4, 0], [0, 7]]),
    (4, [[1, 3], [0, 1]]),
    (4, [[4, 3], [-3, -2]]),
    (4, [[4, 0], [0, pow(4, -1, 81)]]),
    (4, [[4, 3], [3, pow(4, -1, 81)]]),
]


def _search_job(label, G, y):
    from tamelab import certify

    mod = G.modulus
    expected = functools.cache(lambda: bool(oracle.double_loop_certificates(
        (oracle.square(x) for x in G.elements), oracle.square(y), G.p, 3, mod)))

    def check(cert) -> bool:
        if cert is None:
            return not expected()
        data = cert.to_json()
        x_m, y_m = _int_matrix(data["x"]), _int_matrix(data["y"])
        a, k = int(data["a"]["value"]), data["k"]
        exponent = a * G.p**k
        return (
            expected()
            and y_m == oracle.square(y)
            and 1 <= k <= 3
            and a % G.p != 0
            and oracle.mat_pow(y_m, exponent, mod) != oracle.mat_identity(len(y_m))
            and oracle.relation_holds(x_m, y_m, exponent, mod)
        )

    return Job(label, lambda state: certify.brute_search_certificate(G, y, k_max=3), check)


# ---------------------------------------------------------------------------
# lie-classify: fixture verdicts and a seeded query stream


_EXPECTED_VERDICTS = {
    # fixture: (pluperfect, toral verdict)
    "sl2": ("certified-yes", "not-toral"),
    "sl3": ("certified-yes", "not-toral"),
    "sl4": ("certified-yes", "not-toral"),
    "quaternion_a2_p3": ("inconclusive", "toral-likely"),
    "quaternion_a2_p5": ("inconclusive", "toral-likely"),
    "abelian2": ("certified-no", "toral"),
    "solvable2": ("certified-no", "not-toral"),
}


def _check_classify(L, expected):
    def check(rep) -> bool:
        certs = rep.inertial.certificates
        if (rep.pluperfect, rep.toral.verdict) != expected or rep.toral.trials != 200:
            return False
        if not all(cert.holds_in(L) for cert in certs):
            return False
        if rep.pluperfect == "certified-yes":
            return len(certs) == L.dim and oracle.rank_q([c.y for c in certs]) == L.dim
        return True

    return check


def _elementary_conjugator(rng, m):
    """An integer matrix of determinant 1 and its inverse, as Fractions."""
    p = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    p_inv = [row[:] for row in p]
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        # p <- p (I + c E_ij); p_inv <- (I - c E_ij) p_inv
        for r in range(m):
            p[r][j] += c * p[r][i]
        for col in range(m):
            p_inv[i][col] -= c * p_inv[j][col]
    return p, p_inv


def _conjugated(rng, core):
    m = len(core)
    p, p_inv = _elementary_conjugator(rng, m)
    return oracle.qmul(oracle.qmul(p, core), p_inv)


def _random_trace_zero(rng, m):
    while True:
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        mat[m - 1][m - 1] = -sum(mat[k][k] for k in range(m - 1))
        if any(any(row) for row in mat):
            return mat


def _random_nilpotent(rng, m):
    core = [[Fraction(0)] * m for _ in range(m)]
    while not any(any(row) for row in core):
        for i in range(m):
            for j in range(i + 1, m):
                core[i][j] = Fraction(rng.randint(-3, 3))
    return _conjugated(rng, core)


def _random_jordan(rng):
    """A non-semisimple trace-zero 3x3: a Jordan block of eigenvalue a, then -2a."""
    a = Fraction(rng.choice((-2, -1, 1, 2)))
    core = [[a, Fraction(1), Fraction(0)], [Fraction(0), a, Fraction(0)],
            [Fraction(0), Fraction(0), -2 * a]]
    return _conjugated(rng, core)


def _check_semisimple(mat):
    expected = functools.cache(lambda: oracle.is_diagonalizable(mat))
    return lambda verdict: verdict is bool(expected())


def _check_inertial(mat):
    m = len(mat)
    nilpotent = functools.cache(lambda: oracle.is_nilpotent(mat))

    def check(cert) -> bool:
        # y lies in image(ad_y) on sl_n exactly when y is nilpotent
        if cert is None:
            return not nilpotent()
        x, y = oracle.sl_matrix(cert.x, m), oracle.sl_matrix(cert.y, m)
        bracket = [[a - b for a, b in zip(r1, r2)]
                   for r1, r2 in zip(oracle.qmul(x, y), oracle.qmul(y, x))]
        return (
            nilpotent()
            and y == mat
            and cert.lam != 0
            and bracket == [[cert.lam * e for e in row] for row in y]
        )

    return check


def _lie_classify(rng: random.Random, workdir: Path) -> list[Job]:
    from tamelab import liealg

    fixture_jobs, semisimple, inertial = [], [], []
    fixtures = {name: liealg.load_fixture(name) for name in liealg.list_fixtures()}
    for name, L in fixtures.items():
        fixture_jobs.append(Job(f"classify-{name}",
                                lambda state, L=L: liealg.classify(L, trials=200, seed=0),
                                _check_classify(L, _EXPECTED_VERDICTS[name])))

    sl3 = fixtures["sl3"]
    makers = (lambda: _random_trace_zero(rng, 3), lambda: _random_nilpotent(rng, 3),
              lambda: _random_jordan(rng))
    for i in range(40):
        mat = makers[i % 3]()
        x = oracle.sl_coords(mat)
        semisimple.append(Job(f"ad-semisimple-sl3-{i}",
                              lambda state, x=x: liealg.ad_semisimple(sl3, x),
                              _check_semisimple(mat)))

    for m in (3, 4):
        L = fixtures[f"sl{m}"]
        for i in range(30):
            mat = _random_nilpotent(rng, m) if i % 2 else _random_trace_zero(rng, m)
            y = oracle.sl_coords(mat)
            inertial.append(Job(f"inertial-solve-sl{m}-{i}",
                                    lambda state, L=L, y=y: liealg.inertial_solve(L, y),
                                    _check_inertial(mat)))
    return fixture_jobs + semisimple + inertial
