"""Arithmetic bound calculators: certified intervals, formulas, negativity."""

import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tamelab.bounds import (
    GAMMA,
    GSInput,
    Interval,
    SplittingBoundInput,
    gs_negative,
    log_interval,
    ramification_budget,
    selmer_dim,
    splitting_bound,
    sqrt_interval,
)
from tamelab.errors import InvalidSignature

F = Fraction


# ---------------------------------------------------------------------------
# interval plumbing


def test_interval_verdict_logic():
    a = Interval(F(1), F(2))
    b = Interval(F(3), F(4))
    c = Interval(F("3/2"), F("7/2"))
    assert b.strictly_greater(a)
    assert a.certainly_at_most(b)
    assert not c.strictly_greater(a) and not c.certainly_at_most(a)


def test_constant_enclosures_contain_reference_values():
    # 15-digit reference values
    assert GAMMA.lo < F("0.577215664901533") < GAMMA.hi + F(1, 10**14)
    log2 = log_interval(2)
    assert log2.lo < F("0.693147180559946") < log2.hi + F(1, 10**14)
    s2 = sqrt_interval(2)
    assert s2.lo < F("1.414213562373096") < s2.hi + F(1, 10**14)
    assert s2.width() < F(1, 10**30)


def test_log_interval_exact_at_one():
    assert log_interval(1) == Interval.exact(0)


# ---------------------------------------------------------------------------
# splitting bound


def test_rationals_signature_certified_true():
    # |d|=1, r1=1, r2=0, empty T: threshold 0, archimedean term positive
    result = splitting_bound(SplittingBoundInput(F(1), 1, 0))
    assert result.verdict == "true"
    assert result.threshold == Interval.exact(0)
    # (gamma + log 4 pi) / 2 = 1.554119955935411826... to 15+ digits
    ref = F("1.5541199559354118")
    assert abs(result.alpha_infinite.lo - ref) < F(1, 10**15)
    assert abs(result.alpha_infinite.hi - ref) < F(1, 10**15)


def test_huge_discriminant_certified_false():
    result = splitting_bound(SplittingBoundInput(F(10**80), 1, 1))
    assert result.verdict == "false"


def test_norm_two_prime_adds_exactly_log_two():
    base = splitting_bound(SplittingBoundInput(F(1), 1, 0))
    plus = splitting_bound(SplittingBoundInput(F(1), 1, 0, (2,)))
    log2 = log_interval(2)
    assert plus.alpha_finite.lo == log2.lo and plus.alpha_finite.hi == log2.hi
    assert base.alpha_finite == Interval.exact(0)


def test_alpha_finite_monotone_in_t():
    small = splitting_bound(SplittingBoundInput(F(100), 1, 0, (3,)))
    large = splitting_bound(SplittingBoundInput(F(100), 1, 0, (3, 5, 7)))
    assert large.alpha_finite.lo >= small.alpha_finite.lo


def test_discriminant_monotone_never_rescues_verdict():
    rng = random.Random(0)
    for _ in range(30):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        if r1 + 2 * r2 < 1:
            r1 = 1
        norms = tuple(rng.choice([2, 3, 5, 9, 25]) for _ in range(rng.randint(0, 3)))
        small_d = splitting_bound(SplittingBoundInput(F(10), r1, r2, norms))
        big_d = splitting_bound(SplittingBoundInput(F(10**30), r1, r2, norms))
        if small_d.verdict == "false":
            assert big_d.verdict == "false"


def test_grh_dominates_term_by_term():
    rng = random.Random(1)
    for _ in range(100):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        if r1 + 2 * r2 < 1:
            r1 = 1
        norms = tuple(rng.choice([2, 3, 4, 5, 11]) for _ in range(rng.randint(0, 4)))
        disc = F(rng.choice([1, 4, 100, 10**10]))
        plain = splitting_bound(SplittingBoundInput(disc, r1, r2, norms, grh=False))
        grh = splitting_bound(SplittingBoundInput(disc, r1, r2, norms, grh=True))
        assert grh.alpha_finite.lo >= plain.alpha_finite.lo
        assert grh.alpha_infinite.lo >= plain.alpha_infinite.lo
        if plain.verdict == "true":
            assert grh.verdict == "true"


def test_splitting_bound_invalid_signature():
    with pytest.raises(InvalidSignature):
        SplittingBoundInput(F(1), 0, 0)
    with pytest.raises(InvalidSignature):
        SplittingBoundInput(F("0.5"), 1, 0)
    with pytest.raises(InvalidSignature):
        SplittingBoundInput(F(1), 1, 0, (1,))


def test_splitting_bound_json_input():
    inp = SplittingBoundInput.from_json(
        {"abs_discriminant": "1", "r1": 1, "r2": 0, "prime_norms": [2], "grh": True}
    )
    assert splitting_bound(inp).verdict == "true"


def _half_even_15(x: Fraction) -> str:
    """x to 15 decimals, ties to even, trailing zeros cut: the decimal module's way."""
    with localcontext() as ctx:
        ctx.prec = 100
        d = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal("1e-15"), rounding=ROUND_HALF_EVEN
        )
    whole, _, frac = f"{d:f}".partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}"


def test_json_midpoints_are_exact_roundings():
    # the acceptance gate's draws, 300 of them, each plain and under GRH
    rng = random.Random(6)
    for _ in range(300):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        if r1 + 2 * r2 < 1:
            r1 = 1
        norms = tuple(rng.choice([2, 3, 4, 5, 9]) for _ in range(rng.randint(0, 3)))
        disc = F(rng.choice([1, 3, 100, 10**6]))
        for grh in (False, True):
            result = splitting_bound(SplittingBoundInput(disc, r1, r2, norms, grh))
            payload = result.to_json()
            for key in ("alpha_finite", "alpha_infinite", "threshold"):
                interval = getattr(result, key)
                mid = (interval.lo + interval.hi) / 2
                assert payload[key] == _half_even_15(mid), (key, r1, r2, norms, disc)


def test_midpoint_str_keeps_the_decimal_shape():
    assert Interval.exact(0).midpoint_str() == "0.0"
    assert Interval(F(1), F(2)).midpoint_str() == "1.5"
    assert Interval.exact(F(-1, 4)).midpoint_str() == "-0.25"
    assert Interval.exact(F(1, 3)).midpoint_str() == "0.333333333333333"
    assert Interval.exact(F(5, 10**16)).midpoint_str() == "0.0"  # tie to even
    assert Interval.exact(F(15, 10**16)).midpoint_str() == "0.000000000000002"


# ---------------------------------------------------------------------------
# Selmer dimension and budget


def test_selmer_dim_examples():
    assert selmer_dim(1, 0, 0) == 0
    assert selmer_dim(0, 1, 0) == 0
    assert selmer_dim(2, 3, 1) == 5


def test_selmer_dim_exhaustive_small():
    for r1 in range(4):
        for r2 in range(4):
            for clp in range(4):
                if r1 + 2 * r2 < 1:
                    continue
                assert selmer_dim(r1, r2, clp) == r1 + r2 - 1 + clp


def test_selmer_dim_invalid():
    with pytest.raises(InvalidSignature):
        selmer_dim(0, 0, 2)


def test_ramification_budget():
    assert ramification_budget(0, 4) == 4
    assert ramification_budget(5, 0) == 5
    for e1 in range(4):
        for e2 in range(4):
            for z0 in range(3):
                assert ramification_budget(e1 + e2, z0) == ramification_budget(
                    e1, 0
                ) + ramification_budget(e2, 0) + z0


# ---------------------------------------------------------------------------
# Golod-Shafarevich


def test_gs_negative_with_witness():
    result = gs_negative(GSInput(2, (9,)), 100)
    assert result.negative
    # the witness must re-evaluate negative exactly
    t = result.witness_t
    assert 1 - 2 * t + t**9 < 0
    # and 3/5 is itself an exact-rational witness on this grid
    val = 1 - 2 * F(3, 5) + F(3, 5) ** 9
    assert val == F(-1, 5) + F(19683, 1953125)
    assert val < 0


def test_gs_free_presentation_not_negative():
    result = gs_negative(GSInput(1, ()), 50)
    assert not result.negative
    assert result.witness_t is None
    assert result.min_value > 0


def test_gs_perfect_square_not_negative():
    result = gs_negative(GSInput(2, (2,)), 200)
    assert not result.negative
    assert result.min_value >= 0


def test_gs_grid_validation():
    with pytest.raises(InvalidSignature):
        gs_negative(GSInput(2, (9,)), 5)
    with pytest.raises(InvalidSignature):
        GSInput(0, (9,))
    with pytest.raises(InvalidSignature):
        GSInput(2, (1,))


def _oracle_gs_negative(inp, grid_points):
    """The Fraction scan the integer one replaced: (negative, witness, min)."""

    def f(t):
        return 1 - inp.d * t + sum(t**e for e in inp.relation_degrees)

    best_t = best_val = None
    for j in range(1, grid_points):
        t = Fraction(j, grid_points)
        val = f(t)
        if best_val is None or val < best_val:
            best_val, best_t = val, t
    negative = best_val < 0
    return negative, best_t if negative else None, best_val


# 1 - t + t^2 is symmetric about 1/2: an odd grid ties at its two middle points
@example(1, (2,), 11)
@example(3, (), 10)
@given(
    st.integers(1, 8),
    st.lists(st.integers(2, 40), max_size=6).map(tuple),
    st.integers(10, 200),
)
def test_gs_integer_scan_matches_fraction_scan(d, degrees, grid_points):
    result = gs_negative(GSInput(d, degrees), grid_points)
    assert (result.negative, result.witness_t, result.min_value) == (
        _oracle_gs_negative(GSInput(d, degrees), grid_points)
    )
    assert result.grid_points == grid_points
