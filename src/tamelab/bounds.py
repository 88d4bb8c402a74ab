"""Closed-form arithmetic bounds with certified interval evaluation.

The splitting bound is a strict inequality between transcendental sums, so
every constant here is held as a directed-rounded rational interval: gamma
and pi come from 40-digit literals widened by one ulp, and logarithms and
square roots of integers come from the decimal module at 40 digits, whose
correctly-rounded results are widened by one ulp in each direction.  A
"true"/"false" verdict is therefore certified; straddles report
"indeterminate".
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import InvalidSignature, SchemaError, json_int, json_list

_DIGITS = 40

# leading digits of the constants; true value lies in [literal, literal + ulp)
_GAMMA_TRUNC = "0.5772156649015328606065120900824024310421"
_PI_TRUNC = "3.141592653589793238462643383279502884197"


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, c) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(c * self.lo, c * self.hi)
        return Interval(c * self.hi, c * self.lo)

    def div_positive(self, other: "Interval") -> "Interval":
        """Divide by an interval that is strictly positive."""
        if other.lo <= 0:
            raise ValueError("divisor interval must be strictly positive")
        return Interval(self.lo / other.hi, self.hi / other.lo)

    def strictly_greater(self, other: "Interval") -> bool:
        return self.lo > other.hi

    def certainly_at_most(self, other: "Interval") -> bool:
        return self.hi <= other.lo

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint_str(self) -> str:
        """The exact midpoint rounded half-even to 15 decimals, as "0.5" or "0.0"."""
        q = round((self.lo + self.hi) / 2 * 10**15)
        whole, frac = divmod(abs(q), 10**15)
        digits = f"{frac:015d}".rstrip("0") or "0"
        return f"{'-' if q < 0 else ''}{whole}.{digits}"


def _literal_interval(truncated: str) -> Interval:
    lo = Fraction(truncated)
    frac_digits = len(truncated.split(".")[1])
    return Interval(lo, lo + Fraction(1, 10**frac_digits))


GAMMA = _literal_interval(_GAMMA_TRUNC)
PI = _literal_interval(_PI_TRUNC)


def _widened(d: Decimal) -> Interval:
    exact = Fraction(d)
    ulp = Fraction(1, 10**_DIGITS) * max(Fraction(1), abs(exact))
    return Interval(exact - ulp, exact + ulp)


def log_interval(x) -> Interval:
    """Certified enclosure of log x for a positive rational x."""
    x = Fraction(x)
    if x <= 0:
        raise InvalidSignature("log needs a positive argument")
    if x == 1:
        return Interval.exact(0)
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 10
        num = Decimal(x.numerator).ln()
        den = Decimal(x.denominator).ln()
    return _widened(num) - _widened(den)


def sqrt_interval(n: int) -> Interval:
    """Certified enclosure of sqrt n for a positive integer."""
    if n <= 0:
        raise InvalidSignature("sqrt needs a positive argument")
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 10
        root = Decimal(n).sqrt()
    return _widened(root)


# the splitting bound's archimedean terms (per real place, per complex place);
# log is monotone, so the ends of the pi enclosure bound log pi
_LOG_PI = Interval(log_interval(PI.lo).lo, log_interval(PI.hi).hi)
_HALF = Fraction(1, 2)
_ARCHIMEDEAN = (
    (GAMMA + log_interval(4) + _LOG_PI).scale(_HALF),
    GAMMA + log_interval(2) + _LOG_PI,
)
_ARCHIMEDEAN_GRH = (
    (PI.scale(_HALF) + GAMMA + log_interval(8) + _LOG_PI).scale(_HALF),
    GAMMA + log_interval(8) + _LOG_PI,
)


# ---------------------------------------------------------------------------
# splitting bound


@dataclass(frozen=True)
class SplittingBoundInput:
    """Field signature, discriminant, and the norms of the split prime set."""

    abs_discriminant: Fraction
    r1: int
    r2: int
    prime_norms: tuple = ()
    grh: bool = False

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.r1 + 2 * self.r2 < 1:
            raise InvalidSignature(f"bad signature r1={self.r1}, r2={self.r2}")
        if Fraction(self.abs_discriminant) < 1:
            raise InvalidSignature("|d_K| must be >= 1")
        if any(n < 2 for n in self.prime_norms):
            raise InvalidSignature("prime norms must be >= 2")

    @classmethod
    def from_json(cls, obj) -> "SplittingBoundInput":
        try:
            disc, grh = obj["abs_discriminant"], obj.get("grh", False)
            if type(disc) not in (int, str) or type(grh) is not bool:
                raise SchemaError(
                    "abs_discriminant must be an integer or a string,"
                    f" grh a boolean; got {disc!r}, {grh!r}"
                )
            return cls(
                Fraction(disc),
                json_int(obj["r1"]),
                json_int(obj["r2"]),
                tuple(map(json_int, json_list(obj.get("prime_norms", [])))),
                grh,
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad splitting-bound payload: {exc}") from exc


@dataclass
class SplittingBoundResult:
    alpha_finite: Interval
    alpha_infinite: Interval
    threshold: Interval
    verdict: str  # "true" | "false" | "indeterminate"

    def to_json(self) -> dict:
        return {
            "alpha_finite": self.alpha_finite.midpoint_str(),
            "alpha_infinite": self.alpha_infinite.midpoint_str(),
            "threshold": self.threshold.midpoint_str(),
            "verdict": self.verdict,
        }


def splitting_bound(inp: SplittingBoundInput) -> SplittingBoundResult:
    """Certified comparison of the split-prime sum against log sqrt |d_K|.

    Finite part: sum over norms of log N / (N - 1), or log N / (sqrt N - 1)
    under GRH.  Archimedean part per real place (gamma + log 4 pi)/2 and per
    complex place gamma + log 2 pi; under GRH (pi/2 + gamma + log 8 pi)/2
    and gamma + log 8 pi.  Verdict "true" certifies the strict inequality,
    under which no nontrivial uniform toral quotient survives.
    """
    one = Interval.exact(1)
    alpha_finite = Interval.exact(0)
    for n in inp.prime_norms:
        log_n = log_interval(n)
        if inp.grh:
            denom = sqrt_interval(n) - one
        else:
            denom = Interval.exact(n - 1)
        alpha_finite = alpha_finite + log_n.div_positive(denom)

    real_term, complex_term = _ARCHIMEDEAN_GRH if inp.grh else _ARCHIMEDEAN
    alpha_infinite = real_term.scale(inp.r1) + complex_term.scale(inp.r2)

    threshold = log_interval(inp.abs_discriminant).scale(Fraction(1, 2))
    total = alpha_finite + alpha_infinite
    if total.strictly_greater(threshold):
        verdict = "true"
    elif total.certainly_at_most(threshold):
        verdict = "false"
    else:
        verdict = "indeterminate"
    return SplittingBoundResult(alpha_finite, alpha_infinite, threshold, verdict)


# ---------------------------------------------------------------------------
# Selmer dimension and ramification budget


def selmer_dim(r1: int, r2: int, clp: int) -> int:
    """r1 + r2 - 1 + dim Cl[p]; also the size of the auxiliary prime set."""
    if r1 < 0 or r2 < 0 or clp < 0 or r1 + 2 * r2 < 1:
        raise InvalidSignature(f"bad inputs r1={r1}, r2={r2}, clp={clp}")
    return r1 + r2 - 1 + clp


def ramification_budget(group_order_exponent: int, z0: int) -> int:
    """Tame-prime budget: log_p of the realized quotient order plus |Z_0|."""
    if group_order_exponent < 0 or z0 < 0:
        raise InvalidSignature("exponent and z0 must be >= 0")
    return group_order_exponent + z0


# ---------------------------------------------------------------------------
# Golod-Shafarevich negativity


@dataclass(frozen=True)
class GSInput:
    """Presentation data: generator count and relation degrees."""

    d: int
    relation_degrees: tuple

    def __post_init__(self):
        if self.d < 1:
            raise InvalidSignature("need at least one generator")
        if any(e < 2 for e in self.relation_degrees):
            raise InvalidSignature("relation degrees must be >= 2")


@dataclass
class GSResult:
    negative: bool
    witness_t: Fraction | None
    min_value: Fraction
    grid_points: int

    def to_json(self) -> dict:
        return {
            "negative": self.negative,
            "witness_t": str(self.witness_t) if self.witness_t is not None else None,
            "min_value": str(self.min_value),
            "grid_points": self.grid_points,
        }


def gs_negative(inp: GSInput, grid_points: int = 100) -> GSResult:
    """Exact-rational grid scan of f(t) = 1 - d t + sum t^(e_i) on (0, 1).

    A negative value anywhere in (0, 1) certifies the presented pro-p group
    is infinite; the scan is one-sided, so a non-negative sweep proves
    nothing and is reported as grid-relative.  At t = j / n the scan reads
    the integer n^D f(j / n) = n^D - d j n^(D-1) + sum j^e n^(D-e), D the
    largest degree (or 1), which has the sign and order of f(j / n).
    """
    if grid_points < 10:
        raise InvalidSignature("grid must have at least 10 points")
    n, degrees = grid_points, inp.relation_degrees
    top = max(degrees, default=1)
    one, slope = n**top, inp.d * n ** (top - 1)
    weights = [(e, n ** (top - e)) for e in degrees]
    best_j, best = None, None
    for j in range(1, n):
        val = one - slope * j + sum(j**e * w for e, w in weights)
        if best is None or val < best:
            best, best_j = val, j
    negative = best < 0
    witness = Fraction(best_j, n) if negative else None
    return GSResult(negative, witness, Fraction(best, one), grid_points)
