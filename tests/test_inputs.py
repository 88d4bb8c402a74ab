"""Input rules: JSON integers are integers, and p is decided prime exactly."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tamelab import cli
from tamelab.bounds import SplittingBoundInput
from tamelab.certify import standard_inertial_certificate
from tamelab.errors import DomainError, SchemaError, json_int, json_list
from tamelab.liealg import LieAlgebra
from tamelab.matgrp import RingMatrix
from tamelab.padic import _PRIME_BOUND, SeriesRing, is_odd_prime

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# JSON integers


@pytest.mark.parametrize("value, want", [(7, 7), ("-12", -12), ("0", 0)])
def test_json_int_reads_integers_and_their_strings(value, want):
    assert json_int(value) == want


@pytest.mark.parametrize("value", [1.9, 2.0, True, False, None, [1]])
def test_json_int_refuses_floats_and_bools(value):
    with pytest.raises(SchemaError):
        json_int(value)


@pytest.mark.parametrize("value", ["", "12", {}, {"1": 2}, (1,), None, 3])
def test_json_list_refuses_strings_and_objects(value):
    assert json_list([value]) == [value]
    with pytest.raises(SchemaError):
        json_list(value)


def _series_identity(cert):
    ident = RingMatrix.identity(SeriesRing(5, 2, 3), 2).to_json
    cert.update(x=ident(), y=ident())


def _series_edit(where, value):
    def edit(cert):
        _series_identity(cert)
        entry = cert["y"]["entries"][0]
        if where == "exponent":
            entry["coeffs"] = [[[value, 0], "1"]]
        elif where == "exponent-vector":
            entry["coeffs"] = [[value, "5"]]
        elif where == "coefficient":
            entry["coeffs"] = [[[0, 0], value]]
        elif where == "header":
            cert["y"]["ring"]["p"] = value
        else:
            entry[where] = value

    return edit


# one field per case; each edited certificate loaded at its truncated value
# before JSON integers were read by one rule
_CERT_FIELDS = {
    "k-float": lambda cert: cert.update(k=1.9),
    "k-bool": lambda cert: cert.update(k=True),
    "a-value-float": lambda cert: cert["a"].update(value=1.2),
    "a-prec-float": lambda cert: cert["a"].update(prec=4.0),
    "matrix-size-float": lambda cert: cert["y"].update(m=2.0),
    "ring-prec-float": lambda cert: cert["y"]["ring"].update(prec=4.0),
    "entry-p-float": lambda cert: cert["y"]["entries"][0].update(p=5.0),
    "entry-value-bool": lambda cert: cert["y"]["entries"][1].update(value=False),
    "series-exponent-float": _series_edit("exponent", 1.0),
    # a string is no exponent vector: "01" used to load as the monomial T2
    "series-exponent-vector-string": _series_edit("exponent-vector", "01"),
    "series-coefficient-float": _series_edit("coefficient", 1.5),
    "series-trunc-float": _series_edit("trunc", 3.0),
    "series-header-p-float": _series_edit("header", 5.0),
    # an empty string or object used to load as the zero series
    "series-coeffs-string": _series_edit("coeffs", ""),
    "series-coeffs-object": _series_edit("coeffs", {}),
}


@pytest.mark.parametrize("field", sorted(_CERT_FIELDS))
def test_certificate_with_a_non_integer_field_is_a_schema_error(capsys, tmp_path, field):
    cert = standard_inertial_certificate(5, 4, 1, 1).to_json()
    _CERT_FIELDS[field](cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "certify", "--cert", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_BOUND_INPUT = {"abs_discriminant": 100, "r1": 2, "r2": 1, "prime_norms": [2, 9]}


@pytest.mark.parametrize(
    "edit",
    [
        {"grh": "false"},
        {"grh": 0},
        {"r1": 2.7},
        {"r2": True},
        {"prime_norms": [2, 9.5]},
        {"abs_discriminant": 100.5},
        {"abs_discriminant": 100.0},
    ],
    ids=["grh-string", "grh-int", "r1-float", "r2-bool", "norm-float",
         "disc-float", "disc-integral-float"],
)
def test_bound_input_with_a_wrong_type_is_a_schema_error(capsys, tmp_path, edit):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({**_BOUND_INPUT, **edit}))
    code, out, err = run(capsys, "bound", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bound_input_reads_integers_strings_and_a_boolean(capsys, tmp_path):
    path = tmp_path / "bound.json"
    flags = ["--disc", "100", "--r1", "2", "--r2", "1", "--norm", "2", "--norm", "9"]
    for grh in (False, True):
        inp = {**_BOUND_INPUT, "abs_discriminant": "100", "r1": "2", "grh": grh}
        path.write_text(json.dumps(inp))
        from_file = run(capsys, "--json", "bound", "--input", str(path))
        from_flags = run(capsys, "--json", "bound", *flags, *(["--grh"] if grh else []))
        assert from_file[0] == from_flags[0] == 0
        assert json.loads(from_file[1])["data"] == json.loads(from_flags[1])["data"]


def test_bound_discriminant_with_a_zero_denominator_is_a_schema_error(capsys, tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({**_BOUND_INPUT, "abs_discriminant": "1/0"}))
    for argv in (
        ["bound", "--input", str(path)],
        ["bound", "--disc", "1/0", "--r1", "1", "--r2", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bound_flags_keep_fractional_discriminants(capsys, tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"abs_discriminant": "7/2", "r1": 1, "r2": 0}))
    from_file = run(capsys, "--json", "bound", "--input", str(path))
    from_flags = run(capsys, "--json", "bound", "--disc", "7/2", "--r1", "1", "--r2", "0")
    assert from_file[0] == from_flags[0]
    assert json.loads(from_file[1])["data"] == json.loads(from_flags[1])["data"]


# ---------------------------------------------------------------------------
# JSON lists: a string or an object is no list


_LIE_INPUT = {"dim": 3, "brackets": [[0, 1, [0, 0, 1]]]}
# each used to load: "001" as [0, 0, 1], an object as its keys, and an
# empty string or object as no brackets at all
_LIE_NOT_LISTS = {
    "coefficients-string": [[0, 1, "001"]],
    "coefficients-object": [[0, 1, {"0": 0, "1": 0, "2": 1}]],
    "brackets-string": "",
    "brackets-object": {},
}


@pytest.mark.parametrize("kind", sorted(_LIE_NOT_LISTS))
def test_lie_lists_that_are_no_list_are_a_schema_error(capsys, tmp_path, kind):
    payload = {**_LIE_INPUT, "brackets": _LIE_NOT_LISTS[kind]}
    assert LieAlgebra.from_json(_LIE_INPUT).dim == 3
    with pytest.raises(SchemaError):
        LieAlgebra.from_json(payload)
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lie", "--input", str(path), "--seed", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("norms", ["29", {"2": 1, "9": 1}], ids=["string", "object"])
def test_prime_norms_that_are_no_list_are_a_schema_error(capsys, tmp_path, norms):
    payload = {**_BOUND_INPUT, "prime_norms": norms}
    assert SplittingBoundInput.from_json(_BOUND_INPUT).prime_norms == (2, 9)
    with pytest.raises(SchemaError):
        SplittingBoundInput.from_json(payload)
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "bound", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# primality


def _trial_division(n: int) -> bool:
    """The oracle: odd n >= 3 with no odd divisor d, d * d <= n."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_odd_prime_matches_trial_division_below_20000():
    assert [n for n in range(-3, 20000) if is_odd_prime(n) != _trial_division(n)] == []


def test_is_odd_prime_matches_trial_division_on_random_12_digit_numbers():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(10**11, 10**12) | 1
        assert is_odd_prime(n) == _trial_division(n), n


@pytest.mark.parametrize(
    "n",
    [3215031751, 3825123056546413051, 318665857834031151167461],
    ids=["spsp-2-7", "spsp-2-23", "spsp-2-37"],
)
def test_strong_pseudoprimes_to_the_small_bases_are_composite(n):
    # each passes Miller-Rabin for every prime base up to the one in its id
    assert not is_odd_prime(n)


def test_large_primes_are_prime_and_the_bound_is_an_error():
    assert is_odd_prime(10**18 + 3)
    assert is_odd_prime(2**61 - 1)
    assert not is_odd_prime((2**31 - 1) * (10**9 + 7))
    with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
        is_odd_prime(_PRIME_BOUND + 2)


def test_plan_at_an_eighteen_digit_prime_finishes():
    argv = ["plan", "--a", "1", "--b", "2", "--k", "1", "--p", str(10**18 + 3),
            "--prec", "4"]
    proc = subprocess.run(
        [sys.executable, "-m", "tamelab", *argv],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr


def test_p_past_the_bound_is_a_usage_error(capsys):
    p = str(_PRIME_BOUND + 2)
    code, out, err = run(capsys, "plan", "--a", "1", "--b", "2", "--k", "1",
                         "--p", p, "--prec", "4")
    assert code == 3
    assert err.startswith("error: ") and str(_PRIME_BOUND) in err
