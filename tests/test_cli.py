"""Command-line behavior: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tamelab
from tamelab import cli, errors
from tamelab.certify import standard_inertial_certificate
from tamelab.liealg import _FIXTURE_DIR
from tamelab.matgrp import RingMatrix
from tamelab.padic import SeriesRing


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_examples_sl2(capsys):
    code, out, _ = run(capsys, "--json", "verify-examples", "--p", "5", "--prec", "4", "--suite", "sl2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["items"]) == 3
    assert all(item["status"] == "pass" for item in payload["items"])


def test_verify_examples_quaternion(capsys):
    code, out, _ = run(
        capsys,
        "--json", "verify-examples", "--p", "3", "--prec", "4",
        "--suite", "quaternion", "--a", "2",
    )
    assert code == 0
    anchors = {i["anchor"]: i["status"] for i in json.loads(out)["items"]}
    assert anchors["quaternion/A^2=pI"] == "pass"


def test_verify_examples_rejects_nonprime(capsys):
    code, _, err = run(capsys, "verify-examples", "--p", "9", "--prec", "4")
    assert code == 3
    assert "odd prime" in err


def test_pcentral_report(capsys):
    code, out, _ = run(
        capsys, "--json", "pcentral", "--m", "2", "--p", "3", "--prec", "4",
        "--window", "2",
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["order"] == "3^9"
    assert data["dims"] == [3, 3]
    assert data["uniform"] is True


def test_pcentral_window_too_large(capsys):
    code, _, err = run(
        capsys, "pcentral", "--m", "2", "--p", "3", "--prec", "2", "--window", "2"
    )
    assert code == 2


def test_pcentral_m3_low_precision(capsys):
    code, out, _ = run(
        capsys, "--json", "pcentral", "--m", "3", "--p", "3", "--prec", "2",
        "--window", "1",
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["dims"] == [8]
    assert data["uniform"] is None  # no headroom to check the power map


def _pcentral(capsys, m, p, k, prec, window):
    code, out, _ = run(
        capsys, "--json", "pcentral", "--m", str(m), "--p", str(p), "--k", str(k),
        "--prec", str(prec), "--window", str(window),
    )
    return code, json.loads(out) if code in (0, 1) else None


def _statuses(payload):
    return {item["anchor"]: item["status"] for item in payload["items"]}


def test_pcentral_window_rule_reads_k(capsys):
    # Gamma_2 mod 3^4: dims through level 2, the power map through level 1
    code, payload = _pcentral(capsys, 2, 3, 2, 4, 1)
    assert code == 0 and payload["data"]["uniform"] is True
    code, payload = _pcentral(capsys, 2, 3, 2, 4, 2)
    assert code == 0
    assert payload["data"]["uniform"] is None
    assert payload["data"]["dims"] == [3, 3]
    assert _statuses(payload) == {
        "pcentral/frattini-abelian": "pass", "pcentral/power-map-level-1": "pass",
    }
    assert _pcentral(capsys, 2, 3, 2, 4, 3)[0] == 2
    # Gamma_3 mod 3^4: one trusted layer and no power-map level
    code, payload = _pcentral(capsys, 2, 3, 3, 4, 1)
    assert code == 0
    assert payload["data"]["uniform"] is None
    assert payload["data"]["power_map_levels_checked"] == 0
    assert _statuses(payload) == {"pcentral/frattini-abelian": "pass"}


# (m, p, k, N) whose quotient mod p^(N+1) has at most 3^11 elements
_STABLE_WINDOWS = [
    (2, p, k, prec)
    for p in (3, 5, 7)
    for k in (1, 2, 3)
    for prec in range(k + 1, k + 4)
    if p ** (3 * (prec + 1 - k)) <= 3**11
]


@pytest.mark.parametrize("m, p, k, prec", _STABLE_WINDOWS)
def test_pcentral_verdicts_inside_the_window_hold_one_level_up(capsys, m, p, k, prec):
    window = prec - k  # the widest window the dims allow
    code, low = _pcentral(capsys, m, p, k, prec, window)
    assert code in (0, 1)
    _, high = _pcentral(capsys, m, p, k, prec + 1, window)
    assert low["data"]["dims"] == high["data"]["dims"]
    assert high["data"]["power_map_levels_checked"] == window
    high_statuses = _statuses(high)
    assert {a: high_statuses[a] for a in _statuses(low)} == _statuses(low)


def test_pcentral_limit_exceeded(capsys):
    code, _, err = run(
        capsys, "pcentral", "--m", "2", "--p", "3", "--prec", "4", "--window", "2",
        "--limit", "10",
    )
    assert code == 2


def test_lie_classify_fixture(capsys):
    path = str(_FIXTURE_DIR / "sl2.json")
    code, out, _ = run(capsys, "--json", "lie", "--input", path, "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert payload["data"]["pluperfect"] == "certified-yes"


def test_lie_quaternion_indeterminate_is_not_failure(capsys):
    path = str(_FIXTURE_DIR / "quaternion_a2_p5.json")
    code, out, _ = run(capsys, "--json", "lie", "--input", path, "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    statuses = {i["anchor"]: i["status"] for i in payload["items"]}
    assert statuses["lie/pluperfect"] == "indeterminate"


def test_certify_subcommand(capsys, tmp_path):
    cert = standard_inertial_certificate(5, 4, 1, 1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()))
    code, out, _ = run(capsys, "--json", "certify", "--cert", str(path))
    assert code == 0
    assert json.loads(out)["items"][0]["status"] == "pass"


def test_certify_tampered_certificate_fails(capsys, tmp_path):
    cert = standard_inertial_certificate(5, 4, 1, 1)
    payload = cert.to_json()
    payload["k"] = 2  # wrong exponent: identity no longer holds
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "--json", "certify", "--cert", str(path))
    assert code == 1
    assert json.loads(out)["items"][0]["status"] == "fail"


def _zero_x(cert):
    for entry in cert["x"]["entries"]:
        entry["value"] = "0"


@pytest.mark.parametrize(
    "command, edit",
    [("certify", _zero_x), ("plan", _zero_x), ("plan", lambda cert: cert.update(k=2))],
    ids=["certify-singular-x", "plan-singular-x", "plan-identity-fails"],
)
def test_failed_certificate_is_a_failed_check(capsys, tmp_path, command, edit):
    cert = standard_inertial_certificate(5, 4, 1, 1).to_json()
    edit(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    argv = ["--json", command, "--cert", str(path)]
    if command == "plan":
        argv += ["--a", "1", "--b", "2", "--k", "1", "--p", "5", "--prec", "4"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["items"] == [
        {"anchor": "certificate/identity", "status": "fail", "detail": ""}
    ]


def test_certify_malformed_json_is_schema_error(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"y": 3}))
    code, _, err = run(capsys, "certify", "--cert", str(path))
    assert code == 3


def test_plan_subcommand(capsys):
    code, out, _ = run(
        capsys, "--json", "plan", "--a", "1", "--b", "2", "--k", "1", "--p", "5",
        "--prec", "4",
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["alpha"]["value"] == "97"
    assert data["q_minus_1"]["value"] == "10"


def test_bound_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "bound", "--disc", "1", "--r1", "1", "--r2", "0")
    assert code == 0
    assert json.loads(out)["data"]["verdict"] == "true"


def test_bound_false_is_check_failure(capsys):
    code, out, _ = run(
        capsys, "--json", "bound", "--disc", str(10**80), "--r1", "1", "--r2", "0"
    )
    assert code == 1
    assert json.loads(out)["data"]["verdict"] == "false"


def test_gs_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "gs", "--d", "2", "--degrees", "9", "--grid", "100")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["negative"] is True
    assert data["witness_t"] is not None


def test_gs_positive_reports_indeterminate(capsys):
    code, out, _ = run(capsys, "--json", "gs", "--d", "1", "--degrees", "2", "--grid", "50")
    assert code == 0
    assert json.loads(out)["items"][0]["status"] == "indeterminate"


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 3


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "gs", "--nope")[0] == 3


def test_json_reports_byte_identical(capsys):
    args = ["--json", "verify-examples", "--p", "5", "--prec", "4", "--suite", "sl2"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ["--json", "lie", "--input", str(_FIXTURE_DIR / "sl2.json"), "--seed", "7"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli.build_parser.cache_clear()
    bound = ["--json", "bound", "--disc", "100", "--r1", "2", "--r2", "1"]
    run(capsys, *bound, "--norm", "2")
    _, reused, _ = run(capsys, *bound)
    assert cli.build_parser.cache_info()[:2] == (1, 1)  # (hits, misses)
    cli.build_parser.cache_clear()
    _, fresh, _ = run(capsys, *bound)
    assert reused == fresh


def _error_classes(cls=errors.TamelabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_own_code(capsys, monkeypatch, error):
    def raise_error(*args):
        raise error("raised by the scan")

    monkeypatch.setattr(cli.bounds, "gs_negative", raise_error)
    code, out, err = run(capsys, "gs", "--d", "2", "--degrees", "9")
    usage = issubclass(error, (errors.SchemaError, errors.DomainError))
    assert code == (3 if usage else 2)
    assert out == ""
    assert err == "error: raised by the scan\n"


def test_closure_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TAMELAB_CLOSURE_LIMIT", "10")
    code, _, err = run(
        capsys, "pcentral", "--m", "2", "--p", "3", "--prec", "4", "--window", "2"
    )
    assert code == 2


def test_lifted_cap_answers_past_sys_maxsize(monkeypatch):
    # SL_5 mod 27 has 3^48 > sys.maxsize elements: order, dims and the
    # verdict come from the pc ranks, and nothing reads the order by len
    monkeypatch.setenv("TAMELAB_CLOSURE_LIMIT", str(10**30))
    argv = ("pcentral", "--m", "5", "--p", "3", "--prec", "3", "--window", "1")
    proc = _run_module("--json", *argv, capture_output=True)
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(proc.stdout)["data"]
    assert (data["order"], data["dims"], data["uniform"]) == ("3^48", [24], True)


@pytest.mark.parametrize("value", ["0", "-5", "abc", "2.5"])
def test_closure_limit_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("TAMELAB_CLOSURE_LIMIT", value)
    code, out, err = run(
        capsys, "pcentral", "--m", "2", "--p", "3", "--prec", "4", "--window", "2"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "TAMELAB_CLOSURE_LIMIT" in err


def _run_module(*argv, timeout=60, **kwargs):
    """`python -m tamelab <argv>` in a child process; argv defaults to a gs run."""
    src = str(Path(tamelab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = argv or ("--json", "gs", "--d", "2", "--degrees", "9")
    return subprocess.run(
        [sys.executable, "-m", "tamelab", *argv],
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
        **kwargs,
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_module(capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "gs"


def test_closed_stdout_exits_with_resource_code():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    try:
        proc = _run_module(stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# Inputs past a work cap exit 2 within seconds, with one error line: the pc
# rank decides the closure cap before any element is made (SL_9 mod 9 has
# 3^80 elements, SL_3 mod 27 has 3^16), and the count of Jacobi triples
# decides `lie`'s before `validate` runs.
@pytest.mark.parametrize(
    "argv",
    [
        ("pcentral", "--m", "9", "--p", "3", "--prec", "2", "--window", "1"),
        ("pcentral", "--m", "3", "--p", "3", "--prec", "3", "--window", "1"),
        ("lie", "--input", "{algebra}", "--seed", "0"),
    ],
)
def test_inputs_past_a_work_cap_exit_2_within_seconds(tmp_path, argv):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 3000, "brackets": []}))
    argv = [a.format(algebra=path) for a in argv]
    proc = _run_module("--json", *argv, capture_output=True, timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _huge_precision_cert(path):
    """A 300-byte certificate whose ring header asks for precision 2 * 10^8."""
    one = {"p": 3, "prec": 200000000, "value": "1"}
    matrix = {"ring": {"type": "padic", "p": 3, "prec": 200000000}, "m": 1,
              "entries": [one]}
    path.write_text(json.dumps({"y": matrix, "x": matrix, "a": one, "k": 1}))
    return str(path)


# A precision past padic.MAX_PRECISION exits 2 before any p^N is formed: the
# certificate below ran past 20 s, as 3^(2 * 10^8) was being formed.
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--cert", "{cert}"),
        ("plan", "--a", "1", "--b", "2", "--k", "1", "--p", "5", "--prec", "1001"),
        ("plan", "--a", "1", "--b", "2", "--k", "1", "--p", "5", "--prec", "10000000"),
        ("pcentral", "--m", "2", "--p", "3", "--prec", "10000000", "--window", "1"),
        ("verify-examples", "--p", "3", "--prec", "10000000"),
        ("verify-examples", "--p", "3", "--suite", "slm", "--m", "2", "--k", "1",
         "--nvars", "1", "--trunc", "10000000"),
    ],
)
def test_a_precision_past_the_bound_exits_2_within_seconds(tmp_path, argv):
    cert = _huge_precision_cert(tmp_path / "cert.json")
    assert len(Path(cert).read_bytes()) < 320
    argv = [a.format(cert=cert) for a in argv]
    proc = _run_module("--json", *argv, capture_output=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "past the bound" in proc.stderr


# Lie algebra files that must exit 3.  A dim below 1 that got past the schema
# would loop forever in the sampler, so these run in a child with a timeout.
_BAD_LIE_FILES = {
    "dim-0": {"dim": 0, "brackets": []},
    "dim-negative": {"dim": -1, "brackets": []},
    "dim-non-integral": {"dim": 2.7, "brackets": [[0, 1, ["0", "1"]]]},
    "dim-boolean": {"dim": True, "brackets": []},
    "coefficient-division-by-zero": {"dim": 2, "brackets": [[0, 1, ["1/0", "0"]]]},
    "coefficient-boolean": {"dim": 2, "brackets": [[0, 1, [True, "0"]]]},
    "coefficient-float": {"dim": 2, "brackets": [[0, 1, [0.1, "0"]]]},
    "pair-listed-twice": {
        "dim": 2, "brackets": [[0, 1, ["0", "1"]], [0, 1, ["1", "0"]]],
    },
}


@pytest.mark.parametrize("name", sorted(_BAD_LIE_FILES))
def test_malformed_lie_algebra_file_exits_with_usage_code(tmp_path, name):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(_BAD_LIE_FILES[name]))
    proc = _run_module(
        "--json", "lie", "--input", str(path), "--seed", "0", capture_output=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_bound_input_missing_key_is_schema_error(capsys, tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"r1": 1, "r2": 0}))
    code, _, err = run(capsys, "bound", "--input", str(path))
    assert code == 3
    assert "abs_discriminant" in err
    assert "Traceback" not in err


def _edit_entry(matrix, **fields):
    matrix["entries"][0].update(fields)


def _series_cert(cert, coeffs):
    """x = y = I over Z_5[[T1, T2]]/m^3, then y's first entry's terms replaced."""
    ident = RingMatrix.identity(SeriesRing(5, 2, 3), 2).to_json
    cert.update(x=ident(), y=ident())
    cert["y"]["entries"][0]["coeffs"] = coeffs


# certificate edits whose result must be rejected as a usage/schema error
_CERT_EDITS = {
    "none": lambda cert: None,
    "entry-p": lambda cert: _edit_entry(cert["y"], p=7),
    "entry-prec": lambda cert: _edit_entry(cert["y"], prec=3),
    "size-0": lambda cert: cert["y"].update(m=0, entries=[]),
    "x-y-rings": lambda cert: cert.update(
        x=standard_inertial_certificate(5, 5, 1, 1).to_json()["x"]
    ),
    "series-negative-exponent": lambda cert: _series_cert(
        cert, [[[0, 0], "1"], [[-1, 2], "1"]]
    ),
    "series-repeated-monomial": lambda cert: _series_cert(
        cert, [[[0, 0], "1"], [[1, 0], "1"], [[1, 0], "2"]]
    ),
}


@pytest.mark.parametrize(
    "argv, edit",
    [
        (["gs", "--d", "2", "--degrees", "1"], "none"),
        (["bound", "--disc", "0", "--r1", "1", "--r2", "0"], "none"),
        (["verify-examples", "--p", "3", "--suite", "quaternion", "--a", "1"], "none"),
        (["plan", "--a", "3", "--b", "1", "--k", "1", "--p", "3", "--prec", "4"], "none"),
        (["certify", "--cert", "CERT"], "entry-p"),
        (["certify", "--cert", "CERT"], "entry-prec"),
        (["certify", "--cert", "CERT"], "size-0"),
        (["certify", "--cert", "CERT"], "x-y-rings"),
        (["plan", "--a", "1", "--b", "1", "--k", "1", "--p", "5", "--prec", "3",
          "--cert", "CERT"], "none"),
        (["plan", "--a", "1", "--b", "1", "--k", "1", "--p", "7", "--prec", "4",
          "--cert", "CERT"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "3", "--window", "-1"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "3", "--window", "0"], "none"),
        (["pcentral", "--m", "2", "--k", "0", "--p", "3", "--prec", "3",
          "--window", "1"], "none"),
        (["plan", "--a", "1", "--b", "1", "--k", "0", "--p", "5", "--prec", "4"], "none"),
        (["verify-examples", "--p", "3", "--suite", "slm", "--k", "0"], "none"),
        (["verify-examples", "--p", "3", "--suite", "slm", "--m", "1"], "none"),
        (["verify-examples", "--p", "3", "--suite", "slm", "--m", "0"], "none"),
        (["verify-examples", "--p", "3", "--suite", "slm", "--m", "-2"], "none"),
        (["lie", "--input", str(_FIXTURE_DIR / "sl2.json"), "--seed", "0",
          "--trials", "-3"], "none"),
        (["lie", "--input", str(_FIXTURE_DIR / "sl2.json"), "--seed", "0",
          "--samples", "-1"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "3", "--window", "1",
          "--limit", "0"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "3", "--window", "1",
          "--limit", "-5"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "0", "--window", "1"], "none"),
        (["pcentral", "--m", "2", "--p", "3", "--prec", "-2", "--window", "1"], "none"),
        (["certify", "--cert", "CERT"], "series-negative-exponent"),
        (["certify", "--cert", "CERT"], "series-repeated-monomial"),
        (["lie", "--input", "DIR", "--seed", "0"], "none"),
        (["certify", "--cert", "DIR"], "none"),
        (["plan", "--a", "1", "--b", "1", "--k", "1", "--p", "5", "--prec", "4",
          "--cert", "DIR"], "none"),
        (["bound", "--input", "DIR"], "none"),
        (["plan", "--a", "1", "--b", "1", "--k", "1", "--p", "5", "--prec", "1"], "none"),
        (["verify-examples", "--p", "3", "--prec", "2"], "none"),
        (["bound", "--disc", "5", "--r1", "1"], "none"),
    ],
    ids=["gs-degree-1", "bound-disc-0", "quaternion-square-a", "plan-nonunit-a",
         "certify-entry-p", "certify-entry-prec", "certify-size-0",
         "certify-x-y-rings", "plan-cert-prec", "plan-cert-p",
         "pcentral-window-negative", "pcentral-window-0", "pcentral-k-0",
         "plan-k-0", "slm-k-0", "slm-m-1", "slm-m-0", "slm-m-negative",
         "lie-trials-negative", "lie-samples-negative", "pcentral-limit-0",
         "pcentral-limit-negative", "pcentral-prec-0", "pcentral-prec-negative",
         "certify-series-negative-exponent",
         "certify-series-repeated-monomial", "lie-input-dir", "certify-cert-dir",
         "plan-cert-dir", "bound-input-dir", "plan-prec-1", "verify-prec-2",
         "bound-without-r2"],
)
def test_invalid_input_exits_with_usage_code(capsys, tmp_path, argv, edit):
    if "CERT" in argv:
        # a valid certificate over Z/5^4, then the edit under test
        cert = standard_inertial_certificate(5, 4, 1, 1).to_json()
        _CERT_EDITS[edit](cert)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        argv = [str(path) if arg == "CERT" else arg for arg in argv]
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def _flags(**values):
    return [arg for name, value in values.items() for arg in (f"--{name}", str(value))]


@st.composite
def _small_argv(draw):
    """(argv, whether a k, window or pcentral prec < 1 must make it a usage error)."""
    small = st.integers(-1, 4)
    command = draw(st.sampled_from(["pcentral", "plan", "gs", "bound", "verify-examples"]))
    p = draw(st.one_of(st.sampled_from([3, 5]), st.integers(-1, 9)))
    prec, k = draw(st.integers(-1, 4)), draw(st.integers(-1, 2))
    if command == "pcentral":
        window = draw(st.integers(-1, 3))
        argv = _flags(m=draw(st.integers(-1, 3)), k=k, p=p, prec=prec, window=window)
        return ["pcentral", *argv, "--limit", "2000"], k < 1 or window < 1 or prec < 1
    if command == "plan":
        argv = _flags(a=draw(small), b=draw(small), k=k, p=p, prec=prec)
        return ["plan", *argv], k < 1 or prec < 2
    if command == "gs":
        degrees = draw(st.lists(small, min_size=1, max_size=3))
        argv = _flags(d=draw(small), grid=draw(st.integers(-1, 20)))
        return ["gs", *argv, "--degrees", *map(str, degrees)], False
    if command == "bound":
        argv = _flags(disc=draw(st.integers(-5, 30)), r1=draw(small), r2=draw(small))
        for norm in draw(st.lists(st.integers(-1, 10), max_size=2)):
            argv += ["--norm", str(norm)]
        return ["bound", *argv], False
    suite = draw(st.sampled_from(["sl2", "slm", "quaternion"]))
    argv = _flags(p=p, prec=prec, suite=suite, m=draw(st.integers(-1, 3)), k=k,
                  nvars=draw(st.integers(-1, 2)), trunc=draw(small))
    return ["verify-examples", *argv], k < 1


@given(_small_argv())
def test_small_integer_argv_keeps_the_exit_code_contract(case):
    argv, usage_error = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if usage_error:
        assert code == 3
