"""`--json` output of fixed commands, byte for byte against `tests/golden/`.

Each golden file is the stdout of `tamelab <argv>` for the argv listed
below.  Regenerate one only for an intended change of output, with
`PYTHONPATH=src python -m tamelab.cli <argv> > tests/golden/<name>`, run
from the repository root.
"""

from pathlib import Path

import pytest

from tamelab import cli

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
LIE_FIXTURES = (
    "abelian2", "quaternion_a2_p3", "quaternion_a2_p5",
    "sl2", "sl3", "sl4", "solvable2",
)

GOLDEN = {
    "verify-examples-all-p3.json": "--json verify-examples --suite all --p 3",
    "verify-examples-all-p5.json": "--json verify-examples --suite all --p 5",
    "verify-examples-all-p7.json": "--json verify-examples --suite all --p 7",
    "plan-a2-b5-k1-p5-prec4.json": "--json plan --a 2 --b 5 --k 1 --p 5 --prec 4",
    "pcentral-m2-p3-prec4-window2.json": (
        "--json pcentral --m 2 --p 3 --prec 4 --window 2"
    ),
    "pcentral-m2-k2-p3-prec5-window2.json": (
        "--json pcentral --m 2 --k 2 --p 3 --prec 5 --window 2"
    ),
    # midpoints are exact half-even roundings of the certified intervals
    "bound-disc100-r1-2-r2-1-norms-2-9-grh.json": (
        "--json bound --disc 100 --r1 2 --r2 1 --norm 2 --norm 9 --grh"
    ),
    # at --prec 6 and above the quaternion suite works at --prec itself
    "verify-examples-all-p5-prec7.json": (
        "--json verify-examples --suite all --p 5 --prec 7"
    ),
    "verify-examples-quaternion-p3-prec6.json": (
        "--json verify-examples --suite quaternion --p 3 --prec 6"
    ),
    # the two largest series-ring suites of the identity-cli benchmark
    "verify-examples-slm-p3-m4-k2-nvars2-trunc4.json": (
        "--json verify-examples --p 3 --suite slm --m 4 --k 2 --nvars 2 --trunc 4"
    ),
    "verify-examples-slm-p5-m3-k3-nvars2-trunc5.json": (
        "--json verify-examples --p 5 --suite slm --m 3 --k 3 --nvars 2 --trunc 5"
    ),
    # the payload echoes argv, so these run from the repository root
    **{
        f"lie-{name}-seed0.json": (
            f"--json lie --input src/tamelab/fixtures/{name}.json --seed 0"
        )
        for name in LIE_FIXTURES
    },
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(REPO_ROOT)
    code = cli.main(GOLDEN[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()
