#!/usr/bin/env python3
"""Run every exact-identity suite across p in {3, 5, 7} and summarize.

Usage: python scripts/verify_identities.py [--prec N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tamelab.certify import (
    first_nonresidue,
    quaternion_uniform_suite,
    sl2_relation_suite,
    slm_series_suite,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--prec", type=int, default=4)
    args = parser.parse_args()

    failures = 0
    t0 = time.monotonic()
    for p in (3, 5, 7):
        reports = [sl2_relation_suite(p, args.prec, 1 + p**2)]
        for k in (1, 2):
            for n_vars in (0, 1):
                reports.append(slm_series_suite(2, k, n_vars, 3, p))
        reports.append(slm_series_suite(3, 1, 0, 3, p))
        reports.append(quaternion_uniform_suite(first_nonresidue(p), p, args.prec))
        for report in reports:
            bad = report.failures()
            failures += len(bad)
            mark = "ok " if not bad else "FAIL"
            print(f"[{mark}] p={p} {report.name}: {len(report.items)} checks")
            for item in bad:
                print(f"       failed: {item.anchor}")
    print(f"\n{failures} failures, {time.monotonic() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
