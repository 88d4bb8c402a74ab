#!/usr/bin/env python3
"""Write BENCH_<label>.json from perfbench's result records.

    python scripts/bench_file.py LABEL

It reads the `result-<workload>-seed<S>-trace<T>.json` records that
`perfbench/run.py` leaves in this repository's `.perfbench_out`, so the
records describe the `src/` of this working tree.  For each workload the
file keeps every untraced record, in seed order, and the traced record of
the lowest seed:

    {"label", "commit", "parent", "src_tree",
     "workloads": {name: {"untraced": [record, ...], "traced": record}}}

A file cannot name the commit it is part of: `commit` is null, `parent` is
HEAD and `src_tree` is the git tree hash that `src/` will have when
committed as it stands.  The file is written to the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / ".perfbench_out"
RECORD = re.compile(
    r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json"
)


def workloads(records: Path) -> dict:
    """{workload: {"untraced": [...], "traced": record}} from a records directory."""
    found: dict = {}
    for path in sorted(records.iterdir()):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        record = json.loads(path.read_text())
        prov = record["provenance"]
        name, seed, trace = match["workload"], int(match["seed"]), int(match["trace"])
        if (prov["workload"], prov["seed"], prov["trace"]) != (name, seed, trace):
            raise ValueError(f"{path.name}: provenance does not match the file name")
        found.setdefault(name, {0: {}, 1: {}})[trace][seed] = record
    if not found:
        raise ValueError(f"no result records in {records}")
    out = {}
    for name, by_trace in sorted(found.items()):
        untraced, traced = by_trace[0], by_trace[1]
        if not untraced or not traced:
            raise ValueError(f"{name}: needs untraced and traced records")
        out[name] = {
            "untraced": [untraced[seed] for seed in sorted(untraced)],
            "traced": traced[min(traced)],
        }
    return out


def _git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def _working_src_tree() -> str:
    """The tree hash of src/ as it stands, staged in a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", "src", env=env)
        return _git("write-tree", "--prefix=src/", env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    args = parser.parse_args(argv)
    payload = {"label": args.label, "commit": None,
               "parent": _git("rev-parse", "HEAD"),
               "src_tree": _working_src_tree(), "workloads": workloads(RECORDS)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
