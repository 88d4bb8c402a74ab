"""scripts/bench_file.py: assembling BENCH files from perfbench's records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_file.py"
_spec = importlib.util.spec_from_file_location("bench_file", _SCRIPT)
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)


def _record(workload, seed, trace, wall_s=0.5):
    return {
        "provenance": {"workload": workload, "seed": seed, "trace": trace},
        "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}},
    }


def _write(directory, record, name=None):
    prov = record["provenance"]
    name = name or "result-{workload}-seed{seed}-trace{trace}.json".format(**prov)
    (directory / name).write_text(json.dumps(record))


def test_records_are_grouped_by_workload_in_seed_order(tmp_path):
    for workload in ("congruence-quotient", "lie-classify"):
        for seed in (10, 2, 1):  # seed 10 sorts before 2 by name
            _write(tmp_path, _record(workload, seed, 0, wall_s=seed / 10))
        _write(tmp_path, _record(workload, 3, 1))
        _write(tmp_path, _record(workload, 1, 1))
    (tmp_path / "spans-lie-classify-seed1-trace1.json").write_text("{}")
    out = bench_file.workloads(tmp_path)
    assert list(out) == ["congruence-quotient", "lie-classify"]
    for workload, entry in out.items():
        assert [r["provenance"]["seed"] for r in entry["untraced"]] == [1, 2, 10]
        assert entry["untraced"][2]["result"]["metrics"]["wall_s"]["value"] == 1.0
        assert entry["traced"] == _record(workload, 1, 1)


def test_a_workload_without_a_traced_record_is_refused(tmp_path):
    _write(tmp_path, _record("identity-cli", 1, 0))
    with pytest.raises(ValueError, match="identity-cli: needs untraced and traced"):
        bench_file.workloads(tmp_path)


def test_a_record_whose_provenance_disagrees_with_its_name_is_refused(tmp_path):
    record = _record("identity-cli", 2, 0)
    _write(tmp_path, record, "result-identity-cli-seed1-trace0.json")
    with pytest.raises(ValueError, match="provenance does not match"):
        bench_file.workloads(tmp_path)


def test_an_empty_directory_is_refused(tmp_path):
    with pytest.raises(ValueError, match="no result records"):
        bench_file.workloads(tmp_path)


def test_committed_bench_files_have_the_layout():
    root = _SCRIPT.parents[1]
    for path in sorted(root.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        assert payload["label"] == path.stem.removeprefix("BENCH_")
        for workload, entry in payload["workloads"].items():
            assert entry["untraced"] and entry["traced"]["provenance"]["trace"] == 1
            for record in entry["untraced"]:
                assert record["provenance"]["workload"] == workload
                assert record["provenance"]["trace"] == 0
