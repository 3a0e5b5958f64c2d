"""Tests of the benchmark itself: span arithmetic, the oracle, patch hygiene.

Run from the repository root: python3 -m pytest perfbench -q
"""
import inspect
import json
import math
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import darwinlab  # noqa: E402
import darwinlab.cli  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, covered, is_wrapper  # noqa: E402


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_of_nested_spans():
    tr = Tracer()
    root = tr.add_span("cli.main", 0.0, 10.0)
    a = tr.add_span("darwin.build_pip", 1.0, 4.0, root)
    b = tr.add_span("darwin.redundancy", 5.0, 9.0, root)
    tr.add_span("darwin.redundancy", 6.0, 7.0, b)   # same group, nested
    tr.add_span("branching.gram_entropy", 2.0, 2.5, a)
    assert tr.self_times() == [3.0, 2.5, 3.0, 1.0, 0.5]
    assert sum(tr.self_times()) == 10.0
    sp = layers._Spans(tr)
    redundancy = layers._is("darwin.redundancy")
    # a nested span of the same group is one entry into the layer
    assert sp.calls(redundancy) == 1
    assert sp.time(redundancy) == 4.0
    assert sp.self_time(redundancy) == 4.0
    assert sp.nested(layers._is("branching.gram_entropy"), layers._is("cli.main")) == 1


def _fake_redundancy_run(out: Path, r_delta: float) -> None:
    out.mkdir(parents=True)
    csv_text = "f,sharpF,meanI_nats,stddev,samples\n0.0,0,0.0,0.0,1\n"
    (out / "redundancy.csv").write_text(csv_text)
    manifest = {"format": "darwinlab.run.v1", "command": "redundancy",
                "csv": {"file": "redundancy.csv",
                        "sha": oracle.git_blob_sha(csv_text.encode())},
                "report": {"r_delta": r_delta, "h_system_nats": math.log(2.0)}}
    (out / "redundancy.json").write_text(json.dumps(manifest))


def test_wrong_reference_counts_as_failed(tmp_path, monkeypatch):
    op = ops.Op("redundancy-x", "exact", argv=("redundancy", "--seed", "1"))
    record = {"name": op.name, "rc": 0, "error": None, "values": None}
    dirs = [tmp_path / "pass0", tmp_path / "pass1"]
    for d in dirs:
        _fake_redundancy_run(ops.op_dir(d, 0), 20.0)
    good = {"r_delta": 20.0, "h_system_nats": math.log(2.0)}
    wrong = dict(good, r_delta=20.0 + 1e-6)
    monkeypatch.setattr(run, "workload_ops", lambda workload, seed: [op])
    passes = [{"ops": [record]}, {"ops": [record]}]

    def counts(reference):
        refs = {"references": {"w": {"0": {op.name: reference}}}}
        attempted, failed, _ = run.check_passes("w", 0, passes, dirs, refs)
        return attempted, failed

    assert counts(good) == (2, 0)
    assert counts(wrong) == (2, 2)


def test_oracle_catches_checksum_and_rerun_drift(tmp_path):
    op = ops.Op("redundancy-x", "exact", argv=("redundancy",))
    record = {"rc": 0, "error": None, "values": None}
    ref = {"r_delta": 20.0, "h_system_nats": math.log(2.0)}
    first, again = tmp_path / "a", tmp_path / "b"
    _fake_redundancy_run(first, 20.0)
    _fake_redundancy_run(again, 20.0)
    assert oracle.check_execution(op, record, again, ref, (record, first)) == []
    (again / "redundancy.csv").write_text("tampered\n")
    found = oracle.check_execution(op, record, again, ref, (record, first))
    assert any("checksum" in p for p in found)
    assert any("re-run" in p for p in found)
    assert oracle.check_execution(op, dict(record, rc=1), first, ref) == ["exit code 1"]


def test_malformed_output_is_a_failed_op_not_a_crash(tmp_path):
    # a null where a number belongs reaches the physics checks
    for physics, key in [("qbm_redundancy", "r_delta"), ("reversal", "without_copy_fidelity"),
                         ("dust_grain", "r_delta"), ("haar_baseline", "r_delta_mean")]:
        op = ops.Op("x", "exact", lib="stub", physics=physics)
        record = {"rc": 0, "error": None, "values": {key: None}}
        (tmp_path / physics).mkdir()
        found = oracle.check_execution(op, record, tmp_path / physics, {key: 1.0})
        assert f"{key} = None, reference 1.0" in found
        assert any(p.startswith(f"{physics} check raised TypeError") for p in found)
    # the c-not plot check reads a pip.csv that is not there
    op = ops.Op("cnot", "exact", argv=("pip", "--model", "cnot"), physics="cnot_plateau")
    (tmp_path / "empty").mkdir()
    found = oracle.check_execution(op, {"rc": 0}, tmp_path / "empty", {})
    assert any(p.startswith("cnot_plateau check raised FileNotFoundError") for p in found)
    # a manifest that is not JSON
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "pip.json").write_text("{not json")
    found = oracle.check_execution(op, {"rc": 0}, tmp_path / "bad", {})
    assert any(p.startswith("checksum check raised JSONDecodeError") for p in found)
    assert any(p.startswith("reported values unreadable") for p in found)


def test_cli_that_exits_is_a_nonzero_exit(tmp_path, monkeypatch):
    def argparse_exit(argv):
        raise SystemExit(2)   # what argparse does on a flag it does not know

    monkeypatch.setattr(darwinlab.cli, "main", argparse_exit)
    op = ops.Op("bad-flag", "exact", argv=("redundancy", "--no-such-flag"))
    record = worker._run_op(op, None, tmp_path / "op00")
    assert record["rc"] == 2 and record["error"] is None
    assert oracle.check_execution(op, record, tmp_path / "op00", {}) == ["exit code 2"]


def test_tracer_counts_calls_off_its_thread():
    tr = Tracer()
    traced = tr.wrap("f", lambda: 1)
    assert traced() == 1 and tr.foreign_calls == 0
    worker_thread = threading.Thread(target=traced)
    worker_thread.start()
    worker_thread.join()
    assert tr.foreign_calls == 1


def _bindings():
    """Identity of every attribute of every darwinlab module and class."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("darwinlab"):
            continue
        for attr, obj in vars(mod).items():
            seen[name, attr] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("darwinlab"):
                for cattr, cobj in vars(obj).items():
                    seen[f"{obj.__module__}.{obj.__qualname__}", cattr] = cobj
    return seen


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    tr = Tracer()
    layers.instrument(tr, darwinlab)
    try:
        during = _bindings()
        # rebound wherever it is looked up: the sampler in darwin and in cli
        assert is_wrapper(darwinlab.darwin.build_pip)
        assert is_wrapper(darwinlab.cli.build_pip)
        assert is_wrapper(vars(darwinlab.qstate.FragmentSpec)["sorted"])
        assert darwinlab.cli.main(["redundancy", "--model", "cnot", "--n", "12",
                                   "--seed", "0", "--out", str(tmp_path)]) == 0
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(is_wrapper(v) for v in after.values())
    assert sum(is_wrapper(v) for v in during.values()) > 50
    got = layers.compute(tr, bytes_written=1)
    assert set(got) == {name for name, _, _ in layers.METRICS} - {"trace.overhead_ratio"}
    assert got["cli.calls"] == 1
    assert got["branching.gram_per_eval"] == 3.0
    assert 0.0 < got["darwin.mirror_share"] < 1.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(ops.WORKLOADS))
def test_seeds_fold_onto_recorded_slots(workload):
    first = ops.workload_ops(workload, 3)
    assert ops.workload_ops(workload, 3) == first
    assert ops.workload_ops(workload, 3 + ops.SLOTS) == first
    names = [op.name for op in first]
    assert len(names) == len(set(names))
    refs = oracle.load_references()["references"][workload]
    assert sorted(refs, key=int) == [str(s) for s in range(ops.SLOTS)]
    assert all(set(refs[s]) == set(names) for s in refs)
