"""Tests of the benchmark harness itself (not of njordan).

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run._use_checkout_library()


def _inputs(workload: str, seed: int, rounds: int = 2) -> str:
    ops = [op for r in range(rounds) for op in workloads.make_round(workload, seed, r)]
    return json.dumps([dataclasses.asdict(op) for op in ops], sort_keys=True)


def _digests() -> str:
    return json.dumps({w: hashlib.sha256(_inputs(w, 5).encode()).hexdigest() for w in workloads.WORKLOADS})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


def test_inputs_do_not_depend_on_the_process():
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import test_harness as t; print(t._digests())"
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                       env={**os.environ, "PYTHONHASHSEED": str(h)}).stdout.strip().splitlines()[-1]
        for h in (1, 2)
    }
    assert outs == {_digests()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_the_same_class_counts(workload):
    def counts(seed):
        return collections.Counter((op.cls, op.kind) for op in workloads.make_round(workload, seed, 0))

    assert counts(1) == counts(2) == counts(99)


def _family(name: str, seed: int) -> list[workloads.Op]:
    rounds = {"search": lambda rng: workloads.fixed_search() + workloads.search_round(rng),
              "evaluate": workloads.evaluate_round,
              "catalogue": lambda rng: workloads.fixed_catalogue() + workloads.catalogue_round(rng),
              "span": workloads.span_round}
    return rounds[name](random.Random(seed))


def _cheap_ops() -> list[workloads.Op]:
    return [op for op in workloads.fixed_search() if op.cls.startswith("find.zm:5.")]


def test_a_models_round_issues_each_fixed_request_once():
    def key(op):
        return json.dumps([op.kind, op.args], sort_keys=True)

    fixed = {key(op) for op in workloads.fixed_search() + workloads.fixed_catalogue()}
    issued = collections.Counter(key(op) for op in workloads.make_round("models", 1, 0))
    assert all(issued[k] == 1 for k in fixed)
    assert sum(op.kind in ("find", "replay", "examples") or op.args.get("sample_count", 0) is None
               for op in workloads.make_round("models", 1, 0)) == len(fixed)


def test_normalized_time_follows_the_reference_speed():
    probe = speed.Probe()
    probe.times = [10.0, 11.0, 20.0, 21.0]
    probe.seconds = [speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert probe.normalize(10.2, 0.5) == pytest.approx(0.5)
    assert probe.normalize(20.2, 0.5) == pytest.approx(0.25)
    probe.sample()
    assert probe.seconds[-1] > 0


def test_flipped_verdict_raise_and_guard_refusal_fail_the_run(monkeypatch, capsys):
    ops = _cheap_ops()
    ops[0].expect["indices"] = ops[0].expect["indices"][:-1]
    ops.append(workloads.Op("bogus", "search", {**ops[1].args, "dom": "zm:5", "cod": "zm:5", "predicate": "nope",
                                                "sample_count": None, "seed": 0, "limit": 10}, {"indices": []}))
    ops.append(workloads.Op("guard", "search", {"dom": "mat:2x2@5", "cod": "mat:2x2@5", "predicate": "jordan_not_ring",
                                                "n": 2, "limit": 10, "sample_count": None, "seed": 0},
                            {"indices": []}))
    monkeypatch.setattr(workloads, "make_round", lambda workload, seed, index: ops)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "models", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == len(ops)
    assert result["failed"] == 3


def test_unflipped_cheap_run_passes(monkeypatch, capsys):
    ops = _cheap_ops()
    monkeypatch.setattr(workloads, "make_round", lambda workload, seed, index: ops)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "models", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "njordan" or name.startswith("njordan."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("njordan"):
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def _traced_ops() -> list[workloads.Op]:
    span, evaluate, catalogue, search = (_family(name, 2) for name in ("span", "evaluate", "catalogue", "search"))
    return ([next(op for op in span if op.cls == f"n3.xyz.c1.nc.Q.{m}") for m in ("member", "non")]
            + [op for op in evaluate if op.cls == "p5.S2"][:2]
            + [next(op for op in catalogue if op.kind == k) for k in ("replay", "theorem27", "corollary26", "negation")]
            + [op for op in search if op.cls.startswith("sample.upper:3@2.njordan_not_nring")][:1])


def _traced_counts(ops) -> dict:
    built = workloads.setup("models")
    with tracing.Tracer() as tracer:
        for op in ops:
            assert workloads.check(op, workloads.execute(op, built))
    assert not tracer.missing
    return tracer.layer_metrics()


def test_wrappers_are_installed_and_then_removed():
    workloads.setup("models")
    before = _bindings()
    with tracing.Tracer() as tracer:
        during = _bindings()
    assert tracer._saved == []
    changed = {k for k in before if before[k] is not during.get(k)}
    assert ("njordan.derivation", "substitute") in changed  # re-imported name
    assert ("njordan", "consequence_check") in changed  # package re-export
    assert ("njordan.models", "FiniteRing", "mul_batch") in changed
    assert ("njordan.freealg", "FreePoly", "__pow__") in changed
    _traced_counts(_traced_ops())
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_listed_counters_repeat_exactly():
    first = _traced_counts(_traced_ops())
    second = _traced_counts(_traced_ops())
    for name in tracing.EXACT_COUNTERS:
        assert first[name] == second[name] > 0, name
    assert first["models.ring_build.calls"] == second["models.ring_build.calls"] > 0


def test_power_map_key_matches_brute_force():
    for k in (1, 2):
        every = [[list(r) for r in rows]
                 for rows in itertools.product(answers.elements(5, k), repeat=k)]
        for n in (2, 3, 4, 5):
            brute = sorted(answers.matrix_index(mat, 5) for mat in every
                           if answers.is_n_jordan(f"zm:5^{k}" if k > 1 else "zm:5", f"zm:5^{k}" if k > 1 else "zm:5",
                                                  mat, n))
            assert brute == answers.njordan_map_indices(5, k, n), (k, n)
    assert len(workloads.P5_CUBE_MAPS) == 25
    assert all(answers.is_n_jordan("zm:5^2", "zm:5^2", mat, 3) for mat in workloads.P5_CUBE_MAPS)


def test_span_invariants_separate_known_cases():
    sym = answers.instance({"x": 1, "y": 1, "z": 1}, 3, "nc")
    assert answers.satisfies_span_invariants(*sym, "nc", None)
    single = ({("x", "y", "z"): 1}, {("x", "y", "z"): 1})
    assert not answers.satisfies_span_invariants(single[0], single[1], "nc", None)
    assert answers.satisfies_span_invariants(single[0], single[1], "c", None)


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_without_library_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "span", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
