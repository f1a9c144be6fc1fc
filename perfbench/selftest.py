"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(the file name keeps it out of the library's default test collection).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _take(name, seed, n):
    out = []
    for batch in workloads.rounds(name, seed):
        out += batch
        if len(out) >= n:
            return out[:n]


def _dump(qs):
    return [json.dumps([q.qid, q.command, q.doc, list(q.argv), q.matrix,
                        q.expect, q.extra], sort_keys=True) for q in qs]


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic(name):
    assert _dump(_take(name, 7, 60)) == _dump(_take(name, 7, 60))


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_documents(name):
    qa, qb = _take(name, 7, 80), _take(name, 8, 80)
    for x, y in zip(qa, qb):
        # round 0 holds the golden rows verbatim for every seed
        if x.qid.startswith("r0/golden/"):
            assert x.qid == y.qid
            assert _dump([x]) == _dump([y])
        else:
            assert _dump([x]) != _dump([y])


@pytest.mark.parametrize("name", NAMES)
def test_no_document_repeats_within_a_run(name):
    bodies = [json.dumps(json.loads(d)[2:5])
              for d in _dump(_take(name, 3, 400))]
    assert len(set(bodies)) == len(bodies)


def _shape(q):
    """The cost-setting size of a query: atom or segment count (the parser
    drops zero-coefficient segments), oracle dimension, or matrix order."""
    if q.matrix is not None:
        return q.kind, len(q.matrix)
    if "dims" in q.doc:
        return q.kind, tuple(q.doc["dims"])
    return q.kind, sum(1 for g in q.doc["operator"]["segments"]
                       if g["coeff"] != 0.0)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_rounds_match_traced_costs(name):
    w = workloads.WORKLOADS[name]
    for k in range(w.trace_rounds):
        traced = w.round(workloads.round_rng(name, 5, k), k)
        plain = w.round(workloads.round_rng(name, 5, 100000 + k), k, "u")
        assert sorted(map(_shape, traced)) == sorted(map(_shape, plain))
        bodies = [{json.dumps(json.loads(d)[2:5]) for d in _dump(qs)}
                  for qs in (traced, plain)]
        assert not bodies[0] & bodies[1]


@pytest.mark.parametrize("name", NAMES)
def test_every_round_has_the_same_mix(name):
    w = workloads.WORKLOADS[name]
    mixes = [sorted((q.kind, q.command, str(q.expect)[:8])
                    for q in w.round(workloads.round_rng(name, 3, k), k, tag))
             for k in range(4) for tag in ("r", "u")]
    assert all(m == mixes[0] for m in mixes)


def test_golden_rows_match_the_table():
    from commcalc import cli

    table = [(r["id"], r["expected"]) for r in cli.run_table("all")]
    ours = [(rid, expected) for rid, _, expected in workloads.golden_rows()]
    assert ours == table


KNOWN_CRASHES = {"lp_one_fs_witness", "lp_one_b_witness", "example_iii"}


def test_scaled_golden_rows_keep_their_answers(tmp_path):
    runner = harness.Runner(str(tmp_path))
    for k in (0, 1, 2):
        crashed = set()
        for q in workloads.golden_queries(
                workloads.round_rng("decide-powerlog", 4, k), k):
            res = harness.check(q, runner.run(q), {})
            assert not res.wrong, (q.qid, res.failure)
            if res.failure:
                crashed.add(q.qid.rsplit("/", 1)[1])
        assert crashed == KNOWN_CRASHES


# ---------------------------------------------------------------------------
# reference checks flag wrong answers


def _decision(answer):
    doc = {"schema_version": "1", "type": "decision",
           "decision": {"answer": answer}}
    return (json.dumps(doc) + "\n").encode()


def _res(q, output, rc=0, error=""):
    return harness.Result(q.qid, q.kind, 0.001, rc, output, error)


def _q(command, expect, qid="q", extra=None):
    return workloads.Query(qid, "k", command, {}, expect=expect,
                           extra=extra or {})


def test_golden_reference_flags_wrong_answer():
    q = _q("member", "not_member")
    assert not harness.check(q, _res(q, _decision("not_member")), {}).failure
    bad = harness.check(q, _res(q, _decision("member")), {})
    assert bad.failure and bad.wrong


def test_inconclusive_is_counted_not_failed():
    q = _q("member", "member")
    res = harness.check(q, _res(q, _decision("inconclusive"), rc=2), {})
    assert not res.failure and res.inconclusive
    res = harness.check(q, _res(q, _decision("inconclusive"), rc=0), {})
    assert res.failure


def test_consistency_law_flags_disagreement():
    qa, qb = _q("member", None, "a"), _q("witness", ("same_as", "a"), "b")
    a = harness.check(qa, _res(qa, _decision("member")), {})
    ok = harness.check(qb, _res(qb, _decision("member")), {"a": a})
    assert not ok.failure
    bad = harness.check(qb, _res(qb, _decision("not_member")), {"a": a})
    assert bad.failure and bad.wrong


def _brown_out(atoms, answer=None):
    out = json.dumps({"schema_version": "1", "type": "brown",
                      "brown": atoms}) + "\n"
    if answer:
        out += _decision(answer).decode()
    return out.encode()


def test_brown_certificate_flags_wrong_verdict():
    q = _q("brown", "member")
    atoms = [{"re": 1.0, "im": 0.0, "mass": 1.0}]
    assert not harness.check(q, _res(q, _brown_out(atoms, "member")),
                             {}).failure
    bad = harness.check(q, _res(q, _brown_out(atoms, "not_member")), {})
    assert bad.failure and bad.wrong


def test_brown_mass_flags_wrong_head_mass():
    q = _q("brown", "brown_mass",
           extra={"level": 1.0, "head_mass": 1.0, "total_mass": 5.0})
    good = [{"re": 1.0, "im": 0.0, "mass": 1.0},
            {"re": 0.0, "im": 0.75, "mass": 3.0},
            {"re": 0.5, "im": 0.0, "mass": 1.0}]
    assert not harness.check(q, _res(q, _brown_out(good)), {}).failure
    for bad in ([dict(a, mass=a["mass"] * 0.5) for a in good],
                good[1:], [dict(good[0], re=0.9)] + good[1:]):
        res = harness.check(q, _res(q, _brown_out(bad)), {})
        assert res.failure and res.wrong


def test_oracle_flags_failures():
    q = _q("oracle", "oracle_clean")

    def out(failures):
        return (json.dumps({"schema_version": "1", "type": "oracle",
                            "oracle": {"failures": failures}}) + "\n").encode()

    assert not harness.check(q, _res(q, out([])), {}).failure
    bad = harness.check(q, _res(q, out([{"dim": 2, "trial": 0}])), {})
    assert bad.failure and bad.wrong


def test_shoda_flags_large_residual():
    q = _q("shoda", "shoda_residual")

    def out(resid):
        return json.dumps({"residual": resid, "norm": 10.0}).encode()

    assert not harness.check(q, _res(q, out(1e-12)), {}).failure
    bad = harness.check(q, _res(q, out(1e-6)), {})
    assert bad.failure and bad.wrong


def test_crashes_exit_1_and_garbage_fail():
    q = _q("member", "member")
    assert harness.check(q, _res(q, b"", rc=None, error="TypeError: x"),
                         {}).failure
    assert harness.check(q, _res(q, b"", rc=1, error="bad input"),
                         {}).failure
    assert harness.check(q, _res(q, b"{not json"), {}).failure


def test_failed_query_counts_as_slowest():
    q = _q("member", "member")
    fast = [harness.check(q, _res(q, _decision("member")), {})
            for _ in range(9)]
    crash = harness.check(q, _res(q, b"", rc=None, error="E: x"), {})
    s = harness.summarize(fast + [crash], busy_s=0.01, elapsed_s=5.0)
    assert s["query_p90_ms"] == pytest.approx(1.0)
    assert harness.percentile(sorted([0.001] * 9 + [5.0]), 1.0) == 5.0
    assert s["failed"] == 1 and s["answered_frac"] == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# whole runs


def _run(name, seed, trace, seconds=2, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


COUNT_SUFFIXES = (".calls", ".segments_out", ".atoms_out", ".svd_calls",
                  ".report_bytes", ".trials", ".quad_warnings")


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    (d1, r1), (d2, r2) = _run(name, 5, 1), _run(name, 5, 1)
    assert set(r1["metrics"]) == set(tracing.metric_names())
    counts = [k for k in r1["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: r1["metrics"][k]["value"] for k in counts} == \
        {k: r2["metrics"][k]["value"] for k in counts}
    assert d1["digest"] == d2["digest"]
    m = r1["metrics"]
    self_total = sum(v["value"] for k, v in m.items()
                     if k.endswith(".self_s"))
    assert self_total <= m["bench.query.wall_s"]["value"] * (1 + 1e-9)


def test_timed_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    details, res = _run("oracle-matrix", 2, 0, seconds=1)
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    round_len = len(workloads.oracle_round(
        workloads.round_rng("oracle-matrix", 2, 0), 0))
    assert res["attempted"] == details["rounds"] * round_len
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert res["correct"] and res["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
