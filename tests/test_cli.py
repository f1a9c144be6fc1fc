import json
import math
import os

import pytest

from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import serialize as sz
from commcalc import specop as so


def write_query(tmp_path, name="query.json", **fields):
    doc = {"schema_version": sz.SCHEMA_VERSION}
    doc.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def pair_op():
    return so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputErrors:
    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, ["member"])
        assert code == 1 and "--input" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["member", "--input",
                                    str(tmp_path / "nope.json")])
        assert code == 1 and "nope.json" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["member", "--input", str(path)])
        assert code == 1 and "malformed JSON" in err

    def test_schema_version_required(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"operator": {}}))
        code, _, err = run(capsys, ["member", "--input", str(path)])
        assert code == 1 and "schema_version" in err

    def test_path_precise_schema_error(self, capsys, tmp_path):
        op = sz.op_to_json(pair_op())
        op["segments"][0]["coeff"] = "x"
        path = write_query(tmp_path, operator=op,
                           module_I=sz.module_to_json(md.F()))
        code, _, err = run(capsys, ["member", "--input", path])
        assert code == 1
        assert "query.operator.segments[0].coeff" in err

    def test_bad_tol_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMMCALC_TOL", "zero")
        path = write_query(tmp_path, suite="snumb", dims=[2], trials=1)
        code, _, err = run(capsys, ["oracle", "--input", path])
        assert code == 1 and "COMMCALC_TOL" in err


class TestMember:
    def test_member_pair(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()))
        code, out, _ = run(capsys, ["member", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "decision"
        assert doc["decision"]["answer"] == "member"

    def test_not_member_exits_zero(self, capsys, tmp_path):
        path = write_query(
            tmp_path, operator=sz.op_to_json(so.from_atoms([(1.0, 1.0)])),
            module_I=sz.module_to_json(md.F()))
        code, out, _ = run(capsys, ["member", "--input", path])
        assert code == 0
        assert json.loads(out)["decision"]["answer"] == "not_member"

    def test_f_plus_relation(self, capsys, tmp_path):
        path = write_query(
            tmp_path, operator=sz.op_to_json(so.from_atoms([(1.0, 1.0)])),
            module_I=sz.module_to_json(md.FsPart(md.Lp(2.0))),
            relation="F_plus")
        code, out, _ = run(capsys, ["member", "--input", path])
        assert code == 0
        assert json.loads(out)["decision"]["answer"] == "member"

    def test_unknown_relation(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()),
                           relation="weird")
        code, _, err = run(capsys, ["member", "--input", path])
        assert code == 1 and "relation" in err

    def test_ii1_dispatch(self, capsys, tmp_path):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], so.II_1)
        path = write_query(tmp_path, operator=sz.op_to_json(T),
                           module_I=sz.module_to_json(md.M(so.II_1)),
                           module_J=sz.module_to_json(md.M(so.II_1)))
        code, out, _ = run(capsys, ["member", "--input", path])
        assert code == 0
        dec = json.loads(out)["decision"]
        assert dec["answer"] == "member"
        assert dec["certificate"]["total_count"] == 12

    def test_out_dir(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()))
        outdir = tmp_path / "artifacts"
        code, out, _ = run(capsys, ["member", "--input", path,
                                    "--out", str(outdir)])
        assert code == 0
        on_disk = (outdir / "member.json").read_text()
        assert on_disk == out


class TestEmitReport:
    def test_member_text_budget_line(self):
        dec = cm.member_IIinf(pair_op(), md.F(), md.M())
        text = cli.emit_report(dec, "text").decode("utf-8")
        assert "answer: member" in text
        assert "14 commutators" in text

    def test_ii1_text_budget_line(self):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], so.II_1)
        dec = cm.member_II1(T, md.M(so.II_1), md.M(so.II_1))
        text = cli.emit_report(dec, "text").decode("utf-8")
        assert "12 commutators" in text

    def test_obstruction_coordinates(self):
        dec = cm.member_F_plus(cli._log_witness_fs(), md.Lp(1.0))
        assert dec.answer == "not_member"
        text = cli.emit_report(dec, "text").decode("utf-8")
        assert "obstruction:" in text
        assert "r:" in text and "required:" in text

    def test_obstruction_side_only(self):
        dec = cm.member_IIinf(so.from_atoms([(1.0, 1.0)]), md.Lp(1.0),
                              md.M())
        text = cli.emit_report(dec, "text").decode("utf-8")
        assert "obstruction:" in text and "side:" in text

    def test_byte_deterministic(self):
        dec = cm.member_IIinf(pair_op(), md.F(), md.M())
        for fmt in ("json", "text", "csv"):
            assert cli.emit_report(dec, fmt) == cli.emit_report(dec, fmt)

    def test_csv_shape(self):
        dec = cm.member_IIinf(pair_op(), md.F(), md.M())
        data = cli.emit_report(dec, "csv").decode("utf-8")
        lines = data.split("\n")
        assert lines[0] == "key,value"
        assert not data.endswith("\r\n")

    def test_json_reparses(self):
        dec = cm.member_IIinf(pair_op(), md.F(), md.M())
        doc = json.loads(cli.emit_report(dec, "json"))
        assert doc["schema_version"] == sz.SCHEMA_VERSION
        assert doc["decision"]["certificate"]["total_count"] == 14


class TestMu:
    def test_csv_samples(self, capsys, tmp_path):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))])
        path = write_query(tmp_path, operator=sz.op_to_json(T))
        code, out, _ = run(capsys, ["mu", "--input", path, "--format",
                                    "csv", "--grid", "1", "--K", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        rows = [line.split(",") for line in lines[1:]]
        ts = [float(r[0]) for r in rows]
        assert ts == [0.25, 0.5, 1.0, 2.0, 4.0]
        assert abs(float(rows[0][1]) - 0.25 ** -0.5) < 1e-12
        assert float(rows[-1][1]) == 0.0

    def test_ii1_grid_stays_inside_unit_interval(self, capsys, tmp_path):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], so.II_1)
        path = write_query(tmp_path, operator=sz.op_to_json(T))
        code, out, _ = run(capsys, ["mu", "--input", path, "--format",
                                    "csv", "--grid", "1", "--K", "3"])
        assert code == 0
        ts = [float(line.split(",")[0])
              for line in out.strip().split("\n")[1:]]
        assert 0.0 < min(ts) and max(ts) < 1.0

    def test_json_and_out_dir(self, capsys, tmp_path):
        T = pair_op()
        path = write_query(tmp_path, operator=sz.op_to_json(T))
        outdir = tmp_path / "o"
        code, out, _ = run(capsys, ["mu", "--input", path, "--out",
                                    str(outdir), "--grid", "1", "--K", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "samples"
        assert (outdir / "mu.json").exists()
        assert (outdir / "mu.csv").read_text().startswith("t,value\n")


def power_head(pow):
    """t^-pow on (0, 1): its profile overflows a float near 0."""
    return sz.op_to_json(so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, pow),))]))


class TestFloatOverflow:
    """A value beyond the float range is an input error (exit 1) and
    never reported as an infinite value."""

    def test_mu(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=power_head(60.0))
        code, out, err = run(capsys, ["mu", "--input", path])
        assert code == 1 and out == ""
        assert err == ("commcalc: query.operator: mu(9.5367431640625e-07)"
                       " overflows a float\n")

    def test_brown(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=power_head(20.0),
                           module_I=sz.module_to_json(md.Lp(1.0)))
        code, out, err = run(capsys, ["brown", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith("commcalc: query.operator: |T| overflows a"
                              " float at t=")


class TestWitness:
    def test_witness_report(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()))
        outdir = tmp_path / "w"
        code, out, _ = run(capsys, ["witness", "--input", path,
                                    "--out", str(outdir)])
        assert code == 0
        cert = json.loads(out)["decision"]["certificate"]
        assert cert["beta0_interval"] is not None
        assert (outdir / "phi.csv").exists()


class TestBrown:
    def test_measure_only(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()))
        code, out, _ = run(capsys, ["brown", "--input", path])
        assert code == 0
        atoms = json.loads(out)["brown"]
        masses = {(a["re"], a["im"]): a["mass"] for a in atoms}
        assert abs(masses[(1.0, 0.0)] - 1.0) < 1e-9
        assert abs(masses[(-1.0, 0.0)] - 1.0) < 1e-9

    def test_with_module(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.Lp(1.0)))
        code, out, _ = run(capsys, ["brown", "--input", path])
        assert code == 0
        assert '"answer": "member"' in out

    def test_principal_module_with_log_ends(self, capsys, tmp_path):
        # gen: t^-1 L^-1 on (0, e^-2), a constant up to e^2, then
        # c t^-1 L^-2 (L = |log t|), each half the level before it
        lo, hi = math.exp(-2.0), math.exp(2.0)
        head = df.Term(1.0, 1.0, 1.0)
        c = head.value(lo) / 2.0
        gen = df.make([df.Seg(0.0, lo, (head,)),
                       df.Seg(lo, hi, (df.Term(c),)),
                       df.Seg(hi, df.INF, (df.Term(2.0 * c * hi, 1.0, 2.0),))])
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0),)),
                        df.Seg(1.0, 2.0, (df.Term(1.0),), -1.0)])
        path = write_query(tmp_path, operator=sz.op_to_json(T),
                           module_I=sz.module_to_json(md.Principal(gen)))
        outdir = tmp_path / "b"
        code, _, err = run(capsys, ["brown", "--input", path,
                                    "--out", str(outdir)])
        assert code in (0, 2) and err == ""
        for name in ("brown.json", "member_F.json"):
            json.loads((outdir / name).read_text())


class TestOracle:
    def test_snumb(self, capsys, tmp_path):
        path = write_query(tmp_path, suite="snumb", dims=[2, 4], trials=5)
        code, out, _ = run(capsys, ["oracle", "--input", path,
                                    "--seed", "11"])
        assert code == 0
        rep = json.loads(out)["oracle"]
        assert rep["failures"] == [] and rep["min_margin"] >= 0.0

    def test_missing_suite(self, capsys, tmp_path):
        path = write_query(tmp_path, dims=[2])
        code, _, err = run(capsys, ["oracle", "--input", path])
        assert code == 1 and "suite" in err

    @pytest.mark.parametrize("fields, path", [
        ({"suite": "nope"}, "query.suite"),
        ({"suite": "snumb", "dims": [0]}, "query.dims[0]"),
        ({"suite": "snumb", "dims": [2, True]}, "query.dims[1]"),
        ({"suite": "snumb", "dims": [2.0]}, "query.dims[0]"),
        ({"suite": "snumb", "dims": "ab"}, "query.dims"),
        ({"suite": "snumb", "dims": []}, "query.dims"),
        ({"suite": "snumb", "dims": [2], "trials": True}, "query.trials"),
        ({"suite": "snumb", "dims": [2], "trials": 0}, "query.trials"),
        ({"suite": "lemma_nec", "dims": [2], "trials": 1, "N": 0},
         "query.N"),
        ({"suite": "lemma_nec", "dims": [2], "trials": 1, "N": "2"},
         "query.N"),
    ])
    def test_bad_field_names_its_path(self, capsys, tmp_path, fields, path):
        qpath = write_query(tmp_path, **fields)
        code, _, err = run(capsys, ["oracle", "--input", qpath])
        assert code == 1 and path + ":" in err

    def test_tol_env_applies(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMMCALC_TOL", "1e-6")
        path = write_query(tmp_path, suite="snumb", dims=[2], trials=2)
        code, out, _ = run(capsys, ["oracle", "--input", path])
        assert code == 0
        assert json.loads(out)["oracle"]["failures"] == []

    def test_text_format(self, capsys, tmp_path):
        path = write_query(tmp_path, suite="soplus", dims=[3], trials=2)
        code, out, _ = run(capsys, ["oracle", "--input", path,
                                    "--format", "text"])
        assert code == 0
        assert "failures: 0" in out


class TestTable:
    def test_all_rows_ok(self, capsys):
        code, out, _ = run(capsys, ["table"])
        assert code == 0
        rows = json.loads(out)["table"]
        assert rows and all(r["ok"] for r in rows)

    def test_lp_table_covers_six_relations(self, capsys):
        import csv as csv_mod
        import io

        code, out, _ = run(capsys, ["table", "lp", "--format", "csv"])
        assert code == 0
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert rows[0] == ["id", "relation", "query", "expected",
                           "answer", "ok"]
        relations = {r[1] for r in rows[1:]}
        assert {"[(L_1/2)_fs,M] = (L_1/2)_fs",
                "[(L_1/2)_b,M] = (L_1/2)_b n ker tau",
                "F + [(L_1)_fs,M] != (L_1)_fs",
                "F + [(L_1)_b,M] != (L_1)_b",
                "[(L_2)_fs,M] = (L_2)_fs n ker tau",
                "[(L_2)_b,M] = (L_2)_b"} <= relations
        assert all(r[5] == "true" for r in rows[1:])

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, ["table", "f", "--format", "text"])
        assert code == 0
        assert "MISMATCH" not in out
        assert "f_zero_trace_pair" in out

    def test_unknown_table(self, capsys):
        code, _, err = run(capsys, ["table", "weird"])
        assert code == 1 and "unknown table" in err

    def test_examples_verdicts(self):
        rows = cli.run_table("examples")
        by_id = {r["id"]: r for r in rows}
        assert by_id["example_i"]["answer"] == "member"
        assert by_id["example_ii_trace"]["answer"] == "not_member"
        assert by_id["example_iii"]["answer"] == "not_member"
        assert all(r["ok"] for r in rows)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()))
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["member", "--input", path])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
