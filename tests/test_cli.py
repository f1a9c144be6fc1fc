import json
import math
import os
import subprocess
import sys

import pytest

from commcalc import brown as br
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

    def test_integer_past_the_float_range(self, capsys, tmp_path):
        op = sz.op_to_json(pair_op())
        op["segments"][0]["coeff"] = 10 ** 400
        path = write_query(tmp_path, operator=op,
                           module_I=sz.module_to_json(md.F()))
        code, out, err = run(capsys, ["member", "--input", path])
        assert code == 1 and out == ""
        assert err == ("commcalc: query.operator.segments[0].coeff: expected"
                       " a number within the float range\n")

    @pytest.mark.parametrize("logscale", [0, -1])
    def test_nonpositive_operator_logscale(self, capsys, tmp_path, logscale):
        op = sz.op_to_json(pair_op())
        op["segments"][0].update(pow=0.5, logpow=1.0, logscale=logscale)
        path = write_query(tmp_path, operator=op,
                           module_I=sz.module_to_json(md.F()))
        code, out, err = run(capsys, ["member", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith(
            "commcalc: query.operator.segments[0].logscale:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_nonpositive_generator_logscale(self, capsys, tmp_path):
        gen = [{"lo": 0.0, "hi": 0.5, "coeff": 1.0, "pow": 1.0,
                "logpow": 2.0, "logscale": -2.0}]
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I={"kind": "Principal", "gen": gen})
        code, out, err = run(capsys, ["member", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith("commcalc: query.module_I.gen[0].logscale:")
        assert "Traceback" not in err and err.count("\n") == 1

    # a log term whose scale is a segment end has a pole there, which the
    # monotonicity probes inside the segment never reach
    @pytest.mark.parametrize("segs, p, command", [
        (((0.0, 1.0, 2.0, 0.0, 0.0), (1.0, 2.0, 1.0, 0.0, 0.001)), 1.0,
         cmd) for cmd in ("mu", "member")] + [
        (((0.0, 1.0, 5e-324, 1.5, 1.0), (1.0, 3.0, 5e-324, -0.5, 0.5)), 0.5,
         cmd) for cmd in ("member", "witness")])
    def test_log_pole_at_a_segment_end(self, capsys, tmp_path, segs, p,
                                       command):
        op = {"factor_type": "II_inf", "segments": [
            {"lo": lo, "hi": hi, "coeff": c, "pow": g, "logpow": d,
             "phase_re": 1.0, "phase_im": 0.0} for lo, hi, c, g, d in segs]}
        path = write_query(tmp_path, operator=op,
                           module_I=sz.module_to_json(md.Lp(p)))
        code, out, err = run(capsys, [command, "--input", path,
                                      "--out", str(tmp_path / "out")])
        assert code == 1 and out == ""
        assert err.startswith("commcalc: query.operator: log-power segment")
        assert "has a pole at its scale 1" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_zero_coefficient_record_is_validated(self, capsys, tmp_path):
        op = sz.op_to_json(pair_op())
        op["segments"].append({"lo": 5.0, "hi": 6.0, "phase_re": 1.0,
                               "phase_im": 0.0, "coeff": 0, "pow": "x"})
        path = write_query(tmp_path, operator=op,
                           module_I=sz.module_to_json(md.F()))
        code, out, err = run(capsys, ["member", "--input", path])
        assert code == 1 and out == ""
        assert "query.operator.segments[2].pow" in err

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

    @pytest.mark.parametrize("command", ["mu", "witness"])
    def test_K_past_the_float_range(self, capsys, tmp_path, command):
        # the grid reaches 2^K, and 2.0 ** 1024 overflows
        path = write_query(tmp_path, operator=sz.op_to_json(pair_op()),
                           module_I=sz.module_to_json(md.F()))
        for K in ("1024", "1030"):
            code, out, err = run(capsys, [command, "--input", path,
                                          "--K", K])
            assert (code, out) == (1, "")
            assert err == ("commcalc: --grid must be positive and --K from 1"
                           " to 1023\n")
        outdir = tmp_path / "o"
        code, _, err = run(capsys, [command, "--input", path, "--grid", "1",
                                    "--K", "1023", "--out", str(outdir)])
        assert (code, err) == (0, "")
        name = "mu.csv" if command == "mu" else "phi.csv"
        rows = (outdir / name).read_text().split("\n")[1:-1]
        assert len(rows) == 2047
        assert rows[0].startswith("1.1125369292536007e-308,")

    def test_phi_csv(self, capsys, tmp_path):
        # the witness of t^-1.5 against L_1/2 is decided; its phi = h +
        # mu(T) overflows at 2^-700 on the --K grid
        path = write_query(tmp_path, operator=power_head(1.5),
                           module_I=sz.module_to_json(md.Lp(0.5)))
        outdir = tmp_path / "w"
        code, out, err = run(capsys, ["witness", "--input", path,
                                      "--out", str(outdir), "--K", "700"])
        assert (code, out) == (1, "")
        assert err == ("commcalc: query.operator: phi(1.90109156629516e-211)"
                       " overflows a float\n")
        assert not outdir.exists()

    def test_brown(self, capsys, tmp_path):
        path = write_query(tmp_path, operator=power_head(20.0),
                           module_I=sz.module_to_json(md.Lp(1.0)))
        code, out, err = run(capsys, ["brown", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith("commcalc: query.operator: |T| overflows a"
                              " float at t=")

    def big_L2_query(self, tmp_path):
        # the L_2 integral of mu overflows in (1e200)^2 but is finite
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1e200),)),
                        df.Seg(1.0, df.INF, (df.Term(1e200, 1.01),))])
        return write_query(tmp_path, operator=sz.op_to_json(T),
                           module_I=sz.module_to_json(md.Lp(2.0)))

    def test_brown_of_a_head_below_the_square_root_of_the_least_float(
            self, capsys, tmp_path):
        # 1 + 1e-9 |log t|^0.001 on (0, 1e-300): the midpoints of its
        # chunks underflow as products, and 0 is no point of a chunk; they
        # are products of square roots, the deepest from the least float
        T = so.make_op([df.Seg(0.0, 1e-300, (df.Term(1.0),
                                             df.Term(1e-9, 0.0, -0.001))),
                        df.Seg(1e-300, 1.0, (df.Term(0.5),))])
        path = write_query(tmp_path, operator=sz.op_to_json(T))
        code, out, err = run(capsys, ["brown", "--input", path])
        assert code == 0 and err == ""
        atoms = json.loads(out)["brown"]
        assert atoms[-1] == {"re": 0.5, "im": 0.0, "mass": 1.0}
        assert all(1.0 < a["re"] < 1.0 + 1e-8 for a in atoms[:-1])
        assert math.isclose(sum(a["mass"] for a in atoms[:-1]), 1e-300)
        assert br._midpoint(2.0, 8.0) == 4.0
        assert br._midpoint(1e-200, 4e-200) == math.sqrt(1e-200) \
            * math.sqrt(4e-200)
        assert 0.0 < br._midpoint(0.0, 1e-310) < 1e-310

    def test_brown_member_F(self, capsys, tmp_path):
        outdir = tmp_path / "b"
        code, _, err = run(capsys, ["brown", "--input",
                                    self.big_L2_query(tmp_path),
                                    "--out", str(outdir)])
        assert code == 0 and err == ""
        assert json.loads((outdir / "brown.json").read_text())["brown"]
        dec = json.loads((outdir / "member_F.json").read_text())["decision"]
        assert dec["answer"] == "member"

    def test_member_of_an_overflowing_L2_integral(self, capsys, tmp_path):
        code, out, err = run(capsys, ["member", "--input",
                                      self.big_L2_query(tmp_path)])
        assert code == 0 and err == ""
        assert json.loads(out)["decision"]["answer"] == "member"


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

    @pytest.mark.parametrize("factor, module, message", [
        (so.II_INF, {"kind": "Nope"},
         "query.module_I.kind: unknown module kind 'Nope'"),
        (so.II_1, sz.module_to_json(md.F(so.II_1)),
         "query: member_F needs the semifinite model"),
    ], ids=["bad_module", "ii1_module"])
    def test_failing_query_writes_nothing(self, capsys, tmp_path, factor,
                                          module, message):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], factor)
        path = write_query(tmp_path, operator=sz.op_to_json(T),
                           module_I=module)
        outdir = tmp_path / "b"
        code, out, err = run(capsys, ["brown", "--input", path,
                                      "--out", str(outdir)])
        assert (code, out, err) == (1, "", "commcalc: %s\n" % message)
        assert not outdir.exists()

    def test_ii1_measure_only(self, capsys, tmp_path):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], so.II_1)
        path = write_query(tmp_path, operator=sz.op_to_json(T))
        outdir = tmp_path / "b"
        code, out, err = run(capsys, ["brown", "--input", path,
                                      "--out", str(outdir)])
        assert (code, err) == (0, "")
        assert os.listdir(outdir) == ["brown.json"]
        assert (outdir / "brown.json").read_text() == out
        assert len(json.loads(out)["brown"]) == 2

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
        assert code == 0 and err == ""
        json.loads((outdir / "brown.json").read_text())
        doc = json.loads((outdir / "member_F.json").read_text())
        assert doc["decision"]["answer"] == "member"


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

    def test_repeated_main_matches_fresh_processes(self, capsysbinary,
                                                   tmp_path):
        # one process runs main again and again with mixed flags; each
        # call writes what the same command writes in a fresh process
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),)),
                        df.Seg(1.0, df.INF, (df.Term(1.0, 0.6),))])
        I = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
        path = write_query(tmp_path, operator=sz.op_to_json(T),
                           module_I=sz.module_to_json(I))

        def calls(out):
            return [["member", "--input", path, "--format", "text",
                     "--out", str(out)],
                    ["member", "--input", path],
                    ["member", "--input", path, "--grid", "0"],
                    ["member", "--input", path]]

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = []
        for argv in calls(tmp_path / "fresh")[:3]:
            proc = subprocess.run([sys.executable, "-m", "commcalc.cli"]
                                  + argv, capture_output=True, env=env)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [f[0] for f in fresh] == [0, 0, 1]
        for argv, want in zip(calls(tmp_path / "same"), fresh + fresh[1:2]):
            code = cli.main(argv)
            got = capsysbinary.readouterr()
            assert (code, got.out, got.err) == want
        assert ((tmp_path / "same" / "member.txt").read_bytes()
                == (tmp_path / "fresh" / "member.txt").read_bytes())
