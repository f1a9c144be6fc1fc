import json
import math

import numpy as np
import pytest

from commcalc import brown as br
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import serialize as sz
from commcalc import specop as so


def random_plfun(rng, domain_hi=df.INF):
    cuts = np.sort(rng.uniform(0.2, 8.0, size=3))
    vals = sorted(rng.uniform(0.1, 3.0, size=3), reverse=True)
    pairs = [(float(c), float(v)) for c, v in zip(cuts, vals)]
    return df.step_fun(pairs, domain_hi)


class TestPlfunRoundTrip:
    def test_step(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_plfun(rng)
            g = sz.plfun_from_json(sz.plfun_to_json(f))
            assert g == f

    def test_power_log(self):
        f = df.power_fun(2.0, 1.0, 2.0, hi=0.25)
        g = sz.plfun_from_json(sz.plfun_to_json(f))
        assert g == f

    def test_multi_term_segment(self):
        f = df.make([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5), df.Term(2.0))),
                     df.Seg(1.0, df.INF, ())])
        data = sz.plfun_to_json(f)
        assert [d["lo"] for d in data] == [0.0, 0.0, 1.0]
        assert sz.plfun_from_json(data) == f

    def test_json_serializable(self):
        f = df.power_fun(1.0, 0.5, hi=1.0)
        json.dumps(sz.plfun_to_json(f))

    def test_bad_payloads(self):
        with pytest.raises(sz.SchemaError, match=r"plfun\[0\]\.coeff"):
            sz.plfun_from_json([{"lo": 0.0, "hi": 1.0}])
        with pytest.raises(sz.SchemaError, match=r"\[0\]\.lo"):
            sz.plfun_from_json([{"lo": "x", "hi": 1.0, "coeff": 1.0}])
        with pytest.raises(sz.SchemaError, match=r"\[0\]\.extra"):
            sz.plfun_from_json([{"lo": 0.0, "hi": 1.0, "coeff": 1.0,
                                 "extra": 1}])
        with pytest.raises(sz.SchemaError):
            sz.plfun_from_json([{"lo": 0.5, "hi": 0.2, "coeff": 1.0}])


class TestOperatorRoundTrip:
    def test_atoms(self):
        T = so.from_atoms([(2.0, 0.5), (-1j, 1.0)])
        U = sz.op_from_json(sz.op_to_json(T))
        assert U == T

    def test_power_segments(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),), 1j),
                        df.Seg(1.0, 4.0, (df.Term(0.5),), -1.0)])
        U = sz.op_from_json(sz.op_to_json(T))
        assert U == T

    def test_factor_type(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0),))], so.II_1)
        U = sz.op_from_json(sz.op_to_json(T))
        assert U.factor_type == so.II_1

    def test_bad_operator(self):
        with pytest.raises(sz.SchemaError, match="factor_type"):
            sz.op_from_json({"factor_type": "III", "segments": []})
        with pytest.raises(sz.SchemaError, match="phase"):
            sz.op_from_json({"factor_type": so.II_INF, "segments": [
                {"lo": 0.0, "hi": 1.0, "phase_re": 1.0, "phase_im": 0.0,
                 "coeff": 1.0},
                {"lo": 0.0, "hi": 1.0, "phase_re": 0.0, "phase_im": 1.0,
                 "coeff": 2.0}]})


class TestModuleRoundTrip:
    def test_leaves_and_tree(self):
        mods = [md.Lp(0.5), md.Lp(2.0, so.II_1), md.Llog(), md.F(), md.K(),
                md.M(), md.Principal(df.power_fun(1.0, 0.5, hi=1.0)),
                md.Sum(md.FsPart(md.Lp(1.0)), md.BPart(md.Lp(2.0))),
                md.Vanish(md.M()),
                md.Product(md.Lp(2.0), md.Lp(2.0))]
        for I in mods:
            J = sz.module_from_json(sz.module_to_json(I))
            assert J == I

    def test_bad_module(self):
        with pytest.raises(sz.SchemaError, match="kind"):
            sz.module_from_json({"kind": "Weird"})
        with pytest.raises(sz.SchemaError, match=r"module\.p"):
            sz.module_from_json({"kind": "Lp"})
        with pytest.raises(sz.SchemaError, match="children"):
            sz.module_from_json({"kind": "Sum",
                                 "children": [{"kind": "M"}]})


class TestBrownRoundTrip:
    def test_atoms(self):
        nu = br.BrownMeasure(((1.0 + 2.0j, 0.5), (-1.0, 1.5)))
        mu2 = sz.brown_from_json(sz.brown_to_json(nu))
        assert mu2 == nu

    def test_negative_mass(self):
        with pytest.raises(sz.SchemaError, match="mass"):
            sz.brown_from_json([{"re": 1.0, "im": 0.0, "mass": -1.0}])


class TestDecision:
    def test_member_certificate_json(self):
        T = so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])
        dec = cm.member_IIinf(T, md.F(), md.M())
        obj = sz.decision_to_json(dec)
        assert obj["answer"] == "member"
        json.dumps(obj)

    def test_full_certificate_json(self):
        T = so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])
        h = df.step_fun([(2.0, 4.0)])
        cert = cm.fdh_certificate(T, h, K=8)
        obj = sz.certificate_to_json(cert)
        assert obj["total_count"] == 14
        assert "alpha" in obj and "beta" in obj
        json.dumps(obj)

    def test_obstruction_json(self):
        T = so.from_atoms([(1.0, 1.0)])
        dec = cm.member_IIinf(T, md.Lp(1.0), md.M())
        obj = sz.decision_to_json(dec)
        assert obj["answer"] == "not_member"
        assert obj["obstruction"] is not None
        json.dumps(obj)


class TestDocuments:
    def test_round_trip(self):
        T = so.from_atoms([(2.0, 1.0)])
        doc = sz.document("operator", sz.op_to_json(T))
        assert doc["schema_version"] == "1"
        U = sz.load_document(json.loads(json.dumps(doc)))
        assert U == T

    def test_version_enforced(self):
        with pytest.raises(sz.SchemaError, match="schema_version"):
            sz.load_document({"schema_version": "0", "type": "brown",
                              "brown": []})
        with pytest.raises(sz.SchemaError):
            sz.load_document({"type": "brown", "brown": []})
