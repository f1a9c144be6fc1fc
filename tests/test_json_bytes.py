"""JSON report bytes.

cli._json_bytes lays out the top-level keys itself and writes a list of
flat records (the Brown atom list) with the C encoder; the reference is
json.dumps with the report settings.  The pins below hash whole reports,
so the bytes are checked on every Python version the tests run on.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcalc import cli
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import Seg, Term

DIGESTS = os.path.join(os.path.dirname(__file__), "encoder_digests.json")


def reference(doc):
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# random documents

# the record boundary of the compact atom list, inside a string value
BOUNDARY = "},\n      {"

scalars = (st.none() | st.booleans()
           | st.integers(-2 ** 80, 2 ** 80)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308])
           | st.text(max_size=8)
           | st.sampled_from([BOUNDARY, "\x00\x1f é\U0001f600", "}"]))
keys = st.text(max_size=6) | st.sampled_from(["re", "im", "mass"])
records = st.dictionaries(keys, scalars, min_size=1, max_size=4)
record_lists = st.lists(records, min_size=1, max_size=5)
mixed_lists = st.lists(records | scalars | st.just({}) | st.just([]),
                       max_size=5)
values = st.recursive(
    scalars | records | record_lists | mixed_lists,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(keys, inner, max_size=3)),
    max_leaves=12)
documents = st.dictionaries(keys, values, max_size=5)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
def test_documents_equal_json_dumps(doc):
    assert cli._json_bytes(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(doc=values)
def test_any_value_equals_json_dumps(doc):
    assert cli._json_bytes(doc) == reference(doc)


def test_boundary_inside_a_string_is_kept():
    doc = {"brown": [{"re": BOUNDARY, "im": 0.0},
                     {"re": -0.0, "im": 5e-324}, {"mass": 1e308}],
           "kind": "x"}
    assert cli._json_bytes(doc) == reference(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["records", "nested", "top"])
def test_out_of_range_floats_are_refused(bad, where):
    doc = {"records": {"brown": [{"re": 1.0}, {"re": bad}]},
           "nested": {"a": [{"b": {"c": bad}}]},
           "top": {"x": bad}}[where]
    with pytest.raises(ValueError):
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        cli._json_bytes(doc)


@pytest.mark.parametrize("doc", [
    {"brown": [{"re": 1.0}, {"re": object()}]},
    {"a": {1j}},
    {"a": [b"bytes"]},
    object(),
])
def test_unsupported_types_are_refused(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        cli._json_bytes(doc)


# ---------------------------------------------------------------------------
# pinned reports

# flat level 1.25 on (0, 1/2), then a power decay over u octaves: the
# Brown measure has 16 atoms per octave, so u = 8, 60 and 118 give 129,
# 961 and 1,889 atoms
POWERLAW = {"brown_129_atoms": (8.0, 0.6, 0.6 + 0.8j, -1.0),
            "brown_961_atoms": (60.0, 1.0, -0.8 + 0.6j, 1j),
            "brown_1889_atoms": (118.0, 1.5, 1.0, -0.6 - 0.8j)}


def powerlaw_op(u, d, ph_head, ph_tail):
    a, c = 0.5, 1.25
    return so.make_op([Seg(0.0, a, (Term(c),), ph_head),
                       Seg(a, a * 2.0 ** u, (Term(c * a ** d, d),),
                           ph_tail)])


def cli_stdout(argv):
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return out.buffer.getvalue()


def brown_report(params, tmp_dir):
    """stdout of `commcalc brown` with no module_I, as bytes."""
    path = os.path.join(tmp_dir, "query.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": sz.SCHEMA_VERSION,
                   "operator": sz.op_to_json(powerlaw_op(*params))}, fh)
    return cli_stdout(["brown", "--input", path, "--format", "json"])


def report_digests(tmp_dir):
    out = {name: hashlib.sha256(brown_report(params, tmp_dir)).hexdigest()
           for name, params in POWERLAW.items()}
    out["table_all"] = hashlib.sha256(
        cli_stdout(["table", "all", "--format", "json"])).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(POWERLAW))
def test_atom_counts(name, tmp_path):
    doc = json.loads(brown_report(POWERLAW[name], str(tmp_path)))
    assert len(doc["brown"]) == int(name.split("_")[1])


def test_report_bytes(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    assert report_digests(str(tmp_path)) == expected


if __name__ == "__main__":
    # regenerate the pinned digests: python tests/test_json_bytes.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = report_digests(tmp)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
