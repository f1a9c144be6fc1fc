"""JSON report bytes.

The report contract is json.dumps(doc, sort_keys=True, indent=2,
allow_nan=False) plus a newline.  cli._json_bytes writes it by
cli._layout on every Python, with every leaf formatted by a C-level call.
One row rule, cli._rows, writes a run of leaves, of records that share
their string keys (the Brown atom list, the block bounds, a PLFun) or of
lists of one length (the pairs of alpha and beta), one %-template per
item; a dict's values are such a run, each line led by its key.
The writer is checked against json.dumps, bytes or the type and message
of the error, on every Python version the tests run on, and the pins
below hash whole reports.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from collections import OrderedDict

import numpy as np
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


def layout(doc):
    return (cli._layout(doc, "\n") + "\n").encode("utf-8")


def outcome(write, doc):
    """write(doc): bytes, or the type and message of the error."""
    try:
        return write(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def writers(doc):
    """What the report writer and the layout writer make of doc."""
    return [outcome(cli._json_bytes, doc), outcome(layout, doc)]


def expected(doc):
    return outcome(reference, doc)


# a record boundary of the atom list, inside a string value
BOUNDARY = "},\n      {"

finite = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
scalars = (st.none() | st.booleans()
           | st.integers(-2 ** 80, 2 ** 80) | finite
           | st.text(max_size=8)
           | st.sampled_from([BOUNDARY, "\x00\x1f é\U0001f600", "}", "%r",
                              "%%s"]))
keys = (st.text(max_size=6)
        | st.sampled_from(["re", "im", "mass", "%", "n", "nan", "inf"]))
records = st.dictionaries(keys, scalars, min_size=1, max_size=4)


@st.composite
def float_records(draw, bad=False):
    """Records sharing one key set and holding only floats; one of them
    may have another key set or hold an int, a bool, None or a string;
    with bad, one float is a nan or an infinity."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    recs = [{k: draw(finite) for k in names}
            for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(recs) - 1))
    k = draw(st.sampled_from(names))
    change = draw(st.sampled_from(["none", "none", "key", "rename", "drop",
                                   "value"]))
    if bad:
        recs[i][k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif change in ("key", "rename"):
        # one more key, or as many keys but one of them another
        recs[i]["other" + k] = draw(finite)
        if change == "rename":
            del recs[i][k]
    elif change == "drop" and len(names) > 1:
        del recs[i][k]
    elif change == "value":
        recs[i][k] = draw(st.none() | st.booleans() | st.integers(-5, 5)
                          | st.text(max_size=3))
    return recs


record_lists = st.lists(records, min_size=1, max_size=5) | float_records()
float_lists = st.lists(finite, min_size=1, max_size=6)
mixed_lists = st.lists(records | scalars | st.just({}) | st.just([]),
                       max_size=5)
values = st.recursive(
    scalars | records | record_lists | float_lists | mixed_lists,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(keys, inner, max_size=3)),
    max_leaves=12)
documents = st.dictionaries(keys, values, max_size=5)
# float records and float lists two and three levels down, as in the
# certificate of a decision
deep = st.recursive(float_records() | float_lists,
                    lambda inner: st.dictionaries(keys, inner, min_size=1,
                                                  max_size=2),
                    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
def test_documents_equal_json_dumps(doc):
    assert writers(doc) == [reference(doc)] * 2


@settings(max_examples=100, deadline=None)
@given(doc=values)
def test_any_value_equals_json_dumps(doc):
    assert writers(doc) == [reference(doc)] * 2


@settings(max_examples=150, deadline=None)
@given(doc=st.dictionaries(keys, deep, min_size=1, max_size=3))
def test_nested_records_equal_json_dumps(doc):
    assert writers(doc) == [reference(doc)] * 2


@st.composite
def cell_records(draw):
    """Records sharing one key set whose cells are floats, ints, None or
    bools, a column of one kind or of several; a float may be out of
    range."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    cell = {"float": finite, "int": st.integers(-2 ** 70, 2 ** 70),
            "none": st.none(), "bool": st.booleans(),
            "bad": st.sampled_from([math.nan, math.inf, -math.inf])}
    kinds = {k: draw(st.lists(st.sampled_from(
        ["float", "float", "int", "none", "bool", "bad"]), min_size=1,
        max_size=2, unique=True)) for k in names}
    return [{k: draw(cell[draw(st.sampled_from(kinds[k]))]) for k in names}
            for _ in range(draw(st.integers(1, 6)))]


pair_cells = finite | st.sampled_from([math.nan, math.inf, -math.inf, 1, None,
                                       True])
pair_dicts = st.dictionaries(
    st.text(max_size=4) | st.sampled_from(["-40", "-4", "0", "39", "re"]),
    st.lists(finite, min_size=2, max_size=2).map(tuple)
    | st.lists(finite, min_size=2, max_size=2)
    | st.lists(pair_cells, min_size=1, max_size=3),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(recs=cell_records(), depth=st.integers(0, 2))
def test_records_of_ints_and_nulls_equal_json_dumps(recs, depth):
    doc = recs
    for _ in range(depth):
        doc = {"block_bounds": doc}
    assert writers(doc) == [expected(doc)] * 2


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(keys, pair_dicts, min_size=1, max_size=3))
def test_dicts_of_float_pairs_equal_json_dumps(doc):
    assert writers(doc) == [expected(doc)] * 2


def test_certificate_layouts_equal_json_dumps():
    # the block bounds, alpha and phi of a certificate, with an int
    # column, a null hi and a nan that json refuses
    doc = {"alpha": {str(n): [2.0 ** n, -0.0] for n in range(-3, 3)},
           "block_bounds": [{"n": n, "S_norm_bound": 0.5, "commutators": 10}
                            for n in range(-2, 2)],
           "phi": [{"lo": 0.0, "hi": 1.0, "coeff": 2.0},
                   {"lo": 1.0, "hi": None, "coeff": 0.5}]}
    assert writers(doc) == [reference(doc)] * 2
    for bad in ({"alpha": {"0": [1.0, math.nan]}},
                {"phi": [{"lo": 1.0, "hi": math.inf},
                         {"lo": 2.0, "hi": None}]}):
        doc_bad = dict(doc, **bad)
        assert expected(doc_bad)[0] is ValueError
        assert writers(doc_bad) == [expected(doc_bad)] * 2


@settings(max_examples=100, deadline=None)
@given(recs=float_records(bad=True), depth=st.integers(0, 2))
def test_out_of_range_float_in_records_is_refused(recs, depth):
    doc = recs
    for _ in range(depth):
        doc = {"brown": doc}
    assert expected(doc)[0] is ValueError
    assert writers(doc) == [expected(doc)] * 2


def test_boundary_inside_a_string_is_kept():
    doc = {"brown": [{"re": BOUNDARY, "im": 0.0},
                     {"re": -0.0, "im": 5e-324}, {"mass": 1e308}],
           "kind": "x"}
    assert writers(doc) == [reference(doc)] * 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["records", "nested", "top", "floats"])
def test_out_of_range_floats_are_refused(bad, where):
    doc = {"records": {"brown": [{"re": 1.0}, {"re": bad}]},
           "nested": {"a": [{"b": {"c": bad}}]},
           "top": {"x": bad},
           "floats": {"a": [[1.0, bad]]}}[where]
    assert expected(doc)[0] is ValueError
    assert writers(doc) == [expected(doc)] * 2


@pytest.mark.parametrize("doc", [
    # json names the first bad value in document order: row by row, each
    # row's columns in key order, not column by column
    {"brown": [{"im": 1.0, "re": 2.0},
               {"im": math.nan, "re": 0.5},
               {"im": 0.5, "re": -math.inf}]},
    {"brown": [{"im": 1.0, "re": math.inf},
               {"im": -math.inf, "re": 0.5}]},
    {"hi": [{"hi": 1.0, "lo": math.nan}, {"hi": None, "lo": 1.0},
            {"hi": math.inf, "lo": 2.0}]},
    {"alpha": {"-1": [1.0, -math.inf], "0": [math.nan, 2.0]}},
    {"alpha": {"-1": [1.0, 2.0], "0": [math.nan, 2.0], "1": [0.5, math.inf]}},
    {"a": {"x": [1.0, math.inf], "y": [-math.inf, 1.0]},
     "b": [{"re": math.nan}]},
])
def test_first_out_of_range_float_is_named(doc):
    assert expected(doc)[0] is ValueError
    assert writers(doc) == [expected(doc)] * 2


@pytest.mark.parametrize("doc", [
    {"brown": [{"re": 1.0}, {"re": object()}]},
    {"a": {1j}},
    {"a": [b"bytes"]},
    object(),
])
def test_unsupported_types_are_refused(doc):
    assert expected(doc)[0] is TypeError
    assert writers(doc) == [expected(doc)] * 2


class Text(str):
    pass


class Count(int):
    pass


@pytest.mark.parametrize("doc", [
    # numpy's float64 is a float subclass (oracle reports carry it)
    {"a": np.float64(0.1), "b": [np.float64(-0.0), 2.0, np.float64(1e308)]},
    {"a": [np.float64(1.0), np.float64("nan")]},
    {"a": Text("x"), "b": [Count(3), Count(-4)], "c": (1.0, Text("y"))},
    {"a": OrderedDict(b=1.0, a=[{"re": 0.5}])},
])
def test_subclasses_follow_json(doc):
    assert writers(doc) == [expected(doc)] * 2


@pytest.mark.parametrize("doc", [
    {"a": {1: 2.0, 2: [0.5]}},
    {"a": [{0.5: 1.0, 2.5: 2.0}, {True: 1.0, None: 0.0}]},
    {"a": {"x": 1.0, 2: 3.0}},
    [1.0, {"x": 1}, 2],
])
def test_non_string_keys_follow_json(doc):
    assert writers(doc) == [expected(doc)] * 2


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
