"""Report bytes pinned across versions.

For every row of the golden decision table, the CLI `witness` report of the
row's query must hash to the sha256 recorded in report_digests.json.
TestDeterminism compares two runs of the same code; this compares the code
with the reports of earlier versions.
"""

import hashlib
import json
import os

import pytest

from commcalc import cli
from commcalc import serialize as sz

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")

# these rows, the three whose obstruction carries a trace constant `a`,
# are pinned in the text format, which keeps that format's bytes covered
TEXT_ROWS = ("lp_one_fs_witness", "lp_one_b_witness", "example_iii")

ROWS = {row[0]: row for row in cli._table_rows("all")}


def query_doc(row):
    """The witness query document of a golden-table row."""
    _, _, query, T, I, J, _ = row
    doc = {"schema_version": sz.SCHEMA_VERSION,
           "operator": sz.op_to_json(T), "module_I": sz.module_to_json(I)}
    if query == "F_plus":
        doc["relation"] = "F_plus"
    elif J is not None:
        doc["module_J"] = sz.module_to_json(J)
    return doc


@pytest.mark.parametrize("rid", sorted(ROWS))
def test_witness_report_bytes(rid, tmp_path, capsysbinary):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query_doc(ROWS[rid])))
    fmt = "text" if rid in TEXT_ROWS else "json"
    code = cli.main(["witness", "--input", str(path), "--format", fmt])
    out = capsysbinary.readouterr().out
    assert code == cli.EXIT_OK
    with open(DIGESTS) as fh:
        expected = json.load(fh)[rid]
    assert hashlib.sha256(out).hexdigest() == expected


@pytest.mark.parametrize("rid", TEXT_ROWS)
def test_obstruction_constant_is_a_pair_in_json(rid, tmp_path, capsysbinary):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query_doc(ROWS[rid])))
    code = cli.main(["witness", "--input", str(path), "--format", "json"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsysbinary.readouterr().out)
    a = doc["decision"]["obstruction"]["a"]
    assert isinstance(a, list) and len(a) == 2
