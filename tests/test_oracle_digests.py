"""Oracle report bytes pinned across versions.

For every property suite and each of three seeds, the CLI `oracle` report
must hash to the sha256 recorded in oracle_digests.json. A faster suite
must keep every margin bit for bit.
"""

import hashlib
import json
import os

import pytest

from commcalc import cli
from commcalc import matrix_oracle as mo
from commcalc import serialize as sz

DIGESTS = os.path.join(os.path.dirname(__file__), "oracle_digests.json")
SEEDS = (1, 7, 99)
TRIALS = 3


def suite_dims(suite):
    # pluri evaluates 257 determinants per trial, so it stays small
    return [3, 8] if suite == "pluri" else [3, 8, 17]


def report_bytes(suite, seed, workdir):
    """The JSON `oracle` report of `suite` at `seed`, as written to --out."""
    query = os.path.join(workdir, "query.json")
    with open(query, "w") as fh:
        json.dump({"schema_version": sz.SCHEMA_VERSION, "suite": suite,
                   "dims": suite_dims(suite), "trials": TRIALS}, fh)
    out = os.path.join(workdir, "out")
    code = cli.main(["oracle", "--input", query, "--seed", str(seed),
                     "--out", out])
    assert code == cli.EXIT_OK
    with open(os.path.join(out, "oracle.json"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", mo.SUITES)
def test_oracle_report_bytes(suite, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("COMMCALC_TOL", raising=False)
    data = report_bytes(suite, seed, str(tmp_path))
    with open(DIGESTS) as fh:
        expected = json.load(fh)["%s/%d" % (suite, seed)]
    assert hashlib.sha256(data).hexdigest() == expected
