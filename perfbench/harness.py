"""Closed-loop query runner: one client, the next query is sent only after
the previous one returns.

Each query document is written to the work directory and fed to the
public CLI entry ``commcalc.cli.main(["<command>", "--input", path])``
in this process, with stdout captured; the latency of a query covers
read, parse, decide, encode and write.  ``shoda`` queries call
``matrix_oracle.shoda_decompose`` directly.  Writing the document and
checking the answer happen between queries, outside the timed span.
"""

import hashlib
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

DEFINITE = ("member", "not_member")
SHODA_RTOL = 1e-9


@dataclass
class Result:
    qid: str
    kind: str
    latency: float
    rc: object  # exit code, or None when the call raised
    output: bytes  # the report; dropped once checked and digested
    error: str = ""
    answer: str = None
    inconclusive: bool = False
    failure: str = ""  # why the query failed; empty when it did not
    wrong: bool = False  # the failure is an answer contradicting a reference
    quad_warnings: int = 0


class Runner:
    """Feeds queries to commcalc; imports it on construction."""

    def __init__(self, workdir):
        import numpy as np
        from scipy.integrate import IntegrationWarning

        from commcalc import cli
        from commcalc import matrix_oracle as mo

        self.np, self.cli, self.mo = np, cli, mo
        self.quad_warning = IntegrationWarning
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def run(self, q):
        """Run one query and return its Result (not yet checked)."""
        if q.command == "shoda":
            return self._run_shoda(q)
        path = os.path.join(self.workdir, "query.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(q.doc, fh)
        argv = [q.command, "--input", path, *q.argv]
        out, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8")
        saved = sys.stdout, sys.stderr
        rc, error = None, ""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sys.stdout, sys.stderr = stdout, err
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
            finally:
                t1 = time.perf_counter()
                sys.stdout, sys.stderr = saved
        stdout.flush()
        stdout.detach()
        if rc == 1 and not error:
            error = err.getvalue().strip().splitlines()[-1:] or ["exit 1"]
            error = error[0]
        return self._result(q, t1 - t0, rc, out.getvalue(), error, caught)

    def _run_shoda(self, q):
        np = self.np
        rc, error, rep = None, "", None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                T = np.array([[complex(re, im) for re, im in row]
                              for row in q.matrix])
                _, _, rep = self.mo.shoda_decompose(T)
                rc = 0
            except Exception as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
        out = b""
        if rep is not None:
            norm = float(np.linalg.norm(T, 2))
            rep = dict(rep, norm=norm)
            out = (json.dumps(rep, sort_keys=True) + "\n").encode()
        return self._result(q, t1 - t0, rc, out, error, caught)

    def _result(self, q, latency, rc, output, error, caught):
        quad = sum(1 for w in caught
                   if issubclass(w.category, self.quad_warning))
        return Result(q.qid, q.kind, latency, rc, output, error,
                      quad_warnings=quad)


# ---------------------------------------------------------------------------
# reference checks


def _documents(output):
    """All JSON documents in a report stream (brown writes two)."""
    text = output.decode("utf-8")
    dec = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        obj, i = dec.raw_decode(text, i)
        docs.append(obj)


def _verdict(res, expect, answer, results):
    """Record the answer; a definite answer must match the reference."""
    res.answer = answer
    res.inconclusive = answer == "inconclusive"
    if (res.rc == 2) != res.inconclusive:
        return "exit code %r with answer %r" % (res.rc, answer)
    if answer not in DEFINITE:
        return "" if res.inconclusive else "unknown answer %r" % answer
    if isinstance(expect, tuple) and expect[0] == "same_as":
        other = results.get(expect[1])
        if other is not None and other.answer in DEFINITE \
                and other.answer != answer:
            res.wrong = True
            return "consistency law: %s vs %s for %s" % (
                answer, other.answer, expect[1])
        return ""
    if isinstance(expect, str) and expect in DEFINITE and answer != expect:
        res.wrong = True
        return "answer %s, reference %s" % (answer, expect)
    return ""


def _check_brown_mass(res, atoms, level, head_mass, total_mass):
    if not atoms or not all(a["mass"] >= 0.0 for a in atoms):
        res.wrong = True
        return "brown atoms missing or with negative mass"
    total = sum(a["mass"] for a in atoms)
    head = sum(a["mass"] for a in atoms
               if math.hypot(a["re"], a["im"]) >= level * (1 - 1e-12))
    if abs(head - head_mass) > 1e-9 * head_mass \
            or abs(total - total_mass) > 1e-9 * total_mass:
        res.wrong = True
        return "masses %r / %r, reference %r / %r" % (
            head, total, head_mass, total_mass)
    return ""


def check(q, res, results):
    """Set res.failure (and res.wrong) from the query's reference.

    A query fails when it raises, exits 1, emits output that does not
    parse, or contradicts its reference verdict.  An inconclusive answer
    is not a failure; it is counted on its own.
    """
    if res.rc is None or res.rc == 1 or res.error:
        res.failure = res.error or "exit %r" % res.rc
        return res
    try:
        docs = _documents(res.output)
    except (UnicodeDecodeError, ValueError) as exc:
        res.failure = "unparsable output: %s" % exc
        return res
    res.failure = _check_docs(q, res, docs, results)
    return res


def _check_docs(q, res, docs, results):
    try:
        if q.command in ("member", "witness"):
            return _verdict(res, q.expect, docs[0]["decision"]["answer"],
                            results)
        if q.command == "brown":
            fail = ""
            if q.expect == "brown_mass":
                fail = _check_brown_mass(res, docs[0]["brown"],
                                         **q.extra)
            elif len(docs) != 2:
                fail = "expected the Brown measure and a decision"
            else:
                fail = _verdict(res, q.expect,
                                docs[1]["decision"]["answer"], results)
            return fail
        if q.command == "oracle":
            rep = docs[0]["oracle"]
            res.answer = "clean" if not rep["failures"] else "failures"
            if rep["failures"]:
                res.wrong = True
                return "oracle failures: %d" % len(rep["failures"])
            return ""
        if q.command == "shoda":
            rep = docs[0]
            res.answer = "decomposed"
            if not rep["residual"] <= SHODA_RTOL * max(rep["norm"], 1e-300):
                res.wrong = True
                return "shoda residual %r above %g * %r" % (
                    rep["residual"], SHODA_RTOL, rep["norm"])
            return ""
    except (KeyError, IndexError, TypeError) as exc:
        return "malformed report: %s: %s" % (type(exc).__name__, exc)
    return "no reference for command %r" % q.command


# ---------------------------------------------------------------------------
# statistics


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p * len(sorted_vals)))
    return sorted_vals[k - 1]


def summarize(results, busy_s, elapsed_s):
    """End-to-end figures of one timed run.

    A failed query counts as missing every latency limit: it enters the
    percentiles with the whole run's elapsed time as its latency.
    """
    n = len(results)
    failed = [r for r in results if r.failure]
    done = n - len(failed)
    lat = sorted(elapsed_s if r.failure else r.latency for r in results)
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    inconclusive = sum(1 for r in results if r.inconclusive and not r.failure)
    return {
        "attempted": n,
        "failed": len(failed),
        "completed": done,
        "inconclusive": inconclusive,
        "wrong": sum(1 for r in failed if r.wrong),
        "quad_warnings": sum(r.quad_warnings for r in results),
        "query_p50_ms": p50 * 1e3,
        "query_p90_ms": p90 * 1e3,
        "queries_per_s": done / busy_s,
        "answered_frac": done / n,
        "decided_frac": (done - inconclusive) / done if done else 0.0,
        "samples": n,
        "beyond_p90": sum(1 for v in lat if v > p90),
        "failed_frac": len(failed) / n,
        "inconclusive_frac": inconclusive / done if done else 0.0,
    }


class Digest:
    """sha256 over (query id, exit code, error, report bytes) of the
    queries added, in order."""

    def __init__(self):
        self.h = hashlib.sha256()
        self.queries = 0

    def add(self, r):
        self.h.update(("%s\0%r\0%s\0" % (r.qid, r.rc, r.error)).encode())
        self.h.update(r.output)
        self.queries += 1

    def report(self):
        return {"queries": self.queries, "sha256": self.h.hexdigest()}
