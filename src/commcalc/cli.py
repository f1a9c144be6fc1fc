"""Batch front door: parse operator/module descriptors from JSON, run
membership/witness/spectral queries, and emit deterministic reports.

Exit codes: 0 = query completed (even when the answer is not_member),
2 = inconclusive, 1 = input error (schema violations carry the offending
path in the message).
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from . import brown as br
from . import commutator as cm
from . import decfun as df
from . import matrix_oracle as mo
from . import modules as md
from . import serialize as sz
from . import specop as so
from .decfun import DomainError, INF

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

# report file extension per --format
_EXT = {"json": "json", "csv": "csv", "text": "txt"}


class CliError(Exception):
    """Input error; the message is printed to stderr and exit code is 1."""


# ---------------------------------------------------------------------------
# query documents


def _load_query(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError("%s: %s" % (path, exc.strerror or "cannot read"))
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError("%s: malformed JSON (%s)" % (path, exc))
    if not isinstance(obj, dict):
        raise CliError("%s: expected a JSON object at the top level" % path)
    version = obj.get("schema_version")
    if version != sz.SCHEMA_VERSION:
        raise CliError("%s: schema_version: unsupported version %r"
                       % (path, version))
    return obj


def _query_field(query, key, loader, required=False, path="query"):
    if key not in query or query[key] is None:
        if required:
            raise CliError("%s.%s: missing required field" % (path, key))
        return None
    try:
        return loader(query[key], "%s.%s" % (path, key))
    except sz.SchemaError as exc:
        raise CliError(str(exc))


def _env_tol():
    raw = os.environ.get("COMMCALC_TOL")
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise CliError("COMMCALC_TOL: expected a number, got %r" % raw)
    if not (tol > 0.0) or not math.isfinite(tol):
        raise CliError("COMMCALC_TOL: must be finite and positive")
    return tol


# ---------------------------------------------------------------------------
# formatting


def _fmt_num(x):
    if x == INF:
        return "inf"
    return repr(float(x))


def _fmt_complex(z):
    z = complex(z)
    return "%s%s%sj" % (_fmt_num(z.real), "+" if z.imag >= 0 else "-",
                        _fmt_num(abs(z.imag)))


# the report layout: json.dumps(..., sort_keys=True, indent=2,
# allow_nan=False), which before Python 3.13 runs the pure-Python encoder
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
# a list of flat records one level down, compact, so the C encoder runs:
# the item separator already puts each field on its own indented line
_RECORDS = json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n      ", ": "))
_SCALARS = (str, int, float, type(None))


def _is_records(value):
    """A non-empty list of non-empty dicts with string keys and scalar
    values, such as the Brown atom list."""
    return isinstance(value, (list, tuple)) and bool(value) and all(
        isinstance(rec, dict) and rec
        and all(type(k) is str and isinstance(v, _SCALARS)
                for k, v in rec.items())
        for rec in value)


def _json_bytes(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) plus a newline.

    The top-level keys of a document are laid out here; each value is
    encoded by the stdlib and indented by one level with str.replace,
    which is exact because json never writes a raw newline inside a
    string.  A list of flat records goes through the C encoder in compact
    form, and one replace of its record boundaries gives the indented
    layout (the boundary needs a raw newline, so it too never matches
    inside a string).  Floats, strings and errors (ValueError for NaN and
    infinities, TypeError for other types) stay the stdlib's.
    """
    if not (isinstance(obj, dict) and obj
            and all(type(k) is str for k in obj)):
        return (_ENCODER.encode(obj) + "\n").encode("utf-8")
    fields = []
    for key in sorted(obj):
        value = obj[key]
        if _is_records(value):
            text = _RECORDS.encode(value)
            text = ("[\n    {\n      "
                    + text[2:-2].replace("},\n      {",
                                         "\n    },\n    {\n      ")
                    + "\n    }\n  ]")
        else:
            text = _ENCODER.encode(value).replace("\n", "\n  ")
        fields.append("  %s: %s" % (_ENCODER.encode(key), text))
    return ("{\n" + ",\n".join(fields) + "\n}\n").encode("utf-8")


def _csv_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten("%s.%s" % (prefix, key) if prefix else str(key),
                     value[key], out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten("%s[%d]" % (prefix, i), item, out)
    elif value is None:
        out.append((prefix, ""))
    else:
        out.append((prefix, value))


def _kv_csv(payload):
    rows = []
    _flatten("", payload, rows)
    return _csv_bytes(("key", "value"), rows)


def _decision_text(doc):
    """Text report of a decision_to_json payload."""
    lines = ["answer: %s" % doc["answer"]]
    if doc["notes"]:
        lines.append("notes: %s" % doc["notes"])
    cert = doc["certificate"]
    if cert is not None:
        lines.append("certificate:")
        lines.append("  a: %s" % _fmt_complex(complex(*cert["a"])))
        lines.append("  budget: %d commutators" % cert["total_count"])
        if "beta0_interval" in cert:
            (rl, rh), (il, ih) = (cert["beta0_interval"]["re"],
                                  cert["beta0_interval"]["im"])
            lines.append("  beta0 interval: Re [%s, %s], Im [%s, %s]"
                         % (_fmt_num(rl), _fmt_num(rh),
                            _fmt_num(il), _fmt_num(ih)))
        if "alpha" in cert:
            lines.append("  alpha levels: %d" % len(cert["alpha"]))
        if "block_bounds" in cert:
            lines.append("  blocks: %d" % len(cert["block_bounds"]))
    if doc["obstruction"] is not None:
        lines.append("obstruction:")
        for key, value in sorted(doc["obstruction"].items()):
            if key == "a":
                value = _fmt_complex(complex(*value))
            lines.append("  %s: %s" % (key, value))
    return "\n".join(lines) + "\n"


def _emit_payload(kind, payload, fmt, text_fn):
    if fmt == "json":
        return _json_bytes(sz.document(kind, payload))
    if fmt == "csv":
        return _kv_csv(payload)
    if fmt == "text":
        return text_fn(payload).encode("utf-8")
    raise CliError("--format: unknown format %r" % fmt)


def emit_report(dec, fmt="json"):
    """Deterministic serialization of a Decision as bytes."""
    return _emit_payload("decision", sz.decision_to_json(dec), fmt,
                         _decision_text)


def _write(args, name, data):
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "wb") as fh:
            fh.write(data)


def _samples_csv(samples):
    return _csv_bytes(("t", "value"),
                      [(_fmt_num(t), _fmt_num(v)) for t, v in samples])


# ---------------------------------------------------------------------------
# commands


def cmd_mu(args, query):
    T = _query_field(query, "operator", sz.op_from_json, required=True)
    m = so.mu(T)
    # the domain of a II_1 operator is the open interval (0, 1)
    samples = []
    for t in cm.dyadic_grid(-args.K, args.K, args.grid):
        if t < T.domain_hi:
            try:
                samples.append((t, m(t)))
            except OverflowError:
                # a float limit, not an infinite singular value
                raise CliError("query.operator: mu(%s) overflows a float"
                               % _fmt_num(t)) from None
    if args.format == "csv":
        _write(args, "mu.csv", _samples_csv(samples))
        return EXIT_OK
    payload = [{"t": t, "value": (None if v == INF else v)}
               for t, v in samples]

    def text(rows):
        return "".join("mu(%s) = %s\n" % (_fmt_num(r["t"]),
                                          "inf" if r["value"] is None
                                          else _fmt_num(r["value"]))
                       for r in rows)

    _write(args, "mu." + _EXT[args.format],
           _emit_payload("samples", payload, args.format, text))
    if args.out:
        with open(os.path.join(args.out, "mu.csv"), "wb") as fh:
            fh.write(_samples_csv(samples))
    return EXIT_OK


def _run_member(query):
    T = _query_field(query, "operator", sz.op_from_json, required=True)
    I = _query_field(query, "module_I", sz.module_from_json, required=True)
    relation = query.get("relation", "commutator")
    if relation == "F_plus":
        if T.factor_type != so.II_INF:
            raise CliError("query.relation: F_plus requires a II_inf "
                           "operator")
        return cm.member_F_plus(T, I)
    if relation != "commutator":
        raise CliError("query.relation: expected 'commutator' or 'F_plus', "
                       "got %r" % relation)
    J = _query_field(query, "module_J", sz.module_from_json)
    if J is None:
        J = md.M(T.factor_type)
    if T.factor_type == so.II_1:
        return cm.member_II1(T, I, J)
    return cm.member_IIinf(T, I, J)


def _decision_exit(dec):
    return EXIT_INCONCLUSIVE if dec.answer == "inconclusive" else EXIT_OK


def _decide_and_write(args, query, name):
    """Run the membership query and write its report as name.<ext>."""
    try:
        dec = _run_member(query)
    except DomainError as exc:
        raise CliError("query: %s" % exc)
    except OverflowError as exc:
        # a float limit, not a property of the operator
        raise CliError("query.operator: %s" % exc) from None
    _write(args, name + "." + _EXT[args.format], emit_report(dec, args.format))
    return dec


def cmd_member(args, query):
    return _decision_exit(_decide_and_write(args, query, "member"))


def cmd_witness(args, query):
    dec = _decide_and_write(args, query, "witness")
    cert = dec.certificate
    if args.out and cert is not None and cert.phi is not None:
        samples = [(t, cert.phi(t))
                   for t in cm.dyadic_grid(-args.K, args.K, args.grid)]
        with open(os.path.join(args.out, "phi.csv"), "wb") as fh:
            fh.write(_samples_csv(samples))
    return _decision_exit(dec)


def cmd_brown(args, query):
    T = _query_field(query, "operator", sz.op_from_json, required=True)
    try:
        nu = br.brown_of_normal(T)
    except DomainError as exc:
        raise CliError("query.operator: %s" % exc)
    payload = sz.brown_to_json(nu)

    def text(atoms):
        return "".join("atom %s mass %s\n"
                       % (_fmt_complex(complex(a["re"], a["im"])),
                          _fmt_num(a["mass"]))
                       for a in atoms)

    ext = _EXT[args.format]
    _write(args, "brown." + ext,
           _emit_payload("brown", payload, args.format, text))
    I = _query_field(query, "module_I", sz.module_from_json)
    if I is None:
        return EXIT_OK
    dec = br.member_F(T, I)
    _write(args, "member_F." + ext, emit_report(dec, args.format))
    return _decision_exit(dec)


def _positive_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise CliError("%s: expected a positive integer, got %r"
                       % (path, value))
    return value


def cmd_oracle(args, query):
    suite = query.get("suite")
    if suite is None:
        raise CliError("query.suite: missing required field")
    if suite not in mo.SUITES:
        raise CliError("query.suite: expected one of %s, got %r"
                       % (", ".join(mo.SUITES), suite))
    dims = query.get("dims", list(mo.OracleConfig().dims))
    if not isinstance(dims, list) or not dims:
        raise CliError("query.dims: expected a non-empty array of positive "
                       "integers, got %r" % (dims,))
    for i, d in enumerate(dims):
        _positive_int(d, "query.dims[%d]" % i)
    trials = _positive_int(query.get("trials", 100), "query.trials")
    N = query.get("N")
    if N is not None:
        _positive_int(N, "query.N")
    tol = _env_tol()
    kwargs = {"seed": args.seed, "dims": tuple(dims), "trials": trials}
    if tol is not None:
        kwargs["tol_rel"] = tol
        kwargs["tol_abs"] = tol
    try:
        cfg = mo.OracleConfig(**kwargs)
        rep = mo.run_property_suite(cfg, suite, N=N)
    except DomainError as exc:
        raise CliError("query: %s" % exc)
    payload = {"suite": rep["suite"], "dims": list(rep["dims"]),
               "trials": rep["trials"], "min_margin": rep["min_margin"],
               "failures": rep["failures"]}

    def text(p):
        lines = ["suite: %s" % p["suite"],
                 "dims: %s" % ",".join(str(d) for d in p["dims"]),
                 "trials: %d" % p["trials"],
                 "min_margin: %s" % _fmt_num(p["min_margin"]),
                 "failures: %d" % len(p["failures"])]
        return "\n".join(lines) + "\n"

    _write(args, "oracle." + _EXT[args.format],
           _emit_payload("oracle", payload, args.format, text))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the golden decision table


def _op(segs):
    return so.make_op(segs)


def _seg(lo, hi, phase, *terms):
    return df.Seg(lo, hi, terms, phase)


def _log_witness_fs():
    # positive head 1/(t log^2 t), flat negative block cancelling the trace
    c = math.exp(-2.0)
    return _op([_seg(0.0, c, 1.0, df.Term(1.0, 1.0, 2.0)),
                _seg(c, c + 0.5, -1.0, df.Term(1.0))])


def _log_witness_b():
    # bounded tail 1/(t log^2 t) for t > 2; the head trace vanishes but the
    # required tail majorant 1/(s log s) falls outside mu((L1)_b)
    v2 = 1.0 / (2.0 * math.log(2.0) ** 2)
    return _op([_seg(0.0, 1.0, 1.0, df.Term(v2)),
                _seg(1.0, 2.0, -1.0, df.Term(v2)),
                _seg(2.0, INF, 1.0, df.Term(1.0, 1.0, 2.0))])


def _table_rows(name):
    pair = so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])
    atom = so.from_atoms([(1.0, 1.0)])
    cpair = so.from_atoms([(2.0j, 0.5), (-1.0j, 1.0)])
    head_half = _op([_seg(0.0, 1.0, 1.0, df.Term(1.0, 0.5))])
    tail_slow = _op([_seg(0.0, 1.0, 1.0, df.Term(1.0)),
                     _seg(1.0, INF, 1.0, df.Term(1.0, 0.6))])
    mixed = _op([_seg(0.0, 1.0, 1.0, df.Term(1.0, 0.5)),
                 _seg(1.0, INF, 1.0, df.Term(1.0, 0.6))])
    ex_i = md.Sum(md.FsPart(md.Lp(0.5)), md.BPart(md.Lp(2.0)))
    ex_ii = md.Sum(md.FsPart(md.Lp(2.0)), md.BPart(md.Lp(0.5)))
    ex_iii = md.Sum(md.FsPart(md.Lp(1.0)), md.BPart(md.Lp(1.0)))

    f_rows = [
        ("f_zero_trace_pair", "[F,M] = F n ker tau", "member",
         pair, md.F(), None, "member"),
        ("f_nonzero_trace", "[F,M] = F n ker tau", "member",
         atom, md.F(), None, "not_member"),
        ("f_zero_operator", "[F,M] = F n ker tau", "member",
         so.zero_op(), md.F(), None, "member"),
        ("f_complex_pair", "[F,M] = F n ker tau", "member",
         cpair, md.F(), None, "member"),
        ("m_full_algebra", "[M,M] = M", "member",
         atom, md.M(), md.M(), "member"),
    ]
    lp_rows = [
        ("lp_half_fs", "[(L_1/2)_fs,M] = (L_1/2)_fs", "member",
         head_half, md.FsPart(md.Lp(0.5)), None, "member"),
        ("lp_half_b_zero", "[(L_1/2)_b,M] = (L_1/2)_b n ker tau", "member",
         pair, md.BPart(md.Lp(0.5)), None, "member"),
        ("lp_half_b_trace", "[(L_1/2)_b,M] = (L_1/2)_b n ker tau", "member",
         atom, md.BPart(md.Lp(0.5)), None, "not_member"),
        ("lp_one_fs_witness", "F + [(L_1)_fs,M] != (L_1)_fs", "F_plus",
         _log_witness_fs(), md.FsPart(md.Lp(1.0)), None, "not_member"),
        ("lp_one_b_witness", "F + [(L_1)_b,M] != (L_1)_b", "F_plus",
         _log_witness_b(), md.BPart(md.Lp(1.0)), None, "not_member"),
        ("lp_two_fs_zero", "[(L_2)_fs,M] = (L_2)_fs n ker tau", "member",
         pair, md.FsPart(md.Lp(2.0)), None, "member"),
        ("lp_two_fs_trace", "[(L_2)_fs,M] = (L_2)_fs n ker tau", "member",
         atom, md.FsPart(md.Lp(2.0)), None, "not_member"),
        ("lp_two_fs_fplus", "F + [(L_2)_fs,M] = (L_2)_fs", "F_plus",
         atom, md.FsPart(md.Lp(2.0)), None, "member"),
        ("lp_two_b", "[(L_2)_b,M] = (L_2)_b", "member",
         tail_slow, md.BPart(md.Lp(2.0)), None, "member"),
    ]
    ex_rows = [
        ("example_i", "[(L_1/2)_fs+(L_2)_b,M] = I", "member",
         mixed, ex_i, None, "member"),
        ("example_ii_zero", "[(L_2)_fs+(L_1/2)_b,M] = I n ker tau", "member",
         pair, ex_ii, None, "member"),
        ("example_ii_trace", "[(L_2)_fs+(L_1/2)_b,M] = I n ker tau", "member",
         atom, ex_ii, None, "not_member"),
        ("example_ii_fplus", "F + [(L_2)_fs+(L_1/2)_b,M] = I", "F_plus",
         atom, ex_ii, None, "member"),
        ("example_iii", "F + [(L_1)_fs+(L_1)_b,M] != I", "F_plus",
         _log_witness_fs(), ex_iii, None, "not_member"),
    ]
    tables = {"f": f_rows, "lp": lp_rows, "examples": ex_rows,
              "all": f_rows + lp_rows + ex_rows}
    if name not in tables:
        raise CliError("table: unknown table %r (use all, f, lp, examples)"
                       % name)
    return tables[name]


def run_table(name="all"):
    """Evaluate the golden decision table; returns a list of row dicts."""
    rows = []
    for rid, relation, query, T, I, J, expected in _table_rows(name):
        if query == "F_plus":
            dec = cm.member_F_plus(T, I)
        else:
            dec = cm.member_IIinf(T, I, J if J is not None else md.M())
        rows.append({"id": rid, "relation": relation, "query": query,
                     "expected": expected, "answer": dec.answer,
                     "ok": dec.answer == expected})
    return rows


def cmd_table(args, query):
    name = args.table or "all"
    rows = run_table(name)

    def text(rs):
        wid = max(len(r["id"]) for r in rs)
        wrel = max(len(r["relation"]) for r in rs)
        lines = ["%-*s  %-*s  %-10s  %-10s  %s"
                 % (wid, "id", wrel, "relation", "expected", "answer", "ok")]
        for r in rs:
            lines.append("%-*s  %-*s  %-10s  %-10s  %s"
                         % (wid, r["id"], wrel, r["relation"], r["expected"],
                            r["answer"], "ok" if r["ok"] else "MISMATCH"))
        return "\n".join(lines) + "\n"

    if args.format == "csv":
        data = _csv_bytes(
            ("id", "relation", "query", "expected", "answer", "ok"),
            [(r["id"], r["relation"], r["query"], r["expected"],
              r["answer"], "true" if r["ok"] else "false") for r in rows])
    else:
        data = _emit_payload("table", rows, args.format, text)
    _write(args, "table." + _EXT[args.format], data)
    return EXIT_OK if all(r["ok"] for r in rows) else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {"mu": cmd_mu, "member": cmd_member, "witness": cmd_witness,
             "brown": cmd_brown, "oracle": cmd_oracle, "table": cmd_table}
_NEEDS_INPUT = ("mu", "member", "witness", "brown", "oracle")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="commcalc",
        description="Singular-value profiles and commutator-space "
                    "membership for normal operators in II_1/II_inf "
                    "factors.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("table", nargs="?", default=None,
                        help="table name for the table command "
                             "(all, f, lp, examples)")
    parser.add_argument("--input", help="query document (JSON)")
    parser.add_argument("--out", help="directory for report artifacts")
    parser.add_argument("--grid", type=int, default=4,
                        help="sample points per octave")
    parser.add_argument("--K", type=int, default=20,
                        help="octaves of dyadic truncation")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text", "csv"),
                        default="json")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.grid < 1 or args.K < 1:
        print("commcalc: --grid and --K must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        query = {}
        if args.command in _NEEDS_INPUT:
            if not args.input:
                raise CliError("--input: required for the %s command"
                               % args.command)
            query = _load_query(args.input)
        return _COMMANDS[args.command](args, query)
    except CliError as exc:
        print("commcalc: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
