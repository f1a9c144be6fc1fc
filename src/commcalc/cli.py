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
from itertools import repeat
from operator import itemgetter

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
# the largest --K: the grid reaches 2^K, and 2.0 ** 1024 overflows
MAX_K = 1023

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
# allow_nan=False); _layout writes it and leaves the rest to _ENCODER
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
_STR = json.encoder.encode_basestring_ascii


def _float_text(x):
    text = float.__repr__(x)
    if "n" in text:  # inf, -inf or nan: no finite repr has an n
        raise ValueError("Out of range float values are not JSON "
                         "compliant: " + repr(x))
    return text


_LEAF = {str: _STR, int: int.__repr__, float: _float_text,
         bool: {True: "true", False: "false"}.get,
         type(None): lambda _: "null"}


def _rows(items, nl, keys=None):
    """The items of a run, each on a line starting with the indent nl and
    written by one %-template, joined by commas; with keys the run is a
    dict's values and each line leads with its escaped key.

    The run is all leaves, all records with one non-empty set of string
    keys, or all lists and tuples of one non-zero length, and its every
    column holds _LEAF types only; any other run gives None.  A refused
    float raises json's error at json's first bad value, row by row.
    """
    types, first = set(map(type, items)), items[0]
    if types <= _LEAF.keys():
        columns, frame = [items], None
    elif types == {dict} and first and set(map(len, items)) == {len(first)} \
            and all(type(k) is str for k in first):
        names = sorted(first)
        try:
            columns = [list(map(itemgetter(k), items)) for k in names]
        except KeyError:
            return None
        frame, heads = "{}", [_STR(k).replace("%", "%%") + ": " for k in names]
    elif types <= {list, tuple} and set(map(len, items)) == {len(first)} \
            and first:
        columns = list(zip(*items))
        frame, heads = "[]", [""] * len(columns)
    else:
        return None
    kinds = [set(map(type, col)) for col in columns]
    if not _LEAF.keys() >= set().union(*kinds):
        return None
    if not all(all(map(math.isfinite, col if kind == {float} else
                       [x for x in col if type(x) is float]))
               for col, kind in zip(columns, kinds) if float in kind):
        for row in zip(*columns):  # json's message, at json's first bad value
            for x in row:
                _LEAF[type(x)](x)
    specs = []
    for i, kind in enumerate(kinds):
        if kind == {float} or kind == {int}:
            specs.append("%r")
        else:  # other or mixed leaf types, converted cell by cell
            columns[i] = [_LEAF[type(x)](x) for x in columns[i]]
            specs.append("%s")
    inner = nl + "  "
    template = specs[0] if frame is None else "%s%s%s%s%s" % (
        frame[0], inner, ("," + inner).join(map(str.__add__, heads, specs)),
        nl, frame[1])
    if keys is not None:
        template = "%s: " + template
        columns.insert(0, map(_STR, keys))
    return ("," + nl).join(map(template.__mod__, zip(*columns)))


def _layout(value, nl):
    """The text of value in the report layout, where nl is a newline and
    the indent of the line value starts on.

    A list, and a dict's values, are written by _rows where they form a
    run of one of its shapes, each leaf by a C-level call; any other run
    is written item by item.  Whatever else json accepts (subclasses,
    non-string keys) and every other error are the stdlib encoder's,
    indented by replacing newlines, which json never writes inside a
    string.
    """
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = nl + "  "
    if type(value) is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        keys = sorted(value)
        body = _rows(list(map(value.__getitem__, keys)), inner, keys)
        if body is None:
            body = ("," + inner).join("%s: %s" % (_STR(k),
                                                  _layout(value[k], inner))
                                      for k in keys)
        return "{%s%s%s}" % (inner, body, nl)
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        body = _rows(value, inner)
        if body is None:
            body = ("," + inner).join(map(_layout, value, repeat(inner)))
        return "[%s%s%s]" % (inner, body, nl)
    if isinstance(value, float):  # a subclass, such as numpy's float64
        return _float_text(value)
    return _ENCODER.encode(value).replace("\n", nl)


def _json_bytes(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) plus a newline, the JSON report contract, written by
    _layout on every Python.  A cyclic document raises RecursionError
    here, where json raises ValueError."""
    return (_layout(obj, "\n") + "\n").encode("utf-8")


def _csv_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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


def _sample(args, f, name):
    """(t, f(t)) on the dyadic grid of --K and --grid inside f's domain
    (the domain of a II_1 operator is the open interval (0, 1))."""
    samples = []
    for t in df.dyadic_grid(-args.K, args.K, args.grid):
        if t < f.domain_hi:
            try:
                samples.append((t, f(t)))
            except OverflowError:
                # a float limit, not an infinite value
                raise CliError("query.operator: %s(%s) overflows a float"
                               % (name, _fmt_num(t))) from None
    return samples


def _samples_csv(samples):
    return _csv_bytes(("t", "value"),
                      [(_fmt_num(t), _fmt_num(v)) for t, v in samples])


# ---------------------------------------------------------------------------
# commands


def cmd_mu(args, query):
    T = _query_field(query, "operator", sz.op_from_json, required=True)
    samples = _sample(args, so.mu(T), "mu")
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
        return _member(T, I, f_plus=True)
    if relation != "commutator":
        raise CliError("query.relation: expected 'commutator' or 'F_plus', "
                       "got %r" % relation)
    return _member(T, I, _query_field(query, "module_J", sz.module_from_json))


def _member(T, I, J=None, f_plus=False):
    """T in F + [I, M] (f_plus), else T in [I, J], J = M by default."""
    if f_plus:
        return cm.member_F_plus(T, I)
    run = cm.member_II1 if T.factor_type == so.II_1 else cm.member_IIinf
    return run(T, I, md.M(T.factor_type) if J is None else J)


def _decision_exit(dec):
    return EXIT_INCONCLUSIVE if dec.answer == "inconclusive" else EXIT_OK


def _decide(run, *args):
    """run(*args), a decision; its domain and float-range errors are
    input errors."""
    try:
        return run(*args)
    except DomainError as exc:
        raise CliError("query: %s" % exc)
    except OverflowError as exc:
        # a float limit, not a property of the operator
        raise CliError("query.operator: %s" % exc) from None


def cmd_member(args, query):
    dec = _decide(_run_member, query)
    _write(args, "member." + _EXT[args.format], emit_report(dec, args.format))
    return _decision_exit(dec)


def cmd_witness(args, query):
    dec = _decide(_run_member, query)
    cert = dec.certificate
    phi = None
    if args.out and cert is not None and cert.phi is not None:
        # sampled before any output: past the float range nothing is written
        phi = _samples_csv(_sample(args, cert.phi, "phi"))
    _write(args, "witness." + _EXT[args.format], emit_report(dec, args.format))
    if phi is not None:
        with open(os.path.join(args.out, "phi.csv"), "wb") as fh:
            fh.write(phi)
    return _decision_exit(dec)


def cmd_brown(args, query):
    T = _query_field(query, "operator", sz.op_from_json, required=True)
    try:
        nu = br.brown_of_normal(T)
    except DomainError as exc:
        raise CliError("query.operator: %s" % exc)
    I = _query_field(query, "module_I", sz.module_from_json)
    # decided before any output: a failing query writes nothing
    dec = None if I is None else _decide(br.member_F, T, I)

    def text(atoms):
        return "".join("atom %s mass %s\n"
                       % (_fmt_complex(complex(a["re"], a["im"])),
                          _fmt_num(a["mass"]))
                       for a in atoms)

    ext = _EXT[args.format]
    _write(args, "brown." + ext, _emit_payload(
        "brown", sz.brown_to_json(nu), args.format, text))
    if dec is None:
        return EXIT_OK
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
        kwargs["tol"] = tol
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


def _seg(lo, hi, phase, *terms):
    return df.Seg(lo, hi, terms, phase)


def _log_witness_fs():
    # positive head 1/(t log^2 t), flat negative block cancelling the trace
    c = math.exp(-2.0)
    return so.make_op([_seg(0.0, c, 1.0, df.Term(1.0, 1.0, 2.0)),
                       _seg(c, c + 0.5, -1.0, df.Term(1.0))])


def _log_witness_b():
    # bounded tail 1/(t log^2 t) for t > 2; the head trace vanishes but the
    # required tail majorant 1/(s log s) falls outside mu((L1)_b)
    v2 = 1.0 / (2.0 * math.log(2.0) ** 2)
    return so.make_op([_seg(0.0, 1.0, 1.0, df.Term(v2)),
                       _seg(1.0, 2.0, -1.0, df.Term(v2)),
                       _seg(2.0, INF, 1.0, df.Term(1.0, 1.0, 2.0))])


def _table_rows(name):
    pair = so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])
    atom = so.from_atoms([(1.0, 1.0)])
    cpair = so.from_atoms([(2.0j, 0.5), (-1.0j, 1.0)])
    head_half = so.make_op([_seg(0.0, 1.0, 1.0, df.Term(1.0, 0.5))])
    tail_slow = so.make_op([_seg(0.0, 1.0, 1.0, df.Term(1.0)),
                            _seg(1.0, INF, 1.0, df.Term(1.0, 0.6))])
    mixed = so.make_op([_seg(0.0, 1.0, 1.0, df.Term(1.0, 0.5)),
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
        dec = _member(T, I, J, query == "F_plus")
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
        cells = [("id", "relation", "expected", "answer", "ok")] + [
            (r["id"], r["relation"], r["expected"], r["answer"],
             "ok" if r["ok"] else "MISMATCH") for r in rs]
        return "".join("%-*s  %-*s  %-10s  %-10s  %s\n"
                       % (wid, c[0], wrel, *c[1:]) for c in cells)

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


# parse_args keeps no state between calls, so one parser serves them all
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.grid < 1 or not 1 <= args.K <= MAX_K:
        print("commcalc: --grid must be positive and --K from 1 to %d"
              % MAX_K, file=sys.stderr)
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
