"""JSON (de)serialization for profiles, operators, module descriptors,
spectral measures, and decisions.

Every top-level document carries a mandatory schema_version field; parse
errors name the offending path ("segments[2].coeff").  A path is a string,
or a (list path, index) pair for a record in a list; its string is built
only for an error (_at).
"""

import math

from . import brown as br
from . import decfun as df
from . import modules as md
from . import specop as so
from .decfun import INF

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    def __init__(self, path, msg):
        self.path = path
        super().__init__("%s: %s" % (path, msg))


def _at(path, key=None):
    """The string of path, or of its field key: "segments[2].coeff"."""
    if isinstance(path, tuple):
        path = "%s[%d]" % path
    return path if key is None else path + "." + key


def _num(obj, path, key=None, allow_null_inf=False):
    """The number obj at path (field key) as a float."""
    if obj is None and allow_null_inf:
        return INF
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(_at(path, key), "expected a number, got %r"
                          % (obj,))
    try:
        x = float(obj)
    except OverflowError:  # an int past the float range
        raise SchemaError(_at(path, key), "expected a number within the "
                          "float range") from None
    if not math.isfinite(x):
        raise SchemaError(_at(path, key), "expected a finite number")
    return x


def _record(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(_at(path), "expected an object, got %r"
                          % type(obj))
    for key in required:
        if key not in obj:
            raise SchemaError(_at(path, key), "missing required field")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(_at(path, key), "unknown field")
    return obj


# ---------------------------------------------------------------------------
# PLFun


def _seg_records(segs, phases):
    """One record {lo, hi, coeff, pow, logpow[, logscale]} per term, a zero
    segment as one zero term; hi null = INF, multi-term segments repeat
    (lo, hi).  With phases, each record also carries its segment's
    phase_re and phase_im."""
    out = []
    for seg in segs:
        hi = None if seg.hi == INF else seg.hi
        if phases:
            phase = complex(seg.phase)
        for term in seg.terms or (df.Term(0.0),):
            rec = {"lo": seg.lo, "hi": hi, "coeff": term.coeff,
                   "pow": term.pow, "logpow": term.logpow}
            if term.scale != 1.0:
                rec["logscale"] = term.scale
            if phases:
                rec["phase_re"], rec["phase_im"] = phase.real, phase.imag
            out.append(rec)
    return out


def plfun_to_json(f):
    """Array of {lo, hi, coeff, pow, logpow[, logscale]} segment records."""
    return _seg_records(f.segs, False)


def _group_records(data, path, fields):
    if not isinstance(data, list):
        raise SchemaError(path, "expected an array of segment records")
    groups = []
    for i, rec in enumerate(data):
        p = (path, i)
        _record(rec, p, ("lo", "hi", "coeff") + fields[0], fields[1])
        lo = _num(rec["lo"], p, "lo")
        hi = _num(rec["hi"], p, "hi", allow_null_inf=True)
        if hi <= lo:
            raise SchemaError(_at(p, "hi"), "hi must exceed lo")
        if groups and groups[-1][0] == (lo, hi):
            groups[-1][1].append((p, rec))
        else:
            groups.append(((lo, hi), [(p, rec)]))
    return groups


def _term_of(rec, p):
    tm = df.Term(_num(rec["coeff"], p, "coeff"),
                 _num(rec.get("pow", 0.0), p, "pow"),
                 _num(rec.get("logpow", 0.0), p, "logpow"),
                 _num(rec.get("logscale", 1.0), p, "logscale"))
    if tm.scale <= 0.0:
        raise SchemaError(_at(p, "logscale"), "expected a positive number")
    return tm


def plfun_from_json(data, domain_hi=INF, path="plfun"):
    groups = _group_records(data, path, ((), ("pow", "logpow", "logscale")))
    segs = [df.Seg(lo, hi, tuple(_term_of(rec, p) for p, rec in recs))
            for (lo, hi), recs in groups]
    try:
        return df.make(segs, domain_hi)
    except df.DomainError as exc:
        raise SchemaError(path, str(exc))


# ---------------------------------------------------------------------------
# operators


def op_to_json(T):
    return {"factor_type": T.factor_type,
            "segments": _seg_records(T.segs, True)}


def op_from_json(obj, path="operator"):
    _record(obj, path, ("factor_type", "segments"))
    ft = obj["factor_type"]
    if ft not in (so.II_INF, so.II_1):
        raise SchemaError(path + ".factor_type",
                          "expected %r or %r" % (so.II_INF, so.II_1))
    groups = _group_records(
        obj["segments"], path + ".segments",
        (("phase_re", "phase_im"), ("pow", "logpow", "logscale")))
    segs = []
    for (lo, hi), recs in groups:
        p0, rec0 = recs[0]
        phase = complex(_num(rec0["phase_re"], p0, "phase_re"),
                        _num(rec0["phase_im"], p0, "phase_im"))
        for p, rec in recs[1:]:
            other = complex(_num(rec["phase_re"], p, "phase_re"),
                            _num(rec["phase_im"], p, "phase_im"))
            if other != phase:
                raise SchemaError(_at(p, "phase_re"),
                                  "phase differs within one segment")
        terms = tuple(_term_of(rec, p) for p, rec in recs)
        segs.append(df.Seg(lo, hi, terms, phase))
    try:
        return so.make_op(segs, ft)
    except df.DomainError as exc:
        raise SchemaError(path, str(exc))


# ---------------------------------------------------------------------------
# module descriptors


_LEAF_KINDS = ("Llog", "F", "K", "M")
_WRAP_KINDS = {"FsPart": md.FsPart, "BPart": md.BPart, "Vanish": md.Vanish}
_PAIR_KINDS = {"Sum": md.Sum, "Product": md.Product}


def module_to_json(I):
    obj = {"kind": I.kind, "factor_type": I.factor_type}
    if I.kind == "Lp":
        obj["p"] = I.p
    if I.gen is not None:
        obj["gen"] = plfun_to_json(I.gen)
    if I.children:
        obj["children"] = [module_to_json(c) for c in I.children]
    return obj


def module_from_json(obj, path="module"):
    _record(obj, path, ("kind",), ("factor_type", "p", "gen", "children"))
    kind = obj["kind"]
    ft = obj.get("factor_type", so.II_INF)
    if ft not in (so.II_INF, so.II_1):
        raise SchemaError(path + ".factor_type", "unknown factor type")
    try:
        if kind == "Lp":
            return md.Lp(_num(obj.get("p"), path, "p"), ft)
        if kind in _LEAF_KINDS:
            return getattr(md, kind)(ft)
        if kind == "Principal":
            if "gen" not in obj:
                raise SchemaError(path + ".gen", "missing required field")
            hi = 1.0 if ft == so.II_1 else INF
            return md.Principal(plfun_from_json(obj["gen"], hi,
                                                path + ".gen"))
        if kind in _WRAP_KINDS:
            kids = obj.get("children", [])
            if len(kids) != 1:
                raise SchemaError(path + ".children", "expected one child")
            return _WRAP_KINDS[kind](
                module_from_json(kids[0], path + ".children[0]"))
        if kind in _PAIR_KINDS:
            kids = obj.get("children", [])
            if len(kids) != 2:
                raise SchemaError(path + ".children", "expected two children")
            return _PAIR_KINDS[kind](
                module_from_json(kids[0], path + ".children[0]"),
                module_from_json(kids[1], path + ".children[1]"))
    except df.DomainError as exc:
        raise SchemaError(path, str(exc))
    raise SchemaError(path + ".kind", "unknown module kind %r" % kind)


# ---------------------------------------------------------------------------
# spectral measures


def brown_to_json(nu):
    return [{"re": z.real, "im": z.imag, "mass": m} for z, m in nu.atoms]


def brown_from_json(data, path="brown"):
    if not isinstance(data, list):
        raise SchemaError(path, "expected an array of atoms")
    atoms = []
    for i, rec in enumerate(data):
        p = (path, i)
        _record(rec, p, ("re", "im", "mass"))
        mass = _num(rec["mass"], p, "mass")
        if mass < 0.0:
            raise SchemaError(_at(p, "mass"), "mass must be nonnegative")
        atoms.append((complex(_num(rec["re"], p, "re"),
                              _num(rec["im"], p, "im")), mass))
    return br.BrownMeasure(tuple(atoms))


# ---------------------------------------------------------------------------
# decisions


def _complex_json(z):
    z = complex(z)
    return [z.real, z.imag]


def certificate_to_json(cert):
    obj = {"a": _complex_json(cert.a),
           "h_fs": None if cert.h_fs is None else plfun_to_json(cert.h_fs),
           "h_b": None if cert.h_b is None else plfun_to_json(cert.h_b),
           "total_count": cert.total_count}
    if cert.alpha is not None:
        obj["alpha"] = {str(n): _complex_json(v)
                        for n, v in sorted(cert.alpha.items())}
    if cert.beta is not None:
        obj["beta"] = {str(n): [v[0], v[1]]
                       for n, v in sorted(cert.beta.items())}
    if cert.beta0_interval is not None:
        obj["beta0_interval"] = {"re": list(cert.beta0_interval[0]),
                                 "im": list(cert.beta0_interval[1])}
    if cert.phi is not None:
        obj["phi"] = plfun_to_json(cert.phi)
    if cert.block_bounds:
        obj["block_bounds"] = list(cert.block_bounds)
    return obj


def decision_to_json(dec):
    ob = dec.obstruction
    if ob is not None and "a" in ob:
        ob = dict(ob, a=_complex_json(ob["a"]))
    obj = {"answer": dec.answer, "notes": dec.notes, "obstruction": ob,
           "certificate": None}
    if dec.certificate is not None:
        obj["certificate"] = certificate_to_json(dec.certificate)
    return obj


# ---------------------------------------------------------------------------
# documents


def document(kind, payload):
    return {"schema_version": SCHEMA_VERSION, "type": kind, kind: payload}


def load_document(obj, path="document"):
    _record(obj, path, ("schema_version", "type"),
            ("plfun", "operator", "module", "brown", "decision"))
    if obj["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(path + ".schema_version",
                          "unsupported version %r" % (obj["schema_version"],))
    kind = obj["type"]
    if kind not in obj:
        raise SchemaError(path + "." + str(kind), "missing payload")
    payload = obj[kind]
    if kind == "plfun":
        return plfun_from_json(payload, path=path + ".plfun")
    if kind == "operator":
        return op_from_json(payload, path + ".operator")
    if kind == "module":
        return module_from_json(payload, path + ".module")
    if kind == "brown":
        return brown_from_json(payload, path + ".brown")
    raise SchemaError(path + ".type", "unknown document type %r" % (kind,))
