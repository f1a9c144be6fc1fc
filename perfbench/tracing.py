"""Span recorder for the traced run.

Layer functions are wrapped from here by rebinding the module attributes
(and ``PLFun.__call__`` on its class).  Calls inside one module, such as
``band_trace -> dist_fun``, look the name up in the same module globals,
so the wrappers see them as well.  Each wrapper records a span (name,
start, end, parent span, query id) into flat arrays kept in memory; the
per-layer table is reduced from those arrays when the run ends.
"""

import array
import functools
import time

# (module, attribute, metric name); "PLFun.__call__" is patched on the class
LAYERS = (
    ("specop", "band_trace", "specop.band_trace"),
    ("specop", "dist_fun", "specop.dist_fun"),
    ("specop", "integrate_v", "specop.integrate_v"),
    ("specop", "mu", "specop.mu"),
    ("specop", "make_op", "specop.make_op"),
    ("specop", "split_fs_b", "specop.split_fs_b"),
    ("decfun", "PLFun.__call__", "decfun.plfun_eval"),
    ("decfun", "make", "decfun.make"),
    ("decfun", "envelope_majorant", "decfun.envelope_majorant"),
    ("decfun", "integral", "decfun.integral"),
    ("decfun", "combine", "decfun.combine"),
    ("modules", "contains", "modules.contains"),
    ("modules", "product_module", "modules.product_module"),
    ("commutator", "member_with_a", "commutator.member_with_a"),
    ("commutator", "head_values", "commutator.head_values"),
    ("commutator", "tail_values", "commutator.tail_values"),
    ("commutator", "trace_limit", "commutator.trace_limit"),
    ("commutator", "fdh_certificate", "commutator.fdh_certificate"),
    ("commutator", "beta_sequence", "commutator.beta_sequence"),
    ("brown", "member_F", "brown.member_F"),
    ("brown", "build_V", "brown.build_V"),
    ("brown", "verify_certificate", "brown.verify_certificate"),
    ("brown", "brown_of_normal", "brown.brown_of_normal"),
    ("serialize", "op_from_json", "serialize.op_from_json"),
    ("serialize", "module_from_json", "serialize.module_from_json"),
    ("serialize", "decision_to_json", "serialize.decision_to_json"),
    ("serialize", "brown_to_json", "serialize.brown_to_json"),
    ("cli", "main", "cli.main"),
    ("cli", "emit_report", "cli.emit_report"),
    ("matrix_oracle", "run_property_suite",
     "matrix_oracle.run_property_suite"),
    ("matrix_oracle", "fk_det_matrix", "matrix_oracle.fk_det_matrix"),
    ("matrix_oracle", "shoda_decompose", "matrix_oracle.shoda_decompose"),
)
QUERY_SPAN = "bench.query"

# counts and ratios recorded at the same boundaries
COUNTS = (
    "specop.split_fs_b.segments_out",
    "brown.brown_of_normal.atoms_out",
    "decfun.quad_warnings",
    "cli.report_bytes",
    "matrix_oracle.trials",
    "matrix_oracle.svd_calls",
)
RATIOS = (
    # name, numerator count, denominator count
    ("commutator.fdh_certificate.accept_ratio",
     "commutator.fdh_certificate.returned",
     "commutator.fdh_certificate.calls"),
    ("brown.verify_certificate.ok_ratio",
     "brown.verify_certificate.ok", "brown.verify_certificate.calls"),
)


def metric_names():
    """Every per-layer metric a traced run prints, in a fixed order."""
    names = []
    for _, _, name in LAYERS + (("", "", QUERY_SPAN),):
        names += [name + ".calls", name + ".self_s"]
    names += list(COUNTS) + [r[0] for r in RATIOS]
    names += ["bench.query.wall_s", "bench.trace_overhead_frac"]
    return names


class Recorder:
    """Spans in flat arrays: name id, start, end, parent index, query."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.query = array.array("i")
        self.stack = []
        self.oracle_depth = 0
        self.current_query = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts.update({"commutator.fdh_certificate.returned": 0,
                            "brown.verify_certificate.ok": 0})

    def intern(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, nid):
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.current_query)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, name, n):
        self.counts[name] += n

    # -- reduction ---------------------------------------------------------

    def layer_table(self):
        """{name: (calls, self seconds, wall seconds)}.  Self time is a
        span's duration minus the time its direct children cover
        (children of one span never overlap in this single-threaded
        program)."""
        import numpy as np

        n = len(self.start)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_t, minlength=k)
        walls = np.bincount(names, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(selfs[i]), float(walls[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path):
        """Write the raw spans (numpy .npz) for offline inspection."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32))


def _span(rec, nid, fn, post=None, oracle=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if oracle:
            rec.oracle_depth += 1
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if oracle:
                rec.oracle_depth -= 1
        if post is not None:
            post(result)
        return result
    return wrapper


class Instrumentation:
    """Installs the wrappers on the commcalc modules and removes them."""

    def __init__(self, rec):
        self.rec = rec
        self.saved = []

    def _posts(self):
        rec = self.rec

        def split_out(res):
            rec.add("specop.split_fs_b.segments_out",
                    len(res[0].segs) + len(res[1].segs))

        def atoms_out(nu):
            rec.add("brown.brown_of_normal.atoms_out", len(nu.atoms))

        def fdh_ok(_):
            rec.add("commutator.fdh_certificate.returned", 1)

        def verify_ok(rep):
            if rep["ok"]:
                rec.add("brown.verify_certificate.ok", 1)

        def trials(rep):
            rec.add("matrix_oracle.trials", len(rep["dims"]) * rep["trials"])

        return {"specop.split_fs_b": split_out,
                "brown.brown_of_normal": atoms_out,
                "commutator.fdh_certificate": fdh_ok,
                "brown.verify_certificate": verify_ok,
                "matrix_oracle.run_property_suite": trials}

    def install(self):
        import importlib

        import numpy

        posts = self._posts()
        for modname, attr, name in LAYERS:
            mod = importlib.import_module("commcalc." + modname)
            owner = mod
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(mod, cls)
            fn = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, _span(self.rec, self.rec.intern(name), fn,
                                       posts.get(name),
                                       modname == "matrix_oracle"))
        rec = self.rec
        svd = numpy.linalg.svd

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            if rec.oracle_depth:
                rec.add("matrix_oracle.svd_calls", 1)
            return svd(*args, **kwargs)

        self.saved.append((numpy.linalg, "svd", svd))
        numpy.linalg.svd = counted_svd

    def remove(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved = []
