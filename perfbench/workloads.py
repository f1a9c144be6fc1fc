"""Seeded query generators and reference verdicts for the three workloads.

Documents are built as plain JSON with the standard library only, so
generating them never calls into commcalc: the program sees each document
for the first time when the query runs, and no cache is warmed by the
generator.  Every workload is a sequence of rounds; a round is a fixed
list of slots whose parameters are drawn from ``random.Random`` seeded by
(workload, seed, round).  Runs end on a round boundary, so every run holds
whole rounds: the same mix of queries, and the same share of queries that
fail on a known defect of the program, whatever the run's length.

The slot mix is fixed, so every seed loads the same layers in the same
proportions.  Near the median and the 90th percentile the slots' costs
spread continuously (atom counts, octave spans, matrix dimensions drawn
from ranges) rather than in tight clusters: the shared machine this was
tuned on swings between two speeds about 1.6x apart, and a percentile
that sits inside one tight cluster jumps with it, where a percentile of a
spread-out mix moves no more than the mean does.
"""

import math
import random
from dataclasses import dataclass, field

SCHEMA = "1"
E2 = math.exp(-2.0)
UNIT_PHASES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Query:
    """One closed-loop request.

    ``command`` is a commcalc CLI command fed ``doc`` through ``--input``;
    the command ``shoda`` is the library call
    ``matrix_oracle.shoda_decompose`` on ``matrix``.  ``expect`` is the
    reference: an answer string, ("same_as", qid) for the consistency
    law, or a tag checked by ``check`` in the harness.
    """

    qid: str
    kind: str
    command: str
    doc: dict = None
    argv: tuple = ()
    matrix: list = None
    expect: object = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON builders


def seg(lo, hi, phase, coeff, pow=0.0, logpow=0.0):
    re, im = phase
    return {"lo": lo, "hi": None if hi == math.inf else hi,
            "phase_re": re, "phase_im": im, "coeff": coeff,
            "pow": pow, "logpow": logpow}


def op(segs, factor_type="II_inf"):
    return {"factor_type": factor_type, "segments": segs}


def mod(kind, *children, p=None):
    obj = {"kind": kind}
    if p is not None:
        obj["p"] = p
    if children:
        obj["children"] = list(children)
    return obj


def Lp(p):
    return mod("Lp", p=p)


def query_doc(operator, module_I=None, module_J=None, relation=None):
    doc = {"schema_version": SCHEMA, "operator": operator}
    if module_I is not None:
        doc["module_I"] = module_I
    if module_J is not None:
        doc["module_J"] = module_J
    if relation is not None:
        doc["relation"] = relation
    return doc


def atoms_op(atoms):
    """Decreasing arrangement of (z, mass) atoms, as specop.from_atoms
    orders them: by modulus, then phase angle, then input position."""
    items = sorted(((-abs(z), math.atan2(z.imag, z.real), i, z, m)
                    for i, (z, m) in enumerate(atoms) if z != 0),
                   key=lambda x: x[:3])
    segs, lo = [], 0.0
    for _, _, _, z, m in items:
        r = abs(z)
        segs.append(seg(lo, lo + m, (z.real / r, z.imag / r), r))
        lo += m
    return op(segs)


def raw_atoms(rng, n):
    return [(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)),
             rng.uniform(0.3, 1.2)) for _ in range(n)]


def balanced_atoms(rng, n):
    """n - 1 random atoms plus one unit-mass atom cancelling the trace."""
    atoms = raw_atoms(rng, n - 1)
    atoms.append((-sum(z * m for z, m in atoms), 1.0))
    return atoms


# ---------------------------------------------------------------------------
# decide-powerlog


def golden_rows():
    """The 19 rows of ``commcalc table all`` as (id, query document,
    expected answer); the operators mirror the table's constructions."""
    one, neg = (1.0, 0.0), (-1.0, 0.0)
    pair = atoms_op([(1.0, 1.0), (-1.0, 1.0)])
    atom = atoms_op([(1.0, 1.0)])
    cpair = atoms_op([(2j, 0.5), (-1j, 1.0)])
    zero = op([])
    head_half = op([seg(0.0, 1.0, one, 1.0, 0.5)])
    tail_slow = op([seg(0.0, 1.0, one, 1.0),
                    seg(1.0, math.inf, one, 1.0, 0.6)])
    mixed = op([seg(0.0, 1.0, one, 1.0, 0.5),
                seg(1.0, math.inf, one, 1.0, 0.6)])
    log_fs = op([seg(0.0, E2, one, 1.0, 1.0, 2.0),
                 seg(E2, E2 + 0.5, neg, 1.0)])
    v2 = 1.0 / (2.0 * math.log(2.0) ** 2)
    log_b = op([seg(0.0, 1.0, one, v2), seg(1.0, 2.0, neg, v2),
                seg(2.0, math.inf, one, 1.0, 1.0, 2.0)])
    F, M = mod("F"), mod("M")
    fs, b = (lambda m: mod("FsPart", m)), (lambda m: mod("BPart", m))
    ex_i = mod("Sum", fs(Lp(0.5)), b(Lp(2.0)))
    ex_ii = mod("Sum", fs(Lp(2.0)), b(Lp(0.5)))
    ex_iii = mod("Sum", fs(Lp(1.0)), b(Lp(1.0)))
    rows = [
        ("f_zero_trace_pair", pair, F, None, "member"),
        ("f_nonzero_trace", atom, F, None, "not_member"),
        ("f_zero_operator", zero, F, None, "member"),
        ("f_complex_pair", cpair, F, None, "member"),
        ("m_full_algebra", atom, M, M, "member"),
        ("lp_half_fs", head_half, fs(Lp(0.5)), None, "member"),
        ("lp_half_b_zero", pair, b(Lp(0.5)), None, "member"),
        ("lp_half_b_trace", atom, b(Lp(0.5)), None, "not_member"),
        ("lp_one_fs_witness", log_fs, fs(Lp(1.0)), "F_plus", "not_member"),
        ("lp_one_b_witness", log_b, b(Lp(1.0)), "F_plus", "not_member"),
        ("lp_two_fs_zero", pair, fs(Lp(2.0)), None, "member"),
        ("lp_two_fs_trace", atom, fs(Lp(2.0)), None, "not_member"),
        ("lp_two_fs_fplus", atom, fs(Lp(2.0)), "F_plus", "member"),
        ("lp_two_b", tail_slow, b(Lp(2.0)), None, "member"),
        ("example_i", mixed, ex_i, None, "member"),
        ("example_ii_zero", pair, ex_ii, None, "member"),
        ("example_ii_trace", atom, ex_ii, None, "not_member"),
        ("example_ii_fplus", atom, ex_ii, "F_plus", "member"),
        ("example_iii", log_fs, ex_iii, "F_plus", "not_member"),
    ]
    out = []
    for rid, T, I, J_or_rel, expected in rows:
        if J_or_rel == "F_plus":
            doc = query_doc(T, I, relation="F_plus")
        else:
            doc = query_doc(T, I, J_or_rel)
        out.append((rid, doc, expected))
    return out


def _phase(rng):
    return rng.choice(UNIT_PHASES)


def schedule(k, i, slots):
    """Point in [0, 1) for slot i of round k: a golden-ratio sequence,
    equidistributed over the rounds of every slot and the same for every
    seed.  Parameters that set a query's cost (atom counts, octave spans,
    dimensions) come from it, so seeds differ in values, not in load."""
    return (0.5 + GOLDEN * (k * slots + i)) % 1.0


# Builders take (rng, x, ...) with x from schedule().  Exponents and
# modules fix each slot's decision path; coefficients, phases and atom
# values come from the seed.


def _head_member(rng, x, g, I, J):
    # c t^-g on (0, 1) against an L_1/2 module: member through the
    # fs-side envelope fit (tens of ms)
    return op([seg(0.0, 1.0, _phase(rng), rng.uniform(0.5, 2.0), g)]), I, J


def _reject_head(rng, x):
    # unbounded head against M: module necessity fails at once
    T = op([seg(0.0, 1.0, _phase(rng), rng.uniform(0.5, 2.0), 0.5)])
    return T, mod("M"), mod("M")


def _reject_tail(rng, x):
    # infinite support against F: module necessity fails at once
    c, ph = rng.uniform(0.5, 2.0), _phase(rng)
    T = op([seg(0.0, 1.0, ph, c), seg(1.0, math.inf, ph, c, 1.5)])
    return T, mod("F"), mod("M")


def _raw_atoms(rng, x, I):
    # 8..32 atoms with nonzero trace: not_member, at a cost that grows
    # with the atom count, so these spread the middle of the latency
    # range over about a factor of two
    n = round(2.0 ** (3.0 + 2.0 * x))
    return atoms_op(raw_atoms(rng, n)), I, mod("M")


def _tail(rng, x):
    # constant head, t^-0.6 tail: the bounded side of the split criterion
    c, ph = rng.uniform(0.5, 2.0), _phase(rng)
    T = op([seg(0.0, 1.0, ph, c), seg(1.0, math.inf, ph, c, 0.6)])
    return T, mod("BPart", Lp(2.0)), mod("M")


def _atoms_cert(rng, x):
    # trace-zero atoms: member with the dyadic alpha/beta certificate
    return atoms_op(balanced_atoms(rng, 3)), Lp(1.0), mod("M")


def _log_head(rng, x):
    # c/(t log^2 t) head whose trace c/2 is cancelled by a flat block
    c = rng.uniform(0.5, 2.0)
    v = c * math.exp(2.0) / 4.0 * rng.uniform(0.3, 0.9)
    T = op([seg(0.0, E2, (1.0, 0.0), c, 1.0, 2.0),
            seg(E2, E2 + 0.5 * c / v, (-1.0, 0.0), v)])
    return T, mod("FsPart", Lp(1.0)), mod("M")


def _mixed(rng, x, g, d):
    # t^-g head with a t^-d tail against (L_1/2)_fs + (L_2)_b: passes
    # module necessity, so the bounded part is split into ~1,900
    # segments.  The cost depends on c, hence c from the schedule with a
    # 1% seeded jitter.
    c = (0.5 + 1.5 * x) * rng.uniform(0.99, 1.01)
    ph = _phase(rng)
    T = op([seg(0.0, 1.0, ph, c, g), seg(1.0, math.inf, ph, c, d)])
    I = mod("Sum", mod("FsPart", Lp(0.5)), mod("BPart", Lp(2.0)))
    return T, I, mod("M")


_HALF, _HALF_FS = Lp(0.5), mod("FsPart", Lp(0.5))

# slot name, builder, fixed arguments; one consistency-law pair each.
# Ranked by latency, a round is 30% sub-millisecond rejections, 37% atom
# profiles whose cost grows with the atom count (the median falls in
# the middle of this stretch), 20% tens-of-ms decisions, and 13% mixed
# profiles (the 90th percentile falls inside them).
POWERLOG_SLOTS = (
    ("head_member", _head_member, (0.25, _HALF, mod("M"))),
    ("head_member", _head_member, (0.5, _HALF_FS, Lp(2.0))),
    ("head_member", _head_member, (0.75, _HALF, Lp(2.0))),
    ("reject", _reject_head, ()),
    ("reject", _reject_head, ()),
    ("reject", _reject_head, ()),
    ("reject", _reject_head, ()),
    ("reject", _reject_tail, ()),
    ("reject", _reject_tail, ()),
    ("reject", _reject_tail, ()),
    ("raw_atoms", _raw_atoms, (mod("F"),)),
    ("raw_atoms", _raw_atoms, (mod("F"),)),
    ("raw_atoms", _raw_atoms, (mod("F"),)),
    ("raw_atoms", _raw_atoms, (mod("F"),)),
    ("raw_atoms", _raw_atoms, (Lp(1.0),)),
    ("raw_atoms", _raw_atoms, (Lp(1.0),)),
    ("raw_atoms", _raw_atoms, (Lp(1.0),)),
    ("raw_atoms", _raw_atoms, (Lp(1.0),)),
    ("tail", _tail, ()),
    ("atoms_cert", _atoms_cert, ()),
    ("log_head", _log_head, ()),
    ("mixed", _mixed, (0.5, 0.6)),
    ("mixed", _mixed, (0.25, 0.75)),
    ("mixed", _mixed, (0.5, 0.75)),
)


def scaled(doc, s, u):
    """The query document with its operator multiplied by s u, for s > 0
    and u one of UNIT_PHASES (so the phases stay exact).  The zero
    operator, its own multiple, is written instead as a zero-coefficient
    segment on (0, s), which the parser drops, so that the document
    differs."""
    segs = [dict(g, coeff=g["coeff"] * s,
                 phase_re=g["phase_re"] * u[0] - g["phase_im"] * u[1],
                 phase_im=g["phase_re"] * u[1] + g["phase_im"] * u[0])
            for g in doc["operator"]["segments"]] or [seg(0.0, s, u, 0.0)]
    return dict(doc, operator=dict(doc["operator"], segments=segs))


def golden_queries(rng, k, tag="r"):
    """The 19 golden rows with their expected answers: verbatim in round 0
    of a run, and in every other round multiplied by a seeded s u, s in
    [0.95, 1.05].  [I, J] and F + [I, M] are linear spaces, so every
    multiple keeps the row's answer; the costs stay close to the table's
    and no document repeats within a run."""
    rows = golden_rows()
    if (k, tag) != (0, "r"):
        s, u = rng.uniform(0.95, 1.05), _phase(rng)
        rows = [(rid, scaled(doc, s, u), e) for rid, doc, e in rows]
    return [Query("%s%d/golden/%s" % (tag, k, rid), "golden", "member", doc,
                  expect=expected) for rid, doc, expected in rows]


def powerlog_round(rng, k, tag="r"):
    """The golden rows spread between consistency-law pairs.  Each slot is
    a pair: ``member`` on [I, J] and ``witness`` on [IJ, M]; decided
    answers of a pair must agree."""
    n = len(POWERLOG_SLOTS)
    slots = [(name, build, (schedule(k, i, n),) + args)
             for i, (name, build, args) in enumerate(POWERLOG_SLOTS)]
    rng.shuffle(slots)
    pairs = []
    for j, (name, build, args) in enumerate(slots):
        T, I, J = build(rng, *args)
        qa = "%s%d/%d/%s/A" % (tag, k, j, name)
        pairs.append([
            Query(qa, name, "member", query_doc(T, I, J)),
            Query("%s%d/%d/%s/B" % (tag, k, j, name), name, "witness",
                  query_doc(T, mod("Product", I, J), mod("M")),
                  expect=("same_as", qa))])
    golden = golden_queries(rng, k, tag)
    for i, q in enumerate(golden):
        pairs[i * n // len(golden)].insert(0, q)
    return [q for pair in pairs for q in pair]


# ---------------------------------------------------------------------------
# brown-certify


def _brown_balanced(rng, x):
    return (query_doc(atoms_op(balanced_atoms(rng, 2 + int(3 * x))),
                      Lp(1.0)), "member", {})


def _brown_raw(rng, x):
    return (query_doc(atoms_op(raw_atoms(rng, 2 + int(3 * x))),
                      Lp(1.0)), "not_member", {})


def _brown_powerlaw(rng, x):
    # flat level c on (0, a), then c (t/a)^-d over u octaves, zero beyond:
    # the Brown measure has 16 atoms per octave, so u in [8, 120] gives
    # ~130 to ~1,900 atoms and reports of ~13 to ~190 KB.  The reference:
    # the flat atom carries mass a at modulus c, and the masses sum to the
    # support length a 2^u.
    c, a = rng.uniform(0.5, 2.0), rng.uniform(0.25, 2.0)
    u, d = 8.0 + 112.0 * x, rng.choice((0.6, 1.0, 1.5))
    T = op([seg(0.0, a, _phase(rng), c),
            seg(a, a * 2.0 ** u, _phase(rng), c * a ** d, d)])
    return query_doc(T), "brown_mass", {"level": c, "head_mass": a,
                                        "total_mass": a * 2.0 ** u}


BROWN_SLOTS = (
    ("balanced", _brown_balanced, 2),
    ("raw", _brown_raw, 2),
    ("powerlaw", _brown_powerlaw, 4),
)


def brown_round(rng, k, tag="r"):
    slots = [(name, build) for name, build, n in BROWN_SLOTS
             for _ in range(n)]
    slots = [(name, build, schedule(k, i, len(slots)))
             for i, (name, build) in enumerate(slots)]
    rng.shuffle(slots)
    out = []
    for j, (name, build, x) in enumerate(slots):
        doc, expect, extra = build(rng, x)
        out.append(Query("%s%d/%d/%s" % (tag, k, j, name), name, "brown",
                         doc, expect=expect, extra=extra))
    return out


# ---------------------------------------------------------------------------
# oracle-matrix

# suite, (lowest, highest) dimension, trials; each query's dimension comes
# from the schedule, so costs spread continuously; the seed gives --seed
ORACLE_SLOTS = (
    ("lemma_nec", (8, 48), 1),
    ("lemma_nec", (8, 48), 1),
    ("snumb", (8, 64), 2),
    ("soplus", (8, 64), 1),
    ("brown_phi", (8, 64), 3),
    ("pluri", (8, 32), 1),
)
SHODA_DIMS = (8, 16)


def trace_zero_matrix(rng, n):
    """Seeded complex Gaussian n x n matrix with its trace removed, as
    nested [re, im] pairs so that it survives JSON round trips."""
    m = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
          for _ in range(n)] for _ in range(n)]
    t = sum(m[i][i] for i in range(n)) / n
    for i in range(n):
        m[i][i] -= t
    return [[(z.real, z.imag) for z in row] for row in m]


def oracle_round(rng, k, tag="r"):
    out = []
    n = len(ORACLE_SLOTS) + 1

    def dim(i, lo, hi):
        return lo + int((hi - lo + 1) * schedule(k, i, n))

    for j, (suite, (lo, hi), trials) in enumerate(ORACLE_SLOTS):
        doc = {"schema_version": SCHEMA, "suite": suite,
               "dims": [dim(j, lo, hi)], "trials": trials}
        argv = ("--seed", str(rng.randrange(2 ** 31)))
        out.append(Query("%s%d/%d/%s" % (tag, k, j, suite), suite,
                         "oracle", doc, argv=argv, expect="oracle_clean"))
    out.append(Query("%s%d/shoda" % (tag, k), "shoda", "shoda",
                     matrix=trace_zero_matrix(rng, dim(n - 1, *SHODA_DIMS)),
                     expect="shoda_residual"))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round: object   # (rng, k, tag) -> [Query]; qids start with tag + k
    commands: tuple  # commands given one untimed warm-up query
    trace_rounds: int  # rounds in the fixed document set of a traced run


WORKLOADS = {
    "decide-powerlog": Workload(
        "decide-powerlog",
        "golden rows plus consistency-law pairs; mixed head+tail profiles"
        " split into ~1,900 segments load specop/commutator/decfun",
        powerlog_round, ("member", "witness"), 2),
    "brown-certify": Workload(
        "brown-certify",
        "member_F certificates on <=4-segment atoms (per-call overhead) and"
        " ~190 KB Brown-measure reports (serialize/cli emit side)",
        brown_round, ("brown",), 12),
    "oracle-matrix": Workload(
        "oracle-matrix",
        "matrix_oracle suites and shoda_decompose only: LAPACK and numpy,"
        " never decfun/specop, so power-log work predicts no change",
        oracle_round, ("oracle", "shoda"), 20),
}


def round_rng(workload, seed, k):
    return random.Random("%s:%d:%d" % (workload, seed, k))


def rounds(workload, seed):
    """The workload's rounds 0, 1, 2, ... for one seed, generated on
    demand."""
    w = WORKLOADS[workload]
    k = 0
    while True:
        yield w.round(round_rng(workload, seed, k), k)
        k += 1


def warmup_queries():
    """One small document per command, distinct from every workload
    document (the seed stream never draws these parameters)."""
    tiny = query_doc(op([seg(0.0, 0.25, (1.0, 0.0), 3.0)]), mod("F"))
    return {
        "member": Query("warmup/member", "warmup", "member", tiny),
        "witness": Query("warmup/witness", "warmup", "witness", tiny),
        "brown": Query("warmup/brown", "warmup", "brown", tiny),
        "oracle": Query("warmup/oracle", "warmup", "oracle",
                        {"schema_version": SCHEMA, "suite": "snumb",
                         "dims": [2], "trials": 1},
                        argv=("--seed", str(2 ** 31))),
        "shoda": Query("warmup/shoda", "warmup", "shoda",
                       matrix=[[(1.0, 0.0), (0.0, 0.0)],
                               [(2.0, 0.0), (-1.0, 0.0)]]),
    }
