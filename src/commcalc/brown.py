"""Spectral-measure layer for the normal model: the spectral distribution
nu_T, the band functional Phi(r,s;T) = integral of z over r < |z| <= s,
and the F/G certificate classes that member_F checks against it."""

import math
import operator
from dataclasses import dataclass, replace
from itertools import count, repeat

import numpy as np

from . import commutator as cm
from . import decfun as df
from . import modules as md
from . import specop as so
from .decfun import INF, DomainError
from .specop import II_INF

BROWN_PPO = 16
DEPTH_OCTAVES = 60
# the certificate probe grid: 40 log-spaced points on [2^-20, 2^20]
PROBE_PTS = np.geomspace(2.0 ** -20, 2.0 ** 20, 40)


def _norm_atoms(atoms):
    """Atoms with positive mass, those at one point merged in first-seen
    order, sorted by decreasing modulus, then by angle in [0, 2 pi), then
    first seen first."""
    if any(m < 0.0 for _, m in atoms):
        raise DomainError("negative mass")
    atoms = [(complex(z), 0.0 + m) for z, m in atoms if m != 0.0]
    if len({z for z, _ in atoms}) < len(atoms):
        merged = {}
        for z, m in atoms:
            merged[z] = merged.get(z, 0.0) + m
        atoms = list(merged.items())
    zs = [z for z, _ in atoms]
    # math.atan2, not cmath.phase: that raises when the angle underflows
    angles = [math.atan2(z.imag, z.real) % (2.0 * math.pi) for z in zs]
    keys = sorted(zip(map(operator.neg, map(abs, zs)), angles, count()))
    return tuple(atoms[i] for _, _, i in keys)


@dataclass(frozen=True)
class BrownMeasure:
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", _norm_atoms(self.atoms))

    @property
    def total_mass(self):
        return sum(m for _, m in self.atoms)

    def log_moment(self):
        return sum(m * math.log1p(abs(z)) for z, m in self.atoms)

    def p_moment(self, p):
        return sum(m * abs(z) ** p for z, m in self.atoms)

    def is_zero(self):
        return all(z == 0.0 for z, _ in self.atoms)


# ---------------------------------------------------------------------------
# spectral measure of the normal model


def brown_of_normal(T):
    """Pushforward of the scale measure under the profile.

    Constant segments give exact atoms; other segments are chopped into
    log-spaced chunks (BROWN_PPO per octave, DEPTH_OCTAVES deep) with the
    value taken at the geometric midpoint; chunk masses are exact.  Mass
    sitting at 0 is omitted.
    """
    atoms = []
    for seg in T.segs:
        if seg.is_const():
            if seg.hi == INF:
                raise DomainError(
                    "nonvanishing tail carries infinite spectral mass")
            atoms.append((seg.phase * seg.value(
                0.5 * (seg.lo + seg.hi)), seg.hi - seg.lo))
            continue
        hi = seg.hi
        if hi == INF:
            hi = max(seg.lo, 1.0) * 2.0 ** DEPTH_OCTAVES
        lo_floor = seg.lo if seg.lo > 0.0 else hi * 2.0 ** -DEPTH_OCTAVES
        step = 2.0 ** (-1.0 / BROWN_PPO)
        stop = lo_floor * (1.0 + 1e-12)
        cuts = [hi]
        t = hi
        while t > stop:
            t *= step
            cuts.append(t)
        # every cut before the last is above stop, so only the last can
        # fall below lo_floor
        cuts[-1] = max(t, lo_floor)
        cuts.reverse()
        if seg.lo < lo_floor:
            # deepest chunk keeps the exact remaining mass
            cuts.insert(0, seg.lo)
        mids = list(map(_midpoint, cuts, cuts[1:]))
        try:
            vs = seg.values(mids)
        except OverflowError:
            # a float limit, not divergence of the measure; named at the
            # first midpoint whose value overflows
            for t in mids:
                try:
                    seg.value(t)
                except OverflowError:
                    raise DomainError("|T| overflows a float at t=%g"
                                      % t) from None
        atoms += zip(map(operator.mul, repeat(seg.phase), vs),
                     map(operator.sub, cuts[1:], cuts))
    return BrownMeasure(tuple(atoms))


def _midpoint(a, b):
    """Geometric midpoint of the chunk (a, b), the deepest one from
    b 1e-30 up.  Where the product underflows to 0 it is the product of
    the square roots, from the least positive float up: a subnormal
    midpoint, where 0 would be no point of the chunk."""
    mid = math.sqrt(max(a, b * 1e-30) * b)
    if mid == 0.0:
        mid = math.sqrt(max(a, b * 1e-30, math.ulp(0.0))) * math.sqrt(b)
    return mid


def normal_model(nu):
    """Step profile with the given spectral measure; atoms sorted by
    decreasing modulus."""
    return so.from_atoms(list(nu.atoms), II_INF)


def phi(src, r, s):
    """Band integral of z over r < |z| <= s, of a Brown measure or of an
    operator T: there the band query of v over (D(s), D(r)), the float
    that so.band_trace(T, "by_modulus", a=r, b=s) gives."""
    if not 0 < r <= s:
        raise DomainError("need 0 < r <= s")
    if isinstance(src, BrownMeasure):
        return sum((z * m for z, m in src.atoms if r < abs(z) <= s),
                   0.0 + 0.0j)
    if r == s:
        return 0.0 + 0.0j
    m = so.mu(src)
    return so.integrate_v(src, so.dist_fun(m, s), so.dist_fun(m, r))


def phi_table(T):
    """|phi(T, r, s)| over the probe pairs r < s of PROBE_PTS, in row-major
    order, as a float64 array.

    Each band edge dist_fun(mu(T), x) is found when a pair first needs it,
    and all 780 bands go to one so.integrate_bands call, whose one-band
    case is integrate_v: every entry is the float of the pair loop, and
    the first error is the one the loop meets first.
    """
    m = so.mu(T)
    edges = {}

    def edge(x):
        if x not in edges:
            edges[x] = so.dist_fun(m, x)
        return edges[x]

    xs = PROBE_PTS.tolist()
    bands = ((edge(s), edge(r)) for k, r in enumerate(xs) for s in xs[k + 1:])
    return np.array([abs(v) for v in so.integrate_bands(T, bands)])


# ---------------------------------------------------------------------------
# certificate classes


def _class_bound(V, cls):
    """The class bound of V on probe pairs (PROBE_PTS[i], PROBE_PTS[j]), as
    a function of index arrays i, j assembled from per-point tables.

    Class F: r nu_V(r, oo) + s nu_V(s, oo).  Class G: the sum over the
    atoms z of nu_V, in order, of mass * (r max(0, log(|z|/r))
    + s max(0, log(|z|/s))), added atom by atom for all pairs at once.
    Each entry is the float the pair would compute, with the same float64
    operations in the same order, so an overflow warns as it does there.
    """
    if cls == "F":
        w = np.array([x * so.distribution(V, x) for x in PROBE_PTS])
        return lambda i, j: w[i] + w[j]
    if cls == "G":
        atoms = brown_of_normal(V).atoms
        masses = np.array([mass for _, mass in atoms])
        # the log only above 1: |z| / x underflows to 0 for tiny atoms
        w = np.array([[x * math.log(q) if (q := abs(z) / x) > 1.0 else 0.0
                       for z, _ in atoms]
                      for x in PROBE_PTS]).reshape(len(PROBE_PTS), len(atoms))

        def bound(i, j):
            acc = np.zeros(len(i))
            for col in ((w[i] + w[j]) * masses).T:
                acc += col
            return acc

        return bound
    raise ValueError("unknown class %r" % cls)


def verify_certificate(lhs, V, cls):
    """Probe |Phi(r, s; T)| <= class bound of V over the pairs r < s of
    PROBE_PTS, with lhs the table of |Phi| in row-major order (phi_table).

    Returns a report dict with the worst ratio and its location.  The
    pairs with lhs != 0 get V's side of the bound (_class_bound) and their
    ratios as float64 arrays.  Every entry is the float the pair loop
    computes, a NaN ratio is never the worst nor a violation, and the
    worst is the first maximal ratio in row-major order, so the report is
    the pair loop's bit for bit.
    """
    bound = _class_bound(V, cls)
    worst = 0.0
    worst_rs = (PROBE_PTS[0], PROBE_PTS[1])
    xs = PROBE_PTS.tolist()
    live = lhs != 0.0
    i, j = (ix[live] for ix in np.triu_indices(len(xs), 1))
    lhs = lhs[live]
    b = bound(i, j)
    ratio = np.full(len(lhs), INF)
    pos = b > 0.0
    ratio[pos] = lhs[pos] / b[pos]
    ratio[np.isnan(ratio)] = 0.0  # never beats worst = 0 nor counts
    if ratio.size and ratio.max() > worst:
        k = int(np.argmax(ratio))
        worst, worst_rs = float(ratio[k]), (xs[i[k]], xs[j[k]])
    violations = int(np.count_nonzero(ratio > 1.0 + 1e-9))
    return {"ok": violations == 0, "class": cls, "worst_ratio": worst,
            "worst_rs": worst_rs, "violations": violations}


def _abs_op(T):
    return so.make_op([replace(s, phase=1.0) for s in T.segs],
                      T.factor_type, validate=False)


def build_V(T, h=None):
    """Positive certificate operator for the band functional of T, with
    the table of |Phi(r, s; T)| it was checked against (phi_table).

    Four copies of |T| (and of the witness profile h when given), their
    masses amplified once, by the least 2^k at or above the worst class-F
    ratio on the probe grid: the 2^k scales each ratio down, exactly where
    the ratio stays a normal float.  This keeps mu(V) in the same module
    class.  An infinite ratio cannot be mended; it raises DomainError
    naming the probe pair.
    """
    atoms = [(z, 4.0 * mass)
             for z, mass in brown_of_normal(_abs_op(T)).atoms]
    if h is not None and not h.is_zero():
        hop = so.make_op(h.segs, II_INF, validate=False)
        atoms += [(z, 4.0 * mass)
                  for z, mass in brown_of_normal(hop).atoms]
    V = normal_model(BrownMeasure(tuple(atoms)))
    lhs = phi_table(T)
    rep = verify_certificate(lhs, V, "F")
    if rep["ok"]:
        return V, lhs
    if rep["worst_ratio"] == INF:
        raise DomainError("class-F bound of V vanishes at (r, s)=(%g, %g)"
                          % rep["worst_rs"])
    factor = 2.0 ** math.ceil(math.log2(rep["worst_ratio"]))
    V = normal_model(BrownMeasure(tuple((z, factor * mass)
                                        for z, mass in atoms)))
    if not verify_certificate(lhs, V, "F")["ok"]:
        raise DomainError("certificate amplification did not converge")
    return V, lhs


def member_F(T, I):
    """Membership of normal T in the commutator space against the bounded
    carpet, with the band-functional certificate cross-check when the
    module is geometrically stable: one table of |Phi(r, s; T)| per query
    (build_V), checked against class F and then class G."""
    if T.factor_type != so.II_INF:
        raise DomainError("member_F needs the semifinite model")
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("requires vanishing singular values at infinity")
    dec = cm.member_IIinf(T, I, md.M())
    if dec.answer != "member" or md.geometrically_stable(I) != "yes":
        return dec
    try:
        V, lhs = build_V(T, dec.certificate.h)
    except DomainError as exc:
        return cm.inconclusive("certificate construction failed: %s" % exc)
    # build_V returns V only once class F holds on this grid, so only
    # class G is left to check
    repG = verify_certificate(lhs, so.scale_op(V, math.e), "G")
    if not repG["ok"]:
        return cm.inconclusive(
            "band-functional certificate disagrees with the membership"
            " verdict: F ok=True G ok=False")
    return replace(dec, notes=(dec.notes + "; band-functional certificate"
                               " verified").strip("; "))
