"""Spectral-measure layer for the normal model.

Houses the spectral distribution nu_T, the band functional
Phi(r,s;T) = integral of z over r < |z| <= s, log-determinants, the F/G
certificate classes, and the smooth bump machinery whose subharmonic
function transfers real-part estimates between the classes.
"""

import math
import operator
from dataclasses import dataclass, replace
from itertools import count, repeat

import numpy as np
from scipy import integrate

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
# log-determinants


def _log_gk(z, k):
    # log|g_k(z)| without forming the (possibly huge) exponential
    if z == 1.0:
        return -INF
    acc = 0.0 + 0.0j
    p = 1.0 + 0.0j
    for j in range(1, k + 1):
        p *= z
        acc += p / j
    return math.log(abs(1.0 - z)) + acc.real


def fk_det(T, mode="I+T", k=1, w=1.0):
    """exp of the trace of log|g(T)| in the function model.

    mode "I+T": g(z) = 1 + z, needs a summable tail; mode "g_k":
    g(z) = g_k(w z), needs a summable (k+1)-power tail.
    """
    m = so.mu(T)
    if mode == "I+T":
        def log_g(z):
            a = abs(1.0 + z)
            return math.log(a) if a > 0.0 else -INF
        p_need = 1.0
    elif mode == "g_k":
        def log_g(z):
            return _log_gk(w * z, k)
        p_need = float(k + 1)
    else:
        raise ValueError("unknown mode %r" % mode)
    if not df.admits(df.integrable(p_need)[1], df.end_keys(m)[1]):
        raise DomainError("log-determinant integral diverges at infinity")
    total = 0.0
    for seg in T.segs:
        hi = seg.hi if seg.hi < INF \
            else max(seg.lo * 2.0, 1.0) * 2.0 ** DEPTH_OCTAVES
        if seg.is_const():
            z = seg.phase * seg.value(0.5 * (seg.lo + hi))
            lg = log_g(z)
            if lg == -INF:
                return 0.0
            if seg.hi == INF:
                raise DomainError(
                    "log-determinant integral diverges at infinity")
            total += (seg.hi - seg.lo) * lg
            continue

        def integrand(t):
            lg = log_g(seg.phase * seg.value(t))
            return lg if lg > -INF else -745.0

        lo = seg.lo if seg.lo > 0.0 else hi * 2.0 ** -DEPTH_OCTAVES
        if seg.lo == 0.0:
            # head chunk in log coordinates; integrable log singularity
            val, _ = integrate.quad(
                lambda u: integrand(math.exp(u)) * math.exp(u),
                math.log(lo) - 60.0, math.log(lo), limit=400)
            total += val
        if hi > 1e6 * lo:
            # wide range: log coordinates keep the quadrature honest
            val, _ = integrate.quad(
                lambda u: integrand(math.exp(u)) * math.exp(u),
                math.log(lo), math.log(hi), limit=400)
        else:
            val, _ = integrate.quad(integrand, lo, hi, limit=400)
        total += val
    return math.exp(total)


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
    ratio on the probe grid: the 2^k scales each ratio down exactly.  This
    keeps mu(V) in the same module class.  An infinite ratio cannot be
    mended; it raises DomainError naming the probe pair.
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


def approx_nilpotent(tag, I):
    """Vanishing spectral measure: member for geometrically stable modules.

    A cross-check used only by tests of the paper's statement that an
    operator in I whose Brown measure vanishes lies in [I, M] when I is
    geometrically stable.
    """
    if not tag.is_zero():
        raise DomainError("spectral measure must vanish")
    if md.geometrically_stable(I) == "yes":
        return cm.member(cm.WitnessCertificate(h_fs=df.zero(),
                                               h_b=df.zero()),
                         "vanishing spectral measure against a"
                         " geometrically stable module")
    return cm.inconclusive("module is not geometrically stable")


# ---------------------------------------------------------------------------
# basic band-functional bounds


def _tail_weight(T, r, s):
    return (r * so.distribution(T, r) + s * so.distribution(T, s))


def basicprops_check(Ts, r, s):
    """Margins for the band-functional bounds.

    A cross-check used only by tests of the paper's basic bounds on the
    band functional Phi(r, s; T), through which it passes between T and
    its self-adjoint parts.

    (qadditive): profiles summing to zero pointwise; (qmult): scaling by
    |alpha| <= 1; (realpart)/(imagpart): comparison with the self-adjoint
    parts.  Margins are RHS - LHS and must be nonnegative.
    """
    report = {"qadditive": None, "qmult": [], "realpart": [], "imagpart": []}
    N = len(Ts)
    if N >= 2:
        probes = sorted({0.5 * (sg.lo + min(sg.hi, sg.lo + 1.0))
                         for T in Ts for sg in T.segs})
        sums_to_zero = all(
            abs(sum(T.value(t) for T in Ts)) < 1e-9 for t in probes)
        if sums_to_zero:
            lhs = abs(sum(phi(T, r, s) for T in Ts))
            rhs = 2.0 * N * sum(_tail_weight(T, r, s) for T in Ts)
            report["qadditive"] = rhs - lhs
    for T in Ts:
        w = _tail_weight(T, r, s)
        for alpha in (0.5, 0.3j, -0.8):
            lhs = abs(phi(so.scale_op(T, alpha), r, s)
                      - alpha * phi(T, r, s))
            report["qmult"].append(w - lhs)
        re_op, im_op = so.re_im(T)
        p = phi(T, r, s)
        report["realpart"].append(
            w - abs(complex(phi(re_op, r, s)).real - p.real))
        report["imagpart"].append(
            w - abs(complex(phi(im_op, r, s)).real - p.imag))
    return report


# ---------------------------------------------------------------------------
# bump machinery


class BumpSpec:
    """Smooth bump with support in (0, 1/2), unit integral, and the
    derived envelope beta = 2|b| + |b'| with C0 = integral of e^t beta."""

    def __init__(self):
        sol = integrate.solve_ivp(
            self._raw_system, (0.0, 0.5), [0.0, 0.0, 0.0],
            dense_output=True, rtol=1e-12, atol=1e-20, method="DOP853")
        self._sol = sol
        raw_end = sol.y[:, -1]
        self._c = 1.0 / raw_end[0]
        self.C0 = raw_end[1] * self._c
        self._A_end = raw_end[1] * self._c
        self._D_end = raw_end[2] * self._c

    @staticmethod
    def _raw_b(t):
        if t <= 0.0 or t >= 0.5:
            return 0.0
        u = t * (0.5 - t)
        e = -1.0 / u
        if e < -700.0:
            return 0.0
        return math.exp(e)

    @classmethod
    def _raw_beta(cls, t):
        bb = cls._raw_b(t)
        if bb == 0.0:
            return 0.0
        u = t * (0.5 - t)
        db = bb * (0.5 - 2.0 * t) / (u * u)
        return 2.0 * bb + abs(db)

    @classmethod
    def _raw_system(cls, t, _y):
        beta = cls._raw_beta(t)
        et = math.exp(t)
        return [cls._raw_b(t), et * beta, t * et * beta]

    def b(self, t):
        return self._c * self._raw_b(t)

    def beta(self, t):
        return self._c * self._raw_beta(t)

    def _cum(self, x, idx, end):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        lowmask = x <= 0.0
        himask = x >= 0.5
        mid = ~lowmask & ~himask
        out[lowmask] = 0.0
        out[himask] = end
        if mid.any():
            out[mid] = self._c * self._sol.sol(x[mid])[idx]
        return out

    def B(self, x):
        return self._cum(x, 0, 1.0)

    def A(self, x):
        return self._cum(x, 1, self._A_end)

    def D(self, x):
        return self._cum(x, 2, self._D_end)


_DEFAULT_BUMP = None


def default_bump():
    global _DEFAULT_BUMP
    if _DEFAULT_BUMP is None:
        _DEFAULT_BUMP = BumpSpec()
    return _DEFAULT_BUMP


class BumpFunctions:
    """phi, rho and psi of the subharmonic transfer construction."""

    def __init__(self, r, s, spec=None):
        if not s > 2.0 * r > 0.0:
            raise DomainError("requires s > 2r")
        self.r, self.s = float(r), float(s)
        self.spec = spec or default_bump()
        self.lr, self.ls = math.log(r), math.log(s)
        self.C0 = self.spec.C0

    def phi(self, tau):
        sp = self.spec
        return sp.B(np.asarray(tau) - self.lr) - sp.B(
            np.asarray(tau) - self.ls)

    def _rho_hat(self, x):
        sp = self.spec
        x = np.asarray(x, dtype=float)
        m = np.clip(x, 0.0, 0.5)
        val = x * sp.A(m) - sp.D(m)
        return np.where(x > 0.0, val, 0.0)

    def rho(self, tau):
        tau = np.asarray(tau, dtype=float)
        return (self.r * self._rho_hat(tau - self.lr)
                + self.s * self._rho_hat(tau - self.ls))

    def psi(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rr = np.hypot(x, y)
        tau = np.log(np.maximum(rr, 1e-300))
        out = self.rho(tau) - x * self.phi(tau)
        return np.where(rr == 0.0, 0.0, out)

    def upper_bound(self, radius):
        radius = np.asarray(radius, dtype=float)
        with np.errstate(divide="ignore"):
            lr = np.log(np.maximum(radius / self.r, 1e-300))
            ls = np.log(np.maximum(radius / self.s, 1e-300))
        return self.C0 * (self.r * np.maximum(lr, 0.0)
                          + self.s * np.maximum(ls, 0.0))


def bump_suite(r, s, grid=400, spec=None, rel_h=2e-4, lap_tol=1e-6):
    """Numerical verification of the bump construction on a polar grid.

    Checks the plateau of phi, the two-sided bound on rho, the psi bound
    beyond |z| = 2s, and subharmonicity of psi by a five-point Laplacian.
    """
    bf = BumpFunctions(r, s, spec)
    radii = np.geomspace(r / 8.0, 16.0 * s, grid)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    taus = np.log(radii)
    phis = bf.phi(taus)
    rhos = bf.rho(taus)
    ub = bf.upper_bound(radii)

    rep = {"C0": bf.C0, "r": float(r), "s": float(s)}
    rep["phi_range_margin"] = float(min(phis.min(), (1.0 - phis).min()))
    plateau = (taus >= 0.5 + bf.lr) & (taus <= bf.ls)
    outside = (taus < bf.lr) | (taus > 0.5 + bf.ls)
    rep["phi_plateau_err"] = float(
        np.abs(phis[plateau] - 1.0).max()) if plateau.any() else 0.0
    rep["phi_outside_err"] = float(
        np.abs(phis[outside]).max()) if outside.any() else 0.0
    rep["rho_lower_margin"] = float(rhos.min())
    rep["rho_upper_margin"] = float((ub - rhos).min())

    ct, st = np.cos(thetas), np.sin(thetas)
    X = np.outer(radii, ct)
    Y = np.outer(radii, st)
    psi0 = rhos[:, None] - X * phis[:, None]
    far = radii >= 2.0 * s
    if far.any():
        diff = ub[far, None] - psi0[far, :]
        rep["psi_lower_margin"] = float(psi0[far, :].min())
        rep["psi_upper_margin"] = float(diff.min())
    else:
        rep["psi_lower_margin"] = rep["psi_upper_margin"] = 0.0

    def five_point(h):
        return (bf.psi(X + h, Y) + bf.psi(X - h, Y)
                + bf.psi(X, Y + h) + bf.psi(X, Y - h) - 4.0 * psi0) / (h * h)

    # Plain stencil only: near the ridge where the subharmonicity
    # inequality is tight the Laplacian varies on a scale below h, so a
    # Richardson pair extrapolates from outside the asymptotic regime and
    # goes spuriously negative.  The mesh balances the O(h^2) truncation
    # against rounding noise that grows like 1/h^2.
    h = rel_h * radii[:, None]
    lap = five_point(h)
    # Both sides of the subharmonicity inequality carry a factor of r or s,
    # so the local scale for the tolerance includes max(r, s).
    scale = np.maximum.reduce([np.abs(psi0), np.broadcast_to(
        radii[:, None], psi0.shape),
        np.full_like(psi0, max(r, s, 1.0))])
    rep["laplacian_min"] = float((lap / scale).min())
    rep["pass"] = bool(
        rep["phi_range_margin"] >= -1e-12
        and rep["phi_plateau_err"] <= 1e-9
        and rep["phi_outside_err"] <= 1e-12
        and rep["rho_lower_margin"] >= -1e-12
        and rep["rho_upper_margin"] >= -1e-9
        and rep["psi_lower_margin"] >= -1e-9
        and rep["psi_upper_margin"] >= -1e-9
        and rep["laplacian_min"] >= -lap_tol)
    return rep
