"""Spectral-measure layer for the normal model.

Houses the spectral distribution nu_T, the band functional
Phi(r,s;T) = integral of z over r < |z| <= s, log-determinants, the F/G
certificate classes, and the smooth bump machinery whose subharmonic
function transfers real-part estimates between the classes.
"""

import math
from dataclasses import dataclass, replace

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


def _norm_atoms(atoms):
    merged = {}
    order = []
    for z, m in atoms:
        if m < 0.0:
            raise DomainError("negative mass")
        if m == 0.0:
            continue
        z = complex(z)
        if z not in merged:
            merged[z] = 0.0
            order.append(z)
        merged[z] += m
    out = [(z, merged[z]) for z in order]
    # math.atan2, not cmath.phase: that raises when the angle underflows
    out.sort(key=lambda zm: (-abs(zm[0]),
                             math.atan2(zm[0].imag, zm[0].real)
                             % (2.0 * math.pi)))
    return tuple(out)


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


def phi_of(T):
    """The band functional (r, s) -> Phi(r, s; T) of an operator.

    The band edge dist_fun(mu(T), x) of every level x and the value of
    every (r, s) are tabled on T (NormalOp.band_tables), so an n-point
    probe grid costs n level queries and one integrate_v per pair, once
    per operator: build_V and member_F read the same tables.  Each value
    is the float phi(T, r, s) gives: the same edges, the same integral.
    """
    m = so.mu(T)
    edges, values = T.band_tables

    def edge(x):
        if x not in edges:
            edges[x] = so.dist_fun(m, x)
        return edges[x]

    def F(r, s):
        if (r, s) not in values:
            if not 0 < r <= s:
                raise DomainError("need 0 < r <= s")
            values[r, s] = (0.0 + 0.0j if r == s else
                            complex(so.integrate_v(T, edge(s), edge(r))))
        return values[r, s]

    return F


# ---------------------------------------------------------------------------
# spectral measure of the normal model


def brown_of_normal(T, ppo=BROWN_PPO):
    """Pushforward of the scale measure under the profile.

    Constant segments give exact atoms; other segments are chopped into
    log-spaced chunks (ppo per octave, DEPTH_OCTAVES deep) with the value
    taken at the geometric midpoint; chunk masses are exact.  Mass sitting
    at 0 is omitted.
    """
    atoms = []
    for seg in T.segs:
        if seg.is_zero():
            continue
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
        cuts = [hi]
        t = hi
        while t > lo_floor * (1.0 + 1e-12):
            t *= 2.0 ** (-1.0 / ppo)
            cuts.append(max(t, lo_floor))
        cuts.reverse()
        if seg.lo < lo_floor:
            # deepest chunk keeps the exact remaining mass
            cuts.insert(0, seg.lo)
        for a, b in zip(cuts, cuts[1:]):
            mid = math.sqrt(max(a, b * 1e-30) * b)
            try:
                v = seg.value(mid)
            except OverflowError:
                # a float limit, not divergence of the measure
                raise DomainError("|T| overflows a float at t=%g"
                                  % mid) from None
            atoms.append((seg.phase * v, b - a))
    return BrownMeasure(tuple(atoms))


def normal_model(nu, I=None):
    """Step profile with the given spectral measure; atoms sorted by
    decreasing modulus.  Optionally reports mu-membership in I."""
    op = so.from_atoms(list(nu.atoms), II_INF)
    note = ""
    if I is not None:
        v = md.contains(I, so.mu(op))
        note = "mu in module: %s (%s)" % (v.answer, v.reason)
    return (op, note) if I is not None else op


def phi(src, r, s):
    """Band integral of z over r < |z| <= s."""
    if not 0 < r <= s:
        raise DomainError("need 0 < r <= s")
    if r == s:
        return 0.0 + 0.0j
    if isinstance(src, BrownMeasure):
        return sum((z * m for z, m in src.atoms if r < abs(z) <= s),
                   0.0 + 0.0j)
    return complex(so.band_trace(src, "by_modulus", a=r, b=s))


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
    if df.support_hi(m) == INF:
        dom = df.dominant_at_inf(m)
        if df._diverges_at_inf(dom, p_need):
            raise DomainError("log-determinant integral diverges at infinity")
    total = 0.0
    for seg in T.segs:
        if seg.is_zero():
            continue
        if seg.hi == INF:
            hi = max(seg.lo * 2.0, 1.0) * 2.0 ** DEPTH_OCTAVES
        else:
            hi = seg.hi
        if seg.is_const():
            z = seg.phase * seg.value(0.5 * (seg.lo + hi))
            lg = log_g(z)
            if lg == -INF:
                return 0.0
            length = (seg.hi - seg.lo) if seg.hi != INF else INF
            if length == INF:
                raise DomainError(
                    "log-determinant integral diverges at infinity")
            total += length * lg
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


def _class_bound(V, cls, pts):
    """The class bound of V on probe pairs (pts[i], pts[j]), as a function
    of index arrays i, j assembled from per-point tables.

    Class F: r nu_V(r, oo) + s nu_V(s, oo).  Class G: the sum over the
    atoms z of nu_V, in order, of mass * (r max(0, log(|z|/r))
    + s max(0, log(|z|/s))), added atom by atom for all pairs at once.
    Each entry is the float the pair would compute, with the same float64
    operations in the same order, so an overflow warns as it does there.
    """
    if cls == "F":
        w = np.array([x * so.distribution(V, x) for x in pts])
        return lambda i, j: w[i] + w[j]
    if cls == "G":
        atoms = brown_of_normal(V).atoms
        masses = np.array([mass for _, mass in atoms])
        w = np.array([[x * max(0.0, math.log(abs(z) / x)) for z, _ in atoms]
                      for x in pts]).reshape(len(pts), len(atoms))

        def bound(i, j):
            acc = np.zeros(len(i))
            for col in ((w[i] + w[j]) * masses).T:
                acc += col
            return acc

        return bound
    raise ValueError("unknown class %r" % cls)


def verify_certificate(F, V, cls, grid_n=40, lo=2.0 ** -20, hi=2.0 ** 20):
    """Probe |F(r,s)| <= class bound of V over a log-spaced (r,s) grid.

    Returns a report dict with the worst ratio and its location.  F is
    called once per pair in row-major order (and tables its own side when
    it comes from phi_of); the pairs with F != 0 then get V's side of the
    bound (_class_bound) and their ratios as float64 arrays.  Every entry
    is the float the pair loop computes, a NaN ratio is never the worst
    nor a violation, and the worst is the first maximal ratio in
    row-major order, so the report is the pair loop's bit for bit.
    """
    pts = np.geomspace(lo, hi, grid_n)
    bound = _class_bound(V, cls, pts)
    worst = 0.0
    worst_rs = (pts[0], pts[1])
    xs = pts.tolist()
    lhs = np.array([abs(F(r, s)) for k, r in enumerate(xs)
                    for s in xs[k + 1:]])
    live = lhs != 0.0
    i, j = (ix[live] for ix in np.triu_indices(grid_n, 1))
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


def build_V(T, h=None, grid_n=40):
    """Positive certificate operator for the band functional of T.

    Starts from four copies of |T| (and of the witness profile h when
    given) and doubles the masses until the class-F bound holds on the
    probe grid; mass amplification keeps mu(V) in the same module class.
    """
    atoms = [(z, 4.0 * mass)
             for z, mass in brown_of_normal(_abs_op(T)).atoms]
    if h is not None and not h.is_zero():
        hop = so.make_op(h.segs, II_INF, validate=False)
        atoms += [(z, 4.0 * mass)
                  for z, mass in brown_of_normal(hop).atoms]
    V = normal_model(BrownMeasure(tuple(atoms)))
    F = phi_of(T)
    for _ in range(60):
        rep = verify_certificate(F, V, "F", grid_n)
        if rep["ok"]:
            return V
        factor = 2.0 ** math.ceil(math.log2(max(rep["worst_ratio"], 2.0)))
        atoms = [(z, factor * mass) for z, mass in atoms]
        V = normal_model(BrownMeasure(tuple(atoms)))
    raise DomainError("certificate amplification did not converge")


def member_F(T, I):
    """Membership of normal T in the commutator space against the bounded
    carpet, with the band-functional certificate cross-check when the
    module is geometrically stable."""
    m = so.mu(T)
    if df.limit_at_inf(m) > 0.0:
        raise DomainError("requires vanishing singular values at infinity")
    dec = cm.member_IIinf(T, I, md.M())
    if dec.answer != "member" or md.geometrically_stable(I) != "yes":
        return dec
    cert = dec.certificate
    h = None
    hs = [x for x in (cert.h_fs, cert.h_b) if x is not None]
    if hs:
        h = hs[0] if len(hs) == 1 else df.combine(hs[0], hs[1], "sum")
    try:
        V = build_V(T, h)
    except DomainError as exc:
        return cm.inconclusive("certificate construction failed: %s" % exc)
    F = phi_of(T)
    repF = verify_certificate(F, V, "F")
    repG = verify_certificate(F, so.scale_op(V, math.e), "G")
    if not (repF["ok"] and repG["ok"]):
        return cm.inconclusive(
            "band-functional certificate disagrees with the membership"
            " verdict: F ok=%s G ok=%s" % (repF["ok"], repG["ok"]))
    return cm.Decision("member", cert, None,
                       (dec.notes + "; band-functional certificate verified"
                        ).strip("; "))


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
