"""The paper's side checks, which only tests call: direct sums, real parts,
Fuglede-Kadison determinants, the bounds on Phi(r, s; T), the bump and
the discrete DFWW criterion.  The one module that imports scipy at load."""

import math

import numpy as np
from scipy import integrate, special

from . import commutator as cm
from . import decfun as df
from . import modules as md
from . import specop as so
from .brown import DEPTH_OCTAVES, phi
from .commutator import WitnessCertificate, _clean_samples, member, not_member
from .decfun import INF, DomainError, Seg, Term
from .specop import II_INF, from_atoms, zero_op


def _discretize_seg(seg):
    """Left-endpoint steps, 16 per octave, majorizing a segment."""
    if seg.is_const():
        return [seg]
    lo = seg.lo
    hi = seg.hi
    if lo == 0.0:
        lo = min(hi, 1.0) * 2.0 ** -60
    if hi == INF:
        hi = max(lo, 1.0) * 2.0 ** 60
    n = max(2, int(math.ceil(math.log2(hi / lo) * 16)) + 1)
    cuts = list(np.geomspace(lo, hi, n))
    cuts[0], cuts[-1] = seg.lo, seg.hi
    out = []
    for a_, b_ in zip(cuts, cuts[1:]):
        t_ref = a_ if a_ > 0 else b_ / 2.0
        v = seg.value(t_ref)
        out.append(Seg(a_, b_, (Term(v),), seg.phase))
    return out


def oplus(S, T):
    """Direct sum: decreasing rearrangement of the disjoint union."""
    if S.factor_type != T.factor_type:
        raise DomainError("mixed factor types")
    atoms = [(p.phase * sum(tm.coeff for tm in p.terms), p.hi - p.lo)
             for op in (S, T) for seg in op.segs
             for p in _discretize_seg(seg)]
    # the ambient semifinite model hosts both summands
    return from_atoms(atoms, II_INF) if atoms else zero_op(II_INF)


def re_im(T):
    """Profiles of the real and imaginary parts (phases +-1)."""
    parts = []
    for pick in (lambda z: z.real, lambda z: z.imag):
        atoms = []
        for seg in T.segs:
            coef = pick(seg.phase)
            if coef == 0.0:
                continue
            for p in _discretize_seg(seg):
                v = abs(coef) * sum(tm.coeff for tm in p.terms)
                if v:
                    atoms.append((math.copysign(1.0, coef) * v, p.hi - p.lo))
        parts.append(from_atoms(atoms, T.factor_type) if atoms
                     else zero_op(T.factor_type))
    return parts[0], parts[1]


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
        re_op, im_op = re_im(T)
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
# auxiliary criteria


def dfww_discrete_test(lambdas, I_d, tail=None, K=40):
    """Cesaro-mean test for sequences against a discrete module.

    A cross-check used only by tests: the discrete (type I) form of the
    criterion, the Dykema-Figiel-Weiss-Wodzicki theorem that a normal
    diag(lambda) in I lies in [I, B(H)] exactly when the Cesaro means
    (lambda_1 + ... + lambda_n) / n stay within I.

    lambdas: finite list of complex values with nonincreasing modulus;
    tail: optional (coeff, gamma) continuing |lambda_k| = coeff*k^-gamma
    beyond the list (positive reals assumed for the tail).  The tail's
    block sums at mid scale are integral estimates; past the samples the
    means follow their exact class (mean_term, plus |S_oo| / k with the
    series sum S_oo, a Hurwitz zeta value, counted as 0 at float noise).
    """
    n0 = len(lambdas)
    mods = [abs(z) for z in lambdas]
    if any(b > a + 1e-12 for a, b in zip(mods, mods[1:])):
        raise DomainError("sequence modulus must be nonincreasing")
    S = 0.0
    samples = []
    for k, z in enumerate(lambdas, start=1):
        S += z
        req = max(0.0, abs(S) / k - abs(z))
        samples.append((float(k), req))
    if tail is None:
        # past the list the means are S / k exactly
        ends = (Term(abs(S), 1.0),) if S else ()
    else:
        c, g = tail
        Sn = S
        prev = float(n0)
        for i in range(1, K + 1):
            ell = float(n0) * 2.0 ** i
            # integral midpoint estimate of the block sum
            if g == 1.0:
                Sn += c * math.log(ell / prev)
            else:
                Sn += c * (ell ** (1 - g) - prev ** (1 - g)) / (1 - g)
            lam_ell = c * ell ** -g
            samples.append((ell, max(0.0, abs(Sn) / ell - lam_ell)))
            prev = ell
        # |S + sum_{k > n0} c k^-g|, float noise flushed to 0
        S_oo = _clean_samples([(1.0, -c * special.zeta(g, n0 + 1))], S)[0][1] \
            if g > 1.0 else 0.0
        ends = ((Term(S_oo, 1.0),) if S_oo else ()) \
            + (df.mean_term((g, 0.0, c)),)
    if not ends and all(v == 0.0 for _, v in samples):
        return member(WitnessCertificate(h_b=df.zero()), "Cesaro means vanish")
    h = df.envelope_majorant(samples, INF, tail=ends)
    v = md.contains(I_d, h)
    if v.answer == "yes":
        return member(WitnessCertificate(h_b=h), v.reason)
    worst = max(samples, key=lambda tv: tv[1])
    return not_member({"side": "b", "r": worst[0],
                       "required": worst[1], "reason": v.reason})


def necessary_h(T, parts):
    """The explicit necessary bound from an N-term decomposition.

    A cross-check used only by tests of the necessity half of the paper's
    characterization of [I, J]: T = sum of N commutators [A_j, B_j] obeys
    |tau(T E(mu_s, mu_r])| <= r h(r) + s h(s) with this h, which lies in
    mu(IJ); parts lists the pairs (mu(A_j), mu(B_j)).
    """
    N = len(parts)
    h = df.scale_fun(so.mu(T), 8.0 * N + 2.0)
    for muA, muB in parts:
        prod = df.combine(muA, muB, "product")
        h = df.combine(h, df.scale_fun(prod, 16.0 * N + 4.0), "sum")
    return h
