"""Dense-matrix oracle: brute-force checks of the singular-value and
determinant inequalities on type I_n with the normalized trace.

All randomized suites derive per-trial generators from (master seed,
dimension, trial index), so results are independent of scheduling.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import decfun as df
from .decfun import DomainError

SHODA_SWEEPS = 400
SHODA_TOL = 1e-12
SHODA_TRACE_TOL = 1e-9  # the largest |trace| / (n max(||T||, 1)) accepted


@dataclass(frozen=True)
class DenseMatrix:
    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.n, self.n):
            raise DomainError("entries must be %d x %d" % (self.n, self.n))
        if not np.all(np.isfinite(e.view(float))):
            raise DomainError("entries must be finite")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    dims: tuple = (2, 4, 8, 16, 32, 64)
    trials: int = 100
    tol: float = 1e-9  # each margin's absolute slack and its relative one

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.tol <= 0.0:
            raise DomainError("tolerance must be positive")
        object.__setattr__(self, "dims", tuple(self.dims))


def _arr(M):
    if isinstance(M, DenseMatrix):
        return M.entries
    return np.asarray(M, dtype=complex)


def singular_profile(M):
    """Step function on (0,1): k-th singular value on [(k-1)/n, k/n)."""
    a = _arr(M)
    n = a.shape[0]
    sig = np.linalg.svd(a, compute_uv=False)
    return df.step_fun([((k + 1) / n, float(sig[k])) for k in range(n)],
                       domain_hi=1.0)


def fk_det_matrix(M):
    """|det M|^(1/n) by the log-sum of singular values; 0 when singular."""
    a = _arr(M)
    n = a.shape[0]
    sig = np.linalg.svd(a, compute_uv=False)
    if sig[-1] <= n * np.finfo(float).eps * sig[0]:
        return 0.0
    return float(math.exp(np.log(sig).sum() / n))


# ---------------------------------------------------------------------------
# zero-diagonal reduction and the commutator construction


def _pair_rotation(p, u, q, r, w):
    """Unitary 2x2 rotation parameters (theta, phi) taking the first
    diagonal entry of [[p, q], [r, u]] to (1 - w) p + w u, 0 <= w <= 1."""
    z1 = p - u
    if z1 == 0.0:
        return 0.0, 0.0
    # choose phi making e^{i phi} q + e^{-i phi} r = lam z1 with lam real
    alpha = q * np.conj(z1)
    beta = r * np.conj(z1)
    phi = math.atan2(-(alpha.imag + beta.imag), alpha.real - beta.real)
    x = np.exp(1j * phi) * q + np.exp(-1j * phi) * r
    lam = (x * np.conj(z1)).real / abs(z1) ** 2
    # the entry becomes (p + u)/2 + z1 (cos 2theta + lam sin 2theta)/2
    theta = 0.5 * (math.atan2(lam, 1.0)
                   - math.acos((1.0 - 2.0 * w) / math.hypot(1.0, lam)))
    return theta, phi


def _apply_rotation(T, U, i, j, theta, phi):
    c, s = math.cos(theta), math.sin(theta)
    e = np.exp(1j * phi)
    col_i = T[:, i].copy()
    col_j = T[:, j].copy()
    T[:, i] = c * col_i + s * e * col_j
    T[:, j] = -s * np.conj(e) * col_i + c * col_j
    row_i = T[i, :].copy()
    row_j = T[j, :].copy()
    T[i, :] = c * row_i + s * np.conj(e) * row_j
    T[j, :] = -s * e * row_i + c * row_j
    col_i = U[:, i].copy()
    col_j = U[:, j].copy()
    U[:, i] = c * col_i + s * e * col_j
    U[:, j] = -s * np.conj(e) * col_i + c * col_j


def shoda_decompose(T):
    """Write a trace-zero matrix as a single commutator [A, B].

    One pass of n(n-1)/2 unitary 2x2 rotations makes the diagonal equal,
    hence 0 (Fillmore).  Step k holds the leading k entries at their mean
    and rotates each of them against entry k onto the mean m of the
    leading k+1; m lies between the two, since all the rest of the mass
    sits at entry k.  Then A = diag(1..n) and B = T'_{jk}/(j-k) off the
    diagonal solve [A, B] = T' in the rotated basis.  Returns (A, B,
    report) with the residual and the norm ratios against the 12/2
    budget, which this construction need not meet.
    """
    a = _arr(T)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 2)) if n else 0.0
    if abs(np.trace(a)) > SHODA_TRACE_TOL * max(n, 1) * max(norm, 1.0):
        raise DomainError("trace must vanish")
    Tp = a.copy()
    U = np.eye(n, dtype=complex)
    scale = max(norm, 1.0)
    for _ in range(SHODA_SWEEPS):
        d = np.diag(Tp)
        # equal, not zero: a trace within SHODA_TRACE_TOL stays on the
        # diagonal; an empty diagonal is equal already
        if not n or np.abs(d - d.mean()).max() <= SHODA_TOL * scale:
            break
        for k in range(1, n):
            m = np.trace(Tp[:k + 1, :k + 1]) / (k + 1)
            for i in range(k):
                p, u = Tp[i, i], Tp[k, k]
                if p == u:
                    continue
                w = min(1.0, max(0.0, ((m - p) / (u - p)).real))
                theta, phi = _pair_rotation(p, u, Tp[i, k], Tp[k, i], w)
                if theta != 0.0:
                    _apply_rotation(Tp, U, i, k, theta, phi)
    np.fill_diagonal(Tp, 0.0)
    A = np.diag(np.arange(1, n + 1, dtype=complex))
    idx = np.arange(n)
    denom = idx[:, None] - idx[None, :]
    np.fill_diagonal(denom, 1)
    B = Tp / denom
    np.fill_diagonal(B, 0.0)
    # back to the original basis
    A = U @ A @ U.conj().T
    B = U @ B @ U.conj().T
    resid = float(np.linalg.norm(A @ B - B @ A - a, 2))
    rep = {"residual": resid,
           "A_norm_ratio": (float(np.linalg.norm(A, 2)) / (12.0 * norm)
                            if norm else 0.0),
           "B_norm_ratio": float(np.linalg.norm(B, 2)) / 2.0}
    return DenseMatrix(n, A), DenseMatrix(n, B), rep


# ---------------------------------------------------------------------------
# randomized property suites


def _draw(rng, n, kind):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g /= math.sqrt(2.0 * n)
    if kind == "gaussian":
        return g
    if kind == "hermitian":
        return 0.5 * (g + g.conj().T)
    if kind == "normal":
        q, _ = np.linalg.qr(g)
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return q @ np.diag(lam) @ q.conj().T
    raise ValueError(kind)


_KINDS = ("gaussian", "hermitian", "normal")


def _mu_values(a):
    """Descending singular values (normalized mass 1/n each)."""
    return np.linalg.svd(a, compute_uv=False)


def _mu_at(sig, t):
    """mu_t for a step profile of n singular values on (0,1)."""
    n = len(sig)
    if t >= 1.0:
        return 0.0
    x = t * n
    k = int(x)
    if x - k > 1.0 - 1e-9:  # t*n landed just below an integer breakpoint
        k += 1
    return float(sig[min(k, n - 1)])


def _snumb_trial(rng, n, cfg):
    S = _draw(rng, n, _KINDS[int(rng.integers(3))])
    T = _draw(rng, n, _KINDS[int(rng.integers(3))])
    sS, sT = _mu_values(S), _mu_values(T)
    sST = _mu_values(S + T)
    worst = math.inf
    for i in range(n):
        for j in range(n):
            s, t = i / n, j / n
            if s + t >= 1.0:
                continue
            lhs = _mu_at(sST, s + t)
            rhs = _mu_at(sS, s) + _mu_at(sT, t)
            worst = min(worst, rhs - lhs + cfg.tol
                        + cfg.tol * (float(sS[0]) + float(sT[0])))
    return worst


def _soplus_trial(rng, n, cfg):
    S = _draw(rng, n, _KINDS[int(rng.integers(3))])
    T = _draw(rng, n, _KINDS[int(rng.integers(3))])
    D = np.zeros((2 * n, 2 * n), dtype=complex)
    D[:n, :n] = S
    D[n:, n:] = T
    sS, sT = _mu_values(S), _mu_values(T)
    sD = _mu_values(D)
    # mu_a(S (+) T) = inf over b+c=2a of max(mu_b(S), mu_c(T))
    worst = math.inf
    for k in range(2 * n):
        a = k / (2 * n)
        best = math.inf
        for i in range(k + 1):
            b, c = i / n, (k - i) / n
            best = min(best, max(_mu_at(sS, b), _mu_at(sT, c)))
        err = abs(_mu_at(sD, a) - best)
        worst = min(worst, cfg.tol + cfg.tol * float(sD[0]) - err)
    return worst


def _band_projection(sig, vh, lo, hi):
    """Spectral projection of |a| onto singular values in (lo, hi], from
    the singular values `sig` and right singular vectors `vh` of a."""
    ind = (sig > lo) & (sig <= hi)
    v = vh.conj().T
    return (v * ind[None, :]) @ vh


def _lemma_nec_trial(rng, n, cfg, N):
    parts = [(_draw(rng, n, "gaussian"), _draw(rng, n, "gaussian"))
             for _ in range(N)]
    T = sum(A @ B - B @ A for A, B in parts)
    sT = _mu_values(T)
    sAB = [( _mu_values(A), _mu_values(B)) for A, B in parts]

    def h(t):
        acc = (8 * N + 2) * _mu_at(sT, t)
        for sA, sB in sAB:
            acc += (16 * N + 4) * _mu_at(sA, t) * _mu_at(sB, t)
        return acc

    _, sig, vh = np.linalg.svd(T)
    # the dyadic masses 1, 1/2, ... down to the last one >= 1 / (2n)
    masses = df.dyadic_grid(-((2 * n).bit_length() - 1), 0, 1)[::-1]
    worst = math.inf
    for r in masses:
        for s in masses:
            if s <= r:
                continue
            E = _band_projection(sig, vh, _mu_at(sT, s), _mu_at(sT, r))
            lhs = abs(np.trace(T @ E)) / n
            rhs = r * h(r) + s * h(s)
            worst = min(worst, rhs - lhs + cfg.tol
                        + cfg.tol * float(sT[0]))
    return worst


def _pluri_trial(rng, n, cfg):
    S = _draw(rng, n, _KINDS[int(rng.integers(3))])
    T = _draw(rng, n, _KINDS[int(rng.integers(3))])
    eye = np.eye(n)
    lhs = math.log(max(fk_det_matrix(eye + S), 1e-300))

    thetas = 2.0 * np.pi * np.arange(256) / 256
    vals = [math.log(max(fk_det_matrix(
        eye + S + np.exp(1j * th) * T), 1e-300)) for th in thetas]
    m256 = float(np.mean(vals))
    # the even angles are the 128-point rule's, bit for bit
    m128 = float(np.mean(vals[::2]))
    quad_err = abs(m256 - m128)
    return m256 - lhs + quad_err + cfg.tol


def _brown_phi_trial(rng, n, cfg):
    g = _draw(rng, n, "gaussian")
    q, _ = np.linalg.qr(g)
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Tm = q @ np.diag(lam) @ q.conj().T
    mods = np.sort(np.abs(lam))
    probes = [(0.5 * mods[0] + 1e-12, mods[-1]),
              (float(np.median(mods)), 2.0 * mods[-1]),
              (0.25, 1.0), (1.0, 4.0)]
    worst = math.inf
    for r, s in probes:
        if not r < s:
            continue
        ind = (np.abs(lam) > r) & (np.abs(lam) <= s)
        phi_eig = complex(lam[ind].sum() / n)
        E = q @ np.diag(ind.astype(complex)) @ q.conj().T
        phi_spec = complex(np.trace(Tm @ E) / n)
        worst = min(worst, 1e-12 - abs(phi_eig - phi_spec))
    return worst


_TRIALS = {"snumb": _snumb_trial, "soplus": _soplus_trial,
           "lemma_nec": _lemma_nec_trial, "pluri": _pluri_trial,
           "brown_phi": _brown_phi_trial}
SUITES = tuple(_TRIALS)


def run_property_suite(cfg, suite, N=None):
    """Randomized verification; returns {suite, dims, trials, min_margin,
    failures} where failures lists (dim, trial, margin) triples."""
    if suite not in _TRIALS:
        raise ValueError("unknown suite %r" % suite)
    min_margin = math.inf
    failures = []
    for n in cfg.dims:
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, n, trial])
            if suite == "lemma_nec":
                k = N if N is not None else 1 + trial % 3
                margin = _lemma_nec_trial(rng, n, cfg, k)
            else:
                margin = _TRIALS[suite](rng, n, cfg)
            if margin < min_margin:
                min_margin = margin
            if margin < 0.0:
                failures.append({"dim": n, "trial": trial, "margin": margin})
    return {"suite": suite, "dims": list(cfg.dims), "trials": cfg.trials,
            "min_margin": min_margin, "failures": failures}
