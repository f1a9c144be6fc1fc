"""End-to-end acceptance suite: golden decisions and property checks at
the stated tolerances and runtime budgets."""

import math
import time

import numpy as np
import pytest

from commcalc import brown as br
from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import matrix_oracle as mo
from commcalc import modules as md
from commcalc import paperchecks as pc
from commcalc import specop as so
from commcalc.decfun import INF, Seg, Term

EXACT_PHASES = (1.0, -1.0, 1j, -1j)  # unit phases with exact float moduli


def random_step_op(rng, n=4, exact_phase=False):
    masses = rng.uniform(0.2, 1.5, size=n)
    vals = np.sort(rng.uniform(0.1, 3.0, size=n))[::-1]
    if exact_phase:
        phases = rng.choice(EXACT_PHASES, size=n)
    else:
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return so.from_atoms([(complex(p) * float(v), float(m))
                          for p, v, m in zip(phases, vals, masses)])


def mu_at(f, t):
    if t <= 0.0:
        return df.value_at_0(f)
    return f(t)


class TestDirectSumFormula:
    """Criterion 1: mu(S (+) T)(a) = inf over b+c=a of
    max(mu_b(S), mu_c(T)), exactly for step data, 200 pairs, < 10 s."""

    def test_oplus_matches_brute_force(self):
        rng = np.random.default_rng(20260801)
        start = time.monotonic()
        for _ in range(200):
            S = random_step_op(rng, int(rng.integers(2, 5)),
                               exact_phase=True)
            T = random_step_op(rng, int(rng.integers(2, 6)),
                               exact_phase=True)
            R = pc.oplus(S, T)
            mR, mS, mT = so.mu(R), so.mu(S), so.mu(T)
            total = df.support_hi(mR)
            for a in rng.uniform(0.05, 1.3 * total, size=5):
                a = float(a)
                x = mu_at(mR, a)
                # the attaining split sits at the distribution values;
                # pad the (b, c) grid to 128 points with a uniform fill
                cands = [0.0, a, so.dist_fun(mS, x), a - so.dist_fun(mT, x)]
                cands += [float(b) for b in np.linspace(0.0, a, 124)]
                brute = min(max(mu_at(mS, b), mu_at(mT, a - b))
                            for b in cands if 0.0 <= b <= a)
                assert brute == x, (a, x, brute)
        assert time.monotonic() - start < 10.0


class TestDuality:
    """Criterion 2: distribution(T, mu_t(T)) <= t and
    mu_{distribution(T, x)}(T) <= x, 200 profiles x 64 probes, exact."""

    def test_duality_identities(self):
        rng = np.random.default_rng(20260802)
        for _ in range(200):
            T = random_step_op(rng, int(rng.integers(2, 6)),
                               exact_phase=True)
            m = so.mu(T)
            total = df.support_hi(m)
            top = df.value_at_0(m)
            ts = rng.uniform(1e-3, 1.5 * total, size=32)
            xs = rng.uniform(0.0, 1.2 * top, size=32)
            for t in ts:
                t = float(t)
                assert so.distribution(T, mu_at(m, t)) <= t
            for x in xs:
                x = float(x)
                assert mu_at(m, so.distribution(T, x)) <= x


class TestCommutatorNecessity:
    """Criterion 3: lemma_nec suite, N in {1,2,3}, dims <= 64,
    100 trials each, zero violations, < 60 s."""

    def test_lemma_nec_suite(self):
        cfg = mo.OracleConfig(seed=20260803, dims=(2, 4, 8, 16, 32, 64),
                              trials=100)
        start = time.monotonic()
        for N in (1, 2, 3):
            rep = mo.run_property_suite(cfg, "lemma_nec", N=N)
            assert rep["failures"] == [], rep
        assert time.monotonic() - start < 60.0


def avg_majorant(T, c=1.0):
    """c * (integral of mu over (0, t)) / t: a decreasing power-log
    function dominating every band integral of T."""
    m = so.mu(T)
    segs = []
    prefix = 0.0
    for seg in m.segs:
        v = seg.const_value()
        lo, hi = seg.lo, seg.hi
        if hi == INF:
            segs.append(Seg(lo, INF,
                            (Term(c * prefix, 1.0),) if prefix else ()))
            break
        terms = []
        a = prefix - v * lo
        if a > 0:
            terms.append(Term(c * a, 1.0))
        if v > 0:
            terms.append(Term(c * v))
        segs.append(Seg(lo, hi, tuple(terms)))
        prefix += v * (hi - lo)
    return df.make(segs)


def feasible_grid(alpha, phi, K, lo, hi, step=1e-4, pad=50):
    """Exhaustive beta_0 scan: feasible iff every |beta_n| stays within
    phi(2^n) under the two defining recursions (vectorized over the
    candidate grid, anchored so that lo itself is a grid point)."""
    cand = lo + step * np.arange(-pad, int(round((hi - lo) / step)) + pad + 1)
    phival = {n: phi(2.0 ** n) for n in range(-K, K + 1)}
    ok = np.ones_like(cand, dtype=bool)
    beta = cand.copy()
    for n in range(1, K + 1):
        beta = 0.5 * (beta - alpha.get(n, 0.0))
        ok &= np.abs(beta) <= phival[n] * (1.0 + 1e-9) + 1e-12
    beta = cand.copy()
    for n in range(0, -K, -1):
        beta = 2.0 * beta + alpha.get(n, 0.0)
        ok &= np.abs(beta) <= phival[n - 1] * (1.0 + 1e-9) + 1e-12
    ok &= np.abs(cand) <= phival[0] * (1.0 + 1e-9) + 1e-12
    return cand[ok]


class TestWitnessFeasibility:
    """Criterion 4: 500 random (T, h) pairs satisfying the two-variable
    bound at K=40 give nonempty beta_0 intervals (Re and Im), and a
    1e-4-step grid search agrees with the endpoints to 1e-3."""

    def test_beta0_intervals(self):
        rng = np.random.default_rng(20260804)
        for _ in range(500):
            T = random_step_op(rng, int(rng.integers(2, 6)))
            h = avg_majorant(T, c=float(rng.uniform(1.0, 2.0)))
            d = float(rng.uniform(0.02, 0.15))
            h = df.combine(h, df.scale_fun(md.omega_fs(), d), "sum")
            cert = cm.fdh_certificate(T, h, K=40)
            (rl, rh), (il, ih) = cert.beta0_interval
            assert rl <= rh and il <= ih
            for (lo, hi), part in (((rl, rh), "real"), ((il, ih), "imag")):
                alpha = {n: getattr(v, part)
                         for n, v in cert.alpha.items()}
                feas = feasible_grid(alpha, cert.phi, 40, lo, hi)
                assert feas.size > 0
                assert abs(feas.min() - lo) <= 1e-3
                assert abs(feas.max() - hi) <= 1e-3


class TestGoldenTable:
    """Criterion 5: the CLI table reproduces the finite-rank, L_p, and
    mixed-sum decision identities, < 5 s."""

    def test_all_rows(self):
        start = time.monotonic()
        rows = {r["id"]: r for r in cli.run_table("all")}
        assert time.monotonic() - start < 5.0
        assert all(r["ok"] for r in rows.values()), [
            r for r in rows.values() if not r["ok"]]
        # four finite-rank probes
        f_ids = ["f_zero_trace_pair", "f_nonzero_trace", "f_zero_operator",
                 "f_complex_pair"]
        assert [rows[i]["answer"] for i in f_ids] == [
            "member", "not_member", "member", "member"]
        # p = 1/2 fs: membership regardless of trace
        assert rows["lp_half_fs"]["answer"] == "member"
        # p = 2 fs: membership exactly on the trace kernel
        assert rows["lp_two_fs_zero"]["answer"] == "member"
        assert rows["lp_two_fs_trace"]["answer"] == "not_member"
        # the 1/(t log^2 t) witness: trace 0 yet outside F + [(L1)_fs, M]
        assert rows["lp_one_fs_witness"]["answer"] == "not_member"
        # mixed-sum examples for (p, q) in {(1/2,2), (2,1/2), (1,1)}
        assert rows["example_i"]["answer"] == "member"
        assert rows["example_ii_zero"]["answer"] == "member"
        assert rows["example_ii_trace"]["answer"] == "not_member"
        assert rows["example_iii"]["answer"] == "not_member"

    def test_witness_majorant_diverges_symbolically(self):
        # the not_member verdict rests on 1/(r |log r|) failing the L1
        # integral test near zero, not on sampling
        g = df.power_fun(1.0, 1.0, 1.0, hi=0.25)
        assert df.integral(g, 0.0, 0.25) == INF


def raw_atoms(rng, n=3):
    zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ms = rng.uniform(0.3, 1.2, n)
    return [(complex(z), float(m)) for z, m in zip(zs, ms)]


def balanced_atoms(rng, n=3):
    atoms = raw_atoms(rng, n)
    atoms.append((-sum(z * m for z, m in atoms), 1.0))
    return atoms


class TestBrownCoherence:
    """Criterion 6: member_F verdicts on 100 random vanishing normal
    profiles with I = L1 survive the Brown-measure round-trip; member
    certificates verify in class F and promote to class G via V -> eV."""

    def test_round_trip_and_certificates(self):
        rng = np.random.default_rng(20260806)
        L1 = md.Lp(1.0)
        decided = {"member": 0, "not_member": 0}
        for i in range(50):
            for make in (balanced_atoms, raw_atoms):
                T = so.from_atoms(make(rng, int(rng.integers(2, 4))))
                dec = br.member_F(T, L1)
                T2 = br.normal_model(br.brown_of_normal(T))
                dec2 = br.member_F(T2, L1)
                assert dec.answer == dec2.answer
                assert dec.answer in decided
                decided[dec.answer] += 1
                if dec.answer == "member":
                    V, lhs = br.build_V(T)
                    assert br.verify_certificate(lhs, V, "F")["ok"]
                    eV = so.scale_op(V, math.e)
                    assert br.verify_certificate(lhs, eV, "G")["ok"]
        assert decided["member"] >= 40 and decided["not_member"] >= 40


class TestBumpMachinery:
    """Criterion 7: plateau/support of phi, the psi bounds, and discrete
    subharmonicity on a 400x400 polar grid; C0 reproducible to 1e-8."""

    C0_PINNED = 26.815544003268467

    @pytest.mark.parametrize("r,s", [(1.0, 4.0), (0.1, 10.0), (2.0, 100.0)])
    def test_bump_pair(self, r, s):
        rep = pc.bump_suite(r, s, grid=400)
        assert rep["pass"]
        assert rep["phi_range_margin"] >= -1e-12
        assert rep["phi_plateau_err"] <= 1e-9
        assert rep["phi_outside_err"] <= 1e-9
        # two-sided envelope of rho; the lower bound is tight where the
        # bump derivative vanishes, so allow pure float underflow noise
        assert rep["rho_lower_margin"] >= -1e-15 * s
        assert rep["rho_upper_margin"] >= 0.0
        assert rep["psi_lower_margin"] >= 0.0
        assert rep["psi_upper_margin"] >= 0.0
        assert rep["laplacian_min"] >= -1e-6

    def test_c0_reproducible(self):
        vals = [pc.BumpSpec().C0 for _ in range(2)]
        assert abs(vals[0] - vals[1]) <= 1e-8
        assert math.isfinite(vals[0])
        assert abs(vals[0] - self.C0_PINNED) <= 1e-8


class TestDeterminantSuite:
    """Criterion 8: determinant multiplicativity at 1e-9 and the
    subharmonic-mean inequality on 100 random pairs, dims <= 32."""

    def test_multiplicativity(self):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            scale = math.sqrt(2 * n)
            a = np.eye(n) + (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))) / scale
            b = np.eye(n) + (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))) / scale
            lhs = mo.fk_det_matrix(a @ b)
            rhs = mo.fk_det_matrix(a) * mo.fk_det_matrix(b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)

    def test_subharmonic_mean(self):
        cfg = mo.OracleConfig(seed=20260818, dims=(2, 4, 8, 16, 32),
                              trials=20)
        rep = mo.run_property_suite(cfg, "pluri")
        assert rep["failures"] == [], rep


def corpus_T(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return so.from_atoms(balanced_atoms(rng))
    if kind == 1:
        return so.from_atoms(raw_atoms(rng, 2))
    if kind == 2:
        g = float(rng.choice([0.25, 0.5, 0.75]))
        ph = complex(rng.choice([1.0, -1.0, 1j]))
        return so.make_op([Seg(0.0, 1.0, (Term(1.0, g),), ph)])
    d = float(rng.choice([0.6, 1.5]))
    return so.make_op([Seg(0.0, 1.0, (Term(1.0),)),
                       Seg(1.0, INF, (Term(1.0, d),))])


def corpus_I(rng):
    k = rng.integers(0, 7)
    if k == 0:
        return md.Lp(float(rng.choice([0.5, 1.0, 2.0])))
    if k == 1:
        return md.F()
    if k == 2:
        return md.K()
    if k == 3:
        return md.M()
    if k == 4:
        return md.Llog()
    if k == 5:
        return md.FsPart(md.Lp(float(rng.choice([0.5, 1.0, 2.0]))))
    return md.BPart(md.Lp(float(rng.choice([0.5, 1.0, 2.0]))))


def corpus_J(rng):
    # biased toward modules whose products normalize symbolically
    k = rng.integers(0, 6)
    if k <= 1:
        return md.M()
    if k <= 4:
        return md.Lp(float(rng.choice([0.5, 1.0, 2.0])))
    return md.F()


class TestConsistencyLaws:
    """Criterion 9: [I,J] = [IJ,M] and, for vanishing operators,
    [I,M] restricted to I0 = [I0,M]; 50 randomized cases, every check
    decided and zero disagreements."""

    def test_verdict_equalities(self):
        rng = np.random.default_rng(23)
        checks = inconclusive = 0
        for _ in range(50):
            T, I, J = corpus_T(rng), corpus_I(rng), corpus_J(rng)
            dA = cm.member_IIinf(T, I, J)
            dB = cm.member_IIinf(T, md.Product(I, J), md.M())
            checks += 1
            if "inconclusive" in (dA.answer, dB.answer):
                inconclusive += 1
            else:
                assert dA.answer == dB.answer, (dA, dB)
            if df.limit_at_inf(so.mu(T)) == 0.0:
                d1 = cm.member_IIinf(T, md.Vanish(I), md.M())
                d2 = cm.member_IIinf(T, I, md.M())
                checks += 1
                if "inconclusive" in (d1.answer, d2.answer):
                    inconclusive += 1
                else:
                    assert d1.answer == d2.answer, (d1, d2)
        assert inconclusive == 0, (inconclusive, checks)
