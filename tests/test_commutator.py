import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import specop as so


def power_op(coeff, pow, hi, phase=1.0):
    return so.make_op([df.Seg(0.0, hi, (df.Term(coeff, pow),), phase)])


def trace_witness_op():
    """Positive head 1/(t log^2 t) with a flat negative block cancelling
    the trace."""
    c = math.exp(-2.0)
    head = df.Seg(0.0, c, (df.Term(1.0, 1.0, 2.0),))
    # trace of the head is 1/2; cancel with a flat block of height 1
    block = df.Seg(c, c + 0.5, (df.Term(1.0),), -1.0)
    return so.make_op([head, block])


def log_head_op(c, v):
    """c/(t log^2 t) on (0, e^-2) with a flat block of height v after it
    cancelling the head's trace c/2."""
    e2 = math.exp(-2.0)
    return so.make_op([df.Seg(0.0, e2, (df.Term(c, 1.0, 2.0),)),
                       df.Seg(e2, e2 + 0.5 * c / v, (df.Term(v),), -1.0)])


class TestTraceLimit:
    def test_cancelled_head_is_exactly_zero(self):
        assert cm.trace_limit(trace_witness_op(), "head") == ("converged", 0.0)

    def test_log_tail_is_one_over_log_two(self):
        st, v = cm.trace_limit(cli._log_witness_b(), "tail")
        assert st == "converged" and v == 1.0 / math.log(2.0)
        dec = cm.member_F_plus(cli._log_witness_b(), md.BPart(md.Lp(1.0)))
        assert dec.obstruction["side"] == "b"
        assert dec.obstruction["a"] == -1.0 / math.log(2.0)

    def test_diverges(self):
        # 1/t at 0 and t^-0.6 at infinity are not integrable
        assert cm.trace_limit(power_op(1.0, 1.0, 1.0), "head") \
            == ("diverges", None)
        assert cm.trace_limit(power_op(1.0, 0.6, df.INF), "tail") \
            == ("diverges", None)

    def test_converged(self):
        # 1/t is not integrable at infinity, but this T_b stops at 4
        T_b = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0),), 1j),
                          df.Seg(1.0, 4.0, (df.Term(1.0, 1.0),), -1.0)])
        st, v = cm.trace_limit(T_b, "tail")
        assert st == "converged" and v == so.trace(T_b)
        assert v == 1j - math.log(4.0)

    def test_nonzero_head_trace_rejects_against_L1(self):
        # [M, L_1] = L_1 n ker tau and tau(t^-3/4 on (0,1)) = 4
        T = power_op(1.0, 0.75, 1.0)
        assert cm.trace_limit(T, "head") == ("converged", 4.0)
        dec = cm.member_IIinf(T, md.M(), md.Lp(1.0))
        assert dec.answer == "not_member"
        assert dec.obstruction["side"] == "both"

    def test_cancelled_log_head_fails_at_a_zero(self):
        # the block ends before 1, so T_fs is T and T_b is zero
        T = log_head_op(1.0, 0.9 * math.exp(2.0) / 4.0)
        assert cm.trace_limit(T, "head") == ("converged", 0.0)
        dec = cm.member_IIinf(T, md.FsPart(md.Lp(1.0)), md.M())
        assert dec.answer == "not_member"
        assert dec.obstruction["side"] == "fs"
        assert dec.obstruction["a"] == 0.0

    def test_overflowing_trace_is_no_zero_limit(self):
        # tau = 2e308 passes the float range, so no constant is forced
        T = so.from_atoms([(1e308, 1.0), (1e308, 1.0)])
        assert cm.trace_limit(T, "head") == ("overflows", None)
        for I in (md.Lp(1.0), md.F()):
            dec = cm.member_IIinf(T, I, md.M())
            assert (dec.answer, dec.notes) \
                == ("inconclusive", "trace overflows a float")

    def test_cancelling_huge_pair_stays_member(self):
        # int |v| overflows, but tau = 1e308 - 1e308 is exactly 0
        T = so.from_atoms([(1e308, 1.0), (-1e308, 1.0)])
        assert cm.trace_limit(T, "head") == ("converged", 0.0)
        for I in (md.Lp(1.0), md.F()):
            assert cm.member_IIinf(T, I, md.M()).answer == "member"


PHASES = st.sampled_from([1.0, -1.0, 1j, -1j, 0.6 + 0.8j])


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.1, 10.0), g=st.floats(0.05, 1.5),
       h=st.floats(0.01, 1.0), length=st.floats(0.01, 2.0),
       frac=st.floats(0.0, 1.0), p=PHASES, q=PHASES)
def test_head_limit_against_closed_form_and_long_grid(c, g, h, length, frac,
                                                      p, q):
    # c t^-g on (0, h) with phase p, then a block no higher, phase q
    v = frac * c * h ** -g
    T = so.make_op([df.Seg(0.0, h, (df.Term(c, g),), p),
                    df.Seg(h, h + length, (df.Term(v),), q)])
    status, lim = cm.trace_limit(T, "head")
    near, far = (so.band_trace(T, "head", r=2.0 ** -k) for k in (30, 60))
    if g >= 1.0:
        assert (status, lim) == ("diverges", None)
        assert abs(far - near) > 1.0
        return
    scale = c * h ** (1.0 - g) / (1.0 - g) + v * length
    assert status == "converged"
    assert abs(lim - (p * c * h ** (1.0 - g) / (1.0 - g) + q * v * length)) \
        <= 2.0 * cm.TRACE_TOL * max(1.0, scale)
    # the band at r leaves out (0, r), where the head carries this much
    rest = c * 2.0 ** (-60 * (1.0 - g)) / (1.0 - g)
    assert abs(far - lim) <= rest * (1.0 + 1e-9) + 2.0 * cm.TRACE_TOL * scale


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.1, 10.0), d=st.floats(0.3, 3.0),
       lift=st.floats(1.0, 4.0), end=st.one_of(st.just(df.INF),
                                                st.floats(2.0, 100.0)),
       p=PHASES, q=PHASES)
def test_tail_limit_against_closed_form_and_long_grid(c, d, lift, end, p, q):
    # a flat block of height lift * c on (0, 1), then c t^-d on (1, end)
    T_b = so.make_op([df.Seg(0.0, 1.0, (df.Term(lift * c),), p),
                      df.Seg(1.0, end, (df.Term(c, d),), q)])
    status, lim = cm.trace_limit(T_b, "tail")
    near, far = (so.band_trace(T_b, "tail", s=2.0 ** k) for k in (30, 60))
    if end == df.INF and d <= 1.0:
        assert (status, lim) == ("diverges", None)
        assert abs(far - near) > 1.0
        return
    if d == 1.0:
        body = math.log(end)
    else:
        body = ((0.0 if end == df.INF else end ** (1.0 - d)) - 1.0) \
            / (1.0 - d)
    scale = lift * c + c * body
    assert status == "converged"
    assert abs(lim - (p * lift * c + q * c * body)) \
        <= 2.0 * cm.TRACE_TOL * scale
    # the band at s leaves out (s, oo), where the tail carries this much
    rest = 0.0 if end < df.INF else c * 2.0 ** (60 * (1.0 - d)) / (d - 1.0)
    assert abs(far - lim) <= rest * (1.0 + 1e-9) + 2.0 * cm.TRACE_TOL * scale


class TestFullAlgebra:
    def test_bounded_in_M_M(self):
        T = so.from_atoms([(2.0, 0.5), (1j, 1.0)])
        dec = cm.member_IIinf(T, md.M(), md.M())
        assert dec.answer == "member"

    def test_nonzero_trace_still_member(self):
        # no trace obstruction against the full algebra
        T = so.from_atoms([(1.0, 1.0)])
        assert cm.member_IIinf(T, md.M(), md.M()).answer == "member"

    def test_unbounded_profile_rejected(self):
        T = power_op(1.0, 0.5, 1.0)
        dec = cm.member_IIinf(T, md.M(), md.M())
        assert dec.answer == "not_member"
        assert dec.obstruction["side"] == "module"

    def test_zero(self):
        assert cm.member_IIinf(so.zero_op(), md.Lp(1.0), md.M()).answer \
            == "member"


class TestFlatTail:
    def test_flat_plus_spike_member(self):
        # modulus 1 + t^-1/2 on (0,1), flat 1 beyond; the generated
        # module absorbs both the spike and the constants
        segs = [df.Seg(0.0, 1.0, (df.Term(1.0, 0.5), df.Term(1.0))),
                df.Seg(1.0, df.INF, (df.Term(1.0),))]
        T = so.make_op(segs)
        I = md.Principal(so.mu(T))
        dec = cm.member_IIinf(T, I, md.M())
        assert dec.answer == "member"

    def test_pure_flat(self):
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0),))])
        dec = cm.member_IIinf(T, md.M(), md.M())
        assert dec.answer == "member"


class TestLpSides:
    def test_p_half_fs_member(self):
        # head t^-1 is non-trace-class; 1/t absorbs the constant for p<1
        T = power_op(1.0, 1.0, 1.0)
        dec = cm.member_IIinf(T, md.Lp(0.5), md.M())
        assert dec.answer == "member"

    def test_p_two_fs_member_despite_trace(self):
        T = power_op(1.0, 0.25, 1.0)
        dec = cm.member_IIinf(T, md.Lp(2.0), md.M())
        assert dec.answer == "member"
        assert abs(dec.certificate.a - 4.0 / 3.0) < 1e-6

    def test_p_two_b_member(self):
        segs = [df.Seg(0.0, 1.0, (df.Term(1.0),)),
                df.Seg(1.0, df.INF, (df.Term(1.0, 0.75),))]
        T = so.make_op(segs)
        dec = cm.member_IIinf(T, md.Lp(2.0), md.M())
        assert dec.answer == "member"

    def test_L1_trace_obstruction(self):
        T = power_op(1.0, 0.5, 1.0)  # trace 2, both omegas missing for L1
        dec = cm.member_IIinf(T, md.Lp(1.0), md.M())
        assert dec.answer == "not_member"

    def test_L1_zero_trace_member(self):
        T = so.from_atoms([(4.0, 0.1), (-2.0, 0.2)])
        dec = cm.member_IIinf(T, md.Lp(1.0), md.M())
        assert dec.answer == "member"
        assert abs(dec.certificate.a) < 1e-9

    def test_L1_log_witness_not_member(self):
        # zero trace yet not even in F + [L1, M]: the head trace decays
        # like 1/|log r|, whose majorant 1/(r|log r|) is not integrable
        T = trace_witness_op()
        assert abs(so.trace(T)) < 1e-12
        dec = cm.member_F_plus(T, md.Lp(1.0))
        assert dec.answer == "not_member"
        assert dec.obstruction["side"] == "fs"
        full = cm.member_IIinf(T, md.Lp(1.0), md.M())
        assert full.answer == "not_member"


class TestFPlus:
    def test_decoupled_constants(self):
        # fs part forces a_fs = 1, b part forces a_b = 0; membership up to
        # finite rank holds although the shared-constant test fails
        T = so.from_atoms([(2.0, 0.5)])
        dec = cm.member_F_plus(T, md.Lp(1.0))
        assert dec.answer == "member"
        strict = cm.member_IIinf(T, md.Lp(1.0), md.M())
        assert strict.answer == "not_member"

    def test_witness_still_fails(self):
        T = trace_witness_op()
        assert cm.member_F_plus(T, md.Lp(1.0)).answer == "not_member"


class TestII1:
    def test_identity_not_member(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0),))],
                       so.II_1)
        dec = cm.member_II1(T, md.M(so.II_1), md.M(so.II_1))
        assert dec.answer == "not_member"

    def test_zero_trace_member(self):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)], so.II_1)
        dec = cm.member_II1(T, md.M(so.II_1), md.M(so.II_1))
        assert dec.answer == "member"
        assert dec.certificate.total_count == 12

    def test_random_bounded_zero_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            vals = rng.uniform(0.5, 3.0, 3)
            lens = rng.uniform(0.05, 0.2, 3)
            atoms = [(v, ln) for v, ln in zip(vals, lens)]
            s = sum(v * ln for v, ln in atoms)
            atoms.append((-s / 0.3, 0.3))
            T = so.from_atoms(atoms, so.II_1)
            dec = cm.member_II1(T, md.M(so.II_1), md.M(so.II_1))
            assert dec.answer == "member"

    def test_unbounded_L1_head(self):
        # mu = t^-1/2 has trace 2 in the finite factor; L_{1/2} absorbs 1/t
        T = so.make_op(
            [df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))], so.II_1)
        dec = cm.member_II1(T, md.Lp(0.5, so.II_1), md.M(so.II_1))
        assert dec.answer == "member"
        dec2 = cm.member_II1(T, md.Lp(1.0, so.II_1), md.M(so.II_1))
        assert dec2.answer == "not_member"


class TestBetaSequence:
    def phi(self):
        return df.make([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),)),
                        df.Seg(1.0, df.INF, (df.Term(1.0, 0.75),))])

    def synth_alpha(self, rng, phi, K):
        beta = {n: rng.uniform(-0.5, 0.5) * phi(2.0 ** (n + 1))
                for n in range(-K - 1, K + 1)}
        return {n: beta[n - 1] - 2.0 * beta[n] for n in range(-K, K + 1)}

    def test_interval_matches_grid(self):
        rng = np.random.default_rng(30)
        phi = self.phi()
        K = 10
        for _ in range(20):
            alpha = self.synth_alpha(rng, phi, K)
            (lo, hi), beta = cm.beta_sequence(alpha, phi, K)
            assert lo <= hi
            assert lo <= beta[0] <= hi

            def feasible(b0):
                b = {0: b0}
                for n in range(1, K + 1):
                    b[n] = 0.5 * (b[n - 1] - alpha[n])
                for n in range(0, -K, -1):
                    b[n - 1] = 2.0 * b[n] + alpha[n]
                return all(abs(b[n]) <= phi(2.0 ** n) * (1 + 1e-9)
                           for n in b)

            assert feasible(beta[0])
            span = max(hi - lo, 1e-6)
            assert not feasible(hi + 0.01 * span + 1e-9)
            assert not feasible(lo - 0.01 * span - 1e-9)

    def test_precondition_violation(self):
        phi = df.const(0.01)
        with pytest.raises(df.DomainError, match="summed-block"):
            cm.beta_sequence({0: 1.0}, phi, 4)


class TestFdhCertificate:
    def test_step_certificate(self):
        T = so.from_atoms([(1.0, 1.0), (-1.0, 1.0)])
        cert = cm.fdh_certificate(T, df.const(10.0), K=12)
        assert cert.total_count == 14
        assert cert.beta0_interval[0][0] <= cert.beta0_interval[0][1]
        assert all(b["commutators"] == 10 for b in cert.block_bounds)
        # the block norm bound follows the singular values
        lvl = {b["n"]: b["S_norm_bound"] for b in cert.block_bounds}
        assert lvl[0] == 2.0 * so.mu(T)(1.0)
        assert lvl[2] == 0.0

    def test_complex_step(self):
        T = so.from_atoms([(1j, 1.0), (-1j, 1.0), (0.5, 0.5), (-0.5, 0.5)])
        cert = cm.fdh_certificate(T, df.const(10.0), K=10)
        for n, (br, bi) in cert.beta.items():
            assert abs(br) <= cert.phi(2.0 ** n) * (1 + 1e-9) + 1e-12
            assert abs(bi) <= cert.phi(2.0 ** n) * (1 + 1e-9) + 1e-12

    def test_bound_violation(self):
        T = so.from_atoms([(1.0, 4.0)])
        with pytest.raises(df.DomainError, match="criterion bound"):
            cm.fdh_certificate(T, df.power_fun(1e-4, 1.0), K=8)

    def test_member_certificate_attached(self):
        T = so.from_atoms([(4.0, 0.1), (-2.0, 0.2)])
        dec = cm.member_IIinf(T, md.Lp(1.0), md.M())
        assert dec.answer == "member"
        assert dec.certificate.alpha is not None
        assert dec.certificate.total_count == 14


class TestDiscreteTest:
    def test_alternating_pair(self):
        dec = cm.dfww_discrete_test([1.0, -1.0], md.Lp(1.0))
        assert dec.answer == "member"

    def test_harmonic_not_member(self):
        dec = cm.dfww_discrete_test([1.0], md.Lp(1.0), tail=(1.0, 1.0))
        assert dec.answer == "not_member"

    def test_harmonic_in_L2(self):
        dec = cm.dfww_discrete_test([1.0], md.Lp(2.0), tail=(1.0, 1.0))
        assert dec.answer == "member"

    def test_monotonicity_guard(self):
        with pytest.raises(df.DomainError):
            cm.dfww_discrete_test([0.5, 1.0], md.Lp(1.0))

    def test_balanced_tail(self):
        # lambda_1 = 1 - zeta(2) cancels the tail k^-2, k >= 2: the sums
        # tend to 0, the means are ~ 1/k^2 and lie in l^1
        lam = 1.0 - math.pi ** 2 / 6.0
        dec = cm.dfww_discrete_test([lam], md.Lp(1.0), tail=(1.0, 2.0))
        assert dec.answer == "member"
        dec = cm.dfww_discrete_test([lam - 1e-3], md.Lp(1.0), tail=(1.0, 2.0))
        assert dec.answer == "not_member"


class TestNecessaryH:
    def test_formula(self):
        T = so.from_atoms([(1.0, 1.0)])
        muA = df.step_fun([(1.0, 2.0)])
        muB = df.step_fun([(1.0, 3.0)])
        h = cm.necessary_h(T, [(muA, muB)])
        # 10*mu(T) + 20*muA*muB on (0,1)
        assert abs(h(0.5) - (10.0 + 120.0)) < 1e-12
        assert h(2.0) == 0.0

    def test_two_parts(self):
        T = so.from_atoms([(1.0, 1.0)])
        muA = df.step_fun([(1.0, 1.0)])
        h = cm.necessary_h(T, [(muA, muA), (muA, muA)])
        assert abs(h(0.5) - (18.0 + 2 * 36.0)) < 1e-12


class TestMemberSide:
    def test_fs_guard(self):
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0),))])
        with pytest.raises(df.DomainError):
            cm.member_side(T, md.M(), "fs")

    def test_b_guard(self):
        T = power_op(1.0, 0.5, 1.0)
        with pytest.raises(df.DomainError):
            cm.member_side(T, md.M(), "b")

    def test_fs_yes(self):
        T = so.from_atoms([(1.0, 0.5), (-1.0, 0.5)])
        assert cm.member_side(T, md.Lp(1.0), "fs").answer == "member"

    def test_b_yes(self):
        segs = [df.Seg(0.0, 1.0, (df.Term(1.0),)),
                df.Seg(1.0, df.INF, (df.Term(1.0, 0.75),))]
        T = so.make_op(segs)
        assert cm.member_side(T, md.Lp(2.0), "b").answer == "member"
