import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commcalc import decfun as df
from commcalc import paperchecks as pc
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_step_op(rng, factor_type=so.II_INF, max_atoms=6, complex_phases=True):
    n = rng.integers(1, max_atoms + 1)
    atoms = []
    budget = 1.0 if factor_type == so.II_1 else 8.0
    lens = rng.uniform(0.05, 1.0, n)
    lens = lens / lens.sum() * budget * rng.uniform(0.3, 1.0)
    for ln in lens:
        mod = rng.uniform(0.1, 5.0)
        if complex_phases:
            z = mod * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        else:
            z = mod * rng.choice([-1.0, 1.0])
        atoms.append((z, ln))
    return so.from_atoms(atoms, factor_type)


class TestMu:
    def test_atoms(self):
        T = so.from_atoms([(3.0, 1.0), (2j, 2.0)])
        m = so.mu(T)
        assert m(0.5) == 3.0
        assert m(2.0) == 2.0
        assert m(4.0) == 0.0

    def test_zero(self):
        assert so.mu(so.zero_op()).is_zero()

    def test_power_profile(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))])
        m = so.mu(T)
        assert close(m(0.25), 2.0)
        assert m(2.0) == 0.0

    def test_atom_with_an_underflowing_angle(self):
        # the angle of 2 + 5e-324j underflows, which cmath.phase refuses
        T = so.from_atoms([(1.0, 1.0), (2.0 + 5e-324j, 1.0), (-2.0, 1.0)])
        assert [s.phase for s in T.segs] == [1.0, -1.0, 1.0]
        assert [so.mu(T)(t) for t in (0.5, 1.5, 2.5)] == [2.0, 2.0, 1.0]

    def test_profile_is_kept_on_the_operator(self):
        T = so.from_atoms([(3.0, 1.0), (2j, 2.0)])
        assert so.mu(T) is so.mu(T) is T.profile
        assert all(seg.phase == 1.0 for seg in so.mu(T).segs)

    def test_phase_invariance(self):
        rng = np.random.default_rng(0)
        T = random_step_op(rng)
        S = so.scale_op(T, cmath.exp(0.7j))
        for t in [0.1, 0.5, 1.0, 2.0]:
            assert close(so.mu(T)(t), so.mu(S)(t))
        A = so.adjoint(T)
        for t in [0.1, 0.5, 1.0, 2.0]:
            assert close(so.mu(T)(t), so.mu(A)(t))


class TestDistribution:
    def test_step(self):
        T = so.from_atoms([(3.0, 1.0), (2j, 2.0)])
        assert so.distribution(T, 2.0) == 1.0

    def test_support(self):
        T = so.from_atoms([(1.0, 1.5), (0.5, 1.0)])
        assert so.distribution(T, 0.0) == 2.5

    def test_power(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))])
        assert close(so.distribution(T, 2.0), 0.25)

    def test_level_far_out_in_the_tail(self):
        # t^-1/4 on (0, oo) crosses the level m(1e300) at t = 1e300, near
        # the float range; a level below m(2^1023) has no float crossing
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0, 0.25),))])
        assert close(so.distribution(T, so.mu(T)(1e300)), 1e300, tol=1e-12)
        with pytest.raises(OverflowError):
            so.distribution(T, 1e-300)

    def test_duality(self):
        # measure{mu > mu_t} <= t and mu at the distribution level <= x
        rng = np.random.default_rng(1)
        for _ in range(20):
            T = random_step_op(rng)
            m = so.mu(T)
            for t in np.geomspace(0.01, 10.0, 16):
                d = so.distribution(T, m(t))
                assert d <= t + 1e-12
            for x in np.linspace(0.0, 6.0, 16):
                d = so.distribution(T, x)
                if 0 < d < T.domain_hi:
                    assert m(d) <= x + 1e-12


class TestBandTrace:
    def test_trace_overflow_raises(self):
        # 1e308 + 1e308 passes the float range: no (inf+0j) trace
        T = so.from_atoms([(1e308, 1.0), (1e308, 1.0)])
        with pytest.raises(OverflowError):
            so.trace(T)

    def test_atom_band(self):
        T = so.from_atoms([(3.0, 1.0), (2j, 2.0)])
        v = so.band_trace(T, "by_modulus", a=1.0, b=3.0)
        assert close(v, 3.0 + 4.0j)

    def test_empty_band(self):
        T = so.from_atoms([(3.0, 1.0)])
        v = so.band_trace(T, "by_scale", r=0.5, s=0.5 + 1e-12)
        assert abs(v) < 1e-9

    def test_head_power(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))])
        v = so.band_trace(T, "head", r=0.25)
        assert close(v, 1.0)

    def test_head_band_at_a_tiny_scale(self):
        # the level 2^100 of 1/t is found by a steep root search that needs
        # more than brentq's default 100 iterations
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 1.0),))])
        v = so.band_trace(T, "head", r=2.0 ** -100)
        assert abs(v - 100.0 * math.log(2.0)) <= 1e-12 * 100.0 * math.log(2.0)

    def test_band_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            T = random_step_op(rng)
            cuts = sorted(rng.uniform(0.05, 6.0, 3))
            a, mid, b = cuts
            v1 = so.band_trace(T, "by_modulus", a=a, b=mid)
            v2 = so.band_trace(T, "by_modulus", a=mid, b=b)
            v = so.band_trace(T, "by_modulus", a=a, b=b)
            assert abs(v - (v1 + v2)) < 1e-10

    def test_non_integrable(self):
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 2.0),))])
        with pytest.raises(df.DomainError):
            so.band_trace(T, "tail", s=10.0)


class TestOplus:
    def test_concat(self):
        S = so.from_atoms([(3.0, 1.0)])
        T = so.from_atoms([(2j, 2.0)])
        R = pc.oplus(S, T)
        m = so.mu(R)
        assert m(0.5) == 3.0 and m(2.0) == 2.0

    def test_same_atom(self):
        S = so.from_atoms([(1.0, 1.0)])
        R = pc.oplus(S, S)
        assert so.mu(R)(1.5) == 1.0 and so.mu(R)(2.5) == 0.0

    def test_trace_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            S, T = random_step_op(rng), random_step_op(rng)
            assert abs(so.trace(pc.oplus(S, T)) -
                       (so.trace(S) + so.trace(T))) < 1e-9

    def test_direct_sum_formula(self):
        # mu_a(S + T direct sum) = inf over b+c=a of max(mu_b(S), mu_c(T))
        rng = np.random.default_rng(4)
        for _ in range(20):
            S, T = random_step_op(rng), random_step_op(rng)
            R = pc.oplus(S, T)
            mS, mT, mR = so.mu(S), so.mu(T), so.mu(R)
            for a in np.linspace(0.05, 6.0, 8):
                grid = set(np.linspace(0.0, a, 129))
                grid.update(b for b in mS.breaks if 0.0 <= b <= a)
                grid.update(a - b for b in mT.breaks if 0.0 <= b <= a)
                brute = min(
                    max(mS(b) if b > 0 else mS(1e-300),
                        mT(a - b) if a - b > 0 else mT(1e-300))
                    for b in grid
                )
                assert close(mR(a), brute, tol=1e-12)


class TestSplit:
    def test_bounded(self):
        # flat up to 1: cut at 0, and T_b is T itself
        T = so.from_atoms([(2.0, 3.0)])
        fs, b = so.split_fs_b(T)
        assert fs.is_zero()
        assert b.T is T and b.cut == 0.0
        for s in (0.5, 1.0, 4.0):
            assert b.tail(s) == so.band_trace(T, "tail", s=s)
        assert b.tail(4.0) == 6.0

    def test_unbounded_head(self):
        T = so.make_op([df.Seg(0.0, 4.0, (df.Term(1.0, 0.5),))])
        fs, b = so.split_fs_b(T)
        # mu_1(T) = 1, cut where t^-1/2 = 1
        assert close(so.mu(fs)(0.25), 2.0)
        assert so.mu(fs)(1.5) == 0.0
        assert close(b.cut, 1.0, tol=1e-12)
        assert b.segs == (replace(T.segs[0], lo=b.cut),)
        # mu_t(T_b) = (t + cut)^-1/2 <= 1: its tail traces in closed form
        for s in (0.5, 1.0, 2.0, 8.0):
            want = 2.0 * (math.sqrt(min(b.cut + s, 4.0)) - math.sqrt(b.cut))
            assert close(b.tail(s), want, tol=1e-12)

    def test_reassembly_steps(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = random_step_op(rng)
            fs, b = so.split_fs_b(T)
            # the parts tile T on its own axis, split at the cut
            segs = fs.segs + b.segs
            assert segs[0].lo == 0.0
            assert all(p.hi == q.lo for p, q in zip(segs, segs[1:]))
            mT, mR = so.mu(T), so.mu(so.make_op(segs))
            for t in np.geomspace(0.01, 10.0, 40):
                assert mT(t) == mR(t)
            # T_b has the tail traces of T's steps past the cut, moved to 0
            shifted = so.from_atoms([(p.phase * p.terms[0].coeff, p.hi - p.lo)
                                     for p in b.segs])
            for s in np.geomspace(0.01, 10.0, 40):
                assert close(b.tail(s), so.band_trace(shifted, "tail", s=s),
                             tol=1e-12)


    def test_head_is_T_itself_when_T_ends_by_the_cut(self):
        # z / |z| is not idempotent: renormalizing the second phase moved
        # its last bit, and split_fs_b returned a copy of T
        T = so.from_atoms([
            (-1.1142497526943569 - 4.633919383234185j, 0.08365647232914918),
            (1.3341686845342937 - 0.75547530537092j, 0.0874325014335771),
            (-2.650833770396478 + 1.5917082214543004j, 0.09029497330491977)])
        fs, b = so.split_fs_b(T)
        assert T.segs[-1].hi <= b.cut
        assert fs is T

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.complex_numbers(min_magnitude=1e-3,
                                                 max_magnitude=5.0),
                              st.floats(0.05, 0.6)), min_size=1, max_size=3))
    def test_head_is_T_clipped_at_the_cut(self, atoms):
        T = so.from_atoms(atoms)
        fs, b = so.split_fs_b(T)
        if T.segs[-1].hi <= b.cut:
            assert fs is T
            return
        kept = [p for p in T.segs if p.lo < b.cut]
        if kept:
            kept[-1] = replace(kept[-1], hi=min(kept[-1].hi, b.cut))
        # phases and terms bit for bit
        assert repr(fs.segs) == repr(tuple(kept))


class TestReIm:
    def test_self_adjoint(self):
        T = so.from_atoms([(1.0, 1.0), (-2.0, 1.0)])
        re, im = pc.re_im(T)
        assert im.is_zero()
        assert so.mu(re)(0.5) == 2.0

    def test_complex_atom(self):
        z = 3.0 + 4.0j
        T = so.from_atoms([(z, 1.0)])
        re, im = pc.re_im(T)
        # phase (3+4i)/5: real coeff 3/5 of modulus 5
        assert close(so.mu(re)(0.5), 3.0)
        assert close(so.mu(im)(0.5), 4.0)

    def test_orthogonal_atoms(self):
        T = so.from_atoms([(1.0, 1.0), (1j, 1.0)])
        re, im = pc.re_im(T)
        assert so.mu(re)(0.5) == 1.0 and so.mu(re)(1.5) == 0.0
        assert so.mu(im)(0.5) == 1.0 and so.mu(im)(1.5) == 0.0

    def test_trace_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            T = random_step_op(rng)
            re, im = pc.re_im(T)
            tr = so.trace(T)
            assert close(so.trace(re).real, tr.real, tol=1e-9)
            assert close(so.trace(im).real, tr.imag, tol=1e-9)


class TestSubadditivity:
    def test_sum_and_product_profiles(self):
        # commuting multiplication model: (S+T)(t) = v_S(t)+v_T(t)
        rng = np.random.default_rng(7)
        for _ in range(10):
            S, T = random_step_op(rng), random_step_op(rng)
            mS, mT = so.mu(S), so.mu(T)

            cuts = sorted({0.0, 16.0} | {s.lo for s in S.segs}
                          | {s.hi for s in S.segs} | {s.lo for s in T.segs}
                          | {s.hi for s in T.segs})

            def mu_of(fn):
                atoms = []
                for lo, hi in zip(cuts, cuts[1:]):
                    mid = 0.5 * (lo + hi)
                    atoms.append((abs(fn(mid)), hi - lo))
                atoms.sort(reverse=True)

                def m(a):
                    acc = 0.0
                    for v, ln in atoms:
                        acc += ln
                        if a < acc:
                            return v
                    return 0.0
                return m

            msum = mu_of(lambda t: S.value(t) + T.value(t))
            mprod = mu_of(lambda t: S.value(t) * T.value(t))
            for s, t in [(0.1, 0.2), (0.5, 1.0), (1.0, 2.5)]:
                assert msum(s + t) <= mS(s) + mT(t) + 1e-9
                assert mprod(s + t) <= mS(s) * mT(t) + 1e-9


# ---------------------------------------------------------------------------
# one normalizing pass per operator


def reference_make(segs, domain_hi=INF):
    """decfun.make before its split into normalize and tile, unvalidated."""
    cleaned = []
    for seg in sorted(segs, key=lambda s: s.lo):
        if seg.hi <= seg.lo:
            continue
        cleaned.append(Seg(seg.lo, seg.hi, df._merge_terms(seg.terms)))
    if not cleaned or cleaned[0].lo > 0.0:
        cleaned.insert(0, Seg(0.0, cleaned[0].lo if cleaned else domain_hi,
                              ()))
    out = []
    cursor = 0.0
    for seg in cleaned:
        if seg.lo > cursor:
            out.append(Seg(cursor, seg.lo, ()))
        elif seg.lo < cursor:
            raise DomainError("overlapping segments at %g" % seg.lo)
        out.append(seg)
        cursor = seg.hi
    if cursor < domain_hi:
        out.append(Seg(cursor, domain_hi, ()))
    elif cursor > domain_hi:
        raise DomainError("segments exceed domain end %g" % domain_hi)
    merged = [out[0]]
    for seg in out[1:]:
        prev = merged[-1]
        if seg.terms == prev.terms:
            merged[-1] = Seg(prev.lo, seg.hi, prev.terms)
        else:
            merged.append(seg)
    return df.PLFun(domain_hi, tuple(merged))


def reference_make_op_segs(segs):
    """The segments specop.make_op built with its own sort and merge."""
    cleaned = []
    for seg in sorted(segs, key=lambda s: s.lo):
        if seg.hi <= seg.lo:
            continue
        terms = df._merge_terms(seg.terms)
        if terms:
            phase = seg.phase
            cleaned.append(Seg(seg.lo, seg.hi, terms, phase / abs(phase)))
    return tuple(cleaned)


def outcome(fn, *args):
    """repr of the result (every bit of every float), or the error type."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return type(exc), str(exc)


@st.composite
def messy_segs(draw, domain_hi):
    """A nonincreasing operator written the long way round, unsorted: terms
    split in two and repeated, cancelling pairs, zero and tiny coefficients,
    empty and reversed intervals, segments whose terms cancel, random
    phases."""
    n = draw(st.integers(1, 5))
    span = (0.01, 0.99) if domain_hi == 1.0 else (0.01, 50.0)
    cuts = sorted(set(draw(st.lists(st.floats(*span), min_size=n - 1,
                                    max_size=n - 1))))
    level = draw(st.floats(0.5, 8.0))
    segs = []
    for lo, hi in zip([0.0] + cuts, cuts + [domain_hi]):
        phase = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        p = draw(st.sampled_from([0.0, 0.0, 0.5, 1.2]))
        if p and lo == 0.0:
            term = Term(level, p)
        elif p and hi < INF:
            term = Term(level * lo ** p, p)
        else:
            term = Term(level)
            p = 0.0
        level = term.value(hi) if hi < INF else 0.0
        level *= draw(st.floats(0.2, 1.0))
        share = draw(st.floats(0.0, 1.0))
        noise = draw(st.floats(-3.0, 3.0))
        # a tiny term: scale_op(T, 1e-300) underflows its coefficient
        tiny = Term(draw(st.sampled_from([1e-30, 1e-20])), 0.3)
        terms = [replace(term, coeff=share * term.coeff),
                 replace(term, coeff=term.coeff - share * term.coeff),
                 Term(noise, 0.7), Term(-noise, 0.7), Term(0.0, 2.0), tiny]
        segs.append(Seg(lo, hi, tuple(draw(st.permutations(terms))), phase))
        if level <= 0.0:
            break
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.floats(0.0, span[1]))
        hi = lo - draw(st.sampled_from([0.0, 0.5]))
        segs.append(Seg(lo, hi, (Term(draw(st.floats(0.1, 9.0)), 0.5),),
                        cmath.exp(1j * draw(st.floats(0.0, 6.0)))))
    if draw(st.booleans()):
        lo, hi = segs[-1].hi, segs[-1].hi + 1.0
        if hi <= domain_hi:
            segs.append(Seg(lo, hi, (Term(1.0), Term(-1.0)), 1j))
    return draw(st.permutations(segs))


def normalized(X):
    """X.segs are their own normalizing pass, each segment with terms."""
    return (df.normalize(X.segs) == list(X.segs)
            and all(seg.terms for seg in X.segs))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), factor_type=st.sampled_from([so.II_INF, so.II_1]))
def test_profile_tiles_the_operator_segments(data, factor_type):
    """T.profile, tiled from T.segs as they are, equals df.make(T.segs)
    bit for bit for every constructor, and make and make_op build what
    their own sort-and-merge passes built."""
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    segs = data.draw(messy_segs(domain_hi))
    assert outcome(df.make, segs, domain_hi, False) == outcome(
        reference_make, segs, domain_hi)
    assert repr(so.make_op(segs, factor_type, validate=False).segs) == repr(
        reference_make_op_segs(segs))
    try:
        T = so.make_op(segs, factor_type)
    except DomainError:
        assume(False)
    # moduli from 1e-3: a subnormal atom's z / |z| is not unimodular; at
    # most 3 atoms of length <= 0.3 on the II_1 domain, which ends at 1
    z = st.one_of(st.just(0j), st.complex_numbers(min_magnitude=1e-3,
                                                  max_magnitude=5.0))
    atoms = data.draw(st.lists(st.tuples(z, st.floats(0.01, 0.3)),
                               max_size=4 if domain_hi == INF else 3))
    alpha = data.draw(st.sampled_from([2.0, -1.0, 0.6 + 0.8j, 1e-300,
                                       1e-310j]))
    ops = [T, so.from_atoms(atoms, factor_type), so.scale_op(T, alpha),
           so.adjoint(T)]
    if factor_type == so.II_INF:
        ops.append(so.split_fs_b(T)[0])
    for X in ops:
        assert normalized(X)
        assert repr(X.profile) == repr(df.make(X.segs, X.domain_hi))


def test_from_atoms_refuses_atoms_past_the_II_1_domain():
    so.from_atoms([(1.0, 0.6), (0.5, 0.4)], so.II_1)  # ends exactly at 1
    with pytest.raises(DomainError, match="exceed domain end 1"):
        so.from_atoms([(1.0, 0.6), (0.5, 0.41)], so.II_1)


class TestScaleUnderflow:
    # a coefficient that underflows becomes the least float with its sign,
    # as an end term does: scaling never deletes a term or a segment

    def test_underflowing_term_is_the_least_float(self):
        # 1e-30 * 1e-300 is 0.0: the least float keeps t^-1.5 the dominant
        # term at 0, where 1e-300/t alone diverges too
        T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 1.0), Term(1e-30, 1.5)))])
        S = so.scale_op(T, 1e-300)
        assert S.segs == (Seg(0.0, 1.0, (Term(1e-300, 1.0),
                                         Term(5e-324, 1.5))),)
        assert df.dominant_at_0(S.profile) == (1.5, 0.0, 5e-324)
        assert S.integrable == (False, True)

    def test_underflowing_segment_is_kept(self):
        T = so.from_atoms([(2.0, 1.0), (1e-30, 1.0)])
        S = so.scale_op(T, -1e-300)
        assert S.segs == (Seg(0.0, 1.0, (Term(2e-300),), -1.0),
                          Seg(1.0, 2.0, (Term(5e-324),), -1.0))
        assert so.scale_op(so.from_atoms([(1e-30, 1.0)]), 1e-300).segs \
            == (Seg(0.0, 1.0, (Term(5e-324),)),)


class TestSubnormalPhase:
    # z / |z| is 1 + 1j for z = 5e-324 + 5e-324j, as |z| rounds to 5e-324

    def test_subnormal_atom(self):
        T = so.from_atoms([(5e-324 + 5e-324j, 0.25)])
        (seg,) = T.segs
        assert abs(abs(seg.phase) - 1.0) <= 1e-15
        assert seg.phase.real == seg.phase.imag > 0.0
        assert seg.terms == (Term(5e-324),)
        assert so.from_atoms([(-5e-324, 0.25)]).segs[0].phase == -1.0

    def test_scaling_by_a_subnormal(self):
        T = so.from_atoms([(1.0, 0.5), (-0.5j, 0.5)])
        S = so.scale_op(T, 5e-324 + 5e-324j)
        # the second coefficient underflows to the least float, and its
        # segment keeps the phase -1j (1 + 1j) / |1 + 1j|
        a, b = S.segs
        assert a.terms == b.terms == (Term(5e-324),)
        for seg in S.segs:
            assert abs(abs(seg.phase) - 1.0) <= 1e-15
        assert a.phase.real == a.phase.imag > 0.0
        assert b.phase.real == -b.phase.imag > 0.0

    @settings(max_examples=200, deadline=None)
    @given(z=st.complex_numbers(min_magnitude=2.3e-308, max_magnitude=1e300,
                                allow_nan=False, allow_infinity=False)
           | st.floats(2.3e-308, 1e300) | st.floats(-1e300, -2.3e-308))
    def test_normal_range_phases_keep_their_bits(self, z):
        assume(abs(z) >= 2.2250738585072014e-308)
        got, ref = so._phase(z), z / abs(z)
        assert type(got) is type(ref)
        assert repr(got) == repr(ref)
