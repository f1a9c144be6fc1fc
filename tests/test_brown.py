import math

import numpy as np
import pytest

from commcalc import brown as br
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import paperchecks as pc
from commcalc import specop as so


def random_atomic(rng, n=4, big=4.0):
    atoms = []
    for _ in range(n):
        z = rng.uniform(0.1, big) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        atoms.append((complex(z), rng.uniform(0.25, 2.0)))
    return br.BrownMeasure(tuple(atoms))


def balanced_atomic(rng, n=3):
    """Random atoms plus one balancing atom making the trace vanish."""
    nu = random_atomic(rng, n)
    tr = sum(z * m for z, m in nu.atoms)
    return br.BrownMeasure(nu.atoms + ((-tr, 1.0),))


class TestBrownMeasure:
    def test_merge_and_sort(self):
        nu = br.BrownMeasure(((1.0, 0.5), (2.0, 1.0), (1.0, 0.5),
                              (3.0, 0.0)))
        assert nu.atoms == ((2.0 + 0j, 1.0), (1.0 + 0j, 1.0))
        assert abs(nu.total_mass - 2.0) < 1e-15

    def test_atom_with_an_underflowing_angle(self):
        nu = br.BrownMeasure(((-2.0, 1.0), (2.0 + 5e-324j, 1.0)))
        assert nu.atoms == ((2.0 + 5e-324j, 1.0), (-2.0 + 0j, 1.0))

    def test_negative_mass(self):
        with pytest.raises(df.DomainError):
            br.BrownMeasure(((1.0, -0.1),))

    def test_moments(self):
        nu = br.BrownMeasure(((2.0, 1.0), (0.5j, 2.0)))
        assert abs(nu.p_moment(2.0) - (4.0 + 0.5)) < 1e-12
        assert abs(nu.log_moment()
                   - (math.log(3.0) + 2.0 * math.log(1.5))) < 1e-12

    def test_is_zero(self):
        assert br.BrownMeasure(((0.0, 3.0),)).is_zero()
        assert br.BrownMeasure().is_zero()
        assert not br.BrownMeasure(((1e-9, 1.0),)).is_zero()


class TestFloatOverflow:
    # t^-20 on (0, 1): its chunk values pass the float range below 2^-52
    T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 20.0),))])

    def test_brown_of_normal(self):
        with pytest.raises(df.DomainError, match="overflows a float"):
            br.brown_of_normal(self.T)

    def test_build_V(self):
        # the error member_F reports as "certificate construction failed"
        with pytest.raises(df.DomainError, match="overflows a float"):
            br.build_V(self.T)


class TestRoundTrip:
    def test_atomic_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nu = random_atomic(rng)
            back = br.brown_of_normal(br.normal_model(nu))
            assert len(back.atoms) == len(nu.atoms)
            for (z1, m1), (z2, m2) in zip(back.atoms, nu.atoms):
                assert abs(z1 - z2) < 1e-12 * max(1.0, abs(z2))
                assert abs(m1 - m2) < 1e-12

    def test_infinite_const_tail_rejected(self):
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0),))])
        with pytest.raises(df.DomainError):
            br.brown_of_normal(T)

    def test_continuous_profile_mass(self):
        # t^-1/2 on (0,1): chunked atoms must keep the total mass exactly
        T = so.make_op([df.Seg(0.0, 1.0, (df.Term(1.0, 0.5),))])
        nu = br.brown_of_normal(T)
        assert abs(nu.total_mass - 1.0) < 1e-12


class TestPhi:
    def test_matches_band_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nu = random_atomic(rng)
            T = br.normal_model(nu)
            for r, s in [(0.05, 1.0), (0.5, 2.0), (1.0, 8.0), (0.01, 16.0)]:
                a = br.phi(T, r, s)
                b = br.phi(nu, r, s)
                assert abs(a - b) < 1e-10 * max(1.0, abs(b))

    def test_band_edges(self):
        nu = br.BrownMeasure(((1.0, 1.0), (2.0, 1.0)))
        # band is open at r, closed at s
        assert abs(br.phi(nu, 1.0, 2.0) - 2.0) < 1e-15
        assert abs(br.phi(nu, 0.5, 2.0) - 3.0) < 1e-15
        assert br.phi(nu, 2.0, 2.0) == 0.0

    def test_bad_band(self):
        nu = br.BrownMeasure(((1.0, 1.0),))
        with pytest.raises(df.DomainError):
            br.phi(nu, 2.0, 1.0)
        with pytest.raises(df.DomainError):
            br.phi(nu, 0.0, 1.0)
        T = br.normal_model(nu)
        for r, s in ((2.0, 1.0), (0.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(df.DomainError):
                br.phi(T, r, s)

    def test_operator_bands_are_the_by_modulus_traces(self):
        # phi of an operator is a band query: the floats of band_trace's
        # by_modulus mode, the same edges and integral
        rng = np.random.default_rng(5)
        ops = [br.normal_model(random_atomic(rng)) for _ in range(5)]
        ops.append(so.make_op([df.Seg(0.0, 0.5, (df.Term(1.0, 0.5),)),
                               df.Seg(0.5, df.INF, (df.Term(0.25, 2.0),),
                                      0.6 + 0.8j)]))
        for T in ops:
            for r, s in [(0.05, 1.0), (0.5, 2.0), (1.0, 8.0), (0.01, 16.0),
                         (0.3, 0.7)]:
                want = complex(so.band_trace(T, "by_modulus", a=r, b=s))
                got = br.phi(T, r, s)
                assert (got.real.hex(), got.imag.hex()) \
                    == (want.real.hex(), want.imag.hex())
            assert br.phi(T, 2.0, 2.0) == 0.0


class TestFkDet:
    def test_zero_operator(self):
        assert pc.fk_det(so.zero_op()) == 1.0

    def test_single_atom(self):
        T = so.from_atoms([(1.0, 1.0)])
        assert abs(pc.fk_det(T) - 2.0) < 1e-12
        T2 = so.from_atoms([(-0.5, 2.0)])
        assert abs(pc.fk_det(T2) - 0.25) < 1e-12

    def test_eigenvalue_minus_one(self):
        T = so.from_atoms([(-1.0, 1.0), (0.5, 1.0)])
        assert pc.fk_det(T) == 0.0

    def test_divergent_tail(self):
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0, 0.5),))],
                       validate=False)
        with pytest.raises(df.DomainError):
            pc.fk_det(T)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_gk_mode_handles_slower_decay(self):
        # t^-3/4 tail: not summable, but the 2nd power is
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0, 0.75),))],
                       validate=False)
        with pytest.raises(df.DomainError):
            pc.fk_det(T, mode="I+T")
        v = pc.fk_det(T, mode="g_k", k=1)
        assert math.isfinite(v) and v > 0.0

    def test_gk_matches_direct_value(self):
        # single atom: g_1(z) = (1-z)e^z
        z = 0.3 + 0.4j
        T = so.from_atoms([(z, 1.5)])
        want = abs((1.0 - z) * np.exp(z)) ** 1.5
        assert abs(pc.fk_det(T, mode="g_k", k=1) - want) < 1e-10

    def test_log_additivity_disjoint_blocks(self):
        # profiles on disjoint scale blocks: log-determinants add
        rng = np.random.default_rng(23)
        for _ in range(10):
            h1, h2 = sorted(rng.uniform(0.1, 0.9, size=2))[::-1]
            cut = rng.uniform(0.5, 2.0)
            s1 = df.Seg(0.0, cut, (df.Term(h1),))
            s2 = df.Seg(cut, cut + 1.0, (df.Term(h2),), -1.0)
            both = so.make_op([s1, s2])
            d1 = pc.fk_det(so.make_op([s1]))
            d2 = pc.fk_det(so.make_op(
                [df.Seg(0.0, 1.0, (df.Term(h2),), -1.0)]))
            assert abs(pc.fk_det(both) - d1 * d2) < 1e-9


class TestCertificates:
    def test_trivial(self):
        V = so.from_atoms([(1.0, 1.0)])
        # the zero functional on the 40 * 39 / 2 probe pairs
        rep = br.verify_certificate(np.zeros(780), V, "F")
        assert rep["ok"] and rep["worst_ratio"] == 0.0

    def test_atom_dominated(self):
        # zero-trace pair: every band with nonzero functional sits below
        # the top of V, so a heavy enough atom dominates
        T = so.from_atoms([(2.0, 1.0), (-1.0, 2.0)])
        V = so.from_atoms([(2.0, 2.5)])
        rep = br.verify_certificate(br.phi_table(T), V, "F")
        assert rep["ok"]

    def test_violation_reported(self):
        T = so.from_atoms([(8.0, 1.0)])
        V = so.from_atoms([(1e-3, 1e-3)])
        rep = br.verify_certificate(br.phi_table(T), V, "F")
        assert not rep["ok"] and rep["violations"] > 0

    def test_build_V_and_promotion(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            nu = balanced_atomic(rng, n=3)
            T = br.normal_model(nu)
            V, lhs = br.build_V(T)
            assert br.verify_certificate(lhs, V, "F")["ok"]
            # class-F certificates promote to class G after scaling by e
            eV = so.scale_op(V, math.e)
            assert br.verify_certificate(lhs, eV, "G")["ok"]


class TestMemberF:
    def test_round_trip_coherence(self):
        rng = np.random.default_rng(41)
        I = md.Lp(1.0)
        for _ in range(6):
            nu = balanced_atomic(rng, n=3)
            T = br.normal_model(nu)
            d1 = br.member_F(T, I)
            T2 = br.normal_model(br.brown_of_normal(T))
            d2 = br.member_F(T2, I)
            assert d1.answer == d2.answer == "member"
            assert "certificate verified" in d1.notes

    def test_trace_obstruction_invariant(self):
        rng = np.random.default_rng(43)
        I = md.Lp(1.0)
        for _ in range(6):
            nu = random_atomic(rng, n=3)
            T = br.normal_model(nu)
            d1 = br.member_F(T, I)
            d2 = br.member_F(br.normal_model(br.brown_of_normal(T)), I)
            assert d1.answer == d2.answer == "not_member"

    def test_nonvanishing_rejected(self):
        T = so.make_op([df.Seg(0.0, df.INF, (df.Term(1.0),))],
                       validate=False)
        with pytest.raises(df.DomainError):
            br.member_F(T, md.Lp(1.0))

    def test_not_member_passthrough(self):
        # the slow-log witness profile is excluded; no certificate stage
        c = math.exp(-2.0)
        head = df.Seg(0.0, c, (df.Term(1.0, 1.0, 2.0),))
        block = df.Seg(c, c + 0.5, (df.Term(1.0),), -1.0)
        T = so.make_op([head, block])
        dec = br.member_F(T, md.Lp(1.0))
        assert dec.answer == "not_member"


class TestApproxNilpotent:
    def test_vanishing_measure_member(self):
        dec = pc.approx_nilpotent(br.BrownMeasure(((0.0, 5.0),)), md.Lp(1.0))
        assert dec.answer == "member"

    def test_unstable_module_inconclusive(self):
        I = md.Principal(df.const(1.0))
        dec = pc.approx_nilpotent(br.BrownMeasure(), I)
        assert dec.answer == "inconclusive"

    def test_nonzero_measure_rejected(self):
        with pytest.raises(df.DomainError):
            pc.approx_nilpotent(br.BrownMeasure(((1.0, 1.0),)), md.Lp(1.0))


class TestBasicProps:
    def test_cancelling_pair(self):
        T = so.from_atoms([(2.0, 0.5), (1.0, 1.0)])
        rep = pc.basicprops_check([T, so.scale_op(T, -1.0)], 0.5, 4.0)
        assert rep["qadditive"] is not None and rep["qadditive"] >= 0.0
        assert all(m >= -1e-12 for m in rep["qmult"])

    def test_self_adjoint_real_part(self):
        T = so.from_atoms([(2.0, 0.5), (-1.0, 1.0)])
        rep = pc.basicprops_check([T], 0.25, 8.0)
        assert all(m >= -1e-12 for m in rep["realpart"])
        assert all(m >= -1e-12 for m in rep["imagpart"])

    def test_random_margins(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            nu = random_atomic(rng, n=3)
            T = br.normal_model(nu)
            rep = pc.basicprops_check([T], 0.5, 4.0)
            for key in ("qmult", "realpart", "imagpart"):
                assert all(m >= -1e-9 for m in rep[key])


C0_PINNED = 26.815544003268467


class TestBump:
    def test_c0_regression(self):
        assert abs(pc.default_bump().C0 - C0_PINNED) < 1e-8

    def test_requires_separated_scales(self):
        with pytest.raises(df.DomainError):
            pc.BumpFunctions(1.0, 2.0)

    def test_psi_vanishes_below_r(self):
        bf = pc.BumpFunctions(1.0, 4.0)
        for rad in (0.1, 0.5, 0.99):
            for th in (0.0, 1.0, 3.0):
                assert abs(float(bf.psi(rad * math.cos(th),
                                        rad * math.sin(th)))) < 1e-15

    def test_plateau(self):
        bf = pc.BumpFunctions(1.0, 4.0)
        taus = np.linspace(0.5, math.log(4.0), 50)
        assert np.max(np.abs(bf.phi(taus) - 1.0)) < 1e-12
        outside = np.concatenate([np.linspace(-3.0, -1e-9, 20),
                                  np.linspace(0.5 + math.log(4.0) + 1e-9,
                                              6.0, 20)])
        assert np.max(np.abs(bf.phi(outside))) < 1e-12

    def test_psi_upper_on_axis(self):
        bf = pc.BumpFunctions(1.0, 4.0)
        x = 16.0
        v = float(bf.psi(x, 0.0))
        assert 0.0 <= v <= C0_PINNED * (math.log(16.0) + 4.0 * math.log(4.0))

    @pytest.mark.parametrize("r,s", [(1.0, 4.0), (0.1, 10.0), (2.0, 100.0)])
    def test_suite_passes(self, r, s):
        rep = pc.bump_suite(r, s, grid=200)
        assert rep["pass"], rep
        assert rep["laplacian_min"] >= -1e-6
        assert rep["psi_lower_margin"] >= -1e-9
        assert rep["psi_upper_margin"] >= -1e-9
        assert abs(rep["C0"] - C0_PINNED) < 1e-8
