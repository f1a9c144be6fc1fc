"""Exact end classes of the split criteria.

Each side of the criterion is decided from the end term of the profile
(commutator.side_classes, decfun.mean_term), never from a fitted
envelope.  The expected verdicts below are written out from the closed
forms, not from the code under test.
"""

import json
import math
import warnings

import pytest

from commcalc import cli
from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import modules as md
from commcalc import serialize as sz
from commcalc import specop as so
from commcalc.decfun import INF, Seg, Term

E3 = math.exp(3.0)


def head_op(p, q, phase=1.0):
    """t^-p L^-q on (0, e^-3), L = |log t|; zero after."""
    return so.make_op([Seg(0.0, 1.0 / E3, (Term(1.0, p, q),), phase)])


def tail_op(p, q):
    """i times the value of t^-p L^-q at e^3 on (0, e^3), then -t^-p L^-q:
    its split is T_fs = 0 and T_b = T, and its trace is not 0."""
    v = E3 ** -p * 3.0 ** -q
    return so.make_op([Seg(0.0, E3, (Term(v),), 1j),
                       Seg(E3, INF, (Term(1.0, p, q),), -1.0)])


# ---------------------------------------------------------------------------
# the Karamata classes


@pytest.mark.parametrize("dom, term", [
    ((0.5, 2.0, 3.0), Term(6.0, 0.5, 2.0)),     # c t^-p L^-q / |1 - p|
    ((1.5, -1.0, 1.0), Term(2.0, 1.5, -1.0)),
    ((0.0, 0.0, 2.0), Term(2.0)),               # a constant end
    ((1.0, 2.0, 1.0), Term(1.0, 1.0, 1.0)),     # c t^-1 L^(1-q) / |1 - q|
    ((1.0, 0.5, 1.0), Term(2.0, 1.0, -0.5)),
    ((1.0, 0.0, 3.0), Term(3.0, 1.0, -1.0)),
])
def test_mean_term(dom, term):
    assert df.mean_term(dom) == term


def test_mean_term_log_log_is_outside_the_class():
    assert df.mean_term((1.0, 1.0, 1.0)) is None


# ---------------------------------------------------------------------------
# F + [L_1, M] on t^-1 L^-q: member exactly when q > 2


@pytest.mark.parametrize("k", range(101))
def test_q_grid_against_L1(k):
    q = 1.5 + 0.01 * k
    # forced a = tau(T); the side function is L^(1-q) / ((q - 1) r),
    # integrable at 0 exactly when q - 1 > 1
    dec = cm.member_F_plus(head_op(1.0, q), md.Lp(1.0))
    assert dec.answer == ("member" if q > 2.0 else "not_member")
    if q <= 2.0:
        assert dec.obstruction["side"] == "fs"


# ---------------------------------------------------------------------------
# t^-p L^-q grids against the L_s and L_log boundaries


def in_Ls_at_0(p, q, s):
    return s * p < 1.0 or (s * p == 1.0 and s * q > 1.0)


def in_Ls_at_inf(p, q, s):
    return s * p > 1.0 or (s * p == 1.0 and s * q > 1.0)


HEAD_GRID = [(p, q) for p in (0.5, 0.75, 1.0, 1.5, 2.0)
             for q in (-1.0, 0.0, 1.0, 1.5, 2.5) if q < 3.0 * p]


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p, q", HEAD_GRID)
def test_head_grid_against_Ls(p, q, s):
    T = head_op(p, q)
    # the finite-support side only: omega_fs = 1/t on (0, 1) lies in L_s
    # exactly when s < 1, and otherwise a = tau(T) is forced; forced,
    # the side function is t^-p L^-q / (1 - p) (p < 1), in L_s with T,
    # or t^-1 L^(1-q) / (q - 1) (p = 1), in L_s only for s = 1 and q > 2
    in_module = in_Ls_at_0(p, q, s)
    fplus = in_module and not (s == 1.0 and p == 1.0 and q <= 2.0)
    assert cm.member_F_plus(T, md.Lp(s)).answer \
        == ("member" if fplus else "not_member")
    # [L_s, M]: T_b = 0 forces a_b = 0 unless omega_b lies in L_s (s > 1);
    # for s = 1 both constants are forced and tau(T) != 0 separates them
    shared = in_module and s != 1.0
    assert cm.member_IIinf(T, md.Lp(s), md.M()).answer \
        == ("member" if shared else "not_member")


TAIL_GRID = [(p, q) for p in (0.5, 1.0, 1.5, 2.0)
             for q in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5) if q > -3.0 * p]


@pytest.mark.parametrize("module", ["L0.5", "L1", "L2", "Llog"])
@pytest.mark.parametrize("p, q", TAIL_GRID)
def test_tail_grid_against_Ls_and_Llog(p, q, module):
    T = tail_op(p, q)
    if module == "Llog":
        # log(1 + f) ~ f at infinity: the L_1 condition there
        I, in_module, free = md.Llog(), in_Ls_at_inf(p, q, 1.0), False
        edge = True
    else:
        s = float(module[1:])
        I, in_module, free = md.Lp(s), in_Ls_at_inf(p, q, s), s > 1.0
        edge = s == 1.0
    convergent = p > 1.0 or (p == 1.0 and q > 1.0)
    # omega_b = min(1, 1/t) lies in I exactly when free; forced, the tail
    # trace must converge and t^-p L^-q / (p - 1) (p > 1) has the class
    # of T, while t^-1 L^(1-q) / (q - 1) (p = 1) needs q > 2 at the L_1
    # edge
    if free:
        fplus = in_module
    else:
        fplus = in_module and convergent and not (
            edge and p == 1.0 and q <= 2.0)
    assert cm.member_F_plus(T, I).answer \
        == ("member" if fplus else "not_member")
    # [I, M]: T_fs = 0; with omega_fs outside I (L_s, s >= 1) a = 0 is
    # forced, so a forced b side needs tau(T) = 0, which fails here
    fs_free = module in ("L0.5", "Llog")
    shared = fplus if (fs_free or free) else False
    assert cm.member_IIinf(T, I, md.M()).answer \
        == ("member" if shared else "not_member")


# ---------------------------------------------------------------------------
# forced / free x convergent / divergent


def _classes(T, side, a):
    classes, _ = cm.side_classes(T, side, a)
    return classes


class TestHeadCases:
    # t^-p L^-q on (0, e^-3); decide_fs judges it against FsPart(I)

    def test_forced_convergent(self):
        T = head_op(0.5, 0.0)
        tau = 2.0 * E3 ** -0.5
        st, lim = cm.trace_limit(T, "head")
        assert st == "converged" and abs(lim - tau) < 1e-12
        assert _classes(T, "head", lim) == [(Term(2.0, 0.5),)]
        assert cm.decide_fs(T, md.Lp(1.0), lim).answer == "yes"
        # t^-1 L^-1.5 forced: the class L^-0.5 / (0.5 r) is not in L_1
        T = head_op(1.0, 1.5)
        _, lim = cm.trace_limit(T, "head")
        assert _classes(T, "head", lim) == [(Term(2.0, 1.0, 0.5),)]
        res = cm.decide_fs(T, md.Lp(1.0), lim)
        assert res.answer == "no" and res.worst is not None

    def test_forced_divergent(self):
        # the module generated by t^-1 L^-1 holds T but not omega_fs, and
        # no constant can be forced: the rejection comes before the side
        T = head_op(1.0, 1.0)
        assert cm.trace_limit(T, "head") == ("diverges", None)
        dec = cm.member_F_plus(T, md.Principal(so.mu(T)))
        assert dec.answer == "not_member"
        assert "head trace diverges" in dec.obstruction["reason"]

    def test_free_convergent(self):
        # a = 0 misses tau(T) by |tau|: the class gains |tau| / r
        T = head_op(0.5, 0.0)
        _, lim = cm.trace_limit(T, "head")
        assert _classes(T, "head", 0.0) \
            == [(Term(abs(lim), 1.0), Term(2.0, 0.5))]
        assert cm.decide_fs(T, md.Lp(0.5), 0.0).answer == "yes"
        assert cm.decide_fs(T, md.Lp(1.0), 0.0).answer == "no"

    def test_free_divergent(self):
        T = head_op(1.5, 0.0)
        assert _classes(T, "head", 0.0) == [(Term(2.0, 1.5),)]
        # (r^-1.5)^(1/2) is integrable at 0, r^-1.5 is not
        assert cm.decide_fs(T, md.Lp(0.5), 0.0).answer == "yes"
        assert cm.decide_fs(T, md.Lp(1.0), 0.0).answer == "no"

    def test_log_log_brackets(self):
        # t^-1 L^-1: the side function is log L / r, between 1/r and
        # L^EPS / r
        T = head_op(1.0, 1.0)
        eps = cm.LOGLOG_EPS
        assert _classes(T, "head", 0.0) == [
            (Term(1.0 / (math.e * eps), 1.0, -eps),), (Term(1.0, 1.0),)]
        assert cm.decide_fs(T, md.Lp(0.5), 0.0).answer == "yes"
        assert cm.member_F_plus(T, md.Llog()).answer == "member"
        # the brackets disagree against the module generated by 1/t
        res = cm.decide_fs(T, md.Principal(md.omega_fs()), 0.0)
        assert res.answer == "inconclusive"
        assert "brackets" in res.reason


class TestTailCases:
    # the mirror cases at infinity; decide_b judges against BPart(I)

    def test_forced_convergent(self):
        T = tail_op(2.0, 0.0)
        st, lim = cm.trace_limit(T, "tail")
        assert st == "converged"
        assert _classes(T, "tail", -lim) == [(Term(1.0, 2.0),)]
        assert cm.decide_b(T, md.Lp(1.0), -lim).answer == "yes"
        T = tail_op(1.0, 1.5)
        _, lim = cm.trace_limit(T, "tail")
        assert _classes(T, "tail", -lim) == [(Term(2.0, 1.0, 0.5),)]
        assert cm.decide_b(T, md.Lp(1.0), -lim).answer == "no"

    def test_forced_divergent(self):
        T = tail_op(1.0, 1.0)
        assert cm.trace_limit(T, "tail") == ("diverges", None)
        dec = cm.member_F_plus(T, md.Principal(so.mu(T)))
        assert dec.answer == "not_member"
        assert "tail trace diverges" in dec.obstruction["reason"]

    def test_free_convergent(self):
        T = tail_op(2.0, 0.0)
        _, lim = cm.trace_limit(T, "tail")
        assert _classes(T, "tail", 0.0) \
            == [(Term(abs(lim), 1.0), Term(1.0, 2.0))]
        assert cm.decide_b(T, md.Lp(2.0), 0.0).answer == "yes"
        assert cm.decide_b(T, md.Lp(1.0), 0.0).answer == "no"

    def test_free_divergent(self):
        T = tail_op(0.5, 0.0)
        assert _classes(T, "tail", 0.0) == [(Term(2.0, 0.5),)]
        # (s^-1/2)^3 is integrable at infinity, (s^-1/2)^2 is not
        assert cm.decide_b(T, md.Lp(3.0), 0.0).answer == "yes"
        assert cm.decide_b(T, md.Lp(2.0), 0.0).answer == "no"

    def test_finite_support(self):
        # past the support the side function is |a + tau| / s exactly
        T = so.from_atoms([(2.0, 1.0), (-1.0, 1.0)])
        assert _classes(T, "tail", -1.0) == [()]
        assert _classes(T, "tail", 0.0) == [(Term(1.0, 1.0),)]


def test_witness_majorizes_the_samples_and_carries_the_class():
    T = head_op(0.5, 1.0)
    _, lim = cm.trace_limit(T, "head")
    res = cm.decide_fs(T, md.Lp(1.0), lim)
    assert res.answer == "yes"
    for r, v in cm._clean_samples(cm.head_values(T), lim):
        assert res.h(r) >= v
    # below the grid h is a constant c >= 1 times the class term
    c = res.h(2.0 ** -70) / Term(2.0, 0.5, 1.0).value(2.0 ** -70)
    assert c >= 1.0
    assert res.h(2.0 ** -80) == pytest.approx(
        c * Term(2.0, 0.5, 1.0).value(2.0 ** -80), rel=1e-12)


# ---------------------------------------------------------------------------
# the bounded part keeps its end term


def test_bounded_part_keeps_its_tail_term():
    # the power segment on (1, oo) starts at the cut: T_b used to end in a
    # constant step, so its tail trace "diverged"
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 0.5),)),
                    Seg(1.0, INF, (Term(1.0, 2.0),))])
    _, T_b = so.split_fs_b(T)
    assert df.dominant_at_inf(so.mu(T_b)) == (2.0, 0.0, 1.0)
    assert cm.trace_limit(T_b, "tail")[0] == "converged"
    assert cm.member_F_plus(T, md.Lp(1.0)).answer == "member"


def test_shared_constant_on_both_sides():
    # tau(T) = 2 - (2 - 1e-7) != 0, and [L_1, M] = L_1 ∩ ker tau: the b side
    # must be held to a_fs, whose gap to its own limit is 1e-7 / s
    T = so.from_atoms([(2.0, 1.0), (-1.0, 2.0 - 1e-7)])
    assert cm.member_IIinf(T, md.Lp(1.0), md.M()).answer == "not_member"
    assert cm.member_F_plus(T, md.Lp(1.0)).answer == "member"
    dec = cm.member_IIinf(so.from_atoms([(2.0, 1.0), (-1.0, 2.0)]),
                          md.Lp(1.0), md.M())
    assert dec.answer == "member" and dec.certificate.a == 2.0


# ---------------------------------------------------------------------------
# float overflow is not divergence


BIG_STEPS = [(1e308, 1.0), (9e307, 1.0)]


def test_overflowing_L1_integral_is_finite():
    T = so.from_atoms(BIG_STEPS)
    v = md.contains(md.Lp(1.0), so.mu(T))
    assert v.answer == "yes" and "overflows a float" in v.reason
    dec = cm.member_IIinf(T, md.Lp(1.0), md.M())
    assert dec.answer == "not_member"
    assert dec.obstruction["side"] == "both"
    assert "forced constants disagree" in dec.obstruction["reason"]
    # bounded with finite support, so T lies in F
    assert cm.member_F_plus(T, md.Lp(1.0)).answer == "member"


def test_member_report_of_an_overflowing_integral(tmp_path, capsys):
    path = tmp_path / "query.json"
    path.write_text(json.dumps({
        "schema_version": sz.SCHEMA_VERSION,
        "operator": sz.op_to_json(so.from_atoms(BIG_STEPS)),
        "module_I": sz.module_to_json(md.Lp(1.0))}))
    assert cli.main(["member", "--input", str(path)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"]["answer"] == "not_member"
    assert doc["decision"]["obstruction"]["side"] == "both"


def test_term_value_raises_on_overflow():
    with pytest.raises(OverflowError):
        Term(1e300, 0.5).value(2.0 ** -60)
    with pytest.raises(OverflowError):
        Term(1.0, 60.0).value(2.0 ** -20)
    assert Term(1e295, 0.5).value(2.0 ** -20) == 1e295 * 2.0 ** 10


def test_monotone_check_reads_overflow_as_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 60.0),))])
    assert T.segs[0].terms == (Term(1.0, 60.0),)


def test_brown_of_an_overflowing_product(tmp_path, capsys):
    path = tmp_path / "query.json"
    op = so.make_op([Seg(0.0, 1.0, (Term(1e295, 0.5),))])
    path.write_text(json.dumps({"schema_version": sz.SCHEMA_VERSION,
                                "operator": sz.op_to_json(op)}))
    assert cli.main(["brown", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "commcalc: query.operator: |T| overflows a float at t=")


def test_member_of_an_overflowing_profile(tmp_path, capsys):
    # 1e300 t^-1/2 passes the float range at the deepest grid point
    path = tmp_path / "query.json"
    op = so.make_op([Seg(0.0, 1.0, (Term(1e300, 0.5),))])
    path.write_text(json.dumps({"schema_version": sz.SCHEMA_VERSION,
                                "operator": sz.op_to_json(op),
                                "module_I": sz.module_to_json(md.Lp(0.5))}))
    assert cli.main(["member", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "commcalc: query.operator: term value overflows a float at t=")
