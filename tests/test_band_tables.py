"""Band queries answered from the compiled tables of a profile.

specop.dist_fun and specop.integrate_v bisect over tables kept on the
profile and on the operator.  The linear scans below are the definitions
they replace; every answer must equal the scan's bit for bit.
"""

import cmath
import json
import math
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commcalc import commutator as cm
from commcalc import decfun as df
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term

BITS = os.path.join(os.path.dirname(__file__), "band_trace_bits.json")

# the operator t^-1/2 on (0, 1), t^-0.6 beyond; its bounded part is the
# ~1,900-segment staircase that the head and tail grids run over
ROADMAP_OP = [Seg(0.0, 1.0, (Term(1.0, 0.5),)),
              Seg(1.0, INF, (Term(1.0, 0.6),))]
BY_SCALE = [(2.0 ** -20, 1.0), (0.5, 2.0), (1.0, 2.0 ** 10),
            (2.0 ** -3, 2.0 ** 40), (3.0, 7.5), (2.0 ** -10, 2.0 ** 59)]
BY_MODULUS = [(0.01, 0.5), (0.1, 0.3), (0.25, 1.0), (1e-6, 2.0)]


# ---------------------------------------------------------------------------
# the linear scans the tables replace


def scan_right_limit(seg, hi):
    if hi == INF:
        return sum(tm.coeff for tm in seg.terms
                   if tm.pow == 0.0 and tm.logpow == 0.0)
    return seg.value(hi * (1 - 1e-14))


def scan_dist_fun(f, x, closed=False):
    if x < 0:
        raise DomainError("negative level")
    D = 0.0
    for seg in f.segs:
        hi = min(seg.hi, f.domain_hi)
        if seg.is_zero():
            if closed and x == 0.0:
                D = hi
                continue
            break
        vR = scan_right_limit(seg, hi)
        inside = (vR >= x) if closed else (vR > x)
        if inside:
            D = hi
            continue
        vL = seg.value(seg.lo) if seg.lo > 0 else df.value_at_0(
            df.PLFun(f.domain_hi, (Seg(0.0, hi, seg.terms),)))
        outside_all = (vL < x) if closed else (vL <= x)
        if outside_all:
            break
        D = so._level_cross(seg, hi, x)
        break
    return D


def scan_integrate_v(T, u, w):
    w = min(w, T.domain_hi)
    so._check_band_integrable(T, u, w)
    total = 0.0 + 0.0j
    for seg in T.segs:
        lo, hi = max(seg.lo, u), min(seg.hi, w)
        if hi <= lo:
            continue
        total += seg.phase * df._seg_integral(seg.terms, lo, hi, 1.0, False)
    return total


def outcome(fn, *args):
    """The bits of fn's result, or the type of the exception it raises."""
    try:
        z = fn(*args)
    except Exception as exc:  # the scans define which errors are right
        return type(exc)
    if isinstance(z, complex):
        return "complex", z.real.hex(), z.imag.hex()
    return type(z).__name__, float(z).hex()


# ---------------------------------------------------------------------------
# random profiles


@st.composite
def profile_segs(draw, domain_hi):
    """Operator segments with a nonincreasing modulus.

    Steps, powers (divergent at 0 when first), a 1/(t log^2 t) head, steps
    whose value rises within the rtol of the monotonicity check, random
    phases, and a support that may end before the domain does.
    """
    n = draw(st.integers(1, 7))
    span = (0.001, 0.999) if domain_hi == 1.0 else (0.01, 100.0)
    cuts = sorted(set(draw(st.lists(st.floats(*span), min_size=n - 1,
                                    max_size=n - 1))))
    bounds = list(zip([0.0] + cuts, cuts + [domain_hi]))
    support = draw(st.integers(1, len(bounds)))
    level = draw(st.floats(0.5, 8.0))  # the left value allowed next
    segs = []
    for lo, hi in bounds[:support]:
        kind = draw(st.sampled_from(["step", "power", "rise", "log"]))
        phase = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        ratio = draw(st.floats(0.2, 1.0))
        if kind == "log" and lo == 0.0:
            top = min(hi, 0.1)  # 1/(t log^2 t) decreases on (0, e^-2)
            term = Term(level * top * math.log(top) ** 2, 1.0, 2.0)
            segs.append(Seg(0.0, top, (term,), phase))
            level = term.value(top)
            if top == hi:
                continue
            lo = top
            kind = "step"
        if kind == "power":
            p = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.2, 1.5]))
            if lo == 0.0:
                term = Term(level, p)
            else:
                term = Term(ratio * level * lo ** p, p)
            segs.append(Seg(lo, hi, (term,), phase))
            level = term.value(hi) if hi < INF else 0.0
        elif kind == "rise" and segs:
            level *= 1.0 + draw(st.floats(1e-12, 5e-10))
            segs.append(Seg(lo, hi, (Term(level),), phase))
        else:
            level *= ratio
            segs.append(Seg(lo, hi, (Term(level),), phase))
        if level <= 0.0:
            break
    return segs


def _hex(z):
    return [float(z.real).hex(), float(z.imag).hex()]


def band_bits():
    """float.hex of band traces of the two parts of ROADMAP_OP.

    The head grid runs over the finite-support part (the head trace of the
    bounded part diverges); the tail grid and the explicit bands run over
    the bounded part.
    """
    T_fs, T_b = so.split_fs_b(so.make_op(ROADMAP_OP))
    return {
        "segments": len(T_b.segs),
        "head": [[r.hex()] + _hex(v) for r, v in cm.head_values(T_fs)],
        "tail": [[s.hex()] + _hex(v) for s, v in cm.tail_values(T_b)],
        "by_scale": [_hex(so.band_trace(T_b, "by_scale", r=r, s=s))
                     for r, s in BY_SCALE],
        "by_modulus": [_hex(so.band_trace(T_b, "by_modulus", a=a, b=b))
                       for a, b in BY_MODULUS],
        "by_scale_phased": [_hex(so.band_trace(so.scale_op(T_b, 0.6 + 0.8j),
                                               "by_scale", r=r, s=s))
                            for r, s in BY_SCALE],
    }


@settings(max_examples=120, deadline=None)
@given(data=st.data(), factor_type=st.sampled_from([so.II_INF, so.II_1]))
def test_band_queries_equal_the_scans(data, factor_type):
    domain_hi = 1.0 if factor_type == so.II_1 else INF
    try:
        T = so.make_op(data.draw(profile_segs(domain_hi)), factor_type)
    except DomainError:
        assume(False)
    m = so.mu(T)
    levels = {0.0, 1.0, 2.5}
    for seg in m.segs:
        hi = min(seg.hi, domain_hi)
        levels.add(scan_right_limit(seg, hi))
        if seg.lo > 0.0:
            levels.add(seg.value(seg.lo))
    points = {-1.0, 0.0, 0.5, 3.0, INF}
    for seg in T.segs:
        points.update((seg.lo, seg.hi))
    queries = [("dist", x, closed) for x in levels for closed in (False, True)]
    queries += [("band", u, w) for u in points for w in points]
    # the tables fill lazily, so the order of the queries matters
    for kind, a, b in data.draw(st.permutations(queries)):
        if kind == "dist":
            assert (outcome(so.dist_fun, m, a, b)
                    == outcome(scan_dist_fun, m, a, b))
        else:
            assert (outcome(so.integrate_v, T, a, b)
                    == outcome(scan_integrate_v, T, a, b))


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0]),
                       min_size=1, max_size=8))
def test_dist_fun_equals_the_scan_on_any_steps(data, values):
    """Unvalidated steps: zero segments inside the support, rising limits."""
    f = df.make([Seg(float(k), k + 1.0, (Term(v),) if v else ())
                 for k, v in enumerate(values)], validate=False)
    xs = (0.0, 0.25, 0.5, 1.0, 1.0 + 1e-10, 2.0, 3.0)
    queries = [(x, closed) for x in xs for closed in (False, True)]
    for x, closed in data.draw(st.permutations(queries)):
        assert (outcome(so.dist_fun, f, x, closed)
                == outcome(scan_dist_fun, f, x, closed))


def test_divergent_head_fails_where_the_scan_fails():
    # 1/t at 0: the band from 0 is refused, a band that reaches 0 from
    # below raises in the segment integral, and bands away from 0 work
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 1.0),)),
                    Seg(1.0, 2.0, (Term(0.5),))])
    for u, w in [(0.0, 2.0), (-1.0, 0.5), (0.5, 2.0), (-1.0, 2.0), (1.0, 2.0)]:
        assert outcome(so.integrate_v, T, u, w) == outcome(scan_integrate_v,
                                                           T, u, w)
    assert outcome(so.integrate_v, T, -1.0, 2.0) is ValueError


# ---------------------------------------------------------------------------
# split_fs_b keeps T when T lies on one side of the cut


def test_split_keeps_a_head_only_operator():
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 0.5),))])
    T_fs, T_b = so.split_fs_b(T)
    assert T_fs is T
    assert T_b.is_zero()


def test_split_keeps_a_bounded_operator_cut_at_zero():
    T = so.from_atoms([(2.0, 3.0), (1.0, 1.0)])
    T_fs, T_b = so.split_fs_b(T, t0=0.5)
    assert T_fs.is_zero()
    assert T_b is T


def test_split_of_both_sides_builds_both_parts():
    T = so.make_op(ROADMAP_OP)
    T_fs, T_b = so.split_fs_b(T)
    assert T_fs is not T and T_b is not T
    assert so.mu(T_fs)(0.25) == 2.0


# ---------------------------------------------------------------------------
# the monotonicity check names the same t as the 17-point probe


@pytest.mark.parametrize("segs, domain_hi, t", [
    # increasing step: the first probe of the second step
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 2.0, (Term(2.0),))], INF, "1"),
    ([Seg(0.0, 0.5, (Term(1.0),)), Seg(0.5, 1.0, (Term(1.0000001),))],
     1.0, "0.5"),
    # a negative constant fails at its second probe point
    ([Seg(0.0, 1.0, (Term(-1.0),))], INF, "1.16698e-17"),
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 3.0, (Term(-0.5),))],
     INF, "1.07108"),
    # rising non-constant segments
    ([Seg(0.0, 1.0, (Term(1.0, -0.5),))], 1.0, "1.16698e-17"),
    ([Seg(0.0, 1.0, (Term(1.0),)), Seg(1.0, 4.0, (Term(0.5, -1.0),))],
     INF, "1.09051"),
])
def test_monotone_check_names_the_probe(segs, domain_hi, t):
    with pytest.raises(DomainError) as err:
        df.make(segs, domain_hi)
    assert str(err.value) == "not nonincreasing near t=" + t


def test_monotone_check_allows_a_rise_within_rtol():
    f = df.make([Seg(0.0, 1.0, (Term(1.0),)),
                 Seg(1.0, 2.0, (Term(1.0 + 5e-10),))])
    assert f(1.5) == 1.0 + 5e-10


# ---------------------------------------------------------------------------
# pinned bits on the staircase operator


def test_band_trace_bits_pinned():
    with open(BITS) as fh:
        expected = json.load(fh)
    assert band_bits() == expected


if __name__ == "__main__":
    # regenerate the pinned bits: python tests/test_band_tables.py
    with open(BITS, "w") as fh:
        json.dump(band_bits(), fh, indent=0)
        fh.write("\n")
