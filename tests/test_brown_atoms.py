"""Brown measures from whole segments at once.

brown.brown_of_normal evaluates every chunk midpoint of a segment in one
pass (decfun.Seg.values, beside Seg.value), and brown._norm_atoms sorts
precomputed keys once.  The per-chunk loop and the key-sorting merge
below are the definitions they replace; every outcome must equal theirs
bit for bit, errors included.
"""

import cmath
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from commcalc import brown as br
from commcalc import specop as so
from commcalc.decfun import INF, DomainError, Seg, Term

# ---------------------------------------------------------------------------
# the loops the one-pass functions replace


def ref_norm_atoms(atoms):
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
    out.sort(key=lambda zm: (-abs(zm[0]),
                             math.atan2(zm[0].imag, zm[0].real)
                             % (2.0 * math.pi)))
    return tuple(out)


def ref_brown_of_normal(T):
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
            hi = max(seg.lo, 1.0) * 2.0 ** br.DEPTH_OCTAVES
        lo_floor = seg.lo if seg.lo > 0.0 else hi * 2.0 ** -br.DEPTH_OCTAVES
        cuts = [hi]
        t = hi
        while t > lo_floor * (1.0 + 1e-12):
            t *= 2.0 ** (-1.0 / br.BROWN_PPO)
            cuts.append(max(t, lo_floor))
        cuts.reverse()
        if seg.lo < lo_floor:
            cuts.insert(0, seg.lo)
        for a, b in zip(cuts, cuts[1:]):
            mid = math.sqrt(max(a, b * 1e-30) * b)
            try:
                v = seg.value(mid)
            except OverflowError:
                raise DomainError("|T| overflows a float at t=%g"
                                  % mid) from None
            atoms.append((seg.phase * v, b - a))
    return ref_norm_atoms(tuple(atoms))


# ---------------------------------------------------------------------------
# outcomes, as bits


def _hex(x):
    if isinstance(x, complex):
        return "c", x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return "f", x.hex()
    return type(x).__name__, repr(x)


def atom_bits(atoms):
    return tuple((_hex(z), _hex(m)) for z, m in atoms)


def values_bits(vs):
    return tuple(map(_hex, vs))


def outcome(fn, bits, *args):
    """bits of fn's result, or the type and message of what it raises."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the loops define which errors are right
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# random segments, operators and atom lists

PHASES = [1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(1.0, -0.0),
          cmath.exp(0.7j), cmath.exp(-2.1j)]


@st.composite
def terms(draw, lo, hi):
    """A constant, power or log-power term, sometimes past the float
    range near 0 or underflowing to 0; a log term's scale sits outside
    (lo, hi), so it keeps one sign there, except on (0, oo), where it is
    1."""
    coeff = draw(st.sampled_from([1.0, 0.37, 2.5, 1e-300, 1e300, 5e-324]))
    kind = draw(st.sampled_from(["const", "pow", "pow", "log"]))
    if kind == "const":
        return Term(coeff)
    p = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, 20.0, -20.0]))
    if kind == "pow":
        return Term(coeff, p)
    scale = draw(st.sampled_from(
        [x for x in (lo * 0.5, lo, hi, hi * 2.0) if 0.0 < x < INF]
        or [1.0]))
    return Term(coeff, p, draw(st.sampled_from([-1.0, 0.5, 2.0])), scale)


@st.composite
def segments(draw, lo=None):
    if lo is None:
        lo = draw(st.sampled_from([0.0, 1e-9, 0.5, 3.0]))
    hi = draw(st.sampled_from([lo + 1e-13, lo * 1.01 + 1e-3, lo + 0.5,
                               lo * 8.0 + 1.0, lo * 1e9 + 1.0, INF]))
    n = draw(st.integers(1, 3))
    tms = tuple(draw(terms(lo, hi)) for _ in range(n))
    return Seg(lo, hi, tms, draw(st.sampled_from(PHASES)))


@st.composite
def operators(draw):
    """Up to four segments in a row, not necessarily nonincreasing: one
    may repeat an earlier segment's terms, with its phase (constant atoms
    then merge) or another (moduli then tie)."""
    segs, lo = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        if segs and draw(st.booleans()):
            prev = segs[-1] if segs[-1].is_const() else segs[0]
            seg = Seg(lo, lo + draw(st.sampled_from([0.25, 1.0])),
                      prev.terms,
                      draw(st.sampled_from([prev.phase] + PHASES)))
        else:
            seg = draw(segments(lo))
        segs.append(seg)
        if seg.hi == INF:
            break
        lo = seg.hi
    return so.make_op(segs, validate=False)


# no nan: CPython's abs() of a complex with a nan part returns without
# clearing errno, so it raises OverflowError after any call that left
# ERANGE behind, such as an underflowing math.atan2 in ref_norm_atoms
points = st.sampled_from([1.0, 0.5, 2.0, 1e-9, 3.0, -0.0, 0.0])
atom_points = (points | st.complex_numbers(max_magnitude=8.0)
               | st.sampled_from([complex(1.0, -0.0), complex(-0.0, 2.0),
                                  complex(0.0, -0.0), complex(-1.0, -0.0),
                                  5e-324j, complex(2.0, 5e-324), math.inf,
                                  1j, -1j, -1.0]))
masses = st.sampled_from([0.5, 1.0, 0.0, -0.0, 2.0, 1e-300, 3]) | st.floats(
    0.0, 10.0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None)
@given(T=operators())
def test_brown_of_normal_equals_the_chunk_loop(T):
    assert (outcome(lambda T: br.brown_of_normal(T).atoms, atom_bits, T)
            == outcome(ref_brown_of_normal, atom_bits, T))


@settings(max_examples=300, deadline=None)
@given(atoms=st.lists(st.tuples(atom_points, masses), max_size=12),
       negative=st.booleans())
@example(atoms=[(1.0, 3), (2j, 1)], negative=False)  # int masses: floats
def test_norm_atoms_equals_the_merge_and_sort(atoms, negative):
    if negative and atoms:
        atoms[-1] = (atoms[-1][0], -0.25)
    # repeated points, also repeated objects, merge in first-seen order
    atoms = atoms + atoms[: len(atoms) // 2]
    assert (outcome(br._norm_atoms, atom_bits, tuple(atoms))
            == outcome(ref_norm_atoms, atom_bits, tuple(atoms)))


@settings(max_examples=300, deadline=None)
@given(seg=segments(), ts=st.lists(
    st.sampled_from([1e-300, 1e-20, 1e-9, 0.25, 0.5, 1.0, 2.0, 3.0, 1e9,
                     1e300, 5e-324]) | st.floats(1e-12, 1e12),
    max_size=8))
def test_seg_values_equal_seg_value(seg, ts):
    assert (outcome(seg.values, values_bits, ts)
            == outcome(lambda ts: [seg.value(t) for t in ts], values_bits,
                       ts))


def test_seg_values_raise_at_the_first_overflow():
    # the first term's product overflows at 1e-9 and its power at 1e-20;
    # the second term's product overflows at 1e-20 only
    seg = Seg(0.0, 1.0, (Term(1e300, 20.0), Term(1e290, 1.0)))
    ts = [1e-9, 1e-20]
    for point in ([1e-9], ts, ts[::-1]):
        assert (outcome(seg.values, values_bits, point)
                == outcome(lambda ts: [seg.value(t) for t in ts],
                           values_bits, point))
    assert outcome(seg.values, values_bits, [1e-20])[0] is OverflowError


def test_zero_segment_values():
    assert Seg(0.0, 1.0).values([0.5, 2.0]) == [0, 0]


def test_overflow_is_named_at_the_first_chunk():
    T = so.make_op([Seg(0.0, 1.0, (Term(1.0, 20.0),))])
    got = outcome(br.brown_of_normal, atom_bits, T)
    assert got[0] is DomainError and "overflows a float at t=" in got[1]
    assert got == outcome(ref_brown_of_normal, atom_bits, T)


def test_reports_of_large_measures_keep_their_atoms():
    # the 1,889-atom measure of the pinned reports, with three phases on
    # the tail
    for ph in (1.0, -0.6 - 0.8j, complex(-1.0, -0.0)):
        T = so.make_op([Seg(0.0, 0.5, (Term(1.25),), 1j),
                        Seg(0.5, 0.5 * 2.0 ** 118,
                            (Term(1.25 * 0.5 ** 1.5, 1.5),), ph)])
        got = br.brown_of_normal(T).atoms
        assert len(got) == 1889
        assert atom_bits(got) == atom_bits(ref_brown_of_normal(T))


def test_normal_model_of_a_subnormal_atom():
    # z / |z| is 1 + 1j here; the phase is unimodular again
    op = br.normal_model(br.BrownMeasure(((5e-324 + 5e-324j, 0.25),)))
    assert abs(abs(op.segs[0].phase) - 1.0) <= 1e-15
