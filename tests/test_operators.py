"""Operators as symbols applied term by term, and the constructor's merge.

The reference compositions below build the Dirac, reduced Dirac and
sigma.p operators from intermediate fields, each made by the public
constructors: a sum is the constructor on the concatenated terms.  They
are kept here only as oracles.  On the exact backend every symbol must
reproduce them term for term, and every operator's result must already
be canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    dirac_residual,
    field_of,
    u_spinor,
    upper_half,
    weyl_spinor,
)
from diracsplit import fields
from diracsplit.gamma import METRIC_SIGNS, PAULI, REP_NAMES, build_rep
from diracsplit.lorentz import reduced_dirac_symbol
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, FLOAT, GaussianRational
from diracsplit.subsolutions import _sigma_symbol
from field_helpers import apply_symbol, to_float

_GR = GaussianRational

# -- reference compositions ------------------------------------------------------


def _ref_field(f, terms):
    return PlaneWaveField(terms, rep=f.rep, ncomp=f.ncomp, backend=f.backend)


def _ref_scale(f, c):
    return _ref_field(f, [PlaneWaveTerm(tuple(c * a for a in t.amplitude), t.momentum, t.freq_sign)
                          for t in f.terms])


def _ref_add(a, b):
    """The constructor on a's terms, then b's."""
    return _ref_field(a, a.terms + b.terms)


def _negated(f):
    return _ref_field(f, [PlaneWaveTerm(tuple(-x for x in amp), p, s) for amp, p, s in f.terms])


def _ref_sub(a, b):
    return _ref_add(a, _negated(b))


def _ref_apply(f, m):
    return _ref_field(f, [PlaneWaveTerm(m.apply(t.amplitude), t.momentum, t.freq_sign)
                          for t in f.terms])


def _ref_momentum_op(f, mu):
    return _ref_field(f, [PlaneWaveTerm(tuple(t.momentum.p[mu] * t.freq_sign * a
                                              for a in t.amplitude), t.momentum, t.freq_sign)
                          for t in f.terms])


def _ref_dirac_op(f):
    out = []
    for t in f.terms:
        acc = Matrix.zero(4)
        for mu in range(4):
            acc = acc + f.rep.gammas[mu].scale(METRIC_SIGNS[mu] * t.momentum.p[mu] * t.freq_sign)
        out.append(PlaneWaveTerm(acc.apply(t.amplitude), t.momentum, t.freq_sign))
    return _ref_field(f, out)


def _ref_dirac_residual(f, mass):
    return _ref_sub(_ref_dirac_op(f), _ref_scale(f, mass))


def _ref_sigma_momentum_op(f, sign):
    acc = _ref_momentum_op(f, 0)
    for k in (1, 2, 3):
        piece = _ref_apply(_ref_momentum_op(f, k), PAULI[k - 1])
        acc = _ref_add(acc, piece) if sign > 0 else _ref_sub(acc, piece)
    return acc


def _ref_reduced_dirac_residual(f, mass):
    t0, t1 = (_ref_scale(_ref_apply(_ref_momentum_op(f, mu), f.rep.gammas[mu]), METRIC_SIGNS[mu])
              for mu in (0, 1))
    return _ref_sub(_ref_add(t0, t1), _ref_scale(f, mass))


# -- fields ----------------------------------------------------------------------

_WITNESS = FourMomentum.exact((3, 2, 2, 0), 1)
_MOMENTA = (
    _WITNESS,
    FourMomentum.exact((5, 3, 2, 1), 2),
    FourMomentum.exact((Fraction(7, 2), -1, Fraction(1, 3), 2), Fraction(1, 2)),
    FourMomentum.exact((3, 2, 2, 1), 0),
)
_MASSES = (1, Fraction(1, 2), 2, Fraction(-3, 7))

gaussians = st.builds(_GR, st.integers(-3, 3), st.integers(-3, 3))


def _terms(ncomp):
    return st.lists(st.builds(PlaneWaveTerm, st.tuples(*(gaussians,) * ncomp),
                              st.sampled_from(_MOMENTA), st.sampled_from((1, -1))),
                    max_size=8)


def _full_field(rep):
    """Three massive momenta at both frequency signs, with the solution u(1) at the witness."""
    terms = [PlaneWaveTerm(tuple(_GR(k + i, s * (i - k)) for i in range(4)), p, s)
             for k, p in enumerate(_MOMENTA[1:3]) for s in (1, -1)]
    terms += [u_spinor(_WITNESS, rep, 1),
              PlaneWaveTerm((1, _GR(0, 2), -1, 3), _WITNESS, -1)]
    return PlaneWaveField(terms, rep=rep)


def _assert_same_field(got, want):
    """Same terms, amplitudes compared by repr (so -0.0 differs from 0.0, and NaN equals NaN).

    Fields compare by identity, so the terms, basis, component count and
    backend are compared one by one.
    """
    assert [(repr(t.amplitude), t.momentum, t.freq_sign) for t in got.terms] == \
        [(repr(t.amplitude), t.momentum, t.freq_sign) for t in want.terms]
    assert (got.ncomp, got.backend, got.rep) == (want.ncomp, want.backend, want.rep)


def _constant(m):
    return lambda p, s: m


def _reduced(f, mass):
    """(gamma^0 p_0 + gamma^1 p_1 - m) f, the special frame's reduced Dirac residual."""
    view = f.rep.on(f.backend)
    return apply_symbol(f, lambda p, s: reduced_dirac_symbol(view, p, s, mass))


def _sigma_momentum(f, sign):
    """(p^0 + sign * sigma.p) f on a 2-component field."""
    return apply_symbol(f, lambda p, s: _sigma_symbol(p, s, sign))


def _check_against_references(f4, f2, mass):
    _assert_same_field(dirac_residual(f4, mass), _ref_dirac_residual(f4, mass))
    _assert_same_field(dirac_residual(f4, 0), _ref_dirac_op(f4))
    _assert_same_field(_reduced(f4, mass), _ref_reduced_dirac_residual(f4, mass))
    for sign in (1, -1):
        _assert_same_field(_sigma_momentum(f2, sign), _ref_sigma_momentum_op(f2, sign))
    _assert_same_field(upper_half(f4), PlaneWaveField(
        [PlaneWaveTerm(t.amplitude[:2], t.momentum, t.freq_sign) for t in f4.terms],
        rep=f4.rep, ncomp=2))


@pytest.mark.parametrize("name", REP_NAMES)
def test_symbols_equal_the_reference_compositions(name):
    rep = build_rep(name)
    f4 = _full_field(rep)
    left = weyl_spinor(_MOMENTA[3], build_rep("spinor"), "left").amplitude[2:]
    f2 = PlaneWaveField([PlaneWaveTerm(t.amplitude[2:], t.momentum, t.freq_sign)
                         for t in f4.terms] + [PlaneWaveTerm(left, _MOMENTA[3], 1)],
                        rep=rep, ncomp=2)
    assert len(f4.terms) == 6 and len(f2.terms) == 7
    assert {t.freq_sign for t in f4.terms} == {1, -1}
    assert len({t.momentum for t in f4.terms}) == 3
    for mass in _MASSES:
        _check_against_references(f4, f2, mass)
    # the solution term and the Weyl term vanish exactly and are dropped
    assert len(dirac_residual(f4, 1).terms) == 5
    assert len(_sigma_momentum(f2, 1).terms) == 6


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REP_NAMES), _terms(4), _terms(2), st.sampled_from(_MASSES))
def test_symbols_equal_the_reference_compositions_on_random_fields(name, t4, t2, mass):
    rep = build_rep(name)
    _check_against_references(PlaneWaveField(t4, rep=rep), PlaneWaveField(t2, rep=rep, ncomp=2),
                              mass)


# -- canonical form --------------------------------------------------------------


def _assert_canonical(g, ncomp, backend):
    keys = [t.key() for t in g.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for t in g.terms:
        assert any(t.amplitude)
        assert (t.ncomp, t.backend) == (ncomp, backend)
    assert (g.ncomp, g.backend) == (ncomp, backend)


def _operator_results(f4, f2, mass):
    backend = f4.backend
    view = f4.rep.on(backend)

    def keep_positive_frequencies(p, s):
        return Matrix.identity(4, backend).scale(1 if s > 0 else 0)

    yield 4, apply_symbol(f4, _constant(view.p[0]))
    yield 4, apply_symbol(f4, _constant(Matrix.zero(4, backend)))
    yield 4, _ref_sub(f4, apply_symbol(f4, _constant(view.q_plus)))
    yield 4, apply_symbol(f4, keep_positive_frequencies)
    yield 4, dirac_residual(f4, 0)
    yield 4, dirac_residual(f4, mass)
    yield 4, _reduced(f4, mass)
    yield 2, upper_half(f4)
    yield 2, _sigma_momentum(f2, 1)
    yield 2, _sigma_momentum(f2, -1)


def _float_terms(ncomp):
    small = st.integers(-3, 3)
    amplitude = st.tuples(*(st.builds(complex, small, small),) * ncomp)
    momentum = st.sampled_from(tuple(p.to_float() for p in _MOMENTA))
    return st.lists(st.builds(PlaneWaveTerm, amplitude, momentum, st.sampled_from((1, -1))),
                    max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REP_NAMES), st.sampled_from((EXACT, FLOAT)), st.data())
def test_every_operator_result_is_canonical(name, backend, data):
    rep = build_rep(name)
    terms = _terms if backend == EXACT else _float_terms
    f4 = PlaneWaveField(data.draw(terms(4)), rep=rep, backend=backend)
    f2 = PlaneWaveField(data.draw(terms(2)), rep=rep, ncomp=2, backend=backend)
    mass = data.draw(st.sampled_from(_MASSES))
    if backend == FLOAT:
        mass = float(mass)
    for ncomp, g in _operator_results(f4, f2, mass):
        _assert_canonical(g, ncomp, backend)
        assert g.rep is rep


# -- the trusted term path and the merge, on edge values ---------------------------

_FLOAT_MOMENTA = tuple(p.to_float() for p in _MOMENTA)

#: float amplitude parts with signed zeros, inf and NaN
_edge_parts = st.sampled_from((0.0, -0.0, 1.0, -2.0, float("inf"), float("-inf"), float("nan")))


def _edge_amplitudes(backend, ncomp):
    """Small Gaussian integers, or floats with signed zeros, inf and NaN."""
    parts = gaussians if backend == EXACT else st.builds(complex, _edge_parts, _edge_parts)
    return st.tuples(*(parts,) * ncomp)


def _edge_terms(backend, ncomp, max_size=6):
    momenta = _MOMENTA if backend == EXACT else _FLOAT_MOMENTA
    return st.lists(st.builds(PlaneWaveTerm, _edge_amplitudes(backend, ncomp),
                              st.sampled_from(momenta), st.sampled_from((1, -1))),
                    max_size=max_size)


def _assert_same_value(got, want):
    """A term equal by repr, == and hash; a field's terms by repr (so -0.0 and NaN show)."""
    assert type(got) is type(want)
    if isinstance(got, PlaneWaveField):
        _assert_same_field(got, want)
    else:
        assert (repr(got), got == want, hash(got)) == (repr(want), True, hash(want))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(REP_NAMES), st.sampled_from((EXACT, FLOAT)), st.sampled_from((4, 2)),
       st.data())
def test_trusted_paths_equal_the_validating_constructors(name, backend, ncomp, data):
    rep = build_rep(name)
    want = PlaneWaveField(data.draw(_edge_terms(backend, ncomp)), rep=rep, ncomp=ncomp,
                          backend=backend)
    terms = tuple(fields._term(*t) for t in want.terms)
    for got, t in zip(terms, want.terms):
        _assert_same_value(got, t)
        _assert_same_value(got, PlaneWaveTerm(*t))
    for t in data.draw(_edge_terms(backend, ncomp, max_size=2)):
        _assert_same_value(field_of(t, rep),
                           PlaneWaveField((t,), rep=rep, ncomp=ncomp, backend=backend))


def _rekeyed(f):
    """f with every momentum replaced by an equal copy: the same keys, but no momentum shared."""
    terms = [PlaneWaveTerm(amp, FourMomentum(p.p, p.mass, p.backend), s) for amp, p, s in f.terms]
    return PlaneWaveField(terms, rep=f.rep, ncomp=f.ncomp, backend=f.backend)


def _finite(f):
    return all(abs(a) < float("inf") for t in f.terms for a in t.amplitude)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REP_NAMES), st.sampled_from((EXACT, FLOAT)), st.sampled_from((4, 2)),
       st.booleans(), st.data())
def test_paired_merge_equals_the_keyed_merge(name, backend, ncomp, single, data):
    """Terms sharing momenta and signs merge as when only their keys agree, in either order.

    b takes a's momentum objects and signs in a's order, each amplitude
    drawn anew or a's negated (so the merge cancels exactly);
    ``_rekeyed(b)`` has the same keys on copied momenta.
    """
    rep = build_rep(name)
    a = PlaneWaveField(data.draw(_edge_terms(backend, ncomp, max_size=1 if single else 6)),
                       rep=rep, ncomp=ncomp, backend=backend)
    b_terms = []
    for t in a.terms:
        if data.draw(st.booleans()):
            amp = tuple(-x for x in t.amplitude)
        else:
            amp = data.draw(_edge_amplitudes(backend, ncomp))
        b_terms.append(fields._term(amp, t.momentum, t.freq_sign))
    b = PlaneWaveField(b_terms, rep=rep, ncomp=ncomp, backend=backend)
    far = _rekeyed(b)
    for got, want in ((_ref_add(a, b), _ref_add(a, far)), (_ref_add(b, a), _ref_add(far, a)),
                      (_ref_add(a, b), _ref_add(b, a)),
                      (_ref_add(a, _negated(b)), _ref_add(a, _negated(far)))):
        _assert_same_field(got, want)
        _assert_canonical(got, ncomp, backend)
    if _finite(a):
        for cancelled in (_ref_add(a, _negated(a)), _ref_add(a, _negated(_rekeyed(a)))):
            assert cancelled.is_zero and cancelled.ncomp == ncomp


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_dirac_residual_applies_its_symbol_term_by_term(backend):
    """Each term times ``dirac_matrix``; the zero field stays zero, and two components raise."""
    f = _full_field(build_rep("spinor"))
    if backend == FLOAT:
        f = to_float(f)
    _assert_same_field(dirac_residual(f, 1),
                       apply_symbol(f, lambda p, s: fields.dirac_matrix(f.rep, p, s, 1)))
    empty = PlaneWaveField((), rep=f.rep, backend=backend)
    _assert_same_field(dirac_residual(empty, 1), empty)
    with pytest.raises(ValueError, match="acts on 4-component fields"):
        dirac_residual(upper_half(f), 1)
