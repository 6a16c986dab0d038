"""Operators as symbols applied term by term.

The reference compositions below are how the operators were built
before they became symbols: from intermediate fields, each made by the
public constructors.  They are kept here only as oracles.  On the exact
backend every symbol must reproduce them term for term, and every
operator's result must already be canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    apply_symbol,
    charge_conjugate,
    conjugate,
    dirac_op,
    dirac_residual,
    field_of,
    lower_half,
    reduced_dirac_residual,
    sigma_momentum_op,
    u_spinor,
    upper_half,
    weyl_spinor,
)
from diracsplit import fields
from diracsplit.errors import BackendMismatch
from diracsplit.gamma import METRIC_SIGNS, PAULI, REP_NAMES, build_rep
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, FLOAT, GaussianRational

_GR = GaussianRational

# -- reference compositions ------------------------------------------------------


def _ref_field(f, terms):
    return PlaneWaveField(terms, rep=f.rep, ncomp=f.ncomp, backend=f.backend)


def _ref_scale(f, c):
    return _ref_field(f, [PlaneWaveTerm(tuple(c * a for a in t.amplitude), t.momentum, t.freq_sign)
                          for t in f.terms])


def _ref_sub(a, b):
    return a + _ref_scale(b, -1)


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
        acc = acc + piece if sign > 0 else _ref_sub(acc, piece)
    return acc


def _ref_reduced_dirac_residual(f, mass):
    t0, t1 = (_ref_scale(_ref_apply(_ref_momentum_op(f, mu), f.rep.gammas[mu]), METRIC_SIGNS[mu])
              for mu in (0, 1))
    return _ref_sub(t0 + t1, _ref_scale(f, mass))


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


def _check_against_references(f4, f2, mass):
    view = f4.rep.on(EXACT)
    assert dirac_op(f4) == _ref_dirac_op(f4)
    assert dirac_residual(f4, mass) == _ref_dirac_residual(f4, mass)
    assert reduced_dirac_residual(f4, mass) == _ref_reduced_dirac_residual(f4, mass)
    for m in (view.gamma5, view.p[0], view.conjugation, Matrix.zero(4)):
        assert f4.apply(m) == _ref_apply(f4, m)
    for sign in (1, -1):
        assert sigma_momentum_op(f2, sign) == _ref_sigma_momentum_op(f2, sign)


@pytest.mark.parametrize("name", REP_NAMES)
def test_symbols_equal_the_reference_compositions(name):
    rep = build_rep(name)
    f4 = _full_field(rep)
    left = weyl_spinor(_MOMENTA[3], build_rep("spinor"), "left").amplitude[2:]
    f2 = lower_half(f4) + PlaneWaveField((PlaneWaveTerm(left, _MOMENTA[3], 1),), rep=rep, ncomp=2)
    assert len(f4.terms) == 6 and len(f2.terms) == 7
    assert {t.freq_sign for t in f4.terms} == {1, -1}
    assert len({t.momentum for t in f4.terms}) == 3
    for mass in _MASSES:
        _check_against_references(f4, f2, mass)
    # the solution term and the Weyl term vanish exactly and are dropped
    assert len(dirac_residual(f4, 1).terms) == 5
    assert len(sigma_momentum_op(f2, 1).terms) == 6


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

    yield 4, f4.apply(view.p[0])
    yield 4, f4.apply(Matrix.zero(4, backend))
    yield 4, f4.scale(3)
    yield 4, f4.scale(0)
    yield 4, f4 - f4.apply(view.q_plus)
    yield 4, apply_symbol(f4, keep_positive_frequencies)
    yield 4, dirac_op(f4)
    yield 4, dirac_residual(f4, mass)
    yield 4, reduced_dirac_residual(f4, mass)
    yield 4, conjugate(f4)
    yield 4, charge_conjugate(f4)
    yield 2, upper_half(f4)
    yield 2, lower_half(f4)
    yield 2, conjugate(f2)
    yield 2, sigma_momentum_op(f2, 1)
    yield 2, sigma_momentum_op(f2, -1)


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


# -- sums merge canonical operands -----------------------------------------------


def _summands(data, name):
    """A field on a drawn backend and component count; its keys come from eight, so sums overlap."""
    backend = data.draw(st.sampled_from((EXACT, FLOAT)))
    ncomp = data.draw(st.sampled_from((4, 2)))
    terms = (_terms if backend == EXACT else _float_terms)(ncomp)
    return PlaneWaveField(data.draw(terms), rep=build_rep(name), ncomp=ncomp, backend=backend)


def _cancelling(f, data):
    """f's terms with some negated exactly, merged into a field of their own: sums that cancel."""
    negated = [PlaneWaveTerm(tuple(-a for a in t.amplitude), t.momentum, t.freq_sign)
               for t in f.terms if data.draw(st.booleans())]
    return PlaneWaveField(negated, rep=f.rep, ncomp=f.ncomp, backend=f.backend)


def _constructed(a, b_terms):
    return PlaneWaveField(a.terms + tuple(b_terms), rep=a.rep, ncomp=a.ncomp, backend=a.backend)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(REP_NAMES), st.data())
def test_sum_merges_like_the_constructor(name, data):
    """a + b, a - b and b + a equal the constructor on the concatenated terms, term for term.

    a - b, merged in one pass, is also a + (-b) bit for bit, empty and
    cancelling operands included, and raises where a + (-b) raises.
    """
    a = _summands(data, name)
    kind = data.draw(st.sampled_from(("drawn", "cancelling", "empty")))
    if kind == "drawn":
        b = _summands(data, name)
    elif kind == "cancelling":
        b = _cancelling(a, data)
    else:
        b = PlaneWaveField((), rep=a.rep, ncomp=data.draw(st.sampled_from((4, 2))),
                           backend=data.draw(st.sampled_from((EXACT, FLOAT))))
    if a.terms and b.terms and a.backend != b.backend:
        for op in (a.__add__, a.__sub__, lambda b: a + (-b)):
            with pytest.raises(BackendMismatch):
                op(b)
        return
    if a.terms and b.terms and a.ncomp != b.ncomp:
        for op in (a.__add__, a.__sub__, lambda b: a + (-b), lambda b: _constructed(a, b.terms)):
            with pytest.raises(ValueError, match="mixed component counts"):
                op(b)
        return
    for got, want in ((a + b, _constructed(a, b.terms)), (a - b, _constructed(a, (-b).terms)),
                      (b + a, _constructed(b, a.terms))):
        assert got.terms == want.terms
        assert (got.ncomp, got.backend, got.rep) == (want.ncomp, want.backend, want.rep)
        _assert_canonical(got, want.ncomp, want.backend)
    _assert_bitwise_equal(a - b, a + (-b))
    _assert_bitwise_equal(b - a, b + (-a))
    assert (a - a).is_zero


def _assert_bitwise_equal(got, want):
    """Same terms, amplitudes compared by repr (so -0.0 differs from 0.0, and NaN equals NaN)."""
    assert [(repr(t.amplitude), t.momentum, t.freq_sign) for t in got.terms] == \
        [(repr(t.amplitude), t.momentum, t.freq_sign) for t in want.terms]
    assert (got.ncomp, got.backend, got.rep) == (want.ncomp, want.backend, want.rep)


#: amplitude parts where x - y and x + (-1) y part ways: signed zeros, inf and NaN
_edge_parts = st.sampled_from((0.0, -0.0, 1.0, -2.0, float("inf"), float("-inf"), float("nan")))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(REP_NAMES), st.data())
def test_difference_is_the_sum_with_the_negation_bit_for_bit(name, data):
    rep = build_rep(name)
    amplitude = st.tuples(*(st.builds(complex, _edge_parts, _edge_parts),) * 4)
    momentum = st.sampled_from(tuple(p.to_float() for p in _MOMENTA[:2]))
    terms = st.lists(st.builds(PlaneWaveTerm, amplitude, momentum, st.sampled_from((1, -1))),
                     max_size=4)
    a, b = (PlaneWaveField(data.draw(terms), rep=rep, backend=FLOAT) for _ in range(2))
    _assert_bitwise_equal(a - b, a + (-b))


def test_sum_of_fields_on_different_representations_raises():
    sp, st_ = build_rep("spinor"), build_rep("standard")
    a = PlaneWaveField((u_spinor(_WITNESS, sp, 1),), rep=sp)
    for b in (PlaneWaveField((u_spinor(_WITNESS, st_, 1),), rep=st_),
              PlaneWaveField((), rep=st_)):
        with pytest.raises(ValueError, match="different representations"):
            a + b
        with pytest.raises(ValueError, match="different representations"):
            a - b


# -- the trusted paths ------------------------------------------------------------

_FLOAT_MOMENTA = tuple(p.to_float() for p in _MOMENTA)


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
    """Equal by repr, == and hash; a field's terms by repr too (so -0.0 and NaN show)."""
    assert type(got) is type(want)
    assert (repr(got), got == want, hash(got)) == (repr(want), True, hash(want))
    if isinstance(got, PlaneWaveField):
        assert repr(got.terms) == repr(want.terms)
        assert (got.rep, got.ncomp, got.backend) == (want.rep, want.ncomp, want.backend)


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
    _assert_same_value(fields._field(terms, rep, ncomp, backend), want)
    filled = fields._fill(object.__new__(PlaneWaveField), terms, rep, ncomp, backend)
    _assert_same_value(filled, want)
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
    """Operands sharing momenta and signs term by term merge as when only their keys agree.

    b takes a's momentum objects and signs in a's order, each amplitude
    drawn anew or a's negated (so sums cancel exactly); ``_rekeyed(b)``
    has the same keys on copied momenta, which sends ``_merge`` through
    its keyed pass.
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
        if any(amp):
            b_terms.append(fields._term(amp, t.momentum, t.freq_sign))
    b = fields._field(tuple(b_terms), rep, ncomp, backend)
    far = _rekeyed(b)
    for got, want in ((a + b, a + far), (a - b, a - far), (b + a, far + a), (b - a, far - a)):
        _assert_bitwise_equal(got, want)
        _assert_canonical(got, ncomp, backend)
    if _finite(a):
        for cancelled in (a - a, a + (-a), a - _rekeyed(a)):
            assert cancelled.is_zero and cancelled.ncomp == ncomp


def test_paired_merge_compares_no_key(monkeypatch):
    f = _full_field(build_rep("standard"))
    g, far = f.scale(2), _rekeyed(f.scale(2))
    calls = []
    key = PlaneWaveTerm.key
    monkeypatch.setattr(PlaneWaveTerm, "key", lambda t: calls.append(t) or key(t))
    assert (f + g) - g == f and (f - f).is_zero
    assert calls == []
    assert f + far == f + g and calls


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_apply_symbol_checks_the_symbol_of_every_term(backend):
    f = _full_field(build_rep("spinor"))
    if backend == FLOAT:
        f = f.to_float()
    other = FLOAT if backend == EXACT else EXACT
    assert [t.freq_sign for t in f.terms][:2] == [-1, -1]  # the negative frequencies sort first
    with pytest.raises(ValueError, match="symbol size 2 vs 4-component field"):
        apply_symbol(f, lambda p, s: Matrix.identity(4 if s < 0 else 2, backend))
    with pytest.raises(BackendMismatch, match="symbol backend differs"):
        apply_symbol(f, lambda p, s: Matrix.identity(4, backend if s < 0 else other))
