"""Plane-wave term algebra, solution constructors, charge conjugation."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    dirac_matrix,
    dirac_residual,
    field_of,
    majorana_residuals,
    u_spinor,
    upper_half,
    weyl_spinor,
)
from diracsplit.errors import (
    BackendMismatch,
    ChargeConjugationNeedsBispinor,
    MasslessNeedsWeyl,
    NotMajorana,
    OffShell,
    WeylRequiresMassless,
)
from diracsplit.gamma import build_rep
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, FLOAT, SCALAR_TYPE, GaussianRational, coerce_scalar
from field_helpers import apply_symbol, charge_conjugate

I = GaussianRational(0, 1)
_SPINOR = build_rep("spinor")

masses = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
spatial = st.tuples(*(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),) * 3)


# -- four-momentum -----------------------------------------------------------


def test_exact_shell_witness():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    assert p.minkowski_square() == 1
    assert p.shell_defect() == 0
    assert p.is_on_shell()


def test_exact_off_shell():
    p = FourMomentum.exact((3, 2, 2, 2), 1)
    assert not p.is_on_shell()


def test_negative_energy_not_on_shell():
    # the square alone cannot distinguish the sign of p0
    p = FourMomentum.exact((-3, 2, 2, 0), 1)
    assert p.shell_defect() == 0
    assert not p.is_on_shell()


@given(masses, spatial)
def test_on_shell_constructor(m, sp):
    p = FourMomentum.on_shell(m, sp)
    assert p.p[0] > 0
    assert abs(p.shell_defect()) <= 1e-9
    assert p.is_on_shell(tol=1e-9)


def test_float_shell_test_is_relative_to_energy():
    # |p| ~ 1e3: rounding alone leaves p^2 - m^2 far above an absolute 1e-12
    p = FourMomentum.on_shell(1.0, (600.0, -500.0, 700.0))
    assert abs(p.shell_defect()) > 1e-12
    assert p.is_on_shell()
    off = FourMomentum.floats((p.p[0] + 1e-3, *p.p[1:]), 1.0)
    assert abs(off.shell_defect()) > 1.0
    assert not off.is_on_shell()


def test_momentum_to_float():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    q = p.to_float()
    assert q.backend == "float"
    assert q.p == (3.0, 2.0, 2.0, 0.0)
    assert q.to_float() is q


# -- term and field structure -------------------------------------------------


def _witness_term(spin=1):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    return p, u_spinor(p, _SPINOR, spin)


def test_term_rejects_bad_freq_sign():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    with pytest.raises(ValueError):
        PlaneWaveTerm((1, 0, 0, 0), p, 2)


def test_term_rejects_bad_component_count():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    with pytest.raises(ValueError):
        PlaneWaveTerm((1, 0, 0), p, 1)


def test_field_merges_equal_keys(spinor):
    p, term = _witness_term()
    f = PlaneWaveField((term, term), rep=spinor)
    assert len(f.terms) == 1
    assert f.terms[0].amplitude == tuple(a + a for a in term.amplitude)


def test_field_drops_exact_zero(spinor):
    p, term = _witness_term()
    negated = PlaneWaveTerm(tuple(-a for a in term.amplitude), p, 1)
    assert PlaneWaveField((term, negated), rep=spinor).is_zero
    assert not field_of(term, rep=spinor).is_zero


def test_field_term_order_is_canonical(spinor):
    pa = FourMomentum.exact((3, 2, 2, 0), 1)
    pb = FourMomentum.exact((5, 3, 2, 1), 1)

    def term(p):
        return PlaneWaveTerm((1, 0, 0, 0), p, 1)

    f1 = PlaneWaveField((term(pa), term(pb)), rep=spinor)
    f2 = PlaneWaveField((term(pb), term(pa)), rep=spinor)
    assert f1.terms == f2.terms
    assert [t.key() for t in f1.terms] == sorted(t.key() for t in f1.terms)


def test_field_rejects_mixed_backends(spinor):
    p, term = _witness_term()
    tf = PlaneWaveTerm((1, 0, 0, 0), FourMomentum.floats((3, 2, 2, 0), 1), 1)
    with pytest.raises(BackendMismatch):
        PlaneWaveField((term, tf), rep=spinor)


def test_fields_of_different_reps_do_not_mix(spinor):
    """The same amplitude read in another basis is another field: a solution in one only."""
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    g = field_of(term, rep=build_rep("standard"))
    assert f.terms == g.terms and (f.rep, g.rep) == (spinor, build_rep("standard"))
    assert dirac_residual(f, p.mass).is_zero
    assert not dirac_residual(g, p.mass).is_zero
    assert dirac_residual(g, p.mass).rep is g.rep


def test_field_rejects_mixed_component_counts(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t2 = PlaneWaveTerm((1, 0), p, 1)
    t4 = PlaneWaveTerm((1, 0, 0, 0), p, 1)
    with pytest.raises(ValueError):
        PlaneWaveField((t2, t4), rep=spinor)


def test_field_linear_algebra(spinor):
    """An operator on a field is the field of the operator on its terms, merged by key."""
    p = FourMomentum.exact((5, 3, 2, 1), 2)
    terms = [PlaneWaveTerm((1, I, 0, 2), p, 1), PlaneWaveTerm((0, 3, -I, 1), p, 1),
             PlaneWaveTerm((2, 0, 1, I), p, -1), _witness_term()[1]]
    whole = dirac_residual(PlaneWaveField(terms, rep=spinor), 1)
    parts = [t for term in terms for t in dirac_residual(field_of(term, spinor), 1).terms]
    assert whole.terms == PlaneWaveField(parts, rep=spinor).terms
    assert len(whole.terms) == 2  # the two terms at (p, +1) merge; the solution drops out


def test_field_is_immutable(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    with pytest.raises(AttributeError):
        f.terms = ()


def test_term_is_an_immutable_value():
    p, term = _witness_term()
    for name in ("amplitude", "momentum", "freq_sign", "other"):
        with pytest.raises(AttributeError):
            setattr(term, name, None)
    assert (term.amplitude, term.momentum, term.freq_sign) == tuple(term)
    assert (term.ncomp, term.backend, term.key()) == (4, EXACT, (1,) + p.key())
    same = PlaneWaveTerm(amplitude=term.amplitude, momentum=p, freq_sign=1)
    assert (same == term, hash(same) == hash(term), repr(same) == repr(term)) == (True,) * 3
    assert repr(term) == (f"PlaneWaveTerm(amplitude={term.amplitude!r}, momentum={p!r}, "
                          "freq_sign=1)")
    float_term = PlaneWaveTerm((1j, 0, 0, 2), p.to_float(), -1)
    assert pickle.loads(pickle.dumps(float_term)) == float_term
    assert copy.copy(term) == term


def test_term_constructor_errors():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    # the sign is checked first, then the length, then each component's backend
    with pytest.raises(ValueError, match="freq_sign must be"):
        PlaneWaveTerm((1, 0, 0), p, 2)
    with pytest.raises(ValueError, match="2 or 4 components"):
        PlaneWaveTerm((1, 0, 0), p, 1)
    with pytest.raises(BackendMismatch):
        PlaneWaveTerm((0.5, 0, 0, 0), p, 1)
    with pytest.raises(BackendMismatch):
        PlaneWaveTerm((I, 0), p.to_float(), -1)
    assert PlaneWaveTerm((1, 0), p.to_float(), -1).amplitude == (1 + 0j, 0j)


# -- operators ----------------------------------------------------------------


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("mu", [0, 1, 2, 3])
def test_momentum_op_eigenvalue(spinor, mu, sign):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t = PlaneWaveTerm((1, I, 0, 2), p, sign)
    f = field_of(t, rep=spinor)
    # the momentum operator s p^mu is a scalar symbol: s p^mu times the identity
    momentum = apply_symbol(f, lambda q, s: Matrix.identity(4).scale(s * q.p[mu]))
    c = sign * p.p[mu]
    want = PlaneWaveField((PlaneWaveTerm(tuple(c * a for a in t.amplitude), p, sign),), spinor)
    assert momentum.terms == want.terms


def test_conjugate_flips_frequency(spinor):
    """u + C u is self-conjugate with C u at the flipped frequency sign, and only there."""
    p, term = _witness_term()
    cu = charge_conjugate(spinor.on(EXACT), term.amplitude)
    majorana = PlaneWaveField((term, PlaneWaveTerm(cu, p, -1)), rep=spinor)
    assert majorana_residuals(majorana, p.mass).all_exact_zero()
    with pytest.raises(NotMajorana):
        majorana_residuals(PlaneWaveField((term, PlaneWaveTerm(cu, p, 1)), rep=spinor), p.mass)


def test_dirac_matrix_odd_in_frequency(rep):
    p = FourMomentum.exact((5, 3, 2, 1), 1)
    assert (dirac_matrix(rep, p, 1) + dirac_matrix(rep, p, -1)).is_zero


def _dirac_formula(rep, p, s, mass):
    """gamma_mu (s p^mu) - m Id entry by entry, summed from mu = 0: the symbol with no memo."""
    scalar = SCALAR_TYPE[p.backend]
    gammas = [g.entries for g in rep.on(p.backend).gammas_lower]
    coeffs = [scalar(c * s) for c in p.p]
    entries = []
    for k in range(16):
        acc = coeffs[0] * gammas[0][k]
        for mu in (1, 2, 3):
            acc = acc + coeffs[mu] * gammas[mu][k]
        if mass and k in (0, 5, 10, 15):
            acc = acc - coerce_scalar(mass, p.backend)
        entries.append(acc)
    return tuple(entries)


_components = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0, 1e300, float("inf"),
                                                       float("nan")))
_float_momenta = st.builds(lambda c, m: FourMomentum.floats(c, m),
                           st.tuples(*(_components,) * 4), _components)
_exact_momenta = st.builds(lambda c, m: FourMomentum.exact(c, m),
                           st.tuples(*(st.fractions(-9, 9, max_denominator=7),) * 4),
                           st.fractions(0, 9, max_denominator=7))


@given(st.sampled_from(("spinor", "standard", "majorana")), _float_momenta | _exact_momenta,
       st.sampled_from((1, -1)), st.data())
@settings(max_examples=80, deadline=None)
def test_kept_dirac_matrix_equals_the_formula_bit_for_bit(name, p, s, data):
    """Each (rep, sign, mass) symbol is built once, kept on p, and is the formula exactly."""
    rep = build_rep(name)
    fresh = FourMomentum(p.p, p.mass, p.backend)
    masses = (0, p.mass, data.draw(st.sampled_from((1, 2, -3))))
    for mass in masses:
        symbol = dirac_matrix(rep, p, s, mass)
        assert dirac_matrix(rep, p, s, mass) is symbol
        assert repr(symbol.entries) == repr(_dirac_formula(rep, p, s, mass))
    # the kept symbols stay outside ==, hash and repr
    assert (p == fresh, hash(p) == hash(fresh), repr(p) == repr(fresh)) == (True, True, True)


# -- massive solutions ----------------------------------------------------------


def test_u_spinor_witness_goldens(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    u1 = u_spinor(p, spinor, 1)
    u2 = u_spinor(p, spinor, 2)
    one = GaussianRational(1)
    assert u1.amplitude == (one * 2, one + I, one * 2, -one - I)
    assert u2.amplitude == (one - I, one * 2, -one + I, one * 2)


def test_u_spinor_solves_dirac(rep):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    for spin in (1, 2):
        f = field_of(u_spinor(p, rep, spin), rep=rep)
        assert dirac_residual(f, p.mass).is_zero


def test_u_spinor_spins_orthogonal(rep):
    p = FourMomentum.exact((5, 4, 2, 2), 1)
    u1 = u_spinor(p, rep, 1)
    u2 = u_spinor(p, rep, 2)
    dot = sum((a.conjugate() * b for a, b in zip(u1.amplitude, u2.amplitude)),
              GaussianRational(0))
    assert dot == GaussianRational(0)


@given(masses, spatial)
@settings(max_examples=60)
def test_u_spinor_float_normalization(spinor, m, sp):
    p = FourMomentum.on_shell(m, sp)
    for spin in (1, 2):
        u = u_spinor(p, spinor, spin)
        norm2 = sum(abs(a) ** 2 for a in u.amplitude)
        assert abs(norm2 - 2.0 * p.p[0]) <= 1e-9
        f = field_of(u, rep=spinor)
        assert dirac_residual(f, m).max_abs() <= 1e-9


def test_u_spinor_float_in_every_basis(rep):
    # the majorana rest seed has imaginary entries, so this exercises
    # exact-to-float seed promotion
    p = FourMomentum.on_shell(1.5, (0.4, -2.0, 1.0))
    for spin in (1, 2):
        u = u_spinor(p, rep, spin)
        assert abs(sum(abs(a) ** 2 for a in u.amplitude) - 2.0 * p.p[0]) <= 1e-9
        f = field_of(u, rep=rep)
        assert dirac_residual(f, 1.5).max_abs() <= 1e-10


def test_u_spinor_rejects_massless(spinor):
    p = FourMomentum.exact((3, 2, 2, 1), 0)
    with pytest.raises(MasslessNeedsWeyl):
        u_spinor(p, spinor, 1)


def test_u_spinor_rejects_off_shell(spinor):
    p = FourMomentum.exact((4, 2, 2, 0), 1)
    with pytest.raises(OffShell):
        u_spinor(p, spinor, 1)


def test_u_spinor_rejects_bad_spin_label(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    with pytest.raises(ValueError):
        u_spinor(p, spinor, 3)


# -- massless solutions ----------------------------------------------------------


def test_weyl_goldens_along_axis(spinor):
    k = FourMomentum.exact((1, 0, 0, 1), 0)
    left = weyl_spinor(k, spinor, "left")
    right = weyl_spinor(k, spinor, "right")
    zero, one = GaussianRational(0), GaussianRational(1)
    assert left.amplitude == (zero, zero, zero, one)
    assert right.amplitude == (one, zero, zero, zero)


@pytest.mark.parametrize("kvec", [(3, 2, 2, 1), (3, 2, 2, -1), (2, 0, 0, -2)])
def test_weyl_solves_massless_dirac(rep, kvec):
    k = FourMomentum.exact(kvec, 0)
    for chirality in ("left", "right"):
        f = field_of(weyl_spinor(k, rep, chirality), rep=rep)
        assert dirac_residual(f, 0).is_zero


def test_weyl_chirality_images(rep):
    k = FourMomentum.exact((3, 2, 2, 1), 0)
    ps = rep.on(EXACT)
    left = field_of(weyl_spinor(k, rep, "left"), rep=rep)
    right = field_of(weyl_spinor(k, rep, "right"), rep=rep)
    assert apply_symbol(left, lambda p, s: ps.q_plus).terms == left.terms
    assert apply_symbol(right, lambda p, s: ps.q_minus).terms == right.terms


@given(masses, spatial)
@settings(max_examples=40)
def test_weyl_float_unit_norm(spinor, scale, sp):
    norm = (sp[0] ** 2 + sp[1] ** 2 + sp[2] ** 2) ** 0.5
    if norm < 1e-3:
        return
    k = FourMomentum.floats((norm, *sp), 0.0)
    for chirality in ("left", "right"):
        w = weyl_spinor(k, spinor, chirality)
        assert abs(sum(abs(a) ** 2 for a in w.amplitude) - 1.0) <= 1e-12
        f = field_of(w, rep=spinor)
        assert dirac_residual(f, 0.0).max_abs() <= 1e-10


def test_weyl_rejects_massive(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    with pytest.raises(WeylRequiresMassless):
        weyl_spinor(p, spinor, "left")


def test_weyl_rejects_off_shell(spinor):
    k = FourMomentum.exact((3, 2, 2, 0), 0)
    with pytest.raises(OffShell):
        weyl_spinor(k, spinor, "left")


def test_weyl_rejects_bad_chirality(spinor):
    k = FourMomentum.exact((1, 0, 0, 1), 0)
    with pytest.raises(ValueError):
        weyl_spinor(k, spinor, "middle")


# -- charge conjugation ----------------------------------------------------------


def test_charge_conjugation_involution(rep):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    view, u = rep.on(EXACT), u_spinor(p, rep, 1).amplitude
    assert charge_conjugate(view, charge_conjugate(view, u)) == u


def test_charge_conjugation_preserves_solutions(rep):
    p = FourMomentum.exact((5, 4, 2, 2), 1)
    for spin in (1, 2):
        cu = charge_conjugate(rep.on(EXACT), u_spinor(p, rep, spin).amplitude)
        assert dirac_residual(field_of(PlaneWaveTerm(cu, p, -1), rep), p.mass).is_zero
        assert not dirac_residual(field_of(PlaneWaveTerm(cu, p, 1), rep), p.mass).is_zero


def test_charge_conjugation_needs_bispinor(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t = PlaneWaveTerm((1, 0), p, 1)
    f = PlaneWaveField((t,), rep=spinor, ncomp=2)
    with pytest.raises(ChargeConjugationNeedsBispinor):
        majorana_residuals(f, p.mass)


def test_field_requires_a_representation():
    p, term = _witness_term()
    for build in (lambda: PlaneWaveField((term,)), lambda: PlaneWaveField((term,), None),
                  lambda: field_of(term, None)):
        with pytest.raises(TypeError):
            build()


# -- halves ----------------------------------------------------------------------


def test_halves_roundtrip(spinor):
    p, term = _witness_term()
    up = upper_half(field_of(term, rep=spinor))
    assert up.terms[0].amplitude + term.amplitude[2:] == term.amplitude
    assert up.terms[0].key() == term.key()
    assert (up.ncomp, up.backend, up.rep) == (2, EXACT, spinor)
    # a term whose upper pair is zero leaves the half
    lower_only = PlaneWaveTerm((0, 0) + term.amplitude[2:], p, -1)
    assert upper_half(PlaneWaveField((term, lower_only), rep=spinor)).terms == up.terms


def test_half_of_two_component_field_rejected(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    f = PlaneWaveField((PlaneWaveTerm((1, 0), p, 1),), rep=spinor, ncomp=2)
    with pytest.raises(ValueError):
        upper_half(f)


@pytest.mark.parametrize("ncomp, backend, error", [
    (3, EXACT, "2 or 4 components"), (0, FLOAT, "2 or 4 components"),
    (4, "nonsense", "unknown backend"), (2, None, "unknown backend"),
])
def test_the_zero_field_rejects_an_impossible_shape(spinor, ncomp, backend, error):
    """Only the zero field takes ncomp and backend from its arguments, so both are checked."""
    with pytest.raises(ValueError, match=error):
        PlaneWaveField((), spinor, ncomp=ncomp, backend=backend)
    p, term = _witness_term()
    with pytest.raises(ValueError, match=error):
        PlaneWaveField((term,), spinor, ncomp=ncomp, backend=backend)
    for ncomp, backend in ((2, EXACT), (4, FLOAT)):
        zero = PlaneWaveField((), spinor, ncomp=ncomp, backend=backend)
        assert (zero.terms, zero.ncomp, zero.backend) == ((), ncomp, backend)
