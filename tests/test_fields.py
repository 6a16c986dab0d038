"""Plane-wave term algebra, solution constructors, charge conjugation."""

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    apply_symbol,
    charge_conjugate,
    conjugate,
    dirac_matrix,
    dirac_op,
    dirac_residual,
    field_of,
    lower_half,
    u_spinor,
    upper_half,
    weyl_spinor,
)
from diracsplit.errors import (
    BackendMismatch,
    ChargeConjugationNeedsBispinor,
    MasslessNeedsWeyl,
    OffShell,
    WeylRequiresMassless,
)
from diracsplit.gamma import build_rep
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, SCALAR_TYPE, GaussianRational, coerce_scalar

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
    f = field_of(term, rep=spinor)
    assert (f - f).is_zero
    assert not f.is_zero


def test_field_term_order_is_canonical(spinor):
    pa = FourMomentum.exact((3, 2, 2, 0), 1)
    pb = FourMomentum.exact((5, 3, 2, 1), 1)

    def term(p):
        return PlaneWaveTerm((1, 0, 0, 0), p, 1)

    f1 = PlaneWaveField((term(pa), term(pb)), rep=spinor)
    f2 = PlaneWaveField((term(pb), term(pa)), rep=spinor)
    assert f1 == f2


def test_field_rejects_mixed_backends(spinor):
    p, term = _witness_term()
    tf = PlaneWaveTerm((1, 0, 0, 0), FourMomentum.floats((3, 2, 2, 0), 1), 1)
    with pytest.raises(BackendMismatch):
        PlaneWaveField((term, tf), rep=spinor)


def test_fields_of_different_reps_do_not_mix(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    g = field_of(term, rep=build_rep("standard"))
    for combine in (lambda: f + g, lambda: f - g):
        with pytest.raises(ValueError):
            combine()
    assert f != g and len({f, g}) == 2
    same = field_of(term, rep=spinor)
    assert f == same and hash(f) == hash(same)


def test_field_rejects_mixed_component_counts(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t2 = PlaneWaveTerm((1, 0), p, 1)
    t4 = PlaneWaveTerm((1, 0, 0, 0), p, 1)
    with pytest.raises(ValueError):
        PlaneWaveField((t2, t4), rep=spinor)


def test_field_linear_algebra(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    assert (f + f) == f.scale(2)
    assert (f + (-f)).is_zero


def test_field_is_immutable(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    with pytest.raises(AttributeError):
        f.terms = ()


# -- operators ----------------------------------------------------------------


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("mu", [0, 1, 2, 3])
def test_momentum_op_eigenvalue(spinor, mu, sign):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t = PlaneWaveTerm((1, I, 0, 2), p, sign)
    f = field_of(t, rep=spinor)
    # the momentum operator s p^mu is a scalar symbol: s p^mu times the identity
    momentum = apply_symbol(f, lambda q, s: Matrix.identity(4).scale(s * q.p[mu]))
    assert (momentum - f.scale(sign * p.p[mu])).is_zero


def test_conjugate_flips_frequency(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    g = conjugate(f)
    assert g.terms[0].freq_sign == -1
    assert conjugate(g) == f


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
        assert dirac_op(f).is_zero


def test_weyl_chirality_images(rep):
    k = FourMomentum.exact((3, 2, 2, 1), 0)
    ps = rep.on(EXACT)
    left = field_of(weyl_spinor(k, rep, "left"), rep=rep)
    right = field_of(weyl_spinor(k, rep, "right"), rep=rep)
    assert (left.apply(ps.q_plus) - left).is_zero
    assert (right.apply(ps.q_minus) - right).is_zero


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
        assert dirac_op(f).max_abs() <= 1e-10


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
    f = field_of(u_spinor(p, rep, 1), rep=rep)
    assert charge_conjugate(charge_conjugate(f)) == f


def test_charge_conjugation_preserves_solutions(rep):
    p = FourMomentum.exact((5, 4, 2, 2), 1)
    for spin in (1, 2):
        f = field_of(u_spinor(p, rep, spin), rep=rep)
        g = charge_conjugate(f)
        assert g.terms[0].freq_sign == -1
        assert dirac_residual(g, p.mass).is_zero


def test_charge_conjugation_needs_bispinor(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    t = PlaneWaveTerm((1, 0), p, 1)
    f = PlaneWaveField((t,), rep=spinor, ncomp=2)
    with pytest.raises(ChargeConjugationNeedsBispinor):
        charge_conjugate(f)


def test_field_requires_a_representation():
    p, term = _witness_term()
    for build in (lambda: PlaneWaveField((term,)), lambda: PlaneWaveField((term,), None),
                  lambda: field_of(term, None)):
        with pytest.raises(TypeError):
            build()


# -- halves ----------------------------------------------------------------------


def test_halves_roundtrip(spinor):
    p, term = _witness_term()
    f = field_of(term, rep=spinor)
    up, low = upper_half(f), lower_half(f)
    assert up.terms[0].amplitude + low.terms[0].amplitude == term.amplitude
    assert up.terms[0].key() == low.terms[0].key() == term.key()
    assert (up.ncomp, low.ncomp, up.rep, low.rep) == (2, 2, spinor, spinor)


def test_half_of_two_component_field_rejected(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    f = PlaneWaveField((PlaneWaveTerm((1, 0), p, 1),), rep=spinor, ncomp=2)
    with pytest.raises(ValueError):
        upper_half(f)
