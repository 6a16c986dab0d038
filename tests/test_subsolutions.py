"""Constituent decomposition, chiral and self-conjugate subsolutions."""

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FLOAT,
    FourMomentum,
    Matrix,
    NotMajorana,
    SplitRequiresMass,
    SplitRequiresSpinorRep,
    WeylRequiresMassless,
    dirac_matrix,
    dirac_residual,
    field_of,
    majorana_residuals,
    PlaneWaveField,
    PlaneWaveTerm,
    SplitResult,
    recombination_residuals,
    split,
    u_spinor,
    upper_half,
    weyl_residuals,
    weyl_spinor,
)
from diracsplit.errors import NotASolution
from diracsplit.gamma import build_rep
from diracsplit.reports import magnitude, residual_report
from diracsplit.scalars import EXACT, GaussianRational
from diracsplit.subsolutions import (
    _terms,
    majorana_relations,
    split_relations,
    split_term,
    termwise,
    weyl_relations,
)
from diracsplit.suites import RunConfig, run
from field_helpers import conjugates, to_float, with_conjugate

I = GaussianRational(0, 1)
ONE = GaussianRational(1)

WITNESS_P = (3, 2, 2, 0)
WITNESS_MASS = 1

masses = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
spatial = st.tuples(*(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),) * 3)


def _identity_report(sr):
    """The identity relations of a split, as the split suite records them."""
    return residual_report(sr.psi.backend, sr.relations[1])


def _constituent_report(sr):
    """The constituent relations of a split, as the split suite records them."""
    return residual_report(sr.psi.backend, sr.relations[2])


def _weyl_report(f):
    """``weyl_residuals`` without its massless precondition: any field's Weyl relations."""
    view = f.rep.on(f.backend)
    return residual_report(f.backend, termwise(weyl_relations(view, amp, p, s)
                                               for amp, p, s in _terms(f)))


def _witness_split(spin=1, rep_name="spinor"):
    rep = build_rep(rep_name)
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, rep, spin), rep=rep)
    return split(psi, WITNESS_MASS)


# frozen by hand from the defining relations at q = (3, 2, 2, 0), m = 1
XI1_GOLDEN = {
    1: (ONE * 6, ONE * 4 + I * 4),
    2: (-ONE * 3 + I * 3, -ONE * 4),
}
XI2_GOLDEN = {
    1: (-ONE * 4, -ONE * 3 - I * 3),
    2: (ONE * 4 - I * 4, ONE * 6),
}


@pytest.mark.parametrize("spin", [1, 2])
def test_witness_xi_goldens(spin):
    sr = _witness_split(spin)
    assert sr.xi1_pair.terms[0].amplitude == XI1_GOLDEN[spin]
    assert sr.xi2_pair.terms[0].amplitude == XI2_GOLDEN[spin]


@pytest.mark.parametrize("spin", [1, 2])
def test_witness_constituents_carry_shared_eta(spin):
    sr = _witness_split(spin)
    eta = sr.psi.terms[0].amplitude[2:]
    assert sr.psi1.terms[0].amplitude[2:] == eta
    assert sr.psi2.terms[0].amplitude[2:] == eta


@pytest.mark.parametrize("spin", [1, 2])
def test_witness_residuals_exact_zero(spin):
    sr = _witness_split(spin)
    for report in (
        recombination_residuals(sr),
        _identity_report(sr),
        _constituent_report(sr),
    ):
        assert report.all_exact_zero()


@pytest.mark.parametrize("spin", [1, 2])
@pytest.mark.parametrize("rep_name", ["standard", "majorana"])
def test_witness_transported_residuals_exact_zero(spin, rep_name):
    """The witness in another basis is its own u_s, split there: the basis-free relations only."""
    sr = _witness_split(spin, rep_name)
    reports = [recombination_residuals(sr), _identity_report(sr), _constituent_report(sr)]
    assert [[e.label for e in r] for r in reports] == [
        ["recombine.psi"],
        ["identity.repfree.P1", "identity.repfree.P2"],
        ["constituent1-P.dirac", "constituents3.P1", "constituent2-P.dirac", "constituents3.P2"],
    ]
    assert all(r.all_exact_zero() for r in reports)


def test_constituent_alone_is_not_a_dirac_solution():
    # the full equation couples eta2 back to the xi(1) pair, so each
    # constituent only solves it after projection
    sr = _witness_split(1)
    assert not dirac_residual(sr.psi1, WITNESS_MASS).is_zero
    assert not dirac_residual(sr.psi2, WITNESS_MASS).is_zero


def test_split_multiterm_superposition():
    spinor = build_rep("spinor")
    pa = FourMomentum.exact((3, 2, 2, 0), 1)
    pb = FourMomentum.exact((5, 4, 2, 2), 1)
    psi = PlaneWaveField((u_spinor(pa, spinor, 1), u_spinor(pb, spinor, 2)), rep=spinor)
    sr = split(psi, 1)
    assert len(sr.psi1.terms) == 2
    assert recombination_residuals(sr).all_exact_zero()
    assert _constituent_report(sr).all_exact_zero()
    assert _identity_report(sr).all_exact_zero()


def test_split_handles_negative_frequency_terms():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    both = with_conjugate(psi)
    sr = split(both, WITNESS_MASS)
    signs = sorted(t.freq_sign for t in sr.psi1.terms)
    assert signs == [-1, 1]
    assert _constituent_report(sr).all_exact_zero()


# -- preconditions ---------------------------------------------------------


def test_split_rejects_zero_mass():
    sr = _witness_split(1)
    with pytest.raises(SplitRequiresMass):
        split(sr.psi, 0)


def test_split_rejects_a_two_component_field():
    with pytest.raises(SplitRequiresSpinorRep):
        split(upper_half(_witness_split(1).psi), WITNESS_MASS)


@pytest.mark.parametrize("rep_name", ["spinor", "standard", "majorana"])
def test_an_exact_split_checks_every_relation_family(monkeypatch, rep_name):
    """Swapped constituents still recombine to psi outside the spinor basis (``recombine.psi``
    is symmetric in them), so the exact split names the first other relation that fails;
    the spinor basis's recombination family holds its component statements too."""
    from diracsplit import subsolutions

    closed_form = subsolutions.split_term
    monkeypatch.setattr(subsolutions, "split_term", lambda *args: closed_form(*args)[::-1])
    failing = "closed-form residual" if rep_name == "spinor" else "identity.repfree.P1 residual"
    with pytest.raises(NotASolution, match=failing):
        _witness_split(1, rep_name)


#: on-shell (p0, p1, p2, p3, m); at p1 = p2 = 0 a spin eigenstate has one zero constituent
_GENERIC_POINTS = ((3, 2, 2, 0, 1), (3, 0, 2, 2, 1), (5, 0, 0, 3, 4), (1, 0, 0, 0, 1))
_CHI = (ONE, I, ONE * 2, -ONE)


@pytest.mark.parametrize("point", _GENERIC_POINTS, ids=lambda pt: "-".join(map(str, pt)))
@pytest.mark.parametrize("rep_name", ["spinor", "standard", "majorana"])
def test_split_of_a_generic_solution_is_the_closed_form(rep_name, point):
    """Two keys, both frequency signs, in every basis: exact zeros and the closed form.

    The field is (1+2i) u(p, 1) + (3-i) u(p, 2) at s = +1 plus (gamma.q +
    m) chi at s = -1, q = -p.  split returns, every relation vanishes
    identically, and P1 Psi_(1) = m^-1 (gamma.q + m)(1 - P2) psi, P2
    Psi_(2) = m^-1 (gamma.q + m)(1 - P1) psi, with gamma.q + m and 1 - P_k
    formed here from the gammas and the projectors.
    """
    rep = build_rep(rep_name)
    view = rep.on(EXACT)
    *comps, m = point
    p = FourMomentum.exact(comps, m)
    ident = Matrix.identity(4)

    def lift(s):  # gamma.q + m at q = s p
        gamma_q = ident.scale(0)
        for g, c in zip(view.gammas_lower, p.p):
            gamma_q = gamma_q + g.scale(s * c)
        return gamma_q + ident.scale(m)

    u1, u2 = (u_spinor(p, rep, spin).amplitude for spin in (1, 2))
    plus = tuple(GaussianRational(1, 2) * a + GaussianRational(3, -1) * b for a, b in zip(u1, u2))
    psi = PlaneWaveField((PlaneWaveTerm(plus, p, 1), PlaneWaveTerm(lift(-1).apply(_CHI), p, -1)),
                         rep)
    assert len(psi.terms) == 2
    sr = split(psi, m)
    assert all(residual_report(EXACT, family).all_exact_zero() for family in sr.relations)
    p1, p2 = view.p[:2]
    for projector, psi_k, other in ((p1, sr.psi1, p2), (p2, sr.psi2, p1)):
        got = {t.key(): projector.apply(t.amplitude) for t in psi_k.terms}
        for amp, _, s in psi.terms:
            want = tuple(x / m for x in lift(s).apply((ident - other).apply(amp)))
            assert got.get((s,) + p.key(), (GaussianRational(0),) * 4) == want



def test_split_rejects_non_solution():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    from diracsplit import PlaneWaveTerm

    junk = field_of(PlaneWaveTerm((1, 2, 3, 4), p, 1), rep=spinor)
    with pytest.raises(NotASolution):
        split(junk, WITNESS_MASS)


def test_split_without_solution_check_passes_offshell():
    """Off the shell, the constituent relations of one term measure far from zero."""
    spinor = build_rep("spinor")
    p = FourMomentum.floats((4.0, 2.0, 2.0, 0.0), 1.0)  # off the shell
    term = PlaneWaveTerm((1.0, 0.5, 0.25, 1.0), p, 1)
    view = spinor.on(FLOAT)
    constituents = split_term(view, *term, 1.0)
    _, _, constituent = split_relations(view, term.amplitude, constituents, p, 1, 1.0)
    assert residual_report(FLOAT, constituent).max_residual() > 1e-3
    with pytest.raises(NotASolution):
        split(field_of(term, rep=spinor), 1.0)


def test_a_float_split_at_the_wrong_mass_names_the_dirac_relation():
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(1.5, (0.3, -1.2, 2.0))
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    split(psi, p.mass)
    with pytest.raises(NotASolution, match=r"^dirac residual \S+ exceeds 1e-10 \(float, split\)$"):
        split(psi, 2 * p.mass)


# -- float fuzz -------------------------------------------------------------


@given(masses, spatial, st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_split_float_fuzz(m, sp, spin):
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(m, sp)
    psi = field_of(u_spinor(p, spinor, spin), rep=spinor)
    sr = split(psi, m)
    assert recombination_residuals(sr).all_within(1e-10)
    assert _identity_report(sr).all_within(1e-10)
    assert _constituent_report(sr).all_within(1e-10)


# -- Weyl --------------------------------------------------------------------


def test_weyl_residuals_exact(rep):
    k = FourMomentum.exact((3, 2, 2, 1), 0)
    for chirality in ("left", "right"):
        f = field_of(weyl_spinor(k, rep, chirality), rep=rep)
        report = weyl_residuals(f)
        components = ["eta", "xi"] if rep.name == "spinor" else []
        assert [e.label for e in report] == components + ["bispinor.Qminus", "bispinor.Qplus"]
        assert report.all_exact_zero()


def test_weyl_residuals_reject_massive():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    f = field_of(u_spinor(p, spinor, 1), rep=spinor)
    with pytest.raises(WeylRequiresMassless):
        weyl_residuals(f)


def test_weyl_residuals_massive_control():
    """The Weyl relations measured on a massive u, as the suite's massive-residual control."""
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    amp = u_spinor(p, spinor, 1).amplitude
    assert max(magnitude(v) for _, _, v in weyl_relations(spinor.on(EXACT), amp, p, 1)) > 0.1


def test_weyl_component_forms_are_p0_plus_minus_sigma_p_on_each_half():
    """``eta`` is (q0 + sigma.q) eta and ``xi`` is (q0 - sigma.q) xi, on any amplitude.

    Both vanish on a Weyl solution, so the witness cannot tell the halves
    apart; a generic amplitude at a massive momentum, at both frequency
    signs, does.
    """
    view = build_rep("spinor").on(EXACT)
    p = FourMomentum.exact((5, 3, 2, 1), 2)
    amp = (GaussianRational(1), I, GaussianRational(2, -1), GaussianRational(-3))
    for s in (1, -1):
        q0, q1, q2, q3 = (c * s for c in p.p)

        def sigma_form(sign, v):  # (q0 + sign sigma.q) v
            rows = ((GaussianRational(q0 + sign * q3), GaussianRational(sign * q1, -sign * q2)),
                    (GaussianRational(sign * q1, sign * q2), GaussianRational(q0 - sign * q3)))
            return tuple(a * v[0] + b * v[1] for a, b in rows)

        got = {label: value for label, _, value in weyl_relations(view, amp, p, s)}
        assert got["eta"] == sigma_form(1, amp[2:]) != (0, 0)
        assert got["xi"] == sigma_form(-1, amp[:2]) != (0, 0)


# -- Majorana ------------------------------------------------------------------


def test_majorana_witness_exact():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    maj = with_conjugate(field_of(u_spinor(p, spinor, 1), rep=spinor))
    assert len(maj.terms) == 2
    report = majorana_residuals(maj, WITNESS_MASS)
    assert report.all_exact_zero()


def test_majorana_rejects_plain_solution():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    with pytest.raises(NotMajorana,
                       match=r"^selfconj residual \S+ is not zero \(exact, majorana_residuals\)$"):
        majorana_residuals(psi, WITNESS_MASS)


def test_majorana_component_checks_need_spinor_basis():
    """Outside the spinor basis the report has no component checks: selfconj and dirac, zero."""
    standard = build_rep("standard")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, standard, 1), rep=standard)
    maj = with_conjugate(psi)
    report = majorana_residuals(maj, WITNESS_MASS)
    assert [e.label for e in report] == ["selfconj", "dirac"]
    assert report.all_exact_zero()
    with pytest.raises(NotMajorana):
        majorana_residuals(psi, WITNESS_MASS)


def test_majorana_relations_of_another_basis_are_selfconj_and_dirac():
    """Without spinor components, the Majorana statement adds the Dirac equation: exactly zero."""
    standard = build_rep("standard")
    view = standard.on(EXACT)
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    u = u_spinor(p, standard, 1).amplitude
    cu = view.conjugation.apply(tuple(a.conjugate() for a in u))
    relations = majorana_relations(view, u, cu, p, 1, WITNESS_MASS)
    assert [label for label, _, _ in relations] == ["selfconj", "dirac"]
    assert [equation for _, equation, _ in relations] == ["MAJORANA", "Dirac1"]
    assert residual_report(EXACT, relations).all_exact_zero()


@given(masses, spatial, st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_majorana_float_fuzz(m, sp, spin):
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(m, sp)
    psi = field_of(u_spinor(p, spinor, spin), rep=spinor)
    maj = with_conjugate(psi)
    report = majorana_residuals(maj, m)
    entries = {e.label: e for e in report}
    # conjugation is exact in floating point, so self-conjugacy is literal
    assert list(entries) == ["selfconj", "eq1", "eq2", "xi-consistency", "eta-consistency"]
    assert entries["selfconj"].residual == 0.0
    assert report.all_within(1e-10)



def test_majorana_residuals_pair_a_partner_without_a_term():
    """A key whose term is absent still meets its partner: (q, -1) sees the stray term at (q, +1).

    Only that key gives eta-consistency its 1e-13: there eta = 0 and the
    partner's conjugate is (1e-13, 0, 0, 0), so eta - i sigma2 xi* is (0, 1e-13).
    """
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(50.0, (1.0, 2.0, 0.5))
    q = FourMomentum.on_shell(50.0, (0.5, -1.0, 2.0))
    maj = with_conjugate(field_of(u_spinor(p, spinor, 1), rep=spinor))
    stray = PlaneWaveTerm((1e-13 + 0j, 0j, 0j, 0j), q, 1)
    report = majorana_residuals(PlaneWaveField(maj.terms + (stray,), spinor), p.mass)
    assert {e.label: e.residual for e in report}["eta-consistency"] == 1e-13

# -- each intermediate amplitude built once ----------------------------------------


def _counted_mul_vec(monkeypatch):
    """Record the (n, matrix entries, vector) of every kernels.mul_vec call."""
    from diracsplit import kernels

    calls = []
    original = kernels.mul_vec

    def counted(n, a, v):
        calls.append((n, a, v))
        return original(n, a, v)

    monkeypatch.setattr(kernels, "mul_vec", counted)
    return calls


def test_split_reports_apply_the_dirac_operator_once_per_constituent(monkeypatch):
    """Per term, gamma.p is applied once to each projected constituent, shared by every relation.

    Each constituent k takes five products on a term: P_k, gamma.p, gamma.p - m,
    P_k again and 1 - P_k.  The split keeps its relations, so its own
    recombination check and the three reports of one split make them
    once; split's Dirac residual adds one product per term, and the
    closed form four (two complements, two lifts by gamma.p + m), made
    once per term for both the constituents and the relations.
    """
    sp = build_rep("spinor")
    p = FourMomentum.on_shell(1.5, (0.3, -1.2, 2.0))
    psi = field_of(u_spinor(p, sp, 1), sp)
    psi = with_conjugate(psi)
    gamma_p = {dirac_matrix(sp, p, s).entries for s in (1, -1)}
    calls = _counted_mul_vec(monkeypatch)
    sr = split(psi, p.mass)
    reports = [recombination_residuals(sr), _identity_report(sr), _constituent_report(sr)]
    assert len(sr.psi.terms) == 2
    assert len(calls) == 2 + 2 * (2 * 5 + 4)
    assert sum(1 for _, a, _ in calls if a in gamma_p) == 2 * 2
    assert all(r.all_within(1e-10) for r in reports)


def test_majorana_residuals_conjugate_each_half_once(monkeypatch):
    """Each key's partner is conjugated once, whole: both halves of it, once each.

    Per key that is four scalar conjugations and two products: C on the
    partner, and gamma.p on the term, whose halves are (p0 + sigma.p) eta
    and (p0 - sigma.p) xi.  i sigma2 on a conjugated half is a swap, no
    product.
    """
    sp = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    maj = with_conjugate(field_of(u_spinor(p, sp, 2), sp))
    conjugated = []
    conjugate = GaussianRational.conjugate
    monkeypatch.setattr(GaussianRational, "conjugate",
                        lambda a: conjugated.append(a) or conjugate(a))
    assert majorana_residuals(maj, WITNESS_MASS).all_exact_zero()
    assert len(maj.terms) == 2 and len(conjugated) == 2 * 4

    q = FourMomentum.on_shell(0.7, (1.1, 0.4, -2.5))
    maj = with_conjugate(field_of(u_spinor(q, sp, 2), sp))
    calls = _counted_mul_vec(monkeypatch)
    report = majorana_residuals(maj, q.mass)
    assert len(calls) == 2 * 2
    assert report.all_within(1e-10)


_FIELD_REPORTS = (
    _weyl_report,
    lambda f: majorana_residuals(with_conjugate(f), WITNESS_MASS),
    lambda f: recombination_residuals(split(f, WITNESS_MASS)),
    lambda f: _identity_report(split(f, WITNESS_MASS)),
    lambda f: _constituent_report(split(f, WITNESS_MASS)),
)


@pytest.mark.parametrize("backend", ("exact", "float"))
def test_the_zero_field_has_every_relation_at_zero(backend):
    """With no terms to measure, each relation is still recorded, and vanishes, in every basis."""
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    for rep in map(build_rep, ("spinor", "standard", "majorana")):
        psi = field_of(u_spinor(p, rep, 1), rep=rep)
        if backend == "float":
            psi = to_float(psi)
        zero = PlaneWaveField((), rep, 4, backend)
        assert zero.is_zero
        assert weyl_residuals(zero) == _weyl_report(zero)
        for residuals in _FIELD_REPORTS:
            report = residuals(zero)
            assert [e.label for e in report] == [e.label for e in residuals(psi)]
            if backend == "exact":
                assert report.all_exact_zero()
            else:
                assert [e.residual for e in report] == [0.0] * len(report.entries)


# -- the term-wise law ------------------------------------------------------------

_MASSIVE = ((3, 2, 2, 0), (3, 0, 2, 2), (1, 0, 0, 0), (5, 4, 2, 2))  # on the shell at m = 1
_NULL = ((3, 2, 2, 1), (1, 0, 0, 1), (5, 3, 4, 0))

_modes = st.lists(st.tuples(st.sampled_from(("u1", "u2", "left", "right")), st.integers(0, 9),
                            st.booleans(), st.booleans()),
                  min_size=1, max_size=4)


def _mode_field(rep, kind, index, conjugated, junk):
    """One plane wave: a solution, its charge conjugate (frequency sign -1), junk added or not."""
    if kind in ("u1", "u2"):
        p = FourMomentum.exact(_MASSIVE[index % len(_MASSIVE)], 1)
        term = u_spinor(p, rep, int(kind[1]))
    else:
        p = FourMomentum.exact(_NULL[index % len(_NULL)], 0)
        term = weyl_spinor(p, rep, kind)
    f = PlaneWaveField((term, PlaneWaveTerm((1, I, 0, 2), p, 1)) if junk else (term,), rep)
    return PlaneWaveField(conjugates(f), rep) if conjugated else f


def _assert_termwise(whole, parts):
    """Per label: exact zero iff zero on every part; otherwise the largest of the parts'."""
    for e in whole:
        found = [x for r in parts for x in r if x.label == e.label]
        assert len(found) == len(parts)
        assert e.exact_zero == all(x.exact_zero for x in found)
        if not e.exact_zero:
            assert e.residual == max(x.residual or 0.0 for x in found)
    if whole.entries:
        assert [e.label for e in whole] == [e.label for e in parts[0]]


@given(st.sampled_from(("spinor", "standard", "majorana")), _modes, st.booleans())
@settings(max_examples=25, deadline=None)
def test_field_residuals_are_the_largest_of_their_terms(rep_name, modes, floats):
    """Each field-level report measures its field term by term, in every basis.

    Every relation is linear with constant coefficients, so a field's
    report is exact zero iff each of its single-term fields' is, and in
    floats each label's magnitude is the largest of theirs.  Majorana
    pairs the terms at (p, s) and (p, -s), so there the parts are the
    fields of one momentum.
    """
    rep = build_rep(rep_name)
    f = PlaneWaveField([t for mode in modes for t in _mode_field(rep, *mode).terms], rep)
    maj = with_conjugate(f)
    if floats:
        f, maj = to_float(f), to_float(maj)
    singles = [field_of(t, rep) for t in f.terms]
    _assert_termwise(_weyl_report(f), [_weyl_report(g) for g in singles])
    if not any(t.momentum.mass for t in f.terms):
        assert weyl_residuals(f) == _weyl_report(f)
    by_momentum = {}
    for t in maj.terms:
        by_momentum.setdefault(t.momentum.key(), []).append(field_of(t, rep))
    pairs = [PlaneWaveField([t for g in fs for t in g.terms], rep) for fs in by_momentum.values()]
    _assert_termwise(majorana_residuals(maj, 1), [majorana_residuals(g, 1) for g in pairs])
    whole = SplitResult(f, 1)  # checks nothing: f need solve nothing
    parts = [SplitResult(g, 1) for g in singles]
    for residuals in (recombination_residuals, _identity_report, _constituent_report):
        _assert_termwise(residuals(whole), [residuals(sr) for sr in parts])


def test_a_majorana_trial_builds_gamma_p_once_per_frequency_sign(monkeypatch):
    """u_s and both spins' relations at s = +1 share one gamma.p; the partner's s = -1, another."""
    from diracsplit import fields

    gamma_dot = fields._gamma_dot
    built = []

    def build(rep, p, s):
        built.append((p, s))
        return gamma_dot(rep, p, s)

    monkeypatch.setattr(fields, "_gamma_dot", build)
    for trials in (1, 3):
        built.clear()
        assert run(RunConfig(suite="majorana", backend="float", trials=trials)).failed == 0
        # ``built`` holds every momentum, so no id is reused while it is compared
        assert len({(id(p), s) for p, s in built}) == len(built) == 2 * trials
        assert sorted(s for _, s in built) == [-1] * trials + [1] * trials
