"""Constituent decomposition, chiral and self-conjugate subsolutions."""

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    NotMajorana,
    SplitRequiresMass,
    SplitRequiresSpinorRep,
    WeylRequiresMassless,
    charge_conjugate,
    constituent_residuals,
    dirac_residual,
    field_of,
    identity_residuals,
    majorana_build,
    majorana_residuals,
    recombination_residuals,
    sigma_momentum_op,
    split,
    transported_constituent_residuals,
    u_spinor,
    weyl_residuals,
    weyl_spinor,
)
from diracsplit.errors import NotASolution
from diracsplit.gamma import build_rep
from diracsplit.scalars import FLOAT, GaussianRational

I = GaussianRational(0, 1)
ONE = GaussianRational(1)

WITNESS_P = (3, 2, 2, 0)
WITNESS_MASS = 1

masses = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
spatial = st.tuples(*(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),) * 3)


def _witness_split(spin=1):
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, spin), rep=spinor)
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
        identity_residuals(sr),
        constituent_residuals(sr),
    ):
        assert report.all_exact_zero()


@pytest.mark.parametrize("spin", [1, 2])
@pytest.mark.parametrize("rep_name", ["standard", "majorana"])
def test_witness_transported_residuals_exact_zero(spin, rep_name):
    sr = _witness_split(spin)
    report = transported_constituent_residuals(sr, build_rep(rep_name))
    assert report.all_exact_zero()


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
    psi = (
        field_of(u_spinor(pa, spinor, 1), rep=spinor)
        + field_of(u_spinor(pb, spinor, 2), rep=spinor)
    )
    sr = split(psi, 1)
    assert len(sr.psi1.terms) == 2
    assert recombination_residuals(sr).all_exact_zero()
    assert constituent_residuals(sr).all_exact_zero()
    assert identity_residuals(sr).all_exact_zero()


def test_split_handles_negative_frequency_terms():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    both = psi + charge_conjugate(psi)
    sr = split(both, WITNESS_MASS)
    signs = sorted(t.freq_sign for t in sr.psi1.terms)
    assert signs == [-1, 1]
    assert constituent_residuals(sr).all_exact_zero()


# -- preconditions ---------------------------------------------------------


def test_split_rejects_zero_mass():
    sr = _witness_split(1)
    with pytest.raises(SplitRequiresMass):
        split(sr.psi, 0)


def test_split_rejects_other_bases():
    standard = build_rep("standard")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, standard, 1), rep=standard)
    with pytest.raises(SplitRequiresSpinorRep):
        split(psi, WITNESS_MASS)



def test_split_rejects_non_solution():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    from diracsplit import PlaneWaveTerm

    junk = field_of(PlaneWaveTerm((1, 2, 3, 4), p, 1), rep=spinor)
    with pytest.raises(NotASolution):
        split(junk, WITNESS_MASS)


def test_split_without_solution_check_passes_offshell():
    spinor = build_rep("spinor")
    p = FourMomentum.floats((4.0, 2.0, 2.0, 0.0), 1.0)  # off the shell
    from diracsplit import PlaneWaveTerm

    f = field_of(PlaneWaveTerm((1.0, 0.5, 0.25, 1.0), p, 1), rep=spinor)
    sr = split(f, 1.0, require_solution=False)
    assert constituent_residuals(sr).max_residual() > 1e-3


# -- float fuzz -------------------------------------------------------------


@given(masses, spatial, st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_split_float_fuzz(m, sp, spin):
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(m, sp)
    psi = field_of(u_spinor(p, spinor, spin), rep=spinor)
    sr = split(psi, m)
    assert recombination_residuals(sr).all_within(1e-10)
    assert identity_residuals(sr).all_within(1e-10)
    assert constituent_residuals(sr).all_within(1e-10)


# -- Weyl --------------------------------------------------------------------


def test_weyl_residuals_exact(rep):
    k = FourMomentum.exact((3, 2, 2, 1), 0)
    for chirality in ("left", "right"):
        f = field_of(weyl_spinor(k, rep, chirality), rep=rep)
        report = weyl_residuals(f)
        assert [e.label for e in report] == [
            "eta",
            "xi",
            "bispinor.Qminus",
            "bispinor.Qplus",
        ]
        assert report.all_exact_zero()


def test_weyl_residuals_reject_massive():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    f = field_of(u_spinor(p, spinor, 1), rep=spinor)
    with pytest.raises(WeylRequiresMassless):
        weyl_residuals(f)


def test_weyl_residuals_massive_control():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    f = field_of(u_spinor(p, spinor, 1), rep=spinor)
    report = weyl_residuals(f, check_mass=False)
    assert report.max_residual() > 0.1


def test_sigma_momentum_op_needs_two_components():
    sr = _witness_split(1)
    with pytest.raises(ValueError):
        sigma_momentum_op(sr.psi1, +1)


# -- Majorana ------------------------------------------------------------------


def test_majorana_witness_exact():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    maj = majorana_build(psi)
    assert len(maj.terms) == 2
    report = majorana_residuals(maj, WITNESS_MASS)
    assert report.all_exact_zero()


def test_majorana_rejects_plain_solution():
    spinor = build_rep("spinor")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, spinor, 1), rep=spinor)
    with pytest.raises(NotMajorana):
        majorana_residuals(psi, WITNESS_MASS)


def test_majorana_component_checks_need_spinor_basis():
    standard = build_rep("standard")
    p = FourMomentum.exact(WITNESS_P, WITNESS_MASS)
    psi = field_of(u_spinor(p, standard, 1), rep=standard)
    maj = majorana_build(psi)
    with pytest.raises(SplitRequiresSpinorRep):
        majorana_residuals(maj, WITNESS_MASS)


@given(masses, spatial, st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_majorana_float_fuzz(m, sp, spin):
    spinor = build_rep("spinor")
    p = FourMomentum.on_shell(m, sp)
    psi = field_of(u_spinor(p, spinor, spin), rep=spinor)
    maj = majorana_build(psi).to_float()
    report = majorana_residuals(maj, m)
    entries = {e.label: e for e in report}
    # conjugation is exact in floating point, so self-conjugacy is literal
    assert list(entries) == ["selfconj", "eq1", "eq2", "xi-consistency", "eta-consistency"]
    assert entries["selfconj"].residual == 0.0
    assert report.all_within(1e-10)


# -- each intermediate field built once -------------------------------------------


def _counting(monkeypatch, name):
    """Replace subsolutions.<name> with a wrapper that records its calls."""
    from diracsplit import subsolutions

    calls = []
    original = getattr(subsolutions, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(subsolutions, name, counted)
    return calls


def test_split_reports_apply_the_dirac_operator_once_per_constituent(monkeypatch):
    from diracsplit.reports import residual_report
    from diracsplit.suites import _split_relations

    sp = build_rep("spinor")
    p = FourMomentum.on_shell(1.5, (0.3, -1.2, 2.0))
    sr = split(field_of(u_spinor(p, sp, 1), sp), p.mass, require_solution=False)
    calls = _counting(monkeypatch, "dirac_op")
    report = residual_report(FLOAT, _split_relations(sr))
    assert len(calls) == 2
    assert report.all_within(1e-10)


def test_majorana_residuals_conjugate_each_half_once(monkeypatch):
    sp = build_rep("spinor")
    p = FourMomentum.on_shell(0.7, (1.1, 0.4, -2.5))
    maj = majorana_build(field_of(u_spinor(p, sp, 2), sp))
    calls = _counting(monkeypatch, "conjugate")
    report = majorana_residuals(maj, p.mass)
    assert len(calls) == 2
    assert report.all_within(1e-10)
