"""Algebra of the chiral and rank-3 projector families."""

import pytest

from diracsplit import Matrix, build_projectors, corson_complement
from diracsplit.errors import ProjectorAlgebraViolation
from diracsplit.gamma import GammaRep, intertwiner_pair, projector_residuals
from diracsplit.matrices import commutator, exact_eq
from diracsplit.scalars import EXACT

IDENT = Matrix.identity(4)


def test_chiral_projectors_resolve_identity(rep):
    ps = build_projectors(rep)
    assert (ps.q_plus + ps.q_minus - IDENT).is_zero
    assert (ps.q_plus @ ps.q_minus).is_zero
    assert (ps.q_plus @ ps.q_plus - ps.q_plus).is_zero
    assert (ps.q_minus @ ps.q_minus - ps.q_minus).is_zero


def test_rank3_family_algebra(rep):
    ps = build_projectors(rep)
    total = Matrix.zero(4)
    for p in ps.p:
        assert (p @ p - p).is_zero
        assert p.trace() == 3
        total = total + p
    assert (total - IDENT.scale(3)).is_zero


def test_family_commutes_pairwise(rep):
    ps = build_projectors(rep)
    for a in range(4):
        for b in range(a + 1, 4):
            assert commutator(ps.p[a], ps.p[b]).is_zero


def test_family_commutes_with_gamma5(rep):
    ps = build_projectors(rep)
    for p in ps.p:
        assert commutator(p, rep.gamma5).is_zero


def test_chiral_products(rep):
    # P1 P2 and P3 P4 collapse onto the chiral halves; this identity is
    # not part of the build-time validation, so it is an independent check.
    ps = build_projectors(rep)
    assert (ps.p[0] @ ps.p[1] - ps.q_minus).is_zero
    assert (ps.p[2] @ ps.p[3] - ps.q_plus).is_zero


@pytest.mark.parametrize(
    "k, diag",
    [
        (1, (1, 1, 1, 0)),
        (2, (1, 1, 0, 1)),
        (3, (1, 0, 1, 1)),
        (4, (0, 1, 1, 1)),
    ],
)
def test_spinor_diagonal_golden(spinor, k, diag):
    ps = build_projectors(spinor)
    assert exact_eq(ps.projector(k), Matrix.diag(diag))


def test_spinor_chiral_goldens(spinor):
    ps = build_projectors(spinor)
    assert exact_eq(ps.q_minus, Matrix.diag((1, 1, 0, 0)))
    assert exact_eq(ps.q_plus, Matrix.diag((0, 0, 1, 1)))


def test_v_swap_report(rep):
    report = [e for e in projector_residuals(rep.on(EXACT)) if e.label.startswith("v-swap.")]
    assert [e.label for e in report] == [
        "v-swap.p1-to-p2",
        "v-swap.p2-to-p1",
        "v-swap.commute-gamma0",
        "v-swap.commute-gamma1",
        "v-swap.unitary",
    ]
    assert all(e.exact_zero for e in report)


def test_recorded_residuals_are_the_validated_ones(rep):
    """The exact family's checks reuse the residuals its validation found zero."""
    view = rep.on(EXACT)
    validated = view.projectors[4]
    recorded = {e.label: e for e in projector_residuals(view)}
    assert validated.all_exact_zero() and len(validated.entries) == 20
    assert all(recorded[e.label] is e for e in validated)


def test_v_is_involution(rep):
    v = build_projectors(rep).v
    assert (v @ v - IDENT).is_zero


def test_v_swaps_upper_pair_too(rep):
    ps = build_projectors(rep)
    v = ps.v
    assert (v @ ps.p[2] @ v.adjoint() - ps.p[3]).is_zero


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_complement_is_rank_one(rep, k):
    ps = build_projectors(rep)
    c = corson_complement(ps, k)
    assert (c @ c - c).is_zero
    assert c.trace() == 1
    assert (c + ps.projector(k) - IDENT).is_zero
    assert (c @ ps.projector(k)).is_zero


def test_family_transports_between_reps(all_reps):
    for rep_a in all_reps:
        for rep_b in all_reps:
            w, norm2 = intertwiner_pair(rep_a, rep_b)
            ps_a = build_projectors(rep_a)
            ps_b = build_projectors(rep_b)
            for k in (1, 2, 3, 4):
                moved = w @ ps_a.projector(k) @ w.adjoint()
                assert (moved - ps_b.projector(k).scale(norm2)).is_zero


def test_validation_rejects_flipped_chirality(spinor):
    bad = GammaRep(name="bad-chirality", gammas=spinor.gammas, gamma5=-spinor.gamma5)
    with pytest.raises(ProjectorAlgebraViolation):
        build_projectors(bad)
