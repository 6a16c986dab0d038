"""Algebra of the chiral and rank-3 projector families."""

import pytest

from diracsplit import Matrix, RunConfig, build_projectors, run
from diracsplit.errors import ProjectorAlgebraViolation
from diracsplit.gamma import GammaRep, build_rep
from diracsplit.matrices import commutator
from diracsplit.scalars import EXACT, FLOAT
from diracsplit.suites import _Collector

IDENT = Matrix.identity(4)


def test_chiral_projectors_resolve_identity(rep):
    ps = rep.on(EXACT)
    assert (ps.q_plus + ps.q_minus - IDENT).is_zero
    assert (ps.q_plus @ ps.q_minus).is_zero
    assert (ps.q_plus @ ps.q_plus - ps.q_plus).is_zero
    assert (ps.q_minus @ ps.q_minus - ps.q_minus).is_zero


def test_rank3_family_algebra(rep):
    ps = rep.on(EXACT)
    total = Matrix.zero(4)
    for p in ps.p:
        assert (p @ p - p).is_zero
        assert p.trace() == 3
        total = total + p
    assert (total - IDENT.scale(3)).is_zero


def test_family_commutes_pairwise(rep):
    ps = rep.on(EXACT)
    for a in range(4):
        for b in range(a + 1, 4):
            assert commutator(ps.p[a], ps.p[b]).is_zero


def test_family_commutes_with_gamma5(rep):
    ps = rep.on(EXACT)
    for p in ps.p:
        assert commutator(p, rep.gamma5).is_zero


def test_chiral_products(rep):
    # P1 P2 and P3 P4 collapse onto the chiral halves; this identity is
    # not part of the build-time validation, so it is an independent check.
    ps = rep.on(EXACT)
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
    ps = spinor.on(EXACT)
    assert ps.p[k - 1] == Matrix.diag(diag)


def test_spinor_chiral_goldens(spinor):
    ps = spinor.on(EXACT)
    assert ps.q_minus == Matrix.diag((1, 1, 0, 0))
    assert ps.q_plus == Matrix.diag((0, 0, 1, 1))


def test_v_swap_report(rep):
    report = [e for e in rep.on(EXACT).projector_residuals if e.label.startswith("v-swap.")]
    assert [e.label for e in report] == [
        "v-swap.p1-to-p2",
        "v-swap.p2-to-p1",
        "v-swap.commute-gamma0",
        "v-swap.commute-gamma1",
        "v-swap.unitary",
    ]
    assert all(e.exact_zero for e in report)


def _suite_entries(backend, monkeypatch) -> list:
    """(check id, residual entry) of every record of the structural suites on ``backend``."""
    recorded = []
    monkeypatch.setattr(_Collector, "add",
                        lambda self, check_id, entry, *rest: recorded.append((check_id, entry)))
    for suite in ("clifford", "projectors"):
        run(RunConfig(suite=suite, backend=backend))
    return recorded


def _ids(*reports) -> set:
    return {id(e) for report in reports for e in report}


def test_recorded_residuals_are_the_validated_ones(rep, all_reps, monkeypatch):
    """The structural suites record the entries kept on the views, on both backends.

    The exact family's checks reuse the residuals its validation found zero.
    """
    exact = rep.on(EXACT)
    validated = exact.projectors[4]
    recorded = {e.label: e for e in exact.projector_residuals}
    assert validated.all_exact_zero() and len(validated.entries) == 20
    assert all(recorded[e.label] is e for e in validated)

    spinor = build_rep("spinor")
    pairs = _ids(*(r for b in all_reps if b is not rep
                   for r in (exact.intertwiner(b).residuals, exact.transport_residuals(b))))
    for backend in (EXACT, FLOAT):
        view = rep.on(backend)
        own = _ids(view.clifford_residual, view.gamma5_residuals, view.projector_residuals,
                   view.spinor_diagonal_residuals)
        entries = _suite_entries(backend, monkeypatch)
        mine = [e for check_id, e in entries
                if check_id.split(".")[1] == rep.name or f".{rep.name}-to-" in check_id]
        assert len(mine) > 20
        assert all(id(e) in own | pairs for e in mine)
        controls = [e for check_id, e in entries if ".control." in check_id]
        assert len(controls) == 1 and id(controls[0]) in _ids(spinor.on(backend).swap_control)


def test_v_is_involution(rep):
    v = rep.on(EXACT).v
    assert (v @ v - IDENT).is_zero


def test_v_swaps_upper_pair_too(rep):
    ps = rep.on(EXACT)
    v = ps.v
    assert (v @ ps.p[2] @ v.adjoint() - ps.p[3]).is_zero


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_complement_is_rank_one(rep, k):
    p = rep.on(EXACT).p[k - 1]
    c = IDENT - p
    assert (c @ c - c).is_zero
    assert c.trace() == 1
    assert (c @ p).is_zero


def test_family_transports_between_reps(all_reps):
    for rep_a in all_reps:
        for rep_b in all_reps:
            link = rep_a.on(EXACT).intertwiner(rep_b)
            for p_a, p_b in zip(rep_a.on(EXACT).p, rep_b.on(EXACT).p):
                moved = link.w @ p_a @ link.w.adjoint()
                assert (moved - p_b.scale(link.norm2)).is_zero


def test_validation_rejects_flipped_chirality(spinor):
    bad = GammaRep(name="bad-chirality", gammas=spinor.gammas, gamma5=-spinor.gamma5)
    with pytest.raises(ProjectorAlgebraViolation):
        build_projectors(bad)


def test_build_projectors_leaves_the_suite_relations_unmeasured(spinor):
    """Set-up builds and validates the family only: the relations wait for a suite."""
    copy = GammaRep(name="spinor-copy", gammas=spinor.gammas, gamma5=spinor.gamma5)
    view = build_projectors(copy)
    assert view is copy.on(EXACT) and "projectors" in vars(view)
    unmeasured = ("clifford_residual", "gamma5_residuals", "projector_residuals",
                  "swap_control", "spinor_diagonal_residuals", "covariance_residuals")
    assert not set(unmeasured) & vars(view).keys()
    assert view._transports == {} and view._links == {}
    assert list(copy._views) == [EXACT]
    assert view.projector_residuals is view.projector_residuals  # measured, then kept
