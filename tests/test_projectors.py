"""Algebra of the chiral and rank-3 projector families."""

import pytest

from diracsplit import Matrix, build_projectors, suites
from diracsplit.errors import ProjectorAlgebraViolation
from diracsplit.gamma import GammaRep, intertwiner
from diracsplit.matrices import commutator
from diracsplit.scalars import EXACT, FLOAT
from diracsplit.suites import RunConfig

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
    report = [e for check_id, e, *_ in suites._projector_records(EXACT)
              if check_id.startswith(f"projectors.{rep.name}.v-swap.")]
    assert [e.label for e in report] == [
        "v-swap.p1-to-p2",
        "v-swap.p2-to-p1",
        "v-swap.commute-gamma0",
        "v-swap.commute-gamma1",
        "v-swap.unitary",
    ]
    assert all(e.exact_zero for e in report)


def _suite_entries(backend) -> list:
    """(check id, residual entry) of every record of the structural suites on ``backend``."""
    out = []
    for runner in (suites._run_clifford, suites._run_projectors):
        runner(RunConfig(backend=backend), out)
    return [(check_id, entry) for check_id, entry, *_ in out]


def test_recorded_residuals_are_the_validated_ones(rep):
    """The exact family records reuse the residuals the validation found zero.

    Every exact family record is an entry of ``RepView.projectors[4]``.
    """
    exact = rep.on(EXACT)
    validated = exact.projectors[4]
    assert validated.all_exact_zero() and len(validated.entries) == 20
    recorded = dict(_suite_entries(EXACT))
    assert all(recorded[f"projectors.{rep.name}.{e.label}"] is e for e in validated)


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_structural_runs_record_the_kept_entries(backend):
    """Both structural suites record the very entries their builders keep, in order."""
    kept = [(check_id, entry) for builder in (suites._clifford_records, suites._projector_records)
            for check_id, entry, *_ in builder(backend)]
    recorded = _suite_entries(backend)
    assert [check_id for check_id, _ in recorded] == [check_id for check_id, _ in kept]
    assert all(a is b for (_, a), (_, b) in zip(recorded, kept))


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
            w, norm2 = intertwiner(rep_a, rep_b)
            for p_a, p_b in zip(rep_a.on(EXACT).p, rep_b.on(EXACT).p):
                moved = w @ p_a @ w.adjoint()
                assert (moved - p_b.scale(norm2)).is_zero


def test_validation_rejects_flipped_chirality(spinor):
    bad = GammaRep(name="bad-chirality", gammas=spinor.gammas, gamma5=-spinor.gamma5)
    with pytest.raises(ProjectorAlgebraViolation):
        build_projectors(bad)


def test_build_projectors_leaves_the_suite_relations_unmeasured(spinor):
    """Set-up builds and validates the family only: the relations wait for a suite."""
    builders = [f for f in vars(suites).values() if hasattr(f, "cache_info")]
    assert {suites._clifford_records, suites._projector_records,
            suites._covariance_records} <= set(builders)
    kept = [f.cache_info().currsize for f in builders]
    copy = GammaRep(name="spinor-copy", gammas=spinor.gammas, gamma5=spinor.gamma5)
    view = build_projectors(copy)
    assert view is copy.on(EXACT) and "projectors" in vars(view)
    assert [f.cache_info().currsize for f in builders] == kept
    assert list(copy._views) == [EXACT]
