"""Representation layer: Clifford algebra, gamma5, sigma, intertwiners,
charge-conjugation matrices, all read from a representation's view."""

import copy

import pytest

from diracsplit.errors import IntertwinerInvalid
from diracsplit.gamma import METRIC_SIGNS, REP_NAMES, GammaRep, build_rep, intertwiner
from diracsplit.matrices import Matrix
from diracsplit.reports import residual_report
from diracsplit.scalars import EXACT, FLOAT, GaussianRational
from diracsplit.suites import _clifford_records


def test_rep_names_pinned():
    assert REP_NAMES == ("spinor", "standard", "majorana")


def test_unknown_rep_rejected():
    with pytest.raises(ValueError):
        build_rep("dirac-pauli")


def _clifford_entries(rep, backend, family):
    """The entries of ``rep``'s clifford records on ``backend`` labelled ``family<...>``."""
    prefix = f"clifford.{rep.name}.{family}"
    return [e for check_id, e in _clifford_records(backend) if check_id.startswith(prefix)]


def test_clifford_residuals_exactly_zero(rep):
    entries = _clifford_entries(rep, EXACT, "anticommute.")
    assert [e.label for e in entries] == [f"anticommute.{mu}{nu}" for mu in range(4)
                                          for nu in range(mu, 4)]
    assert all(e.exact_zero for e in entries)


def test_gamma5_relations_exactly_zero(rep):
    entries = _clifford_entries(rep, EXACT, "gamma5.")
    assert [e.label for e in entries] == ["gamma5.definition", "gamma5.square"] + [
        f"gamma5.anticommute.{mu}" for mu in range(4)]
    assert all(e.exact_zero for e in entries)


@pytest.mark.parametrize("family", (pytest.param("anticommute.", id="clifford_residual"),
                                    pytest.param("gamma5.", id="gamma5_residuals")))
def test_structural_residuals_on_float_view(rep, family):
    exact, floated = (_clifford_entries(rep, backend, family) for backend in (EXACT, FLOAT))
    assert [e.label for e in floated] == [e.label for e in exact]
    assert all(e.backend == FLOAT and not e.exact_zero for e in floated)
    assert all(e.within(1e-15) for e in floated)


def test_spinor_gamma5_diagonal(spinor):
    assert (spinor.gamma5 - Matrix.diag((-1, -1, 1, 1))).is_zero


def test_standard_gamma0_diagonal():
    std = build_rep("standard")
    assert (std.gammas[0] - Matrix.diag((1, 1, -1, -1))).is_zero


def test_majorana_gammas_purely_imaginary():
    maj = build_rep("majorana")
    for g in maj.gammas:
        for entry in g.entries:
            assert entry.re == 0


def test_gamma_lower_signs(rep):
    for mu in range(4):
        want = rep.gammas[mu] if METRIC_SIGNS[mu] == 1 else -rep.gammas[mu]
        assert (rep.on(EXACT).gammas_lower[mu] - want).is_zero


def test_sigma_antisymmetric(rep):
    sigmas = rep.on(EXACT).sigmas
    for mu in range(4):
        for nu in range(4):
            assert (sigmas[mu][nu] + sigmas[nu][mu]).is_zero


def test_sigma03_diagonal_golden(spinor):
    """In the spinor basis sigma_03 = diag(-i, i, i, -i)."""
    i = GaussianRational(0, 1)
    want = Matrix.diag((-i, i, i, -i))
    assert (spinor.on(EXACT).sigmas[0][3] - want).is_zero


def test_sigma12_diagonal_golden(spinor):
    assert (spinor.on(EXACT).sigmas[1][2] - Matrix.diag((1, -1, 1, -1))).is_zero


def _similarity_relations(ra, rb, w, norm2) -> list:
    """Wdag W - norm2 Id, then W g Wdag - norm2 g' for gamma0..3 and gamma5: the oracle."""
    wd = w.adjoint()
    relations = [("unitary", "Dirac1", wd @ w - Matrix.identity(4).scale(norm2))]
    for name, g, h in zip([f"gamma{mu}" for mu in range(4)] + ["gamma5"],
                          ra.gammas + (ra.gamma5,), rb.gammas + (rb.gamma5,)):
        relations.append((f"similarity.{name}", "Dirac1", w @ g @ wd - h.scale(norm2)))
    return relations


@pytest.mark.parametrize("a", REP_NAMES)
@pytest.mark.parametrize("b", REP_NAMES)
def test_intertwiner_pairs(a, b):
    """Every ordered pinned pair's W: Wdag W = norm2 Id and W gamma Wdag = norm2 gamma', exactly."""
    ra, rb = build_rep(a), build_rep(b)
    w, norm2 = intertwiner(ra, rb)
    assert w.backend == EXACT and norm2 == (1 if a == b else 4 if {a, b} == {"spinor", "majorana"}
                                            else 2)
    assert all(value.is_zero for _, _, value in _similarity_relations(ra, rb, w, norm2))


def test_intertwiner_keeps_its_verified_residuals(all_reps):
    """Each pair's clifford record is the worst of its relations, stated here as the oracle.

    Labels, equations and order are those of ``_similarity_relations``,
    and every relation vanishes identically.
    """
    recorded = dict(_clifford_records(EXACT))
    for a in all_reps:
        for b in all_reps:
            if a is b:
                continue
            oracle = residual_report(EXACT, _similarity_relations(a, b, *intertwiner(a, b)))
            assert [e.label for e in oracle] == ["unitary"] + [
                f"similarity.gamma{mu}" for mu in (0, 1, 2, 3, 5)]
            assert oracle.all_exact_zero()
            assert recorded[f"clifford.intertwiner.{a.name}-to-{b.name}"] == oracle.worst()


def test_the_float_view_holds_no_intertwiner(rep):
    """No field or relation changes basis: no view holds an intertwiner, and each W is exact."""
    for backend in (EXACT, FLOAT):
        assert not hasattr(rep.on(backend), "intertwiner")
    for b in REP_NAMES:
        w, _ = intertwiner(rep, build_rep(b))
        assert w.backend == EXACT


def test_conjugate_by_intertwiner_roundtrip():
    sp, maj = build_rep("spinor"), build_rep("majorana")
    w, norm2 = intertwiner(sp, maj)
    moved = (w @ sp.gammas[1] @ w.adjoint()).scale(GaussianRational(1) / norm2)
    assert (moved - maj.gammas[1]).is_zero


def test_conjugation_matrix_defining_relations(rep):
    """M conj(gamma) = -gamma M and M conj(M) = Id, exactly."""
    m = rep.on(EXACT).conjugation
    assert (m @ m.conj() - Matrix.identity(4)).is_zero
    for g in rep.gammas:
        assert (m @ g.conj() + g @ m).is_zero


def test_a_broken_conjugation_matrix_names_its_relation(monkeypatch, spinor):
    """With i taken as 2, M = 2 gamma2 and M conj(M) = 4 Id: the involution fails first.

    Read on a copy of the spinor basis, so the pinned basis keeps its M.
    """
    from diracsplit import gamma

    monkeypatch.setattr(gamma, "I", GaussianRational(2))
    copy = GammaRep("spinor", spinor.gammas, spinor.gamma5)
    with pytest.raises(IntertwinerInvalid, match=r"^involution residual 3\.000e\+00 is not zero "
                                                  r"\(exact, conjugation matrix of rep spinor\)$"):
        copy.on(EXACT).conjugation


def test_conjugation_matrix_spinor_is_i_gamma2(spinor):
    want = spinor.gammas[2].scale(GaussianRational(0, 1))
    assert (spinor.on(EXACT).conjugation - want).is_zero


def test_conjugation_matrix_standard_is_i_gamma2():
    """The transported spinor-basis i gamma2 is the standard basis's own i gamma2."""
    std = build_rep("standard")
    want = std.gammas[2].scale(GaussianRational(0, 1))
    assert (std.on(EXACT).conjugation - want).is_zero


def test_conjugation_matrix_majorana_is_phase():
    """All gammas imaginary: conjugation degenerates to i times identity."""
    maj = build_rep("majorana")
    m = maj.on(EXACT).conjugation
    want = Matrix.identity(4).scale(GaussianRational(0, 1))
    assert (m - want).is_zero


def test_dirac_block_structure_spinor(spinor):
    """gamma^mu p_mu in the spinor basis is the componentwise block form.

    Off-diagonal 2x2 blocks carry p0 +- sigma.p; the four matrix rows
    are exactly the four component equations of the coupled system.
    """
    from diracsplit.fields import FourMomentum, dirac_matrix

    p = FourMomentum.exact((5, 3, 2, 1), 1)
    got = dirac_matrix(spinor, p, 1)
    qp = GaussianRational(3, 2)   # q1 + i q2
    qm = GaussianRational(3, -2)  # q1 - i q2
    want = Matrix.exact([
        [0, 0, 6, qm],
        [0, 0, qp, 4],
        [4, -qm, 0, 0],
        [-qp, 6, 0, 0],
    ])
    assert (got - want).is_zero


def test_intertwiner_identity_pair(spinor):
    w, norm2 = intertwiner(spinor, spinor)
    assert norm2 == 1
    assert (w - Matrix.identity(4)).is_zero


def test_intertwiner_unknown_pair(spinor):
    fake = GammaRep(name="bogus", gammas=spinor.gammas, gamma5=spinor.gamma5)
    with pytest.raises(ValueError, match="no intertwiner for pair"):
        intertwiner(spinor, fake)
    with pytest.raises(ValueError, match="no intertwiner for pair"):
        fake.on(EXACT).conjugation


def test_a_wrong_pinned_intertwiner_fails_its_records_and_raises_nothing():
    """W is checked where it is recorded: a wrong pinned W fails the records that read it.

    The pinned spinor-to-standard W is replaced by its adjoint, still
    unitary up to norm2 but carrying the gammas the other way.  The kept
    builders are cleared before and after, so no wrong record outlives
    the test.
    """
    from diracsplit import gamma, suites
    from diracsplit.suites import RunConfig, run

    builders = (suites._clifford_records, suites._projector_records)
    pair = ("spinor", "standard")
    pinned = gamma._INTERTWINERS[pair]
    for builder in builders:
        builder.cache_clear()
    gamma._INTERTWINERS[pair] = (pinned[0].adjoint(), pinned[1])
    try:
        reports = [run(RunConfig(suite=suite, backend="exact"))
                   for suite in ("clifford", "projectors")]
    finally:
        gamma._INTERTWINERS[pair] = pinned
        for builder in builders:
            builder.cache_clear()
    failed = [c.check_id for r in reports for c in r.checks if not c.ok]
    assert failed == [f"{suite}.{a}-to-{b}"
                      for suite in ("clifford.intertwiner", "projectors.transport")
                      for a, b in (pair, pair[::-1])]


def test_intertwiner_invalid_is_exported():
    assert issubclass(IntertwinerInvalid, Exception)


# -- per-backend views -----------------------------------------------------------


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_view_is_built_once_per_backend(rep, backend):
    view = rep.on(backend)
    assert view is rep.on(backend)
    assert view.backend == backend and view.rep is rep


def _view_matrices(view):
    """Every matrix a view holds, flattened in a fixed order."""
    mats = list(view.gammas) + [view.gamma5] + list(view.gammas_lower)
    mats += [m for row in view.sigmas for m in row]
    mats += [view.q_plus, view.q_minus, *view.p, view.v, view.conjugation]
    return mats


def test_float_view_is_promoted_exact_view(rep):
    exact = _view_matrices(rep.on(EXACT))
    floated = _view_matrices(rep.on(FLOAT))
    assert len(exact) == len(floated)
    for a, b in zip(exact, floated):
        assert a.backend == EXACT and b.backend == FLOAT
        assert b.entries == a.to_float().entries


def test_intertwiner_rejects_impostor_of_pinned_name():
    """A rep reusing a pinned name is served the pinned W, and its conjugation matrix fails.

    The impostor named ``standard`` carries the Majorana basis's gammas,
    a valid Clifford basis, which the standard basis's i gamma2 does not
    anticommute: its own validation raises, and the pinned basis's M stands.
    """
    std, maj = build_rep("standard"), build_rep("majorana")
    fake = GammaRep(name="standard", gammas=maj.gammas, gamma5=maj.gamma5)
    with pytest.raises(IntertwinerInvalid, match=r"\(exact, conjugation matrix of rep standard\)$"):
        fake.on(EXACT).conjugation
    assert (std.on(EXACT).conjugation - std.gammas[2].scale(GaussianRational(0, 1))).is_zero


def test_a_copy_of_a_basis_leaves_no_link_on_the_pinned_view(spinor):
    """A copy of a basis whose conjugation matrix was read is freed: nothing pinned keeps it.

    A copy's view holds the copy and the copy its views, so a freed view
    is a freed copy.
    """
    import gc
    import weakref

    views = []
    for _ in range(3):
        c = copy.deepcopy(spinor)
        assert c.on(EXACT).conjugation.entries == spinor.on(EXACT).conjugation.entries
        views.append(weakref.ref(c.on(EXACT)))
    del c
    gc.collect()
    assert [v() for v in views] == [None, None, None]


def test_every_pinned_lowered_gamma_is_monomial(rep):
    """One nonzero entry per row and per column of each gamma_mu: a symbol has 16 products."""
    for backend in (EXACT, FLOAT):
        view = rep.on(backend)
        for g in view.gammas_lower:
            nonzero = [[bool(x) for x in row] for row in g.rows()]
            assert [sum(row) for row in nonzero] == [1, 1, 1, 1]
            assert [sum(col) for col in zip(*nonzero)] == [1, 1, 1, 1]
        slots = view.symbol_slots
        assert len(slots) == 16
        assert sum(mu is not None for mu, _, _ in slots) + sum(len(r) for _, _, r in slots) == 16


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_symbol_slots_hold_each_nonzero_lowered_gamma_entry_in_mu_order(rep, backend):
    view = rep.on(backend)
    lowered = [g.entries for g in view.gammas_lower]
    zero = {EXACT: GaussianRational(0), FLOAT: 0j}[backend]
    for k, (mu, g, rest) in enumerate(view.symbol_slots):
        filled = [(m, e[k]) for m, e in enumerate(lowered) if e[k]]
        if not filled:
            assert (mu, rest) == (None, ()) and type(g) is type(zero) and repr(g) == repr(zero)
        else:
            assert [(mu, g)] + list(rest) == filled


def test_view_rejects_unknown_backend(spinor):
    with pytest.raises(ValueError):
        spinor.on("symbolic")


# -- complements ------------------------------------------------------------------


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_complements_are_formed_once_on_the_views_backend(rep, backend):
    view = rep.on(backend)
    ident = Matrix.identity(4, backend)
    assert view.complements is view.complements
    for eps, p in zip(view.complements, view.p):
        assert eps.backend == backend
        assert repr(eps.entries) == repr((ident - p).entries)


def test_split_residuals_read_the_kept_complements(monkeypatch):
    """A split in each basis forms no Id - P_k of its own; no split or Weyl path reads an intertwiner.

    The closed form and the identity relations read the view's kept
    complements, and the Weyl spinors and relations each basis's own
    matrices: nothing on either path changes basis.
    """
    from diracsplit import FourMomentum, field_of, split, u_spinor, weyl_residuals, weyl_spinor
    from diracsplit import gamma, suites

    p = FourMomentum.exact((3, 2, 2, 0), 1)
    reps = [build_rep(n) for n in REP_NAMES]
    for r in reps:  # views, families and conjugation matrices built before counting
        r.on(EXACT).complements
        r.on(EXACT).conjugation

    def no_intertwiner(rep_from, rep_to):
        raise AssertionError(f"the path read the intertwiner {rep_from.name} -> {rep_to.name}")

    identities = []
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, *a: identities.append(a)))
    for module in (gamma, suites):
        monkeypatch.setattr(module, "intertwiner", no_intertwiner)
    reports = []
    for r in reps:
        sr = split(field_of(u_spinor(p, r, 1), r), p.mass)
        reports += [residual_report(EXACT, family) for family in sr.relations]
    assert identities == []
    assert all(r.all_exact_zero() for r in reports)

    null = [FourMomentum.exact(k, 0) for k in ((3, 2, 2, 1), (1, 0, 0, -1))]
    for r in reps:
        for k in null + [k.to_float() for k in null]:
            for chirality in ("left", "right"):
                assert weyl_residuals(field_of(weyl_spinor(k, r, chirality), r)).all_within(1e-12)
    suites._weyl_witness.cache_clear()  # the exact witnesses are measured afresh too
    assert suites.run(suites.RunConfig(suite="weyl", rep="all", trials=2)).failed == 0
