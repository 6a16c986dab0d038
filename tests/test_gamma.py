"""Representation layer: Clifford algebra, gamma5, sigma, intertwiners,
charge-conjugation matrices, all read from a representation's view."""

import pytest

from diracsplit.errors import IntertwinerInvalid
from diracsplit.gamma import METRIC_SIGNS, REP_NAMES, GammaRep, build_rep
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, FLOAT, GaussianRational
from diracsplit.suites import _clifford_records
from field_helpers import max_abs_diff


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


@pytest.mark.parametrize("a", REP_NAMES)
@pytest.mark.parametrize("b", REP_NAMES)
def test_intertwiner_pairs(a, b):
    if a == b:
        return
    ra, rb = build_rep(a), build_rep(b)
    link = ra.on(EXACT).intertwiner(rb)
    w, norm2 = link.w, link.norm2
    assert (w.adjoint() @ w - Matrix.identity(4).scale(norm2)).is_zero
    for g_from, g_to in zip(ra.gammas, rb.gammas):
        assert (w @ g_from @ w.adjoint() - g_to.scale(norm2)).is_zero


def test_intertwiner_keeps_its_verified_residuals(all_reps):
    for a in all_reps:
        for b in all_reps:
            residuals = a.on(EXACT).intertwiner(b).residuals
            assert [e.label for e in residuals] == ["unitary"] + [
                f"similarity.gamma{mu}" for mu in (0, 1, 2, 3, 5)]
            assert residuals.all_exact_zero()
            assert a.on(FLOAT).intertwiner(b).residuals is residuals


def test_intertwiner_unitary_float():
    sp, std = build_rep("spinor"), build_rep("standard")
    assert sp.on(EXACT).intertwiner(std).u is None  # exact code moves fields with W
    uf = sp.on(FLOAT).intertwiner(std).u
    assert max_abs_diff(uf @ uf.adjoint(), Matrix.identity(4, FLOAT)) < 1e-15


def test_conjugate_by_intertwiner_roundtrip():
    sp, maj = build_rep("spinor"), build_rep("majorana")
    link = sp.on(EXACT).intertwiner(maj)
    moved = (link.w @ sp.gammas[1] @ link.w.adjoint()).scale(GaussianRational(1) / link.norm2)
    assert (moved - maj.gammas[1]).is_zero


def test_conjugation_matrix_defining_relations(rep):
    """M conj(gamma) = -gamma M and M conj(M) = Id, exactly."""
    m = rep.on(EXACT).conjugation
    assert (m @ m.conj() - Matrix.identity(4)).is_zero
    for g in rep.gammas:
        assert (m @ g.conj() + g @ m).is_zero


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
    link = spinor.on(EXACT).intertwiner(spinor)
    assert link.norm2 == 1
    assert (link.w - Matrix.identity(4)).is_zero


def test_intertwiner_unknown_pair(spinor):
    fake = GammaRep(name="bogus", gammas=spinor.gammas, gamma5=spinor.gamma5)
    with pytest.raises(ValueError):
        spinor.on(EXACT).intertwiner(fake)


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
    links = [view.intertwiner(build_rep(n)) for n in REP_NAMES]
    mats = list(view.gammas) + [view.gamma5] + list(view.gammas_lower)
    mats += [m for row in view.sigmas for m in row]
    mats += [view.q_plus, view.q_minus, *view.p, view.v, view.conjugation]
    mats += [link.w for link in links]
    return mats, links


def test_float_view_is_promoted_exact_view(rep):
    exact, exact_links = _view_matrices(rep.on(EXACT))
    floated, float_links = _view_matrices(rep.on(FLOAT))
    assert len(exact) == len(floated)
    for a, b in zip(exact, floated):
        assert a.backend == EXACT and b.backend == FLOAT
        assert b.entries == a.to_float().entries
    for a, b in zip(exact_links, float_links):
        assert b.norm2 == a.norm2 and a.u is None
        assert b.u.entries == a.w.to_float().scale(1.0 / a.norm2**0.5).entries


def test_intertwiner_rejects_impostor_of_pinned_name(spinor):
    """A rep reusing a pinned name is verified on its own, never served the pinned data."""
    std = build_rep("standard")
    fake = GammaRep(name="standard", gammas=(-std.gammas[0],) + std.gammas[1:],
                    gamma5=std.gamma5)
    view = spinor.on(EXACT)
    link = view.intertwiner(std)  # the pinned pair is verified and kept
    with pytest.raises(IntertwinerInvalid):
        view.intertwiner(fake)
    assert view.intertwiner(std) is link and link.norm2 == 2


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
    """A split in each basis forms no Id - P_k of its own and reads no intertwiner.

    The closed form and the identity relations read the view's kept
    complements; nothing on the split's path changes basis.
    """
    from diracsplit import FourMomentum, field_of, split, u_spinor
    from diracsplit.gamma import RepView
    from diracsplit.reports import residual_report

    p = FourMomentum.exact((3, 2, 2, 0), 1)
    reps = [build_rep(n) for n in REP_NAMES]
    for r in reps:  # views and families built before counting
        r.on(EXACT).complements

    def no_intertwiner(view, rep_to):
        raise AssertionError(f"the split read the intertwiner {view.rep.name} -> {rep_to.name}")

    identities = []
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, *a: identities.append(a)))
    monkeypatch.setattr(RepView, "intertwiner", no_intertwiner)
    reports = []
    for r in reps:
        sr = split(field_of(u_spinor(p, r, 1), r), p.mass)
        reports += [residual_report(EXACT, family) for family in sr.relations]
    assert identities == []
    assert all(r.all_exact_zero() for r in reports)
