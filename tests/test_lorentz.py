"""Vector and spinor transformations, plane restriction, special frame."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    LorentzParams,
    PlaneWaveTerm,
    dirac_matrix,
    dirac_residual,
    field_of,
    special_frame,
    spinor_transform,
    u_spinor,
    vector_transform,
)
from diracsplit.errors import OffShell, SpecialFrameRequiresMass
from diracsplit.gamma import GammaRep
from diracsplit.lorentz import (
    COVARIANCE_GRID,
    _certificate,
    _pconditions,
    _transforms,
    float_certificates,
    grid_transforms,
    metric_residual,
    transformed_momentum,
)
from diracsplit.matrices import Matrix
from diracsplit.reports import residual_report
from diracsplit.scalars import EXACT, FLOAT
from diracsplit.suites import _covariance_records
from field_helpers import max_abs_diff

omegas = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
masses = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
spatial = st.tuples(*(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),) * 3)

PLANES = [
    LorentzParams("boost", (0, 3), 1.0),
    LorentzParams("boost", (0, 1), -0.7),
    LorentzParams("rotation", (1, 2), 2.0),
    LorentzParams("rotation", (2, 3), 0.4),
]


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kind, plane",
    [
        ("twist", (0, 1)),
        ("boost", (1, 3)),
        ("rotation", (0, 1)),
        ("rotation", (2, 1)),
        ("boost", (0, 0)),
        ("boost", (0, 5)),
    ],
)
def test_params_validation(kind, plane):
    with pytest.raises(ValueError):
        LorentzParams(kind, plane, 1.0)


def test_generator_sign_convention():
    assert LorentzParams("boost", (0, 3), 1.0).generator_sign == 1
    assert LorentzParams("rotation", (1, 2), 1.0).generator_sign == -1


def test_inverse_flips_parameter():
    p = LorentzParams("boost", (0, 2), 0.75)
    q = p.inverse()
    assert (q.kind, q.plane, q.omega) == ("boost", (0, 2), -0.75)


# -- vector side ----------------------------------------------------------------


def test_rotation_quarter_turn_golden():
    a = vector_transform(LorentzParams("rotation", (1, 2), math.pi / 2))
    p = transformed_momentum(a, FourMomentum.floats((5, 2, 0, 1), 1))
    assert abs(p.p[0] - 5) <= 1e-15
    assert abs(p.p[1] - 0) <= 1e-15
    assert abs(p.p[2] + 2) <= 1e-15
    assert abs(p.p[3] - 1) <= 1e-15


def test_boost_of_rest_frame_golden():
    a = vector_transform(LorentzParams("boost", (0, 3), 1.0))
    p = transformed_momentum(a, FourMomentum.floats((1, 0, 0, 0), 1))
    assert abs(p.p[0] - math.cosh(1.0)) <= 1e-15
    assert abs(p.p[3] + math.sinh(1.0)) <= 1e-15


@given(st.sampled_from(PLANES), omegas)
def test_metric_preserved(base, w):
    assert metric_residual(vector_transform(LorentzParams(base.kind, base.plane, w))) <= 1e-13


@given(st.sampled_from(PLANES), omegas, masses, spatial)
@settings(max_examples=60)
def test_invariant_mass_preserved(base, w, m, sp):
    a = vector_transform(LorentzParams(base.kind, base.plane, w))
    p = FourMomentum.on_shell(m, sp)
    q = transformed_momentum(a, p)
    scale = 1.0 + abs(p.minkowski_square())
    assert abs(q.minkowski_square() - p.minkowski_square()) <= 1e-9 * scale


# -- spinor side -----------------------------------------------------------------


@pytest.mark.parametrize("w", [-1.0, 0.5, 3.0])
def test_boost03_spinor_rep_is_diagonal_exponential(spinor, w):
    s = spinor_transform(LorentzParams("boost", (0, 3), w), spinor)
    rows = s.rows()
    expected = (math.exp(-w / 2), math.exp(w / 2), math.exp(w / 2), math.exp(-w / 2))
    for i in range(4):
        for j in range(4):
            want = expected[i] if i == j else 0.0
            assert abs(rows[i][j] - want) <= 1e-12


def _float_identity():
    return Matrix.identity(4, FLOAT)


# -- closed form against the series ----------------------------------------------


def _series_exp(a: Matrix) -> Matrix:
    """exp(a) by scaling and squaring over the Taylor series (test oracle).

    a is halved until its crude norm bound n * max|a_ij| is at most 1/2,
    where 30 terms leave a truncation error far below rounding, and the
    sum is squared back up (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
    """
    squarings = 0
    while a.max_abs() * a.n > 0.5:
        a = a.scale(0.5)
        squarings += 1
    result = term = Matrix.identity(a.n, FLOAT)
    for k in range(1, 30):
        term = (term @ a).scale(1.0 / k)
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def test_series_oracle_nilpotent():
    a = Matrix(2, FLOAT, (0j, 1 + 0j, 0j, 0j))
    want = Matrix(2, FLOAT, (1 + 0j, 1 + 0j, 0j, 1 + 0j))
    assert max_abs_diff(_series_exp(a), want) < 1e-15


@pytest.mark.parametrize("w", [0.3, 1.0, 2.5, -1.7])
def test_series_oracle_rotation_generator(w):
    """exp of [[0, w], [-w, 0]] is the plane rotation by angle w."""
    a = Matrix(2, FLOAT, (0j, complex(w), complex(-w), 0j))
    c, s = complex(math.cos(w)), complex(math.sin(w))
    want = Matrix(2, FLOAT, (c, s, -s, c))
    assert max_abs_diff(_series_exp(a), want) < 1e-13


def test_series_oracle_diagonal():
    e = _series_exp(Matrix(2, FLOAT, (complex(0.7), 0j, 0j, complex(-1.2))))
    assert abs(e.entries[0] - math.exp(0.7)) < 1e-14
    assert abs(e.entries[3] - math.exp(-1.2)) < 1e-14
    assert abs(e.entries[1]) == 0.0


ALL_PLANES = [
    ("boost", (0, 1)), ("boost", (0, 2)), ("boost", (0, 3)),
    ("rotation", (1, 2)), ("rotation", (1, 3)), ("rotation", (2, 3)),
]
CLOSED_FORM_OMEGAS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.3, -1.3, 3.0, -3.0)


@pytest.mark.parametrize(
    "kind, plane", ALL_PLANES, ids=[f"{k}{p[0]}{p[1]}" for k, p in ALL_PLANES]
)
def test_closed_form_matches_series(rep, kind, plane):
    mu, nu = plane
    sig = rep.on(FLOAT).sigmas[mu][nu]
    for w in CLOSED_FORM_OMEGAS:
        params = LorentzParams(kind, plane, w)
        s = spinor_transform(params, rep)
        exponent = sig.scale(complex(0, -0.5 * w * params.generator_sign))
        assert max_abs_diff(s, _series_exp(exponent)) <= 1e-12
        s_inv = spinor_transform(params.inverse(), rep)
        assert max_abs_diff(s @ s_inv, _float_identity()) <= 1e-12


def test_rotation_representative_is_unitary(rep):
    s = spinor_transform(LorentzParams("rotation", (1, 2), 1.2), rep)
    assert max_abs_diff(s @ s.adjoint(), _float_identity()) <= 1e-12


def test_boost_inverse_pairs(rep):
    params = LorentzParams("boost", (0, 2), 1.5)
    s = spinor_transform(params, rep)
    s_inv = spinor_transform(params.inverse(), rep)
    assert max_abs_diff(s @ s_inv, _float_identity()) <= 1e-12


def _pconditions_report(rep, s, s_inv, params):
    return residual_report(FLOAT, _pconditions(rep, s, s_inv, vector_transform(params)))


@pytest.mark.parametrize("base", PLANES, ids=lambda p: f"{p.kind}{p.plane}")
def test_pconditions(rep, base):
    s = spinor_transform(base, rep)
    s_inv = spinor_transform(base.inverse(), rep)
    report = _pconditions_report(rep, s, s_inv, base)
    assert [e.label for e in report] == [f"Pconditions.nu{nu}" for nu in range(4)]
    assert report.all_within(1e-12)


def test_pconditions_mismatched_pair_fails(spinor):
    base = LorentzParams("boost", (0, 3), 1.0)
    s = spinor_transform(base, spinor)
    report = _pconditions_report(spinor, s, s, base)
    assert report.max_residual() > 0.1


def test_pconditions_hold_exactly_on_an_exact_s(spinor):
    """On an exact S the P-conditions are measured exactly: a (0,3) boost with e^omega = 4.

    S = blockdiag(A, A^{dagger -1}) with A = diag(1/2, 2) passes; the
    other sign of omega fails.
    """
    c, s = Fraction(17, 8), Fraction(15, 8)
    a = ((c, 0, 0, -s), (0, 1, 0, 0), (0, 0, 1, 0), (-s, 0, 0, c))
    for z, holds in ((Fraction(1, 2), True), (Fraction(2), False)):
        s_mat, s_inv = Matrix.diag((z, 1 / z, 1 / z, z)), Matrix.diag((1 / z, z, z, 1 / z))
        report = residual_report(EXACT, _pconditions(spinor, s_mat, s_inv, a))
        assert len(report.entries) == 4 and report.all_exact_zero() is holds


def test_sign_flip_is_the_largest_swapped_pcondition(rep):
    """The control reads every entry of the four swapped P-conditions: their largest residual."""
    flip = LorentzParams("boost", (0, 3), 1.0)
    swapped = _pconditions_report(rep, spinor_transform(flip.inverse(), rep),
                                  spinor_transform(flip, rep), flip)
    sign_flip, noncommute = float_certificates(rep, grid_transforms(rep))[2]
    assert (sign_flip.label, noncommute.label) == ("sign-flip", "boost01-noncommute")
    assert sign_flip.residual == swapped.max_residual() > 0.1


@pytest.mark.parametrize("base", PLANES, ids=lambda p: f"{p.kind}{p.plane}")
def test_covariance_certificate(rep, base):
    s, s_inv = spinor_transform(base, rep), spinor_transform(base.inverse(), rep)
    report = residual_report(FLOAT, _certificate(rep, base, _transforms(base, rep, s, s_inv)))
    assert report.all_within(1e-10)
    tag = f"{base.kind}{base.plane[0]}{base.plane[1]}.w{base.omega:g}."
    labels = [e.label for e in report]
    assert labels[:2] == [tag + "vector.metric", tag + "S.inverse"]
    assert labels[2:6] == [f"{tag}Pconditions.nu{nu}" for nu in range(4)]
    assert labels[6:] == [f"{tag}Pprime.P{k}.idempotent" for k in (1, 2, 3, 4)]


def test_pi_commutation(rep):
    grid, report, _ = float_certificates(rep, grid_transforms(rep))
    assert report.all_within(1e-12)
    assert len(report.entries) == 12 and {e.backend for e in report} == {FLOAT}
    assert len(grid.entries) == 12 * 10 and grid.all_within(1e-10)
    exact = [e for _, e in _covariance_records(rep) if e.label.startswith("commute.sigma")]
    assert len(exact) == 4
    assert all(e.exact_zero for e in exact)


def test_float_certificates_leave_the_exact_relations_unmeasured(spinor):
    copy = GammaRep(name="spinor", gammas=spinor.gammas, gamma5=spinor.gamma5)
    kept = _covariance_records.cache_info().currsize
    grid, commutators, _ = float_certificates(copy, grid_transforms(copy))
    assert grid.all_within(1e-10) and commutators.all_within(1e-12)
    assert _covariance_records.cache_info().currsize == kept


def test_boost_off_axis_does_not_commute(spinor):
    from diracsplit.matrices import commutator

    s = spinor_transform(LorentzParams("boost", (0, 1), 1.0), spinor)
    p1 = spinor.on(FLOAT).p[0]
    assert commutator(s, p1).max_abs() > 0.1


# -- special frame ----------------------------------------------------------------


def test_special_frame_witness():
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    rot, boost = special_frame(p)
    assert rot.plane == (1, 2) and boost.plane == (0, 3)
    assert abs(rot.omega - math.pi / 4) <= 1e-15
    assert boost.omega == 0.0
    q = transformed_momentum(vector_transform(boost),
                             transformed_momentum(vector_transform(rot), p))
    assert abs(q.p[1] - math.sqrt(8)) <= 1e-12
    assert abs(q.p[2]) <= 1e-12
    assert abs(q.p[3]) <= 1e-12


def test_special_frame_transform_order_immaterial():
    p = FourMomentum.on_shell(1.7, (0.3, -2.5, 4.0))
    rot, boost = special_frame(p)
    a_rot, a_boost = vector_transform(rot), vector_transform(boost)
    q1 = transformed_momentum(a_boost, transformed_momentum(a_rot, p))
    q2 = transformed_momentum(a_rot, transformed_momentum(a_boost, p))
    assert max(abs(a - b) for a, b in zip(q1.p, q2.p)) <= 1e-12


@given(masses, spatial)
@settings(max_examples=60)
def test_special_frame_fuzz(m, sp):
    p = FourMomentum.on_shell(m, sp)
    rot, boost = special_frame(p)
    q = transformed_momentum(vector_transform(boost),
                             transformed_momentum(vector_transform(rot), p))
    assert abs(q.p[2]) <= 1e-10
    assert abs(q.p[3]) <= 1e-10
    assert abs(q.minkowski_square() - m * m) <= 1e-10 * (1.0 + m * m)


def test_special_frame_needs_mass():
    k = FourMomentum.floats((3.0, 3.0, 0.0, 0.0), 0.0)
    with pytest.raises(SpecialFrameRequiresMass):
        special_frame(k)


def test_special_frame_needs_shell():
    p = FourMomentum.floats((4.0, 2.0, 2.0, 0.0), 1.0)
    with pytest.raises(OffShell):
        special_frame(p)


# -- terms under transformations ----------------------------------------------------


def _transformed(term, params, rep):
    """The term's amplitude through S at its momentum through a, as the covariance fuzz moves it."""
    amp = tuple(a.to_complex() if term.backend == EXACT else a for a in term.amplitude)
    return PlaneWaveTerm(spinor_transform(params, rep).apply(amp),
                         transformed_momentum(vector_transform(params), term.momentum),
                         term.freq_sign)


def test_transformed_solution_still_solves(rep):
    p = FourMomentum.on_shell(1.0, (2.0, 2.0, 0.0))
    u = u_spinor(p, rep, 1)
    for base in PLANES:
        g = field_of(_transformed(u, base, rep), rep)
        assert dirac_residual(g, 1.0).max_abs() <= 1e-10


def test_transform_promotes_exact_fields(spinor):
    p = FourMomentum.exact((3, 2, 2, 0), 1)
    moved = _transformed(u_spinor(p, spinor, 1), LorentzParams("rotation", (1, 2), 0.5), spinor)
    assert (moved.backend, moved.momentum.mass) == (FLOAT, 1.0)
    assert dirac_residual(field_of(moved, spinor), 1.0).max_abs() <= 1e-12


def test_reduced_operator_in_special_frame(spinor):
    p = FourMomentum.on_shell(1.3, (1.0, -2.0, 0.7))
    rot, boost = special_frame(p)
    amp, q, s = _transformed(_transformed(u_spinor(p, spinor, 2), rot, spinor), boost, spinor)
    # gamma^0 q0 - gamma^1 q1 - m: the frame's q2 and q3 are zero up to roundoff, and dropped
    reduced = dirac_matrix(spinor, FourMomentum((q.p[0], q.p[1], 0.0, 0.0), 1.3, FLOAT), s, 1.3)
    assert max(abs(a) for a in reduced.apply(amp)) <= 1e-10


# -- nothing kept on a transformation; the grid built once per basis ------------------


def test_a_transformation_keeps_nothing(rep):
    """A ``LorentzParams`` holds its three fields alone; each S is built afresh, bit for bit."""
    params = LorentzParams("boost", (0, 3), 0.7)
    assert LorentzParams.__slots__ == ("kind", "plane", "omega")
    s = spinor_transform(params, rep)
    again = spinor_transform(LorentzParams("boost", (0, 3), 0.7), rep)
    assert again is not s and repr(again.entries) == repr(s.entries)
    assert vector_transform(params) == vector_transform(params)


def test_inverse_and_transformed_projectors_are_kept(rep):
    """The grid of a basis is each transformation's (S, S^-1, a, S P_k S^-1); the suites keep it."""
    from diracsplit import suites

    grid = grid_transforms(rep)
    assert len(grid) == len(COVARIANCE_GRID) == 12
    for params, (s, s_inv, a, primes) in zip(COVARIANCE_GRID, grid):
        assert repr(s.entries) == repr(spinor_transform(params, rep).entries)
        assert repr(s_inv.entries) == repr(spinor_transform(params.inverse(), rep).entries)
        assert a == vector_transform(params)
        assert [repr(p.entries) for p in primes] == \
            [repr((s @ p @ s_inv).entries) for p in rep.on(FLOAT).p]
    kept = suites._covariance_grid(rep)
    assert suites._covariance_grid(rep) is kept and repr(kept) == repr(grid)


def test_a_cold_grid_builds_each_spinor_transform_once(rep, monkeypatch):
    """Twelve S for the twelve grid transformations: each S^-1 is the S at -omega beside it."""
    from diracsplit import lorentz

    built = []
    spinor = lorentz.spinor_transform

    def counted(params, rep):
        built.append(params)
        return spinor(params, rep)

    monkeypatch.setattr(lorentz, "spinor_transform", counted)
    grid_transforms(rep)
    assert built == list(COVARIANCE_GRID)
    assert [COVARIANCE_GRID[i ^ 1] for i in range(12)] == [p.inverse() for p in COVARIANCE_GRID]


def _count_grid_builds(monkeypatch) -> list:
    """Record (params, basis name) of every ``lorentz._transforms`` call."""
    from diracsplit import lorentz

    built = []
    transforms = lorentz._transforms

    def counted(params, rep, s, s_inv):
        built.append((params, rep.name))
        return transforms(params, rep, s, s_inv)

    monkeypatch.setattr(lorentz, "_transforms", counted)
    return built


@pytest.mark.parametrize("suite_rep", ("spinor", "all"))
def test_covariance_fuzz_builds_each_spinor_transform_once(suite_rep, monkeypatch):
    """Each grid transformation's S, S^-1, a and P' are built once per basis and process.

    The certificates and the covariance fuzz of a basis read one kept
    grid, however many runs and trials read it.
    """
    from diracsplit import suites
    from diracsplit.suites import RunConfig, run

    suites._covariance_grid.cache_clear()
    suites._lorentz_certificates.cache_clear()
    built = _count_grid_builds(monkeypatch)
    config = RunConfig(suite="covariance", rep=suite_rep, backend="float", trials=13)
    assert run(config).failed == 0 and run(config).failed == 0
    names = ("spinor", "standard", "majorana") if suite_rep == "all" else (suite_rep,)
    assert sorted(built, key=repr) == sorted(
        ((params, name) for name in names for params in COVARIANCE_GRID), key=repr)


@pytest.mark.parametrize("suite_rep", ("spinor", "all"))
def test_a_warm_covariance_run_rebuilds_no_inverse_or_transformed_projector(suite_rep,
                                                                           monkeypatch):
    """S, S^-1, a and S P_k S^-1 of the grid's transformations are built once per process.

    Only the special-frame fuzz builds S in a second run: a rotation and a
    boost for each trial's own momentum.  No float matrix product is made.
    """
    from diracsplit import kernels, lorentz, suites
    from diracsplit.suites import RunConfig, run

    config = RunConfig(suite="covariance", rep=suite_rep, backend="float", trials=7)
    run(config)
    built = _count_grid_builds(monkeypatch)
    calls = {"S": 0, "mul": 0}
    spinor, mul = lorentz.spinor_transform, kernels.mul

    def counted_spinor(params, rep):
        calls["S"] += 1
        return spinor(params, rep)

    def counted_mul(n, a, b):
        calls["mul"] += 1
        return mul(n, a, b)

    for module in (lorentz, suites):
        monkeypatch.setattr(module, "spinor_transform", counted_spinor)
    monkeypatch.setattr(kernels, "mul", counted_mul)
    assert run(config).failed == 0
    assert (calls, built) == ({"S": 2 * 7, "mul": 0}, [])


def test_vector_transform_sums_left_to_right():
    rows = ((1.0, 1.0, 1.0, 0.0),) + ((0.0, 0.0, 0.0, 0.0),) * 3
    moved = transformed_momentum(rows, FourMomentum.floats((1e16, 1.0, -1e16, 0.0), 0))
    # a compensated sum (``sum`` on Python 3.12 and later) gives 1.0
    assert repr(moved.p[0]) == "0.0"
