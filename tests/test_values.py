"""The value and record classes: construction, ==, hash, repr, immutability, pickling."""

import copy
import pickle

import pytest

from diracsplit import (
    FourMomentum,
    GammaRep,
    GaussianRational,
    LorentzParams,
    Matrix,
    Report,
    ResidualEntry,
    field_of,
    u_spinor,
    vector_transform,
)
from diracsplit.cli import _CONFIG_KEYS
from diracsplit.gamma import build_rep, intertwiner
from diracsplit.scalars import EXACT, FLOAT
from diracsplit.suites import DEFAULT_SEED, RunConfig


def _witness_field():
    spinor = build_rep("spinor")
    return field_of(u_spinor(FourMomentum.exact((3, 2, 2, 0), 1), spinor, 1), spinor)


ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip", (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy),
    ids=("pickle", "copy", "deepcopy"))


@ROUNDTRIPS
@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_a_momentum_round_trips_to_an_equal_value_with_an_empty_memo(roundtrip, backend):
    momentum = FourMomentum.exact((3, 2, 2, 0), 1)
    if backend == FLOAT:
        momentum = momentum.to_float()
    momentum._symbols["kept"] = object()
    got = roundtrip(momentum)
    assert (got == momentum, hash(got) == hash(momentum), repr(got) == repr(momentum)) \
        == (True, True, True)
    assert got._symbols == {} and momentum._symbols != {}


@ROUNDTRIPS
def test_lorentz_params_round_trip_to_an_equal_value(roundtrip):
    params = LorentzParams("rotation", (1, 3), 0.4)
    got = roundtrip(params)
    assert (got == params, hash(got) == hash(params), repr(got) == repr(params)) \
        == (True, True, True)
    assert LorentzParams.__slots__ == LorentzParams._fields == ("kind", "plane", "omega")
    assert repr(params) == "LorentzParams(kind='rotation', plane=(1, 3), omega=0.4)"


def test_lorentz_params_validate_on_every_construction():
    assert LorentzParams("boost", (0, 2), 1).omega == 1.0
    assert LorentzParams("boost", (0, 2), 0.5).inverse() == LorentzParams("boost", (0, 2), -0.5)
    with pytest.raises(ValueError, match="boost plane"):
        LorentzParams("boost", (1, 2), 0.5)
    with pytest.raises(ValueError, match="unknown kind"):
        LorentzParams(kind="shear", plane=(0, 1), omega=0.5)


@pytest.mark.parametrize("value", (FourMomentum.exact((1, 0, 0, 0), 1),
                                   LorentzParams("boost", (0, 1), 0.1),
                                   ResidualEntry("a", "Dirac1", FLOAT, 0.5, False),
                                   RunConfig(), build_rep("spinor"), Matrix.identity(4),
                                   GaussianRational(1, 2), _witness_field()),
                         ids=lambda v: type(v).__name__)
def test_a_value_refuses_assignment_and_deletion(value):
    name = value._fields[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="immutable"):
        value.other = None


def test_a_field_copies_through_its_constructor():
    """``copy`` keeps the basis and the terms; ``deepcopy`` and ``pickle`` copy the basis too."""
    field = _witness_field()
    shallow = copy.copy(field)
    assert (shallow is not field, shallow.rep is field.rep, shallow.terms == field.terms) \
        == (True, True, True)
    assert all(a is b for a, b in zip(shallow.terms, field.terms))
    for got in (copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert (got.terms == field.terms, got.rep is field.rep, got.rep.name, got.ncomp,
                got.backend) == (True, False, "spinor", 4, EXACT)


def test_entries_intertwiners_and_vector_transforms_compare_by_their_fields():
    entry = ResidualEntry("a", "Dirac1", FLOAT, 0.5, False)
    same = ResidualEntry(label="a", equation="Dirac1", backend=FLOAT, residual=0.5,
                         exact_zero=False)
    assert (entry == same, hash(entry) == hash(same)) == (True, True)
    assert entry != ResidualEntry("a", "Dirac1", FLOAT, 0.25, False)
    assert entry != ("a", "Dirac1", FLOAT, 0.5, False)
    assert repr(entry) == ("ResidualEntry(label='a', equation='Dirac1', backend='float', "
                           "residual=0.5, exact_zero=False)")
    standard, spinor = build_rep("standard"), build_rep("spinor")
    link, again = intertwiner(standard, spinor), intertwiner(standard, spinor)
    assert (again == link, hash(again) == hash(link), again[0] is not link[0]) == (True, True, True)
    assert again != (link[0], 4)
    params = LorentzParams("boost", (0, 3), 0.7)
    a, b = vector_transform(params), vector_transform(LorentzParams("boost", (0, 3), 0.7))
    assert (a == b, hash(a) == hash(b), a is not b) == (True, True, True)
    assert a != vector_transform(params.inverse())
    assert type(a) is tuple and [(type(row), len(row)) for row in a] == [(tuple, 4)] * 4


def test_bases_and_views_compare_by_identity():
    spinor = build_rep("spinor")
    twin = GammaRep(name=spinor.name, gammas=spinor.gammas, gamma5=spinor.gamma5)
    assert (twin == spinor, twin.on(EXACT) == spinor.on(EXACT)) == (False, False)
    assert len({spinor, twin, spinor.on(EXACT), twin.on(EXACT)}) == 4
    assert repr(spinor.on(FLOAT)).startswith("RepView(rep=GammaRep(name='spinor', gammas=(")


def test_reports_hold_their_own_checks_and_are_mutable_records():
    first, second = Report({}), Report(config={})
    first.checks.append("x")
    assert (first.checks, second.checks) == (["x"], [])
    second.wall_ms = 1.5
    assert (second.wall_ms, second == Report({}, [], 1.5), second == Report({})) \
        == (1.5, True, False)
    with pytest.raises(TypeError):
        hash(second)
    assert copy.deepcopy(first) == first


def test_run_config_defaults_and_keywords():
    config = RunConfig()
    assert config.to_dict() == {"suite": "all", "rep": "spinor", "backend": "both",
                                "tol": 1e-10, "trials": 1000, "seed": DEFAULT_SEED,
                                "mass_range": [0.1, 10.0], "momentum_range": [0.0, 10.0]}
    assert tuple(config.to_dict()) == _CONFIG_KEYS == RunConfig._fields
    custom = RunConfig(trials=7, rep="all")
    assert (custom.trials, custom.rep, custom.suite) == (7, "all", "all")
    assert custom == RunConfig("all", "all", "both", 1e-10, 7)
    assert hash(custom) == hash(RunConfig(rep="all", trials=7)) and custom != config
    with pytest.raises(TypeError):
        RunConfig(trial=7)
    with pytest.raises(AttributeError, match="immutable"):
        config.trials = 5
