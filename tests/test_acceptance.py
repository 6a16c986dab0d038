"""Acceptance gate: every shipped guarantee, one verdict line per criterion.

Criteria run against one full default-configuration report (1000 fuzz
trials, seed 0xD14AC0DE, tol 1e-10).  Tolerances are pinned here as
literals on purpose: if a default ever drifts, this module fails rather
than following it.
"""

import hashlib
import json

import pytest

from diracsplit import suites
from diracsplit.suites import RunConfig, run
from field_helpers import json_dict

TOL = 1e-10
TOL_STRICT = 1e-12
OFFSHELL_FLOOR = 1e-3
CONTROL_FLOOR = 0.1

REPS = ("spinor", "standard", "majorana")

WITNESS_EQUATIONS = {
    "def3", "def4", "id1", "id2",
    "constituent1", "constituent2", "constituent1/4", "constituent2/4",
    "constituent1/P", "constituent2/P", "constituents/3", "identities",
    "psi",
}

SPLIT_FUZZ_IDS = {
    "split.fuzz.input-dirac-residual",
    "split.fuzz.u-normalization",
    "split.fuzz.u-orthogonality",
    "split.fuzz.recombine.xi1",
    "split.fuzz.recombine.xi2",
    "split.fuzz.recombine.psi",
    "split.fuzz.identity.id1",
    "split.fuzz.identity.id2",
    "split.fuzz.identity.repfree.P1",
    "split.fuzz.identity.repfree.P2",
    "split.fuzz.constituent1.line1",
    "split.fuzz.constituent1.line2",
    "split.fuzz.constituent1.line3",
    "split.fuzz.constituent2.line1",
    "split.fuzz.constituent2.line2",
    "split.fuzz.constituent2.line4",
    "split.fuzz.constituent1-4.line4",
    "split.fuzz.constituent2-4.line3",
    "split.fuzz.constituent1-P.dirac",
    "split.fuzz.constituent2-P.dirac",
    "split.fuzz.constituents3.P1",
    "split.fuzz.constituents3.P2",
}

#: (count, sha256) of the full records (id, paper_eq, backend, repr of the
#: residual, exact_zero, pass) of the default report, in report order, in the
#: format of ``tests/test_suites.py``'s ``_RECORD_DIGESTS``: any change that
#: moves a default record, even a float residual at roundoff, updates it on purpose
DEFAULT_RECORD_DIGEST = (449, "28fede72c25069cadb5149c46351f5b20fc7c12f91f3d85615a6c23c7645c144")

#: sha256 of the default report's ``to_json()``, the bytes ``verify all --json``
#: writes, with its ``"wall_ms"`` line removed: config, records and summary
#: layout pinned to the byte
DEFAULT_JSON_DIGEST = "7c14a235f38732dbcc0807f6ae87c3bcf4474f53d3a3456f0185fad154b4a937"

CONTROL_IDS = (
    "split.control.offshell-dirac",
    "split.control.massless-rejected",
    "covariance.spinor.control.sign-flip",
    "projectors.control.identity-for-v",
    "covariance.spinor.control.boost01-noncommute",
)


@pytest.fixture(scope="module")
def report():
    return run(RunConfig())


@pytest.fixture(scope="module")
def by_id(report):
    index = {c.check_id: c for c in report.checks}
    assert len(index) == len(report.checks)
    return index


def _verdict(num, name, ok, detail=""):
    print(f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _structural_ids(rep):
    ids = []
    for mu in range(4):
        for nu in range(mu, 4):
            ids.append(f"clifford.{rep}.anticommute.{mu}{nu}")
    ids.append(f"clifford.{rep}.gamma5.definition")
    ids.append(f"clifford.{rep}.gamma5.square")
    ids.extend(f"clifford.{rep}.gamma5.anticommute.{mu}" for mu in range(4))
    for k in range(1, 5):
        ids.append(f"projectors.{rep}.p{k}.idempotent")
        ids.append(f"projectors.{rep}.p{k}.trace")
    for i in range(1, 5):
        for j in range(i + 1, 5):
            ids.append(f"projectors.{rep}.commute.p{i}p{j}")
    ids.append(f"projectors.{rep}.sum")
    ids.extend(
        f"projectors.{rep}.v-swap.{tail}"
        for tail in ("p1-to-p2", "p2-to-p1", "commute-gamma0", "commute-gamma1", "unitary")
    )
    return ids


def test_criterion1_structural_exact(by_id):
    missing, inexact = [], []
    for rep in REPS:
        for cid in _structural_ids(rep):
            rec = by_id.get(cid)
            if rec is None:
                missing.append(cid)
            elif not rec.exact_zero:
                inexact.append(cid)
    _verdict(
        1, "structural algebra exactly zero in all three bases",
        not missing and not inexact,
        f"missing={missing[:3]} inexact={inexact[:3]}",
    )


def test_criterion2_projector_diagonals(by_id):
    ids = (
        "projectors.spinor.p1.diagonal",
        "projectors.spinor.p2.diagonal",
        "projectors.spinor.qminus.diagonal",
    )
    ok = all(cid in by_id and by_id[cid].exact_zero for cid in ids)
    _verdict(2, "pinned spinor-basis diagonal forms", ok)


def test_criterion3_exact_witness_split(report, by_id):
    witness = [c for c in report.checks if c.check_id.startswith("split.witness.")]
    eqs = {c.equation for c in witness}
    not_exact = [c.check_id for c in witness if not c.exact_zero]
    ok = (
        bool(witness)
        and WITNESS_EQUATIONS <= eqs
        and not not_exact
        and by_id["split.dirac2-block.witness"].exact_zero
        and by_id["split.dirac2-block.tilted"].exact_zero
    )
    _verdict(
        3, "exact decomposition witness, every equation identically zero", ok,
        f"equations={sorted(eqs)} inexact={not_exact[:3]}",
    )


def test_criterion4_float_fuzz_1000(report, by_id):
    assert report.config["trials"] == 1000
    fuzz = {c.check_id: c for c in report.checks if c.check_id.startswith("split.fuzz.")}
    over = [cid for cid, c in fuzz.items() if c.residual is None or c.residual >= TOL]
    ok = set(fuzz) == SPLIT_FUZZ_IDS and not over
    _verdict(
        4, "1000-momentum fuzz below 1e-10 on every split equation", ok,
        f"ids={len(fuzz)} over={over[:3]}",
    )


def test_criterion5_covariance(report, by_id):
    problems = []

    for kindtag in ("boost03", "rotation12"):
        for w in ("0.5", "-0.5", "1", "-1", "3", "-3"):
            prefix = f"covariance.spinor.{kindtag}.w{w}"
            for nu in range(4):
                rec = by_id.get(f"{prefix}.Pconditions.nu{nu}")
                if rec is None or rec.residual is None or rec.residual >= TOL:
                    problems.append(f"{prefix}.Pconditions.nu{nu}")
            metric = by_id.get(f"{prefix}.vector.metric")
            if metric is None or metric.residual >= TOL_STRICT:
                problems.append(f"{prefix}.vector.metric")

    for sig in ("sigma03", "sigma12"):
        for i in (1, 2):
            rec = by_id.get(f"covariance.spinor.commute.{sig}.P{i}")
            if rec is None or not rec.exact_zero:
                problems.append(f"commute.{sig}.P{i}")
    for smat in ("S03", "S12"):
        for w in ("0.5", "1.3", "3"):
            for i in (1, 2):
                rec = by_id.get(f"covariance.spinor.commute.{smat}.w{w}.P{i}")
                if rec is None or rec.residual >= TOL_STRICT:
                    problems.append(f"commute.{smat}.w{w}.P{i}")

    for cid, bound in (
        ("covariance.spinor.fuzz.transformed-solution", TOL),
        ("covariance.spinor.fuzz.transformed-constituent1", TOL),
        ("covariance.spinor.fuzz.transformed-constituent2", TOL),
        ("covariance.special-frame.witness", TOL_STRICT),
        ("covariance.special-frame.fuzz.transverse-zeroed", TOL_STRICT),
        ("covariance.special-frame.fuzz.mass-drift", TOL_STRICT),
        ("covariance.special-frame.fuzz.P1a", TOL),
        ("covariance.special-frame.fuzz.P2a", TOL),
        ("covariance.special-frame.fuzz.v-maps-P1a-to-P2a", TOL),
    ):
        rec = by_id.get(cid)
        if rec is None or rec.residual is None or rec.residual >= bound:
            problems.append(cid)

    _verdict(5, "covariance, generator commutation, special frame", not problems,
             f"problems={problems[:4]}")


def test_criterion6_weyl_and_majorana(report, by_id):
    problems = []

    weyl_witness = [
        c for c in report.checks if c.check_id.startswith("weyl.witness.spinor.")
    ]
    if not weyl_witness or any(not c.exact_zero for c in weyl_witness):
        problems.append("weyl.witness.spinor")
    for ch in ("left", "right"):
        for tail in ("eta", "xi", "bispinor.Qminus", "bispinor.Qplus"):
            cid = f"weyl.fuzz.spinor.{ch}.{tail}"
            rec = by_id.get(cid)
            if rec is None or rec.residual is None or rec.residual >= TOL_STRICT:
                problems.append(cid)

    maj_witness = [
        c for c in report.checks if c.check_id.startswith("majorana.witness.s")
    ]
    if not maj_witness or any(not c.exact_zero for c in maj_witness):
        problems.append("majorana.witness")
    selfconj = by_id.get("majorana.fuzz.selfconj")
    if selfconj is None or selfconj.residual != 0.0:
        problems.append("majorana.fuzz.selfconj")
    for tail in ("eq1", "eq2", "xi-consistency", "eta-consistency"):
        rec = by_id.get(f"majorana.fuzz.{tail}")
        if rec is None or rec.residual >= TOL:
            problems.append(f"majorana.fuzz.{tail}")

    _verdict(6, "massless chiral and self-conjugate subsolutions", not problems,
             f"problems={problems[:4]}")


def test_criterion7_negative_controls(by_id):
    problems = []
    for cid in CONTROL_IDS:
        rec = by_id.get(cid)
        if rec is None or not rec.ok:
            problems.append(cid)
    offshell = by_id.get("split.control.offshell-dirac")
    if offshell is not None and offshell.residual <= OFFSHELL_FLOOR:
        problems.append("offshell residual too small")
    for cid in (
        "covariance.spinor.control.sign-flip",
        "covariance.spinor.control.boost01-noncommute",
        "projectors.control.identity-for-v",
    ):
        rec = by_id.get(cid)
        if rec is not None and rec.residual is not None and rec.residual <= CONTROL_FLOOR:
            problems.append(f"{cid} residual too small")
    _verdict(7, "all five negative controls fire", not problems,
             f"problems={problems}")


def test_criterion8_byte_determinism(report):
    fresh = run(RunConfig())
    d1, d2 = json_dict(report), json_dict(fresh)
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    b1 = json.dumps(d1, indent=2).encode()
    b2 = json.dumps(d2, indent=2).encode()
    _verdict(8, "byte-identical reports modulo wall_ms", b1 == b2)


def _record_digest(report):
    records = [(c.check_id, c.equation, c.backend, repr(c.residual), c.exact_zero, c.ok)
               for c in report.checks]
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_criterion9_default_records_pinned(report):
    digest = _record_digest(report)
    _verdict(9, "default records pinned to the last digit", digest == DEFAULT_RECORD_DIGEST,
             f"got={digest}")


def test_criterion9_default_json_pinned(report):
    lines = report.to_json().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith('  "wall_ms": '))
    assert len(kept) < len(report.to_json())
    digest = hashlib.sha256(kept.encode()).hexdigest()
    _verdict(9, "default JSON report pinned to the byte", digest == DEFAULT_JSON_DIGEST,
             f"got={digest}")


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_criterion9_holds_for_any_worker_count(workers, monkeypatch):
    """The fuzz campaigns shared between ``workers`` processes give the pinned records."""
    monkeypatch.setattr(suites, "_workers", lambda trials: workers)
    assert _record_digest(run(RunConfig())) == DEFAULT_RECORD_DIGEST
