"""Fleet audits count hostile-document rejections, and only those.

Both fleet engines cold-verify a sample of finished instances.  A
document that fails verification is an *audit failure*, counted in the
report; anything else raised during the audit (a bug, a backend fault)
must propagate out of the run instead of being disguised as one.  Each
test swaps the audit's ``verify_document`` for a wrapper: either it
hands the real verifier a tampered copy of the pooled document, or it
verifies through a backend whose digest raises ``RuntimeError``.
"""

from __future__ import annotations

import pytest

from repro.document.verify import verify_document
from repro.fleet import (
    ClosedLoop,
    FleetConfig,
    RealFleetConfig,
    build_fleet,
    run_real_fleet,
    workload_from_spec,
)
from repro.fleet import fleet as sim_fleet
from repro.fleet import pool_exec
from repro.fleet.fleet import TFC_IDENTITY
from repro.workloads.participants import build_world

from ..document.tamper_cases import flip_base64

SPEC = "chain:3:2"


def _last_signature(document):
    return document.root.findall(".//CER/Signature")[-1]


def flip_signature(document) -> None:
    """Well-formed but wrong signature bytes (``TamperDetected``)."""
    flip_base64(_last_signature(document).find("SignatureValue"))


def garble_base64(document) -> None:
    """Signature bytes that are not base64 at all (``XmlSecError``)."""
    _last_signature(document).find("SignatureValue").text = "!!not base64"


def strip_signature(document) -> None:
    """A CER whose ``<Signature>`` is gone (``DocumentFormatError``)."""
    _last_signature(document).tag = "Unsigned"


TAMPERINGS = [flip_signature, garble_base64, strip_signature]


def tampered_audit(tamper):
    """``verify_document`` as the audit sees it, on a tampered copy."""

    def audit_verify(document, *args, **kwargs):
        copy = document.clone()
        tamper(copy)
        return verify_document(copy, *args, **kwargs)

    return audit_verify


class FaultyBackend:
    """Delegates to a real backend, except that every digest raises."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def digest(self, data: bytes) -> bytes:
        raise RuntimeError("backend fault")


def faulty_audit(document, directory, backend, **kwargs):
    return verify_document(document, directory, FaultyBackend(backend),
                           **kwargs)


def run_sim():
    fleet = build_fleet(
        workload_from_spec(SPEC),
        FleetConfig(arrivals=ClosedLoop(instances=4, concurrency=2),
                    seed=3, audit_every=2),
    )
    return fleet.run()


@pytest.fixture(scope="module")
def real_world():
    workload = workload_from_spec(SPEC)
    return build_world([*workload.identities, TFC_IDENTITY], bits=1024)


def run_real(world):
    # One worker runs inline, so the patched module attribute applies.
    return run_real_fleet(
        RealFleetConfig(spec=SPEC, instances=4, seed=11, workers=1,
                        audit_every=2),
        world=world,
    )


class TestSimFleetAudit:
    def test_pristine_run_has_no_failures(self):
        report = run_sim()
        assert report.instances_audited > 0
        assert report.audit_failures == 0

    @pytest.mark.parametrize("tamper", TAMPERINGS, ids=lambda t: t.__name__)
    def test_tampered_document_counts_as_failure(self, monkeypatch, tamper):
        monkeypatch.setattr(sim_fleet, "verify_document",
                            tampered_audit(tamper))
        report = run_sim()
        assert report.instances_audited > 0
        assert report.audit_failures == report.instances_audited

    def test_backend_fault_propagates(self, monkeypatch):
        monkeypatch.setattr(sim_fleet, "verify_document", faulty_audit)
        with pytest.raises(RuntimeError, match="backend fault"):
            run_sim()


class TestRealFleetAudit:
    @pytest.mark.parametrize("tamper", TAMPERINGS, ids=lambda t: t.__name__)
    def test_tampered_document_counts_as_failure(self, monkeypatch,
                                                 real_world, tamper):
        monkeypatch.setattr(pool_exec, "verify_document",
                            tampered_audit(tamper))
        report = run_real(real_world)
        assert report.instances_audited == 2  # indices 0 and 2
        assert report.audit_failures == 2

    def test_backend_fault_propagates(self, monkeypatch, real_world):
        monkeypatch.setattr(pool_exec, "verify_document", faulty_audit)
        with pytest.raises(RuntimeError, match="backend fault"):
            run_real(real_world)
