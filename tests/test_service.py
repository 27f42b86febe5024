"""The HTTP mapping service (:mod:`repro.service`), sockets-free.

:meth:`ClipService.dispatch` is the whole request surface — routing,
auth, deadlines, error envelopes, metrics — so everything here runs
in-process against it.  The real ``ThreadingHTTPServer`` shim is
covered by :mod:`tests.test_service_concurrency` (threads against a
bound socket) and by the CI smoke leg (a ``serve`` subprocess round-
tripped against CLI output).

The load-bearing contract: a transform served over HTTP is
byte-identical to what the CLI writes for the same mapping, document,
engine and execution mode.  The service is a deployment surface, not a
second implementation — it routes through the same
:class:`~repro.runtime.batch.BatchRunner` and the same shared
:class:`~repro.runtime.cache.PlanCache` the CLI uses.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import cli
from repro.core.mapping import ClipMapping
from repro.io import dumps
from repro.runtime import BatchMetrics, Fault, FaultInjector, Trace
from repro.scenarios import deptstore
from repro.service import (
    SIGNATURE_HEADER,
    ClipService,
    ServiceConfig,
    error_status,
    sign_body,
    status_for_failure,
    verify_signature,
)
from repro.service.config import resolve_setting
from repro.xml.serialize import to_xml


def make_service(**overrides) -> ClipService:
    """A service resolved against an *empty* environment, so ambient
    ``CLIP_SERVICE_*`` variables never leak into a test."""
    injector = overrides.pop("injector", None)
    return ClipService(
        ServiceConfig.resolve(environ={}, **overrides), injector=injector
    )


def register(service: ClipService, mapping: ClipMapping, query: str = "") -> str:
    response = service.dispatch(
        "POST", f"/mappings{query}", {}, dumps(mapping).encode()
    )
    assert response.status in (200, 201), response.body
    return json.loads(response.body)["fingerprint"]


@pytest.fixture
def service():
    return make_service()


@pytest.fixture
def mapping():
    return deptstore.mapping_fig3()


@pytest.fixture
def source_xml():
    return to_xml(deptstore.source_instance())


def invalid_mapping() -> ClipMapping:
    """A mapping that fails the Section III validity check (an unbound
    condition variable), so registration must refuse to compile it."""
    clip = ClipMapping(
        deptstore.source_schema(), deptstore.target_schema_departments()
    )
    clip.build("dept", "department", var="d", condition="$zz.x = 1")
    return clip


def cli_run_output(tmp_path, mapping: ClipMapping, source_xml: str,
                   *flags: str) -> bytes:
    """What ``python -m repro run`` writes for these inputs — the
    byte-identity reference for the service's transform response."""
    mapping_path = tmp_path / "mapping.json"
    source_path = tmp_path / "source.xml"
    out_path = tmp_path / "out.xml"
    mapping_path.write_text(dumps(mapping), encoding="utf-8")
    source_path.write_text(source_xml, encoding="utf-8")
    assert cli.main(
        ["run", str(mapping_path), str(source_path), "-o", str(out_path)]
        + list(flags)
    ) == 0
    return out_path.read_bytes()


class TestRegistration:
    def test_first_registration_compiles_and_reports_miss(
        self, service, mapping
    ):
        response = service.dispatch(
            "POST", "/mappings", {}, dumps(mapping).encode()
        )
        assert response.status == 201
        doc = json.loads(response.body)
        assert doc["format"] == "clip-service-mapping"
        assert doc["cache"] == "miss"
        assert doc["valid"] is True
        assert len(doc["fingerprint"]) == 64

    def test_second_registration_is_a_cache_hit(self, service, mapping):
        body = dumps(mapping).encode()
        first = service.dispatch("POST", "/mappings", {}, body)
        second = service.dispatch("POST", "/mappings", {}, body)
        assert first.status == 201
        assert second.status == 200
        assert json.loads(second.body)["cache"] == "hit"
        assert (
            json.loads(second.body)["fingerprint"]
            == json.loads(first.body)["fingerprint"]
        )

    def test_second_registration_hit_is_visible_in_metrics(
        self, service, mapping
    ):
        body = dumps(mapping).encode()
        service.dispatch("POST", "/mappings", {}, body)
        service.dispatch("POST", "/mappings", {}, body)
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_plan_cache_hits_total 1" in text
        assert "clip_service_plan_cache_misses_total 1" in text

    def test_distinct_exec_modes_register_distinct_fingerprints(
        self, service, mapping
    ):
        interp = register(service, mapping)
        codegen = register(service, mapping, "?exec_mode=codegen")
        assert interp != codegen
        listing = json.loads(service.dispatch("GET", "/mappings").body)
        assert {entry["fingerprint"] for entry in listing["mappings"]} == {
            interp, codegen,
        }

    def test_invalid_mapping_is_refused_with_422(self, service):
        response = service.dispatch(
            "POST", "/mappings", {}, dumps(invalid_mapping()).encode()
        )
        assert response.status == 422
        doc = json.loads(response.body)
        assert doc["error"] == "InvalidMappingError"
        assert doc["format"] == "clip-service-error"

    def test_malformed_mapping_json_is_400(self, service):
        response = service.dispatch("POST", "/mappings", {}, b"{nope")
        assert response.status == 400

    def test_unknown_engine_is_400(self, service, mapping):
        response = service.dispatch(
            "POST", "/mappings?engine=prolog", {}, dumps(mapping).encode()
        )
        assert response.status == 400

    def test_mapping_detail_reports_plan_without_skewing_stats(
        self, service, mapping
    ):
        fp = register(service, mapping)
        before = service.cache.stats
        detail = json.loads(
            service.dispatch("GET", f"/mappings/{fp}").body
        )
        after = service.cache.stats
        assert detail["cached"] is True
        assert detail["plan"]["optimize"] is True
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_unknown_mapping_detail_is_404(self, service):
        assert service.dispatch("GET", "/mappings/feedface").status == 404


class TestTransformByteIdentity:
    FIGURES = {
        "fig3": deptstore.mapping_fig3,
        "fig6": deptstore.mapping_fig6,
        "fig7": deptstore.mapping_fig7,
    }

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("exec_mode", ["interp", "codegen"])
    def test_transform_matches_cli_run_output(
        self, tmp_path, source_xml, figure, exec_mode
    ):
        mapping = self.FIGURES[figure]()
        expected = cli_run_output(
            tmp_path, mapping, source_xml, "--exec-mode", exec_mode
        )
        service = make_service()
        fp = register(service, mapping, f"?exec_mode={exec_mode}")
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        assert response.body == expected

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_no_optimize_transform_matches_cli(
        self, tmp_path, source_xml, figure
    ):
        mapping = self.FIGURES[figure]()
        expected = cli_run_output(
            tmp_path, mapping, source_xml, "--no-optimize"
        )
        service = make_service()
        fp = register(service, mapping, "?optimize=0")
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        assert response.body == expected

    def test_xquery_engine_matches_cli(self, tmp_path, source_xml, mapping):
        expected = cli_run_output(
            tmp_path, mapping, source_xml, "--engine", "xquery"
        )
        service = make_service()
        fp = register(service, mapping, "?engine=xquery")
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        assert response.body == expected

    def test_json_envelope_equals_raw_body(self, service, mapping, source_xml):
        fp = register(service, mapping)
        raw = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        envelope = service.dispatch(
            "POST", "/transform",
            {"Content-Type": "application/json"},
            json.dumps({"mapping": fp, "document": source_xml}).encode(),
        )
        assert envelope.status == 200
        assert envelope.body == raw.body

    def test_response_names_the_request_and_mapping(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        headers = dict(response.headers)
        assert headers["X-Clip-Request"] == "req-000001"
        assert headers["X-Clip-Mapping"] == fp


class TestTransformBatch:
    def test_batch_xml_matches_cli_batch_files(
        self, tmp_path, mapping, source_xml
    ):
        mapping_path = tmp_path / "mapping.json"
        mapping_path.write_text(dumps(mapping), encoding="utf-8")
        sources = []
        for index in range(3):
            path = tmp_path / f"source-{index}.xml"
            path.write_text(source_xml, encoding="utf-8")
            sources.append(str(path))
        out_dir = tmp_path / "out"
        assert cli.main(
            ["batch", str(mapping_path)] + sources
            + ["--output-dir", str(out_dir)]
        ) == 0
        expected = [
            (out_dir / f"source-{index}.out.xml").read_text(encoding="utf-8")
            for index in range(3)
        ]
        service = make_service()
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({"mapping": fp, "documents": [source_xml] * 3}).encode(),
        )
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["format"] == "clip-service-batch"
        assert doc["succeeded"] == 3
        assert [entry["xml"] for entry in doc["results"]] == expected
        assert [entry["index"] for entry in doc["results"]] == [0, 1, 2]

    def test_collect_isolates_a_malformed_document(
        self, mapping, source_xml, dead_letter_dir
    ):
        service = make_service(dead_letter_dir=str(dead_letter_dir))
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml, "<broken", source_xml],
            }).encode(),
        )
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["succeeded"] == 2
        assert [entry["index"] for entry in doc["results"]] == [0, 2]
        [failure] = doc["failures"]
        assert failure["index"] == 1
        assert failure["error"] == "XmlParseError"
        # The raw text — not a parsed instance — is what got persisted.
        [letter_path] = [
            path for path in doc["dead_letters"]
            if path.endswith(".xml")
        ]
        assert open(letter_path, encoding="utf-8").read() == "<broken"

    def test_fail_fast_parse_error_aborts_the_request(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml, "<broken"],
                "error_policy": "fail_fast",
            }).encode(),
        )
        assert response.status == 400
        assert json.loads(response.body)["error"] == "XmlParseError"

    def test_fail_fast_evaluation_failure_reports_source_index(
        self, mapping, source_xml
    ):
        service = make_service(
            injector=FaultInjector({1: Fault(kind="raise")})
        )
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml] * 3,
                "error_policy": "fail_fast",
            }).encode(),
        )
        assert response.status == 500
        doc = json.loads(response.body)
        assert doc["error"] == "ExecutionError"
        assert doc["attempts"] == 1

    def test_requested_workers_are_clamped_to_the_config_ceiling(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml],
                "workers": 64,
            }).encode(),
        )
        assert response.status == 200
        assert json.loads(response.body)["metrics"]["workers"] == 1

    def test_empty_document_list_is_400(self, service, mapping):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({"mapping": fp, "documents": []}).encode(),
        )
        assert response.status == 400


class TestDeadlines:
    def test_deadline_overrun_is_a_structured_504_and_dead_letters(
        self, mapping, source_xml, dead_letter_dir
    ):
        service = make_service(
            deadline=0.2,
            dead_letter_dir=str(dead_letter_dir),
            injector=FaultInjector({0: Fault(kind="delay", seconds=5.0)}),
        )
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 504
        doc = json.loads(response.body)
        assert doc["error"] == "DocumentTimeout"
        assert doc["timed_out"] is True
        assert doc["transient"] is True
        letters = [p for p in doc["dead_letters"] if p.endswith(".xml")]
        assert letters and all(os.path.exists(path) for path in letters)
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_dead_letters_total 1" in text
        assert "clip_service_document_failures_total 1" in text

    def test_request_deadline_can_shorten_but_not_extend(self, mapping):
        service = make_service(deadline=0.1)
        fp = register(service, mapping)
        # ?deadline=60 must not extend the configured 0.1 s budget.
        service.injector = FaultInjector(
            {0: Fault(kind="delay", seconds=5.0)}
        )
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}&deadline=60", {},
            to_xml(deptstore.source_instance()).encode(),
        )
        assert response.status == 504

    def test_nonpositive_request_deadline_is_400(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}&deadline=0", {},
            source_xml.encode(),
        )
        assert response.status == 400

    @staticmethod
    def _slow_parse(monkeypatch, seconds: float) -> None:
        """Make every document parse in the service take ``seconds``.

        Transform documents are parsed by the batch runner, inside the
        document's timed attempt."""
        from repro.runtime import batch
        from repro.xml.parser import parse_xml

        def slow(*args, **kwargs):
            import time

            time.sleep(seconds)
            return parse_xml(*args, **kwargs)

        monkeypatch.setattr(batch, "parse_xml", slow)

    def test_parse_overrun_is_a_504_document_failure(
        self, mapping, source_xml, dead_letter_dir, monkeypatch
    ):
        service = make_service(dead_letter_dir=str(dead_letter_dir))
        fp = register(service, mapping)
        self._slow_parse(monkeypatch, 1.0)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}&deadline=0.1", {},
            source_xml.encode(),
        )
        assert response.status == 504
        doc = json.loads(response.body)
        assert doc["error"] == "DocumentTimeout"
        assert doc["timed_out"] is True
        assert doc["attempts"] == 1
        [letter] = [p for p in doc["dead_letters"] if p.endswith(".xml")]
        assert open(letter, encoding="utf-8").read() == source_xml
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_document_failures_total 1" in text
        assert "clip_service_dead_letters_total 1" in text

    @pytest.mark.parametrize("policy", ["skip", "collect"])
    def test_batch_parse_overrun_aborts_the_request_with_504(
        self, mapping, source_xml, dead_letter_dir, monkeypatch, policy
    ):
        service = make_service(dead_letter_dir=str(dead_letter_dir))
        fp = register(service, mapping)
        self._slow_parse(monkeypatch, 1.0)
        envelope = {
            "mapping": fp, "documents": [source_xml], "error_policy": policy,
        }
        response = service.dispatch(
            "POST", "/transform/batch?deadline=0.1", {},
            json.dumps(envelope).encode(),
        )
        assert response.status == 504
        doc = json.loads(response.body)
        assert doc["format"] == "clip-service-error"
        assert doc["error"] == "DocumentTimeout"
        assert "dead_letters" not in doc
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_document_failures_total 0" in text


class TestErrorEnvelopes:
    def test_malformed_document_is_400_and_dead_letters_the_raw_text(
        self, mapping, dead_letter_dir
    ):
        service = make_service(dead_letter_dir=str(dead_letter_dir))
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, b"<not xml"
        )
        assert response.status == 400
        doc = json.loads(response.body)
        assert doc["error"] == "XmlParseError"
        assert doc["format"] == "clip-service-error"
        [letter] = [p for p in doc["dead_letters"] if p.endswith(".xml")]
        assert open(letter, encoding="utf-8").read() == "<not xml"

    @pytest.mark.parametrize("route,headers", [
        ("/transform?mapping=x", {"Content-Type": "application/json"}),
        ("/transform/batch", {}),
        ("/transform/delta", {}),
    ])
    def test_malformed_json_envelope_is_400_named_by_the_decoder(
        self, service, route, headers
    ):
        response = service.dispatch("POST", route, headers, b"{not json")
        assert response.status == 400
        assert json.loads(response.body)["error"] == "JSONDecodeError"

    def test_malformed_compose_envelope_is_400_service_error(self, service):
        response = service.dispatch("POST", "/mappings/compose", {}, b"\xff")
        assert response.status == 400
        assert json.loads(response.body)["error"] == "ServiceError"

    def test_unknown_request_id_is_404_service_error(self, service, source_xml):
        response = service.dispatch("GET", "/requests/req-999999")
        assert response.status == 404
        assert json.loads(response.body)["error"] == "ServiceError"
        delta = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({"request": "req-999999", "document": source_xml})
            .encode(),
        )
        assert delta.status == 404
        doc = json.loads(delta.body)
        assert doc["error"] == "ServiceError"
        assert doc["request"] == dict(delta.headers)["X-Clip-Request"]

    def test_unknown_mapping_is_404(self, service, source_xml):
        response = service.dispatch(
            "POST", "/transform?mapping=deadbeef", {}, source_xml.encode()
        )
        assert response.status == 404
        assert json.loads(response.body)["error"] == "UnknownMappingError"

    def test_missing_mapping_parameter_is_400(self, service, source_xml):
        assert service.dispatch(
            "POST", "/transform", {}, source_xml.encode()
        ).status == 400

    def test_unknown_route_is_404(self, service):
        response = service.dispatch("GET", "/nope")
        assert response.status == 404
        assert json.loads(response.body)["format"] == "clip-service-error"

    def test_status_mapping_covers_the_hierarchy(self):
        from repro import errors

        assert error_status(errors.AuthError("x")) == 401
        assert error_status(errors.UnknownMappingError("x")) == 404
        assert error_status(errors.PayloadTooLargeError("x")) == 413
        assert error_status(errors.InvalidMappingError("x")) == 422
        assert error_status(errors.OverloadError("x")) == 503
        assert error_status(errors.DocumentTimeout("x")) == 504
        assert error_status(errors.TransientError("x")) == 503
        assert error_status(errors.XmlParseError("x")) == 400
        assert error_status(errors.ExecutionError("x")) == 500
        assert error_status(ValueError("x")) == 400
        assert error_status(RuntimeError("x")) == 500

    def test_status_for_failure_resolves_class_names(self):
        from repro.runtime import DocumentFailure

        timed_out = DocumentFailure(
            index=0, error="DocumentTimeout", message="m",
            transient=True, timed_out=True,
        )
        assert status_for_failure(timed_out) == 504
        execution = DocumentFailure(index=0, error="ExecutionError", message="m")
        assert status_for_failure(execution) == 500
        unknown_transient = DocumentFailure(
            index=0, error="SomethingElse", message="m", transient=True
        )
        assert status_for_failure(unknown_transient) == 503

    def test_overload_sheds_with_503_but_not_observability(self, mapping):
        service = make_service(max_inflight=0)
        response = service.dispatch(
            "POST", "/mappings", {}, dumps(mapping).encode()
        )
        assert response.status == 503
        assert json.loads(response.body)["transient"] is True
        assert service.dispatch("GET", "/health").status == 200
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_requests_shed_total 1" in text

    def test_oversized_body_is_413(self, service, mapping):
        small = make_service(max_body=16)
        response = small.dispatch(
            "POST", "/mappings", {}, dumps(mapping).encode()
        )
        assert response.status == 413


class TestAuth:
    def test_unsigned_request_is_401_when_secret_is_set(self, mapping):
        service = make_service(secret="hunter2")
        response = service.dispatch(
            "POST", "/mappings", {}, dumps(mapping).encode()
        )
        assert response.status == 401
        assert json.loads(response.body)["error"] == "AuthError"

    def test_signed_request_is_accepted(self, mapping, source_xml):
        service = make_service(secret="hunter2")
        body = dumps(mapping).encode()
        response = service.dispatch(
            "POST", "/mappings",
            {SIGNATURE_HEADER: sign_body("hunter2", body)}, body,
        )
        assert response.status == 201
        fp = json.loads(response.body)["fingerprint"]
        doc = source_xml.encode()
        transformed = service.dispatch(
            "POST", f"/transform?mapping={fp}",
            {SIGNATURE_HEADER: "sha256=" + sign_body("hunter2", doc)}, doc,
        )
        assert transformed.status == 200

    def test_wrong_signature_is_401_and_counted(self, mapping):
        service = make_service(secret="hunter2")
        body = dumps(mapping).encode()
        response = service.dispatch(
            "POST", "/mappings", {SIGNATURE_HEADER: "00" * 32}, body
        )
        assert response.status == 401
        text = service.dispatch(
            "GET", "/metrics", {SIGNATURE_HEADER: sign_body("hunter2", b"")}
        ).body.decode()
        assert "clip_service_auth_failures_total 1" in text

    def test_health_is_exempt(self):
        service = make_service(secret="hunter2")
        assert service.dispatch("GET", "/health").status == 200

    def test_verify_signature_is_a_noop_without_a_secret(self):
        verify_signature(None, b"anything", None)


class TestRequestArtifacts:
    def test_metrics_artifact_parses_as_batch_metrics(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        request_id = dict(response.headers)["X-Clip-Request"]
        payload = json.loads(service.dispatch(
            "GET", f"/requests/{request_id}/metrics"
        ).body)
        metrics = BatchMetrics.from_dict(payload)
        assert metrics.documents == 1
        assert metrics.cache_hits == 1
        assert metrics.failures == 0

    def test_trace_artifact_parses_as_clip_trace(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}&trace=1", {},
            source_xml.encode(),
        )
        request_id = dict(response.headers)["X-Clip-Request"]
        payload = json.loads(service.dispatch(
            "GET", f"/requests/{request_id}/trace"
        ).body)
        trace = Trace.from_dict(payload)
        assert any(span["name"] == "batch" for span in trace.spans)

    def test_untraced_request_has_no_trace_artifact(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        request_id = dict(response.headers)["X-Clip-Request"]
        missing = service.dispatch("GET", f"/requests/{request_id}/trace")
        assert missing.status == 404
        assert "trace=1" in json.loads(missing.body)["message"]

    def test_explain_artifact_is_a_plan_explain_document(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        request_id = dict(response.headers)["X-Clip-Request"]
        payload = json.loads(service.dispatch(
            "GET", f"/requests/{request_id}/explain"
        ).body)
        assert payload["format"] == "clip-plan-explain"
        assert payload["optimize"] is True
        assert payload["result_elements"] > 0

    def test_transform_serializes_once_and_sizes_twice(
        self, service, mapping, source_xml, monkeypatch
    ):
        """One successful POST /transform serializes its result once
        (response and stored history share the text) and walks the
        trees twice (the runner's source and target counts; the stored
        explain reuses the target count)."""
        import repro.service.app as app_module
        from repro.xml import serialize
        from repro.xml.model import XmlElement

        fp = register(service, mapping)
        calls = {"to_xml": 0, "size": 0}
        real_to_xml, real_size = serialize.to_xml, XmlElement.size

        def counting_to_xml(*args, **kwargs):
            calls["to_xml"] += 1
            return real_to_xml(*args, **kwargs)

        def counting_size(self):
            calls["size"] += 1
            return real_size(self)

        monkeypatch.setattr(app_module, "to_xml", counting_to_xml)
        monkeypatch.setattr(serialize, "to_xml", counting_to_xml)
        monkeypatch.setattr(XmlElement, "size", counting_size)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        assert calls == {"to_xml": 1, "size": 2}
        monkeypatch.undo()
        from repro.xml.parser import parse_xml

        request_id = dict(response.headers)["X-Clip-Request"]
        explain = json.loads(service.dispatch(
            "GET", f"/requests/{request_id}/explain"
        ).body)
        assert explain["result_elements"] == parse_xml(
            response.body.decode()
        ).size()

    def test_history_is_bounded(self, mapping, source_xml):
        service = make_service(history=1)
        fp = register(service, mapping)
        first = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        second = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        first_id = dict(first.headers)["X-Clip-Request"]
        second_id = dict(second.headers)["X-Clip-Request"]
        assert service.dispatch("GET", f"/requests/{first_id}").status == 404
        assert service.dispatch("GET", f"/requests/{second_id}").status == 200

    def test_unknown_artifact_kind_is_404(self, service, mapping, source_xml):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        request_id = dict(response.headers)["X-Clip-Request"]
        assert service.dispatch(
            "GET", f"/requests/{request_id}/lineage"
        ).status == 404


class TestConfigResolution:
    def test_flag_beats_environment_beats_default(self):
        environ = {"CLIP_SERVICE_PORT": "9000"}
        assert resolve_setting(7000, "CLIP_SERVICE_PORT", 8317,
                               parse=int, environ=environ) == 7000
        assert resolve_setting(None, "CLIP_SERVICE_PORT", 8317,
                               parse=int, environ=environ) == 9000
        assert resolve_setting(None, "CLIP_SERVICE_PORT", 8317,
                               parse=int, environ={}) == 8317

    def test_blank_environment_value_falls_through(self):
        assert resolve_setting(None, "CLIP_SERVICE_HOST", "127.0.0.1",
                               environ={"CLIP_SERVICE_HOST": "  "}) == "127.0.0.1"

    def test_unparseable_environment_names_the_variable(self):
        with pytest.raises(ValueError, match="CLIP_SERVICE_PORT"):
            resolve_setting(None, "CLIP_SERVICE_PORT", 8317, parse=int,
                            environ={"CLIP_SERVICE_PORT": "banana"})

    def test_service_config_resolves_every_knob_from_environment(self):
        config = ServiceConfig.resolve(environ={
            "CLIP_SERVICE_HOST": "0.0.0.0",
            "CLIP_SERVICE_PORT": "9001",
            "CLIP_SERVICE_WORKERS": "4",
            "CLIP_SERVICE_DEADLINE": "2.5",
            "CLIP_SERVICE_SECRET": "sssh",
            "CLIP_SERVICE_DEAD_LETTER_DIR": "/tmp/dl",
            "CLIP_SERVICE_MAX_INFLIGHT": "8",
            "CLIP_SERVICE_MAX_BODY": "1024",
            "CLIP_SERVICE_HISTORY": "2",
        })
        assert config.host == "0.0.0.0"
        assert config.port == 9001
        assert config.workers == 4
        assert config.deadline == 2.5
        assert config.secret == "sssh"
        assert config.dead_letter_dir == "/tmp/dl"
        assert config.max_inflight == 8
        assert config.max_body == 1024
        assert config.history == 2

    def test_zero_deadline_means_unbounded(self):
        assert ServiceConfig.resolve(
            environ={"CLIP_SERVICE_DEADLINE": "0"}
        ).deadline is None
        assert ServiceConfig.resolve(deadline=-1.0, environ={}).deadline is None

    def test_flags_override_environment(self):
        config = ServiceConfig.resolve(
            port=7000, workers=2,
            environ={"CLIP_SERVICE_PORT": "9001", "CLIP_SERVICE_WORKERS": "8"},
        )
        assert config.port == 7000
        assert config.workers == 2

    def test_invalid_values_are_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig.resolve(port=70000, environ={})
        with pytest.raises(ValueError):
            ServiceConfig.resolve(workers=0, environ={})
        with pytest.raises(ValueError):
            ServiceConfig.resolve(history=0, environ={})


class TestServeCLI:
    def test_parser_accepts_serve(self):
        args = cli.build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
        assert args.handler is cli._cmd_serve

    def test_bad_environment_is_a_clean_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("CLIP_SERVICE_PORT", "banana")
        assert cli.main(["serve"]) == 2
        assert "CLIP_SERVICE_PORT" in capsys.readouterr().err


class TestTransformDelta:
    """``POST /transform/delta``: incremental re-transforms chained off
    a stored request's source/target pair."""

    def _transform(self, service, mapping, source_xml):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        return dict(response.headers)["X-Clip-Request"], response.body

    def _edited(self, source_xml: str) -> str:
        from repro.xml.parser import parse_xml

        doc = parse_xml(source_xml)
        field = doc.findall("dept")[0].findall("Proj")[0].find("pname")
        field.clear_text()
        field.set_text("Delta-Edited Project")
        return to_xml(doc)

    def test_delta_matches_a_fresh_full_transform(
        self, service, mapping, source_xml
    ):
        request_id, _body = self._transform(service, mapping, source_xml)
        edited = self._edited(source_xml)
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({"request": request_id, "document": edited}).encode(),
        )
        assert response.status == 200
        headers = dict(response.headers)
        assert headers["X-Clip-Incremental"] in (
            "unchanged", "scoped", "fallback"
        )
        fresh = make_service()
        fp = register(fresh, mapping)
        full = fresh.dispatch(
            "POST", f"/transform?mapping={fp}", {}, edited.encode()
        )
        assert response.body == full.body

    def test_unchanged_document_reports_unchanged_mode(
        self, service, mapping, source_xml
    ):
        request_id, body = self._transform(service, mapping, source_xml)
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps(
                {"request": request_id, "document": source_xml}
            ).encode(),
        )
        assert response.status == 200
        assert dict(response.headers)["X-Clip-Incremental"] == "unchanged"
        assert response.body == body

    def test_incremental_counters_appear_in_metrics(
        self, service, mapping, source_xml
    ):
        request_id, _body = self._transform(service, mapping, source_xml)
        service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps(
                {"request": request_id, "document": self._edited(source_xml)}
            ).encode(),
        )
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_incremental_hits_total" in text
        assert "clip_service_incremental_fallbacks_total" in text
        hits = [
            line
            for line in text.splitlines()
            if line.startswith("clip_service_incremental_")
            and not line.startswith("#")
        ]
        assert sum(int(line.split()[-1]) for line in hits) >= 1

    def test_unknown_base_request_is_404(self, service, mapping, source_xml):
        register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps(
                {"request": "req-999999", "document": source_xml}
            ).encode(),
        )
        assert response.status == 404

    def test_malformed_envelope_is_a_clean_400(self, service):
        response = service.dispatch(
            "POST", "/transform/delta", {}, b"[1, 2, 3]"
        )
        assert response.status == 400
        assert b"envelope" in response.body

    def test_slow_diff_is_bounded_by_the_request_deadline(
        self, mapping, source_xml, monkeypatch
    ):
        """The stored-pair parse, the diff and the incremental run share
        one request deadline: a diff that hangs is answered with the
        504 document-failure envelope long before it returns."""
        import time

        from repro.service import app

        service = make_service()
        request_id, _body = self._transform(service, mapping, source_xml)

        diff = app.compute_delta

        def slow_diff(*args, **kwargs):
            time.sleep(5.0)
            return diff(*args, **kwargs)

        monkeypatch.setattr(app, "compute_delta", slow_diff)
        started = time.monotonic()
        response = service.dispatch(
            "POST", "/transform/delta?deadline=0.2", {},
            json.dumps(
                {"request": request_id, "document": self._edited(source_xml)}
            ).encode(),
        )
        elapsed = time.monotonic() - started
        assert response.status == 504
        doc = json.loads(response.body)
        assert doc["format"] == "clip-service-error"
        assert doc["error"] == "DocumentTimeout"
        assert doc["timed_out"] is True
        assert doc["attempts"] == 1
        assert elapsed < 3.0, f"answered after {elapsed:.2f}s"
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_document_failures_total 1" in text

    def test_out_of_range_threshold_is_rejected(
        self, service, mapping, source_xml
    ):
        request_id, _body = self._transform(service, mapping, source_xml)
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({
                "request": request_id,
                "document": self._edited(source_xml),
                "threshold": 3.5,
            }).encode(),
        )
        assert response.status == 400


# -- the mapping algebra at the service surface ------------------------------


def _alpha_renamed_fig3() -> ClipMapping:
    """Figure 3 with its binder renamed: same canonical normal form,
    different structural fingerprint."""
    clip = ClipMapping(
        deptstore.source_schema(), deptstore.target_schema_fig3()
    )
    clip.build("dept/regEmp", "department/employee", var="z",
               condition="$z.sal.value > 11000")
    clip.value("dept/regEmp/ename/value", "department/employee/@name")
    return clip


class TestCanonicalizedCache:
    def test_default_cache_keeps_variants_apart(self, service):
        """Plan-cache keys are structural: an alpha-renamed variant is
        a different drawing, registered and compiled on its own."""
        first = service.dispatch(
            "POST", "/mappings", {}, dumps(deptstore.mapping_fig3()).encode()
        )
        second = service.dispatch(
            "POST", "/mappings", {}, dumps(_alpha_renamed_fig3()).encode()
        )
        assert first.status == 201
        assert second.status == 201
        assert (
            json.loads(first.body)["fingerprint"]
            != json.loads(second.body)["fingerprint"]
        )
        assert service.cache.stats.misses == 2
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_plan_cache_misses_total 2" in text
        assert "canonical" not in text


class TestCompose:
    """``POST /mappings/compose``: the algebra's composition as a
    service surface."""

    @staticmethod
    def _chain():
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import INT, STRING

        src_a = schema(elem(
            "S",
            elem("dept", "[0..*]", attr("dname", STRING),
                 elem("emp", "[0..*]", attr("name", STRING),
                      elem("sal", text=INT))),
        ))
        src_b = schema(elem(
            "B",
            elem("department", "[0..*]", attr("dn", STRING),
                 elem("employee", "[0..*]", attr("ename", STRING),
                      elem("pay", text=INT))),
        ))
        src_c = schema(elem(
            "C",
            elem("rich", "[0..*]", attr("who", STRING), attr("unit", STRING)),
        ))
        m_ab = ClipMapping(src_a, src_b)
        d = m_ab.build("dept", "department", var="d")
        m_ab.build("dept/emp", "department/employee", var="e", parent=d)
        m_ab.value("dept/@dname", "department/@dn")
        m_ab.value("dept/emp/@name", "department/employee/@ename")
        m_ab.value("dept/emp/sal/value", "department/employee/pay/value")
        m_bc = ClipMapping(src_b, src_c)
        ctx = m_bc.context("department", var="x")
        m_bc.build("department/employee", "rich", var="y", parent=ctx,
                   condition="$y.pay.value > 1000")
        m_bc.value("department/employee/@ename", "rich/@who")
        m_bc.value("department/@dn", "rich/@unit")
        grouped = ClipMapping(src_b, src_c)
        grouped.group("department/employee", "rich", var="w",
                      by=["$w.@ename"])
        grouped.value("department/employee/@ename", "rich/@who")
        return m_ab, m_bc, grouped

    @staticmethod
    def _source_xml() -> str:
        from repro.xml.model import element

        return to_xml(element(
            "S",
            element("dept",
                    element("emp", element("sal", text=1500), name="Ann"),
                    element("emp", element("sal", text=900), name="Bob"),
                    dname="ICT"),
            element("dept",
                    element("emp", element("sal", text=2000), name="Cid"),
                    dname="Sales"),
        ))

    def _compose(self, service, first_fp, second_fp, query=""):
        return service.dispatch(
            "POST", f"/mappings/compose{query}", {},
            json.dumps({"first": first_fp, "second": second_fp}).encode(),
        )

    def test_compose_registers_under_the_compose_fingerprint(self, service):
        from repro.algebra import compose_fingerprint

        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        fp_bc = register(service, m_bc)
        response = self._compose(service, fp_ab, fp_bc)
        assert response.status == 201, response.body
        doc = json.loads(response.body)
        assert doc["fingerprint"] == compose_fingerprint(fp_ab, fp_bc)
        assert doc["composed"] == [fp_ab, fp_bc]
        assert doc["cache"] == "miss"
        again = self._compose(service, fp_ab, fp_bc)
        assert again.status == 200
        assert json.loads(again.body)["cache"] == "hit"

    def test_transform_through_composition_matches_sequential(self, service):
        from repro import Transformer
        from repro.xml.parser import parse_xml

        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        fp_bc = register(service, m_bc)
        composed_fp = json.loads(
            self._compose(service, fp_ab, fp_bc).body
        )["fingerprint"]
        source_xml = self._source_xml()
        response = service.dispatch(
            "POST", f"/transform?mapping={composed_fp}", {},
            source_xml.encode(),
        )
        assert response.status == 200, response.body
        instance = parse_xml(source_xml, m_ab.source)
        sequential = Transformer(m_bc)(Transformer(m_ab)(instance))
        assert response.body.decode() == to_xml(sequential), (
            "composed transform diverges from sequential execution"
        )

    def test_compose_outside_fragment_is_422_with_reason(self, service):
        m_ab, _, grouped = self._chain()
        fp_ab = register(service, m_ab)
        fp_grouped = register(service, grouped)
        response = self._compose(service, fp_ab, fp_grouped)
        assert response.status == 422
        doc = json.loads(response.body)
        assert doc["error"] == "ComposeError"

    def test_compose_unknown_operand_is_404(self, service):
        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        assert self._compose(service, fp_ab, "feedface").status == 404

    def test_compose_envelope_without_operands_is_400(self, service):
        response = service.dispatch(
            "POST", "/mappings/compose", {}, json.dumps({}).encode()
        )
        assert response.status == 400

    def test_composing_a_composition_is_refused(self, service):
        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        fp_bc = register(service, m_bc)
        composed_fp = json.loads(
            self._compose(service, fp_ab, fp_bc).body
        )["fingerprint"]
        response = self._compose(service, composed_fp, fp_bc)
        assert response.status == 400
        assert b"compositions" in response.body

    @staticmethod
    def _edited_source_xml() -> str:
        """The chain's source with Bob's salary raised past the B→C
        filter, so the edit changes the composed output."""
        return TestCompose._source_xml().replace(
            '<sal>900</sal>', '<sal>1900</sal>'
        )

    def _cli_run_compose(self, tmp_path, source_xml: str) -> bytes:
        """What ``repro run --compose`` writes for the chain."""
        m_ab, m_bc, _ = self._chain()
        paths = [tmp_path / name for name in ("ab.json", "bc.json",
                                              "s.xml", "c.xml")]
        paths[0].write_text(dumps(m_ab), encoding="utf-8")
        paths[1].write_text(dumps(m_bc), encoding="utf-8")
        paths[2].write_text(source_xml, encoding="utf-8")
        assert cli.main([
            "run", str(paths[0]), str(paths[2]), "--compose", str(paths[1]),
            "-o", str(paths[3]),
        ]) == 0
        return paths[3].read_bytes()

    def test_batch_through_composition_matches_cli_run_compose(
        self, service, tmp_path
    ):
        composed_fp = self._composed(service)
        sources = [self._source_xml(), self._edited_source_xml()]
        assert sources[0] != sources[1]
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({"mapping": composed_fp, "documents": sources}).encode(),
        )
        assert response.status == 200, response.body
        doc = json.loads(response.body)
        assert doc["succeeded"] == 2
        for result, source_xml in zip(doc["results"], sources):
            expected = self._cli_run_compose(tmp_path, source_xml)
            assert result["xml"].encode("utf-8") == expected

    def test_delta_through_composition_matches_a_full_composed_transform(
        self, service
    ):
        composed_fp = self._composed(service)
        base = service.dispatch(
            "POST", f"/transform?mapping={composed_fp}", {},
            self._source_xml().encode(),
        )
        assert base.status == 200, base.body
        edited = self._edited_source_xml()
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({
                "request": dict(base.headers)["X-Clip-Request"],
                "document": edited,
            }).encode(),
        )
        assert response.status == 200, response.body
        headers = dict(response.headers)
        assert headers["X-Clip-Mapping"] == composed_fp
        assert headers["X-Clip-Incremental"] in (
            "unchanged", "scoped", "fallback"
        )
        full = service.dispatch(
            "POST", f"/transform?mapping={composed_fp}", {}, edited.encode()
        )
        assert full.status == 200
        assert response.body == full.body
        assert response.body != base.body

    def test_composed_batch_with_validate_is_400(self, service):
        composed_fp = self._composed(service)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": composed_fp,
                "documents": [self._source_xml()],
                "validate": True,
            }).encode(),
        )
        assert response.status == 400
        assert b"validate" in response.body

    def test_composition_appears_in_listing_and_detail(self, service):
        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        fp_bc = register(service, m_bc)
        composed_fp = json.loads(
            self._compose(service, fp_ab, fp_bc).body
        )["fingerprint"]
        listing = json.loads(service.dispatch("GET", "/mappings").body)
        composed_entries = [
            entry for entry in listing["mappings"]
            if entry.get("composed")
        ]
        assert [entry["fingerprint"] for entry in composed_entries] == [
            composed_fp
        ]
        detail = json.loads(
            service.dispatch("GET", f"/mappings/{composed_fp}").body
        )
        assert detail["cached"] is True
        assert detail["composed"] == [fp_ab, fp_bc]

    def _composed(self, service):
        m_ab, m_bc, _ = self._chain()
        fp_ab = register(service, m_ab)
        fp_bc = register(service, m_bc)
        return json.loads(self._compose(service, fp_ab, fp_bc).body)[
            "fingerprint"
        ]

    def test_failing_composed_plan_sheds_like_a_plain_transform(
        self, dead_letter_dir, monkeypatch
    ):
        """A composed transform whose plan raises answers with the same
        DocumentFailure envelope as a plain one, dead-letters the input,
        counts the failed document and stores the request."""
        from repro.errors import ExecutionError

        service = make_service(dead_letter_dir=str(dead_letter_dir))
        composed_fp = self._composed(service)

        def broken(doc, trace=None):
            raise ExecutionError("composed plan exploded")

        monkeypatch.setattr(
            service.cache.peek(composed_fp), "_runner", broken
        )
        response = service.dispatch(
            "POST", f"/transform?mapping={composed_fp}", {},
            self._source_xml().encode(),
        )
        assert response.status == 500
        doc = json.loads(response.body)
        assert doc["format"] == "clip-service-error"
        assert doc["error"] == "ExecutionError"
        assert doc["attempts"] == 1
        assert doc["timed_out"] is False
        [letter] = [p for p in doc["dead_letters"] if p.endswith(".xml")]
        assert os.path.exists(letter)
        text = service.dispatch("GET", "/metrics").body.decode()
        assert "clip_service_document_failures_total 1" in text
        assert "clip_service_dead_letters_total 1" in text
        stored = json.loads(
            service.dispatch("GET", f"/requests/{doc['request']}").body
        )
        assert stored["status"] == 500
        assert stored["mapping"] == composed_fp
        assert stored["metrics"]["failures"] == 1

    def test_composed_transform_reaches_the_fault_injector(self):
        service = make_service(
            deadline=0.2,
            injector=FaultInjector({0: Fault(kind="delay", seconds=5.0)}),
        )
        composed_fp = self._composed(service)
        response = service.dispatch(
            "POST", f"/transform?mapping={composed_fp}", {},
            self._source_xml().encode(),
        )
        assert response.status == 504
        doc = json.loads(response.body)
        assert doc["error"] == "DocumentTimeout"
        assert doc["timed_out"] is True


class TestThreadsPerRequest:
    """Under a deadline, a single or delta transform starts one thread:
    the document's parse runs inside the same timed call as its
    evaluation, not under a deadline thread of its own."""

    @staticmethod
    def _count_threads(monkeypatch) -> list:
        import threading

        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return started

    def test_transform_starts_one_thread(self, mapping, source_xml, monkeypatch):
        service = make_service(deadline=30.0)
        fp = register(service, mapping)
        started = self._count_threads(monkeypatch)
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        assert response.status == 200
        assert len(started) == 1

    def test_delta_starts_one_thread(self, mapping, source_xml, monkeypatch):
        service = make_service(deadline=30.0)
        fp = register(service, mapping)
        first = service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
        )
        request_id = dict(first.headers)["X-Clip-Request"]
        edited = TestTransformDelta()._edited(source_xml)
        started = self._count_threads(monkeypatch)
        response = service.dispatch(
            "POST", "/transform/delta", {},
            json.dumps({"request": request_id, "document": edited}).encode(),
        )
        assert response.status == 200
        assert len(started) == 1


class TestBatchParseFailures:
    """Batch documents are parsed by the runner, so a parse failure takes
    the runner's failure path: request positions, the document-failure
    envelope, the request history."""

    def test_fail_fast_parse_error_is_a_stored_document_failure(
        self, service, mapping, source_xml
    ):
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml, "<broken", source_xml],
                "error_policy": "fail_fast",
            }).encode(),
        )
        assert response.status == 400
        doc = json.loads(response.body)
        assert doc["error"] == "XmlParseError"
        assert (doc["timed_out"], doc["attempts"]) == (False, 1)
        stored = json.loads(
            service.dispatch("GET", f"/requests/{doc['request']}").body
        )
        assert stored["status"] == 400
        assert stored["metrics"]["failures"] == 1

    def test_fail_fast_batch_parse_overrun_is_504(
        self, mapping, source_xml, monkeypatch
    ):
        service = make_service()
        fp = register(service, mapping)
        TestDeadlines._slow_parse(monkeypatch, 1.0)
        response = service.dispatch(
            "POST", "/transform/batch?deadline=0.1", {},
            json.dumps({
                "mapping": fp, "documents": [source_xml],
                "error_policy": "fail_fast",
            }).encode(),
        )
        assert response.status == 504
        assert json.loads(response.body)["error"] == "DocumentTimeout"

    def test_injector_indices_address_request_positions(
        self, mapping, source_xml
    ):
        service = make_service(
            injector=FaultInjector({2: Fault(kind="raise")})
        )
        fp = register(service, mapping)
        response = service.dispatch(
            "POST", "/transform/batch", {},
            json.dumps({
                "mapping": fp,
                "documents": [source_xml, "<broken", source_xml],
            }).encode(),
        )
        assert response.status == 200
        doc = json.loads(response.body)
        assert [entry["index"] for entry in doc["results"]] == [0]
        assert [(f["index"], f["error"]) for f in doc["failures"]] == [
            (1, "XmlParseError"), (2, "ExecutionError"),
        ]
