#!/usr/bin/env python
"""Smoke the HTTP mapping service end to end, as CI does.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, then drives the full register → transform → observe loop from
the outside:

1.  register the Figure 3 and Figure 6 mappings (expect 201, cache
    miss) and re-register one (expect 200, cache *hit*);
2.  transform the paper's source instance through each and compare the
    response **byte for byte** against what ``python -m repro run``
    writes for the same inputs;
3.  round-trip a batch request and compare each document the same way;
    send a batch with a malformed middle document under ``collect`` and
    compare its results and its dead letter byte for byte against
    ``python -m repro batch --error-policy collect --dead-letter-dir``;
    and check that ``repro batch --workers 2`` (documents parsed in the
    pool workers) writes the same output files as ``--workers 1``;
4.  edit the source and ``POST /transform/delta`` against the step-2
    request: the incremental response must be byte-identical to a full
    transform of the edited document;
5.  register an A→B and a B→C mapping, ``POST /mappings/compose``
    them, and transform through the composed fingerprint — one document,
    a batch of the source and an edited copy, and a delta edit chained
    off the single transform: every result must be byte-identical to
    what ``python -m repro run --compose`` writes for its document;
6.  ``GET /health`` and ``GET /metrics`` (expect 200; the metrics text
    must show the plan-cache hit from step 1, the latency histogram
    buckets, and the incremental hit/fallback counters) — through real
    ``curl`` when it's on PATH, urllib otherwise, so the CI leg
    exercises an independent HTTP client.

Exit status: 0 on success, 1 on any mismatch, with a line per check.
Stdlib only; run from the repository root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

sys.path.insert(0, str(SRC))

from repro.core.mapping import ClipMapping  # noqa: E402
from repro.io import dumps  # noqa: E402
from repro.scenarios import deptstore  # noqa: E402
from repro.scenarios.workload import (  # noqa: E402
    DeptstoreSpec,
    make_deptstore_instance,
)
from repro.xml.model import element  # noqa: E402
from repro.xml.serialize import to_xml  # noqa: E402
from repro.xsd.dsl import attr, elem, schema  # noqa: E402
from repro.xsd.types import INT, STRING  # noqa: E402

FIGURES = {"fig3": deptstore.mapping_fig3, "fig6": deptstore.mapping_fig6}

_failures = 0


def check(name: str, ok: bool, detail: str = "") -> None:
    global _failures
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"  [{status}] {name}{suffix}")
    if not ok:
        _failures += 1


def http(method: str, url: str, body: bytes = b"",
         content_type: str = "") -> tuple[int, bytes]:
    status, _, body = http_full(method, url, body, content_type)
    return status, body


def http_full(method: str, url: str, body: bytes = b"",
              content_type: str = "") -> tuple[int, dict, bytes]:
    """Like :func:`http` but also returns the response headers."""
    request = urllib.request.Request(url, data=body or None, method=method)
    if content_type:
        request.add_header("Content-Type", content_type)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers or {}), error.read()


def curl_get(url: str) -> tuple[int, bytes]:
    """GET via real curl when available (an independent HTTP client),
    urllib otherwise."""
    curl = shutil.which("curl")
    if curl is None:
        return http("GET", url)
    result = subprocess.run(
        [curl, "--silent", "--show-error", "--max-time", "60",
         "--write-out", "%{http_code}", "--output", "-", url],
        capture_output=True, check=False,
    )
    if result.returncode != 0:
        return 0, result.stderr
    body, status = result.stdout[:-3], int(result.stdout[-3:])
    return status, body


def cli_run(tmp: Path, figure: str, *flags: str) -> bytes:
    """The byte-identity reference: what the CLI writes for the same
    mapping and source."""
    mapping_path = tmp / f"{figure}.json"
    source_path = tmp / "source.xml"
    out_path = tmp / f"{figure}.out.xml"
    mapping_path.write_text(dumps(FIGURES[figure]()), encoding="utf-8")
    source_path.write_text(to_xml(deptstore.source_instance()),
                           encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "repro", "run", str(mapping_path),
         str(source_path), "-o", str(out_path), *flags],
        check=True, env={"PYTHONPATH": str(SRC)}, cwd=REPO,
        capture_output=True,
    )
    return out_path.read_bytes()


def cli_batch(tmp: Path, figure: str, texts: list, out_dir: Path,
              *flags: str) -> int:
    """Run ``python -m repro batch`` over ``texts`` (written as
    ``doc<i>.xml``) into ``out_dir``; returns the exit status."""
    mapping_path = tmp / f"{figure}.json"
    mapping_path.write_text(dumps(FIGURES[figure]()), encoding="utf-8")
    paths = []
    for position, text in enumerate(texts):
        path = tmp / f"doc{position}.xml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(mapping_path), *paths,
         "--output-dir", str(out_dir), *flags],
        check=False, env={"PYTHONPATH": str(SRC)}, cwd=REPO,
        capture_output=True,
    ).returncode


def files_of(directory: Path) -> dict:
    """``{file name: bytes}`` of a directory's files."""
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir()) if path.is_file()}


def compose_chain() -> tuple[ClipMapping, ClipMapping, str]:
    """An A→B and a B→C mapping inside the composable fragment, plus an
    A source document."""
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
    source = to_xml(element(
        "S",
        element("dept",
                element("emp", element("sal", text=1500), name="Ann"),
                element("emp", element("sal", text=900), name="Bob"),
                dname="ICT"),
        element("dept",
                element("emp", element("sal", text=2000), name="Cid"),
                dname="Sales"),
    ))
    return m_ab, m_bc, source


def edit_compose_source(source: str) -> str:
    """The A source with Bob's salary raised past the B→C filter, so
    the edit changes the composed output."""
    edited = source.replace("<sal>900</sal>", "<sal>1900</sal>")
    assert edited != source
    return edited


def cli_run_compose(tmp: Path, m_ab: ClipMapping, m_bc: ClipMapping,
                    source: str) -> bytes:
    """The composed byte-identity reference: ``run --compose``."""
    paths = [tmp / name for name in ("ab.json", "bc.json", "s.xml", "c.xml")]
    paths[0].write_text(dumps(m_ab), encoding="utf-8")
    paths[1].write_text(dumps(m_bc), encoding="utf-8")
    paths[2].write_text(source, encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "repro", "run", str(paths[0]), str(paths[2]),
         "--compose", str(paths[1]), "-o", str(paths[3])],
        check=True, env={"PYTHONPATH": str(SRC)}, cwd=REPO,
        capture_output=True,
    )
    return paths[3].read_bytes()


def main() -> int:
    print("service smoke: booting `python -m repro serve --port 0`")
    server_letters = tempfile.TemporaryDirectory()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--dead-letter-dir", server_letters.name],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={"PYTHONPATH": str(SRC)}, cwd=REPO,
    )
    try:
        banner = server.stdout.readline().strip()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            print(f"  [FAIL] could not parse banner: {banner!r}")
            return 1
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"  listening at {base}")
        source = to_xml(deptstore.source_instance()).encode("utf-8")

        fingerprints = {}
        for figure, make_mapping in sorted(FIGURES.items()):
            status, body = http(
                "POST", f"{base}/mappings",
                dumps(make_mapping()).encode("utf-8"),
            )
            doc = json.loads(body)
            check(f"register {figure}", status == 201
                  and doc.get("cache") == "miss", f"{status} {body[:120]!r}")
            fingerprints[figure] = doc.get("fingerprint", "")

        status, body = http(
            "POST", f"{base}/mappings",
            dumps(FIGURES["fig3"]()).encode("utf-8"),
        )
        check("re-register fig3 is a plan-cache hit",
              status == 200 and json.loads(body).get("cache") == "hit",
              f"{status} {body[:120]!r}")

        delta_base_request = ""
        with tempfile.TemporaryDirectory() as tmp:
            for figure in sorted(FIGURES):
                expected = cli_run(Path(tmp), figure)
                status, headers, body = http_full(
                    "POST",
                    f"{base}/transform?mapping={fingerprints[figure]}",
                    source,
                )
                check(f"transform {figure} == CLI run output",
                      status == 200 and body == expected,
                      f"{status}, {len(body)} vs {len(expected)} bytes")
                if figure == "fig3":
                    delta_base_request = headers.get("X-Clip-Request", "")

            expected = cli_run(Path(tmp), "fig6")
            status, body = http(
                "POST", f"{base}/transform/batch",
                json.dumps({
                    "mapping": fingerprints["fig6"],
                    "documents": [source.decode("utf-8")] * 2,
                }).encode("utf-8"),
                content_type="application/json",
            )
            doc = json.loads(body) if status == 200 else {}
            check("batch transform == CLI run output",
                  status == 200
                  and doc.get("succeeded") == 2
                  and all(entry["xml"].encode("utf-8") == expected
                          for entry in doc.get("results", [])),
                  f"{status} {body[:160]!r}")

            tmp = Path(tmp)
            texts = [source.decode("utf-8"), "<dept><unclosed>",
                     source.decode("utf-8").replace("ICT", "Sales")]
            cli_out, cli_letters = tmp / "collect-out", tmp / "collect-dlq"
            code = cli_batch(tmp, "fig6", texts, cli_out,
                             "--error-policy", "collect",
                             "--dead-letter-dir", str(cli_letters))
            status, body = http(
                "POST", f"{base}/transform/batch",
                json.dumps({
                    "mapping": fingerprints["fig6"],
                    "documents": texts,
                    "error_policy": "collect",
                }).encode("utf-8"),
                content_type="application/json",
            )
            doc = json.loads(body) if status == 200 else {}
            served = {entry["index"]: entry["xml"].encode("utf-8")
                      for entry in doc.get("results", [])}
            written = files_of(cli_out) if cli_out.is_dir() else {}
            check("collect batch with a malformed document == CLI batch",
                  code == 0 and status == 200
                  and [f["index"] for f in doc.get("failures", [])] == [1]
                  and served == {0: written.get("doc0.out.xml"),
                                 2: written.get("doc2.out.xml")},
                  f"exit {code}, {status} {body[:160]!r}")
            letters = [Path(path) for path in doc.get("dead_letters", [])
                       if path.endswith(".xml")]
            cli_letter = cli_letters / "dead-letter-00001.xml"
            check("its dead letter == CLI batch dead letter",
                  len(letters) == 1 and cli_letter.is_file()
                  and letters[0].name == cli_letter.name
                  and letters[0].read_bytes() == cli_letter.read_bytes()
                  == texts[1].encode("utf-8"),
                  f"{letters!r}")

            texts = [
                to_xml(make_deptstore_instance(DeptstoreSpec(
                    departments=3, projects_per_dept=2,
                    employees_per_dept=4, seed=seed,
                )))
                for seed in range(5)
            ]
            outputs = {}
            for workers in ("1", "2"):
                out_dir = tmp / f"workers-{workers}"
                code = cli_batch(tmp, "fig6", texts, out_dir,
                                 "--workers", workers)
                outputs[workers] = (
                    code, files_of(out_dir) if out_dir.is_dir() else {}
                )
            check("CLI batch --workers 2 == --workers 1",
                  outputs["1"][0] == outputs["2"][0] == 0
                  and len(outputs["1"][1]) == len(texts)
                  and outputs["1"][1] == outputs["2"][1],
                  f"exit {outputs['1'][0]}/{outputs['2'][0]}, "
                  f"{len(outputs['1'][1])}/{len(outputs['2'][1])} files")

        edited_instance = deptstore.source_instance()
        for node in edited_instance.iter():
            if node.tag == "ename":
                node.clear_text()
                node.set_text("Edited Name")
                break
        edited = to_xml(edited_instance).encode("utf-8")
        status, expected = http(
            "POST", f"{base}/transform?mapping={fingerprints['fig3']}",
            edited,
        )
        check("transform of edited source (delta reference)", status == 200,
              f"{status}")
        status, headers, body = http_full(
            "POST", f"{base}/transform/delta",
            json.dumps({
                "request": delta_base_request,
                "document": edited.decode("utf-8"),
            }).encode("utf-8"),
            content_type="application/json",
        )
        check("delta transform == full transform of edited source",
              status == 200
              and body == expected
              and headers.get("X-Clip-Incremental", "")
              in ("unchanged", "scoped", "fallback"),
              f"{status}, {len(body)} vs {len(expected)} bytes, "
              f"mode={headers.get('X-Clip-Incremental')!r}")

        m_ab, m_bc, compose_source = compose_chain()
        operands = []
        for name, mapping in (("A→B", m_ab), ("B→C", m_bc)):
            status, body = http("POST", f"{base}/mappings",
                                dumps(mapping).encode("utf-8"))
            check(f"register {name}", status == 201,
                  f"{status} {body[:120]!r}")
            operands.append(json.loads(body).get("fingerprint", ""))
        status, body = http(
            "POST", f"{base}/mappings/compose",
            json.dumps({"first": operands[0],
                        "second": operands[1]}).encode("utf-8"),
            content_type="application/json",
        )
        check("compose A→B with B→C", status == 201,
              f"{status} {body[:120]!r}")
        composed_fp = json.loads(body).get("fingerprint", "")
        compose_edited = edit_compose_source(compose_source)
        with tempfile.TemporaryDirectory() as tmp:
            expected = cli_run_compose(Path(tmp), m_ab, m_bc, compose_source)
            expected_edited = cli_run_compose(
                Path(tmp), m_ab, m_bc, compose_edited
            )
        status, headers, body = http_full(
            "POST", f"{base}/transform?mapping={composed_fp}",
            compose_source.encode("utf-8"),
        )
        check("composed transform == CLI run --compose output",
              status == 200 and body == expected,
              f"{status}, {len(body)} vs {len(expected)} bytes")
        composed_request = headers.get("X-Clip-Request", "")

        status, body = http(
            "POST", f"{base}/transform/batch",
            json.dumps({
                "mapping": composed_fp,
                "documents": [compose_source, compose_edited],
            }).encode("utf-8"),
            content_type="application/json",
        )
        doc = json.loads(body) if status == 200 else {}
        results = [entry["xml"].encode("utf-8")
                   for entry in doc.get("results", [])]
        check("composed batch == CLI run --compose output per document",
              status == 200 and results == [expected, expected_edited],
              f"{status} {body[:160]!r}")

        status, headers, body = http_full(
            "POST", f"{base}/transform/delta",
            json.dumps({
                "request": composed_request,
                "document": compose_edited,
            }).encode("utf-8"),
            content_type="application/json",
        )
        check("composed delta == CLI run --compose of the edited source",
              status == 200
              and body == expected_edited
              and headers.get("X-Clip-Incremental", "")
              in ("unchanged", "scoped", "fallback"),
              f"{status}, {len(body)} vs {len(expected_edited)} bytes, "
              f"mode={headers.get('X-Clip-Incremental')!r}")

        status, body = curl_get(f"{base}/health")
        check("GET /health", status == 200
              and json.loads(body).get("status") == "ok",
              f"{status} {body[:120]!r}")

        status, body = curl_get(f"{base}/metrics")
        text = body.decode("utf-8", "replace")
        check("GET /metrics", status == 200
              and "clip_service_requests_total" in text,
              f"{status} {text[:120]!r}")
        match = re.search(
            r"^clip_service_plan_cache_hits_total (\d+)$", text, re.M
        )
        check("plan-cache hits visible in /metrics",
              match is not None and int(match.group(1)) >= 1,
              text[:200])
        match = re.search(
            r'^clip_service_request_seconds_bucket\{endpoint="transform",'
            r'le="\+Inf"\} (\d+)$', text, re.M,
        )
        check("latency histogram buckets visible in /metrics",
              "# TYPE clip_service_request_seconds histogram" in text
              and match is not None and int(match.group(1)) >= 1,
              text[:200])
        hits = re.search(
            r"^clip_service_incremental_hits_total (\d+)$", text, re.M
        )
        fallbacks = re.search(
            r"^clip_service_incremental_fallbacks_total (\d+)$", text, re.M
        )
        check("incremental counters visible in /metrics",
              hits is not None and fallbacks is not None
              and int(hits.group(1)) + int(fallbacks.group(1)) >= 1,
              text[:200])

        if _failures:
            print(f"service smoke: {_failures} check(s) FAILED")
            return 1
        print("service smoke: all checks passed")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
        server_letters.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
