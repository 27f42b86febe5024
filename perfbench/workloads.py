"""The four workloads: seeded inputs, references, set-up and one step.

Every workload is a closed loop with one client in one process.  It
goes through four stages, which ``run.py`` times separately:

``generate(seed)``
    Builds the inputs from the seed and computes every reference output
    through an execution path other than the one under test.  Untimed.
``setup()``
    Constructs the service, transformers or runner and produces the
    first verified output.  Timed as ``setup_s``; the returned state is
    what the later stages drive.
``warm(state)``
    Runs steps until the program's bounded state (the service history,
    the ``DocumentIndex`` LRU) is full, so the window sees the
    steady-state heap.
``step(state)``
    One closed-loop step: a list of ``(latency_s, ok)`` per unit.

Outputs are compared byte for byte with the references; any mismatch,
non-200 response or raised error makes the unit a failure.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from typing import List, Tuple

from repro import Transformer
from repro.io import dumps
from repro.runtime import BatchRunner, PlanCache
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.service.app import ClipService
from repro.service.config import ServiceConfig
from repro.xml import parser, serialize
from repro.xml.model import XmlElement, element

#: Join-heavy geometry (fig6 L of the scaling sweep): 8.7k elements,
#: about 0.26 MB of XML.
L_JOIN = DeptstoreSpec(departments=16, projects_per_dept=32,
                       employees_per_dept=160)
#: Grouping-heavy geometry (fig7 L of the codegen sweep): 1.3k
#: elements, about 0.1 MB of XML.
L_GROUP = DeptstoreSpec(departments=40, projects_per_dept=6,
                        employees_per_dept=25)

#: Distinct documents each workload rotates through, so no
#: per-document cache (the DocumentIndex LRU holds 8) serves a repeat.
ROTATION = 8

#: Service request-history bound.  The default (256 records of about
#: 0.4 MB each) would need 256 warm-up requests, well over a minute, in
#: every run; 16 still holds more documents than the DocumentIndex LRU.
HISTORY = 16

#: The eight deptstore paper mappings of ``fanout-exec``.
FANOUT_MAPPINGS = ("fig1_desired", "fig3", "fig4", "fig5", "fig6", "fig7",
                   "fig8", "fig9")

Units = List[Tuple[float, bool]]


def _seeds(name: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


def _documents(spec: DeptstoreSpec, seeds) -> List[XmlElement]:
    return [make_deptstore_instance(dataclasses.replace(spec, seed=s))
            for s in seeds]


def _reference(mapping, source, **transformer_options) -> bytes:
    """The output bytes of ``mapping`` on ``source`` (XML text or a
    parsed document) through a Transformer built with
    ``transformer_options``: the reference path."""
    if isinstance(source, str):
        source = parser.parse_xml(source, schema=mapping.source)
    out = Transformer(mapping, **transformer_options)(source)
    return serialize.to_xml(out).encode("utf-8")


def _header(response, name: str) -> str:
    return dict(response.headers).get(name, "")


class Workload:
    """Shared shape; subclasses fill in the four stages."""

    name = ""
    #: What one "doc" is on this workload.
    unit = ""
    #: The fixed tail percentile: the highest multiple of 5 that keeps
    #: at least ten samples beyond it in a 30-second window on a 2-core
    #: host running at 70% of the speed measured when it was chosen.
    tail_pct = 90
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, spec: DeptstoreSpec):
        self.spec = spec

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self):
        """Returns ``(state, ok)``."""
        raise NotImplementedError

    def warm(self, state) -> Units:
        """Steps until the steady state; returns their units."""
        raise NotImplementedError

    def step(self, state) -> Units:
        raise NotImplementedError


class _ServiceWorkload(Workload):
    """Warm-up until the setup's first request leaves the history."""

    def _warm_service(self, state, minimum: int) -> Units:
        units: Units = []
        # Failed requests may not be stored, so bound the wait.
        while len(units) < minimum + 4 * HISTORY:
            units.extend(self.step(state))
            evicted = state.service.dispatch(
                "GET", f"/requests/{state.first_request}"
            ).status == 404
            if evicted and len(units) >= minimum:
                break
        return units

    @staticmethod
    def _timed_request(service, method, path, headers, body):
        started = time.perf_counter()
        response = service.dispatch(method, path, headers, body)
        return response, time.perf_counter() - started


@dataclasses.dataclass
class _ServiceState:
    service: ClipService
    fingerprint: str
    first_request: str
    position: int = 0
    last_request: str = ""


class ServiceJoin(_ServiceWorkload):
    name = "service-join"
    unit = "one POST /transform request of one fig6 L document"
    tail_pct = 85
    setups = 9

    def __init__(self, spec: DeptstoreSpec = L_JOIN):
        super().__init__(spec)
        self.mapping = deptstore.mapping_fig6()

    def generate(self, seed: int) -> None:
        texts = [serialize.to_xml(doc) for doc in
                 _documents(self.spec, _seeds(self.name, seed, ROTATION))]
        self.bodies = [text.encode("utf-8") for text in texts]
        self.mapping_body = dumps(self.mapping).encode("utf-8")
        # The service runs codegen; the reference is the optimized
        # interpreter.  The naive engine costs about 0.5 s per document
        # here, too much for every run.
        self.references = [_reference(self.mapping, text, exec_mode="interp")
                           for text in texts]

    def setup(self):
        service = ClipService(ServiceConfig(history=HISTORY))
        registered = service.dispatch(
            "POST", "/mappings?exec_mode=codegen", {}, self.mapping_body
        )
        fingerprint = json.loads(registered.body)["fingerprint"]
        response = service.dispatch(
            "POST", f"/transform?mapping={fingerprint}", {}, self.bodies[0]
        )
        ok = response.status == 200 and response.body == self.references[0]
        state = _ServiceState(service, fingerprint,
                              _header(response, "X-Clip-Request"), 1)
        return state, ok

    def warm(self, state) -> Units:
        return self._warm_service(state, ROTATION)

    def step(self, state) -> Units:
        index = state.position % ROTATION
        state.position += 1
        response, seconds = self._timed_request(
            state.service, "POST", f"/transform?mapping={state.fingerprint}",
            {}, self.bodies[index],
        )
        ok = response.status == 200 and response.body == self.references[index]
        return [(seconds, ok)]


@dataclasses.dataclass
class _FanoutState:
    transformers: list
    position: int = 0


class FanoutExec(Workload):
    name = "fanout-exec"
    unit = "one fig6 L source parsed once and its eight mapping outputs"
    tail_pct = 70

    def __init__(self, spec: DeptstoreSpec = L_JOIN):
        super().__init__(spec)
        self.mappings = [getattr(deptstore, f"mapping_{name}")()
                         for name in FANOUT_MAPPINGS]

    def generate(self, seed: int) -> None:
        self.texts = [serialize.to_xml(doc) for doc in
                      _documents(self.spec, _seeds(self.name, seed, ROTATION))]
        # The workload runs the default mode (the optimized
        # interpreter).  References come from the naive engine, except
        # for the fig6 and fig7 joins, where it takes 0.4 s and 8 s per
        # document; those use codegen.
        self.references = []
        for text in self.texts:
            source = parser.parse_xml(text, schema=self.mappings[0].source)
            self.references.append([
                _reference(mapping, source, optimize=False)
                if name not in ("fig6", "fig7")
                else _reference(mapping, source, exec_mode="codegen")
                for name, mapping in zip(FANOUT_MAPPINGS, self.mappings)
            ])

    def setup(self):
        state = _FanoutState([Transformer(mapping) for mapping in self.mappings])
        return state, all(ok for _, ok in self.step(state))

    def warm(self, state) -> Units:
        # One full rotation fills the DocumentIndex LRU.
        return [unit for _ in range(ROTATION) for unit in self.step(state)]

    def step(self, state) -> Units:
        index = state.position % ROTATION
        state.position += 1
        started = time.perf_counter()
        source = parser.parse_xml(self.texts[index],
                                  schema=self.mappings[0].source)
        outputs = [serialize.to_xml(transformer(source))
                   for transformer in state.transformers]
        seconds = time.perf_counter() - started
        ok = [out.encode("utf-8") for out in outputs] == self.references[index]
        return [(seconds, ok)]


@dataclasses.dataclass
class _BatchState:
    runner: BatchRunner


class BatchPool(Workload):
    name = "batch-pool"
    unit = "one fig7 L document of an 8-document BatchRunner batch, 2 workers"
    # The 8 documents of a batch share its start, so the independent
    # samples are batches, about 35 in a 30-second window: p75 keeps
    # about ten of them beyond it (p90 kept three or four, and moved
    # with whichever batch was slowest).
    tail_pct = 75
    workers = 2

    def __init__(self, spec: DeptstoreSpec = L_GROUP):
        super().__init__(spec)
        self.mapping = deptstore.mapping_fig7()

    def generate(self, seed: int) -> None:
        self.texts = [serialize.to_xml(doc) for doc in
                      _documents(self.spec, _seeds(self.name, seed, ROTATION))]
        # The pool runs the default mode (the optimized interpreter);
        # the naive engine costs seconds per document on this join, so
        # the reference is codegen.
        self.references = [_reference(self.mapping, text, exec_mode="codegen")
                           for text in self.texts]

    def setup(self):
        runner = BatchRunner(self.mapping, workers=self.workers,
                             cache=PlanCache())
        state = _BatchState(runner)
        return state, all(ok for _, ok in self.step(state))

    def warm(self, state) -> Units:
        return self.step(state)

    def step(self, state) -> Units:
        """One batch.  A document's latency runs from the batch start to
        the end of its own serialization, as a batch caller sees it."""
        started = time.perf_counter()
        documents = [parser.parse_xml(text, schema=self.mapping.source)
                     for text in self.texts]
        batch = state.runner.run(documents)
        units: Units = []
        for index, result in enumerate(batch.results):
            out = serialize.to_xml(result).encode("utf-8")
            units.append((time.perf_counter() - started,
                          out == self.references[index]))
        missing = len(self.texts) - len(units)
        units.extend((time.perf_counter() - started, False)
                     for _ in range(missing))
        return units


def _edit_cycle(base: XmlElement, rng: random.Random, edits: int) -> List[str]:
    """A cycle of ``2 * edits`` distinct documents, each one small edit
    away from the previous one, the last equal to ``base``.

    The first half applies ``edits`` edits (mostly text values, some
    inserts and deletes); the second half undoes them in the same
    order.  Structural edits go to distinct departments, so undoing in
    order restores every position.
    """
    doc = base.copy()
    departments = list(doc.children)
    structural = ["ins_proj", "del_emp"] * max(1, edits // 8)
    kinds = structural + ["sal", "pname"] * ((edits - len(structural)) // 2)
    kinds += ["sal"] * (edits - len(kinds))
    rng.shuffle(kinds)
    spare = rng.sample(departments, len(structural))
    names = sorted({p.find("pname").text for p in doc.descendants("Proj")})
    undo = []
    states: List[str] = []
    edited = set()

    def pick(tag: str, child: str) -> XmlElement:
        # Every edit touches nodes no other edit touches: in-order undo
        # would not restore a node edited twice, and undoing an edit
        # inside a detached subtree would change nothing.
        while True:
            node = rng.choice(rng.choice(departments).findall(tag)).find(child)
            if id(node) not in edited:
                edited.add(id(node))
                return node

    for kind in kinds:
        if kind == "sal":
            node = pick("regEmp", "sal")
            old = node.text
            node.set_text(rng.choice([v for v in range(8000, 32000, 500)
                                      if v != old]))
            undo.append(lambda node=node, old=old: node.set_text(old))
        elif kind == "pname":
            node = pick("Proj", "pname")
            old = node.text
            node.set_text(rng.choice([n for n in names if n != old]))
            undo.append(lambda node=node, old=old: node.set_text(old))
        elif kind == "ins_proj":
            dept = spare.pop()
            pid = 1 + max(p.attribute("pid") for p in dept.findall("Proj"))
            proj = element("Proj", element("pname", text=rng.choice(names)),
                           pid=pid)
            edited.add(id(proj.find("pname")))
            dept.insert(1, proj)
            undo.append(lambda dept=dept, proj=proj: dept.remove(proj))
        else:
            dept = spare.pop()
            emp = rng.choice([e for e in dept.findall("regEmp")
                              if id(e.find("sal")) not in edited])
            edited.add(id(emp.find("sal")))
            position = next(i for i, child in enumerate(dept.children)
                            if child is emp)
            dept.remove(emp)
            undo.append(lambda dept=dept, emp=emp, position=position:
                        dept.insert(position, emp))
        states.append(serialize.to_xml(doc))
    for restore in undo:
        restore()
        states.append(serialize.to_xml(doc))
    return states


class DeltaEdit(_ServiceWorkload):
    name = "delta-edit"
    unit = "one POST /transform/delta request carrying one small edit"
    setups = 15
    #: Edits in the first half of the cycle (the cycle has twice as many
    #: distinct documents).
    edits = 16

    def __init__(self, spec: DeptstoreSpec = L_GROUP):
        super().__init__(spec)
        self.mapping = deptstore.mapping_fig7()

    def generate(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        base = _documents(self.spec, [rng.randrange(1 << 30)])[0]
        self.base_text = serialize.to_xml(base)
        self.cycle = _edit_cycle(base, rng, self.edits)
        if len(set(self.cycle)) != len(self.cycle) or (
            self.cycle[-1] != self.base_text
        ):
            raise AssertionError("edit cycle is not a cycle of distinct documents")
        self.mapping_body = dumps(self.mapping).encode("utf-8")
        # Full, non-incremental runs (codegen) of every edited document.
        self.base_reference = _reference(self.mapping, self.base_text,
                                         exec_mode="codegen")
        self.references = [_reference(self.mapping, text, exec_mode="codegen")
                           for text in self.cycle]

    def setup(self):
        service = ClipService(ServiceConfig(history=HISTORY))
        registered = service.dispatch("POST", "/mappings", {}, self.mapping_body)
        fingerprint = json.loads(registered.body)["fingerprint"]
        response = service.dispatch(
            "POST", f"/transform?mapping={fingerprint}", {},
            self.base_text.encode("utf-8"),
        )
        ok = response.status == 200 and response.body == self.base_reference
        request = _header(response, "X-Clip-Request")
        state = _ServiceState(service, fingerprint, request, 0, request)
        return state, ok

    def warm(self, state) -> Units:
        return self._warm_service(state, ROTATION)

    def step(self, state) -> Units:
        index = state.position % len(self.cycle)
        state.position += 1
        body = json.dumps(
            {"request": state.last_request, "document": self.cycle[index]}
        ).encode("utf-8")
        response, seconds = self._timed_request(
            state.service, "POST", "/transform/delta",
            {"Content-Type": "application/json"}, body,
        )
        ok = response.status == 200 and response.body == self.references[index]
        if ok:
            state.last_request = _header(response, "X-Clip-Request")
        return [(seconds, ok)]


WORKLOADS = {cls.name: cls for cls in (ServiceJoin, FanoutExec, BatchPool,
                                       DeltaEdit)}
