"""Command-line interface: ``python -m repro <command>``.

The CLI drives the full pipeline from the shell, on mapping documents
saved by :mod:`repro.io`:

* ``show MAPPING.json`` — render the diagram, validity report and tgd;
* ``validate MAPPING.json`` — check the Section III rules (exit 1 if
  invalid);
* ``xquery MAPPING.json`` — print the generated XQuery;
* ``xslt MAPPING.json`` — print the generated XSLT stylesheet;
* ``run MAPPING.json SOURCE.xml [-o OUT.xml] [--engine tgd|xquery]
  [--no-optimize] [--exec-mode interp|codegen] [--trace-json PATH]
  [--incremental PREV_SOURCE PREV_TARGET] [--baseline]
  [--compose SECOND.json]`` —
  transform an instance, optionally recording a ``clip-trace``
  execution trace; with ``--incremental``, treat SOURCE as an edited
  document and re-transform it delta-scoped against the previous
  run's source/target pair (``--baseline`` additionally times the
  full recompute and checks byte-identity); with ``--compose``,
  chain a second ``B→C`` mapping — fused into one pass when the pair
  composes algebraically, sequential otherwise, identical bytes
  either way;
* ``compose FIRST.json SECOND.json [SOURCE.xml] [-o OUT.xml]
  [--engine E] [--verify]`` — fuse an ``A→B`` and a ``B→C`` mapping
  (:mod:`repro.algebra`): print the composed nested tgd (or the
  sequential-fallback reason), optionally transform an instance
  through it, and with ``--verify`` check the result byte-for-byte
  against running the two stages in sequence;
* ``explain MAPPING.json SOURCE.xml [--json] [--no-optimize]
  [--exec-mode interp|codegen]`` — print the compiled tgd plan (hash
  joins, pushed filters, generator order) and its runtime counters for
  one document, as text or as a ``clip-plan-explain`` JSON document;
* ``batch MAPPING.json SOURCE.xml [SOURCE2.xml …] [--workers N]
  [--engine E] [--output-dir DIR] [--metrics-json PATH] [--validate]
  [--error-policy fail_fast|skip|collect] [--max-retries N]
  [--timeout SECONDS] [--dead-letter-dir DIR] [--no-optimize]
  [--exec-mode interp|codegen] [--trace-json PATH]``
  — transform many instances through the compiled-plan cache, with an
  optional worker pool, per-document fault isolation (retry, timeout,
  dead-lettering) and a machine-readable metrics report;
* ``trace TRACE.json [--chrome OUT.json] [--canonical]`` — inspect a
  recorded ``clip-trace`` document (or the trace embedded in a metrics
  report): span tree, Chrome ``trace_event`` conversion, or the
  canonical byte-deterministic form;
* ``lineage MAPPING.json [--source PATH | --target PATH]`` — lineage /
  impact analysis;
* ``suggest SOURCE.xsd TARGET.xsd [--threshold T]`` — schema matching
  plus generated mapping;
* ``figures [FIG]`` — reproduce the paper's figure outputs;
* ``table1`` — reproduce the Table I flexibility measurement;
* ``serve [--host H] [--port N] [--workers N] [--deadline SECONDS]
  [--dead-letter-dir DIR] [--max-inflight N] [--history N]`` — run the
  long-lived HTTP mapping service (:mod:`repro.service`): register
  mappings once, transform documents against warm compiled plans,
  scrape Prometheus metrics.  Every flag falls back to its
  ``CLIP_SERVICE_*`` environment variable, then to the documented
  default; the HMAC secret is environment-only
  (``CLIP_SERVICE_SECRET``), never a flag, so it can't leak into
  ``ps`` output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import Transformer
from .core.render import render_mapping
from .core.validity import check
from .errors import ReproError
from .io import load as load_mapping
from .lineage import impact_of_source, impact_of_target, lineage, render_lineage
from .xml.parser import parse_xml
from .xml.serialize import to_ascii, to_xml


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_show(args) -> int:
    clip = load_mapping(args.mapping)
    print(render_mapping(clip))
    report = check(clip)
    print(f"\nVALIDITY: {report}")
    transformer = Transformer(clip, require_valid=False)
    print("\nNESTED TGD")
    print(transformer.tgd)
    return 0


def _cmd_validate(args) -> int:
    report = check(load_mapping(args.mapping))
    if report.is_valid:
        print("valid mapping")
        return 0
    for issue in report.errors():
        print(issue)
    return 1


def _cmd_xquery(args) -> int:
    transformer = Transformer(load_mapping(args.mapping))
    print(transformer.xquery_text)
    return 0


def _cmd_xslt(args) -> int:
    transformer = Transformer(load_mapping(args.mapping))
    print(transformer.xslt_text)
    return 0


def _write_trace(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tracer.to_trace().to_json())
    print(f"wrote {path}")


def _run_incremental(args, clip, transformer, instance):
    """``run --incremental``: delta-scoped re-transform of an edited
    document against the previous run's source/target pair."""
    import time

    from .runtime import transform_delta
    from .xml.diff import compute_delta

    prev_source_path, prev_target_path = args.incremental
    prev_source = parse_xml(_read(prev_source_path), schema=clip.source)
    prev_target = parse_xml(_read(prev_target_path), schema=clip.target)
    delta = compute_delta(prev_source, instance)
    started = time.perf_counter()
    result, report = transform_delta(
        transformer.plan, prev_source, prev_target, delta,
        new_source=instance,
    )
    incremental_seconds = time.perf_counter() - started
    print(
        f"incremental: mode={report.mode}"
        + (f" ({report.reason})" if report.reason else "")
        + f" records={report.delta_records}"
        f" ratio={report.delta_ratio:.3f}"
        f" units={report.reused_units}/{report.total_units} reused"
        f" in {incremental_seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    if args.baseline:
        started = time.perf_counter()
        full = transformer.plan.run(instance)
        full_seconds = time.perf_counter() - started
        identical = to_xml(full) == to_xml(result)
        speedup = (
            full_seconds / incremental_seconds
            if incremental_seconds > 0
            else float("inf")
        )
        print(
            f"baseline: full recompute in {full_seconds * 1000:.1f} ms "
            f"({speedup:.1f}x) — byte-identical: {identical}",
            file=sys.stderr,
        )
        if not identical:
            raise ReproError(
                "incremental result diverges from full recompute"
            )
    return result


def _cmd_run(args) -> int:
    clip = load_mapping(args.mapping)
    instance = parse_xml(_read(args.source), schema=clip.source)
    optimize = False if args.no_optimize else None
    tracer = None
    if args.trace_json:
        from .runtime import SpanTracer

        tracer = SpanTracer()
    transformer = Transformer(
        clip, engine=args.engine, optimize=optimize,
        exec_mode=args.exec_mode, trace=tracer,
    )
    if args.compose:
        if args.incremental:
            raise ReproError(
                "--compose and --incremental are mutually exclusive"
            )
        composed = transformer.compose(load_mapping(args.compose))
        if composed.fallback_reason:
            print(
                f"compose: sequential fallback ({composed.fallback_reason})",
                file=sys.stderr,
            )
        result = composed(instance)
    elif args.incremental:
        if args.engine != "tgd":
            raise ReproError("--incremental requires the tgd engine")
        result = _run_incremental(args, clip, transformer, instance)
    else:
        result = transformer(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(to_xml(result))
        print(f"wrote {args.output} ({result.size()} elements)")
    else:
        print(to_xml(result) if args.xml else to_ascii(result))
    if tracer is not None:
        _write_trace(tracer, args.trace_json)
    return 0


def _cmd_compose(args) -> int:
    """``repro compose``: fuse two mapping documents, show the composed
    tgd, optionally transform an instance (with sequential cross-check)."""
    from .core.tgd import render_tgd

    first = load_mapping(args.first)
    second = load_mapping(args.second)
    t1 = Transformer(first, engine=args.engine)
    t2 = Transformer(second, engine=args.engine)
    composed = t1.compose(t2)
    if composed.mode == "inlined":
        print("COMPOSED NESTED TGD")
        print(render_tgd(composed.tgd))
        print(f"\nfingerprint: {composed.fingerprint}")
    else:
        print(f"sequential fallback: {composed.fallback_reason}")
    if args.source is None:
        return 0
    instance = parse_xml(_read(args.source), schema=first.source)
    result = composed(instance)
    if args.verify:
        sequential = t2(t1(instance))
        if to_xml(sequential) != to_xml(result):
            print(
                "VERIFY FAILED: composed output differs from sequential "
                "execution",
                file=sys.stderr,
            )
            return 1
        print("verified: byte-identical to sequential execution")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(to_xml(result))
        print(f"wrote {args.output} ({result.size()} elements)")
    else:
        print(to_xml(result) if args.xml else to_ascii(result))
    return 0


def _cmd_batch(args) -> int:
    import os

    from .runtime import BatchRunner, PlanCache, write_dead_letters

    if args.workers < 1:
        print(
            f"error: --workers must be a positive integer, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.max_retries < 0:
        print(
            f"error: --max-retries must be >= 0, got {args.max_retries}",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print(
            f"error: --timeout must be positive, got {args.timeout}",
            file=sys.stderr,
        )
        return 2
    error_policy = args.error_policy
    if args.dead_letter_dir and error_policy != "collect":
        # A dead-letter directory only makes sense when failures are
        # collected; promote the policy rather than silently ignoring.
        error_policy = "collect"
    clip = load_mapping(args.mapping)
    # An unreadable file exits 2, as for `run`; a malformed document is
    # the runner's per-document failure.
    texts = [_read(path) for path in args.sources]
    tracer = None
    if args.trace_json:
        from .runtime import SpanTracer

        tracer = SpanTracer()
    runner = BatchRunner(
        clip,
        engine=args.engine,
        workers=args.workers,
        validate=args.validate,
        error_policy=error_policy,
        max_retries=args.max_retries,
        timeout=args.timeout,
        optimize=False if args.no_optimize else None,
        exec_mode=args.exec_mode,
        trace=tracer,
        # One cache per invocation: the metrics report then describes
        # exactly this run, not whatever the process compiled before.
        cache=PlanCache(),
    )
    batch = runner.run(texts)
    if tracer is not None:
        _write_trace(tracer, args.trace_json)
    succeeded = [args.sources[index] for index in batch.success_indices]
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for path, result in zip(succeeded, batch):
            stem = os.path.splitext(os.path.basename(path))[0]
            out_path = os.path.join(args.output_dir, f"{stem}.out.xml")
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(to_xml(result))
            print(f"wrote {out_path} ({result.size()} elements)")
    else:
        for path, result in zip(succeeded, batch):
            print(f"{path}: {result.size()} elements")
    metrics = batch.metrics
    for failure in batch.failures:
        print(
            f"failed: {args.sources[failure.index]}: "
            f"{failure.error}: {failure.message} "
            f"({failure.attempts} attempt{'s' if failure.attempts != 1 else ''})",
            file=sys.stderr,
        )
    if args.dead_letter_dir and batch.dead_letters:
        paths = write_dead_letters(batch.dead_letters, args.dead_letter_dir)
        print(
            f"dead-lettered {len(batch.dead_letters)} inputs to "
            f"{args.dead_letter_dir} ({len(paths)} files)"
        )
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(metrics.to_json())
        print(f"wrote {args.metrics_json}")
    print(
        f"transformed {metrics.documents} documents "
        f"(engine={metrics.engine}, workers={metrics.workers}, "
        f"failures={metrics.failures}, retries={metrics.retries}, "
        f"cache hits={metrics.cache_hits}, misses={metrics.cache_misses})"
    )
    if args.validate and metrics.validation_violations:
        print(
            f"validation violations: {metrics.validation_violations}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_explain(args) -> int:
    clip = load_mapping(args.mapping)
    instance = parse_xml(_read(args.source), schema=clip.source)
    optimize = False if args.no_optimize else None
    transformer = Transformer(clip, optimize=optimize, exec_mode=args.exec_mode)
    report = transformer.explain_plan(instance)
    print(report.to_json() if args.json else report.render())
    return 0


def _cmd_trace(args) -> int:
    import json

    from .runtime import METRICS_FORMAT, Trace, render_tree, to_chrome_trace

    with open(args.trace, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("format") == METRICS_FORMAT:
        # A metrics document: unwrap the embedded trace, if any.
        doc = doc.get("trace")
        if doc is None:
            print(
                f"error: {args.trace} is a {METRICS_FORMAT} document "
                "without an embedded trace (run with --trace-json or "
                "BatchRunner(trace=…))",
                file=sys.stderr,
            )
            return 2
    try:
        trace = Trace.from_dict(doc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emitted = False
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(trace), handle, indent=2)
        print(f"wrote {args.chrome}")
        emitted = True
    if args.canonical:
        print(trace.canonical_json())
        emitted = True
    if not emitted:
        print(render_tree(trace))
    return 0


def _cmd_lineage(args) -> int:
    transformer = Transformer(load_mapping(args.mapping), require_valid=False)
    if args.source_path:
        entries = impact_of_source(transformer.tgd, args.source_path)
        print(f"entries affected by a change to {args.source_path}:")
    elif args.target_path:
        entries = impact_of_target(transformer.tgd, args.target_path)
        print(f"entries writing at or below {args.target_path}:")
    else:
        entries = lineage(transformer.tgd)
    print(render_lineage(entries) or "(no entries)")
    return 0


def _cmd_suggest(args) -> int:
    from .matching import bootstrap_mapping
    from .xsd.parser import parse_xsd

    source = parse_xsd(_read(args.source_xsd))
    target = parse_xsd(_read(args.target_xsd))
    matches, generation = bootstrap_mapping(
        source, target, threshold=args.threshold
    )
    if not matches:
        print("no correspondences above the threshold")
        return 1
    print("suggested value mappings:")
    for match in matches:
        print(f"  {match}")
    print("\ngenerated nested mapping:")
    print(generation.tgd)
    return 0


def _cmd_figures(args) -> int:
    from .core.compile import compile_clip
    from .executor import execute
    from .scenarios import deptstore

    names = [args.figure] if args.figure else [f.figure for f in deptstore.FIGURES]
    instance = deptstore.source_instance()
    for name in names:
        scenario = deptstore.scenario(name)
        print(f"=== {name}: {scenario.description}")
        out = execute(compile_clip(scenario.make_mapping()), instance)
        print(to_ascii(out))
        matches = out == scenario.expected() or (
            not scenario.ordered and out.equals_canonically(scenario.expected())
        )
        print(f"[matches the paper's printed output: {'yes' if matches else 'NO'}]\n")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzError, FuzzFarm
    from .generation import resolve_axes

    try:
        workers = tuple(int(w) for w in args.workers_csv.split(","))
    except ValueError:
        raise FuzzError(
            f"--workers expects comma-separated integers, got "
            f"{args.workers_csv!r}"
        ) from None
    exec_modes = tuple(m.strip() for m in args.exec_modes_csv.split(","))
    farm = FuzzFarm(
        workers=workers,
        exec_modes=exec_modes,
        budget_seconds=args.budget_seconds,
        dead_letter_dir=args.dead_letter_dir,
    )
    if args.replay:
        result = farm.replay(args.replay)
        combo = result.combo
        mode = "optimized" if combo.optimize else "naive"
        if combo.exec_mode != "interp":
            mode = combo.exec_mode
        print(
            f"replay {result.case_id} on {combo.engine} ({mode}, "
            f"workers={combo.workers}):"
        )
        if result.error:
            print(f"  error: {result.error}")
            return 1
        if result.diverged:
            print("  still diverges:")
            for line in result.differences[:10]:
                print(f"    {line}")
            return 1
        print("  clean: engines agree on this case now")
        return 0
    axes = resolve_axes(args.axes.split(",")) if args.axes else None
    report = farm.run_corpus(args.seed, args.count, axes=axes)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    executed = sum(c.executed for c in report.axis_coverage.values())
    print(
        f"fuzz: seed={report.seed} cases={executed}/{report.cases} "
        f"executions={report.executions} comparisons={report.comparisons}"
    )
    for axis, cov in sorted(report.axis_coverage.items()):
        print(
            f"  {axis:16} cases={cov.cases:4} executed={cov.executed:4} "
            f"xslt-eligible={cov.xslt_eligible:4}"
        )
    if report.exhausted_budget:
        print(f"  budget exhausted: {report.skipped} case(s) skipped")
    if report.divergences:
        print(f"DIVERGENT: {len(report.divergences)} divergence(s)")
        for d in report.divergences[:10]:
            mode = "optimized" if d.optimize else "naive"
            if d.exec_mode != "interp":
                mode = d.exec_mode
            where = f" -> {d.dead_letter}" if d.dead_letter else ""
            print(f"  {d.case_id} {d.engine} ({mode}, w{d.workers}){where}")
        return 1
    print("status: ok (no divergences)")
    return 0


def _cmd_table1(args) -> int:
    from .generation import measure_flexibility
    from .scenarios.published import TABLE1_ROWS

    print(f"{'Example':26} {'vms':>4} {'paper':>6} {'measured':>9}")
    ok = True
    for factory in TABLE1_ROWS:
        example = factory()
        result = measure_flexibility(
            example.source, example.target, list(example.value_mappings),
            example.witness,
        )
        ok = ok and result.extra >= example.paper_extra
        print(
            f"{example.row:26} {example.paper_value_mappings:>4} "
            f"{example.paper_extra:>6} {result.extra:>9}"
        )
    print("\nall rows meet the paper's lower bounds" if ok else "\nBOUND MISSED")
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from .service import ClipService, ServiceConfig, make_server

    try:
        config = ServiceConfig.resolve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            deadline=args.deadline,
            dead_letter_dir=args.dead_letter_dir,
            max_inflight=args.max_inflight,
            history=args.history,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = ClipService(config)
    server = make_server(service)
    host, port = server.server_address[:2]
    # The definitive line: with --port 0 the OS picks the port, and the
    # smoke harness parses it from here.  Flush so a piped parent sees
    # it before the first request.
    print(f"clip service listening on http://{host}:{port}", flush=True)
    if config.secret is not None:
        print("request signing: required (X-Clip-Signature)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clip schema mappings: compile, validate, run, analyze.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="render a mapping document")
    show.add_argument("mapping")
    show.set_defaults(handler=_cmd_show)

    validate = commands.add_parser("validate", help="check Section III validity")
    validate.add_argument("mapping")
    validate.set_defaults(handler=_cmd_validate)

    xquery = commands.add_parser("xquery", help="print the generated XQuery")
    xquery.add_argument("mapping")
    xquery.set_defaults(handler=_cmd_xquery)

    xslt = commands.add_parser("xslt", help="print the generated XSLT")
    xslt.add_argument("mapping")
    xslt.set_defaults(handler=_cmd_xslt)

    run = commands.add_parser("run", help="transform a source instance")
    run.add_argument("mapping")
    run.add_argument("source")
    run.add_argument("-o", "--output", default=None)
    run.add_argument("--engine", choices=("tgd", "xquery", "xslt"), default="tgd")
    run.add_argument("--xml", action="store_true", help="print XML instead of a tree")
    run.add_argument(
        "--no-optimize", action="store_true",
        help="evaluate through the naive reference path instead of the "
             "join-aware compiled plan (tgd engine only)",
    )
    run.add_argument(
        "--exec-mode", choices=("interp", "codegen"), default=None,
        help="execution mode for the optimized tgd plan: interpret the "
             "compiled plan (interp) or run specialized generated Python "
             "(codegen); default follows CLIP_EXEC_MODE (interp)",
    )
    run.add_argument(
        "--trace-json", default=None, metavar="PATH",
        help="record an execution trace (compile/prepare/execute spans) "
             "and write the clip-trace JSON document here",
    )
    run.add_argument(
        "--incremental", nargs=2, default=None,
        metavar=("PREV_SOURCE", "PREV_TARGET"),
        help="delta-scoped re-transform (tgd engine only): SOURCE is the "
             "edited document; reuse the previous run's source/target "
             "pair and recompute only what the edit can reach",
    )
    run.add_argument(
        "--baseline", action="store_true",
        help="with --incremental: also run the full recompute, check "
             "byte-identity, and report both timings",
    )
    run.add_argument(
        "--compose", default=None, metavar="SECOND.json",
        help="chain a second (B→C) mapping: transform straight to C "
             "through the fused one-pass plan when the pair composes "
             "algebraically, or the two stages in sequence when not — "
             "byte-identical either way",
    )
    run.set_defaults(handler=_cmd_run)

    compose_cmd = commands.add_parser(
        "compose",
        help="fuse an A→B and a B→C mapping into one A→C transform",
    )
    compose_cmd.add_argument("first", help="the A→B mapping document")
    compose_cmd.add_argument("second", help="the B→C mapping document")
    compose_cmd.add_argument(
        "source", nargs="?", default=None,
        help="optional A instance to transform through the composition",
    )
    compose_cmd.add_argument("-o", "--output", default=None)
    compose_cmd.add_argument(
        "--engine", choices=("tgd", "xquery", "xslt"), default="tgd"
    )
    compose_cmd.add_argument(
        "--xml", action="store_true", help="print XML instead of a tree"
    )
    compose_cmd.add_argument(
        "--verify", action="store_true",
        help="also run the two stages sequentially and check the "
             "composed output is byte-identical",
    )
    compose_cmd.set_defaults(handler=_cmd_compose)

    explain_cmd = commands.add_parser(
        "explain", help="print the compiled tgd plan and its statistics"
    )
    explain_cmd.add_argument("mapping")
    explain_cmd.add_argument("source")
    explain_cmd.add_argument(
        "--json", action="store_true",
        help="emit the clip-plan-explain JSON document instead of text",
    )
    explain_cmd.add_argument(
        "--no-optimize", action="store_true",
        help="describe the plan but execute the naive reference path "
             "(runtime counters stay zero)",
    )
    explain_cmd.add_argument(
        "--exec-mode", choices=("interp", "codegen"), default=None,
        help="execution mode for the optimized tgd plan; codegen adds a "
             "codegen section (source hash, line count, compile time)",
    )
    explain_cmd.set_defaults(handler=_cmd_explain)

    batch = commands.add_parser(
        "batch", help="transform many source instances via the plan cache"
    )
    batch.add_argument("mapping")
    batch.add_argument("sources", nargs="+", metavar="source")
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument("--engine", choices=("tgd", "xquery", "xslt"), default="tgd")
    batch.add_argument("--output-dir", default=None)
    batch.add_argument(
        "--metrics-json", default=None,
        help="write the machine-readable run metrics to this path",
    )
    batch.add_argument(
        "--validate", action="store_true",
        help="validate outputs against the target schema (exit 1 on violations)",
    )
    batch.add_argument(
        "--error-policy", choices=("fail_fast", "skip", "collect"),
        default="fail_fast",
        help="per-document failure handling: abort the batch (fail_fast, "
             "default), drop failed documents (skip), or record failures "
             "and keep their inputs for replay (collect)",
    )
    batch.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-attempt transiently failing documents up to N times "
             "(deterministic exponential backoff)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-document wall-clock budget for parse plus evaluation; "
             "overruns count as transient failures",
    )
    batch.add_argument(
        "--dead-letter-dir", default=None, metavar="DIR",
        help="write failed inputs and a failures.json manifest here "
             "(implies --error-policy collect)",
    )
    batch.add_argument(
        "--no-optimize", action="store_true",
        help="evaluate through the naive reference path instead of the "
             "join-aware compiled plan (tgd engine only)",
    )
    batch.add_argument(
        "--exec-mode", choices=("interp", "codegen"), default=None,
        help="execution mode for the optimized tgd plan: interpret the "
             "compiled plan (interp) or run specialized generated Python "
             "(codegen); default follows CLIP_EXEC_MODE (interp)",
    )
    batch.add_argument(
        "--trace-json", default=None, metavar="PATH",
        help="record per-document execution spans (merged across "
             "workers) and write the clip-trace JSON document here; "
             "the metrics report embeds the same trace",
    )
    batch.set_defaults(handler=_cmd_batch)

    trace_cmd = commands.add_parser(
        "trace", help="inspect a recorded clip-trace document"
    )
    trace_cmd.add_argument(
        "trace",
        help="a clip-trace JSON file (--trace-json) or a "
             "clip-batch-metrics file with an embedded trace",
    )
    trace_cmd.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="convert to Chrome trace_event JSON (chrome://tracing, "
             "Perfetto) and write it here",
    )
    trace_cmd.add_argument(
        "--canonical", action="store_true",
        help="print the canonical byte-deterministic form (timestamps "
             "stripped) instead of the span tree",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    lineage_cmd = commands.add_parser("lineage", help="lineage / impact analysis")
    lineage_cmd.add_argument("mapping")
    lineage_cmd.add_argument("--source", dest="source_path", default=None)
    lineage_cmd.add_argument("--target", dest="target_path", default=None)
    lineage_cmd.set_defaults(handler=_cmd_lineage)

    suggest = commands.add_parser("suggest", help="schema matching + generation")
    suggest.add_argument("source_xsd")
    suggest.add_argument("target_xsd")
    suggest.add_argument("--threshold", type=float, default=0.45)
    suggest.set_defaults(handler=_cmd_suggest)

    figures = commands.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("figure", nargs="?", default=None)
    figures.set_defaults(handler=_cmd_figures)

    table1 = commands.add_parser("table1", help="reproduce Table I")
    table1.set_defaults(handler=_cmd_table1)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzz: seeded corpus through every engine and "
             "optimizer mode, dead-lettering divergences",
    )
    fuzz.add_argument("--seed", type=int, default=7)
    fuzz.add_argument(
        "--count", type=int, default=100,
        help="number of corpus cases to generate (round-robin over axes)",
    )
    fuzz.add_argument(
        "--axes", default=None, metavar="A,B,…",
        help="comma-separated corpus axes to restrict to (default: all)",
    )
    fuzz.add_argument(
        "--budget-seconds", type=float, default=None, metavar="SECONDS",
        help="stop checking new cases once this much wall clock has "
             "elapsed; skipped cases are reported honestly",
    )
    fuzz.add_argument(
        "--workers", default="1", metavar="N,M,…",
        dest="workers_csv",
        help="comma-separated worker counts; counts above 1 cross-check "
             "the process-pool path (slower)",
    )
    fuzz.add_argument(
        "--exec-modes", default="interp,codegen", metavar="M,N",
        dest="exec_modes_csv",
        help="comma-separated execution modes to sweep; codegen "
             "cross-checks the generated-Python backend against the "
             "interpreted reference (default: interp,codegen)",
    )
    fuzz.add_argument(
        "--dead-letter-dir", default=None, metavar="DIR",
        help="write each divergence's replay directory (mapping, source, "
             "both outputs, clip-trace) under this root",
    )
    fuzz.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the clip-fuzz-report JSON document here",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="CASE_DIR",
        help="re-run one dead-lettered case directory instead of fuzzing",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = commands.add_parser(
        "serve",
        help="run the HTTP mapping service (register once, transform "
             "against warm compiled plans; see repro.service)",
    )
    serve.add_argument(
        "--host", default=None,
        help="bind address (default: CLIP_SERVICE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port; 0 picks an ephemeral port "
             "(default: CLIP_SERVICE_PORT or 8317)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="process fan-out ceiling for POST /transform/batch "
             "(default: CLIP_SERVICE_WORKERS or 1)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock budget; 0 disables "
             "(default: CLIP_SERVICE_DEADLINE or 30)",
    )
    serve.add_argument(
        "--dead-letter-dir", default=None, metavar="DIR",
        help="persist failed inputs under DIR/<request-id>/ "
             "(default: CLIP_SERVICE_DEAD_LETTER_DIR or off)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent-request ceiling before shedding with 503 "
             "(default: CLIP_SERVICE_MAX_INFLIGHT or 64)",
    )
    serve.add_argument(
        "--history", type=int, default=None, metavar="N",
        help="past requests keeping fetchable metrics/trace/explain "
             "(default: CLIP_SERVICE_HISTORY or 256)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
