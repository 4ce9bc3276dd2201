"""Command-line interface: QASM in, approximate QASM circuits out.

Mirrors the original artifact's file-based workflow
(``input_qasm_files`` -> partition -> synthesis -> dual annealing ->
approximation files)::

    python -m repro input.qasm --out-dir approx/ --threshold 0.2

writes ``approx/approx_00.qasm``, ``approx_01.qasm``, ... plus a summary
line per approximation.  ``compile-batch a.qasm b.qasm`` runs the same
body over ``run_quest_batch``, one ``--out-dir/<stem>`` tree per input,
and ``submit`` writes a daemon's results: all three write
:func:`~repro.core.quest.result_payload` through one writer.

Observability: ``--trace-file run.trace`` streams span/event JSON lines
for the whole run (render with ``python -m repro trace-summary
run.trace``), ``--metrics-json metrics.json`` dumps the run's metrics
snapshot, and ``--log-level`` funnels all diagnostics through the
``repro`` logger (below-WARNING to stdout, WARNING+ to stderr).

Certification: every approximation ships with an ``approx_XX.claims.json``
manifest (per-block epsilon claims); ``--certify`` re-derives those
claims independently before the run exits, and ``python -m repro
verify-run original.qasm approx.qasm --claims approx.claims.json``
certifies the artifacts later, with no access to the producing run
(exit 0 = certified, 1 = violated, 2 = unusable inputs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

from repro.batch import run_quest_batch
from repro.circuits import circuit_from_qasm
from repro.core import QuestConfig, run_quest
from repro.core.quest import result_payload
from repro.exceptions import ReproError, StoreError
from repro.observability import (
    JsonlSink,
    Record,
    configure_logging,
    get_logger,
    render_summary,
    summarize_trace,
    use_record,
)
from repro.resilience.faults import parse_fault_spec
from repro.sim.unitary import MAX_UNITARY_QUBITS
from repro.verify import (
    DEFAULT_BASIS_STIMULI,
    DEFAULT_HAAR_STIMULI,
    DEFAULT_MAX_EXACT_QUBITS,
    certify_equivalence,
    claims_from_manifest,
)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _seconds(value: str) -> float:
    parsed = float(value)
    if not math.isfinite(parsed) or parsed < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QUEST: approximate a quantum circuit to reduce CNOTs.",
    )
    parser.add_argument("input", type=Path, help="OpenQASM 2.0 circuit file")
    _add_compile_options(parser)
    return parser


def build_compile_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro compile-batch",
        description="Compile a batch of circuits through one shared "
        "substrate: a persistent worker pool and cross-circuit block "
        "dedup (plus the artifact store, with --store-dir).  "
        "Per-circuit results are bit-identical to solo runs.",
    )
    parser.add_argument(
        "inputs",
        type=Path,
        nargs="+",
        help="OpenQASM 2.0 circuit files (one result set per input)",
    )
    parser.add_argument(
        "--batch-window",
        type=_positive_int,
        default=2,
        help="circuits compiled concurrently (bounded in-flight "
        "window; synthesis of circuit i+1 overlaps selection of "
        "circuit i; default 2)",
    )
    _add_compile_options(parser)
    return parser


def _add_compile_options(parser: argparse.ArgumentParser) -> None:
    """The compile knobs shared by ``repro`` and ``repro compile-batch``."""
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("quest_output"),
        help="directory for the approximation .qasm files",
    )
    _add_config_options(parser, store_default="nothing persists")
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="debug: deterministic fault schedule, e.g. "
        "'raise@0,hang@2:1,nan@*,flip-cache@0,kill@3' "
        "(kind@block[:attempt], * = every block)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed pinning the random details of injected faults",
    )
    parser.add_argument(
        "--trace-file",
        type=Path,
        default=None,
        help="write a JSON-lines span/event trace of the run here "
        "(render with 'python -m repro trace-summary FILE')",
    )
    parser.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        help="write the run's metrics snapshot (counters/gauges/"
        "histograms) to this JSON file",
    )
    _add_log_level(parser)
    parser.add_argument(
        "--certify",
        action="store_true",
        help="independently certify every selected approximation "
        "against its epsilon claims before exiting (exit code 1 on a "
        "violated claim)",
    )


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    """The ``--log-level`` flag of every command that logs."""
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum level of diagnostics (default info); records "
        "below warning go to stdout, warning and above to stderr",
    )


def _add_config_options(
    parser: argparse.ArgumentParser, *, store_default: str
) -> None:
    """The QuestConfig flags of every compiling entry point (``repro``,
    ``compile-batch`` and ``serve``); :func:`_config_from_args` reads
    them.  ``store_default`` describes what happens without
    ``--store-dir``."""
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="per-block process-distance threshold (default 0.2)",
    )
    parser.add_argument(
        "--max-samples", type=int, default=16, help="max approximations (M)"
    )
    parser.add_argument(
        "--block-qubits", type=int, default=3, help="max qubits per block"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--time-budget",
        type=float,
        default=30.0,
        help="per-block synthesis budget in seconds: an attempt running "
        "past 4x this plus 30 s fails, and a block whose attempts all "
        "fail falls back to its exact circuit (default 30)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for block synthesis (1 = inline)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=_positive_int,
        default=None,
        help="bound the store to this many entries per namespace, "
        "evicting least-recently-used files (default: unbounded)",
    )
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="root of the sharded multi-tenant artifact store, where "
        f"synthesized block solutions persist (default: {store_default}); "
        "rerunning a killed compile over the same store resumes it, and "
        "several runs/daemon replicas may share one store root and "
        "reuse each other's published synthesis results",
    )
    parser.add_argument(
        "--namespace",
        default="default",
        help="tenant namespace inside the artifact store; entries of "
        "different namespaces never mix (default 'default')",
    )
    parser.add_argument(
        "--retry-attempts",
        type=_positive_int,
        default=2,
        help="synthesis attempts per block before the exact-pool "
        "fallback; every attempt reruns the block's seed (default 2)",
    )


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the compilation daemon: accepts compile jobs "
        "(QASM + config overrides) over a Unix socket, shares one "
        "worker pool / artifact store / dedup registry across all jobs, "
        "and journals every job in a crash-safe ledger so a killed daemon "
        "warm-restarts and resumes mid-flight jobs bit-identically.",
    )
    parser.add_argument(
        "--socket", type=Path, required=True, help="Unix socket path to bind"
    )
    parser.add_argument(
        "--ledger-dir",
        type=Path,
        required=True,
        help="job ledger directory (atomic job records; the artifact "
        "store lives in its store/ subdirectory unless --store-dir is "
        "given); reuse it across restarts to recover jobs",
    )
    parser.add_argument(
        "--capacity",
        type=_positive_int,
        default=64,
        help="bounded queue size; submits beyond it are rejected with "
        "a structured queue_full verdict (default 64)",
    )
    parser.add_argument(
        "--max-concurrency",
        type=_positive_int,
        default=2,
        help="jobs compiled concurrently (default 2)",
    )
    parser.add_argument(
        "--tenant-weight",
        action="append",
        default=[],
        metavar="NAME=WEIGHT",
        help="fair-share weight of a tenant (repeatable; default 1.0 "
        "each): a weight-2 tenant drains twice as fast under load",
    )
    parser.add_argument(
        "--tenant-quota",
        action="append",
        default=[],
        metavar="NAME=JOBS",
        help="max queued jobs of a tenant (repeatable; default: the "
        "full queue capacity)",
    )
    # Substrate + default-compile knobs (requests may override the
    # non-substrate ones per job; the namespace applies to jobs whose
    # submit names none).
    _add_config_options(parser, store_default="<ledger-dir>/store")
    _add_log_level(parser)
    return parser


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit circuits to a running compilation daemon "
        "and write the returned approximations + claims manifests "
        "(one subdirectory per input, like compile-batch).",
    )
    parser.add_argument(
        "inputs", type=Path, nargs="+", help="OpenQASM 2.0 circuit files"
    )
    parser.add_argument(
        "--socket", type=Path, required=True, help="daemon Unix socket path"
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("quest_output"),
        help="directory for the approximation .qasm files",
    )
    parser.add_argument(
        "--tenant", default="default", help="tenant name (default 'default')"
    )
    parser.add_argument(
        "--namespace",
        default=None,
        help="artifact-store namespace for the jobs' cache traffic "
        "(default: derived from the tenant name)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline; propagated into the pipeline's "
        "cooperative deadline checks (default: none)",
    )
    parser.add_argument(
        "--config-json",
        default=None,
        metavar="JSON",
        help="QuestConfig overrides as a JSON object, e.g. "
        "'{\"threshold_per_block\": 0.3}' (substrate fields rejected)",
    )
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=600.0,
        help="seconds to wait for each job (default 600)",
    )
    _add_log_level(parser)
    return parser


def build_service_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro service-status",
        description="Query a running daemon's health, readiness, queue "
        "depths, degraded-job count, and metrics.  Exit 0: ready; 1: up "
        "but not ready (draining); 2: unreachable.",
    )
    parser.add_argument(
        "--socket", type=Path, required=True, help="daemon Unix socket path"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full status document as JSON",
    )
    return parser


def _parse_tenant_pairs(pairs: list[str], cast, flag: str, logger):
    """Parse repeated NAME=VALUE options; returns (dict, exit_code)."""
    parsed = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            logger.error(f"error: {flag} expects NAME=VALUE, got {pair!r}")
            return None, 2
        try:
            parsed[name] = cast(value)
        except ValueError as exc:
            logger.error(f"error: {flag} {pair!r}: {exc}")
            return None, 2
    return parsed, 0


def _serve_main(argv: list[str]) -> int:
    from repro.service import serve

    args = build_serve_parser().parse_args(argv)
    configure_logging(args.log_level)
    logger = get_logger("cli")
    weights, code = _parse_tenant_pairs(
        args.tenant_weight, float, "--tenant-weight", logger
    )
    if code:
        return code
    quotas, code = _parse_tenant_pairs(
        args.tenant_quota, int, "--tenant-quota", logger
    )
    if code:
        return code
    config = _config_preflight(args, logger)
    if config is None:
        return 2
    try:
        serve(
            str(args.socket),
            str(args.ledger_dir),
            config,
            capacity=args.capacity,
            max_concurrency=args.max_concurrency,
            tenant_weights=weights or None,
            tenant_quotas=quotas or None,
        )
    except ReproError as exc:
        logger.error(f"daemon failed: {exc}")
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def _submit_main(argv: list[str]) -> int:
    from repro.service import ServiceClient

    args = build_submit_parser().parse_args(argv)
    configure_logging(args.log_level)
    logger = get_logger("cli")
    overrides = {}
    if args.config_json is not None:
        try:
            overrides = json.loads(args.config_json)
        except json.JSONDecodeError as exc:
            logger.error(f"error: --config-json: {exc}")
            return 2
        if not isinstance(overrides, dict):
            logger.error("error: --config-json must be a JSON object")
            return 2
    texts = []
    for path in args.inputs:
        try:
            texts.append(path.read_text())
        except OSError as exc:
            logger.error(f"error reading {path}: {exc}")
            return 2
    client = ServiceClient(str(args.socket))
    failures = 0
    for path, qasm in zip(args.inputs, texts):
        try:
            payload = client.submit_and_wait(
                qasm,
                config=overrides,
                tenant=args.tenant,
                namespace=args.namespace,
                deadline_seconds=args.deadline,
                timeout=args.timeout,
            )
        except ReproError as exc:
            logger.error(f"{path.name}: {exc}")
            failures += 1
            continue
        degraded = " [DEGRADED: exact-block fallback]" if payload["degraded"] else ""
        logger.info(f"{path.name}: {payload['summary']}{degraded}")
        _write_payload(payload, args.out_dir / path.stem, logger)
    return 1 if failures else 0


def _service_status_main(argv: list[str]) -> int:
    from repro.service import ServiceClient

    args = build_service_status_parser().parse_args(argv)
    client = ServiceClient(str(args.socket))
    try:
        status = client.status()
    except ReproError as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=1, default=str))
    else:
        print(
            f"ready={status.get('ready')} "
            f"uptime={status.get('uptime_seconds', 0):.0f}s "
            f"queue={status.get('queue_depth')}/{status.get('capacity')} "
            f"active={status.get('active_jobs')}"
            f"/{status.get('max_concurrency')} "
            f"degraded_jobs={status.get('degraded_jobs')} "
            f"stranded_joiners={status.get('stranded_joiners')}"
        )
        for state, count in sorted(status.get("jobs_by_state", {}).items()):
            print(f"  jobs {state}: {count}")
        for tenant, info in sorted(status.get("tenants", {}).items()):
            print(
                f"  tenant {tenant}: queued={info['queued']} "
                f"dispatched={info['dispatched']} weight={info['weight']}"
            )
        for reason, count in sorted(status.get("rejected", {}).items()):
            print(f"  rejected {reason}: {count}")
        store = status.get("store", {})
        for namespace, info in sorted(store.get("namespaces", {}).items()):
            counts = " ".join(f"{name}={value}" for name, value in info.items())
            print(f"  store {namespace}: {counts}")
    return 0 if status.get("ready") else 1


def build_trace_summary_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace-summary",
        description="Aggregate a --trace-file JSON-lines trace into "
        "per-stage wall-time and event-count tables.",
    )
    parser.add_argument(
        "trace", type=Path, help="trace file written by --trace-file"
    )
    return parser


def build_verify_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify-run",
        description="Independently certify that an approximate circuit "
        "stays within its claimed Hilbert-Schmidt budget of the "
        "original.  Exit 0: certified; 1: a claim is violated; 2: the "
        "inputs could not be certified at all.",
    )
    parser.add_argument(
        "original", type=Path, help="original OpenQASM 2.0 circuit"
    )
    parser.add_argument(
        "approximate", type=Path, help="stitched approximate circuit"
    )
    parser.add_argument(
        "--claims",
        type=Path,
        default=None,
        help="claims manifest (approx_XX.claims.json) with per-block "
        "epsilons; enables block-localized diagnosis",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="explicit whole-circuit HS-distance budget (defaults to "
        "the manifest's epsilon sum; required without --claims)",
    )
    parser.add_argument(
        "--max-exact-qubits",
        type=_positive_int,
        default=DEFAULT_MAX_EXACT_QUBITS,
        help="widest circuit certified by exact unitary diff; wider "
        f"ones use random-stimulus probes (default "
        f"{DEFAULT_MAX_EXACT_QUBITS}); an exact diff wider than "
        f"{MAX_UNITARY_QUBITS} qubits is refused (exit 2)",
    )
    parser.add_argument(
        "--haar-stimuli",
        type=_positive_int,
        default=DEFAULT_HAAR_STIMULI,
        help="Haar-random stimuli in the stimulus regime "
        f"(default {DEFAULT_HAAR_STIMULI})",
    )
    parser.add_argument(
        "--basis-stimuli",
        type=_positive_int,
        default=DEFAULT_BASIS_STIMULI,
        help="computational-basis stimuli in the stimulus regime "
        f"(default {DEFAULT_BASIS_STIMULI})",
    )
    parser.add_argument(
        "--stimulus-seed",
        type=int,
        default=0,
        help="seed of the stimulus draw (certification is "
        "deterministic for a fixed seed; default 0)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the full certification report to this file",
    )
    _add_log_level(parser)
    return parser


def _verify_run_main(argv: list[str]) -> int:
    args = build_verify_run_parser().parse_args(argv)
    configure_logging(args.log_level)
    logger = get_logger("verify")
    try:
        original = circuit_from_qasm(args.original.read_text())
        approximate = circuit_from_qasm(args.approximate.read_text())
    except (OSError, ReproError) as exc:
        logger.error(f"error reading circuits: {exc}")
        return 2
    claims = None
    block_qubits = None
    if args.claims is not None:
        try:
            manifest = json.loads(args.claims.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            logger.error(f"error reading {args.claims}: {exc}")
            return 2
        try:
            block_qubits, claims = claims_from_manifest(manifest)
        except ReproError as exc:
            logger.error(f"error: {args.claims}: {exc}")
            return 2
    elif args.budget is None:
        logger.error("error: nothing to certify against; pass --claims "
                     "and/or --budget")
        return 2
    try:
        report = certify_equivalence(
            original,
            approximate,
            claims,
            block_qubits=block_qubits,
            budget=args.budget,
            max_exact_qubits=args.max_exact_qubits,
            haar_stimuli=args.haar_stimuli,
            basis_stimuli=args.basis_stimuli,
            rng=args.stimulus_seed,
        )
    except ReproError as exc:
        logger.error(f"certification could not run: {exc}")
        return 2
    logger.info(report.summary())
    for certificate in report.blocks:
        if not certificate.ok:
            logger.warning(
                f"  block {certificate.index} "
                f"(qubits {list(certificate.qubits)}): {certificate.reason}"
            )
    if args.json is not None:
        try:
            args.json.write_text(
                json.dumps(report.to_dict(), indent=1) + "\n"
            )
        except OSError as exc:
            logger.error(f"error: --json {args.json}: {exc}")
            return 2
        logger.info(f"  report written to {args.json}")
    return 0 if report.ok else 1


def _trace_summary_main(argv: list[str]) -> int:
    args = build_trace_summary_parser().parse_args(argv)
    try:
        summary = summarize_trace(args.trace)
    except OSError as exc:
        print(f"error reading {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary))
    return 0


def _config_from_args(args) -> QuestConfig:
    """The QuestConfig of every compiling entry point: the
    :func:`_add_config_options` flags plus ``--certify``, which
    ``serve`` does not define."""
    return QuestConfig(
        seed=args.seed,
        max_samples=args.max_samples,
        max_block_qubits=args.block_qubits,
        threshold_per_block=args.threshold,
        block_time_budget=args.time_budget,
        workers=args.workers,
        cache_max_entries=args.cache_max_entries,
        store_dir=None if args.store_dir is None else str(args.store_dir),
        namespace=args.namespace,
        retry_attempts=args.retry_attempts,
        certify=getattr(args, "certify", False),
    )


def _config_preflight(args, logger) -> QuestConfig | None:
    """The config of the flags, or None after logging why it is unusable
    (the caller exits 2)."""
    from repro.store import validate_namespace

    try:
        validate_namespace(args.namespace)
    except StoreError as exc:
        logger.error(f"error: --namespace: {exc}")
        return None
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        logger.error(f"error: {exc}")
        return None
    if args.store_dir is not None:
        try:
            args.store_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            logger.error(f"error: store dir {args.store_dir}: {exc}")
            return None
    return config


def _write_payload(payload: dict, out_dir: Path, logger) -> None:
    """Write one compile's :func:`~repro.core.quest.result_payload` as
    ``approx_XX.qasm`` plus ``approx_XX.claims.json`` files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (qasm, claims, cnots, bound) in enumerate(
        zip(
            payload["circuits"],
            payload["claims"],
            payload["cnot_counts"],
            payload["bounds"],
        )
    ):
        path = out_dir / f"approx_{index:02d}.qasm"
        path.write_text(qasm)
        (out_dir / f"approx_{index:02d}.claims.json").write_text(
            json.dumps(claims, indent=1) + "\n"
        )
        logger.info(
            f"  {path}: {cnots} CNOTs "
            f"(bound {bound:.4f}, baseline {payload['original_cnot_count']})"
        )


def _compile_main(argv: list[str], *, batch: bool) -> int:
    """The body of ``repro`` and ``compile-batch``, which differ only in
    the run call and the output directory (``--out-dir``, or
    ``--out-dir/<stem>`` per input).  Every result gets the same report:
    summary, synthesis line, fault records, certification reports.
    Exit 2: unusable input; 1: a failed run or violated certification.
    """
    parser = build_compile_batch_parser() if batch else build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    logger = get_logger("cli")
    paths = args.inputs if batch else [args.input]
    circuits = []
    for path in paths:
        try:
            circuits.append(circuit_from_qasm(path.read_text()))
        except (OSError, ReproError) as exc:
            logger.error(f"error reading {path}: {exc}")
            return 2
    config = _config_preflight(args, logger)
    if config is None:
        return 2
    fault_injector = None
    if args.inject_faults is not None:
        try:
            fault_injector = parse_fault_spec(args.inject_faults, seed=args.fault_seed)
        except ValueError as exc:
            logger.error(f"error: --inject-faults: {exc}")
            return 2
    sink = None
    if args.trace_file is not None:
        try:
            sink = JsonlSink(args.trace_file)
        except OSError as exc:
            logger.error(f"error: --trace-file {args.trace_file}: {exc}")
            return 2
    try:
        with use_record(Record(sink)):
            if batch:
                run = run_quest_batch(
                    circuits,
                    config,
                    window=args.batch_window,
                    fault_injector=fault_injector,
                )
                results = run.results
            else:
                run = run_quest(circuits[0], config, fault_injector=fault_injector)
                results = [run]
    except ReproError as exc:
        logger.error(f"QUEST failed: {exc}")
        return 1
    finally:
        if sink is not None:
            sink.close()
    if batch:
        logger.info(run.summary())
    violated = []
    for path, result in zip(paths, results):
        logger.info(f"{path.name}: {result.summary()}" if batch else result.summary())
        logger.info(
            f"  synthesis: {result.cache_misses - result.dedup_joins} "
            f"block(s) synthesized, {result.cache_hits} cache hit(s), "
            f"{len(result.synthesis_fallbacks)} fallback(s) "
            f"in {result.timings.synthesis_seconds:.1f}s"
        )
        if result.cache_corrupt_entries:
            logger.info(
                f"  cache: {result.cache_corrupt_entries} corrupt disk "
                "entr(ies) quarantined and recomputed"
            )
        for record in result.failure_log:
            logger.warning(
                f"  fault: block {record.block_index} attempt {record.attempt} "
                f"[{record.kind}] {record.message}"
            )
        _write_payload(
            result_payload(result, config),
            args.out_dir / path.stem if batch else args.out_dir,
            logger,
        )
        for index, report in enumerate(result.certifications):
            line = f"  certify approx_{index:02d}: {report.summary()}"
            (logger.info if report.ok else logger.warning)(line)
        if result.certified is False:
            violated.append(path.name)
    if args.metrics_json is not None:
        try:
            args.metrics_json.write_text(
                json.dumps(run.metrics, indent=1, default=str) + "\n"
            )
        except OSError as exc:
            logger.error(f"error: --metrics-json {args.metrics_json}: {exc}")
            return 1
        logger.info(f"  metrics: wrote snapshot to {args.metrics_json}")
    if args.trace_file is not None:
        logger.info(f"  trace: wrote span/event stream to {args.trace_file}")
    if violated:
        logger.error(
            f"certification VIOLATED for {', '.join(violated)}; "
            "see reports above"
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    subcommands = {
        "trace-summary": _trace_summary_main,
        "verify-run": _verify_run_main,
        "compile-batch": partial(_compile_main, batch=True),
        "serve": _serve_main,
        "submit": _submit_main,
        "service-status": _service_status_main,
    }
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](argv[1:])
    return _compile_main(argv, batch=False)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
