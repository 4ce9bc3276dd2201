"""Tests for the command-line interface."""

from __future__ import annotations

import itertools
import json
import re

import pytest

from repro.circuits import circuit_from_qasm, circuit_to_qasm
from repro.algorithms import tfim
from repro.cli import main


def test_cli_end_to_end(tmp_path, capsys):
    circuit = tfim(3, steps=1)
    qasm_path = tmp_path / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(circuit))
    out_dir = tmp_path / "out"
    code = main(
        [
            str(qasm_path),
            "--out-dir", str(out_dir),
            "--threshold", "0.3",
            "--max-samples", "2",
            "--time-budget", "10",
            "--seed", "1",
        ]
    )
    assert code == 0
    written = sorted(out_dir.glob("approx_*.qasm"))
    assert written
    for path in written:
        parsed = circuit_from_qasm(path.read_text())
        assert parsed.num_qubits == 3
    captured = capsys.readouterr()
    assert "CNOTs" in captured.out


def test_cli_parallel_and_cache_flags(tmp_path, capsys):
    circuit = tfim(4, steps=2)
    qasm_path = tmp_path / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(circuit))
    store_dir = tmp_path / "store"
    args = [
        str(qasm_path),
        "--out-dir", str(tmp_path / "out"),
        "--threshold", "0.3",
        "--max-samples", "2",
        "--block-qubits", "2",
        "--time-budget", "10",
        "--seed", "1",
        "--workers", "2",
        "--store-dir", str(store_dir),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "cache hit" in first
    assert any(store_dir.iterdir())  # the persistent tier was populated
    # Second run: everything served from the on-disk cache.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "0 block(s) synthesized" in second


@pytest.mark.parametrize(
    "argv",
    [
        ["missing.qasm"],
        ["compile-batch", "missing.qasm"],
        ["serve", "--socket", "s", "--ledger-dir", "l", "--tenant-weight", "x"],
    ],
    ids=["repro", "compile-batch", "serve"],
)
def test_no_cache_flag_is_gone(argv, tmp_path, monkeypatch, capsys):
    """``--store-dir`` is the one persistence switch.

    Each argv fails its command's own checks right after parsing, so a
    parser that still accepted the flag would return, not start work.
    """
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--no-cache"])
    assert excinfo.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [["--breaker-threshold", "3"], ["--breaker-cooldown", "30"]],
    ids=["threshold", "cooldown"],
)
def test_serve_breaker_flags_are_gone(flag, tmp_path, monkeypatch, capsys):
    """``serve`` has no circuit breaker to configure.

    The argv fails ``serve``'s own ``--tenant-weight`` check right after
    parsing, so a parser that still accepted the flag would return, not
    start a daemon.
    """
    monkeypatch.chdir(tmp_path)
    argv = ["serve", "--socket", "s", "--ledger-dir", "l", "--tenant-weight", "x"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + flag)
    assert excinfo.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    code = main([str(tmp_path / "nope.qasm")])
    assert code == 2
    assert "error reading" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--max-samples", "0"], "max_samples"),
        (["--block-qubits", "1"], "max_block_qubits"),
        (["--threshold", "nan"], "threshold_per_block"),
        (["--time-budget", "-1"], "block_time_budget"),
        (["--seed", "-1"], "seed"),
    ],
)
def test_cli_refuses_a_config_out_of_range(flags, field, tmp_path, capsys):
    path = tmp_path / "tfim.qasm"
    path.write_text(circuit_to_qasm(tfim(3, steps=1)))
    code = main([str(path), "--out-dir", str(tmp_path / "out"), *flags])
    assert code == 2
    assert f"QuestConfig.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("timeout", ["nan", "inf", "-5"])
def test_submit_refuses_a_bad_timeout_when_it_parses_the_flag(
    timeout, tmp_path, capsys
):
    # "nan" used to reach socket.settimeout after the job was submitted,
    # and "-5" to fail as a broken connection.
    argv = ["submit", "--socket", str(tmp_path / "s.sock"), "--timeout", timeout]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, str(tmp_path / "in.qasm")])
    assert excinfo.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_cli_rejects_cnot_free_circuit(tmp_path, capsys):
    from repro.circuits import Circuit

    circuit = Circuit(2)
    circuit.h(0)
    path = tmp_path / "h.qasm"
    path.write_text(circuit_to_qasm(circuit))
    code = main([str(path)])
    assert code == 1
    assert "QUEST failed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Certification: --certify and verify-run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def certified_run(tmp_path_factory):
    """One ``--certify`` compile of ``tfim(4, 2)``: (exit code, input
    QASM, out dir)."""
    root = tmp_path_factory.mktemp("certify")
    qasm_path = root / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(tfim(4, steps=2)))
    out_dir = root / "out"
    code = main(
        [
            str(qasm_path),
            "--out-dir", str(out_dir),
            "--threshold", "0.25",
            "--block-qubits", "2",
            "--max-samples", "4",
            "--seed", "3",
            "--certify",
        ]
    )
    return code, qasm_path, out_dir


def _verify_run(certified_run, approx_path, *extra):
    _, qasm_path, out_dir = certified_run
    return main(["verify-run", str(qasm_path), str(approx_path), *extra])


def test_cli_certify_writes_a_manifest_per_approximation(certified_run):
    code, _, out_dir = certified_run
    assert code == 0
    approximations = sorted(p.stem for p in out_dir.glob("approx_*.qasm"))
    manifests = sorted(
        p.name.removesuffix(".claims.json")
        for p in out_dir.glob("approx_*.claims.json")
    )
    assert approximations
    assert manifests == approximations


def test_verify_run_certifies_the_emitted_approximation(certified_run, capsys):
    out_dir = certified_run[2]
    code = _verify_run(
        certified_run,
        out_dir / "approx_00.qasm",
        "--claims", str(out_dir / "approx_00.claims.json"),
    )
    assert code == 0
    assert "CERTIFIED: exact regime" in capsys.readouterr().out


def test_verify_run_names_the_block_of_a_nudged_rotation(
    certified_run, tmp_path, capsys
):
    """A rotation nudged by +1.0 moves its block by sin(0.5) ~ 0.48, past
    any epsilon under the 0.25 threshold."""
    from dataclasses import replace

    from repro.circuits import Circuit, Operation

    out_dir = certified_run[2]
    approximate = circuit_from_qasm((out_dir / "approx_00.qasm").read_text())
    manifest = json.loads((out_dir / "approx_00.claims.json").read_text())
    ops = list(approximate.operations)
    position = next(i for i, op in enumerate(ops) if op.gate.params)
    gate = ops[position].gate
    nudged = replace(gate, params=(gate.params[0] + 1.0,) + gate.params[1:])
    ops[position] = Operation(nudged, ops[position].qubits)
    nudged_path = tmp_path / "nudged.qasm"
    nudged_path.write_text(circuit_to_qasm(Circuit(approximate.num_qubits, ops)))

    # The manifest's op counts tile the stitched circuit in block order.
    ends = list(
        itertools.accumulate(block["op_count"] for block in manifest["blocks"])
    )
    block = next(b for b, end in enumerate(ends) if position < end)

    code = _verify_run(
        certified_run,
        nudged_path,
        "--claims", str(out_dir / "approx_00.claims.json"),
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "VIOLATED" in captured.out
    assert f"first at block {block}" in captured.out
    assert f"block {block} (qubits" in captured.err


def test_verify_run_needs_claims_or_a_budget(certified_run, capsys):
    code = _verify_run(certified_run, certified_run[2] / "approx_00.qasm")
    assert code == 2
    assert "nothing to certify against" in capsys.readouterr().err


def test_verify_run_max_exact_qubits_selects_the_stimulus_regime(
    certified_run, tmp_path, capsys
):
    out_dir = certified_run[2]
    report_path = tmp_path / "report.json"
    code = _verify_run(
        certified_run,
        out_dir / "approx_00.qasm",
        "--claims", str(out_dir / "approx_00.claims.json"),
        "--max-exact-qubits", "2",
        "--json", str(report_path),
    )
    assert code == 0
    assert "CERTIFIED: stimulus regime" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["regime"] == "stimulus"


def test_verify_run_refuses_an_exact_diff_past_the_builder_cap(
    certified_run, monkeypatch, capsys
):
    from repro.sim import unitary as sim_unitary

    monkeypatch.setattr(sim_unitary, "MAX_UNITARY_QUBITS", 3)
    code = _verify_run(
        certified_run,
        certified_run[2] / "approx_00.qasm",
        "--budget", "1.0",
        "--max-exact-qubits", "4",
    )
    assert code == 2
    assert "certification could not run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["missing.qasm"], ["compile-batch", "missing.qasm"]],
    ids=["repro", "compile-batch"],
)
def test_certify_candidates_flag_is_gone(argv, tmp_path, monkeypatch, capsys):
    """Candidate validation has one mode, so there is no flag to harden
    it.  A parser that still accepted the flag would fail on the missing
    input instead, with exit 2 but no mention of the flag."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--certify-candidates"])
    assert excinfo.value.code == 2
    assert "--certify-candidates" in capsys.readouterr().err


# ----------------------------------------------------------------------
# One front end: repro and compile-batch share one body and one writer
# ----------------------------------------------------------------------
FRONT_END_FLAGS = ["--block-qubits", "2", "--max-samples", "2", "--seed", "7"]


@pytest.fixture
def two_inputs(tmp_path):
    """``a.qasm`` holds ``tfim(3, 1)``, ``b.qasm`` holds ``tfim(4, 1)``."""
    paths = []
    for name, circuit in (("a", tfim(3, steps=1)), ("b", tfim(4, steps=1))):
        path = tmp_path / f"{name}.qasm"
        path.write_text(circuit_to_qasm(circuit))
        paths.append(path)
    return paths


def _tree(root):
    """Every file under ``root``: relative path -> bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_compile_batch_writes_the_trees_of_solo_runs(tmp_path, two_inputs):
    for path in two_inputs:
        out_dir = tmp_path / "solo" / path.stem
        assert main([str(path), "--out-dir", str(out_dir), *FRONT_END_FLAGS]) == 0
    batch_argv = ["compile-batch", *map(str, two_inputs)]
    out_dir = tmp_path / "batch"
    assert main([*batch_argv, "--out-dir", str(out_dir), *FRONT_END_FLAGS]) == 0
    solo = _tree(tmp_path / "solo")
    assert {"a/approx_00.qasm", "a/approx_00.claims.json", "b/approx_00.qasm"} <= set(solo)
    assert _tree(out_dir) == solo


def test_compile_batch_reports_faults_and_certifications(
    tmp_path, two_inputs, capsys
):
    """Each input's report lists its fault records and certification
    reports, as a solo run's does."""
    out_dir = tmp_path / "out"
    code = main(
        [
            "compile-batch", *map(str, two_inputs),
            "--out-dir", str(out_dir), *FRONT_END_FLAGS,
            "--inject-faults", "raise@0:0", "--certify",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "fault: block 0" in captured.err
    approximations = list(out_dir.rglob("approx_*.qasm"))
    assert len(approximations) >= 2
    assert captured.out.count("certify approx_") == len(approximations)


def test_batch_synthesis_lines_sum_to_the_batch_total(
    tmp_path, two_inputs, capsys
):
    """A circuit's synthesis line counts its jobs less those another
    circuit's result served, so a dedup join is counted once."""
    original = two_inputs[1]
    twin = tmp_path / "twin.qasm"
    twin.write_text(original.read_text())
    code = main(
        [
            "compile-batch", str(original), str(twin),
            "--out-dir", str(tmp_path / "out"), *FRONT_END_FLAGS,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    total, joins = re.search(
        r"(\d+) blocks synthesized, \d+ cache hits, (\d+) dedup joins", out
    ).groups()
    assert int(joins) > 0
    per_circuit = re.findall(r"synthesis: (\d+) block\(s\) synthesized", out)
    assert len(per_circuit) == 2
    assert sum(map(int, per_circuit)) == int(total)
