"""Tests for the command-line interface."""

from __future__ import annotations

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


def test_cli_rejects_cnot_free_circuit(tmp_path, capsys):
    from repro.circuits import Circuit

    circuit = Circuit(2)
    circuit.h(0)
    path = tmp_path / "h.qasm"
    path.write_text(circuit_to_qasm(circuit))
    code = main([str(path)])
    assert code == 1
    assert "QUEST failed" in capsys.readouterr().err
