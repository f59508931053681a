"""Command-line interface."""

import subprocess
import sys

import pytest


def _repro(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "tpch.smcsnap")
    proc = _repro("gen", "--sf", "0.001", "--out", path)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    return path


def test_gen_creates_snapshot(snapshot):
    import os

    assert os.path.getsize(snapshot) > 1000


def test_info(snapshot):
    proc = _repro("info", snapshot)
    assert proc.returncode == 0, proc.stderr
    assert "lineitem" in proc.stdout
    assert "MemoryManager" in proc.stdout
    # Format version, measured load time, per-section bytes, stored blocks.
    assert "format SMCSNAP2" in proc.stdout and "loaded in" in proc.stdout
    assert "block " in proc.stdout and "section(s)" in proc.stdout
    assert "stored lineitem" in proc.stdout and "block image(s)" in proc.stdout


def test_query_compiled(snapshot):
    proc = _repro("query", snapshot, "q6")
    assert proc.returncode == 0, proc.stderr
    assert "revenue" in proc.stdout
    assert "1 row(s)" in proc.stdout


def test_query_interpreted_matches(snapshot):
    a = _repro("query", snapshot, "q4")
    b = _repro("query", snapshot, "q4", "--engine", "interpreted")
    assert a.returncode == b.returncode == 0
    # Same table body (timings differ).
    body = lambda out: [l for l in out.splitlines() if "|" in l]  # noqa: E731
    assert body(a.stdout) == body(b.stdout)


def test_query_explain(snapshot):
    proc = _repro("query", snapshot, "q1", "--explain")
    assert proc.returncode == 0
    assert "backend: smc-unsafe" in proc.stdout
    assert "groupby[" in proc.stdout


def test_query_unknown_rejected(snapshot):
    proc = _repro("query", snapshot, "q99")
    assert proc.returncode == 2
    assert "unknown query" in proc.stderr


def test_query_help_names_every_query(capsys):
    from repro.cli import build_parser
    from repro.tpch.queries import EXTRA_QUERIES, QUERIES

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["query", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "q20" in out
    assert all(name in out for name in [*QUERIES, *EXTRA_QUERIES])


@pytest.mark.parametrize(
    "argv",
    [
        ("serve", "snap", "--no-planner"),
        ("serve", "snap", "--shm"),
        ("query", "snap", "q6", "--no-prune"),
        ("query", "snap", "q6", "--no-planner"),
    ],
)
def test_pruning_and_planning_are_not_options(argv):
    proc = _repro(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(*args):
    """Start ``repro serve`` and a client connected to it."""
    from repro.service.client import ServiceClient

    port = _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args, "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        return proc, ServiceClient(port=port, retries=60)
    except OSError:
        proc.kill()
        raise AssertionError(proc.communicate()[1])


def _leftovers(pid):
    import glob
    import os
    import tempfile

    return glob.glob(f"/dev/shm/smc_{pid}_*") + glob.glob(
        os.path.join(tempfile.gettempdir(), f"smc_tier_{pid}_*")
    )


def test_serve_composes_a_data_dir_a_budget_and_exec_workers(snapshot, tmp_path):
    """One server runs every storage mode at once: it answers, takes a
    mutation, stops on SIGTERM with nothing left in /dev/shm or the tier
    directory, and restarts with the row present."""
    import signal

    data_dir = str(tmp_path / "data")
    shape = ("--data-dir", data_dir, "--memory-budget", "1", "--exec-workers", "2")
    answers = []
    for args in ((snapshot, *shape), shape):
        proc, client = _serve(*args)
        with client:
            answers.append(client.query("q1", workers=2).rows)
            if len(answers) == 1:
                entry = client.add("region", regionkey=99, name="ATLANTIS")
            else:
                # An update names a live row, or the request is refused.
                client.update("region", entry, comment="risen")
            assert _leftovers(proc.pid)  # its segments are in use
            assert "smc_exec_process_queries_total" in client.metrics()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "exec_workers=2, shm, memory_budget=1" in out and "durable" in out
        assert "server stopped" in out
        assert _leftovers(proc.pid) == []
    # The first stop took the final checkpoint: nothing left to replay.
    assert "replayed 0 of 0" in out
    assert answers[0] == answers[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "snap", "--columnar"),
        ("info", "snap", "--block-shift", "16"),
        ("serve", "snap", "--columnar"),
        ("query", "snap", "q6", "--columnar"),
        ("restore", "dd", "snap", "--columnar"),
    ],
)
def test_a_load_takes_the_image_shape(argv, capsys):
    """Layout and block size are chosen when data is created (``gen
    --columnar``); every command that loads an image adopts it."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_memory_budget_is_the_only_budget():
    proc = _repro("serve", "snap", "--governor-budget", "1048576")
    assert proc.returncode == 2
    assert "unrecognized arguments: --governor-budget" in proc.stderr


def test_bench_unknown_figure_rejected():
    proc = _repro("bench", "fig99")
    assert proc.returncode == 2
    assert "no bench matches" in proc.stderr
    # Script benches are not pytest modules: neither run nor offered.
    proc = _repro("bench", "durability")
    assert proc.returncode == 2
    available = proc.stderr.split("available: ")[1].split(", ")
    assert "fig11_tpch" in available and "durability" not in available

# ----------------------------------------------------------------------
# Durability commands
# ----------------------------------------------------------------------


@pytest.fixture()
def data_dir(snapshot, tmp_path):
    """A data directory initialized from the module's TPC-H snapshot."""
    path = str(tmp_path / "data")
    proc = _repro("restore", path, snapshot)
    assert proc.returncode == 0, proc.stderr
    assert "restored" in proc.stdout
    return path


def test_restore_refuses_existing_dir(data_dir, snapshot):
    proc = _repro("restore", data_dir, snapshot)
    assert proc.returncode == 2
    assert "initialized" in proc.stderr


def test_recover_reports_state(data_dir):
    proc = _repro("recover", data_dir)
    assert proc.returncode == 0, proc.stderr
    assert "recovered" in proc.stdout
    assert "lineitem" in proc.stdout
    # Image load and log replay are reported apart.
    assert "loaded in" in proc.stdout and "replayed 0 of 0" in proc.stdout


def test_recover_uninitialized_dir_rejected(tmp_path):
    proc = _repro("recover", str(tmp_path / "empty"))
    assert proc.returncode == 1
    assert "not an initialized data directory" in proc.stderr


def test_log_dump_of_data_dir(data_dir):
    proc = _repro("log-dump", data_dir)
    assert proc.returncode == 0, proc.stderr
    assert "segment starts at LSN 1" in proc.stdout
    assert "0 records (0 committed)" in proc.stdout


def test_snapshot_export_roundtrips(data_dir, tmp_path):
    out = str(tmp_path / "export.smcsnap")
    proc = _repro("snapshot", data_dir, out)
    assert proc.returncode == 0, proc.stderr
    info = _repro("info", out)
    assert info.returncode == 0, info.stderr
    assert "lineitem" in info.stdout
