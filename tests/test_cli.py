"""Tests for the `descendc` command-line interface."""

import pytest

from repro.cli import build_parser, main

GOOD_SOURCE = """
fn scale_vec(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][[thread]] = vec.group::<32>[[block]][[thread]] * 3.0
        }
    }
}
"""

# data race: every thread writes element 0 of its block's group
BAD_SOURCE = """
fn broken(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][0] = 1.0
        }
    }
}
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.descend"
    path.write_text(GOOD_SOURCE)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.descend"
    path.write_text(BAD_SOURCE)
    return str(path)


def test_check_accepts_good_program(good_file, capsys):
    assert main(["check", good_file]) == 0
    assert "type checks" in capsys.readouterr().out


def test_check_rejects_bad_program(bad_file, capsys):
    assert main(["check", bad_file]) == 1
    err = capsys.readouterr().err
    assert "error[" in err


def test_compile_prints_cuda(good_file, capsys):
    assert main(["compile", good_file]) == 0
    out = capsys.readouterr().out
    assert "__global__ void scale_vec" in out


def test_compile_to_output_file(good_file, tmp_path, capsys):
    out_path = tmp_path / "out.cu"
    assert main(["compile", good_file, "-o", str(out_path)]) == 0
    assert "__global__" in out_path.read_text()


def test_print_roundtrips_surface_syntax(good_file, capsys):
    assert main(["print", good_file]) == 0
    assert "fn scale_vec" in capsys.readouterr().out


def test_plan_disassembles_gpu_functions(good_file, capsys):
    assert main(["plan", good_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("plan scale_vec exec gpu.grid")
    assert "params: %0=vec" in out
    assert "sched(X) block {" in out
    assert "store vec.group::<32>[[block]][[thread]]" in out


def test_plan_no_opt_shows_raw_lowering(good_file, capsys):
    assert main(["plan", good_file, "--no-opt"]) == 0
    assert "plan scale_vec" in capsys.readouterr().out


def test_plan_rejects_unknown_function(good_file, capsys):
    assert main(["plan", good_file, "--fun", "nope"]) == 2
    err = capsys.readouterr().err
    assert "not a GPU function" in err and "scale_vec" in err


# A sync under a per-thread if cannot be vectorized.
GUARDED_SYNC = """
fn guarded(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            if vec.group::<32>[[block]][[thread]] < 1.0 {
                sync
            }
        }
    }
}
"""


def test_plan_reports_fallback_reason(tmp_path, capsys):
    # The disassembler prints the fallback reason instead of an IR dump.
    path = tmp_path / "fallback.descend"
    path.write_text(GUARDED_SYNC)
    assert main(["plan", str(path)]) == 0
    out = capsys.readouterr().out
    assert "falls back to the reference engine" in out
    assert "sync" in out


@pytest.mark.parametrize(
    "flags, comment",
    [
        ([], "// guarded: falls back to the reference engine: {reason}"),
        (["--no-opt"], "// guarded: falls back to the reference engine: {reason}"),
        (["--jit"], "# guarded: no jit source ({reason})"),
        (["--jit", "--no-opt"], "# guarded: no jit source ({reason})"),
    ],
)
def test_plan_fallback_comment_formats(tmp_path, capsys, flags, comment):
    path = tmp_path / "fallback.descend"
    path.write_text(GUARDED_SYNC)
    assert main(["plan", str(path), *flags]) == 0
    reason = (
        "`sync` under a per-thread `if` needs the reference engine's"
        " barrier-divergence detection"
    )
    assert capsys.readouterr().out == comment.format(reason=reason) + "\n"


def test_syntax_error_is_reported(tmp_path, capsys):
    path = tmp_path / "broken.descend"
    path.write_text("fn oops(")
    # syntax-error has its own exit status in the EXIT_CODES table.
    assert main(["check", str(path)]) == 3
    assert "error" in capsys.readouterr().err


def test_bench_quick_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_cli.json"
    assert main(["bench", "--quick", "--benchmarks", "transpose", "--output", str(out_path)]) == 0
    assert "speedup" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["all_cycles_match"] is True
    assert payload["workloads"][0]["benchmark"] == "transpose"


def test_figure8_engine_flag(capsys):
    assert main(["figure8", "--benchmarks", "transpose", "--sizes", "small",
                 "--engine", "vectorized"]) == 0
    assert "transpose" in capsys.readouterr().out


def test_figure8_scale_flag(capsys):
    import json

    assert main(["figure8", "--benchmarks", "reduce", "--sizes", "small",
                 "--engine", "vectorized", "--scale", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # reduce/small is 4096 f64 elements at scale 1 -> 64 KiB at scale 2
    assert payload["rows"][0]["footprint_bytes"] == 2 * 4096 * 8


def test_bench_descend_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_descend_cli.json"
    assert main(["bench", "--descend", "--benchmarks", "transpose", "--scales", "1",
                 "--output", str(out_path)]) == 0
    assert "descend" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "descend-engine-bench"
    assert payload["all_cycles_match"] is True
    assert payload["workloads"][0]["variant"] == "descend"
    assert payload["workloads"][0]["speedup"] > 1.0


def test_check_timings_prints_pass_breakdown(good_file, capsys):
    assert main(["check", good_file, "--timings"]) == 0
    captured = capsys.readouterr()
    assert "type checks" in captured.out
    assert "pass timings" in captured.err
    assert "parse" in captured.err and "typeck" in captured.err


def test_repeated_check_hits_the_shared_session(good_file, capsys):
    assert main(["check", good_file]) == 0
    assert main(["check", good_file, "--timings"]) == 0
    # The CLI session is shared across invocations of main() in one process,
    # so the second check is a cache hit: the table lists the first check's
    # cold parse row (`no`) and the second one's cached row (`yes`) last.
    err = capsys.readouterr().err
    # The table lists every pass of the process-wide session; restrict to
    # this test's (unique) file path.
    parse_rows = [line for line in err.splitlines() if good_file in line and " parse " in line]
    assert len(parse_rows) == 2
    assert parse_rows[0].rstrip().endswith("no")
    assert parse_rows[-1].rstrip().endswith("yes")


def test_bench_compile_rejects_workload_flags(capsys):
    assert main(["bench", "--compile", "--benchmarks", "matmul"]) == 2
    assert "--compile" in capsys.readouterr().err


def test_bench_compile_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_compile_cli.json"
    assert main(["bench", "--compile", "--quick", "--output", str(out_path)]) == 0
    assert "speedup" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "compile-time-bench"
    assert payload["geometric_mean_speedup"] > 2.0
    programs = {row["program"] for row in payload["programs"]}
    assert programs == {"scale_vec", "reduce", "transpose", "scan", "matmul"}
    for row in payload["programs"]:
        assert row["cold_total_s"] > row["cached_total_s"]
        # Serializable plans: every program records its pickled plan size
        # and the time a warm process pays to deserialize instead of lower.
        assert row["plan_bytes"] > 0
        assert 0 <= row["plan_deserialize_s"] < row["cold_total_s"]
    assert payload["total_plan_bytes"] == sum(r["plan_bytes"] for r in payload["programs"])


def test_bench_descend_jobs_matches_serial_shape(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_jobs.json"
    store = tmp_path / "store"
    assert main([
        "bench", "--descend", "--benchmarks", "transpose", "--scales", "1",
        "--jobs", "2", "--store", str(store), "--output", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "descend-engine-bench"
    assert payload["all_cycles_match"] is True
    assert payload["workloads"][0]["skipped"] is None
    assert payload["workloads"][0]["cycles_match"] is True
    # The sweep workers warmed the shared persistent store.
    capsys.readouterr()
    assert main(["cache", "stats", "--json", "--store", str(store)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] > 0


def test_bench_descend_jobs_over_a_store_url(tmp_path, capsys):
    import json

    from repro.descend.api import LocalBackend
    from repro.descend.serve import ServeConfig, ServerThread

    out_path = tmp_path / "BENCH_url.json"
    config = ServeConfig(
        str(tmp_path / "serve.sock"), store_path=str(tmp_path / "store"),
        store_http_port=0,
    )
    with ServerThread(LocalBackend(label="cli-http"), config) as thread:
        assert main([
            "bench", "--descend", "--benchmarks", "transpose", "--sizes", "small",
            "--scales", "1", "--jobs", "2", "--store", thread.store_url,
            "--output", str(out_path),
        ]) == 0
        rows = json.loads(out_path.read_text())["workloads"]
        assert rows and all(row["host"] for row in rows)
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--store", thread.store_url]) == 0
        stats = json.loads(capsys.readouterr().out)
    assert stats["backend"] == "http"
    assert stats["entries"] > 0


def test_sweep_worker_start_up_failure_is_not_blamed_on_the_coordinator(
    monkeypatch, capsys
):
    from repro import faults

    monkeypatch.setenv(faults.ENV_SPEC, "sweep.spawn:kind=oserror")
    assert main(["sweep-worker", "--connect", "127.0.0.1:9"]) == 5
    err = capsys.readouterr().err
    assert "start-up" in err
    assert "coordinator" not in err


def test_bench_descend_budget_skips_reference(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_budget.json"
    assert main([
        "bench", "--descend", "--benchmarks", "reduce", "--scales", "1",
        "--budget", "0", "--output", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    row = payload["workloads"][0]
    assert row["skipped"] == "budget"
    assert row["reference_cycles"] is None
    assert row["vectorized_cycles"] > 0


def test_bench_scales_apply_to_the_cudalite_variant(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_scales.json"
    assert main([
        "bench", "--scales", "2", "--sizes", "small", "--benchmarks", "reduce",
        "--output", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "engine-bench"
    [row] = payload["workloads"]
    assert (row["variant"], row["size"], row["scale"]) == ("cudalite", "small", 2)
    assert row["cycles_match"] is True
    assert not [key for key in row if key.startswith("jit_")]
    # `--scale` is no flag of its own: argparse reads it as `--scales`.
    assert build_parser().parse_args(["bench", "--scale", "2"]).scales == [2]


def test_bench_compile_rejects_jobs(capsys):
    assert main(["bench", "--compile", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--benchmarks", "nope"],
        ["bench", "--sizes", "huge"],
        ["bench", "--serve", "--descend"],
        ["bench", "--compile", "--serve"],
        ["figure8", "--benchmarks", "histogram"],
        ["figure8", "--engine", "warp"],
    ],
    ids=" ".join,
)
def test_rejected_bench_flags_exit_2(argv, capsys):
    # A usage error is exit status 2 whether it is returned or raised by a
    # parser as SystemExit.
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_bench_serve_writes_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_serve_cli.json"
    assert main([
        "bench", "--serve", "--requests", "8", "--clients", "2",
        "--output", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "serve-throughput-bench"
    assert payload["warm_compute_passes"] == 0


def test_client_without_daemon_reports_connection_error(tmp_path, capsys):
    sock = str(tmp_path / "nobody-home.sock")
    # ping is idempotent: the client retries the connection, then reports a
    # structured retries-exhausted error with its dedicated exit status.
    assert main(["client", "ping", "--socket", sock, "--retries", "1"]) == 13
    assert "gave up on 'ping'" in capsys.readouterr().err


def test_client_file_ops_require_a_file(capsys):
    assert main(["client", "compile", "--socket", "/tmp/x.sock"]) == 2
    assert "requires a file" in capsys.readouterr().err


def test_serve_and_client_round_trip(good_file, tmp_path, capsys):
    """`descendc serve` in a subprocess, driven by `descendc client`."""
    import os
    import subprocess
    import sys

    from repro.descend.api import DescendClient

    sock = str(tmp_path / "cli-serve.sock")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         "--store", str(tmp_path / "store")],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert DescendClient(sock).wait_until_ready(timeout=30.0)
        assert main(["client", "ping", "--socket", sock]) == 0
        assert "pong" in capsys.readouterr().out

        assert main(["client", "compile", good_file, "--socket", sock]) == 0
        assert "__global__ void scale_vec" in capsys.readouterr().out

        assert main(["client", "plan", good_file, "--socket", sock]) == 0
        assert capsys.readouterr().out.startswith("plan scale_vec exec gpu.grid")

        assert main(["client", "plan", good_file, "--fun", "nope", "--socket", sock]) == 2
        assert "not a GPU function" in capsys.readouterr().err

        assert main(["client", "shutdown", "--socket", sock]) == 0
        assert "server stopping" in capsys.readouterr().out
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
