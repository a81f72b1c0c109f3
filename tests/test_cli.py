"""Command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, load_graph, main
from repro.graph.generators import erdos_renyi
from repro.graph.io import save_edgelist_txt, save_npz


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_datasets_lists_all(capsys):
    code, out = run_cli(capsys, "datasets")
    assert code == 0
    for name in ("kron_g500-logn21", "ak2010", "orkut"):
        assert name in out
    assert "out-of-memory" in out and "in-memory" in out


def test_info_shows_machine(capsys):
    code, out = run_cli(capsys, "info")
    assert code == 0
    assert "K20c" in out
    assert "PCIe" in out


def test_run_on_dataset(capsys):
    code, out = run_cli(
        capsys, "run", "--graph", "delaunay_n13", "--algorithm", "bfs", "--source", "3"
    )
    assert code == 0
    assert "converged=True" in out
    assert "sim time" in out


def test_run_unoptimized_flag(capsys):
    code, out = run_cli(
        capsys, "run", "--graph", "delaunay_n13", "--algorithm", "cc", "--unoptimized"
    )
    assert code == 0
    assert "streaming" in out


def test_run_on_file(tmp_path, capsys):
    g = erdos_renyi(50, 200, seed=1)
    path = tmp_path / "g.txt"
    save_edgelist_txt(g, path)
    code, out = run_cli(capsys, "run", "--graph", str(path), "--algorithm", "pagerank")
    assert code == 0
    assert "pagerank" in out


def test_load_graph_npz(tmp_path):
    g = erdos_renyi(30, 90, seed=2)
    path = tmp_path / "g.npz"
    save_npz(g, path)
    h = load_graph(str(path))
    assert h.num_edges == 90


def test_unknown_graph_errors():
    with pytest.raises(SystemExit):
        load_graph("definitely-not-a-graph")


def test_compare_runs_all_frameworks(capsys):
    code, out = run_cli(
        capsys, "compare", "--graph", "delaunay_n13", "--algorithm", "bfs"
    )
    assert code == 0
    for fw in ("GraphReduce", "GraphChi", "X-Stream", "CuSha", "MapGraph", "Totem"):
        assert fw in out


def test_kcore_via_cli(capsys):
    code, out = run_cli(
        capsys, "run", "--graph", "delaunay_n13", "--algorithm", "kcore", "--k", "3"
    )
    assert code == 0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_removed_plan_flags_are_refused():
    run = ["run", "--graph", "delaunay_n13", "--algorithm", "bfs"]
    for removed in (["--no-plan-cache"], ["--no-sparse-bypass"], ["--plan-cache-budget", "0"],
                    ["--execution-mode", "async"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(run + removed)
    batch = ["batch", "--graph", "delaunay_n13", "--algorithm", "bfs", "--sources", "0"]
    build_parser().parse_args(batch)
    with pytest.raises(SystemExit):
        build_parser().parse_args(batch + ["--keep-warm"])
    profile = ["profile", "--algo", "bfs"]
    for cmd in (run, batch, profile):
        assert build_parser().parse_args(cmd + ["--cache-policy", "greedy"]).cache_policy == "greedy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(cmd + ["--cache-policy", "lru"])


def test_negative_source_and_memory_budget_are_refused_at_parse_time(capsys):
    run = ["run", "--graph", "delaunay_n13", "--algorithm", "pagerank"]
    for flag, message in (
        ("--source", "vertex ids are >= 0"),
        ("--memory-budget", "must be >= 0 bytes"),
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(run + [flag, "-1"])
        assert message in capsys.readouterr().err
    args = build_parser().parse_args(run + ["--source", "0,3", "--memory-budget", "0"])
    assert (args.source, args.memory_budget) == ("0,3", 0)


def test_iteration_limit_and_partition_count_are_refused_at_parse_time(capsys):
    for cmd in (["run", "--graph", "delaunay_n13", "--algorithm", "bfs"],
                ["batch", "--graph", "delaunay_n13", "--algorithm", "bfs"],
                ["profile", "--algo", "bfs"], ["trace", "--algo", "bfs"]):
        for flag, value, message in (("--max-iterations", "-1", "must be >= 0"),
                                     ("--partitions", "0", "must be >= 1")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(cmd + [flag, value])
            assert message in capsys.readouterr().err, (cmd, flag)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["partition", "g.npz", "--out", "s", "--partitions", "0"])
    args = build_parser().parse_args(
        ["run", "--graph", "delaunay_n13", "--algorithm", "bfs",
         "--max-iterations", "0", "--partitions", "1"]
    )
    assert (args.max_iterations, args.partitions) == (0, 1)


def test_removed_host_parallelism_flags_are_refused(capsys):
    run = ["run", "--graph", "delaunay_n13", "--algorithm", "bfs"]
    for flag in (["--parallel-backend", "threads"], ["--workers", "2"],
                 ["--parallel-shards", "2"], ["--stall-timeout", "5"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(run + flag)
        assert "unrecognized arguments" in capsys.readouterr().err, flag
    # The live half of telemetry went with the workers it watched.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["monitor", "s.jsonl", "--once"])
    assert "invalid choice: 'monitor'" in capsys.readouterr().err
    for flag in (["--flight-recorder"], ["--telemetry-budget", "1024"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(run + ["--telemetry-out", "s.jsonl", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err, flag
    # --frontier-policy stays, for the multi-device scheduler only
    assert build_parser().parse_args(
        run + ["--devices", "2", "--frontier-policy", "partitioned"]
    ).frontier_policy == "partitioned"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--algo", "bfs", "--frontier-policy", "partitioned"])


class TestPartition:
    def test_partition_then_run_from_store(self, tmp_path, capsys):
        g = erdos_renyi(60, 240, seed=4)
        save_npz(g, tmp_path / "g.npz")
        code, out = run_cli(
            capsys, "partition", str(tmp_path / "g.npz"),
            "--out", str(tmp_path / "store"), "--partitions", "4",
        )
        assert code == 0
        assert "4 shards" in out and "V=60" in out
        code, out = run_cli(
            capsys, "run", "--shard-store", str(tmp_path / "store"),
            "--algorithm", "pagerank-power", "--power-iterations", "5",
            "--memory-budget", "1",
        )
        assert code == 0
        assert "prefetch" in out  # counters printed for store-backed runs
        assert "cache capacity 1" in out

    def test_run_without_graph_or_store_errors(self, capsys):
        with pytest.raises(SystemExit, match="provide --graph or --shard-store"):
            main(["run", "--algorithm", "bfs"])

    def test_profile_reports_prefetch_row(self, tmp_path, capsys):
        g = erdos_renyi(60, 240, seed=4)
        save_npz(g, tmp_path / "g.npz")
        run_cli(
            capsys, "partition", str(tmp_path / "g.npz"),
            "--out", str(tmp_path / "store"),
        )
        code, out = run_cli(
            capsys, "profile", "--shard-store", str(tmp_path / "store"),
            "--algo", "pagerank-power", "--power-iterations", "5",
            "--out", str(tmp_path / "profile.json"),
        )
        assert code == 0
        assert "host prefetch" in out
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["prefetch"]["hits"] + doc["prefetch"]["faults"] > 0


class TestTrace:
    def test_writes_consistent_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys,
            "trace",
            "--algo",
            "pagerank",
            "--graph",
            "delaunay_n13",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "chrome://tracing" in out
        assert "memcpy" in out and "gather_map" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        cats = {ev.get("cat") for ev in doc["traceEvents"]}
        assert {"iteration", "phase", "h2d", "kernel"} <= cats

    def test_unoptimized_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys,
            "trace",
            "--algo",
            "bfs",
            "--graph",
            "delaunay_n13",
            "--unoptimized",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.exists()


@pytest.fixture(scope="class")
def shared_bench_suites(bench_suite_runs):
    """``bench.run_suite`` measures the session's one run of each row, so
    ``run_suite()`` and ``run_suite(names=sorted(all))`` share it."""
    from repro.obs import bench

    def run_suite(names=None):
        return {name: bench.measure(bench_suite_runs[name])
                for name in names or sorted(bench_suite_runs)}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "run_suite", run_suite)
        yield


@pytest.mark.usefixtures("shared_bench_suites")
class TestBenchCheck:
    def test_committed_snapshot_passes(self, capsys):
        code, out = run_cli(capsys, "bench-check")
        assert code == 0
        assert "ok: no phase regressed" in out
        assert "pagerank_rmat12" in out

    def test_update_then_check_round_trip(self, tmp_path, capsys):
        snap = tmp_path / "BENCH_test.json"
        code, out = run_cli(capsys, "bench-check", "--snapshot", str(snap), "--update")
        assert code == 0
        assert "wrote" in out
        code, out = run_cli(capsys, "bench-check", "--snapshot", str(snap))
        assert code == 0

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        """Halving every committed timing makes the fresh run look 2x
        slower -- the gate must trip (the ISSUE acceptance criterion)."""
        from repro.obs import bench

        doc = bench.load_snapshot("benchmarks/BENCH_baseline.json")
        crippled = {
            name: {
                **m,
                "sim_time": m["sim_time"] / 2,
                "phases": {ph: t / 2 for ph, t in m["phases"].items()},
            }
            for name, m in doc["benchmarks"].items()
        }
        snap = tmp_path / "BENCH_crippled.json"
        bench.save_snapshot(snap, crippled, tolerance=doc["tolerance"])
        code = main(["bench-check", "--snapshot", str(snap)])
        err = capsys.readouterr().err
        assert code == 1
        assert "regression(s)" in err
        assert "2.00x" in err
        assert "sssp_auto_road/" in err  # the rows folded in from the wall-clock suite

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(["bench-check", "--snapshot", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "not found" in err


class TestProfile:
    def test_writes_profile_and_validates(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys,
            "profile",
            "--algo",
            "pagerank",
            "--graph",
            "delaunay_n13",
            "--out",
            str(out_path),
            "--trace-out",
            str(trace_path),
        )
        assert code == 0
        assert "bottleneck" in out and "model validation" in out
        assert "[ok ]" in out and "FAIL" not in out
        doc = json.loads(out_path.read_text())
        assert doc["profile_version"] == 1
        assert doc["verdict"]["recommendation"]
        assert all(c["ok"] for c in doc["model_validation"])
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_streaming_profile(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        code, out = run_cli(
            capsys,
            "profile",
            "--algo",
            "bfs",
            "--graph",
            "delaunay_n13",
            "--cache-policy",
            "never",
            "--out",
            str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["counters"]["movement.h2d.copies"] > 0

    def test_unoptimized_profile(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        code, out = run_cli(
            capsys, "profile", "--algo", "cc", "--graph", "delaunay_n13",
            "--unoptimized", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["overlap"]["efficiency"] == 0.0


class TestBenchDiff:
    @pytest.fixture()
    def profile_doc(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        code, _ = run_cli(
            capsys, "profile", "--algo", "pagerank", "--graph", "delaunay_n13",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_identical_profiles_pass(self, profile_doc, tmp_path, capsys):
        code, out = run_cli(
            capsys, "bench-diff", str(profile_doc), str(profile_doc)
        )
        assert code == 0
        assert "no timing metric regressed" in out

    def test_degraded_profile_exits_nonzero(self, profile_doc, tmp_path, capsys):
        """ISSUE acceptance: a deliberately degraded snapshot must fail."""
        doc = json.loads(profile_doc.read_text())
        doc["sim_time"] *= 1.5
        for ph in doc["phases"].values():
            ph["total_time"] *= 1.5
        degraded = tmp_path / "degraded.json"
        degraded.write_text(json.dumps(doc))
        code = main(["bench-diff", str(profile_doc), str(degraded)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.out
        assert "regression(s)" in captured.err
        assert "sim_time" in captured.err

    def test_bench_snapshot_diffs_against_itself(self, capsys):
        code, out = run_cli(
            capsys, "bench-diff", "benchmarks/BENCH_baseline.json",
            "benchmarks/BENCH_baseline.json", "--all",
        )
        assert code == 0
        assert "pagerank_rmat12" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["bench-diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unrecognized_document_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["bench-diff", str(bad), str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.usefixtures("shared_bench_suites")
class TestBenchCheckUpdate:
    def test_update_preserves_tuned_tolerance(self, tmp_path, capsys):
        """`--update` must not silently reset a tuned gate to default."""
        from repro.obs import bench

        snap = tmp_path / "BENCH_tuned.json"
        bench.save_snapshot(snap, bench.run_suite(["cc_er"]), tolerance=0.25)
        code, out = run_cli(capsys, "bench-check", "--snapshot", str(snap), "--update")
        assert code == 0
        assert bench.load_snapshot(snap)["tolerance"] == 0.25
        assert "tolerance 0.25" in out

    def test_update_explicit_tolerance_wins(self, tmp_path, capsys):
        from repro.obs import bench

        snap = tmp_path / "BENCH_tuned.json"
        bench.save_snapshot(snap, bench.run_suite(["cc_er"]), tolerance=0.25)
        code, _ = run_cli(
            capsys, "bench-check", "--snapshot", str(snap), "--update",
            "--tolerance", "0.05",
        )
        assert code == 0
        assert bench.load_snapshot(snap)["tolerance"] == 0.05


class TestTelemetryCli:
    def _stream(self, tmp_path, capsys, *extra):
        stream = tmp_path / "run.jsonl"
        code, out = run_cli(
            capsys, "run", "--graph", "delaunay_n13", "--algorithm",
            "pagerank", "--telemetry-out", str(stream),
            "--telemetry-interval", "0", *extra,
        )
        assert code == 0
        assert "telemetry  :" in out and str(stream) in out
        return stream, out

    def test_run_streams_one_complete_run(self, tmp_path, capsys):
        stream, out = self._stream(tmp_path, capsys)
        records = [json.loads(l) for l in stream.read_text().splitlines()]
        assert f"telemetry  : {len(records)} records -> {stream}" in out
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        end = records[-1]
        assert end["converged"] is True and end["error"] is None
        assert kinds.count("snapshot") == end["iterations"]

    def test_run_truncates_a_stale_stream(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        stream.write_text('{"schema": 1, "kind": "run_start"}\n' * 5)
        self._stream(tmp_path, capsys)
        records = [
            json.loads(l) for l in stream.read_text().splitlines()
        ]
        assert sum(r["kind"] == "run_start" for r in records) == 1

    def test_telemetry_report_rejects_schema_mismatch(self, tmp_path, capsys):
        stream = tmp_path / "old.jsonl"
        stream.write_text('{"schema": 1, "kind": "run_start"}\n')
        code = main(["telemetry-report", str(stream)])
        assert code == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_telemetry_report_folds_and_diffs(self, tmp_path, capsys):
        stream, _ = self._stream(tmp_path, capsys)
        report = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "telemetry-report", str(stream), "--out", str(report),
        )
        assert code == 0
        assert "telemetry report: pagerank" in out
        doc = json.loads(report.read_text())
        assert doc["telemetry_version"] == 1
        assert doc["converged"] is True
        code, out = run_cli(
            capsys, "bench-diff", str(report), str(report), "--all",
        )
        assert code == 0
        assert "telemetry:pagerank" in out

    def test_telemetry_report_missing_stream_exits_2(self, tmp_path, capsys):
        code = main(["telemetry-report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
