"""CLI and pipeline surface: reports, digests, exit codes, microbench."""

import pytest

from fpgb import bench
from fpgb.bench import PipelineConfig, make_instance, microbench, run_pipeline, verify_instance
from fpgb.cli import main
from fpgb.errors import (
    DivisionError,
    LaneOverflowError,
    NonterminationError,
    PropertyViolationError,
    UncoverableTargetError,
)
from fpgb.fp import KernelArith
from fpgb.systems import parse_system


def test_run_pipeline_engines_same_digest():
    cfg_f4 = PipelineConfig(engine="f4")
    cfg_b = PipelineConfig(engine="buchberger")
    ring, polys, desc = make_instance("katsura", cfg_f4, n=2, p=101, seed=0)
    rep1, text1, _ = run_pipeline(ring, polys, cfg_f4, desc)
    rep2, text2, _ = run_pipeline(ring, polys, cfg_b, desc)
    assert rep1.digest == rep2.digest
    assert text1 == text2
    ring2, polys2 = parse_system(text1)
    assert [f.terms for f in polys2]  # basis text round-trips through the parser


def test_report_fields_and_m_crosscheck():
    cfg = PipelineConfig()
    ring, polys, desc = make_instance("cyclic", cfg, n=4, p=101, seed=0)
    report, _, _ = run_pipeline(ring, polys, cfg, desc)
    assert report.batches
    flat = dict(report.flat_items())
    assert flat["schema"] == "fpgb-bench-v1"
    for i, b in enumerate(report.batches):
        for k in ("degree", "r", "N", "M", "nnz", "rank"):
            assert f"batch.{i}.{k}" in flat
        for k in ("dict_build", "row_assemble", "numeric_core"):
            assert f"batch.{i}.timings_ns.{k}" in flat
            assert b["timings_ns"][k] >= 0
    assert "totals.fill_generated" in flat  # psge fill proxy
    assert flat["totals.M_total"] == sum(b["M"] for b in report.batches)
    assert "digest" in flat


def test_digest_stable_across_worker_counts():
    digests = set()
    for workers in (1, 2, 4, 8):
        cfg = PipelineConfig(workers=workers)
        ring, polys, desc = make_instance("cyclic", cfg, n=4, p=101, seed=0)
        rep, _, _ = run_pipeline(ring, polys, cfg, desc)
        digests.add(rep.digest)
    assert len(digests) == 1


def test_verify_instance_all_pass():
    cfg = PipelineConfig()
    ring, polys, _ = make_instance("katsura", cfg, n=2, p=101, seed=0)
    checks = verify_instance(ring, polys, cfg)
    assert checks and all(ok for _, ok, _ in checks)
    names = {name for name, _, _ in checks}
    assert {"plan_structure", "dictionary_oracle", "row_decode_oracle",
            "closure_soundness", "engine_agreement", "digest_worker_stability"} <= names


def test_verify_instance_honours_max_steps(monkeypatch):
    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("buchberger_reference called past the batch cap")

    monkeypatch.setattr("fpgb.bench.buchberger_reference", oracle_must_not_run)
    cfg = PipelineConfig(max_steps=1)
    ring, polys, _ = make_instance("katsura", cfg, n=3, p=101, seed=0)
    with pytest.raises(NonterminationError, match="f4 exceeded 1 batches"):
        verify_instance(ring, polys, cfg)


def test_verify_instance_reruns_only_the_other_worker_counts(monkeypatch):
    import fpgb.bench

    reruns = []
    real_run = fpgb.bench.run_pipeline

    def counting_run(ring, polys, config, instance=None):
        reruns.append(config.workers)
        return real_run(ring, polys, config, instance)

    monkeypatch.setattr("fpgb.bench.run_pipeline", counting_run)
    cfg = PipelineConfig(workers=2)
    ring, polys, _ = make_instance("katsura", cfg, n=2, p=101, seed=0)
    checks = verify_instance(ring, polys, cfg)
    assert reruns == [1, 4, 8]
    assert ("digest_worker_stability", True, "1 distinct digests") in checks


def test_verify_names_the_batch_whose_kernel_came_up_short(monkeypatch):
    import fpgb.groebner

    real_solve = fpgb.groebner.wiedemann_solve
    calls, short = [], []

    def solve(A, seed, max_vectors, **kwargs):
        # one call per batch; the first with a kernel of two or more gets a
        # budget of one round with one probe, which cannot fill it
        batch = len(calls)
        calls.append(max_vectors)
        if not short and max_vectors >= 2:
            short.append((batch, max_vectors))
            kwargs.update(block_width=1, max_rounds=1)
        return real_solve(A, seed, max_vectors, **kwargs)

    monkeypatch.setattr("fpgb.groebner.wiedemann_solve", solve)
    cfg = PipelineConfig()
    ring, polys, _ = make_instance("katsura", cfg, n=3, p=65537, seed=0)
    checks = verify_instance(ring, polys, cfg)
    assert short, "no batch with a kernel of two or more vectors"
    (batch, nullity), = short
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert len(failed) == 1
    name, detail = failed[0]
    assert name == "kernel_syzygy_wiedemann"
    assert detail.startswith(f"batch {batch}: found 1 of {nullity} kernel vectors")
    assert "seed trail" in detail
    # every other per-batch check names its batch too
    kernel = [d for n, ok, d in checks if n.startswith("kernel_syzygy")]
    assert kernel[2 * batch] == f"batch {batch}: found {nullity} of nullity {nullity}"
    assert all(d.startswith("batch ") for n, _, d in checks if n == "plan_structure")


def test_microbench_kinds():
    d = microbench("dict_build", 5000, duplicate_rate=1 - 1 / 5000, seed=1)
    assert d["unique_out"] == 1  # all keys equal
    assert d["radix_passes"] == 16
    sizes = [10_000, 20_000]
    counts = [microbench("dict_build", s, 0.5, 2)["keys_total"] for s in sizes]
    assert counts == sizes  # monotone key volume by construction
    r = microbench("row_assemble", 5000, seed=3)
    assert r["joins_per_s"] > 0 and r["bucket_imbalance"] >= 1.0
    f = microbench("mod_fma", 10_000, seed=4)
    assert all(f[f"updates_per_s.{b}"] > 0 for b in ("naive", "barrett", "montgomery"))


def test_microbench_numeric():
    small = microbench("numeric", 300, seed=5)  # within DENSE_CAP: also checked by dense_gauss
    assert small["rows"] > small["rank"] > 0
    assert small["fill_generated"] > 0 and small["elapsed_ns"] > 0
    assert small == {**microbench("numeric", 300, seed=5), "elapsed_ns": small["elapsed_ns"]}
    big = microbench("numeric", 1200, seed=6)  # past DENSE_CAP: checked by back_reduce only
    assert big["cols"] == 1200 and big["rank"] > 0


@pytest.mark.parametrize("rate", ["-1", "-0.01", "1", "1.5", "nan"])
def test_microbench_rejects_a_duplicate_rate_outside_0_1(capsys, rate):
    args = ["microbench", "--kind", "dict_build", "--size", "1000"]
    assert main(args + ["--duplicate-rate", rate]) == 2
    assert "duplicate_rate must be in [0, 1)" in capsys.readouterr().err
    assert main(args + ["--duplicate-rate", "0"]) == 0
    assert "unique_out=" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["dict_build", "row_assemble", "mod_fma"])
def test_microbench_wrong_output_raises(monkeypatch, kind):
    # each checked primitive gives wrong output: unique drops a key, the
    # join comes back reversed, the modular product is one factor
    real_unique, real_join = bench.unique_sorted, bench.merge_join_index

    def unique_short(*args, **kwargs):
        uniq, rest = real_unique(*args, **kwargs)
        return uniq[1:], rest

    monkeypatch.setattr(bench, "unique_sorted", unique_short)
    monkeypatch.setattr(bench, "merge_join_index", lambda *a, **k: real_join(*a, **k)[::-1])
    monkeypatch.setattr(KernelArith, "mul", lambda self, a, b: a)
    with pytest.raises(PropertyViolationError, match=kind):
        microbench(kind, 2000, seed=1)
    assert main(["microbench", "--kind", kind, "--size", "2000"]) == 4


def test_cli_gen_gb_bench(tmp_path):
    sys_file = tmp_path / "sys.txt"
    assert main(["gen", "--family", "cyclic", "--n", "3", "--p", "101",
                 "--out", str(sys_file)]) == 0
    ring, polys = parse_system(sys_file.read_text())
    assert len(polys) == 3
    basis_file = tmp_path / "basis.txt"
    report_file = tmp_path / "report.txt"
    assert main(["gb", "--input", str(sys_file), "--basis-out", str(basis_file),
                 "--report", str(report_file)]) == 0
    assert "p 101" in basis_file.read_text()
    flat = (tmp_path / "report.txt.flat").read_text()
    assert "digest=" in flat
    assert main(["bench", "--family", "katsura", "--n", "2", "--p", "7",
                 "--report", str(tmp_path / "b.txt")]) == 0
    body = (tmp_path / "b.txt").read_text()
    assert "dict_build_ns" in body and "digest:" in body


def test_cli_verify_ok():
    assert main(["verify", "--family", "cyclic", "--n", "3", "--p", "7"]) == 0


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 101\nvars x y\norder grevlex\nx + w\n")
    assert main(["gb", "--input", str(bad)]) == 2
    composite = tmp_path / "composite.txt"
    composite.write_text("p 100\nvars x\norder grevlex\nx\n")
    assert main(["gb", "--input", str(composite)]) == 2
    assert main(["gb", "--family", "cyclic", "--n", "4", "--p", "101",
                 "--max-steps", "2"]) == 3
    assert main(["gb", "--input", str(tmp_path / "missing.txt")]) == 2
    assert main(["gb", "--family", "cyclic"]) == 2  # missing --n/--p
    assert main(["gen", "--family", "random", "--n", "3", "--p", "101"]) == 2  # missing --m
    assert main(["bench", "--family", "cyclic", "--n", "3", "--p", "101",
                 "--workers", "-3"]) == 2
    assert main(["bench", "--family", "katsura", "--n", "2", "--p", "101",
                 "--numeric", "wiedemann", "--block-width", "0"]) == 2
    assert main(["verify", "--family", "katsura", "--n", "2", "--p", "101",
                 "--engine", "buchberger"]) == 2


@pytest.mark.parametrize(
    "flags", [["--panel-width", "0"], ["--max-steps", "-1"]], ids=["panel-width", "max-steps"]
)
def test_cli_rejects_bad_config_before_any_batch(monkeypatch, flags):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran with a config that should have been rejected")

    monkeypatch.setattr("fpgb.cli.run_pipeline", no_batch)
    monkeypatch.setattr("fpgb.groebner.f4_step", no_batch)
    for command in ("gb", "verify"):
        argv = [command, "--family", "katsura", "--n", "3", "--p", "101", "--numeric", "dense"]
        assert main(argv + flags) == 2


@pytest.mark.parametrize(
    "exc, code",
    [
        (LaneOverflowError("exponent does not fit a 16-bit lane"), 3),
        (DivisionError("x does not divide y"), 4),
        (UncoverableTargetError("pair 0 has no covering row"), 4),
    ],
)
def test_cli_exit_codes_for_run_errors(monkeypatch, exc, code):
    def failing_run(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fpgb.cli.run_pipeline", failing_run)
    assert main(["gb", "--family", "cyclic", "--n", "3", "--p", "101"]) == code
    assert main(["bench", "--family", "cyclic", "--n", "3", "--p", "101"]) == code


def test_cli_random_family(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["gen", "--family", "random", "--n", "3", "--m", "3",
                 "--density", "0.5", "--seed", "5", "--p", "65537",
                 "--out", str(out)]) == 0
    ring, polys = parse_system(out.read_text())
    assert len(polys) == 3 and ring.modulus.p == 65537
    # stable under the same seed
    out2 = tmp_path / "r2.txt"
    assert main(["gen", "--family", "random", "--n", "3", "--m", "3",
                 "--density", "0.5", "--seed", "5", "--p", "65537",
                 "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()
