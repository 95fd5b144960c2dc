"""CLI and pipeline surface: reports, digests, exit codes, microbench."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fpgb
from fpgb import bench, sparselin
from fpgb.bench import (
    PipelineConfig,
    basis_digest,
    make_instance,
    microbench,
    run_pipeline,
    verify_instance,
)
from fpgb.cli import main
from fpgb.errors import (
    DivisionError,
    LaneOverflowError,
    NonterminationError,
    PropertyViolationError,
    UncoverableTargetError,
)
from fpgb.groebner import buchberger_reference
from fpgb.systems import format_system, gen_katsura, parse_system


def test_run_pipeline_engines_same_digest():
    cfg = PipelineConfig()
    ring, polys, desc = make_instance("katsura", n=2, p=101, seed=0)
    rep1, text1, _ = run_pipeline(ring, polys, cfg, desc)
    text2 = format_system(ring, buchberger_reference(polys, ring))
    assert rep1.digest == basis_digest(text2)
    assert text1 == text2
    assert "engine" not in rep1.config
    ring2, polys2 = parse_system(text1)
    assert [f.terms for f in polys2]  # basis text round-trips through the parser


def test_report_fields_and_m_crosscheck():
    cfg = PipelineConfig()
    ring, polys, desc = make_instance("cyclic", n=4, p=101, seed=0)
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


def test_total_time_includes_the_basis_text(monkeypatch):
    # fpgb gb prints the basis text, so building it is part of the run's time
    real = bench.format_system
    monkeypatch.setattr(bench, "format_system", lambda ring, polys: time.sleep(0.2) or real(ring, polys))
    ring, polys, desc = make_instance("katsura", n=2, p=101, seed=0)
    report, _, _ = run_pipeline(ring, polys, PipelineConfig(), desc)
    assert report.totals["time_total_ns"] >= 200_000_000


def test_digest_stable_across_worker_counts():
    digests = set()
    for workers in (1, 2, 4, 8):
        cfg = PipelineConfig(workers=workers)
        ring, polys, desc = make_instance("cyclic", n=4, p=101, seed=0)
        rep, _, _ = run_pipeline(ring, polys, cfg, desc)
        digests.add(rep.digest)
    assert len(digests) == 1


def test_verify_instance_all_pass():
    cfg = PipelineConfig()
    ring, polys, _ = make_instance("katsura", n=2, p=101, seed=0)
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
    ring, polys, _ = make_instance("katsura", n=3, p=101, seed=0)
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
    ring, polys, _ = make_instance("katsura", n=2, p=101, seed=0)
    checks = verify_instance(ring, polys, cfg)
    assert reruns == [1, 4, 8]
    assert ("digest_worker_stability", True, "1 distinct digests") in checks


def test_verify_wiedemann_computes_each_batch_kernel_once_per_engine(monkeypatch):
    from fpgb import groebner

    calls = {"dense": 0, "wiedemann": 0}

    def spy(engine, real):
        def counted(*args, **kwargs):
            calls[engine] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(groebner, "left_kernel", spy("dense", groebner.left_kernel))
    monkeypatch.setattr(groebner, "wiedemann_solve", spy("wiedemann", groebner.wiedemann_solve))
    cfg = PipelineConfig(numeric="wiedemann")
    ring, polys, _ = make_instance("katsura", n=3, p=101, seed=0)
    checks = verify_instance(ring, polys, cfg)
    assert all(ok for _, ok, _ in checks)
    batches = sum(1 for name, _, _ in checks if name == "plan_structure")
    # per batch: the dense check once and the Wiedemann check once; F4 and
    # the 2/4/8-lane reruns run psge alone
    assert batches == 4 and calls == {"dense": batches, "wiedemann": batches}


def test_verify_has_no_numeric_flag(monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran on a usage error")

    monkeypatch.setattr("fpgb.groebner.f4_step", no_batch)
    argv = ["verify", "--family", "katsura", "--n", "3", "--p", "101"]
    assert main(argv + ["--numeric", "wiedemann"]) == 2
    assert main(argv + ["--numeric", "psge"]) == 2


def test_f4_and_verify_leave_the_block_width_to_wiedemann_solve(monkeypatch):
    from fpgb import groebner

    passed = []
    real_solve = groebner.wiedemann_solve

    def spy(*args, **kwargs):
        passed.append(kwargs)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(groebner, "wiedemann_solve", spy)
    ring, polys, _ = make_instance("katsura", n=3, p=101, seed=0)
    run_pipeline(ring, polys, PipelineConfig(numeric="wiedemann"))
    f4_solves = len(passed)
    checks = verify_instance(ring, polys, PipelineConfig())
    assert all(ok for _, ok, _ in checks)
    # every solve, F4's and verify's, runs at the width derived from its nullity
    assert 0 < f4_solves < len(passed) and passed == [{}] * len(passed)


def test_cli_verify_exits_3_above_the_dense_cap(monkeypatch, capsys):
    # katsura-3/101's largest batch is wider than 20 columns
    monkeypatch.setattr("fpgb.sparselin.DENSE_CAP", 20)
    assert main(["verify", "--family", "katsura", "--n", "3", "--p", "101"]) == 3
    assert "guard: dense kernel check capped at 20, got a " in capsys.readouterr().err


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
    ring, polys, _ = make_instance("katsura", n=3, p=65537, seed=0)
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
    # the same seeded batch at a 31-bit prime times the limb tier
    assert small["elapsed_ns.2147483629"] > 0
    times = ("elapsed_ns", "elapsed_ns.2147483629")
    assert small == {**microbench("numeric", 300, seed=5), **{k: small[k] for k in times}}
    big = microbench("numeric", 1200, seed=6)  # past DENSE_CAP: checked by back_reduce only
    assert big["cols"] == 1200 and big["rank"] > 0 and big["elapsed_ns.2147483629"] > 0
    # at most SMALL_ENTRIES entries: the small route, checked the same way at both primes
    tiny = microbench("numeric", 48, seed=0)
    assert tiny["nnz"] <= sparselin.SMALL_ENTRIES
    assert tiny["rank"] > 0 and tiny["fill_generated"] > 0 and tiny["elapsed_ns.2147483629"] > 0


def test_microbench_numeric_holds_new_rows_to_dense_gauss(monkeypatch):
    # a wrong new row that both modes share passes the back_reduce=True
    # comparison; only the dense oracle can catch it
    real_reduce = bench.psge_reduce

    def one_wrong_row(A, back_reduce=True):
        ech = real_reduce(A, back_reduce)
        rows = ech.nonpivot_rows
        s, e = rows.ptr[:2]
        rows.val[s:e] = np.roll(rows.val[s:e], 1)
        return ech

    monkeypatch.setattr(bench, "psge_reduce", one_wrong_row)
    with pytest.raises(PropertyViolationError, match="known-pivot engine disagrees with dense_gauss"):
        microbench("numeric", 300, seed=5)


def test_microbench_kernel(capsys):
    d = microbench("kernel", 120, seed=3)  # within DENSE_CAP: nullity from dense_gauss
    assert d["rows"] < d["cols"] == 120 and d["nullity"] > 0
    for at in ("", ".2147483629"):
        assert d[f"rounds{at}"] >= 1 and d[f"spmm_calls{at}"] > 0 and d[f"elapsed_ns{at}"] > 0
    times = ("elapsed_ns", "elapsed_ns.2147483629")
    assert d == {**microbench("kernel", 120, seed=3), **{k: d[k] for k in times}}
    assert main(["microbench", "--kind", "kernel", "--size", "60"]) == 0
    assert "spmm_calls.2147483629=" in capsys.readouterr().out


@pytest.mark.parametrize("wrong", ["short", "outside", "dependent"])
def test_microbench_kernel_checks_the_vectors(monkeypatch, wrong):
    real_solve = bench.wiedemann_solve

    def broken(At, seed, nullity):
        kb = real_solve(At, seed, nullity)
        v = kb.vectors
        if wrong == "short":
            v.pop()
        elif wrong == "outside":
            v[0] = v[0].copy()
            v[0][np.flatnonzero(v[0])[0]] += 1
            v[0] %= np.uint64(At.modulus.p)
        else:
            v[-1] = v[0]
        return kb

    monkeypatch.setattr(bench, "wiedemann_solve", broken)
    with pytest.raises(PropertyViolationError, match="kernel"):
        microbench("kernel", 120, seed=3)


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
    # join comes back reversed, the Montgomery product is one factor
    real_unique, real_join = bench.unique_sorted, bench.merge_join_index

    def unique_short(*args, **kwargs):
        uniq, rest = real_unique(*args, **kwargs)
        return uniq[1:], rest

    monkeypatch.setattr(bench, "unique_sorted", unique_short)
    monkeypatch.setattr(bench, "merge_join_index", lambda *a, **k: real_join(*a, **k)[::-1])
    monkeypatch.setattr(bench, "mont_mul_vec", lambda a, b, m: a)
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
    assert main(["verify", "--family", "katsura", "--n", "2", "--p", "101",
                 "--engine", "buchberger"]) == 2


@pytest.mark.parametrize(
    # --panel-width, --engine, --backend and --block-width are no flags at all,
    # and dense is no --numeric choice: each is a usage error
    "flags",
    [
        ["--panel-width", "8"],
        ["--max-steps", "-1"],
        ["--engine", "buchberger"],
        ["--numeric", "dense"],
        ["--backend", "montgomery"],
        ["--block-width", "4"],
    ],
    ids=["panel-width", "max-steps", "engine", "numeric-dense", "backend", "block-width"],
)
def test_cli_rejects_bad_config_before_any_batch(monkeypatch, flags):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran with a config that should have been rejected")

    monkeypatch.setattr("fpgb.cli.run_pipeline", no_batch)
    monkeypatch.setattr("fpgb.groebner.f4_step", no_batch)
    for command in ("gb", "bench", "verify"):
        argv = [command, "--family", "katsura", "--n", "3", "--p", "101"]
        if command != "verify":  # verify has no --numeric
            argv += ["--numeric", "psge"]
        assert main(argv + flags) == 2


@pytest.mark.parametrize(
    "exc, code",
    [
        (LaneOverflowError("exponent does not fit a 16-bit lane"), 3),
        (DivisionError("x does not divide y"), 4),
        (UncoverableTargetError("pair 0 has no covering row"), 4),
        (MemoryError(), 3),
    ],
)
def test_cli_exit_codes_for_run_errors(monkeypatch, exc, code):
    def failing_run(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fpgb.cli.run_pipeline", failing_run)
    assert main(["gb", "--family", "cyclic", "--n", "3", "--p", "101"]) == code
    assert main(["bench", "--family", "cyclic", "--n", "3", "--p", "101"]) == code


def test_cli_exits_3_when_a_remainder_block_passes_the_byte_budget(monkeypatch, capsys):
    # katsura-3/101: rows of at most 24 columns (192 bytes) fit; the third
    # batch's 4 x 8 remainder block (256 bytes) does not
    monkeypatch.setattr("fpgb.sparselin.BLOCK_BYTES", 200)
    assert main(["gb", "--family", "katsura", "--n", "3", "--p", "101"]) == 3
    assert "guard: remainder block 4 x 8 exceeds 200 bytes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--family", "cyclic", "--n", "40", "--p", "101"],
        ["gb", "--family", "katsura", "--n", "33", "--p", "101"],
        ["gen", "--family", "random", "--n", "40", "--m", "2", "--p", "101"],
    ],
    ids=["cyclic", "katsura", "random"],
)
def test_cli_rejects_families_over_the_variable_cap(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


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


def test_cli_exits_3_at_the_key_cap_under_an_address_space_limit(tmp_path):
    # katsura-4/65537 under lex: a batch's keys pass symbolic.KEY_CAP, which is
    # refused from the row lengths before the keys are built, so the run
    # exits 3 well inside a fixed address-space limit instead of dying in
    # a MemoryError or an OS kill
    resource = pytest.importorskip("resource")
    limit = 3 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    ring, polys = gen_katsura(4, 65537)
    system = tmp_path / "katsura4-lex.sys"
    text = format_system(ring, polys).replace("order grevlex\n", "order lex\n", 1)
    assert "order lex\n" in text
    system.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fpgb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fpgb.cli", "gb", "--input", str(system)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap_address_space,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3, proc.stderr
    assert "guard: batch key volume M = " in proc.stderr
    assert "exceeds 8388608 keys" in proc.stderr
    assert elapsed < 60


def test_cli_gb_on_malformed_system_files_exits_with_its_code(tmp_path, capsys):
    # exit 0 with nothing on stderr, or exit 2 (bad input) or 3 (a cap)
    # with exactly one error: or guard: line; never a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    huge = b"9" * 5000
    good_p = [b"p 7", b"p 65537", b"p 2147483629"]
    good_vars = [b"vars x y", b"vars x y z"]
    good_order = [b"order grevlex", b"order deglex", b"order lex"]
    bad_p = [b"p 1", b"p 9", b"p 65535", b"p 2147483648", b"p -7", b"p x", b"p", b"q 7", b"p " + huge,
             b"p " + b"7" * 4300, b"p 7 7"]
    bad_vars = [b"vars x", b"vars x x", b"vars", b"vars 1x", b"var x y",
                b"vars " + b" ".join(b"v%d" % i for i in range(33))]
    bad_order = [b"order sideways", b"order", b"ord lex"]
    # every line of a header intact, or each line good, bad or missing
    header = st.tuples(*map(st.sampled_from, (good_p, good_vars, good_order))) | st.tuples(*(
        st.sampled_from(ok) | st.sampled_from(no) | st.none()
        for ok, no in ((good_p, bad_p), (good_vars, bad_vars), (good_order, bad_order))))
    good = [b"x + y", b"x^2 - y", b"x*y - 1", b"3*x^2*y + 2", b"-x", b"0", b"y^3 + z",
            b"7" * 4300 + b"*x + 1", b"# a comment", b""]
    bad = [b"x + y^", b"x @ y", b"x + w", b"x ** y", b"2 3", b"x y", b"+", b"x^-1", b"*x", b"x^65536",
           b"x^" + huge, huge + b"*x", b"x " + huge, "\u00e9".encode(), "x\u00b2".encode()]
    # at most one broken line: a listed one, random characters or random bytes
    broken = (st.none() | st.sampled_from(bad) | st.text("xyz+-*@ 012#", max_size=10).map(str.encode)
              | st.binary(min_size=1, max_size=4))
    valid = (b"p 65537", b"vars x y", b"order grevlex")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(header=header, body=st.lists(st.sampled_from(good), max_size=3), broken=broken,
                      at=st.integers(0, 3))
    @hypothesis.example(header=valid, body=[], broken=huge + b"*x", at=0)
    @hypothesis.example(header=valid, body=[], broken=b"x^" + huge, at=0)
    @hypothesis.example(header=valid, body=[b"x + y"], broken=b"\xff", at=1)
    @hypothesis.example(header=valid, body=[], broken=b"x^65535", at=0)  # no pairs
    @hypothesis.example(header=valid, body=[], broken=None, at=0)
    def check(header, body, broken, at):
        lines = [h for h in header if h is not None] + body
        if broken is not None:
            lines.insert(min(at, len(lines)), broken)
        system = tmp_path / "system.txt"
        system.write_bytes(b"\n".join(lines))
        code = main(["gb", "--input", str(system)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            assert (code, err.count("\n")) in ((2, 1), (3, 1)), err
            assert err.startswith("error: " if code == 2 else "guard: ")

    check()
