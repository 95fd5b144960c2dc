"""Pipeline driver, benchmark protocol, microbenchmarks, invariant verifier.

A pipeline run produces a BenchReport (instance descriptor, per-batch shape
counters and stage timings, totals, result digest) plus the reduced basis
text.  Stage timings split the work into the three kernels the engine is
built around: dictionary build (key emission + sort + unique), row assembly
(dictionary join), and the numeric core (elimination or kernel solve).

The F4 loop itself is ``groebner.f4_groebner``: ``run_pipeline`` and
``verify_instance`` call it once each and read every batch through its
``on_batch`` callback.  ``PipelineConfig`` is defined in ``groebner`` and
re-exported here.

Reports serialize two ways: a human-readable table and a flat
``key=value`` form for scripts.  Digests are sha256 over the canonical
basis text and must be identical for every worker-lane count.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bulk import (
    exclusive_scan,
    merge_join_index,
    radix_digits,
    radix_pass_count,
    radix_sort,
    unique_sorted,
)
from .errors import PreconditionError, PropertyViolationError
from .fp import (
    FieldModulus,
    barrett_reduce_vec,
    mont_enter_vec,
    mont_leave_vec,
    mont_mul_vec,
    naive_mul_vec,
)
from .groebner import (
    PipelineConfig,
    buchberger_reference,
    f4_groebner,
    groebner_kernel_checks,
    is_groebner,
)
from .monomials import mon_divides, key_unpack_vec
from .polynomials import poly_mul_mon, soa_polys
from .sparselin import (
    DENSE_CAP,
    csr_from_arrays,
    csr_from_dense,
    csr_transpose,
    dense_gauss,
    dense_rank,
    psge_reduce,
    spmv,
    wiedemann_solve,
)
from .symbolic import decode_row, row_lead_cols
from .systems import format_system, gen_cyclic, gen_katsura, gen_random_quadratic


@dataclass
class BenchReport:
    instance: dict
    config: dict
    environment: dict
    batches: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    digest: str = ""

    def flat_items(self):
        yield "schema", "fpgb-bench-v1"
        for k, v in sorted(self.instance.items()):
            yield f"instance.{k}", v
        for k, v in sorted(self.config.items()):
            yield f"config.{k}", v
        for k, v in sorted(self.environment.items()):
            yield f"environment.{k}", v
        for i, b in enumerate(self.batches):
            for k in (
                "degree", "r", "N", "M", "nnz", "rank", "new_polys",
                "zero_reductions", "closure_rounds",
            ):
                yield f"batch.{i}.{k}", b[k]
            for k in ("dict_build", "row_assemble", "numeric_core"):
                yield f"batch.{i}.timings_ns.{k}", b["timings_ns"][k]
            yield f"batch.{i}.fill_generated", b["fill_generated"]
        for k, v in sorted(self.totals.items()):
            yield f"totals.{k}", v
        yield "digest", self.digest

    def to_flat_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.flat_items()) + "\n"

    def to_text(self) -> str:
        lines = ["fpgb bench report", ""]
        lines.append("instance:   " + " ".join(f"{k}={v}" for k, v in sorted(self.instance.items())))
        lines.append("config:     " + " ".join(f"{k}={v}" for k, v in sorted(self.config.items())))
        lines.append("environment: " + " ".join(f"{k}={v}" for k, v in sorted(self.environment.items())))
        lines.append("")
        if self.batches:
            hdr = (
                "batch degree     r     N     M   nnz  rank  new zero  "
                "dict_build_ns row_assemble_ns numeric_core_ns"
            )
            lines.append(hdr)
            for i, b in enumerate(self.batches):
                t = b["timings_ns"]
                lines.append(
                    f"{i:5d} {b['degree']:6d} {b['r']:5d} {b['N']:5d} {b['M']:5d} "
                    f"{b['nnz']:5d} {b['rank']:5d} {b['new_polys']:4d} {b['zero_reductions']:4d}  "
                    f"{t['dict_build']:13d} {t['row_assemble']:15d} {t['numeric_core']:15d}"
                )
            lines.append("")
        lines.append("totals:     " + " ".join(f"{k}={v}" for k, v in sorted(self.totals.items())))
        lines.append(f"digest:     {self.digest}")
        return "\n".join(lines) + "\n"


def basis_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pipeline(ring, polys, config: PipelineConfig, instance: dict | None = None):
    """Run F4 under ``config``; returns (report, basis_text, basis).

    ``time_total_ns`` covers the solve and the basis text, which ``fpgb gb`` prints.
    """
    t_start = time.monotonic_ns()
    batches = []

    def on_batch(basis_before, plan, ech, st):
        batches.append({**vars(st), "timings_ns": dict(st.timings_ns)})

    basis = f4_groebner(polys, ring, config, on_batch)
    basis_text = format_system(ring, basis)
    total_ns = time.monotonic_ns() - t_start

    totals = {
        "batches": len(batches),
        "basis_size": len(basis),
        "time_total_ns": total_ns,
        "M_total": sum(b["M"] for b in batches),
        "nnz_total": sum(b["nnz"] for b in batches),
        "dict_build_ns": sum(b["timings_ns"]["dict_build"] for b in batches),
        "row_assemble_ns": sum(b["timings_ns"]["row_assemble"] for b in batches),
        "numeric_core_ns": sum(b["timings_ns"]["numeric_core"] for b in batches),
        "fill_generated": sum(b["fill_generated"] for b in batches),
    }
    report = BenchReport(
        instance=dict(instance or {}),
        config={
            "numeric": config.numeric,
            "seed": config.seed,
            "workers": config.workers,
        },
        environment={"version": __version__, "worker_lanes": config.workers},
        batches=batches,
        totals=totals,
        digest=basis_digest(basis_text),
    )
    return report, basis_text, basis


def make_instance(family: str, **params):
    """Instantiate a named benchmark family."""
    if family == "cyclic":
        ring, polys = gen_cyclic(params["n"], params["p"])
        desc = {"family": "cyclic", "n": params["n"]}
    elif family == "katsura":
        ring, polys = gen_katsura(params["n"], params["p"])
        desc = {"family": "katsura", "n": params["n"]}
    elif family == "random":
        ring, polys = gen_random_quadratic(
            params["n"], params["m"], params["density"], params["seed"], params["p"]
        )
        desc = {
            "family": "random",
            "n": params["n"],
            "m": params["m"],
            "density": params["density"],
        }
    else:
        raise PreconditionError(f"unknown family {family!r}")
    desc.update({"p": params["p"], "order": ring.order, "seed": params.get("seed", 0)})
    return ring, polys, desc


# ---------------------------------------------------------------------------
# Microbenchmarks for the timed kernels
# ---------------------------------------------------------------------------


def _synth_keys(rng, size: int, duplicate_rate: float, words: int = 2):
    n_unique = max(1, int(round(size * (1.0 - duplicate_rate))))
    pool = rng.integers(0, 1 << 48, (n_unique, words)).astype(np.uint64)
    picks = rng.integers(0, n_unique, size)
    return pool[picks]


def _synth_batch(rng, n_cols: int, m: FieldModulus):
    """An F4-shaped batch: monic known-pivot rows plus remainder rows.

    Three quarters of the columns lead a known-pivot row (about 8 tail
    entries to its right).  There are n_cols/8 remainder rows: half hold
    about 16 random entries, half are random combinations of three
    known-pivot rows, so they reduce to zero as F4's redundant rows do.
    """
    p = np.uint64(m.p)
    leads = np.sort(rng.choice(n_cols, max(1, 3 * n_cols // 4), replace=False))
    rows = []
    for c in leads.tolist():
        tail = c + 1 + rng.integers(0, max(1, n_cols - c - 1), 8) if c + 1 < n_cols else []
        cols = np.unique(np.concatenate([[c], tail])).astype(np.int64)
        vals = rng.integers(1, m.p, len(cols), dtype=np.uint64)
        vals[0] = 1
        rows.append((cols, vals))
    n_known = len(rows)
    for k in range(max(2, n_cols // 8)):
        if k % 2:
            picks = rng.choice(n_known, min(3, n_known), replace=False)
            coefs = rng.integers(1, m.p, len(picks), dtype=np.uint64)
            cols = np.concatenate([rows[i][0] for i in picks])
            terms = np.concatenate([rows[i][1] * c % p for i, c in zip(picks, coefs)])
            cols, inv = np.unique(cols, return_inverse=True)
            vals = np.zeros(len(cols), dtype=np.uint64)
            np.add.at(vals, inv, terms)  # at most three terms below p each
            vals %= p
            keep = vals != 0
            if keep.any():
                rows.append((cols[keep], vals[keep]))
        else:
            cols = np.unique(rng.integers(0, n_cols, 16)).astype(np.int64)
            rows.append((cols, rng.integers(1, m.p, len(cols), dtype=np.uint64)))
    row_ptr = exclusive_scan(np.array([len(c) for c, _ in rows], dtype=np.int64))
    col_ind = np.concatenate([c for c, _ in rows])
    val = np.concatenate([v for _, v in rows])
    return csr_from_arrays(len(rows), n_cols, row_ptr, col_ind, val, m)


def _check_numeric(A, m: FieldModulus):
    """Hold psge_reduce's F4 mode to back_reduce=True and, within DENSE_CAP, to dense_gauss."""
    got = psge_reduce(A, back_reduce=False)
    full = psge_reduce(A, back_reduce=True)
    a, b = got.nonpivot_rows, full.nonpivot_rows
    same_rows = all(map(np.array_equal, (a.ptr, a.ind, a.val), (b.ptr, b.ind, b.val)))
    if got.rank != full.rank or not same_rows:
        raise PropertyViolationError("F4 mode disagrees with the full RREF")
    if max(A.n_rows, A.n_cols) <= DENSE_CAP:
        # back_reduce=True builds the new rows by the same steps: hold them to the oracle
        rank, rref, pivots = dense_gauss(A.to_dense(), m)
        lead_row = dict(zip(pivots, rref))
        if got.rank != rank or not all(
            c in lead_row and np.array_equal(np.flatnonzero(lead_row[c]), cols)
            and np.array_equal(lead_row[c][cols], vals)
            for c, cols, vals in got.nonpivot_rows
        ):
            raise PropertyViolationError("known-pivot engine disagrees with dense_gauss")


def microbench(kind: str, size: int, duplicate_rate: float = 0.5, seed: int = 0) -> dict:
    """Time one isolated primitive on synthetic input, after checking it.

    The output is checked against an oracle first; a mismatch raises
    PropertyViolationError before any throughput number is reported.
    ``dict_build`` times sort plus unique of packed keys at one lane (a stable
    ``np.lexsort`` and a mask): the full-key route, which F4 takes wherever
    ``symbolic``'s one-word key does not fit, and which at more lanes is the
    lane oracle.  Its ``radix_passes`` and
    ``radix_passes_run`` describe the lane-split radix route that more lanes run.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    if not 0 <= duplicate_rate < 1:
        raise PreconditionError("duplicate_rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    out = {"kind": kind, "size": size, "seed": seed}
    if kind == "dict_build":
        keys = _synth_keys(rng, size, duplicate_rate)
        srt, _ = radix_sort(keys)
        uniq, _ = unique_sorted(srt, check=False)
        want = sorted({tuple(k) for k in keys.tolist()})
        if [tuple(k) for k in uniq.tolist()] != want:
            raise PropertyViolationError("dict_build output is not the sorted unique keys")
        t0 = time.monotonic_ns()
        srt, _ = radix_sort(keys)
        uniq, _ = unique_sorted(srt, check=False)
        dt = time.monotonic_ns() - t0
        out.update(
            duplicate_rate=duplicate_rate,
            unique_out=len(uniq),
            radix_passes=radix_pass_count(keys.shape[1]),
            radix_passes_run=len(radix_digits(keys)),
            keys_total=size,
            keys_per_s=size / max(dt, 1) * 1e9,
            bytes_per_s=keys.nbytes / max(dt, 1) * 1e9,
            elapsed_ns=dt,
        )
    elif kind == "row_assemble":
        dic, _ = unique_sorted(radix_sort(_synth_keys(rng, size, 0.0))[0], check=False)
        # length-bucketed row segments drawn from the dictionary
        lens = np.clip(rng.geometric(0.2, max(1, size // 16)), 1, 64)
        picks = np.sort(rng.integers(0, len(dic), int(lens.sum())))
        seg = dic[picks]
        got = merge_join_index(seg, dic, check=False)
        if not np.array_equal(dic[got], seg):
            raise PropertyViolationError("row_assemble join does not find each key")
        t0 = time.monotonic_ns()
        merge_join_index(seg, dic, check=False)
        dt = time.monotonic_ns() - t0
        bucket_counts = np.bincount(np.minimum(lens, 64))
        busiest = int(bucket_counts.max())
        out.update(
            rows=len(lens),
            joins_total=len(seg),
            joins_per_s=len(seg) / max(dt, 1) * 1e9,
            bucket_imbalance=busiest / max(1.0, bucket_counts[bucket_counts > 0].mean()),
            elapsed_ns=dt,
        )
    elif kind == "mod_fma":
        p = 2147483629
        a = rng.integers(0, p, size, dtype=np.uint64)
        b = rng.integers(0, p, size, dtype=np.uint64)
        acc = rng.integers(0, p, size, dtype=np.uint64)
        m, pp = FieldModulus(p), np.uint64(p)
        want = (acc + a * b) % pp
        ma, mb, macc = (mont_enter_vec(v, m) for v in (a, b, acc))
        # each reduction kernel's multiply-add, on operands in its own domain
        fmas = {
            "naive": lambda: (acc + naive_mul_vec(a, b, m)) % pp,
            "barrett": lambda: (acc + barrett_reduce_vec(a * b, m)) % pp,
            "montgomery": lambda: (macc + mont_mul_vec(ma, mb, m)) % pp,
        }
        for name, fma in fmas.items():
            got = fma()
            if name == "montgomery":
                got = mont_leave_vec(got, m)
            if not np.array_equal(got, want):
                raise PropertyViolationError(f"mod_fma: {name} disagrees with naive")
            t0 = time.monotonic_ns()
            fma()
            dt = time.monotonic_ns() - t0
            out[f"updates_per_s.{name}"] = size / max(dt, 1) * 1e9
            out[f"elapsed_ns.{name}"] = dt
    elif kind == "numeric":
        # 65537 takes psge's exact level sweep, the 31-bit prime its limb tier;
        # a batch of at most sparselin.SMALL_ENTRIES entries, the small route
        for p in (65537, 2147483629):
            m = FieldModulus(p)
            A = _synth_batch(np.random.default_rng(seed), size, m)
            _check_numeric(A, m)
            t0 = time.monotonic_ns()
            got = psge_reduce(A, back_reduce=False)
            dt = time.monotonic_ns() - t0
            if p == 65537:
                out.update(
                    rows=A.n_rows,
                    cols=A.n_cols,
                    nnz=A.nnz(),
                    rank=got.rank,
                    fill_generated=got.fill_generated,
                    elapsed_ns=dt,
                )
            else:
                out[f"elapsed_ns.{p}"] = dt
    elif kind == "kernel":
        # the left kernel of an F4-shaped batch, as verify's Wiedemann check
        # solves it; the 31-bit prime splits its projections into 16-bit halves
        for p in (65537, 2147483629):
            m = FieldModulus(p)
            A = _synth_batch(np.random.default_rng(seed), size, m)
            At = csr_transpose(A)
            nullity = A.n_rows - _rank_for_kernel(A, m)
            _check_kernel(At, wiedemann_solve(At, seed, nullity).vectors, nullity, m)
            t0 = time.monotonic_ns()
            kb = wiedemann_solve(At, seed, nullity)
            dt = time.monotonic_ns() - t0
            at = "" if p == 65537 else f".{p}"
            if p == 65537:
                out.update(rows=A.n_rows, cols=A.n_cols, nnz=A.nnz(), nullity=nullity)
            out[f"elapsed_ns{at}"] = dt
            out[f"rounds{at}"] = len(kb.seed_trail)
            out[f"spmm_calls{at}"] = kb.spmm_calls
    else:
        raise PreconditionError(f"unknown microbench kind {kind!r}")
    return out


def _rank_for_kernel(A, m: FieldModulus) -> int:
    """The rank by ``dense_gauss`` within DENSE_CAP; above it by psge, which criterion 8 holds to it."""
    if max(A.n_rows, A.n_cols) <= DENSE_CAP:
        return dense_rank(A.to_dense(), m)
    return psge_reduce(A).rank


def _check_kernel(At, vectors: list, nullity: int, m: FieldModulus):
    """``nullity`` independent vectors, each with At v = 0 by its own SpMV."""
    if len(vectors) != nullity:
        raise PropertyViolationError(f"kernel: {len(vectors)} vectors for nullity {nullity}")
    if any(spmv(At, v).any() for v in vectors):
        raise PropertyViolationError("kernel: a vector with At v != 0")
    if nullity and _rank_for_kernel(csr_from_dense(np.array(vectors), m), m) != nullity:
        raise PropertyViolationError("kernel: the vectors are dependent")


# ---------------------------------------------------------------------------
# Invariant verification on a concrete instance
# ---------------------------------------------------------------------------


def verify_instance(ring, polys, config: PipelineConfig):
    """Run the structural/algebraic invariant suites over one instance.

    Returns a list of (check, ok, detail); any False entry is a property
    violation, and a per-batch check's detail starts with its batch index
    (from 0).  Covers: plan structure (race-freedom partition), dictionary
    against the naive support-union oracle, row decode against the exact
    shift oracle, closure soundness, kernel-syzygy on both kernel engines
    (each held to the batch's nullity from elimination), key-count
    instrumentation, digest stability across worker counts, and engine
    agreement (batched vs scalar oracle).  F4 runs with psge whatever
    ``config.numeric`` says: the Wiedemann kernel check solves every batch.
    """
    config = replace(config, numeric="psge")
    checks = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    batch_ids = itertools.count()

    def on_batch(basis_before, plan, ech, st):
        batch = next(batch_ids)

        def record_batch(name, ok, detail=""):
            record(name, ok, f"batch {batch}: {detail}" if detail else f"batch {batch}")

        try:
            plan.validate()
            record_batch("plan_structure", True)
        except PropertyViolationError as exc:
            record_batch("plan_structure", False, str(exc))
        # each row's shifted polynomial, from the row table and the basis
        # alone: the oracles below read these, never the plan's matrix
        basis = soa_polys(basis_before)
        meta = plan.row_meta
        shifted = [
            poly_mul_mon(tuple(t), basis[k])
            for t, k in zip(meta.shift.tolist(), meta.basis_index.tolist())
        ]
        # dictionary oracle: sorted set of shifted supports
        support = {e for f in shifted for e, _ in f.terms}
        mons = list(map(tuple, key_unpack_vec(plan.dict_keys, ring).tolist()))
        got = set(mons)
        record_batch("dictionary_oracle", got == support, f"{len(got)} vs {len(support)} monomials")
        # decode oracle
        ok = all(decode_row(plan, i).terms == f.terms for i, f in enumerate(shifted))
        record_batch("row_decode_oracle", ok)
        # closure soundness: covered dictionary monomials lead some row
        lead_cols = set(row_lead_cols(plan).tolist())
        sound = True
        for j, mono in enumerate(mons):
            if any(mon_divides(g.lm(), mono) for g in basis):
                if j not in lead_cols:
                    sound = False
                    break
        record_batch("closure_soundness", sound)
        # kernel syzygies via both engines, each held to the batch's nullity
        checks = groebner_kernel_checks(plan, basis, ring.modulus, ech.rank, config.seed, shifted)
        for engine, report, _ in checks:
            record_batch(f"kernel_syzygy_{engine}", report.ok, report.detail)
        record_batch(
            "key_instrumentation",
            plan.counters.keys_emitted == plan.counters.M
            and plan.counters.keys_generated_total >= plan.counters.M,
        )

    gb_f4 = f4_groebner(polys, ring, config, on_batch)
    gb_oracle = buchberger_reference(polys, ring, config.max_steps)
    record(
        "engine_agreement",
        [f.terms for f in gb_f4] == [f.terms for f in gb_oracle],
    )
    record("buchberger_criterion", is_groebner(gb_f4, ring).ok)
    # the F4 run above already gives the digest for config.workers
    digests = {basis_digest(format_system(ring, gb_f4))}
    for workers in sorted({1, 2, 4, 8} - {config.workers}):
        rep, _, _ = run_pipeline(ring, polys, replace(config, workers=workers))
        digests.add(rep.digest)
    record("digest_worker_stability", len(digests) == 1, f"{len(digests)} distinct digests")
    return checks
