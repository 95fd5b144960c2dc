"""Span tracer that times fpgb's layers from outside.

``Tracer.install`` replaces each listed public function with a timing
wrapper wherever the function object is bound in a loaded module,
including names a caller imported (``fpgb.groebner.psge_reduce`` is the
same object as ``fpgb.sparselin.psge_reduce``).  Each call records one span:
id, parent span, name, op id, start and end, and the time the wrapper
itself spent outside the call.  That tracer time is kept out of every
span's self and inclusive time.  Spans stay in memory until
``write_jsonl``; ``summarize`` turns them into the per-layer metrics.

Nothing inside fpgb changes: the wrappers call the original functions and
``uninstall`` puts every binding back.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# (module, function) pairs timed in the traced run; the span name is
# "<module>.<function>", and the module name is the layer.
TRACED = (
    ("sparselin", "psge_reduce"),
    ("sparselin", "csr_from_plan"),
    ("sparselin", "spmm"),
    ("sparselin", "wiedemann_solve"),
    ("sparselin", "berlekamp_massey"),
    ("sparselin", "left_kernel"),
    ("sparselin", "dense_gauss"),
    ("groebner", "f4_step"),
    ("groebner", "update_pairs"),
    ("groebner", "reduce_basis"),
    ("groebner", "normal_form"),
    ("groebner", "buchberger_reference"),
    ("groebner", "is_groebner"),
    ("groebner", "verify_kernel_syzygy"),
    ("symbolic", "select_rows"),
    ("symbolic", "compile_batch"),
    ("symbolic", "closure_expand"),
    ("bulk", "radix_sort"),
    ("bulk", "unique_sorted"),
    ("bulk", "merge_join_index"),
    ("bulk", "lower_bound"),
    ("bulk", "exclusive_scan"),
    ("polynomials", "poly_add_scaled"),
    ("polynomials", "poly_mul_mon"),
    ("polynomials", "soa_pack"),
    ("monomials", "key_pack_vec"),
    ("monomials", "key_unpack_vec"),
    ("systems", "parse_system"),
    ("systems", "format_system"),
    ("systems", "gen_katsura"),
    ("systems", "gen_random_quadratic"),
    ("bench", "run_pipeline"),
    ("bench", "verify_instance"),
)

# drivers whose own (self) time is glue rather than a named stage
DRIVERS = ("bench.run_pipeline", "bench.verify_instance")
LAYERS = ("sparselin", "groebner", "symbolic", "bulk", "polynomials", "monomials", "systems", "bench")

# span tuple fields; TRACER is the wrapper's own ns outside [START, END]
ID, PARENT, NAME, OP, START, END, NESTED, ATTRS, TRACER = range(9)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _matrix_key(A) -> tuple:
    """Identifies a matrix well enough to pair left_kernel with psge_reduce."""
    return A.n_rows, A.n_cols, len(A.col_ind), A.row_ptr.tobytes()


class Tracer:
    """Records spans around calls into fpgb's public layer functions."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._active: dict = {}
        self._sites: list | None = None
        self._rank_of: dict = {}

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap every binding of each traced function in every loaded module.

        The bindings are found by one scan of ``sys.modules`` on the first
        call; later calls rebind the same sites, so installing per op is cheap.
        """
        if self._sites is None:
            mods = [m for m in list(sys.modules.values()) if m is not None]
            self._sites = []
            for mod_name, func_name in TRACED:
                orig = getattr(sys.modules[f"fpgb.{mod_name}"], func_name)
                wrapper = self._wrap(f"{mod_name}.{func_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._sites.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._sites or ():
            setattr(mod, attr, orig)

    def _wrap(self, name, orig):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            e0 = clock()
            sid = len(spans)
            parent = stack[-1] if stack else None
            nested = active.get(name, 0) > 0
            spans.append(None)  # reserve the id; filled in on return
            stack.append(sid)
            active[name] = active.get(name, 0) + 1
            attrs = None
            peak0 = _peak_rss_kb() if name == "sparselin.psge_reduce" else None
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                attrs = {"error": type(exc).__name__}
                raise
            else:
                t1 = clock()
                if observe is not None:
                    attrs = observe(result, args, kwargs)
                if peak0 is not None:
                    attrs["peak_rss_rise_mb"] = (_peak_rss_kb() - peak0) / 1024
                return result
            finally:
                stack.pop()
                active[name] -= 1
                tracer_ns = clock() - e0 - (t1 - t0)
                spans[sid] = (sid, parent, name, self.op, t0, t1, nested, attrs, tracer_ns)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    # -- counts read at the layer boundary ----------------------------------

    def _observe_sparselin_psge_reduce(self, ech, args, kwargs):
        if self._active.get("bench.verify_instance"):  # only verify calls left_kernel
            self._rank_of[_matrix_key(args[0])] = ech.rank
        return {"rank": ech.rank, "fill_generated": ech.fill_generated}

    def _observe_sparselin_left_kernel(self, kb, args, kwargs):
        A = args[0]
        rank = self._rank_of.get(_matrix_key(A))
        attrs = {"found": len(kb.vectors)}
        if rank is not None:
            attrs["nullity"] = A.n_rows - rank
        return attrs

    def _observe_sparselin_wiedemann_solve(self, kb, args, kwargs):
        return {"rounds": len(getattr(kb, "seed_trail", ()))}

    def _observe_groebner_f4_step(self, result, args, kwargs):
        _, ech, _ = result
        return {"new_polys": len(ech.nonpivot_rows), "zero_reductions": ech.zero_row_count}

    def _observe_symbolic_compile_batch(self, plan, args, kwargs):
        c = plan.counters
        return {
            "rows": c.r,
            "cols": c.N,
            "keys": c.M,
            "closure_rounds": c.closure_rounds,
            "dict_build_ns": plan.timings_ns.get("dict_build_ns", 0),
            "row_assemble_ns": plan.timings_ns.get("row_assemble_ns", 0),
        }

    def _observe_bulk_radix_sort(self, result, args, kwargs):
        return {"keys": len(args[0])}

    def _observe_bulk_unique_sorted(self, result, args, kwargs):
        return {"in": len(args[0]), "out": len(result[0])}

    def _observe_bulk_merge_join_index(self, result, args, kwargs):
        return {"keys": len(args[0])}

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "id": s[ID], "parent": s[PARENT], "name": s[NAME], "op": s[OP],
                    "start_ns": s[START], "end_ns": s[END], "tracer_ns": s[TRACER],
                }
                if s[ATTRS]:
                    rec.update(s[ATTRS])
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list:
    """Per-span self time in ns: duration minus the time its child spans cover.

    A child covers its duration plus its wrapper's tracer time, so the
    tracer's work is not charged to the parent.  Spans run on one thread, so
    children of a span never overlap and the time they cover is a sum.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START] + s[TRACER]
    return [s[END] - s[START] - child_ns[s[ID]] for s in spans]


def inclusive_times(spans) -> list:
    """Per-span duration in ns less the tracer time of every span nested in it."""
    inner = [0] * len(spans)
    for s in reversed(spans):  # a child's id is larger than its parent's
        if s[PARENT] is not None:
            inner[s[PARENT]] += inner[s[ID]] + s[TRACER]
    return [s[END] - s[START] - inner[s[ID]] for s in spans]


def summarize(spans, op_windows: list, untraced_op_s: float, traced_op_s: float) -> dict:
    """Per-layer metrics from a list of spans.

    ``op_windows`` lists each traced op's (start_ns, end_ns) on the
    tracer's clock.  ``.s`` sums the outermost calls of a function (a recursive call
    is inside its caller's span), ``.calls`` counts those calls and
    ``.self_s`` sums self times over every call.  Times exclude the tracer's
    own work, which ``trace.tracer_s`` reports.
    """
    selfs = self_times(spans)
    incls = inclusive_times(spans)
    calls: dict = {}
    incl: dict = {}
    own: dict = {}
    attr_sum: dict = {}
    layer_self: dict = {layer: 0 for layer in LAYERS}
    peak_rise = 0.0
    nullity = found = 0
    for s, self_ns, incl_ns in zip(spans, selfs, incls):
        name = s[NAME]
        own[name] = own.get(name, 0) + self_ns
        layer_self[name.split(".")[0]] += self_ns
        if not s[NESTED]:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + incl_ns
        attrs = s[ATTRS] or {}
        for k, v in attrs.items():
            if k == "peak_rss_rise_mb":
                peak_rise += v
            elif isinstance(v, (int, float)):
                attr_sum[(name, k)] = attr_sum.get((name, k), 0) + v
        if name == "sparselin.left_kernel" and "nullity" in attrs:
            nullity += attrs["nullity"]
            found += attrs["found"]

    def sec(name):
        return incl.get(name, 0) / 1e9

    def n(name):
        return calls.get(name, 0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    tracer_in_ops = sum(s[TRACER] for s in spans if s[OP] is not None)
    op_ns = sum(end - start for start, end in op_windows) - tracer_in_ops
    attributed = sum(
        self_ns for s, self_ns in zip(spans, selfs)
        if s[OP] is not None and s[NAME] not in DRIVERS
    )
    new_polys = a("groebner.f4_step", "new_polys")
    zero_red = a("groebner.f4_step", "zero_reductions")
    radix_s = sec("bulk.radix_sort")
    uniq_in = a("bulk.unique_sorted", "in")
    plan_s = a("symbolic.compile_batch", "dict_build_ns") / 1e9
    assemble_s = a("symbolic.compile_batch", "row_assemble_ns") / 1e9

    m = {
        "sparselin.psge_reduce.s": sec("sparselin.psge_reduce"),
        "sparselin.csr_from_plan.s": sec("sparselin.csr_from_plan"),
        "sparselin.rank": a("sparselin.psge_reduce", "rank"),
        "sparselin.fill_generated": a("sparselin.psge_reduce", "fill_generated"),
        "sparselin.peak_rss_mb": peak_rise,
        "sparselin.spmm.calls": n("sparselin.spmm"),
        "sparselin.spmm.s": sec("sparselin.spmm"),
        "sparselin.wiedemann_solve.calls": n("sparselin.wiedemann_solve"),
        "sparselin.wiedemann_solve.s": sec("sparselin.wiedemann_solve"),
        "sparselin.wiedemann_solve.rounds": a("sparselin.wiedemann_solve", "rounds"),
        "sparselin.wiedemann_solve.failures": sum(
            1 for s in spans
            if s[NAME] == "sparselin.wiedemann_solve" and (s[ATTRS] or {}).get("error")
        ),
        "sparselin.berlekamp_massey.calls": n("sparselin.berlekamp_massey"),
        "sparselin.berlekamp_massey.s": sec("sparselin.berlekamp_massey"),
        "sparselin.left_kernel.s": sec("sparselin.left_kernel"),
        "sparselin.dense_gauss.s": sec("sparselin.dense_gauss"),
        "sparselin.kernel_found_ratio": found / nullity if nullity else 0.0,
        "groebner.reduce_basis.s": sec("groebner.reduce_basis"),
        "groebner.update_pairs.calls": n("groebner.update_pairs"),
        "groebner.update_pairs.s": sec("groebner.update_pairs"),
        "groebner.f4_step.self_s": own.get("groebner.f4_step", 0) / 1e9,
        "groebner.batches": n("groebner.f4_step"),
        "groebner.zero_reductions": zero_red,
        "groebner.useful_row_ratio": new_polys / (new_polys + zero_red) if new_polys + zero_red else 0.0,
        "groebner.normal_form.calls": n("groebner.normal_form"),
        "groebner.normal_form.s": sec("groebner.normal_form"),
        "groebner.buchberger_reference.s": sec("groebner.buchberger_reference"),
        "groebner.is_groebner.s": sec("groebner.is_groebner"),
        "groebner.verify_kernel_syzygy.s": sec("groebner.verify_kernel_syzygy"),
        "symbolic.select_rows.s": sec("symbolic.select_rows"),
        "symbolic.compile_batch.s": sec("symbolic.compile_batch"),
        "symbolic.closure_expand.calls": n("symbolic.closure_expand"),
        "symbolic.closure_expand.s": sec("symbolic.closure_expand"),
        "symbolic.dict_build_s": plan_s,
        "symbolic.row_assemble_s": assemble_s,
        "symbolic.plan_timer_coverage": (
            (plan_s + assemble_s) / sec("symbolic.compile_batch") if n("symbolic.compile_batch") else 0.0
        ),
        "symbolic.rows": a("symbolic.compile_batch", "rows"),
        "symbolic.cols": a("symbolic.compile_batch", "cols"),
        "symbolic.keys": a("symbolic.compile_batch", "keys"),
        "symbolic.closure_rounds": a("symbolic.compile_batch", "closure_rounds"),
        "bulk.radix_sort.calls": n("bulk.radix_sort"),
        "bulk.radix_sort.s": radix_s,
        "bulk.radix_sort.keys": a("bulk.radix_sort", "keys"),
        "bulk.radix_sort.keys_per_s": a("bulk.radix_sort", "keys") / radix_s if radix_s else 0.0,
        "bulk.unique_sorted.s": sec("bulk.unique_sorted"),
        "bulk.merge_join_index.s": sec("bulk.merge_join_index"),
        "bulk.merge_join_index.keys": a("bulk.merge_join_index", "keys"),
        "bulk.lower_bound.s": sec("bulk.lower_bound"),
        "bulk.exclusive_scan.calls": n("bulk.exclusive_scan"),
        "bulk.exclusive_scan.s": sec("bulk.exclusive_scan"),
        "bulk.dedup_ratio": a("bulk.unique_sorted", "out") / uniq_in if uniq_in else 0.0,
        "polynomials.poly_add_scaled.calls": n("polynomials.poly_add_scaled"),
        "polynomials.poly_add_scaled.s": sec("polynomials.poly_add_scaled"),
        "polynomials.poly_mul_mon.calls": n("polynomials.poly_mul_mon"),
        "polynomials.poly_mul_mon.s": sec("polynomials.poly_mul_mon"),
        "polynomials.soa_pack.s": sec("polynomials.soa_pack"),
        "monomials.key_pack_vec.s": sec("monomials.key_pack_vec"),
        "monomials.key_unpack_vec.s": sec("monomials.key_unpack_vec"),
        "systems.parse_system.s": sec("systems.parse_system"),
        "systems.gen_katsura.s": sec("systems.gen_katsura"),
        "systems.gen_random_quadratic.s": sec("systems.gen_random_quadratic"),
        "systems.format_system.s": sec("systems.format_system"),
        "bench.run_pipeline.self_s": own.get("bench.run_pipeline", 0) / 1e9,
        "bench.verify_instance.self_s": own.get("bench.verify_instance", 0) / 1e9,
        "trace.unattributed_share": (op_ns - attributed) / op_ns if op_ns else 0.0,
        "trace.overhead": traced_op_s / untraced_op_s - 1 if untraced_op_s else 0.0,
        "trace.spans": len(spans),
        "trace.tracer_s": sum(s[TRACER] for s in spans) / 1e9,
    }
    for layer, ns in layer_self.items():
        m[f"{layer}.self_s"] = ns / 1e9
    return m
