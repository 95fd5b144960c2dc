"""Write perfbench/expected.json: the digest the big-batch gate compares against.

The big-batch basis digest (katsura-6) comes from sympy's
``groebner(..., modulus=p)``, a route that shares no code with fpgb's F4
driver, its interreduction or its Buchberger oracle.  fpgb is used only to generate the input system and to
print sympy's basis in fpgb's canonical text form (monic, terms in
descending order, members sorted by descending leading monomial).

Run from the repository root (sympy must be importable; it takes minutes):

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from fpgb.polynomials import poly_monic, poly_normalize  # noqa: E402
from fpgb.systems import format_system, gen_katsura  # noqa: E402
from workloads import BIG_BATCH_KATSURA, P16, sha256  # noqa: E402


def sympy_basis_text(ring, polys) -> str:
    """Reduced Groebner basis by sympy, printed in fpgb's canonical system format."""
    import sympy

    p = ring.modulus.p
    gens = sympy.symbols(list(ring.var_names))
    exprs = []
    for f in polys:
        expr = 0
        for exps, c in f.terms:
            mono = 1
            for g, e in zip(gens, exps):
                mono *= g**e
            expr += c * mono
        exprs.append(expr)
    G = sympy.groebner(exprs, *gens, modulus=p, order=ring.order)
    basis = []
    for g in G.exprs:
        terms = sympy.Poly(g, *gens, modulus=p).terms()
        basis.append(poly_monic(poly_normalize([(m, int(c) % p) for m, c in terms], ring)))
    basis.sort(key=lambda f: ring.sort_key(f.lm()), reverse=True)
    return format_system(ring, basis)


def main() -> int:
    p, n = P16, BIG_BATCH_KATSURA
    ring, polys = gen_katsura(n, p)
    t0 = time.perf_counter()
    text = sympy_basis_text(ring, polys)
    out = {
        f"katsura-{n}": {
            "basis_sha256": sha256(text),
            "basis_size": text.count("\n") - 3,
            "route": f"sympy {__import__('sympy').__version__} groebner(modulus={p}, order=grevlex)",
            "route_seconds": round(time.perf_counter() - t0, 1),
        }
    }
    print(out, flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
