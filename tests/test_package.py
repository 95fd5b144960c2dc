"""The public namespace: what ``import fpgb`` promises."""

import fpgb


def test_every_public_name_resolves():
    for name in fpgb.__all__:
        assert getattr(fpgb, name) is not None, name
    # the scalar element layer is gone; the vector kernels are the arithmetic
    for gone in ("FpElem", "Domain"):
        assert gone not in fpgb.__all__ and not hasattr(fpgb, gone)
    assert not hasattr(fpgb.fp, "FpElem") and not hasattr(fpgb.fp, "Domain")
