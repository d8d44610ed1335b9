"""The cached Gauss-Legendre rule behind `gauss_legendre`."""
from __future__ import annotations

import numpy as np
import pytest

from qpump.counting import KERNEL_NODES, KERNEL_REACH
from qpump.quadrature import _legendre_rule, gauss_legendre


@pytest.mark.parametrize("n", sorted({16, 32, 64, KERNEL_NODES}))
def test_rule_equals_leggauss_bitwise(n):
    x, w = gauss_legendre(-1.0, 1.0, n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert x.flags.writeable and w.flags.writeable


def test_returned_arrays_are_fresh_and_the_cache_read_only():
    x, w = gauss_legendre(0.0, 2.0, 16)
    want_x, want_w = x.copy(), w.copy()
    x[:] = 0.0
    w[:] = 0.0
    again_x, again_w = gauss_legendre(0.0, 2.0, 16)
    assert np.array_equal(again_x, want_x) and np.array_equal(again_w, want_w)
    for cached in _legendre_rule(16):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_direct_kernel_rule_is_mirrored_bitwise():
    # second_cumulant_direct reads the rows at t - s / 2 as those at
    # t + s / 2 in reverse order, which needs exact mirror symmetry
    x, w = gauss_legendre(-KERNEL_REACH, KERNEL_REACH, KERNEL_NODES)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
