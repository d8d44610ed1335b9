"""The cached Gauss-Legendre rule behind `gauss_legendre`, and the Gauss
rule for x^2 / sinh^2 x behind the direct noise kernel."""
from __future__ import annotations

import numpy as np
import pytest

from qpump.counting import KERNEL_NODES, KERNEL_REACH
from qpump.quadrature import _legendre_rule, _sinh_kernel_rule, gauss_legendre


@pytest.mark.parametrize("n", [16, 32, 64])
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
    x, w = _sinh_kernel_rule(KERNEL_NODES, KERNEL_REACH)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_direct_kernel_rule_is_even_and_positive():
    # an odd count would put a node on x = 0, where b / x^2 is 0 / 0
    x, w = _sinh_kernel_rule(KERNEL_NODES, KERNEL_REACH)
    assert KERNEL_NODES % 2 == 0 and len(x) == len(w) == KERNEL_NODES
    assert np.all(w > 0.0) and np.all(x != 0.0)
    assert np.all(np.abs(x) < KERNEL_REACH)


@pytest.mark.parametrize("n", sorted({8, KERNEL_NODES, 24}))
def test_direct_kernel_rule_has_the_moments_of_its_weight(n):
    # an n-point Gauss rule integrates x^(2k) exactly for k < n; the
    # reference is a composite rule of its own, 24 points per half unit
    panels = [gauss_legendre(a, a + 0.5, 24)
              for a in np.arange(-KERNEL_REACH, KERNEL_REACH, 0.5)]
    t = np.concatenate([p[0] for p in panels])
    v = np.concatenate([p[1] for p in panels]) * (t / np.sinh(t)) ** 2
    x, w = _sinh_kernel_rule(n, KERNEL_REACH)
    for k in range(n):
        want = v @ t ** (2 * k)
        assert abs(w @ x ** (2 * k) / want - 1.0) < 1e-12


def test_direct_kernel_rule_is_cached_read_only():
    rule = _sinh_kernel_rule(KERNEL_NODES, KERNEL_REACH)
    assert _sinh_kernel_rule(KERNEL_NODES, KERNEL_REACH) is rule
    for cached in rule:
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
