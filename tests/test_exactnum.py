import math
import random

import numpy as np
import pytest

from fqmrep.exactnum import (
    CycNum,
    NotAUnit,
    UnsupportedOrder,
    _mod_inv,
    jacobi_symbol,
    normalize,
)


def test_mod_inv_frozen_values():
    assert _mod_inv(3, 8) == 3
    assert _mod_inv(5, 8) == 5
    assert _mod_inv(3, 7) == 5
    assert _mod_inv(-1, 8) == 7
    with pytest.raises(NotAUnit):
        _mod_inv(2, 8)


def test_mod_inv_random_roundtrip():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.choice([4, 8, 16, 3, 5, 7, 9, 15])
        a = rng.randrange(n)
        if math.gcd(a, n) == 1:
            assert a * _mod_inv(a, n) % n == 1
        else:
            with pytest.raises(NotAUnit):
                _mod_inv(a, n)


def test_jacobi_frozen_values():
    assert jacobi_symbol(2, 7) == 1
    assert jacobi_symbol(3, 7) == -1
    assert jacobi_symbol(1, 5) == 1
    assert jacobi_symbol(0, 5) == 0
    assert jacobi_symbol(10, 5) == 0


def test_jacobi_requires_odd_modulus():
    with pytest.raises(ValueError):
        jacobi_symbol(1, 8)
    with pytest.raises(ValueError):
        jacobi_symbol(1, 1)


def test_jacobi_matches_euler_criterion_on_primes():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert jacobi_symbol(a, p) == expected


def test_jacobi_multiplicative():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice([3, 5, 7, 9, 15, 21])
        a, b = rng.randrange(50), rng.randrange(50)
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


# -- CycNum ---------------------------------------------------------------


def test_root_frozen_values():
    assert CycNum.root(4, 2) == CycNum.from_int(-1)
    assert CycNum.root(8, 5) == -CycNum.root(8, 1)
    assert CycNum.root(8, 0) == CycNum.one()


def test_small_orders_promote_to_eight():
    assert CycNum.root(1, 0).order == 8
    assert CycNum.root(2, 1) == CycNum.from_int(-1)
    assert CycNum.root(4, 1).coeffs == (0, 0, 1, 0)


def test_unsupported_orders_rejected():
    with pytest.raises(UnsupportedOrder):
        CycNum.root(6, 1)
    with pytest.raises(UnsupportedOrder):
        CycNum.root(9, 1)
    with pytest.raises(UnsupportedOrder):
        CycNum.root(15, 1)
    for q in (3, 5, 7):  # no odd-prime basis
        with pytest.raises(UnsupportedOrder):
            CycNum.root(q, 1)


def test_product_of_conjugate_pair_is_two():
    i4 = CycNum.root(4, 1)
    assert (1 + i4) * (1 - i4) == CycNum.from_int(2)


def test_conjugation_frozen_value():
    w = CycNum.root(8, 1)
    assert w.conj() == -CycNum.root(8, 3)


def test_phase_unitarity():
    rng = random.Random(2)
    for order in (8, 16, 32):
        for _ in range(100):
            w = CycNum.root(order, rng.randrange(2 * order))
            assert w * w.conj() == CycNum.one(order)


def test_exponent_additivity():
    rng = random.Random(3)
    for order in (8, 16, 32):
        for _ in range(1000):
            a = rng.randrange(-2 * order, 2 * order)
            b = rng.randrange(-2 * order, 2 * order)
            assert CycNum.root(order, a) * CycNum.root(order, b) == CycNum.root(order, a + b)


def _random_cyc(rng, order):
    size = len(CycNum.zero(order).coeffs)
    coeffs = tuple(rng.randrange(-6, 7) for _ in range(size))
    return CycNum(order, coeffs, rng.randrange(-2, 4))


def test_to_complex_is_a_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(1000):
        order = rng.choice([8, 16, 32])
        x, y = _random_cyc(rng, order), _random_cyc(rng, order)
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-10
        assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-10


def test_self_subtraction_is_exactly_zero():
    rng = random.Random(5)
    for _ in range(200):
        x = _random_cyc(rng, rng.choice([8, 16, 32]))
        assert (x - x).is_zero()
        assert (x - x) == CycNum.zero(x.order)


def test_canonical_form_has_odd_content():
    rng = random.Random(6)
    for _ in range(300):
        x = _random_cyc(rng, 8) * _random_cyc(rng, 8)
        if not x.is_zero():
            assert any(c % 2 for c in x.coeffs)
    assert CycNum.zero().scale_log2 == 0


def test_scale_normalization_examples():
    two = CycNum.from_int(2)
    assert two.coeffs == (1, 0, 0, 0) and two.scale_log2 == -1
    half = CycNum(8, (2, 0, 0, 0), 2)
    assert half.coeffs == (1, 0, 0, 0) and half.scale_log2 == 1


def test_inv_sqrt2_pow():
    s = CycNum.inv_sqrt2_pow(1)
    assert s * s == CycNum.inv_sqrt2_pow(2)
    assert CycNum.inv_sqrt2_pow(2) * 2 == CycNum.one()
    assert CycNum.inv_sqrt2_pow(-2) == CycNum.from_int(2)
    assert abs(CycNum.inv_sqrt2_pow(-1).to_complex() - 2**0.5) < 1e-12
    assert abs(s.to_complex() - 2**-0.5) < 1e-12


def test_cross_order_equality_and_promotion():
    assert CycNum.root(8, 1) == CycNum.root(16, 2)
    assert hash(CycNum.root(8, 1)) == hash(CycNum.root(16, 2))
    assert CycNum.root(16, 1) != CycNum.root(8, 1)
    assert CycNum.root(8, 1).promote(32).order == 32


def test_cross_order_zero_equality():
    assert CycNum.zero(8) == CycNum.zero(16)
    assert hash(CycNum.zero(8)) == hash(CycNum.zero(16))
    assert CycNum.zero(16) != CycNum.one(8)


def test_integer_mixing():
    w = CycNum.root(8, 2)
    assert w * w == -1
    assert (w + 0) == w
    assert 2 - CycNum.one() == CycNum.one()


def test_serialization_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        x = _random_cyc(rng, rng.choice([8, 16, 32]))
        d = x.to_dict()
        assert set(d) == {"order", "coeffs", "scale_log2"}
        assert CycNum.from_dict(d) == x


def test_power_operator():
    w = CycNum.root(16, 1)
    assert w**16 == CycNum.one()
    assert w**5 == CycNum.root(16, 5)
    assert w**0 == CycNum.one()


def _negacyclic(x, y):
    # schoolbook product in Z[w]/(w^L + 1), Python ints
    size = len(x)
    out = [0] * size
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            k = i + j
            out[k % size] += a * b if k < size else -a * b
    return out


def test_products_and_conj_stay_exact_past_int64():
    rng = random.Random(8)
    for order in (8, 16, 32):
        size = order // 2
        for _ in range(50):
            x = [rng.choice((1, -1)) * rng.getrandbits(70) for _ in range(size)]
            y = [rng.choice((1, -1)) * (2**62 + rng.getrandbits(40)) for _ in range(size)]
            x[0] |= 1  # odd content: no factor of two to strip
            y[0] |= 1
            a, b = CycNum(order, tuple(x)), CycNum(order, tuple(y))
            prod = a * b
            # the product may be normalised: scale_log2 = -(factors of two stripped)
            assert [c << -prod.scale_log2 for c in prod.coeffs] == _negacyclic(x, y)
            assert all(type(c) is int for c in prod.coeffs)
            assert max(map(abs, prod.coeffs)) >= 2**100
            conj = a.conj()
            assert conj.coeffs == (x[0], *(-c for c in reversed(x[1:])))
            assert conj.conj() == a
            assert (a * conj).conj() == a * conj  # |a|^2 is real


def _normalize_by_division(coeffs, scale_log2):
    # the definition: halve every coefficient while all of them stay even
    values = [int(c) for c in coeffs.flat]
    if not any(values):
        return coeffs, 0
    while all(v % 2 == 0 for v in values):
        values = [v // 2 for v in values]
        scale_log2 -= 1
    return np.array(values, dtype=coeffs.dtype).reshape(coeffs.shape), scale_log2


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_normalize_matches_its_definition(dtype):
    rng = random.Random(12)
    cases = [[0] * 4, [0, 0, 0, -8], [2, -4, 0, 8], [-6, 12, 0, 0], [1, 2, 4, 8],
             [-3, 0, 0, 0], [2**40, -(2**41), 0, 0], [-(2**62), 0, 0, 2**61]]
    if dtype is object:  # past int64
        cases += [[2**63, 0, 0, 0], [3 * 2**70, -(2**65), 0, 0], [-(2**64), 2**63, 0, 1],
                  [-(2**200), 0, 0, 0]]
    for _ in range(200):
        shift = rng.randrange(40 if dtype is object else 20)
        bits = 90 if dtype is object else 40
        cases.append([rng.randrange(-(2**bits), 2**bits) << shift for _ in range(4)])
    for case in cases:
        for shape in ((4,), (2, 2, 1), (1, 4)):
            coeffs = np.array(case, dtype=dtype).reshape(shape)
            for scale in (0, 3, -5):
                got, want = normalize(coeffs, scale), _normalize_by_division(coeffs, scale)
                assert got[1] == want[1]
                assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
                assert got[0].tolist() == want[0].tolist()
    big = np.zeros((3, 3, 4), dtype=np.int64)
    assert normalize(big, 7) == (big, 0)
    big[1, 2, 3] = -(2**10)
    got = normalize(big, 7)
    assert got[1] == -3 and got[0][1, 2, 3] == -1 and np.count_nonzero(got[0]) == 1
    # numpy integer scalars as coefficients, as from a tuple of an int64 array
    a = CycNum(8, tuple(np.array([2, 4, 0, -8])), 1)
    assert a == CycNum(8, (1, 2, 0, -4)) and a.scale_log2 == 0


def test_equality_across_and_within_orders():
    a = CycNum(8, (1, 2, 0, -1), 3)
    assert a == CycNum(8, (2, 4, 0, -2), 4) and a != CycNum(8, (1, 2, 0, 1), 3)
    assert a == a.promote(16) and a.promote(16) == a and a.promote(32) == a.promote(16)
    assert a != CycNum(8, (1, 2, 0, -1), 2) and a != CycNum(16, (1, 0, 2, 0, 0, 0, -1, 1), 3)
