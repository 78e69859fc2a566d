import hashlib
import itertools
import random

import numpy as np
import pytest

from fqmrep.exactnum import NotAUnit
from fqmrep.sl2 import (
    BadDeterminant,
    SL2Element,
    TooLarge,
    _sl2_entries,
    act_on_point,
    decompose,
    dilatation,
    dilatation_word,
    enumerate_sl2,
    sample_sl2,
    sl2_order,
    sl2_s,
    sl2_t,
    symplectic_form,
    word_element,
)


def test_determinant_validation():
    with pytest.raises(BadDeterminant):
        SL2Element(1, 0, 0, 2, 4)
    with pytest.raises(BadDeterminant):
        SL2Element(2, 0, 0, 2, 8)
    assert SL2Element(1, 4, 0, 1, 4) == SL2Element.identity(4)


def test_entries_reduced_mod_n():
    A = SL2Element(5, -1, 4, 1, 4)
    assert A.entries() == (1, 3, 0, 1)


def test_group_operations():
    rng = random.Random(30)
    for N in (4, 8, 5):
        for A in sample_sl2(N, 50, seed=N):
            assert A * A.inv() == SL2Element.identity(N)
            assert A.inv() * A == SL2Element.identity(N)
        A, B, C = sample_sl2(N, 3, seed=rng.randrange(999))
        assert (A * B) * C == A * (B * C)


def test_pow():
    T = sl2_t(8)
    assert T**5 == sl2_t(8, 5)
    assert T**-2 == sl2_t(8, -2)
    assert sl2_s(8) ** 4 == SL2Element.identity(8)


def test_group_orders_frozen():
    assert sl2_order(2) == 6
    assert sl2_order(3) == 24
    assert sl2_order(4) == 48
    assert len(enumerate_sl2(2)) == 6
    assert len(enumerate_sl2(3)) == 24
    assert len(enumerate_sl2(4)) == 48
    assert len(set(enumerate_sl2(8))) == sl2_order(8)


@pytest.mark.parametrize("N", range(2, 13))
def test_entries_list_the_group_in_lexicographic_order(N):
    # one enumerator: the entries array is every (a, b, c, d) of determinant
    # 1 mod N in increasing order, and enumerate_sl2's elements are its columns
    want = [x for x in itertools.product(range(N), repeat=4) if (x[0] * x[3] - x[1] * x[2]) % N == 1]
    entries = _sl2_entries(N)
    assert entries.dtype == np.int64 and entries.shape == (4, sl2_order(N))
    assert list(map(tuple, entries.T.tolist())) == want
    assert [A.entries() for A in enumerate_sl2(N)] == want


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_sl2(64)


def test_act_on_point_is_a_right_action():
    rng = random.Random(31)
    for N in (4, 8, 5):
        for _ in range(100):
            A, B = sample_sl2(N, 2, seed=rng.randrange(10**6))
            r, s = rng.randrange(N), rng.randrange(N)
            step = act_on_point(B, *act_on_point(A, r, s))
            assert step == act_on_point(A * B, r, s)


def test_act_on_point_frozen():
    T = sl2_t(8)
    assert act_on_point(T, 3, 2) == (3, 5)
    S = sl2_s(8)
    assert act_on_point(S, 1, 0) == (0, 7)  # (r,s) S = (s, -r)
    assert act_on_point(S, 0, 1) == (1, 0)


def test_symplectic_form_frozen():
    assert symplectic_form((1, 0), (0, 1), 8) == 7


def test_symplectic_form_invariant_under_action():
    rng = random.Random(32)
    for N in (4, 8, 5):
        for A in enumerate_sl2(N) if N == 4 else sample_sl2(N, 60, seed=N):
            x = (rng.randrange(N), rng.randrange(N))
            y = (rng.randrange(N), rng.randrange(N))
            assert symplectic_form(x, y, N) == symplectic_form(
                act_on_point(A, *x), act_on_point(A, *y), N
            )


def test_dilatation_requires_unit():
    with pytest.raises(NotAUnit):
        dilatation(8, 2)


def test_dilatation_word_multiplies_out():
    for N in (4, 8, 16, 5):
        for a in range(1, N):
            if a % 2 == 0 and N % 2 == 0:
                continue
            if N == 5 or a % 2 == 1:
                assert word_element(dilatation_word(N, a), N) == dilatation(N, a)


def test_generator_relations():
    # T^N = I, S^2 = D(-1), D(a)D(b) = D(ab), D(a)T = T^{a^2}D(a), S D(a) = D(a^{-1}) S
    for N in (4, 8):
        S, T, I = sl2_s(N), sl2_t(N), SL2Element.identity(N)
        assert T**N == I
        assert S * S == dilatation(N, -1)
        units = [a for a in range(N) if a % 2 == 1]
        for a in units:
            Da = dilatation(N, a)
            for b in units:
                assert Da * dilatation(N, b) == dilatation(N, a * b)
            assert Da * T == (T ** (a * a)) * Da
            a_inv = pow(a, -1, N)
            assert S * Da == dilatation(N, a_inv) * S


def test_s_and_st_orders():
    for N in (2, 3, 4, 5, 7, 8):
        S, T, I = sl2_s(N), sl2_t(N), SL2Element.identity(N)
        assert S**4 == I
        assert (S * T) ** 6 == I


def test_decompose_roundtrip_exhaustive_mod4():
    for A in enumerate_sl2(4):
        word = decompose(A)
        assert word_element(word, 4) == A
        assert len(word) == 5


def test_decompose_roundtrip_sampled():
    for N in (8, 16):
        for A in sample_sl2(N, 500, seed=123):
            assert word_element(decompose(A), N) == A


def test_decompose_examples():
    # S itself lands in the even-d branch and ends with S^2.
    word = decompose(sl2_s(4))
    assert word_element(word, 4) == sl2_s(4)
    assert word[-1] == ("S", 2)
    word = decompose(SL2Element.identity(4))
    assert word[-1] == ("S", 1)


def test_even_branch_sign_is_positive():
    # The inner shear exponent is +d/c in every even-d case of SL2(Z_N),
    # N = 4, 8, 16 (the word is validated on return): N^3/4 of them, as d
    # even and c odd fix b.
    cases = [A for N in (4, 8, 16) for A in enumerate_sl2(N) if A.d % 2 == 0]
    assert len(cases) == (4**3 + 8**3 + 16**3) // 4
    for A in cases:
        word = decompose(A)
        c_inv = pow(A.c, -1, A.N)
        assert word[3][0] == "T"
        assert word[3][1] % A.N == (A.d * c_inv) % A.N


def test_sampling_is_deterministic():
    xs = sample_sl2(8, 50, seed=77)
    ys = sample_sl2(8, 50, seed=77)
    assert xs == ys
    assert any(x != y for x, y in zip(xs, sample_sl2(8, 50, seed=78)))


def test_word_element_rejects_bad_tokens():
    with pytest.raises(ValueError):
        word_element([("S", 3)], 4)
    with pytest.raises(ValueError):
        word_element([("X", 1)], 4)


def test_sample_and_enumerate_frozen():
    # The draw order is part of the contract: seeded suites and benchmark
    # strata are defined by these exact elements.
    assert [A.entries() for A in sample_sl2(8, 12, seed=3)] == [
        (3, 2, 5, 1), (1, 0, 7, 1), (3, 3, 7, 2), (1, 2, 0, 1), (7, 2, 5, 5), (3, 4, 6, 3),
        (6, 3, 5, 0), (1, 3, 4, 5), (1, 1, 7, 0), (1, 5, 1, 6), (5, 4, 3, 1), (1, 0, 3, 1),
    ]
    assert [A.entries() for A in sample_sl2(12, 6, seed=4)] == [
        (11, 6, 7, 5), (1, 1, 0, 1), (5, 4, 2, 9), (3, 2, 4, 7), (10, 11, 5, 2), (9, 5, 10, 7),
    ]
    listing = repr([A.entries() for A in enumerate_sl2(12)]).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "d00648e02e0f701f09c34d7c7d0e636ea0e5713a385b45dfcda8d65ea301f019"
    )


def test_products_match_the_validated_constructor():
    # products of valid elements skip the determinant check; they must still
    # be the reduced, equally hashed elements the checked constructor gives
    elems = enumerate_sl2(4)
    for A in elems:
        for B in elems:
            a, b, c, d = A.entries()
            e, f, g, h = B.entries()
            want = SL2Element(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, 4)
            got = A * B
            assert type(got) is SL2Element and got == want and hash(got) == hash(want)
            assert vars(got) == vars(want) and repr(got) == repr(want)
    assert len({A * B for A in elems for B in elems}) == len(elems)
    with pytest.raises(ValueError, match="mixed moduli"):
        sl2_s(4) * sl2_s(8)
    with pytest.raises(BadDeterminant):
        SL2Element(1, 1, 1, 1, 4)
