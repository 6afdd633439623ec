"""Laurent-polynomial ring and rendering."""

from __future__ import annotations

import random

import pytest

from helpers import random_poly
from seifertlab.exact import LaurentPoly, cp_poincare, euler_eval, hat_normalize


def test_cp_poincare_small_cases():
    assert cp_poincare(0) == LaurentPoly({0: 1})
    assert cp_poincare(1) == LaurentPoly({0: 1, 2: 1})
    assert cp_poincare(3) == LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})


def test_cp_poincare_rejects_negative():
    with pytest.raises(ValueError):
        cp_poincare(-1)


def test_cp_poincare_euler_is_dimension_plus_one():
    for e in range(101):
        assert euler_eval(cp_poincare(e)) == e + 1


def test_hat_normalize_shifts_down():
    assert hat_normalize(cp_poincare(1), 2) == LaurentPoly({-2: 1, 0: 1})
    assert hat_normalize(LaurentPoly.one(), 0) == LaurentPoly.one()
    assert hat_normalize(cp_poincare(2), 4) == LaurentPoly({-4: 1, -2: 1, 0: 1})
    with pytest.raises(ValueError):
        hat_normalize(cp_poincare(1), -1)


def test_euler_eval_examples():
    assert euler_eval(cp_poincare(1)) == 2
    assert euler_eval(LaurentPoly.zero()) == 0
    assert euler_eval(LaurentPoly({-2: 1, 0: 1})) == 2


def test_rendering_canonical():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({0: 2})) == "2"
    assert str(cp_poincare(1)) == "1 + T^2"
    assert str(hat_normalize(cp_poincare(1), 2)) == "T^-2 + 1"
    assert str(hat_normalize(cp_poincare(2), 4)) == "T^-4 + T^-2 + 1"
    assert str(LaurentPoly({4: 3})) == "3*T^4"
    assert str(LaurentPoly({2: -1})) == "-T^2"
    assert str(LaurentPoly({2: -3, 0: 1})) == "1 + -3*T^2"


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1, 2: 0, 5: 3})
    assert p.coefficients() == {0: 1, 5: 3}
    assert (p - p) == LaurentPoly.zero()
    assert not (p - p)


def test_int_coercion_and_immutability():
    p = cp_poincare(1)
    assert p + 1 == LaurentPoly({0: 2, 2: 1})
    assert 2 * p == LaurentPoly({0: 2, 2: 2})
    assert 1 - p == LaurentPoly({2: -1})
    with pytest.raises(AttributeError):
        p.name = "nope"
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


def test_pow_matches_repeated_multiplication():
    p = LaurentPoly({-1: 2, 3: -1})
    assert p**0 == LaurentPoly.one()
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    for _ in range(2000):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a - a == zero
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * one == a
        assert a * (b + c) == a * b + a * c


def test_euler_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(2000):
        a, b = random_poly(rng), random_poly(rng)
        assert euler_eval(a + b) == euler_eval(a) + euler_eval(b)
        assert euler_eval(a * b) == euler_eval(a) * euler_eval(b)
