import hypothesis.strategies as st
import pytest
from hypothesis import given

from fibcomb.poly import IntPolynomial, convolve

from horner import horner

small_coeffs = st.lists(st.integers(-9, 9), max_size=6)


def test_trailing_zeros_are_stripped():
    assert IntPolynomial((1, 0, 0)) == IntPolynomial((1,))
    assert IntPolynomial((0, 0)).coeffs == ()


def test_zero_polynomial():
    zero = IntPolynomial()
    assert zero.degree == -1
    assert zero == 0
    assert str(zero) == "0"


def test_constructors():
    assert IntPolynomial.one() == 1
    assert IntPolynomial.x().coeffs == (0, 1)
    assert IntPolynomial.constant(-4) == -4


def test_coefficient_beyond_degree_is_zero():
    p = IntPolynomial((2, 3))
    assert p.coefficient(0) == 2
    assert p.coefficient(1) == 3
    assert p.coefficient(7) == 0


def test_arithmetic_examples():
    x, one = IntPolynomial.x(), IntPolynomial.one()
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) * (x + one) == IntPolynomial((1, 2, 1))
    assert x - x == 0
    assert IntPolynomial.constant(2) * x == IntPolynomial((0, 2))
    assert -x + one == IntPolynomial((1, -1))
    assert one * x == x


def test_int_operands_are_refused():
    p = IntPolynomial((2, 0, 1))
    for operation in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p,
                      lambda: p * 2, lambda: 2 * p, lambda: p(3)):
        with pytest.raises(TypeError):
            operation()


def test_evaluation_and_composition():
    # the tests' Horner helper, which stands in for evaluation and composition
    p = IntPolynomial((2, 0, 1))  # x^2 + 2
    assert horner(p, 3) == 11
    assert horner(p, 0) == 2
    q = IntPolynomial((1, 1))  # x + 1
    assert horner(p, q) == IntPolynomial((3, 2, 1))  # (x+1)^2 + 2
    assert horner(IntPolynomial(), q) == IntPolynomial()


def test_composition_of_constant_polynomial():
    # Horner multiplies the zero polynomial by x, which takes the zero
    # short-cut, then adds the constant: a polynomial, not an int, comes back
    c = IntPolynomial.constant(5)
    assert horner(c, IntPolynomial.x()) == 5
    assert isinstance(horner(c, IntPolynomial.x()), IntPolynomial)


@given(small_coeffs, small_coeffs, st.integers(-5, 5))
def test_compose_then_evaluate_matches_evaluate_twice(pc, qc, a):
    # composition runs on polynomial products and sums, evaluation on ints
    p, q = IntPolynomial(pc), IntPolynomial(qc)
    assert horner(horner(p, q), a) == horner(p, horner(q, a))


@given(small_coeffs, small_coeffs)
def test_multiplication_commutes(ac, bc):
    a, b = IntPolynomial(ac), IntPolynomial(bc)
    assert a * b == b * a


@given(small_coeffs, small_coeffs, small_coeffs)
def test_distributivity(ac, bc, cc):
    a, b, c = IntPolynomial(ac), IntPolynomial(bc), IntPolynomial(cc)
    assert a * (b + c) == a * b + a * c


@given(small_coeffs, st.integers(-7, 7))
def test_evaluation_is_a_ring_hom(ac, v):
    a = IntPolynomial(ac)
    assert horner(a + a, v) == 2 * horner(a, v)
    assert horner(a * a, v) == horner(a, v) ** 2


def test_str_formatting():
    x, two = IntPolynomial.x(), IntPolynomial.constant(2)
    assert str(x * x - two * x + two) == "x^2 - 2x + 2"
    assert str(x) == "x"
    assert str(-x) == "-x"
    assert str(x * x * x - x + IntPolynomial.constant(5)) == "x^3 - x + 5"
    assert str(IntPolynomial((-1,))) == "-1"
    assert str(two * (x * x)) == "2x^2"


def test_repr_rebuilds():
    p = IntPolynomial((1, -2, 1))
    assert eval(repr(p)) == p


def test_hashable_and_usable_in_sets():
    assert len({IntPolynomial((1, 2)), IntPolynomial((1, 2, 0))}) == 1


def _double_sum_product(ac, bc):
    # the schoolbook product, written out independently of convolve
    out = [0] * (len(ac) + len(bc))
    for i, a in enumerate(ac):
        for j, b in enumerate(bc):
            out[i + j] += a * b
    return out


def _normalised(p):
    return not p.coeffs or p.coeffs[-1] != 0


@given(small_coeffs, small_coeffs, st.integers(0, 8))
def test_convolve_matches_product_prefix(ac, bc, length):
    full = _double_sum_product(ac, bc)
    expected = [full[i] if i < len(full) else 0 for i in range(length)]
    assert convolve(ac, bc, length) == expected


@given(small_coeffs)
def test_products_by_a_constant_match_the_double_sum(pc):
    # 0 and 1 take the zero and unit short-cuts, the rest a convolution
    p = IntPolynomial(pc)
    for c in range(-3, 4):
        expected = IntPolynomial(_double_sum_product(pc, [c]))
        constant = IntPolynomial.constant(c)
        for product in (p * constant, constant * p):
            assert product == expected
            assert _normalised(product)


@given(small_coeffs)
def test_sums_with_zero_are_the_other_operand(pc):
    p, zero = IntPolynomial(pc), IntPolynomial()
    for total in (zero + p, p + zero):
        assert total == p
        assert _normalised(total)
    assert zero + zero == zero


def _coefficient_wise(ac, bc, sign=1):
    # ac + sign * bc, coefficient by coefficient, trailing zeros dropped
    out = [0] * max(len(ac), len(bc))
    for i, a in enumerate(ac):
        out[i] += a
    for i, b in enumerate(bc):
        out[i] += sign * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@given(small_coeffs, small_coeffs)
def test_products_and_sums_are_normalised(ac, bc):
    a, b = IntPolynomial(ac), IntPolynomial(bc)
    assert a * b == IntPolynomial(_double_sum_product(ac, bc))
    assert (a + b).coeffs == _coefficient_wise(ac, bc)
    assert (a - b).coeffs == _coefficient_wise(ac, bc, -1)
    for result in (a * b, a + b, a - b):
        assert _normalised(result)
