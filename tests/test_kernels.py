"""Unit tests of the polynomial kernels."""

from prony import _kernels as K


def test_horner_and_derivative():
    c = [2.0, -3.0, 1.0]
    assert K.horner(c, 2.0) == 0.0
    assert K.horner(c, 0.0) == 2.0
    assert K.poly_derivative(c) == [-3.0, 2.0]
    assert K.poly_derivative([5.0]) == [0.0]


def test_trim_coeffs():
    assert K.trim_coeffs([1.0, 2.0, 0.0, 0.0]) == [1.0, 2.0]
    assert K.trim_coeffs([0.0, 0.0]) == [0.0]
    # relative threshold: a leading term 1e-20 of the max is noise
    assert K.trim_coeffs([1.0, 1e-20]) == [1.0]


def test_shifted_coeffs_is_taylor_shift():
    # P(x) = x^3: shift by 2 gives (y+2)^3 = 8 + 12y + 6y^2 + y^3
    assert K.shifted_coeffs([0.0, 0.0, 0.0, 1.0], 2.0) == [8.0, 12.0, 6.0, 1.0]


def test_sign_changes():
    assert K.sign_changes([1.0, -1.0, 1.0]) == 2
    assert K.sign_changes([1.0, 0.0, 1.0]) == 0
    assert K.sign_changes([1.0, 0.0, -1.0]) == 1
    assert K.sign_changes([]) == 0

