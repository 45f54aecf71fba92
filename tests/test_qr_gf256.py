"""GF(256) arithmetic and Reed-Solomon codec tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qr.gf256 import (
    EXP_TABLE,
    LOG_TABLE,
    ReedSolomonError,
    gf_div,
    gf_inverse,
    gf_mul,
    gf_pow,
    poly_eval,
    poly_mul,
    rs_decode,
    rs_encode,
    rs_generator_poly,
)


class TestFieldArithmetic:
    def test_tables_are_inverse(self):
        for value in range(1, 256):
            assert EXP_TABLE[LOG_TABLE[value]] == value

    def test_mul_identity_and_zero(self):
        for value in range(256):
            assert gf_mul(value, 1) == value
            assert gf_mul(value, 0) == 0

    def test_mul_commutative(self):
        rng = random.Random(1)
        for _ in range(100):
            a, b = rng.randrange(256), rng.randrange(256)
            assert gf_mul(a, b) == gf_mul(b, a)

    def test_mul_associative(self):
        rng = random.Random(2)
        for _ in range(100):
            a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
            assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    def test_div_inverts_mul(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.randrange(256), rng.randrange(1, 256)
            assert gf_div(gf_mul(a, b), b) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_inverse(self):
        for value in range(1, 256):
            assert gf_mul(value, gf_inverse(value)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inverse(0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(2, 8) == 0x1D  # x^8 = x^4+x^3+x^2+1 under 0x11D
        assert gf_pow(0, 0) == 1
        assert gf_pow(0, 5) == 0


class TestPolynomials:
    def test_poly_mul_degree(self):
        assert len(poly_mul([1, 2], [1, 3, 4])) == 4

    def test_poly_eval_constant(self):
        assert poly_eval([7], 13) == 7

    def test_generator_poly_roots(self):
        """The generator polynomial vanishes at alpha^0..alpha^(n-1)."""
        for n_ec in (7, 10, 16):
            generator = rs_generator_poly(n_ec)
            for power in range(n_ec):
                assert poly_eval(generator, gf_pow(2, power)) == 0


class TestReedSolomon:
    def test_parity_length(self):
        assert len(rs_encode([1, 2, 3], 10)) == 10

    def test_clean_decode(self):
        data = list(range(30))
        codeword = data + rs_encode(data, 10)
        assert rs_decode(codeword, 10) == data

    def test_corrects_up_to_capacity(self):
        rng = random.Random(11)
        data = [rng.randrange(256) for _ in range(40)]
        n_ec = 16
        codeword = data + rs_encode(data, n_ec)
        corrupted = list(codeword)
        for position in rng.sample(range(len(codeword)), n_ec // 2):
            corrupted[position] ^= rng.randrange(1, 256)
        assert rs_decode(corrupted, n_ec) == data

    def test_parity_errors_also_corrected(self):
        data = [5] * 20
        codeword = data + rs_encode(data, 10)
        codeword[-1] ^= 0xFF  # corrupt a parity byte
        assert rs_decode(codeword, 10) == data

    def test_beyond_capacity_detected(self):
        rng = random.Random(12)
        data = [rng.randrange(256) for _ in range(40)]
        codeword = data + rs_encode(data, 10)
        for position in rng.sample(range(len(codeword)), 8):
            codeword[position] ^= rng.randrange(1, 256)
        with pytest.raises(ReedSolomonError):
            rs_decode(codeword, 10)

    def test_codeword_shorter_than_parity_rejected(self):
        with pytest.raises(ValueError):
            rs_decode([1, 2, 3], 5)

    def test_zero_ec_rejected(self):
        with pytest.raises(ValueError):
            rs_encode([1], 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=80),
    n_ec=st.sampled_from([7, 10, 13, 18, 22, 26, 30]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rs_roundtrip_property(data, n_ec, seed):
    """Any <= t-error corruption is corrected exactly."""
    rng = random.Random(seed)
    codeword = data + rs_encode(data, n_ec)
    n_errors = rng.randint(0, n_ec // 2)
    corrupted = list(codeword)
    for position in rng.sample(range(len(codeword)), n_errors):
        corrupted[position] ^= rng.randrange(1, 256)
    assert rs_decode(corrupted, n_ec) == data


@settings(max_examples=300, deadline=None)
@given(
    codeword=st.lists(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=255)), min_size=1, max_size=255),
    n_ec=st.integers(min_value=1, max_value=68),
)
def test_table_syndromes_match_horner(codeword, n_ec):
    """The log/antilog syndrome kernel equals Horner's scheme with scalar
    ``gf_mul``, zero coefficients and all-zero blocks included."""
    from repro.qr.gf256 import _syndromes

    expected = [poly_eval(codeword, gf_pow(2, power)) for power in range(n_ec)]
    assert _syndromes(codeword, n_ec) == expected
