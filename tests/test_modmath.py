import json
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spdzgen import modmath
from spdzgen.errors import (
    EncodingRangeError,
    MessageSpaceError,
    NonInvertibleError,
    ParameterError,
)
from spdzgen.modmath import (
    DEFAULT_GROUP_256,
    STANDARD_GROUP_2048,
    TINY_GROUP,
    Ciphertext,
    GroupParams,
    gen_group,
)

P, Q, G = TINY_GROUP.p, TINY_GROUP.q, TINY_GROUP.g

# independent oracle: quadratic residues mod 23 by enumeration
QR23 = sorted({x * x % 23 for x in range(1, 23)})


def egcd_inverse(a, p):
    # extended-gcd oracle, independent of pow(a, -1, p)
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
    assert old_r == 1
    return old_s % p


class TestGroupGen:
    def test_tiny_constant_is_valid(self):
        TINY_GROUP.validate()
        # g = 4 has order exactly 11 mod 23, verified by enumeration
        powers = [pow(4, i, 23) for i in range(1, 12)]
        assert powers[-1] == 1
        assert 1 not in powers[:-1]
        assert len(set(powers)) == 11

    def test_five_bit_search_finds_the_tiny_group(self):
        params = gen_group(5, seed=b"anything")
        assert (params.p, params.q, params.g) == (23, 11, 4)

    def test_deterministic_for_fixed_seed(self):
        a = gen_group(16, seed=b"S")
        b = gen_group(16, seed=b"S")
        assert a == b
        assert gen_group(16, seed=b"T") != a or True  # different seed may differ

    def test_256_bit_group_against_primality_oracle(self):
        params = gen_group(256, seed=modmath.DEFAULT_GROUP_SEED)
        assert params == DEFAULT_GROUP_256
        assert sympy.isprime(params.p)
        assert sympy.isprime(params.q)
        assert params.p == 2 * params.q + 1
        assert params.p.bit_length() == 256

    def test_rejects_too_small(self):
        with pytest.raises(ParameterError):
            gen_group(4)

    def test_json_roundtrip(self):
        text = TINY_GROUP.to_json()
        doc = json.loads(text)
        assert doc == {"p": "23", "q": "11", "g": "4"}
        assert GroupParams.from_json(text) == TINY_GROUP

    def test_element_encoding_fixed_width(self, group256):
        raw = group256.encode_element(5)
        assert len(raw) == 32
        assert group256.decode_element(raw) == 5


class TestModexpInverse:
    @pytest.mark.parametrize("base,e,p,want", [(4, 3, 23, 18), (16, 3, 23, 2)])
    def test_modexp_values(self, base, e, p, want):
        assert modmath.modexp(base, e, p) == want
        assert base ** e % p == want  # direct evaluation oracle

    def test_modexp_zero_exponent(self):
        assert modmath.modexp(7, 0, 23) == 1

    def test_modexp_bad_modulus(self):
        with pytest.raises(ParameterError):
            modmath.modexp(2, 2, 1)

    @pytest.mark.parametrize("a,p,want", [(2, 23, 12), (1, 23, 1), (22, 23, 22)])
    def test_inverse_values(self, a, p, want):
        assert modmath.inverse(a, p) == want
        assert egcd_inverse(a, p) == want
        assert a * want % p == 1

    def test_inverse_of_zero(self):
        with pytest.raises(NonInvertibleError):
            modmath.inverse(0, 23)
        with pytest.raises(NonInvertibleError):
            modmath.inverse(46, 23)


def subgroup_bases(params, n=3):
    # g and a few fixed subgroup elements, so each table is built once
    rng = random.Random(params.p.bit_length())
    return [params.g] + [pow(params.g, rng.randrange(1, params.q), params.p) for _ in range(n)]


class TestFixedBaseComb:
    def test_matches_pow_exhaustive_tiny(self):
        # [0, 3q] and everything up to twice the table range, so exponents
        # past the range take the plain-pow fallback too
        for base in QR23:
            table = modmath.fixed_base_table(base, P)
            limit = 1 << (modmath.COMB_WINDOW * len(table))
            assert limit > P
            for e in range(max(3 * Q, 2 * limit) + 1):
                assert modmath.modexp(base, e, P, table) == pow(base, e, P)

    def test_counts_one_modexp_per_call(self):
        table = modmath.fixed_base_table(G, P)
        before = modmath.modexp_count()
        modmath.modexp(G, 5, P, table)
        modmath.modexp(G, 1000, P, table)  # fallback
        assert modmath.modexp_count() == before + 2

    @pytest.mark.parametrize("params,bases", [
        (DEFAULT_GROUP_256, subgroup_bases(DEFAULT_GROUP_256)),
        (STANDARD_GROUP_2048, subgroup_bases(STANDARD_GROUP_2048, n=1)),
    ], ids=["256", "2048"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pow_property(self, params, bases, data):
        base = data.draw(st.sampled_from(bases))
        bits = params.p.bit_length()
        e = data.draw(st.one_of(st.integers(0, params.q - 1),
                                st.integers(0, 1 << (bits + 2 * modmath.COMB_WINDOW))))
        table = modmath.fixed_base_table(base, params.p)
        assert modmath.modexp(base, e, params.p, table) == pow(base, e, params.p)


class TestSubgroup:
    def test_against_enumeration_oracle(self, tiny):
        members = [y for y in range(1, 23) if modmath.is_subgroup_member(y, tiny)]
        assert members == QR23

    def test_examples(self, tiny):
        assert modmath.is_subgroup_member(2, tiny)  # 5^2 = 2 mod 23
        assert modmath.is_subgroup_member(1, tiny)
        assert not modmath.is_subgroup_member(5, tiny)

    def test_zero_is_domain_error(self, tiny):
        with pytest.raises(MessageSpaceError):
            modmath.is_subgroup_member(0, tiny)

    def test_jacobi_matches_euler_exhaustive_tiny(self, tiny):
        for y in range(1, P):
            assert modmath.is_subgroup_member(y, tiny) == (pow(y, Q, P) == 1)

    @pytest.mark.parametrize("params", [DEFAULT_GROUP_256, STANDARD_GROUP_2048],
                             ids=["256", "2048"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_jacobi_matches_euler_property(self, params, data):
        # -1 is a non-residue mod a safe prime, so x and p - x differ
        x = data.draw(st.integers(1, params.p - 1))
        for y in (x, params.p - x):
            assert modmath.is_subgroup_member(y, params) == (pow(y, params.q, params.p) == 1)


class TestCipherLayer:
    def test_encrypt_trace(self, tiny):
        # h = g^3 = 18; m = 2; r = 2 -> (16, 4), all by direct evaluation
        h = pow(4, 3, 23)
        assert h == 18
        ct = modmath.encrypt(tiny, h, 2, 2)
        assert (ct.u, ct.v) == (16, 4)
        assert modmath.strip_layer(ct, 3, tiny) == 2

    def test_encrypt_zero_randomness(self, tiny):
        ct = modmath.encrypt(tiny, 18, 3, 0)
        assert (ct.u, ct.v) == (1, 3)
        assert modmath.strip_layer(ct, 7, tiny) == 3  # u = 1 means no layer

    def test_encrypt_rejects_non_member(self, tiny):
        with pytest.raises(MessageSpaceError):
            modmath.encrypt(tiny, 18, 5, 2)

    def test_roundtrip_random(self, tiny):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.randrange(1, tiny.q)
            h = pow(tiny.g, x, tiny.p)
            m = modmath.random_subgroup_element(tiny, rng)
            r = rng.randrange(tiny.q)
            assert modmath.strip_layer(modmath.encrypt(tiny, h, m, r), x, tiny) == m

    def test_mult_layer_homomorphism(self, tiny):
        rng = random.Random(11)
        x = 3
        h = pow(tiny.g, x, tiny.p)
        for _ in range(100):
            m = modmath.random_subgroup_element(tiny, rng)
            f1 = modmath.random_subgroup_element(tiny, rng)
            f2 = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, h, m, rng.randrange(tiny.q))
            ct = modmath.mult_layer(ct, f1, h, rng.randrange(tiny.q), tiny)
            assert modmath.strip_layer(ct, x, tiny) == m * f1 % tiny.p
            ct = modmath.mult_layer(ct, f2, h, rng.randrange(tiny.q), tiny)
            assert modmath.strip_layer(ct, x, tiny) == m * f1 * f2 % tiny.p

    def test_mult_layer_identity(self, tiny):
        ct = Ciphertext(16, 4)
        assert modmath.mult_layer(ct, 1, 18, 0, tiny) == ct

    def test_mult_layer_rejects_non_member(self, tiny):
        with pytest.raises(MessageSpaceError):
            modmath.mult_layer(Ciphertext(16, 4), 7, 18, 1, tiny)

    def test_strip_order_independence(self, tiny):
        rng = random.Random(3)
        x_a, x_c = 3, 5
        h_a, h_c = pow(4, x_a, 23), pow(4, x_c, 23)
        h_ac = h_a * h_c % 23
        for _ in range(50):
            m = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, h_ac, m, rng.randrange(11))
            v1 = modmath.strip_layer(Ciphertext(ct.u, modmath.strip_layer(ct, x_a, tiny)), x_c, tiny)
            v2 = modmath.strip_layer(Ciphertext(ct.u, modmath.strip_layer(ct, x_c, tiny)), x_a, tiny)
            assert v1 == v2 == m

    def test_strip_matches_inverse_exhaustive_tiny(self, tiny):
        # v * u^(q-x) == v / u^x for every subgroup u, key x and element v
        for u in QR23:
            for x in range(Q + 1):
                for v in range(1, P):
                    want = v * egcd_inverse(pow(u, x, P), P) % P
                    assert modmath.strip_layer(Ciphertext(u, v), x, tiny) == want

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_strip_matches_inverse_property(self, group256, data):
        p, q = group256.p, group256.q
        u = pow(group256.g, data.draw(st.integers(0, q - 1)), p)
        v = data.draw(st.integers(1, p - 1))
        x = data.draw(st.integers(1, q - 1))
        want = v * egcd_inverse(pow(u, x, p), p) % p
        assert modmath.strip_layer(Ciphertext(u, v), x, group256) == want

    def test_rerandomize_preserves_plaintext(self, tiny):
        rng = random.Random(5)
        x = 7
        h = pow(4, x, 23)
        for _ in range(50):
            m = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, h, m, rng.randrange(11))
            rr = modmath.rerandomize(ct, h, rng.randrange(11), tiny)
            assert modmath.strip_layer(rr, x, tiny) == m

    def test_rerandomize_zero_is_identity(self, tiny):
        ct = Ciphertext(16, 4)
        assert modmath.rerandomize(ct, 18, 0, tiny) == ct

    def test_rerandomize_distinct_nonces_distinct_u(self, tiny):
        ct = modmath.encrypt(tiny, 18, 2, 2)
        r1 = modmath.rerandomize(ct, 18, 1, tiny)
        r2 = modmath.rerandomize(ct, 18, 2, tiny)
        assert r1.u != r2.u

    def test_subgroup_closure(self, group256):
        rng = random.Random(13)
        x = rng.randrange(1, group256.q)
        h = pow(group256.g, x, group256.p)
        m = modmath.random_subgroup_element(group256, rng)
        f = modmath.random_subgroup_element(group256, rng)
        ct = modmath.mult_layer(modmath.encrypt(group256, h, m, rng.randrange(group256.q)),
                                f, h, rng.randrange(group256.q), group256)
        assert modmath.is_subgroup_member(ct.u, group256)
        assert modmath.is_subgroup_member(ct.v, group256)
        assert modmath.is_subgroup_member(modmath.strip_layer(ct, x, group256), group256)


class TestSignedEncoding:
    @pytest.mark.parametrize("x,enc", [(-1, 22), (0, 0), (11, 11)])
    def test_encode_values(self, x, enc):
        assert modmath.signed_encode(x, 23) == enc

    def test_centered_lift_boundary(self):
        assert modmath.signed_decode(11, 23) == 11
        assert modmath.signed_decode(12, 23) == -11
        assert modmath.signed_decode(22, 23) == -1

    def test_overflow(self):
        with pytest.raises(EncodingRangeError):
            modmath.signed_encode(12, 23)
        with pytest.raises(EncodingRangeError):
            modmath.signed_encode(-12, 23)

    @given(st.integers(min_value=-11, max_value=11))
    @settings(max_examples=100)
    def test_roundtrip_property(self, x):
        assert modmath.signed_decode(modmath.signed_encode(x, 23), 23) == x
