import ctypes.util
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter

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
    ProtocolAbort,
)
from spdzgen.modmath import (
    DEFAULT_GROUP_256,
    STANDARD_GROUP_2048,
    TINY_GROUP,
    Ciphertext,
    GroupParams,
    gen_group,
)

from helpers import both_backends

P, Q, G = TINY_GROUP.p, TINY_GROUP.q, TINY_GROUP.g
NO_SUCH_LIBRARY = "libspdzgen-no-such-gmp.so.0"

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
        params = gen_group(256, seed=b"spdzgen-default-group-v1")
        assert params == DEFAULT_GROUP_256
        assert sympy.isprime(params.p)
        assert sympy.isprime(params.q)
        assert params.p == 2 * params.q + 1
        assert params.p.bit_length() == 256

    def test_rejects_too_small(self):
        with pytest.raises(ParameterError):
            gen_group(4)

    @pytest.mark.parametrize("bits", [modmath.MAX_GROUP_BITS + 1, 4096, 1_000_000])
    def test_rejects_past_the_maximum_before_any_primality_test(self, bits, monkeypatch):
        # a search this large never ends in useful time; the refusal comes first
        monkeypatch.setattr(modmath, "is_probable_prime", None)
        with pytest.raises(ParameterError, match="2048"):
            gen_group(bits)
        q = 2 ** (bits - 2) + 1
        with pytest.raises(ParameterError, match="2048"):
            GroupParams(p=2 * q + 1, q=q, g=4).validate()

    def test_the_2048_bit_group_is_at_the_maximum(self):
        assert STANDARD_GROUP_2048.p.bit_length() == modmath.MAX_GROUP_BITS
        STANDARD_GROUP_2048.validate()

    def test_json_roundtrip(self):
        text = TINY_GROUP.to_json()
        doc = json.loads(text)
        assert doc == {"p": "23", "q": "11", "g": "4"}
        assert GroupParams.from_json(text) == TINY_GROUP

    def test_element_encoding_fixed_width(self, group256):
        raw = modmath.encode_residues([5], group256.p)
        assert len(raw) == 32
        assert modmath.decode_residues(raw, 1, group256.p) == [5]

    @pytest.mark.parametrize("raw", [b"\x05" * 31, b"\x05" * 33, b"\xff" * 32],
                             ids=["truncated", "overlong", "out-of-range"])
    def test_element_decoding_rejects_malformed(self, group256, raw):
        with pytest.raises(ProtocolAbort):
            modmath.decode_residues(raw, 1, group256.p)


class TestExpandResidues:
    SEED = bytes(range(modmath.SEED_BYTES))

    def test_deterministic(self, group256):
        values = modmath.expand_residues(self.SEED, 50, group256.p)
        assert modmath.expand_residues(self.SEED, 50, group256.p) == values
        other = bytes([1]) + self.SEED[1:]
        assert modmath.expand_residues(other, 50, group256.p) != values

    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    def test_count_and_range(self, group256, count):
        values = modmath.expand_residues(self.SEED, count, group256.p)
        assert len(values) == count
        assert all(0 <= v < group256.p for v in values)

    def test_shorter_count_is_a_prefix(self, group256):
        assert modmath.expand_residues(self.SEED, 300, group256.p)[:7] \
            == modmath.expand_residues(self.SEED, 7, group256.p)

    def test_uniform_mod_a_small_modulus(self, tiny):
        # 64 spare bits per value: chi-square over Z_23 on 2,300 values
        values = modmath.expand_residues(self.SEED, 2300, tiny.p)
        counts = Counter(values)
        assert set(counts) == set(range(tiny.p))
        stat = sum((counts[v] - 100) ** 2 / 100 for v in range(tiny.p))
        assert stat < 60  # chi-square, 22 degrees of freedom, p ~ 3e-5

    @pytest.mark.parametrize("seed", [b"\x05" * (modmath.SEED_BYTES - 1),
                                      b"\x05" * (modmath.SEED_BYTES + 1), b""],
                             ids=["short", "long", "empty"])
    def test_rejects_a_seed_of_another_length(self, group256, seed):
        with pytest.raises(ProtocolAbort):
            modmath.expand_residues(seed, 3, group256.p)


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

    def test_batch_inverses_match_one_at_a_time(self, group256):
        p = group256.p
        rng = random.Random(11)
        values = [rng.randrange(1, p) for _ in range(65)] + [1, p - 1]
        assert modmath.inverses(values, p) == [egcd_inverse(v, p) for v in values]
        assert modmath.inverses([], p) == []
        with pytest.raises(NonInvertibleError):
            modmath.inverses([3, 0, 5], 23)


P256, Q256 = DEFAULT_GROUP_256.p, DEFAULT_GROUP_256.q


class TestPowmodBackend:
    """`modmath._powmod` (libgmp's mpz_powm when it loaded) against builtin pow."""

    @pytest.mark.parametrize("bits", [5, 256, 2048], ids=["tiny", "256", "2048"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_pow_property(self, bits, data):
        m = data.draw(st.integers(2, (1 << bits) - 1))
        base = data.draw(st.integers(0, 1 << (bits + 8)))
        e = data.draw(st.integers(0, 1 << bits))
        assert modmath._powmod(base, e, m) == pow(base, e, m)

    @pytest.mark.parametrize("base,e,m", [
        (5, 0, P256), (0, 0, P256), (0, Q256, P256),
        (P256 + 5, Q256, P256), (3 * P256, Q256, P256),
        (P256 - 1, Q256, P256), (P256 - 1, 2, P256),
        (3, Q256, 1 << 256), (7, 12345, 1000), (5, 3, 2),
        # operands GMP is not given
        (3, -1, 23), (-3, 5, 23), (5, 3, 1), (3, 5, -7),
    ], ids=["zero-exponent", "zero-to-the-zero", "zero-base", "base-above-p", "base-multiple-of-p",
            "base-p-minus-1-odd", "base-p-minus-1-even", "even-modulus-256", "even-modulus-small",
            "modulus-two", "negative-exponent", "negative-base", "modulus-one", "negative-modulus"])
    def test_edge_operands(self, base, e, m):
        assert modmath._powmod(base, e, m) == pow(base, e, m)

    def test_registers_grow_for_a_wider_modulus(self):
        m = (1 << 4095) + 12345
        rng = random.Random(4096)
        for _ in range(3):
            base, e = rng.getrandbits(4200), rng.getrandbits(4096)
            assert modmath._powmod(base, e, m) == pow(base, e, m)
        # and narrower operands after the wide ones still read back exactly
        assert modmath._powmod(3, Q256, P256) == pow(3, Q256, P256)
        assert modmath._powmod(2, 10, 1025) == 1024

    def test_alternating_moduli_and_exponents(self):
        # the binding keeps the exponent and modulus registers loaded across
        # calls; every switch of either must still reach GMP
        mods = [P256, (1 << 255) - 19]
        exps = [Q256 - 5, 65537]
        rng = random.Random(7)
        for i in range(40):
            m, e = mods[i % 2], exps[(i // 2) % 2]
            base = rng.randrange(m)
            assert modmath._powmod(base, e, m) == pow(base, e, m)
            assert modmath._powmod(base, e, m) == pow(base, e, m)  # both registers kept

    def test_interleaved_bases_exponents_moduli_and_symbols(self):
        # the base register is kept across calls too: the same base under a
        # new modulus or exponent, a new base under the same exponent and
        # modulus, a base above the modulus, an earlier base again, a repeated
        # call, and Jacobi symbols in between must all read back exactly
        m2 = (1 << 255) - 19
        rng = random.Random(12)
        b1, b2, b3 = (rng.getrandbits(250) for _ in range(3))
        e1, e2 = rng.getrandbits(256), rng.getrandbits(200)
        calls = [(b1, e1, P256), (b1, e1, m2), (b1, e2, m2), (b2, e2, m2),
                 (P256 + b3, e2, P256), (b3, e1, P256), (b1, e1, P256), (b1, e1, P256),
                 (b2, e1, m2)]
        for i, (base, e, m) in enumerate(calls):
            assert modmath._powmod(base, e, m) == pow(base, e, m), i
            assert modmath._jacobi_symbol(base + i, P256) == modmath._jacobi(base + i, P256)

    def test_zero_modulus_raises_instead_of_aborting(self):
        with pytest.raises(ValueError):
            modmath._powmod(3, 5, 0)

    def test_primality_verdicts_match_pow(self, monkeypatch):
        # primes, Carmichael numbers, strong pseudoprimes to small bases and
        # products of large primes, which all pass trial division
        cases = [113, 127, 2**61 - 1, 2**127 - 1, P256, Q256, STANDARD_GROUP_2048.p,
                 561, 41041, 825265, 3215031751, 3825123056546413051,
                 (2**61 - 1) * (2**89 - 1), P256 * Q256, 2**128 + 1]
        oracle = [sympy.isprime(n) for n in cases]
        loaded = [modmath.is_probable_prime(n) for n in cases]
        monkeypatch.setattr(modmath, "_powmod", pow)
        assert [modmath.is_probable_prime(n) for n in cases] == loaded == oracle

    def test_libgmp_is_bound_when_present(self):
        # a silent fallback to pow would keep every result and lose the speed
        if modmath._open_gmp() is None:
            pytest.skip("no libgmp on this host")
        assert modmath._powmod is not pow

    @pytest.mark.parametrize("found", [None, NO_SUCH_LIBRARY], ids=["no-library", "unloadable"])
    def test_loader_falls_back_to_pow(self, monkeypatch, found):
        monkeypatch.setattr(modmath, "_GMP_SONAME", NO_SUCH_LIBRARY)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: found)
        assert modmath._load_gmp() == (pow, modmath._jacobi)

    def test_loader_falls_back_when_a_symbol_is_missing(self, monkeypatch):
        # the C library stands in for a libgmp without any of the symbols
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no C library found to stand in for libgmp")
        monkeypatch.setattr(modmath, "_GMP_SONAME", NO_SUCH_LIBRARY)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: libc)
        assert modmath._load_gmp() == (pow, modmath._jacobi)

    @pytest.mark.parametrize("symbol", ["init", "import", "powm", "jacobi"])
    def test_loader_falls_back_without_one_symbol(self, monkeypatch, symbol):
        # a partial libgmp: any one missing symbol sends both functions to
        # their references
        lib = modmath._open_gmp()
        if lib is None:
            pytest.skip("no libgmp on this host")

        class Without:
            def __getattr__(self, name):
                if name == "__gmpz_" + symbol:
                    raise AttributeError(name)
                return getattr(lib, name)

        monkeypatch.setattr(modmath, "_open_gmp", Without)
        assert modmath._load_gmp() == (pow, modmath._jacobi)

    def test_import_starts_no_library_search(self):
        # opening the soname directly keeps find_library's `ldconfig -p`
        # child, and the subprocess module, out of every CLI call
        try:
            ctypes.CDLL(modmath._GMP_SONAME)
        except OSError:
            pytest.skip("%s does not load on this host" % modmath._GMP_SONAME)
        src = os.path.dirname(os.path.dirname(modmath.__file__))
        probe = "import sys, spdzgen.cli; print('subprocess' in sys.modules)"
        run = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.stdout.strip() == "False"


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

    def test_square_draws_uniform_over_residues(self, tiny):
        # s^2 for a uniform s in [1, p): only residues, every residue, and
        # each residue's count inside a 5-sigma binomial band
        rng = random.Random(17)
        n = 11_000
        tally = Counter(modmath.random_subgroup_element(tiny, rng) for _ in range(n))
        assert sorted(tally) == QR23
        expect, sigma = n / Q, math.sqrt(n * (1 / Q) * (1 - 1 / Q))
        assert all(abs(count - expect) <= 5 * sigma for count in tally.values())

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


class TestJacobiBackends:
    @pytest.mark.parametrize("params", [TINY_GROUP, DEFAULT_GROUP_256, STANDARD_GROUP_2048],
                             ids=["23", "256", "2048"])
    def test_backends_give_the_same_symbols(self, params):
        # random residues, both ends of (0, p), and squares, which are all 1
        p, rng = params.p, random.Random(params.p.bit_length())
        squares = [rng.randrange(1, p) ** 2 % p for _ in range(50)]
        ys = [rng.randrange(1, p) for _ in range(200)] + [1, 2, p - 2, p - 1] + squares
        python = [modmath._jacobi(y, p) for y in ys]
        assert [modmath._load_gmp()[1](y, p) for y in ys] == python
        assert [modmath._jacobi_symbol(y, p) for y in ys] == python
        assert python[-50:] == [1] * 50 and modmath._jacobi(p - 1, p) == -1
        # Euler's criterion is the oracle for the random residues
        assert python[:200] == [1 if pow(y, params.q, p) == 1 else -1 for y in ys[:200]]

    def test_libgmp_jacobi_is_bound_when_present(self):
        if modmath._open_gmp() is None:
            pytest.skip("no libgmp on this host")
        assert modmath._jacobi_symbol is not modmath._jacobi

    def test_edge_operands_go_to_python(self):
        jacobi = modmath._load_gmp()[1]
        for a, n in [(-3, 23), (5, 1), (0, 1), (3, 9), (10**80 + 7, 10**40 + 9)]:
            assert jacobi(a, n) == modmath._jacobi(a, n)

    def test_loader_falls_back_without_the_library(self, monkeypatch):
        monkeypatch.setattr(modmath, "_GMP_SONAME", NO_SUCH_LIBRARY)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert modmath._load_gmp()[1] is modmath._jacobi

    def test_loader_falls_back_when_the_self_check_fails(self, monkeypatch):
        # each function falls back alone: a failing Jacobi check leaves
        # powmod on libgmp, and a failing powmod check leaves jacobi there
        gmp = modmath._open_gmp() is not None

        def wrong_jacobi(a, n):
            return 0

        def wrong_pow(base, e, m):
            return 0

        monkeypatch.setattr(modmath, "_jacobi", wrong_jacobi)
        powmod, jacobi = modmath._load_gmp()
        assert jacobi is wrong_jacobi and (powmod is not pow) == gmp
        monkeypatch.undo()
        monkeypatch.setattr(modmath, "pow", wrong_pow, raising=False)
        powmod, jacobi = modmath._load_gmp()
        assert powmod is wrong_pow and (jacobi is not modmath._jacobi) == gmp


class TestCipherLayer:
    @both_backends
    @pytest.mark.parametrize("params", [DEFAULT_GROUP_256, STANDARD_GROUP_2048],
                             ids=["256", "2048"])
    def test_layers_match_their_pow_definitions(self, modexp_backend, params):
        # encrypt, mult_layer and rerandomize under g and a public key, each
        # against its definition in builtin pow
        p, g = params.p, params.g
        rng = random.Random(p.bit_length())
        for h in (g, pow(g, 12345, p)):
            m, f = (modmath.random_subgroup_element(params, rng) for _ in range(2))
            r1, r2, r3 = (rng.randrange(params.q) for _ in range(3))
            ct = modmath.encrypt(params, [h], [m], r1)
            assert ct == Ciphertext(pow(g, r1, p), (m * pow(h, r1, p) % p,))
            [v] = ct.vs
            mult = modmath.mult_layer(ct, [f], [h], r2, params)
            assert mult == Ciphertext(ct.u * pow(g, r2, p) % p, (v * f * pow(h, r2, p) % p,))
            rerand = modmath.rerandomize(ct, [h], r3, params)
            assert rerand == Ciphertext(ct.u * pow(g, r3, p) % p, (v * pow(h, r3, p) % p,))

    def test_encrypt_trace(self, tiny):
        # h = g^3 = 18; m = 2; r = 2 -> (16, 4), all by direct evaluation
        h = pow(4, 3, 23)
        assert h == 18
        ct = modmath.encrypt(tiny, [h], [2], 2)
        assert ct == (16, (4,))
        assert modmath.strip_layer(ct, [3], tiny) == [2]

    def test_encrypt_zero_randomness(self, tiny):
        ct = modmath.encrypt(tiny, [18], [3], 0)
        assert ct == (1, (3,))
        assert modmath.strip_layer(ct, [7], tiny) == [3]  # u = 1 means no layer

    def test_roundtrip_random(self, tiny):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.randrange(1, tiny.q)
            h = pow(tiny.g, x, tiny.p)
            m = modmath.random_subgroup_element(tiny, rng)
            r = rng.randrange(tiny.q)
            ct = modmath.encrypt(tiny, [h], [m], r)
            assert modmath.strip_layer(ct, [x], tiny) == [m]

    def test_mult_layer_homomorphism(self, tiny):
        rng = random.Random(11)
        x = 3
        h = pow(tiny.g, x, tiny.p)
        for _ in range(100):
            m = modmath.random_subgroup_element(tiny, rng)
            f1 = modmath.random_subgroup_element(tiny, rng)
            f2 = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, [h], [m], rng.randrange(tiny.q))
            ct = modmath.mult_layer(ct, [f1], [h], rng.randrange(tiny.q), tiny)
            assert modmath.strip_layer(ct, [x], tiny) == [m * f1 % tiny.p]
            ct = modmath.mult_layer(ct, [f2], [h], rng.randrange(tiny.q), tiny)
            assert modmath.strip_layer(ct, [x], tiny) == [m * f1 * f2 % tiny.p]

    def test_mult_layer_identity(self, tiny):
        ct = Ciphertext(16, (4,))
        assert modmath.mult_layer(ct, [1], [18], 0, tiny) == ct

    def test_strip_order_independence(self, tiny):
        rng = random.Random(3)
        x_a, x_c = 3, 5
        h_a, h_c = pow(4, x_a, 23), pow(4, x_c, 23)
        h_ac = h_a * h_c % 23
        for _ in range(50):
            m = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, [h_ac], [m], rng.randrange(11))
            v1 = modmath.strip_layer(Ciphertext(ct.u, modmath.strip_layer(ct, [x_a], tiny)),
                                     [x_c], tiny)
            v2 = modmath.strip_layer(Ciphertext(ct.u, modmath.strip_layer(ct, [x_c], tiny)),
                                     [x_a], tiny)
            assert v1 == v2 == [m]

    def test_strip_matches_inverse_exhaustive_tiny(self, tiny):
        # v * u^(q-x) == v / u^x for every subgroup u, key x and element v
        for u in QR23:
            for x in range(Q + 1):
                want = [v * egcd_inverse(pow(u, x, P), P) % P for v in range(1, P)]
                assert modmath.strip_layer(Ciphertext(u, tuple(range(1, P))), [x] * (P - 1),
                                           tiny) == want

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_strip_matches_inverse_property(self, group256, data):
        p, q = group256.p, group256.q
        u = pow(group256.g, data.draw(st.integers(0, q - 1)), p)
        v = data.draw(st.integers(1, p - 1))
        x = data.draw(st.integers(1, q - 1))
        want = v * egcd_inverse(pow(u, x, p), p) % p
        assert modmath.strip_layer(Ciphertext(u, (v,)), [x], group256) == [want]

    def test_rerandomize_preserves_plaintext(self, tiny):
        rng = random.Random(5)
        x = 7
        h = pow(4, x, 23)
        for _ in range(50):
            m = modmath.random_subgroup_element(tiny, rng)
            ct = modmath.encrypt(tiny, [h], [m], rng.randrange(11))
            rr = modmath.rerandomize(ct, [h], rng.randrange(11), tiny)
            assert modmath.strip_layer(rr, [x], tiny) == [m]

    def test_rerandomize_zero_is_identity(self, tiny):
        ct = Ciphertext(16, (4,))
        assert modmath.rerandomize(ct, [18], 0, tiny) == ct

    def test_rerandomize_distinct_nonces_distinct_u(self, tiny):
        ct = modmath.encrypt(tiny, [18], [2], 2)
        r1 = modmath.rerandomize(ct, [18], 1, tiny)
        r2 = modmath.rerandomize(ct, [18], 2, tiny)
        assert r1.u != r2.u

    def test_one_randomness_for_several_keys(self, tiny):
        # one u = g^r for the whole batch; each plaintext strips off with the
        # secret of its own key, through a layer and a re-randomization
        xs, ms, fs = [3, 5, 7], [2, 3, 4], [6, 8, 9]
        hs = [pow(4, x, 23) for x in xs]
        ct = modmath.encrypt(tiny, hs, ms, 2)
        assert ct.u == pow(4, 2, 23) and len(ct.vs) == 3
        ct = modmath.rerandomize(modmath.mult_layer(ct, fs, hs, 5, tiny), hs, 9, tiny)
        assert ct.u == pow(4, 2 + 5 + 9, 23)
        assert modmath.strip_layer(ct, xs, tiny) == [m * f % 23 for m, f in zip(ms, fs)]

    def test_subgroup_closure(self, group256):
        rng = random.Random(13)
        x = rng.randrange(1, group256.q)
        h = pow(group256.g, x, group256.p)
        m = modmath.random_subgroup_element(group256, rng)
        f = modmath.random_subgroup_element(group256, rng)
        ct = modmath.mult_layer(modmath.encrypt(group256, [h], [m], rng.randrange(group256.q)),
                                [f], [h], rng.randrange(group256.q), group256)
        assert all(modmath.is_subgroup_member(y, group256) for y in (ct.u, *ct.vs))
        [stripped] = modmath.strip_layer(ct, [x], group256)
        assert modmath.is_subgroup_member(stripped, group256)


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
