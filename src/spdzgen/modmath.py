"""Safe-prime group arithmetic and the multiplicatively homomorphic cipher layer.

Everything downstream (triple generation, key-product chains, blinding) runs in
the order-q subgroup of quadratic residues modulo a safe prime p = 2q + 1.
Ciphertexts are ElGamal pairs (u, v) = (g^r, m * h^r); layers can be multiplied
in, stripped off with a secret exponent, and re-randomized without touching the
plaintext.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

from .errors import (
    EncodingRangeError,
    MessageSpaceError,
    NonInvertibleError,
    ParameterError,
)

try:
    from gmpy2 import invert as _gmp_invert
    from gmpy2 import powmod as _powmod
except ImportError:  # pure-Python fallback, ~6x slower at 256 bits
    _powmod = pow
    _gmp_invert = None

MR_ROUNDS = 64

# Bits per digit of a fixed-base comb table.  A 256-bit table has 43 rows of
# 64 entries (about 0.19 MB) and costs about 2,700 modular multiplications to
# build; an exponentiation through it costs at most 43.
COMB_WINDOW = 6
_COMB_MASK = (1 << COMB_WINDOW) - 1
# Bases whose tables stay cached: g plus the long-lived public keys of a few
# generator trios.
COMB_TABLES = 16

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]

# Counter of modular exponentiations, for the triple-benchmark report only.
_modexp_count = 0


def reset_modexp_count():
    global _modexp_count
    _modexp_count = 0


def modexp_count():
    return _modexp_count


def is_probable_prime(n: int, rounds: int = MR_ROUNDS, rng: random.Random | None = None) -> bool:
    """Trial division by small primes, then `rounds` of Miller-Rabin."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if rng is None:
        rng = random.Random(n & 0xFFFFFFFF)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = int(_powmod(a, d, n))
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """Safe-prime group: p = 2q + 1 with g generating the order-q subgroup."""

    p: int
    q: int
    g: int

    def validate(self) -> "GroupParams":
        if self.p != 2 * self.q + 1:
            raise ParameterError("p != 2q + 1")
        if not is_probable_prime(self.p):
            raise ParameterError("p failed primality test")
        if not is_probable_prime(self.q):
            raise ParameterError("q failed primality test")
        if self.g == 1 or not (1 < self.g < self.p):
            raise ParameterError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g does not generate the order-q subgroup")
        return self

    @property
    def element_size(self) -> int:
        """Serialized width of one field element, in bytes."""
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a residue in [0, p)."""
        return x.to_bytes(self.element_size, "big")

    def decode_element(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big")

    def to_json(self) -> str:
        return json.dumps({"p": str(self.p), "q": str(self.q), "g": str(self.g)})

    @classmethod
    def from_json(cls, text: str) -> "GroupParams":
        doc = json.loads(text)
        return cls(p=int(doc["p"]), q=int(doc["q"]), g=int(doc["g"])).validate()


@dataclass(frozen=True)
class KeyPair:
    """Secret exponent x with public h = g^x mod p."""

    x: int
    h: int


@dataclass(frozen=True)
class Ciphertext:
    u: int
    v: int


# Tiny group for exhaustive unit tests: the only 5-bit safe prime.
TINY_GROUP = GroupParams(p=23, q=11, g=4)

# Deterministic output of gen_group(256, b"spdzgen-default-group-v1"),
# frozen so tests and the CLI default do not pay the search cost.
DEFAULT_GROUP_SEED = b"spdzgen-default-group-v1"
DEFAULT_GROUP_256 = GroupParams(
    p=87985748137455385793587561024790116427009342002709023143944941828231772543807,
    q=43992874068727692896793780512395058213504671001354511571972470914115886271903,
    g=4,
)

# RFC 3526 MODP-2048 modulus; it is a safe prime, and 4 = 2^2 generates the
# quadratic-residue subgroup.
STANDARD_GROUP_2048 = GroupParams(
    p=int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
        "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
        "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
        "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
        "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
        "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
        "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
        "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
        "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
    q=(int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
        "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
        "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
        "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
        "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
        "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
        "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
        "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
        "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ) - 1) // 2,
    g=4,
)

_MAX_GROUP_SEARCH = 10_000_000


def gen_group(bit_length: int, seed: bytes | int | str = b"") -> GroupParams:
    """Search for a safe prime of exactly `bit_length` bits, deterministically.

    Candidates for q are drawn from a generator seeded with `seed`, so a fixed
    seed always yields the same group.  The generator is the canonical square
    g = 4: the subgroup has prime order, so any element != 1 generates it.
    Bit lengths down to 5 are accepted for test-scale groups; anything below
    a few hundred bits offers no security.
    """
    if bit_length < 5:
        raise ParameterError("bit_length must be at least 5")
    rng = random.Random(seed)
    for _ in range(_MAX_GROUP_SEARCH):
        q = rng.getrandbits(bit_length - 1) | (1 << (bit_length - 2)) | 1
        p = 2 * q + 1
        if p.bit_length() != bit_length:
            continue
        if not is_probable_prime(q, rng=rng):
            continue
        if is_probable_prime(p, rng=rng):
            return GroupParams(p=p, q=q, g=4).validate()
    raise ParameterError(
        "no safe prime of %d bits found within %d candidates" % (bit_length, _MAX_GROUP_SEARCH)
    )


def modexp(base: int, e: int, p: int, table: tuple | None = None) -> int:
    """base^e mod p, counted for the benchmark report.

    `table`, when given, is `fixed_base_table(base, p)`; exponents in its
    range cost one multiplication per table row, the rest fall back to plain
    pow.  The result is the same either way.
    """
    global _modexp_count
    if p < 2:
        raise ParameterError("modulus must be >= 2")
    _modexp_count += 1
    if table is not None and 0 <= e and e.bit_length() <= COMB_WINDOW * len(table):
        acc = 1
        for row in table:
            acc = acc * row[e & _COMB_MASK] % p
            e >>= COMB_WINDOW
        return acc
    return int(_powmod(base, e, p))


@functools.lru_cache(maxsize=COMB_TABLES)
def fixed_base_table(base: int, p: int) -> tuple:
    """Fixed-base comb table for `base` mod p, built once per (base, p).

    Row i holds base^(d * 2^(COMB_WINDOW * i)) mod p for every digit
    d < 2^COMB_WINDOW, and there are enough rows for any exponent of up to
    p.bit_length() bits (Brickell-Gordon-McCurley-Wilson, EUROCRYPT 1992).
    """
    rows = []
    b = base % p
    for _ in range(-(-p.bit_length() // COMB_WINDOW)):
        row = [1]
        for _ in range(_COMB_MASK):
            row.append(row[-1] * b % p)
        rows.append(tuple(row))
        b = row[-1] * b % p
    return tuple(rows)


def _fixed_modexp(base: int, e: int, p: int) -> int:
    """modexp of a base that recurs (g or a long-lived public key)."""
    return modexp(base, e, p, fixed_base_table(base, p))


def inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo prime p."""
    if a % p == 0:
        raise NonInvertibleError("zero has no inverse mod %d" % p)
    if _gmp_invert is not None:
        return int(_gmp_invert(a, p))
    return pow(a, -1, p)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the binary algorithm (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 1.4.10)."""
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def is_subgroup_member(y: int, params: GroupParams) -> bool:
    """True iff y is in the order-q subgroup (i.e. a quadratic residue).

    For prime p the Jacobi symbol (y/p) is the Legendre symbol, which is 1
    exactly when y^q = 1 mod p (Euler's criterion), without exponentiating.
    """
    if not 0 < y < params.p:
        raise MessageSpaceError("element %d outside (0, p)" % y)
    return _jacobi(y, params.p) == 1


def random_exponent(params: GroupParams, rng: random.Random) -> int:
    return rng.randrange(0, params.q)


def random_subgroup_element(params: GroupParams, rng: random.Random) -> int:
    """Uniform over the order-q subgroup, sampled as g^t."""
    return _fixed_modexp(params.g, rng.randrange(0, params.q), params.p)


def encrypt(params: GroupParams, h: int, m: int, r: int) -> Ciphertext:
    """Encrypt subgroup plaintext m under public key h with randomness r."""
    if not is_subgroup_member(m, params):
        raise MessageSpaceError("plaintext is not a subgroup member")
    u = _fixed_modexp(params.g, r, params.p)
    v = m * _fixed_modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


def mult_layer(ct: Ciphertext, factor: int, h: int, r: int, params: GroupParams) -> Ciphertext:
    """Multiply the plaintext by `factor` and re-randomize with r under h."""
    if not is_subgroup_member(factor, params):
        raise MessageSpaceError("factor is not a subgroup member")
    u = ct.u * _fixed_modexp(params.g, r, params.p) % params.p
    v = ct.v * factor % params.p * _fixed_modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


def strip_layer(ct: Ciphertext, x: int, params: GroupParams) -> int:
    """Remove the key layer x: returns v / u^x mod p, computed as v * u^(q-x).

    u^q = 1 for every u in the order-q subgroup, so u^(q-x) = u^-x there and
    stripping needs no inverse.
    """
    return ct.v * modexp(ct.u, -x % params.q, params.p) % params.p


def rerandomize(ct: Ciphertext, h: int, r: int, params: GroupParams) -> Ciphertext:
    """Fresh randomness r under key h; the plaintext is unchanged."""
    u = ct.u * _fixed_modexp(params.g, r, params.p) % params.p
    v = ct.v * _fixed_modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


def signed_encode(x: int, p: int) -> int:
    """Embed a signed integer into [0, p) by reduction mod p."""
    if 2 * abs(x) >= p:
        raise EncodingRangeError("|%d| >= p/2, cannot encode unambiguously" % x)
    return x % p


def signed_decode(y: int, p: int) -> int:
    """Centered lift: residues above p/2 map to negative integers."""
    y = y % p
    return y - p if 2 * y > p else y
