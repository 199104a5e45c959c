"""Safe-prime group arithmetic and the multiplicatively homomorphic cipher layer.

Everything downstream (triple generation, key-product chains, blinding) runs in
the order-q subgroup of quadratic residues modulo a safe prime p = 2q + 1.
A ciphertext is multi-recipient ElGamal: plaintexts m_i under distinct keys
h_i and one randomness r travel as one u = g^r and one v_i = m_i * h_i^r each.
Layers can be multiplied in, stripped off with secret exponents, and
re-randomized without touching the plaintexts.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    EncodingRangeError,
    MessageSpaceError,
    NonInvertibleError,
    ParameterError,
    ProtocolAbort,
)


class _Mpz(ctypes.Structure):
    """GMP's `__mpz_struct`: allocated limbs, signed used limbs, limb pointer."""

    _fields_ = [("_mp_alloc", ctypes.c_int), ("_mp_size", ctypes.c_int),
                ("_mp_d", ctypes.c_void_p)]


# Operands on which a freshly bound libgmp must agree with builtin pow before
# it is used: a zero exponent, a base past the modulus, an even modulus, a
# 256-bit exponentiation, and its base kept loaded under a new exponent and
# modulus.
_SELF_CHECK = [
    (7, 0, 23),
    (100, 5, 23),
    (3, 10**40 + 1, 2**64),
    (4, (1 << 255) - 19, (1 << 256) - 189),
    (4, 65537, 2**61 - 1),
]

# libgmp's soname since GMP 5.  Opening it by name spares the search through
# `ctypes.util.find_library`, which starts an `ldconfig -p` process on Linux.
_GMP_SONAME = "libgmp.so.10"


def _open_gmp():
    """The system libgmp as a `ctypes.CDLL`, or None when it does not load.

    The library is looked up with `find_library` only when its soname does
    not open.
    """
    try:
        return ctypes.CDLL(_GMP_SONAME)
    except OSError:
        from ctypes.util import find_library

        name = find_library("gmp")
        if name is None:
            return None
        try:
            return ctypes.CDLL(name)
        except OSError:
            return None


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


# Operands on which libgmp's `mpz_jacobi` must agree with `_jacobi` before it
# is used: zero, a residue and a non-residue mod 23, an argument past the
# modulus, a composite modulus, and 256-bit operands at both ends of (0, p).
_JACOBI_SELF_CHECK = [
    (0, 23), (2, 23), (5, 23), (100, 23), (2, 15), (7, 1),
    ((1 << 255) + 12345, (1 << 256) - 189), ((1 << 256) - 190, (1 << 256) - 189),
]


def _load_gmp():
    """(powmod, jacobi) through the system libgmp's `mpz_powm` and
    `mpz_jacobi`, or (`pow`, `_jacobi`) when the library or a symbol is
    missing.  Each function falls back alone to its reference (builtin `pow`,
    `_jacobi`) when it disagrees with it on its own self-check table.

    The binding keeps six scratch `mpz_t` registers (base, exponent, modulus
    and result for `mpz_powm`, argument and modulus for `mpz_jacobi`) for the
    life of the process, so it assumes the single-threaded `Runtime`: two
    threads inside it at once would overwrite each other's operands.  GMP
    grows the registers as operands need.  An operand register is reloaded
    only when its operand changes: a party strips K ciphertexts with one
    exponent mod one p, a chunk's strip raises one u to each of its slots'
    exponents, and membership tests run against one group; each function
    tracks its own modulus.  Operands go in through `mpz_import` as
    big-endian bytes.  The result is read in place from the result
    register's limbs (`__gmp_bits_per_limb` wide, least significant first),
    as one little-endian integer, which spares an `mpz_export` call per
    exponentiation; on a big-endian host that read disagrees with `pow` on
    the self-check, and `powmod` falls back.  Only a non-negative base and
    exponent with a modulus >= 2 reach `mpz_powm` (a zero modulus aborts the
    process inside it), and only a non-negative argument with a positive odd
    modulus reaches `mpz_jacobi`; every other call goes to the reference.
    """
    lib = _open_gmp()
    if lib is None:
        return pow, _jacobi
    try:
        init, import_, powm, jacobi = (getattr(lib, "__gmpz_" + name) for name in
                                       ("init", "import", "powm", "jacobi"))
        limb_bytes = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8
    except (AttributeError, ValueError):
        return pow, _jacobi
    reg = ctypes.POINTER(_Mpz)
    size_t = ctypes.c_size_t
    init.argtypes, init.restype = [reg], None
    import_.argtypes = [reg, size_t, ctypes.c_int, size_t, ctypes.c_int, size_t, ctypes.c_char_p]
    import_.restype = None
    powm.argtypes, powm.restype = [reg, reg, reg, reg], None
    jacobi.argtypes, jacobi.restype = [reg, reg], ctypes.c_int

    base_r, exp_r, mod_r, out_r, a_r, n_r = regs = [_Mpz() for _ in range(6)]
    for r in regs:
        init(r)
    string_at = ctypes.string_at
    loaded_b = loaded_e = loaded_m = None  # the operands base_r, exp_r and mod_r hold
    loaded_n = None  # the modulus n_r holds

    def load(r, x: int) -> None:
        raw = x.to_bytes((x.bit_length() + 7) // 8, "big")
        import_(r, len(raw), 1, 1, 1, 0, raw)

    def gmp_powmod(base: int, e: int, m: int) -> int:
        nonlocal loaded_b, loaded_e, loaded_m
        if base < 0 or e < 0 or m < 2:
            return pow(base, e, m)
        if m != loaded_m:
            load(mod_r, m)
            loaded_m = m
        if e != loaded_e:
            load(exp_r, e)
            loaded_e = e
        if base != loaded_b:
            load(base_r, base)
            loaded_b = base
        powm(out_r, base_r, exp_r, mod_r)
        return int.from_bytes(string_at(out_r._mp_d, limb_bytes * out_r._mp_size), "little")

    def gmp_jacobi(a: int, n: int) -> int:
        nonlocal loaded_n
        if a < 0 or n < 1 or not n & 1:
            return _jacobi(a, n)
        if n != loaded_n:
            load(n_r, n)
            loaded_n = n
        load(a_r, a)
        return jacobi(a_r, n_r)

    powmod_ok = all(gmp_powmod(b, e, m) == pow(b, e, m) for b, e, m in _SELF_CHECK)
    jacobi_ok = all(gmp_jacobi(a, n) == _jacobi(a, n) for a, n in _JACOBI_SELF_CHECK)
    return gmp_powmod if powmod_ok else pow, gmp_jacobi if jacobi_ok else _jacobi


_powmod, _jacobi_symbol = _load_gmp()

MR_ROUNDS = 64

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]

# Counter of modular exponentiations, for the triple-benchmark report only.
_modexp_count = 0


def reset_modexp_count():
    global _modexp_count
    _modexp_count = 0


def modexp_count():
    return _modexp_count


def modexp_backend() -> str:
    """"libgmp" when exponentiations go through the system libgmp, "pow"
    when they fall back to builtin pow."""
    return "pow" if _powmod is pow else "libgmp"


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Trial division by small primes, then MR_ROUNDS rounds of Miller-Rabin."""
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
    for _ in range(MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The largest group anything here uses (STANDARD_GROUP_2048).  A larger p is
# refused before any primality test: a safe-prime search far past it does
# not end in any useful time.
MAX_GROUP_BITS = 2048


@dataclass(frozen=True)
class GroupParams:
    """Safe-prime group: p = 2q + 1 with g generating the order-q subgroup."""

    p: int
    q: int
    g: int

    def validate(self) -> "GroupParams":
        if self.p.bit_length() > MAX_GROUP_BITS:
            raise ParameterError("a %d-bit p is past the %d-bit maximum"
                                 % (self.p.bit_length(), MAX_GROUP_BITS))
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

    def to_json(self) -> str:
        return json.dumps({"p": str(self.p), "q": str(self.q), "g": str(self.g)})

    @classmethod
    def from_json(cls, text: str) -> "GroupParams":
        doc = json.loads(text)
        if not (isinstance(doc, dict) and all(isinstance(doc.get(k), (int, str)) for k in "pqg")):
            raise ParameterError("a group document must be an object with integers p, q and g")
        return cls(p=int(doc["p"]), q=int(doc["q"]), g=int(doc["g"])).validate()


@dataclass(frozen=True)
class KeyPair:
    """Secret exponent x with public h = g^x mod p."""

    x: int
    h: int


class Ciphertext(NamedTuple):
    u: int  # g^r, one for the batch
    vs: tuple  # m_i * h_i^r, one per plaintext and key


# Tiny group for exhaustive unit tests: the only 5-bit safe prime.
TINY_GROUP = GroupParams(p=23, q=11, g=4)

# Deterministic output of gen_group(256, b"spdzgen-default-group-v1"),
# frozen so tests and the CLI default do not pay the search cost.
DEFAULT_GROUP_256 = GroupParams(
    p=87985748137455385793587561024790116427009342002709023143944941828231772543807,
    q=43992874068727692896793780512395058213504671001354511571972470914115886271903,
    g=4,
)

# RFC 3526 MODP-2048 modulus; it is a safe prime, and 4 = 2^2 generates the
# quadratic-residue subgroup.
_RFC3526_2048 = int(
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
)
STANDARD_GROUP_2048 = GroupParams(p=_RFC3526_2048, q=(_RFC3526_2048 - 1) // 2, g=4)

_MAX_GROUP_SEARCH = 10_000_000


def gen_group(bit_length: int, seed: bytes | int | str = b"") -> GroupParams:
    """Search for a safe prime of exactly `bit_length` bits, deterministically.

    Candidates for q are drawn from a generator seeded with `seed`, so a fixed
    seed always yields the same group.  The generator is the canonical square
    g = 4: the subgroup has prime order, so any element != 1 generates it.
    Bit lengths from 5, for test-scale groups, to MAX_GROUP_BITS are
    accepted; anything below a few hundred bits offers no security.
    """
    if not 5 <= bit_length <= MAX_GROUP_BITS:
        raise ParameterError("bit_length must be between 5 and %d, not %d"
                             % (MAX_GROUP_BITS, bit_length))
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


def modexp(base: int, e: int, p: int) -> int:
    """base^e mod p through `_powmod` (libgmp, or builtin pow), counted for
    the benchmark report."""
    global _modexp_count
    if p < 2:
        raise ParameterError("modulus must be >= 2")
    _modexp_count += 1
    return _powmod(base, e, p)


def inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo prime p."""
    if a % p == 0:
        raise NonInvertibleError("zero has no inverse mod %d" % p)
    return pow(a, -1, p)


def inverses(values: list, p: int) -> list[int]:
    """The inverse mod prime p of every value, by Montgomery's trick: one
    `inverse`, of the product of them all, and three multiplications per
    value.  A zero among them raises NonInvertibleError."""
    prefixes, product = [], 1
    for v in values:
        prefixes.append(product)
        product = product * v % p
    inv, out = inverse(product, p), [0] * len(values)
    for i in reversed(range(len(values))):
        out[i] = inv * prefixes[i] % p
        inv = inv * values[i] % p
    return out


def is_subgroup_member(y: int, params: GroupParams) -> bool:
    """True iff y is in the order-q subgroup (i.e. a quadratic residue).

    For prime p the Jacobi symbol (y/p) is the Legendre symbol, which is 1
    exactly when y^q = 1 mod p (Euler's criterion), without exponentiating.
    The symbol comes from libgmp when it is loaded, else from `_jacobi`.
    """
    if not 0 < y < params.p:
        raise MessageSpaceError("element %d outside (0, p)" % y)
    return _jacobi_symbol(y, params.p) == 1


def random_exponent(params: GroupParams, rng: random.Random) -> int:
    return rng.randrange(0, params.q)


def random_subgroup_element(params: GroupParams, rng: random.Random) -> int:
    """Uniform over the order-q subgroup, sampled as s^2 for a uniform s in
    [1, p).

    The subgroup is the quadratic residues, and each residue has exactly two
    square roots (s and p - s), so s^2 is uniform over it: the distribution
    of g^t, for one multiplication instead of an exponentiation.
    """
    s = rng.randrange(1, params.p)
    return s * s % params.p


def encrypt(params: GroupParams, hs, ms, r: int) -> Ciphertext:
    """Encrypt each subgroup plaintext ms[i] under public key hs[i], all with
    one randomness r: one u = g^r and v_i = ms[i] * hs[i]^r (multi-recipient
    ElGamal).

    Re-using r is as safe as fresh randomness only while the keys are
    distinct and independent (Bellare, Boldyreva and Staddon, PKC 2003).  The
    plaintexts are not tested for membership: callers draw them with
    `random_subgroup_element` (squares, members by construction) or check
    them once where they enter (`btg.triple_session`).
    """
    u = modexp(params.g, r, params.p)
    return Ciphertext(u, tuple(m * modexp(h, r, params.p) % params.p for h, m in zip(hs, ms)))


def mult_layer(ct: Ciphertext, factors, hs, r: int, params: GroupParams) -> Ciphertext:
    """Multiply each plaintext by its subgroup element `factors[i]` and add a
    layer under hs[i], all with one r.  Like `encrypt`, it leaves the
    membership test to callers."""
    u = ct.u * modexp(params.g, r, params.p) % params.p
    return Ciphertext(u, tuple(v * f % params.p * modexp(h, r, params.p) % params.p
                               for v, f, h in zip(ct.vs, factors, hs)))


def strip_layer(ct: Ciphertext, xs, params: GroupParams) -> list[int]:
    """Remove the key layer xs[i] from each v_i: returns v_i / u^xs[i] mod p,
    computed as v_i * u^(q-xs[i]).

    u^q = 1 for every u in the order-q subgroup, so u^(q-x) = u^-x there and
    stripping needs no inverse.
    """
    return [v * modexp(ct.u, -x % params.q, params.p) % params.p for v, x in zip(ct.vs, xs)]


def rerandomize(ct: Ciphertext, hs, r: int, params: GroupParams) -> Ciphertext:
    """Fresh randomness r under key hs[i] for each plaintext, the plaintexts
    unchanged."""
    return mult_layer(ct, [1] * len(ct.vs), hs, r, params)


# Bytes of a PRG seed on the wire.
SEED_BYTES = 16


def draw_seed(rng: random.Random) -> bytes:
    """A fresh SEED_BYTES seed drawn from a sender's generator."""
    return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "big")


def expand_residues(seed: bytes, count: int, p: int) -> list[int]:
    """`count` residues mod p expanded from a SEED_BYTES seed with SHAKE-256.

    The output stream is cut into chunks of w + 8 bytes, w being the byte
    width of p, and each chunk is reduced mod p: the 64 spare bits put every
    value within 2^-64 of uniform over [0, p).  Any modulus >= 1 works (the
    blinds expand mod p - 1, the two-mode signs mod 2), and a shorter count
    gives a prefix of a longer one.  A seed of any other length raises
    ProtocolAbort.
    """
    if len(seed) != SEED_BYTES:
        raise ProtocolAbort("seed of %d bytes, expected %d" % (len(seed), SEED_BYTES))
    chunk = (p.bit_length() + 7) // 8 + 8
    stream = hashlib.shake_256(seed).digest(count * chunk)
    return [int.from_bytes(stream[i:i + chunk], "big") % p for i in range(0, len(stream), chunk)]


def encode_residues(values, p: int) -> bytes:
    """Fixed-width big-endian wire encoding of a run of residues in [0, p)."""
    w = (p.bit_length() + 7) // 8
    return b"".join(v.to_bytes(w, "big") for v in values)


def decode_residues(raw: bytes, count: int, p: int) -> list[int]:
    """`count` fixed-width big-endian residues in [0, p) from a wire payload;
    the inverse of `encode_residues`.

    A payload of the wrong length or an entry >= p raises ProtocolAbort.
    """
    w = (p.bit_length() + 7) // 8
    if len(raw) != count * w:
        raise ProtocolAbort("payload of %d bytes, expected %d residues of %d bytes"
                            % (len(raw), count, w))
    values = [int.from_bytes(raw[i:i + w], "big") for i in range(0, len(raw), w)]
    if any(v >= p for v in values):
        raise ProtocolAbort("payload carries a residue outside [0, p)")
    return values


def signed_encode(x: int, p: int) -> int:
    """Embed a signed integer into [0, p) by reduction mod p."""
    if 2 * abs(x) >= p:
        raise EncodingRangeError("|%d| >= p/2, cannot encode unambiguously" % x)
    return x % p


def signed_decode(y: int, p: int) -> int:
    """Centered lift: residues above p/2 map to negative integers."""
    y = y % p
    return y - p if 2 * y > p else y
