"""Safe-prime group arithmetic and the multiplicatively homomorphic cipher layer.

Everything downstream (triple generation, key-product chains, blinding) runs in
the order-q subgroup of quadratic residues modulo a safe prime p = 2q + 1.
Ciphertexts are ElGamal pairs (u, v) = (g^r, m * h^r); layers can be multiplied
in, stripped off with a secret exponent, and re-randomized without touching the
plaintext.
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
# it is used: a zero exponent, a base past the modulus, an even modulus and a
# 256-bit exponentiation.
_SELF_CHECK = [
    (7, 0, 23),
    (100, 5, 23),
    (3, 10**40 + 1, 2**64),
    (4, (1 << 255) - 19, (1 << 256) - 189),
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


def _load_powmod():
    """Variable-base modular exponentiation through the system libgmp's
    `mpz_powm`, or builtin `pow` when the library or one of its symbols is
    missing, or a self-check against `pow` fails.

    The binding keeps four scratch `mpz_t` registers (base, exponent,
    modulus, result) and one export buffer for the life of the process, so it
    assumes the single-threaded `Runtime`: two threads inside it at once
    would overwrite each other's operands.  GMP grows the registers as
    operands need.  The exponent and modulus registers are reloaded only
    when their operand changes, since a party strips K ciphertexts with one
    exponent mod one p.  Operands go in through `mpz_import` and the result
    comes back through `mpz_export`, both as big-endian bytes.  Only a
    non-negative base and exponent with a modulus >= 2 reach GMP (a zero
    modulus aborts the process inside it); every other call goes to `pow`.
    """
    lib = _open_gmp()
    if lib is None:
        return pow
    try:
        init, import_ = _bind_registers(lib)
        export = getattr(lib, "__gmpz_export")
        powm = getattr(lib, "__gmpz_powm")
    except AttributeError:
        return pow
    reg = ctypes.POINTER(_Mpz)
    size_t = ctypes.c_size_t
    export.argtypes = [ctypes.c_char_p, ctypes.POINTER(size_t), ctypes.c_int, size_t,
                       ctypes.c_int, size_t, reg]
    export.restype = ctypes.c_void_p
    powm.argtypes, powm.restype = [reg, reg, reg, reg], None

    base_r, exp_r, mod_r, out_r = regs = [_Mpz() for _ in range(4)]
    for r in regs:
        init(r)
    written = size_t()
    out = ctypes.create_string_buffer(64)
    loaded_e = loaded_m = None  # the exponent and modulus exp_r and mod_r hold

    def load(r, x: int) -> None:
        raw = x.to_bytes((x.bit_length() + 7) // 8, "big")
        import_(r, len(raw), 1, 1, 1, 0, raw)

    def gmp_powmod(base: int, e: int, m: int) -> int:
        nonlocal out, loaded_e, loaded_m
        if base < 0 or e < 0 or m < 2:
            return pow(base, e, m)
        if m != loaded_m:
            width = (m.bit_length() + 7) // 8
            if len(out) < width:
                out = ctypes.create_string_buffer(width)
            load(mod_r, m)
            loaded_m = m
        if e != loaded_e:
            load(exp_r, e)
            loaded_e = e
        load(base_r, base)
        powm(out_r, base_r, exp_r, mod_r)
        export(out, written, 1, 1, 1, 0, out_r)
        return int.from_bytes(out.raw[:written.value], "big")

    if any(gmp_powmod(b, e, m) != pow(b, e, m) for b, e, m in _SELF_CHECK):
        return pow
    return gmp_powmod


def _bind_registers(lib):
    """libgmp's `mpz_init` and `mpz_import` with their C signatures; raises
    AttributeError when either symbol is missing."""
    init = getattr(lib, "__gmpz_init")
    import_ = getattr(lib, "__gmpz_import")
    reg = ctypes.POINTER(_Mpz)
    size_t = ctypes.c_size_t
    init.argtypes, init.restype = [reg], None
    import_.argtypes = [reg, size_t, ctypes.c_int, size_t, ctypes.c_int, size_t, ctypes.c_char_p]
    import_.restype = None
    return init, import_


_powmod = _load_powmod()

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


def _load_jacobi():
    """The Jacobi symbol through the system libgmp's `mpz_jacobi`, or
    `_jacobi` when the library or a symbol is missing, or a self-check
    against `_jacobi` fails.

    Like `_load_powmod`'s binding, it keeps two scratch registers for the life
    of the process and assumes the single-threaded `Runtime`.  The modulus
    register is reloaded only when the modulus changes, since membership
    tests run against one group.  Only a non-negative argument and a positive
    odd modulus reach GMP; every other call goes to `_jacobi`.
    """
    lib = _open_gmp()
    if lib is None:
        return _jacobi
    try:
        init, import_ = _bind_registers(lib)
        jacobi = getattr(lib, "__gmpz_jacobi")
    except AttributeError:
        return _jacobi
    reg = ctypes.POINTER(_Mpz)
    jacobi.argtypes, jacobi.restype = [reg, reg], ctypes.c_int
    a_r, n_r = _Mpz(), _Mpz()
    init(a_r)
    init(n_r)
    loaded = None  # the modulus n_r holds

    def gmp_jacobi(a: int, n: int) -> int:
        nonlocal loaded
        if a < 0 or n < 1 or not n & 1:
            return _jacobi(a, n)
        if n != loaded:
            raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
            import_(n_r, len(raw), 1, 1, 1, 0, raw)
            loaded = n
        raw = a.to_bytes((a.bit_length() + 7) // 8, "big")
        import_(a_r, len(raw), 1, 1, 1, 0, raw)
        return jacobi(a_r, n_r)

    if any(gmp_jacobi(a, n) != _jacobi(a, n) for a, n in _JACOBI_SELF_CHECK):
        return _jacobi
    return gmp_jacobi


_jacobi_symbol = _load_jacobi()


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


def encrypt(params: GroupParams, h: int, m: int, r: int) -> Ciphertext:
    """Encrypt subgroup plaintext m under public key h with randomness r.

    m is not tested for membership: callers draw it with
    `random_subgroup_element` (a square, a member by construction) or check
    it once where it enters (`btg.run_triple_session`).
    """
    u = modexp(params.g, r, params.p)
    v = m * modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


def mult_layer(ct: Ciphertext, factor: int, h: int, r: int, params: GroupParams) -> Ciphertext:
    """Multiply the plaintext by subgroup element `factor` and re-randomize
    with r under h; like `encrypt`, it leaves the membership test to callers."""
    u = ct.u * modexp(params.g, r, params.p) % params.p
    v = ct.v * factor % params.p * modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


def strip_layer(ct: Ciphertext, x: int, params: GroupParams) -> int:
    """Remove the key layer x: returns v / u^x mod p, computed as v * u^(q-x).

    u^q = 1 for every u in the order-q subgroup, so u^(q-x) = u^-x there and
    stripping needs no inverse.
    """
    return ct.v * modexp(ct.u, -x % params.q, params.p) % params.p


def rerandomize(ct: Ciphertext, h: int, r: int, params: GroupParams) -> Ciphertext:
    """Fresh randomness r under key h; the plaintext is unchanged."""
    u = ct.u * modexp(params.g, r, params.p) % params.p
    v = ct.v * modexp(h, r, params.p) % params.p
    return Ciphertext(u, v)


# Bytes of a PRG seed on the wire.
SEED_BYTES = 16


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
