"""Fixed-point Q<k,f> arithmetic on additive shares.

Rationals are scaled by 2^f, rounded to a signed k-bit integer and embedded
in the prime field.  Division by 2^m on shares uses a mask-and-open protocol
that needs no shared random bits:

  1. offset the input to a nonnegative integer: z' = 2^w + z  (w = working
     bit frame, >= k);
  2. the mask owner adds r' < 2^m to its own share and the wide-mask owner
     adds 2^m * r'' with r'' < 2^(kappa + w - m) to its own, so the shares
     sum to z' + r for r = 2^m * r'' + r'; nothing is dealt;
  3. the other servers send their shares to the mask owner alone, which
     reconstructs c = r + z' (an integer, no field wraparound because
     p > 2^(kappa + w + 1)) and aborts when c reaches that bound;
  4. with c' = c mod 2^m, the output is 2^(-m) * ([z] + r' - c'), which
     equals floor(z / 2^m) + u for a carry bit u in {0, 1}: the mask owner
     folds r' - c' into its own share, and every server scales by 2^(-m).

The carry makes plain `trunc` probabilistic, matching the protocol as
specified: Pr[u = 1] = (z mod 2^m) / 2^m.  For comparisons that must never
be off by one, `trunc(exact=True)` has the mask owner, who knows r' and c',
fold u = [c' < r'] into its own share too.  That variant is exact everywhere
and costs no extra round.  The opening is the only message, and only the
mask owner receives it: the wide-mask owner and the other servers learn
nothing from a truncation.  The shares the mask owner receives are uniform
subject to their sum, but the sum is c and the mask owner knows r', so it
learns z mod 2^m (measured in ROADMAP open item 1).

The offset uses 2^w rather than 2^(k-1) so the identity z' mod 2^m = z mod
2^m holds for every m up to the frame width, including m = k.

A fixed-point share is a plain SharedValue whose encoded integer is read at
the params' scale (value = encoded * 2^-f after the centered lift); params
travel alongside as an explicit argument rather than wrapped per share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import spdz
from .errors import EncodingRangeError, ParameterError, ProtocolAbort
from .modmath import inverse, signed_decode, signed_encode
from .net import PartyId, Runtime
from .spdz import SharedValue, TripleLedger

# Smallest prime above 2^96; leaves kappa + k + f + 1 = 89 bits of headroom
# at the default parameters below.
DEFAULT_FIXPT_PRIME = 2**96 + 61


@dataclass(frozen=True)
class FixedPointParams:
    k: int = 32
    f: int = 16
    kappa: int = 40
    p: int = DEFAULT_FIXPT_PRIME

    def __post_init__(self):
        if self.k <= 0 or self.f < 0 or self.k - self.f < 0 or self.kappa < 0:
            raise ParameterError("need k > 0, f >= 0, e = k - f >= 0, kappa >= 0")
        if self.p <= 2 ** (self.kappa + self.k + 1):
            raise ParameterError("field too small: p <= 2^(kappa + k + 1)")

    @property
    def e(self) -> int:
        return self.k - self.f

    @property
    def max_encoded(self) -> int:
        return 2 ** (self.k - 1) - 1


@dataclass(frozen=True)
class TruncRoles:
    """Who masks and who wide-masks (default the two lowest parties)."""

    mask_owner: PartyId
    wide_owner: PartyId

    @classmethod
    def default_for(cls, parties) -> "TruncRoles":
        ordered = sorted(parties)
        if len(ordered) < 2:
            raise ParameterError("truncation needs at least two parties")
        return cls(mask_owner=ordered[0], wide_owner=ordered[1])


def fp_encode(x, params: FixedPointParams) -> int:
    """Round x * 2^f to the nearest integer (halves up) and embed in the field.

    x is an int, float or Fraction, read exactly as n/d with d > 0; the
    rounding floor(n*2^f/d + 1/2) is computed in integers.
    """
    n, d = x.as_integer_ratio()
    xbar = ((n << (params.f + 1)) + d) // (2 * d)
    if abs(xbar) > params.max_encoded:
        raise EncodingRangeError("value %s outside Q<%d,%d> range" % (x, params.k, params.f))
    return signed_encode(xbar, params.p)


def fp_decode(y: int, params: FixedPointParams) -> Fraction:
    return Fraction(signed_decode(y, params.p), 2 ** params.f)


@dataclass(frozen=True)
class TruncOutcome:
    value: SharedValue
    opened: int  # the masked opening c = r + z', which only the mask owner receives


def trunc(runtime: Runtime, z: SharedValue, m: int, params: FixedPointParams,
          roles: TruncRoles | None = None, frame: int | None = None,
          exact: bool = False) -> TruncOutcome:
    """Divide a shared signed integer by 2^m (floor, plus a carry unless exact).

    One round: the mask owner and the wide-mask owner mask their own shares,
    and the other servers open the masked value to the mask owner alone,
    which folds the public part and, when `exact`, the carry into its share.
    `frame` widens the assumed bit bound of the input beyond params.k,
    needed after multiplications whose raw result carries 2f fraction bits.
    The field must satisfy p > 2^(kappa + frame + 1) at the chosen frame, and
    the two owners must be distinct holders of z.
    """
    p = params.p
    w = params.k if frame is None else frame
    if not 0 < m <= w:
        raise ParameterError("shift m=%d outside (0, %d]" % (m, w))
    if p <= 2 ** (params.kappa + w + 1):
        raise ParameterError("field too small for frame %d at kappa %d" % (w, params.kappa))
    if roles is None:
        roles = TruncRoles.default_for(z.parties)
    owner, wide = roles.mask_owner, roles.wide_owner
    if owner == wide:
        raise ParameterError("mask owner and wide-mask owner are both %s, which would "
                             "hold the whole mask" % (owner,))
    for pid in (owner, wide):
        if pid not in z.parties:
            raise ParameterError("mask holder %s holds no share of the value" % (pid,))

    r1 = runtime.rng(owner).randrange(2 ** m)
    r2 = runtime.rng(wide).randrange(2 ** (params.kappa + w - m))
    masked = dict(spdz.add_const(z, 2 ** w, p).shares)
    masked[owner] = (masked[owner] + r1) % p
    masked[wide] = (masked[wide] + (r2 << m)) % p
    [c] = spdz.open_values(runtime, [SharedValue(z.parties, masked)], p,
                           collector=owner, recipients=[owner])
    if c >= 2 ** (params.kappa + w + 1):
        raise ProtocolAbort("masked opening exceeded its integer bound (wraparound)")
    c1 = c % 2 ** m

    inv = inverse(2 ** m, p)
    carry = 1 if exact and c1 < r1 else 0
    out = {pid: inv * z.shares[pid] % p for pid in z.parties}
    out[owner] = (inv * (z.shares[owner] + r1 - c1) - carry) % p
    return TruncOutcome(value=SharedValue(z.parties, out), opened=c)


def fp_mult(runtime: Runtime, x: SharedValue, y: SharedValue, triple,
            params: FixedPointParams, ledger: TripleLedger,
            roles: TruncRoles | None = None) -> SharedValue:
    """Fixed-point product: Beaver multiply, then shift the extra f bits off.

    The decoded result is within 2^(1-f) of the true product; an overflowing
    product (outside Q<k,f>) is not detected.
    """
    [raw] = spdz.beaver_mult_batch(runtime, [(x, y)], [triple], params.p, ledger)
    return trunc(runtime, raw, params.f, params, roles=roles, frame=params.k + params.f).value


def ltz(runtime: Runtime, x: SharedValue, params: FixedPointParams,
        roles: TruncRoles | None = None) -> SharedValue:
    """Shares of 1 if the encoded value is negative, else 0.

    Sign extraction is the negated top part of the offset representation:
    -trunc(x, k-1) with the exact carry correction, so the bit is
    deterministic across the representable range.
    """
    o = trunc(runtime, x, params.k - 1, params, roles=roles, frame=params.k, exact=True)
    return spdz.scale_local(-1, o.value, params.p)
