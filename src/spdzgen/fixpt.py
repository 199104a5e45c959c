"""Fixed-point Q<k,f> arithmetic on additive shares.

Rationals are scaled by 2^f, rounded to a signed k-bit integer and embedded
in the prime field.  Division by 2^m on shares uses a mask-and-open protocol
that needs no shared random bits:

  1. offset the input to a nonnegative integer: z' = 2^w + z  (w = working
     bit frame, >= k);
  2. the mask owner picks r' < 2^m, the wide-mask owner picks
     r'' < 2^(kappa + w - m); shares of r''*2^m + r' are formed locally;
  3. the opener reconstructs c = r + z' (an integer, no field wraparound
     because p > 2^(kappa + w + 1)) and broadcasts it;
  4. with c' = c mod 2^m, the output is 2^(-m) * ([z] + [r'] - c'), which
     equals floor(z / 2^m) + u for a carry bit u in {0, 1}.

The carry makes plain `trunc` probabilistic, matching the protocol as
specified: Pr[u = 1] = (z mod 2^m) / 2^m.  For comparisons that must never
be off by one, `trunc(exact=True)` has the mask owner, who knows r', derive
u = [c' < r'] from the public opening and contribute it as a correction
share.  That variant is exact everywhere.  Both mask owners are servers that
see c, so neither mask hides z from its owner: the mask owner learns z mod 2^m
and the wide-mask owner r' + z (measured in ROADMAP open item 1).

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
    """Who masks, who wide-masks, who opens (default MPC_1/MPC_2/MPC_3)."""

    mask_owner: PartyId
    wide_owner: PartyId
    opener: PartyId

    @classmethod
    def default_for(cls, parties) -> "TruncRoles":
        ordered = sorted(parties)
        if len(ordered) < 2:
            raise ParameterError("truncation needs at least two parties")
        return cls(mask_owner=ordered[0], wide_owner=ordered[1],
                   opener=ordered[2] if len(ordered) > 2 else ordered[-1])


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
    opened: int  # the public masked opening c = r + z'


def trunc(runtime: Runtime, z: SharedValue, m: int, params: FixedPointParams,
          roles: TruncRoles | None = None, frame: int | None = None,
          exact: bool = False) -> TruncOutcome:
    """Divide a shared signed integer by 2^m (floor, plus a carry unless exact).

    The mask owner and the wide-mask owner deal their masks r1 and r2 in one
    round, so a plain `trunc` takes three rounds (masks, the opening's two)
    and an exact one a fourth for the carry share.  `frame` widens the
    assumed bit bound of the input beyond params.k, needed after
    multiplications whose raw result carries 2f fraction bits.  The field
    must satisfy p > 2^(kappa + frame + 1) at the chosen frame.
    """
    p = params.p
    w = params.k if frame is None else frame
    if not 0 < m <= w:
        raise ParameterError("shift m=%d outside (0, %d]" % (m, w))
    if p <= 2 ** (params.kappa + w + 1):
        raise ParameterError("field too small for frame %d at kappa %d" % (w, params.kappa))
    if roles is None:
        roles = TruncRoles.default_for(z.parties)

    offset = 2 ** w
    z1 = spdz.add_const(z, offset, p)
    r1 = runtime.rng(roles.mask_owner).randrange(2 ** m)
    r2 = runtime.rng(roles.wide_owner).randrange(2 ** (params.kappa + w - m))
    [r1_sh], [r2_sh] = spdz.share_batches(
        runtime, z.parties, [(roles.mask_owner, [r1]), (roles.wide_owner, [r2])], p)

    masked = spdz.add_local(spdz.add_local(spdz.scale_local(2 ** m, r2_sh, p), r1_sh, p), z1, p)
    c = spdz.open_value(runtime, masked, p, collector=roles.opener)
    if c >= 2 ** (params.kappa + w + 1):
        raise ProtocolAbort("masked opening exceeded its integer bound (wraparound)")
    c1 = c % 2 ** m

    body = spdz.add_const(spdz.add_local(z, r1_sh, p), -c1, p)
    out = spdz.scale_local(inverse(2 ** m, p), body, p)
    if exact:
        u = 1 if c1 < r1 else 0
        u_sh = spdz.share_secret(runtime, roles.mask_owner, u, z.parties, p)
        out = spdz.sub_local(out, u_sh, p)
    return TruncOutcome(value=out, opened=c)


def fp_mult(runtime: Runtime, x: SharedValue, y: SharedValue, triple,
            params: FixedPointParams, ledger: TripleLedger,
            roles: TruncRoles | None = None) -> SharedValue:
    """Fixed-point product: Beaver multiply, then shift the extra f bits off.

    The decoded result is within 2^(1-f) of the true product; an overflowing
    product (outside Q<k,f>) is not detected.
    """
    raw = spdz.beaver_mult(runtime, x, y, triple, params.p, ledger)
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
