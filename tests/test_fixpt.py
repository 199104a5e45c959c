import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spdzgen import fixpt
from spdzgen.errors import EncodingRangeError, ParameterError, ProtocolAbort
from spdzgen.fixpt import (
    DEFAULT_FIXPT_PRIME,
    FixedPointParams,
    TruncRoles,
    fp_decode,
    fp_encode,
    fp_mult,
    ltz,
    trunc,
)
from spdzgen.modmath import decode_residues, signed_decode, signed_encode
from spdzgen.net import PartyId, Runtime
from spdzgen.spdz import OPEN_RESULT_TAG, TripleLedger

from helpers import (
    assert_only_received_by,
    open_value,
    record_truncations,
    share_secret,
    triple_stream,
)

PARTIES = tuple(PartyId("MPC", i) for i in (1, 2, 3))

# small parameters for exhaustive runs: k = 8, field just above 2^20
P_SMALL = int(sympy.nextprime(2 ** 20))
SMALL = FixedPointParams(k=8, f=0, kappa=10, p=P_SMALL)
BIG = FixedPointParams()  # k=32, f=16, kappa=40, p = 2^96 + 61


def fresh_rt(seed=0, record=False):
    return Runtime(PARTIES, seed=seed, record=record)


def share_signed(rt, value, params, owner=PARTIES[0]):
    return share_secret(rt, owner, signed_encode(value, params.p), PARTIES, params.p)


def opened_signed(rt, sv, params):
    return signed_decode(open_value(rt, sv, params.p), params.p)


def fraction_encode(x, params):
    # fp_encode's former Fraction formula, kept as the reference
    xbar = (Fraction(x) * 2 ** params.f + Fraction(1, 2)).__floor__()
    if abs(xbar) > params.max_encoded:
        raise EncodingRangeError("out of range")
    return signed_encode(xbar, params.p)


class TestParams:
    def test_default_prime_is_smallest_above_2_96(self):
        assert DEFAULT_FIXPT_PRIME == 2 ** 96 + 61
        assert sympy.isprime(DEFAULT_FIXPT_PRIME)
        assert all(not sympy.isprime(n) for n in range(2 ** 96 + 1, DEFAULT_FIXPT_PRIME, 2))

    def test_invariants(self):
        with pytest.raises(ParameterError):
            FixedPointParams(k=0)
        with pytest.raises(ParameterError):
            FixedPointParams(k=8, f=9)
        with pytest.raises(ParameterError):
            FixedPointParams(k=64, f=16, kappa=40, p=DEFAULT_FIXPT_PRIME)  # p too small
        with pytest.raises(ParameterError):
            FixedPointParams(kappa=-1)  # the wide mask's width would go negative

    def test_e_is_integer_bits(self):
        assert BIG.e == 16
        assert SMALL.e == 8


class TestEncoding:
    def test_half_power_of_two(self):
        assert signed_decode(fp_encode(0.5, BIG), BIG.p) == 32768

    def test_zero(self):
        assert fp_encode(0, BIG) == 0

    def test_negative_fraction(self):
        params = FixedPointParams(k=16, f=4, kappa=20, p=DEFAULT_FIXPT_PRIME)
        enc = fp_encode(Fraction(-5, 4), params)
        assert enc == params.p - 20
        assert fp_decode(enc, params) == Fraction(-5, 4)

    def test_overflow(self):
        with pytest.raises(EncodingRangeError):
            fp_encode(2 ** 15, BIG)  # 2^(e-1) is out of range

    def test_roundtrip_exact_values(self):
        rng = random.Random(0)
        for _ in range(200):
            x = Fraction(rng.randrange(-2 ** 20, 2 ** 20), 2 ** 16)
            assert fp_decode(fp_encode(x, BIG), BIG) == x

    @pytest.mark.parametrize("params", [BIG, SMALL], ids=["big", "small"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_rounding(self, params, data):
        # the integer rounding against the Fraction formula it replaced
        unit = Fraction(1, 2 ** (params.f + 2))
        edge = Fraction(2 * params.max_encoded + 1, 2 ** (params.f + 1))  # rounds out
        x = data.draw(st.one_of(
            st.integers(-2 ** params.k, 2 ** params.k),
            st.floats(-2.0 ** params.e, 2.0 ** params.e, allow_nan=False),
            st.fractions(),
            # exact halves of the last place, negatives included
            st.integers(-2 ** params.k, 2 ** params.k).map(
                lambda n: Fraction(2 * n + 1, 2 ** (params.f + 1))),
            # both ends of the range, a few quarter-places either side
            st.tuples(st.sampled_from([edge, -edge]), st.integers(-3, 3)).map(
                lambda t: t[0] + t[1] * unit),
        ))
        try:
            want = fraction_encode(x, params)
        except EncodingRangeError:
            with pytest.raises(EncodingRangeError):
                fp_encode(x, params)
        else:
            assert fp_encode(x, params) == want


class TestTrunc:
    def test_output_in_floor_window(self):
        rt = fresh_rt()
        for seed in range(30):
            z = share_signed(rt, 100, SMALL)
            out = trunc(rt, z, 4, SMALL)
            got = opened_signed(rt, out.value, SMALL)
            assert got in (6, 7)  # floor(100 / 16) = 6

    def test_zero_input(self):
        rt = fresh_rt()
        for m in range(1, 9):
            z = share_signed(rt, 0, SMALL)
            got = opened_signed(rt, trunc(rt, z, m, SMALL).value, SMALL)
            # z mod 2^m = 0 means the carry can never fire
            assert got == 0

    def test_negative_floor(self):
        rt = fresh_rt(seed=2)
        for _ in range(30):
            z = share_signed(rt, -96, SMALL)
            got = opened_signed(rt, trunc(rt, z, 4, SMALL).value, SMALL)
            assert got in (-6, -5)  # floor(-96 / 16) = -6

    def test_full_shift_m_equals_k(self):
        rt = fresh_rt(seed=3)
        for value, floors in ((100, (0, 1)), (-96, (-1, 0)), (127, (0, 1))):
            for _ in range(10):
                z = share_signed(rt, value, SMALL)
                got = opened_signed(rt, trunc(rt, z, 8, SMALL).value, SMALL)
                assert got in floors
                assert got - (value >> 8) in (0, 1)

    def test_window_excerpt_exhaustive(self):
        rt = fresh_rt(seed=4)
        for z_val in range(-127, 128, 17):
            for m in (1, 3, 8):
                for _ in range(5):
                    z = share_signed(rt, z_val, SMALL)
                    got = opened_signed(rt, trunc(rt, z, m, SMALL).value, SMALL)
                    assert got - (z_val >> m) in (0, 1)

    def test_carry_rate_matches_discarded_fraction(self):
        # Pr[+1] = (z mod 2^m) / 2^m; for z=100, m=4 that is 4/16 = 0.25
        rt = fresh_rt(seed=5)
        z = share_signed(rt, 100, SMALL)
        hits = sum(opened_signed(rt, trunc(rt, z, 4, SMALL).value, SMALL) == 7
                   for _ in range(3000))
        assert abs(hits / 3000 - 0.25) < 0.05

    def test_opened_value_bounds(self):
        rt = fresh_rt(seed=6)
        for z_val in (-127, -1, 0, 100, 127):
            z = share_signed(rt, z_val, SMALL)
            out = trunc(rt, z, 4, SMALL)
            assert out.opened < 2 ** (SMALL.kappa + SMALL.k + 1)
            assert out.opened < SMALL.p
            # c - z' = r'' * 2^m + r' sits in the masking window
            z_offset = 2 ** SMALL.k + z_val
            r = out.opened - z_offset
            assert 0 <= r < 2 ** (SMALL.kappa + SMALL.k - 4) * 2 ** 4 + 2 ** 4

    def test_exact_variant_is_floor(self):
        rt = fresh_rt(seed=7)
        for z_val in range(-127, 128, 7):
            for m in (1, 4, 8):
                z = share_signed(rt, z_val, SMALL)
                got = opened_signed(rt, trunc(rt, z, m, SMALL, exact=True).value, SMALL)
                assert got == z_val >> m

    def test_shift_out_of_range(self):
        rt = fresh_rt()
        z = share_signed(rt, 1, SMALL)
        with pytest.raises(ParameterError):
            trunc(rt, z, 0, SMALL)
        with pytest.raises(ParameterError):
            trunc(rt, z, 9, SMALL)

    def test_frame_needs_field_headroom(self):
        rt = fresh_rt()
        z = share_signed(rt, 1, SMALL)
        with pytest.raises(ParameterError):
            trunc(rt, z, 4, SMALL, frame=80)  # p_small << 2^(10+80+1)

    # a mask owner that is not the lowest party, which add_const adjusts
    CUSTOM = TruncRoles(mask_owner=PARTIES[2], wide_owner=PARTIES[0])

    def test_custom_roles(self):
        rt = fresh_rt(seed=8)
        z = share_signed(rt, 100, SMALL)
        got = opened_signed(rt, trunc(rt, z, 4, SMALL, roles=self.CUSTOM, exact=True).value,
                            SMALL)
        assert got == 6

    def test_custom_roles_ltz_exhaustive_k8(self):
        # the public part -c' lands at the mask owner, not at min(parties)
        rt = fresh_rt(seed=15)
        for value in range(-127, 128):
            z = share_signed(rt, value, SMALL)
            got = open_value(rt, ltz(rt, z, SMALL, roles=self.CUSTOM), SMALL.p)
            assert got == (1 if value < 0 else 0), "sign failed at %d" % value

    @pytest.mark.parametrize("roles", [
        TruncRoles(mask_owner=PARTIES[1], wide_owner=PARTIES[1]),
        TruncRoles(mask_owner=PartyId("MPC", 4), wide_owner=PARTIES[1]),
        TruncRoles(mask_owner=PARTIES[0], wide_owner=PartyId("MPC", 4)),
    ], ids=["one-owner", "mask-owner-outside", "wide-owner-outside"])
    def test_bad_roles_rejected_before_any_draw_or_send(self, roles):
        rt = fresh_rt(seed=16)
        z = share_signed(rt, 100, SMALL)
        sent, states = rt.messages_sent, [rt.rng(pid).getstate() for pid in PARTIES]
        with pytest.raises(ParameterError):
            trunc(rt, z, 4, SMALL, roles=roles)
        assert rt.messages_sent == sent
        assert [rt.rng(pid).getstate() for pid in PARTIES] == states

    def test_opening_past_the_integer_bound_aborts(self):
        # z = 2^(kappa + k + 1) lies outside the frame, so c = z + 2^k + r
        # reaches the bound without wrapping the field
        rt = fresh_rt(seed=17)
        bound = 2 ** (SMALL.kappa + SMALL.k + 1)
        z = share_secret(rt, PARTIES[0], bound, PARTIES, SMALL.p)
        with pytest.raises(ProtocolAbort):
            trunc(rt, z, 4, SMALL)

    def test_one_round_to_the_mask_owner(self, monkeypatch):
        rt = fresh_rt(seed=18, record=True)
        calls = record_truncations(monkeypatch)
        for exact in (False, True):
            z = share_signed(rt, -96, SMALL)
            rounds = rt.rounds
            # through the module, whose `trunc` the recorder wraps
            fixpt.trunc(rt, z, 4, SMALL, roles=self.CUSTOM, exact=exact)
            assert rt.rounds == rounds + 1
        assert_only_received_by(calls, PARTIES[2], PARTIES[:2])


class TestFixedPointMult:
    def test_quarter(self):
        rt = fresh_rt(seed=9)
        triples = triple_stream(BIG.p, PARTIES, random.Random(1))
        x = share_secret(rt, PARTIES[0], fp_encode(0.5, BIG), PARTIES, BIG.p)
        y = share_secret(rt, PARTIES[1], fp_encode(0.5, BIG), PARTIES, BIG.p)
        z = fp_mult(rt, x, y, next(triples), BIG, TripleLedger())
        got = fp_decode(open_value(rt, z, BIG.p), BIG)
        assert abs(got - Fraction(1, 4)) <= Fraction(2, 2 ** 16)

    def test_multiply_by_zero(self):
        rt = fresh_rt(seed=10)
        triples = triple_stream(BIG.p, PARTIES, random.Random(2))
        x = share_secret(rt, PARTIES[0], fp_encode(0.75, BIG), PARTIES, BIG.p)
        y = share_secret(rt, PARTIES[1], fp_encode(0, BIG), PARTIES, BIG.p)
        z = fp_mult(rt, x, y, next(triples), BIG, TripleLedger())
        got = fp_decode(open_value(rt, z, BIG.p), BIG)
        assert got in (0, Fraction(1, 2 ** 16))

    def test_random_pairs_error_bound(self):
        rt = fresh_rt(seed=11)
        rng = random.Random(3)
        triples = triple_stream(BIG.p, PARTIES, rng)
        ledger = TripleLedger()
        for _ in range(100):
            xq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
            yq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
            x = share_secret(rt, PARTIES[0], fp_encode(xq, BIG), PARTIES, BIG.p)
            y = share_secret(rt, PARTIES[1], fp_encode(yq, BIG), PARTIES, BIG.p)
            z = fp_mult(rt, x, y, next(triples), BIG, ledger)
            got = fp_decode(open_value(rt, z, BIG.p), BIG)
            assert abs(got - xq * yq) <= Fraction(1, 2 ** 15)

    def test_only_the_mask_owner_receives_the_truncation(self, monkeypatch):
        rt = fresh_rt(seed=12, record=True)
        triples = triple_stream(BIG.p, PARTIES, random.Random(4))
        calls = record_truncations(monkeypatch)
        x = share_secret(rt, PARTIES[0], fp_encode(0.75, BIG), PARTIES, BIG.p)
        y = share_secret(rt, PARTIES[1], fp_encode(-0.5, BIG), PARTIES, BIG.p)
        fp_mult(rt, x, y, next(triples), BIG, TripleLedger())
        assert_only_received_by(calls, PARTIES[0], PARTIES[1:])

    def test_wide_owner_cannot_recover_products(self):
        # MPC_2 knows its own wide mask r'' (replayed from its generator) and
        # tries every opened residue it receives as c = 2^f*r'' + r' + z' with
        # r' < 2^f: when it gets c, (c - 2^f*r'' - 2^w) / 2^(2f) is x*y to
        # within 2^-f.  Only the Beaver differences may reach it.
        rt = fresh_rt(seed=19, record=True)
        rng = random.Random(5)
        triples = triple_stream(BIG.p, PARTIES, rng)
        wide, m, w = PARTIES[1], BIG.f, BIG.k + BIG.f
        width = (BIG.p.bit_length() + 7) // 8
        recovered = 0
        for _ in range(50):
            xq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
            yq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
            x = share_secret(rt, PARTIES[0], fp_encode(xq, BIG), PARTIES, BIG.p)
            y = share_secret(rt, PARTIES[2], fp_encode(yq, BIG), PARTIES, BIG.p)
            own = random.Random()
            own.setstate(rt.rng(wide).getstate())
            start = len(rt.transcript)
            fp_mult(rt, x, y, next(triples), BIG, TripleLedger())
            r2 = own.randrange(2 ** (BIG.kappa + w - m))
            opened = [r[4] for r in rt.transcript[start:] if r[0] == "msg"
                      and r[2] == wide and r[3].startswith(OPEN_RESULT_TAG)]
            guesses = [Fraction(v - (r2 << m) - 2 ** w, 2 ** (2 * BIG.f)) for payload in opened
                       for v in decode_residues(payload, len(payload) // width, BIG.p)]
            recovered += any(abs(g - xq * yq) <= Fraction(1, 2 ** 15) for g in guesses)
        assert recovered == 0


class TestLtz:
    @pytest.mark.parametrize("value,bit", [(-5, 1), (0, 0), (5, 0)])
    def test_sign_examples(self, value, bit):
        rt = fresh_rt(seed=13)
        z = share_signed(rt, value, SMALL)
        got = open_value(rt, ltz(rt, z, SMALL), SMALL.p)
        assert got == bit

    def test_exhaustive_k8_against_sign_oracle(self):
        rt = fresh_rt(seed=14)
        for value in range(-127, 128):
            z = share_signed(rt, value, SMALL)
            got = open_value(rt, ltz(rt, z, SMALL), SMALL.p)
            assert got == (1 if value < 0 else 0), "sign failed at %d" % value
