import random

import pytest

from spdzgen import btg, modmath
from spdzgen.btg import BTG_DONE_TAG, BTG_TAG, BtgMessage, BtgRole
from spdzgen.errors import ProtocolAbort, ProtocolStateError
from spdzgen.modmath import Ciphertext, KeyPair
from spdzgen.net import PartyId, Runtime

PIDS = {BtgRole.A: PartyId("BTG_A"), BtgRole.B: PartyId("BTG_B"), BtgRole.C: PartyId("BTG_C")}


def make_keys(params, rng):
    return {role: btg.keygen(params, rng) for role in BtgRole}


def tiny_trio(tiny, x_a=1, x_c=2, seed=0):
    # h_A = 4, h_C = 16, h_AC = 64 mod 23 = 18
    keys = {BtgRole.A: KeyPair(x_a, pow(tiny.g, x_a, tiny.p)),
            BtgRole.B: None,
            BtgRole.C: KeyPair(x_c, pow(tiny.g, x_c, tiny.p))}
    rngs = {role: random.Random("%s-%s" % (seed, role.value)) for role in BtgRole}
    return btg.new_session_trio(tiny, keys, rngs, session_id=bytes(16)), keys


class TestKeygen:
    def test_reproducible_under_seeded_rng(self, tiny):
        k1 = btg.keygen(tiny, random.Random(4))
        k2 = btg.keygen(tiny, random.Random(4))
        assert k1 == k2

    def test_public_key_is_subgroup_member(self, group256):
        rng = random.Random(1)
        for _ in range(20):
            kp = btg.keygen(group256, rng)
            assert modmath.is_subgroup_member(kp.h, group256)
            assert 1 <= kp.x < group256.q

    def test_distinct_seeds_distinct_secrets(self, group256):
        xs = {btg.keygen(group256, random.Random(i)).x for i in range(1000)}
        assert len(xs) == 1000


class TestProtocolTrace:
    def test_step_a1_trace(self, tiny):
        sessions, _ = tiny_trio(tiny)
        msg = sessions[BtgRole.A].step_a1(secret=2, nonce=2)
        assert msg.step == 1
        assert (msg.payload.u, msg.payload.v) == (16, 4)
        assert sessions[BtgRole.A].secret_output == 2

    def test_emitted_components_are_subgroup_members(self, tiny):
        for seed in range(20):
            sessions, _ = tiny_trio(tiny, seed=seed)
            msg = sessions[BtgRole.A].step_a1()
            assert modmath.is_subgroup_member(msg.payload.u, tiny) or msg.payload.u == 1
            assert modmath.is_subgroup_member(msg.payload.v, tiny)

    def test_step_b_trace(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1(secret=2, nonce=2)
        m2 = sessions[BtgRole.B].step_b(m1, secret=3, nonce=1)
        assert m2.step == 2
        assert m2.payload.u == 18  # 16 * 4 = 64 mod 23
        assert m2.payload.v == 9   # 4 * 3 * 18 mod 23
        assert sessions[BtgRole.B].state == "done"

    def test_step_a2_strip_then_zero_rerandomize(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1(secret=2, nonce=2)
        m2 = sessions[BtgRole.B].step_b(m1, secret=3, nonce=1)
        m3 = sessions[BtgRole.A].step_a2(m2, nonce=0)
        # with r'_B = 0 this equals the plain strip: a*b*h_C^(r_A+r_B)
        assert (m3.payload.u, m3.payload.v) == (18, 12)

    def test_finish_c_recovers_product(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1(secret=2, nonce=2)
        m2 = sessions[BtgRole.B].step_b(m1, secret=3, nonce=1)
        m3 = sessions[BtgRole.A].step_a2(m2)
        c = sessions[BtgRole.C].finish_c(m3)
        assert c == 6
        assert sessions[BtgRole.C].secret_output == 6

    def test_identity_triple(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1(secret=1)
        m2 = sessions[BtgRole.B].step_b(m1, secret=1)
        m3 = sessions[BtgRole.A].step_a2(m2)
        assert sessions[BtgRole.C].finish_c(m3) == 1

    def test_500_random_sessions_tiny(self, tiny):
        rng = random.Random(99)
        for i in range(500):
            keys = make_keys(tiny, rng)
            rngs = {role: random.Random("%s-%s" % (i, role.value)) for role in BtgRole}
            sessions = btg.new_session_trio(tiny, keys, rngs, session_id=bytes(16))
            m1 = sessions[BtgRole.A].step_a1()
            m2 = sessions[BtgRole.B].step_b(m1)
            m3 = sessions[BtgRole.A].step_a2(m2)
            c = sessions[BtgRole.C].finish_c(m3)
            a = sessions[BtgRole.A].secret_output
            b = sessions[BtgRole.B].secret_output
            assert c == a * b % tiny.p


class TestStateMachine:
    def test_step_a1_twice(self, tiny):
        sessions, _ = tiny_trio(tiny)
        sessions[BtgRole.A].step_a1()
        with pytest.raises(ProtocolStateError):
            sessions[BtgRole.A].step_a1()

    def test_wrong_role(self, tiny):
        sessions, _ = tiny_trio(tiny)
        with pytest.raises(ProtocolStateError):
            sessions[BtgRole.B].step_a1()

    def test_out_of_order_message(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1()
        with pytest.raises(ProtocolStateError):
            sessions[BtgRole.A].step_a2(m1)  # expects a step-2 message
        with pytest.raises(ProtocolStateError):
            sessions[BtgRole.C].finish_c(m1)

    def test_foreign_session_id(self, tiny):
        sessions, _ = tiny_trio(tiny)
        m1 = sessions[BtgRole.A].step_a1()
        alien = BtgMessage(b"\x01" * 16, 1, m1.payload)
        with pytest.raises(ProtocolStateError):
            sessions[BtgRole.B].step_b(alien)


class TestSerialization:
    def test_wire_roundtrip(self, group256):
        msg = BtgMessage(b"\xab" * 16, 2, Ciphertext(123456, 789))
        raw = msg.serialize(group256)
        assert len(raw) == 16 + 1 + 2 * group256.element_size
        back = BtgMessage.parse(raw, group256)
        assert back == msg

    def test_truncated_and_overlong_payloads(self, group256):
        raw = BtgMessage(b"\xab" * 16, 2, Ciphertext(123456, 789)).serialize(group256)
        for bad in (b"", raw[:16], raw[:17], raw[:-1], raw + b"\x00"):
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(bad, group256)

    @pytest.mark.parametrize("step", [0, 4, 255])
    def test_bad_step(self, group256, step):
        raw = bytearray(BtgMessage(b"\xab" * 16, 1, Ciphertext(5, 7)).serialize(group256))
        raw[16] = step
        with pytest.raises(ProtocolAbort):
            BtgMessage.parse(bytes(raw), group256)

    def test_elements_outside_open_range(self, group256):
        p, top = group256.p, (1 << (8 * group256.element_size)) - 1
        for u, v in ((0, 7), (7, 0), (p, 7), (7, p), (top, 7), (7, top)):
            raw = BtgMessage(b"\xab" * 16, 3, Ciphertext(u, v)).serialize(group256)
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(raw, group256)
        edge = BtgMessage(b"\xab" * 16, 3, Ciphertext(1, p - 1))
        assert BtgMessage.parse(edge.serialize(group256), group256) == edge


class TestRuntimeDriver:
    def test_forced_trace_over_runtime(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=0)
        keys = make_keys(tiny, random.Random(0))
        out = btg.run_triple_session(rt, tiny, keys, PIDS,
                                     forced={BtgRole.A: 2, BtgRole.B: 3})
        assert out.secret(BtgRole.C) == 6

    def test_random_sessions_over_runtime_256(self, group256):
        rt = Runtime(list(PIDS.values()), seed=7)
        keys = make_keys(group256, random.Random(7))
        for _ in range(20):
            out = btg.run_triple_session(rt, group256, keys, PIDS)
            a, b, c = (out.secret(r) for r in BtgRole)
            assert c == a * b % group256.p

    def test_done_ack_in_transcript(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=1)
        keys = make_keys(tiny, random.Random(1))
        btg.run_triple_session(rt, tiny, keys, PIDS)
        done = [r for r in rt.transcript if r[0] == "msg" and r[3] == BTG_DONE_TAG]
        assert len(done) == 1
        assert (done[0][1], done[0][2]) == (PIDS[BtgRole.C], PIDS[BtgRole.A])

    def test_b_view_one_in_one_out(self, group256):
        rt = Runtime(list(PIDS.values()), seed=3)
        keys = make_keys(group256, random.Random(3))
        btg.run_triple_session(rt, group256, keys, PIDS)
        view = rt.transcript_view(PIDS[BtgRole.B])
        inbound = [r for r in view if r[0] == "msg" and r[2] == PIDS[BtgRole.B]]
        outbound = [r for r in view if r[0] == "msg" and r[1] == PIDS[BtgRole.B]]
        assert len(inbound) == 1 and len(outbound) == 1

    def test_rerandomization_varies_step3(self, group256):
        # fixed secrets, fresh nonces: the step-3 ciphertext must vary
        third = set()
        for seed in range(10):
            rt = Runtime(list(PIDS.values()), seed=seed)
            keys = make_keys(group256, random.Random(5))
            btg.run_triple_session(rt, group256, keys, PIDS,
                                   forced={BtgRole.A: 4, BtgRole.B: 9})
            msgs = [r for r in rt.transcript if r[0] == "msg" and r[3] == BTG_TAG]
            m3 = BtgMessage.parse(msgs[2][4], group256)
            third.add((m3.payload.u, m3.payload.v))
        assert len(third) >= 2

    def test_privacy_no_secret_in_any_payload(self, group256):
        # transcript scan: a, b, c never appear as cleartext field elements
        rt = Runtime(list(PIDS.values()), seed=11)
        keys = make_keys(group256, random.Random(11))
        for _ in range(30):
            out = btg.run_triple_session(rt, group256, keys, PIDS)
            secrets = {out.secret(r) for r in BtgRole}
            for rec in rt.transcript:
                if rec[0] != "msg" or rec[3] != BTG_TAG:
                    continue
                parsed = BtgMessage.parse(rec[4], group256)
                assert parsed.payload.u not in secrets
                assert parsed.payload.v not in secrets
