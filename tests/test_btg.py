import hashlib
import random

import pytest

from spdzgen import btg, modmath
from spdzgen.btg import BTG_TAG, SESSION_ID_BYTES, BtgMessage, BtgRole
from spdzgen.errors import MessageSpaceError, ParameterError, ProtocolAbort
from spdzgen.modmath import TINY_GROUP, Ciphertext
from spdzgen.net import PartyId, Runtime

from helpers import tamper_sends, transcript_view

PIDS = {BtgRole.A: PartyId("BTG_A"), BtgRole.B: PartyId("BTG_B"), BtgRole.C: PartyId("BTG_C")}


def make_keys(params, rng):
    """One key pair per role: sessions of one-triple chunks."""
    return {role: [btg.keygen(params, rng)] for role in BtgRole}


def run_tiny(seed=0, forced=None, count=1):
    """One session in the tiny group; returns the runtime and the secrets."""
    rt = Runtime(list(PIDS.values()), seed=seed)
    keys = make_keys(TINY_GROUP, random.Random(seed))
    [out] = rt.run(btg.triple_session(rt, TINY_GROUP, keys, PIDS, forced=forced, count=count))
    return rt, out


def hops(rt, params):
    """The three BTG messages of a one-triple session, parsed, in send order."""
    return [BtgMessage.parse(r.payload, params) for r in rt.transcript if r.tag == BTG_TAG]


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
    def test_hops_are_under_the_layered_keys(self, group256):
        rt = Runtime(list(PIDS.values()), seed=5)
        keys = make_keys(group256, random.Random(5))
        [out] = rt.run(btg.triple_session(rt, group256, keys, PIDS))
        [a], [b], [c] = (out[r] for r in BtgRole)
        x_ac = (keys[BtgRole.A][0].x + keys[BtgRole.C][0].x) % group256.q
        m1, m2, m3 = hops(rt, group256)
        assert [m.step for m in (m1, m2, m3)] == [1, 2, 3]
        assert modmath.strip_layer(m1.chunks[0], [x_ac], group256) == [a]
        assert modmath.strip_layer(m2.chunks[0], [x_ac], group256) == [a * b % group256.p]
        assert modmath.strip_layer(m3.chunks[0], [keys[BtgRole.C][0].x], group256) == [c]

    def test_emitted_components_are_subgroup_members(self, tiny):
        for seed in range(20):
            rt, _ = run_tiny(seed)
            for msg in hops(rt, tiny):
                [ct] = msg.chunks
                assert all(modmath.is_subgroup_member(y, tiny) for y in (ct.u, *ct.vs))

    def test_identity_triple(self, tiny):
        _, out = run_tiny(forced={BtgRole.A: [1], BtgRole.B: [1]})
        assert out[BtgRole.C] == [1]

    def test_500_random_sessions_tiny(self, tiny):
        rng = random.Random(99)
        rt = Runtime(list(PIDS.values()), seed=99, record=False)
        for _ in range(500):
            [out] = rt.run(btg.triple_session(rt, tiny, make_keys(tiny, rng), PIDS))
            [a], [b], [c] = (out[r] for r in BtgRole)
            assert c == a * b % tiny.p


def flip_session_id(payload):
    return bytes([payload[0] ^ 1]) + payload[1:]


def next_step(payload):
    """The step byte rewritten to another valid step: 1 -> 2 -> 3 -> 1."""
    step = payload[SESSION_ID_BYTES]
    return payload[:SESSION_ID_BYTES] + bytes([step % 3 + 1]) + payload[SESSION_ID_BYTES + 1:]


class TestStateMachine:
    """The session's order, enforced by the receiver of each hop."""

    def test_out_of_order_message(self, monkeypatch):
        tamper_sends(monkeypatch, BTG_TAG, next_step)
        with pytest.raises(ProtocolAbort, match="expected a step-1 message, got step 2"):
            run_tiny()

    def test_foreign_session_id(self, monkeypatch):
        tamper_sends(monkeypatch, BTG_TAG, flip_session_id)
        with pytest.raises(ProtocolAbort, match="delivered to"):
            run_tiny()


class TestPinnedSecrets:
    """Drawn secrets are squares; pinned ones are checked once, at session entry."""

    # 5 and 7 are not squares mod 23
    @pytest.mark.parametrize("forced", [
        {BtgRole.A: [5]},
        {BtgRole.B: [7]},
        {BtgRole.A: [2, 3, 4], BtgRole.B: [3, 1, 5]},
    ], ids=["A", "B", "last-of-three"])
    def test_non_member_rejected_before_any_message(self, forced):
        rt = Runtime(list(PIDS.values()), seed=0)
        keys = make_keys(TINY_GROUP, random.Random(0))
        with pytest.raises(MessageSpaceError):
            rt.run(btg.triple_session(rt, TINY_GROUP, keys, PIDS, forced=forced,
                                      count=len(next(iter(forced.values())))))
        assert rt.messages_sent == 0
        assert rt.transcript == []


class TestSerialization:
    def test_wire_roundtrip(self, group256):
        msg = BtgMessage(b"\xab" * 16, 2, (Ciphertext(123456, (789,)),))
        raw = msg.serialize(group256)
        assert len(raw) == 16 + 1 + 2 * group256.element_size
        back = BtgMessage.parse(raw, group256)
        assert back == msg

    def test_truncated_and_overlong_payloads(self, group256):
        raw = BtgMessage(b"\xab" * 16, 2, (Ciphertext(123456, (789,)),)).serialize(group256)
        for bad in (b"", raw[:16], raw[:17], raw[:-1], raw + b"\x00"):
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(bad, group256)

    @pytest.mark.parametrize("step", [0, 4, 255])
    def test_bad_step(self, group256, step):
        raw = bytearray(BtgMessage(b"\xab" * 16, 1, (Ciphertext(5, (7,)),)).serialize(group256))
        raw[16] = step
        with pytest.raises(ProtocolAbort):
            BtgMessage.parse(bytes(raw), group256)

    def test_elements_outside_open_range(self, group256):
        p, top = group256.p, (1 << (8 * group256.element_size)) - 1
        for u, v in ((0, 7), (7, 0), (p, 7), (7, p), (top, 7), (7, top)):
            raw = BtgMessage(b"\xab" * 16, 3, (Ciphertext(u, (v,)),)).serialize(group256)
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(raw, group256)
        edge = BtgMessage(b"\xab" * 16, 3, (Ciphertext(1, (p - 1,)),))
        assert BtgMessage.parse(edge.serialize(group256), group256) == edge


class TestRuntimeDriver:
    def test_forced_trace_over_runtime(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=0)
        keys = make_keys(tiny, random.Random(0))
        [out] = rt.run(btg.triple_session(rt, tiny, keys, PIDS,
                                          forced={BtgRole.A: [2], BtgRole.B: [3]}))
        assert out[BtgRole.C] == [6]

    def test_random_sessions_over_runtime_256(self, group256):
        rt = Runtime(list(PIDS.values()), seed=7)
        keys = make_keys(group256, random.Random(7))
        for _ in range(20):
            [out] = rt.run(btg.triple_session(rt, group256, keys, PIDS))
            [a], [b], [c] = (out[r] for r in BtgRole)
            assert c == a * b % group256.p

    def test_b_view_one_in_one_out(self, group256):
        rt = Runtime(list(PIDS.values()), seed=3)
        keys = make_keys(group256, random.Random(3))
        rt.run(btg.triple_session(rt, group256, keys, PIDS))
        view = transcript_view(rt, PIDS[BtgRole.B])
        inbound = [r for r in view if r.dst == PIDS[BtgRole.B]]
        outbound = [r for r in view if r.src == PIDS[BtgRole.B]]
        assert len(inbound) == 1 and len(outbound) == 1

    def test_rerandomization_varies_step3(self, group256):
        # fixed secrets, fresh nonces: the step-3 ciphertext must vary
        third = set()
        for seed in range(10):
            rt = Runtime(list(PIDS.values()), seed=seed)
            keys = make_keys(group256, random.Random(5))
            rt.run(btg.triple_session(rt, group256, keys, PIDS,
                                      forced={BtgRole.A: [4], BtgRole.B: [9]}))
            msgs = [r for r in rt.transcript if r.tag == BTG_TAG]
            m3 = BtgMessage.parse(msgs[2].payload, group256)
            third.add(m3.chunks)
        assert len(third) >= 2

    def test_privacy_no_secret_in_any_payload(self, group256):
        # transcript scan: a, b, c never appear as cleartext field elements
        rt = Runtime(list(PIDS.values()), seed=11)
        keys = make_keys(group256, random.Random(11))
        for _ in range(30):
            [out] = rt.run(btg.triple_session(rt, group256, keys, PIDS))
            secrets = {s for r in BtgRole for s in out[r]}
            for rec in rt.transcript:
                if rec.tag != BTG_TAG:
                    continue
                parsed = BtgMessage.parse(rec.payload, group256)
                for ct in parsed.chunks:
                    assert ct.u not in secrets
                    assert not secrets.intersection(ct.vs)


class TestBatchedSession:
    def test_three_triples_roundtrip(self, group256):
        rt = Runtime(list(PIDS.values()), seed=13)
        keys = make_keys(group256, random.Random(13))
        [out] = rt.run(btg.triple_session(rt, group256, keys, PIDS, count=3))
        a, b, c = (out[r] for r in BtgRole)
        assert len(a) == len(b) == len(c) == 3
        for ak, bk, ck in zip(a, b, c):
            assert ck == ak * bk % group256.p
        msgs = rt.transcript
        assert [r.tag for r in msgs] == [BTG_TAG] * 3
        for rec in msgs:
            parsed = BtgMessage.parse(rec.payload, group256, count=3)
            assert len(parsed.chunks) == 3
            assert parsed.serialize(group256) == rec.payload

    def test_forced_secrets_per_triple(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=2)
        keys = make_keys(tiny, random.Random(2))
        [out] = rt.run(btg.triple_session(rt, tiny, keys, PIDS, count=3,
                                          forced={BtgRole.A: [2, 3, 4], BtgRole.B: [3, 1, 9]}))
        assert out[BtgRole.C] == [6, 3, 36 % 23]

    def _raw(self, group256, pairs):
        return BtgMessage(b"\xab" * 16, 1, tuple(Ciphertext(u, (v,)) for u, v in pairs)) \
            .serialize(group256)

    def test_pair_count_must_match_session(self, group256):
        pairs = [(5, 7), (11, 13), (17, 19)]
        assert len(BtgMessage.parse(self._raw(group256, pairs), group256, 3).chunks) == 3
        for bad in (pairs[:2], pairs + [(23, 29)]):
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(self._raw(group256, bad), group256, 3)

    def test_zero_in_last_pair(self, group256):
        for last in ((0, 7), (7, 0)):
            raw = self._raw(group256, [(5, 7), (11, 13), last])
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(raw, group256, 3)

    def test_element_outside_field_in_last_pair(self, group256):
        p = group256.p
        for last in ((p, 7), (7, p), (p + 1, 7)):
            raw = self._raw(group256, [(5, 7), (11, 13), last])
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(raw, group256, 3)

    def test_session_rejects_wrong_ciphertext_count(self, tiny, monkeypatch):
        w = tiny.element_size
        tamper_sends(monkeypatch, BTG_TAG, lambda payload: payload[:-2 * w])  # one pair short
        with pytest.raises(ProtocolAbort):
            run_tiny(count=2)

    def test_pinned_secrets_must_match_count(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=3)
        keys = make_keys(tiny, random.Random(3))
        with pytest.raises(ParameterError):
            rt.run(btg.triple_session(rt, tiny, keys, PIDS, count=2, forced={BtgRole.A: [2]}))
        with pytest.raises(ParameterError):
            rt.run(btg.triple_session(rt, tiny, keys, PIDS, count=0))


def chunk_keys(params, rng, width=btg.CHUNK):
    """`width` key pairs for each of roles A and C: one per chunk slot."""
    return {role: [btg.keygen(params, rng) for _ in range(width)]
            for role in (BtgRole.A, BtgRole.C)}


class TestSharedRandomness:
    """A session in chunks of up to CHUNK triples: one u per chunk per hop,
    under per-slot keys."""

    # sha256 of each session's transcript, pinned over one list of CHUNK key
    # pairs per role: K = 65 and 129 end in a chunk of one triple
    GOLDEN = {
        1: "7c9f27358d1adcd8c35ae31607201c2c537fa87c41c01fc8e51cbd77c19b39a1",
        63: "5fefbdc233aea9c0c6f3a445fe0017b877d4fe780c0ba87379ce5ed5dc963ffb",
        64: "d6b475c9ad410c24cb1dc0a9e41639edd6090d41a1d131fdb15a11f55593f4e2",
        65: "cc8cb5aa7d872044f07b6804b796528a38a6469c8e3445360793f6e9b94d6b02",
        129: "147aeb191a3a3cd806c4771ad0bf7068083baed99b53e2d55ac58a75fbbc58cf",
    }

    @pytest.fixture(scope="class")
    def keys(self, group256):
        return chunk_keys(group256, random.Random(64))

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    def test_products_and_costs(self, group256, keys, count):
        rt = Runtime(list(PIDS.values()), seed=count)
        modmath.reset_modexp_count()
        [out] = rt.run(btg.triple_session(rt, group256, keys, PIDS, count=count))
        a, b, c = (out[r] for r in BtgRole)
        assert len(c) == count
        assert all(ck == ak * bk % group256.p for ak, bk, ck in zip(a, b, c))
        # 5 exponentiations per triple and one g^r per chunk per hop; each hop
        # ships one u per chunk and one v per triple
        width = min(count, btg.CHUNK)
        chunks = -(-count // width)
        assert modmath.modexp_count() == 5 * count + 3 * chunks
        assert hashlib.sha256(rt.transcript_bytes()).hexdigest() == self.GOLDEN[count]
        hops = [r.payload for r in rt.transcript]
        assert [len(raw) for raw in hops] == [17 + group256.element_size * (count + chunks)] * 3
        for raw in hops:
            msg = BtgMessage.parse(raw, group256, count, width)
            assert len(msg.chunks) == chunks
            assert sum(len(ct.vs) for ct in msg.chunks) == count
            assert msg.serialize(group256) == raw

    def test_one_key_pair_per_role_is_one_triple_per_chunk(self, group256):
        # a list of one key pair gives every triple its own u: the hops of a
        # session made before randomness was shared
        rt = Runtime(list(PIDS.values()), seed=2)
        keys = make_keys(group256, random.Random(2))
        modmath.reset_modexp_count()
        rt.run(btg.triple_session(rt, group256, keys, PIDS, count=5))
        assert modmath.modexp_count() == 8 * 5
        hops = [r.payload for r in rt.transcript]
        assert [len(raw) for raw in hops] == [17 + 2 * group256.element_size * 5] * 3

    def test_key_lists_must_be_as_long(self, tiny):
        rt = Runtime(list(PIDS.values()), seed=0)
        keys = chunk_keys(tiny, random.Random(0), width=3)
        for role in (BtgRole.A, BtgRole.C):
            bad = dict(keys)
            bad[role] = keys[role][:2]
            with pytest.raises(ParameterError, match="key pairs"):
                rt.run(btg.triple_session(rt, tiny, bad, PIDS, count=3))
        assert rt.messages_sent == 0

    def test_one_h_a_for_every_slot_leaks_ratios_to_c(self, group256):
        # Why each slot needs its own key for A as well as for C.  With one
        # h_A in every slot, an eavesdropping C strips its own layer off two
        # slots of hop 1 and divides: the h_A^r factors cancel, leaving
        # a_i/a_j.  Hop 2 gives (a_i*b_i)/(a_j*b_j) the same way, so C reads
        # b_i/b_j too.  With per-slot keys the same division gives neither.
        p, width = group256.p, 4
        rng = random.Random(17)
        keys_c = [btg.keygen(group256, rng) for _ in range(width)]
        shared_a = [btg.keygen(group256, rng)] * width
        own_a = [btg.keygen(group256, rng) for _ in range(width)]

        def ratio(xs):
            return xs[0] * pow(xs[1], -1, p) % p

        def c_reads(keys_a):
            rt = Runtime(list(PIDS.values()), seed=17)
            [out] = rt.run(btg.triple_session(rt, group256, {BtgRole.A: keys_a,
                                                             BtgRole.C: keys_c},
                                              PIDS, count=width))
            hops = [BtgMessage.parse(r.payload, group256, width, width).chunks[0]
                    for r in rt.transcript if r.dst != PIDS[BtgRole.C]]
            stripped = [modmath.strip_layer(ct, [key.x for key in keys_c], group256)
                        for ct in hops]
            a, b = out[BtgRole.A], out[BtgRole.B]
            seen_a = ratio(stripped[0]) == ratio(a)
            seen_b = ratio(stripped[1]) * pow(ratio(stripped[0]), -1, p) % p == ratio(b)
            return seen_a, seen_b

        assert c_reads(shared_a) == (True, True)
        assert c_reads(own_a) == (False, False)


class TestChunkedSerialization:
    """A hop of K = 5 triples in chunks of 3: u v v v | u v v."""

    def _msg(self, pairs_by_chunk):
        return BtgMessage(b"\xab" * 16, 2, tuple(Ciphertext(u, tuple(vs))
                                                 for u, vs in pairs_by_chunk))

    def test_layout_and_roundtrip(self, group256):
        msg = self._msg([(5, [7, 11, 13]), (17, [19, 23])])
        raw = msg.serialize(group256)
        w = group256.element_size
        assert raw[17:] == modmath.encode_residues([5, 7, 11, 13, 17, 19, 23], group256.p)
        assert len(raw) == 17 + 7 * w
        assert BtgMessage.parse(raw, group256, 5, 3) == msg

    def test_malformed_chunks_rejected(self, group256):
        w = group256.element_size
        raw = self._msg([(5, [7, 11, 13]), (17, [19, 23])]).serialize(group256)
        one_u_short = raw[:17] + raw[17 + w:]  # the first chunk's u dropped
        one_v_long = raw + (29).to_bytes(w, "big")
        zero_u = raw[:17 + 4 * w] + bytes(w) + raw[17 + 5 * w:]  # the second chunk's u
        for bad in (one_u_short, one_v_long, zero_u):
            with pytest.raises(ProtocolAbort):
                BtgMessage.parse(bad, group256, 5, 3)
        # the same bytes read as one-triple chunks are the wrong length
        with pytest.raises(ProtocolAbort):
            BtgMessage.parse(raw, group256, 5, 1)

    def test_session_rejects_a_hop_one_u_short(self, tiny, monkeypatch):
        w = tiny.element_size
        tamper_sends(monkeypatch, BTG_TAG, lambda payload: payload[:17] + payload[17 + w:])
        rt = Runtime(list(PIDS.values()), seed=0)
        with pytest.raises(ProtocolAbort, match="bytes, expected"):
            rt.run(btg.triple_session(rt, tiny, chunk_keys(tiny, random.Random(0), 2), PIDS,
                                      count=3))
