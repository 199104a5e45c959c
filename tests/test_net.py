import pytest

from spdzgen import btg, mhkm
from spdzgen.btg import BtgRole
from spdzgen.errors import MpcError, NetworkError
from spdzgen.gwas import build_parties
from spdzgen.net import Message, PartyId, Runtime, lockstep
from spdzgen.spdz import deal

from helpers import transcript_view

A = PartyId("MPC", 1)
B = PartyId("MPC", 2)
C = PartyId("MPC", 3)


def test_duplicate_parties_rejected():
    with pytest.raises(NetworkError):
        Runtime([A, A, B])


def test_empty_party_list_rejected():
    with pytest.raises(NetworkError):
        Runtime([])


def test_single_message_roundtrip_preserves_bytes():
    rt = Runtime([A, B])
    rt.send(A, B, "ping", b"\x00\xffpayload")
    rt.pump()
    msg = rt.take(B, "ping")
    assert msg.payload == b"\x00\xffpayload"
    assert msg.src == A and msg.dst == B


def test_fifo_per_channel():
    rt = Runtime([A, B])
    rt.send(A, B, "t", b"first")
    rt.send(A, B, "t", b"second")
    rt.pump()
    assert rt.take(B, "t").payload == b"first"
    assert rt.take(B, "t").payload == b"second"


def test_party_id_semantics():
    # identities key every share dict: hashing and equality are the tuple's,
    # ordering is by (role, index), str drops a zero index
    assert A == PartyId("MPC", 1) and A != B and A != PartyId("OTHER", 1)
    assert hash(A) == hash(PartyId("MPC", 1)) == hash(("MPC", 1))
    assert type(A).__hash__ is tuple.__hash__ and type(A).__eq__ is tuple.__eq__
    assert sorted([C, PartyId("BTG_B"), A, PartyId("BTG_A")]) \
        == [PartyId("BTG_A"), PartyId("BTG_B"), A, C]
    assert PartyId("MPC", 2) < PartyId("MPC", 10) and min(B, C, A) == A
    assert (str(A), str(PartyId("BTG_A"))) == ("MPC_1", "BTG_A")
    assert repr(A) == "PartyId(role='MPC', index=1)"
    assert PartyId("BTG_A").index == 0 and A.role == "MPC"
    shares = {pid: i for i, pid in enumerate((A, B, C))}
    assert [shares[PartyId("MPC", i)] for i in (3, 1, 2)] == [2, 0, 1]
    assert {A, PartyId("MPC", 1), B} == {A, B}


def test_rounds_count_pumps_that_deliver():
    rt = Runtime([A, B, C])
    assert rt.pump() == 0 and rt.rounds == 0
    rt.send(A, B, "t", b"x")
    rt.send(A, C, "t", b"y")
    rt.send(B, C, "t", b"z")
    assert rt.pump() == 3
    assert rt.pump() == 0
    assert (rt.messages_sent, rt.rounds) == (3, 1)


def test_unknown_party_routing_error():
    rt = Runtime([A, B])
    with pytest.raises(NetworkError):
        rt.send(A, C, "t", b"")
    with pytest.raises(NetworkError):
        rt.take(C, "t")


def _chatter(rt):
    rt.send(A, B, "x", b"1")
    rt.send(B, C, "x", b"2")
    rt.send(A, C, "x", b"3")
    rt.send(C, A, "x", b"4")
    rt.send(A, B, "x", b"5")
    rt.pump()


def test_replay_is_byte_identical():
    rt1, rt2 = Runtime([A, B, C], seed=9), Runtime([A, B, C], seed=9)
    _chatter(rt1)
    _chatter(rt2)
    assert rt1.transcript_bytes() == rt2.transcript_bytes()


def test_transcript_lists_messages_in_send_order():
    rt = Runtime([A, B, C])
    _chatter(rt)
    assert [(r.src, r.dst, r.payload) for r in rt.transcript] == [
        (A, B, b"1"), (B, C, b"2"), (A, C, b"3"), (C, A, b"4"), (A, B, b"5")]


def test_transcript_records_the_delivered_message_itself():
    rt = Runtime([A, B])
    sent = rt.send(A, B, "t", b"\x01")
    rt.pump()
    taken = rt.take(B, "t")
    [rec] = rt.transcript
    assert (rec.src, rec.dst, rec.tag, rec.payload) == (A, B, "t", b"\x01")
    assert rt.transcript == [Message(A, B, "t", b"\x01")]
    assert rec is sent and rec is taken


def test_transcript_views_partition_the_message_log():
    rt = Runtime([A, B, C], seed=1)
    _chatter(rt)
    views = {pid: transcript_view(rt, pid) for pid in (A, B, C)}
    # every message appears in exactly the sender's and receiver's views
    for rec in rt.transcript:
        holders = [pid for pid in (A, B, C) if rec in views[pid]]
        assert sorted(holders) == sorted({rec.src, rec.dst})
    # the union covers the full transcript
    assert len({r for v in views.values() for r in v}) == len(rt.transcript)


def test_party_with_no_traffic_has_empty_view():
    rt = Runtime([A, B, C])
    rt.send(A, B, "t", b"z")
    rt.pump()
    assert transcript_view(rt, C) == []


def test_per_party_rng_deterministic():
    rt1, rt2 = Runtime([A, B], seed=5), Runtime([A, B], seed=5)
    assert [rt1.rng(A).random() for _ in range(3)] == [rt2.rng(A).random() for _ in range(3)]
    assert rt1.rng(A).random() != rt1.rng(B).random()


def test_record_off_keeps_channels_working():
    rt = Runtime([A, B], record=False)
    rt.send(A, B, "t", b"q")
    rt.pump()
    assert rt.take(B, "t").payload == b"q"
    assert rt.transcript == []


def test_take_all_filters_by_tag():
    rt = Runtime([A, B])
    rt.send(A, B, "x", b"1")
    rt.send(A, B, "y", b"2")
    rt.send(A, B, "x", b"3")
    rt.pump()
    xs = rt.take_all(B, "x")
    assert [m.payload for m in xs] == [b"1", b"3"]
    assert rt.take(B, "y").payload == b"2"


def test_export_transcript(tmp_path):
    rt = Runtime([A, B], seed=3)
    rt.send(A, B, "t", b"\x01\x02")
    rt.pump()
    out = tmp_path / "transcript.jsonl"
    rt.export_transcript(out)
    line = out.read_text().strip()
    assert '"kind": "msg"' in line and '"payload": "0102"' in line


def chatty(rt, src, dst, steps, tag="t"):
    """A protocol of `steps` rounds: each step sends src -> dst and then takes
    what it sent; its result is the payloads dst took."""
    got = []
    for i in range(steps):
        rt.send(src, dst, tag, b"%d" % i)
        yield
        got.append(rt.take(dst, tag).payload)
    return got


class TestLockstep:
    def test_protocols_share_rounds(self):
        # 3 steps and 1 step side by side: the longest sets the rounds
        rt = Runtime([A, B, C])
        long, short = rt.run(chatty(rt, A, B, 3), chatty(rt, A, C, 1))
        assert (long, short) == ([b"0", b"1", b"2"], [b"0"])
        assert (rt.messages_sent, rt.rounds) == (4, 3)

    def test_silent_step_costs_no_round(self):
        def idle():
            yield
            yield
            return "done"

        rt = Runtime([A, B])
        assert rt.run(idle()) == ["done"]
        assert rt.rounds == 0
        assert rt.run() == []

    def test_results_in_argument_order(self):
        def value(v, steps):
            for _ in range(steps):
                yield
            return v

        rt = Runtime([A, B])
        assert rt.run(value("a", 3), value("b", 0), value("c", 1)) == ["a", "b", "c"]

    def test_exception_propagates(self):
        def failing():
            yield
            raise NetworkError("boom")

        rt = Runtime([A, B])
        with pytest.raises(NetworkError, match="boom"):
            rt.run(chatty(rt, A, B, 3), failing())

    def test_failed_round_is_never_delivered(self):
        # the second protocol raises in round 2: round 1 stays delivered and
        # counted, and the send beside the failure is dropped
        def failing():
            yield
            raise NetworkError("boom")

        rt = Runtime([A, B])
        with pytest.raises(NetworkError, match="boom"):
            rt.run(chatty(rt, A, B, 3), failing())
        assert (rt.messages_sent, rt.bytes_sent, rt.rounds) == (1, 1, 1)
        assert rt.transcript == [Message(A, B, "t", b"0")]
        assert rt.pump() == 0
        assert rt.run(chatty(rt, B, A, 1, tag="u")) == [[b"0"]]
        assert rt.transcript == [Message(A, B, "t", b"0"), Message(B, A, "u", b"0")]
        # stepped after the failure, the chatter has not taken what round 1
        # delivered: that message is dropped with the failed run
        rt = Runtime([A, B])
        with pytest.raises(NetworkError, match="boom"):
            rt.run(failing(), chatty(rt, A, B, 3))
        with pytest.raises(NetworkError, match="no pending"):
            rt.take(B, "t")
        assert rt.run(chatty(rt, A, B, 1)) == [[b"0"]]

    def test_failed_round_leaves_no_record(self):
        # the deal's owner queues its seeds in the round that fails
        def bad():
            raise NetworkError("boom")
            yield

        rt = Runtime([A, B, C])
        with pytest.raises(NetworkError, match="boom"):
            rt.run(deal(rt, [A, B, C], [(A, "share:v1", [5])], 101), bad())
        assert rt.transcript == [] and rt.messages_sent == 0

    def test_untaken_message_fails_the_run(self):
        # a copy nobody takes is dropped and fails the run that delivered it
        def doubled():
            rt.send(A, B, "t", b"0")
            rt.send(A, B, "t", b"0")
            yield
            return rt.take(B, "t").payload

        rt = Runtime([A, B])
        with pytest.raises(NetworkError, match="1 untaken message"):
            rt.run(doubled())
        with pytest.raises(NetworkError, match="no pending"):
            rt.take(B, "t")
        assert rt.run(chatty(rt, A, B, 1)) == [[b"0"]]

    def test_nested_lockstep_matches_flat_run(self):
        rt = Runtime([A, B, C])

        def outer():
            first, second = yield from lockstep(chatty(rt, A, B, 2), chatty(rt, B, C, 2))
            return first + second

        assert rt.run(outer(), chatty(rt, C, A, 1)) == [[b"0", b"1", b"0", b"1"], [b"0"]]
        assert (rt.messages_sent, rt.rounds) == (5, 2)


class TestSideBySideSessions:
    """Sessions over one trio in lockstep: every hop of both reaches the same
    party in the same round, so each is tagged apart and takes its own."""

    def test_sessions_to_one_party_never_cross(self, tiny):
        pids = {BtgRole.A: A, BtgRole.B: B, BtgRole.C: C}
        rt = Runtime([A, B, C], seed=1)
        keys = {role: [btg.keygen(tiny, rt.rng(pid))] for role, pid in pids.items()}
        first, second = rt.run(
            btg.triple_session(rt, tiny, keys, pids, forced={BtgRole.A: [2], BtgRole.B: [3]}),
            btg.triple_session(rt, tiny, keys, pids, forced={BtgRole.A: [4], BtgRole.B: [9]},
                               tag=btg.BTG_TAG + ":second"))
        assert (first[BtgRole.C], second[BtgRole.C]) == ([6], [36 % 23])
        assert (rt.messages_sent, rt.rounds) == (6, 3)
        to_c = [r.tag for r in rt.transcript if r.dst == C]
        assert to_c == [btg.BTG_TAG, btg.BTG_TAG + ":second"]


@pytest.mark.parametrize("bad", ["reserve", "chain", "session"])
def test_arguments_checked_before_any_protocol_sends(tiny, bad):
    # a protocol checks its arguments at its first step, and a round in which
    # any step raises is never delivered, so the good mint stepped before the
    # bad protocol has sent nothing
    ctx = build_parties(tiny, seed=3, record=True)
    rt = ctx.runtime
    chain = [ctx.o_ctrl, ctx.o_case, ctx.leader]
    with pytest.raises(MpcError):
        rt.run(ctx.dispenser.mint(2),
               {"reserve": lambda: ctx.dispenser.mint(-1),
                "chain": lambda: mhkm.key_product(rt, tiny, chain, ctx.owner_keys,
                                                  {ctx.o_case: [2, 3]}, count=1),
                "session": lambda: btg.triple_session(rt, tiny, ctx.btg_keys, ctx.btg_pids,
                                                      forced={BtgRole.B: [5]})}[bad]())
    assert rt.messages_sent == 0
    assert rt.transcript == []
