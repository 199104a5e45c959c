import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from spdzgen import btg, mhkm, modmath
from spdzgen.btg import BtgRole
from spdzgen.dispense import (
    TripleDispenser,
    deal,
    dispense_blind_single,
    dispense_blind_two,
    reconstruct,
    select_committee_leader,
    split_additive,
)
from spdzgen.errors import (
    NetworkError,
    ParameterError,
    ProtocolAbort,
    SelectionError,
    ShareError,
)
from spdzgen.gwas import build_parties
from spdzgen.modmath import DEFAULT_GROUP_256
from spdzgen.net import PartyId, Runtime

from helpers import both_backends, out_of_range, shifted, tamper_sends, truncated, zeroed

BTG_PIDS = {BtgRole.A: PartyId("BTG_A"), BtgRole.B: PartyId("BTG_B"),
            BtgRole.C: PartyId("BTG_C")}
MPC = [PartyId("MPC", i) for i in (1, 2, 3)]


class TestSplit:
    def test_sums_to_secret(self, tiny):
        rng = random.Random(0)
        shares = split_additive(10, 3, tiny.p, rng)
        assert sum(shares) % 23 == 10

    def test_zero_secret_two_parties(self, tiny):
        shares = split_additive(0, 2, tiny.p, random.Random(1))
        assert shares[0] == (-shares[1]) % 23

    def test_too_few_parties(self, tiny):
        with pytest.raises(ShareError):
            split_additive(5, 1, tiny.p, random.Random(0))

    def test_roundtrip_thousand(self, group256):
        rng = random.Random(2)
        for _ in range(1000):
            s = rng.randrange(group256.p)
            m = rng.randrange(2, 8)
            assert reconstruct(split_additive(s, m, group256.p, rng), group256.p) == s

    @given(secret=st.integers(min_value=0, max_value=22),
           m=st.integers(min_value=2, max_value=10),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=150)
    def test_roundtrip_property(self, secret, m, seed):
        shares = split_additive(secret, m, 23, random.Random(seed))
        assert len(shares) == m
        assert reconstruct(shares, 23) == secret

    def test_marginals_uniform(self, tiny):
        # chi-square on each share's marginal over Z_23, 10^4 splits of a fixed secret
        rng = random.Random(3)
        hists = [Counter() for _ in range(3)]
        for _ in range(10_000):
            for j, v in enumerate(split_additive(10, 3, tiny.p, rng)):
                hists[j][v] += 1
        for hist in hists:
            observed = [hist.get(v, 0) for v in range(23)]
            assert chisquare(observed).pvalue > 0.001


class TestReconstruct:
    def test_permutation_invariant(self, tiny):
        shares = split_additive(10, 4, tiny.p, random.Random(5))
        assert reconstruct(shares[::-1], tiny.p) == reconstruct(shares, tiny.p) == 10

    def test_missing_share(self, tiny):
        with pytest.raises(ShareError):
            reconstruct([1, None, 3], tiny.p)

    def test_empty(self, tiny):
        with pytest.raises(ShareError):
            reconstruct([], tiny.p)


class TestDeal:
    def test_owner_among_parties_keeps_its_shares(self, group256):
        # every other party gets one seed: (m-1) * 16 bytes for any count
        rt = Runtime(MPC, seed=1)
        [[shares]] = rt.run(deal(rt, MPC, [(MPC[0], "x", [5, 6, 7])], group256.p))
        assert [reconstruct(s.values(), group256.p) for s in shares] == [5, 6, 7]
        assert (rt.messages_sent, rt.rounds) == (2, 1)
        assert rt.bytes_sent == (len(MPC) - 1) * modmath.SEED_BYTES
        assert ("note", MPC[0], "kept local x share") in rt.transcript

    def test_outside_owner_sends_every_party(self, group256):
        # the first party gets the K correction shares, every other one a seed
        rt = build_runtime(seed=2)
        [[shares]] = rt.run(deal(rt, MPC, [(BTG_PIDS[BtgRole.A], "x", [9, 10])], group256.p))
        assert set(shares[0]) == set(MPC)
        assert [reconstruct(s.values(), group256.p) for s in shares] == [9, 10]
        assert (rt.messages_sent, rt.rounds) == (3, 1)
        sizes = {r[2]: len(r[4]) for r in rt.transcript if r[0] == "msg"}
        assert sizes == {MPC[0]: 2 * group256.element_size,
                         MPC[1]: modmath.SEED_BYTES, MPC[2]: modmath.SEED_BYTES}
        assert not [r for r in rt.transcript if r[0] == "note"]

    @pytest.mark.parametrize("mutate", [truncated, out_of_range],
                             ids=["truncated", "out-of-range"])
    def test_malformed_payload_aborts(self, group256, monkeypatch, mutate):
        # an outside owner, so every mutation also hits the correction shares
        tamper_sends(monkeypatch, "x", mutate)
        with pytest.raises(ProtocolAbort):
            rt = build_runtime(seed=3)
            rt.run(deal(rt, MPC, [(BTG_PIDS[BtgRole.A], "x", [5, 6])], group256.p))

    @pytest.mark.parametrize("mutate", [truncated, lambda seed: seed + b"\x00"],
                             ids=["truncated", "overlong"])
    def test_seed_of_another_length_aborts(self, group256, monkeypatch, mutate):
        tamper_sends(monkeypatch, "x", mutate)
        with pytest.raises(ProtocolAbort):
            rt = Runtime(MPC, seed=3)
            rt.run(deal(rt, MPC, [(MPC[0], "x", [5, 6])], group256.p))

    def test_recipients_use_the_bytes(self, group256, monkeypatch):
        # a shifted seed moves every share its recipient expands from it
        p = group256.p
        rt = Runtime(MPC, seed=4)
        [[honest]] = rt.run(deal(rt, MPC, [(MPC[0], "x", [5, 6])], p))
        tamper_sends(monkeypatch, "x", shifted(p))
        rt = Runtime(MPC, seed=4)
        [[shares]] = rt.run(deal(rt, MPC, [(MPC[0], "x", [5, 6])], p))
        for pid in MPC:
            kept = pid == MPC[0]
            assert all((s[pid] == h[pid]) == kept for s, h in zip(shares, honest))
        assert all(reconstruct(s.values(), p) not in (5, 6) for s in shares)

    def test_several_owners_share_one_round(self, group256):
        # the same shares as one deal per owner, which cost a round each
        p = group256.p
        batches = [(MPC[0], "x", [5, 6]), (BTG_PIDS[BtgRole.A], "y", [7]), (MPC[2], "z", [8, 9])]
        rt = build_runtime(seed=9)
        [together] = rt.run(deal(rt, MPC, batches, p))
        assert (rt.messages_sent, rt.rounds) == (2 + 3 + 2, 1)
        rt = build_runtime(seed=9)
        apart = [rt.run(deal(rt, MPC, [batch], p))[0][0] for batch in batches]
        assert rt.rounds == 3
        assert together == apart
        assert [[reconstruct(s.values(), p) for s in shares] for shares in together] \
            == [[5, 6], [7], [8, 9]]


class TestLeaderSelection:
    def test_single_candidate(self):
        assert select_committee_leader([MPC[2]], b"seed") == MPC[2]

    def test_deterministic(self):
        pool = [PartyId("MPC", i) for i in range(3, 9)]
        assert select_committee_leader(pool, b"s1") == select_committee_leader(pool, b"s1")

    def test_empty_pool(self):
        with pytest.raises(SelectionError):
            select_committee_leader([], b"s")

    def test_uniform_over_seeds(self):
        pool = [PartyId("MPC", i) for i in (3, 4, 5, 6)]
        tally = Counter(select_committee_leader(pool, b"seed-%d" % i) for i in range(10_000))
        for pid in pool:
            assert abs(tally[pid] - 2500) <= 300


class TestBuildParties:
    def test_pipeline_leader_at_three_servers(self, group256):
        # MPC_1 and MPC_2 own the inputs, so MPC_3 is the only candidate
        assert build_parties(group256, seed=5).leader == MPC[2]

    def test_keys_only_for_parties_that_strip_a_layer(self, group256):
        ctx = build_parties(group256, seed=5, parties=4, blinding="two")
        assert set(ctx.btg_keys) == {BtgRole.A, BtgRole.C}
        assert set(ctx.owner_keys) == {ctx.o_case, ctx.leader}


class TestBlindFactorArithmetic:
    def test_two_example(self, tiny):
        # the two-randomness r_c is the key product of the owners' blinds
        rt = build_runtime()
        keys = {pid: btg.keygen(tiny, rt.rng(pid)) for pid in MPC}
        [shares] = rt.run(mhkm.key_product(rt, tiny, [MPC[1], MPC[0], MPC[2]], keys,
                                           {MPC[0]: [3], MPC[1]: [4]}))
        assert shares == {MPC[0]: [3], MPC[1]: [4], MPC[2]: [12]}

    def test_uniformization_over_full_group(self, tiny):
        # subgroup-confined a times Z*_p-uniform r covers all of Z*_p uniformly
        import spdzgen.modmath as modmath

        rng = random.Random(7)
        tally = Counter()
        n = 10_000
        for _ in range(n):
            a = modmath.random_subgroup_element(tiny, rng)
            r = rng.randrange(1, tiny.p)
            tally[r * a % tiny.p] += 1
        expect = n / 22
        sigma = math.sqrt(n * (1 / 22) * (21 / 22))
        for residue in range(1, 23):
            assert abs(tally[residue] - expect) <= 4 * sigma


def build_runtime(seed=0):
    rt = Runtime(list(BTG_PIDS.values()) + MPC, seed=seed)
    return rt


def trio_keys(params, seed=0):
    return {role: btg.keygen(params, random.Random("%s-%s" % (seed, role.value)))
            for role in BtgRole}


def capture_sessions(monkeypatch):
    """Record the outcome of every session the generator trio runs; chain
    sessions between other parties are not recorded."""
    session, outcomes = btg.triple_session, []

    def recorded(protocol):
        outcome = yield from protocol
        outcomes.append(outcome)
        return outcome

    def capture(runtime, params, keys, pids, *args, **kwargs):
        protocol = session(runtime, params, keys, pids, *args, **kwargs)
        return recorded(protocol) if pids[BtgRole.A] == BTG_PIDS[BtgRole.A] else protocol

    monkeypatch.setattr(btg, "triple_session", capture)
    return outcomes


def reconstruct_triple(triple, p):
    a = reconstruct(triple.a_shares.values(), p)
    b = reconstruct(triple.b_shares.values(), p)
    c = reconstruct(triple.c_shares.values(), p)
    return a, b, c


class TestDispensationProtocol:
    def test_single_randomness_invariant(self, group256):
        rt = build_runtime()
        p = group256.p
        for i in range(20):
            [[triple]] = rt.run(dispense_blind_single(rt, group256, trio_keys(group256, seed=i),
                                                      BTG_PIDS, MPC, triple_ids=["t%d" % i]))
            a2, b2, c2 = reconstruct_triple(triple, p)
            assert c2 == a2 * b2 % p

    def test_holders_blind_with_the_seed_they_receive(self, group256, monkeypatch):
        rt = build_runtime(seed=1)
        p = group256.p
        outcomes = capture_sessions(monkeypatch)
        # every blind seed on the wire becomes SEED; C keeps the seeds it drew
        seed = bytes(range(modmath.SEED_BYTES))
        tamper_sends(monkeypatch, "blind-r", lambda payload: seed)
        [[triple]] = rt.run(dispense_blind_single(rt, group256, trio_keys(group256, seed=1),
                                                  BTG_PIDS, MPC, triple_ids=["t"]))
        [out] = outcomes
        [x] = modmath.expand_residues(seed, 1, p - 1)
        assert reconstruct_triple(triple, p)[:2] == ((1 + x) * out[BtgRole.A][0] % p,
                                                     (1 + x) * out[BtgRole.B][0] % p)

    def test_two_randomness_invariant(self, group256):
        rt = build_runtime(seed=3)
        p = group256.p
        ox_key = btg.keygen(group256, rt.rng(MPC[0]))
        for i in range(10):
            keys = trio_keys(group256, seed="two%d" % i)
            [[triple]] = rt.run(dispense_blind_two(
                rt, group256, keys, BTG_PIDS, MPC, ox=MPC[0], oy=MPC[1], triple_ids=["t%d" % i],
                keys={MPC[0]: ox_key, BTG_PIDS[BtgRole.C]: keys[BtgRole.C]}))
            a2, b2, c2 = reconstruct_triple(triple, p)
            assert c2 == a2 * b2 % p

    def test_share_messages_on_private_channels(self, group256):
        # every share record travels point-to-point from its dealer
        rt = build_runtime(seed=4)
        rt.run(dispense_blind_single(rt, group256, trio_keys(group256, seed=4), BTG_PIDS, MPC,
                                     triple_ids=["tx"]))
        a_msgs = [r for r in rt.transcript
                  if r[0] == "msg" and r[3].startswith("triple-a:")]
        assert {r[1] for r in a_msgs} == {BTG_PIDS[BtgRole.A]}
        assert {r[2] for r in a_msgs} == set(MPC)


class TestBatchedDispensation:
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_one_message_per_hop(self, group256, mode):
        # K = 4 triples cost the messages and rounds of one: 14/4 single,
        # 19/4 two.  The rounds are hop 1 with the blinds (two mode: and A's
        # sign seed), hop 2, hop 3 and every holder's shares; in two mode
        # the key product's three hops ride hops 1-3 and B's sign products
        # hop 2.  Two mode took 7 rounds while its key product ran after the
        # session.
        rt = build_runtime(seed=6)
        keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
        chain_keys = {MPC[0]: btg.keygen(group256, rt.rng(MPC[0])),
                      BTG_PIDS[BtgRole.C]: keys[BtgRole.C]}
        ids = ["b%d" % i for i in range(4)]
        if mode == "single":
            [triples] = rt.run(dispense_blind_single(rt, group256, keys, BTG_PIDS, MPC,
                                                     triple_ids=ids))
        else:
            [triples] = rt.run(dispense_blind_two(rt, group256, keys, BTG_PIDS, MPC,
                                                  ox=MPC[0], oy=MPC[1],
                                                  triple_ids=ids, keys=chain_keys))
        assert [t.triple_id for t in triples] == ids
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p
        assert (rt.messages_sent, rt.rounds) == ((14, 4) if mode == "single" else (19, 4))
        # each holder sends MPC_1 its 4 correction shares and the others a seed
        w = group256.element_size
        share_msgs = [r for r in rt.transcript if r[0] == "msg" and r[3].startswith("triple-")]
        assert sorted((r[2], len(r[4])) for r in share_msgs) \
            == sorted([(MPC[0], 4 * w)] * 3 + [(pid, modmath.SEED_BYTES) for pid in MPC[1:]] * 3)
        # the blind seeds are the first records: they ride the first hop's round
        tags = [r[3] for r in rt.transcript if r[0] == "msg"]
        first = ["blind-r:b0", "blind-r:b0"] + ["sign-a:b0"] * (mode == "two")
        assert tags[:len(first) + 1] == first + [btg.BTG_TAG]
        assert all(len(r[4]) == modmath.SEED_BYTES for r in rt.transcript
                   if r[0] == "msg" and r[3] in first)

    def test_hops_to_the_holder_of_c_never_cross(self, group256, monkeypatch):
        # in two mode the session's hop 3 and the key product's last hop both
        # reach the holder of c in the third round, under distinct tags
        ctx = build_parties(group256, seed=6, record=True, blinding="two")
        rt, rounds, pump = ctx.runtime, [], ctx.runtime.pump

        def recording():
            start = len(rt.transcript)
            delivered = pump()
            rounds.append([r for r in rt.transcript[start:] if r[0] == "msg"])
            return delivered

        monkeypatch.setattr(rt, "pump", recording)
        ctx.dispenser.reserve(3)
        assert len(rounds) == 4
        pid_c = ctx.btg_pids[BtgRole.C]
        assert [r[3] for r in rounds[2] if r[2] == pid_c] == [btg.BTG_TAG, "btg:t000001"]
        assert all(c == a * b % group256.p
                   for a, b, c in (reconstruct_triple(t, group256.p) for t in ctx.dispenser.pool))

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_empty_batch_sends_nothing(self, group256, mode):
        ctx = build_parties(group256, seed=8, blinding=mode)
        with pytest.raises(ParameterError):
            if mode == "single":
                ctx.runtime.run(dispense_blind_single(ctx.runtime, group256, ctx.btg_keys,
                                                      ctx.btg_pids, ctx.mpc_pids, triple_ids=[]))
            else:
                ctx.runtime.run(dispense_blind_two(ctx.runtime, group256, ctx.btg_keys,
                                                   ctx.btg_pids, ctx.mpc_pids, ox=ctx.o_case,
                                                   oy=ctx.o_ctrl, triple_ids=[],
                                                   keys=ctx.dispenser.chain_keys))
        assert ctx.runtime.messages_sent == 0


WIRE_TAGS = ["blind-r", "triple-a:", "triple-b:", "triple-c:"]

# A seed has no out-of-range value, so out_of_range only has a target where
# residues cross the wire: the holders' correction shares to MPC_1.
MALFORMED = ([pytest.param(truncated, prefix, id="truncated-" + prefix) for prefix in WIRE_TAGS]
             + [pytest.param(out_of_range, prefix, id="out-of-range-" + prefix)
                for prefix in WIRE_TAGS[1:]])


def reserve_under(monkeypatch, group, mode, prefix, mutate, n=4):
    """Mint n triples while every `prefix` payload is rewritten by `mutate`."""
    ctx = build_parties(group, seed=21, blinding=mode)
    tamper_sends(monkeypatch, prefix, mutate)
    ctx.dispenser.reserve(n)
    return list(ctx.dispenser.pool)


@pytest.mark.parametrize("mode", ["single", "two"])
class TestTamperedDispensation:
    @pytest.mark.parametrize("mutate,prefix", MALFORMED)
    def test_malformed_payload_aborts(self, group256, monkeypatch, mode, prefix, mutate):
        with pytest.raises(ProtocolAbort):
            reserve_under(monkeypatch, group256, mode, prefix, mutate)

    def test_zeroed_blind_seeds_give_nonzero_blinds(self, group256, monkeypatch, mode):
        # the all-zero seed is a seed like any other, and every blind it
        # expands to is nonzero: no component of a triple becomes zero
        p = group256.p
        triples = reserve_under(monkeypatch, group256, mode, "blind-r", zeroed)
        assert all(v for t in triples for v in reconstruct_triple(t, p))

    @pytest.mark.parametrize("prefix", WIRE_TAGS)
    def test_in_range_corruption_breaks_a_triple(self, group256, monkeypatch, mode, prefix):
        # undetectable without MACs, but the shares are built from these bytes
        p = group256.p
        triples = reserve_under(monkeypatch, group256, mode, prefix, shifted(p))
        products = [reconstruct_triple(t, p) for t in triples]
        assert any(c != a * b % p for a, b, c in products)


class TestExpandedBlinds:
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_every_blind_is_nonzero_in_the_tiny_group(self, tiny, mode):
        # a seed expanded mod p would give a zero blind once in 23 here; the
        # blinds expand mod p - 1 and add one, so no dispensed component is 0
        ctx = build_parties(tiny, seed=23, blinding=mode)
        ctx.dispenser.reserve(300)
        triples = [reconstruct_triple(t, tiny.p) for t in ctx.dispenser.pool]
        assert all(a and b and c == a * b % tiny.p for a, b, c in triples)
        assert len({a for a, _, _ in triples}) == tiny.p - 1  # every unit occurs


class TestDispenser:
    def test_mints_valid_triples_and_counts(self, group256, tmp_path):
        rt = build_runtime(seed=5)
        keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
        ledger_file = tmp_path / "ledger.jsonl"
        disp = TripleDispenser(rt, group256, BTG_PIDS, keys, MPC,
                               ox=MPC[0], oy=MPC[1], ledger_path=ledger_file)
        triples = [disp.next_triple() for _ in range(5)]
        assert disp.count == 5
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p
        ids = {t.triple_id for t in triples}
        assert len(ids) == 5
        lines = [json.loads(line) for line in ledger_file.read_text().splitlines()]
        assert [ln["triple_id"] for ln in lines] == [t.triple_id for t in triples]


    def test_reserve_two_randomness(self, group256, tmp_path):
        ledger_file = tmp_path / "ledger.jsonl"
        ctx = build_parties(group256, seed=12, blinding="two", ledger_path=ledger_file)
        disp = ctx.dispenser
        disp.reserve(6)
        assert len(disp.pool) == 6 and disp.count == 0
        lines = [json.loads(line) for line in ledger_file.read_text().splitlines()]
        triples = [disp.next_triple() for _ in range(7)]  # the seventh mints one more
        assert disp.count == 7 and not disp.pool
        ids = [t.triple_id for t in triples]
        assert len(set(ids)) == 7 and ids == sorted(ids)
        assert [ln["triple_id"] for ln in lines] == ids[:6]
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p

    @pytest.mark.parametrize("mode,checks", [("single", 0), ("two", 2)])
    def test_membership_tests_only_on_pinned_blinds(self, group256, monkeypatch, mode, checks):
        # the session draws a and b itself; two-mode pins r_a and r_b in its chain
        ctx = build_parties(group256, seed=14, blinding=mode)
        calls = []
        member = modmath.is_subgroup_member

        def counted(y, params):
            calls.append(y)
            return member(y, params)

        monkeypatch.setattr(modmath, "is_subgroup_member", counted)
        ctx.dispenser.reserve(5)
        assert len(calls) == checks * 5

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_abort_after_hop_one_leaves_no_stale_blind(self, group256, monkeypatch, mode):
        # the aborted batch's blinds reach BTG_A and BTG_B with hop 1 and are
        # dropped with the failed run; the next batch reads its own, or
        # c' != a'*b' would pass unseen
        ctx = build_parties(group256, seed=22, blinding=mode)
        armed = [True]

        def break_hop_two(payload):
            if armed[0] and payload[btg.SESSION_ID_BYTES] == 2:
                armed[0] = False
                return truncated(payload)
            return payload

        tamper_sends(monkeypatch, btg.BTG_TAG, break_hop_two)
        with pytest.raises(ProtocolAbort):
            ctx.dispenser.reserve(4)
        for role in (BtgRole.A, BtgRole.B):
            with pytest.raises(NetworkError):
                ctx.runtime.take(ctx.btg_pids[role], "blind-r:t000001")
        ctx.dispenser.reserve(4)
        triples = list(ctx.dispenser.pool)
        assert len(triples) == 4
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p

    def test_reserve_rejects_negative(self, group256):
        ctx = build_parties(group256, seed=13)
        ctx.dispenser.reserve(0)
        assert ctx.runtime.messages_sent == 0
        with pytest.raises(ParameterError):
            ctx.dispenser.reserve(-1)


def received_residues(runtime, pid, width):
    """Every width-byte window, at every offset, of every payload pid received."""
    return {int.from_bytes(rec[4][i:i + width], "big")
            for rec in runtime.transcript_view(pid) if rec[0] == "msg" and rec[2] == pid
            for i in range(len(rec[4]) - width + 1)}


@pytest.mark.parametrize("mode", ["single", "two"])
class TestServerViews:
    """What the MPC servers receive while one batch of 20 triples is dispensed."""

    @pytest.fixture
    def batch(self, group256, monkeypatch, mode):
        ctx = build_parties(group256, seed=11, record=True, blinding=mode)
        outcomes = capture_sessions(monkeypatch)
        ctx.dispenser.reserve(20)
        [outcome] = outcomes
        return ctx, outcome

    def test_no_server_receives_a_triple_component(self, group256, batch):
        # neither a raw a, b, c nor a blinded a', b', c' as a residue anywhere
        ctx, outcome = batch
        components = {v for role in BtgRole for v in outcome[role]}
        components |= {v for t in ctx.dispenser.pool
                       for v in reconstruct_triple(t, group256.p)}
        assert len(components) == 6 * 20
        for pid in ctx.mpc_pids:
            assert not received_residues(ctx.runtime, pid, group256.element_size) & components

    def test_servers_receive_shares_and_owner_hops_only(self, batch, mode):
        ctx, _ = batch
        ox, oy = ctx.o_case, ctx.o_ctrl
        owner_hops = {"single": set(),
                      "two": {(ox, oy, btg.BTG_TAG), (oy, ox, btg.BTG_TAG)}}[mode]
        shares = {(ctx.btg_pids[role], pid, "triple-%s" % role.value.lower())
                  for role in BtgRole for pid in ctx.mpc_pids}
        received = {(r[1], r[2], r[3].split(":")[0]) for r in ctx.runtime.transcript
                    if r[0] == "msg" and r[2] in ctx.mpc_pids}
        assert received == shares | owner_hops


def assert_legendre_band(group, mode):
    """chi(a'), chi(b') and chi(a') = chi(b') over one reserve(400) each sit
    in a 5-sigma band around 200."""
    p = group.p
    ctx = build_parties(group, seed=19, blinding=mode)
    ctx.dispenser.reserve(400)
    chis = [tuple(pow(reconstruct(shares.values(), p), (p - 1) // 2, p) == 1
                  for shares in (t.a_shares, t.b_shares)) for t in ctx.dispenser.pool]
    assert len(chis) == 400
    for count in (sum(a for a, _ in chis), sum(b for _, b in chis),
                  sum(a == b for a, b in chis)):
        assert abs(count - 200) <= 50, count


class TestSingleModeBlinds:
    """The holder of c picks both blinds, so no server learns one."""

    def test_legendre_symbols_independent(self, group256):
        # a and b are squares, so one blind r on both made chi(a') = chi(b')
        # in 400 of 400
        assert_legendre_band(group256, "single")

    def test_no_server_sends_or_receives_a_blind(self, group256):
        ctx = build_parties(group256, seed=20, record=True)
        ctx.dispenser.reserve(3)
        blinds = [(r[1], r[2]) for r in ctx.runtime.transcript
                  if r[0] == "msg" and r[3].startswith("blind-r:")]
        pid_c = ctx.btg_pids[BtgRole.C]
        assert blinds == [(pid_c, ctx.btg_pids[BtgRole.A]), (pid_c, ctx.btg_pids[BtgRole.B])]


class TestTwoModeSigns:
    """The holders of a and b draw the signs; the holder of c learns only
    their products, and no server learns any."""

    def test_legendre_symbols_independent(self, group256):
        # squares times square blinds made chi(a') = chi(b') = 1 in 400 of 400
        assert_legendre_band(group256, "two")

    def test_no_server_sends_or_receives_a_sign(self, group256):
        ctx = build_parties(group256, seed=20, record=True, blinding="two")
        ctx.dispenser.reserve(3)
        pid_a, pid_b, pid_c = (ctx.btg_pids[role] for role in BtgRole)
        signs = [(r[1], r[2], len(r[4])) for r in ctx.runtime.transcript
                 if r[0] == "msg" and r[3].startswith("sign-")]
        assert signs == [(pid_a, pid_b, modmath.SEED_BYTES), (pid_b, pid_c, 3)]

    def test_sign_products_move_c(self, group256, monkeypatch):
        # flipping every product the holder of c receives negates each c'
        p = group256.p
        triples = reserve_under(monkeypatch, group256, "two", "sign-ab:",
                                lambda payload: bytes(1 - bit for bit in payload))
        products = [reconstruct_triple(t, p) for t in triples]
        assert all(c == -a * b % p for a, b, c in products)


class TestGoldenTranscript:
    # sha256 of the transcript and the modexp count after 30 triples.  Any
    # change to the group arithmetic, on either modexp backend, must leave
    # both exactly as they are.  Re-pinned when sessions stopped sending a
    # done ack and records lost their sequence numbers, and again when drawn
    # subgroup elements became squares s^2 instead of g^t: every record kept
    # its sender, recipient, tag and payload length, and each triple lost two
    # exponentiations in single mode and four in two mode (306 -> 246,
    # 606 -> 486).  Re-pinned again when the holder of c began to blind and
    # deal its own component: the leader's raw-c relay and "kept local" note
    # went, C receives the blind (single) or the key product (two) the leader
    # got, and C sends the triple-c shares; every other record kept its
    # endpoints, tag and payload.  Then `build_parties` stopped making the
    # keys of BTG_B and of the servers other than O_case and the leader: two
    # fewer keygens (246 -> 244, 486 -> 484), and the values drawn from those
    # parties' streams moved.  The single digest was re-pinned when the
    # holder of c began to draw both blinds: the owners' four blind-r hops per batch
    # became C's two, the triple-c shares and the share of a' and b' that
    # absorbs the blinded value (the one to MPC_1) moved, and every other
    # record kept its endpoints, tag and payload; the two digest did not move.
    # Both were re-pinned when independent sends began to share a round: the
    # blinds are sent before the session, so their records come before hop 1
    # (in two mode also before the key product), and their tag carries the
    # batch's first triple id (blind-r -> blind-r:t000001); every record kept
    # its endpoints and payload, each channel kept its order, and the modexp
    # counts did not move.  Both were re-pinned when shares and blinds began
    # to travel as 16-byte seeds: the blind-r records and every triple share
    # record but the one to MPC_1 (the correction shares) carry a seed, and
    # the shares moved.  In single mode every record kept its endpoints, tag
    # and order, and the first batch's BTG hops are unchanged; later hops
    # move because the holders' rngs draw two seeds per batch instead of K
    # shares per server.  Two mode adds the holders' signs: per batch one
    # sign-a seed from BTG_A to BTG_B before hop 1 and one sign-ab record
    # from BTG_B to BTG_C before the key product, so BTG_A's first draw (and
    # with it every hop) moved.  The modexp counts did not move.  The two
    # digest was re-pinned when the key product began to run beside the
    # session (7 -> 4 rounds per batch): its hops, tagged btg:<first triple
    # id>, come each right after the session's hop of the same round, and
    # the sign-ab record comes with hop 2.  With that tag read as btg, the
    # same 570 records were sent, each channel in the same order, and the
    # modexp count did not move; the single digest did not move.
    GOLDEN = {
        "single": ("77e72a461cbb402a1faf50e9c7c9b7dd67d8a8176466c22cce62cc49dbafd89e", 244),
        "two": ("82d6242fae71c5f1b9d41d92a0596ad6307ca610ac8a3717edbee0fb4cc32715", 484),
    }

    @both_backends
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_thirty_triples(self, mode, modexp_backend):
        digest, modexps = self.GOLDEN[mode]
        modmath.reset_modexp_count()
        ctx = build_parties(DEFAULT_GROUP_256, seed=7, record=True, blinding=mode)
        for _ in range(30):
            ctx.dispenser.next_triple()
        assert hashlib.sha256(ctx.runtime.transcript_bytes()).hexdigest() == digest
        assert modmath.modexp_count() == modexps
