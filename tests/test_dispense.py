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
    ShareError,
)
from spdzgen.gwas import build_parties
from spdzgen.modmath import DEFAULT_GROUP_256
from spdzgen.net import PartyId, Runtime
from spdzgen.spdz import deal, draw_seeded

from helpers import (
    both_backends,
    out_of_range,
    shifted,
    tamper_sends,
    transcript_view,
    truncated,
    zeroed,
)

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
        assert [reconstruct(v, group256.p) for v in zip(*shares.columns.values())] == [5, 6, 7]
        assert (rt.messages_sent, rt.rounds) == (2, 1)
        assert rt.bytes_sent == (len(MPC) - 1) * modmath.SEED_BYTES
        # the owner sends itself nothing: the transcript is its two seeds
        assert [(r.src, r.dst) for r in rt.transcript] == [(MPC[0], MPC[1]), (MPC[0], MPC[2])]

    def test_outside_owner_sends_every_party(self, group256):
        # the first party gets the K correction shares, every other one a seed
        rt = build_runtime(seed=2)
        [[shares]] = rt.run(deal(rt, MPC, [(BTG_PIDS[BtgRole.A], "x", [9, 10])], group256.p))
        assert shares.parties == tuple(MPC)
        assert [reconstruct(v, group256.p) for v in zip(*shares.columns.values())] == [9, 10]
        assert (rt.messages_sent, rt.rounds) == (3, 1)
        sizes = {r.dst: len(r.payload) for r in rt.transcript}
        assert sizes == {MPC[0]: 2 * group256.element_size,
                         MPC[1]: modmath.SEED_BYTES, MPC[2]: modmath.SEED_BYTES}
        assert {r.src for r in rt.transcript} == {BTG_PIDS[BtgRole.A]}

    def test_seeded_batch_sends_every_party_a_seed(self, group256):
        # values drawn as seeds only: no correction shares, 16 bytes to each
        # party, and the shares sum to the values the owner drew
        p = group256.p
        rt = build_runtime(seed=2)
        seeded = draw_seeded(rt.rng(BTG_PIDS[BtgRole.A]), MPC, 5, p)
        [[shares]] = rt.run(deal(rt, MPC, [(BTG_PIDS[BtgRole.A], "x", seeded)], p))
        assert [reconstruct(v, p) for v in zip(*shares.columns.values())] == seeded.values
        assert [(r.dst, r.payload) for r in rt.transcript] == list(seeded.seeds.items())

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
            assert all((s == h) == kept
                       for s, h in zip(shares.columns[pid], honest.columns[pid]))
        assert all(reconstruct(v, p) not in (5, 6) for v in zip(*shares.columns.values()))

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
        assert [[reconstruct(v, p) for v in zip(*x.columns.values())] for x in together] \
            == [[5, 6], [7], [8, 9]]


class TestLeaderSelection:
    def test_single_candidate(self):
        assert select_committee_leader([MPC[2]], b"seed") == MPC[2]

    def test_deterministic(self):
        pool = [PartyId("MPC", i) for i in range(3, 9)]
        assert select_committee_leader(pool, b"s1") == select_committee_leader(pool, b"s1")

    def test_empty_pool(self):
        with pytest.raises(ParameterError, match="no committee candidates"):
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

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_four_exponentiations(self, group256, mode):
        # one key pair each for the holders of a and c, O_case and the
        # leader; the holders' chunk keys wait for the first wide mint
        modmath.reset_modexp_count()
        ctx = build_parties(group256, seed=5, blinding=mode)
        assert modmath.modexp_count() == 4
        assert [len(ctx.btg_keys[role]) for role in (BtgRole.A, BtgRole.C)] == [1, 1]

    def test_unknown_blinding_mode_is_a_parameter_error(self, group256):
        with pytest.raises(ParameterError, match="unknown blinding mode 'three'"):
            build_parties(group256, seed=5, blinding="three")


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
    return {role: [btg.keygen(params, random.Random("%s-%s" % (seed, role.value)))]
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
        # in single mode the holder of c is the one that receives blind
        # seeds, from the holders of a and b.  Every blind seed on the wire
        # becomes SEED, its sign bytes kept; the holders of a and b keep the
        # seeds they drew, so only c' moves, to c / (sign_a*sign_b*s^4) for
        # the s that SEED expands to
        rt = build_runtime(seed=1)
        p = group256.p
        outcomes = capture_sessions(monkeypatch)
        seed = bytes(range(modmath.SEED_BYTES))
        tamper_sends(monkeypatch, "blind-r", lambda payload: seed + payload[modmath.SEED_BYTES:])
        [[triple]] = rt.run(dispense_blind_single(rt, group256, trio_keys(group256, seed=1),
                                                  BTG_PIDS, MPC, triple_ids=["t"]))
        [out] = outcomes
        a2, b2, c2 = reconstruct_triple(triple, p)
        [x] = modmath.expand_residues(seed, 1, p - 1)
        # each holder's sign is chi(x') and makes its pinned x a square
        signs = [1 if pow(v, group256.q, p) == 1 else -1 for v in (a2, b2)]
        assert c2 == out[BtgRole.C][0] * pow(signs[0] * signs[1] * (1 + x) ** 4, -1, p) % p
        assert c2 != a2 * b2 % p

    def test_two_randomness_invariant(self, group256):
        rt = build_runtime(seed=3)
        p = group256.p
        ox_key = btg.keygen(group256, rt.rng(MPC[0]))
        for i in range(10):
            keys = trio_keys(group256, seed="two%d" % i)
            [[triple]] = rt.run(dispense_blind_two(
                rt, group256, keys, BTG_PIDS, MPC, ox=MPC[0], oy=MPC[1], triple_ids=["t%d" % i],
                keys={MPC[0]: ox_key, BTG_PIDS[BtgRole.C]: keys[BtgRole.C][0]}))
            a2, b2, c2 = reconstruct_triple(triple, p)
            assert c2 == a2 * b2 % p

    def test_share_messages_on_private_channels(self, group256):
        # every share record travels point-to-point from its dealer
        rt = build_runtime(seed=4)
        rt.run(dispense_blind_single(rt, group256, trio_keys(group256, seed=4), BTG_PIDS, MPC,
                                     triple_ids=["tx"]))
        a_msgs = [r for r in rt.transcript if r.tag.startswith("triple-a:")]
        assert {r.src for r in a_msgs} == {BTG_PIDS[BtgRole.A]}
        assert {r.dst for r in a_msgs} == set(MPC)


class TestBatchedDispensation:
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_one_message_per_hop(self, group256, mode):
        # K = 4 triples cost the messages and rounds of one: 14/4 single,
        # 19/4 two.  The rounds are hop 1 with the blinds (two mode: and A's
        # sign seed), hop 2 with the shares of a' and b', hop 3, and the
        # shares of c'; in two mode the key product's three hops ride hops
        # 1-3 and B's sign products hop 2.  Two mode took 7 rounds while its
        # key product ran after the session.
        rt = build_runtime(seed=6)
        keys = {role: [btg.keygen(group256, rt.rng(pid))] for role, pid in BTG_PIDS.items()}
        chain_keys = {MPC[0]: btg.keygen(group256, rt.rng(MPC[0])),
                      BTG_PIDS[BtgRole.C]: keys[BtgRole.C][0]}
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
        # a holder with corrections sends MPC_1 its 4 correction shares and
        # the others a seed: the holder of c always, the holders of a and b in
        # two mode; in single mode they send every server a seed
        w, seed = group256.element_size, modmath.SEED_BYTES
        corrections = 1 if mode == "single" else 3
        share_msgs = [r for r in rt.transcript if r.tag.startswith("triple-")]
        assert sorted((r.dst, len(r.payload)) for r in share_msgs) \
            == sorted([(MPC[0], 4 * w)] * corrections + [(MPC[0], seed)] * (3 - corrections)
                      + [(pid, seed) for pid in MPC[1:]] * 3)
        # the blind seeds are the first records: they ride the first hop's
        # round; in single mode each holder sends C its seed and 4 sign bytes
        tags = [r.tag for r in rt.transcript]
        first = ["blind-r:b0", "blind-r:b0"] + ["sign-a:b0"] * (mode == "two")
        assert tags[:len(first) + 1] == first + [btg.BTG_TAG]
        assert [len(r.payload) for r in rt.transcript[:len(first)]] \
            == ([seed + 4] * 2 if mode == "single" else [seed] * 3)

    def test_hops_to_the_holder_of_c_never_cross(self, group256, monkeypatch):
        # in two mode the session's hop 3 and the key product's last hop both
        # reach the holder of c in the third round, under distinct tags
        ctx = build_parties(group256, seed=6, record=True, blinding="two")
        rt, rounds, pump = ctx.runtime, [], ctx.runtime.pump

        def recording():
            start = len(rt.transcript)
            delivered = pump()
            rounds.append(rt.transcript[start:])
            return delivered

        monkeypatch.setattr(rt, "pump", recording)
        ctx.runtime.run(ctx.dispenser.mint(3))
        assert len(rounds) == 4
        pid_c = ctx.btg_pids[BtgRole.C]
        assert [r.tag for r in rounds[2] if r.dst == pid_c] == [btg.BTG_TAG, "btg:t000001"]
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


MODES = ["single", "two"]
WIRE_TAGS = ["blind-r", "triple-a:", "triple-b:", "triple-c:"]

# A seed has no out-of-range value, so out_of_range only has a target where
# residues cross the wire: the correction shares to MPC_1, which in single
# mode only the holder of c sends (the holders of a and b deal seeds only),
# and the sign bytes that follow each single-mode blind seed to C.
RESIDUE_TAGS = {"single": ["blind-r", "triple-c:"], "two": WIRE_TAGS[1:]}
MALFORMED = ([pytest.param(truncated, prefix, mode, id="truncated-%s-%s" % (prefix, mode))
              for prefix in WIRE_TAGS for mode in MODES]
             + [pytest.param(out_of_range, prefix, mode, id="out-of-range-%s-%s" % (prefix, mode))
                for mode in MODES for prefix in RESIDUE_TAGS[mode]])


def mint_under(monkeypatch, group, mode, prefix, mutate, n=4):
    """Mint n triples while every `prefix` payload is rewritten by `mutate`."""
    ctx = build_parties(group, seed=21, blinding=mode)
    tamper_sends(monkeypatch, prefix, mutate)
    ctx.runtime.run(ctx.dispenser.mint(n))
    return list(ctx.dispenser.pool)


class TestTamperedDispensation:
    @pytest.mark.parametrize("mutate,prefix,mode", MALFORMED)
    def test_malformed_payload_aborts(self, group256, monkeypatch, mode, prefix, mutate):
        with pytest.raises(ProtocolAbort):
            mint_under(monkeypatch, group256, mode, prefix, mutate)

    @pytest.mark.parametrize("mode", MODES)
    def test_zeroed_blind_seeds_give_nonzero_blinds(self, group256, monkeypatch, mode):
        # the all-zero seed is a seed like any other, and every blind it
        # expands to is nonzero: no component of a triple becomes zero
        p = group256.p
        triples = mint_under(monkeypatch, group256, mode, "blind-r", zeroed)
        assert all(v for t in triples for v in reconstruct_triple(t, p))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("prefix", WIRE_TAGS)
    def test_in_range_corruption_breaks_a_triple(self, group256, monkeypatch, mode, prefix):
        # undetectable without MACs, but the shares are built from these bytes
        p = group256.p
        triples = mint_under(monkeypatch, group256, mode, prefix, shifted(p))
        products = [reconstruct_triple(t, p) for t in triples]
        assert any(c != a * b % p for a, b, c in products)


class TestExpandedBlinds:
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_every_blind_is_nonzero_in_the_tiny_group(self, tiny, mode):
        # a seed expanded mod p would give a zero blind once in 23 here; the
        # blinds expand mod p - 1 and add one, so no dispensed component is 0.
        # A single-mode a' or b' is the sum of its seeds' expansions mod p,
        # zero once in 23 here (2^-255 at 256 bits), and zero has no blind:
        # its holder aborts the mint before hop 1
        ctx = build_parties(tiny, seed=23, blinding=mode)
        if mode == "single":
            with pytest.raises(ProtocolAbort, match="zero has no blind"):
                ctx.runtime.run(ctx.dispenser.mint(300))
            assert ctx.runtime.messages_sent == 0 and not ctx.dispenser.pool
            return
        ctx.runtime.run(ctx.dispenser.mint(300))
        triples = [reconstruct_triple(t, tiny.p) for t in ctx.dispenser.pool]
        assert all(a and b and c == a * b % tiny.p for a, b, c in triples)
        assert len({a for a, _, _ in triples}) == tiny.p - 1  # every unit occurs


class TestDispenser:
    def test_mints_valid_triples_and_counts(self, group256, tmp_path):
        rt = build_runtime(seed=5)
        keys = {role: [btg.keygen(group256, rt.rng(pid))] for role, pid in BTG_PIDS.items()}
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
        ctx.runtime.run(disp.mint(6))
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

    @pytest.mark.parametrize("mode,checks", [("single", 2), ("two", 2)])
    def test_membership_tests_only_on_pinned_blinds(self, group256, monkeypatch, mode, checks):
        # one Legendre symbol per pinned secret: in single mode each holder's
        # sign decides that the a or b it pins is a square, and the session
        # does not test it again; in two mode the session draws a and b
        # itself and the chain tests the r_a and r_b it pins
        ctx = build_parties(group256, seed=14, blinding=mode)
        calls = []
        member = modmath.is_subgroup_member

        def counted(y, params):
            calls.append(y)
            return member(y, params)

        monkeypatch.setattr(modmath, "is_subgroup_member", counted)
        ctx.runtime.run(ctx.dispenser.mint(5))
        assert len(calls) == checks * 5

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_abort_after_hop_one_leaves_no_stale_blind(self, group256, monkeypatch, mode):
        # the aborted batch's blinds are delivered with hop 1 and are dropped
        # with the failed run; the next batch reads its own, or
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
            ctx.runtime.run(ctx.dispenser.mint(4))
        # single mode's blinds go to the holder of c, two mode's to the
        # holders of a and b
        receivers = [BtgRole.C] if mode == "single" else [BtgRole.A, BtgRole.B]
        for role in receivers:
            with pytest.raises(NetworkError):
                ctx.runtime.take(ctx.btg_pids[role], "blind-r:t000001")
        ctx.runtime.run(ctx.dispenser.mint(4))
        triples = list(ctx.dispenser.pool)
        assert len(triples) == 4
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_triples_pooled_before_c_prime(self, group256, mode):
        # a protocol beside the mint draws its triples after the second
        # round, when the servers hold a' and b'; c' fills in after the fourth
        ctx = build_parties(group256, seed=15, blinding=mode)
        rt, disp = ctx.runtime, ctx.dispenser
        seen = []

        def watch():
            while True:
                seen.append((rt.rounds, len(disp.pool), sum(bool(t.c_shares) for t in disp.pool)))
                if len(disp.pool) == 3:
                    return (yield from disp.take(3))
                yield

        _, triples = rt.run(disp.mint(3), watch())
        assert seen == [(0, 0, 0), (1, 0, 0), (2, 3, 0)]
        assert rt.rounds == 4 and disp.count == 3 and disp.minting == 0
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p

    def test_take_with_no_mint_in_flight_is_a_share_error(self, group256):
        ctx = build_parties(group256, seed=16)
        rt, disp = ctx.runtime, ctx.dispenser
        with pytest.raises(ShareError, match="no mint in flight"):
            rt.run(disp.take(1))
        # the mint pools 2 and ends; nothing will fill the third
        with pytest.raises(ShareError, match="no mint in flight"):
            rt.run(disp.mint(2), disp.take(3))
        assert rt.rounds == 4 and disp.count == 0 and len(disp.pool) == 2

    def test_failure_beside_a_mint_unpools_its_triples(self, group256):
        # the servers pool a' and b' in the third step; a failure beside the
        # mint in the fourth closes it, and it takes its triples back
        ctx = build_parties(group256, seed=17)
        rt, disp = ctx.runtime, ctx.dispenser

        def failing():
            for _ in range(3):
                yield
            raise ProtocolAbort("beside the mint")

        with pytest.raises(ProtocolAbort):
            rt.run(disp.mint(3), failing())
        assert not disp.pool and disp.minting == 0
        rt.run(disp.mint(2))
        assert [t.triple_id for t in disp.pool] == ["t000004", "t000005"]
        assert all(t.c_shares for t in disp.pool)

    def test_reserve_rejects_negative(self, group256):
        ctx = build_parties(group256, seed=13)
        ctx.runtime.run(ctx.dispenser.mint(0))
        assert ctx.runtime.messages_sent == 0
        with pytest.raises(ParameterError):
            ctx.runtime.run(ctx.dispenser.mint(-1))


def received_residues(runtime, pid, width):
    """Every width-byte window, at every offset, of every payload pid received."""
    return {int.from_bytes(rec.payload[i:i + width], "big")
            for rec in transcript_view(runtime, pid) if rec.dst == pid
            for i in range(len(rec.payload) - width + 1)}


@pytest.mark.parametrize("mode", ["single", "two"])
class TestServerViews:
    """What the MPC servers receive while one batch of 20 triples is dispensed."""

    @pytest.fixture
    def batch(self, group256, monkeypatch, mode):
        ctx = build_parties(group256, seed=11, record=True, blinding=mode)
        outcomes = capture_sessions(monkeypatch)
        ctx.runtime.run(ctx.dispenser.mint(20))
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
        received = {(r.src, r.dst, r.tag.split(":")[0]) for r in ctx.runtime.transcript
                    if r.dst in ctx.mpc_pids}
        assert received == shares | owner_hops

    def test_holders_of_a_and_b_send_servers_residues_in_two_mode_only(self, group256, batch,
                                                                        mode):
        # single mode deals a' and b' as seeds only: every server receives a
        # seed from each holder, and no residue; in two mode MPC_1 receives
        # each holder's 20 correction shares
        ctx, _ = batch
        for role in (BtgRole.A, BtgRole.B):
            sizes = {r.dst: len(r.payload) for r in ctx.runtime.transcript
                     if r.src == ctx.btg_pids[role] and r.dst in ctx.mpc_pids}
            first = modmath.SEED_BYTES if mode == "single" else 20 * group256.element_size
            assert sizes == {ctx.mpc_pids[0]: first, ctx.mpc_pids[1]: modmath.SEED_BYTES,
                             ctx.mpc_pids[2]: modmath.SEED_BYTES}


def assert_legendre_band(group, mode):
    """chi(a'), chi(b') and chi(a') = chi(b') over one reserve(400) each sit
    in a 5-sigma band around 200."""
    p = group.p
    ctx = build_parties(group, seed=19, blinding=mode)
    ctx.runtime.run(ctx.dispenser.mint(400))
    chis = [tuple(pow(reconstruct(shares.values(), p), (p - 1) // 2, p) == 1
                  for shares in (t.a_shares, t.b_shares)) for t in ctx.dispenser.pool]
    assert len(chis) == 400
    for count in (sum(a for a, _ in chis), sum(b for _, b in chis),
                  sum(a == b for a, b in chis)):
        assert abs(count - 200) <= 50, count


class TestSingleModeBlinds:
    """The holders of a and b each pick their own blind and send its seed
    and signs to the holder of c, so no server learns one."""

    def test_legendre_symbols_independent(self, group256):
        # a and b are squares, so one blind r on both made chi(a') = chi(b')
        # in 400 of 400
        assert_legendre_band(group256, "single")

    def test_no_server_sends_or_receives_a_blind(self, group256):
        ctx = build_parties(group256, seed=20, record=True)
        ctx.runtime.run(ctx.dispenser.mint(3))
        blinds = [(r.src, r.dst, len(r.payload)) for r in ctx.runtime.transcript
                  if r.tag.startswith("blind-r:")]
        pid_c = ctx.btg_pids[BtgRole.C]
        assert blinds == [(ctx.btg_pids[role], pid_c, modmath.SEED_BYTES + 3)
                          for role in (BtgRole.A, BtgRole.B)]

    def test_two_blinds_from_one_holder_abort(self, group256, monkeypatch):
        # the holder of c needs one blind from each holder: B's message
        # arriving as a second one from A is refused, not read as B's
        ctx = build_parties(group256, seed=24)
        pid_a, pid_b = ctx.btg_pids[BtgRole.A], ctx.btg_pids[BtgRole.B]
        send = Runtime.send

        def spoofed(self, src, dst, tag, payload):
            if src == pid_b and tag.startswith("blind-r:"):
                src = pid_a
            return send(self, src, dst, tag, payload)

        monkeypatch.setattr(Runtime, "send", spoofed)
        with pytest.raises(ShareError, match="one blind from each holder"):
            ctx.runtime.run(ctx.dispenser.mint(4))
        assert not ctx.dispenser.pool

    @pytest.mark.parametrize("role", [BtgRole.A, BtgRole.B], ids=["A", "B"])
    def test_one_holders_signs_move_c(self, group256, monkeypatch, role):
        # flipping every sign byte one holder sends the holder of c negates
        # each c'; its seed, and the other holder's message, stay
        p = group256.p
        ctx = build_parties(group256, seed=21)
        tamper_sends(monkeypatch, "blind-r:",
                     lambda payload: payload[:modmath.SEED_BYTES]
                     + bytes(1 - bit for bit in payload[modmath.SEED_BYTES:]),
                     sender=ctx.btg_pids[role])
        ctx.runtime.run(ctx.dispenser.mint(4))
        products = [reconstruct_triple(t, p) for t in ctx.dispenser.pool]
        assert len(products) == 4
        assert all(c == -a * b % p for a, b, c in products)

    @pytest.mark.parametrize("count", [1, 64, 65])
    def test_pinned_secrets_are_members_and_components_nonzero(self, group256, monkeypatch,
                                                               count):
        # the holders pin every a and b in the session, each a square
        # (Euler's criterion, not the symbol the holders used), c = a*b, and
        # no dispensed component is zero at 256 bits
        p, q = group256.p, group256.q
        ctx = build_parties(group256, seed=count)
        outcomes, pins, session = capture_sessions(monkeypatch), [], btg.triple_session

        def pinning(*args, forced=None, **kwargs):
            pins.append(forced)
            return session(*args, forced=forced, **kwargs)

        monkeypatch.setattr(btg, "triple_session", pinning)
        ctx.runtime.run(ctx.dispenser.mint(count))
        [out], [pinned] = outcomes, pins
        a, b, c = (out[role] for role in BtgRole)
        assert (pinned[BtgRole.A], pinned[BtgRole.B]) == (a, b)
        assert len(a) == len(b) == len(c) == count
        assert all(pow(v, q, p) == 1 for v in a + b)
        assert all(z == x * y % p for x, y, z in zip(a, b, c))
        for t in ctx.dispenser.pool:
            a2, b2, c2 = reconstruct_triple(t, p)
            assert a2 and b2 and c2 == a2 * b2 % p


class TestTwoModeSigns:
    """The holders of a and b draw the signs; the holder of c learns only
    their products, and no server learns any."""

    def test_legendre_symbols_independent(self, group256):
        # squares times square blinds made chi(a') = chi(b') = 1 in 400 of 400
        assert_legendre_band(group256, "two")

    def test_no_server_sends_or_receives_a_sign(self, group256):
        ctx = build_parties(group256, seed=20, record=True, blinding="two")
        ctx.runtime.run(ctx.dispenser.mint(3))
        pid_a, pid_b, pid_c = (ctx.btg_pids[role] for role in BtgRole)
        signs = [(r.src, r.dst, len(r.payload)) for r in ctx.runtime.transcript
                 if r.tag.startswith("sign-")]
        assert signs == [(pid_a, pid_b, modmath.SEED_BYTES), (pid_b, pid_c, 3)]

    def test_sign_products_move_c(self, group256, monkeypatch):
        # flipping every product the holder of c receives negates each c'
        p = group256.p
        triples = mint_under(monkeypatch, group256, "two", "sign-ab:",
                                lambda payload: bytes(1 - bit for bit in payload))
        products = [reconstruct_triple(t, p) for t in triples]
        assert all(c == -a * b % p for a, b, c in products)


class TestChunkedMints:
    """Mints whose sessions share each hop's randomness across a chunk."""

    @pytest.mark.parametrize("mode", ["single", "two"])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    def test_products(self, group256, mode, count):
        ctx = build_parties(group256, seed=count, blinding=mode)
        ctx.runtime.run(ctx.dispenser.mint(count))
        triples = [ctx.dispenser.next_triple() for _ in range(count)]
        for t in triples:
            a, b, c = reconstruct_triple(t, group256.p)
            assert c == a * b % group256.p
        assert [len(ctx.btg_keys[role]) for role in (BtgRole.A, BtgRole.C)] == \
            [min(count, btg.CHUNK)] * 2

    def test_keys_of_a_chunk_are_pairwise_distinct(self, group256):
        ctx = build_parties(group256, seed=1)
        ctx.runtime.run(ctx.dispenser.mint(btg.CHUNK + 1))
        keys_a, keys_c = (ctx.btg_keys[role] for role in (BtgRole.A, BtgRole.C))
        h_a, h_c = [k.h for k in keys_a], [k.h for k in keys_c]
        h_ac = [x * y % group256.p for x, y in zip(h_a, h_c)]
        for hs in (h_a, h_c, h_ac):
            assert len(set(hs)) == len(hs) == btg.CHUNK

    def test_keys_are_made_once_per_runtime(self, group256):
        # the first mint of 10 makes 9 + 9 key pairs, a mint of 3 none, and
        # a mint of 70 grows the lists to CHUNK: 54 + 54 more
        ctx = build_parties(group256, seed=2)
        made = []
        for n in (10, 3, 70):
            modmath.reset_modexp_count()
            ctx.runtime.run(ctx.dispenser.mint(n))
            width = min(n, btg.CHUNK)
            made.append(modmath.modexp_count() - 5 * n - 3 * -(-n // width))
        assert made == [18, 0, 108]


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
    # modexp count did not move; the single digest did not move.  Both were
    # re-pinned when the holders of a and b began to deal a' and b' beside
    # hop 2 instead of beside the c' deal: the triple-a and triple-b records
    # come two rounds earlier, after hop 2 (two mode: after sign-ab), and
    # BTG_A draws its deal seeds before its re-randomization exponent, so
    # BTG_A's hops from the first hop 3 on, the triple-a records, and what
    # BTG_A's later draws feed (BTG_B's hops, the triple-c corrections)
    # moved.  Every record kept its endpoints, tag and payload length, each
    # channel kept its order, and the modexp counts did not move.  The single
    # digest was re-pinned when the holders of a and b began to deal a' and
    # b' as seeds only and to pick their own blinds: per batch the two
    # blind-r records turned around (C -> holder became holder -> C, at the
    # same places) and grew from a 16-byte seed to the seed and one sign
    # byte per triple, and the triple-a and triple-b records to MPC_1 became
    # 16-byte seeds instead of correction shares.  Every other record kept
    # its endpoints, tag, order and payload length (420 records, 14,010 ->
    # 13,110 bytes), and the modexp count did not move; the two digest did
    # not move.
    GOLDEN = {
        "single": ("35cbfeb28798e5790af9a067d9c66512c1901f8e857b3b038e82a3a21d2bff87", 244),
        "two": ("5aa1c314a0890347607e8009ae3f673ece7ab8342b65cc72978510090f149a16", 484),
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

    # sha256 of the transcript and the modexp count of one mint of 65
    # triples: a session of two chunks, the second of one triple.  The count
    # takes in the 64 + 64 key pairs the mint makes.  Re-pinned when a' and
    # b' began to be dealt beside hop 2: their six records come two rounds
    # earlier, and BTG_A's hop 3 and triple-a records moved, since BTG_A
    # draws its deal seeds before its re-randomization exponent.  The single
    # digest was re-pinned with seeds-only a' and b': the two blind-r records
    # turned around and carry 16 + 65 bytes, and the triple-a and triple-b
    # records to MPC_1 fell from 2,080 to 16 bytes (12,851 -> 8,853 bytes in
    # the same 14 records); the modexp count did not move.
    GOLDEN_MINT_65 = {
        "single": ("34ac6ff39f29517d978f906e8f6380f6c0768cf26f441c670bb945d439577d7a", 457),
        "two": ("f56a5ed38204a829b6cd36e485571089cded8b7a976935b2ffc5a45b39a1035e", 977),
    }

    @both_backends
    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_one_mint_of_65(self, mode, modexp_backend):
        digest, modexps = self.GOLDEN_MINT_65[mode]
        ctx = build_parties(DEFAULT_GROUP_256, seed=65, record=True, blinding=mode)
        modmath.reset_modexp_count()
        ctx.runtime.run(ctx.dispenser.mint(65))
        assert hashlib.sha256(ctx.runtime.transcript_bytes()).hexdigest() == digest
        assert modmath.modexp_count() == modexps
