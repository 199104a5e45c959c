import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from spdzgen import btg, modmath
from spdzgen.btg import BtgRole
from spdzgen.dispense import (
    BlindFactor,
    TripleDispenser,
    blinded_triple,
    dispense_blind_single,
    dispense_blind_two,
    reconstruct,
    select_committee_leader,
    split_additive,
)
from spdzgen.errors import BlindFactorError, SelectionError, ShareError
from spdzgen.gwas import build_parties
from spdzgen.modmath import DEFAULT_GROUP_256
from spdzgen.net import PartyId, Runtime

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
        assert reconstruct(shares, 23, expected_len=m) == secret

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

    def test_wrong_length(self, tiny):
        with pytest.raises(ShareError):
            reconstruct([1, 2], tiny.p, expected_len=3)

    def test_empty(self, tiny):
        with pytest.raises(ShareError):
            reconstruct([], tiny.p)


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


class TestBlindFactorArithmetic:
    def test_single_example(self, tiny):
        bf = BlindFactor.single(5, tiny.p)
        a2, b2, c2 = blinded_triple(2, 3, 6, bf, tiny.p)
        assert (a2, b2, c2) == (10, 15, 12)
        assert a2 * b2 % 23 == c2

    def test_two_example(self, tiny):
        bf = BlindFactor.two(5, 7, tiny.p)
        assert bf.r_c == 35 % 23 == 12
        a2, b2, c2 = blinded_triple(2, 3, 6, bf, tiny.p)
        assert (a2, b2, c2) == (10, 21, 3)
        assert a2 * b2 % 23 == c2

    def test_identity_blind(self, tiny):
        bf = BlindFactor.single(1, tiny.p)
        assert blinded_triple(2, 3, 6, bf, tiny.p) == (2, 3, 6)

    def test_zero_blind_rejected(self, tiny):
        with pytest.raises(BlindFactorError):
            BlindFactor.single(0, tiny.p)
        with pytest.raises(BlindFactorError):
            BlindFactor.two(23, 5, tiny.p)

    def test_inconsistent_two_randomness(self, tiny):
        with pytest.raises(BlindFactorError):
            BlindFactor(r_a=5, r_b=7, r_c=11).check(tiny.p)

    def test_invariant_random(self, group256):
        rng = random.Random(6)
        p = group256.p
        for _ in range(1000):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            bf = BlindFactor.two(rng.randrange(1, p), rng.randrange(1, p), p)
            a2, b2, c2 = blinded_triple(a, b, a * b % p, bf, p)
            assert c2 == a2 * b2 % p

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


def run_btg(rt, params, seed=0, forced=None):
    keys = {role: btg.keygen(params, random.Random("%s-%s" % (seed, role.value)))
            for role in BtgRole}
    return keys, btg.run_triple_session(rt, params, keys, BTG_PIDS, forced=forced)


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
            _, out = run_btg(rt, group256, seed=i)
            triple = dispense_blind_single(rt, group256, out, BTG_PIDS, MPC,
                                           ox=MPC[0], oy=MPC[1], leader=MPC[2],
                                           triple_id="t%d" % i)
            a2, b2, c2 = reconstruct_triple(triple, p)
            assert c2 == a2 * b2 % p

    def test_identity_blind_dispenses_raw_triple(self, group256):
        rt = build_runtime(seed=1)
        _, out = run_btg(rt, group256, seed=1, forced={BtgRole.A: 4, BtgRole.B: 9})
        triple = dispense_blind_single(rt, group256, out, BTG_PIDS, MPC,
                                       ox=MPC[0], oy=MPC[1], leader=MPC[2],
                                       triple_id="t", forced_r=1)
        assert reconstruct_triple(triple, group256.p) == (4, 9, 36)

    def test_zero_blind_rejected(self, group256):
        rt = build_runtime(seed=2)
        _, out = run_btg(rt, group256, seed=2)
        with pytest.raises(BlindFactorError):
            dispense_blind_single(rt, group256, out, BTG_PIDS, MPC,
                                  ox=MPC[0], oy=MPC[1], leader=MPC[2],
                                  triple_id="t", forced_r=0)

    def test_two_randomness_invariant(self, group256):
        rt = build_runtime(seed=3)
        p = group256.p
        owner_keys = {pid: btg.keygen(group256, rt.rng(pid)) for pid in MPC}
        for i in range(10):
            keys, out = run_btg(rt, group256, seed="two%d" % i)
            triple = dispense_blind_two(rt, group256, out, BTG_PIDS, MPC,
                                        ox=MPC[0], oy=MPC[1], leader=MPC[2],
                                        triple_id="t%d" % i, keys=owner_keys)
            a2, b2, c2 = reconstruct_triple(triple, p)
            assert c2 == a2 * b2 % p

    def test_share_messages_on_private_channels(self, group256):
        # every share record travels point-to-point from its dealer
        rt = build_runtime(seed=4)
        _, out = run_btg(rt, group256, seed=4)
        dispense_blind_single(rt, group256, out, BTG_PIDS, MPC,
                              ox=MPC[0], oy=MPC[1], leader=MPC[2], triple_id="tx")
        a_msgs = [r for r in rt.transcript
                  if r[0] == "msg" and r[3].startswith("triple-a:")]
        assert {r[1] for r in a_msgs} == {BTG_PIDS[BtgRole.A]}
        assert {r[2] for r in a_msgs} == set(MPC)


class TestDispenser:
    def test_mints_valid_triples_and_counts(self, group256, tmp_path):
        rt = build_runtime(seed=5)
        keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
        ledger_file = tmp_path / "ledger.jsonl"
        disp = TripleDispenser(rt, group256, BTG_PIDS, keys, MPC,
                               ox=MPC[0], oy=MPC[1], ledger_path=ledger_file)
        assert disp.leader == MPC[2]  # only committee candidate at m=3
        triples = [disp.next_triple() for _ in range(5)]
        assert disp.count == 5
        for t in triples:
            a2, b2, c2 = reconstruct_triple(t, group256.p)
            assert c2 == a2 * b2 % group256.p
        ids = {t.triple_id for t in triples}
        assert len(ids) == 5
        lines = [json.loads(line) for line in ledger_file.read_text().splitlines()]
        assert [ln["triple_id"] for ln in lines] == [t.triple_id for t in triples]

    def test_records_serialize_decimal(self, group256):
        rt = build_runtime(seed=6)
        keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
        disp = TripleDispenser(rt, group256, BTG_PIDS, keys, MPC, ox=MPC[0], oy=MPC[1])
        records = disp.next_triple().to_records()
        assert len(records) == 3
        assert all(set(r) == {"triple_id", "party", "a", "b", "c"} for r in records)
        assert all(r["a"].isdigit() for r in records)


class TestGoldenTranscript:
    # sha256 of the transcript and the modexp count after 30 triples, pinned
    # from the arithmetic before fixed-base tables and Jacobi membership: any
    # change to the group arithmetic must leave both exactly as they were.
    @pytest.mark.parametrize("mode,digest,modexps", [
        ("single", "e31b868eae3b701f2cc593de554a3d501fee9028a49276bbcb58b2a3ab3ccdc3", 306),
        ("two", "4edf3a55da18f9f38cfc33e1cf7e890fdd12f5981d57f553cd0d7a26bb7db2fd", 606),
    ])
    def test_thirty_triples(self, mode, digest, modexps):
        modmath.reset_modexp_count()
        ctx = build_parties(DEFAULT_GROUP_256, seed=7, record=True, blinding=mode)
        for _ in range(30):
            ctx.dispenser.next_triple()
        assert hashlib.sha256(ctx.runtime.transcript_bytes()).hexdigest() == digest
        assert modmath.modexp_count() == modexps
