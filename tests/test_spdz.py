import random
from collections import Counter

import pytest
from scipy.stats import chisquare

from spdzgen import modmath, spdz
from spdzgen.dispense import BeaverTripleShares, reconstruct, split_additive
from spdzgen.errors import ProtocolAbort, ShareError, TripleReuseError
from spdzgen.net import PartyId, Runtime
from spdzgen.spdz import (
    SharedValue,
    TripleLedger,
    add_const,
    add_local,
    beaver_mult_batch,
    open_values,
    scale_local,
    sub_local,
)

from helpers import (
    beaver_mult,
    open_value,
    out_of_range,
    share_secret,
    share_values,
    shifted,
    tamper_sends,
    triple_stream,
    truncated,
)

P1, P2, P3 = (PartyId("MPC", i) for i in (1, 2, 3))
PARTIES = (P1, P2, P3)
SHARE_PREFIX = spdz.SHARE_TAG + ":"


@pytest.fixture
def rt():
    return Runtime(PARTIES, seed=0)


def make_triple(a, b, c, p, rng, triple_id="t1"):
    av = split_additive(a, 3, p, rng)
    bv = split_additive(b, 3, p, rng)
    cv = split_additive(c, 3, p, rng)
    return BeaverTripleShares(triple_id=triple_id, parties=PARTIES,
                              a_shares=dict(zip(PARTIES, av)),
                              b_shares=dict(zip(PARTIES, bv)),
                              c_shares=dict(zip(PARTIES, cv)))


class TestOpen:
    def test_split_open_roundtrip(self, rt, tiny):
        sv = share_secret(rt, P1, 7, PARTIES, tiny.p)
        assert open_value(rt, sv, tiny.p) == 7

    def test_linearity(self, rt, tiny):
        x = share_secret(rt, P1, 3, PARTIES, tiny.p)
        y = share_secret(rt, P2, 4, PARTIES, tiny.p)
        assert open_value(rt, add_local(x, y, tiny.p), tiny.p) == 7

    def test_random_roundtrips(self, rt, group256):
        rng = random.Random(1)
        for _ in range(200):
            s = rng.randrange(group256.p)
            sv = share_secret(rt, P1, s, PARTIES, group256.p)
            assert open_value(rt, sv, group256.p) == s

    def test_incomplete_opening(self, rt, tiny):
        broken = SharedValue(PARTIES, {P1: 1, P2: 2})
        with pytest.raises(ShareError):
            open_value(rt, broken, tiny.p)

    def test_collector_outside_the_party_set(self, tiny):
        rt = Runtime(PARTIES + (PartyId("MPC", 4),), seed=0)
        sv = share_secret(rt, P1, 9, PARTIES, tiny.p)
        sent = rt.messages_sent
        with pytest.raises(ShareError):
            open_value(rt, sv, tiny.p, collector=PartyId("MPC", 4))
        assert rt.messages_sent == sent

    def test_repeated_contribution_rejected(self, rt, tiny, monkeypatch):
        # a second copy of P2's contribution would overwrite the first unseen
        sv = share_secret(rt, P1, 9, PARTIES, tiny.p)
        send = Runtime.send

        def twice(self, src, dst, tag, payload):
            if tag.startswith(spdz.OPEN_TAG + ":") and src == P2:
                send(self, src, dst, tag, payload)
            return send(self, src, dst, tag, payload)

        monkeypatch.setattr(Runtime, "send", twice)
        with pytest.raises(ShareError, match="repeated contribution from MPC_2"):
            open_value(rt, sv, tiny.p)
        monkeypatch.undo()
        assert open_value(rt, sv, tiny.p) == 9

    def test_open_to_subset_only(self, rt, tiny):
        sv = share_secret(rt, P1, 9, PARTIES, tiny.p)
        open_value(rt, sv, tiny.p, collector=P2, recipients=[P2])
        results = [r for r in rt.transcript
                   if r[0] == "msg" and r[3].startswith("open-result")]
        assert results == []  # collector keeps it; no broadcast
        shares_seen = [r for r in rt.transcript
                       if r[0] == "msg" and r[3].startswith("open:")]
        assert {r[2] for r in shares_seen} == {P2}


class TestOpenDecoding:
    @pytest.mark.parametrize("tamper", [
        lambda blob: blob[:-5],                   # truncated
        lambda blob: blob + b"\x00",              # overlong
        lambda blob: (2**256 - 1).to_bytes(32, "big") + blob[32:],  # share >= p
    ], ids=["truncated", "overlong", "out-of-range"])
    def test_malformed_share_blob_aborts(self, rt, group256, monkeypatch, tamper):
        values = [share_secret(rt, P1, v, PARTIES, group256.p) for v in (11, 22)]
        tamper_sends(monkeypatch, spdz.OPEN_TAG + ":", tamper)
        with pytest.raises(ProtocolAbort):
            open_values(rt, values, group256.p)

    @pytest.mark.parametrize("mutator", [lambda p: truncated, lambda p: out_of_range, shifted],
                             ids=["truncated", "out-of-range", "shifted"])
    def test_tampered_result_broadcast_aborts(self, rt, group256, monkeypatch, mutator):
        # each recipient decodes the collector's broadcast; a malformed one
        # aborts, and so does one that differs from the collector's result
        values = [share_secret(rt, P1, v, PARTIES, group256.p) for v in (11, 22)]
        tamper_sends(monkeypatch, spdz.OPEN_RESULT_TAG + ":", mutator(group256.p))
        with pytest.raises(ProtocolAbort):
            open_values(rt, values, group256.p)


class TestSharing:
    def test_vector_in_one_message_per_party(self, rt, group256):
        values = [3, 1, 4, 1, 5]
        shared = share_values(rt, P2, values, PARTIES, group256.p)
        assert (rt.messages_sent, rt.rounds) == (2, 1)
        assert open_values(rt, shared, group256.p) == values

    def test_empty_vector_sends_nothing(self, rt, group256):
        assert share_values(rt, P1, [], PARTIES, group256.p) == []
        assert rt.messages_sent == 0

    @pytest.mark.parametrize("mutate", [truncated, out_of_range],
                             ids=["truncated", "out-of-range"])
    def test_malformed_share_payload_aborts(self, group256, monkeypatch, mutate):
        # an owner outside the parties sends P1 its correction share as a
        # residue, so out_of_range has a target there; the others get seeds
        dealer = PartyId("DEALER")
        tamper_sends(monkeypatch, SHARE_PREFIX, mutate)
        with pytest.raises(ProtocolAbort):
            share_secret(Runtime(PARTIES + (dealer,), seed=0), dealer, 7, PARTIES, group256.p)

    def test_corrupted_share_moves_the_opening(self, rt, group256, monkeypatch):
        # both recipients expand their shares from shifted seeds
        tamper_sends(monkeypatch, SHARE_PREFIX, shifted(group256.p))
        sv = share_secret(rt, P1, 7, PARTIES, group256.p)
        monkeypatch.undo()
        assert open_value(rt, sv, group256.p) != 7


class TestLocalAlgebra:
    def test_add_zero(self, rt, tiny):
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        z = share_secret(rt, P2, 0, PARTIES, tiny.p)
        assert open_value(rt, add_local(x, z, tiny.p), tiny.p) == 5

    def test_scale(self, rt, tiny):
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        assert open_value(rt, scale_local(2, x, tiny.p), tiny.p) == 10

    def test_add_sub_cancel(self, rt, group256):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.randrange(group256.p), rng.randrange(group256.p)
            x = share_secret(rt, P1, a, PARTIES, group256.p)
            y = share_secret(rt, P2, b, PARTIES, group256.p)
            z = sub_local(add_local(x, y, group256.p), y, group256.p)
            assert open_value(rt, z, group256.p) == a

    def test_mismatched_party_sets(self, rt, tiny):
        x = SharedValue((P1, P2), {P1: 1, P2: 2})
        y = SharedValue(PARTIES, {P1: 1, P2: 2, P3: 3})
        with pytest.raises(ShareError):
            add_local(x, y, tiny.p)

    def test_add_const_at_lowest_party(self, rt, tiny):
        x = share_secret(rt, P2, 5, PARTIES, tiny.p)
        y = add_const(x, 4, tiny.p)
        assert {pid: (y.shares[pid] - x.shares[pid]) % tiny.p for pid in PARTIES} \
            == {P1: 4, P2: 0, P3: 0}
        assert open_value(rt, y, tiny.p) == 9



class TestBeaverMult:
    def test_worked_example(self, rt, tiny):
        # x=5, y=7, triple (2, 3, 6): rho=3, eps=4, opens to 35 mod 23 = 12
        rng = random.Random(3)
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        y = share_secret(rt, P2, 7, PARTIES, tiny.p)
        triple = make_triple(2, 3, 6, tiny.p, rng)
        z = beaver_mult(rt, x, y, triple, tiny.p, TripleLedger())
        assert open_value(rt, z, tiny.p) == 12
        opened = [r for r in rt.transcript
                  if r[0] == "msg" and r[3].startswith("open-result")]
        w = (tiny.p.bit_length() + 7) // 8
        rho, eps = (int.from_bytes(opened[0][4][i * w:(i + 1) * w], "big") for i in (0, 1))
        assert (rho, eps) == (3, 4)

    def test_zero_annihilates(self, rt, tiny):
        rng = random.Random(4)
        x = share_secret(rt, P1, 0, PARTIES, tiny.p)
        for i in range(10):
            yv = rng.randrange(tiny.p)
            y = share_secret(rt, P2, yv, PARTIES, tiny.p)
            a, b = rng.randrange(1, 23), rng.randrange(1, 23)
            triple = make_triple(a, b, a * b % 23, tiny.p, rng, triple_id="t%d" % i)
            z = beaver_mult(rt, x, y, triple, tiny.p, TripleLedger())
            assert open_value(rt, z, tiny.p) == 0

    def test_random_products(self, rt, group256):
        rng = random.Random(5)
        p = group256.p
        ledger = TripleLedger()
        for i in range(100):
            xv, yv = rng.randrange(p), rng.randrange(p)
            x = share_secret(rt, P1, xv, PARTIES, p)
            y = share_secret(rt, P2, yv, PARTIES, p)
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            triple = make_triple(a, b, a * b % p, p, rng, triple_id="t%d" % i)
            z = beaver_mult(rt, x, y, triple, p, ledger)
            assert open_value(rt, z, p) == xv * yv % p

    def test_triple_reuse_rejected(self, rt, tiny):
        rng = random.Random(6)
        ledger = TripleLedger()
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        y = share_secret(rt, P2, 7, PARTIES, tiny.p)
        triple = make_triple(2, 3, 6, tiny.p, rng)
        beaver_mult(rt, x, y, triple, tiny.p, ledger)
        with pytest.raises(TripleReuseError):
            beaver_mult(rt, x, y, triple, tiny.p, ledger)

    def test_mismatched_triple_parties(self, rt, tiny):
        rng = random.Random(9)
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        y = share_secret(rt, P2, 7, PARTIES, tiny.p)
        triple = make_triple(2, 3, 6, tiny.p, rng)
        wrong = BeaverTripleShares(triple_id="w", parties=(P1, P2),
                                   a_shares={P1: 1, P2: 1}, b_shares={P1: 1, P2: 2},
                                   c_shares={P1: 2, P2: 4})
        ledger = TripleLedger()
        with pytest.raises(ShareError):
            beaver_mult(rt, x, y, wrong, tiny.p, ledger)
        assert len(ledger) == 0
        # one bad triple rejects the whole batch before any triple is spent
        with pytest.raises(ShareError):
            beaver_mult_batch(rt, [(x, y), (x, y)], [triple, wrong], tiny.p, ledger)
        assert len(ledger) == 0

    def test_opened_rho_uniform_with_blinded_triples(self, tiny):
        # with the single-randomness blinding, a' = r*a is uniform over Z*_p,
        # so for fixed x the opening rho = x - a' is uniform over Z_p \ {x}
        rt = Runtime(PARTIES, seed=1, record=False)
        rng = random.Random(10)
        xv = 5
        tally = Counter()
        ledger = TripleLedger()
        x = share_secret(rt, P1, xv, PARTIES, tiny.p)
        y = share_secret(rt, P2, 7, PARTIES, tiny.p)
        for i in range(10_000):
            a = modmath.random_subgroup_element(tiny, rng)
            b = modmath.random_subgroup_element(tiny, rng)
            r = rng.randrange(1, tiny.p)
            triple = make_triple(r * a % 23, r * b % 23, r * r * a * b % 23,
                                 tiny.p, rng, triple_id="u%d" % i)
            a_share = SharedValue(triple.parties, triple.a_shares)
            rho = open_value(rt, sub_local(x, a_share, tiny.p), tiny.p)
            ledger.spend(triple.triple_id)
            tally[rho] += 1
        support = [v for v in range(23) if v != xv]
        assert tally[xv] == 0
        observed = [tally.get(v, 0) for v in support]
        assert chisquare(observed).pvalue > 0.001


class TestColumnarBatch:
    @pytest.mark.parametrize("m", [3, 5])
    def test_products_and_one_public_term(self, group256, m):
        # every party's product share is c + eps*a + rho*b, and only the
        # lowest party adds rho*eps
        p, rng = group256.p, random.Random(12 + m)
        parties = tuple(PartyId("MPC", i) for i in range(1, m + 1))
        rt = Runtime(parties, seed=m)
        triples = triple_stream(p, parties, rng)
        plain = [(rng.randrange(p), rng.randrange(p)) for _ in range(6)]
        pairs = [(share_secret(rt, parties[0], xv, parties, p),
                  share_secret(rt, parties[-1], yv, parties, p)) for xv, yv in plain]
        used = [next(triples) for _ in pairs]
        products = beaver_mult_batch(rt, pairs, used, p, TripleLedger())
        assert open_values(rt, products, p) == [xv * yv % p for xv, yv in plain]
        for (x, y), t, z in zip(pairs, used, products):
            rho = reconstruct((x.shares[q] - t.a_shares[q] for q in parties), p)
            eps = reconstruct((y.shares[q] - t.b_shares[q] for q in parties), p)
            for q in parties:
                public = rho * eps if q == parties[0] else 0
                assert z.shares[q] == (t.c_shares[q] + eps * t.a_shares[q]
                                       + rho * t.b_shares[q] + public) % p

    @pytest.mark.parametrize("fault", ["factor-parties", "triple-parties", "missing-share",
                                       "spent-id", "repeated-id"])
    def test_rejected_at_last_pair_spends_and_sends_nothing(self, rt, group256, fault):
        p, rng = group256.p, random.Random(13)
        pairs = [(share_secret(rt, P1, v, PARTIES, p), share_secret(rt, P2, v, PARTIES, p))
                 for v in (2, 3, 4)]
        triples = [t for t, _ in zip(triple_stream(p, PARTIES, rng), pairs)]
        ledger = TripleLedger()
        expected = ShareError
        if fault == "factor-parties":
            pairs[-1] = (pairs[-1][0], SharedValue((P1, P2), {P1: 1, P2: 2}))
        elif fault == "triple-parties":
            triples[-1] = next(triple_stream(p, (P1, P2), rng, prefix="w"))
        elif fault == "missing-share":
            pairs[-1] = (SharedValue(PARTIES, {P1: 1, P2: 2}), pairs[-1][1])
        elif fault == "spent-id":
            ledger.spend(triples[-1].triple_id)
            expected = TripleReuseError
        else:
            triples[-1] = triples[0]
            expected = TripleReuseError
        spent, sent = len(ledger), rt.messages_sent
        with pytest.raises(expected):
            beaver_mult_batch(rt, pairs, triples, p, ledger)
        assert (len(ledger), rt.messages_sent) == (spent, sent)


class TestBatchedOpen:
    def test_batch_matches_singles(self, rt, group256):
        rng = random.Random(11)
        values = [rng.randrange(group256.p) for _ in range(5)]
        shared = [share_secret(rt, P1, v, PARTIES, group256.p) for v in values]
        assert open_values(rt, shared, group256.p) == values

    def test_reconstruct_oracle_matches_open(self, rt, tiny):
        sv = share_secret(rt, P3, 13, PARTIES, tiny.p)
        assert reconstruct(sv.shares.values(), tiny.p) == open_value(rt, sv, tiny.p) == 13
