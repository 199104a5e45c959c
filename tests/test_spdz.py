import itertools
import random
from collections import Counter

import pytest
from scipy.stats import chisquare

from spdzgen import modmath, spdz
from spdzgen.dispense import BeaverTripleShares, reconstruct, split_additive
from spdzgen.errors import ParameterError, ProtocolAbort, ShapeError, ShareError, TripleReuseError
from spdzgen.net import PartyId, Runtime
from spdzgen.spdz import (
    Shares,
    TripleLedger,
    add,
    add_const,
    beaver_mult_batch,
    concat,
    open_values,
    scale,
    sub,
    sums,
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
        assert open_value(rt, add(x, y, tiny.p), tiny.p) == 7

    def test_random_roundtrips(self, rt, group256):
        rng = random.Random(1)
        for _ in range(200):
            s = rng.randrange(group256.p)
            sv = share_secret(rt, P1, s, PARTIES, group256.p)
            assert open_value(rt, sv, group256.p) == s

    def test_incomplete_opening(self, rt, tiny):
        # a batch without P3's shares cannot even be built
        with pytest.raises(ShareError):
            open_value(rt, Shares(PARTIES, {P1: [1], P2: [2]}), tiny.p)
        assert rt.messages_sent == 0

    def test_collector_outside_the_party_set(self, tiny):
        rt = Runtime(PARTIES + (PartyId("MPC", 4),), seed=0)
        sv = share_secret(rt, P1, 9, PARTIES, tiny.p)
        sent = rt.messages_sent
        with pytest.raises(ShareError):
            open_value(rt, sv, tiny.p, to=PartyId("MPC", 4))
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
        assert open_value(rt, sv, tiny.p, to=P2) == 9
        results = [r for r in rt.transcript if r.tag.startswith("open-result")]
        assert results == []  # P2 keeps it; no broadcast
        shares_seen = [r for r in rt.transcript if r.tag.startswith("open:")]
        assert {r.dst for r in shares_seen} == {P2}


class TestOpenDecoding:
    @pytest.mark.parametrize("tamper", [
        lambda blob: blob[:-5],                   # truncated
        lambda blob: blob + b"\x00",              # overlong
        lambda blob: (2**256 - 1).to_bytes(32, "big") + blob[32:],  # share >= p
    ], ids=["truncated", "overlong", "out-of-range"])
    def test_malformed_share_blob_aborts(self, rt, group256, monkeypatch, tamper):
        values = concat([share_secret(rt, P1, v, PARTIES, group256.p) for v in (11, 22)])
        tamper_sends(monkeypatch, spdz.OPEN_TAG + ":", tamper)
        with pytest.raises(ProtocolAbort):
            open_values(rt, values, group256.p)

    @pytest.mark.parametrize("mutator", [lambda p: truncated, lambda p: out_of_range, shifted],
                             ids=["truncated", "out-of-range", "shifted"])
    def test_tampered_result_broadcast_aborts(self, rt, group256, monkeypatch, mutator):
        # each recipient decodes the collector's broadcast; a malformed one
        # aborts, and so does one that differs from the collector's result
        values = concat([share_secret(rt, P1, v, PARTIES, group256.p) for v in (11, 22)])
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
        empty = share_values(rt, P1, [], PARTIES, group256.p)
        assert (len(empty), empty.parties) == (0, PARTIES)
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
        assert open_value(rt, add(x, z, tiny.p), tiny.p) == 5

    def test_scale(self, rt, tiny):
        x = share_secret(rt, P1, 5, PARTIES, tiny.p)
        assert open_value(rt, scale(2, x, tiny.p), tiny.p) == 10

    def test_add_sub_cancel(self, rt, group256):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.randrange(group256.p), rng.randrange(group256.p)
            x = share_secret(rt, P1, a, PARTIES, group256.p)
            y = share_secret(rt, P2, b, PARTIES, group256.p)
            z = sub(add(x, y, group256.p), y, group256.p)
            assert open_value(rt, z, group256.p) == a

    def test_mismatched_party_sets(self, rt, tiny):
        # elementwise operands need one party set and one length, and each
        # fault raises before anything is sent.  concat joins batches of any
        # lengths, so its length fault is a ragged part, whose parties hold
        # different numbers of shares: a batch that Shares refuses as it is
        # built
        p = tiny.p
        x = share_values(rt, P1, [1, 2], PARTIES, p)
        short = share_values(rt, P2, [3], PARTIES, p)
        ops = {"add": lambda y: add(x, y, p), "sub": lambda y: sub(x, y, p),
               "concat": lambda y: concat([x, y])}
        faults = {"parties": (lambda: Shares((P1, P2), {P1: [1, 2], P2: [2, 3]}), ShareError),
                  "length": (lambda: short, ShapeError)}
        sent = rt.messages_sent
        for op, run in ops.items():
            for fault, (part, expected) in faults.items():
                if (op, fault) == ("concat", "length"):
                    part, expected = (lambda: Shares(PARTIES, {P1: [3, 4], P2: [5], P3: [6]}),
                                      ShareError)
                with pytest.raises(expected):
                    run(part())
        assert rt.messages_sent == sent

    def test_sums_and_indexing(self, rt, tiny):
        p = tiny.p
        x = share_values(rt, P1, [1, 2, 3, 4, 5, 6], PARTIES, p)
        assert open_values(rt, sums(x, 3, p), p) == [6, 15]
        assert open_values(rt, sums(x, 1, p), p) == [1, 2, 3, 4, 5, 6]
        assert open_values(rt, concat([x[4], x[1:3], x[-1]]), p) == [5, 2, 3, 6]
        assert (len(x[6:]), x[6:].parties) == (0, PARTIES)
        with pytest.raises(IndexError):
            x[6]
        for width in (0, 4):
            with pytest.raises(ShapeError):
                sums(x, width, p)
        with pytest.raises(ShareError):  # no batch, so no party set
            concat([])

    def test_add_const_at_lowest_party(self, rt, tiny):
        x = share_secret(rt, P2, 5, PARTIES, tiny.p)
        y = add_const(x, 4, tiny.p)
        assert {pid: (y.columns[pid][0] - x.columns[pid][0]) % tiny.p for pid in PARTIES} \
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
        opened = [r for r in rt.transcript if r.tag.startswith("open-result")]
        w = (tiny.p.bit_length() + 7) // 8
        rho, eps = (int.from_bytes(opened[0].payload[i * w:(i + 1) * w], "big") for i in (0, 1))
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
            beaver_mult_batch(rt, concat([x, x]), concat([y, y]), [triple, wrong], tiny.p, ledger)
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
            a_share = Shares(triple.parties, {q: [a] for q, a in triple.a_shares.items()})
            rho = open_value(rt, sub(x, a_share, tiny.p), tiny.p)
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
        x = share_values(rt, parties[0], [xv for xv, _ in plain], parties, p)
        y = share_values(rt, parties[-1], [yv for _, yv in plain], parties, p)
        used = [next(triples) for _ in plain]
        products = beaver_mult_batch(rt, x, y, used, p, TripleLedger())
        assert open_values(rt, products, p) == [xv * yv % p for xv, yv in plain]
        for i, t in enumerate(used):
            rho = reconstruct((x.columns[q][i] - t.a_shares[q] for q in parties), p)
            eps = reconstruct((y.columns[q][i] - t.b_shares[q] for q in parties), p)
            for q in parties:
                public = rho * eps if q == parties[0] else 0
                assert products.columns[q][i] == (t.c_shares[q] + eps * t.a_shares[q]
                                                  + rho * t.b_shares[q] + public) % p

    @pytest.mark.parametrize("fault", ["factor-parties", "factor-length", "triple-parties",
                                       "triple-count", "missing-share", "triple-missing-share",
                                       "spent-id", "repeated-id"])
    def test_rejected_at_last_pair_spends_and_sends_nothing(self, rt, group256, fault):
        # a missing factor share is refused as its batch is built; zip would
        # silently drop the tail of a longer factor, so lengths must match
        p, rng = group256.p, random.Random(13)
        x = share_values(rt, P1, [2, 3, 4], PARTIES, p)
        y = share_values(rt, P2, [2, 3, 4], PARTIES, p)
        triples = [next(triple_stream(p, PARTIES, rng, prefix="t%d-" % i)) for i in range(3)]
        ledger = TripleLedger()
        factors = {"factor-parties": lambda: (x, Shares((P1, P2), {P1: [1, 2, 3], P2: [2, 3, 4]})),
                   "factor-length": lambda: (x, y[:2]),
                   "missing-share": lambda: (Shares(PARTIES, {P1: [1, 2, 3], P2: [2, 3, 4]}), y),
                   }.get(fault, lambda: (x, y))
        expected = {"factor-length": ShapeError, "triple-count": ParameterError,
                    "spent-id": TripleReuseError, "repeated-id": TripleReuseError}.get(
                        fault, ShareError)
        if fault == "triple-parties":
            triples[-1] = next(triple_stream(p, (P1, P2), rng, prefix="w"))
        elif fault == "triple-count":
            triples = triples[:2]
        elif fault == "triple-missing-share":
            t = triples[-1]
            triples[-1] = BeaverTripleShares(t.triple_id, t.parties, t.a_shares, t.b_shares,
                                             {P1: t.c_shares[P1], P2: t.c_shares[P2]})
        elif fault == "spent-id":
            ledger.spend(triples[-1].triple_id)
        elif fault == "repeated-id":
            triples[-1] = triples[0]
        spent, sent = len(ledger), rt.messages_sent
        with pytest.raises(expected):
            beaver_mult_batch(rt, *factors(), triples, p, ledger)
        assert (len(ledger), rt.messages_sent) == (spent, sent)

    def test_a_c_that_never_arrives_is_a_share_error(self, rt, group256):
        # empty c_shares are a c' that a mint in flight has yet to deal: the
        # batch spends and opens, and fails at the recombination if it is
        # still missing, instead of waiting for it
        p, rng = group256.p, random.Random(14)
        x = share_values(rt, P1, [2, 3], PARTIES, p)
        y = share_values(rt, P2, [4, 5], PARTIES, p)
        stream = triple_stream(p, PARTIES, rng)
        first, t = next(stream), next(stream)
        late = BeaverTripleShares(t.triple_id, t.parties, t.a_shares, t.b_shares, {})
        ledger, rounds = TripleLedger(), rt.rounds
        with pytest.raises(ShareError, match="never arrived"):
            beaver_mult_batch(rt, x, y, [first, late], p, ledger)
        assert (len(ledger), rt.rounds - rounds) == (2, 2)


class TestOwnedBatch:
    # factors that one party each holds in the clear: a' collapses onto x's
    # owner and b' onto y's, the owners swap rho = x - a' and eps = y - b',
    # and no other party receives a message
    @pytest.mark.parametrize("m", [3, 4])
    def test_products_and_collapsed_shares(self, group256, m):
        p, rng = group256.p, random.Random(20 + m)
        parties = tuple(PartyId("MPC", i) for i in range(1, m + 1))
        rt = Runtime(parties, seed=m)
        xo, yo = parties[1], parties[0]  # x's owner adds rho*eps, lowest or not
        plain = [(rng.randrange(p), rng.randrange(p)) for _ in range(5)]
        x = spdz.Owned(xo, [xv for xv, _ in plain])
        y = spdz.Owned(yo, [yv for _, yv in plain])
        used = list(itertools.islice(triple_stream(p, parties, rng), len(plain)))
        ledger, rounds = TripleLedger(), rt.rounds
        products = beaver_mult_batch(rt, x, y, used, p, ledger)
        sent = rt.transcript
        assert (len(ledger), rt.rounds - rounds) == (5, 2)
        assert len(sent) == 2 * (m - 1) + 2
        assert {r.dst for r in sent} == {xo, yo}
        for i, t in enumerate(used):
            a, b = (reconstruct(shares.values(), p) for shares in (t.a_shares, t.b_shares))
            rho, eps = (plain[i][0] - a) % p, (plain[i][1] - b) % p
            want = {q: t.c_shares[q] for q in parties}
            want[xo] = (want[xo] + eps * a + rho * eps) % p
            want[yo] = (want[yo] + rho * b) % p
            assert {q: products.columns[q][i] for q in parties} == want
        assert open_values(rt, products, p) == [xv * yv % p for xv, yv in plain]

    @pytest.mark.parametrize("fault", ["one-owner", "owner-outside", "mixed"])
    def test_rejected_before_any_triple(self, rt, group256, fault):
        p, rng = group256.p, random.Random(21)
        triples = list(itertools.islice(triple_stream(p, PARTIES, rng), 2))
        x, y = spdz.Owned(P1, [2, 3]), spdz.Owned(P2, [4, 5])
        factors = {"one-owner": (x, spdz.Owned(P1, [4, 5])),
                   "owner-outside": (x, spdz.Owned(PartyId("MPC", 9), [4, 5])),
                   "mixed": (x, share_values(rt, P2, [4, 5], PARTIES, p))}[fault]
        ledger, sent = TripleLedger(), rt.messages_sent
        with pytest.raises(ShareError):
            beaver_mult_batch(rt, *factors, triples, p, ledger)
        assert (len(ledger), rt.messages_sent) == (0, sent)


class TestBatchedOpen:
    def test_batch_matches_singles(self, rt, group256):
        rng = random.Random(11)
        values = [rng.randrange(group256.p) for _ in range(5)]
        shared = [share_secret(rt, P1, v, PARTIES, group256.p) for v in values]
        assert open_values(rt, concat(shared), group256.p) == values

    def test_reconstruct_oracle_matches_open(self, rt, tiny):
        sv = share_secret(rt, P3, 13, PARTIES, tiny.p)
        assert reconstruct((col[0] for col in sv.columns.values()), tiny.p) \
            == open_value(rt, sv, tiny.p) == 13
