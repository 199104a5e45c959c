import hashlib
import math

import pytest

from spdzgen import btg, mhkm
from spdzgen.btg import BtgMessage
from spdzgen.errors import ParameterError, ProtocolAbort
from spdzgen.mhkm import key_product
from spdzgen.modmath import DEFAULT_GROUP_256
from spdzgen.net import PartyId, Runtime

from helpers import both_backends, transcript_view


def chain(n, params, seed=0, factors=None, record=True, count=1):
    """Runtime, ordered party ids and key-product shares of one n-party chain."""
    pids = [PartyId("KM", i) for i in range(1, n + 1)]
    rt = Runtime(pids, seed=seed, record=record)
    keys = {pid: btg.keygen(params, rt.rng(pid)) for pid in pids}
    [shares] = rt.run(key_product(rt, params, pids, keys, factors, count))
    return rt, pids, shares


class TestPlan:
    def test_session_counts(self, tiny, monkeypatch):
        # n - 2 sessions, the last one delivering to the last party
        original = btg.triple_session
        for n in (3, 5, 8):
            calls = []

            def counted(*args, **kwargs):
                calls.append(kwargs["pids"])
                return original(*args, **kwargs)

            monkeypatch.setattr(mhkm.btg, "triple_session", counted)
            _, pids, _ = chain(n, tiny)
            assert len(calls) == n - 2
            assert calls[-1][btg.BtgRole.C] == pids[-1]

    def test_two_parties_rejected(self, tiny):
        with pytest.raises(ParameterError):
            chain(2, tiny)


class TestRun:
    def test_forced_base_case(self, tiny):
        _, pids, shares = chain(3, tiny, factors={PartyId("KM", 1): [6], PartyId("KM", 2): [4]})
        assert shares[pids[0]] == [6]
        assert shares[pids[1]] == [4]
        assert shares[pids[2]] == [24 % 23] == [1]

    def test_identity_chain(self, tiny):
        ones = {PartyId("KM", i): [1] for i in range(1, 5)}
        _, pids, shares = chain(5, tiny, factors=ones)
        assert all(shares[pid] == [1] for pid in pids)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_product_invariant_random(self, n, group256):
        for seed in range(5):
            _, pids, shares = chain(n, group256, seed=seed, record=False)
            product = math.prod(shares[pid][0] for pid in pids[:-1]) % group256.p
            assert shares[pids[-1]] == [product]

    @pytest.mark.parametrize("n", [3, 5])
    def test_batched_chain_one_session_per_hop(self, n, group256):
        # K products ride the same n - 2 sessions: as many messages as K = 1
        rt, pids, shares = chain(n, group256, seed=("batch", n), count=4)
        assert all(len(shares[pid]) == 4 for pid in pids)
        for k in range(4):
            product = math.prod(shares[pid][k] for pid in pids[:-1]) % group256.p
            assert shares[pids[-1]][k] == product
        assert rt.messages_sent == 3 * (n - 2)

    def test_non_member_factor_aborts(self, tiny):
        # 5 is not a square mod 23; the first session rejects it before sending
        pids = [PartyId("KM", i) for i in range(1, 4)]
        rt = Runtime(pids, seed=0)
        keys = {pid: btg.keygen(tiny, rt.rng(pid)) for pid in pids}
        with pytest.raises(ProtocolAbort, match="session 0"):
            rt.run(key_product(rt, tiny, pids, keys, {pids[0]: [5], pids[1]: [4]}))
        assert rt.messages_sent == 0

    def test_factor_count_must_match(self, tiny):
        with pytest.raises(ParameterError):
            chain(3, tiny, factors={PartyId("KM", 1): [6, 2]}, count=1)

    def test_session_failure_aborts_with_index(self, tiny, monkeypatch):
        calls = {"n": 0}
        original = btg.triple_session

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return original(*args, **kwargs)

        monkeypatch.setattr(mhkm.btg, "triple_session", flaky)
        with pytest.raises(ProtocolAbort, match="session 1"):
            chain(5, tiny)


# sha256 of the chain transcript, pinned from the descriptor-plan
# implementation that key_product replaced: the forward loop must send the
# same bytes in the same order, on either modexp backend.  Re-pinned when
# sessions stopped sending a done ack and records lost their sequence
# numbers, and again when drawn factors became squares s^2 instead of g^t;
# the messages kept their senders, recipients, tags and lengths.
CHAIN_GOLDEN = {
    3: "38becbb790cd0beeb932b2568b7e66aac31b6ccd83d38bc8a03b00556c9e430e",
    5: "6fe0e8fede79c5bba20f71d3dbbd1f4f93610645d40e1b1962d2aed2f4a902e7",
}


@both_backends
@pytest.mark.parametrize("n", [3, 5])
def test_chain_transcript_golden(n, modexp_backend):
    rt, _, _ = chain(n, DEFAULT_GROUP_256, seed=("golden", n))
    assert hashlib.sha256(rt.transcript_bytes()).hexdigest() == CHAIN_GOLDEN[n]


class TestPrivacy:
    def test_no_share_in_any_payload(self, group256):
        rt, _, shares = chain(5, group256, seed=21)
        share_values = {v for values in shares.values() for v in values}
        for rec in rt.transcript:
            # only protocol ciphertexts cross the wire
            assert rec.tag == btg.BTG_TAG
            [ct] = BtgMessage.parse(rec.payload, group256).chunks
            assert ct.u not in share_values
            assert not share_values.intersection(ct.vs)

    def test_views_confined_to_own_sessions(self, group256):
        # party 2 contributes once at the base, as role A, which sends the
        # step-1 and step-3 messages of that single session and nothing else
        rt, pids, _ = chain(4, group256, seed=5)
        pid2 = pids[1]
        outbound = [r for r in transcript_view(rt, pid2) if r.src == pid2]
        assert len(outbound) == 2
        assert all(r.tag == btg.BTG_TAG for r in outbound)
