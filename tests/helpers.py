"""Shared test utilities: one-value sharing, opening and products over the
batch forms, manufactured triples for field-level unit tests, a fault
injector that rewrites payloads on their way into the network, and a
recorder of the messages each truncation sends."""

import itertools

import pytest

from spdzgen import fixpt, spdz
from spdzgen.dispense import BeaverTripleShares, split_additive
from spdzgen.modmath import SEED_BYTES
from spdzgen.net import Runtime

# Runs a test once on the modexp backend modmath loaded and once on builtin
# pow (the `modexp_backend` fixture in conftest.py).  Applied outermost, it
# appends the backend to the test id.
both_backends = pytest.mark.parametrize("modexp_backend", ["loaded", "pow"], indirect=True)


def share_values(runtime, owner, secrets, parties, p):
    """Owner shares a list of secrets in one run of `spdz.share_batches`."""
    [[shared]] = runtime.run(spdz.share_batches(runtime, parties, [(owner, secrets)], p))
    return shared


def share_secret(runtime, owner, secret, parties, p):
    return share_values(runtime, owner, [secret], parties, p)[0]


def open_value(runtime, value, p, **kwargs):
    return spdz.open_values(runtime, [value], p, **kwargs)[0]


def beaver_mult(runtime, x, y, triple, p, ledger):
    return spdz.beaver_mult_batch(runtime, [(x, y)], [triple], p, ledger)[0]


def make_triple(a, b, c, p, parties, rng, triple_id):
    return BeaverTripleShares(
        triple_id=triple_id,
        parties=tuple(parties),
        a_shares=dict(zip(parties, split_additive(a, len(parties), p, rng))),
        b_shares=dict(zip(parties, split_additive(b, len(parties), p, rng))),
        c_shares=dict(zip(parties, split_additive(c, len(parties), p, rng))),
    )


def triple_stream(p, parties, rng, prefix="ts"):
    """Endless valid random triples; a stand-in for the dispensation layer."""
    for i in itertools.count():
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        yield make_triple(a, b, a * b % p, p, parties, rng, "%s%d" % (prefix, i))


def tamper_sends(monkeypatch, prefix, mutate):
    """Pass every payload whose tag starts with `prefix` through `mutate`
    before `Runtime.send` queues it; monkeypatch undoes it after the test."""
    send = Runtime.send

    def tampered(self, src, dst, tag, payload):
        if tag.startswith(prefix):
            payload = mutate(payload)
        return send(self, src, dst, tag, payload)

    monkeypatch.setattr(Runtime, "send", tampered)


def truncated(payload):
    return payload[:-1]


def out_of_range(payload):
    """Every residue becomes 0xff..ff, which is >= p."""
    return b"\xff" * len(payload)


def zeroed(payload):
    return bytes(len(payload))


def shifted(p):
    """An in-range corruption: a seed plus one, or else the payload's first
    residue plus one, mod p."""
    w = (p.bit_length() + 7) // 8

    def mutate(payload):
        if len(payload) == SEED_BYTES:
            return ((int.from_bytes(payload, "big") + 1) % 2 ** (8 * SEED_BYTES)).to_bytes(
                SEED_BYTES, "big")
        return ((int.from_bytes(payload[:w], "big") + 1) % p).to_bytes(w, "big") + payload[w:]
    return mutate


def record_truncations(monkeypatch):
    """Wrap `fixpt.trunc` so that each call appends the runtime and the
    message records its opening added to the transcript (the runtime must
    record); returns the list that collects them."""
    calls, trunc = [], fixpt.trunc

    def recording(runtime, *args, **kwargs):
        start = len(runtime.transcript)
        out = trunc(runtime, *args, **kwargs)
        calls.append((runtime, [r for r in runtime.transcript[start:] if r[0] == "msg"]))
        return out

    monkeypatch.setattr(fixpt, "trunc", recording)
    return calls


def assert_only_received_by(calls, receiver, others):
    """Every recorded truncation sent messages, all of them to `receiver`,
    and none of them is in the view of any party in `others`."""
    assert calls
    for runtime, sent in calls:
        assert sent and all(r[2] == receiver for r in sent)
        for pid in others:
            received = [r for r in runtime.transcript_view(pid) if r[0] == "msg" and r[2] == pid]
            assert not any(r in sent for r in received)
