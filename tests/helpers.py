"""Shared test utilities: one-value sharing, opening and products as
batches of one, fixed-point decoding, manufactured triples for field-level
unit tests, a fault injector that rewrites payloads on their way into the
network, per-party transcript views for privacy scans, and recorders of the
messages each truncation sends and of the values its mask owner opens."""

import itertools
from fractions import Fraction

import pytest

from spdzgen import fixpt, spdz
from spdzgen.dispense import BeaverTripleShares, split_additive
from spdzgen.modmath import SEED_BYTES, signed_decode
from spdzgen.net import Runtime

# Runs a test once on the modexp backend modmath loaded and once on builtin
# pow (the `modexp_backend` fixture in conftest.py).  Applied outermost, it
# appends the backend to the test id.
both_backends = pytest.mark.parametrize("modexp_backend", ["loaded", "pow"], indirect=True)


def share_values(runtime, owner, secrets, parties, p):
    """Owner shares a list of secrets in one run of `spdz.share_batches`:
    one `spdz.Shares` batch."""
    [[shared]] = runtime.run(spdz.share_batches(runtime, parties, [(owner, secrets)], p))
    return shared


def share_secret(runtime, owner, secret, parties, p):
    """A batch of the one value `secret`."""
    return share_values(runtime, owner, [secret], parties, p)


def open_value(runtime, value, p, **kwargs):
    """Open a batch of one value."""
    [opened] = spdz.open_values(runtime, value, p, **kwargs)
    return opened


def beaver_mult(runtime, x, y, triple, p, ledger):
    return spdz.beaver_mult_batch(runtime, x, y, [triple], p, ledger)


def fp_decode(y, params):
    """The rational a fixed-point field element encodes."""
    return Fraction(signed_decode(y, params.p), 2 ** params.f)


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


def tamper_sends(monkeypatch, prefix, mutate, sender=None):
    """Pass every payload whose tag starts with `prefix`, and that `sender`
    sends when given, through `mutate` before `Runtime.send` queues it;
    monkeypatch undoes it after the test."""
    send = Runtime.send

    def tampered(self, src, dst, tag, payload):
        if tag.startswith(prefix) and sender in (None, src):
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
    residue plus one, mod p.  A payload that is not whole w-byte residues
    leads with a seed (a single-mode blind seed with its sign bytes), and
    its seed is shifted."""
    w = (p.bit_length() + 7) // 8

    def mutate(payload):
        if len(payload) == SEED_BYTES or len(payload) % w:
            seed = (int.from_bytes(payload[:SEED_BYTES], "big") + 1) % 2 ** (8 * SEED_BYTES)
            return seed.to_bytes(SEED_BYTES, "big") + payload[SEED_BYTES:]
        return ((int.from_bytes(payload[:w], "big") + 1) % p).to_bytes(w, "big") + payload[w:]
    return mutate


def transcript_view(runtime, pid):
    """The delivered messages that pid sent or received, in send order."""
    return [rec for rec in runtime.transcript if pid in (rec.src, rec.dst)]


def record_truncations(monkeypatch):
    """Wrap `fixpt.trunc` so that each call appends the runtime and the
    messages its opening added to the transcript (the runtime must
    record); returns the list that collects them."""
    calls, trunc = [], fixpt.trunc

    def recording(runtime, *args, **kwargs):
        start = len(runtime.transcript)
        out = trunc(runtime, *args, **kwargs)
        calls.append((runtime, runtime.transcript[start:]))
        return out

    monkeypatch.setattr(fixpt, "trunc", recording)
    return calls


def record_masked_openings(monkeypatch):
    """Wrap `spdz.open_values` so that each opening to one party appends the
    values it opened; a truncation's is c = r + z', which never travels as
    a whole, since the mask owner adds its own share.  Returns the list."""
    opened, open_values = [], spdz.open_values

    def recording(runtime, values, p, to=None):
        out = open_values(runtime, values, p, to=to)
        if to is not None:
            opened.extend(out)
        return out

    monkeypatch.setattr(spdz, "open_values", recording)
    return opened


def assert_only_received_by(calls, receiver, others):
    """Every recorded truncation sent messages, all of them to `receiver`,
    and none of them reached any party in `others`."""
    assert calls
    for runtime, sent in calls:
        assert sent and all(r.dst == receiver for r in sent)
        for pid in others:
            received = [r for r in runtime.transcript if r.dst == pid]
            assert not any(r in sent for r in received)
