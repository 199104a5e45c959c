"""Linear algebra on additive shares and Beaver multiplication.

Shares are plain residues mod p, and a shared value is its party set and one
share per party, with no name; linear operations are share-wise and free of
communication.  An opening is the only synchronization point: every party
ships its share to a collector, which reconstructs and (optionally)
broadcasts.  Multiplication consumes one dispensed triple per product:

    rho = open([x] - [a]),  eps = open([y] - [b])
    [x*y] = [c] + eps*[a] + rho*[b] + rho*eps

with the public rho*eps term added by exactly one party, the lowest party
identifier.  Triples are strictly one-time-use, enforced by a spent-id
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispense import BeaverTripleShares, deal
from .errors import ParameterError, ProtocolAbort, ShareError, TripleReuseError
from .modmath import decode_residues, encode_residues
from .net import PartyId, Runtime

OPEN_TAG = "open"
OPEN_RESULT_TAG = "open-result"
SHARE_TAG = "share"


@dataclass(frozen=True)
class SharedValue:
    parties: tuple
    shares: dict  # PartyId -> residue in [0, p)

    def share_of(self, pid: PartyId) -> int:
        try:
            return self.shares[pid]
        except KeyError:
            raise ShareError("party %s holds no share of this value" % pid)


def _check_same_parties(x: SharedValue, y: SharedValue):
    if x.parties != y.parties:
        raise ShareError("mismatched party sets: %s vs %s"
                         % ([str(q) for q in x.parties], [str(q) for q in y.parties]))


def share_values(runtime: Runtime, owner: PartyId, secrets, parties,
                 p: int) -> list[SharedValue]:
    """Owner splits each secret and sends every other party one message of
    its shares of them all; returns one SharedValue per secret."""
    parties, secrets = tuple(parties), list(secrets)
    if not secrets:
        return []
    tag = "%s:%s" % (SHARE_TAG, runtime.fresh_id("v"))
    return [SharedValue(parties, s) for s in deal(runtime, owner, parties, tag, secrets, p)]


def share_secret(runtime: Runtime, owner: PartyId, secret: int, parties, p: int) -> SharedValue:
    """Owner splits a secret and delivers one share to each other party."""
    return share_values(runtime, owner, [secret], parties, p)[0]


def add_local(x: SharedValue, y: SharedValue, p: int) -> SharedValue:
    _check_same_parties(x, y)
    return SharedValue(x.parties, {pid: (x.shares[pid] + y.shares[pid]) % p
                                   for pid in x.parties})


def sub_local(x: SharedValue, y: SharedValue, p: int) -> SharedValue:
    _check_same_parties(x, y)
    return SharedValue(x.parties, {pid: (x.shares[pid] - y.shares[pid]) % p
                                   for pid in x.parties})


def scale_local(k: int, x: SharedValue, p: int) -> SharedValue:
    return SharedValue(x.parties, {pid: k * x.shares[pid] % p for pid in x.parties})


def add_const(x: SharedValue, const: int, p: int) -> SharedValue:
    """Add a public constant at the lowest party's share."""
    lowest = min(x.parties)
    shares = dict(x.shares)
    shares[lowest] = (shares[lowest] + const) % p
    return SharedValue(x.parties, shares)


def open_values(runtime: Runtime, values, p: int,
                collector: PartyId | None = None,
                recipients=None) -> list[int]:
    """Open a batch of shared values through the runtime.

    Every party sends one message carrying its share of each value to the
    collector, which reconstructs and broadcasts the results to `recipients`
    (all contributing parties by default; pass an explicit list to reveal the
    values to a subset only).  Every recipient decodes the broadcast, and one
    that is malformed or differs from the collector's result aborts.
    """
    values = list(values)
    if not values:
        return []
    parties = values[0].parties
    for v in values[1:]:
        if v.parties != parties:
            raise ShareError("batched opening across mismatched party sets")
    if collector is None:
        collector = min(parties)
    batch_id = runtime.fresh_id("o")
    tag = "%s:%s" % (OPEN_TAG, batch_id)
    for pid in parties:
        if pid != collector:
            runtime.send(pid, collector, tag,
                         encode_residues([v.share_of(pid) for v in values], p))
    runtime.pump()
    contributions = {collector: [v.share_of(collector) for v in values]}
    for msg in runtime.take_all(collector, tag):
        contributions[msg.src] = decode_residues(msg.payload, len(values), p)
    missing = [pid for pid in parties if pid not in contributions]
    if missing:
        raise ShareError("incomplete opening, missing %s" % ", ".join(map(str, missing)))
    opened = [sum(contributions[pid][i] for pid in parties) % p for i in range(len(values))]
    result_blob = encode_residues(opened, p)
    result_tag = "%s:%s" % (OPEN_RESULT_TAG, batch_id)
    targets = parties if recipients is None else tuple(recipients)
    for pid in targets:
        if pid != collector:
            runtime.send(collector, pid, result_tag, result_blob)
    runtime.pump()
    for pid in targets:
        if pid != collector:
            received = decode_residues(runtime.take(pid, result_tag).payload, len(values), p)
            if received != opened:
                raise ProtocolAbort("%s decoded an opening that differs from %s's"
                                    % (pid, collector))
    return opened


def open_value(runtime: Runtime, value: SharedValue, p: int,
               collector: PartyId | None = None, recipients=None) -> int:
    return open_values(runtime, [value], p, collector=collector, recipients=recipients)[0]


class TripleLedger:
    """Spent-set keyed by triple id."""

    def __init__(self):
        self._spent = set()

    def spend(self, triple_id: str):
        if triple_id in self._spent:
            raise TripleReuseError("triple %s already consumed" % triple_id)
        self._spent.add(triple_id)

    def __len__(self):
        return len(self._spent)


def beaver_mult_batch(runtime: Runtime, pairs, triples, p: int,
                      ledger: TripleLedger) -> list[SharedValue]:
    """Multiply each pair with its own fresh dispensed triple, in one opening.

    Every pair and triple is checked before any triple is spent, so a
    rejected batch leaves the ledger as it was.
    """
    pairs, triples = list(pairs), list(triples)
    if len(pairs) != len(triples):
        raise ParameterError("need one triple per product")
    if not pairs:
        return []
    parties = pairs[0][0].parties
    lowest = min(parties)
    for (x, y), t in zip(pairs, triples):
        _check_same_parties(x, y)
        if x.parties != parties:
            raise ShareError("batched product across mismatched party sets")
        if tuple(t.parties) != parties:
            raise ShareError("triple %s dispensed to a different party set" % t.triple_id)
    diffs = []
    for (x, y), t in zip(pairs, triples):
        ledger.spend(t.triple_id)
        diffs.append(SharedValue(parties, {pid: (x.shares[pid] - t.a_shares[pid]) % p
                                           for pid in parties}))
        diffs.append(SharedValue(parties, {pid: (y.shares[pid] - t.b_shares[pid]) % p
                                           for pid in parties}))
    opened = open_values(runtime, diffs, p)
    results = []
    for i, t in enumerate(triples):
        rho, eps = opened[2 * i], opened[2 * i + 1]
        shares = {pid: (t.c_shares[pid] + eps * t.a_shares[pid] + rho * t.b_shares[pid]) % p
                  for pid in parties}
        shares[lowest] = (shares[lowest] + rho * eps) % p
        results.append(SharedValue(parties, shares))
    return results


def beaver_mult(runtime: Runtime, x: SharedValue, y: SharedValue,
                triple: BeaverTripleShares, p: int, ledger: TripleLedger) -> SharedValue:
    """Multiply two shared values with one fresh dispensed triple."""
    return beaver_mult_batch(runtime, [(x, y)], [triple], p, ledger)[0]
