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

Batches run column-wise: a `ShareColumns` holds each party's shares of a
whole batch as one list, which is what that party puts on the wire.  A Beaver
batch builds every party's list of differences, opens them all through
`open_values`, recombines each party's list of product shares, and wraps the
products into `SharedValue`s only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispense import BeaverTripleShares, deal
from .errors import ParameterError, ProtocolAbort, ShareError, TripleReuseError
from .modmath import decode_residues, encode_residues
from .net import PartyId, Protocol, Runtime

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
            raise ShareError("party %s holds no share of this value" % (pid,))


@dataclass(frozen=True)
class ShareColumns:
    """A batch of shared values held column-wise: per party, its shares of
    every value of the batch, in value order."""

    parties: tuple
    columns: dict  # PartyId -> list of residues in [0, p)

    @classmethod
    def of(cls, values) -> "ShareColumns":
        """The columns of a list of values over one party set."""
        parties = values[0].parties if values else ()
        for v in values[1:]:
            if v.parties != parties:
                raise ShareError("batched opening across mismatched party sets")
        return cls(parties, {pid: [v.share_of(pid) for v in values] for pid in parties})

    def __len__(self) -> int:
        return len(self.columns[self.parties[0]]) if self.parties else 0

    def values(self) -> list[SharedValue]:
        parties = self.parties
        return [SharedValue(parties, dict(zip(parties, shares)))
                for shares in zip(*(self.columns[pid] for pid in parties))]


def _check_same_parties(x: SharedValue, y: SharedValue):
    if x.parties != y.parties:
        raise ShareError("mismatched party sets: %s vs %s"
                         % ([str(q) for q in x.parties], [str(q) for q in y.parties]))


def share_batches(runtime: Runtime, parties, batches, p: int) -> Protocol:
    """Share several owners' secrets, as a protocol of one round.

    `batches` lists `(owner, secrets)`.  Each owner sends every party but
    one a 16-byte seed of its shares of them all; the one left, the owner
    itself when it is a party and else the first party, holds the correction
    shares (`dispense.deal`).  The batches' ids are drawn at the first step.
    The result holds one list of SharedValues per batch.
    """
    parties, batches = tuple(parties), [(owner, list(secrets)) for owner, secrets in batches]
    dealt = iter((yield from deal(
        runtime, parties, [(owner, "%s:%s" % (SHARE_TAG, runtime.fresh_id("v")), secrets)
                           for owner, secrets in batches if secrets], p)))
    return [[SharedValue(parties, s) for s in next(dealt)] if secrets else []
            for _, secrets in batches]


def share_values(runtime: Runtime, owner: PartyId, secrets, parties,
                 p: int) -> list[SharedValue]:
    """Owner sends every other party one seed of its shares of all the
    secrets; returns one SharedValue per secret."""
    [[shared]] = runtime.run(share_batches(runtime, parties, [(owner, secrets)], p))
    return shared


def share_secret(runtime: Runtime, owner: PartyId, secret: int, parties, p: int) -> SharedValue:
    """Owner sends each other party a seed of its share of one secret."""
    return share_values(runtime, owner, [secret], parties, p)[0]


def add_local(x: SharedValue, y: SharedValue, p: int) -> SharedValue:
    _check_same_parties(x, y)
    return SharedValue(x.parties, {pid: (x.shares[pid] + y.shares[pid]) % p
                                   for pid in x.parties})


def sum_local(values, p: int) -> SharedValue:
    """Share-wise sum of a nonempty list of values over one party set."""
    first = values[0]
    for v in values[1:]:
        _check_same_parties(first, v)
    return SharedValue(first.parties, {pid: sum(v.shares[pid] for v in values) % p
                                       for pid in first.parties})


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

    `values` is a list of SharedValues or a ShareColumns batch.  Every party
    sends one message carrying its column of shares to the collector, which
    reconstructs and broadcasts the results to `recipients` (all contributing
    parties by default; pass an explicit list to reveal the values to a
    subset only).  Every recipient decodes the broadcast, and one that is
    malformed or differs from the collector's result aborts.
    """
    batch = values if isinstance(values, ShareColumns) else ShareColumns.of(list(values))
    count = len(batch)
    if not count:
        return []
    parties, columns = batch.parties, batch.columns
    if collector is None:
        collector = min(parties)
    if collector not in columns:
        raise ShareError("collector %s holds no share of the batch" % (collector,))
    batch_id = runtime.fresh_id("o")
    tag = "%s:%s" % (OPEN_TAG, batch_id)
    for pid in parties:
        if pid != collector:
            runtime.send(pid, collector, tag, encode_residues(columns[pid], p))
    runtime.pump()
    contributions = {collector: columns[collector]}
    for msg in runtime.take_all(collector, tag):
        contributions[msg.src] = decode_residues(msg.payload, count, p)
    missing = [pid for pid in parties if pid not in contributions]
    if missing:
        raise ShareError("incomplete opening, missing %s" % ", ".join(map(str, missing)))
    opened = [sum(shares) % p for shares in zip(*(contributions[pid] for pid in parties))]
    result_blob = encode_residues(opened, p)
    result_tag = "%s:%s" % (OPEN_RESULT_TAG, batch_id)
    targets = parties if recipients is None else tuple(recipients)
    for pid in targets:
        if pid != collector:
            runtime.send(collector, pid, result_tag, result_blob)
    runtime.pump()
    for pid in targets:
        if pid != collector:
            received = decode_residues(runtime.take(pid, result_tag).payload, count, p)
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

    def spend_all(self, triple_ids):
        """Spend every id, or none when any is spent or repeats."""
        triple_ids = list(triple_ids)
        seen = set()
        for tid in triple_ids:
            if tid in self._spent or tid in seen:
                raise TripleReuseError("triple %s already consumed" % tid)
            seen.add(tid)
        for tid in triple_ids:
            self.spend(tid)

    def __len__(self):
        return len(self._spent)


def beaver_mult_batch(runtime: Runtime, pairs, triples, p: int,
                      ledger: TripleLedger) -> list[SharedValue]:
    """Multiply each pair with its own fresh dispensed triple, in one opening.

    Every pair and triple is checked, and every party's differences are
    formed, before any triple is spent, so a rejected batch leaves the ledger
    as it was and sends nothing.
    """
    pairs, triples = list(pairs), list(triples)
    if len(pairs) != len(triples):
        raise ParameterError("need one triple per product")
    if not pairs:
        return []
    parties = pairs[0][0].parties
    for (x, y), t in zip(pairs, triples):
        _check_same_parties(x, y)
        if x.parties != parties:
            raise ShareError("batched product across mismatched party sets")
        if tuple(t.parties) != parties:
            raise ShareError("triple %s dispensed to a different party set" % t.triple_id)
    xs, ys = [x.shares for x, _ in pairs], [y.shares for _, y in pairs]
    a_sh = [t.a_shares for t in triples]
    b_sh = [t.b_shares for t in triples]
    c_sh = [t.c_shares for t in triples]
    diffs = {}
    try:
        for pid in parties:
            column = diffs[pid] = [0] * (2 * len(pairs))
            column[0::2] = [(x[pid] - a[pid]) % p for x, a in zip(xs, a_sh)]
            column[1::2] = [(y[pid] - b[pid]) % p for y, b in zip(ys, b_sh)]
    except KeyError as exc:
        raise ShareError("party %s holds no share of a factor or triple" % (exc.args[0],))
    ledger.spend_all(t.triple_id for t in triples)
    opened = open_values(runtime, ShareColumns(parties, diffs), p)
    rho, eps = opened[0::2], opened[1::2]
    products = {pid: [(c[pid] + e * a[pid] + r * b[pid]) % p
                      for a, b, c, r, e in zip(a_sh, b_sh, c_sh, rho, eps)]
                for pid in parties}
    lowest = min(parties)
    products[lowest] = [(v + r * e) % p for v, r, e in zip(products[lowest], rho, eps)]
    return ShareColumns(parties, products).values()


def beaver_mult(runtime: Runtime, x: SharedValue, y: SharedValue,
                triple: BeaverTripleShares, p: int, ledger: TripleLedger) -> SharedValue:
    """Multiply two shared values with one fresh dispensed triple."""
    return beaver_mult_batch(runtime, [(x, y)], [triple], p, ledger)[0]
