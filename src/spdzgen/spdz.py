"""Additive secret sharing, linear algebra on shares and Beaver
multiplication.

A share is a plain residue mod p.  The one share type, `Shares`, is a
batch of shared values held column-wise: its party set and, per party, that
party's shares of every value in value order, which is what the party puts
on the wire.  One value is a batch of one.

`deal` is the one sharing routine.  Each owner sends every other party one
message per batch of values, and several owners' batches share one round.
Every party but one gets a SEED_BYTES seed and expands its shares from it
(`modmath.expand_residues`, SHAKE-256); the one left holds the correction
shares, value - sum of the expanded shares.  An owner among the parties
keeps the correction itself; an owner outside them (a triple holder) sends
it to the first party as one message of residues.  An owner whose values
need only be uniform, not given, draws them as seeds only (`draw_seeded`):
one seed per party, and the values are whatever the expansions sum to, so
no correction travels.  Each recipient builds its shares from the bytes it
received, so a seed of the wrong length or a malformed correction aborts
and a corrupted one changes the result.  Input sharing (`share_batches`)
and the triples' dispensation (`dispense`) both deal through it.

Linear operations are elementwise, share-wise and free of communication.
An opening is the only synchronization point, and it goes to one party or
to all: every party ships its column to the one party, or to the lowest
party, which reconstructs and broadcasts the values to every party.
Multiplication consumes one dispensed triple per product:

    rho = open([x] - [a]),  eps = open([y] - [b])
    [x*y] = [c] + eps*[a] + rho*[b] + rho*eps

with the public rho*eps term added by exactly one party, the lowest party
identifier.  A Beaver batch (`beaver`, a protocol) forms every party's
column of differences, opens them all in one opening and recombines each
party's column of product shares; it needs c only for that last step.
Triples are strictly one-time-use, enforced by a spent-id ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError, ProtocolAbort, ShapeError, ShareError, TripleReuseError
from .modmath import decode_residues, draw_seed, encode_residues, expand_residues
from .net import PartyId, Protocol, Runtime

OPEN_TAG = "open"
OPEN_RESULT_TAG = "open-result"
SHARE_TAG = "share"


@dataclass(frozen=True)
class Shares:
    """A batch of shared values: per party, its shares of every value of the
    batch, in value order.  Every party holds a column, and all columns have
    one length, or the batch is a ShareError.  `x[i]` is the batch of value
    i alone and `x[i:j]` the batch of values i to j - 1."""

    parties: tuple
    columns: dict  # PartyId -> list of residues in [0, p)

    def __post_init__(self):
        for pid in self.parties:
            if pid not in self.columns:
                raise ShareError("party %s holds no share of the batch" % (pid,))
        if len({len(self.columns[pid]) for pid in self.parties}) > 1:
            raise ShareError("ragged batch: parties hold different numbers of shares")

    def __len__(self) -> int:
        return len(self.columns[self.parties[0]]) if self.parties else 0

    def __getitem__(self, index) -> "Shares":
        if not isinstance(index, slice):
            i = range(len(self))[index]
            index = slice(i, i + 1)
        return Shares(self.parties, {pid: self.columns[pid][index] for pid in self.parties})


def _check_aligned(x: Shares, y: Shares):
    """Elementwise operands: one party set and one length."""
    if x.parties != y.parties:
        raise ShareError("mismatched party sets: %s vs %s"
                         % ([str(q) for q in x.parties], [str(q) for q in y.parties]))
    if len(x) != len(y):
        raise ShapeError("batches of %d and %d values" % (len(x), len(y)))


class Seeded(NamedTuple):
    """Values dealt as seeds only: a seed per party, and the values that
    the parties' expansions sum to."""

    seeds: dict  # PartyId -> SEED_BYTES seed
    values: list


def draw_seeded(rng, parties, count: int, p: int) -> Seeded:
    """`count` values mod p for `deal` to send as seeds only: one seed per
    party from `rng`, in party order, and the sums of their expansions."""
    seeds = {pid: draw_seed(rng) for pid in parties}
    expanded = zip(*(expand_residues(seed, count, p) for seed in seeds.values()))
    return Seeded(seeds, [sum(shares) % p for shares in expanded])


def deal(runtime: Runtime, parties, batches, p: int) -> Protocol:
    """Deal several owners' batches of values, as a protocol of one round.

    `batches` lists `(owner, tag, values)`.  Each owner sends every other
    party one message under `tag`: a seed of its shares of all the values,
    or, to the party that holds the corrections, the K correction shares
    value - sum of the expanded shares.  An owner among `parties` holds the
    corrections itself and sends itself nothing, so it sends (m-1) *
    SEED_BYTES bytes; an owner outside them sends them to `parties[0]`.
    `values` that are `Seeded` (`draw_seeded`, for an owner outside
    `parties`) send each party its seed and no corrections, m * SEED_BYTES
    bytes.  One round delivers every batch, and every recipient builds its
    shares from the bytes it took off the wire.  The result holds one
    Shares per batch, over `parties` in argument order.
    """
    parties, batches = tuple(parties), list(batches)
    if len(parties) < 2:
        raise ShareError("need at least 2 parties to deal to, got %d" % len(parties))
    held = []
    for owner, tag, values in batches:
        if isinstance(values, Seeded):
            (seeds, values), keeper, columns = values, None, {}
        else:
            rng = runtime.rng(owner)
            keeper = owner if owner in parties else parties[0]
            seeds = {pid: draw_seed(rng) for pid in parties if pid != keeper}
            expanded = zip(*(expand_residues(seed, len(values), p) for seed in seeds.values()))
            correction = [(v - sum(shares)) % p for v, shares in zip(values, expanded)]
            columns = {owner: correction} if keeper == owner else {}
        for pid in parties:
            if pid != owner:
                runtime.send(owner, pid, tag, seeds[pid] if pid in seeds
                             else encode_residues(correction, p))
        held.append((keeper, len(values), columns))
    yield
    for (owner, tag, _), (keeper, count, columns) in zip(batches, held):
        for pid in parties:
            if pid != owner:
                payload = runtime.take(pid, tag).payload
                columns[pid] = (decode_residues(payload, count, p) if pid == keeper
                                else expand_residues(payload, count, p))
    return [Shares(parties, columns) for _, _, columns in held]


def share_batches(runtime: Runtime, parties, batches, p: int) -> Protocol:
    """Share several owners' secrets, as a protocol of one round.

    `batches` lists `(owner, secrets)`.  Each owner sends every party but
    one a 16-byte seed of its shares of them all; the one left, the owner
    itself when it is a party and else the first party, holds the correction
    shares (`deal`).  The batches' ids are drawn at the first step.  The
    result holds one Shares per batch, an empty one for no secrets.
    """
    parties, batches = tuple(parties), [(owner, list(secrets)) for owner, secrets in batches]
    dealt = iter((yield from deal(
        runtime, parties, [(owner, "%s:%s" % (SHARE_TAG, runtime.fresh_id("v")), secrets)
                           for owner, secrets in batches if secrets], p)))
    return [next(dealt) if secrets else Shares(parties, {pid: [] for pid in parties})
            for _, secrets in batches]


def add(x: Shares, y: Shares, p: int) -> Shares:
    _check_aligned(x, y)
    return Shares(x.parties, {pid: [(a + b) % p for a, b in zip(x.columns[pid], y.columns[pid])]
                              for pid in x.parties})


def sub(x: Shares, y: Shares, p: int) -> Shares:
    _check_aligned(x, y)
    return Shares(x.parties, {pid: [(a - b) % p for a, b in zip(x.columns[pid], y.columns[pid])]
                              for pid in x.parties})


def scale(k: int, x: Shares, p: int) -> Shares:
    return Shares(x.parties, {pid: [k * a % p for a in x.columns[pid]] for pid in x.parties})


def sums(x: Shares, width: int, p: int) -> Shares:
    """The sum of each run of `width` values, in order."""
    if width < 1 or len(x) % width:
        raise ShapeError("%d values do not split into runs of %d" % (len(x), width))
    return Shares(x.parties, {pid: [sum(x.columns[pid][i:i + width]) % p
                                    for i in range(0, len(x), width)] for pid in x.parties})


def concat(batches) -> Shares:
    """The values of a nonempty list of batches over one party set, in order."""
    party_sets = {x.parties for x in batches}
    if len(party_sets) != 1:
        raise ShareError("concatenating batches over %d party sets, not 1" % len(party_sets))
    [parties] = party_sets
    return Shares(parties, {pid: [a for x in batches for a in x.columns[pid]] for pid in parties})


def add_const(x: Shares, const: int, p: int) -> Shares:
    """Add a public constant to every value, at the lowest party's shares."""
    lowest = min(x.parties)
    columns = dict(x.columns)
    columns[lowest] = [(a + const) % p for a in columns[lowest]]
    return Shares(x.parties, columns)


def open_values(runtime: Runtime, values: Shares, p: int, to: PartyId | None = None) -> list[int]:
    """Open a batch of shared values to every party, or to the party `to`.

    Every other party sends one message carrying its column of shares to
    the collector, `to` or else the lowest party, which reconstructs the
    values.  Opened to `to`, that is all: one round, and only `to` learns
    the values.  Opened to every party, the collector broadcasts them in a
    second round; every recipient decodes the broadcast, and one that is
    malformed or differs from the collector's result aborts.  A `to` that
    holds no share of the batch, or a missing or repeated contribution, is a
    ShareError.
    """
    [opened] = runtime.run(_open(runtime, values, p, to))
    return opened


def _open(runtime: Runtime, values: Shares, p: int, to) -> Protocol:
    count = len(values)
    if not count:
        return []
    parties, columns = values.parties, values.columns
    collector = min(parties) if to is None else to
    if collector not in parties:
        raise ShareError("%s holds no share of the batch to open" % (collector,))
    batch_id = runtime.fresh_id("o")
    tag = "%s:%s" % (OPEN_TAG, batch_id)
    for pid in parties:
        if pid != collector:
            runtime.send(pid, collector, tag, encode_residues(columns[pid], p))
    own = columns[collector]
    del values, columns  # across the round, hold only the collector's column
    yield
    contributions = {collector: own}
    for msg in runtime.take_all(collector, tag):
        if msg.src in contributions:
            raise ShareError("repeated contribution from %s to an opening" % (msg.src,))
        contributions[msg.src] = decode_residues(msg.payload, count, p)
    missing = [pid for pid in parties if pid not in contributions]
    if missing:
        raise ShareError("incomplete opening, missing %s" % ", ".join(map(str, missing)))
    opened = [sum(shares) % p for shares in zip(*(contributions[pid] for pid in parties))]
    if to is not None:
        return opened
    result_blob = encode_residues(opened, p)
    result_tag = "%s:%s" % (OPEN_RESULT_TAG, batch_id)
    targets = [pid for pid in parties if pid != collector]
    for pid in targets:
        runtime.send(collector, pid, result_tag, result_blob)
    yield
    for pid in targets:
        received = decode_residues(runtime.take(pid, result_tag).payload, count, p)
        if received != opened:
            raise ProtocolAbort("%s decoded an opening that differs from %s's"
                                % (pid, collector))
    return opened


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


def beaver(runtime: Runtime, x: Shares, y: Shares, triples, p: int,
           ledger: TripleLedger) -> Protocol:
    """Multiply x and y elementwise, each product with its own fresh
    dispensed triple, as a protocol of one opening to every party (two
    rounds).

    The factors and every triple are checked at the first step, before any
    triple is spent, so a rejected batch leaves the ledger as it was and
    sends nothing.  The differences need only a' and b', so a triple whose
    c_shares are still empty, one a mint in flight has pooled before
    dealing its c' (`dispense.TripleDispenser`), is spent like any other;
    its c' must have arrived by the recombination, after the opening's
    second round, or the batch is a ShareError.
    """
    triples = list(triples)
    _check_aligned(x, y)
    if len(x) != len(triples):
        raise ParameterError("need one triple per product")
    parties = x.parties
    for t in triples:
        if tuple(t.parties) != parties:
            raise ShareError("triple %s dispensed to a different party set" % t.triple_id)
    if not triples:
        return x
    try:  # the triples' a and b columns: each party's shares
        a = {pid: [t.a_shares[pid] for t in triples] for pid in parties}
        b = {pid: [t.b_shares[pid] for t in triples] for pid in parties}
    except KeyError as exc:
        raise ShareError("party %s holds no share of a triple" % (exc.args[0],))
    for t in triples:  # empty c_shares are a c' still to come
        if t.c_shares and not all(pid in t.c_shares for pid in parties):
            raise ShareError("some party holds no share of triple %s's c" % t.triple_id)
    ledger.spend_all(t.triple_id for t in triples)
    # only the opening holds the differences, and after sending them it
    # keeps the collector's column alone
    opened = yield from _open(runtime, _differences(x, y, a, b, p), p, None)
    late = [t.triple_id for t in triples if not t.c_shares]
    if late:
        raise ShareError("the c' of triple %s never arrived" % late[0])
    c = {pid: [t.c_shares[pid] for t in triples] for pid in parties}
    rho, eps = opened[0::2], opened[1::2]
    products = {pid: [(w + e * u + r * v) % p
                      for u, v, w, r, e in zip(a[pid], b[pid], c[pid], rho, eps)]
                for pid in parties}
    lowest = min(parties)
    products[lowest] = [(v + r * e) % p for v, r, e in zip(products[lowest], rho, eps)]
    return Shares(parties, products)


def _differences(x: Shares, y: Shares, a: dict, b: dict, p: int) -> Shares:
    """Each party's column of the differences x - a' and y - b', interleaved."""
    diffs = {}
    for pid in x.parties:
        column = diffs[pid] = [0] * (2 * len(x))
        column[0::2] = [(v - w) % p for v, w in zip(x.columns[pid], a[pid])]
        column[1::2] = [(v - w) % p for v, w in zip(y.columns[pid], b[pid])]
    return Shares(x.parties, diffs)


def beaver_mult_batch(runtime: Runtime, x: Shares, y: Shares, triples, p: int,
                      ledger: TripleLedger) -> Shares:
    """`beaver` as a run of its own: x*y elementwise, in one opening."""
    [products] = runtime.run(beaver(runtime, x, y, triples, p, ledger))
    return products
