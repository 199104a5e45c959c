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
Openings, and the swap of an owned Beaver batch, are the only
synchronization points.  An opening goes to one party or to all: every
party ships its column to the one party, or to the lowest party, which
reconstructs and broadcasts the values to every party.  Opened to the
owner of a factor, a triple's mask collapses onto that owner, which then
holds it in the clear (an owned batch, below).
Multiplication consumes one dispensed triple per product:

    rho = open([x] - [a]),  eps = open([y] - [b])
    [x*y] = [c] + eps*[a] + rho*[b] + rho*eps

with the public rho*eps term added by exactly one party.  A Beaver batch
(`beaver`, a protocol) of shared factors forms every party's column of
differences, opens them all to every party in one opening, and has the
lowest party add rho*eps.  A batch of owned factors (`Owned`: values that
one party holds in the clear, x's owner and y's owner distinct) opens no
difference to every party.  Every other party opens its a' shares to x's
owner and its b' shares to y's owner, two openings to one party in one
round, which collapses a' onto x's owner and b' onto y's owner; then x's
owner sends rho = x - a' to y's owner and y's owner sends eps = y - b' to
x's owner, in a second round.  The same formula recombines over the
collapsed a' and b', with x's owner adding rho*eps, and every other party
keeps its share of c and receives nothing.  That is Beaver's commodity
multiplication ("Commodity-Based Cryptography", STOC 1997) on a plain
shared triple.  Either way the batch needs c only for the recombination.
Triples are strictly one-time-use, enforced by a spent-id ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError, ProtocolAbort, ShapeError, ShareError, TripleReuseError
from .modmath import decode_residues, draw_seed, encode_residues, expand_residues
from .net import PartyId, Protocol, Runtime, lockstep

OPEN_TAG = "open"
OPEN_RESULT_TAG = "open-result"
SHARE_TAG = "share"
SWAP_TAG = "swap"


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


@dataclass(frozen=True)
class Owned:
    """A batch of values that one party, their owner, holds in the clear: a
    Beaver factor that needs no party's shares (`beaver`)."""

    owner: PartyId
    values: list

    def __len__(self) -> int:
        return len(self.values)


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


def _open(runtime: Runtime, values: Shares, p: int, to, batch_id: str | None = None) -> Protocol:
    """`open_values` as a protocol, under a fresh batch id or `batch_id`."""
    count = len(values)
    if not count:
        return []
    parties, columns = values.parties, values.columns
    collector = min(parties) if to is None else to
    if collector not in parties:
        raise ShareError("%s holds no share of the batch to open" % (collector,))
    batch_id = batch_id or runtime.fresh_id("o")
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


def beaver(runtime: Runtime, x, y, triples, p: int, ledger: TripleLedger) -> Protocol:
    """Multiply x and y elementwise, each product with its own fresh
    dispensed triple, as a protocol of two rounds.

    x and y are both Shares, whose differences x - a' and y - b' open to
    every party, or both Owned by two distinct parties of the triples,
    whose a' and b' open to x's owner and y's owner and whose differences
    those two swap (`_swap`).  The factors and every triple are checked at
    the first step, before any triple is spent, so a rejected batch leaves
    the ledger as it was and sends nothing.  The differences need only a'
    and b', so a triple whose c_shares are still empty, one a mint in
    flight has pooled before dealing its c' (`dispense.TripleDispenser`),
    is spent like any other; its c' must have arrived by the recombination,
    after the second round, or the batch is a ShareError.
    """
    triples = list(triples)
    owned = isinstance(x, Owned)
    if owned != isinstance(y, Owned):
        raise ShareError("one factor is owned and the other shared")
    if owned:
        if len(x) != len(y):
            raise ShapeError("batches of %d and %d values" % (len(x), len(y)))
        parties = tuple(triples[0].parties) if triples else ()
    else:
        _check_aligned(x, y)
        parties = x.parties
    if len(x) != len(triples):
        raise ParameterError("need one triple per product")
    for t in triples:
        if tuple(t.parties) != parties:
            raise ShareError("triple %s dispensed to a different party set" % t.triple_id)
    if owned:
        if x.owner == y.owner:
            raise ShareError("both factors are %s's; owned factors need two owners" % (x.owner,))
        for owner in (x.owner, y.owner):
            if owner not in parties:
                raise ShareError("owner %s holds no share of the triples" % (owner,))
    if not triples:
        return Shares(parties, {pid: [] for pid in parties})
    try:  # the triples' a and b columns: each party's shares
        a = {pid: [t.a_shares[pid] for t in triples] for pid in parties}
        b = {pid: [t.b_shares[pid] for t in triples] for pid in parties}
    except KeyError as exc:
        raise ShareError("party %s holds no share of a triple" % (exc.args[0],))
    for t in triples:  # empty c_shares are a c' still to come
        if t.c_shares and not all(pid in t.c_shares for pid in parties):
            raise ShareError("some party holds no share of triple %s's c" % t.triple_id)
    ledger.spend_all(t.triple_id for t in triples)
    if owned:
        a, b, views = yield from _swap(runtime, x, y, Shares(parties, a), Shares(parties, b), p)
        adder = x.owner
    else:
        # only the opening holds the differences, and after sending them it
        # keeps the collector's column alone
        opened = yield from _open(runtime, _differences(x, y, a, b, p), p, None)
        views = dict.fromkeys(parties, (opened[0::2], opened[1::2]))
        adder = min(parties)
    late = [t.triple_id for t in triples if not t.c_shares]
    if late:
        raise ShareError("the c' of triple %s never arrived" % late[0])
    c = {pid: [t.c_shares[pid] for t in triples] for pid in parties}
    return Shares(parties, _recombine(a, b, c, views, adder, p))


def _differences(x: Shares, y: Shares, a: dict, b: dict, p: int) -> Shares:
    """Each party's column of the differences x - a' and y - b', interleaved."""
    diffs = {}
    for pid in x.parties:
        column = diffs[pid] = [0] * (2 * len(x))
        column[0::2] = [(v - w) % p for v, w in zip(x.columns[pid], a[pid])]
        column[1::2] = [(v - w) % p for v, w in zip(y.columns[pid], b[pid])]
    return Shares(x.parties, diffs)


def _swap(runtime: Runtime, x: Owned, y: Owned, a: Shares, b: Shares, p: int) -> Protocol:
    """The differences of owned factors, as a protocol of two rounds.

    First the other parties open a' to x's owner and b' to y's owner, both
    openings under one batch id.  Then x's owner sends rho = x - a' to y's
    owner and y's owner sends eps = y - b' to x's owner, under the swap tag.
    Returns the two owners' columns of the collapsed a' and b' (all of a'
    at x's owner and none at y's, and the reverse for b') and their
    (rho, eps), each as that owner computed or received them.
    """
    batch_id = runtime.fresh_id("o")
    a_held, b_held = yield from lockstep(_open(runtime, a, p, x.owner, batch_id),
                                         _open(runtime, b, p, y.owner, batch_id))
    tag = "%s:%s" % (SWAP_TAG, batch_id)
    rho = [(v - w) % p for v, w in zip(x.values, a_held)]
    eps = [(v - w) % p for v, w in zip(y.values, b_held)]
    runtime.send(x.owner, y.owner, tag, encode_residues(rho, p))
    runtime.send(y.owner, x.owner, tag, encode_residues(eps, p))
    yield
    count, zeros = len(rho), [0] * len(rho)
    views = {x.owner: (rho, decode_residues(runtime.take(x.owner, tag).payload, count, p)),
             y.owner: (decode_residues(runtime.take(y.owner, tag).payload, count, p), eps)}
    return {x.owner: a_held, y.owner: zeros}, {x.owner: zeros, y.owner: b_held}, views


def _recombine(a: dict, b: dict, c: dict, views: dict, adder: PartyId, p: int) -> dict:
    """Each party's column of product shares [c] + eps*[a] + rho*[b], with
    rho*eps added at `adder`.  `views` holds the (rho, eps) of each party
    that learned the differences, and `a` and `b` hold their columns; a
    party with none holds zero shares of a' and b' and keeps its shares of
    c."""
    products = {}
    for pid, column in c.items():
        if pid not in views:
            products[pid] = column
            continue
        rho, eps = views[pid]
        products[pid] = [(w + e * u + r * v) % p
                         for u, v, w, r, e in zip(a[pid], b[pid], column, rho, eps)]
    rho, eps = views[adder]
    products[adder] = [(v + r * e) % p for v, r, e in zip(products[adder], rho, eps)]
    return products


def beaver_mult_batch(runtime: Runtime, x, y, triples, p: int, ledger: TripleLedger) -> Shares:
    """`beaver` as a run of its own: x*y elementwise, in two rounds."""
    [products] = runtime.run(beaver(runtime, x, y, triples, p, ledger))
    return products
