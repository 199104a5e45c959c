"""Additive secret sharing and blind dispensation of Beaver triples.

`deal` is the one sharing routine.  Each owner sends every other party one
message per batch of values, and several owners' batches share one round.
Every party but one gets a SEED_BYTES seed and expands its shares from it
(`modmath.expand_residues`, SHAKE-256); the one left holds the correction
shares, value - sum of the expanded shares.  An owner among the parties
keeps the correction itself; an owner outside them (a triple holder) sends
it to the first party as one message of residues.  Each recipient builds its
shares from the bytes it received, so a seed of the wrong length or a
malformed correction aborts and a corrupted one changes the result.  Input
sharing (`spdz`) and the dispensation below both deal through it.

A generated triple (a, b, c) never reaches the MPC servers raw: each triple
holder scales its own component by a blind factor, then splits the scaled
values additively across the m servers.  Two blinding variants are supported:

  single-randomness:  a' = ra*a,  b' = rb*b,  c' = ra*rb*c
  two-randomness:     a' = sa*ra*a,  b' = sb*rb*b,  c' = sa*sb*rc*c
                      with rc = ra*rb and random signs sa, sb

Either way c' = a' * b' mod p, so the blinded shares are valid triples, and
the multiplication openings downstream reveal nothing useful to the triple
holders, who know only the unblinded values.  No MPC server receives a
triple component, raw or blinded.

Blinds travel as seeds too.  In the single-randomness variant the holder of
c sends the holders of a and b one seed each, and each blind is
r = 1 + (x mod (p-1)) for an expanded x, so it is nonzero by construction
and within 2^-64 of uniform over Z_p^*: no server learns a blind, so to each
server a' and b' are independent and uniform over Z_p^*.  (A server that knew
the blind of the squares a and b would know the Legendre symbol of a', and
each opening x - a' would tell it a bit of x.)  In the two-randomness variant
O_x and O_y each send a seed, and the holder squares s = 1 + (x mod (p-1)), a
uniform subgroup blind; rc reaches the holder of c as an mHKM key product
(`mhkm.key_product`), so it learns neither owner blind.  The blinds and a
and b are all squares, so the holders add signs: the holder of a expands
its signs sa from a seed it sends the holder of b, which draws its own signs
sb and sends the holder of c their products sa*sb, one byte per triple.  -1
is a non-residue (p = 3 mod 4), so a' and b' are then uniform over Z_p^*, and
no server learns a sign.

Dispensation runs the K triples of one BTG session at once, and sends each
message as soon as nothing it depends on is missing.  The blind seeds (and
the two-mode sign seed) do not depend on the session, so they go out before
it and ride its first hop's round.  In two mode r_a and r_b are known
before the session starts, so the `r_c` key product runs beside it in
lockstep (`net.lockstep`), and B's sign products ride their second round.
The three holders deal in one round.  A batch costs four rounds in either
mode: hop 1 and the blinds | hop 2 | hop 3 | all shares, with the key
product's hops beside the session's in two mode.  Dispensations are
protocols (`net.Runtime.run`), so the run of a batch that aborts drops all
it left.  Blinds, signs, shares and the key product's hops carry the
batch's first triple id in their tags, which keep lockstep messages apart
(the key product's last hop and the session's both reach the holder of c
in the third round) and keep transcripts byte-identical.
`TripleDispenser` keeps the dispensed triples in a FIFO pool: `mint(n)` is
the protocol that mints n of them with one dispensation, `reserve(n)` runs
it alone, and `next_triple` hands them out in order.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass

from . import btg, mhkm, modmath
from .btg import BTG_TAG, BtgRole
from .errors import BlindFactorError, ParameterError, SelectionError, ShareError
from .modmath import GroupParams
from .net import PartyId, Protocol, Runtime, lockstep


def split_additive(secret: int, m: int, p: int, rng: random.Random) -> list[int]:
    """m shares summing to secret mod p; all but the first drawn uniformly.

    Nothing in the protocol deals with it any more (`deal` sends seeds); it
    stays for the benchmark's stand-in dealer of online triples.
    """
    if m < 2:
        raise ShareError("need at least 2 parties to split, got %d" % m)
    tail = [rng.randrange(p) for _ in range(m - 1)]
    head = (secret - sum(tail)) % p
    return [head] + tail


def _seed(rng: random.Random) -> bytes:
    """A fresh PRG seed drawn from a sender's generator."""
    return rng.getrandbits(8 * modmath.SEED_BYTES).to_bytes(modmath.SEED_BYTES, "big")


def deal(runtime: Runtime, parties, batches, p: int) -> Protocol:
    """Deal several owners' batches of values, as a protocol of one round.

    `batches` lists `(owner, tag, values)`.  Each owner sends every other
    party one message under `tag`: a seed of its shares of all the values,
    or, to the party that holds the corrections, the K correction shares
    value - sum of the expanded shares.  An owner among `parties` holds the
    corrections itself, and then sends (m-1) * SEED_BYTES bytes; an owner
    outside them sends them to `parties[0]`.  One round delivers every
    batch, and every recipient builds its shares from the bytes it took off
    the wire.  The result holds, per batch, one PartyId -> share map per
    value.
    """
    parties, batches = list(parties), list(batches)
    if len(parties) < 2:
        raise ShareError("need at least 2 parties to deal to, got %d" % len(parties))
    held = []
    for owner, tag, values in batches:
        rng = runtime.rng(owner)
        keeper = owner if owner in parties else parties[0]
        seeds = {pid: _seed(rng) for pid in parties if pid != keeper}
        expanded = zip(*(modmath.expand_residues(seed, len(values), p) for seed in seeds.values()))
        correction = [(v - sum(shares)) % p for v, shares in zip(values, expanded)]
        for pid in parties:
            if pid == owner:
                runtime.note(owner, "kept local %s share" % tag)
            else:
                runtime.send(owner, pid, tag, seeds[pid] if pid in seeds
                             else modmath.encode_residues(correction, p))
        held.append((keeper, {owner: correction} if keeper == owner else {}))
    yield
    for (owner, tag, values), (keeper, columns) in zip(batches, held):
        for pid in parties:
            if pid != owner:
                payload = runtime.take(pid, tag).payload
                columns[pid] = (modmath.decode_residues(payload, len(values), p) if pid == keeper
                                else modmath.expand_residues(payload, len(values), p))
    return [[dict(zip(parties, shares)) for shares in zip(*(columns[pid] for pid in parties))]
            for _, columns in held]


def reconstruct(shares, p: int) -> int:
    """Sum of a complete share vector mod p."""
    values = list(shares)
    if any(v is None for v in values):
        raise ShareError("share vector has missing entries")
    if not values:
        raise ShareError("empty share vector")
    return sum(values) % p


def select_committee_leader(candidates, seed: bytes) -> PartyId:
    """Seeded-hash selection: hash(seed | id) over sorted ids, pick the max.

    Deterministic for a fixed (candidates, seed) pair and uniform over the
    candidates as the seed varies.
    """
    pool = sorted(candidates, key=str)
    if not pool:
        raise SelectionError("no committee candidates")
    return max(pool, key=lambda pid: hashlib.sha256(seed + str(pid).encode()).digest())


@dataclass(frozen=True)
class BeaverTripleShares:
    triple_id: str
    parties: tuple
    a_shares: dict
    b_shares: dict
    c_shares: dict


TRIPLE_TAGS = {BtgRole.A: "triple-a", BtgRole.B: "triple-b", BtgRole.C: "triple-c"}
BLIND_TAG = "blind-r"
SIGN_TAG = "sign-a"
SIGN_PRODUCT_TAG = "sign-ab"


def dispense_blind_single(runtime: Runtime, params: GroupParams, btg_keys: dict,
                          btg_pids: dict, mpc_pids, triple_ids) -> Protocol:
    """Single-randomness dispensation of one session of K triples, as a
    protocol of 4 rounds whose result lists the triples.

    One party, the holder of c, picks the randomness: one seed each for the
    holders of a and b, which expand to independent blinds r_a and r_b in
    [1, p) per triple, and its own c scaled by r_a*r_b.  No MPC server
    learns a blind.
    """
    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids)


def dispense_blind_two(runtime: Runtime, params: GroupParams, btg_keys: dict,
                       btg_pids: dict, mpc_pids, ox: PartyId, oy: PartyId,
                       triple_ids, keys: dict) -> Protocol:
    """Two-randomness dispensation, as a protocol of 4 rounds whose result
    lists the triples: r_c = r_a * r_b as an mHKM key product beside the
    session.

    O_x and O_y send the holders of a and b one seed each, which expands to
    subgroup blinds r_a and r_b per triple; the owners know their blinds
    before the session starts, so one `mhkm.key_product` of K products over
    (O_y, O_x, holder of c) runs beside it and delivers every r_c to the
    holder of c, so no single owner knows both blinds.  The holders of a and
    b add random signs, and the holder of c learns only their products.
    `keys` maps PartyId -> KeyPair for O_x and the holder of c.
    """
    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids,
                     owners=(ox, oy), keys=keys)


def _blinds(seed: bytes, count: int, p: int, square: bool) -> list[int]:
    """The K blinds a seed expands to: s = 1 + (x mod (p-1)), nonzero by
    construction, or s^2, a uniform subgroup element."""
    roots = [1 + x for x in modmath.expand_residues(seed, count, p - 1)]
    return [s * s % p for s in roots] if square else roots


def _signed(values, signs, p: int) -> list[int]:
    """Each value negated mod p where its sign bit is set."""
    return [-v % p if sign else v for v, sign in zip(values, signs)]


def _dispense(runtime: Runtime, params: GroupParams, btg_keys: dict, btg_pids: dict,
              mpc_pids, triple_ids, owners=None, keys=None) -> Protocol:
    """One batch end to end, as a protocol; `owners` = (O_x, O_y) selects
    two-randomness mode, whose key product runs over `keys`.

    The blind senders (the holder of c, or O_x and O_y) send one seed each to
    the holders of a and b before the session, so the seeds ride its first
    hop's round; in two mode the holder of a sends its sign seed with them.
    In two mode the key product, which gives the holder of c its K blinds,
    runs beside the session, and the holder of b sends the sign products in
    their second round.  The three holders deal their K blinded components
    in one round.  Seeds, signs, shares and the key product's hops are
    tagged with the batch's first triple id, which keeps them apart from
    the messages of any protocol beside the batch.  Each party draws from
    its own generator in protocol order: the seeds, then its session
    secrets, then B's signs.
    """
    triple_ids = list(triple_ids)
    if not triple_ids:
        raise ParameterError("a batch dispenses at least one triple")
    p, count, first = params.p, len(triple_ids), triple_ids[0]
    pid_a, pid_b, pid_c = (btg_pids[role] for role in BtgRole)
    two = owners is not None
    senders = owners if two else (pid_c, pid_c)
    seeds = [_seed(runtime.rng(src)) for src in senders]
    blind_tag = "%s:%s" % (BLIND_TAG, first)
    for src, dst, seed in zip(senders, (pid_a, pid_b), seeds):
        runtime.send(src, dst, blind_tag, seed)
    # each sender's blinds from its own seed
    r_a, r_b = (_blinds(seed, count, p, two) for seed in seeds)
    if two:
        ox, oy = owners
        sign_tag, product_tag = "%s:%s" % (SIGN_TAG, first), "%s:%s" % (SIGN_PRODUCT_TAG, first)
        sign_seed = _seed(runtime.rng(pid_a))
        runtime.send(pid_a, pid_b, sign_tag, sign_seed)
        outcome, chain, (signs_b, products) = yield from lockstep(
            btg.triple_session(runtime, params, btg_keys, btg_pids, count=count),
            mhkm.key_product(runtime, params, [oy, ox, pid_c], keys, {ox: r_a, oy: r_b},
                             count=count, tag="%s:%s" % (BTG_TAG, first)),
            _sign_products(runtime, pid_b, pid_c, sign_tag, product_tag, count))
    else:
        outcome = yield from btg.triple_session(runtime, params, btg_keys, btg_pids,
                                                count=count)
    # each holder's blinds from the seed it received
    factors = [_blinds(runtime.take(pid, blind_tag).payload, count, p, two)
               for pid in (pid_a, pid_b)]
    if two:
        signs_a = modmath.expand_residues(sign_seed, count, 2)
        factors = [_signed(rs, signs, p) for rs, signs
                   in zip(factors + [chain[pid_c]], (signs_a, signs_b, products))]
    else:
        factors.append([x * y % p for x, y in zip(r_a, r_b)])
    shares = yield from deal(runtime, mpc_pids,
                             [(btg_pids[role], "%s:%s" % (TRIPLE_TAGS[role], first),
                               [r * v % p for r, v in zip(rs, outcome[role])])
                              for role, rs in zip(BtgRole, factors)], p)
    parties = tuple(mpc_pids)
    return [BeaverTripleShares(triple_id=tid, parties=parties, a_shares=a, b_shares=b, c_shares=c)
            for tid, a, b, c in zip(triple_ids, *shares)]


def _sign_products(runtime: Runtime, pid_b: PartyId, pid_c: PartyId, sign_tag: str,
                   product_tag: str, count: int) -> Protocol:
    """Once A's sign seed has arrived, B draws its K signs and sends the
    holder of c their products with A's; the result is B's signs and the
    products the holder of c received."""
    yield
    rng_b = runtime.rng(pid_b)
    signs_b = [rng_b.getrandbits(1) for _ in range(count)]
    seen_by_b = modmath.expand_residues(runtime.take(pid_b, sign_tag).payload, count, 2)
    runtime.send(pid_b, pid_c, product_tag,
                 modmath.encode_residues([x ^ y for x, y in zip(seen_by_b, signs_b)], 2))
    yield
    return signs_b, modmath.decode_residues(runtime.take(pid_c, product_tag).payload, count, 2)


class TripleDispenser:
    """Mints blinded triples over a shared runtime into a FIFO pool.

    `mint(n)` is the protocol that runs the configured dispensation variant
    on n triples (one triple-generation session inside it), pools the
    triples and appends their audit lines to the optional JSON-lines ledger
    file in one write; `reserve(n)` runs it alone.  `next_triple` pops the
    pool, minting a single triple when it is empty.  The ledger is opened
    for append when the dispenser is built, so an unwritable path fails
    before any triple is minted.
    """

    def __init__(self, runtime: Runtime, params: GroupParams, btg_pids: dict,
                 btg_keys: dict, mpc_pids, ox: PartyId, oy: PartyId, mode: str = "single",
                 owner_keys: dict | None = None, ledger_path=None):
        if mode not in ("single", "two"):
            raise BlindFactorError("unknown blinding mode %r" % mode)
        self.runtime = runtime
        self.params = params
        self.btg_pids = btg_pids
        self.btg_keys = btg_keys
        self.mpc_pids = list(mpc_pids)
        self.ox = ox
        self.oy = oy
        self.mode = mode
        # the two-randomness key product ends at the holder of c, under its BTG key
        self.chain_keys = {**(owner_keys or {}), btg_pids[BtgRole.C]: btg_keys[BtgRole.C]}
        self.ledger_path = ledger_path
        if ledger_path is not None:
            open(ledger_path, "a").close()
        self.count = 0  # triples handed out by next_triple
        self.pool = deque()

    def mint(self, n: int) -> Protocol:
        """Mint n triples with one dispensation into the pool, as a protocol
        of 4 rounds (none when n is 0).  n is checked and the triple ids
        drawn at its first step, before anything is sent."""
        if n < 0:
            raise ParameterError("cannot reserve %d triples" % n)
        if not n:
            return
        triple_ids = [self.runtime.fresh_id("t") for _ in range(n)]
        if self.mode == "single":
            batch = dispense_blind_single(self.runtime, self.params, self.btg_keys,
                                          self.btg_pids, self.mpc_pids, triple_ids)
        else:
            batch = dispense_blind_two(self.runtime, self.params, self.btg_keys,
                                       self.btg_pids, self.mpc_pids,
                                       self.ox, self.oy, triple_ids, keys=self.chain_keys)
        self.pool.extend((yield from batch))
        if self.ledger_path is not None:
            parties = [str(p) for p in self.mpc_pids]
            with open(self.ledger_path, "a") as fh:
                fh.write("".join(json.dumps({"triple_id": tid, "parties": parties}) + "\n"
                                 for tid in triple_ids))

    def reserve(self, n: int):
        """Mint n triples with one dispensation into the pool."""
        self.runtime.run(self.mint(n))

    def next_triple(self) -> BeaverTripleShares:
        if not self.pool:
            self.reserve(1)
        self.count += 1
        return self.pool.popleft()
