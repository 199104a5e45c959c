"""Additive secret sharing and blind dispensation of Beaver triples.

`deal` is the one sharing routine: each owner splits a batch of values and
sends every other party one message of its shares, several owners' batches
share one round, and each recipient builds its shares from the residues it
decodes, so a malformed payload aborts and a corrupted one changes the
result.  Input sharing (`spdz`) and the dispensation below both deal
through it; the blind recipients likewise use the blinds they decode, and a
zero blind aborts.

A generated triple (a, b, c) never reaches the MPC servers raw: each triple
holder scales its own component by a blind factor, then splits the scaled
values additively across the m servers.  Two blinding variants are supported:

  single-randomness:  a' = ra*a,  b' = rb*b,  c' = ra*rb*c
  two-randomness:     a' = ra*a,  b' = rb*b,  c' = rc*c  with rc = ra*rb

Either way c' = a' * b' mod p, so the blinded shares are valid triples, and
the multiplication openings downstream reveal nothing useful to the triple
holders, who know only the unblinded values.  No MPC server receives a
triple component, raw or blinded.

In the single-randomness variant one party, the holder of c, picks ra and
rb uniform in [1, p) and sends them to the holders of a and b: no server
learns a blind, so to each server a' and b' are independent and uniform
over Z_p^*.  (A server that knew the blind of the squares a and b would
know the Legendre symbol of a', and each opening x - a' would tell it a bit
of x.)  In the two-randomness variant O_x and O_y pick subgroup blinds ra
and rb, and rc reaches the holder of c as an mHKM key product
(`mhkm.key_product`), so it learns neither owner blind.

Dispensation runs the K triples of one BTG session at once, and sends each
message as soon as nothing it depends on is missing.  The blinds do not
depend on the session, so they go out before it and ride its first hop's
round; a holder thus learns its blind before the session instead of after.
Every blind hop sends one message of K residues, and the three holders deal
in one round, each sending each server one message of K shares.  A batch
costs four rounds in single mode (hop 1 and the blinds | hop 2 | hop 3 |
all shares) and seven in two mode, where the three hops of the `r_c` key
product come before the shares.  Blinds and shares are tagged with the
batch's first triple id.  `TripleDispenser` keeps the dispensed triples in
a FIFO pool: `reserve(n)` mints n of them with one dispensation, and
`next_triple` hands them out in order.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass

from . import btg, mhkm, modmath
from .btg import BtgRole
from .errors import BlindFactorError, ParameterError, SelectionError, ShareError
from .modmath import GroupParams
from .net import PartyId, Runtime


def split_additive(secret: int, m: int, p: int, rng: random.Random) -> list[int]:
    """m shares summing to secret mod p; all but the first drawn uniformly."""
    if m < 2:
        raise ShareError("need at least 2 parties to split, got %d" % m)
    tail = [rng.randrange(p) for _ in range(m - 1)]
    head = (secret - sum(tail)) % p
    return [head] + tail


def deal(runtime: Runtime, parties, batches, p: int) -> list[list[dict]]:
    """Deal several owners' batches of values in one round.

    `batches` lists `(owner, tag, values)`.  Each owner splits its values in
    order and sends every other party one message of its shares under `tag`;
    an owner among `parties` keeps its own.  One pump delivers every batch,
    and every recipient builds its shares from the residues it decodes off
    the wire.  Returns, per batch, one PartyId -> share map per value.
    """
    held = []
    for owner, tag, values in batches:
        rng = runtime.rng(owner)
        splits = [split_additive(value, len(parties), p, rng) for value in values]
        columns = {}
        for j, pid in enumerate(parties):
            column = [split[j] for split in splits]
            if pid == owner:
                runtime.note(owner, "kept local %s share" % tag)
                columns[pid] = column
            else:
                runtime.send(owner, pid, tag, modmath.encode_residues(column, p))
        held.append(columns)
    runtime.pump()
    for (owner, tag, values), columns in zip(batches, held):
        for pid in parties:
            if pid != owner:
                columns[pid] = modmath.decode_residues(runtime.take(pid, tag).payload,
                                                       len(values), p)
    return [[dict(zip(parties, shares)) for shares in zip(*(columns[pid] for pid in parties))]
            for columns in held]


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


def dispense_blind_single(runtime: Runtime, params: GroupParams, btg_keys: dict,
                          btg_pids: dict, mpc_pids, triple_ids) -> list[BeaverTripleShares]:
    """Single-randomness dispensation of one session of K triples, in 4 rounds.

    One party, the holder of c, picks the randomness: independent blinds r_a
    and r_b uniform in [1, p) per triple for the holders of a and b, and its
    own c scaled by r_a*r_b.  No MPC server learns a blind.
    """
    p = params.p
    pid_c = btg_pids[BtgRole.C]
    rng = runtime.rng(pid_c)
    r_a = [rng.randrange(1, p) for _ in triple_ids]
    r_b = [rng.randrange(1, p) for _ in triple_ids]
    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids,
                     (pid_c, pid_c), r_a, r_b, lambda: [x * y % p for x, y in zip(r_a, r_b)])


def dispense_blind_two(runtime: Runtime, params: GroupParams, btg_keys: dict,
                       btg_pids: dict, mpc_pids, ox: PartyId, oy: PartyId,
                       triple_ids, keys: dict) -> list[BeaverTripleShares]:
    """Two-randomness dispensation, in 7 rounds: r_c = r_a * r_b as an mHKM
    key product.

    O_x and O_y choose subgroup blinds r_a and r_b per triple; once the
    session has run, one `mhkm.key_product` of K products over (O_y, O_x,
    holder of c) delivers every r_c to the holder of c, so no single owner
    knows both blinds.  `keys` maps PartyId -> KeyPair for O_x and the holder
    of c.
    """
    count = len(triple_ids)
    pid_c = btg_pids[BtgRole.C]
    r_a = [modmath.random_subgroup_element(params, runtime.rng(ox)) for _ in range(count)]
    r_b = [modmath.random_subgroup_element(params, runtime.rng(oy)) for _ in range(count)]

    def key_product():
        return mhkm.key_product(runtime, params, [oy, ox, pid_c], keys, {ox: r_a, oy: r_b},
                                count=count)[pid_c]

    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids,
                     (ox, oy), r_a, r_b, key_product)


def _dispense(runtime: Runtime, params: GroupParams, btg_keys: dict, btg_pids: dict,
              mpc_pids, triple_ids, senders, r_a, r_b, c_blinds) -> list[BeaverTripleShares]:
    """One batch end to end.  `senders` send r_a and r_b to the holders of a
    and b before the session, so the blinds ride its first hop's round; the
    session runs; `c_blinds()` then gives the holder of c its K blinds; and
    the three holders deal their K blinded components in one round.  Blinds
    and shares are tagged with the batch's first triple id, so messages an
    aborted batch left behind are never read.  A zero blind on the wire
    aborts.
    """
    if not triple_ids:
        raise ParameterError("a batch dispenses at least one triple")
    p = params.p
    count = len(triple_ids)
    blind_tag = "%s:%s" % (BLIND_TAG, triple_ids[0])
    holders = [btg_pids[BtgRole.A], btg_pids[BtgRole.B]]
    for src, dst, rs in zip(senders, holders, (r_a, r_b)):
        runtime.send(src, dst, blind_tag, modmath.encode_residues(rs, p))
    outcome = btg.run_triple_session(runtime, params, btg_keys, btg_pids, count=count)
    received = [modmath.decode_residues(runtime.take(pid, blind_tag).payload, count, p)
                for pid in holders]
    if any(0 in rs for rs in received):
        raise BlindFactorError("a triple holder received a zero blind")
    shares = deal(runtime, mpc_pids,
                  [(btg_pids[role], "%s:%s" % (TRIPLE_TAGS[role], triple_ids[0]),
                    [r * v % p for r, v in zip(rs, outcome[role])])
                   for role, rs in zip(BtgRole, received + [c_blinds()])], p)
    parties = tuple(mpc_pids)
    return [BeaverTripleShares(triple_id=tid, parties=parties, a_shares=a, b_shares=b, c_shares=c)
            for tid, a, b, c in zip(triple_ids, *shares)]


class TripleDispenser:
    """Mints blinded triples over a shared runtime into a FIFO pool.

    `reserve(n)` runs the configured dispensation variant on n triples (one
    triple-generation session inside it), pools the triples and appends their
    audit lines to the optional JSON-lines ledger file in one write.
    `next_triple` pops the pool, minting a single triple when it is empty.
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
        self.count = 0  # triples handed out by next_triple
        self.pool = deque()

    def reserve(self, n: int):
        """Mint n triples with one dispensation into the pool."""
        if n < 0:
            raise ParameterError("cannot reserve %d triples" % n)
        if n == 0:
            return
        triple_ids = [self.runtime.fresh_id("t") for _ in range(n)]
        if self.mode == "single":
            triples = dispense_blind_single(self.runtime, self.params, self.btg_keys,
                                            self.btg_pids, self.mpc_pids, triple_ids)
        else:
            triples = dispense_blind_two(self.runtime, self.params, self.btg_keys,
                                         self.btg_pids, self.mpc_pids,
                                         self.ox, self.oy, triple_ids, keys=self.chain_keys)
        self.pool.extend(triples)
        if self.ledger_path is not None:
            parties = [str(p) for p in self.mpc_pids]
            with open(self.ledger_path, "a") as fh:
                fh.write("".join(json.dumps({"triple_id": tid, "parties": parties}) + "\n"
                                 for tid in triple_ids))

    def next_triple(self) -> BeaverTripleShares:
        if not self.pool:
            self.reserve(1)
        self.count += 1
        return self.pool.popleft()
