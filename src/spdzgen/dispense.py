"""Additive secret sharing and blind dispensation of Beaver triples.

A generated triple (a, b, c) never reaches the MPC servers raw: the triple
holders scale their components by blind factors supplied by the requesting
data owners, then split the scaled values additively across the m servers.
Two blinding variants are supported:

  single-randomness:  a' = r*a,   b' = r*b,   c' = r^2 * c
  two-randomness:     a' = ra*a,  b' = rb*b,  c' = rc*c  with rc = ra*rb
                      (rc is the key product `mhkm.key_product` gives the
                      committee leader from the two owners' blinds)

Either way c' = a' * b' mod p, so the blinded shares are valid triples, and
the multiplication openings downstream reveal nothing useful to the triple
holders, who know only the unblinded values.

In the single-randomness variant the committee leader must learn r to scale
the c component: r travels to it on a private channel, which makes the
leader as trusted as the two owners for that triple.  The two-randomness
variant removes that trust by deriving r_c as an mHKM key product, so the
leader ends up with r_c but neither owner blind.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from . import btg, mhkm, modmath
from .btg import BtgRole
from .errors import BlindFactorError, SelectionError, ShareError
from .modmath import GroupParams
from .net import PartyId, Runtime


def split_additive(secret: int, m: int, p: int, rng: random.Random) -> list[int]:
    """m shares summing to secret mod p; all but the first drawn uniformly."""
    if m < 2:
        raise ShareError("need at least 2 parties to split, got %d" % m)
    tail = [rng.randrange(p) for _ in range(m - 1)]
    head = (secret - sum(tail)) % p
    return [head] + tail


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
class BlindFactor:
    r_a: int
    r_b: int
    r_c: int

    @classmethod
    def single(cls, r: int, p: int) -> "BlindFactor":
        if r % p == 0:
            raise BlindFactorError("blind factor is zero mod p")
        return cls(r_a=r % p, r_b=r % p, r_c=r * r % p)


@dataclass(frozen=True)
class BeaverTripleShares:
    triple_id: str
    parties: tuple
    a_shares: dict
    b_shares: dict
    c_shares: dict


TRIPLE_A_TAG = "triple-a"
TRIPLE_B_TAG = "triple-b"
TRIPLE_C_RAW_TAG = "triple-c-raw"
TRIPLE_C_TAG = "triple-c"
BLIND_TAG = "blind-r"


def _deal(runtime, src, mpc_pids, tag, value, p, keep_local=None):
    """Split `value` and deliver one share to each MPC server.

    If `src` is itself a server (`keep_local`), its share stays local.
    Returns the share map."""
    rng = runtime.rng(src)
    values = split_additive(value, len(mpc_pids), p, rng)
    shares = dict(zip(mpc_pids, values))
    for pid in mpc_pids:
        if keep_local is not None and pid == src:
            runtime.note(src, "kept local %s share" % tag)
            continue
        w = (p.bit_length() + 7) // 8
        runtime.send(src, pid, tag, shares[pid].to_bytes(w, "big"))
    runtime.pump()
    return shares


def dispense_blind_single(runtime: Runtime, params: GroupParams, outcome,
                          btg_pids: dict, mpc_pids, ox: PartyId, oy: PartyId,
                          leader: PartyId, triple_id: str,
                          forced_r: int | None = None) -> BeaverTripleShares:
    """Single-randomness dispensation of a completed triple session.

    O_x draws r, shares it with O_y and the committee leader over private
    channels, and forwards it to the holders of a and b.  The holders split
    r*a and r*b; the leader receives c from its holder and splits r^2 * c.
    """
    p = params.p
    w = params.element_size
    r = forced_r if forced_r is not None else runtime.rng(ox).randrange(1, p)
    blind = BlindFactor.single(r, p)

    for dst in (oy, leader, btg_pids[BtgRole.A]):
        runtime.send(ox, dst, BLIND_TAG, r.to_bytes(w, "big"))
    runtime.pump()
    runtime.take(oy, BLIND_TAG)
    runtime.take(leader, BLIND_TAG)
    runtime.take(btg_pids[BtgRole.A], BLIND_TAG)
    runtime.send(oy, btg_pids[BtgRole.B], BLIND_TAG, r.to_bytes(w, "big"))
    runtime.pump()
    runtime.take(btg_pids[BtgRole.B], BLIND_TAG)

    return _deal_blinded(runtime, params, outcome, btg_pids, mpc_pids, leader, triple_id, blind)


def dispense_blind_two(runtime: Runtime, params: GroupParams, outcome,
                       btg_pids: dict, mpc_pids, ox: PartyId, oy: PartyId,
                       leader: PartyId, triple_id: str, keys: dict) -> BeaverTripleShares:
    """Two-randomness dispensation: r_c = r_a * r_b as an mHKM key product.

    O_x and O_y choose subgroup blinds r_a and r_b; `mhkm.key_product` over
    (O_y, O_x, leader) delivers r_c to the leader, so no single owner knows
    both blinds.  `keys` maps PartyId -> KeyPair for O_x and the leader.
    """
    w = params.element_size
    r_a = modmath.random_subgroup_element(params, runtime.rng(ox))
    r_b = modmath.random_subgroup_element(params, runtime.rng(oy))
    r_c = mhkm.key_product(runtime, params, [oy, ox, leader], keys, {ox: r_a, oy: r_b})[leader]

    runtime.send(ox, btg_pids[BtgRole.A], BLIND_TAG, r_a.to_bytes(w, "big"))
    runtime.send(oy, btg_pids[BtgRole.B], BLIND_TAG, r_b.to_bytes(w, "big"))
    runtime.pump()
    runtime.take(btg_pids[BtgRole.A], BLIND_TAG)
    runtime.take(btg_pids[BtgRole.B], BLIND_TAG)

    return _deal_blinded(runtime, params, outcome, btg_pids, mpc_pids, leader, triple_id,
                         BlindFactor(r_a=r_a, r_b=r_b, r_c=r_c))


def _deal_blinded(runtime: Runtime, params: GroupParams, outcome, btg_pids: dict, mpc_pids,
                  leader: PartyId, triple_id: str, blind: BlindFactor) -> BeaverTripleShares:
    """Deal one blinded triple once its holders know their blinds.

    The holders of a and b split r_a*a and r_b*b; the holder of c relays it
    raw to the leader, who splits r_c*c and keeps its own share.
    """
    p = params.p
    a_shares = _deal(runtime, btg_pids[BtgRole.A], mpc_pids, "%s:%s" % (TRIPLE_A_TAG, triple_id),
                     blind.r_a * outcome.secret(BtgRole.A) % p, p)
    b_shares = _deal(runtime, btg_pids[BtgRole.B], mpc_pids, "%s:%s" % (TRIPLE_B_TAG, triple_id),
                     blind.r_b * outcome.secret(BtgRole.B) % p, p)
    runtime.send(btg_pids[BtgRole.C], leader, TRIPLE_C_RAW_TAG,
                 params.encode_element(outcome.secret(BtgRole.C)))
    runtime.pump()
    c_raw = params.decode_element(runtime.take(leader, TRIPLE_C_RAW_TAG).payload)
    c_shares = _deal(runtime, leader, mpc_pids, "%s:%s" % (TRIPLE_C_TAG, triple_id),
                     blind.r_c * c_raw % p, p, keep_local=leader)
    for pid in mpc_pids:
        for tag in (TRIPLE_A_TAG, TRIPLE_B_TAG, TRIPLE_C_TAG):
            runtime.take_all(pid, "%s:%s" % (tag, triple_id))
    return BeaverTripleShares(triple_id=triple_id, parties=tuple(mpc_pids),
                              a_shares=a_shares, b_shares=b_shares, c_shares=c_shares)


class TripleDispenser:
    """Mints blinded triples on demand over a shared runtime.

    Runs one triple-generation session per request (sessions are single-shot;
    batching is just independent sessions) followed by the configured
    dispensation variant, and optionally appends an audit line per triple to
    a JSON-lines ledger file.
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
        self.owner_keys = owner_keys or {}
        self.ledger_path = ledger_path
        self.count = 0
        pool = [pid for pid in self.mpc_pids if pid not in (ox, oy)]
        seed = hashlib.sha256(repr(runtime.seed).encode()).digest()
        self.leader = select_committee_leader(pool, seed)

    def next_triple(self) -> BeaverTripleShares:
        triple_id = self.runtime.fresh_id("t")
        outcome = btg.run_triple_session(self.runtime, self.params,
                                         self.btg_keys, self.btg_pids)
        if self.mode == "single":
            triple = dispense_blind_single(self.runtime, self.params, outcome,
                                           self.btg_pids, self.mpc_pids,
                                           self.ox, self.oy, self.leader, triple_id)
        else:
            triple = dispense_blind_two(self.runtime, self.params, outcome,
                                        self.btg_pids, self.mpc_pids,
                                        self.ox, self.oy, self.leader, triple_id,
                                        keys=self.owner_keys)
        self.count += 1
        if self.ledger_path is not None:
            with open(self.ledger_path, "a") as fh:
                fh.write(json.dumps({"triple_id": triple_id,
                                     "parties": [str(p) for p in self.mpc_pids]}) + "\n")
        return triple
