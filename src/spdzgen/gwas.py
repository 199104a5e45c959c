"""Genomic case/control matching on secret shares.

The case owner holds an orthonormal basis U of its genotype space and the
case genotype counts; the control owner holds candidate control vectors with
their counts.  A control z is accepted when its residual against the case
basis is small, ||z - U U^T z||^2 <= tau^2, computed on shares through the
algebraic identity ||z||^2 - ||U^T z||^2 (valid for orthonormal columns, and
far cheaper than materializing the projector).  The residual is accumulated
exactly at scale 2^(4f), without truncation, and meets tau^2 in one exact
sign test.  Accepted controls are then
screened by the inflation factor

    lambda = (4 n0 n2 - n1^2) / ((n1 + 2 n2)(n1 + 2 n0))

over the combined case + accepted-control genotype table; lambda near 0
means the Hardy-Weinberg equilibrium roughly holds.  The secure variant
multiplies both sides of the ratio by a joint blind factor before opening
them to the control owner only, which leaves the ratio unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction

from . import btg, fixpt, mhkm, modmath, spdz
from .btg import BtgRole
from .dispense import TripleDispenser, select_committee_leader
from .errors import (
    DegenerateTableError,
    ParameterError,
    ParseError,
    ShapeError,
    ShareError,
    ValidationError,
)
from .fixpt import FixedPointParams, TruncRoles
from .modmath import GroupParams, signed_decode
from .net import PartyId, Protocol, Runtime
from .spdz import Shares, TripleLedger

# Bound on any single genotype count entering the secure lambda protocol;
# keeps |blind * numerator| < p/2 for 256-bit groups (see BLIND_BOUND).
COUNT_CAP = 2 ** 20
BLIND_BOUND = 2 ** 32

# Triples `secure_inflation_factor` draws: three products, then two blinded.
LAMBDA_TRIPLES = 5

# The tag of the lambda blind's key-product hops.
LAMBDA_BLIND_TAG = "%s:lambda" % btg.BTG_TAG

# Controls whose z vectors `filter_controls` deals in one round.  Held z
# shares, with ||z||^2, cost about 25.8 KB per control at dim 50 and 3
# servers (tracemalloc), so a block holds about 1.7 MB; dealing every z at
# once would hold about 258 MB at 10,000 controls.
Z_BLOCK = 64


def counts_of(values) -> tuple:
    """Genotype tallies (count of 0s, 1s, 2s) of a value sequence."""
    tally = [0, 0, 0]
    for v in values:
        if v not in (0, 1, 2):
            raise ParseError("genotype value %r outside {0, 1, 2}" % (v,))
        tally[v] += 1
    return tuple(tally)


def _is_integer(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class GenotypeMatrix:
    entries: tuple  # rows of tuples, each value in {0, 1, 2}

    def __post_init__(self):
        for row in self.entries:
            counts_of(row)  # validates values

    @property
    def samples(self) -> int:
        return len(self.entries)

    @property
    def snps(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def counts(self) -> tuple:
        return counts_of(v for row in self.entries for v in row)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snp_%d" % j for j in range(self.snps)])
            writer.writerows(self.entries)

    @classmethod
    def from_csv(cls, path) -> "GenotypeMatrix":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ParseError("empty genotype file %s" % path)
        header, *body = rows
        if header and all(_is_integer(v) for v in header):
            raise ParseError("genotype file %s starts with a sample, not a header" % path)
        for line, row in enumerate(body, 2):
            if row and len(row) != len(header):
                raise ParseError("line %d of %s has %d values under a header of %d"
                                 % (line, path, len(row), len(header)))
        try:
            entries = tuple(tuple(int(v) for v in row) for row in body if row)
        except ValueError as exc:
            raise ParseError("non-integer genotype entry in %s: %s" % (path, exc))
        return cls(entries=entries)


def synth_genotypes(n_samples: int, n_snps: int, q: float, seed) -> GenotypeMatrix:
    """Hardy-Weinberg sampling at allele frequency q for every SNP: genotype
    probabilities ((1-q)^2, 2q(1-q), q^2)."""
    if not 0.0 < q < 1.0:
        raise ParameterError("allele frequency %r outside (0, 1)" % q)
    rng = random.Random(seed)
    p0 = (1 - q) ** 2
    p1 = p0 + 2 * q * (1 - q)
    rows = []
    for _ in range(n_samples):
        draws = [rng.random() for _ in range(n_snps)]
        rows.append(tuple(0 if x < p0 else 1 if x < p1 else 2 for x in draws))
    return GenotypeMatrix(entries=tuple(rows))


@dataclass(frozen=True)
class ContingencyCounts:
    r0: int
    r1: int
    r2: int
    s0: int
    s1: int
    s2: int

    def n(self, i: int) -> int:
        return (self.r0, self.r1, self.r2)[i] + (self.s0, self.s1, self.s2)[i]


def inflation_factor_plain(counts: ContingencyCounts) -> Fraction:
    """lambda = (4 n0 n2 - n1^2) / ((n1 + 2 n2)(n1 + 2 n0)), exact."""
    n0, n1, n2 = counts.n(0), counts.n(1), counts.n(2)
    den = (n1 + 2 * n2) * (n1 + 2 * n0)
    if den == 0:
        raise DegenerateTableError("inflation-factor denominator is zero")
    return Fraction(4 * n0 * n2 - n1 * n1, den)


@dataclass(frozen=True)
class CaseBasis:
    """Orthonormal-column basis, dim rows by rank columns."""

    rows: tuple  # tuple of tuples of Fraction

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def validate_orthonormal(self, params: FixedPointParams):
        """U^T U must be the identity, entry-wise within 2^(2-f).

        The check is exact and in integers: column i is scaled by D_i, the
        lcm of its own entries' denominators, so a dot product is
        S / (D_i * D_j), and |S / (D_i * D_j) - delta_ij| > 4 / 2^f becomes
        |S - delta_ij * D_i * D_j| * 2^f > 4 * D_i * D_j.
        """
        cols = []
        for j in range(self.rank):
            ratios = [v.as_integer_ratio() for v in self.column(j)]
            scale = math.lcm(*(d for _, d in ratios))
            cols.append((scale, [n * (scale // d) for n, d in ratios]))
        for i, (di, ci) in enumerate(cols):
            for j in range(i, self.rank):
                dj, cj = cols[j]
                dot, unit = sum(x * y for x, y in zip(ci, cj)), di * dj
                if abs(dot - (unit if i == j else 0)) << params.f > 4 * unit:
                    # a Decimal, since dot / unit may pass the float range
                    raise ValidationError("basis columns %d,%d not orthonormal (dot=%s)"
                                          % (i, j, format(Decimal(dot) / unit, ".6g")))
        return self

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.rows:
                writer.writerow(["%.12f" % float(v) for v in row])

    @classmethod
    def from_csv(cls, path) -> "CaseBasis":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        try:
            parsed = tuple(tuple(Fraction(v) for v in row) for row in rows if row)
        except ValueError as exc:
            raise ParseError("bad basis entry in %s: %s" % (path, exc))
        widths = {len(r) for r in parsed}
        if len(widths) > 1:
            raise ParseError("ragged basis rows in %s" % path)
        return cls(rows=parsed)


def orthonormal_columns(vectors) -> CaseBasis:
    """Gram-Schmidt over the given vectors; independent ones span the basis."""
    import numpy as np

    mat = np.array([[float(v) for v in vec] for vec in vectors], dtype=float).T
    q_mat, r_mat = np.linalg.qr(mat)
    keep = [j for j in range(r_mat.shape[0]) if abs(r_mat[j, j]) > 1e-9]
    cols = q_mat[:, keep]
    rows = tuple(tuple(Fraction(x).limit_denominator(10 ** 12) for x in row) for row in cols)
    return CaseBasis(rows=rows)


# --- plaintext oracle ------------------------------------------------------

def plain_residual_norm_sq(basis: CaseBasis, z) -> float:
    zf = [float(v) for v in z]
    zz = sum(v * v for v in zf)
    proj = 0.0
    for j in range(basis.rank):
        col = [float(v) for v in basis.column(j)]
        d = sum(c * v for c, v in zip(col, zf))
        proj += d * d
    return zz - proj


@dataclass(frozen=True)
class ControlRecord:
    control_id: str
    vector: tuple  # entries as Fraction (genotype values for CSV inputs)
    counts: tuple  # (s0, s1, s2)

    @classmethod
    def from_genotype_row(cls, control_id, row) -> "ControlRecord":
        return cls(control_id=control_id, vector=tuple(Fraction(v) for v in row),
                   counts=counts_of(row))


@dataclass(frozen=True)
class PipelineConfig:
    tau: Fraction = Fraction(3, 10)
    lambda_max: Fraction = Fraction(1, 20)
    fp: FixedPointParams = field(default_factory=FixedPointParams)
    parties: int = 3

    def __post_init__(self):
        if self.tau <= 0 or self.lambda_max <= 0:
            raise ValidationError("tau and lambda_max must be positive")
        for name in ("tau", "lambda_max"):
            try:
                reported = float(getattr(self, name))  # as `echo` reports it
            except OverflowError:
                raise ValidationError("%s is past the float range" % name)
            if reported == 0.0:
                raise ValidationError("%s is positive but below the float range" % name)
        if self.parties < 3:
            raise ValidationError("need at least 3 MPC parties")

    def echo(self) -> dict:
        return {
            "tau": float(self.tau),
            "lambda_max": float(self.lambda_max),
            "parties": self.parties,
            "fixed_point": {"k": self.fp.k, "f": self.fp.f,
                            "kappa": self.fp.kappa, "p": str(self.fp.p)},
        }


def plain_filter_controls(basis: CaseBasis, case_counts, controls,
                          config: PipelineConfig) -> dict:
    """The pipeline decision logic without any cryptography."""
    tau_sq = float(config.tau) ** 2
    accepted = []
    for ctrl in controls:
        res = plain_residual_norm_sq(basis, ctrl.vector)
        if res <= tau_sq:
            accepted.append(ctrl)
    lam = _combined_lambda(case_counts, accepted)
    return {
        "accepted": sorted(c.control_id for c in accepted),
        "lambda": lam,
        "lambda_ok": lam <= config.lambda_max,
    }


def _combined_lambda(case_counts, accepted_controls) -> Fraction:
    s = [0, 0, 0]
    for ctrl in accepted_controls:
        for i in range(3):
            s[i] += ctrl.counts[i]
    table = ContingencyCounts(r0=case_counts[0], r1=case_counts[1], r2=case_counts[2],
                              s0=s[0], s1=s[1], s2=s[2])
    return inflation_factor_plain(table)


# --- secure protocols ------------------------------------------------------

def _sample_bounded_residue(params: GroupParams, rng: random.Random) -> int:
    """Blind factor in [1, BLIND_BOUND] that is also a subgroup member."""
    while True:
        r = rng.randrange(1, BLIND_BOUND + 1)
        if modmath.is_subgroup_member(r, params):
            return r


def _check_counts(counts):
    for v in counts:
        if not 0 <= v <= COUNT_CAP:
            raise ValidationError("count %d outside [0, %d]" % (v, COUNT_CAP))


def lambda_blind(runtime: Runtime, group: GroupParams, o_case: PartyId, o_ctrl: PartyId,
                 leader: PartyId, owner_keys: dict) -> Protocol:
    """The joint blind R = r_case * r_ctrl of the inflation factor, as a
    protocol of 3 rounds whose result is the leader's R.

    Each owner draws its factor, and `mhkm.key_product` over (O_ctrl,
    O_case, leader) gives the leader their product.  Its hops are tagged
    apart from any dispensation's, so it can run beside a mint.
    """
    r_case = _sample_bounded_residue(group, runtime.rng(o_case))
    r_ctrl = _sample_bounded_residue(group, runtime.rng(o_ctrl))
    shares = yield from mhkm.key_product(runtime, group, [o_ctrl, o_case, leader], owner_keys,
                                         {o_case: [r_case], o_ctrl: [r_ctrl]},
                                         tag=LAMBDA_BLIND_TAG)
    return shares[leader][0]


def secure_inflation_factor(runtime: Runtime, group: GroupParams, case_counts,
                            ctrl_counts, mpc_pids, o_case: PartyId, o_ctrl: PartyId,
                            leader: PartyId, dispenser: TripleDispenser,
                            ledger: TripleLedger, owner_keys: dict,
                            blind: int | None = None) -> Fraction:
    """Blinded inflation factor, revealed to the control owner only.

    The leader holds a joint blind R = r_case * r_ctrl: `blind`, made
    earlier by `lambda_blind`, or else made here first.  Then one round
    deals both owners' counts and the leader's R, each party sharing only
    its own values; the combined-table sums n_i form by local addition.
    Numerator and denominator are built with Beaver products and both
    multiplied by R.  The blinded pair is opened to o_ctrl, who takes their
    exact ratio (R cancels).
    """
    p = group.p
    _check_counts(tuple(case_counts) + tuple(ctrl_counts))
    if blind is None:
        [blind] = runtime.run(lambda_blind(runtime, group, o_case, o_ctrl, leader, owner_keys))
    [(r_sh, s_sh, blind_sh)] = runtime.run(spdz.share_batches(
        runtime, mpc_pids, [(o_case, case_counts), (o_ctrl, ctrl_counts), (leader, [blind])], p))
    n = spdz.add(r_sh, s_sh, p)

    lhs = spdz.add(n[1], spdz.scale(2, n[2], p), p)
    rhs = spdz.add(n[1], spdz.scale(2, n[0], p), p)
    triples = [dispenser.next_triple() for _ in range(3)]
    prods = spdz.beaver_mult_batch(runtime, spdz.concat([n[0], n[1], lhs]),
                                   spdz.concat([n[2], n[1], rhs]), triples, p, ledger)
    num = spdz.sub(spdz.scale(4, prods[0], p), prods[1], p)

    triples2 = [dispenser.next_triple() for _ in range(2)]
    blinded = spdz.beaver_mult_batch(runtime, spdz.concat([blind_sh, blind_sh]),
                                     spdz.concat([num, prods[2]]), triples2, p, ledger)
    opened = spdz.open_values(runtime, blinded, p, to=o_ctrl)
    num_i, den_i = signed_decode(opened[0], p), signed_decode(opened[1], p)
    if den_i == 0:
        raise DegenerateTableError("blinded denominator opened to zero")
    return Fraction(num_i, den_i)


@dataclass(frozen=True)
class SharedVector(Shares):
    """A batch of a vector's entries that `owner` dealt, keeping `entries`,
    their fixed-point encodings, in the clear.  It also carries `norm_sq`:
    shares of sum(fp_encode(v_i)^2) mod p, one value, which the owner
    computes in the clear and deals with the entries.  That is the integer
    a Beaver product of each entry with itself would form, at scale 2^(2f).
    The owner's `entries` make the vector a Beaver factor (`spdz.Owned`)
    that no other party's shares enter."""

    norm_sq: Shares
    owner: PartyId
    entries: list


def _encode_with_norms(vectors, params: FixedPointParams) -> list:
    """Each vector's fp-encoded entries followed by their sum of squares mod
    p, one flat list: what an owner deals for `_split_with_norms`."""
    flat = []
    for vec in vectors:
        encoded = [fixpt.fp_encode(v, params) for v in vec]
        flat += encoded + [sum(e * e for e in encoded) % params.p]
    return flat


def _split_with_norms(shares, dim: int, owner: PartyId, flat: list) -> list:
    """The SharedVectors of `owner`'s deal of `flat`, `_encode_with_norms`'
    layout, as `shares`."""
    return [SharedVector(shares.parties, shares[i:i + dim].columns, shares[i + dim], owner,
                         flat[i:i + dim])
            for i in range(0, len(shares), dim + 1)]


def share_vector(runtime: Runtime, owner: PartyId, values, mpc_pids,
                 params: FixedPointParams) -> SharedVector:
    """Owner fp-encodes every entry of a vector and shares the entries and
    their squared norm (`SharedVector.norm_sq`) in one message per server.

    An owner that is one of the servers sends the others seeds, so the norm
    costs no bytes."""
    flat = _encode_with_norms([values], params)
    [[shares]] = runtime.run(spdz.share_batches(runtime, mpc_pids, [(owner, flat)], params.p))
    [vec] = _split_with_norms(shares, len(values), owner, flat)
    return vec


def triples_per_control(dim: int, rank: int) -> int:
    """Triples `residual_norm_sq` draws for one control: per basis column dim
    for the projection and one for its square.  ||z||^2 takes none, since
    O_ctrl deals it."""
    return rank * (dim + 1)


def screening_params(params: FixedPointParams) -> FixedPointParams:
    """The frame `secure_accept_bit` compares in: scale 2^(4f) and e + 4f + 1
    bits, one more than ||z||^2 < 2^(e-1) needs, spare for basis rounding.

    Raises ParameterError when the field has no room for it.
    """
    return replace(params, f=4 * params.f, k=params.e + 4 * params.f + 1)


def residual_norm_sq(runtime: Runtime, basis_cols, z_shares: SharedVector,
                     params: FixedPointParams, dispenser: TripleDispenser,
                     ledger: TripleLedger, roles: TruncRoles) -> Shares:
    """Exact shares of (||z||^2 - ||U^T z||^2) * 2^(4f), with no truncation.

    One Beaver batch multiplies the basis columns, concatenated, with z
    repeated once per column: every u_ji * z_i at scale 2^(2f).  Its
    factors are owned (`spdz.Owned`): the entries that U's owner and z's
    owner kept when they dealt them (`share_vector`).  Only the two owners
    take part: the other servers open a' to U's owner and b' to z's, which
    swap e = u - a' and d = z - b', so no other server receives a message
    of the batch.  The sums are local, and a second batch, opened to every
    server, squares the projections to 2^(4f), where the owner-dealt
    ||z||^2 (`z_shares.norm_sq`, at 2^(2f)) joins them through the public
    factor 2^(2f).  Draws `triples_per_control(len(z_shares),
    len(basis_cols))` triples, one `next_triple()` at a time, and then runs
    the batches (`_residual`).  A `z_shares` that is not a SharedVector
    carries no norm, and basis columns that are not all SharedVectors of
    one owner carry no owned entries: each a ShareError, raised before any
    triple is drawn.  `roles` is unused, since nothing truncates.
    """
    if not isinstance(z_shares, SharedVector):
        raise ShareError("z shares carry no norm_sq, the owner-dealt ||z||^2 of share_vector")
    if (not all(isinstance(col, SharedVector) for col in basis_cols)
            or len({col.owner for col in basis_cols}) != 1):
        raise ShareError("basis columns are not one owner's share_vector deals")
    for col in basis_cols:
        if len(col) != len(z_shares):
            raise ShapeError("basis column length %d != vector length %d"
                             % (len(col), len(z_shares)))
    us = spdz.Owned(basis_cols[0].owner, [e for col in basis_cols for e in col.entries])
    triples = [dispenser.next_triple()
               for _ in range(triples_per_control(len(z_shares), len(basis_cols)))]
    [res] = runtime.run(_residual(runtime, us, z_shares, params, triples, ledger))
    return res


def _residual(runtime: Runtime, us: spdz.Owned, z_shares: SharedVector,
              params: FixedPointParams, triples, ledger: TripleLedger) -> Protocol:
    """`residual_norm_sq`'s two Beaver batches on the control's triples, as
    a protocol of four rounds.  `us` holds the basis columns' entries,
    concatenated, as their owner kept them.  The first batch multiplies
    them with z's owner's entries (`spdz.Owned`): a' and b' open to the two
    owners, which swap the differences, and each owner's step reads only
    its own entries.  It needs the c' of its triples only at its
    recombination, so it can run beside the mint that deals them."""
    p, rank = params.p, len(us) // len(z_shares)
    zs = spdz.Owned(z_shares.owner, z_shares.entries * rank)
    products = yield from spdz.beaver(runtime, us, zs, triples[:len(us)], p, ledger)
    projs = spdz.sums(products, len(z_shares), p)
    squares = yield from spdz.beaver(runtime, projs, projs, triples[len(us):], p, ledger)
    return spdz.sub(spdz.scale(2 ** (2 * params.f), z_shares.norm_sq, p),
                    spdz.sums(squares, rank, p), p)


def secure_accept_bit(runtime: Runtime, res_sq: Shares, config: PipelineConfig,
                      roles: TruncRoles) -> bool:
    """Open the comparison bit (residual^2 greater than tau^2, both at scale
    2^(4f)) to O_ctrl alone, which accepts when it is not set: two rounds,
    the sign test's opening to the mask owner and the bit's to O_ctrl.  No
    other server learns a decision."""
    wide = screening_params(config.fp)
    diff = spdz.add_const(spdz.scale(-1, res_sq, wide.p),
                          fixpt.fp_encode(config.tau * config.tau, wide), wide.p)
    bit = fixpt.ltz(runtime, diff, wide, roles)
    # O_ctrl is the pipeline's wide-mask owner (`build_parties`), so the
    # signature stays (runtime, res_sq, config, roles)
    return spdz.open_values(runtime, bit, wide.p, to=roles.wide_owner) != [1]


@dataclass
class PipelineParties:
    """Identity wiring of the pipeline's parties over one runtime."""

    runtime: Runtime
    btg_pids: dict
    btg_keys: dict
    mpc_pids: list
    o_case: PartyId
    o_ctrl: PartyId
    leader: PartyId
    owner_keys: dict
    dispenser: TripleDispenser
    ledger: TripleLedger
    roles: TruncRoles


def build_parties(group: GroupParams, seed, parties: int = 3, record: bool = False,
                  blinding: str = "single", ledger_path=None) -> PipelineParties:
    """Spawn BTG trio plus m >= 3 MPC servers and wire the default role bindings."""
    if parties < 3:
        raise ValidationError("need at least 3 MPC parties")
    btg_pids = {BtgRole.A: PartyId("BTG_A"), BtgRole.B: PartyId("BTG_B"),
                BtgRole.C: PartyId("BTG_C")}
    mpc_pids = [PartyId("MPC", i) for i in range(1, parties + 1)]
    runtime = Runtime(list(btg_pids.values()) + mpc_pids, seed=seed, record=record)
    # keys only for the parties that strip a layer: the holders of a and c,
    # O_case and the leader; the dispenser grows the holders' lists to a
    # chunk's width at its first wide mint
    btg_keys = {role: [btg.keygen(group, runtime.rng(btg_pids[role]))]
                for role in (BtgRole.A, BtgRole.C)}
    o_case, o_ctrl = mpc_pids[0], mpc_pids[1]
    leader = select_committee_leader(mpc_pids[2:], hashlib.sha256(repr(seed).encode()).digest())
    owner_keys = {pid: btg.keygen(group, runtime.rng(pid)) for pid in (o_case, leader)}
    dispenser = TripleDispenser(runtime, group, btg_pids, btg_keys, mpc_pids,
                                ox=o_case, oy=o_ctrl, mode=blinding,
                                owner_keys=owner_keys, ledger_path=ledger_path)
    roles = TruncRoles(mask_owner=o_case, wide_owner=o_ctrl)
    return PipelineParties(runtime=runtime, btg_pids=btg_pids, btg_keys=btg_keys,
                           mpc_pids=mpc_pids, o_case=o_case, o_ctrl=o_ctrl, leader=leader,
                           owner_keys=owner_keys, dispenser=dispenser,
                           ledger=TripleLedger(), roles=roles)


def validate_inputs(basis: CaseBasis, case_counts, controls, config: PipelineConfig) -> None:
    """The checks a run makes before any triple is minted, in the secure run
    and the plaintext oracle alike, so both reject the same inputs.

    Every case count must be at most COUNT_CAP, and so must each genotype's
    total over all controls (its total if every control is accepted, which
    bounds the totals lambda shares).  The basis must have a nonzero
    dimension and rank and be orthonormal, the
    comparison frame must fit the field and tau^2 the frame, and every
    control must have the basis's dimension and ||z||^2 < 2^(e-1).
    ||z||^2 bounds every term of the residual (the basis is orthonormal, so
    each projection^2 is at most ||z||^2); O_ctrl checks it in the clear,
    since a larger value wraps the comparison frame.
    """
    params = config.fp
    _check_counts([*case_counts, *(sum(c.counts[i] for c in controls) for i in range(3))])
    if not basis.dim or not basis.rank:
        raise ValidationError("the basis has dimension %d and rank %d; screening needs both "
                              "nonzero" % (basis.dim, basis.rank))
    basis.validate_orthonormal(params)
    fixpt.fp_encode(config.tau * config.tau, screening_params(params))
    norm_cap = 2 ** (params.e - 1)
    for ctrl in controls:
        if len(ctrl.vector) != basis.dim:
            raise ShapeError("control %s has dimension %d, basis expects %d"
                             % (ctrl.control_id, len(ctrl.vector), basis.dim))
        if sum(v * v for v in ctrl.vector) >= norm_cap:
            raise ValidationError("control %s has ||z||^2 >= 2^%d, outside the "
                                  "fixed-point frame" % (ctrl.control_id, params.e - 1))


def filter_controls(group: GroupParams, basis: CaseBasis, case_counts, controls,
                    config: PipelineConfig, seed, record: bool = False,
                    ledger_path=None) -> dict:
    """End-to-end secure filter: residual screening, then the lambda check.

    All controls run in order on one runtime; the result carries it under
    "context" for transcript export.  Each control's triples are minted as
    one batch right after the previous control's decision, and the last
    control's batch also holds the lambda step's LAMBDA_TRIPLES (with no
    controls, they are minted alone).

    The basis is never dealt: O_case keeps its encoded entries, the owned
    factor of each control's first Beaver batch.  O_ctrl deals the first
    Z_BLOCK controls' vectors in one batch, each in `share_vector`'s
    layout: its dim entries and then its ||z||^2 (`SharedVector`), at no
    extra bytes, since O_ctrl is a server and sends seeds.  Each later
    block of Z_BLOCK controls is dealt at its first control, so the servers
    hold at most one block of z shares.  Each block's deal, and in the
    first block lambda's blind (`lambda_blind`), run beside the block's
    first mint (`net.Runtime.run`) and cost no rounds of their own.  So
    does each control's residual (`_residual`, once `TripleDispenser.take`
    has its triples).  Its first Beaver batch multiplies owned factors,
    O_case's basis entries and O_ctrl's z: the other servers open a' to
    O_case and b' to O_ctrl beside hop 3, and the owners swap e = u - a'
    and d = z - b' beside the c' deal, since only the recombination needs
    c'.  MPC_3 and any later server receive no message of that batch.

    A run over n >= 1 controls takes 8n + 6 rounds.  Per control: 4 for the
    mint and the first batch (hop 1 + blinds | hop 2 + a'/b' deals | hop 3
    + a' and b' to their owners | c' deal + the swap), 2 for the second batch,
    and 2 for the accept bit (the sign test's opening to the mask owner,
    the bit's opening to O_ctrl).  Then 6 for lambda: 1 for both owners'
    counts and the blind, 2 + 2 for the Beaver products, 1 for the opening
    to the control owner.  With no controls a run takes 10: lambda's mint
    and its 6.
    """
    if config.fp.p != group.p:
        raise ValidationError(
            "fixed-point field (%d) must be the triple field (%d): dispensed "
            "triples only multiply shares in their own field" % (config.fp.p, group.p))
    case_counts = tuple(case_counts)
    validate_inputs(basis, case_counts, controls, config)
    params, dim = config.fp, basis.dim

    ctx = build_parties(group, seed=(repr(seed), "segment", 0), parties=config.parties,
                        record=record, ledger_path=ledger_path)
    runtime, dispenser = ctx.runtime, ctx.dispenser
    us = spdz.Owned(ctx.o_case, [fixpt.fp_encode(v, params)
                                 for j in range(basis.rank) for v in basis.column(j)])
    budget = triples_per_control(dim, basis.rank)
    z_block = None

    def deal_block(z_entries) -> Protocol:
        """A block's deal, as a protocol of one round."""
        nonlocal z_block
        [z_flat] = yield from spdz.share_batches(runtime, ctx.mpc_pids,
                                                 [(ctx.o_ctrl, z_entries)], params.p)
        z_block = _split_with_norms(z_flat, dim, ctx.o_ctrl, z_entries)

    def screen(k) -> Protocol:
        """Control k's residual, stepped after its mint, whose triples it
        takes as soon as the mint has pooled their a' and b'."""
        triples = yield from dispenser.take(budget)
        return (yield from _residual(runtime, us, z_block[k], params, triples, ctx.ledger))

    accepted = []
    for start in range(0, max(len(controls), 1), Z_BLOCK):
        block = controls[start:start + Z_BLOCK]
        sizes = [budget] * len(block) or [0]
        if start + Z_BLOCK >= len(controls):
            sizes[-1] += LAMBDA_TRIPLES
        beside = [deal_block(_encode_with_norms([ctrl.vector for ctrl in block], params))]
        if start == 0:
            beside.append(lambda_blind(runtime, group, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                       ctx.owner_keys))
        for k, size in enumerate(sizes):
            screened = [screen(k)] if block else []
            made = runtime.run(*beside, dispenser.mint(size), *screened)
            if start == k == 0:
                blind = made[1]  # lambda_blind's result
            beside = []
            if screened and secure_accept_bit(runtime, made[-1], config, ctx.roles):
                accepted.append(block[k])
        z_block = None  # release this block's shares before the next is dealt

    ctrl_totals = tuple(sum(c.counts[i] for c in accepted) for i in range(3))
    lam = secure_inflation_factor(runtime, group, case_counts, ctrl_totals,
                                  ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                  dispenser, ctx.ledger, ctx.owner_keys, blind=blind)
    return {
        "accepted": sorted(c.control_id for c in accepted),
        "lambda": lam,
        "lambda_ok": lam <= config.lambda_max,
        "triple_count": dispenser.count,
        "context": ctx,
    }
