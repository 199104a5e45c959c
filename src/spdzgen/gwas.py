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
    ValidationError,
)
from .fixpt import FixedPointParams, TruncRoles
from .modmath import GroupParams, signed_decode
from .net import PartyId, Protocol, Runtime
from .spdz import SharedValue, TripleLedger

# Bound on any single genotype count entering the secure lambda protocol;
# keeps |blind * numerator| < p/2 for 256-bit groups (see BLIND_BOUND).
COUNT_CAP = 2 ** 20
BLIND_BOUND = 2 ** 32

# Triples `secure_inflation_factor` draws: three products, then two blinded.
LAMBDA_TRIPLES = 5

# The tag of the lambda blind's key-product hops.
LAMBDA_BLIND_TAG = "%s:lambda" % btg.BTG_TAG

# Controls whose z vectors `filter_controls` deals in one round.  Held z
# shares cost about 24.4 KB per control at dim 50 (tracemalloc), so a block
# holds about 1.6 MB; dealing every z at once would hold about 245 MB at
# 10,000 controls.
Z_BLOCK = 64


def counts_of(values) -> tuple:
    """Genotype tallies (count of 0s, 1s, 2s) of a value sequence."""
    tally = [0, 0, 0]
    for v in values:
        if v not in (0, 1, 2):
            raise ParseError("genotype value %r outside {0, 1, 2}" % (v,))
        tally[v] += 1
    return tuple(tally)


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
        try:
            entries = tuple(tuple(int(v) for v in row) for row in rows[1:] if row)
        except ValueError as exc:
            raise ParseError("non-integer genotype entry in %s: %s" % (path, exc))
        return cls(entries=entries)


def synth_genotypes(n_samples: int, n_snps: int, allele_freqs, seed) -> GenotypeMatrix:
    """Hardy-Weinberg sampling: per-SNP probabilities ((1-q)^2, 2q(1-q), q^2)."""
    if isinstance(allele_freqs, (int, float)):
        allele_freqs = [float(allele_freqs)] * n_snps
    freqs = list(allele_freqs)
    if len(freqs) != n_snps:
        raise ParameterError("need one allele frequency per SNP")
    for q in freqs:
        if not 0.0 < q < 1.0:
            raise ParameterError("allele frequency %r outside (0, 1)" % q)
    rng = random.Random(seed)
    rows = []
    for _ in range(n_samples):
        row = []
        for q in freqs:
            x = rng.random()
            if x < (1 - q) ** 2:
                row.append(0)
            elif x < (1 - q) ** 2 + 2 * q * (1 - q):
                row.append(1)
            else:
                row.append(2)
        rows.append(tuple(row))
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
    [(r_sh, s_sh, [blind_sh])] = runtime.run(spdz.share_batches(
        runtime, mpc_pids, [(o_case, case_counts), (o_ctrl, ctrl_counts), (leader, [blind])], p))
    n_sh = [spdz.add_local(r_sh[i], s_sh[i], p) for i in range(3)]

    lhs = spdz.add_local(n_sh[1], spdz.scale_local(2, n_sh[2], p), p)
    rhs = spdz.add_local(n_sh[1], spdz.scale_local(2, n_sh[0], p), p)
    triples = [dispenser.next_triple() for _ in range(3)]
    prods = spdz.beaver_mult_batch(
        runtime, [(n_sh[0], n_sh[2]), (n_sh[1], n_sh[1]), (lhs, rhs)], triples, p, ledger)
    num = spdz.sub_local(spdz.scale_local(4, prods[0], p), prods[1], p)
    den = prods[2]

    triples2 = [dispenser.next_triple() for _ in range(2)]
    blinded = spdz.beaver_mult_batch(
        runtime, [(blind_sh, num), (blind_sh, den)], triples2, p, ledger)
    opened = spdz.open_values(runtime, blinded, p, collector=o_ctrl, recipients=[o_ctrl])
    num_i, den_i = signed_decode(opened[0], p), signed_decode(opened[1], p)
    if den_i == 0:
        raise DegenerateTableError("blinded denominator opened to zero")
    return Fraction(num_i, den_i)


def share_vector(runtime: Runtime, owner: PartyId, values, mpc_pids,
                 params: FixedPointParams) -> list:
    """Owner fp-encodes every entry of a vector and shares them in one message
    per server."""
    encoded = [fixpt.fp_encode(v, params) for v in values]
    return runtime.run(spdz.share_batches(runtime, mpc_pids, [(owner, encoded)], params.p))[0][0]


def triples_per_control(dim: int, rank: int) -> int:
    """Triples `residual_norm_sq` draws for one control: dim for ||z||^2,
    then per basis column dim for the projection and one for its square."""
    return dim + rank * (dim + 1)


def screening_params(params: FixedPointParams) -> FixedPointParams:
    """The frame `secure_accept_bit` compares in: scale 2^(4f) and e + 4f + 1
    bits, one more than ||z||^2 < 2^(e-1) needs, spare for basis rounding.

    Raises ParameterError when the field has no room for it.
    """
    return replace(params, f=4 * params.f, k=params.e + 4 * params.f + 1)


def residual_norm_sq(runtime: Runtime, basis_cols, z_shares,
                     params: FixedPointParams, dispenser: TripleDispenser,
                     ledger: TripleLedger, roles: TruncRoles) -> SharedValue:
    """Exact shares of (||z||^2 - ||U^T z||^2) * 2^(4f), with no truncation.

    One Beaver batch forms every z_i^2 and u_ji * z_i at scale 2^(2f), the
    sums are local, and a second batch squares the projections to 2^(4f),
    where ||z||^2 joins them through the public factor 2^(2f).  Draws
    `triples_per_control(len(z_shares), len(basis_cols))` triples, one
    `next_triple()` at a time.  `roles` is unused, since nothing truncates.
    """
    for col in basis_cols:
        if len(col) != len(z_shares):
            raise ShapeError("basis column length %d != vector length %d"
                             % (len(col), len(z_shares)))
    p, dim = params.p, len(z_shares)
    pairs = [(x, z) for row in [z_shares, *basis_cols] for x, z in zip(row, z_shares)]
    products = spdz.beaver_mult_batch(runtime, pairs, [dispenser.next_triple() for _ in pairs],
                                      p, ledger)
    zz, *projs = [spdz.sum_local(products[i:i + dim], p)
                  for i in range(0, len(products), dim)]
    squares = spdz.beaver_mult_batch(runtime, [(x, x) for x in projs],
                                     [dispenser.next_triple() for _ in projs], p, ledger)
    return spdz.sum_local([spdz.scale_local(2 ** (2 * params.f), zz, p),
                           *(spdz.scale_local(-1, sq, p) for sq in squares)], p)


def secure_accept_bit(runtime: Runtime, res_sq: SharedValue, config: PipelineConfig,
                      roles: TruncRoles) -> bool:
    """Open the comparison bit (residual^2 greater than tau^2, both at scale
    2^(4f)) and accept when it is not set."""
    wide = screening_params(config.fp)
    diff = spdz.add_const(spdz.scale_local(-1, res_sq, wide.p),
                          fixpt.fp_encode(config.tau * config.tau, wide), wide.p)
    bit = fixpt.ltz(runtime, diff, wide, roles)
    return spdz.open_values(runtime, [bit], wide.p)[0] != 1


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
    # O_case and the leader
    btg_keys = {role: btg.keygen(group, runtime.rng(btg_pids[role]))
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

    Every case count must be at most COUNT_CAP, the basis must be
    orthonormal, the comparison frame must fit the field and tau^2 the
    frame, and every control must have the basis's dimension and
    ||z||^2 < 2^(e-1).  ||z||^2 bounds every term of the residual (the basis
    is orthonormal, so each projection^2 is at most ||z||^2); O_ctrl checks
    it in the clear, since a larger value wraps the comparison frame.
    """
    params = config.fp
    _check_counts(case_counts)
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

    One deal shares the basis, as one vector of dim*rank entries in column
    order, together with the first Z_BLOCK controls' vectors, one batch per
    owner; each later block of Z_BLOCK controls is dealt at its first
    control, so the servers hold at most one block of z shares.  Each
    block's deal, and in the first block lambda's blind (`lambda_blind`),
    run beside the block's first mint (`net.Runtime.run`) and cost no rounds
    of their own.  A run over n >= 1 controls takes 11n + 6 rounds: per
    control 4 to mint, 4 for the residual's two Beaver batches and 3 for the
    accept bit (1 for the sign test's opening to the mask owner, 2 to open
    the bit); and 6 for lambda (1 for both owners' counts and the blind,
    2 + 2 for the Beaver products, 1 for the opening to the control owner).
    With no controls it takes 10: lambda's mint and its 6.
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
    basis_entries = [fixpt.fp_encode(v, params)
                     for j in range(basis.rank) for v in basis.column(j)]
    budget = triples_per_control(dim, basis.rank)
    accepted = []
    for start in range(0, max(len(controls), 1), Z_BLOCK):
        block = controls[start:start + Z_BLOCK]
        sizes = [budget] * len(block) or [0]
        if start + Z_BLOCK >= len(controls):
            sizes[-1] += LAMBDA_TRIPLES
        z_entries = [fixpt.fp_encode(v, params) for ctrl in block for v in ctrl.vector]
        beside = [spdz.share_batches(runtime, ctx.mpc_pids,
                                     [(ctx.o_case, basis_entries), (ctx.o_ctrl, z_entries)],
                                     params.p)]
        if start == 0:
            beside.append(lambda_blind(runtime, group, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                       ctx.owner_keys))
        (flat, z_block), *made, _ = runtime.run(*beside, dispenser.mint(sizes[0]))
        if start == 0:
            [blind] = made
            basis_cols = [flat[i:i + dim] for i in range(0, len(flat), dim)]
            basis_entries = []  # an empty batch sends nothing
        for k, ctrl in enumerate(block):
            if k:
                dispenser.reserve(sizes[k])
            res = residual_norm_sq(runtime, basis_cols, z_block[k * dim:(k + 1) * dim],
                                   params, dispenser, ctx.ledger, ctx.roles)
            if secure_accept_bit(runtime, res, config, ctx.roles):
                accepted.append(ctrl)
        del z_block  # release this block's shares before the next is dealt

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
