"""Command-line entry point: groupgen, triples, synth, run."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import dispense, gwas, modmath, spdz
from .errors import (
    MpcError,
    NetworkError,
    ProtocolAbort,
    ShareError,
    TripleReuseError,
    ValidationError,
)
from .fixpt import FixedPointParams
from .gwas import CaseBasis, ControlRecord, GenotypeMatrix, PipelineConfig
from .modmath import DEFAULT_GROUP_256, STANDARD_GROUP_2048, GroupParams, gen_group

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROTOCOL = 3
EXIT_VALIDATION = 4

_PROTOCOL_ERRORS = (ProtocolAbort, TripleReuseError, ShareError, NetworkError)


def _resolve_group(bits: int, seed, path=None) -> GroupParams:
    if path:
        with open(path) as fh:
            return GroupParams.from_json(fh.read())
    if bits == 256:
        return DEFAULT_GROUP_256
    if bits == 2048:
        return STANDARD_GROUP_2048
    return gen_group(bits, seed=repr(("group", seed)))


def cmd_groupgen(args) -> int:
    if args.bits < 5:
        print("usage error: --bits must be at least 5", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    params = gen_group(args.bits, seed=repr(("group", args.seed)))
    elapsed = (time.perf_counter() - t0) * 1000.0
    with open(args.out, "w") as fh:
        fh.write(params.to_json() + "\n")
    print("wrote %d-bit group to %s (%.0f ms)" % (args.bits, args.out, elapsed),
          file=sys.stderr)
    return EXIT_OK


def cmd_triples(args) -> int:
    if args.count < 0:
        print("usage error: -n must not be negative", file=sys.stderr)
        return EXIT_USAGE
    if args.demo_reuse and args.count == 0:
        print("usage error: --demo-reuse needs -n of at least 1", file=sys.stderr)
        return EXIT_USAGE
    group = _resolve_group(args.bits, args.seed, args.group)
    ctx = gwas.build_parties(group, seed=args.seed, parties=args.parties,
                             record=False, blinding=args.mode,
                             ledger_path=args.ledger)
    runtime = ctx.runtime
    modmath.reset_modexp_count()
    messages, rounds, sent = runtime.messages_sent, runtime.rounds, runtime.bytes_sent
    t0 = time.perf_counter()
    runtime.run(ctx.dispenser.mint(args.count))
    triples = [ctx.dispenser.next_triple() for _ in range(args.count)]
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    exps = modmath.modexp_count()
    messages, rounds = runtime.messages_sent - messages, runtime.rounds - rounds
    sent = runtime.bytes_sent - sent

    bad = 0
    for t in triples:
        a, b, c = (dispense.reconstruct(shares.values(), group.p)
                   for shares in (t.a_shares, t.b_shares, t.c_shares))
        if c != a * b % group.p:
            bad += 1
    report = {
        "triples": args.count,
        "mode": args.mode,
        "parties": args.parties,
        "invalid": bad,
        "modexp_total": exps,
        "modexp_per_triple": exps / max(args.count, 1),
        "modexp_backend": modmath.modexp_backend(),
        "messages_per_triple": messages / max(args.count, 1),
        "bytes_per_triple": sent / max(args.count, 1),
        "rounds_per_triple": rounds / max(args.count, 1),
        "ms_total": round(elapsed_ms, 3),
        "ms_per_triple": round(elapsed_ms / max(args.count, 1), 3),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if bad:
        raise ProtocolAbort("%d of %d triples failed verification" % (bad, args.count))
    if args.demo_reuse:
        ledger = ctx.ledger
        [[x, y]] = ctx.runtime.run(spdz.share_batches(
            ctx.runtime, ctx.mpc_pids, [(ctx.o_case, [5]), (ctx.o_ctrl, [7])], group.p))
        for _ in range(2):  # the second product raises
            spdz.beaver_mult_batch(ctx.runtime, x, y, [triples[0]], group.p, ledger)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.samples < 1 or args.snps < 1:
        print("usage error: --samples and --snps must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    matrix = gwas.synth_genotypes(args.samples, args.snps, args.freq, args.seed)
    matrix.to_csv(args.out)
    print("wrote %dx%d genotype matrix to %s" % (args.samples, args.snps, args.out),
          file=sys.stderr)
    return EXIT_OK


# The keys `cmd_run` reads from a config document; any other key is rejected
# rather than silently ignored.
CONFIG_KEYS = frozenset({"tau", "lambda_max", "parties", "seed", "bits", "group_path",
                         "fixed_point"})
FIXED_POINT_KEYS = frozenset({"k", "f", "kappa"})


def _fraction(key: str, value) -> Fraction:
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValidationError("%s %s has a zero denominator" % (key, value))


def _integer(key: str, value) -> int:
    """A JSON integer; a float would be truncated and a boolean read as 0 or 1."""
    if type(value) is not int:
        raise ValidationError("%s must be an integer, got %s" % (key, json.dumps(value)))
    return value


# How `cmd_run` reads the PipelineConfig keys; a key the user leaves unset
# takes the dataclass default.
_PIPELINE_FIELDS = {"tau": _fraction, "lambda_max": _fraction, "parties": _integer}


def _load_config(args) -> dict:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("fixed_point", {}), dict):
            raise ValidationError("a config document and its fixed_point must be JSON objects")
        unknown = sorted(set(doc) - CONFIG_KEYS)
        unknown += sorted("fixed_point.%s" % key
                          for key in set(doc.get("fixed_point", {})) - FIXED_POINT_KEYS)
        if unknown:
            raise ValidationError("unknown config key(s): %s" % ", ".join(unknown))
        if not isinstance(doc.get("group_path", ""), str):
            raise ValidationError("group_path must be a string")
    for key, val in (("tau", args.tau), ("lambda_max", args.lambda_max),
                     ("parties", args.parties), ("seed", args.seed),
                     ("bits", args.bits)):
        if val is not None:
            doc[key] = val
    doc.setdefault("seed", 1)
    doc.setdefault("bits", 256)
    return doc


def cmd_run(args) -> int:
    doc = _load_config(args)
    bits = _integer("bits", doc["bits"])
    fp_doc = {key: _integer("fixed_point." + key, val)
              for key, val in doc.get("fixed_point", {}).items()}
    group = _resolve_group(bits, doc["seed"], doc.get("group_path"))
    fp = FixedPointParams(p=group.p, **fp_doc)
    config = PipelineConfig(fp=fp, **{key: read(key, doc[key])
                                      for key, read in _PIPELINE_FIELDS.items() if key in doc})

    case = GenotypeMatrix.from_csv(args.case)
    basis = CaseBasis.from_csv(args.basis)
    ctrl_matrix = GenotypeMatrix.from_csv(args.controls)
    controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, row)
                for i, row in enumerate(ctrl_matrix.entries)]
    case_counts = case.counts()

    t0 = time.perf_counter()
    if args.plaintext_oracle:
        # the secure run checks its inputs inside `filter_controls`; the
        # oracle must reject the same inputs
        gwas.validate_inputs(basis, case_counts, controls, config)
        result = gwas.plain_filter_controls(basis, case_counts, controls, config)
        result["triple_count"] = 0
    else:
        result = gwas.filter_controls(
            group, basis, case_counts, controls, config,
            seed=doc["seed"], record=bool(args.transcript_out),
            ledger_path=args.triple_ledger)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)

    lam = result["lambda"]
    report = {
        "accepted": result["accepted"],
        "lambda": {"num": lam.numerator, "den": lam.denominator, "value": float(lam)},
        "lambda_ok": result["lambda_ok"],
        "config": dict(config.echo(), seed=doc["seed"], bits=bits,
                       mode="plaintext-oracle" if args.plaintext_oracle else "secure"),
        "triple_count": result["triple_count"],
        "runtime_ms": elapsed_ms,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.transcript_out and "context" in result:
        result["context"].runtime.export_transcript(args.transcript_out)
    print("accepted %d/%d controls, lambda=%s, field p=%s"
          % (len(report["accepted"]), len(controls), float(lam), fp.p),
          file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdzgen")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groupgen", help="generate safe-prime group parameters")
    g.add_argument("--bits", type=int, required=True)
    g.add_argument("--seed", default="0")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_groupgen)

    t = sub.add_parser("triples", help="dispense blinded Beaver triples and time them")
    t.add_argument("-n", "--count", type=int, default=1)
    t.add_argument("--bits", type=int, default=256)
    t.add_argument("--group", help="path to a group JSON document")
    t.add_argument("--parties", type=int, default=3)
    t.add_argument("--mode", choices=("single", "two"), default="single")
    t.add_argument("--seed", default="0")
    t.add_argument("--ledger", help="JSONL dispensation audit file (new or empty)")
    t.add_argument("--demo-reuse", action="store_true",
                   help="attempt a double-spend after dispensing (exits nonzero)")
    t.set_defaults(func=cmd_triples)

    s = sub.add_parser("synth", help="sample a synthetic genotype matrix")
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--snps", type=int, required=True)
    s.add_argument("--freq", type=float, default=0.5)
    s.add_argument("--seed", default="0")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    r = sub.add_parser("run", help="run the case/control matching pipeline")
    r.add_argument("--config", help="JSON run configuration")
    r.add_argument("--case", required=True, help="case genotype CSV")
    r.add_argument("--basis", required=True, help="orthonormal basis CSV")
    r.add_argument("--controls", required=True, help="control genotype CSV")
    r.add_argument("--out", help="report JSON path (stdout when omitted)")
    r.add_argument("--seed", type=int)
    r.add_argument("--bits", type=int)
    r.add_argument("--tau")
    r.add_argument("--lambda-max", dest="lambda_max")
    r.add_argument("--parties", type=int)
    r.add_argument("--plaintext-oracle", action="store_true")
    r.add_argument("--transcript-out")
    r.add_argument("--triple-ledger", help="JSONL dispensation audit file (new or empty)")
    r.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PROTOCOL_ERRORS as exc:
        print("protocol error: %s" % exc, file=sys.stderr)
        return EXIT_PROTOCOL
    except MpcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
