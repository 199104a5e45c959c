import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spdzgen import modmath
from spdzgen.cli import EXIT_PROTOCOL, EXIT_USAGE, EXIT_VALIDATION, main
from spdzgen.dispense import TripleDispenser
from spdzgen.gwas import COUNT_CAP, GenotypeMatrix, orthonormal_columns, synth_genotypes
from spdzgen.modmath import DEFAULT_GROUP_256, GroupParams
from spdzgen.net import Runtime

from helpers import both_backends, shifted, tamper_sends


def run_cli(*argv):
    return main(list(argv))


class TestGroupgen:
    def test_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        assert run_cli("groupgen", "--bits", "32", "--seed", "s", "--out", str(out1)) == 0
        assert run_cli("groupgen", "--bits", "32", "--seed", "s", "--out", str(out2)) == 0
        assert out1.read_text() == out2.read_text()
        GroupParams.from_json(out1.read_text())

    def test_invalid_bits_usage_error(self, tmp_path):
        assert run_cli("groupgen", "--bits", "3",
                       "--out", str(tmp_path / "g.json")) == EXIT_USAGE

    def test_256_bit_generation_desk_scale(self, tmp_path):
        import time

        t0 = time.perf_counter()
        assert run_cli("groupgen", "--bits", "256", "--seed", "fresh",
                       "--out", str(tmp_path / "g.json")) == 0
        assert time.perf_counter() - t0 < 60.0
        params = GroupParams.from_json((tmp_path / "g.json").read_text())
        assert params.p.bit_length() == 256


class TestTriples:
    def test_single_smoke(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert run_cli("triples", "-n", "1", "--ledger", str(ledger)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["triples"] == 1
        assert report["invalid"] == 0
        assert report["modexp_per_triple"] > 0
        assert len(ledger.read_text().splitlines()) == 1

    def test_two_randomness_mode(self, capsys):
        assert run_cli("triples", "-n", "2", "--mode", "two") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invalid"] == 0 and report["mode"] == "two"

    # messages, rounds, modexp per triple and bytes of one batch of 12, keyed
    # by mode.  The bytes: BTG hops of 17 + 2*32*12 each, two 16-byte blind
    # seeds, and per holder 12 correction shares to MPC_1 plus two seeds; two
    # mode adds its key product's three hops, the sign seed and 12
    # sign-product bytes.  Two mode's key product runs beside the session,
    # so both modes take 4 rounds (two mode took 7 while it ran after).
    BATCH = {"single": (14, 4, 8.0, 3 * 785 + 32 + 3 * 416),
             "two": (19, 4, 16.0, 6 * 785 + 32 + 3 * 416 + 16 + 12)}

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_twelve_triples_are_one_batch(self, tmp_path, capsys, mode):
        messages, rounds, modexp, sent = self.BATCH[mode]
        ledger = tmp_path / "ledger.jsonl"
        assert run_cli("triples", "-n", "12", "--mode", mode, "--ledger", str(ledger)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["triples"] == 12 and report["invalid"] == 0
        assert report["modexp_per_triple"] == modexp
        assert report["messages_per_triple"] == messages / 12
        assert report["rounds_per_triple"] == rounds / 12
        assert report["bytes_per_triple"] == sent / 12
        ids = [json.loads(line)["triple_id"] for line in ledger.read_text().splitlines()]
        assert ids == ["t%06d" % i for i in range(1, 13)]

    @both_backends
    def test_report_names_the_backend(self, modexp_backend, capsys):
        # CI asserts "libgmp" on this field, so a silent fallback fails there
        assert run_cli("triples", "-n", "1") == 0
        report = json.loads(capsys.readouterr().out)
        gmp = modexp_backend == "loaded" and modmath._open_gmp() is not None
        assert report["modexp_backend"] == ("libgmp" if gmp else "pow")

    @pytest.mark.parametrize("parties", [0, 1, 2])
    def test_fewer_than_three_parties_validation_error(self, capsys, parties):
        assert run_cli("triples", "-n", "1", "--parties", str(parties)) == EXIT_VALIDATION
        assert "need at least 3 MPC parties" in capsys.readouterr().err

    def test_negative_count_usage_error(self, capsys):
        assert run_cli("triples", "-n", "-1") == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_reuse_demo_exits_nonzero(self, capsys):
        assert run_cli("triples", "-n", "1", "--demo-reuse") == EXIT_PROTOCOL

    def test_unwritable_ledger_rejected_before_any_triple(self, tmp_path, capsys, monkeypatch):
        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        ledger = tmp_path / "missing" / "x.jsonl"
        assert run_cli("triples", "-n", "50", "--ledger", str(ledger)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:")
        assert not ledger.exists()

    def test_corrupted_shares_exit_protocol(self, capsys, monkeypatch):
        tamper_sends(monkeypatch, "triple-a:", shifted(DEFAULT_GROUP_256.p))
        assert run_cli("triples", "-n", "4") == EXIT_PROTOCOL
        assert json.loads(capsys.readouterr().out)["invalid"] > 0


class TestSynth:
    def test_writes_matrix(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("synth", "--samples", "10", "--snps", "4",
                       "--freq", "0.5", "--seed", "z", "--out", str(out)) == 0
        m = GenotypeMatrix.from_csv(out)
        assert m.samples == 10 and m.snps == 4
        assert m == synth_genotypes(10, 4, 0.5, "z")

    def test_bad_frequency(self, tmp_path):
        assert run_cli("synth", "--samples", "2", "--snps", "2", "--freq", "1.5",
                       "--out", str(tmp_path / "m.csv")) == EXIT_VALIDATION


@pytest.fixture
def pipeline_files(tmp_path):
    span_rows = [(0, 1, 2, 0, 1, 0), (2, 0, 1, 1, 0, 1)]
    ctrl_rows = span_rows + [(2, 2, 0, 1, 0, 2), (0, 0, 1, 2, 2, 2)]
    case = synth_genotypes(30, 6, 0.5, seed="case")
    case_csv = tmp_path / "case.csv"
    case.to_csv(case_csv)
    basis_csv = tmp_path / "basis.csv"
    orthonormal_columns(span_rows).to_csv(basis_csv)
    ctrl_csv = tmp_path / "ctrl.csv"
    GenotypeMatrix(entries=tuple(ctrl_rows)).to_csv(ctrl_csv)
    return case_csv, basis_csv, ctrl_csv


class TestRun:
    def test_secure_run_report(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        out = tmp_path / "report.json"
        code = run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--seed", "7")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["accepted"] == ["ctrl_000", "ctrl_001"]
        assert report["config"]["tau"] == 0.3
        assert report["config"]["lambda_max"] == 0.05
        assert set(report["config"]) == {"tau", "lambda_max", "parties", "fixed_point",
                                          "seed", "bits", "mode"}
        assert report["triple_count"] > 0
        assert set(report["lambda"]) == {"num", "den", "value"}

    def test_plaintext_oracle_matches_decisions(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        secure_out = tmp_path / "secure.json"
        plain_out = tmp_path / "plain.json"
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(secure_out), "--seed", "7")
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(plain_out),
                "--plaintext-oracle")
        secure = json.loads(secure_out.read_text())
        plain = json.loads(plain_out.read_text())
        assert secure["accepted"] == plain["accepted"]
        assert secure["lambda"]["num"] == plain["lambda"]["num"]
        assert secure["lambda"]["den"] == plain["lambda"]["den"]

    def test_reproducible_up_to_timing(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                    "--controls", str(ctrl_csv), "--out", str(out), "--seed", "42")
            doc = json.loads(out.read_text())
            doc.pop("runtime_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_transcript_export(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        transcript = tmp_path / "transcript.jsonl"
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(tmp_path / "r.json"),
                "--seed", "1", "--transcript-out", str(transcript))
        lines = transcript.read_text().splitlines()
        assert len(lines) > 100
        assert all(json.loads(line)["kind"] in ("msg", "note") for line in lines[:50])

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run_cli("run", "--case", "nope.csv", "--basis", "nope.csv",
                       "--controls", "nope.csv") == EXIT_VALIDATION

    def test_config_file_overridden_by_flags(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": "0.5", "seed": 3}))
        out = tmp_path / "r.json"
        run_cli("run", "--config", str(config), "--case", str(case_csv),
                "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                "--out", str(out), "--tau", "0.25")
        assert json.loads(out.read_text())["config"]["tau"] == 0.25

    @pytest.mark.parametrize("doc,error", [
        ({"accept_small": False}, "unknown config key"),
        ({"fixed_point": {"frac": 8}}, "unknown config key"),
        ({"fixed_point": 5}, "must be JSON objects"),
        ([1, 2], "must be JSON objects"),
    ], ids=["top-level", "fixed-point", "fixed-point-not-object", "not-object"])
    def test_malformed_config_rejected(self, pipeline_files, tmp_path, capsys, doc, error):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(config), "--case", str(case_csv),
                       "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                       "--out", str(out)) == EXIT_VALIDATION
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_no_room_for_the_comparison_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        # kappa 180 leaves the 256-bit field room for Q<32,16> but not for
        # the e + 4f + 1 = 81-bit comparison frame: p <= 2^(180 + 81 + 1)
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"fixed_point": {"kappa": 180}}))

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(config), "--case", str(case_csv),
                       "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                       "--out", str(out)) == EXIT_VALIDATION
        assert "field too small" in capsys.readouterr().err
        assert not out.exists()

    def test_unencodable_tau_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        # tau^2 = 90,000 at scale 2^(4f) needs more than the e + 4f + 1 = 81
        # bits of the comparison frame
        case_csv, basis_csv, ctrl_csv = pipeline_files

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out, ledger = tmp_path / "r.json", tmp_path / "l.jsonl"
        assert run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--tau", "300",
                       "--triple-ledger", str(ledger)) == EXIT_VALIDATION
        assert "outside Q<81,64> range" in capsys.readouterr().err
        assert not out.exists() and not ledger.exists()

    def test_unwritable_ledger_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        case_csv, basis_csv, ctrl_csv = pipeline_files

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out, ledger = tmp_path / "r.json", tmp_path / "missing" / "l.jsonl"
        assert run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out),
                       "--triple-ledger", str(ledger)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists() and not ledger.exists()


class TestDuplicatedMessage:
    """Any message of a run delivered twice fails it with exit 3: the copy is
    a repeated contribution to an opening, or it is left untaken when its
    run ends.  A fixed-seed sample of the messages covers every tag."""

    SAMPLE = 20

    def test_sampled_duplicates_exit_protocol(self, pipeline_files, tmp_path, capsys,
                                              monkeypatch):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        out = tmp_path / "r.json"
        argv = ["run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(out), "--seed", "7"]
        send, tags, doubled = Runtime.send, [], None

        def recording(self, src, dst, tag, payload):
            tags.append(tag)
            if len(tags) == doubled:
                send(self, src, dst, tag, payload)
            return send(self, src, dst, tag, payload)

        monkeypatch.setattr(Runtime, "send", recording)
        assert run_cli(*argv) == 0
        families = {}
        for i, tag in enumerate(tags, 1):
            families.setdefault(re.sub(r":[a-z]\d{6}$", "", tag), []).append(i)
        rng = random.Random(7)
        sample = {rng.choice(indices) for indices in families.values()}
        sample.update(rng.sample(sorted(set(range(1, len(tags) + 1)) - sample),
                                 self.SAMPLE - len(sample)))
        capsys.readouterr()
        out.unlink()
        for index in sorted(sample):
            tags.clear()
            doubled = index
            assert run_cli(*argv) == EXIT_PROTOCOL, (index, tags[index - 1])
            err = capsys.readouterr().err
            assert err.startswith("protocol error:") and "Traceback" not in err
            assert not out.exists()


def run_module(*argv):
    """`python -m spdzgen argv...` in a child process, with this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "spdzgen", *argv], capture_output=True,
                          text=True, env=env)


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = run_module("groupgen", "--bits", "16", "--seed", "e", "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()


# A basis whose one column has an entry past the float range, or whose square
# is; group documents that are not objects or lack g; controls one SNP wider
# than the 6-row basis.
HUGE_BASIS = "1e400\n0\n0\n0\n0\n0\n"
BIG_BASIS = "1e200\n0\n0\n0\n0\n0\n"
NO_G = json.dumps({"p": "23", "q": "11"})
WIDE_CONTROLS = "snp\n0,1,2,0,1,0,1\n"
# One case sample of COUNT_CAP + 5 SNPs, all 0: its count of 0s is past the cap.
TALL_CASE = "snp\n" + ",".join(["0"] * (COUNT_CAP + 5)) + "\n"


@pytest.mark.parametrize("argv,config,code", [
    (["triples", "-n", "0", "--demo-reuse"], None, EXIT_USAGE),
    (["run", "--tau", "1/0"], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1/0"], None, EXIT_VALIDATION),
    (["run"], {"tau": "1/0"}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"kappa": -60}}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"f": 16.9}}, EXIT_VALIDATION),
    (["run"], {"bits": 256.7}, EXIT_VALIDATION),
    (["run"], {"parties": 3.9}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"kappa": False}}, EXIT_VALIDATION),
    (["run"], {"group_path": 5}, EXIT_VALIDATION),
    (["synth", "--samples", "-2", "--snps", "3"], None, EXIT_USAGE),
    (["synth", "--samples", "2", "--snps", "0"], None, EXIT_USAGE),
    (["triples", "-n", "1", "--group", ("g.json", "{}")], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", "[]")], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", '"x"')], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", NO_G)], None, EXIT_VALIDATION),
    (["run"], {"group_path": ("g.json", "{}")}, EXIT_VALIDATION),
    (["run"], {"group_path": ("g.json", NO_G)}, EXIT_VALIDATION),
    (["run", "--basis", ("b.csv", HUGE_BASIS)], None, EXIT_VALIDATION),
    (["run", "--basis", ("b.csv", BIG_BASIS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--basis", ("b.csv", HUGE_BASIS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--basis", ("b.csv", BIG_BASIS)], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1e400"], None, EXIT_VALIDATION),
    (["run"], {"lambda_max": "1e400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--lambda-max", "1e400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "1e400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--controls", ("c.csv", WIDE_CONTROLS)], None,
     EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "300"], None, EXIT_VALIDATION),
    # e = 4 caps ||z||^2 below 8; the third control's is 13
    (["run", "--plaintext-oracle"], {"fixed_point": {"k": 20}}, EXIT_VALIDATION),
    # the field is always the group's own p, so the key is unknown
    (["run"], {"fixed_point": {"p": DEFAULT_GROUP_256.p}}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"fixed_point": {"p": DEFAULT_GROUP_256.p}},
     EXIT_VALIDATION),
    # positive, but `echo` would report 0.0
    (["run", "--tau", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1e-400"], None, EXIT_VALIDATION),
    (["run"], {"tau": "1e-400"}, EXIT_VALIDATION),
    (["run"], {"lambda_max": "1e-400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--lambda-max", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"tau": "1e-400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"lambda_max": "1e-400"}, EXIT_VALIDATION),
    (["run", "--case", ("case.csv", TALL_CASE)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--case", ("case.csv", TALL_CASE)], None, EXIT_VALIDATION),
], ids=["demo-reuse-without-triples", "tau-zero-denominator", "lambda-max-zero-denominator",
        "config-zero-denominator", "negative-kappa", "fractional-f", "fractional-bits",
        "fractional-parties", "boolean-kappa", "group-path-not-string",
        "synth-negative-samples", "synth-zero-snps",
        "triples-group-empty-object", "triples-group-array", "triples-group-string",
        "triples-group-without-g", "run-group-empty-object", "run-group-without-g",
        "basis-past-float", "basis-square-past-float", "oracle-basis-past-float",
        "oracle-basis-square-past-float", "lambda-max-past-float",
        "config-lambda-max-past-float", "oracle-lambda-max-past-float", "oracle-tau-past-float",
        "oracle-wide-controls", "oracle-unencodable-tau", "oracle-norm-past-cap",
        "fixed-point-p", "oracle-fixed-point-p", "tau-below-float", "lambda-max-below-float",
        "config-tau-below-float", "config-lambda-max-below-float", "oracle-tau-below-float",
        "oracle-lambda-max-below-float", "oracle-config-tau-below-float",
        "oracle-config-lambda-max-below-float", "case-count-past-cap",
        "oracle-case-count-past-cap"])
def test_bad_arguments_exit_typed_without_traceback(pipeline_files, tmp_path, argv, config,
                                                    code):
    def written(arg):
        # a (name, text) pair stands for the path of a file holding the text
        if not isinstance(arg, tuple):
            return arg
        (tmp_path / arg[0]).write_text(arg[1])
        return str(tmp_path / arg[0])

    argv = [written(arg) for arg in argv]
    if argv[0] == "synth":
        argv = argv + ["--out", str(tmp_path / "r.json")]
    if argv[0] == "run":
        # an option given in argv comes after these defaults, so it wins
        case_csv, basis_csv, ctrl_csv = pipeline_files
        defaults = ["--case", str(case_csv), "--basis", str(basis_csv),
                    "--controls", str(ctrl_csv), "--out", str(tmp_path / "r.json"),
                    "--triple-ledger", str(tmp_path / "ledger.jsonl")]
        argv = argv[:1] + defaults + argv[1:]
    if config is not None:
        config = {key: written(val) for key, val in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    proc = run_module(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "ledger.jsonl").exists()


class TestPipelineGolden:
    # sha256 of the transcript and the triple ledger of one fixed `run`.  Both
    # were re-pinned when screening stopped truncating the residual (two
    # Beaver openings and one exact sign test per control), and again when
    # sessions stopped sending a done ack, records lost their sequence
    # numbers and Beaver products stopped drawing ids, which moves the triple
    # ids; with ids masked, every other record and ledger line stayed as it
    # was.  The transcript was re-pinned once more when drawn subgroup
    # elements became squares s^2 instead of g^t: every record kept its
    # sender, recipient, tag and payload length, and the ledger did not move.
    # It was re-pinned when the holder of c began to blind and deal its own
    # component (no raw-c relay to the leader; C receives the blind and sends
    # the triple-c shares) and `build_parties` stopped making unread keys,
    # which moves the values drawn from the leader's, BTG_B's and O_ctrl's
    # streams; the ledger did not move.  It was re-pinned again when the
    # holder of c began to draw both single-mode blinds: the blind-r hops
    # moved off the servers, and the triple-c shares, the a' and b' share
    # heads, the Beaver openings that carry them and the values drawn from
    # O_case's stream (which no longer draws a blind) moved; every other
    # record kept its endpoints, tag and payload, and the ledger and report
    # did not move.  Both were re-pinned when independent sends began to share
    # a round: the blind-r records now come before the first BTG hop and
    # carry the batch's first triple id in their tag, the basis goes as one
    # message per server (the concatenation of the per-column payloads), and
    # the fresh ids after it shift down by rank - 1 = 1, which moves every
    # ledger id (t000003 -> t000002).  With the basis payloads concatenated,
    # the blind records moved and the ids mapped, every record kept its
    # endpoints, tag and payload, and each channel kept its order.  The
    # transcript was re-pinned when shares and blinds began to travel as
    # 16-byte seeds: every record kept its endpoints, tag and order, each
    # batch's blind-r records and every share record but the holders'
    # correction shares to MPC_1 carry a seed, and the first batch's BTG hops
    # are unchanged; later hops and the openings that carry the new shares
    # moved, because the holders' rngs draw fewer values.  The ledger and the
    # report did not move.  Both were re-pinned when a run's independent
    # sends began to share a round: every control's z goes in one deal with
    # the basis, lambda's five triples are minted in the last control's
    # batch, and lambda's blind chain runs before one deal of both owners'
    # counts and the blind.  The z deal draws its fresh id before the first
    # mint, so every ledger id moved (t000002 -> t000003 first).  Messages
    # fell from 149 to 131 (one BTG batch fewer: 3 hops, 2 blind seeds, 3 x 3
    # holder shares; two z deals fewer: 4 share seeds); the ledger kept its
    # 47 lines and parties, and the report did not move.  Both were re-pinned
    # when each sign test's truncation became one opening to the mask owner:
    # it deals no masks and no carry and sends no broadcast of c, so a
    # control sends 8 messages fewer (131 fell to 107), its owners note 3
    # local shares fewer, and it draws 3 fresh ids fewer.  The ledger kept
    # its 47 lines and parties, but every id from the second control's batch
    # on moved down by 3 per earlier control (t000024 -> t000021, t000045 ->
    # t000039); the report did not move.  The transcript was re-pinned when
    # the basis/z deal and lambda's blind chain began to run beside the first
    # control's mint: the chain's three hops come in that mint's first three
    # rounds, tagged btg:lambda, and O_case and O_ctrl draw the blind factors
    # and the chain's randomness before the controls' truncation masks, so
    # those values move, and with them the chain's hops, lambda's share
    # seeds and the openings they reach (15 of the 112 records).  Every
    # record kept its endpoints, tag (btg:lambda read as btg) and payload
    # length; the ledger, the report and the modexp count did not move.
    # The control loop, the Beaver products and the dispensation must leave
    # both byte-identical.  The decisions, lambda and triple count are those
    # of the per-triple pipeline that came before the batches.
    TRANSCRIPT_SHA256 = "20615a08a9a8e08807c763472f0c15134b21e61bf85d742cfde33e45bfda665a"
    LEDGER_SHA256 = "73e6cfa6651512d0c7a2499582d37dfe381c3c57f0bbe39251675d6f7be24d99"

    @both_backends
    def test_transcript_and_ledger(self, modexp_backend, tmp_path):
        case_csv, basis_csv, ctrl_csv = (tmp_path / n for n in ("case.csv", "basis.csv", "ctrl.csv"))
        GenotypeMatrix(entries=((0, 1, 2, 1), (1, 1, 0, 2), (2, 1, 1, 0))).to_csv(case_csv)
        basis_csv.write_text("1,0\n0,1\n0,0\n0,0\n")
        GenotypeMatrix(entries=((1, 2, 0, 0), (0, 0, 2, 1), (1, 0, 1, 0))).to_csv(ctrl_csv)
        transcript, ledger, out = tmp_path / "t.jsonl", tmp_path / "l.jsonl", tmp_path / "r.json"
        code = run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--seed", "5",
                       "--transcript-out", str(transcript), "--triple-ledger", str(ledger))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["accepted"] == ["ctrl_000"]
        assert report["lambda"] == {"num": 31, "den": 255, "value": 31 / 255}
        assert report["triple_count"] == 47
        ids = [json.loads(line)["triple_id"] for line in ledger.read_text().splitlines()]
        assert len(ids) == len(set(ids)) == report["triple_count"]
        assert hashlib.sha256(transcript.read_bytes()).hexdigest() == self.TRANSCRIPT_SHA256
        assert hashlib.sha256(ledger.read_bytes()).hexdigest() == self.LEDGER_SHA256
