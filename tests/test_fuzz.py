"""Tests for the seed-driven differential fuzzer (:mod:`repro.fuzz`).

Covers the tentpole guarantees of PR 9:

* **Determinism** — the same ``(seed, count)`` produces byte-identical
  reports across runs (and across the generator/harness seams: specs,
  printed sources, verdicts).
* **Properties hold on the real compiler** — a fixed-seed campaign over
  generated programs (well-typed and mutated) reports zero violations, and
  the workload seed corpus (histogram and stencil included) checks clean.
* **Seeded bugs are caught** — breaking the race detector, and separately
  the ``fuse-arith`` optimizer pass, is detected within a handful of cases;
  the minimized repro persists to the store and replays (and stops
  reproducing once the bug is removed).
* **Shrinking** — greedy minimization preserves the failing property while
  strictly simplifying the spec.
"""

import json
from dataclasses import replace as dc_replace

from repro.cli import main as cli_main
from repro.descend.plan import optimize as opt_mod
from repro.descend.store import ArtifactStore
from repro.fuzz import (
    MUTATIONS,
    build_program,
    run_fuzz,
    run_replay,
    shrink_spec,
)
from repro.fuzz.corpus import REPRO_KIND, load_repros
from repro.fuzz.generate import spec_for_case
from repro.fuzz.harness import CaseResult, Violation
from repro.descend.ast.printer import print_program
from repro.gpusim import races as races_mod


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_specs_are_a_pure_function_of_seed_and_index(self):
        for index in range(12):
            assert spec_for_case(7, index) == spec_for_case(7, index)

    def test_printed_sources_are_deterministic(self):
        for index in range(6):
            first = print_program(build_program(spec_for_case(3, index)))
            second = print_program(build_program(spec_for_case(3, index)))
            assert first == second

    def test_specs_vary_across_indices(self):
        specs = {spec_for_case(0, index) for index in range(20)}
        assert len(specs) >= 15

    def test_mutation_mode_produces_known_mutations(self):
        mutations = {
            spec_for_case(0, index).mutation
            for index in range(40)
            if spec_for_case(0, index).mutation
        }
        assert mutations  # the 25% mutation rate fires within 40 cases
        assert mutations <= set(MUTATIONS)


# ---------------------------------------------------------------------------
# The differential campaign on the real (unbroken) compiler
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_fixed_seed_campaign_holds_every_property(self):
        report = run_fuzz(seed=0, count=30, include_seeds=False)
        assert report["ok"], report["violations"]
        assert report["well_typed"] == 21
        assert report["rejected"] == 9
        # Every mutant of this campaign is ill-typed and rejected.
        assert report["mutants"] == 9
        assert report["mutants_rejected"] == 9
        # No silent plan/jit fallbacks: every well-typed case really ran
        # on both engines.
        assert report["fallbacks"] == {}

    def test_report_is_byte_identical_across_runs(self):
        first = run_fuzz(seed=3, count=12, include_seeds=False)
        second = run_fuzz(seed=3, count=12, include_seeds=False)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_seed_corpus_checks_clean(self):
        report = run_fuzz(seed=0, count=0, include_seeds=True)
        assert report["ok"], report["violations"]
        seeds = report["seed_programs"]
        for name in ("histogram", "stencil", "reduce", "scan", "transpose"):
            assert seeds[name] == {"verdict": "well-typed", "ok": True}
        # The Section 2 ill-typed programs stay rejected with stable codes.
        assert seeds["unsafe:missing_sync"]["verdict"] == "rejected"
        assert seeds["unsafe:missing_sync"]["code"] == "E0001"
        assert all(
            entry["verdict"] == "rejected"
            for name, entry in seeds.items()
            if name.startswith("unsafe:")
        )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrink_preserves_the_failing_property(self):
        spec = spec_for_case(0, 0)
        assert spec.block_size >= 4

        def check(candidate, index):
            result = CaseResult(source="", verdict="well-typed")
            if candidate.block_size >= 4:
                result.violations.append(Violation("engine-parity", "synthetic"))
            return result

        shrunk = shrink_spec(spec, ("engine-parity",), 0, check)
        # Greedy halving stops exactly where the failure stops reproducing,
        # and everything irrelevant to it (phases, extra inputs) is dropped.
        assert shrunk.block_size == 4
        assert shrunk.ept == 1
        assert shrunk.num_inputs == 1
        assert shrunk.phases == ()

    def test_shrink_is_bounded(self):
        spec = spec_for_case(0, 1)
        calls = []

        def check(candidate, index):
            calls.append(candidate)
            result = CaseResult(source="", verdict="well-typed")
            result.violations.append(Violation("engine-parity", "always fails"))
            return result

        shrink_spec(spec, ("engine-parity",), 0, check, max_steps=20)
        assert len(calls) <= 21


# ---------------------------------------------------------------------------
# Seeded bugs: the harness must catch injected compiler/simulator breaks
# ---------------------------------------------------------------------------


def _lying_race_check(original):
    """A race detector that reports one fabricated conflict on every launch."""

    def check(self):
        first = races_mod.RecordedAccess(
            buffer_id=0, offset=0, block=0, thread=0, epoch=0,
            is_write=True, buffer_label="<injected>",
        )
        second = races_mod.RecordedAccess(
            buffer_id=0, offset=0, block=0, thread=1, epoch=0,
            is_write=True, buffer_label="<injected>",
        )
        return original(self) + [races_mod.RaceReport(first, second)]

    return check


def _corrupting_fuse_arith(plan):
    """`fuse-arith` that additionally flips every `+` to `-` (a wrong opt)."""
    plan, changed = opt_mod.fuse_arith(plan)

    def fix_seq(ops):
        out = []
        for op in ops:
            op = opt_mod._map_bodies(op, fix_seq)
            if isinstance(op, opt_mod.ArithOp) and op.op == "+":
                op = dc_replace(op, op="-")
            elif isinstance(op, opt_mod.FusedArithOp) and op.outer_op == "+":
                op = dc_replace(op, outer_op="-")
            out.append(op)
        return tuple(out)

    return dc_replace(plan, body=fix_seq(plan.body)), changed + 1


class TestSeededBugs:
    def test_broken_race_detector_is_caught_and_replayable(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        original = races_mod.RaceDetector.check
        with monkeypatch.context() as patch:
            patch.setattr(races_mod.RaceDetector, "check", _lying_race_check(original))
            report = run_fuzz(seed=11, count=6, store=store, include_seeds=False)
            assert not report["ok"]
            properties = {v["property"] for v in report["violations"]}
            assert "well-typed-race-free" in properties
            assert report["repros"], "a minimized repro must be persisted"
            # The minimized repro is dramatically smaller than a full case.
            assert len(report["repros"][0]["source"].splitlines()) <= 12
            # With the bug still in place, every persisted repro reproduces.
            replay = run_replay(store)
            assert replay["checked"] == len(load_repros(store)) > 0
            assert replay["reproduced"] == replay["checked"]
        # Bug removed: the same store replays clean (the repro is "fixed").
        replay = run_replay(store)
        assert replay["reproduced"] == 0

    def test_broken_fuse_arith_pass_is_caught_and_replayable(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        broken = tuple(
            (name, _corrupting_fuse_arith if name == "fuse-arith" else fn)
            for name, fn in opt_mod.PASSES
        )
        with monkeypatch.context() as patch:
            patch.setattr(opt_mod, "PASSES", broken)
            report = run_fuzz(seed=11, count=8, store=store, include_seeds=False)
            assert not report["ok"]
            properties = {v["property"] for v in report["violations"]}
            assert "raw-vs-optimized-plan" in properties
            assert report["repros"]
            replay = run_replay(store)
            assert replay["reproduced"] == replay["checked"] > 0
        replay = run_replay(store)
        assert replay["reproduced"] == 0

    def test_repros_persist_under_the_fuzz_repro_kind(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        original = races_mod.RaceDetector.check
        with monkeypatch.context() as patch:
            patch.setattr(races_mod.RaceDetector, "check", _lying_race_check(original))
            run_fuzz(seed=11, count=3, store=store, include_seeds=False)
        kinds = store.stats()["kinds"]
        assert kinds.get(REPRO_KIND, {}).get("count", 0) > 0
        for digest, repro in load_repros(store):
            assert repro["property"] == "well-typed-race-free"
            assert isinstance(repro["source"], str) and repro["source"]


# ---------------------------------------------------------------------------
# The CLI surface
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_cli_fuzz_is_deterministic_and_exits_zero(self, capsys):
        assert cli_main(["fuzz", "--seed", "5", "--count", "6", "--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["fuzz", "--seed", "5", "--count", "6", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["ok"] is True
        assert report["cases"] == 6

    def test_cli_fuzz_human_summary(self, capsys):
        assert cli_main(["fuzz", "--seed", "5", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: seed 5, 4 case(s)" in out
        assert "all properties held" in out

    def test_cli_replay_requires_a_store(self, capsys):
        assert cli_main(["fuzz", "--replay"]) == 2
        assert "--replay needs a store" in capsys.readouterr().err

    def test_cli_replay_empty_store_exits_zero(self, tmp_path, capsys):
        assert cli_main(["fuzz", "--replay", "--store", str(tmp_path / "s")]) == 0
        assert "0 repro(s)" in capsys.readouterr().out

    def test_cli_fuzz_exits_nonzero_on_violations_and_replays_them(
        self, tmp_path, monkeypatch, capsys
    ):
        store_arg = ["--store", str(tmp_path / "store")]
        original = races_mod.RaceDetector.check
        with monkeypatch.context() as patch:
            patch.setattr(races_mod.RaceDetector, "check", _lying_race_check(original))
            assert cli_main(["fuzz", "--seed", "11", "--count", "2", *store_arg]) == 1
            out = capsys.readouterr().out
            assert "property violation" in out
            assert "minimized repro" in out
            assert cli_main(["fuzz", "--replay", *store_arg]) == 1
            assert "REPRODUCES" in capsys.readouterr().out
        # Bug gone: replay exits zero and reports the repros as fixed.
        assert cli_main(["fuzz", "--replay", *store_arg]) == 0
        assert "fixed" in capsys.readouterr().out
