"""Tests for the Section-3 classifier: labels and fault categories."""

import numpy as np
import pytest

from repro.core.classify import Classifier, EffectLabel, NON_DISRUPTIVE_LABELS
from repro.core.pipeline import controller_fault_universe
from repro.designs.catalog import cached_system
from repro.logic.faults import FaultSite


@pytest.fixture(scope="module")
def classifier(diffeq_system):
    return Classifier(diffeq_system.rtl, diffeq_system.controller)


@pytest.fixture(scope="module")
def classifications(diffeq_system, classifier):
    universe = controller_fault_universe(diffeq_system)
    return classifier.classify_all(universe)


class TestCategories:
    def test_every_fault_classified(self, classifications):
        assert all(c.category in ("CFR", "SFR", "SFI") for c in classifications)

    def test_cfr_faults_have_no_effects(self, classifications):
        for c in classifications:
            if c.category == "CFR":
                assert c.effects == []

    def test_non_cfr_faults_have_effects(self, classifications):
        for c in classifications:
            if c.category != "CFR":
                assert c.effects

    def test_sfr_faults_have_reasons(self, classifications):
        for c in classifications:
            if c.category == "SFR":
                assert "match" in c.reason

    def test_all_three_categories_present(self, classifications):
        cats = {c.category for c in classifications}
        assert cats == {"CFR", "SFR", "SFI"}


class TestLabelConsistency:
    def test_sfr_faults_only_carry_nondisruptive_select_and_load_labels(
        self, classifications
    ):
        """The taxonomy and the oracle must broadly agree: an SFR verdict
        with a LOAD_SKIPPED label is legal only when the skipped load is
        recovered (RESET reload); disruptive labels should be rare."""
        for c in classifications:
            if c.category != "SFR":
                continue
            for e in c.effects:
                # The oracle is authoritative; a disruptive label on an SFR
                # fault may only occur for skipped loads that the analysis
                # cannot see are recovered, never for garbage extra loads.
                assert e.label is not EffectLabel.UNKNOWN_CONTROL

    def test_sfi_faults_have_a_disruptive_explanation_or_flow_change(
        self, classifications
    ):
        for c in classifications:
            if c.category != "SFI":
                continue
            has_disruptive = any(e.label not in NON_DISRUPTIVE_LABELS for e in c.effects)
            assert has_disruptive or "condition" in c.reason or "output" in c.reason

    def test_select_only_property(self, classifications):
        for c in classifications:
            if c.select_only:
                assert all(e.effect.line.startswith("MS") for e in c.effects)
                assert not c.affects_load_line


class TestEffectSummaries:
    def test_summaries_deduplicate(self, classifications):
        for c in classifications:
            summary = c.effect_summary()
            assert len(summary) == len(set(summary))

    def test_shared_line_expands_register_names(self, facet_system):
        from repro.core.classify import Classifier as C

        clf = C(facet_system.rtl, facet_system.controller)
        universe = controller_fault_universe(facet_system)
        # Find a fault producing extra loads on a shared line.
        for site in universe:
            c = clf.classify(site)
            load_effects = [e for e in c.effects if e.effect.line.startswith("LD")]
            if load_effects and any(e.register for e in load_effects):
                line = load_effects[0].effect.line
                regs = {e.register for e in load_effects if e.effect.line == line}
                expected = set(facet_system.rtl.regs_on_line[line])
                assert regs <= expected
                return
        pytest.fail("no load-line fault found on facet")


class TestOracleSoundness:
    def test_sfr_oracle_agrees_with_gate_level(self, diffeq_system, classifications):
        """Every analytically-SFR fault must be *undetectable* by a
        gate-level random test of the integrated system (sampled at
        fault-free HOLD times) -- the paper's core claim."""
        import numpy as np

        from repro.hls.system import NormalModeStimulus, hold_masks
        from repro.logic.faultsim import Verdict, fault_simulate
        from repro.core.pipeline import controller_fault_universe

        universe = controller_fault_universe(diffeq_system)
        sfr_sites = [
            diffeq_system.to_system_fault(site)
            for site, c in zip(universe, classifications)
            if c.category == "SFR"
        ]
        rng = np.random.default_rng(99)
        data = {
            k: rng.integers(0, 16, 64) for k in diffeq_system.rtl.dfg.inputs
        }
        stim = NormalModeStimulus(diffeq_system, data, diffeq_system.cycles_for(5))
        masks = hold_masks(diffeq_system, stim)
        observe = [n for bus in diffeq_system.output_buses.values() for n in bus]
        res = fault_simulate(
            diffeq_system.netlist, sfr_sites, stim, observe=observe, valid_masks=masks
        )
        detected = [f for f, v in res.verdicts.items() if v is Verdict.DETECTED]
        assert detected == []


def _as_json(c):
    from repro.incremental.replay import classification_to_json

    return classification_to_json(c)


class TestClassifyAll:
    def test_empty(self, classifier):
        assert classifier.classify_all([]) == []

    def test_duplicates_and_order(self, diffeq_system, classifier, classifications):
        universe = controller_fault_universe(diffeq_system)
        want = {site: _as_json(c) for site, c in zip(universe, classifications)}
        picked = universe[::5]
        shuffled = list(reversed(picked)) + picked[:10]
        got = classifier.classify_all(shuffled)
        assert [c.fault for c in got] == shuffled
        for site, c in zip(shuffled, got):
            assert _as_json(c) == want[site]

    def test_cond_probe_runs_on_diffeq(self, diffeq_system, classifier, monkeypatch):
        """The batched cond-sensitivity probe is exercised by the universe."""
        import repro.core.classify as classify_mod

        calls = []
        real = classify_mod.faulty_control_values

        def spy(ctrl, sc, faults, cond_flips=None):
            if cond_flips is not None:
                calls.append(len(faults))
            return real(ctrl, sc, faults, cond_flips)

        monkeypatch.setattr(classify_mod, "faulty_control_values", spy)
        classifier.classify_all(controller_fault_universe(diffeq_system))
        assert calls and all(n > 0 for n in calls)


class TestClassifyAudit:
    @staticmethod
    def _corrupting(monkeypatch, victim):
        """Flip one control line of ``victim``'s batched trace."""
        import repro.core.classify as classify_mod

        real = classify_mod.faulty_control_values

        def corrupt(ctrl, sc, faults, cond_flips=None):
            values = real(ctrl, sc, faults, cond_flips)
            if victim in faults:
                i = faults.index(victim)
                values[5, 0, i] = 1 - max(values[5, 0, i], 0)
            return values

        monkeypatch.setattr(classify_mod, "faulty_control_values", corrupt)

    def test_clean_audit_flags_nothing(self, diffeq_system, classifier):
        from repro.core.integrity import IntegrityGuard

        universe = controller_fault_universe(diffeq_system)[:40]
        guard = IntegrityGuard()
        audit = {site: f"k{i}" for i, site in enumerate(universe)}
        classifier.classify_all(universe, audit=audit, guard=guard)
        assert guard.violations == []

    def test_mismatch_is_flagged(self, diffeq_system, classifier, monkeypatch):
        from repro.core.integrity import IntegrityGuard

        universe = controller_fault_universe(diffeq_system)[:20]
        victim = universe[3]
        self._corrupting(monkeypatch, victim)
        guard = IntegrityGuard()
        classifier.classify_all(universe, audit={victim: "victim"}, guard=guard)
        assert {v.fault for v in guard.violations} == {"victim"}
        assert guard.violations[0].check == "classify-trace-differential"
        assert guard.violations[0].cycle == 5

    def test_strict_aborts(self, diffeq_system, classifier, monkeypatch):
        from repro.core.errors import IntegrityError
        from repro.core.integrity import IntegrityGuard

        universe = controller_fault_universe(diffeq_system)[:20]
        self._corrupting(monkeypatch, universe[0])
        with pytest.raises(IntegrityError):
            classifier.classify_all(
                universe,
                audit={universe[0]: "victim"},
                guard=IntegrityGuard(strict=True),
            )

    def test_pipeline_quarantines_audited_mismatch(self, facet_system, monkeypatch):
        from repro.logic.faults import fault_key
        from repro.core.pipeline import PipelineConfig, run_pipeline
        from repro.logic.faultsim import Verdict

        clean = run_pipeline(facet_system, PipelineConfig(n_patterns=128))
        victim = next(
            r for r in clean.records if r.simulation is Verdict.UNDETECTED
        )
        self._corrupting(monkeypatch, victim.site)
        result = run_pipeline(
            facet_system, PipelineConfig(n_patterns=128, audit_rate=0.999999)
        )
        report = result.classify_campaign
        assert report.audited == report.completed == report.n_items
        assert {v.fault for v in report.violations} == {fault_key(victim.system_site)}
        quarantined = [r for r in result.records if r.quarantined]
        assert [r.site for r in quarantined] == [victim.site]


class TestReplayAudit:
    """Audited faults are re-classified on the per-fault replay path."""

    @staticmethod
    def _corrupting(monkeypatch):
        """Overwrite every register of the array pass's first faulty row."""
        import repro.core.classify as classify_mod

        real = classify_mod.replay_rows

        def corrupt(*args):
            result = real(*args)
            result.reg_hist[1:, :, 1] = -7
            return result

        monkeypatch.setattr(classify_mod, "replay_rows", corrupt)

    def test_corrupted_row_is_quarantined(self, facet_system, monkeypatch):
        from repro.core.classify import REPLAY_DIFFERENTIAL_CHECK
        from repro.core.pipeline import PipelineConfig, run_pipeline
        from repro.logic.faults import fault_key

        config = PipelineConfig(n_patterns=128, audit_rate=0.999999)
        self._corrupting(monkeypatch)
        result = run_pipeline(facet_system, config)
        report = result.classify_campaign
        assert report.audited == report.completed == report.n_items
        assert [v.check for v in report.violations] == [REPLAY_DIFFERENTIAL_CHECK]
        (violation,) = report.violations
        assert violation.expected.startswith("SFR")
        assert violation.actual.startswith("SFI")
        quarantined = [r for r in result.records if r.quarantined]
        assert [fault_key(r.system_site) for r in quarantined] == [violation.fault]
        assert quarantined[0] not in result.sfr_records
        assert quarantined[0].classification.category == "SFI"

    def test_corrupted_row_aborts_strict(self, facet_system, monkeypatch):
        from repro.core.errors import IntegrityError
        from repro.core.pipeline import PipelineConfig, run_pipeline

        self._corrupting(monkeypatch)
        with pytest.raises(IntegrityError, match="classify-replay-differential"):
            run_pipeline(
                facet_system,
                PipelineConfig(n_patterns=128, audit_rate=0.999999, strict=True),
            )

    def test_unaudited_corruption_goes_unseen(self, facet_system, monkeypatch):
        """The check lives in the audit: at rate 0 the corrupted row turns
        an SFR fault SFI and nothing is flagged."""
        from repro.core.pipeline import PipelineConfig, run_pipeline

        config = PipelineConfig(n_patterns=128, audit_rate=0.0)
        clean = run_pipeline(facet_system, config).counts()
        self._corrupting(monkeypatch)
        result = run_pipeline(facet_system, config)
        assert result.classify_campaign.violations == []
        assert result.counts() != clean

    def test_clean_audited_run_records_nothing(self, diffeq_system, monkeypatch):
        import repro.core.classify as classify_mod
        from repro.core.pipeline import PipelineConfig, run_pipeline

        oracle_calls = []
        real = classify_mod.replay

        def spy(rtl, trace, table):
            oracle_calls.append(trace.scenario.iterations)
            return real(rtl, trace, table)

        monkeypatch.setattr(classify_mod, "replay", spy)
        result = run_pipeline(
            diffeq_system, PipelineConfig(n_patterns=128, audit_rate=0.999999, strict=True)
        )
        report = result.classify_campaign
        assert report.audited == report.n_items and report.violations == []
        assert oracle_calls

    def test_replay_runs_only_for_audited_faults(self, diffeq_system, monkeypatch):
        import repro.core.classify as classify_mod

        universe = controller_fault_universe(diffeq_system)
        clf = Classifier(diffeq_system.rtl, diffeq_system.controller)
        clf._golden  # the golden replays are built once, up front
        calls = []
        real = classify_mod.replay
        monkeypatch.setattr(
            classify_mod, "replay", lambda *a: calls.append(a[1]) or real(*a)
        )
        clf.classify_all(universe)
        assert calls == []
        clf.classify_all(universe, audit={universe[0]: "k0"})
        assert len(calls) <= len(clf.scenarios)


def _cond_ids(clf: Classifier, result) -> np.ndarray:
    """A replay's cond-FU value numbers per cycle (-1 where it has none)."""
    return np.array([h.get(clf.rtl.cond_fu, -1) for h in result.fu_history])


def _serial_reference(clf: Classifier, fault: FaultSite):
    """The per-fault classification loop on the 1-pattern oracle.

    One fault at a time: the oracle trace per scenario, the replay
    verdict, then the cond probe rerun on the oracle and the periodicity
    guard -- the reference ``classify_all`` must reproduce exactly."""
    from repro.core.classify import FaultClassification, label_effects
    from repro.core.effects import diff_traces, faulty_control_trace, trace_values
    from repro.core.symbolic import compare_replays, replay

    effects, any_effect, reason = [], False, ""
    for sc, gtrace, table, greplay, timeline in clf._golden:
        ftrace = faulty_control_trace(clf.ctrl, sc, fault)
        diff = diff_traces(gtrace, ftrace)
        if not diff:
            continue
        any_effect = True
        freplay = replay(clf.rtl, ftrace, table)
        cmp = compare_replays(greplay, freplay)
        if not cmp.equivalent:
            reason = reason or f"{cmp.reason} ({sc.iterations} iteration(s))"
        elif not reason:
            mismatch = clf._cond_mismatch(
                sc, _cond_ids(clf, greplay), _cond_ids(clf, freplay)[:, None]
            )
            flips = set(np.flatnonzero(mismatch[:, 0]).tolist())
            probe = flips and faulty_control_trace(clf.ctrl, sc, fault, cond_flips=flips)
            if probe and probe.lines != ftrace.lines:
                reason = "comparator corrupted and faulty controller is cond-sensitive"
            elif not clf._tail_is_periodic(trace_values(clf.ctrl, ftrace)[:, :, None])[0]:
                reason = "faulty control stream not periodic at scenario end"
        effects.extend(label_effects(clf.rtl, timeline, ftrace, freplay, diff))
    if not any_effect:
        return FaultClassification(fault, "CFR", [], "no control line effect in any scenario")
    if not reason:
        return FaultClassification(
            fault, "SFR", effects, "all observed outputs and loop decisions match fault-free"
        )
    return FaultClassification(fault, "SFI", effects, reason)


class TestAgainstSerialReference:
    @pytest.mark.parametrize("probe_everywhere", [False, True])
    def test_batched_equals_serial_oracle_loop(
        self, diffeq_system, monkeypatch, probe_everywhere
    ):
        """``probe_everywhere`` widens the cond probe to every non-decision
        cycle, so the divergent probe branch fires for real faults."""
        if probe_everywhere:

            def everywhere(self, sc, golden, faulty):
                mask = np.ones(faulty.shape, dtype=bool)
                mask[0] = False
                mask[self._decisions(sc)] = False
                return mask

            monkeypatch.setattr(Classifier, "_cond_mismatch", everywhere)
        faults = controller_fault_universe(diffeq_system)[::3]
        batched = Classifier(diffeq_system.rtl, diffeq_system.controller)
        serial = Classifier(diffeq_system.rtl, diffeq_system.controller)
        got = batched.classify_all(faults)
        want = [_serial_reference(serial, f) for f in faults]
        assert [_as_json(c) for c in got] == [_as_json(c) for c in want]
        if probe_everywhere:
            reasons = {c.reason for c in want}
            assert "comparator corrupted and faulty controller is cond-sensitive" in reasons

    @pytest.mark.parametrize(
        "design, stride", [("facet", 1), ("poly", 1), ("biquad", 2), ("ewf", 9)]
    )
    def test_catalog_design_equals_serial_oracle_loop(self, design, stride):
        """The other catalog designs: facet and poly have no cond FU and
        one scenario, biquad has a cond FU and three scenarios, and ewf
        (a fixed subset of its faults) has the widest muxes."""
        system = cached_system(design)
        faults = controller_fault_universe(system)[::stride]
        got = Classifier(system.rtl, system.controller).classify_all(faults)
        serial = Classifier(system.rtl, system.controller)
        want = [_serial_reference(serial, f) for f in faults]
        assert [_as_json(c) for c in got] == [_as_json(c) for c in want]
        assert {c.category for c in got} >= {"CFR", "SFR"}
