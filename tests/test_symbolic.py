"""Unit tests for the symbolic value-numbering replay oracle."""

import numpy as np
import pytest

from repro.core.arrayreplay import replay_rows
from repro.core.effects import (
    ControlTrace,
    Scenario,
    faulty_control_values,
    golden_control_trace,
    make_scenarios,
    trace_values,
)
from repro.core.pipeline import controller_fault_universe
from repro.core.symbolic import ValueTable, compare_replays, replay
from repro.designs.catalog import cached_system
from repro.hls.dfg import OpKind


class TestValueTable:
    def test_hash_consing(self):
        t = ValueTable()
        assert t.input("x") == t.input("x")
        assert t.input("x") != t.input("y")
        assert t.const("c") != t.input("c")

    def test_op_identity(self):
        t = ValueTable()
        a, b = t.input("a"), t.input("b")
        assert t.op(OpKind.ADD, a, b) == t.op(OpKind.ADD, a, b)

    def test_commutative_canonicalisation(self):
        t = ValueTable()
        a, b = t.input("a"), t.input("b")
        assert t.op(OpKind.MUL, a, b) == t.op(OpKind.MUL, b, a)
        assert t.op(OpKind.ADD, a, b) == t.op(OpKind.ADD, b, a)

    def test_noncommutative_order_matters(self):
        t = ValueTable()
        a, b = t.input("a"), t.input("b")
        assert t.op(OpKind.SUB, a, b) != t.op(OpKind.SUB, b, a)
        assert t.op(OpKind.LT, a, b) != t.op(OpKind.LT, b, a)

    def test_garbage_always_fresh(self):
        t = ValueTable()
        assert t.garbage() != t.garbage()

    def test_uninit_keyed_by_register(self):
        t = ValueTable()
        assert t.uninit("REG1") == t.uninit("REG1")
        assert t.uninit("REG1") != t.uninit("REG2")


class TestReplay:
    def test_golden_replay_is_self_equivalent(self, diffeq_system):
        rtl = diffeq_system.rtl
        for sc in make_scenarios(rtl):
            trace = golden_control_trace(diffeq_system.controller, sc)
            table = ValueTable()
            g1 = replay(rtl, trace, table)
            g2 = replay(rtl, trace, table)
            cmp = compare_replays(g1, g2)
            assert cmp.equivalent

    def test_golden_outputs_are_not_garbage(self, diffeq_system):
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[0]
        trace = golden_control_trace(diffeq_system.controller, sc)
        table = ValueTable()
        result = replay(rtl, trace, table)
        assert result.output_samples
        assert not result.saw_unknown_control
        # Output at HOLD must be a composed op value, not uninit garbage.
        uninit_ids = {table.uninit(r.name) for r in rtl.registers}
        for _, outs in result.output_samples:
            for vid in outs.values():
                assert vid not in uninit_ids

    def test_cond_decisions_recorded_per_iteration(self, diffeq_system):
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[2]  # 3 iterations
        trace = golden_control_trace(diffeq_system.controller, sc)
        result = replay(rtl, trace, ValueTable())
        assert len(result.cond_decisions) == 3

    def test_skipped_input_load_changes_outputs(self, diffeq_system):
        """Forcing a load line low in the last RESET cycle leaves the
        register at its uninitialised value -> outputs must differ."""
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[0]
        trace = golden_control_trace(diffeq_system.controller, sc)
        table = ValueTable()
        golden = replay(rtl, trace, table)
        import copy

        broken = copy.deepcopy(trace)
        y_line = rtl.line_of_register(rtl.value_reg["y"])
        for cycle in range(sc.first_body_cycle):
            broken.lines[cycle][y_line] = 0
        faulty = replay(rtl, broken, table)
        cmp = compare_replays(golden, faulty)
        assert not cmp.equivalent

    def test_extra_load_in_hold_is_equivalent(self, diffeq_system):
        """An extra load of a non-output register during HOLD does not
        change any observed output (the classic SFR case)."""
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[0]
        trace = golden_control_trace(diffeq_system.controller, sc)
        table = ValueTable()
        golden = replay(rtl, trace, table)
        import copy

        out_regs = set(rtl.outputs.values())
        victim = next(
            r for r in rtl.registers
            if r.name not in out_regs and len(r.input_mux.sources) == 1
        )
        broken = copy.deepcopy(trace)
        for cycle in range(sc.n_cycles):
            if sc.golden_state(cycle) == "HOLD":
                broken.lines[cycle][victim.load_line] = 0 if False else 1
        faulty = replay(rtl, broken, table)
        assert compare_replays(golden, faulty).equivalent

    def test_x_load_of_changing_value_flags_unknown(self, diffeq_system):
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[0]
        trace = golden_control_trace(diffeq_system.controller, sc)
        import copy

        broken = copy.deepcopy(trace)
        # A temp register fed by a single FU: the incoming op value can
        # never equal the register's current (uninitialised) content, so an
        # X load must go conservative.
        temp = rtl.value_reg["s1"]
        line = rtl.line_of_register(temp)
        broken.lines[sc.first_body_cycle][line] = -1
        table = ValueTable()
        faulty = replay(rtl, broken, table)
        assert faulty.saw_unknown_control


class TestValueTableArrays:
    def test_op_ids_agree_with_op(self):
        t = ValueTable()
        a = np.array([[t.input("a"), t.input("b")], [t.input("b"), t.input("a")]])
        b = np.array([[t.input("b"), t.input("a")], [t.input("a"), t.input("b")]])
        kinds = [OpKind.ADD, OpKind.SUB]
        ids = t.op_ids(kinds, a, b)
        want = [[t.op(k, int(x), int(y)) for x, y in zip(ra, rb)]
                for k, ra, rb in zip(kinds, a, b)]
        assert ids.tolist() == want
        # ADD is commutative, SUB is not.
        assert ids[0, 0] == ids[0, 1] and ids[1, 0] != ids[1, 1]

    def test_garbage_ids_are_fresh(self):
        t = ValueTable()
        x = t.input("x")
        block = t.garbage_ids(3).tolist()
        single = t.garbage()
        assert len({x, single, *block, *t.garbage_ids(2).tolist()}) == 7
        assert t.input("y") not in {x, single, *block}


def _trace(ctrl, sc, column):
    """The :class:`ControlTrace` of one ``(n_cycles, n_lines)`` value column."""
    names = list(ctrl.output_nets)
    return ControlTrace(sc, [dict(zip(names, row)) for row in column.tolist()])


def _array_pass(system, sc, gtrace, columns):
    """Golden plus ``columns`` (each ``(n_cycles, n_lines)``) in one pass."""
    gvalues = trace_values(system.controller, gtrace)
    stacked = np.stack([gvalues, *columns], axis=2)
    return stacked, replay_rows(
        system.rtl,
        list(system.controller.output_nets),
        stacked,
        np.full(stacked.shape[2], sc.n_cycles),
        ValueTable(),
    )


class TestArrayReplay:
    @pytest.mark.parametrize("design", ["facet", "poly", "diffeq", "biquad", "ewf"])
    def test_rows_match_per_fault_replay(self, design):
        """Every scenario: each effect-bearing fault's verdict and reason,
        and its cond-FU and register equality with golden per cycle, equal
        the per-fault replay's."""
        from repro.core.classify import Classifier, _ReplayBlock

        system = cached_system(design)
        rtl, ctrl = system.rtl, system.controller
        clf = Classifier(rtl, ctrl)
        universe = controller_fault_universe(system)
        faults = universe[:: max(1, len(universe) // 120)]
        for sc, gtrace, _table, _greplay, _timeline in clf._golden:
            values = faulty_control_values(ctrl, sc, faults)
            gvalues = trace_values(ctrl, gtrace)
            effect = [i for i in range(len(faults))
                      if (values[1:, :, i] != gvalues[1:]).any()]
            assert effect
            stacked, rows = _array_pass(
                system, sc, gtrace, [values[:, :, i] for i in effect]
            )
            reasons = clf._verdicts(sc, _ReplayBlock(stacked, rows.reg_hist, rows.cond))
            table = ValueTable()
            golden = replay(rtl, gtrace, table)
            for j, i in enumerate(effect, start=1):
                faulty = replay(rtl, _trace(ctrl, sc, values[:, :, i]), table)
                cmp = compare_replays(golden, faulty)
                assert reasons[j - 1] == (None if cmp.equivalent else cmp.reason)
                for c in range(sc.n_cycles):
                    want = [faulty.reg_history[c][r.name] == golden.reg_history[c][r.name]
                            for r in rtl.registers]
                    got = (rows.reg_hist[c, :, j] == rows.reg_hist[c, :, 0]).tolist()
                    assert got == want, (design, sc.iterations, faults[i], c)
                    if rtl.cond_fu and c:
                        assert (rows.cond[c, j] == rows.cond[c, 0]) == (
                            faulty.fu_history[c][rtl.cond_fu]
                            == golden.fu_history[c][rtl.cond_fu]
                        )

    def test_rows_must_not_grow(self, diffeq_system):
        rtl, ctrl = diffeq_system.rtl, diffeq_system.controller
        sc = make_scenarios(rtl)[0]
        gvalues = trace_values(ctrl, golden_control_trace(ctrl, sc))
        with pytest.raises(ValueError):
            replay_rows(rtl, list(ctrl.output_nets), np.stack([gvalues] * 2, axis=2),
                        np.array([sc.n_cycles - 1, sc.n_cycles]), ValueTable())

    def test_short_rows_stop_at_their_length(self, diffeq_system):
        """Two scenarios in one pass replay as they do alone."""
        rtl, ctrl = diffeq_system.rtl, diffeq_system.controller
        long_sc, short_sc = make_scenarios(rtl)[2], make_scenarios(rtl)[0]
        lv = trace_values(ctrl, golden_control_trace(ctrl, long_sc))
        sv = trace_values(ctrl, golden_control_trace(ctrl, short_sc))
        stacked = np.zeros((len(lv), lv.shape[1], 2), dtype=np.int8)
        stacked[:, :, 0], stacked[: len(sv), :, 1] = lv, sv
        both = replay_rows(rtl, list(ctrl.output_nets), stacked,
                           np.array([len(lv), len(sv)]), ValueTable())
        alone = replay_rows(rtl, list(ctrl.output_nets), sv[:, :, None],
                            np.array([len(sv)]), ValueTable())
        assert (both.reg_hist[len(sv):, :, 1] == -1).all()
        # Same equalities between cycles, whatever the numbering.
        a = both.reg_hist[: len(sv), :, 1].ravel()
        b = alone.reg_hist[:, :, 0].ravel()
        assert ((a[:, None] == a[None, :]) == (b[:, None] == b[None, :])).all()


def _tiny_datapath():
    """R1 <- a | b (select S1), R2 <- a, R3 <- F1 = (R1 | R2 by S2) + R2.

    Small enough to drive every X rule of the replay by hand."""
    from types import SimpleNamespace

    from repro.hls.rtl import FUSpec, MuxSpec, RegisterSpec, Source

    a, b = Source("input", "a"), Source("input", "b")
    r1, r2 = Source("reg", "R1"), Source("reg", "R2")
    registers = [
        RegisterSpec("R1", "L1", MuxSpec("M1", [a, b], ["S1"])),
        RegisterSpec("R2", "L2", MuxSpec("M2", [a])),
        RegisterSpec("R3", "L3", MuxSpec("M3", [Source("fu", "F1")])),
    ]
    fus = [FUSpec("F1", OpKind.ADD, MuxSpec("MA", [r1, r2], ["S2"]), MuxSpec("MB", [r2]))]
    return SimpleNamespace(
        registers=registers,
        fus=fus,
        cond_fu=None,
        outputs={"y": "R3"},
        dfg=SimpleNamespace(constants=[], inputs=["a", "b"]),
        schedule=SimpleNamespace(n_steps=1),
    )


class TestArrayReplayUnknowns:
    """X selects and X loads on the tiny datapath: cycle 1 loads R1 = a
    and R2 = a; cycle 2 applies the row's X, with L3 high."""

    LINES = ["L1", "L2", "L3", "S1", "S2"]

    def _run(self, cycle2: dict[str, int], rows: int = 2):
        rtl = _tiny_datapath()
        sc = Scenario(iterations=1, n_steps=1, hold_cycles=3)
        golden = np.zeros((sc.n_cycles, len(self.LINES)), dtype=np.int8)
        golden[1, :2] = 1  # L1, L2: R1 = R2 = a (S1 = 0)
        golden[2, 2] = 1  # L3: R3 = R1 + R2
        broken = golden.copy()
        for line, value in cycle2.items():
            broken[2, self.LINES.index(line)] = value
        stacked = np.stack([golden] + [broken] * rows, axis=2)
        result = replay_rows(
            rtl, self.LINES, stacked, np.full(rows + 1, sc.n_cycles), ValueTable()
        )
        table = ValueTable()
        oracle = [replay(rtl, ControlTrace(sc, [dict(zip(self.LINES, row))
                                                for row in v.tolist()]), table)
                  for v in (golden, broken)]
        return result.reg_hist[3], oracle  # registers after cycle 2

    @staticmethod
    def _same_as_golden(after, oracle, reg):
        ri = ["R1", "R2", "R3"].index(reg)
        want = oracle[1].reg_history[3][reg] == oracle[0].reg_history[3][reg]
        got = [bool(v == after[ri, 0]) for v in after[ri, 1:]]
        assert got == [want] * len(got)
        return want

    def test_x_select_whose_sources_disagree_is_private_garbage(self):
        after, oracle = self._run({"L1": 1, "S1": -1})  # R1 <- a or b
        assert not self._same_as_golden(after, oracle, "R1")
        assert len(set(after[0].tolist())) == 3

    def test_x_select_whose_sources_agree_keeps_the_value(self):
        after, oracle = self._run({"S2": -1})  # F1 reads R1 or R2, both a
        assert self._same_as_golden(after, oracle, "R3")

    def test_x_load_of_an_equal_value_keeps_it(self):
        after, oracle = self._run({"L2": -1})  # R2 <- a again
        assert self._same_as_golden(after, oracle, "R2")

    def test_x_load_of_a_new_value_is_private_garbage(self):
        after, oracle = self._run({"L1": -1, "S1": 1})  # R1 <- b, or kept
        assert not self._same_as_golden(after, oracle, "R1")
        assert oracle[1].saw_unknown_control
        assert len(set(after[0].tolist())) == 3
