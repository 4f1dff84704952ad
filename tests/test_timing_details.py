"""Fine-grained tests of the core timing model: issue slots, ports,
stall-on-use, fences, and the SA port schedule."""

import dataclasses

from repro.ir import Opcode
from repro.machine import DEFAULT_CONFIG, simulate_single
from repro.check.reference_timing import CoreTiming
from repro.machine.timing import SAPortSchedule
from repro.ir import FunctionBuilder


def _core(config=DEFAULT_CONFIG):
    return CoreTiming(0, config, SAPortSchedule(config.sa_ports))


class TestIssueSlots:
    def test_issue_width_enforced(self):
        config = dataclasses.replace(DEFAULT_CONFIG, issue_width=2,
                                     alu_ports=6)
        core = _core(config)
        cycles = [core.find_issue_slot(0.0, "alu", False)
                  for _ in range(5)]
        # 2 per cycle: 0,0,1,1,2
        assert cycles == [0, 0, 1, 1, 2]

    def test_port_limit_enforced(self):
        config = dataclasses.replace(DEFAULT_CONFIG, issue_width=6,
                                     fp_ports=2)
        core = _core(config)
        cycles = [core.find_issue_slot(0.0, "fp", False) for _ in range(5)]
        assert cycles == [0, 0, 1, 1, 2]

    def test_in_order_issue_monotonic(self):
        core = _core()
        first = core.find_issue_slot(10.0, "alu", False)
        second = core.find_issue_slot(0.0, "alu", False)  # earlier ready
        assert second >= first

    def test_fractional_ready_rounds_up(self):
        core = _core()
        assert core.find_issue_slot(3.2, "alu", False) == 4

    def test_ready_time_scoreboard(self):
        core = _core()
        core.reg_ready["r_a"] = 7.0
        assert core.ready_time(("r_a", "r_b")) == 7.0
        assert core.ready_time(("r_b",)) == 0.0


class TestSAPorts:
    def test_ports_shared_per_cycle(self):
        schedule = SAPortSchedule(2)
        assert schedule.next_free(5) == 5
        schedule.book(5)
        schedule.book(5)
        assert schedule.next_free(5) == 6

    def test_comm_ops_respect_sa_ports(self):
        config = dataclasses.replace(DEFAULT_CONFIG, sa_ports=1,
                                     memory_ports=4)
        core = _core(config)
        a = core.find_issue_slot(0.0, "memory", True)
        b = core.find_issue_slot(0.0, "memory", True)
        assert b > a  # one SA port: second comm op slips a cycle


class TestStallOnUse:
    def _chain_function(self, use_result):
        b = FunctionBuilder("chain", params=["r_a"], live_outs=["r_z"])
        b.label("entry")
        b.mul("r_m", "r_a", "r_a")     # 3-cycle latency
        if use_result:
            b.add("r_z", "r_m", 1)     # stalls on the multiply
        else:
            b.add("r_z", "r_a", 1)     # independent
        b.exit()
        return b.build()

    def test_dependent_use_stalls(self):
        dependent = simulate_single(self._chain_function(True), {"r_a": 3})
        independent = simulate_single(self._chain_function(False),
                                      {"r_a": 3})
        assert dependent.cycles > independent.cycles

    def test_memory_fence_orders_after_consume_sync(self):
        """consume.sync has acquire semantics: later memory operations
        wait for the token."""
        core = _core()
        core.mem_fence = 50.0
        # A load's earliest issue respects the fence (exercised via the
        # plain-instruction path in simulate_threads; here check the
        # scoreboard interaction directly).
        slot = core.find_issue_slot(max(0.0, core.mem_fence), "memory",
                                    False)
        assert slot >= 50


class TestLatencies:
    def test_fp_ops_slower_than_int(self):
        b = FunctionBuilder("intchain", params=["r_a"], live_outs=["r_z"])
        b.label("entry")
        b.mov("r_z", "r_a")
        for _ in range(10):
            b.add("r_z", "r_z", 1)
        b.exit()
        int_result = simulate_single(b.build(), {"r_a": 1})

        b = FunctionBuilder("fpchain", params=["r_a"], live_outs=["r_z"])
        b.label("entry")
        b.itof("r_z", "r_a")
        for _ in range(10):
            b.fadd("r_z", "r_z", 1.0)
        b.exit()
        fp_result = simulate_single(b.build(), {"r_a": 1})
        assert fp_result.cycles > int_result.cycles * 2

    def test_division_latency_dominates(self):
        b = FunctionBuilder("divs", params=["r_a"], live_outs=["r_z"])
        b.label("entry")
        b.mov("r_z", "r_a")
        for _ in range(4):
            b.idiv("r_z", "r_z", 1)
        b.exit()
        result = simulate_single(b.build(), {"r_a": 1000})
        assert result.cycles >= 4 * DEFAULT_CONFIG.op_latencies[
            Opcode.IDIV]

    def test_port_pressure_visible_in_wide_code(self):
        """12 independent loads per 'iteration' exceed the 4 memory
        ports; the same count of independent adds fits in 6 ALU ports."""
        def build(op):
            b = FunctionBuilder("wide", params=["p_a"], live_outs=[])
            b.mem("obj", 16, ptr="p_a")
            b.label("entry")
            for i in range(12):
                if op == "load":
                    b.load("r_v%d" % i, "p_a", i)
                else:
                    b.add("r_v%d" % i, "p_a", i)
            b.exit()
            return b.build()
        loads = simulate_single(build("load"), {})
        adds = simulate_single(build("add"), {})
        assert loads.cycles >= adds.cycles
