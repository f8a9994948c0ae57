"""The determinism rows of tests/test_removed_surface.py, case by case.

The table checks that each rule holds on the repository and fires on
exactly the lines of its own example; the cases here run the examples in
every package a rule reaches and cover the rest: the code a rule allows,
the packages it does not reach, and a suppression that names it."""

import textwrap
from pathlib import Path

from tests.test_removed_surface import DET, ROOT, det_findings

#: A hot-path file stuffed with one violation per rule.
BAD_SIM_SOURCE = textwrap.dedent(
    """
    import random
    import time


    class Event:
        __slots__ = ("time",)


    class TickEvent(Event):
        pass


    def schedule(sim, events, obs):
        start = time.time()
        jitter = random.random()
        for event in {e for e in events}:
            obs.on_event_scheduled(event)
        return start + jitter
    """
)


def write_hot_file(tmp_path: Path, source: str, package: str = "sim") -> Path:
    """Place a file in a package of a temporary tree (``src/repro/<pkg>/``)."""
    directory = tmp_path / "src" / "repro" / package
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "case.py"
    path.write_text(source)
    return path


def lint_file(path: Path):
    """What the DET rows say of ``path``: ``(code, line, message)`` by line."""
    return det_findings(path.parents[3], path)


class TestRulesFire:
    def test_every_rule_fires_on_the_bad_file(self, tmp_path):
        findings = lint_file(write_hot_file(tmp_path, BAD_SIM_SOURCE))
        fired = {d.code for d in findings}
        assert fired == {"DET001", "DET002", "DET003", "DET004", "DET005"}

    def test_findings_carry_path_and_line(self, tmp_path):
        write_hot_file(tmp_path, BAD_SIM_SOURCE)
        row = DET["DET001"]
        (hit,) = row.check.hits(tmp_path, row.scope)
        line = BAD_SIM_SOURCE.splitlines().index("    start = time.time()") + 1
        assert hit.startswith(f"src/repro/sim/case.py:{line}: DET001 ")

    def test_slots_rule_tracks_transitive_event_subclasses(self, tmp_path):
        source = textwrap.dedent(
            """
            class Event:
                __slots__ = ()

            class Base(Event):
                __slots__ = ()

            class Leaf(Base):
                pass
            """
        )
        findings = lint_file(write_hot_file(tmp_path, source))
        assert [d.code for d in findings] == ["DET004"]
        assert "Leaf" in findings[0].message

    def test_guarded_obs_call_passes(self, tmp_path):
        source = textwrap.dedent(
            """
            def notify(self, event):
                if self.obs.enabled:
                    self.obs.on_event_scheduled(event)
            """
        )
        assert lint_file(write_hot_file(tmp_path, source)) == []

    def test_seeded_random_instance_passes(self, tmp_path):
        source = textwrap.dedent(
            """
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert lint_file(write_hot_file(tmp_path, source)) == []

    def test_hot_path_rules_skip_cold_packages(self, tmp_path):
        # The same violations outside the hot packages are not hot-path code.
        path = write_hot_file(tmp_path, BAD_SIM_SOURCE, package="obs")
        assert lint_file(path) == []


class TestSlotsRuleCoverage:
    """DET004 covers every sim class and hardware snapshot/template classes."""

    def test_any_sim_class_without_slots_is_flagged(self, tmp_path):
        source = textwrap.dedent(
            """
            class CustomScheduler:
                def push(self, when, rank, event):
                    pass
            """
        )
        findings = lint_file(write_hot_file(tmp_path, source))
        assert [d.code for d in findings] == ["DET004"]
        assert "CustomScheduler" in findings[0].message

    def test_exception_subclasses_are_exempt(self, tmp_path):
        source = textwrap.dedent(
            """
            class KernelPanic(Exception):
                pass
            """
        )
        assert lint_file(write_hot_file(tmp_path, source)) == []

    def test_a_record_declaring_slots_satisfies_the_rule(self, tmp_path):
        source = textwrap.dedent(
            """
            from repro.util.record import Frozen

            class StateSnapshot(Frozen):
                __slots__ = ("cursor",)

                def __init__(self, cursor: int) -> None:
                    self._set_fields(cursor)
            """
        )
        path = write_hot_file(tmp_path, source, package="hardware")
        assert lint_file(path) == []

    def test_hardware_snapshot_and_template_need_slots(self, tmp_path):
        source = textwrap.dedent(
            """
            class TopoSnapshot:
                pass

            class GridTemplate:
                pass

            class HelperThing:
                pass
            """
        )
        path = write_hot_file(tmp_path, source, package="hardware")
        findings = lint_file(path)
        assert [d.code for d in findings] == ["DET004", "DET004"]
        flagged = {d.message.split(" has no ")[0] for d in findings}
        assert flagged == {
            "fork-lifecycle class TopoSnapshot",
            "fork-lifecycle class GridTemplate",
        }

    def test_obs_guard_rule_applies_in_hardware(self, tmp_path):
        source = textwrap.dedent(
            """
            def restore(self, obs, snapshot):
                obs.on_restore(snapshot)
            """
        )
        path = write_hot_file(tmp_path, source, package="hardware")
        assert [d.code for d in lint_file(path)] == ["DET005"]


class TestHookNameFormatRule:
    """DET008: no name formatted per event inside a guarded hot hook."""

    #: The seeded defect: the per-event hooks as they were before the
    #: bound-instrument rewrite, one formatted name per observation.
    SEEDED = DET["DET008"].check.example

    def test_fires_on_every_formatting_style(self, tmp_path):
        for package in ("sim", "net", "engine"):
            findings = lint_file(write_hot_file(tmp_path, self.SEEDED, package))
            assert [d.code for d in findings] == ["DET008"] * 4
            assert [d.line for d in findings] == [6, 7, 8, 10]

    def test_bind_once_branch_and_constant_names_pass(self, tmp_path):
        source = textwrap.dedent(
            """
            def emit(self, buffer, node):
                obs = self.sim.obs
                if obs.enabled:
                    obs.add("torus.buffers_sent")
                    counter = self._node_switches.get(node)
                    if counter is None:
                        counter = self._node_switches[node] = obs.metrics.counter(
                            f"torus.source_switches[node={node}]"
                        )
                    counter.add()
                if obs.flows.enabled:
                    obs.flows.hop(buffer, "torus.inject", 1.0, resource=self.coproc.name)
            """
        )
        assert lint_file(write_hot_file(tmp_path, source, package="net")) == []

    def test_formatting_outside_a_guard_or_a_hot_package_passes(self, tmp_path):
        source = textwrap.dedent(
            """
            def open_stream(self, sim):
                sim.process(self.run(), name=f"send[{self.stream_id}]")
            """
        )
        assert lint_file(write_hot_file(tmp_path, source, package="engine")) == []
        cold = write_hot_file(tmp_path, self.SEEDED, package="coordinator")
        assert lint_file(cold) == []

    def test_suppression(self, tmp_path):
        source = textwrap.dedent(
            """
            def connect(self, obs, index):
                if obs.enabled:
                    obs.record_level(f"io[{index}]", 1)  # lint: disable=DET008
            """
        )
        assert lint_file(write_hot_file(tmp_path, source, package="net")) == []


class TestProcessNameFormatRule:
    """DET008, sibling check: no process name formatted per pass of a generator."""

    def test_fires_on_a_per_buffer_process_name(self, tmp_path):
        source = textwrap.dedent(
            """
            def send(self, buffer):
                yield self.window.get()
                self.sim.process(
                    self._forward(buffer),
                    name=f"forward[{buffer.stream_id}#{buffer.buffer_id}]",
                )
            """
        )
        for package in ("net", "engine"):
            findings = lint_file(write_hot_file(tmp_path, source, package))
            assert [(d.code, d.line) for d in findings] == [("DET008", 6)]

    def test_tracer_only_and_constant_names_pass(self, tmp_path):
        """Constant names pass; and a buffer in flight has no name at all
        (the tracer-selected per-buffer names left with its process)."""
        source = textwrap.dedent(
            """
            def send(self, buffer):
                yield self.window.get()
                self.sim.process(self._ack(buffer), name=self._ack_name)
                self.sim.detach(self._forward(buffer))
            """
        )
        assert lint_file(write_hot_file(tmp_path, source, package="net")) == []
        for module in ("net/torus.py", "net/ethernet.py", "engine/inbox.py"):
            text = (ROOT / "src" / "repro" / module).read_text()
            assert ".process(" not in text and "tracer.enabled" not in text, module


class TestEagerGrantWindowRule:
    """DET009: nothing urgent between creating a kernel event and waiting on it."""

    #: The seeded defect: each function spawns or interrupts inside the one
    #: window where a synchronous grant and a queued grant would disagree.
    SEEDED = DET["DET009"].check.example

    def test_fires_on_spawn_and_interrupt_inside_the_window(self, tmp_path):
        for package in ("sim", "net", "engine"):
            findings = lint_file(write_hot_file(tmp_path, self.SEEDED, package))
            assert [(d.code, d.line) for d in findings] == [
                ("DET009", 4), ("DET009", 9), ("DET009", 14), ("DET009", 20),
            ]

    def test_waiting_first_or_other_calls_pass(self, tmp_path):
        source = textwrap.dedent(
            """
            def send(self, buffer):
                slot = self.window.get()
                if slot.callbacks is not None:
                    yield slot
                counter = self._counters.get(buffer.stream_id)
                self.sim.detach(self._forward(buffer), Timeout(self.sim, 1.0))
                with self.cpu.request() as req:
                    yield req
                    self.peer.interrupt("go")
                other = self.feed.put(buffer)
                self.cpu.release(req)
                yield other

            def put(self, buffer):
                granted = self.slots.get()
                granted.callbacks.append(self._deposit)  # a callback waits on it
                self.sim.detach(self._forward(buffer))
            """
        )
        assert lint_file(write_hot_file(tmp_path, source, package="net")) == []
        cold = write_hot_file(tmp_path, self.SEEDED, package="coordinator")
        assert lint_file(cold) == []


class TestPlacementCursorRule:
    """DET010: only repro.hardware and the resolver touch the CNDB cursor."""

    #: The seeded defect: the deploy-time cursor save/restore this repo used
    #: to carry in the deployer (and the copy in the analysis snapshot).
    SEEDED = DET["DET010"].check.example

    def test_fires_outside_hardware_and_the_resolver(self, tmp_path):
        for package in ("coordinator", "analysis", "core"):
            findings = lint_file(write_hot_file(tmp_path, self.SEEDED, package))
            assert [(d.code, d.line) for d in findings] == [
                ("DET010", 3), ("DET010", 8),
            ]

    def test_hardware_and_the_resolver_are_exempt(self, tmp_path):
        assert lint_file(write_hot_file(tmp_path, self.SEEDED, "hardware")) == []
        resolver = write_hot_file(tmp_path, self.SEEDED, "coordinator").with_name(
            "resolver.py"
        )
        resolver.write_text(self.SEEDED)
        assert lint_file(resolver) == []

    def test_a_class_may_name_its_own_attribute(self, tmp_path):
        source = "class Cursor:\n    def bump(self):\n        self._rr_cursor = 1\n"
        assert lint_file(write_hot_file(tmp_path, source, "core")) == []


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        source = textwrap.dedent(
            """
            def pick(items):
                for item in {i for i in items}:  # lint: disable=DET003
                    return item
            """
        )
        assert lint_file(write_hot_file(tmp_path, source)) == []

    def test_file_suppression(self, tmp_path):
        """There is no file-wide form: a ``disable-file`` comment silences nothing."""
        source = textwrap.dedent(
            """
            # lint: disable-file=DET003

            def pick(items):
                for item in {i for i in items}:
                    return item
            """
        )
        assert [(d.code, d.line) for d in lint_file(write_hot_file(tmp_path, source))] == [
            ("DET003", 5),
        ]

    def test_suppression_is_code_specific(self, tmp_path):
        source = textwrap.dedent(
            """
            import time

            def stamp():  # the DET003 suppression must not mask DET001
                return time.time()  # lint: disable=DET003
            """
        )
        findings = lint_file(write_hot_file(tmp_path, source))
        assert [d.code for d in findings] == ["DET001"]


class TestCLI:
    """The rules a command line once listed: the registry and its docs."""

    def test_rule_registry_is_complete(self):
        """Nine rules (DET006 is retired), each with its entry in the docs'
        rule table."""
        assert list(DET) == [
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "DET007", "DET008", "DET009", "DET010",
        ]
        docs = (ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        assert all(f"| {code} |" in docs for code in DET)
