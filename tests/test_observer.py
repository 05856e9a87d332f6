"""The shared observer contract: mode resolver, hook slots, lifecycle."""

import pytest

from repro.cxl.channel import CxlChannel
from repro.obs import ObsCollector
from repro.observer import MODES, Observer, resolve_mode
from repro.system.builder import Chip, build_system
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.tracing import SpanTracer
from repro.validate import InvariantChecker, TraceRecorder
from repro.workloads import get_workload


def run(config="coaxial-4x", ops=200, **kw):
    return simulate(ALL_CONFIGS[config](), get_workload("mcf"),
                    ops_per_core=ops, seed=1, **kw)


class TestResolveMode:
    @pytest.mark.parametrize("kind", sorted(MODES))
    def test_env_typo_raises_naming_the_variable(self, kind, monkeypatch):
        var = f"REPRO_{kind.upper()}"
        monkeypatch.setenv(var, "stirct")
        with pytest.raises(ValueError, match=var):
            resolve_mode(kind, None)

    @pytest.mark.parametrize("kind", sorted(MODES))
    def test_explicit_typo_raises_naming_the_argument(self, kind):
        with pytest.raises(ValueError, match=f"^{kind} must be one of"):
            resolve_mode(kind, "stirct")

    @pytest.mark.parametrize("kind", sorted(MODES))
    @pytest.mark.parametrize("raw,want", [
        ("", "off"), ("0", "off"), ("OFF", "off"), ("false", "off"),
        ("no", "off"), ("none", "off"), ("1", "on"), (" On ", "on"),
        ("true", "on"), ("yes", "on"),
    ])
    def test_one_alias_table(self, kind, raw, want, monkeypatch):
        monkeypatch.setenv(f"REPRO_{kind.upper()}", raw)
        assert resolve_mode(kind, None) == want
        assert resolve_mode(kind, raw) == want

    @pytest.mark.parametrize("kind", sorted(MODES))
    def test_own_mode_names(self, kind):
        for mode in MODES[kind]:
            assert resolve_mode(kind, mode) == mode

    def test_two_means_profile_for_obs_only(self):
        assert resolve_mode("obs", "2") == "profile"
        for kind in ("tracing", "validate"):
            with pytest.raises(ValueError):
                resolve_mode(kind, "2")

    def test_validate_env_typo_fails_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "stirct")
        with pytest.raises(ValueError, match="REPRO_VALIDATE"):
            run(ops=50)


class TestHookSlots:
    def test_one_empty_slot_per_component(self):
        _sim, chip = build_system(ALL_CONFIGS["coaxial-4x"]())
        ports = [p for p in chip.ports if isinstance(p, CxlChannel)]
        assert ports
        for comp in [chip, *chip.cores, *ports]:
            assert comp.observers == ()
            assert not hasattr(comp, "checker")
            assert not hasattr(comp, "tracer")

    def test_components_keep_only_overriding_observers(self):
        _sim, chip = build_system(ALL_CONFIGS["coaxial-4x"]())
        checker, tracer, recorder = (InvariantChecker(), SpanTracer(),
                                     TraceRecorder())
        chip.observe([checker, ObsCollector(), Observer(), tracer, recorder])
        assert chip.observers == (checker, tracer, recorder)
        assert chip.cores[0].observers == (tracer,)
        assert chip.ports[0].observers == (tracer,)


class TestLifecycle:
    def test_validated_run_attaches_no_recorder(self, monkeypatch):
        seen = []
        real_observe = Chip.observe

        def spy(chip, observers):
            seen.append(list(observers))
            real_observe(chip, observers)

        monkeypatch.setattr(Chip, "observe", spy)
        plain = run(validate="on")
        [observers] = seen
        assert [type(o) for o in observers] == [InvariantChecker]
        rec = TraceRecorder(capacity=64)
        recorded = run(validate="on", trace=rec)
        assert isinstance(seen[1][0], TraceRecorder)
        assert rec.recorded > 0
        assert (plain.extras["invariant_violations"]
                == recorded.extras["invariant_violations"])

    def test_attach_drain_finish_once_each(self):
        class Probe(ObsCollector):
            def __init__(self):
                super().__init__()
                self.events = []

            def attach(self, sim, chip):
                self.events.append(("attach", chip.measuring))
                super().attach(sim, chip)

            def on_drain(self):
                self.events.append(("drain",))
                super().on_drain()

            def finish(self, chip, elapsed_ns):
                self.events.append(("finish", elapsed_ns > 0))
                return super().finish(chip, elapsed_ns)

        probe = Probe()
        r = run(obs=probe)
        assert probe.events == [("attach", True), ("drain",), ("finish", True)]
        assert r.extras["obs"] == probe.snapshot()
