"""Tests for impulse lines and spike/binary conversion."""

import pytest

from repro.core.spikes import ImpulseLine, SpikeIntegrator, VectorToSpikes


class TestImpulseLine:
    def test_fire_reaches_all_listeners(self):
        line = ImpulseLine("x")
        seen = []
        line.connect(lambda p: seen.append(("a", p)))
        line.connect(lambda p: seen.append(("b", p)))
        line.fire(42)
        assert seen == [("a", 42), ("b", 42)]

    def test_fire_counts(self):
        line = ImpulseLine("x")
        line.fire()
        line.fire()
        assert line.fires == 2

    def test_disconnect(self):
        line = ImpulseLine("x")
        seen = []

        def listener(payload):
            seen.append(payload)

        line.connect(listener)
        line.disconnect(listener)
        line.fire(1)
        assert seen == []

    def test_non_callable_listener_rejected(self):
        with pytest.raises(TypeError):
            ImpulseLine("x").connect("not-callable")

    def test_connect_chains(self):
        line = ImpulseLine("x")
        assert line.connect(lambda p: None) is line


class TestSpikeIntegrator:
    def test_counts_spikes(self):
        integrator = SpikeIntegrator()
        for _ in range(5):
            integrator.spike()
        assert integrator.count == 5

    def test_destructive_read(self):
        integrator = SpikeIntegrator(clear_on_read=True)
        integrator.spike()
        assert integrator.read() == 1
        assert integrator.read() == 0

    def test_non_destructive_read(self):
        integrator = SpikeIntegrator(clear_on_read=False)
        integrator.spike()
        assert integrator.read() == 1
        assert integrator.read() == 1

    def test_connects_to_line(self):
        line = ImpulseLine("x")
        integrator = SpikeIntegrator()
        line.connect(integrator.spike)
        line.fire()
        line.fire()
        assert integrator.count == 2


class TestVectorToSpikes:
    def test_emits_value_as_burst(self):
        line = ImpulseLine("out")
        converter = VectorToSpikes(line)
        assert converter.emit(5) == 5
        assert line.fires == 5

    def test_burst_capped(self):
        line = ImpulseLine("out")
        converter = VectorToSpikes(line, max_burst=3)
        assert converter.emit(100) == 3

    def test_negative_value_emits_nothing(self):
        line = ImpulseLine("out")
        assert VectorToSpikes(line).emit(-4) == 0

    def test_roundtrip_with_integrator(self):
        line = ImpulseLine("loop")
        integrator = SpikeIntegrator()
        line.connect(integrator.spike)
        VectorToSpikes(line).emit(7)
        assert integrator.read() == 7

    def test_invalid_max_burst(self):
        with pytest.raises(ValueError):
            VectorToSpikes(ImpulseLine("x"), max_burst=0)
