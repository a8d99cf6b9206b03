"""Tests for the Device model."""

import json
import math

import pytest

from repro.arch import Device, grid_topology
from repro.arch.device import DEFAULT_QUBIT_T1_US, DEFAULT_QUQUART_T1_US
from repro.pulses import GateDurationTable
from repro.runner.points import DeviceSpec


class TestDefaults:
    def test_default_coherence_times_match_paper(self):
        device = Device(topology=grid_topology(2, 2))
        assert device.qubit_t1_us == pytest.approx(163.5)
        assert device.ququart_t1_us == pytest.approx(163.5 / 3.0)
        assert DEFAULT_QUQUART_T1_US == pytest.approx(DEFAULT_QUBIT_T1_US / 3.0)

    def test_t1_in_nanoseconds(self):
        device = Device(topology=grid_topology(2, 2))
        assert device.qubit_t1_ns == pytest.approx(163_500.0)
        assert device.t1_ns(is_ququart=True) == pytest.approx(device.ququart_t1_ns)
        assert device.t1_ns(is_ququart=False) == pytest.approx(device.qubit_t1_ns)

    def test_name_defaults_to_topology(self):
        device = Device(topology=grid_topology(2, 3))
        assert device.name == "grid-2x3"

    def test_capacity_is_twice_unit_count(self):
        device = Device(topology=grid_topology(2, 3))
        assert device.num_units == 6
        assert device.capacity == 12

    def test_grid_for_circuit_constructor(self):
        device = Device.grid_for_circuit(10)
        assert device.num_units >= 10

    def test_invalid_t1_rejected(self):
        with pytest.raises(ValueError):
            Device(topology=grid_topology(2, 2), qubit_t1_us=0.0)


class TestDerivedDevices:
    def test_with_t1_scaled(self):
        device = Device(topology=grid_topology(2, 2))
        scaled = device.with_t1_scaled(10.0)
        assert scaled.qubit_t1_us == pytest.approx(1635.0)
        assert scaled.ququart_t1_us == pytest.approx(545.0)
        # Original untouched (frozen dataclass semantics).
        assert device.qubit_t1_us == pytest.approx(163.5)

    def test_with_t1_scaled_validates(self):
        with pytest.raises(ValueError):
            Device(topology=grid_topology(2, 2)).with_t1_scaled(0.0)

    def test_with_t1_scaled_rejects_nan_and_keeps_inf(self):
        device = Device(topology=grid_topology(2, 2))
        with pytest.raises(ValueError, match="nan"):
            device.with_t1_scaled(math.nan)
        # an infinite scale means "no decay" and stays valid
        assert math.isinf(device.with_t1_scaled(math.inf).qubit_t1_us)

    def test_nan_t1_scale_in_a_payload_never_builds(self):
        # json accepts NaN, so a spooled device payload can carry one
        payload = json.loads('{"kind": "grid", "t1_scale": NaN}')
        with pytest.raises(ValueError):
            DeviceSpec.from_payload(payload).build(4)

    def test_with_ququart_t1_ratio(self):
        device = Device(topology=grid_topology(2, 2)).with_ququart_t1_ratio(0.5)
        assert device.ququart_t1_us == pytest.approx(device.qubit_t1_us * 0.5)

    def test_ratio_of_one_equalises_t1(self):
        device = Device(topology=grid_topology(2, 2)).with_ququart_t1_ratio(1.0)
        assert device.ququart_t1_us == pytest.approx(device.qubit_t1_us)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            Device(topology=grid_topology(2, 2)).with_ququart_t1_ratio(0.0)
        with pytest.raises(ValueError):
            Device(topology=grid_topology(2, 2)).with_ququart_t1_ratio(1.5)

    def test_with_durations(self):
        table = GateDurationTable().with_overrides(durations_ns={"cx2": 100.0})
        device = Device(topology=grid_topology(2, 2)).with_durations(table)
        assert device.durations.duration("cx2") == pytest.approx(100.0)
