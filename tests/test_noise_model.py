"""Tests for noise specs, presets and device-derived noise models."""

import json
import math

import pytest

from repro.evaluation import compile_benchmark
from repro.metrics.eps import coherence_eps, gate_eps, total_eps
from repro.noise import NOISE_PRESETS, NoiseModel, NoiseSpec, resolve_model
from repro.pulses.durations import GateDurationTable
from repro.runner import SweepPoint


@pytest.fixture(scope="module")
def compiled_bv6():
    return compile_benchmark("bv", 6, "eqm").compiled


class TestNoiseSpec:
    def test_presets_build(self, compiled_bv6):
        for name in NOISE_PRESETS:
            model = NoiseSpec.from_preset(name).build(compiled_bv6.device)
            assert isinstance(model, NoiseModel)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            NoiseSpec.from_preset("very_noisy")

    def test_preset_overrides(self):
        spec = NoiseSpec.from_preset("pessimistic", t1_scale=1.0)
        assert spec.gate_error_scale == 3.0
        assert spec.t1_scale == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(gate_error_scale=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(t1_scale=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(idle_policy="optimistic")
        with pytest.raises(ValueError):
            NoiseSpec(heterogeneity=1.0)

    @pytest.mark.parametrize("knob,value", [
        ("t1_scale", math.nan),
        ("gate_error_scale", math.nan),
        ("gate_error_scale", math.inf),
    ])
    def test_validation_rejects_nan_and_infinite_error_scales(self, knob, value):
        with pytest.raises(ValueError):
            NoiseSpec(**{knob: value})

    def test_infinite_t1_scale_disables_decay(self, compiled_bv6):
        model = NoiseSpec(t1_scale=math.inf).build(compiled_bv6.device)
        assert (model.idle_decay_channels(compiled_bv6)[1] == 0.0).all()

    def test_payload_is_json_serialisable(self):
        for name in NOISE_PRESETS:
            payload = NoiseSpec.from_preset(name).payload()
            assert json.loads(json.dumps(payload)) == payload

    def test_payload_distinguishes_presets(self):
        payloads = {json.dumps(NoiseSpec.from_preset(n).payload(), sort_keys=True)
                    for n in NOISE_PRESETS}
        assert len(payloads) == len(NOISE_PRESETS)

    def test_specs_are_hashable(self):
        assert hash(NoiseSpec()) == hash(NoiseSpec())
        assert NoiseSpec() != NoiseSpec(t1_scale=2.0)

    def test_with_idle_policy(self):
        spec = NoiseSpec().with_idle_policy("kraus")
        assert spec.idle_policy == "kraus"
        assert NoiseSpec().idle_policy == "worst_case"

    def test_resolve_model_passthrough(self, compiled_bv6):
        model = NoiseSpec().build(compiled_bv6.device)
        assert resolve_model(model, compiled_bv6.device) is model


class TestAnalyticAgreement:
    """The table1 model's analytic prediction IS the paper's EPS formula."""

    def test_gate_eps_matches(self, compiled_bv6):
        model = NoiseSpec.from_preset("table1").build(compiled_bv6.device)
        assert model.analytic_gate_eps(compiled_bv6) == pytest.approx(
            gate_eps(compiled_bv6), rel=1e-12
        )

    def test_coherence_eps_matches(self, compiled_bv6):
        model = NoiseSpec.from_preset("table1").build(compiled_bv6.device)
        assert model.analytic_coherence_eps(compiled_bv6) == pytest.approx(
            coherence_eps(compiled_bv6), rel=1e-12
        )

    def test_total_eps_matches_for_every_strategy(self):
        for strategy in ("qubit_only", "fq", "rb"):
            compiled = compile_benchmark("ghz", 5, strategy).compiled
            model = NoiseSpec.from_preset("table1").build(compiled.device)
            assert model.analytic_total_eps(compiled) == pytest.approx(
                total_eps(compiled), rel=1e-12
            )

    def test_ideal_model(self, compiled_bv6):
        model = NoiseSpec.from_preset("ideal").build(compiled_bv6.device)
        assert model.is_ideal
        assert model.analytic_total_eps(compiled_bv6) == 1.0

    def test_pessimistic_scales_gate_error(self, compiled_bv6):
        table1 = NoiseSpec.from_preset("table1").build(compiled_bv6.device)
        pessimistic = NoiseSpec.from_preset("pessimistic").build(compiled_bv6.device)
        op = next(op for op in compiled_bv6.ops if op.fidelity < 1.0)
        assert pessimistic.op_error_probability(op) == pytest.approx(
            3.0 * table1.op_error_probability(op)
        )
        assert pessimistic.qubit_decay_rate == pytest.approx(3.0 * table1.qubit_decay_rate)


class TestHeterogeneity:
    def test_deterministic_for_fixed_seed(self, compiled_bv6):
        spec = NoiseSpec.from_preset("heterogeneous")
        one = spec.build(compiled_bv6.device)
        two = spec.build(compiled_bv6.device)
        assert one.unit_t1_factor == two.unit_t1_factor
        assert one.edge_error_factor == two.edge_error_factor

    def test_seed_changes_factors(self, compiled_bv6):
        base = NoiseSpec.from_preset("heterogeneous").build(compiled_bv6.device)
        other = NoiseSpec.from_preset(
            "heterogeneous", hetero_seed=1
        ).build(compiled_bv6.device)
        assert base.unit_t1_factor != other.unit_t1_factor

    def test_factors_within_bounds(self, compiled_bv6):
        spec = NoiseSpec(heterogeneity=0.3)
        model = spec.build(compiled_bv6.device)
        for factor in list(model.unit_t1_factor.values()) + list(
            model.edge_error_factor.values()
        ):
            assert 0.7 <= factor <= 1.3

    def test_edge_factor_shifts_two_unit_ops_only(self, compiled_bv6):
        model = NoiseSpec.from_preset("heterogeneous").build(compiled_bv6.device)
        uniform = NoiseSpec.from_preset("table1").build(compiled_bv6.device)
        single = next(op for op in compiled_bv6.ops
                      if len(op.units) == 1 and op.fidelity < 1.0)
        assert model.op_error_probability(single) == pytest.approx(
            uniform.op_error_probability(single)
        )

    def test_unit_factor_changes_decay_rate(self, compiled_bv6):
        model = NoiseSpec(heterogeneity=0.4, hetero_seed=5).build(compiled_bv6.device)
        factor = model.unit_t1_factor[0]
        assert model.decay_rate(0, False) == pytest.approx(
            model.qubit_decay_rate / factor
        )


class TestCalibrationPlumbing:
    def test_error_rate_helper(self):
        table = GateDurationTable()
        assert table.error_rate("cx2") == pytest.approx(0.01)
        assert table.error_rate("x") == pytest.approx(0.001)
        assert table.error_rate("measure") == 0.0

    def test_model_follows_fidelity_overrides(self):
        point = SweepPoint("bv", 4, "qubit_only")
        compiled = point.execute().compiled
        device = compiled.device.with_durations(
            compiled.device.durations.with_overrides(fidelities={"cx2": 0.9})
        )
        model = NoiseSpec().build(device)
        assert model.gate_error["cx2"] == pytest.approx(0.1)


class TestResidencySegments:
    def test_segments_cover_the_makespan(self, compiled_bv6):
        makespan = compiled_bv6.makespan_ns
        for segments in compiled_bv6.residency_segments().values():
            assert segments[0][0] == 0.0
            assert segments[-1][1] == pytest.approx(makespan)
            for (_, end, _), (start, _, _) in zip(segments, segments[1:]):
                assert start == pytest.approx(end)

    def test_mode_times_match_segments(self, compiled_bv6):
        segments = compiled_bv6.residency_segments()
        for logical, (qubit_time, ququart_time) in compiled_bv6.qubit_mode_times().items():
            total = sum(end - start for start, end, _ in segments[logical])
            assert qubit_time + ququart_time == pytest.approx(total)
            assert total == pytest.approx(compiled_bv6.makespan_ns)

    def test_decay_exponent_matches_coherence_eps(self, compiled_bv6):
        model = NoiseSpec.from_preset("table1").build(compiled_bv6.device)
        exponent = sum(model.residency_decay_exponent(compiled_bv6).values())
        assert math.exp(-exponent) == pytest.approx(coherence_eps(compiled_bv6))
