"""Equivalence and dispatch suite for the compiled jit backend.

The jit tier's contract is **byte-identity with the vector backend**,
and the kernels run as plain Python when numba is absent (``@njit``
degrades to identity), so the whole equivalence suite executes on
every environment: it validates the *algorithm* without numba and the
compiled artifact on the CI numba legs.  Three layers:

1. **Golden byte-for-byte**: one seeded CRN batch (and one session
   run) is pinned to hex-encoded floats captured from the vector
   backend — asserted against *both* tiers, so neither can drift.
2. **Pairwise identity**: randomized/deterministic/mixed batches,
   pinned chunk lengths, ragged session-style lane compaction and the
   fleet's grouped fan-in stepping all compare jit against vector
   field by field.
3. **Dispatch**: registry introspection, ``auto`` preference order,
   actionable unavailability errors, and the fleet controller's
   backend stamp / checkpoint round-trip under the jit tier.
"""

from typing import ClassVar

import numpy as np
import pytest

from repro.core.components import ServiceProvider, ServiceQueue, ServiceRequester
from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.markov.chain import MarkovChain
from repro.policies import StationaryPolicyAgent, TimeoutAgent
from repro.policies.markov_conversion import eager_markov_policy
from repro.sim import (
    BACKEND_CHOICES,
    available_backends,
    get_backend,
    jit_available,
    make_rng,
    preferred_batch_backend,
    resolve_backend,
    simulate_many,
    simulate_sessions,
)
from repro.sim.backends import jit as jit_module
from repro.sim.backends.jit import NUMBA_AVAILABLE, JitBackend
from repro.sim.backends.vector import VectorBackend
from repro.systems import disk_drive, example_system
from repro.util.validation import ValidationError


def _hex(values: dict) -> dict:
    return {name: float.fromhex(h) for name, h in values.items()}


def _jit() -> JitBackend:
    """The backend under test: compiled when numba imports, else the
    interpreted rendition of the same kernel source."""
    return JitBackend(interpreted_ok=True)


def _crn_system():
    """Always-issuing workload (mirrors test_sim_backends._crn_system)."""
    provider = ServiceProvider.from_tables(
        states=["on", "off"],
        commands=["s_on", "s_off"],
        transitions={
            "s_on": [[1.0, 0.0], [0.4, 0.6]],
            "s_off": [[0.3, 0.7], [0.0, 1.0]],
        },
        service_rates=[[0.7, 0.1], [0.05, 0.0]],
        power=[[3.0, 4.0], [4.0, 0.5]],
    )
    requester = ServiceRequester(
        MarkovChain([[0.8, 0.2], [0.3, 0.7]], ["lo", "hi"]), arrivals=[1, 2]
    )
    system = PowerManagedSystem(provider, requester, ServiceQueue(3))
    return system, CostModel.standard(system)


def _randomized_policy(system, seed=0):
    rows = np.random.default_rng(seed).uniform(
        0.1, 0.9, size=(system.n_states, system.n_commands)
    )
    rows /= rows.sum(axis=1, keepdims=True)
    return MarkovPolicy(rows)


def _randomized_policies(system, n, seed=0):
    return [_randomized_policy(system, seed + i) for i in range(n)]


def _assert_identical(a, b):
    """Field-by-field byte identity of two SimulationResults."""
    assert a.totals == b.totals
    assert a.averages == b.averages
    assert (
        a.arrivals,
        a.serviced,
        a.lost,
        a.loss_event_slices,
        a.final_state,
        a.n_slices,
    ) == (
        b.arrivals,
        b.serviced,
        b.lost,
        b.loss_event_slices,
        b.final_state,
        b.n_slices,
    )
    assert a.command_counts.tolist() == b.command_counts.tolist()
    assert a.provider_occupancy.tolist() == b.provider_occupancy.tolist()


def _assert_batches_identical(batch_a, batch_b):
    assert len(batch_a) == len(batch_b)
    for reps_a, reps_b in zip(batch_a, batch_b):
        assert len(reps_a) == len(reps_b)
        for a, b in zip(reps_a, reps_b):
            _assert_identical(a, b)


class TestRegistry:
    def test_backend_choices_include_jit(self):
        assert BACKEND_CHOICES == ("auto", "loop", "vector", "jit")

    def test_available_backends_report(self):
        report = available_backends()
        assert report["loop"] is None
        assert report["vector"] is None
        if NUMBA_AVAILABLE:
            assert report["jit"] is None
        else:
            assert "numba" in report["jit"]
            assert "[jit]" in report["jit"]

    def test_jit_available_matches_module_flag(self):
        assert jit_available() is NUMBA_AVAILABLE

    def test_unknown_backend_error_lists_choices(self):
        with pytest.raises(ValidationError, match="jit.*loop.*vector"):
            get_backend("warp")

    def test_preferred_batch_backend(self):
        expected = "jit" if NUMBA_AVAILABLE else "vector"
        assert preferred_batch_backend().name == expected

    def test_auto_resolution_prefers_batch_tier(self):
        system, _ = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        expected = "jit" if NUMBA_AVAILABLE else "vector"
        assert resolve_backend("auto", agent, batch_size=16).name == expected
        # Single runs stay on the reference loop either way.
        assert resolve_backend("auto", agent, batch_size=1).name == "loop"

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="needs a numba-less env")
    def test_get_backend_unavailable_is_actionable(self):
        with pytest.raises(ValidationError) as excinfo:
            get_backend("jit")
        message = str(excinfo.value)
        assert "numba" in message
        assert "loop" in message and "vector" in message
        assert "byte-identical" in message

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="needs a numba-less env")
    def test_default_jit_backend_refuses_interpreted(self):
        system, costs = _crn_system()
        with pytest.raises(ValidationError, match="vector"):
            JitBackend().simulate_batch(
                system,
                costs,
                [_randomized_policy(system)],
                100,
                make_rng(0),
                n_replications=2,
            )

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="needs a numba-less env")
    def test_engine_jit_request_raises_without_numba(self):
        system, costs = _crn_system()
        with pytest.raises(ValidationError, match="numba"):
            simulate_many(
                system,
                costs,
                [_randomized_policy(system)],
                100,
                make_rng(0),
                n_replications=2,
                backend="jit",
            )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="needs numba")
    def test_get_backend_returns_compiled_singleton(self):
        backend = get_backend("jit")
        assert backend.name == "jit"
        assert backend.compiled
        assert get_backend("jit") is backend

    def test_jit_rejects_heuristic_agents(self):
        agent = TimeoutAgent(5, 0, 1)
        assert not _jit().supports(agent)


class TestGoldenHex:
    """Seeded CRN values pinned from the vector backend, asserted on
    both tiers — the jit==vector==seed chain in one place."""

    GOLDEN: ClassVar[list[dict]] = [
        {
            "totals": {
                "power": "0x1.67a8000000000p+13",
                "penalty": "0x1.76d8000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.282733333334cp+12",
            },
            "counters": (5582, 885, 4694, 3998),
            "commands": [2267, 1733],
            "occupancy": [1760, 2240],
            "final": (1, 1, 3),
        },
        {
            "totals": {
                "power": "0x1.61d0000000000p+13",
                "penalty": "0x1.76e0000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.29ce66666667cp+12",
            },
            "counters": (5601, 858, 4740, 3998),
            "commands": [2269, 1731],
            "occupancy": [1684, 2316],
            "final": (1, 0, 3),
        },
        {
            "totals": {
                "power": "0x1.4e84000000000p+13",
                "penalty": "0x1.76e0000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.3104cccccccedp+12",
            },
            "counters": (5591, 687, 4901, 3998),
            "commands": [2017, 1983],
            "occupancy": [1541, 2459],
            "final": (1, 0, 3),
        },
        {
            "totals": {
                "power": "0x1.4d38000000000p+13",
                "penalty": "0x1.76d0000000000p+13",
                "loss": "0x1.f3a0000000000p+11",
                "overflow": "0x1.336a66666668fp+12",
            },
            "counters": (5557, 662, 4892, 3997),
            "commands": [2033, 1967],
            "occupancy": [1409, 2591],
            "final": (1, 1, 3),
        },
    ]

    @pytest.mark.parametrize("backend_factory", [VectorBackend, _jit])
    def test_seeded_batch_matches_golden(self, backend_factory):
        system, costs = _crn_system()
        results = backend_factory().simulate_batch(
            system,
            costs,
            _randomized_policies(system, 2),
            4_000,
            make_rng(321),
            n_replications=2,
        )
        flat = [r for reps in results for r in reps]
        assert len(flat) == len(self.GOLDEN)
        for result, golden in zip(flat, self.GOLDEN):
            assert result.totals == _hex(golden["totals"])
            assert (
                result.arrivals,
                result.serviced,
                result.lost,
                result.loss_event_slices,
            ) == golden["counters"]
            assert result.command_counts.tolist() == golden["commands"]
            assert result.provider_occupancy.tolist() == golden["occupancy"]
            assert result.final_state == golden["final"]

    @pytest.mark.parametrize("backend_factory", [VectorBackend, _jit])
    def test_seeded_sessions_match_golden(self, backend_factory):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        stats = backend_factory().simulate_sessions(
            system, costs, agent, 0.95, 48, make_rng(77)
        )
        golden = {
            "loss": ("0x1.1aaaaaaaaaaabp+4", "0x1.6621f830066aap+1"),
            "overflow": ("0x1.51ad3a06d3a08p+4", "0x1.acf209521e31bp+1"),
            "penalty": ("0x1.bd80000000000p+5", "0x1.0d32849b953a8p+3"),
            "power": ("0x1.d3eaaaaaaaaabp+5", "0x1.ec8ec6084c7e3p+2"),
        }
        assert set(stats) == set(golden)
        for name, (mean_hex, stderr_hex) in golden.items():
            assert stats[name].mean == float.fromhex(mean_hex)
            assert stats[name].stderr == float.fromhex(stderr_hex)


class TestByteIdentity:
    """jit == vector, field by field, under common random numbers."""

    @pytest.mark.parametrize(
        "build", [disk_drive.build, example_system.build], ids=["disk", "example"]
    )
    def test_randomized_batch(self, build):
        bundle = build()
        policies = _randomized_policies(bundle.system, 3, seed=1)
        expected = VectorBackend().simulate_batch(
            bundle.system, bundle.costs, policies, 5_000, make_rng(42),
            n_replications=3,
        )
        actual = _jit().simulate_batch(
            bundle.system, bundle.costs, policies, 5_000, make_rng(42),
            n_replications=3,
        )
        _assert_batches_identical(expected, actual)

    @pytest.mark.parametrize("chunk_slices", [1, 17, 256, 4_096])
    def test_pinned_chunk_slices(self, chunk_slices):
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        expected = VectorBackend().simulate_batch(
            system, costs, policies, 2_000, make_rng(5),
            n_replications=2, chunk_slices=chunk_slices,
        )
        actual = _jit().simulate_batch(
            system, costs, policies, 2_000, make_rng(5),
            n_replications=2, chunk_slices=chunk_slices,
        )
        _assert_batches_identical(expected, actual)

    def test_deterministic_batch_three_uniform_kinds(self):
        bundle = disk_drive.build()
        policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
        expected = VectorBackend().simulate_batch(
            bundle.system, bundle.costs, [policy], 5_000, make_rng(3),
            n_replications=4,
        )
        actual = _jit().simulate_batch(
            bundle.system, bundle.costs, [policy], 5_000, make_rng(3),
            n_replications=4,
        )
        _assert_batches_identical(expected, actual)

    def test_mixed_deterministic_and_randomized_rows(self):
        bundle = disk_drive.build()
        policies = [
            eager_markov_policy(bundle.system, "go_active", "go_idle"),
            _randomized_policy(bundle.system, seed=1),
        ]
        expected = VectorBackend().simulate_batch(
            bundle.system, bundle.costs, policies, 4_000, make_rng(11),
            n_replications=2,
        )
        actual = _jit().simulate_batch(
            bundle.system, bundle.costs, policies, 4_000, make_rng(11),
            n_replications=2,
        )
        _assert_batches_identical(expected, actual)

    def test_ragged_lengths_lane_compaction(self):
        """Session-style ragged lanes exercise mid-chunk finishes and
        the compaction path directly through step_lanes."""
        system, costs = _crn_system()
        from repro.sim.backends.base import SimulationTables
        from repro.sim.backends.vector import CompiledPolicyBatch

        tables = SimulationTables.compile(system, costs)
        compiled = CompiledPolicyBatch.compile(
            system, _randomized_policies(system, 2)
        )
        policy_of_lane = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        lengths = np.array([3, 700, 64, 1, 129], dtype=np.int64)
        zeros = np.zeros(5, dtype=np.int64)
        start = (zeros, zeros, zeros)
        expected = VectorBackend().step_lanes(
            tables, compiled, policy_of_lane, lengths, start, make_rng(8),
            chunk_slices=50,
        )
        actual = _jit().step_lanes(
            tables, compiled, policy_of_lane, lengths, start, make_rng(8),
            chunk_slices=50,
        )
        assert expected.totals.tolist() == actual.totals.tolist()
        assert expected.command_counts.tolist() == actual.command_counts.tolist()
        assert (
            expected.provider_occupancy.tolist()
            == actual.provider_occupancy.tolist()
        )
        for field in ("arrivals", "serviced", "lost", "loss_events"):
            assert getattr(expected, field).tolist() == getattr(actual, field).tolist()
        assert expected.final_state.tolist() == actual.final_state.tolist()

    def test_sessions_identical(self):
        bundle = disk_drive.build()
        agent = StationaryPolicyAgent(
            bundle.system, _randomized_policy(bundle.system, seed=2)
        )
        expected = VectorBackend().simulate_sessions(
            bundle.system, bundle.costs, agent, 0.97, 64, make_rng(7)
        )
        actual = _jit().simulate_sessions(
            bundle.system, bundle.costs, agent, 0.97, 64, make_rng(7)
        )
        assert set(expected) == set(actual)
        for name in expected:
            assert expected[name].mean == actual[name].mean
            assert expected[name].stderr == actual[name].stderr
            assert expected[name].count == actual[name].count


class TestChunkKnob:
    """The documented chunk_slices reproducibility contract."""

    def test_integer_trajectories_chunk_invariant(self):
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        runs = [
            _jit().simulate_batch(
                system, costs, policies, 1_500, make_rng(13),
                n_replications=2, chunk_slices=pin,
            )
            for pin in (16, 250, None)
        ]
        reference = runs[0]
        for other in runs[1:]:
            for reps_a, reps_b in zip(reference, other):
                for a, b in zip(reps_a, reps_b):
                    # Uniform consumption is (slice, kind, lane)-ordered
                    # regardless of chunking: every integer observable
                    # is identical...
                    assert (
                        a.arrivals,
                        a.serviced,
                        a.lost,
                        a.loss_event_slices,
                        a.final_state,
                    ) == (
                        b.arrivals,
                        b.serviced,
                        b.lost,
                        b.loss_event_slices,
                        b.final_state,
                    )
                    assert a.command_counts.tolist() == b.command_counts.tolist()
                    # ...while float totals only agree to summation-order
                    # precision across *different* pins.
                    for name in a.totals:
                        assert a.totals[name] == pytest.approx(
                            b.totals[name], rel=1e-9
                        )

    def test_chunk_slices_must_be_positive(self):
        system, costs = _crn_system()
        with pytest.raises(ValidationError, match="chunk_slices"):
            _jit().simulate_batch(
                system,
                costs,
                [_randomized_policy(system)],
                100,
                make_rng(0),
                n_replications=2,
                chunk_slices=0,
            )

    def test_engine_threads_chunk_slices(self):
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        direct = VectorBackend().simulate_batch(
            system, costs, policies, 1_000, make_rng(9),
            n_replications=2, chunk_slices=33,
        )
        threaded = simulate_many(
            system, costs, policies, 1_000, make_rng(9),
            n_replications=2, backend="vector", chunk_slices=33,
        )
        # simulate_many consumes one child stream for the batch; feed
        # the direct run the same child to compare bitwise.
        from repro.sim.rng import child_rngs

        direct = VectorBackend().simulate_batch(
            system, costs, policies, 1_000, child_rngs(make_rng(9), 1)[0],
            n_replications=2, chunk_slices=33,
        )
        _assert_batches_identical(direct, threaded)

    def test_engine_sessions_thread_chunk_slices(self):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        pinned = simulate_sessions(
            system, costs, agent, 0.9, 32, make_rng(4), chunk_slices=21
        )
        direct = VectorBackend().simulate_sessions(
            system, costs, agent, 0.9, 32, make_rng(4), chunk_slices=21
        )
        for name in direct:
            assert pinned[name].mean == direct[name].mean
            assert pinned[name].stderr == direct[name].stderr


class TestEngineDispatchWithJit:
    """auto/jit routing through the engine with the jit tier forced on
    (monkeypatched availability; kernels run interpreted)."""

    @pytest.fixture
    def jit_on(self, monkeypatch):
        import repro.sim.backends as backends_pkg

        monkeypatch.setattr(jit_module, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(backends_pkg, "_JIT_BACKEND", None)
        return backends_pkg

    def test_auto_routes_batches_through_jit(self, jit_on):
        assert jit_available()
        assert preferred_batch_backend().name == "jit"
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        via_auto = simulate_many(
            system, costs, policies, 1_000, make_rng(6),
            n_replications=2, backend="auto",
        )
        via_vector = simulate_many(
            system, costs, policies, 1_000, make_rng(6),
            n_replications=2, backend="vector",
        )
        _assert_batches_identical(via_auto, via_vector)

    def test_explicit_jit_backend_matches_vector(self, jit_on):
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        via_jit = simulate_many(
            system, costs, policies, 1_000, make_rng(6),
            n_replications=2, backend="jit",
        )
        via_vector = simulate_many(
            system, costs, policies, 1_000, make_rng(6),
            n_replications=2, backend="vector",
        )
        _assert_batches_identical(via_jit, via_vector)


class TestFleetJit:
    """The grouped fleet hot path on the jit tier: per-device fan-in,
    lane blocking, telemetry stamping and checkpoint/resume."""

    @pytest.fixture
    def jit_on(self, monkeypatch):
        import repro.sim.backends as backends_pkg

        monkeypatch.setattr(jit_module, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(backends_pkg, "_JIT_BACKEND", None)

    def _build_fleet(self, n=6):
        from repro.runtime import Fleet, device_rng

        bundle = example_system.build()
        policy = eager_markov_policy(bundle.system, "s_on", "s_off")
        fleet = Fleet()
        for i in range(n):
            fleet.add_device(
                f"dev-{i}",
                bundle.system,
                bundle.costs,
                StationaryPolicyAgent(bundle.system, policy),
                rng=device_rng(0, i),
            )
        return fleet

    def test_jit_fleet_matches_vector_fleet(self, jit_on):
        from repro.runtime import FleetController

        a = FleetController(
            self._build_fleet(), slices_per_tick=300, backend="vector"
        )
        b = FleetController(
            self._build_fleet(), slices_per_tick=300, backend="jit"
        )
        assert b.resolved_backend == "jit"
        a.run(3)
        b.run(3)
        for da, db in zip(a.fleet, b.fleet):
            assert da.totals.tolist() == db.totals.tolist()
            assert da.state == db.state
            assert da.command_counts.tolist() == db.command_counts.tolist()
            assert (da.arrivals, da.serviced, da.lost, da.loss_event_slices) == (
                db.arrivals,
                db.serviced,
                db.lost,
                db.loss_event_slices,
            )
        # Snapshots agree except for the backend attribution stamp.
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a.pop("backend") == "vector"
        assert snap_b.pop("backend") == "jit"
        assert snap_a == snap_b

    def test_lane_block_sharding_is_bitwise_neutral(self, jit_on, monkeypatch):
        import repro.runtime.controller as controller_module
        from repro.runtime import FleetController

        a = FleetController(
            self._build_fleet(), slices_per_tick=200, backend="jit"
        )
        a.run(2)
        monkeypatch.setattr(controller_module, "FLEET_LANE_BLOCK", 2)
        b = FleetController(
            self._build_fleet(), slices_per_tick=200, backend="jit"
        )
        b.run(2)
        for da, db in zip(a.fleet, b.fleet):
            assert da.totals.tolist() == db.totals.tolist()
            assert da.state == db.state

    def test_checkpoint_resume_round_trip_on_jit(self, jit_on, tmp_path):
        from repro.runtime import FleetController, MemoryTelemetry

        straight_sink = MemoryTelemetry()
        straight = FleetController(
            self._build_fleet(),
            slices_per_tick=250,
            backend="jit",
            telemetry=straight_sink,
        )
        straight.run(4)

        resumed_sink = MemoryTelemetry()
        first = FleetController(
            self._build_fleet(),
            slices_per_tick=250,
            backend="jit",
            telemetry=resumed_sink,
        )
        first.run(2)
        path = tmp_path / "fleet.ckpt"
        first.save_checkpoint(path)
        second = FleetController.resume(path, telemetry=resumed_sink)
        assert second.backend == "jit"
        assert second.chunk_slices == straight.chunk_slices
        second.run(2)
        assert resumed_sink.records == straight_sink.records


class TestTimingTelemetry:
    """``fleet --timing`` reports wall-clock beside, not inside, telemetry."""

    def test_cli_timing_prints_last_tick_and_keeps_telemetry_pure(
        self, tmp_path, capsys
    ):
        import json
        import re

        from repro.tool.cli import main as cli_main

        spec = tmp_path / "fleet.json"
        spec.write_text(
            json.dumps(
                {
                    "groups": [
                        {
                            "count": 3,
                            "system": "example",
                            "agent": {
                                "type": "eager",
                                "active": "s_on",
                                "sleep": "s_off",
                            },
                        }
                    ]
                }
            )
        )
        telemetry = tmp_path / "t.jsonl"
        argv = ["fleet", str(spec), "--ticks", "2", "--slices-per-tick", "50"]
        assert cli_main(argv + ["--timing", "--telemetry", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"last tick: \d+\.\d{3}s \(\d+\.\d{3}s stepping, "
            r"0\.000s solving\)",
            out,
        ), out
        timed = telemetry.read_text()
        assert "timing" not in timed
        plain = tmp_path / "plain.jsonl"
        assert cli_main(argv + ["--telemetry", str(plain)]) == 0
        assert "last tick" not in capsys.readouterr().out
        assert plain.read_text() == timed

    def test_snapshot_always_stamps_backend(self):
        from repro.runtime import Fleet, FleetController, device_rng

        bundle = example_system.build()
        policy = eager_markov_policy(bundle.system, "s_on", "s_off")
        fleet = Fleet()
        fleet.add_device(
            "dev-0",
            bundle.system,
            bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(0, 0),
        )
        controller = FleetController(fleet, slices_per_tick=100)
        assert controller.snapshot()["backend"] == controller.resolved_backend


class TestCliBackends:
    def test_backends_subcommand_lists_availability(self, capsys):
        from repro.tool.cli import main as cli_main

        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "loop" in out and "vector" in out and "jit" in out
        if not NUMBA_AVAILABLE:
            assert "unavailable" in out and "numba" in out

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="needs a numba-less env")
    def test_fleet_jit_without_numba_is_actionable(self, capsys, tmp_path):
        import json

        from repro.tool.cli import main as cli_main

        spec = {
            "name": "t",
            "groups": [
                {
                    "count": 2,
                    "system": "example",
                    "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"},
                }
            ],
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(spec))
        code = cli_main(["fleet", str(path), "--ticks", "1", "--backend", "jit"])
        err = capsys.readouterr().err
        assert code == 2
        assert "numba" in err
        assert "vector" in err
