"""The DES engine fast paths: slotted events, deliveries, lazy tracing.

PR 4's second tentpole front inlined the engine's hottest operations
(timeout scheduling, succeed/fail, message delivery) and made tracer
channels lazy.  These tests pin that the fast paths behave exactly
like the generic machinery they bypass.
"""

import numpy as np
import pytest

from repro.harness.profiling import sim_core_events_per_sec
from repro.net.links import Link, LinkModel
from repro.net.message import Message
from repro.net.network import Delivery, Network
from repro.sim.engine import Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.trace import Tracer, _noop_log


class TestSlots:
    def test_event_types_have_no_instance_dict(self):
        env = Environment()
        for obj in (
            Event(env),
            env.timeout(1.0),
            env.event(),
            env.all_of([]),
        ):
            assert not hasattr(obj, "__dict__"), type(obj)

    def test_process_is_slotted(self):
        env = Environment()

        def gen():
            yield env.timeout(1)

        assert not hasattr(env.process(gen()), "__dict__")


class TestTimeoutFastPath:
    def test_factory_matches_direct_construction(self):
        env = Environment()
        fast = env.timeout(2.5, value="v")
        slow = Timeout(env, 2.5, value="v")
        assert type(fast) is Timeout
        assert fast.delay == slow.delay == 2.5
        assert fast._value == slow._value == "v"
        # Both scheduled: creation order == firing order at equal times.
        fired = []
        fast.callbacks.append(lambda e: fired.append("fast"))
        slow.callbacks.append(lambda e: fired.append("slow"))
        env.run()
        assert fired == ["fast", "slow"]
        assert env.now == 2.5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_step_and_run_agree(self):
        """The inlined run loop is semantically step() in a loop."""
        env = Environment()
        order = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc(env, "b", 2.0))
        env.process(proc(env, "a", 1.0))
        while True:
            try:
                env.step()
            except Exception:
                break
        assert order == ["a", "b"]

        env2 = Environment()
        order2 = []

        def proc2(env, name, delay):
            yield env.timeout(delay)
            order2.append(name)

        env2.process(proc2(env2, "b", 2.0))
        env2.process(proc2(env2, "a", 1.0))
        env2.run()
        assert order2 == order


class TestDelivery:
    def test_delivers_payload_after_transfer_time(self):
        env = Environment()
        network = Network(env, LinkModel(default=Link(latency=0.5, bandwidth=2.0)))
        received = []
        message = Message(src=0, dst=1, kind="update", payload="p", size=4.0)
        event = network.send(message, deliver=lambda m: received.append(m))
        assert isinstance(event, Delivery)
        env.run()
        assert received == [message]
        assert env.now == pytest.approx(0.5 + 4.0 / 2.0)
        assert network.messages_sent == 1
        assert network.bytes_sent.total == pytest.approx(4.0)

    def test_push_matches_send_timing_and_counters(self):
        results = {}
        for mode in ("send", "push"):
            env = Environment()
            network = Network(
                env, LinkModel(default=Link(latency=0.25, bandwidth=8.0))
            )
            got = []
            if mode == "send":
                network.send(
                    Message(src=0, dst=1, kind="update", payload="x", size=2.0),
                    deliver=lambda m: got.append(m.payload),
                )
            else:
                network.push(0, 1, 2.0, "x", got.append)
            env.run()
            results[mode] = (env.now, got, network.messages_sent,
                             network.bytes_sent.total)
        assert results["send"] == results["push"]

    def test_uniform_link_fast_path_matches_link_model(self):
        link = Link(latency=0.1, bandwidth=5.0)
        env = Environment()
        network = Network(env, LinkModel(default=link))
        assert network._uniform_link is link
        event = network.push(0, 3, 10.0, None, lambda p: None)
        env.run()
        assert env.now == pytest.approx(link.transfer_time(10.0))
        # Per-edge overrides disable the shortcut.
        network2 = Network(
            env,
            LinkModel(default=link, overrides={(0, 1): Link(latency=9.9)}),
        )
        assert network2._uniform_link is None

    def test_nic_egress_still_uses_process(self):
        from repro.net.network import SharedNic

        env = Environment()
        nic = SharedNic(env, bandwidth=1.0, latency=0.0)
        network = Network(env, egress_nics={0: nic}, machine_of=[0, 1])
        got = []
        event = network.send(
            Message(src=0, dst=1, kind="update", payload="y", size=3.0),
            deliver=lambda m: got.append(m.payload),
        )
        assert isinstance(event, Process)
        env.run()
        assert got == ["y"]
        # push() falls back to the same NIC machinery.
        env2 = Environment()
        nic2 = SharedNic(env2, bandwidth=1.0, latency=0.0)
        network2 = Network(env2, egress_nics={0: nic2}, machine_of=[0, 1])
        got2 = []
        network2.push(0, 1, 3.0, "y", got2.append)
        env2.run()
        assert got2 == ["y"] and env2.now == env.now


class TestLazyTracer:
    def test_records_everything_by_default(self):
        tracer = Tracer()
        tracer.log("iter/0", 1.0, 7)
        channel = tracer.channel("loss/0")
        channel(2.0, 0.5)
        assert tracer.raw("iter/0") == [(1.0, 7)]
        assert tracer.raw("loss/0") == [(2.0, 0.5)]

    def test_allowlist_disables_unconsumed_channels(self):
        tracer = Tracer(channels=("loss",))
        assert tracer.enabled("loss/3") and not tracer.enabled("iter/3")
        assert tracer.channel("iter/3") is _noop_log
        tracer.log("iter/3", 1.0, 1)
        tracer.channel("iter/3")(2.0, 2)
        assert tracer.count("iter/3") == 0
        tracer.channel("loss/3")(1.0, 0.1)
        assert tracer.count("loss/3") == 1

    def test_channel_and_log_share_storage(self):
        tracer = Tracer()
        channel = tracer.channel("duration/1")
        channel(1.0, 0.25)
        tracer.log("duration/1", 2.0, 0.5)
        assert tracer.raw("duration/1") == [(1.0, 0.25), (2.0, 0.5)]

    def test_merge_still_sorts(self):
        a, b = Tracer(), Tracer()
        a.log("k", 2.0, "late")
        b.log("k", 1.0, "early")
        a.merge(b)
        assert [v for _, v in a.raw("k")] == ["early", "late"]

    def test_light_trace_run_keeps_losses_and_durations(self):
        from repro.graphs import ring_based
        from repro.harness import ExperimentSpec, run_spec, svm_workload
        from repro.protocols.base import LIGHT_TRACE

        spec = ExperimentSpec(
            name="light",
            workload=svm_workload("smoke"),
            topology=ring_based(4),
            max_iter=4,
            seed=0,
            trace_channels=LIGHT_TRACE,
        )
        light = run_spec(spec)
        full = run_spec(spec.with_(trace_channels=None))
        # Identical results; only diagnostic channels are dropped.
        assert light.wall_time == full.wall_time
        assert light.final_params.tobytes() == full.final_params.tobytes()
        _, light_losses = light.loss_series()
        _, full_losses = full.loss_series()
        np.testing.assert_array_equal(light_losses, full_losses)
        assert light.tracer.count("iter/0") == 0
        assert full.tracer.count("iter/0") > 0


class TestSimCoreMicrobench:
    def test_reports_positive_rate(self):
        rate = sim_core_events_per_sec(
            n_processes=8, events_per_process=200, repeats=1
        )
        assert rate > 0


class TestBatcherPrefetch:
    def test_prefetch_matches_sequential_draws(self):
        from repro.ml.data import Batcher

        x = np.arange(100, dtype=float).reshape(50, 2)
        y = np.arange(50)
        a = Batcher(x, y, 8, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for _ in range(2 * Batcher._PREFETCH + 3):  # cross block refills
            xb, yb = a.next_batch()
            idx = rng.integers(0, 50, size=8)
            np.testing.assert_array_equal(xb, x[idx])
            np.testing.assert_array_equal(yb, y[idx])


class TestProfileSpec:
    def test_profiles_a_small_run(self):
        from repro.graphs import ring_based
        from repro.harness import ExperimentSpec, svm_workload
        from repro.harness.profiling import profile_spec

        spec = ExperimentSpec(
            name="profiled",
            workload=svm_workload("smoke"),
            topology=ring_based(4),
            max_iter=3,
            seed=0,
        )
        report = profile_spec(spec, sort="tottime", limit=5, warmup=False)
        assert report.iterations == 12
        assert report.messages > 0
        assert report.elapsed_seconds > 0
        assert report.iterations_per_second > 0
        # ring_based(4) x 3 iterations: 3 + 3 heap entries per
        # iteration with a token gate between iterations, plus each
        # worker's start and finish.
        assert report.events == 4 * (2 + 3 * 3 + 3 * 2)
        rendered = report.render()
        assert "simulated time" in rendered and "tottime" in rendered
        assert "events scheduled : 68 (5.67 per worker-iteration)" in rendered

    def test_model_step_budget_times_every_layer_in_place(self):
        import numpy as np

        from repro.harness import cnn_workload
        from repro.harness.profiling import model_step_budget

        workload = cnn_workload("smoke")
        model = workload.model_factory(np.random.default_rng(0))
        reference = workload.model_factory(np.random.default_rng(0))
        x = workload.dataset.x_train[: workload.batch_size]
        y = workload.dataset.y_train[: workload.batch_size]
        budget = model_step_budget(model, x, y, repeats=5, warmup=1)

        layers = model.network.layers
        assert [name for name, _, _ in budget.layers] == [
            repr(layer) for layer in layers
        ]
        spans = [us for _, f, b in budget.layers for us in (f, b)]
        assert all(us > 0 for us in spans) and budget.loss_us > 0
        assert sum(spans) + budget.loss_us <= budget.total_us
        rendered = budget.render().splitlines()
        assert rendered[0].split() == [
            "layer", "forward", "us", "backward", "us"
        ]
        assert len(rendered) == len(layers) + 3
        assert rendered[-2].startswith("loss") and rendered[-1].startswith(
            "total"
        )
        # The wrappers are gone and the model steps as an untouched one.
        for layer in layers:
            assert "forward" not in vars(layer)
            assert "backward" not in vars(layer)
        assert "value_and_grad" not in vars(model.loss)
        value, grad = model.loss_and_grad(x, y)
        ref_value, ref_grad = reference.loss_and_grad(x, y)
        assert value == ref_value and np.array_equal(grad, ref_grad)

    def test_cli_profile_prints_the_step_table(self, capsys):
        from repro.cli import main

        assert main([
            "profile", "--workload", "cnn", "--preset", "smoke",
            "--workers", "4", "--iterations", "2", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "one model step (cnn/smoke, batch 16):" in out
        assert "MaxPool2D(2)" in out and "events/sec" in out

    def test_cli_profile_engine_only(self, capsys):
        from repro.cli import main

        assert main(["profile", "--engine-only"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
