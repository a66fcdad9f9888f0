from __future__ import annotations

import dataclasses
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tddn import cli, training
from tddn.checkpoint import save_checkpoint
from tddn.cmapss import DatasetBundle, EngineTrajectory
from tddn.lanes import cpu_lanes, map_chunks
from tddn.layers import Conv1d, MaxPool1d, Param, mse_loss, pack
from tddn.metrics import evaluate_test, predict_engine
from tddn.model import DegradationNetwork, ModelConfig, conv_channels_for_depth
from tddn.preprocess import (
    LabelPolicy,
    apply_scaler,
    assign_rul_labels,
    fit_scaler,
    select_columns,
)
from tddn.training import (
    ADAM_BLOCK,
    INFER_BATCH,
    Adam,
    TrainConfig,
    TrainingError,
    WindowBank,
    build_window_bank,
    lr_at,
    map_windows,
    predict_windows,
    split_engines,
    train,
)
from _lanes import lane_jobs, lane_workers
from _synth import make_bundle, make_trajectory, write_bundle

SMALL_MODEL = ModelConfig(window=8, n_features=15, conv_channels=(4, 8))
SRC = Path(training.__file__).resolve().parents[1]
FD001 = select_columns("FD001")


def small_train_config(**overrides) -> TrainConfig:
    base = dict(batch_size=16, max_epochs=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# values the protocol or the architecture fixes, and an argument nothing read,
# each with a call that passes it as a keyword
FIXED_OPTIONS = {
    **{
        f"TrainConfig-{name}": (TrainConfig, name, getattr(TrainConfig, name))
        for name in ("lr_reduced", "lr_drop_after", "beta1", "beta2", "eps", "val_fraction")
    },
    "MaxPool1d-pool": (MaxPool1d, "pool", 2),
    **{
        f"ModelConfig-{name}": (ModelConfig, name, getattr(ModelConfig(), name))
        for name in ("kernel", "attention_hidden", "regressor_hidden")
    },
    "Conv1d-kernel": (lambda **kw: Conv1d(2, 3, np.random.default_rng(0), **kw), "kernel", 2),
    "WindowBank-unit_ids": (
        lambda **kw: WindowBank(np.zeros((5, 2)), [3], np.zeros(3), window=3, **kw),
        "unit_ids", [1],
    ),
    "assign_rul_labels-terminal_rul": (
        lambda **kw: assign_rul_labels(5, LabelPolicy(), **kw), "terminal_rul", 0
    ),
    "build_window_bank-terminal_ruls": (
        lambda **kw: build_window_bank([], None, None, LabelPolicy(), 4, **kw),
        "terminal_ruls", None,
    ),
}


@pytest.mark.parametrize("call, keyword, value", FIXED_OPTIONS.values(), ids=list(FIXED_OPTIONS))
def test_fixed_options_are_not_keywords(call, keyword, value):
    with pytest.raises(TypeError, match=rf"'{keyword}'|MaxPool1d\(\) takes no arguments"):
        call(**{keyword: value})


class TestTrainConfig:
    def test_defaults_follow_protocol(self):
        config = TrainConfig()
        assert config.batch_size == 32
        assert config.max_epochs == 200
        assert config.lr_initial == 1e-4
        assert config.lr_reduced == 1e-5
        assert (config.beta1, config.beta2, config.eps) == (0.9, 0.999, 1e-8)
        assert config.patience == 10
        assert config.val_fraction == 0.2
        assert config.r_max == 120

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "batch_size", "max_epochs", "lr_initial", "patience", "seed", "r_max",
        ]

    def test_invariants(self):
        with pytest.raises(ValueError, match="r_max must be positive, got 0"):
            TrainConfig(r_max=0)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning rates"):
            TrainConfig(lr_initial=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["lr_initial", "lr_reduced"])
    def test_refuses_non_finite_learning_rate(self, field, value):
        # lr_reduced is the tenth of lr_initial, so it is reached through ten times the value
        lr_initial = value if field == "lr_initial" else 10.0 * value
        reduced = lr_initial / 10.0
        assert reduced == value or (math.isnan(reduced) and math.isnan(value))
        with pytest.raises(ValueError, match="learning rates must be positive and finite"):
            TrainConfig(lr_initial=lr_initial)

    def test_refuses_a_rate_whose_tenth_is_zero(self):
        assert 5e-324 / 10.0 == 0.0
        with pytest.raises(ValueError, match="got 5e-324 and its tenth 0.0"):
            TrainConfig(lr_initial=5e-324)

    def test_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_label_policy_carries_cap(self):
        assert TrainConfig(r_max=90).label_policy == LabelPolicy(r_max=90)


class TestLrSchedule:
    def test_boundary_values(self):
        config = TrainConfig()
        assert lr_at(1, config) == 1e-4
        assert lr_at(100, config) == 1e-4
        assert lr_at(101, config) == 1e-5
        assert lr_at(200, config) == 1e-5

    def test_rejects_epoch_zero(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(0, TrainConfig())


class TestSplitEngines:
    def test_fd001_like_count(self):
        train_ids, val_ids = split_engines(range(1, 101), 0.2, seed=0)
        assert len(train_ids) == 80
        assert len(val_ids) == 20

    def test_rounding_half_up(self):
        train_ids, val_ids = split_engines(range(1, 260), 0.2, seed=0)
        assert len(val_ids) == 52
        assert len(train_ids) == 207

    def test_disjoint_cover(self):
        ids = list(range(1, 48))
        train_ids, val_ids = split_engines(ids, 0.3, seed=5)
        assert sorted(train_ids + val_ids) == ids
        assert not set(train_ids) & set(val_ids)

    def test_deterministic_per_seed(self):
        a = split_engines(range(1, 101), 0.2, seed=7)
        b = split_engines(range(1, 101), 0.2, seed=7)
        c = split_engines(range(1, 101), 0.2, seed=8)
        assert a == b
        assert a != c

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_engines([1], 0.5, seed=0)
        with pytest.raises(ValueError, match="empty side"):
            split_engines(range(1, 4), 0.01, seed=0)
        with pytest.raises(ValueError, match="empty side"):
            split_engines(range(1, 4), 0.99, seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            split_engines([1, 1, 2], 0.5, seed=0)


def packed_params(*params: Param) -> list[Param]:
    """``params`` laid out by ``pack``, as a model lays out its own."""
    pack(params)
    return list(params)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Param("p", np.array([1.0, -2.0]))
        opt = Adam(packed_params(p))
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_is_signed_lr(self):
        # bias-corrected first step: -lr * g / (|g| + eps') ≈ -lr * sign(g)
        for g in (0.7, -3.0, 1e-3):
            p = Param("p", np.array([0.5]))
            opt = Adam(packed_params(p))
            p.grad[:] = g
            opt.step(lr=0.01)
            update = p.value[0] - 0.5
            assert update == pytest.approx(-0.01 * np.sign(g), rel=1e-5)

    def test_identical_states_step_identically(self):
        rng = np.random.default_rng(42)
        value = rng.normal(size=(3, 2))
        grad = rng.normal(size=(3, 2))
        results = []
        for _ in range(2):
            p = Param("p", value.copy())
            opt = Adam(packed_params(p))
            p.grad[...] = grad
            opt.step(lr=0.05)
            opt.step(lr=0.05)
            results.append(p.value.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_shape_mismatch_rejected(self):
        p = Param("p", np.zeros(3))
        opt = Adam(packed_params(p))
        with pytest.raises(ValueError, match=r"'p': \.grad \(shape \(3,\)\) .* shape \(4,\)"):
            p.grad = np.zeros(4)
        assert p.grad.base is opt.grad

    def test_descends_a_quadratic(self):
        p = Param("p", np.array([5.0]))
        opt = Adam(packed_params(p))
        for _ in range(200):
            p.grad[:] = 2.0 * p.value
            opt.step(lr=0.1)
        assert abs(p.value[0]) < 0.5

    def test_same_shape_rebind_rejected(self):
        for attr in ("value", "grad"):
            p = Param("w", np.zeros(3))
            opt = Adam(packed_params(Param("b", np.ones(2)), p))
            view = getattr(p, attr)
            with pytest.raises(ValueError, match=rf"'w': \.{attr} .* in place"):
                setattr(p, attr, np.ones(3))
            assert getattr(p, attr) is view
            opt.step(lr=0.1)
            assert opt.step_count == 1

    def test_in_place_updates_of_a_packed_param_work(self):
        p = Param("w", np.array([1.0, 2.0, 3.0]))
        opt = Adam(packed_params(Param("b", np.ones(2)), p))
        value, grad = p.value, p.grad
        # an augmented assignment sets the same array back
        p.value -= 0.5
        p.grad[...] = [1.0, -1.0, 2.0]
        assert p.value is value and p.grad is grad
        np.testing.assert_array_equal(opt.value, [1.0, 1.0, 0.5, 1.5, 2.5])
        np.testing.assert_array_equal(opt.grad, [0.0, 0.0, 1.0, -1.0, 2.0])

    def test_pack_of_a_packed_param_rejected_before_any_rebind(self):
        (old,) = packed_params(Param("old", np.zeros(2)))
        fresh = Param("fresh", np.ones(3))
        arrays = [(p.value, p.grad) for p in (fresh, old)]
        with pytest.raises(ValueError, match="param 'old' is already packed"):
            pack([fresh, old])
        assert [(p.value, p.grad) for p in (fresh, old)] == arrays
        assert fresh.layout is None

    def test_unpacked_param_can_be_rebound(self):
        p = Param("w", np.zeros(3))
        p.value, p.grad = np.ones(4), np.ones(4)
        assert p.value.shape == p.grad.shape == (4,)
        (w,) = packed_params(p)
        np.testing.assert_array_equal(w.value, 1.0)

    def test_duplicate_param_rejected(self):
        p = Param("w", np.zeros(3))
        with pytest.raises(ValueError, match="'w' is listed twice"):
            pack([p, Param("b", np.zeros(1)), p])
        w, b = packed_params(Param("w", np.zeros(3)), Param("b", np.zeros(1)))
        with pytest.raises(ValueError, match="param 'w' is not at offset 4"):
            Adam([w, b, w])

    @pytest.mark.parametrize("build", [pack, Adam], ids=["pack", "Adam"])
    def test_empty_list_rejected(self, build):
        with pytest.raises(ValueError, match="empty param list"):
            build([])

    def test_adopts_the_model_buffers(self):
        model = DegradationNetwork(SMALL_MODEL, np.random.default_rng(3))
        views = [(p.value, p.grad) for p in model.params()]
        before = model.value.copy()
        opt = Adam(model.params())
        assert opt.value is model.value and opt.grad is model.grad
        for p, (value, grad) in zip(model.params(), views):
            assert p.value is value and p.grad is grad
        np.testing.assert_array_equal(model.value, before)
        model.grad[...] = 1.0
        opt.step(lr=0.01)
        np.testing.assert_array_equal(model.value, before - 0.01 * (1.0 / (1.0 + 1e-8)))

    @pytest.mark.parametrize(
        "case",
        [
            "unpacked", "unpacked-appended", "reordered", "repeated", "rebound-value",
            "rebound-grad", "grad-aliases-value", "prefix", "two-models",
        ],
    )
    def test_list_that_is_not_one_arena_rejected(self, case):
        model = DegradationNetwork(SMALL_MODEL, np.random.default_rng(4))
        params = model.params()
        stray = Param("stray", np.zeros(3))
        if case in ("rebound-value", "rebound-grad", "grad-aliases-value"):
            # a packed param refuses the rebind itself, so no list can hold one
            if case == "grad-aliases-value":
                p, attr, new = params[0], "grad", params[0].value
            else:
                p, attr = params[3], case.split("-")[1]
                new = getattr(p, attr).copy()
            with pytest.raises(ValueError, match=rf"param '{p.name}': \.{attr} .* in place"):
                setattr(p, attr, new)
            assert Adam(params).value is model.value
            return
        if case == "unpacked":
            params, name = [stray], "stray"
        elif case == "unpacked-appended":
            params, name = params + [stray], "stray"
        elif case == "reordered":
            params[1], params[2] = params[2], params[1]
            name = params[1].name
        elif case == "repeated":
            params, name = params + params[:1], params[0].name
        elif case == "prefix":
            params, name = params[:-1], params[-2].name
        else:
            other = DegradationNetwork(SMALL_MODEL, np.random.default_rng(4)).params()
            params, name = params[:2] + other[2:], other[2].name
        with pytest.raises(ValueError, match=f"param '{name}"):
            Adam(params)


class ReferenceAdam:
    """The per-parameter Adam the flat-buffer optimizer must match bit for bit."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr):
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@pytest.fixture(params=[1, 2], ids=["one-lane", "two-lane"])
def lanes(request, monkeypatch):
    """Adam steps in the test take the serial path (1) or split every step (2)."""
    monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: request.param)
    if request.param == 2:
        monkeypatch.setattr(training, "ADAM_TWO_LANE_MIN", 0)
    return request.param


class TestAdamMatchesReference:
    N_STEPS = 24

    @staticmethod
    def lr(step: int) -> float:
        return 1e-3 if step <= 10 else 1e-4

    @staticmethod
    def assert_same_state(opt: Adam, ref: ReferenceAdam) -> None:
        for p, q in zip(opt.params, ref.params):
            np.testing.assert_array_equal(p.value, q.value, err_msg=p.name)
        np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
        np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))

    @classmethod
    def assert_lanes_used(cls, lanes: int, executors: list) -> None:
        # with two lanes, each step is one job on the caller's one worker,
        # the only lane thread
        assert [w.jobs for w in executors] == ([cls.N_STEPS] if lanes == 2 else [])
        assert len(lane_workers()) == len(executors)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_network_training_steps(self, depth, lanes, executors):
        config = ModelConfig(
            window=16, n_features=15, conv_channels=conv_channels_for_depth(depth)
        )
        model = DegradationNetwork(config, np.random.default_rng(depth))
        twin = DegradationNetwork(config, np.random.default_rng(depth))
        opt = Adam(model.params())
        ref = ReferenceAdam(twin.params())
        assert opt.value.size > ADAM_BLOCK
        rng = np.random.default_rng(100 + depth)
        for step in range(1, self.N_STEPS + 1):
            x = rng.uniform(-1.0, 1.0, size=(8, 16, 15))
            y = rng.uniform(0.0, 120.0, size=8)
            _, gpred = mse_loss(model.forward(x), y)
            model.zero_grad()
            model.backward(gpred)
            for p, q in zip(model.params(), twin.params()):
                q.grad[...] = p.grad
            opt.step(self.lr(step))
            ref.step(self.lr(step))
            self.assert_same_state(opt, ref)
        self.assert_lanes_used(lanes, executors)

    def step_several_blocks(self, first_step: int, beta1: float) -> None:
        """N_STEPS steps from ``first_step`` on params of 3 full blocks and a partial one."""
        # param edges fall inside blocks
        shapes = [(ADAM_BLOCK - 3,), (2, ADAM_BLOCK + 5), (7,), (3, 11, 5)]
        assert sum(np.prod(s) for s in shapes) % ADAM_BLOCK != 0
        rng = np.random.default_rng(7)
        values = [rng.normal(size=s) for s in shapes]
        params = packed_params(*(Param(f"p{i}", v) for i, v in enumerate(values)))
        twins = [Param(f"p{i}", v.copy()) for i, v in enumerate(values)]
        opt = Adam(params, beta1=beta1, beta2=0.99, eps=1e-6)
        ref = ReferenceAdam(twins, beta1=beta1, beta2=0.99, eps=1e-6)
        opt.step_count = ref.step_count = first_step - 1
        for step in range(first_step, first_step + self.N_STEPS):
            for p, q in zip(params, twins):
                g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.value.shape)
                p.grad[...] = g
                q.grad[...] = g
            opt.step(self.lr(step))
            ref.step(self.lr(step))
            self.assert_same_state(opt, ref)

    def test_params_spanning_several_blocks(self, lanes, executors):
        self.step_several_blocks(1, beta1=0.8)
        self.assert_lanes_used(lanes, executors)

    def test_steps_past_the_first_bias_correction_rounding_to_one(self, lanes, executors):
        # 1 - 0.9**t is 1.0 from step 356 on, where the update skips m / bc1
        assert 1.0 - TrainConfig.beta1**355 < 1.0 == 1.0 - TrainConfig.beta1**356
        self.step_several_blocks(346, beta1=TrainConfig.beta1)
        self.assert_lanes_used(lanes, executors)


class TestTwoLaneAdam:
    def test_lane_decision(self, monkeypatch, executors):
        # the window-16 depth-1 model stays serial, the default model splits
        w16 = ModelConfig(window=16, conv_channels=conv_channels_for_depth(1))
        rng = np.random.default_rng(0)
        size = training.ADAM_TWO_LANE_MIN
        assert DegradationNetwork(w16, rng).n_parameters() < size
        assert DegradationNetwork(ModelConfig(), rng).n_parameters() >= size
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        small = Adam(packed_params(Param("p", np.zeros(size - 1))))
        small.step(lr=0.1)
        assert not executors
        opt = Adam(packed_params(Param("p", np.zeros(size))))
        # nothing at construction; the first step starts the caller's worker,
        # and each step is one job on it
        assert not executors
        opt.step(lr=0.1)
        opt.step(lr=0.1)
        assert len(executors) == 1 and lane_jobs(executors) == 2
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 1)
        opt.step(lr=0.1)
        assert len(executors) == 1 and lane_jobs(executors) == 2

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
    def test_lane_count_follows_the_affinity_mask(self, executors):
        # not patched: under `taskset -c 0` this checks the serial decision for real
        lanes = min(2, len(os.sched_getaffinity(0)))
        assert cpu_lanes() == lanes
        opt = Adam(packed_params(Param("p", np.zeros(training.ADAM_TWO_LANE_MIN))))
        opt.step(lr=0.1)
        assert len(executors) == (1 if lanes == 2 else 0)

    def test_equals_serial_under_fast_thread_switching(self, monkeypatch):
        lanes = [1]
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: lanes[0])
        serial, two_lane = (
            Adam(DegradationNetwork(ModelConfig(), np.random.default_rng(5)).params())
            for _ in range(2)
        )
        assert two_lane.value.size >= training.ADAM_TWO_LANE_MIN
        rng = np.random.default_rng(6)
        grad = rng.standard_normal(serial.grad.size)
        steps_done: list[int] = []
        errors: list[BaseException] = []

        def run() -> None:
            try:
                for step in range(1, 21):
                    np.multiply(grad, 10.0 ** rng.uniform(-3, 1), out=serial.grad)
                    two_lane.grad[...] = serial.grad
                    lanes[0] = 1
                    serial.step(1e-3)
                    lanes[0] = 2
                    two_lane.step(1e-3)
                    for name in ("value", "m", "v"):
                        if not np.array_equal(getattr(serial, name), getattr(two_lane, name)):
                            raise AssertionError(f"{name} differs after step {step}")
                    steps_done.append(step)
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), f"stuck after {len(steps_done)} steps"
        if errors:
            raise errors[0]
        assert steps_done == list(range(1, 21))

    def test_steps_share_the_callers_worker(self, monkeypatch, executors):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        alive = set(threading.enumerate())
        opt = Adam(packed_params(Param("p", np.ones(training.ADAM_TWO_LANE_MIN))))
        for step in range(1, 4):
            opt.step(lr=0.1)
            assert len(executors) == 1 and lane_jobs(executors) == step
            # the caller's worker is the only thread the steps add
            assert set(threading.enumerate()) - alive == lane_workers()
            assert len(lane_workers()) == 1


# a two-lane call, a fork, and a two-lane call in the child, which must not
# wait on the worker thread that the fork left behind
FORK_AFTER_A_TWO_LANE_CALL = """
import os, signal, time
from tddn import lanes

lanes.cpu_lanes = lambda: 2
assert lanes.map_chunks(lambda c: c.start, 2, 1) == [0, 1]
pid = os.fork()
if pid == 0:
    ok = lanes.map_chunks(lambda c: c.start, 2, 1) == [0, 1]
    print("child ok" if ok else "child wrong", flush=True)
    os._exit(0 if ok else 1)
deadline = time.monotonic() + 30.0
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        raise SystemExit(os.waitstatus_to_exitcode(status))
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise SystemExit("the forked child's two-lane call hung")
    time.sleep(0.01)
"""


class TestOneWorker:
    """Each calling thread hands its upper halves to one lane worker for the thread's life."""

    def test_calls_on_a_thread_share_their_worker(self, monkeypatch, executors):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        threads: set[threading.Thread] = set()

        def fn(chunk: slice) -> int:
            threads.add(threading.current_thread())
            return chunk.start

        # a one-chunk call runs on the caller and starts nothing
        assert map_chunks(fn, 1, 1) == [0]
        assert not executors and not lane_workers()
        for n in (2, 4, 7):
            assert map_chunks(fn, n, 1) == list(range(n))
            assert map_chunks(fn, n, 2) == list(range(0, n, 2))
        # five calls of two chunks or more, one job each on one worker
        assert len(executors) == 1 and lane_jobs(executors) == 5
        assert threads == {threading.current_thread(), *lane_workers()}
        assert len(threads) == 2
        # one usable CPU hands the worker nothing
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 1)
        assert map_chunks(fn, 4, 1) == [0, 1, 2, 3]
        assert len(executors) == 1 and lane_jobs(executors) == 5

    def test_error_in_the_upper_half_leaves_the_worker_serving(self, monkeypatch, executors):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)

        def fn(chunk: slice) -> None:
            if chunk.start == 1:
                raise KeyError("upper half")

        with pytest.raises(KeyError, match="upper half"):
            map_chunks(fn, 2, 1)
        assert len(lane_workers()) == len(executors) == 1
        # the worker serves the next call
        assert map_chunks(lambda c: c.start, 2, 1) == [0, 1]
        assert len(executors) == 1 and lane_jobs(executors) == 2

    @staticmethod
    def assert_lower_half_waits(exc: BaseException, monkeypatch, executors) -> None:
        """Chunk 0 raises ``exc`` while chunk 1 still runs on the worker."""
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        failed = threading.Event()
        done: list[slice] = []

        def fn(chunk: slice) -> None:
            if chunk.start == 0:
                failed.set()
                raise exc
            failed.wait(timeout=10.0)
            time.sleep(0.05)
            done.append(chunk)

        with pytest.raises(type(exc), match="lower half"):
            map_chunks(fn, 2, 1)
        # the worker still runs, but it is done with the call
        assert done == [slice(1, 2)]
        assert len(lane_workers()) == 1
        # and it serves the next call
        assert map_chunks(lambda c: c.start, 2, 1) == [0, 1]
        assert len(executors) == 1 and lane_jobs(executors) == 2

    def test_error_in_the_lower_half_waits_for_the_shared_worker(self, monkeypatch, executors):
        self.assert_lower_half_waits(KeyError("lower half"), monkeypatch, executors)

    def test_interrupt_in_the_lower_half_waits_for_the_shared_worker(
        self, monkeypatch, executors
    ):
        self.assert_lower_half_waits(KeyboardInterrupt("lower half"), monkeypatch, executors)

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
    def test_interrupt_while_waiting_for_the_worker_waits_for_it(self, monkeypatch):
        # a SIGINT reaches the caller while it waits in the upper half's result()
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        caller = threading.get_ident()
        lower_done = threading.Event()
        done: list[slice] = []

        def fn(chunk: slice) -> None:
            if chunk.start == 0:
                lower_done.set()
                return
            lower_done.wait(timeout=10.0)
            time.sleep(0.05)
            signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.1)
            done.append(chunk)

        try:
            with pytest.raises(KeyboardInterrupt):
                map_chunks(fn, 2, 1)
                # reached only if the signal lands after the call returned;
                # the interrupt then still comes inside pytest.raises
                time.sleep(1.0)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert done == [slice(1, 2)]
        assert map_chunks(lambda c: c.start, 2, 1) == [0, 1]

    def test_a_call_on_a_worker_uses_that_threads_own_worker(self, monkeypatch):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        # the threads that ran each half of a nested call, by calling thread
        calls: dict[threading.Thread, list[threading.Thread]] = {}

        def outer(chunk: slice) -> None:
            halves = map_chunks(lambda c: threading.current_thread(), 2, 1)
            calls[threading.current_thread()] = halves

        runner = threading.Thread(target=map_chunks, args=(outer, 2, 1), daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "a nested call waits on its own worker"
        runner_worker = calls[runner][1]
        assert calls[runner] == [runner, runner_worker]
        assert calls[runner_worker][0] is runner_worker
        assert calls[runner_worker][1] not in (runner, runner_worker)

    def test_a_second_thread_gets_a_worker_that_exits_with_it(self, monkeypatch):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        assert map_chunks(lambda c: c.start, 2, 1) == [0, 1]
        (main_worker,) = lane_workers()
        workers: list[threading.Thread] = []

        def run() -> None:
            for _ in range(3):
                workers.append(map_chunks(lambda c: threading.current_thread(), 2, 1)[1])

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        (worker,) = set(workers)
        assert worker is not main_worker
        gc.collect()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        # the main thread's worker is untouched
        assert lane_workers() == {main_worker}
        assert map_chunks(lambda c: threading.current_thread(), 2, 1)[1] is main_worker

    def test_default_steps_start_a_worker_once_and_make_five_jobs_each(
        self, monkeypatch, executors
    ):
        # conv2, conv3, expand and the attention split, and Adam: 5 jobs a step
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        model = DegradationNetwork(ModelConfig(), np.random.default_rng(13))
        opt = Adam(model.params())
        rng = np.random.default_rng(14)
        for step in range(1, 4):
            _, gpred = mse_loss(model.forward(rng.normal(size=(32, 64, 15))), np.ones(32))
            model.backward(gpred)
            opt.step(1e-3)
            assert len(executors) == 1 and lane_jobs(executors) == 5 * step
        assert len(lane_workers()) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_a_forked_childs_call_starts_a_fresh_worker(self):
        # in a subprocess, so that the test's own process never forks
        done = subprocess.run(
            [sys.executable, "-c", FORK_AFTER_A_TWO_LANE_CALL], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout == "child ok\n"

    def test_default_steps_equal_one_lane_under_fast_thread_switching(
        self, monkeypatch, executors
    ):
        # every default-shape step splits conv2, conv3, expand and the attention,
        # and Adam, on the runner's one worker
        lanes = [1]
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: lanes[0])
        models = [DegradationNetwork(ModelConfig(), np.random.default_rng(11)) for _ in range(2)]
        optimizers = [Adam(model.params()) for model in models]
        rng = np.random.default_rng(12)
        steps_done: list[int] = []
        errors: list[BaseException] = []

        def run() -> None:
            try:
                for step in range(1, 21):
                    x = rng.normal(size=(32, 64, 15))
                    y = rng.uniform(0.0, 125.0, size=32)
                    for n_lanes, model, opt in zip((1, 2), models, optimizers):
                        lanes[0] = n_lanes
                        _, gpred = mse_loss(model.forward(x), y)
                        model.backward(gpred)
                        opt.step(1e-3)
                    for name in ("value", "grad"):
                        if not np.array_equal(*(getattr(m, name) for m in models)):
                            raise AssertionError(f"{name} differs after step {step}")
                    steps_done.append(step)
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), f"stuck after {len(steps_done)} steps"
        if errors:
            raise errors[0]
        assert steps_done == list(range(1, 21))
        # the runner's one worker took five jobs from each two-lane step
        assert len(executors) == 1 and lane_jobs(executors) == 5 * 20


def window_oracle(matrix: np.ndarray, j: int, window: int) -> np.ndarray:
    """Window of 1-based cycle j: rows j-w..j-1, missing history is row 0."""
    return np.stack([matrix[max(0, i)] for i in range(j - window, j)])


def pad_first_row(matrix: np.ndarray, window: int) -> np.ndarray:
    """``window - 1`` copies of the first row, then the matrix."""
    return np.concatenate([np.repeat(matrix[:1], window - 1, axis=0), matrix])


def stacked_windows(padded: np.ndarray, window: int, start: int, stop: int) -> np.ndarray:
    """Reference batch: one slice per window, stacked."""
    return np.stack([padded[j : j + window] for j in range(start, stop)])


def infer_slices(n: int) -> list[slice]:
    """The chunks inference cuts ``n`` windows into: ``min(INFER_BATCH, ceil(n / 2))`` long."""
    size = min(INFER_BATCH, math.ceil(n / 2))
    return [slice(start, start + size) for start in range(0, n, size)]


def read_csv_values(path, n_keys: int) -> np.ndarray:
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")[n_keys:]] for line in lines])


class TestWindowBank:
    def test_every_window_matches_oracle(self):
        rng = np.random.default_rng(42)
        selection = select_columns("FD001")
        policy = LabelPolicy(r_max=4)
        for window in (1, 2, 5, 9):
            # engines shorter than, equal to and longer than the window
            lengths = [1, window - 1, window, window + 1, int(rng.integers(1, 30))]
            lengths = [n for n in lengths if n >= 1]
            engines = [
                EngineTrajectory(k + 1, rng.normal(size=(n, 24))) for k, n in enumerate(lengths)
            ]
            scaler = fit_scaler(engines, selection)
            bank = build_window_bank(engines, scaler, selection, policy, window)
            assert bank.n_windows == sum(lengths)
            x, y = bank.gather(np.arange(bank.n_windows))
            assert x.shape == (bank.n_windows, window, selection.n_columns)
            flat = 0
            for engine in engines:
                scaled = apply_scaler(engine, scaler, selection)
                for j in range(1, engine.n_cycles + 1):
                    np.testing.assert_array_equal(x[flat], window_oracle(scaled, j, window))
                    assert y[flat] == min(policy.r_max, engine.n_cycles - j)
                    flat += 1
            np.testing.assert_array_equal(bank.ends, np.cumsum(lengths) - 1)
            # chunks walk the same flat order, engine boundaries included
            chunks = map_chunks(lambda c: bank.gather(c)[0], bank.n_windows, 3)
            np.testing.assert_array_equal(np.concatenate(chunks), x)

    def test_gather_matches_brute_force_oracle(self):
        bundle = make_bundle(n_train=3, seed=21)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        policy = LabelPolicy()
        window = 6
        bank = build_window_bank(bundle.train, scaler, selection, policy, window)
        assert bank.n_windows == sum(t.n_cycles for t in bundle.train)
        order = np.random.default_rng(0).permutation(bank.n_windows)
        x, y = bank.gather(order)
        oracle_x, oracle_y = [], []
        for traj in bundle.train:
            scaled = apply_scaler(traj, scaler, selection)
            labels = assign_rul_labels(traj.n_cycles, policy)
            for j in range(1, traj.n_cycles + 1):
                oracle_x.append(window_oracle(scaled, j, window))
                oracle_y.append(labels[j - 1])
        np.testing.assert_array_equal(x, np.stack(oracle_x)[order])
        np.testing.assert_array_equal(y, np.array(oracle_y)[order])

    def test_inference_paths_match_stacked_windows_bit_for_bit(self, tmp_path):
        # engines past 256 cycles, and a flat order past 512 windows, so the
        # chunks are cut both at ceil(n / 2) and at INFER_BATCH
        bundle = make_bundle(n_train=2, n_test=2, min_len=250, max_len=300, seed=24)
        data = write_bundle(bundle, tmp_path / "data")
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        policy = LabelPolicy()
        config = ModelConfig(window=8, n_features=15, conv_channels=(4, 8))
        model = DegradationNetwork(config, np.random.default_rng(3))
        model.regressor.children[-1].bias.value[...] = 60.0
        w = config.window
        padded = [pad_first_row(apply_scaler(t, scaler, selection), w) for t in bundle.train]

        # predict_windows: the rule's chunks of the flat order, across engines
        flat = np.concatenate([stacked_windows(p, w, 0, p.shape[0] - w + 1) for p in padded])
        assert flat.shape[0] > 2 * INFER_BATCH
        want = np.concatenate([model.forward(flat[c]) for c in infer_slices(flat.shape[0])])
        bank = build_window_bank(bundle.train, scaler, selection, policy, w)
        np.testing.assert_array_equal(predict_windows(model, bank), want)

        # predict_engine and export-features: the rule's chunks from cycle 1
        traj, rows = bundle.train[0], padded[0]
        assert INFER_BATCH < traj.n_cycles < 2 * INFER_BATCH
        chunks = [
            stacked_windows(rows, w, c.start, min(c.stop, traj.n_cycles))
            for c in infer_slices(traj.n_cycles)
        ]
        want = np.clip(np.concatenate([model.forward(c) for c in chunks]), 0.0, 120.0)
        np.testing.assert_array_equal(
            predict_engine(model, traj, scaler, selection, policy), want
        )
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, model, scaler, selection, policy, "FD001")
        out = tmp_path / "features"
        assert cli.main([
            "export-features", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(out), "--engine", str(traj.unit_id), "--split", "train",
        ]) == 0
        traces = [model.trace(c) for c in chunks]
        attention = np.concatenate([t.attention for t in traces])
        temporal = np.concatenate([t.temporal for t in traces])
        abstract = np.concatenate([t.abstract for t in traces])
        np.testing.assert_array_equal(read_csv_values(out / "attention.csv", 1), attention)
        np.testing.assert_array_equal(
            read_csv_values(out / "temporal_features.csv", 2),
            temporal.reshape(-1, temporal.shape[2]),
        )
        np.testing.assert_array_equal(
            read_csv_values(out / "abstract_features.csv", 2),
            abstract.reshape(-1, abstract.shape[2]),
        )

    def test_no_engines_or_zero_window_rejected(self):
        engine = make_bundle(n_train=1, seed=3).train[0]
        scaler = fit_scaler([engine], FD001)
        with pytest.raises(ValueError, match="at least one engine"):
            build_window_bank([], scaler, FD001, LabelPolicy(), 3)
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            build_window_bank([engine], scaler, FD001, LabelPolicy(), 0)


class TestTwoLaneInference:
    @pytest.fixture(scope="class")
    def long_engines(self, tmp_path_factory):
        """Engines of 520-600 cycles (three chunks each), their data files and a checkpoint."""
        bundle = make_bundle(n_train=2, n_test=1, min_len=520, max_len=600, seed=31)
        data = write_bundle(bundle, tmp_path_factory.mktemp("data"))
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        model = DegradationNetwork(SMALL_MODEL, np.random.default_rng(8))
        model.regressor.children[-1].bias.value[...] = 60.0
        ckpt = data / "model.ckpt"
        save_checkpoint(ckpt, model, scaler, selection, LabelPolicy(), "FD001")
        return bundle, data, scaler, selection, model, ckpt

    def test_one_and_two_lanes_give_the_same_bytes(self, long_engines, monkeypatch, tmp_path):
        bundle, data, scaler, selection, model, ckpt = long_engines
        policy = LabelPolicy()
        bank = build_window_bank(bundle.train, scaler, selection, policy, SMALL_MODEL.window)
        traj = bundle.train[1]
        names = ("attention.csv", "temporal_features.csv", "abstract_features.csv")
        threads: set[str] = set()
        trace = DegradationNetwork.trace

        def spy(self, x):
            threads.add(threading.current_thread().name)
            return trace(self, x)

        monkeypatch.setattr(DegradationNetwork, "trace", spy)
        outputs = {}
        for lanes in (1, 2):
            monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda n=lanes: n)
            threads.clear()
            out = tmp_path / f"features-{lanes}"
            assert cli.main([
                "export-features", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(out), "--engine", str(traj.unit_id), "--split", "train",
            ]) == 0
            outputs[lanes] = (
                predict_windows(model, bank).tobytes(),
                predict_engine(model, traj, scaler, selection, policy).tobytes(),
                *((out / name).read_bytes() for name in names),
            )
            assert (len(threads) == 2) == (lanes == 2), threads
        assert outputs[1] == outputs[2]

    def test_chunks_are_the_serial_ones_in_order(self, monkeypatch):
        want = [slice(0, 256), slice(256, 512), slice(512, 768), slice(768, 1024)]
        for lanes, lower in ((1, want), (2, want[:2])):
            monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda n=lanes: n)
            runs: list[tuple[slice, bool]] = []

            def fn(chunk: slice) -> slice:
                runs.append((chunk, threading.current_thread() is threading.main_thread()))
                return chunk

            assert map_chunks(fn, 1000, INFER_BATCH) == want
            assert sorted(runs, key=lambda r: r[0].start) == [(c, c in lower) for c in want]

    def test_error_in_the_lower_half_waits_for_the_worker(self, monkeypatch):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        failed = threading.Event()
        done: list[slice] = []

        def fn(chunk: slice) -> None:
            if chunk.start == 0:
                failed.set()
                raise KeyError("lower half")
            # the worker's chunks are still running when the caller's raises
            failed.wait(timeout=10.0)
            time.sleep(0.05)
            done.append(chunk)

        with pytest.raises(KeyError, match="lower half"):
            map_chunks(fn, 4, 1)
        assert done == [slice(2, 3), slice(3, 4)]
        assert len(lane_workers()) == 1

    def test_threads_share_one_model_bit_for_bit(self):
        config = ModelConfig(window=16, conv_channels=(8, 16))
        model = DegradationNetwork(config, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        inputs = [rng.normal(size=(64, 16, 15)) for _ in range(2)]
        fields = ("temporal", "abstract", "attention", "prediction")
        want = [[getattr(model.trace(x), f).tobytes() for f in fields] for x in inputs]
        rounds_done = [0, 0]
        errors: list[BaseException] = []

        def run(lane: int) -> None:
            try:
                for _ in range(200):
                    got = model.trace(inputs[lane])
                    if [getattr(got, f).tobytes() for f in fields] != want[lane]:
                        raise AssertionError(f"lane {lane}: round {rounds_done[lane] + 1} differs")
                    rounds_done[lane] += 1
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(lane,), daemon=True) for lane in (0, 1)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(r.is_alive() for r in runners), f"stuck after {rounds_done} rounds"
        if errors:
            raise errors[0]
        assert rounds_done == [200, 200]

    def test_inference_leaves_no_state_and_only_the_lane_worker(
        self, long_engines, monkeypatch, executors, tmp_path
    ):
        bundle, data, scaler, selection, model, ckpt = long_engines
        policy = LabelPolicy()
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        short = make_bundle(n_train=1, min_len=100, max_len=200, seed=32).train[0]
        bank = build_window_bank(bundle.train, scaler, selection, policy, SMALL_MODEL.window)

        def export_features() -> None:
            assert cli.main([
                "export-features", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(tmp_path / "features"), "--engine", "1", "--split", "train",
            ]) == 0

        layers = [
            *model.conv_stack.children, model.expand, model.expand_act, model.attention,
            *model.regressor.children,
        ]
        states = [dict(vars(layer)) for layer in [model, *layers]]
        alive = set(threading.enumerate())
        # every call of two or more windows makes one job; one window, none
        calls = [
            (lambda: predict_engine(model, short, scaler, selection, policy), 1),
            (lambda: evaluate_test(model, bundle, scaler, selection, policy), 0),
            (lambda: model.trace(bank.gather(slice(0, 40))[0]), 0),
            (lambda: predict_engine(model, bundle.train[0], scaler, selection, policy), 1),
            (lambda: predict_windows(model, bank), 1),
            (export_features, 1),
        ]
        for call, jobs in calls:
            before = lane_jobs(executors)
            call()
            assert lane_jobs(executors) - before == jobs
            # the caller's one worker is the only thread inference adds
            assert len(executors) == 1
            assert set(threading.enumerate()) - alive == lane_workers()
            assert len(lane_workers()) == 1
        assert [dict(vars(layer)) for layer in [model, *layers]] == states
        with pytest.raises(RuntimeError, match="without a pending forward"):
            model.backward(np.ones(1))

    SIZES = (1, 2, 3, 19, 255, 256, 257, 511, 512, 513)

    def test_map_windows_cuts_chunks_by_the_rule(self, monkeypatch):
        for lanes in (1, 2):
            monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda n=lanes: n)
            for n in (*self.SIZES, 1000, 1024, 1025):
                chunks = map_windows(lambda c: c, n)
                assert chunks == infer_slices(n)
                assert all(c.stop - c.start <= INFER_BATCH for c in chunks)
                assert (len(chunks) >= 2) == (n >= 2)
        assert map_windows(lambda c: c, 0) == []

    @pytest.fixture(scope="class")
    def engines(self):
        """A 513-cycle engine, its scaler, and the 513 test engines cut from it."""
        rng = np.random.default_rng(33)
        long = make_trajectory(1, max(self.SIZES), 600, rng)
        scaler = fit_scaler([long], FD001)
        # lengths from 1 to 513 cycles in a scrambled order
        tests = [
            EngineTrajectory(k + 1, long.values[: 1 + (k * 97) % long.n_cycles])
            for k in range(long.n_cycles)
        ]
        return long, scaler, tests

    @pytest.mark.parametrize(
        "config", [SMALL_MODEL, ModelConfig(window=32)], ids=["small", "window-32-depth-3"]
    )
    def test_every_size_matches_one_predict_in_both_lane_modes(
        self, config, engines, monkeypatch, executors
    ):
        long, scaler, tests = engines
        policy = LabelPolicy()
        model = DegradationNetwork(config, np.random.default_rng(34))
        model.regressor.children[-1].bias.value[...] = 60.0
        w, r_max = config.window, float(policy.r_max)

        def padded(traj: EngineTrajectory) -> np.ndarray:
            return pad_first_row(apply_scaler(traj, scaler, FD001), w)

        rows = padded(long)
        sizes: list[int] = []
        predict = DegradationNetwork.predict

        def spy(self, x):
            sizes.append(len(x))
            return predict(self, x)

        monkeypatch.setattr(DegradationNetwork, "predict", spy)
        for n in self.SIZES:
            engine = EngineTrajectory(1, long.values[:n])
            bundle = DatasetBundle("FD001", (), tuple(tests[:n]), np.zeros(n, dtype=np.int64))
            curve = model.predict(stacked_windows(rows, w, 0, n))
            last = np.stack([padded(t)[-w:] for t in tests[:n]])
            want = [
                curve.tobytes(),
                np.clip(curve, 0.0, r_max).tobytes(),
                np.clip(model.predict(last), 0.0, r_max).tobytes(),
            ]
            for lanes in (1, 2):
                monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda k=lanes: k)
                bank = build_window_bank([engine], scaler, FD001, policy, w)
                calls = [
                    lambda: predict_windows(model, bank),
                    lambda: predict_engine(model, engine, scaler, FD001, policy),
                    lambda: evaluate_test(model, bundle, scaler, FD001, policy).pred,
                ]
                for call, expected in zip(calls, want):
                    jobs, sizes[:] = lane_jobs(executors), []
                    assert call().tobytes() == expected, (n, lanes)
                    assert lane_jobs(executors) - jobs == (lanes == 2 and n >= 2)
                    # the lanes append in either order
                    assert sorted(sizes) == sorted(len(range(n)[c]) for c in infer_slices(n))
                    assert max(sizes) <= INFER_BATCH
        # every two-lane call used the caller's one worker
        assert len(executors) == 1


class TestTrain:
    def test_smoke_training_reduces_loss(self):
        bundle = make_bundle(n_train=3, n_test=1, min_len=30, max_len=45, seed=30)
        config = small_train_config(max_epochs=20, lr_initial=1e-3)
        result = train(bundle.train, SMALL_MODEL, config, FD001)
        assert result.report.train_loss[19] < result.report.train_loss[0]

    def test_engine_level_split_recorded(self):
        bundle = make_bundle(n_train=5, seed=31)
        result = train(bundle.train, SMALL_MODEL, small_train_config(max_epochs=1), FD001)
        all_ids = sorted(result.train_unit_ids + result.val_unit_ids)
        assert all_ids == [t.unit_id for t in bundle.train]
        assert len(result.val_unit_ids) == 1

    def test_deterministic_reports_and_params(self):
        bundle = make_bundle(n_train=4, seed=32)
        config = small_train_config(max_epochs=3, seed=9)
        a = train(bundle.train, SMALL_MODEL, config, FD001)
        b = train(bundle.train, SMALL_MODEL, config, FD001)
        assert a.report == b.report
        for pa, pb in zip(a.model.params(), b.model.params()):
            np.testing.assert_array_equal(pa.value, pb.value)

    @staticmethod
    def returned_model_val_rmse(result, bundle, config) -> float:
        by_id = {t.unit_id: t for t in bundle.train}
        val_bank = build_window_bank(
            [by_id[u] for u in result.val_unit_ids],
            result.scaler,
            FD001,
            config.label_policy,
            SMALL_MODEL.window,
        )
        pred = predict_windows(result.model, val_bank)
        return float(np.sqrt(np.mean((pred - val_bank.labels) ** 2)))

    def test_best_epoch_is_argmin_and_restored(self):
        bundle = make_bundle(n_train=4, seed=33)
        config = small_train_config(max_epochs=6, lr_initial=1e-3)
        result = train(bundle.train, SMALL_MODEL, config, FD001)
        report = result.report
        best = report.best_epoch
        assert report.val_rmse[best - 1] == min(report.val_rmse)
        # returned parameters reproduce the best epoch's validation RMSE
        recomputed = self.returned_model_val_rmse(result, bundle, config)
        assert recomputed == pytest.approx(report.val_rmse[best - 1], abs=1e-12)

    def test_earlier_best_epoch_is_restored(self):
        bundle = make_bundle(n_train=4, seed=33)
        config = small_train_config(max_epochs=8, lr_initial=1e-2, patience=3)
        result = train(bundle.train, SMALL_MODEL, config, FD001)
        report = result.report
        # the last epochs moved the weights away from the best ones
        assert report.best_epoch < report.n_epochs
        recomputed = self.returned_model_val_rmse(result, bundle, config)
        assert recomputed == report.val_rmse[report.best_epoch - 1]

    def test_learns_more_than_the_mean(self):
        # windows or labels that slipped against each other leave nothing to
        # learn, which the gradient checks and the overfit test cannot see
        bundle = make_bundle(n_train=8, n_test=1, seed=40)
        model_config = ModelConfig(
            window=16, n_features=15, conv_channels=conv_channels_for_depth(1)
        )
        config = small_train_config(max_epochs=5, lr_initial=3e-3)
        result = train(bundle.train, model_config, config, FD001)
        by_id = {t.unit_id: t for t in bundle.train}
        val_bank = build_window_bank(
            [by_id[u] for u in result.val_unit_ids],
            result.scaler,
            FD001,
            config.label_policy,
            model_config.window,
        )
        # the best constant on these windows is their mean, off by their std
        mean_rmse = float(np.std(val_bank.labels))
        assert min(result.report.val_rmse) < 0.5 * mean_rmse

    def test_patience_stop(self):
        bundle = make_bundle(n_train=4, seed=34)
        config = small_train_config(max_epochs=40, patience=1, lr_initial=1e-3)
        result = train(bundle.train, SMALL_MODEL, config, FD001)
        report = result.report
        if report.stop_reason == "patience":
            assert report.n_epochs < 40
            assert report.val_rmse[-1] >= min(report.val_rmse)
        else:
            assert report.n_epochs == 40

    def test_max_epoch_stop(self):
        bundle = make_bundle(n_train=4, seed=35)
        result = train(bundle.train, SMALL_MODEL, small_train_config(max_epochs=2), FD001)
        assert result.report.stop_reason == "max_epochs"
        assert result.report.n_epochs == 2

    def test_selection_mismatch_rejected(self):
        bundle = make_bundle(n_train=3, seed=36)
        config = small_train_config(max_epochs=1)
        model = ModelConfig(window=8, n_features=24, conv_channels=(4, 8))
        with pytest.raises(ValueError, match="selection has 15"):
            train(bundle.train, model, config, FD001)

    def test_non_finite_loss_aborts_naming_batch(self):
        bundle = make_bundle(n_train=3, seed=37)
        config = small_train_config(max_epochs=1, lr_initial=1e160)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match=r"epoch 1, batch \d+"):
                train(bundle.train, SMALL_MODEL, config, FD001)

    def test_nan_validation_rmse_aborts_naming_epoch(self, monkeypatch):
        bundle = make_bundle(n_train=3, seed=38)
        monkeypatch.setattr(
            training,
            "predict_windows",
            lambda model, bank: np.full(bank.n_windows, np.nan),
        )
        with pytest.raises(TrainingError, match="validation RMSE nan in epoch 1"):
            train(bundle.train, SMALL_MODEL, small_train_config(max_epochs=2), FD001)

    def test_nan_validation_rmse_exits_1(self, monkeypatch, synth_data_dir, tmp_path, capsys):
        monkeypatch.setattr(
            training,
            "predict_windows",
            lambda model, bank: np.full(bank.n_windows, np.nan),
        )
        code = cli.main([
            "train", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--window", "8", "--depth", "2", "--epochs", "2", "--batch", "16",
        ])
        assert code == 1
        assert "validation RMSE nan in epoch 1" in capsys.readouterr().err
