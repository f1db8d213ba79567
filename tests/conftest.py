"""Shared fixtures for the test suite.

The fixtures deliberately use *small* networks and memories so that the whole
suite (including the explicit write-by-write simulations used to validate the
fast aging engine) runs in well under a minute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.scheduler import WeightStreamScheduler
from repro.accelerator.tpu import TpuLikeNpu
from repro.memory.geometry import MemoryGeometry
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from repro.nn.models import build_model, custom_mnist_cnn, lenet5
from repro.nn.network import Network
from repro.nn.weights import attach_synthetic_weights


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the orchestration result cache at a per-test directory.

    Keeps CLI invocations inside tests from reading/writing the developer's
    ``~/.cache/dnn-life`` and from leaking cached results between tests.
    The stream store lives under the cache dir by default, so it is isolated
    by the same variable.
    """
    monkeypatch.setenv("DNN_LIFE_CACHE_DIR", str(tmp_path / "dnn-life-cache"))


@pytest.fixture(autouse=True)
def _restore_stream_store_env():
    """Undo ``DNN_LIFE_STREAM_STORE`` mutations after each test.

    ``dnn-life --stream-store/--no-stream-store`` exports the variable into
    ``os.environ`` on purpose (worker processes must inherit it), which would
    otherwise leak between tests that invoke the CLI.
    """
    import os

    saved = os.environ.get("DNN_LIFE_STREAM_STORE")
    yield
    if saved is None:
        os.environ.pop("DNN_LIFE_STREAM_STORE", None)
    else:
        os.environ["DNN_LIFE_STREAM_STORE"] = saved


@pytest.fixture
def pack_calls(monkeypatch):
    """Start recording the streams ``PackedBitTensor.from_stream`` packs.

    Calling the fixture installs the recorder and returns the (live) list.
    """
    from repro.accelerator.scheduler import PackedBitTensor

    def install():
        calls = []
        original = PackedBitTensor.from_stream.__func__
        monkeypatch.setattr(PackedBitTensor, "from_stream", classmethod(
            lambda cls, stream: calls.append(stream) or original(cls, stream)))
        return calls

    return install


@pytest.fixture
def ranking_paths(monkeypatch):
    """Record the path of every wear_swap ranking: ``"int"`` or ``"ratio"``.

    Returns the (live) list; ``"int"`` is a ranking on the uint16 ones
    counts, ``"ratio"`` one on the float mean-duty fallback.
    """
    from repro.leveling.policies import WearSwapLeveler

    paths = []
    original = WearSwapLeveler._ranking_keys

    def recording(self, row_ones, row_hold):
        keys = original(self, row_ones, row_hold)
        paths.append("int" if keys.dtype == np.uint16 else "ratio")
        return keys

    monkeypatch.setattr(WearSwapLeveler, "_ranking_keys", recording)
    return paths


@pytest.fixture
def rng():
    """A seeded random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_network():
    """A very small CNN with deterministic synthetic weights.

    Two convolutions and two fully-connected layers, ~3.5k weights: small
    enough for explicit write-by-write simulation, large enough to exercise
    the filter-set / tiling machinery with more than one block.
    """
    layers = [
        Conv2d(name="conv1", out_channels=4, in_channels=1, kernel_size=(3, 3)),
        ReLU(name="relu1"),
        MaxPool2d(name="pool1", kernel_size=2, stride=2),
        Conv2d(name="conv2", out_channels=8, in_channels=4, kernel_size=(3, 3)),
        ReLU(name="relu2"),
        Flatten(name="flatten"),
        Linear(name="fc1", out_features=16, in_features=8 * 11 * 11),
        ReLU(name="relu3"),
        Linear(name="fc2", out_features=4, in_features=16),
        Softmax(name="softmax"),
    ]
    network = Network(name="tiny_cnn", layers=layers, input_shape=(1, 28, 28), dataset="unit-test")
    return attach_synthetic_weights(network, seed=7)


@pytest.fixture
def mnist_network():
    """The paper's custom MNIST network with synthetic weights."""
    return attach_synthetic_weights(custom_mnist_cnn(), seed=0)


@pytest.fixture
def lenet_network():
    """LeNet-5 with synthetic weights."""
    return attach_synthetic_weights(lenet5(), seed=3)


@pytest.fixture
def tiny_accelerator_config():
    """A scaled-down accelerator (2 KB weight memory, 4 PEs x 4 multipliers)."""
    return AcceleratorConfig(
        name="tiny",
        weight_memory_bytes=2048,
        activation_memory_bytes=16 * 1024,
        num_pes=4,
        multipliers_per_pe=4,
        weight_fifo_depth_tiles=1,
    )


@pytest.fixture
def tiny_fifo_config():
    """A scaled-down FIFO-organised accelerator (4 tiles of 512 bytes)."""
    return AcceleratorConfig(
        name="tiny_fifo",
        weight_memory_bytes=2048,
        activation_memory_bytes=16 * 1024,
        num_pes=4,
        multipliers_per_pe=4,
        weight_fifo_depth_tiles=4,
    )


@pytest.fixture
def tiny_accelerator(tiny_accelerator_config):
    """Baseline-style accelerator with the tiny configuration."""
    return BaselineAccelerator(config=tiny_accelerator_config)


@pytest.fixture
def tiny_fifo_accelerator(tiny_fifo_config):
    """TPU-style accelerator with the tiny FIFO configuration."""
    return TpuLikeNpu(config=tiny_fifo_config)


@pytest.fixture
def tiny_scheduler(tiny_network, tiny_accelerator):
    """Weight-stream scheduler of the tiny network on the tiny accelerator."""
    return tiny_accelerator.build_scheduler(tiny_network, "int8_symmetric")


@pytest.fixture
def tiny_fp32_scheduler(tiny_network, tiny_accelerator):
    """Same workload but with 32-bit floating-point weights."""
    return tiny_accelerator.build_scheduler(tiny_network, "float32")


@pytest.fixture
def tiny_fifo_scheduler(tiny_network, tiny_fifo_accelerator):
    """Tiny workload on the FIFO-organised accelerator."""
    return tiny_fifo_accelerator.build_scheduler(tiny_network, "int8_symmetric")


@pytest.fixture
def small_geometry():
    """A 64-row, 8-bit weight memory (512 cells)."""
    return MemoryGeometry(capacity_bytes=64, word_bits=8)


@pytest.fixture(scope="session")
def alexnet_model():
    """AlexNet architecture (no weights attached) — session scoped, it is cheap."""
    return build_model("alexnet")
