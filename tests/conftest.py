"""Shared fixtures for the SecNDP test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KEY2 = bytes.fromhex("ffeeddccbbaa99887766554433221100")


@pytest.fixture
def key() -> bytes:
    return KEY


@pytest.fixture
def params32() -> SecNDPParams:
    return SecNDPParams(element_bits=32)


@pytest.fixture
def params8() -> SecNDPParams:
    return SecNDPParams(element_bits=8)


@pytest.fixture
def processor(params32) -> SecNDPProcessor:
    return SecNDPProcessor(KEY, params32)


@pytest.fixture
def device(params32) -> UntrustedNdpDevice:
    return UntrustedNdpDevice(params32)


@pytest.fixture
def small_matrix() -> np.ndarray:
    """64x32 matrix of small positive values (overflow-safe pooling)."""
    rng = np.random.default_rng(1234)
    return rng.integers(0, 256, size=(64, 32)).astype(np.uint32)


@pytest.fixture
def stored(processor, device, small_matrix):
    """Encrypt-with-tags and store the small matrix; returns its name."""
    enc = processor.encrypt_matrix(
        small_matrix, base_addr=0x10000, region="emb", with_tags=True
    )
    device.store("emb", enc)
    return "emb"


# ---------------------------------------------------------------------------
# A test that opens a socket is marked ``closes_what_it_opens``: it collects
# its own garbage when it ends, and a transport it left unclosed (a
# ``ResourceWarning``, raised as an unraisable exception in a finalizer)
# fails that test, not whichever test happens to run at the next collection.
# ---------------------------------------------------------------------------


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "closes_what_it_opens: the test opens sockets and must close them"
    )


def pytest_collection_modifyitems(items):
    # What import and collection made stays: each of those tests' collections
    # then walks only what the run made since, not the whole heap.
    gc.collect()
    gc.freeze()
    for item in items:
        if item.get_closest_marker("closes_what_it_opens"):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


@pytest.fixture(autouse=True)
def _collect_own_garbage(request):
    yield
    if request.node.get_closest_marker("closes_what_it_opens"):
        gc.collect()
