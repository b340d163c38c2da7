"""A keyless node loads only the device half of the split (Sec. V-C).

A cluster node is the untrusted memory party: it never receives a key.
This pins that it does not load the code that could use one either.  A
fresh interpreter imports only ``repro.cluster.node``, answers one
``shard_assign`` and one ``partial_sum`` through ``NodeServer``'s
request handler, and reports the ``repro.*`` modules it loaded.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import repro
from repro.cluster import codec
from repro.core.device import UntrustedNdpDevice
from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor
from repro.serve.protocol import STATUS_OK, NodeRequest

#: The trusted side: pads, tags, verification and the cipher behind them.
TRUSTED = {
    "repro.core.protocol",
    "repro.core.encryption",
    "repro.core.checksum",
    "repro.core.mac",
    "repro.core.versions",
    "repro.core.oracles",
    "repro.crypto.otp",
    "repro.crypto.tweaked",
}

#: Subpackages a node has no use for.
UNRELATED = {"analysis", "baselines", "harness", "memsim", "ndp", "parallel", "workloads"}

# ``repro.crypto.aes`` may load: ``SecNDPParams.block_bits`` reads its
# ``BLOCK_BYTES``, and the cc kernel tier builds its compiled library
# from its S-box.  Neither needs a key, and the node never receives one.

CHILD = """
import json, sys
from repro.cluster.node import NodeServer
from repro.serve.protocol import NodeRequest

node = NodeServer("n0")
answers = [node._reply(NodeRequest.from_wire(wire)) for wire in json.load(sys.stdin)]
print(json.dumps({
    "status": [answer.status for answer in answers],
    "sums": answers[-1].payload.get("sums"),
    "modules": sorted(name for name in sys.modules if name.startswith("repro")),
}))
"""


def test_a_node_imports_no_trusted_module():
    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(bytes(range(16)), params)
    table = np.arange(8 * 16, dtype=np.uint32).reshape(8, 16)
    enc = processor.encrypt_matrix(table, base_addr=0x1000, region="emb")
    batch_rows, batch_weights = [[1, 2], [7]], [[1, 3], [2]]
    wires = [
        NodeRequest(
            id=1,
            op="shard_assign",
            payload={
                "params": codec.encode_params(params),
                "tables": {"emb": codec.encode_table(enc)},
                "ranges": {"emb": [0, 8]},
            },
        ).to_wire(),
        NodeRequest(
            id=2,
            op="partial_sum",
            table="emb",
            payload=codec.encode_queries(batch_rows, batch_weights),
        ).to_wire(),
    ]
    src = str(pathlib.Path(repro.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(wires),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    report = json.loads(out.stdout)

    assert report["status"] == [STATUS_OK, STATUS_OK]
    # The node really served: its sums are the in-process device's.
    device = UntrustedNdpDevice(params)
    device.store("emb", enc)
    want = device.partial_sum_batch("emb", batch_rows, batch_weights)
    got = codec.decode_device_sums(report["sums"], params)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))

    modules = set(report["modules"])
    assert "repro.core.device" in modules
    assert not modules & TRUSTED, sorted(modules & TRUSTED)
    subpackages = {name.split(".")[1] for name in modules if name != "repro"}
    assert not subpackages & UNRELATED, sorted(subpackages & UNRELATED)
