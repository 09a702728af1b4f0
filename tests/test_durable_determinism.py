"""A bulk load is independent of the hash seed.

``DurableStore.load`` encodes, applies and logs the graph's constraints
and data triples in sorted order, not in the order of the sets that
hold them: one file loaded into two fresh directories, by two processes
under different ``PYTHONHASHSEED``s, must give the same ids, the same
checkpoint bytes and the same ``state_crc``.
"""

import os
import subprocess
import sys

_LOAD_SCRIPT = """
import hashlib, sys, tempfile
from repro.datasets import books_dataset
from repro.durability import DurableStore

graph, schema, _ = books_dataset()
with tempfile.TemporaryDirectory() as directory:
    durable = DurableStore.open(directory, sync="never")
    durable.load(graph, schema)
    path = durable.checkpoint()
    crc = durable.state_crc()
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    durable.close()
    recovered = DurableStore.open(directory)
    assert recovered.state_crc() == crc
    recovered.close()
print(crc, digest)
"""


def test_a_load_gives_one_checkpoint_under_every_hash_seed():
    source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _LOAD_SCRIPT],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )
    assert len(outputs) == 1, outputs
