"""Spawn local NDP node processes (the 3-node example / CI smoke path).

:class:`LocalCluster` starts N real OS processes (``spawn`` context, so
no inherited locks or state), each running one
:class:`~repro.cluster.node.NodeServer` on an ephemeral port.  Ports
travel back over a pipe, so callers never race a bind; ``repro node``
serves the same way in the foreground and prints its port.  For tests
that want everything on one event loop, in-process
:class:`NodeServer`\\ s (``async with NodeServer(...)``) are the better
transport; this module is for the CLI and CI, where separate processes
are the point — killing one is a *real* node death.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
from typing import List, Tuple

from ..errors import ConfigurationError

__all__ = ["LocalCluster", "run_node_process"]


async def _serve_node(name: str, host: str, port: int, report) -> None:
    """Serve one node until it stops; ``report(server)`` once it listens."""
    from .node import NodeServer

    server = await NodeServer(name, host=host, port=port).start()
    report(server)
    await server.wait_closed()
    await server.close()


def _node_main(name: str, host: str, conn) -> None:
    """Child entry: the port travels back over ``conn``."""

    def report(server) -> None:
        conn.send(server.port)
        conn.close()

    asyncio.run(_serve_node(name, host, 0, report))


def run_node_process(
    name: str, host: str = "127.0.0.1", port: int = 0
) -> None:
    """Blocking node entry for ``python -m repro node`` (foreground)."""
    asyncio.run(_serve_node(
        name, host, port,
        lambda server: print(f"node {name} listening on {server.host}:{server.port}"),
    ))


class LocalCluster:
    """N node processes on localhost; a context manager owning their lifetime.

    ::

        with LocalCluster(3) as nodes:        # [(name, host, port), ...]
            coordinator = ClusterCoordinator(store, nodes)
            ...

    ``kill(name)`` hard-kills one child (SIGKILL — a dead host, not a
    graceful drain), which is exactly what the CI smoke job does
    mid-run.
    """

    def __init__(self, n_nodes: int, host: str = "127.0.0.1"):
        if n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        self.n_nodes = int(n_nodes)
        self.host = host
        self._procs: List[mp.process.BaseProcess] = []
        self.nodes: List[Tuple[str, str, int]] = []

    def start(self) -> List[Tuple[str, str, int]]:
        if self._procs:
            return self.nodes
        ctx = mp.get_context("spawn")
        for i in range(self.n_nodes):
            name = f"node{i}"
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_node_main, args=(name, self.host, child), daemon=True
            )
            proc.start()
            child.close()
            if not parent.poll(30.0):
                self.close()
                raise ConfigurationError(f"node {name} failed to report a port")
            port = int(parent.recv())
            parent.close()
            self._procs.append(proc)
            self.nodes.append((name, self.host, port))
        return self.nodes

    def kill(self, name: str) -> None:
        """SIGKILL one node process (simulated host death)."""
        for (node, _host, _port), proc in zip(self.nodes, self._procs):
            if node == name and proc.is_alive():
                proc.kill()
                proc.join(timeout=10.0)
                return

    def close(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=5.0)
        self._procs = []
        self.nodes = []

    def __enter__(self) -> List[Tuple[str, str, int]]:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
