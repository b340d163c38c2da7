"""Process fan-out for experiment grids - not a serving path.

:func:`parallel_map` is an order-preserving fan-out for independent
harness cells (figure/table grids), with worker-side metrics and trace
events merged back into the parent's :mod:`repro.obs` state.  Its worker
count resolves through one policy (:func:`resolve_workers`): explicit
argument, then ``SECNDP_WORKERS``, then in-process; every failure mode
degrades to the sequential path, never to an error.

An SLS batch never runs here: it runs in the serving process (the store)
or across keyless ``repro.cluster`` nodes, and no key is ever handed to
a child process (DESIGN.md Sec. 10).
"""

from .pmap import default_workers, parallel_map, resolve_workers

__all__ = ["parallel_map", "resolve_workers", "default_workers"]
