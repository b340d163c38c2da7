"""Baselines the paper compares against: non-NDP and SGX.  Unprotected NDP is
:class:`~repro.ndp.simulator.NdpSimulator` with no engine, and Table V's
non-NDP Enc row comes from :mod:`repro.analysis.energy`."""

from .non_ndp import NonNdpResult, run_non_ndp
from .sgx import SGX_CFL, SGX_ICL, SgxMachine, sgx_slowdown

__all__ = [
    "NonNdpResult",
    "run_non_ndp",
    "SGX_CFL",
    "SGX_ICL",
    "SgxMachine",
    "sgx_slowdown",
]
