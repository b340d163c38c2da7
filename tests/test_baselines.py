"""Baselines: non-NDP and SGX models, and plain NDP against non-NDP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    SGX_CFL,
    SGX_ICL,
    SgxMachine,
    run_non_ndp,
    sgx_slowdown,
)
from repro.errors import ConfigurationError
from repro.ndp import (
    AesEngineModel,
    NdpConfig,
    NdpSimulator,
    NdpWorkload,
    SimQuery,
    TableGeometry,
)


def make_workload(n_queries=8, pf=40, seed=0, row_bytes=128):
    rng = np.random.default_rng(seed)
    tables = {0: TableGeometry(50_000, row_bytes, 128)}
    queries = tuple(
        SimQuery(0, tuple(int(x) for x in rng.integers(0, 50_000, size=pf)))
        for _ in range(n_queries)
    )
    return NdpWorkload(tables=tables, queries=queries)


@pytest.fixture(scope="module")
def workload():
    return make_workload()


class TestNonNdp:
    def test_line_accounting(self, workload):
        res = run_non_ndp(workload)
        assert res.total_lines == 8 * 40 * 2  # 128-byte rows = 2 lines
        assert res.total_bytes_on_bus == res.total_lines * 64

    def test_extra_bytes_increase_traffic_and_time(self, workload):
        base = run_non_ndp(workload)
        mac = run_non_ndp(workload, extra_bytes_per_row=8)
        assert mac.total_lines >= base.total_lines
        assert mac.total_ns >= base.total_ns * 0.98

    def test_time_positive_and_bandwidth_sane(self, workload):
        res = run_non_ndp(workload)
        gbps = res.total_bytes_on_bus / res.total_ns
        assert 1.0 < gbps < 19.2  # below DDR4-2400 channel peak

    def test_page_seed_changes_timing_slightly(self, workload):
        a = run_non_ndp(workload, page_seed=0).total_ns
        b = run_non_ndp(workload, page_seed=1).total_ns
        assert a != b
        assert abs(a - b) / a < 0.2


class TestNdpVsNonNdp:
    def test_eight_rank_ndp_beats_cpu(self, workload):
        base = run_non_ndp(workload)
        ndp = NdpSimulator(NdpConfig(ndp_ranks=8, ndp_regs=8)).run(workload)
        assert base.total_ns / ndp.ndp_only_ns > 2.0


class TestPadsAgainstTheChannel:
    """Counter-mode pads for the lines the channel carries: one AES engine
    nearly keeps up with one DDR4-2400 channel, which is why a
    conventional secure processor needs so few engines while SecNDP (eight
    ranks of internal bandwidth) needs about ten (Sec. VII-C)."""

    @staticmethod
    def pad_ns(workload, aes):
        res = run_non_ndp(workload, extra_bytes_per_row=8)  # one MAC per row
        return res.total_ns, aes.otp_time_ns(aes.blocks_for_bytes(res.total_bytes_on_bus))

    def test_one_engine_nearly_matches_channel(self, workload):
        memory_ns, otp_ns = self.pad_ns(workload, AesEngineModel(1))
        assert 0.5 * memory_ns < otp_ns

    def test_decryption_bound_with_slow_engine(self, workload):
        memory_ns, otp_ns = self.pad_ns(workload, AesEngineModel(1, block_ns=5.0))
        assert otp_ns > memory_ns

    def test_memory_bound_with_many_engines(self, workload):
        memory_ns, otp_ns = self.pad_ns(workload, AesEngineModel(16))
        assert otp_ns < memory_ns


class TestSgxModel:
    def test_within_epc_mee_factor(self):
        ns = sgx_slowdown(SGX_CFL, 10 << 20, 1 << 20, baseline_ns=1000.0)
        assert ns == pytest.approx(1000.0 * SGX_CFL.mee_bandwidth_factor)

    def test_oversubscribed_epc_pays_paging(self):
        inside = sgx_slowdown(SGX_CFL, 100 << 20, 10 << 20, 1e6)
        outside = sgx_slowdown(SGX_CFL, 1 << 30, 10 << 20, 1e6)
        assert outside > inside * 10

    def test_paging_grows_with_working_set(self):
        a = sgx_slowdown(SGX_CFL, 256 << 20, 10 << 20, 1e6)
        b = sgx_slowdown(SGX_CFL, 8 << 30, 10 << 20, 1e6)
        assert b > a

    def test_icl_has_no_paging_cliff(self):
        # ICL (no integrity tree): same factor either side of CFL's EPC size.
        small = sgx_slowdown(SGX_ICL, 100 << 20, 10 << 20, 1e6)
        large = sgx_slowdown(SGX_ICL, 8 << 30, 10 << 20, 1e6)
        assert small == large == pytest.approx(1e6 * SGX_ICL.mee_bandwidth_factor)

    def test_icl_milder_than_cfl(self):
        assert SGX_ICL.mee_bandwidth_factor < SGX_CFL.mee_bandwidth_factor

    def test_paper_machine_parameters(self):
        assert SGX_CFL.epc_bytes == 168 << 20
        assert SGX_CFL.has_integrity_tree
        assert SGX_ICL.epc_bytes == 96 << 30
        assert not SGX_ICL.has_integrity_tree

    def test_invalid_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            SgxMachine("bad", 0, True, 2.0, 1.0)
