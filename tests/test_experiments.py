"""Experiment drivers at smoke scale: every table/figure shape claim.

These are the integration tests for DESIGN.md's experiment index - each
test asserts the *relationships* the paper reports (who wins, by roughly
what factor, where crossovers fall), not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.harness import SMOKE_SCALE
from repro.harness.experiments import (
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_table3,
    run_table5,
)


@pytest.fixture(scope="module")
def table3():
    return run_table3(SMOKE_SCALE)


@pytest.fixture(scope="module")
def figure7():
    return run_figure7(SMOKE_SCALE, settings=[(2, 2), (8, 8)], aes_sweep=[1, 4, 12])


@pytest.fixture(scope="module")
def figure8():
    return run_figure8(SMOKE_SCALE, ranks=[2, 8], aes_sweep=[1, 4, 12])


@pytest.fixture(scope="module")
def figure9():
    return run_figure9(SMOKE_SCALE)


@pytest.fixture(scope="module")
def figure10():
    return run_figure10(SMOKE_SCALE, aes_sweep=[2, 8, 16])


@pytest.fixture(scope="module")
def figure11():
    return run_figure11(SMOKE_SCALE, models=["RMC1-small"])


class TestTable3:
    def test_ndp_beats_baseline_everywhere(self, table3):
        for col, v in table3.speedups["unprotected NDP"].items():
            assert v > 1.2, col

    def test_secndp_close_to_unprotected_ndp(self, table3):
        # At smoke scale the fixed enclave/offload overhead is poorly
        # amortised (4-sample batches), so the band is generous; the
        # default-scale benchmark asserts the tight 0.7x band.
        for col in table3.columns:
            ndp = table3.speedups["unprotected NDP"][col]
            sec = table3.speedups["SecNDP"][col]
            assert sec > 0.45 * ndp, col

    def test_speedup_grows_with_model_size(self, table3):
        ndp = table3.speedups["unprotected NDP"]
        assert ndp["RMC1-small"] < ndp["RMC2-large"]

    def test_analytics_highest_speedup(self, table3):
        ndp = table3.speedups["unprotected NDP"]
        assert ndp["Data Analytics"] == max(v for v in ndp.values())

    def test_sgx_cfl_orders_of_magnitude_slower(self, table3):
        assert table3.speedups["SGX-CFL"]["RMC1-small"] < 0.05
        assert table3.speedups["SGX-CFL"]["Data Analytics"] < 0.5

    def test_sgx_icl_below_one(self, table3):
        for col in ("RMC1-small", "RMC1-large", "Data Analytics"):
            assert 0.3 < table3.speedups["SGX-ICL (no int. tree)"][col] < 1.0

    def test_rmc2_sgx_not_available(self, table3):
        assert table3.speedups["SGX-CFL"]["RMC2-small"] is None
        assert table3.speedups["SGX-ICL (no int. tree)"]["RMC2-large"] is None

    def test_render(self, table3):
        out = table3.render()
        assert "SecNDP" in out and "N/A" in out


class TestFigure7:
    def test_secndp_monotone_in_engines(self, figure7):
        for family in figure7.speedups.values():
            for entry in family.values():
                series = [entry[f"SecNDP-Enc({n} AES)"] for n in (1, 4, 12)]
                assert series == sorted(series)

    def test_secndp_saturates_at_ndp(self, figure7):
        for family in figure7.speedups.values():
            for entry in family.values():
                assert entry["SecNDP-Enc(12 AES)"] == pytest.approx(
                    entry["NDP"], rel=0.05
                )

    def test_more_ranks_higher_ndp_speedup(self, figure7):
        for family in figure7.speedups.values():
            assert family[(8, 8)]["NDP"] > family[(2, 2)]["NDP"]

    def test_quantization_speeds_up_ndp(self, figure7):
        q = figure7.speedups["SLS 8-bit quantized"][(8, 8)]["NDP"]
        base = figure7.speedups["SLS 32-bit"][(8, 8)]["NDP"]
        assert q > base

    def test_rowwise_bars_only_in_quantized_family(self, figure7):
        assert "NDP(row_quan)" in figure7.speedups["SLS 8-bit quantized"][(8, 8)]
        assert "NDP(row_quan)" not in figure7.speedups["SLS 32-bit"][(8, 8)]

    def test_render(self, figure7):
        assert "SLS 32-bit" in figure7.render()


class TestFigure8:
    def test_fraction_decreases_with_engines(self, figure8):
        for family in figure8.fractions.values():
            for series in family.values():
                assert series == sorted(series, reverse=True)

    def test_more_ranks_need_more_engines(self, figure8):
        f = figure8.fractions["SLS 32-bit"]
        # at the middle point (4 engines) rank-8 is at least as bound as rank-2
        assert f["rank=8"][1] >= f["rank=2"][1]

    def test_quantized_needs_fewer_engines(self, figure8):
        f32 = figure8.fractions["SLS 32-bit"]["rank=8"]
        f8 = figure8.fractions["SLS 8-bit quantized"]["rank=8"]
        assert sum(f8) <= sum(f32)

    def test_render(self, figure8):
        assert "%" in figure8.render()

    def test_render_states_the_analytic_burst_mode_engines(self, figure8):
        assert "analytic burst-mode AES engines (Sec. VII-A): rank=2: 3, rank=8: 12" in (
            figure8.render()
        )


class TestFigure9:
    def test_scheme_ordering_32bit(self, figure9):
        s = figure9.speedups["SLS 32-bit"]
        assert s["ver_ecc"] == pytest.approx(s["enc_only"], rel=0.05)
        assert s["enc_only"] >= s["ver_coloc"] > s["ver_sep"]

    def test_ver_ecc_na_for_quantized(self, figure9):
        assert figure9.speedups["SLS 8-bit quantized"]["ver_ecc"] is None

    def test_analytics_verification_overhead_small(self, figure9):
        s = figure9.speedups["Data analytics"]
        assert s["ver_coloc"] > 0.9 * s["enc_only"]
        assert s["ver_sep"] > 0.9 * s["enc_only"]

    def test_render_contains_na(self, figure9):
        assert "N/A" in figure9.render()


class TestFigure10:
    def test_ver_ecc_more_decryption_bound_than_enc_only(self, figure10):
        f = figure10.fractions["SLS 32-bit"]
        assert sum(f["ver_ecc"]) >= sum(f["enc_only"])

    def test_fractions_monotone(self, figure10):
        for family in figure10.fractions.values():
            for series in family.values():
                assert series == sorted(series, reverse=True)


class TestFigure11:
    def test_speedup_grows_with_batch(self, figure11):
        series = figure11.speedup_vs_batch["RMC1-small"]
        assert series[0] < series[-1]

    def test_sgx_flat_across_batches(self, figure11):
        series = figure11.sgx_icl_vs_batch["RMC1-small"]
        assert max(series) - min(series) < 0.15

    def test_secndp_beats_sgx_at_every_batch(self, figure11):
        sec = figure11.speedup_vs_batch["RMC1-small"]
        sgx = figure11.sgx_icl_vs_batch["RMC1-small"]
        assert all(a > b for a, b in zip(sec, sgx))

    def test_breakdown_sums_consistent(self, figure11):
        b = figure11.breakdown["RMC1-small"]
        assert all(v > 0 for v in b.values())


class TestTable5:
    def test_runs_and_renders(self):
        res = run_table5(SMOKE_SCALE)
        out = res.render()
        assert "SecNDP Enc+ver" in out
        assert res.measured_io_ratio is not None
        # Non-NDP moves strictly more bus traffic than NDP result lines.
        assert res.measured_io_ratio > 1.5
        assert "SecNDP engine area (Sec. VII-C): 1.625 mm^2 at 45 nm with 10 AES engines" in out
