"""Initial-encryption (ArithEnc) timing model."""

from __future__ import annotations


from repro.ndp import AesEngineModel
from repro.ndp.arith_enc import simulate_arith_enc


class TestArithEnc:
    def test_total_is_max_of_phases(self):
        res = simulate_arith_enc(256, 128, with_tags=True)
        assert res.total_ns == max(res.write_ns, res.otp_ns)

    def test_tags_add_lines_and_blocks(self):
        plain = simulate_arith_enc(256, 128, with_tags=False)
        tagged = simulate_arith_enc(256, 128, with_tags=True)
        assert tagged.total_lines > plain.total_lines
        assert tagged.otp_ns > plain.otp_ns
        assert plain.checksum_elems == 0
        assert tagged.checksum_elems == 256 * 32

    def test_write_bound_with_many_engines(self):
        res = simulate_arith_enc(512, 128, aes=AesEngineModel(16))
        assert not res.aes_bound

    def test_aes_bound_with_single_slow_engine(self):
        res = simulate_arith_enc(512, 128, aes=AesEngineModel(1, block_ns=5.0))
        assert res.aes_bound

    def test_scales_roughly_linearly(self):
        small = simulate_arith_enc(128, 128).total_ns
        large = simulate_arith_enc(1024, 128).total_ns
        assert 5 < large / small < 12

    def test_throughput_in_channel_ballpark(self):
        """Sequential writeback should run near channel bandwidth."""
        res = simulate_arith_enc(4096, 128, with_tags=False,
                                 aes=AesEngineModel(16))
        gbps = 4096 * 128 / res.write_ns
        assert 5.0 < gbps < 19.2
