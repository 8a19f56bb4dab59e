"""Literal pins for every seed derivation in the library.

Each derivation feeds replayed sessions, content-addressed plan shards or
hot-cache keys, so a drift in any of them must break loudly.  The literals
were computed before the derivations were routed through
:func:`repro.util.rng.derive`; ``derive_seed`` and
``recovery_attempt_seed`` are pinned in their own suites.
"""

from repro.faults.retry import attempt_seed
from repro.plans.compile import cell_seed
from repro.util.rng import RandomStream, derive


class TestPinnedDerivations:
    def test_attempt_seed(self):
        assert attempt_seed(0, 0) == 6013673259068512692
        assert attempt_seed(12345, 1) == 7346358367456238702
        assert attempt_seed(2**64 - 1, 7) == 12550363044390756287
        assert attempt_seed(42, 99) == 13364485467666037267

    def test_cell_seed(self):
        assert cell_seed(7, {"k": 64, "n": 1024}) == 9153710755032713823
        assert (
            cell_seed(0, {"n": 4096, "k": 256, "r": 3}) == 6389661683856375007
        )

    def test_stream_label_seed(self):
        assert (
            RandomStream(0, "amp/check0").derived_seed
            == 7133556172327311731442938861183678007
        )
        assert (
            RandomStream(2**64 - 1, "tree/stage3/node17").derived_seed
            == 244193550889954081790967206153808155202
        )
        assert (
            RandomStream(-5, "").derived_seed
            == 199540486327647172389621501683619962519
        )


class TestDerive:
    def test_width(self):
        for bits in (1, 63, 64, 128, 256):
            assert 0 <= derive("width", bits, bits=bits) < 1 << bits
