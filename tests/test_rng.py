"""SplitMix64 against its published reference outputs."""

from astower.rng import SplitMix64


def test_splitmix64_seed_0_gives_the_reference_outputs():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
