"""The pinned SeededRng stream: every awgn draw and every seeded benchmark
scene comes from it, so a change to any of its draws moves recorded scores."""

import numpy as np
import pytest

from stereoqa.errors import ParamError
from stereoqa.rng import SeededRng

# first raw output, uniform(2) and normals(3) of a fresh stream
FIRST_DRAWS = {
    0: (0xE220A8397B1DCDAF, [0.8833108082136427, 0.4315279970485101],
        [-0.45275774021745807, 0.20776603893419174, 2.650605812079669]),
    1: (0x910A2DEC89025CC1, [0.566561575172281, 0.7457817572627012],
        [-0.028249746095854695, -1.065617648414326, -0.22791952286763478]),
    2**64 - 1: (0xE4D971771B652C20, [0.8939429202831846, 0.9125972035944533],
                [0.40389817104420844, -0.2471699298802173, -1.5578114857296328]),
}


@pytest.mark.parametrize("seed", FIRST_DRAWS)
def test_first_draws_are_pinned(seed):
    raw, uniform, normals = FIRST_DRAWS[seed]
    # seeds 0 and 1 give the published first SplitMix64 outputs
    assert int(SeededRng(seed).next_u64()[0]) == raw
    assert SeededRng(seed).uniform(2).tolist() == uniform
    assert SeededRng(seed).normals(3).tolist() == normals


@pytest.mark.parametrize("seed", FIRST_DRAWS)
def test_uniform_is_the_top_53_bits_plus_one(seed):
    raw = SeededRng(seed).next_u64()[0]
    assert SeededRng(seed).uniform()[0] == ((int(raw) >> 11) + 1) * 2.0**-53


@pytest.mark.parametrize("seed", FIRST_DRAWS)
def test_spare_normal_carries_over_to_the_next_call(seed):
    rng = SeededRng(seed)
    split = np.concatenate([rng.normals(3), rng.normals(1)])
    assert split.tolist() == SeededRng(seed).normals(4).tolist()


def test_normals_scale_and_shift_the_standard_draws():
    standard = SeededRng(5).normals(4)
    assert SeededRng(5).normals(4, mu=2.0, sigma=3.0).tolist() == (2.0 + 3.0 * standard).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seed_outside_the_64_bit_range_raises(seed):
    with pytest.raises(ParamError):
        SeededRng(seed)


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform(-1), lambda rng: rng.next_u64(-1), lambda rng: rng.normals(-1),
    lambda rng: rng.normals(1.5), lambda rng: rng.uniform(2.0), lambda rng: rng.normals(True),
], ids=["uniform-negative", "next_u64-negative", "normals-negative", "normals-float",
        "uniform-float", "normals-bool"])
def test_draw_count_must_be_a_non_negative_integer(draw):
    """A bad count raises before it moves the stream: uniform(-1) stepped it
    back, so that the next draw repeated the one before."""
    rng = SeededRng(7)
    rng.uniform(2)
    with pytest.raises(ParamError, match="n must be"):
        draw(rng)
    assert rng.uniform(1)[0] == SeededRng(7).uniform(3)[2]
