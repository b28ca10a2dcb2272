"""Kernel checks against brute force and the oracles, on every lane present.

The pure lane is always tested; the compiled lane joins when its extension
is built. Lane-against-lane agreement lives in test_kernel_parity.py.
"""

import numpy as np
import pytest

from oracles import naive_reconstruction
from xferkit._kernels import pure

try:
    from xferkit._kernels import _ext
except ImportError:
    _ext = None

LANES = [pytest.param(pure, id="pure")]
if _ext is not None:
    LANES.append(pytest.param(_ext, id="compiled"))


@pytest.fixture(params=LANES)
def lane(request):
    return request.param


def serpentine(h, w, rng):
    """One-pixel corridor winding through the image: every even row, joined
    at alternating ends through the odd rows; zero walls elsewhere. Returns
    (marker, mask) with the marker high only at the corridor's start."""
    mask = np.zeros((h, w), dtype=np.float32)
    mask[0::2] = rng.uniform(5, 10, mask[0::2].shape)
    for k, y in enumerate(range(1, h - 1, 2)):
        x = w - 1 if k % 2 == 0 else 0
        mask[y, x] = rng.uniform(5, 10)
    marker = np.zeros_like(mask)
    marker[0, 0] = mask[0, 0]
    return marker, mask


def test_erode_matches_brute_force(lane, rng):
    img = rng.uniform(0, 10, (11, 13)).astype(np.float32)
    size, r = 5, 2
    expect = np.empty_like(img)
    for y in range(11):
        for x in range(13):
            expect[y, x] = img[max(0, y - r):y + r + 1,
                               max(0, x - r):x + r + 1].min()
    np.testing.assert_array_equal(lane.grey_erode_square(img, size), expect)


def test_reconstruction_rejects_bad_marker(lane):
    mask = np.zeros((3, 3), dtype=np.float32)
    marker = np.ones((3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="marker"):
        lane.reconstruct_dilation(marker, mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (13, 29), (64, 64)])
def test_reconstruction_matches_oracle_random(lane, shape, rng):
    for _ in range(5):
        mask = rng.uniform(0, 30, shape).astype(np.float32)
        marker = np.minimum(mask, rng.uniform(0, 30, shape).astype(np.float32))
        got = lane.reconstruct_dilation(marker, mask)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))


@pytest.mark.parametrize("shape", [(9, 9), (20, 37)])
def test_reconstruction_matches_oracle_plateaus(lane, shape, rng):
    # few distinct levels: wide plateaus, and ties between marker and mask
    for _ in range(5):
        mask = rng.integers(0, 4, shape).astype(np.float32)
        marker = np.where(rng.uniform(size=shape) < 0.1, mask, 0).astype(np.float32)
        got = lane.reconstruct_dilation(marker, mask)
        np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))


@pytest.mark.parametrize("shape", [(31, 33), (32, 2), (2, 32)])
def test_reconstruction_matches_oracle_serpentine(lane, shape, rng):
    marker, mask = serpentine(*shape, rng)
    got = lane.reconstruct_dilation(marker, mask)
    np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))
    # the marker's value reaches the far end of the corridor: corridor k
    # (row 2k) runs left to right when k is even
    last = (shape[0] - 1) // 2 * 2
    assert got[last, shape[1] - 1 if (last // 2) % 2 == 0 else 0] > 0

