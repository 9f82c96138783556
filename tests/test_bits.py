"""The bit kernel against its loop definition.

bits reads set-bit indices from per-byte tables: one look-up below 2^8,
two below 2^16, and past that one table per byte, built on first use.
image and transpose iterate it.  Each must agree with the plain loop over
bit positions on every mask below 2^17, which crosses the byte boundaries
255/256 and 65535/65536, and on seeded random masks up to 200 bits, which
need the tables of bytes 2 to 24.
"""

import random

import pytest

from mosaic_lab.bits import bits, image, transpose


def plain_bits(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def plain_image(m, images):
    out = 0
    for i in plain_bits(m):
        out |= 1 << images[i]
    return out


def plain_transpose(rows):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in plain_bits(row):
            out[j] |= 1 << i
    return out


MASKS_BELOW_2_17 = range(1 << 17)


def random_masks(count=2000, seed=32):
    rng = random.Random(seed)
    return [rng.getrandbits(rng.randint(1, 200)) for _ in range(count)] + [1 << k for k in range(200)]


def test_bits_every_mask_below_2_17():
    for m in MASKS_BELOW_2_17:
        got = bits(m)
        assert type(got) is tuple and list(got) == plain_bits(m), m


def test_bits_random_masks_up_to_200_bits():
    for m in random_masks():
        assert list(bits(m)) == plain_bits(m), m


@pytest.mark.parametrize("width", [17, 200])
def test_image_every_mask_below_2_17(width):
    """images reach bit width - 1, so the image masks cross the byte
    boundaries too."""
    images = random.Random(width).choices(range(width), k=17)
    for m in MASKS_BELOW_2_17:
        assert image(m, images) == plain_image(m, images), m


def test_image_random_masks_up_to_200_bits():
    images = random.Random(1).choices(range(300), k=200)
    for m in random_masks():
        assert image(m, images) == plain_image(m, images), m


def test_transpose_every_mask_below_2_17():
    """Each mask below 2^17 is a row of one of the 17-row matrices."""
    masks = list(MASKS_BELOW_2_17)
    for start in range(0, len(masks), 17):
        rows = masks[start:start + 17]
        rows += [0] * (17 - len(rows))
        assert transpose(rows) == plain_transpose(rows), start


def test_transpose_random_square_matrices_up_to_200_rows():
    rng = random.Random(2)
    for n in [1, 8, 9, 16, 17, 64, 65, 200]:
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert transpose(rows) == plain_transpose(rows), n
