import numpy as np
import pytest

from legarray.images import GrayImage, read_pgm, write_pgm


def random_image(rng, h, w):
    return GrayImage(rng.integers(0, 256, size=(h, w)).astype(np.uint8))


class TestGrayImage:
    def test_dimensions(self):
        img = GrayImage(np.zeros((3, 5), dtype=np.uint8))
        assert (img.width, img.height) == (5, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((3,), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage([[256]])
        with pytest.raises(ValueError):
            GrayImage([[-1]])


class TestPgm:
    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, w = (int(x) for x in rng.integers(1, 40, size=2))
            img = random_image(rng, h, w)
            assert read_pgm(write_pgm(img)) == img

    def test_one_pixel(self):
        img = read_pgm(b"P5\n1 1\n255\n\x00")
        assert img.pixels.tolist() == [[0]]

    def test_p2_and_p5_parse_identically(self):
        rng = np.random.default_rng(9)
        img = random_image(rng, 4, 6)
        p5 = write_pgm(img)
        body = " ".join(str(int(v)) for v in img.pixels.reshape(-1))
        p2 = f"P2\n6 4\n255\n{body}\n".encode("ascii")
        assert read_pgm(p2) == read_pgm(p5)

    def test_comments_tolerated_on_read_absent_on_write(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n\xff\x01"
        img = read_pgm(data)
        assert img.pixels.tolist() == [[255, 1]]
        assert b"#" not in write_pgm(img)

    def test_raster_may_contain_byte_that_looks_like_comment(self):
        img = GrayImage(np.full((1, 2), ord("#"), dtype=np.uint8))
        assert read_pgm(write_pgm(img)) == img

    def test_trailing_bytes_ignored(self):
        img = random_image(np.random.default_rng(11), 3, 4)
        assert read_pgm(write_pgm(img) + b"\x00trailer\n") == img

    @pytest.mark.parametrize("missing", [1, 12])
    def test_truncated_raster_message(self, missing):
        data = write_pgm(random_image(np.random.default_rng(13), 3, 4))
        with pytest.raises(ValueError, match=f"^expected 12 raster bytes, got {12 - missing}$"):
            read_pgm(data[:-missing])

    @pytest.mark.parametrize(
        "data",
        [
            b"P6\n1 1\n255\n\x00",          # unsupported magic
            b"P5\n1 1\n65535\n\x00\x00",    # unsupported maxval
            b"P5\n2 2\n255\n\x00",          # truncated raster
            b"P5\n0 1\n255\n",              # zero width
            b"P5\n1 1\n255",                # missing separator
            b"P2\n1 1\n255\n300\n",         # P2 sample out of range
            b"P2\n2 1\n255\n1\n",           # P2 truncated samples
            b"P2\n1 1\n255\n99999999999999999999\n",  # P2 sample past int64
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ValueError):
            read_pgm(data)
