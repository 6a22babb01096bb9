import sys

import numpy as np
import pytest

sys.set_int_max_str_digits(2_000_000)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))


@pytest.fixture
def default_int_str_limit():
    """Run a test under Python's default int-to-str digit limit, which the
    line above lifts for everything else."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def csv_fields(rows):
    """Split into per-line fields the text that ``cli.emit`` writes for
    ``rows``: each row comma-joined, then a newline."""
    text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    *lines, last = text.split("\n")
    assert last == ""
    return [line.split(",") for line in lines]
