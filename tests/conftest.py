import os

import pytest

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
N8_FIXTURE = os.path.join(FIXTURE_DIR, "connected_n8.g6")


@pytest.fixture(scope="session")
def n8_fixture_path():
    assert os.path.exists(N8_FIXTURE), "run scripts/make_n8_fixture.py first"
    return N8_FIXTURE


@pytest.fixture(scope="session")
def n8_fixture_variants(n8_fixture_path):
    """The n = 8 fixture's bytes as they are, and as copies of the same graphs
    whose bytes are not the lines themselves, so that a `File` reads them as
    lines before it has cells (all but the first and the last): name ->
    bytes."""
    with open(n8_fixture_path, "rb") as fh:
        data = fh.read()
    return {
        "plain": data,
        "crlf": data.replace(b"\n", b"\r\n"),
        "comment": b"# the n = 8 fixture\n" + data,
        "prefix": b"".join(b">>graph6<<" + line + b"\n" for line in data.splitlines()),
        "no final newline": data.rstrip(b"\n"),
    }
