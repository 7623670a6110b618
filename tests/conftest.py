import pytest

from zprainbow.cli import load_config


@pytest.fixture(scope="session")
def config():
    return load_config()


@pytest.fixture(scope="session")
def crystal(config):
    return config.crystal


@pytest.fixture(scope="session")
def couplings(config):
    return config.couplings


# a test may leave at most this much in its tmp_path: a simulate test
# deletes each output once it has compared it, so the suite's footprint
# stays small however many large outputs it writes
TMP_PATH_LIMIT = 16 * 2 ** 20


@pytest.fixture(autouse=True)
def tmp_path_footprint(request):
    """Fail, at teardown, a test whose tmp_path holds over TMP_PATH_LIMIT."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    # requested here, tmp_path is torn down (and deleted) after this check
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    size = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    if size > TMP_PATH_LIMIT:
        pytest.fail(f"tmp_path holds {size / 2 ** 20:.1f} MiB, over the "
                    f"{TMP_PATH_LIMIT / 2 ** 20:.0f} MiB limit: delete large "
                    f"outputs once they are compared")
