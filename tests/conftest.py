import pytest

from fso_ber import LinkParams, PRESETS, derive, forkmap

CASES = ("case1", "case2", "case3")


@pytest.fixture(autouse=True)
def _fresh_helpers():
    # a helper computes with the package as it was when forked, and tests
    # patch the package, so each test forks its own
    forkmap.close()


@pytest.fixture(scope="session")
def links():
    return {name: LinkParams(**PRESETS[name]) for name in CASES}


@pytest.fixture(scope="session")
def deriveds(links):
    return {name: derive(link) for name, link in links.items()}
