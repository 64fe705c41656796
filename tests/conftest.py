import pytest

from quditctx.bell import chsh_scenario
from quditctx.graphs import orthogonality_graph
from quditctx.states import enumerate_single, enumerate_two_qudit


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run extended-budget checks (d=5 entangled/total alpha, "
        "d=7 CHSH alpha by branch and bound)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="extended budget; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def family():
    cache = {}

    def get(d, kind):
        if (d, kind) not in cache:
            if kind == "single":
                cache[(d, kind)] = enumerate_single(d)
            else:
                cache[(d, kind)] = enumerate_two_qudit(d, kind)
        return cache[(d, kind)]

    return get


@pytest.fixture(scope="session")
def ortho_graph(family):
    cache = {}

    def get(d, kind):
        if (d, kind) not in cache:
            cache[(d, kind)] = orthogonality_graph(family(d, kind))
        return cache[(d, kind)]

    return get


@pytest.fixture(scope="session")
def chsh(request):
    cache = {}

    def get(d):
        if d not in cache:
            cache[d] = chsh_scenario(d)
        return cache[d]

    return get
