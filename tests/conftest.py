import pytest

from rwscenery import algebra, trigpoly, walk
from rwscenery.cli import load_fixture


def pytest_terminal_summary(terminalreporter):
    """Surface the one-line-per-criterion acceptance verdicts uncaptured."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lazy_model():
    return walk.build_walk_model(walk.lazy_walk_law_2d())


@pytest.fixture(scope="session")
def simple2d_model():
    return walk.build_walk_model(walk.simple_walk_law(2))


@pytest.fixture(scope="session")
def simple3d_model():
    return walk.build_walk_model(walk.simple_walk_law(3))


@pytest.fixture(scope="session")
def sl3_pair():
    return algebra.pair_from_dict(load_fixture("toral_pair_sl3.json"))


@pytest.fixture(scope="session")
def companion_pair():
    """rho -> the commuting unimodular pair (C, C(C + I)), with C the
    companion matrix of x^rho - x - 1."""
    def make(rho):
        c = [[int(i == j + 1) for j in range(rho)] for i in range(rho)]
        c[0][rho - 1] = c[1][rho - 1] = 1
        c_plus_i = [[v + int(i == j) for j, v in enumerate(row)] for i, row in enumerate(c)]
        return algebra.matrix_pair(c, algebra.mat_mul(algebra.mat_tuplify(c),
                                                      algebra.mat_tuplify(c_plus_i)))
    return make


@pytest.fixture(scope="session")
def four_term_poly():
    # cos(2 pi x1) + cos(2 pi x2) on the 3-torus
    return trigpoly.cosine_polynomial([(1, 0, 0), (0, 1, 0)])


@pytest.fixture(scope="session")
def tolerances():
    return load_fixture("pilot_tolerances.json")
