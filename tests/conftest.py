import pytest

from linconn.specfile import load_builtin


@pytest.fixture(scope="session")
def c0():
    return load_builtin("c0")


@pytest.fixture(scope="session")
def c1():
    return load_builtin("c1")


@pytest.fixture(scope="session")
def c2():
    return load_builtin("c2")


@pytest.fixture(scope="session")
def c3():
    return load_builtin("c3")


@pytest.fixture(scope="session")
def c4():
    return load_builtin("c4")


@pytest.fixture(scope="session")
def c5():
    return load_builtin("c5")


@pytest.fixture(scope="session")
def all_specs(c0, c1, c2, c3, c4, c5):
    return {"c0": c0, "c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}
