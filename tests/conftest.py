"""Shared fixtures: small schemes and group tables used across the suite."""

import numpy as np
import pytest
from hypothesis import settings

import hyperscheme as hs

# Property tests draw the same examples on every run and never time out on a
# slow or shared machine.
settings.register_profile("hyperscheme", derandomize=True, deadline=None)
settings.load_profile("hyperscheme")


@pytest.fixture(scope="session")
def k3_partition():
    lab = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    return hs.RelationPartition(n_points=3, n_relations=2, label=lab)


@pytest.fixture(scope="session")
def k3_scheme(k3_partition):
    return hs.verify_scheme(k3_partition)


@pytest.fixture(scope="session")
def k3_hypergroup(k3_scheme):
    return hs.from_scheme(k3_scheme)


@pytest.fixture(scope="session")
def trivial_scheme():
    part = hs.RelationPartition(n_points=1, n_relations=1,
                                label=np.zeros((1, 1), dtype=int))
    return hs.verify_scheme(part)


@pytest.fixture(scope="session")
def s3_table():
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return np.array([[perms.index(compose(p, q)) for q in perms]
                     for p in perms])


@pytest.fixture(scope="session")
def z4_table():
    return np.array([[(i + j) % 4 for j in range(4)] for i in range(4)])


@pytest.fixture(scope="session")
def z4_scheme(z4_table):
    _, scheme = hs.from_double_cosets(z4_table, [0])
    return scheme
