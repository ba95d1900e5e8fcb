import pytest

from stacktilt.abgroup import FgAbelianGroup, direct_sum_group
from stacktilt.graded_order import GradedDegreeGroup


@pytest.fixture(scope="session")
def z_group():
    return FgAbelianGroup(1, [])


@pytest.fixture(scope="session")
def z2_group():
    return FgAbelianGroup(2, [])


@pytest.fixture(scope="session")
def zz2_group():
    return direct_sum_group(1, [2])


@pytest.fixture(scope="session")
def ctx_p23(z_group):
    return GradedDegreeGroup.build(
        z_group, [z_group.canonicalize([2]), z_group.canonicalize([3])])


@pytest.fixture(scope="session")
def make_pd(z_group):
    def factory(d):
        one = z_group.canonicalize([1])
        return GradedDegreeGroup.build(z_group, [one] * (d + 1))
    return factory


@pytest.fixture(scope="session")
def ctx_zz2_d1(zz2_group):
    return GradedDegreeGroup.build(
        zz2_group,
        [zz2_group.canonicalize([1, 0]), zz2_group.canonicalize([1, 1])])


@pytest.fixture(scope="session")
def ctx_zz2_d2(zz2_group):
    return GradedDegreeGroup.build(
        zz2_group,
        [zz2_group.canonicalize([1, 0]), zz2_group.canonicalize([1, 0]),
         zz2_group.canonicalize([1, 1])])


@pytest.fixture(scope="session")
def ctx_p1p1(z2_group):
    c = z2_group.canonicalize
    return GradedDegreeGroup.build(
        z2_group, [c([1, 0]), c([1, 0]), c([0, 1]), c([0, 1])])


@pytest.fixture(scope="session")
def ctx_sigma1(z2_group):
    c = z2_group.canonicalize
    return GradedDegreeGroup.build(
        z2_group, [c([1, 0]), c([1, 0]), c([1, 1]), c([0, 1])])


@pytest.fixture(scope="session")
def ctx_stacky(z2_group):
    c = z2_group.canonicalize
    return GradedDegreeGroup.build(
        z2_group, [c([1, -1]), c([1, 0]), c([1, 1]), c([0, 1])])
