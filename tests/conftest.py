import importlib.util
import sys
from pathlib import Path

import pytest

# The checkout's src comes last, and only when stacktilt imports from
# nowhere else, so a tree on PYTHONPATH is the one tested.
if importlib.util.find_spec("stacktilt") is None:
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from stacktilt.abgroup import FgAbelianGroup, direct_sum_group


@pytest.fixture(scope="session")
def z_group():
    return FgAbelianGroup(1, [])


@pytest.fixture(scope="session")
def z2_group():
    return FgAbelianGroup(2, [])


@pytest.fixture(scope="session")
def zz2_group():
    return direct_sum_group(1, [2])


# The graded groups are the corpus's, imported inside the fixtures so that
# this file loads on its own.
@pytest.fixture(scope="session")
def make_pd():
    import corpus
    return lambda d: corpus.ctx(corpus.pd(d))


def _corpus_ctx(name):
    def fixture():
        import corpus
        return corpus.ctx(name)
    return pytest.fixture(scope="session", name=f"ctx_{name}")(fixture)


ctx_p23, ctx_zz2_d1, ctx_zz2_d2, ctx_p1p1, ctx_sigma1, ctx_stacky = map(
    _corpus_ctx, ["p23", "zz2_d1", "zz2_d2", "p1p1", "sigma1", "stacky"])
