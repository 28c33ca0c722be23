import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wsuper import (analyze_nilpotent, build_algebra, resolve_nilpotent,
                    sl2_triple)
from wsuper.wchar0 import WContext


@pytest.fixture(scope="session")
def gl11():
    return build_algebra("gl", 1, 1)


@pytest.fixture(scope="session")
def sl21():
    return build_algebra("sl", 2, 1)


@pytest.fixture(scope="session")
def osp12():
    return build_algebra("osp", 1, 2)


@pytest.fixture(scope="session")
def gl21():
    return build_algebra("gl", 2, 1)


@pytest.fixture(scope="session")
def gl22():
    return build_algebra("gl", 2, 2)


def datum(alg, name):
    e = resolve_nilpotent(alg, name)
    return analyze_nilpotent(alg, sl2_triple(alg, e))


@pytest.fixture(scope="session")
def nd_gl11_zero(gl11):
    return datum(gl11, "zero")


@pytest.fixture(scope="session")
def nd_sl21_e12(sl21):
    return datum(sl21, "E12")


@pytest.fixture(scope="session")
def nd_osp12_reg(osp12):
    return datum(osp12, "regular")


@pytest.fixture(scope="session")
def nd_gl21_reg(gl21):
    return datum(gl21, "regular")


@pytest.fixture(scope="session")
def nd_osp22():
    # even r; m is spanned by an odd v2 and an even w1
    return datum(build_algebra("osp", 2, 2), "0,1,0,0,0,0,0,0")


@pytest.fixture(scope="session")
def nd_osp32():
    # odd r; m is spanned by an odd v3 and an even w1, v_mid lies outside
    return datum(build_algebra("osp", 3, 2), "0,0,0,1,0,0,0,0,0,0,0,0")


@pytest.fixture(scope="session")
def ctx_sl21(nd_sl21_e12):
    ctx = WContext(nd_sl21_e12)
    ctx.generators()
    return ctx


@pytest.fixture(scope="session")
def ctx_osp12(nd_osp12_reg):
    ctx = WContext(nd_osp12_reg)
    ctx.generators()
    return ctx
