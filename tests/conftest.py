import io
from contextlib import redirect_stdout

import pytest

from kleincode import klein
from kleincode.gf import gf8


@pytest.fixture(scope="session")
def spec():
    return gf8()


@pytest.fixture(scope="session")
def dom():
    return klein.klein_domain()


@pytest.fixture(scope="session")
def order():
    return klein.klein_order()


@pytest.fixture(scope="session")
def gb():
    return klein.klein_basis()


@pytest.fixture(scope="session")
def fp():
    return klein.klein_footprint()


@pytest.fixture(scope="session")
def variety():
    return klein.klein_variety()


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, captured stdout)."""
    from kleincode.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            # as the interpreter does: None exits 0, any other non-int 1
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, buf.getvalue()
