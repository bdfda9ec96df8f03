import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from vdc.datacentre import Catalogue
from vdc.fixtures import FixtureSpec, generate_fixtures

from helpers import register_desk

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_fixtures(tmp_path_factory):
    """Seed-42 desk fixtures, generated once per session (read-only)."""
    out = str(tmp_path_factory.mktemp("fx") / "desk42")
    manifest = generate_fixtures(FixtureSpec(42, "desk", out))
    return out, manifest


@pytest.fixture(scope="session")
def desk_centre(desk_fixtures, tmp_path_factory):
    """A fully registered catalogue over the desk fixtures.

    Session-scoped: tests using it must not mutate the catalogue.
    """
    fx, manifest = desk_fixtures
    cat = Catalogue(str(tmp_path_factory.mktemp("cat") / "catalogue.vdc"))
    register_desk(cat, fx)
    return cat, fx, manifest
