"""The committed reach census list, checked without running the census.

``tools/reach_census.txt`` names every function in ``src/repro`` that no
workload calls, each with the owner that keeps it.  The census itself
(``python tools/reach_census.py --check tools/reach_census.txt``) runs
every workload and takes minutes; these checks take a second, so a
renamed or deleted function that the list still names fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach_census.py"
LIST = ROOT / "tools" / "reach_census.txt"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("reach_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lines():
    return LIST.read_text().splitlines()


def test_every_line_is_a_function_and_an_owner(lines):
    for line in lines:
        name, sep, owner = line.partition("  ")
        assert sep and name and owner and " " not in name + owner, line


def test_the_list_is_sorted_without_repeats(lines):
    names = [line.split("  ")[0] for line in lines]
    assert names == sorted(set(names))


def test_every_owner_is_a_fixed_tag(census, lines):
    owners = {line.split("  ")[1] for line in lines}
    assert owners <= set(census.OWNERS), owners - set(census.OWNERS)


def test_every_name_is_a_def_in_src_repro(census, lines):
    defined = set(census.defs(str(ROOT)).values())
    missing = [line for line in lines if line.split("  ")[0] not in defined]
    assert not missing


def test_the_reader_reads_what_the_list_holds(census, lines):
    owners = census.read_list(str(LIST))
    assert owners == dict(line.split("  ") for line in lines)
