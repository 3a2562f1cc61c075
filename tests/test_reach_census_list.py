"""The committed reach census list, checked without running the census.

``tools/reach_census.txt`` names every function in ``src/repro`` that no
workload calls, as ``path:Qualname``, and every defaulted parameter of a
reached function that no workload moves off its default, as
``path:Qualname(param)``, each with the owner that keeps it.  The census
itself
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
    defined = {name for name, _ in census.defs(str(ROOT)).values()}
    names = [line.split("  ")[0].partition("(")[0] for line in lines]
    assert [name for name in names if name not in defined] == []


def test_every_parameter_is_a_defaulted_parameter_of_its_def(census, lines):
    defaulted = {f"{name}({param})"
                 for name, params in census.defs(str(ROOT)).values()
                 for param in params}
    names = [line.split("  ")[0] for line in lines]
    params = [name for name in names if name.endswith(")")]
    assert params, "the list names no parameter"
    assert [name for name in params if name not in defaulted] == []


def test_a_parameter_line_names_a_reached_def(lines):
    names = {line.split("  ")[0] for line in lines}
    both = [name for name in names
            if name.endswith(")") and name.partition("(")[0] in names]
    assert both == []


def test_the_owner_tags_include_bench_and_entry(census):
    assert {"bench", "entry"} <= set(census.OWNERS)


def test_a_bench_parameter_is_one_the_benchmark_passes(lines):
    # the frozen benchmark's calls must still bind: each parameter the
    # list keeps for it appears as a keyword in benchmarks/perf
    perf = "".join(path.read_text()
                   for path in (ROOT / "benchmarks" / "perf").glob("*.py"))
    bench = [line.split("  ")[0] for line in lines
             if line.endswith("  bench")]
    assert bench, "the list keeps no parameter for the benchmark"
    params = {name: name.partition("(")[2].rstrip(")") for name in bench}
    assert [name for name, param in params.items()
            if f"{param}=" not in perf and f'"{param}"' not in perf] == []


def test_the_reader_reads_what_the_list_holds(census, lines):
    owners = census.read_list(str(LIST))
    assert owners == dict(line.split("  ") for line in lines)
