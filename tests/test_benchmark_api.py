"""The benchmark's workloads call the library through its public names; a
removed export must fail here, not silently in a benchmark run."""

import re
from pathlib import Path

import cptk
import cptk.cli
import cptk.hardcore
import cptk.langs

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def used_names(source: str) -> set[str]:
    """Every ``cptk.<name>[.<attr>...]`` chain in the source, and the
    solver names it looks up on ``cptk`` by string."""
    chains = set(re.findall(r"\bcptk((?:\.[A-Za-z_]\w*)+)", source))
    solvers = re.findall(r'_solve_query\([^,]+,\s*"(\w+)"', source)
    looked_up = re.findall(r'(?:get|has)attr\(cptk,\s*"(\w+)"', source)
    return {c.lstrip(".") for c in chains} | set(solvers) | set(looked_up)


def resolve(chain: str):
    obj = cptk
    for part in chain.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_cptk_name_of_the_workloads_resolves():
    names = used_names(WORKLOADS.read_text())
    assert {"cli.main", "solve", "solve_conditional", "regular_family"} <= names
    missing = []
    for chain in sorted(names):
        try:
            resolve(chain)
        except AttributeError:
            missing.append(chain)
    assert not missing, f"perfbench/workloads.py uses missing cptk names: {missing}"


def test_benchmark_tests_find_scalar_member_in_hardcore():
    # the benchmark's own tests trace cptk.langs.member through the name
    # cptk.hardcore imports
    assert cptk.hardcore.member is cptk.langs.member is cptk.member
