"""The package namespace, and what each entry point imports."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import steinergut

SRC = str(Path(__file__).resolve().parents[1] / "src")

# home module -> exported names
EXPORTS = {
    "bounds": "BOUND_GROUPS BOUND_IDS BoundCheck EqualityWitness diagnose_equality "
    "equality_witness evaluate_bounds expand_bound_ids",
    "canon": "canonical_graph",
    "cli": "run_cli",
    "errors": "ComplementDisconnected Disconnected EmptySet IndexOutOfRange InvalidFamilyOrder "
    "KOutOfRange LoopEdge MalformedHeader NoCaseApplies NonCanonicalPadding NotTight "
    "OrderTooLarge SteinerGutError TrailingGarbage",
    "exact": "Scalar SquareRoot decimal_str frac_str value_str",
    "families": "FAMILIES FamilySpec FormulaAudit audit_for_order audit_formulas "
    "closed_form_complete_corrected closed_form_complete_printed closed_form_path_printed "
    "closed_form_star generate",
    "graph": "MAX_ORDER Graph complement edge_mask from_adjacency from_edge_list from_edge_mask "
    "induced_connected is_connected is_k_connected is_regular iter_bits mask_of relabel",
    "graph6": "graph6_decode graph6_encode",
    "indices": "OBJECTIVES IndexReport gutman index_report steiner_degree_distance "
    "steiner_gutman steiner_wiener",
    "steiner": "INF DreyfusWagner SteinerTable pairwise_distances steiner_all_subsets "
    "steiner_oracle steiner_single",
    "verify": "ENUMERATION_CAP LABELED_CAP EnumerationSpec ExtremalResult TightCase "
    "VerificationReport Violation enumerate_graphs find_extremal report_to_dict sweep sweep_orders",
}
HOMES = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_exports_are_the_pinned_names():
    assert len(HOMES) == 81
    assert sorted(steinergut.__all__) == sorted(HOMES)
    assert len(set(steinergut.__all__)) == len(steinergut.__all__)


def test_each_export_is_its_home_modules_object():
    for name, module in HOMES.items():
        home = importlib.import_module(f"steinergut.{module}")
        assert getattr(steinergut, name) is getattr(home, name), name


def test_dir_and_star_import_cover_every_export():
    assert set(HOMES) <= set(dir(steinergut))
    namespace = {}
    exec("from steinergut import *", namespace)
    assert set(HOMES) <= namespace.keys()
    for name in HOMES:
        assert namespace[name] is getattr(steinergut, name)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        steinergut.no_such_name
    assert not hasattr(steinergut, "degree_profile")


def test_submodules_still_import_by_name():
    from steinergut import cli, verify

    assert isinstance(cli, types.ModuleType) and cli.__name__ == "steinergut.cli"
    assert isinstance(verify, types.ModuleType) and verify.__name__ == "steinergut.verify"


_LOADED = """
import io, json, sys
import steinergut
bare = sorted(m for m in sys.modules if m.startswith("steinergut."))
code = steinergut.run_cli(sys.argv[1:], stdout=io.StringIO())
watched = json.loads(sys.stdin.read())
print(json.dumps([bare, code, [m for m in watched if m in sys.modules]]))
"""


def _loaded(argv, watched):
    """Run the CLI in a fresh interpreter; which watched modules did it load?"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        input=json.dumps(watched), capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_compute_imports_no_other_layer(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\nE?NO\n")
    watched = [
        "steinergut.bounds",
        "steinergut.verify",
        "steinergut.families",
        "steinergut.exact",
        "steinergut.canon",
        "fractions",
        "concurrent.futures.process",
    ]
    bare, code, loaded = _loaded(["compute", "--graph", str(path), "--k", "all"], watched)
    assert bare == []  # importing the package loads no layer
    assert code == 0
    assert loaded == []


def test_verify_in_one_process_imports_no_pool():
    _, code, loaded = _loaded(["verify", "--n-max", "4", "--jobs", "1"], ["concurrent.futures.process"])
    assert code == 0
    assert loaded == []


def test_the_readme_examples_run_as_written():
    # every >>> example of README.md, with the exported names as globals
    import doctest

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = {name: getattr(steinergut, name) for name in steinergut.__all__}
    test = doctest.DocTestParser().get_doctest(text, names, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    assert runner.summarize(verbose=False) == doctest.TestResults(0, 7)
