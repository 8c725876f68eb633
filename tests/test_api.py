import ast
import dataclasses
import re

import numpy as np
import pytest

import ergospec as es
from ergospec import cli

from conftest import REPO


def test_public_names_are_pinned():
    # a name leaves or joins the package's exports only with this list
    assert sorted(es.__all__) == [
        "Analysis", "AnalysisReport", "DEFAULT_CONFIG", "DEFAULT_SEED", "ErgodicReport",
        "FiniteCommutativeMonoid", "FreeCommutativeMonoid", "KernelGroup",
        "PeripheralDecomposition", "Representation", "Subspace", "ToleranceConfig",
        "UnitaryCharacter", "UnitarySpectrumResult", "analyze", "certify_boundedness",
        "char_distance", "character_from_gen_values", "check_positive", "domination_check",
        "enumerate_unitary_dual", "idempotents", "kernel_group", "laplace_falsifier",
        "nisa_suite", "operator_norm", "operator_norms", "regular_representation",
        "representation_from_generators", "restrict", "summarize", "trivial_character",
        "unitary_spectrum", "validate_monoid", "validate_representation",
    ]
    # every exported name is bound, and a star import binds no submodule
    names = {}
    exec("from ergospec import *", names)
    assert set(names) - {"__builtins__"} == set(es.__all__)


def test_readme_python_api_runs():
    readme = (REPO / "README.md").read_text()
    block, = re.findall(r"Python API:\n\n```python\n(.*?)```", readme, re.DOTALL)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    rep, analysis = names["rep"], names["analysis"]
    assert rep.matrices.shape == (4, 4, 4)
    assert not rep.matrices.flags.writeable
    np.testing.assert_array_equal(rep.matrices, es.regular_representation(rep.semigroup).matrices)
    assert len(names["spectrum"]) == 4
    assert names["pole"] is not None
    assert names["poles"][0] is names["pole"] and len(names["poles"]) == 4
    assert names["decomp"].reversible.dim == 4
    assert not analysis.stability.is_stable
    assert analysis.infinity.classes == [[0], [1], [2], [3]]


# exported names that no module of the package reads, and why they stay
_UNUSED_EXPORTS = {
    "regular_representation": "bench/test_bench.py and the README's Python API "
                              "build their inputs with it",
    "representation_from_generators": "ROADMAP item 6 builds finite inputs given "
                                      "by generators and relations with it",
}


def test_every_export_is_read_by_the_package():
    # an exported name is used by some module of the package other than
    # __init__.py and the statement that defines it: a test oracle lives
    # under tests/, not in the package
    used = set()
    for path in sorted((REPO / "src" / "ergospec").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined = {node: node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and defined.get(top) != name:
                    used.add(name)
    unused = sorted(name for name in es.__all__ if name not in used)
    assert unused == sorted(_UNUSED_EXPORTS)


def test_every_config_field_is_set_by_a_cli_flag():
    # a ToleranceConfig field that no flag sets is a class constant: the
    # three flags move every field off its default
    args = cli._command_parser("analyze").parse_args(
        ["input.json", "--tol-rank", "1e-9", "--tol-char", "1e-7", "--max-cesaro", "64"])
    config = cli._build_config(args)
    assert [field.name for field in dataclasses.fields(es.ToleranceConfig)
            if getattr(config, field.name) == getattr(es.DEFAULT_CONFIG, field.name)] == []
    for name, value in (("tol_cluster", 1e-7), ("tol_hom", 1e-8), ("cesaro_target", 1e-6)):
        assert getattr(config, name) == getattr(es.DEFAULT_CONFIG, name) == value
        with pytest.raises(TypeError):
            es.ToleranceConfig(**{name: value})
