import re

import numpy as np

import ergospec as es

from conftest import REPO


def test_public_names_are_pinned():
    # a name leaves or joins the package's exports only with this list
    assert sorted(es.__all__) == [
        "Analysis", "AnalysisReport", "DEFAULT_CONFIG", "DEFAULT_SEED", "ErgodicReport",
        "FiniteCommutativeMonoid", "FreeCommutativeMonoid", "KernelGroup",
        "PeripheralDecomposition", "Representation", "Subspace", "ToleranceConfig",
        "UnitaryCharacter", "UnitarySpectrumResult", "analyze", "certify_boundedness",
        "char_conj", "char_distance", "char_mul", "character_from_gen_values",
        "check_positive", "direct_sum", "domination_check", "dual_representation",
        "enumerate_unitary_dual", "idempotents", "kernel_group",
        "laplace_falsifier", "leq", "nisa_suite", "operator_norm", "operator_norms",
        "regular_representation", "representation_from_generators", "restrict", "rotate",
        "summarize", "trivial_character", "unitary_spectrum", "validate_monoid",
        "validate_representation",
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
