"""The crisp outputs must not depend on numpy's SIMD kernels or on the BLAS kernel.

numpy picks a SIMD variant of many ufuncs at run time, and OpenBLAS picks a
kernel per core type; both may round differently. The value path therefore
uses only operations whose results are fixed by IEEE 754 and numpy's
summation order: math.exp and math.tanh per element, elementwise arithmetic,
comparisons and numpy's pairwise sums. The guarantee is one operating system
and libm, any CPU features and any BLAS kernel.
"""

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzsig
from conftest import DATA_DIR, PORTFOLIO_JSON_PINS, cli_env

VALUE_PATH = ("fuzzy.py", "inference.py", "indicators.py")

# BLAS-backed products, and ufuncs with SIMD variants that need not round alike
FORBIDDEN = {
    "dot", "vdot", "inner", "outer", "matmul", "einsum", "tensordot",
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "power", "float_power", "tanh", "sinh", "cosh", "arcsinh", "arccosh", "arctanh",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "cbrt", "hypot",
}


def forbidden_uses(source: str) -> list[str]:
    found = []
    for node in sorted((n for n in ast.walk(ast.parse(source)) if hasattr(n, "lineno")),
                       key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(f"line {node.lineno}: np.{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append(f"line {node.lineno}: ** (np.power on arrays)")
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "einsum"):
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize("module", VALUE_PATH)
def test_value_path_uses_no_simd_transcendental_or_blas_call(module):
    source = (Path(fuzzsig.__file__).parent / module).read_text()
    assert forbidden_uses(source) == []


def test_the_guard_sees_each_forbidden_form():
    source = "a = np.dot(x, y)\nb = x @ y\nc = np.exp(x)\nd = x.dot(y)\ne = x ** 2\nf = math.exp(1)\n"
    assert forbidden_uses(source) == ["line 1: np.dot", "line 2: @", "line 3: np.exp",
                                      "line 4: .dot", "line 5: ** (np.power on arrays)"]


def _has_x86_v4() -> bool:
    from numpy._core import _multiarray_umath as umath

    return bool(umath.__cpu_features__.get("X86_V4")) and "X86_V4" in umath.__cpu_dispatch__


def _blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.parametrize("setting", [
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, id="no-avx512",
                 marks=pytest.mark.skipif(not _has_x86_v4(),
                                          reason="numpy has no X86_V4 kernels on this host")),
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="openblas-prescott",
                 marks=pytest.mark.skipif(not _blas_is_openblas(),
                                          reason="numpy's BLAS is not OpenBLAS")),
])
def test_pinned_json_bytes_hold_under_other_kernels(setting):
    env = cli_env(**setting)
    fixture = str(DATA_DIR / "portfolio_fixture.csv")
    for flags, digest in PORTFOLIO_JSON_PINS:
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzsig.cli", "portfolio", fixture, "--format", "json", *flags],
            env=env, capture_output=True, check=True)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, (setting, flags)
