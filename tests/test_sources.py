"""Source-level guards on the package modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bolab

SOURCES = sorted(Path(bolab.__file__).parent.glob("*.py"))
FREQUENCY_HELPERS = {"fftfreq", "rfftfreq"}


def _numpy_fft_transforms(source: str) -> list:
    """Names of the numpy.fft functions, other than the frequency helpers,
    that `source` calls or imports, each with its line number."""
    tree = ast.parse(source)
    numpy_names, fft_names = set(), set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.fft":
                    if alias.asname:
                        fft_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                fft_names.update(a.asname or a.name for a in node.names if a.name == "fft")
            elif node.module == "numpy.fft":
                found.extend((a.name, node.lineno) for a in node.names
                             if a.name not in FREQUENCY_HELPERS)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        via_fft_name = isinstance(owner, ast.Name) and owner.id in fft_names
        via_numpy = (isinstance(owner, ast.Attribute) and owner.attr == "fft"
                     and isinstance(owner.value, ast.Name)
                     and owner.value.id in numpy_names)
        if (via_fft_name or via_numpy) and node.func.attr not in FREQUENCY_HELPERS:
            found.append((node.func.attr, node.lineno))
    return found


@pytest.mark.parametrize("source, names", [
    ("import numpy as np\nnp.fft.rfft(x)", ["rfft"]),
    ("import numpy\nnumpy.fft.irfft(x, n=8)", ["irfft"]),
    ("import numpy.fft\nnumpy.fft.fft(x)", ["fft"]),
    ("import numpy.fft as nf\nnf.ifft(x)", ["ifft"]),
    ("from numpy import fft\nfft.rfftn(x)", ["rfftn"]),
    ("from numpy.fft import rfft, rfftfreq", ["rfft"]),
    ("import numpy as np\nnp.fft.rfftfreq(8, d=0.5)\nnp.fft.fftfreq(8)", []),
    ("import scipy.fft\nscipy.fft.rfft(x)", []),
])
def test_scanner_finds_numpy_fft_transforms(source, names):
    assert [name for name, _ in _numpy_fft_transforms(source)] == names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_transforms_call_scipy_fft_only(path):
    # numpy.fft and scipy.fft each keep a plan cache; a numpy.fft
    # transform next to the scipy.fft ones would bring the second back
    assert _numpy_fft_transforms(path.read_text(encoding="utf-8")) == []


# Public names that no module of the package (other than __init__) or of
# perfbench references, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    **dict.fromkeys(
        ("constrained_min_rayleigh", "angle_lemma_bound", "commutator_probe",
         "quadratic_form"),
        "a paper lemma behind the virial estimate, tested and waiting for a "
        "CLI gate (ROADMAP item 7)"),
    "read_checkpoint": "the reader of the final.bosl that `bolab evolve` writes",
}
BENCH_SOURCES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _referenced_names(sources) -> set:
    """Every name, attribute and from-import name that `sources` mention."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names


def _unreferenced(defining, referencing) -> set:
    """Public top-level functions and classes of `defining` that no
    source in `referencing` mentions."""
    refs = _referenced_names(referencing)
    return {node.name for source in defining for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in refs}


def test_unreferenced_scanner():
    defining = ["def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n"
                "def k():\n    return g"]
    referencing = ["f()\nfrom m import C\nm.k"]
    assert _unreferenced(defining, referencing) == {"g"}


def test_every_public_name_has_a_caller():
    # code that no command, workload or paper claim uses is deleted; a
    # caller only in tests/ does not count
    defining = [p.read_text(encoding="utf-8") for p in SOURCES]
    referencing = [p.read_text(encoding="utf-8") for p in SOURCES + BENCH_SOURCES
                   if p.name != "__init__.py"]
    assert BENCH_SOURCES
    assert _unreferenced(defining, referencing) == set(UNREFERENCED_ALLOWED)


# The list entry points keep every snapshot or fit of a run; the tests and
# perfbench call them, and the commands and sweeps read their runs as streams.
LIST_FORMS = {"evolve_pbo", "evolve_linearized", "track_parameters", "write_track_csv"}


@pytest.mark.parametrize("name", ["cli.py", "experiments.py", "virial.py"])
def test_sweeps_read_their_runs_once(name):
    source = (Path(bolab.__file__).parent / name).read_text(encoding="utf-8")
    assert _referenced_names([source]) & LIST_FORMS == set()


def test_one_finite_and_positive_check():
    # every "must be finite and positive" error comes from errors.require_positive
    hits = [p.name for p in SOURCES
            if "must be finite and positive" in p.read_text(encoding="utf-8")]
    assert hits == ["errors.py"]


# Functions of the package that keep a functools cache, each with its
# traffic as cache_info() hits/misses after a run; a cache that no
# command or workload hits is deleted, and its function builds per call.
CACHES_ALLOWED = {
    "_sobolev_weight": "grid: hits/misses 197/1 in `bolab evolve`, 602/1 in "
                       "`bolab virial`, 2310/1 in `bolab theorem-sweep`, 600/1 "
                       "in the member-h0.05 workload",
    "_integrated": "trajectories: hits/misses 4/4 in `bolab trajectories` and "
                   "its workload, 0/6 in `bolab theorem-sweep`, 24/16 over "
                   "the test suite after its last cache_clear",
}
CACHE_DECORATORS = {"lru_cache", "cache"}


def _cached_functions(source: str) -> set:
    """Names of the functions in `source` decorated with lru_cache or cache,
    bare, called or as an attribute of functools."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in CACHE_DECORATORS:
                found.add(node.name)
    return found


@pytest.mark.parametrize("source, names", [
    ("import functools\n@functools.lru_cache(maxsize=16)\ndef f(x): pass", {"f"}),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", {"f"}),
    ("import functools\n@functools.cache\ndef f(x): pass", {"f"}),
    ("class C:\n    @staticmethod\n    @functools.lru_cache()\n    def m(x): pass",
     {"m"}),
    ("@property\ndef f(self): pass\ndef g(): pass", set()),
])
def test_cache_scanner(source, names):
    assert _cached_functions(source) == names


def test_module_caches_have_listed_traffic():
    found = set().union(*(_cached_functions(p.read_text(encoding="utf-8"))
                          for p in SOURCES))
    assert found == set(CACHES_ALLOWED)


def test_cli_import_leaves_out_scipy_interpolate():
    # the sweep member reads the corrected flow at its own RK4 samples, so
    # no module of the package needs an interpolant
    code = "import sys, bolab.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(bolab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"
