"""Every lru_cached function of the library returns a deeply immutable
result: every later caller shares the object, so a caller that could mutate
it would change what all the others see.

The cached functions are found by their cache_info attribute, so a new
cache fails here until SAMPLES names an argument to call it with.
"""

import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np

from cliffharm.characters import chi, rho
from cliffharm.matrix_models import IntertwinerBasis

SRC = Path(__file__).resolve().parents[1] / "src" / "cliffharm"

# (module, function) -> argument tuples to call it with
SAMPLES = {
    ("characters", "irreps"): [(3,)],
    ("characters", "_irrep_character"): [(chi(3, (1,)),), (rho(3, "-"),), (rho(2),)],
    ("characters", "_restriction_index"): [(3, 2), (3, 3)],
    ("elements", "class_keys"): [(3,)],
    ("elements", "mult_table"): [(3,)],
    ("gelfand", "gelfand_check_characters"): [(4, 3), (3, 3)],
    ("matrix_models", "build_matrix_rep"): [(chi(3, (1,)),), (rho(3, "+"),), (rho(2),)],
}


def cached_functions():
    """(module, name) -> function for each lru_cached function defined in a
    library module."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cliffharm.{path.stem}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[(path.stem, name)] = obj
    return found


def mutable_parts(value, path="result"):
    """The paths of the parts of value that are not deeply immutable: only
    read-only ndarrays, tuples, frozensets, MappingProxyTypes, frozen
    dataclasses and scalars pass, checked all the way down."""
    if isinstance(value, np.ndarray):
        parts = [path] if value.flags.writeable else []
        if value.dtype == object:
            for i, v in enumerate(value.ravel()):
                parts += mutable_parts(v, f"{path}.flat[{i}]")
        return parts
    if isinstance(value, (tuple, frozenset)):
        return [p for i, v in enumerate(value) for p in mutable_parts(v, f"{path}[{i}]")]
    if isinstance(value, MappingProxyType):
        return [
            p
            for k, v in value.items()
            for p in mutable_parts(k, f"{path} key {k!r}") + mutable_parts(v, f"{path}[{k!r}]")
        ]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if not type(value).__dataclass_params__.frozen:
            return [path]
        return [
            p
            for f in dataclasses.fields(value)
            for p in mutable_parts(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if value is None or isinstance(value, (bool, int, str, Fraction, np.integer, np.bool_)):
        return []
    return [path]


def test_immutability_scanner():
    read_only = np.arange(3)
    read_only.setflags(write=False)
    assert mutable_parts((read_only, 1, "a", None, MappingProxyType({(1, 2): read_only}))) == []
    assert mutable_parts(rho(2)) == []
    assert mutable_parts(np.arange(3)) == ["result"]
    assert mutable_parts((1, [2])) == ["result[1]"]
    assert mutable_parts(MappingProxyType({"k": {}})) == ["result['k']"]
    assert mutable_parts(IntertwinerBasis([])) == ["result"]  # not frozen
    assert mutable_parts((2.5, object())) == ["result[0]", "result[1]"]


def test_cached_results_are_deeply_immutable():
    found = cached_functions()
    assert set(SAMPLES) == set(found)
    mutable = [
        (key, part)
        for key, calls in SAMPLES.items()
        for args in calls
        for part in mutable_parts(found[key](*args))
    ]
    assert mutable == []
