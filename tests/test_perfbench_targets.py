"""The benchmark's span tracer (``perfbench/tracing.py``) replaces dmoc functions by
module and attribute name and binds their arguments by parameter name. Each target
must resolve on the package and keep the parameters its argument reader looks up."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# the parameters each argument reader of TARGETS looks up in the bound arguments
READS = {
    "_members": {"member_indices"},
    "_lp_rows": {"A_ub", "A_eq"},
    "_norm_cells": {"values", "reps", "params"},
    "_kmc_start": {"n_clusters", "seed"},
    "_file_bytes": {"path"},
}


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda target: target[2])
def test_target_resolves_with_the_parameters_its_reader_binds(target):
    module_name, attr, _, on_args, _ = target
    fn = getattr(importlib.import_module(module_name), attr)
    assert callable(fn)
    if on_args is not None:
        assert READS[on_args.__name__] <= set(inspect.signature(fn).parameters)
