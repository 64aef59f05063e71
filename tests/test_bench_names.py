"""The names the benchmark harness in ``bench/`` looks up in the package.

``bench/tracing.py`` finds its targets with ``getattr`` and its SNF hook
reads fields of ``SmithForm``; ``bench/worker.py`` calls
``SimplicialComplex.skeleton`` and ``cli.load_facet_file``.  A deleted
name would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
import pathlib

from simpcrit import cli
from simpcrit.complexes import SimplicialComplex
from simpcrit.intlinalg import IntMatrix, smith_normal_form

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    # imported only: install() is never called, so nothing is wrapped
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    for name, modname, attr in load_tracing().TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), name
        assert callable(getattr(owner, attr)), name


def test_smith_form_has_the_fields_the_tracer_reads():
    s = smith_normal_form(IntMatrix(2, 3, [[2, 4, 4], [-6, 6, 12]]))
    for field in ("d", "u", "v", "u_inv", "v_inv"):
        assert hasattr(s, field), field


def test_worker_names_exist():
    assert callable(SimplicialComplex.skeleton)
    assert callable(cli.load_facet_file)
