"""The benchmark's per-layer metrics still find every function they name.

``bench/run.py --trace 1`` reads its metrics by span name, so a deleted or
renamed public function shows up there as a KeyError.  This replays a few
calls under the tracer and builds the metrics the same way.
"""

from __future__ import annotations

import contextlib
import io
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run
    import spans

    return run, spans


def test_layer_metrics_resolve_every_traced_name(bench):
    run, spans = bench
    from seifertlab import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["brieskorn", "2", "3", "7", "--json"],
                ["verify", "--max", "5"],
                ["perturb", "--scenario", "circle", "--eps", "0.1"],
            ):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    layers = run._layer_metrics(tracer.snapshot(), 0)
    for name in (
        "moduli.enumerate_e_vectors_calls",
        "singularity.verify_identity_chain_calls",
        "perturb.lab.newton_calls",
        "orbifold.orbifold_euler_char_calls",
    ):
        assert layers[name][0] > 0, name


def test_perturb_counts_each_evaluation_once(bench):
    # counts repeat exactly, so an evaluation added back shows up here: two
    # Newton runs, each returning the Hessian at its point for the spectrum
    run, spans = bench
    from seifertlab import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["perturb", "--scenario", "circle", "--eps", "0.1"]) == 0
    finally:
        tracer.uninstall()
    layers = run._layer_metrics(tracer.snapshot(), 0)
    assert layers["perturb.lab.newton_calls"][0] == 2
    assert layers["perturb.fields.hessian_calls"][0] == 10
    assert layers["perturb.fields.gradient_calls"][0] == 12
    assert layers["perturb.linalg.pinv_solve_calls"][0] == 2
