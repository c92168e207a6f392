"""Tests of the benchmark itself: seeded inputs, repeatable counts, failure accounting.

Run with ``python -m pytest -q perfbench``. Each test that needs a cold
library imports ``abelcon`` afresh and puts the previously imported modules
back afterwards, so other tests in the same process keep their modules.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fresh_lib():
    """Loader of a freshly imported abelcon (empty Cayley-ball cache)."""
    saved = run._abelcon_modules()
    try:
        yield run.load_library
    finally:
        for name in run._abelcon_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _presentations(lib, pool):
    return {name: lib.Presentation.from_text(text) for name, text in pool.graphs.items()}


# requests small enough to run a workload's code paths in about a second
SUBSETS = {
    "h10_search": lambda reqs: [r for r in reqs[:23] if r.kind in ("sum2", "prod")],
    "raag_roundtrip": lambda reqs: reqs[:6],
    "shadow_mixed": lambda reqs: reqs[:24],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_generates_identical_inputs(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(7) == generate(7)
    assert generate(7).requests != generate(8).requests


@pytest.mark.parametrize("name", ["h10_search", "raag_roundtrip"])
def test_planted_integers_solve_the_generated_systems(name):
    for req in workloads.WORKLOADS[name].generate(2).requests:
        assert workloads.poly_holds(req.text, req.planted), req


def test_raag_targets_have_the_intended_module_shapes(fresh_lib):
    abelcon = fresh_lib()
    pool = workloads.gen_raag_roundtrip(4)
    for name, text in pool.graphs.items():
        pres = abelcon.Presentation.from_text(text)
        assert abelcon.direct_product_decomposition(pres) == [frozenset(pres.vertices)]
        s1, s2 = abelcon.nonadjacent_weak_module_pair(pres)
        shape = workloads.RAAG_SHAPES[int(name.split("_")[1])]
        assert (len(s1.vertices), len(s2.vertices)) == shape, text


def test_planted_words_satisfy_the_sat_shadow_instances(fresh_lib):
    lib = fresh_lib()
    pool = workloads.gen_shadow_mixed(2)
    pres = _presentations(lib, pool)
    for req in pool.requests:
        inst = lib.parse_instance(req.text, presentation=pres[req.graph])
        planted = {v: lib.parse_word(inst.presentation, w) for v, w in req.planted.items()}
        assert all(lib.geodesic_length(inst.presentation, w) <= req.bound
                   for w in planted.values())
        assert lib.evaluate(inst, planted).satisfied != req.expect_unsat, req.text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_across_runs(fresh_lib, name):
    wl = workloads.WORKLOADS[name]
    pool = wl.generate(3)
    pool = dataclasses.replace(pool, requests=SUBSETS[name](pool.requests))
    seen = []
    for _ in range(2):
        lib = fresh_lib()
        res = run.run_loop(lib, _presentations(lib, pool), wl, pool,
                           seconds=0, min_samples=1, trace=True)
        assert res.failed == 0, res.failures
        layers = res.first_pass_layers
        seen.append((layers["search.nodes"], layers["words.multiply.calls"],
                     res.decided_ratio()))
    assert seen[0] == seen[1]
    nodes, multiplies, _ = seen[0]
    assert multiplies > 0
    assert (nodes > 0) == (name != "raag_roundtrip")


def _tamper_first_value(real):
    def tampered(*args, **kwargs):
        out = dict(real(*args, **kwargs))
        first = next(iter(out))
        out[first] += 1
        return out
    return tampered


def test_tampered_decoded_integer_is_a_failure(fresh_lib, monkeypatch):
    lib = fresh_lib()
    wl = workloads.WORKLOADS["raag_roundtrip"]
    pool = wl.generate(5)
    monkeypatch.setattr(lib, "decode_solution", _tamper_first_value(lib.decode_solution))
    pool = dataclasses.replace(pool, requests=pool.requests[:4])
    res = run.run_loop(lib, _presentations(lib, pool), wl, pool, seconds=0, min_samples=1)
    assert res.attempted == 4
    assert res.failed == 4


def test_tampered_search_decode_is_a_failure(fresh_lib, monkeypatch):
    lib = fresh_lib()
    wl = workloads.WORKLOADS["h10_search"]
    pool = wl.generate(5)
    requests = [r for r in pool.requests if r.kind == "const"]  # x = c: any change breaks it
    pool = dataclasses.replace(pool, requests=requests)
    monkeypatch.setattr(lib, "decode_solution", _tamper_first_value(lib.decode_solution))
    res = run.run_loop(lib, _presentations(lib, pool), wl, pool, seconds=0, min_samples=1)
    assert res.failed == res.attempted == len(requests)


def test_wrong_shadow_verdict_and_exceptions_are_failures(fresh_lib, monkeypatch):
    lib = fresh_lib()
    wl = workloads.WORKLOADS["shadow_mixed"]
    pool = wl.generate(5)
    pool = dataclasses.replace(pool, requests=pool.requests[:6])
    real = lib.search

    def undecided(inst, bound):
        return dataclasses.replace(real(inst, bound), verdict="NoSolutionUpToBound")

    monkeypatch.setattr(lib, "search", undecided)
    res = run.run_loop(lib, _presentations(lib, pool), wl, pool, seconds=0, min_samples=1)
    assert res.failed == res.attempted == 6
    assert res.decided_ratio() == 0

    def broken(inst, bound):
        raise RuntimeError("injected")

    monkeypatch.setattr(lib, "search", broken)
    res = run.run_loop(lib, _presentations(lib, pool), wl, pool, seconds=0, min_samples=1)
    assert res.failed == res.attempted == 6


def test_untraced_run_sends_whole_blocks_and_samples_set_up(fresh_lib):
    lib = fresh_lib()
    wl = workloads.WORKLOADS["shadow_mixed"]
    pool = wl.generate(6)
    assert len(pool.requests) % pool.block == 0
    pool = dataclasses.replace(pool, requests=pool.requests[:2 * pool.block])
    res = run.run_loop(lib, _presentations(lib, pool), wl, pool,
                       seconds=0, min_samples=pool.block + 1)
    assert res.failed == 0, res.failures
    assert res.attempted == 2 * pool.block and res.passes == 2
    assert res.setup_seconds


def test_install_rebinds_every_reference_and_remove_restores(fresh_lib):
    lib = fresh_lib()
    search_mod = sys.modules["abelcon.search"]
    originals = (search_mod.multiply, search_mod.cayley_ball, lib.multiply)
    installation = tracer.install(tracer.Recorder())
    try:
        for wrapped, original in zip(
                (search_mod.multiply, search_mod.cayley_ball, lib.multiply), originals):
            assert wrapped is not original and wrapped.__wrapped__ is original
        assert sys.modules["abelcon.instances"].multiply is search_mod.multiply
    finally:
        installation.remove()
    assert (search_mod.multiply, search_mod.cayley_ball, lib.multiply) == originals


def test_set_up_probe_times_one_fresh_import():
    times = run.time_set_ups(workloads.gen_raag_roundtrip(1), 0)
    assert len(times) == 1 and 0 < times[0] < 60


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    outer = rec.push("outer")
    inner = rec.push("inner")
    rec.pop(inner)
    rec.pop(outer)
    start, end = rec.spans[0][2], rec.spans[0][3]
    assert rec.self_time["outer"] == pytest.approx(end - start - rec.total["inner"])
    assert rec.spans[1][4] == 0  # inner's parent is outer


def test_missing_library_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "shadow_mixed", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out
