"""Command-line interface: subcommands, exit codes, artifacts."""

import copy
import functools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

from pcgrav import cli, graded, grid, scenarios
from pcgrav.algebras import AlgebraFormatError, dgla_from_json
from pcgrav.cli import leibniz_residual_norms, main
from pcgrav.graded import DglaMorphism, check_dgla, check_morphism
from pcgrav.scenarios import ScenarioError, load_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(args, tmp_path, capsys=None):
    code = main([*args])
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_algebra_check_passes_on_shipped_files(tmp_path, capsys):
    for name in ("so3.json", "poincare_algebra.json", "r3.json"):
        code, out = run(["algebra", "check", str(SCENARIOS / name)],
                        tmp_path, capsys)
        assert code == 0 and "pass" in out


def test_algebra_check_flags_broken_structure(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "so3.json").read_text())
    doc["brackets"][0]["out"][0]["c"] = "2"  # perturb one constant
    bad = tmp_path / "bad_so3.json"
    bad.write_text(json.dumps(doc))
    code, out = run(["algebra", "check", str(bad)], tmp_path, capsys)
    assert code == 1
    assert "antisymmetry" in out or "jacobi" in out


def test_algebra_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{\"basis\": [{\"label\": \"x\"}]}")
    code, _ = run(["algebra", "check", str(bad)], tmp_path, capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = run(["algebra", "check", str(missing)], tmp_path, capsys)
    assert code == 2


def test_algebra_action_builds_semidirect_sum(tmp_path, capsys):
    code, out = run(["algebra", "action", str(SCENARIOS / "so3.json"),
                     str(SCENARIOS / "r3.json"),
                     str(SCENARIOS / "so3_vector_action.json")],
                    tmp_path, capsys)
    assert code == 0 and "exact sequence: pass" in out


def graded_document(**changes):
    """L (degree 0) scales x (degree -1) and y (degree 0), with d x = y:
    a dgla with a nonzero differential, as a document."""
    def out(label, c="1"):
        return [{"k": label, "c": c}]
    doc = {"basis": [{"label": "L", "degree": 0},
                     {"label": "x", "degree": -1},
                     {"label": "y", "degree": 0}],
           "brackets": [{"i": "L", "j": "x", "out": out("x")},
                        {"i": "x", "j": "L", "out": out("x", "-1")},
                        {"i": "L", "j": "y", "out": out("y")},
                        {"i": "y", "j": "L", "out": out("y", "-1")}],
           "differential": [{"i": "x", "out": out("y")}]}
    if changes.get("d_y_is_x"):
        doc["differential"] = [{"i": "y", "out": out("x")}]
    if changes.get("L_x_is_y"):
        doc["brackets"][0]["out"] = out("y")
        doc["brackets"][1]["out"] = out("y", "-1")
    return doc


LEIBNIZ = "d[x,y] != [dx,y] + (-1)^|x| [x,dy]"


@pytest.mark.parametrize("changes, code, report", [
    ({}, 0, "dgla axioms: pass"),
    ({"d_y_is_x": True}, 1, """\
dgla axioms: 1 violation(s)
  - differential-degree at ('y',): coefficient 1 on x (degree -1 != 0 + 1)"""),
    ({"L_x_is_y": True}, 1, f"""\
dgla axioms: 4 violation(s)
  - bracket-degree at ('L', 'x'): coefficient 1 on y (degree 0 != 0 + -1)
  - bracket-degree at ('x', 'L'): coefficient -1 on y (degree 0 != -1 + 0)
  - leibniz at ('L', 'x'): {LEIBNIZ}
  - leibniz at ('x', 'L'): {LEIBNIZ}"""),
], ids=["d-x-is-y", "d-y-is-x", "L-x-is-y"])
def test_algebra_check_reads_a_differential(tmp_path, capsys, changes, code,
                                            report):
    path = tmp_path / "graded.json"
    path.write_text(json.dumps(graded_document(**changes)))
    assert run(["algebra", "check", str(path)], tmp_path, capsys) == (
        code, report + "\n")


def test_a_degree_breaking_morphism_is_flagged():
    # phi sends x (degree -1) to y (degree 0), so it cannot commute with d
    # either: phi(d x) = y but d phi(x) = d y = 0
    dgla = dgla_from_json(graded_document())
    matrix = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    matrix[1] = [Fraction(0), Fraction(0), Fraction(1)]
    assert [str(v) for v in check_morphism(DglaMorphism(dgla, dgla,
                                                        matrix))] == [
        "morphism-degree at ('x',): image hits y of different degree",
        "morphism-differential at ('x',): phi(d x) != d phi(x)"]


def test_unknown_subcommand_is_usage_error(tmp_path):
    assert main(["frobnicate"]) == 2


def small_scenario_file(tmp_path, **overrides):
    doc = {"scenario": "spherical", "geometry": "schwarzschild", "M": 0.5,
           "grid": {"L": 8.0, "N": 13}, "Ns": [9, 13],
           "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": "spatial",
           "radii": [4.0, 5.0, 6.0],
           "thresholds": {"eom_abs_tol": 0.05}}
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_pc_action_emits_json_report(tmp_path, capsys):
    path = small_scenario_file(tmp_path)
    code, out = run(["pc", "action", "--scenario", str(path),
                     "--out", str(tmp_path / "reports")], tmp_path, capsys)
    assert code == 0
    body = json.loads(out)
    assert {"S", "N", "h"} <= set(body)
    report = json.loads((tmp_path / "reports" / "pc_action.json").read_text())
    assert report["body"] == body
    assert report["manifest"]["scenario_hash"]
    assert report["manifest"]["versions"]["pcgrav"]


def test_pc_eom_passes_on_shell_and_fails_off_shell(tmp_path, capsys):
    on_shell = small_scenario_file(tmp_path)
    code, out = run(["pc", "eom", "--scenario", str(on_shell),
                     "--out", str(tmp_path / "r1")], tmp_path, capsys)
    assert code == 0
    body = json.loads(out)
    assert body["torsion_norm"] < 0.05 and body["einstein_norm"] < 0.05

    code, out = run(["pc", "eom", "--scenario",
                     str(SCENARIOS / "minkowski_lambda1.json"),
                     "--out", str(tmp_path / "r2")], tmp_path, capsys)
    assert code == 1
    body = json.loads(out)
    assert body["einstein_norm"] == pytest.approx(1.0, abs=1e-12)


def test_killing_residuals_writes_csv(tmp_path, capsys):
    # flat geometry: verdicts are exact passes at any resolution, so this
    # exercises the full reporting path with a deterministic exit code
    path = small_scenario_file(tmp_path, geometry="minkowski", M=0.0)
    out_dir = tmp_path / "reports"
    code, out = run(["killing", "residuals", "--scenario", str(path),
                     "--out", str(out_dir)], tmp_path, capsys)
    assert code == 0
    csv_text = (out_dir / "residuals_minkowski.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == ["generator", "norm_N9", "slope", "verdict"]
    assert len(csv_text.splitlines()) == 5
    assert all(line.endswith("pass") for line in csv_text.splitlines()[1:])


def test_mass_commands(tmp_path, capsys):
    path = small_scenario_file(tmp_path, grid={"L": 8.0, "N": 17})
    code, out = run(["mass", "adm", "--scenario", str(path),
                     "--out", str(tmp_path / "m1")], tmp_path, capsys)
    assert code == 0
    body = json.loads(out)
    assert body["radii"] == [4.0, 5.0, 6.0]
    assert body["positivity"]["passed"]
    code, out = run(["mass", "komar", "--scenario", str(path),
                     "--radii", "4,6", "--out", str(tmp_path / "m2")],
                    tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["radii"] == [4.0, 6.0]


def test_convergence_command_reports_slopes(tmp_path, capsys):
    path = small_scenario_file(tmp_path, Ns=[9, 13, 17])
    code, out = run(["convergence", "--scenario", str(path),
                     "--quantities", "torsion", "leibniz",
                     "--out", str(tmp_path / "c1")], tmp_path, capsys)
    body = json.loads(out)
    assert set(body["quantities"]) == {"torsion", "leibniz"}
    assert body["quantities"]["leibniz"]["slope"] >= 1.7
    assert code in (0, 3)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_leibniz_ladder_norms_are_pinned(threads):
    # a change to the order of the float operations in wedge moves these,
    # and the worker count must not; at 3 workers the 13 and 17 slices
    # split 4/4/5 and 5/6/6, and every block builds its own halo slices
    scenario = load_scenario(SCENARIOS / "eom_schwarzschild.json",
                             Ns=[9, 13, 17])
    norms, _ = leibniz_residual_norms(scenario, threads)
    assert norms == [1.5557802852622662, 0.7384922107658585,
                     0.3962308738065563]


@pytest.mark.parametrize("threads", [1, 2])
def test_leibniz_ladder_peaks_below_one_dense_two_form(threads):
    # each worker keeps five t slices of a, b and [a, b], not whole fields,
    # and peaks below one dense Lambda^2-valued 2-form at N = 25; at 2
    # workers each range runs in a process of its own, so the first one
    # is measured here, as its worker runs it
    scenario = load_scenario(SCENARIOS / "eom_schwarzschild.json", Ns=[25])
    one_dense = 36 * 25 ** 4 * 8
    rings = 2 * cli.RING * 4 * 6 * 25 ** 3 * 8
    tracemalloc.start()
    try:
        if threads == 1:
            top = leibniz_residual_norms(scenario, 1)[0][0]
        else:
            top = cli._leibniz_block(scenario, 25, 0, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < top < 1.0
    assert rings < peak < one_dense, (rings, peak, one_dense)


def test_convergence_reports_exact_sequences_without_a_slope(tmp_path, capsys):
    path = small_scenario_file(tmp_path, geometry="minkowski", M=0.0,
                               Ns=[9, 13, 17])
    out_dir = tmp_path / "cx"
    code, out = run(["convergence", "--scenario", str(path),
                     "--quantities", "torsion",
                     "--out", str(out_dir)], tmp_path, capsys)
    assert code == 0
    entry = json.loads(out)["quantities"]["torsion"]
    assert entry["kind"] == "exact" and entry["slope"] is None
    csv_text = (out_dir / "convergence.csv").read_text()
    assert "exact" in csv_text


def test_convergence_flags_non_decaying_translation(tmp_path, capsys):
    path = small_scenario_file(tmp_path, Ns=[9, 13, 17],
                               grid={"L": 8.0, "N": 17})
    code, out = run(["convergence", "--scenario", str(path),
                     "--quantities", "symmetry:P1",
                     "--out", str(tmp_path / "cp")], tmp_path, capsys)
    assert code == 1
    entry = json.loads(out)["quantities"]["symmetry:P1"]
    assert entry["kind"] == "non-decaying" and entry["verdict"] == "fail"


def test_killing_residuals_full_spherical_scenario(tmp_path, capsys):
    # the shipped black-hole scenario: four passing generators, exit 0
    out_dir = tmp_path / "full"
    code, out = run(["killing", "residuals", "--scenario",
                     str(SCENARIOS / "spherical_schwarzschild.json"),
                     "--out", str(out_dir)], tmp_path, capsys)
    assert code == 0
    lines = (out_dir / "residuals_schwarzschild.csv").read_text().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines[1:])
    body = json.loads(out)
    assert body["verdict"] == "pass"
    assert body["masses"]["komar_adm_agreement"]["verdict"] == "pass"


def test_killing_residuals_leave_one_lattice_held(tmp_path, capsys):
    # 4d masks and profiles are N^4 arrays per resolution: once a later N
    # is in use, a finished one's must not stay held beside it
    store = grid._lattice_store
    store.cache_clear()
    with pytest.warns(UserWarning, match="'spatial' is recommended"):
        code, _ = run(["killing", "residuals", "--scenario",
                       str(SCENARIOS / "poincare_schwarzschild.json"),
                       "--radius-mode", "4d", "--threads", "1",
                       "--out", str(tmp_path / "k")], tmp_path, capsys)
    assert code == 3
    assert store.cache_info().currsize == 1
    # the items run largest N first: N = 17 is the lattice in use
    hits = store.cache_info().hits
    arrays = [a for value in store(20.0, 17).values()
              for a in (value if isinstance(value, tuple) else (value,))]
    assert store.cache_info().hits == hits + 1
    assert arrays and all({*a.shape} <= {1, 17} for a in arrays)


def test_convergence_needs_three_resolutions(tmp_path, capsys):
    path = small_scenario_file(tmp_path, Ns=[9, 13])
    out_dir = tmp_path / "never"
    code = main(["convergence", "--scenario", str(path),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: Ns: convergence needs at least 3 "
                            "resolutions, got [9, 13]\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("overrides, options, field", [
    ({"grid": {"L": 8.0, "N": 1000001}}, [], "grid.N"),
    ({}, ["--Ns", "9,13,1000001"], "Ns[2]"),
])
def test_a_node_count_past_physical_memory_exits_2_naming_it(
        tmp_path, capsys, overrides, options, field):
    # refused at load, before anything of that size is allocated
    path = small_scenario_file(tmp_path, **overrides)
    out_dir = tmp_path / "never"
    code = main(["convergence", "--scenario", str(path), *options,
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {field}: one (4, 4) field slice "
                                   "at N = 1000001 needs ")
    assert not out_dir.exists()


@pytest.mark.parametrize("quantities", [["leibniz", "bogus"],
                                        ["torsion", "einstein", "bogus"]])
def test_unknown_quantity_exits_2_before_any_ladder(tmp_path, capsys,
                                                    monkeypatch, quantities):
    def refuse(*args, **kwargs):
        raise AssertionError("a ladder ran before the quantities were checked")

    monkeypatch.setattr(scenarios, "_sweep", refuse)
    monkeypatch.setattr(cli, "leibniz_residual_norms", refuse)
    path = small_scenario_file(tmp_path, Ns=[9, 13, 17])
    out_dir = tmp_path / "never"
    code = main(["convergence", "--scenario", str(path), "--quantities",
                 *quantities, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --quantities: unknown quantity 'bogus'\n"
    assert not out_dir.exists()


def test_convergence_sweeps_once_and_not_for_leibniz_alone(tmp_path, capsys,
                                                           monkeypatch):
    # one sweep, of the requested generators only: the document's four are
    # echoed, not swept, since a decay-only verdict reads no family
    sweeps = []
    sweep = scenarios._sweep

    def counted(scenario, *args, **kwargs):
        sweeps.append((scenario.generators, kwargs))
        return sweep(scenario, *args, **kwargs)

    monkeypatch.setattr(scenarios, "_sweep", counted)
    monkeypatch.setattr(cli, "leibniz_residual_norms",
                        lambda scenario, threads: ([4.0, 1.0, 0.25],
                                                       [4.0, 2.0, 1.0]))
    path = small_scenario_file(tmp_path, Ns=[9, 13, 17])
    ns = (9, 13, 17)
    for quantities, expected in (
            (["leibniz"], []),
            (["symmetry:K1"], [(("K1",), {"gen_ns": ns, "eom_ns": ()})]),
            (["torsion", "symmetry:K1", "extra:P1"],
             [(("K1", "P1"), {"gen_ns": ns, "eom_ns": ns})])):
        sweeps.clear()
        code = main(["convergence", "--scenario", str(path), "--quantities",
                     *quantities, "--out", str(tmp_path / "c")])
        body = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 3) and set(body["quantities"]) == {*quantities}
        assert sweeps == expected, quantities
        assert body["scenario"]["generators"] == ["P0", "L1", "L2", "L3"]
        assert not any("pass_threshold" in entry
                       for entry in body["quantities"].values())


def test_threads_flag_is_recorded_not_numeric(tmp_path, capsys):
    path = small_scenario_file(tmp_path)
    bodies = {}
    for threads in ("1", "3"):
        out_dir = tmp_path / f"t{threads}"
        code, _ = run(["pc", "eom", "--scenario", str(path),
                       "--threads", threads, "--out", str(out_dir)],
                      tmp_path, capsys)
        report = json.loads((out_dir / "pc_eom.json").read_text())
        assert report["manifest"]["threads"] == int(threads)
        bodies[threads] = json.dumps(report["body"], sort_keys=True)
    assert bodies["1"] == bodies["3"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    path = small_scenario_file(tmp_path)
    code = main(["pc", "action", "--scenario", str(path),
                 "--threads", threads, "--out", str(tmp_path / "t")])
    assert code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_threads_default_is_the_available_cpu_count(tmp_path, capsys):
    path = small_scenario_file(tmp_path)
    code, _ = run(["pc", "action", "--scenario", str(path),
                   "--out", str(tmp_path / "t")], tmp_path, capsys)
    assert code == 0
    report = json.loads((tmp_path / "t" / "pc_action.json").read_text())
    assert report["manifest"]["threads"] == len(os.sched_getaffinity(0))


def test_the_parser_is_built_once_and_parsing_leaves_it_as_it_was():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["convergence", "--scenario", "a.json",
                               "--Ns", "9,13", "--quantities", "leibniz",
                               "--threads", "3", "--radius-mode", "4d"])
    second = parser.parse_args(["convergence", "--scenario", "b.json"])
    assert (first.ns, first.quantities, first.threads) == ([9, 13],
                                                          ["leibniz"], 3)
    assert (second.ns, second.quantities, second.radius_mode) == (None,
                                                                 None, None)
    assert second.threads == len(os.sched_getaffinity(0))
    assert second.scenario == "b.json" and second.out is None


def recording_block(log, scenario, n, t0, t1):
    """A ladder block that appends its range to ``log``, from any process."""
    with open(log, "a") as f:
        f.write(f"{n} {t0} {t1} {os.getpid()}\n")
    return 1.0 / n ** 2


class BlockFailed(RuntimeError):
    pass


def failing_block(scenario, n, t0, t1):
    raise BlockFailed(f"range {t0}..{t1}")


def dying_block(scenario, n, t0, t1):
    os._exit(7)


def test_threads_flag_reaches_the_leibniz_split(tmp_path, capsys,
                                                monkeypatch):
    # the pool forks after the patch, so its workers run the fake, which
    # pickles by reference
    log = tmp_path / "ranges"
    monkeypatch.setattr(cli, "_leibniz_block",
                        functools.partial(recording_block, log))
    path = small_scenario_file(tmp_path)
    code, _ = run(["convergence", "--scenario", str(path),
                   "--Ns", "9,13,17", "--quantities", "leibniz",
                   "--threads", "3", "--out", str(tmp_path / "t")],
                  tmp_path, capsys)
    assert code == 0
    ranges = [tuple(map(int, line.split()))
              for line in log.read_text().splitlines()]
    for n, bounds in ((9, [0, 3, 6, 9]), (13, [0, 4, 8, 13]),
                      (17, [0, 5, 11, 17])):
        assert sorted(r[1:3] for r in ranges if r[0] == n) == list(
            zip(bounds, bounds[1:]))
    assert os.getpid() not in {r[3] for r in ranges}


def test_a_single_leibniz_range_runs_in_the_calling_process(tmp_path,
                                                            monkeypatch):
    log = tmp_path / "ranges"
    monkeypatch.setattr(cli, "_leibniz_block",
                        functools.partial(recording_block, log))
    scenario = load_scenario(SCENARIOS / "eom_schwarzschild.json",
                             Ns=[9, 13])
    leibniz_residual_norms(scenario, 1)
    assert [line.split() for line in log.read_text().splitlines()] == [
        ["9", "0", "9", str(os.getpid())], ["13", "0", "13", str(os.getpid())]]


def test_leibniz_pool_leaves_no_process_behind(tmp_path):
    path = small_scenario_file(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcgrav.cli", "convergence", "--scenario",
         str(path), "--quantities", "leibniz", "--Ns", "9,13,17",
         "--threads", "2", "--out", str(tmp_path / "t")],
        stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        assert proc.wait(timeout=120) in (0, 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("block, error", [
    (failing_block, BlockFailed), (dying_block, BrokenProcessPool)])
def test_a_failed_leibniz_worker_fails_the_call_promptly(monkeypatch, block,
                                                         error):
    monkeypatch.setattr(cli, "_leibniz_block", block)
    scenario = load_scenario(SCENARIOS / "eom_schwarzschild.json",
                             Ns=[9, 13])

    def hung(signum, frame):
        raise TimeoutError("the Leibniz ladder hung on a failed worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(error):
            leibniz_residual_norms(scenario, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


REAL_STAGE = scenarios._stage
REAL_GENERATOR_NORMS = scenarios._generator_norms


def recording_stage(log, scenario, item):
    """A sweep stage that appends its item to ``log``, from any process."""
    with open(log, "a") as f:
        f.write(f"{' '.join(map(str, item))} {os.getpid()}\n")
    return REAL_STAGE(scenario, item)


class StageFailed(ValueError):
    pass


def generator_norms_failing_past_9(e, gens, form):
    if e.grid.points > 9:
        raise StageFailed(f"generators at N = {e.grid.points}")
    return REAL_GENERATOR_NORMS(e, gens, form)


def failing_stage(scenario, item):
    raise BlockFailed(f"item {item}")


def dying_stage(scenario, item):
    os._exit(7)


def test_killing_sweep_items_run_in_workers_and_not_at_one_thread(
        tmp_path, capsys, monkeypatch):
    # every (geometry, N, stage) item runs once: in the calling process at
    # --threads 1, which forks nothing, and in pool workers at --threads 2
    log = tmp_path / "items"
    monkeypatch.setattr(scenarios, "_stage",
                        functools.partial(recording_stage, log))
    path = small_scenario_file(tmp_path, scenario="poincare", Ns=[9, 13])
    expected = sorted([("minkowski", 9, "generators"), ("minkowski", 9, "eom"),
                       ("minkowski", 9, "killing"), ("minkowski", 13, "eom")]
                      + [("schwarzschild", n, stage) for n in (9, 13)
                         for stage in ("generators", "eom")]
                      + [("schwarzschild", 13, "killing")])
    bodies = []
    for threads in ("1", "2"):
        with monkeypatch.context() as patch:
            if threads == "1":
                patch.setattr(os, "fork", None)
            code, out = run(["killing", "residuals", "--scenario", str(path),
                             "--threads", threads,
                             "--out", str(tmp_path / threads)],
                            tmp_path, capsys)
        bodies.append((code, out))
        items = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        assert sorted((g, int(n), s) for g, n, s, _ in items) == expected
        pids = {int(pid) for *_, pid in items}
        assert (pids == {os.getpid()}) == (threads == "1"), pids
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("argv", [
    ["killing", "residuals"],
    ["convergence", "--quantities", "torsion", "symmetry:K1"]])
def test_a_value_error_in_a_sweep_worker_exits_1_as_at_one_thread(
        tmp_path, capsys, monkeypatch, argv):
    # N = 13 and 17 both fail: the items run largest N first, so N = 17's
    # error ends the call at either thread count
    monkeypatch.setattr(scenarios, "_generator_norms",
                        generator_norms_failing_past_9)
    path = small_scenario_file(tmp_path, scenario="poincare", Ns=[9, 13, 17])
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        code = main([*argv, "--scenario", str(path), "--threads", threads,
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: generators at N = 17\n", threads
        assert not out_dir.exists()


@pytest.mark.parametrize("stage, error", [
    (failing_stage, BlockFailed), (dying_stage, BrokenProcessPool)])
def test_a_failed_sweep_worker_fails_the_call_promptly(monkeypatch, stage,
                                                       error):
    monkeypatch.setattr(scenarios, "_stage", stage)
    scenario = load_scenario(SCENARIOS / "poincare_schwarzschild.json",
                             Ns=[9, 13, 17])

    def hung(signum, frame):
        raise TimeoutError("the sweep hung on a failed worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(error):
            scenarios.run_scenario(scenario, cli.worker_map(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_killing_pool_leaves_no_process_behind(tmp_path):
    path = small_scenario_file(tmp_path, scenario="poincare", Ns=[9, 13, 17])
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcgrav.cli", "killing", "residuals",
         "--scenario", str(path), "--threads", "2",
         "--out", str(tmp_path / "t")],
        stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        assert proc.wait(timeout=120) in (0, 1, 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def stderr_documents(tmp_path):
    """(name, path) of the shipped scenarios and of documents whose runs
    warn or fail: a 4d exterior (warned at load), a mass whose chart
    overflows to NaN, and a Lambda whose action overflows."""
    for name in ("eom_schwarzschild", "minkowski_lambda1",
                 "poincare_schwarzschild", "spherical_schwarzschild"):
        yield name, SCENARIOS / f"{name}.json"
    yield "4d-exterior", small_scenario_file(
        tmp_path / "4d", radius_mode="4d", Ns=[9, 11, 13])
    yield "huge-mass", small_scenario_file(
        tmp_path / "mass", M=1e40, grid={"L": 8.0, "N": 9},
        cutoff={"r": 2.0, "R": 3.0}, radii=[4.0, 5.0], Ns=[9, 11, 13])
    for lam in (1e305, 1e308):
        doc = json.loads((SCENARIOS / "minkowski_lambda1.json").read_text())
        doc["Lambda"] = lam
        path = tmp_path / f"lambda_{lam:g}.json"
        path.write_text(json.dumps(doc))
        yield f"lambda-{lam:g}", path


def test_stderr_does_not_depend_on_the_threads(tmp_path):
    # a warning or error of a worker must be neither lost nor doubled;
    # fresh processes, so that each run prints the warnings of its own
    env = {**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")}
    for name in ("4d", "mass"):
        (tmp_path / name).mkdir()
    seen = set()
    for name, path in stderr_documents(tmp_path):
        for command in (["killing", "residuals"],
                        ["convergence", "--quantities", "torsion",
                         "einstein", "symmetry:K1", "extra:P1"]):
            procs = [subprocess.Popen(
                [sys.executable, "-m", "pcgrav.cli", *command, "--scenario",
                 str(path), "--threads", threads,
                 "--out", str(tmp_path / "out" / threads)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
                for threads in ("1", "2")]
            one, two = [(*proc.communicate(timeout=300), proc.returncode)
                        for proc in procs]
            assert one == two, (name, command)
            seen.add(one[1].count(b"\n"))
    # quiet runs, an error line, and a warning of two lines
    assert seen >= {0, 1, 2}


def test_algebra_action_checks_the_sum_dgla_once(tmp_path, capsys,
                                                 monkeypatch):
    calls = []

    def counted(dgla):
        calls.append(dgla)
        return check_dgla(dgla)

    monkeypatch.setattr(graded, "check_dgla", counted)
    monkeypatch.setattr(cli, "check_dgla", counted)
    code, out = run(["algebra", "action", str(SCENARIOS / "so3.json"),
                     str(SCENARIOS / "r3.json"),
                     str(SCENARIOS / "so3_vector_action.json")],
                    tmp_path, capsys)
    assert code == 0
    assert out == "dgla axioms: pass\nexact sequence: pass\n"
    assert len(calls) == 1


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCGRAV_OUT", str(tmp_path / "env_out"))
    path = small_scenario_file(tmp_path)
    code, _ = run(["pc", "action", "--scenario", str(path)], tmp_path, capsys)
    assert code == 0
    assert (tmp_path / "env_out" / "pc_action.json").exists()

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides, command, field", [
    ({"Ns": [13, 9]}, ["killing", "residuals"], "Ns"),
    ({}, ["convergence", "--Ns", "9,9,9"], "Ns"),
    ({}, ["convergence", "--Ns", "6,8,10"], "Ns"),
    ({"radii": [4.0, 5.0, 30.0]}, ["killing", "residuals"], "radii"),
    ({"scenario": "poincare", "radii": [4.0, 30.0]},
     ["killing", "residuals"], "radii"),
    ({}, ["mass", "komar", "--radii", "4,7"], "radii"),
    ({"M": NAN}, ["mass", "adm"], "M"),
    ({"Lambda": INF}, ["pc", "action"], "Lambda"),
    ({"grid": {"L": NAN, "N": 13}}, ["pc", "action"], "grid.L"),
    ({"cutoff": {"r": NAN, "R": 5.0}}, ["pc", "action"], "cutoff.r"),
    ({"cutoff": {"r": 3.0, "R": INF}}, ["pc", "action"], "cutoff.R"),
    ({"radii": [4.0, NAN]}, ["mass", "adm"], "radii"),
    ({"generators": ["P0", "Q9"]}, ["killing", "residuals"], "generators"),
    ({}, ["convergence", "--Ns", "9,13,17", "--quantities", "symmetry:Q9"],
     "generators"),
    ({"generators": []}, ["pc", "eom"], "generators"),
    ({"radii": []}, ["mass", "komar"], "radii"),
    ({"radii": [0.0, 4.0, 6.0]}, ["mass", "adm"],
     "radii[0]: must be positive"),
    ({"radii": [-1.0, 4.0, 6.0]}, ["mass", "komar"],
     "radii[0]: must be positive"),
    ({}, ["mass", "adm", "--radii", "4,-0.0"], "radii[1]: must be positive"),
    ({}, ["mass", "adm", "--radii", "4,4,4"], "radii must be distinct"),
    ({"generators": ["P0", "P0"]}, ["killing", "residuals"], "generators"),
])
def test_malformed_scenario_exits_2_naming_the_field(tmp_path, capsys,
                                                     overrides, command,
                                                     field):
    path = small_scenario_file(tmp_path, **overrides)
    out_dir = tmp_path / "reports"
    code = main([*command, "--scenario", str(path), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {field}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["adm", "komar"])
@pytest.mark.parametrize("geometry", ["schwarzschild", "minkowski"])
@pytest.mark.parametrize("radii, k", [
    ([1e-300, 1e-299, 1e-298], 0), ([4.0, 1.0, 6.0], 1)])
def test_a_mass_sphere_inside_one_grid_spacing_exits_2_naming_it(
        tmp_path, capfd, command, geometry, radii, k):
    # h = 16/12 at N = 13; such a sphere once reached LAPACK, which wrote
    # to fd 2 itself; warnings are errors here
    path = small_scenario_file(tmp_path, geometry=geometry, radii=radii)
    out_dir = tmp_path / "reports"
    code = main(["mass", command, "--scenario", str(path),
                 "--out", str(out_dir)])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: radii[{k}]: must be at least the grid spacing h = "
        f"{16 / 12!r} at grid.N = 13, got {radii[k]!r}\n")
    assert not out_dir.exists()


def test_a_mass_sphere_of_one_grid_spacing_loads():
    doc = {"scenario": "spherical", "grid": {"L": 8.0, "N": 13},
           "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": "spatial",
           "radii": [16 / 12, 4.0]}
    assert scenario_from_dict(doc).radii == (16 / 12, 4.0)


@pytest.mark.parametrize("command", [["mass", "adm"], ["pc", "action"]])
@pytest.mark.parametrize("mass", [-2.0, -3.0])
@pytest.mark.parametrize("changes", [
    {}, {"scenario": "poincare", "geometry": "minkowski"}])
def test_a_negative_mass_past_the_core_exits_2_naming_it(tmp_path, capsys,
                                                        command, mass,
                                                        changes):
    # the default core radius for M <= 0 is 1.0: at M = -2 the core's
    # 1 + M/(2 r_c) is 0, and past it negative; both documents build the
    # Schwarzschild chart
    doc = json.loads((SCENARIOS / "spherical_schwarzschild.json").read_text())
    doc.update(M=mass, radius_mode="spatial", **changes)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "reports"
    code = main([*command, "--scenario", str(path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: M: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["mass", "adm"], ["mass", "komar"],
                                     ["killing", "residuals"]])
@pytest.mark.parametrize("mass, radii, k", [
    (1e20, [2.5, 3.0, 3.5], 0), (1.5, [3.5, 3.0, 5.0], 1)])
def test_a_mass_sphere_inside_the_core_exits_2_naming_it(tmp_path, capfd,
                                                        command, mass, radii,
                                                        k):
    # at M = 1e20 every node lies inside the core radius 2M, and Komar
    # once passed with the values [0.0, 0.0, 0.0]; a sphere at 2M itself
    # is refused too
    path = small_scenario_file(tmp_path, M=mass, grid={"L": 8.0, "N": 9},
                               Ns=[9], cutoff={"r": 2.0, "R": 3.0},
                               radii=radii)
    out_dir = tmp_path / "reports"
    code = main([*command, "--scenario", str(path), "--out", str(out_dir),
                 "--threads", "1"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: radii[{k}]: must exceed the Schwarzschild core radius "
        f"2M = {2.0 * mass!r}, got {radii[k]!r}\n")
    assert not out_dir.exists()


def test_a_small_negative_mass_still_fails_positivity(tmp_path, capsys):
    path = small_scenario_file(tmp_path, M=-0.5, grid={"L": 8.0, "N": 17})
    code, out = run(["mass", "adm", "--scenario", str(path),
                     "--out", str(tmp_path / "m")], tmp_path, capsys)
    assert code == 1
    body = json.loads(out)
    assert body["verdict"] == "fail" and not body["positivity"]["passed"]


@pytest.mark.parametrize("command", ["action", "eom"])
@pytest.mark.parametrize("lam, reason", [(1e308, "S is inf"),
                                         (1e305, "S overflows")])
def test_an_overflowing_action_is_a_fail_verdict(tmp_path, capsys, command,
                                                 lam, reason):
    # 1e308 overflows the integrand to inf; 1e305 keeps it finite, and its
    # exact sum overflows; warnings are errors here, so none is raised
    doc = json.loads((SCENARIOS / "minkowski_lambda1.json").read_text())
    doc["Lambda"] = lam
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "reports"
    code = main(["pc", command, "--scenario", str(path),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    body = json.loads(captured.out)
    assert "S" not in body
    assert body["verdict"] == "fail" and body["reason"] == reason
    report = json.loads((out_dir / f"pc_{command}.json").read_text())
    assert report["body"] == body


@pytest.mark.parametrize("field, value", [
    ("grid", None),
    ("cutoff", None),
    ("Ns", []),
    ("Ns", {}),
    ("grid.N", 1e400),
    ("generators[0]", ["P0"]),
    ("thresholds", []),
    ("thresholds.pass_factor", "x"),
    ("thresholds.slope_min", None),
    ("thresholds.exact_floor", NAN),
    ("thresholds.fail_factor", INF),
    ("thresholds.pass_facter", 4.0),
    ("radius_mod", "4d"),
    ("raddi", [1.0]),
    ("grid.n", 5),
    ("cutoff.rr", 3.0),
    ("radii", "816"),
    ("Ns[0]", 9.5),
    ("grid.N", 33.9),
    ("M", "1.5"),
    ("grid.L", "20"),
    ("grid.N", "33"),
    ("thresholds.mass_tol", "0.5"),
    ("M", True),
    ("M", 10 ** 400),
    ("Lambda", True),
    ("cutoff.r", True),
    ("radii[0]", True),
    ("thresholds.slope_min", True),
    ("thresholds.eom_abs_tol", -1),
    ("thresholds.pass_factor", 0),
], ids=["grid-null", "cutoff-null", "Ns-empty", "Ns-object", "grid.N-1e400",
        "generators-nested", "thresholds-list", "threshold-string",
        "threshold-null", "threshold-nan", "threshold-inf",
        "threshold-unknown-key", "unknown-key", "unknown-key-list",
        "grid-unknown-key", "cutoff-unknown-key", "radii-string",
        "Ns-fraction", "grid.N-fraction", "M-string", "grid.L-string",
        "grid.N-string", "threshold-number-string", "M-true", "M-huge-integer",
        "Lambda-true",
        "cutoff.r-true", "radii-true", "threshold-true",
        "threshold-negative", "threshold-zero"])
def test_malformed_field_types_exit_2_naming_the_field(tmp_path, capsys,
                                                       field, value):
    doc = json.loads((SCENARIOS / "poincare_schwarzschild.json").read_text())
    if "." in field:
        outer, inner = field.split(".")
        doc.setdefault(outer, {})[inner] = value
    elif field.endswith("[0]"):
        doc[field[:-3]] = [value]
    else:
        doc[field] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value).startswith(f"{field}: ")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "reports"
    code = main(["killing", "residuals", "--scenario", str(path),
                 "--out", str(out_dir)])
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("path, mutate", [
    ("basis[0].label", lambda d: d["basis"][0].update(label=[])),
    ("basis[1].degree", lambda d: d["basis"][1].update(degree=1e400)),
    ("brackets", lambda d: d.update(brackets=None)),
    ("brackets[2]", lambda d: d["brackets"].__setitem__(2, None)),
    ("basis[1].degree", lambda d: d["basis"][1].update(degree=2.5)),
    ("basis[1].degree", lambda d: d["basis"][1].update(degree=True)),
    ("basis[2].label", lambda d: d["basis"][2].update(label="L1")),
    ("brackets[0].out[0].c", lambda d: d["brackets"][0]["out"][0].update(
        c=True)),
    ("brackets[0].out[0].c", lambda d: d["brackets"][0]["out"][0].update(
        c="1/0")),
    ("brackets[0].out[0].c", lambda d: d["brackets"][0]["out"][0].update(
        c="1e999999999")),
    ("brackets[0].out[0].c", lambda d: d["brackets"][0]["out"][0].update(
        c="1e3")),
    ("brackets[0].out[0].c", lambda d: d["brackets"][0]["out"][0].update(
        c="0.5")),
    # a misspelt key would read as a missing one: brackets as none at all
    ("brakets", lambda d: d.update(brakets=d.pop("brackets"))),
    ("basis[0].lable", lambda d: d["basis"][0].update(
        lable=d["basis"][0].pop("label"))),
    ("brackets[1].jj", lambda d: d["brackets"][1].update(jj="L1")),
    ("brackets[0].out[0].coefficient",
     lambda d: d["brackets"][0]["out"][0].update(coefficient="1")),
    ("differential[0].j", lambda d: d.update(
        differential=[{"i": "L1", "out": [], "j": "L2"}])),
], ids=["label-list", "degree-1e400", "brackets-null", "bracket-null",
        "degree-fraction", "degree-true", "label-repeated",
        "coefficient-true", "coefficient-zero-denominator",
        "coefficient-huge-exponent", "coefficient-exponent",
        "coefficient-decimal",
        "brackets-misspelt", "label-misspelt", "bracket-unknown-key",
        "coefficient-unknown-key", "differential-unknown-key"])
def test_malformed_algebra_exits_2_naming_the_path(tmp_path, capsys, path,
                                                   mutate):
    doc = json.loads((SCENARIOS / "so3.json").read_text())
    mutate(doc)
    with pytest.raises(AlgebraFormatError) as info:
        dgla_from_json(doc)
    assert str(info.value).startswith(f"{path}: ")
    bad = tmp_path / "algebra.json"
    bad.write_text(json.dumps(doc))
    code = main(["algebra", "check", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: {path}: " in captured.err


@pytest.mark.parametrize("message, mutate", [
    ("action[0].rowz: unknown key; known: x, rows",
     lambda d: d["action"][0].update(rowz=d["action"][0].pop("rows"))),
    ("basis: unknown key; known: action", lambda d: d.update(basis=[])),
    ("action[1].rows[0].outs: unknown key; known: i, out",
     lambda d: d["action"][1]["rows"][0].update(outs=[])),
], ids=["rows-misspelt", "document-unknown-key", "row-unknown-key"])
def test_malformed_action_exits_2_naming_the_path(tmp_path, capsys, message,
                                                  mutate):
    doc = json.loads((SCENARIOS / "so3_vector_action.json").read_text())
    mutate(doc)
    bad = tmp_path / "action.json"
    bad.write_text(json.dumps(doc))
    code = main(["algebra", "action", str(SCENARIOS / "so3.json"),
                 str(SCENARIOS / "r3.json"), str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


BAD_VALUES = [None, "x", -1, 0, 1e400, NAN, [], {}, True, [None], 2.5]
PATH = re.compile(r"[A-Za-z_]\w*(\.\w+|\[\d+\])*(?=[: ])")


def document_nodes(doc, path="", keys=()):
    """(path, keys, value) of every object member and list entry below
    ``doc``, in document order."""
    if isinstance(doc, dict):
        children = [(key, f"{path}.{key}" if path else key)
                    for key in doc]
    elif isinstance(doc, list):
        children = [(n, f"{path}[{n}]") for n in range(len(doc))]
    else:
        return
    for key, sub in children:
        yield sub, keys + (key,), doc[key]
        yield from document_nodes(doc[key], sub, keys + (key,))


def mutation_cases(name):
    """(path, bad value, mutated document) for every node of a shipped
    document and every value of BAD_VALUES."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    for path, keys, _ in document_nodes(doc):
        for bad in BAD_VALUES:
            mutated = copy.deepcopy(doc)
            target = mutated
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = bad
            yield path, bad, mutated


@pytest.mark.parametrize("name", [
    "eom_schwarzschild", "minkowski_lambda1", "poincare_schwarzschild",
    "spherical_schwarzschild", "so3"])
def test_every_mutated_document_is_valid_or_names_its_path(tmp_path, capsys,
                                                           name):
    algebra = name == "so3"
    load, error = ((dgla_from_json, AlgebraFormatError) if algebra
                   else (scenario_from_dict, ScenarioError))
    original = {path: value for path, _, value in document_nodes(
        json.loads((SCENARIOS / f"{name}.json").read_text()))}
    refused = []
    for path, bad, doc in mutation_cases(name):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                load(doc)
            continue
        except error as exc:
            message = str(exc)
        named = PATH.match(message)
        assert named, (path, bad, message)
        named = named.group()
        # the error sits at the mutated node or below it; a rule that ties
        # fields together names the mutated path in its message; a renamed
        # basis label is reported where a bracket refers to the old label
        assert (named == path or named.startswith((f"{path}.", f"{path}["))
                or re.search(rf"(?<![\w.]){re.escape(path)}(?![\w.\[])",
                             message)
                or (algebra and path.endswith(".label")
                    and original.get(named) == original[path])), \
            (path, bad, message)
        refused.append(doc)
    assert refused
    commands = [["pc", "action"], ["mass", "adm"], ["killing", "residuals"],
                ["convergence"]]
    for n, doc in enumerate(refused[::23]):
        bad = tmp_path / f"bad{n}.json"
        bad.write_text(json.dumps(doc))
        out_dir = tmp_path / f"reports{n}"
        argv = (["algebra", "check", str(bad)] if algebra else
                [*commands[n % 4], "--scenario", str(bad),
                 "--out", str(out_dir)])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("command, quantity", [
    ("adm", "slice is not asymptotically flat"),
    ("komar", "Killing residual nan"),
])
def test_non_finite_mass_is_a_fail_verdict(tmp_path, capsys, command,
                                           quantity):
    # the default core radius 2M overflows, so the metric is NaN
    path = small_scenario_file(tmp_path, M=1e308, grid={"L": 8.0, "N": 9},
                               Ns=[5, 9], radii=[4.0, 5.0])
    out_dir = tmp_path / "reports"
    code, out = run(["mass", command, "--scenario", str(path),
                     "--out", str(out_dir)], tmp_path, capsys)
    assert code == 1
    body = json.loads(out)
    assert body["verdict"] == "fail"
    assert quantity in body["reason"]
    report = json.loads((out_dir / f"mass_{command}.json").read_text())
    assert report["body"] == body


HUGE_MASS_FAILURES = {"mass adm": "slice is not asymptotically flat",
                      "mass komar": "Killing residual nan",
                      "pc action": "error: tetrad degenerate",
                      "pc eom": "error: tetrad degenerate",
                      "killing residuals": "error: tetrad degenerate"}


@pytest.mark.parametrize("mass", [1e40, 1e300])
@pytest.mark.parametrize("command", HUGE_MASS_FAILURES)
def test_a_huge_mass_ends_as_an_infinite_one_does(tmp_path, capsys, mass,
                                                  command):
    # the core radius 2M is finite, but its powers in the core polynomial
    # overflow: the chart is NaN, as when 2M itself is inf (M = 1e308)
    path = small_scenario_file(tmp_path, M=mass, grid={"L": 8.0, "N": 9},
                               cutoff={"r": 2.0, "R": 3.0}, radii=[4.0, 5.0])
    out_dir = tmp_path / "reports"
    code = main([*command.split(), "--scenario", str(path),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    failure = HUGE_MASS_FAILURES[command]
    assert code == 1
    if command.startswith("mass"):
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["verdict"] == "fail" and failure in body["reason"]
    else:
        assert captured.out == ""
        assert captured.err.startswith(failure)
        assert captured.err.count("\n") == 1


SCENARIO_COMMANDS = ["pc action", "pc eom", "mass adm", "mass komar",
                     "killing residuals", "convergence"]


@pytest.mark.parametrize("half_width", [1e78, 1e200])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_a_box_whose_fourth_power_overflows_exits_2(tmp_path, capsys,
                                                    half_width, command):
    L = half_width
    path = small_scenario_file(tmp_path, grid={"L": L, "N": 9},
                               cutoff={"r": L / 10, "R": L / 2},
                               radii=[L / 3, L / 2])
    out_dir = tmp_path / "reports"
    code = main([*command.split(), "--scenario", str(path),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: grid.L: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_the_largest_box_runs_cleanly(tmp_path, capsys, command):
    L = 1e77
    path = small_scenario_file(tmp_path, grid={"L": L, "N": 9},
                               cutoff={"r": L / 10, "R": L / 2},
                               radii=[L / 3, L / 2], Ns=[9, 11, 13])
    code = main([*command.split(), "--scenario", str(path),
                 "--out", str(tmp_path / "reports"), "--threads", "1"])
    captured = capsys.readouterr()
    assert code in (0, 1, 3) and captured.err == ""
    json.loads(captured.out)


def empty_region_file(tmp_path, name, **changes):
    # at N = 7 on a box of half-width 20, no node 2 nodes off every face
    # lies outside r = 12 (the spatial radius there is at most 11.6)
    doc = json.loads((SCENARIOS / name).read_text())
    doc.update(radii=[8.0, 12.0], **changes)
    doc["grid"]["N"] = 7
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name, argv, at_fault", [
    ("spherical_schwarzschild.json", ["pc", "eom"], "grid.N"),
    ("poincare_schwarzschild.json", ["killing", "residuals"], "Ns[0]"),
    ("spherical_schwarzschild.json",
     ["convergence", "--Ns", "7,9,11", "--quantities", "leibniz", "torsion"],
     "Ns[0]"),
    ("spherical_schwarzschild.json",
     ["convergence", "--Ns", "7,9,11", "--quantities", "extra:L1"], "Ns[0]"),
], ids=["pc-eom", "killing", "convergence-torsion", "convergence-extra"])
def test_an_empty_norm_region_exits_2_naming_its_n(tmp_path, capsys, name,
                                                   argv, at_fault):
    # every norm on an empty region reads 0.0, which would pass as measured
    path = empty_region_file(tmp_path, name, Ns=[5, 7])
    out_dir = tmp_path / "reports"
    code = main([*argv, "--scenario", str(path), "--out", str(out_dir),
                 "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {at_fault}: the norm region")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["pc", "action"], ["mass", "adm"],
    ["convergence", "--Ns", "7,9,11", "--quantities", "leibniz"],
], ids=["pc-action", "mass-adm", "convergence-leibniz"])
def test_commands_without_region_norms_run_on_an_empty_region(
        tmp_path, capsys, argv):
    path = empty_region_file(tmp_path, "spherical_schwarzschild.json")
    code = main([*argv, "--scenario", str(path),
                 "--out", str(tmp_path / "reports"), "--threads", "1"])
    captured = capsys.readouterr()
    assert code != 2 and captured.err == ""
    json.loads(captured.out)
