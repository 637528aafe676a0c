"""Report assembly: the formula registry, the independence of suites, and
where a point's state is built."""

import ast
import hashlib
import json
import math
import struct
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import report_digests
from report_digests import CONFIGS, digest_lines, dump_reports

import weakf
from weakf import charts, cli, fstructure, report, submanifold
from weakf.errors import InvalidExample
from weakf.classifiers import THEOREM_CHECKS
from weakf.report import SUITES, SuiteConfig, run_suite

EXAMPLES = (
    ("flat_pack", {}),
    ("rotated_pack", {}),
    ("product_pack", {"n": 1, "s": 2}),
    ("sasakian_s3", {}),
    ("hypersphere", {"n": 1}),
    ("hypersphere", {"n": 1, "ambient_skew": "weak"}),
    ("linear_subspace", {"n": 1, "s": 2}),
)
SAMPLES = 6


def _suites(example, params, suites):
    cfg = SuiteConfig(example=example, params=params, suites=suites,
                      samples=SAMPLES)
    return run_suite(cfg)["suites"]


@pytest.fixture(scope="module")
def full_runs():
    """All-suite entries of every example, and the formula keys looked up."""
    used = set()

    class Recording(dict):
        def __getitem__(self, key):
            used.add(key)
            return super().__getitem__(key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "FORMULAS", Recording(report.FORMULAS))
        runs = [_suites(ex, params, SUITES) for ex, params in EXAMPLES]
    return runs, used


def test_every_formula_row_is_emitted(full_runs):
    runs, used = full_runs
    assert used == set(report.FORMULAS)
    for suites in runs:
        for entries in suites.values():
            for e in entries:
                assert e["formula"], e["identity"]


def test_suite_entries_do_not_depend_on_other_suites(full_runs):
    runs, _ = full_runs
    for (ex, params), full in zip(EXAMPLES, runs):
        assert _suites(ex, params, SUITES[::-1]) == full, ex
        for suite in SUITES:
            if suite not in full:
                # a run in which no requested suite applies is refused
                with pytest.raises(InvalidExample):
                    _suites(ex, params, (suite,))
                continue
            alone = _suites(ex, params, (suite,))
            assert alone == {suite: full[suite]}, (ex, params, suite)


# The only places that build a point's state: the runner's walk of a chunk
# builds a frame per point for the theorem checks, which read the chunk's
# stacks through it, and the submanifold checks take the chunk's stacks; no
# ambient point is built for a run. require_valid_frame builds one of its
# own to check an embedding's normal frame before any pack exists.
BUILDERS = {
    "PackFrame": {("report.py", "walk")},
    "_AmbientPoint": {("submanifold.py", "require_valid_frame")},
}


def _callee(call):
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _builds(node, module, where="<module>"):
    """(class, module, innermost enclosing function) of every build call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _callee(child) in BUILDERS:
            yield _callee(child), module, where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _builds(child, module, inner)


def test_point_state_is_built_only_by_the_runner():
    built = set()
    for path in Path(weakf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        built.update(_builds(tree, path.name))
    for name, allowed in BUILDERS.items():
        assert {(m, fn) for n, m, fn in built if n == name} == allowed, name


# The definitions that take the ambient data itself: frame_check and
# require_valid_frame check it, also where no pack exists, and the
# constructor of a frame stack takes the ambient stack it reads the induced
# jets from.
AMBIENT_ONLY = {"frame_check", "require_valid_frame", "__init__"}


def _point_parameters(node):
    """(name, line) of every function or lambda under ``node`` outside
    AMBIENT_ONLY that has a parameter named ``V``, ``ap`` or ``ambient``."""
    for child in ast.iter_child_nodes(node):
        if getattr(child, "name", None) in AMBIENT_ONLY:
            continue
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            a = child.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg in ("V", "ap", "ambient")
                   for p in params):
                yield getattr(child, "name", "<lambda>"), child.lineno
        yield from _point_parameters(child)


def test_checks_take_the_frame_alone():
    # every check reads the test vectors and the ambient data from the
    # point's frame or the chunk's stack; none takes them as separate
    # arguments
    bad = []
    for name in ("classifiers.py", "fstructure.py", "submanifold.py"):
        tree = ast.parse((Path(weakf.__file__).parent / name).read_text(
            encoding="utf-8"))
        bad += [f"{name}:{line} {fn}" for fn, line in _point_parameters(tree)]
    assert bad == []


def _catches_everything(handler):
    """``except:``, ``except Exception`` or ``except BaseException``, alone
    or in a tuple."""
    if handler.type is None:
        return True
    types = getattr(handler.type, "elts", [handler.type])
    return any(getattr(t, "id", None) in ("Exception", "BaseException")
               for t in types)


def _broad_handlers(node, module, where="<module>"):
    """(module, innermost enclosing function) of every handler that catches
    every exception."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and _catches_everything(child):
            yield module, where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _broad_handlers(child, module, inner)


def test_only_the_runner_catches_every_exception():
    # which point an exception belongs to is decided in one place: the
    # runner retries the point on stacks of its own; no stack or frame
    # catches and re-routes a failure
    found = set()
    for path in Path(weakf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_broad_handlers(tree, path.name))
    assert found == {("report.py", "run_suite")}


def _np_call(node, name):
    """``node`` is a call of ``np.<name>``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _unplanned_multi_operand(call):
    """An ``einsum`` call with three or more operands, or with ``optimize=``."""
    operands = call.args[1:]
    return (len(operands) > 2
            or any(isinstance(a, ast.Starred) for a in operands)
            or any(k.arg == "optimize" for k in call.keywords))


def test_no_unplanned_multi_operand_einsum_in_src():
    # every contraction in the package is a chain of steps with at most two
    # operands each (pair_form, lead_dot, @ or a two-operand einsum), none
    # asks numpy for a contraction plan, and none pays np.tensordot's
    # argument handling
    bad = []
    for path in sorted(Path(weakf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (_np_call(node, "einsum") and _unplanned_multi_operand(node)
                    or _np_call(node, "tensordot")):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


def test_jets_are_converted_only_in_jets_module():
    # every jet-to-array conversion is the one bulk converter, jets.arrays;
    # the per-scalar parts/value_of route is left to the test oracle
    bad = []
    for path in sorted(Path(weakf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _callee(node) in ("parts", "value_of"):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


def _strict_loads(text):
    """``json.loads`` that refuses the bare NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_nan_residual_fails_its_entry(capsys, monkeypatch):
    # a NaN residual must stay the entry's max and fail it, wherever it falls
    # among the points
    agg = report._Agg()
    for v in (1e-20, math.nan, 1e-20):
        agg.add(v)
    assert math.isnan(agg.max)
    entry = report._entry("qf_commute", "qf_commute", agg, 1e-9, True)
    assert entry["verdict"] == "fail"

    # a residual that is NaN at the second point and +inf at the third: rows
    # 1 and 2 of the stacked map of the run's one chunk
    axioms = vars(fstructure._FrameStack)["axioms"].func

    def injected(edit):
        def build(stack):
            res = axioms(stack)
            res["qf_commute"] = edit(res["qf_commute"].copy())
            return res
        prop = cached_property(build)
        prop.__set_name__(fstructure._FrameStack, "axioms")
        monkeypatch.setattr(fstructure._FrameStack, "axioms", prop)

    def non_finite(row):
        row[1:3] = math.nan, math.inf
        return row

    injected(non_finite)
    argv = ["verify", "--example", "flat_pack", "--param", "n=1", "--param",
            "s=1", "--suites", "axioms", "--samples", "3"]
    assert cli.main([*argv, "--format", "json"]) == 1
    # strict JSON: the non-finite max and mean are named by strings
    rep = _strict_loads(capsys.readouterr().out)
    assert rep["overall"]["verdict"] == "fail"
    (entry,) = [e for e in rep["suites"]["axioms"] if e["identity"] == "qf_commute"]
    assert entry["max_residual"] == "NaN" and entry["mean_residual"] == "NaN"
    assert entry["verdict"] == "fail"
    assert "qf_commute" in rep["overall"]["failures"]
    assert cli.main([*argv, "--format", "text"]) == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if " qf_commute " in ln]
    assert line.split()[2:5] == ["nan", "nan", "fail"]
    # an infinite residual is written the same way
    assert report.render_json({"r": [math.inf, -math.inf]}).split() == [
        "{", '"r":', "[", '"Infinity",', '"-Infinity"', "]", "}"]

    # a NaN axiom that is not the first of the map: the class that conjoins
    # the axioms fails with a NaN max, and the axiom gate of every theorem
    # bundle skips it
    def nan_axiom(row):
        row[:] = math.nan
        return row

    injected(nan_axiom)
    rep = run_suite(SuiteConfig(example="sasakian_s3", samples=3,
                                suites=("axioms", "classes", "theorems")))
    (entry,) = [e for e in rep["suites"]["classes"]
                if e["identity"] == "weak_metric_f"]
    assert math.isnan(entry["max_residual"]) and entry["verdict"] == "fail"
    theorems = rep["suites"]["theorems"]
    assert [e["identity"] for e in theorems] == list(THEOREM_CHECKS)
    for e in theorems:
        assert e["verdict"] == "skipped"
        assert e["note"].startswith("hypothesis failed: weak_metric_f_axioms")


def _state(agg):
    """An aggregate's max and total bit for bit, and its count."""
    return struct.pack("<dd", agg.max, agg.total), agg.count


def test_agg_folds_a_row_as_one_value_at_a_time():
    # a chunk's row of residuals folds into an entry exactly as its points'
    # values added one at a time in point order: the same max (a NaN stays
    # it), the same sum bit for bit, the same count
    base = [1e-3, 2.5, 0.25, 1e-9]
    rows = []
    for special in (math.nan, math.inf):
        for k in range(len(base)):
            row = np.array(base)
            row[k] = special
            rows.append(row)
    rows += [np.array(base), np.array([-0.0, -0.0]), np.array([-0.0, 0.0]),
             np.array([-1.0, -3.0, -2.0])]
    for row in rows:
        for before in ((), (0.75,), (-0.0,), (math.nan,), (math.inf,)):
            one, folded = report._Agg(), report._Agg()
            for v in before:
                one.add(v)
                folded.add(v)
            for v in row.tolist():
                one.add(v)
            folded.add(row)
            assert _state(folded) == _state(one), (before, row)
            seen = [*before, *row.tolist()]
            assert math.isnan(folded.max) == any(map(math.isnan, seen))
            assert folded.count == len(seen)
    # a row whose values are all below zero leaves the max at 0.0
    agg = report._Agg()
    agg.add(np.array([-1.0, -3.0]))
    assert _state(agg) == (struct.pack("<dd", 0.0, -4.0), 2)


def test_report_digests_match_the_command_line(capsys):
    # the byte-identity tool hashes exactly what `weakf verify` prints
    config = CONFIGS[0]
    (line,) = digest_lines([config], samples=2, seeds=[42])
    seed, json_sum, text_sum, argv = line.split(" ", 3)
    assert (seed, argv) == ("42", config)
    for fmt, expected in (("json", json_sum), ("text", text_sum)):
        assert cli.main(["verify", *config.split(), "--samples", "2",
                         "--seed", "42", "--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert hashlib.sha256(printed.encode()).hexdigest() == expected, fmt


def test_report_digests_compare_mode(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    for out in (before, after):
        dump_reports(out, CONFIGS[:1], samples=2, seeds=[42])
    compare = ["--compare", str(before), str(after)]
    assert report_digests.main(compare) == 0
    (path,) = after.iterdir()
    original = path.read_text(encoding="utf-8")
    entry = json.loads(original)["suites"]["axioms"][0]
    identity = f"axioms.{entry['identity']}"

    def edited(**changes):
        rep = json.loads(original)
        rep["suites"]["axioms"][0].update(changes)
        path.write_text(json.dumps(rep), encoding="utf-8")
        capsys.readouterr()
        code = report_digests.main(compare)
        return code, capsys.readouterr().out

    # a residual that moved by more than the arithmetic gate allows
    code, out = edited(max_residual=entry["max_residual"] + 1e-13)
    assert code == 1
    assert ("0 verdict changes, max |delta residual| 1.00e-13 at "
            f"{identity} max_residual") in out
    # the entry and field of the largest of several moves is named
    code, out = edited(max_residual=entry["max_residual"] + 1e-13,
                       mean_residual=entry["mean_residual"] + 3e-13)
    assert f"max |delta residual| 3.00e-13 at {identity} mean_residual" in out
    # no move, no entry
    code, out = edited()
    assert code == 0 and out.rstrip().endswith("max |delta residual| 0.00e+00")
    # a move within the gate passes
    assert edited(max_residual=entry["max_residual"] + 5e-15)[0] == 0
    # a flipped verdict fails and is named
    code, out = edited(verdict="fail")
    assert code == 1
    assert "1 verdict changes" in out and f"changed: {identity}" in out
    # a non-finite residual matches only the same string
    path.write_text(original, encoding="utf-8")
    for out in (before, after):
        rep = json.loads((out / path.name).read_text(encoding="utf-8"))
        rep["suites"]["axioms"][0]["max_residual"] = "NaN"
        (out / path.name).write_text(json.dumps(rep), encoding="utf-8")
    assert report_digests.main(compare) == 0
    for changed in ("Infinity", entry["max_residual"]):
        code, out = edited(max_residual=changed)
        assert code == 1 and "max |delta residual| inf" in out, changed


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # row k of every stack is bitwise what point k alone would get, so
    # whole reports are byte-identical whatever the chunk size
    def reports():
        return [report_digests.report_texts(argv.split(), 10, 42)[0]
                for argv in CONFIGS]

    reference = reports()
    for chunk in (1, 4):
        monkeypatch.setattr(charts, "CHUNK", chunk)
        for argv, ref, text in zip(CONFIGS, reference, reports()):
            assert text == ref, (chunk, argv)


# A gate of a stacked submanifold bundle that fails from sample 7 of 10: in
# the middle of the one chunk at CHUNK 16, at the last row of the second
# chunk at CHUNK 4, and alone at CHUNK 1.
FAIL_FROM = 7
GATED = "--example hypersphere --param n=1"


def _late(st, start):
    """The rows of the stack ``st`` at sample ``start`` and after."""
    return st.rows.start + np.arange(len(st.rows)) >= start


def _fail_nearly_kahler(monkeypatch):
    rows = vars(submanifold._AmbientStack)["nearly_kahler"].func
    prop = cached_property(
        lambda a: np.where(_late(a, FAIL_FROM), 0.5, rows(a)))
    prop.__set_name__(submanifold._AmbientStack, "nearly_kahler")
    monkeypatch.setattr(submanifold._AmbientStack, "nearly_kahler", prop)


def _reports_at_each_chunk_size(monkeypatch):
    texts = []
    for chunk in (1, 4, 16):
        monkeypatch.setattr(charts, "CHUNK", chunk)
        texts.append(report_digests.report_texts(GATED.split(), 10, 42))
    assert texts[0] == texts[1] == texts[2]
    return json.loads(texts[0][0])["suites"]["submanifold"]


def _skipped(entries, prefix):
    (entry,) = [e for e in entries if e["identity"].split(".")[0] == prefix]
    assert entry["identity"] == prefix and entry["verdict"] == "skipped"
    return entry["note"]


def test_gate_failing_inside_a_chunk_skips_as_point_by_point(monkeypatch):
    # both cases read the nearly-Kahler row: each skips with a note naming
    # sample 7, whatever the chunk size, and the other bundles are kept
    _fail_nearly_kahler(monkeypatch)
    entries = _reports_at_each_chunk_size(monkeypatch)
    note = ("hypothesis failed: ambient_weak_nearly_kahler "
            "(residual 5.000e-01 at point 7)")
    assert _skipped(entries, "case_i") == _skipped(entries, "case_ii") == note
    assert any(e["identity"] == "parallel_q.q_parallel_d" for e in entries)


@pytest.mark.parametrize("first_from, gate", [
    (FAIL_FROM, "fbar_sq_normal_is_normal"),
    (FAIL_FROM + 1, "tangential_nabla_fbar_sq"),
])
def test_parallel_q_gates_failing_inside_a_chunk(monkeypatch, first_from,
                                                 gate):
    # the second hypothesis fails from sample 7, the first from
    # ``first_from``: the note names sample 7 and its first failing
    # hypothesis in the order they are checked
    hypotheses = submanifold._parallel_q_hypotheses

    def failing(st):
        rows = hypotheses(st)
        for key, start in (("fbar_sq_normal_is_normal", first_from),
                           ("tangential_nabla_fbar_sq", FAIL_FROM)):
            rows[key] = np.where(_late(st, start), 0.25, rows[key])
        return rows

    monkeypatch.setattr(submanifold, "_parallel_q_hypotheses", failing)
    entries = _reports_at_each_chunk_size(monkeypatch)
    assert _skipped(entries, "parallel_q") == (
        f"hypothesis failed: {gate} (residual 2.500e-01 at point 7)")
    assert any(e["identity"] == "case_i.h_display" for e in entries)


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_body_raising_before_the_failing_gate_exits_three(monkeypatch, capsys,
                                                         chunk):
    # the case-free rows of thsubm raise at sample 3 and the gate fails
    # from sample 7: every row is computed before the gate raises, so the
    # run fails at sample 3 instead of skipping
    _fail_nearly_kahler(monkeypatch)
    parts = submanifold._AmbientStack.thsubm_parts

    def raising(ambient, st):
        if ambient.rows.start <= 3 < ambient.rows.start + len(ambient.rows):
            raise RuntimeError("the body refused sample 3")
        return parts(ambient, st)

    monkeypatch.setattr(submanifold._AmbientStack, "thsubm_parts", raising)
    monkeypatch.setattr(charts, "CHUNK", chunk)
    assert cli.main(["verify", *GATED.split(), "--samples", "10"]) == 3
    assert ("evaluation failed in submanifold.case_i[point 3]: RuntimeError: "
            "the body refused sample 3") in capsys.readouterr().err
