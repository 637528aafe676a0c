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
from test_readme import README, library_example

import weakf
from weakf import charts, classifiers, cli, fstructure, report, submanifold
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


# The only places that build a point's state: every bundle takes the
# chunk's stacks, so no frame and no ambient point is built for a run.
# require_valid_frame builds an ambient point of its own to check an
# embedding's normal frame before any pack exists, and an induced field's
# value reads that of its point.
BUILDERS = {
    "PackFrame": set(),
    "_AmbientPoint": {("submanifold.py", "require_valid_frame"),
                      ("submanifold.py", "value")},
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
# require_valid_frame check it, also where no pack exists.
AMBIENT_ONLY = {"frame_check", "require_valid_frame"}


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
    # frame stack; none takes them as separate arguments
    bad = []
    for name in ("classifiers.py", "fstructure.py", "submanifold.py"):
        tree = ast.parse((Path(weakf.__file__).parent / name).read_text(
            encoding="utf-8"))
        bad += [f"{name}:{line} {fn}" for fn, line in _point_parameters(tree)]
    assert bad == []


def _sources():
    """(path, source) of every module of the package and of the tests, and
    README's library example."""
    for path in [*sorted(Path(weakf.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py"))]:
        yield path, path.read_text(encoding="utf-8")
    yield README, library_example()


def test_an_induced_pack_builds_its_own_ambient_stack():
    # an induced pack carries its submanifold, and its frame stack builds
    # the ambient stack of its rows from it: only submanifold.py builds an
    # ambient stack, and no caller hands one to a frame stack
    own = Path(submanifold.__file__)
    bad = []
    for path, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if _callee(node) == "_AmbientStack" and path != own:
                bad.append(f"{path.name}:{node.lineno} _AmbientStack")
            if (_callee(node) == "FrameStack"
                    and len(node.args) + len(node.keywords) > 3):
                bad.append(f"{path.name}:{node.lineno} FrameStack")
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


# The methods that draw from a numpy generator.
_DRAWS = {name for name in dir(np.random.Generator)
          if not name.startswith("_") and name not in ("bit_generator", "spawn")}


def _draws(node, module, where="<module>"):
    """(module, innermost enclosing function) of every call ``x.name(...)``
    of a generator's draw method ``name``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in _DRAWS):
            yield module, where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _draws(child, module, inner)


def test_only_sampling_draws_from_a_point_generator():
    # a point's generator (sampling.point_rng) is drawn in sampling alone,
    # where the test vectors take every random number of the point, so no
    # check depends on what was read before it. The one other draw is the
    # chart's own generator, which draws the sample points.
    found = set()
    for path in Path(weakf.__file__).parent.glob("*.py"):
        if path.name != "sampling.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.update(_draws(tree, path.name))
    assert found == {("charts.py", "sample")}


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
        agg.add(np.array([v]))
    assert math.isnan(agg.max)
    entry = report._entry("qf_commute", "qf_commute", agg, 1e-9, True)
    assert entry["verdict"] == "fail"

    # a residual that is NaN at the second point and +inf at the third: rows
    # 1 and 2 of the stacked map of the run's one chunk
    axioms = vars(fstructure.FrameStack)["axioms"].func

    def injected(edit):
        def build(stack):
            res = axioms(stack)
            res["qf_commute"] = edit(res["qf_commute"].copy())
            return res
        prop = cached_property(build)
        prop.__set_name__(fstructure.FrameStack, "axioms")
        monkeypatch.setattr(fstructure.FrameStack, "axioms", prop)

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


def test_array_parameters_render_as_lists():
    # numpy arrays in the parameters render as the lists they hold: the
    # report of ndarray block weights is the report of the list
    texts = [report.render_json(run_suite(SuiteConfig(
        "flat_pack", params={"n": 2, "scales": scales}, samples=2)))
        for scales in (np.array([1.0, 2.0]), [1.0, 2.0])]
    assert texts[0] == texts[1]
    # a rotation matrix is echoed as its validated floats, not as numpy's
    # printout, which depends on the print options
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, 0, -s, 0], [0, 1, 0, 0], [s, 0, c, 0], [0, 0, 0, 1]])
    config = SuiteConfig("rotated_pack", params={"n": 2, "rotation": rotation},
                         samples=2)
    rendered = report.render_json(run_suite(config))
    doc = json.loads(rendered)
    assert doc["object"]["params"]["rotation"] == rotation.tolist()
    assert doc["config"]["params"]["rotation"] == rotation.tolist()
    assert f"'rotation': {rotation.tolist()}" in report.render_text(
        run_suite(config))
    with np.printoptions(precision=3):
        assert report.render_json(run_suite(config)) == rendered


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
                one.add(np.array([v]))
                folded.add(np.array([v]))
            for v in row.tolist():
                one.add(np.array([v]))
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


def test_report_digests_compare_names_every_other_field(tmp_path, capsys):
    # two dumps that differ in a field other than the verdict and the
    # residuals, or in an entry of one side only, differ: the field or the
    # entry is named and the exit status is 1
    before, after = tmp_path / "before", tmp_path / "after"
    for out in (before, after):
        dump_reports(out, CONFIGS[:1], samples=2, seeds=[42])
    compare = ["--compare", str(before), str(after)]
    (path,) = after.iterdir()
    original = json.loads(path.read_text(encoding="utf-8"))
    entry = original["suites"]["axioms"][0]
    identity = f"axioms.{entry['identity']}"

    def edited(edit):
        rep = json.loads(json.dumps(original))
        edit(rep["suites"]["axioms"])
        path.write_text(json.dumps(rep), encoding="utf-8")
        capsys.readouterr()
        code = report_digests.main(compare)
        return code, capsys.readouterr().out

    code, out = edited(lambda e: e[0].update(formula=e[0]["formula"] + " "))
    assert code == 1
    assert "0 verdict changes, max |delta residual| 0.00e+00" in out
    assert out.count("  differs: ") == 1 and f"  differs: {identity} formula" in out
    for field, value in (("tolerance", entry["tolerance"] * 10),
                         ("points", entry["points"] + 1),
                         ("counted", not entry["counted"]),
                         ("note", "a note")):
        code, out = edited(lambda e: e[0].update({field: value}))
        assert code == 1 and f"  differs: {identity} {field}\n" in out, field
    code, out = edited(lambda e: e[0].pop("formula"))
    assert code == 1 and f"  differs: {identity} formula" in out
    code, out = edited(lambda e: e.pop(0))
    assert code == 1 and f"  differs: {identity} only in A" in out
    code, out = edited(lambda e: e.append(dict(entry, identity="extra")))
    assert code == 1 and "  differs: axioms.extra only in B" in out
    code, out = edited(lambda e: None)
    assert code == 0 and "differs" not in out


# The digests of every reference report at 10 samples, seeds 42 and 7, as
# tests/report_digests.py prints them: the byte-identity gate of a change
# that must not move any report.
PINNED_DIGESTS = Path(__file__).resolve().parent / "report_digests.txt"

RECIPE = """\
A change that must not move any report leaves every digest as pinned. An
arithmetic change is compared against the commit before it:
    PYTHONPATH=src python tests/report_digests.py --dump before   # old commit
    PYTHONPATH=src python tests/report_digests.py --dump after    # new commit
    PYTHONPATH=src python tests/report_digests.py --compare before after
and, with the change explained in CHANGES.md, pinned again:
    PYTHONPATH=src python tests/report_digests.py --samples 10 --seeds 42,7 \\
        > tests/report_digests.txt"""


def _by_config(lines):
    """{(seed, argv): the digests} of digest lines."""
    out = {}
    for line in lines:
        seed, json_sum, text_sum, argv = line.split(" ", 3)
        out[seed, argv] = json_sum, text_sum
    return out


def test_reports_match_the_pinned_digests():
    pinned = _by_config(PINNED_DIGESTS.read_text(encoding="utf-8").splitlines())
    got = _by_config(digest_lines(CONFIGS, 10, [42, 7]))
    changed = [f"  seed {seed}: {argv}" for seed, argv in sorted(
        pinned.keys() | got.keys()) if pinned.get((seed, argv)) != got.get(
            (seed, argv))]
    assert not changed, "\n".join(["reports differ from the pinned digests:",
                                   *changed, RECIPE])


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


def _reports_at_each_chunk_size(monkeypatch, argv=GATED, suite="submanifold"):
    texts = []
    for chunk in (1, 4, 16):
        monkeypatch.setattr(charts, "CHUNK", chunk)
        texts.append(report_digests.report_texts(argv.split(), 10, 42))
    assert texts[0] == texts[1] == texts[2]
    return json.loads(texts[0][0])["suites"][suite]


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


# A gate of both stacked f-K-contact bundles, Phi = d eta, that fails from
# sample 7 of 10 on sasakian_s3, where both bundles run.
FK_GATED = "--example sasakian_s3"


def _patch_stack_rows(monkeypatch, name, rows):
    """``FrameStack.name`` built by ``rows(stack, the original build)``."""
    build = vars(fstructure.FrameStack)[name].func
    prop = cached_property(lambda st: rows(st, build))
    prop.__set_name__(fstructure.FrameStack, name)
    monkeypatch.setattr(fstructure.FrameStack, name, prop)


def _fail_phi_equals_deta(monkeypatch):
    _patch_stack_rows(monkeypatch, "phi_equals_deta", lambda st, build: (
        np.where(_late(st, FAIL_FROM), 0.5, build(st))))


def test_fk_gate_failing_inside_a_chunk_skips_as_point_by_point(monkeypatch):
    # both bundles read the Phi = d eta row: each skips with a note naming
    # sample 7, whatever the chunk size
    _fail_phi_equals_deta(monkeypatch)
    entries = _reports_at_each_chunk_size(monkeypatch, FK_GATED, "theorems")
    note = "hypothesis failed: phi_equals_deta (residual 5.000e-01 at point 7)"
    assert _skipped(entries, "fk_contact_nabla") == note
    assert _skipped(entries, "thm32_chain") == note


class _CountingGenerator:
    """A point's generator that counts its draws."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def standard_normal(self, *args, **kwargs):
        self.counts["draws"] += 1
        return self.rng.standard_normal(*args, **kwargs)


def test_fk_gate_failing_at_the_first_point_computes_nothing(monkeypatch):
    # Phi = d eta fails at every point of flat_pack: both bundles raise at
    # each chunk's first point before the body, so no curvature is built
    # and each generator draws only the test vectors
    counts = {"reeb_curvature": 0, "draws": 0}

    def counted(st, build):
        counts["reeb_curvature"] += 1
        return build(st)

    _patch_stack_rows(monkeypatch, "reeb_curvature", counted)
    point_rng = fstructure.point_rng
    monkeypatch.setattr(fstructure, "point_rng", lambda *args: (
        _CountingGenerator(point_rng(*args), counts)))
    samples = charts.CHUNK + 4
    rep = run_suite(SuiteConfig(example="flat_pack", params={"n": 2, "s": 2},
                                samples=samples))
    assert counts == {"reeb_curvature": 0, "draws": samples}
    notes = {e["identity"]: e.get("note") for e in rep["suites"]["theorems"]}
    assert notes["fk_contact_nabla"] == notes["thm32_chain"]
    assert notes["thm32_chain"].startswith(
        "hypothesis failed: phi_equals_deta") and "at point 0)" in notes[
            "thm32_chain"]


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_curvature_raising_before_the_failing_fk_gate_exits_three(
        monkeypatch, capsys, chunk):
    # the Reeb curvature raises at sample 3 and Phi = d eta fails from
    # sample 7: the chain's rows are computed before its gate raises, so the
    # run fails at sample 3 instead of skipping
    _fail_phi_equals_deta(monkeypatch)

    def raising(st, build):
        if st.rows.start <= 3 < st.rows.start + len(st.rows):
            raise RuntimeError("the curvature refused sample 3")
        return build(st)

    _patch_stack_rows(monkeypatch, "reeb_curvature", raising)
    monkeypatch.setattr(charts, "CHUNK", chunk)
    assert cli.main(["verify", *FK_GATED.split(), "--samples", "10"]) == 3
    assert ("evaluation failed in theorems.thm32_chain[point 3]: "
            "RuntimeError: the curvature refused sample 3"
            ) in capsys.readouterr().err


# A gate, normality (N1 = 0), that fails from sample 7 of 10 on
# sasakian_s3: prop_normal and the rigidity corollary read it.
def _fail_n1_zero(monkeypatch):
    _patch_stack_rows(monkeypatch, "n1_zero", lambda st, build: (
        np.where(_late(st, FAIL_FROM), 0.5, build(st))))


def _refusing(monkeypatch, which, sample):
    """The body of the theorem bundle ``which``, refusing the chunk that
    holds ``sample``."""
    body = classifiers._THEOREMS[which]

    def refusing(st):
        if st.rows.start <= sample < st.rows.start + len(st.rows):
            raise RuntimeError(f"the body refused sample {sample}")
        return body(st)

    monkeypatch.setitem(classifiers._THEOREMS, which, refusing)


def test_normality_failing_inside_a_chunk_skips_as_point_by_point(
        monkeypatch):
    # the normality row fails from sample 7: both bundles that read it skip
    # with a note naming sample 7, whatever the chunk size
    _fail_n1_zero(monkeypatch)
    entries = _reports_at_each_chunk_size(monkeypatch, FK_GATED, "theorems")
    note = "(residual 5.000e-01 at point 7)"
    assert _skipped(entries, "prop_normal") == (
        f"hypothesis failed: normality {note}")
    assert _skipped(entries, "corollary_rigidity") == (
        f"hypothesis failed: normal {note}")


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_prop_normal_raising_before_the_failing_gate_exits_three(
        monkeypatch, capsys, chunk):
    # prop_normal's body, over the chunk's stack, raises on the chunk
    # holding sample 3, and its normality gate fails from sample 7: the body
    # runs before the gate raises, and walked alone sample 3 raises first,
    # so the run fails at sample 3 instead of skipping
    _fail_n1_zero(monkeypatch)
    _refusing(monkeypatch, "prop_normal", 3)
    monkeypatch.setattr(charts, "CHUNK", chunk)
    assert cli.main(["verify", *FK_GATED.split(), "--samples", "10"]) == 3
    assert ("evaluation failed in theorems.prop_normal[point 3]: "
            "RuntimeError: the body refused sample 3"
            ) in capsys.readouterr().err


def test_prop_normal_raising_after_the_failing_gate_still_skips(monkeypatch):
    # the body raises only on the chunk holding sample 9, and its gate fails
    # from sample 7: whatever the chunk size, sample 7 skips the bundle
    # first (a chunk holding both is walked again one point at a time), and
    # no later chunk runs it
    _fail_n1_zero(monkeypatch)
    _refusing(monkeypatch, "prop_normal", 9)
    entries = _reports_at_each_chunk_size(monkeypatch, FK_GATED, "theorems")
    assert _skipped(entries, "prop_normal") == (
        "hypothesis failed: normality (residual 5.000e-01 at point 7)")


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_stacked_body_raising_before_the_failing_gate_exits_three(
        monkeypatch, capsys, chunk):
    # thm01_i's body, over the chunk's stack, raises on the chunk holding
    # sample 3, and its eta o N1 gate fails from sample 7: the body runs
    # before the gate raises, and walked alone sample 3 raises first, so
    # the run fails at sample 3 instead of skipping
    _patch_stack_rows(monkeypatch, "eta_circ_n1", lambda st, build: (
        np.where(_late(st, FAIL_FROM), 0.5, build(st))))
    _refusing(monkeypatch, "thm01_i", 3)
    monkeypatch.setattr(charts, "CHUNK", chunk)
    assert cli.main(["verify", *FK_GATED.split(), "--samples", "10"]) == 3
    assert ("evaluation failed in theorems.thm01_i[point 3]: "
            "RuntimeError: the body refused sample 3"
            ) in capsys.readouterr().err


def test_normality_failing_everywhere_skips_prop_normal_alone(monkeypatch):
    # normality fails at every point of sasakian_s3: prop_normal skips at
    # each chunk's first point before its body runs, while the stacked
    # bodies of prop1, thm01_i and thm01_ii report their rows; no frame is
    # built
    _patch_stack_rows(monkeypatch, "n1_zero",
                      lambda st, build: np.full(len(st.rows), 0.5))
    built = []
    init = fstructure.PackFrame.__init__
    monkeypatch.setattr(fstructure.PackFrame, "__init__",
                        lambda fr, *a, **k: built.append(1) or init(fr, *a, **k))
    rep = run_suite(SuiteConfig(example="sasakian_s3", suites=("theorems",),
                                samples=charts.CHUNK + 4))
    assert _skipped(rep["suites"]["theorems"], "prop_normal") == (
        "hypothesis failed: normality (residual 5.000e-01 at point 0)")
    for which in ("prop1", "thm01_i", "thm01_ii"):
        verdicts = [e["verdict"] for e in rep["suites"]["theorems"]
                    if e["identity"].split(".")[0] == which]
        assert len(verdicts) >= 2 and set(verdicts) == {"pass"}, which
    assert built == []


def test_no_frame_is_built_where_every_theorem_gate_fails_at_once(
        monkeypatch):
    # the weak-skew sphere fails the axioms at every point: every theorem
    # bundle raises at each chunk's first point, before any body runs
    built = []
    init = fstructure.PackFrame.__init__
    monkeypatch.setattr(fstructure.PackFrame, "__init__",
                        lambda fr, *a, **k: built.append(1) or init(fr, *a, **k))
    rep = run_suite(SuiteConfig(
        example="hypersphere", params={"n": 1, "ambient_skew": "weak"},
        suites=("theorems",), samples=charts.CHUNK + 4))
    assert all(e["verdict"] == "skipped" for e in rep["suites"]["theorems"])
    assert built == []

