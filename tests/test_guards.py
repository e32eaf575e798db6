"""Guards on the package's shape rather than on its results.

Every certificate refusal (`raise IntegrityError`) has a test that makes
it fire, so does every budget refusal (`raise UnsupportedError`), and
every function and class is reached from inside the
package unless it is listed here with a reason, and so is every record
field; a field of a record the CLI prints is a key of the printed
reports.  These lists are read from the source with `ast`, so a new
refusal without a test, or a new name or field only the tests read,
fails here.  Only `ff`, which holds the kernel, may name the field's
memos, and README's Layout lists exactly the package's modules.  The
benchmark's per-layer metrics are keyed on names its tracer wraps, so
deleting or renaming one of those names fails here too.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

from astower import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "astower"
TESTS = ROOT / "tests"

# (file, message) of each refusal, "{}" standing for a formatted field,
# and the test that reaches it with one input or intermediate mutated.
MUTANTS = {
    ("cli.py", "commutator at basis pair ({}, {}) is not the expected "
               "central shift"):
        "test_cli.py::test_commutators_refuse_a_certified_shift_with_the_"
        "wrong_commutator",
    ("cli.py", "two same-kind shifts do not commute"):
        "test_cli.py::test_commutators_refuse_same_kind_shifts_that_do_not_"
        "commute",
    ("cli.py", "translation {} is not its basis sum"):
        "test_cli.py::test_prolong_refuses_a_broken_certificate",
    ("genus.py", "conductor exponent {} is not reduced for p={}"):
        "test_genus.py::test_rh_genus_rejects_bad_jumps",
    ("genus.py", "genus came out half-integral"):
        "test_genus.py::test_rh_genus_rejects_bad_jumps",
    ("genus.py", "genus came out negative"):
        "test_genus.py::test_rh_genus_rejects_bad_jumps",
    ("genus.py", "class counts fail to cover the dual space"):
        "test_cli.py::test_class_report_refuses_a_ladder_that_misses_a_class",
    ("genus.py", "class {}: lines by conductor {} up to this class, the "
                 "ladder predicts {}"):
        "test_genus.py::test_class_conductors_reject_a_wrong_ladder",
    ("genus.py", "{} lines do not exhaust a dual space over F_{}"):
        "test_genus.py::test_gs_aggregate_rejects_partial_dual_space",
    ("genus.py", "aggregate genus came out negative"):
        "test_genus.py::test_gs_aggregate_rejects_negative_total",
    ("genus.py", "two-floor aggregate {} disagrees with closed form {}"):
        "test_genus.py::test_ree_aggregate_takes_precomputed_groups",
    ("local.py", "uniformizer residual must start 1*z^{}, got valuation {}"):
        "test_cli.py::test_class_report_refuses_a_wrong_uniformizer_residual",
    ("local.py", "additive reduction failed its replay check"):
        "test_cli.py::test_class_report_refuses_a_wrong_p_root",
    ("local.py", "line conductor {} is not reduced for p={}"):
        "test_genus.py::test_line_histogram_rejects_unreduced_top_pole",
    ("local.py", "{} nonzero vectors of the coefficient space reduce to no "
                 "pole"):
        "test_genus.py::test_line_histogram_rejects_short_line_total",
    ("local.py", "the lines of cover {} have conductors {}, not one"):
        "test_cli.py::test_first_floor_refuses_lines_with_two_conductors",
    ("tower.py", "{} does not restrict to x -> x + {}"):
        "test_cli.py::test_prolong_refuses_a_broken_certificate",
    ("tower.py", "{} fails the relation check"):
        "test_cli.py::test_commutators_refuse_a_sigma_shift_that_moves_w_by_x",
    ("tower.py", "additive solver witness failed its replay check"):
        "test_tower.py::test_wp_solve_refuses_a_wrong_affine_solution",
    ("tower.py", "witness {} fails to link the presentations at {}"):
        "test_tower.py::test_presentation_equiv_refuses_a_missing_link",
}

# (file, message) of each budget refusal and the test that reaches it.
BUDGETS = {
    ("ff.py", "F_{}^{} has more than {} elements, above the field budget"):
        "test_ff.py::test_field_budget_refuses_before_allocating",
    ("local.py", "expansion certified only above z^{}; principal part "
                 "would be unverified (raise the working precision)"):
        "test_local.py::test_expansion_certificate_failure",
    ("tower.py", "x-image is not a translation"):
        "test_tower.py::test_invert_rejects_an_x_image_that_is_no_"
        "translation",
    ("tower.py", "image of {} is not triangular-unipotent"):
        "test_tower.py::test_invert_rejects_non_unipotent",
    ("tower.py", "{} candidate monomials exceed the solver cap"):
        "test_tower.py::test_wp_solve_refuses_a_box_over_the_solver_cap",
    ("tower.py", "{} terms exceed the tower's term budget of {}"):
        "test_tower.py::test_runaway_power_is_refused_by_the_term_budget",
}

# Names no code in the package calls, each kept for a stated reason.
UNCALLED = {
    # the benchmark's per-layer metrics are keyed on these
    "basis_and_reps": "metric ff.basis_and_reps.s",
    "class_conductor": "metric genus.class_conductor.s",
    "commutator": "metric tower.commutator.*; criterion 06's oracle",
    "presentation_equiv": "criterion 08",
    "wp_solve": "metric tower.wp_solve.calls",
    # the benchmark's tracer reads the support watermark; only tests
    # reset it
    "support_watermark": "read as metric laurent.support_max",
    "reset_support_watermark": "tests reset the watermark between runs",
}

# Records the CLI prints whole through `_asdict()`, so each field is read
# by printing it.
PRINTED = {"BaseFloor", "CoverClass", "GenusReport", "AuditRow",
           "BigActionReport"}

# The keys `cli` adds to every report; a record field of the same name
# would be overwritten by the header and never printed.
HEADER = {"command", "params"}

# (record, field) pairs no code in the package reads, each kept for a
# stated reason.
UNREAD: dict[tuple[str, str], str] = {}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _template(node) -> str:
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return node.value


def _assert_each_raise_has_a_test(error: str, table: dict) -> None:
    """The (file, message) of each `raise error(...)` in the package are
    exactly table's keys, and each names a test that exists."""
    sites = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == error):
                sites.add((name, _template(node.exc.args[0])))
    assert sites == set(table)
    tests = {}
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tests[path.name] = {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}
    for test in table.values():
        module, name = test.split("::")
        assert name in tests.get(module, ()), test


def test_every_refusal_has_a_mutant():
    _assert_each_raise_has_a_test("IntegrityError", MUTANTS)


def test_every_budget_refusal_has_a_test():
    _assert_each_raise_has_a_test("UnsupportedError", BUDGETS)


def _owned_methods(tree):
    """{def node: "C.m"} for each classmethod and staticmethod m of C."""
    return {stmt: f"{node.name}.{stmt.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for stmt in node.body if isinstance(stmt, ast.FunctionDef)
            and any(getattr(d, "id", None) in ("classmethod", "staticmethod")
                    for d in stmt.decorator_list)}


def test_every_name_has_a_caller_in_the_package():
    """A name is called when some module names it.  A classmethod or
    staticmethod C.m is called only where the package writes C.m, or
    cls.m inside C, so a same-named method of another class is no
    caller of it."""
    defined, used = set(), set()
    for name, tree in _trees().items():
        owned = _owned_methods(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(owned.get(node, node.name))
            if name == "__init__.py":  # its export table is no caller
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.value, ast.Name):
                    used.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ClassDef):
                used.update(f"{node.name}.{sub.attr}"
                            for sub in ast.walk(node)
                            if isinstance(sub, ast.Attribute)
                            and getattr(sub.value, "id", None) == "cls")
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dunders = {n for n in defined if n.startswith("__") and n.endswith("__")}
    assert defined - dunders - used == set(UNCALLED)


def _record_fields(tree):
    """(record, field) for each `__slots__` entry and namedtuple field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(getattr(target, "id", None) == "__slots__"
                                for target in stmt.targets)):
                    yield from ((node.name, field)
                                for field in ast.literal_eval(stmt.value))
        elif (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "namedtuple"):
            name, fields = (ast.literal_eval(arg) for arg in node.args[:2])
            yield from ((name, field)
                        for field in fields.replace(",", " ").split())


def _keys(value):
    """Every dict key in a decoded JSON value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_every_record_field_is_read_in_the_package(capsys):
    """A field is read when some module loads an attribute of its name;
    matched by name, as the caller test above matches functions.  A
    `PRINTED` record's field is read when it is printed: it must be a
    key of some report of the six commands at (3, 1), and no header key,
    which `cli` writes over."""
    fields, read = set(), set()
    for tree in _trees().values():
        fields.update(_record_fields(tree))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    printed = set()
    for command in cli._COMMANDS:
        cli.main([command, "--p", "3", "--s", "1"])
        printed.update(_keys(json.loads(capsys.readouterr().out)))
    assert PRINTED <= {record for record, _ in fields}
    unprinted = {(record, field) for record, field in fields
                 if record in PRINTED
                 and (field not in printed or field in HEADER)}
    assert unprinted == set()
    unread = {(record, field) for record, field in fields
              if record not in PRINTED and field not in read}
    assert unread == set(UNREAD)


def test_readme_layout_lists_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert sorted(listed) == sorted(path.name for path in SRC.glob("*.py"))


def _exit_references(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_exit"
            or isinstance(node, ast.Name) and node.id == "_exit"
            or isinstance(node, ast.alias)
            and node.name.rpartition(".")[2] == "_exit"]


def test_only_the_cli_exit_helper_calls_os_exit():
    """`os._exit` skips buffered output and `atexit` handlers; only the
    CLI's exit helper, which flushes and runs them first, may call it."""
    sites = []
    for name, tree in _trees().items():
        owner = {}
        for func in ast.walk(tree):  # outer functions come first
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name)
                             for node in _exit_references(func))
        sites += [(name, owner.get(node)) for node in _exit_references(tree)]
    assert sites == [("cli.py", "_fast_exit")]


_FIELD_TABLES = {"_coords", "_products", "_sums", "_frob"}


def test_only_ff_and_the_kernel_see_the_field_tables():
    """The field's tables, its memos of coordinates, products, sums and
    Frobenius images, are its representation: every other module passes
    the `FieldCtx` itself to the kernel in `ff`, so that only `ff`
    changes when the representation does."""
    sites = []
    for name, tree in _trees().items():
        if name == "ff.py":
            continue
        for node in ast.walk(tree):
            word = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if word in _FIELD_TABLES:
                sites.append((name, node.lineno, word))
    assert sites == []


def test_every_per_layer_metric_is_keyed_on_a_traced_name(tmp_path):
    """Each per-layer metric `<key>.calls`, `<key>.s` or `<key>.self_s`
    in BENCHMARK.json names a function or method the benchmark's tracer
    wraps, or a layer holding one; a name deleted from the package would
    leave its metrics absent from every traced run."""
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "verify", "--p", "3", "--s", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    wrapped = set(json.loads(trace.read_text(encoding="utf-8"))["stats"])
    layers = {key.split(".", 1)[0] for key in wrapped}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    keys = {key for key, _, stat in (metric["name"].rpartition(".")
                                     for metric in spec["per_layer"])
            if stat in ("calls", "s", "self_s")}
    assert keys
    assert keys - wrapped - layers == set()
