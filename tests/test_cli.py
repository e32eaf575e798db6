"""Command-line surface: exit codes, report shapes, determinism."""

import atexit
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from astower import cli, ff, genus, local, tower
from astower.cli import main
from astower.errors import ParameterError, UnsupportedError
from astower.ff import make_field
from astower.laurent import LaurentPoly
from astower.rng import SplitMix64


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run(argv, capsys)
    return code, json.loads(out)


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_characteristic_is_usage_error(capsys):
    code, _, err = run(["conductor", "--p", "4", "--s", "1"], capsys)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("command", ["verify", "conductor", "genus", "audit",
                                     "commutators", "prolong"])
def test_over_budget_field_is_parameter_error(command, capsys):
    # q = 13^7 ~ 62.7 M is over the field budget: exit 2 at once
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, out, err = run([command, "--p", "13", "--s", "3"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0
    assert peak < 1 << 20
    assert code == 2
    assert out == "" and "parameter error" in err


@pytest.mark.parametrize("p, s", [("1000000000000000003", "1"),
                                  ("3", "100000000"), ("1", "100000000"),
                                  ("3", "0")])
def test_absurd_parameters_exit_2_at_once(p, s, capsys):
    # a 19-digit prime, or s = 10^8, used to hang inside Params
    started = time.perf_counter()
    code, out, err = run(["verify", "--p", p, "--s", s], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == "" and "parameter error" in err


# Params(p, s) in a fresh interpreter: the error it raises and its time.
_PARAMS = """import sys, time
from astower.ff import Params
started = time.perf_counter()
try:
    Params(int(sys.argv[1]), int(sys.argv[2]))
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
print(time.perf_counter() - started)
"""


@pytest.mark.parametrize("p, s", [(13, 3), (1000000000000000003, 1),
                                  (3, 100000000), (1, 100000000), (9, 1),
                                  (3, 0)])
def test_cli_refuses_a_field_with_make_fields_own_words(p, s, capsys):
    """Params is the one gate for (p, s): in process it raises within
    1 s, after s with the error make_field(p, 2s + 1) raises, and the
    CLI's parameter error is that message.  The call runs in a child
    with a timeout, so a Params that hangs fails here."""
    if s < 1:
        want = ParameterError(f"s must be a positive integer, got {s}")
    else:
        with pytest.raises((ParameterError, UnsupportedError)) as exc:
            make_field(p, 2 * s + 1)
        want = exc.value
    raised, elapsed = _python(_PARAMS, str(p), str(s), check=True,
                              timeout=30).stdout.splitlines()
    assert raised == f"{type(want).__name__}: {want}"
    assert float(elapsed) < 1.0
    code, out, err = run(["verify", "--p", str(p), "--s", str(s)], capsys)
    assert (code, out) == (2, "")
    assert err == f"parameter error: {want}\n"


@pytest.mark.parametrize("command", ["verify", "prolong"])
def test_samples_is_an_unrecognized_argument(command, capsys):
    code, out, err = _exits([command, "--p", "3", "--s", "1", "--samples",
                             "2"], capsys)
    assert code == 2
    assert out == "" and "unrecognized argument '--samples'" in err
    assert err.startswith("usage: astower ")


def test_bad_format_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--p", "3", "--s", "1", "--format", "yaml"])
    assert exc.value.code == 2


def _exits(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_version_prints_name_and_version(capsys):
    assert _exits(["--version"], capsys) == (0, "astower 0.1.0\n", "")


def test_version_through_the_console_script():
    done = _python(_ENTRY, "--version")
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "astower 0.1.0\n", "")


_FLAG_NAMES = ["--p", "--s", "--seed", "--cache-dir", "--out", "--format"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"],
                                  ["prolong", "--p", "3", "-h"]],
                         ids=["top", "top-short", "verify", "after-flags"])
def test_help_lists_every_command_and_flag(argv, capsys):
    code, out, err = _exits(argv, capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: astower ")
    for word in [*cli._COMMANDS, *_FLAG_NAMES, "--help", "--version"]:
        assert word in out
    assert "--samples" not in out


@pytest.mark.parametrize("argv, message", [
    ([], "no command"),
    (["bogus"], "unknown command 'bogus'"),
    (["--bogus"], "unknown command '--bogus'"),
    (["verify", "--p", "3", "--s", "1", "--bogus", "1"], "'--bogus'"),
    (["verify", "--p", "3", "--s", "1", "7"], "'7'"),
    (["verify", "--p", "3", "--s", "1", "--sam", "4"], "'--sam'"),
    (["verify", "--p", "3", "--s"], "--s: expected a value"),
    (["verify", "--p", "3", "--s", "1", "--out"], "--out: expected a value"),
    (["verify", "--p", "x", "--s", "1"], "--p: invalid value 'x'"),
    (["verify", "--p", "3", "--s", "1.5"], "--s: invalid value '1.5'"),
    (["prolong", "--p", "3", "--s", "1", "--samples=two"],
     "unrecognized argument '--samples=two'"),
    (["prolong", "--p", "3", "--s", "1", "--seed", ""], "--seed"),
    (["verify", "--s", "1"], "missing --p"),
    (["verify", "--p", "3"], "missing --s"),
    (["verify"], "missing --p, --s"),
    (["genus", "--p", "3", "--s", "1", "--format", "yaml"], "--format"),
    (["verify", "--p", "3", "--s", "1", "--out", ""],
     "--out: invalid value ''"),
    (["verify", "--p", "3", "--s", "1", "--cache-dir="],
     "--cache-dir: invalid value ''"),
], ids=["none", "unknown", "flag-first", "unknown-flag", "positional",
        "abbreviation", "no-value", "no-out", "bad-p", "bad-s", "bad-samples",
        "empty-seed", "no-p", "no-s", "no-p-or-s", "bad-format", "empty-out",
        "empty-cache-dir"])
def test_usage_errors_exit_2_with_usage_on_stderr(argv, message, capsys):
    code, out, err = _exits(argv, capsys)
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: astower ")
    assert error.startswith("astower: error: ") and message in error


def test_flag_equals_value_and_last_repeat_wins(capsys):
    want = run(["verify", "--p", "3", "--s", "1"], capsys)[:2]
    assert run(["verify", "--p=3", "--s", "2", "--s=1"], capsys)[:2] == want
    assert run(["verify", "--p", "5", "--s=1", "--p", "3",
                "--format=json"], capsys)[:2] == want


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.json"
    if where == "directory":
        target = tmp_path
    code, out, err = run(["verify", "--p", "3", "--s", "1",
                          "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert str(target) in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_verify_p3s1(capsys):
    code, payload = run_json(["verify", "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert payload["command"] == "verify"
    assert payload["params"] == {"p": 3, "s": 1, "q0": 3, "q": 27, "n": 3}
    assert payload["group_order"] == 3 ** 18
    assert payload["genus"] == 143210574
    assert payload["genus_printed"] == 174298176
    assert payload["bound"] == 3 * 143210574
    assert payload["is_big"] is False
    assert payload["is_big_printed"] is False
    assert payload["readings_agree"] is True


def test_genus_output_is_canonical_json(capsys):
    code, out, _ = run(["genus", "--p", "3", "--s", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert payload["genus"] == 143210574
    assert payload["weighted_sum"] == 174299697
    labels = [row["label"] for row in payload["classes"]]
    assert labels == ["y2", "v1", "v2", "w"]
    assert [row["conductor"] for row in payload["classes"]] == \
        [38, 254, 281, 308]


def test_conductor_report(capsys):
    code, payload = run_json(["conductor", "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert payload["base_floor"] == {
        "conductor": 11, "line_genus": 9, "lines": 13, "genus": 117}
    assert {row["label"]: row["conductor"] for row in payload["classes"]} == \
        {"y2": 38, "v1": 254, "v2": 281, "w": 308}
    assert payload["two_floor_groups"] == {"11": 13, "12": 351}
    assert payload["two_floor_genus"] == 3627


def test_conductor_p3s3_certifies_every_two_floor_line(capsys):
    code, payload = run_json(["conductor", "--p", "3", "--s", "3"], capsys)
    assert code == 0
    assert payload["two_floor_groups"] == {"83": 1093, "84": 2390391}
    assert payload["two_floor_genus"] == 196100595


def test_conductor_skips_two_floor_outside_p3(capsys):
    code, payload = run_json(["conductor", "--p", "5", "--s", "1"], capsys)
    assert code == 0
    assert "two_floor_groups" not in payload
    assert {row["label"]: row["conductor"] for row in payload["classes"]} == \
        {"y2": 152, "v1": 3152, "v2": 3277, "w": 3402}


def test_audit_exits_3_on_mismatch_rows(capsys):
    code, payload = run_json(["audit", "--p", "3", "--s", "1"], capsys)
    assert code == 3
    assert payload["mismatches"] == 1
    rows = {row["label"]: row for row in payload["rows"]}
    assert rows["y2"]["match"] and rows["y2"]["closed"] == 387
    assert not rows["w"]["match"]
    assert rows["w"]["closed"] == "1341/2"
    assert rows["w"]["difference"] == "27/2"
    assert rows["w"]["pipeline"] == 657


def test_commutators_table(capsys):
    code, payload = run_json(["commutators", "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert payload["sigma_pairs_commute"] is True
    assert len(payload["pairs"]) == 9
    ctx = make_field(3, 3)
    two = 2
    for row in payload["pairs"]:
        expected = ctx.neg(ctx.mul(two, ctx.mul(row["gamma_i"],
                                                row["gamma_j"])))
        assert row["w_shift"] == expected
        assert row["reverse_w_shift"] == ctx.neg(expected)


def test_prolong_report(capsys):
    code, payload = run_json(["prolong", "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert payload["translations_certified"] == 27
    assert payload["restriction_ok"] is True
    assert payload["inverses_ok"] is True
    assert payload["cocycles_vertical"] is True
    assert payload["multiplicity"] == 27 ** 5
    assert payload["total_order"] == 27 ** 6


def test_out_file_and_repeat_runs_do_not_change_bytes(tmp_path, capsys):
    f1 = tmp_path / "one.json"
    f2 = tmp_path / "two.json"
    code1, out1, _ = run(["genus", "--p", "3", "--s", "1",
                          "--out", str(f1)], capsys)
    code2, out2, _ = run(["genus", "--p", "3", "--s", "1",
                          "--out", str(f2)], capsys)
    code3, out3, _ = run(["genus", "--p", "3", "--s", "1"], capsys)
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == ""  # report goes to the file, not stdout
    assert f1.read_bytes() == f2.read_bytes() == out3.encode("utf-8")
    json.loads(f1.read_text())


def test_out_writes_into_a_fifo_without_replacing_it(tmp_path, capsys):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, _ = run(["verify", "--p", "3", "--s", "1", "--out", str(fifo)],
                       capsys)
    reader.join(timeout=10)
    assert code == 0 and out == ""
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    _, direct, _ = run(["verify", "--p", "3", "--s", "1"], capsys)
    assert received == [direct.encode("utf-8")]


@pytest.mark.parametrize("target", ["existing", "dangling"])
def test_out_and_cache_writes_follow_a_symlink(target, tmp_path, capsys):
    """--out and a cache entry write where open() would: through a
    symlink, which stays a link, into its target, which a dangling link
    creates."""
    _, want, _ = run(["verify", "--p", "3", "--s", "1"], capsys)
    real, link = tmp_path / "target.json", tmp_path / "link.json"
    if target == "existing":
        real.write_text("stale")
    link.symlink_to(real)
    assert run(["verify", "--p", "3", "--s", "1", "--out", str(link)],
               capsys)[:2] == (0, "")
    cache, real_cache = tmp_path / "cache", tmp_path / "real_cache"
    run(["verify", "--p", "3", "--s", "1", "--cache-dir", str(real_cache)],
        capsys)
    (entry,) = real_cache.iterdir()
    cache.mkdir()
    real_entry = tmp_path / entry.name
    if target == "existing":
        entry.rename(real_entry)
        real_entry.write_text("stale")
    (cache / entry.name).symlink_to(real_entry)
    assert run(["verify", "--p", "3", "--s", "1", "--cache-dir", str(cache)],
               capsys)[:2] == (0, want)
    for path, dest in ((link, real), (cache / entry.name, real_entry)):
        assert path.is_symlink() and os.readlink(path) == str(dest)
        assert dest.read_text() == want


def test_written_files_get_the_mode_open_would_give(tmp_path, capsys):
    """A new --out file and a new cache entry get 0o666 less the umask,
    as open(path, "w") gives them, and a replaced --out file keeps its
    mode, instead of the 0o600 of the temp file renamed over it."""
    new, kept, cache = (tmp_path / "new.json", tmp_path / "kept.json",
                        tmp_path / "cache")
    kept.write_text("")
    os.chmod(kept, 0o640)
    old = os.umask(0o022)
    try:
        for out in (new, kept):
            code, _, _ = run(["verify", "--p", "3", "--s", "1", "--out",
                              str(out), "--cache-dir", str(cache)], capsys)
            assert code == 0
    finally:
        os.umask(old)
    entries = list(cache.iterdir())
    assert len(entries) == 1
    assert {path.name: stat.S_IMODE(os.stat(path).st_mode)
            for path in (new, kept, *entries)} == {
        "new.json": 0o644, "kept.json": 0o640, entries[0].name: 0o644}


# Prints the modules that importing astower.cli, then running main on
# the arguments, adds to those the interpreter had already loaded.
_LOADS = """
import contextlib, io, sys
before = set(sys.modules)
from astower.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(sys.argv[1:])
        except SystemExit:  # --version
            pass
print(" ".join(sorted(set(sys.modules) - before)))
"""

# What the installed `astower` console script runs.
_ENTRY = "import sys\nfrom astower.cli import main\nsys.exit(main())\n"


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(ff.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(code, *argv, check=False, timeout=None):
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=check,
                          env=_env(), timeout=timeout)


def _modules_loaded(*argv):
    return set(_python(_LOADS, *argv, check=True).stdout.split())


# The standard library's argument parser and the modules it imports.
_PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_cli_import_leaves_thread_pool_out():
    """Importing the CLI loads no thread pool and none of the layers."""
    loaded = _modules_loaded()
    assert "astower.cli" in loaded
    assert not loaded & {"concurrent.futures", "logging", "astower.genus",
                         "astower.local", "astower.laurent", "astower.tower",
                         "astower.rng", "dataclasses", "fractions", "hashlib",
                         "json", "heapq", *_PARSER_MODULES}


def test_version_loads_no_argument_parser():
    loaded = _modules_loaded("--version")
    assert "astower.cli" in loaded
    assert not loaded & (_PARSER_MODULES | {"astower.genus", "astower.tower",
                                            "json", "__future__"})


_CLASS_LAYERS = {"astower.genus", "astower.local", "astower.laurent"}


@pytest.mark.parametrize("command, used, unused", [
    ("verify", _CLASS_LAYERS | {"astower.tower"}, set()),
    ("conductor", _CLASS_LAYERS, {"astower.tower"}),
    ("genus", _CLASS_LAYERS, {"astower.tower"}),
    ("audit", _CLASS_LAYERS, {"astower.tower"}),
    ("commutators", {"astower.tower"}, _CLASS_LAYERS),
    ("prolong", {"astower.tower"}, _CLASS_LAYERS),
])
def test_each_command_loads_only_its_layers(command, used, unused):
    loaded = _modules_loaded(command, "--p", "3", "--s", "1")
    assert used <= loaded
    assert not loaded & (unused | {"dataclasses", "fractions", "decimal",
                                   "json", "heapq", "__future__"}
                         | _PARSER_MODULES)


@pytest.mark.parametrize("argv", [
    ["--version"],
    *([command, "--p", "3", "--s", "1"] for command in (
        "verify", "conductor", "genus", "audit", "commutators", "prolong")),
])
def test_no_report_loads_typing_or_re(argv):
    """Under `python -S`, whose start-up imports neither, no layer loads
    `typing`: annotations use builtin generics and `X | None`.  `re`,
    which `typing` imports, stays out too."""
    done = subprocess.run([sys.executable, "-S", "-c", _LOADS, *argv],
                          capture_output=True, text=True, check=True,
                          env=_env())
    loaded = set(done.stdout.split())
    assert "astower.cli" in loaded
    assert not loaded & {"typing", "re"}


def test_package_exports_resolve_on_first_access():
    import astower

    listed = dir(astower)
    for name in astower.__all__:
        assert getattr(astower, name) is not None
        assert name in listed
    assert astower.genus_of_F is genus.genus_of_F
    with pytest.raises(AttributeError):
        astower.no_such_export


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["conductor", "--p", "3", "--s", "1", "--cache-dir", str(cache)]
    code1, out1, _ = run(args, capsys)
    entries = list(cache.glob("*.json"))
    assert code1 == 0 and len(entries) == 1
    code2, out2, _ = run(args, capsys)
    assert code2 == 0
    assert out1 == out2
    assert list(cache.glob("*.json")) == entries


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_report_builds_params_once(command, tmp_path, monkeypatch,
                                        capsys):
    """The CLI checks (p, s) only through Params, built once per report:
    computed, written to the cache, and served from it."""
    built = []
    real = ff.Params.__init__

    def counted(self, p, s):
        built.append((p, s))
        real(self, p, s)

    monkeypatch.setattr(ff.Params, "__init__", counted)
    argv = [command, "--p", "3", "--s", "1"]
    cached = argv + ["--cache-dir", str(tmp_path / "cache")]
    for args in (argv, cached, cached):
        built.clear()
        # audit exits 3: the w-class closed form mismatches at (3, 1)
        assert run(args, capsys)[0] == (3 if command == "audit" else 0)
        assert built == [(3, 1)]


def _bad_entry(kind, good, tmp_path, capsys):
    """A cache entry the CLI must not serve, made from the good one."""
    if kind == "truncated":
        return good[:len(good) // 2]
    if kind == "not_json":
        return b"\xff\xfe\x00 not json"
    if kind == "hand_edited":
        # canonical JSON, but no report of this command at these (p, s)
        return (json.dumps({"is_big": True}, sort_keys=True, indent=2)
                + "\n").encode("utf-8")
    if kind == "other_command":
        other = tmp_path / "other"
        run(["audit", "--p", "3", "--s", "1", "--cache-dir", str(other)],
            capsys)
        (entry,) = other.glob("*.json")
        return entry.read_bytes()
    if kind == "edited_q":
        # canonical JSON of the right command at the right (p, s), but
        # with a header this run would not print
        payload = json.loads(good)
        payload["params"]["q"] += 1
        return cli._canonical(payload).encode("utf-8")
    if kind in ("float", "null", "escaped"):
        # canonical JSON of the right report, but with a value in it that
        # no report prints: a float, a null or a string json escapes
        payload = json.loads(good)
        if kind == "escaped":
            payload["is_big"] = "yes \u00e9"
        else:
            payload["genus"] = 1.5 if kind == "float" else None
        return (json.dumps(payload, sort_keys=True, indent=2)
                + "\n").encode("utf-8")
    # the right report, but not in its canonical form
    return json.dumps(json.loads(good)).encode("utf-8")


@pytest.mark.parametrize("kind", ["truncated", "not_json", "hand_edited",
                                  "other_command", "edited_q", "float",
                                  "null", "escaped", "reformatted"])
def test_cache_recomputes_an_entry_it_cannot_trust(kind, tmp_path, capsys):
    args = ["verify", "--p", "3", "--s", "1"]
    want = run(args, capsys)[:2]
    cached = args + ["--cache-dir", str(tmp_path / "cache")]
    run(cached, capsys)
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_bytes(_bad_entry(kind, entry.read_bytes(), tmp_path, capsys))
    assert run(cached, capsys)[:2] == want
    assert entry.read_bytes() == want[1].encode("utf-8")  # rewritten
    assert run(cached, capsys)[:2] == want  # and served from now on


def test_cache_key_tracks_seed(tmp_path, capsys):
    cache = tmp_path / "cache"
    base = ["conductor", "--p", "3", "--s", "1", "--cache-dir", str(cache)]
    run(base, capsys)
    run(base + ["--seed", "9"], capsys)
    assert len(list(cache.glob("*.json"))) == 2


# Strings json must escape: quote, backslash, control, DEL, non-ASCII.
_ESCAPED = ['"', "\\", "\n", "\x00", "\x7f", "\u00e9", "\u2603",
            "\U0001d11e", 'a"b\\c']
# What reports print: bools, ints, strings that need no escape (printable
# ASCII but quote and backslash), lists, and dicts with such keys.
_PLAIN = st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                       exclude_characters='"\\')
_LEAVES = (st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
           | st.integers(max_value=-2 ** 64) | st.text(_PLAIN))
_VALUES = st.recursive(_LEAVES, lambda kids: (
    st.lists(kids, max_size=4)
    | st.dictionaries(st.text(_PLAIN, max_size=6), kids, max_size=4)),
    max_leaves=24)


@given(_VALUES)
def test_canonical_writer_matches_json(value):
    assert cli._canonical(value) == json.dumps(
        value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": {"b": float("nan")}}, {1: 2}, {"a": {None: 1}},
    {True: 0}, {1.5: 0}, {"a"}, b"bytes", None, {"a": [None]}, (1, 2),
    {"a": ()}, *_ESCAPED, *({c: 0} for c in _ESCAPED)], ids=[
    "float", "nested_float", "nan", "int_key", "none_key", "bool_key",
    "float_key", "set", "bytes", "none", "nested_none", "tuple",
    "nested_tuple", *(f"escaped_{i}" for i in range(len(_ESCAPED))),
    *(f"escaped_key_{i}" for i in range(len(_ESCAPED)))])
def test_canonical_writer_refuses_floats_and_other_keys(value):
    with pytest.raises(TypeError):
        cli._canonical(value)


def test_markdown_format(capsys):
    code, out, _ = run(["audit", "--p", "3", "--s", "1", "--format", "md"],
                       capsys)
    assert code == 3  # format does not change the exit code
    assert out.startswith("# astower audit")
    assert "| label |" in out or "| closed |" in out


def test_timings_go_to_stderr_not_stdout(capsys):
    """The in-process time is printed to the microsecond, so a move of
    1-2 ms in a report of a few ms can be read off the CLI's own line."""
    _, out, err = run(["verify", "--p", "3", "--s", "1"], capsys)
    assert "elapsed" not in out
    assert re.search(r"^verify elapsed \d+\.\d{6}s$", err, re.MULTILINE)


@pytest.mark.parametrize("p, s", [(3, 1), (3, 2)])
def test_reports_leave_no_garbage_cycles(p, s, capsys):
    """A memo that refers back to its owner keeps it alive until the
    cyclic collector runs, which raises peak RSS unnoticed; no report
    leaves such a cycle."""
    gc.collect()
    gc.disable()
    try:
        for command in cli._COMMANDS:
            code, _, _ = run([command, "--p", str(p), "--s", str(s)], capsys)
            assert code in (0, 3)
            assert gc.collect() == 0, command
    finally:
        gc.enable()


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("astower") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("command", ["verify", "conductor", "genus", "audit"])
def test_class_reports_certify_base_floor_and_classes_once(
        command, monkeypatch, capsys):
    counts = {}
    _count_calls(monkeypatch, genus, "conductor_of_cover", counts)
    _count_calls(monkeypatch, genus, "class_conductors", counts)
    code, _, _ = run([command, "--p", "3", "--s", "1"], capsys)
    assert code in (0, 3)
    assert counts == {"conductor_of_cover": 1, "class_conductors": 1}


@pytest.mark.parametrize("command", ["commutators", "prolong"])
def test_shift_reports_skip_orbit_representatives(command, monkeypatch,
                                                  capsys):
    counts = {}
    _count_calls(monkeypatch, ff, "basis_and_reps", counts)
    code, _, _ = run([command, "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert counts == {}


@pytest.mark.parametrize("p, s, seed", [
    (3, 1, 0), (5, 1, 0), (3, 2, 0), (3, 2, 7)])
@pytest.mark.parametrize("command", ["prolong", "verify"])
def test_prolong_builds_each_lift_once(command, p, s, seed, monkeypatch,
                                       capsys):
    """Both reports run the one group certificate, `certify_group`: only
    the n basis lifts are built, whichever translations the seed lists,
    and the relation check runs 6n times, once for each basis lift and
    once for each of the five vertical families at each basis element.
    Nothing composes or inverts: a certified lift is an automorphism by
    the finite-extension lemma."""
    counts = {}
    for name in ("prolong_translation", "check_endo", "compose_endo",
                 "invert_endo"):
        _count_calls(monkeypatch, tower, name, counts)
    code, _, _ = run([command, "--p", str(p), "--s", str(s),
                      "--seed", str(seed)], capsys)
    assert code == 0
    n = 2 * s + 1
    assert counts == {"prolong_translation": n, "check_endo": 6 * n}


@pytest.mark.parametrize("p, s", [(3, 1), (5, 1), (3, 2)])
def test_commutators_certify_each_shift_once(p, s, monkeypatch, capsys):
    """Each of the n sigma and n tau shifts is certified once; each of
    the n^2 mixed pairs composes sigma tau, tau sigma and the w-shift
    after it, and each same-kind pair i < j composes both orders.  No
    reverse identity is composed and nothing is inverted."""
    counts = {}
    for name in ("check_endo", "compose_endo", "invert_endo"):
        _count_calls(monkeypatch, tower, name, counts)
    code, _, _ = run(["commutators", "--p", str(p), "--s", str(s)], capsys)
    assert code == 0
    n = 2 * s + 1
    assert counts == {"check_endo": 2 * n,
                      "compose_endo": 3 * n * n + 2 * n * (n - 1)}


@example(seed=0)
@example(seed=2 ** 64)
@given(seed=st.integers() | st.integers(min_value=2 ** 64))
def test_prolong_lists_0_1_and_two_seeded_draws_above_q_128(seed):
    """Above q = 128 prolong lists 0, 1 and two draws of SplitMix64(seed)
    below q, whatever the seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["prolong", "--p", "3", "--s", "2",
                     "--seed", str(seed)]) == 0
    report = json.loads(out.getvalue())
    g = SplitMix64(seed)
    assert report["exhaustive"] is False
    assert report["translations_certified"] == len(
        {0, 1, g.randbelow(243), g.randbelow(243)})


# Mutants prolong must refuse: each breaks one link of the certificate
# that the n basis lifts extend to every listed translation.


def _move_w(endo, by):
    """endo with its w image moved by `by`."""
    return tower.Endo(endo.pres, {**endo.images, "w": endo.images["w"] + by})


def _move_w_by_x_in_lift_of(monkeypatch, a):
    """The lift of x -> x + a also moves w by x, which breaks its w
    relation (at p = 3, t has code 3)."""
    real = tower.prolong_translation

    def mutant(pres, c):
        lift = real(pres, c)
        return _move_w(lift, pres.x()) if c == a else lift

    monkeypatch.setattr(tower, "prolong_translation", mutant)


def _swap_digits(monkeypatch):
    real = ff.FieldCtx.to_coeffs

    def swapped(self, a):
        digs = real(self, a)
        return digs[1:] + digs[:1] if a == 1 else digs

    monkeypatch.setattr(ff.FieldCtx, "to_coeffs", swapped)


@pytest.mark.parametrize("mutant, reason", [
    ("relation", "lift of b1 fails the relation check"),
    ("restriction", "lift of b1 does not restrict to x -> x + 3"),
    ("coordinates", "translation 1 is not its basis sum"),
    ("basis", "translation 3 is not its basis sum"),
], ids=["relation", "restriction", "coordinates", "basis"])
def test_prolong_refuses_a_broken_certificate(mutant, reason, monkeypatch,
                                              capsys):
    if mutant == "relation":  # the lift of t
        _move_w_by_x_in_lift_of(monkeypatch, 3)
    elif mutant == "restriction":
        # the lift of t is the real lift of 2t: it passes the relation
        # check but restricts to the wrong translation
        real = tower.prolong_translation
        monkeypatch.setattr(tower, "prolong_translation", lambda pres, c:
                            real(pres, 6 if c == 3 else c))
    elif mutant == "coordinates":  # 1's digits do not replay to 1
        _swap_digits(monkeypatch)
    else:  # a "basis" that misses t, so t is not its digit sum
        monkeypatch.setattr(cli, "prime_basis",
                            lambda ctx: [1, 1, ctx.p ** 2])
    code, out, err = run(["prolong", "--p", "3", "--s", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("integrity failure") and reason in err


@pytest.mark.parametrize("extra", ["x", "y2"])
def test_commutators_refuse_a_sigma_shift_that_moves_w_by_x(extra,
                                                          monkeypatch,
                                                          capsys):
    """A sigma whose w image gains x, or y2 (which tau moves by g_j),
    breaks the w relation, and the shift's own certificate refuses it.
    With x its composites still meet every commutator identity, so only
    that certificate can refuse it."""
    real = tower.sigma_shift

    def perturbed(pres, g):
        shift = real(pres, g)
        moved = pres.x() if extra == "x" else pres.gen(extra)
        return _move_w(shift, moved)

    monkeypatch.setattr(tower, "sigma_shift", perturbed)
    _refused(["commutators", "--p", "3", "--s", "1"], capsys,
             "sigma shift by 1 fails the relation check")


def test_verify_refuses_a_broken_basis_lift(monkeypatch, capsys):
    """verify prints |G| only once this run certified the basis lifts."""
    _move_w_by_x_in_lift_of(monkeypatch, 3)
    _refused(["verify", "--p", "3", "--s", "1"], capsys,
             "lift of b1 fails the relation check")


def test_commutators_refuse_a_certified_shift_with_the_wrong_commutator(
        monkeypatch, capsys):
    """The shift reported for t is the real shift by 2t: an automorphism
    that passes its certificate, whose commutator with tau_j is the
    w-shift by -4 t g_j instead of -2 t g_j."""
    real = tower.sigma_shift
    monkeypatch.setattr(tower, "sigma_shift", lambda pres, g:
                        real(pres, 6 if g == 3 else g))
    _refused(["commutators", "--p", "3", "--s", "1"], capsys,
             "commutator at basis pair (1, 0) is not the expected central "
             "shift")


def _refused(argv, capsys, reason):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("integrity failure") and reason in err


def test_commutators_refuse_same_kind_shifts_that_do_not_commute(
        monkeypatch, capsys):
    """Only sigma_i o sigma_j with i < j moves w by 1, so the mixed pairs
    still meet their central shifts and the same-kind check alone must
    refuse."""
    real_sigma, real_compose = tower.sigma_shift, tower.compose_endo
    sigmas = []

    def sigma(pres, g):
        sigmas.append(real_sigma(pres, g))
        return sigmas[-1]

    def index(endo):
        return next((k for k, s in enumerate(sigmas) if s is endo), None)

    def compose(a, b):
        out = real_compose(a, b)
        i, j = index(a), index(b)
        if i is not None and j is not None and i < j:
            return _move_w(out, out.pres.const(1))
        return out

    monkeypatch.setattr(tower, "sigma_shift", sigma)
    monkeypatch.setattr(tower, "compose_endo", compose)
    _refused(["commutators", "--p", "3", "--s", "1"], capsys,
             "two same-kind shifts do not commute")


def test_class_report_refuses_a_ladder_that_misses_a_class(monkeypatch,
                                                           capsys):
    """Without the w class the line counts cover only a rank-3 space."""
    monkeypatch.setattr(genus, "_CLASS_ORDER", ("y2", "v1", "v2"))
    _refused(["verify", "--p", "3", "--s", "1"], capsys,
             "class counts fail to cover the dual space")


def test_class_report_refuses_a_wrong_uniformizer_residual(monkeypatch,
                                                           capsys):
    """x^(q0+1) off by 1 leaves a residual of valuation 0, not q*b1."""
    real = LaurentPoly.__pow__

    def off_by_one(self, e):
        out = real(self, e)
        if e == 4:  # q0 + 1 at (3, 1)
            return out + LaurentPoly(self.ctx, {0: 1})
        return out

    monkeypatch.setattr(LaurentPoly, "__pow__", off_by_one)
    _refused(["verify", "--p", "3", "--s", "1"], capsys,
             "uniformizer residual must start 1*z^3402, got valuation 0")


def test_conductor_refuses_an_unreduced_pole(monkeypatch, capsys):
    """A reduction that hands back its input's poles leaves the y2
    class's pole z^-891, a jump divisible by 3, which the line histogram
    refuses before any conductor is read."""

    def unreduced(ctx, f):
        return {e: c for e, c in f.d.items() if e < 0}

    monkeypatch.setattr(local, "reduce_mod_wp", unreduced)
    _refused(["conductor", "--p", "3", "--s", "1"], capsys,
             "line conductor 892 is not reduced for p=3")


def test_first_floor_refuses_lines_with_two_conductors(monkeypatch, capsys):
    """A reduction that adds z^-41 to the b = t row of the y1 cover, and
    to no other, gives every line with a t coordinate conductor 42.  The
    first floor is read from all of its lines, so it is refused; f1 alone
    still reduces to conductor 11.  The row arrives cut at z^1, so it is
    picked by its terms, not by `==`, which also compares prec."""
    real = local.reduce_mod_wp
    ctx = make_field(3, 3)
    t_row = local.expand_rational(
        ctx, local.cover_rhs_polys(ff.Params(3, 1))["y1"]).scale(3)

    def mutant(ctx, f):
        out = real(ctx, f)
        return {**out, -41: 1} if f.d == t_row.d else out

    monkeypatch.setattr(local, "reduce_mod_wp", mutant)
    _refused(["verify", "--p", "3", "--s", "1"], capsys,
             "the lines of cover y1 have conductors [11, 42], not one")


def test_class_report_refuses_a_wrong_p_root(monkeypatch, capsys):
    """A p-th root off by one on the first coefficient the additive
    reduction peels must fail its replay against the input."""
    real = ff.FieldCtx.p_root
    calls = []

    def off_by_one(self, a):
        calls.append(a)
        root = real(self, a)
        return self.add(root, 1) if len(calls) == 1 else root

    monkeypatch.setattr(ff.FieldCtx, "p_root", off_by_one)
    code, out, err = run(["verify", "--p", "3", "--s", "1"], capsys)
    assert code == 1 and out == "" and calls
    assert err.startswith("integrity failure")
    assert "additive reduction failed its replay check" in err


@pytest.mark.parametrize("command", ["prolong", "verify"])
def test_prolong_refuses_a_wrong_vertical_shift(command, monkeypatch, capsys):
    """One image of one vertical family moves w by x as well, which
    breaks the w relation, so neither report that prints the group order
    may print it."""
    real = tower.vertical_shift_families

    def families(pres):
        fams = dict(real(pres))
        real_w = fams["w"]

        def w_family(g):
            shift = real_w(g)
            if g != 3:
                return shift
            return _move_w(shift, pres.x())

        fams["w"] = w_family
        return fams

    monkeypatch.setattr(tower, "vertical_shift_families", families)
    code, out, err = run([command, "--p", "3", "--s", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("integrity failure")
    assert "vertical family w at 3 fails the relation check" in err


def test_cache_hit_loads_no_hashlib(tmp_path, capsys):
    args = ["verify", "--p", "3", "--s", "1", "--cache-dir",
            str(tmp_path / "cache")]
    assert run(args, capsys)[0] == 0
    loaded = _modules_loaded(*args)
    assert "astower.genus" not in loaded  # served from the cache
    assert "hashlib" not in loaded


@pytest.mark.parametrize("where", ["long_name", "file_as_dir"])
def test_cache_write_failure_still_prints_the_report(where, tmp_path,
                                                     capsys):
    args = ["verify", "--p", "3", "--s", "1"]
    want = run(args, capsys)[:2]
    if where == "long_name":  # the seed's 300 digits overflow NAME_MAX
        cache = tmp_path / "cache"
        args += ["--seed", "9" * 300]
    else:
        cache = tmp_path / "a_file"
        cache.write_text("")
    code, out, err = run(args + ["--cache-dir", str(cache)], capsys)
    assert (code, out) == want
    assert "cache entry not written" in err


def _lowest_free_fd():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


@pytest.mark.parametrize("kind", ["fifo", "link_to_dev_null", "directory"])
def test_cache_entry_that_is_not_a_regular_file_is_a_miss(kind, tmp_path,
                                                          capsys):
    """An entry that is not a regular file is neither read nor written:
    a FIFO with no writer would block either, so the console script must
    print the report under a timeout and leave the entry in place.  Run
    in-process, the miss leaves no file descriptor open."""
    args = ["verify", "--p", "3", "--s", "1"]
    want = _python(_ENTRY, *args, timeout=60)
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = cli._cache_path(SimpleNamespace(
        cache_dir=str(cache), command="verify", p=3, s=1, seed=0))
    if kind == "fifo":
        os.mkfifo(entry)
    elif kind == "directory":
        os.mkdir(entry)
    else:
        os.symlink(os.devnull, entry)
    done = _python(_ENTRY, *args, "--cache-dir", str(cache), timeout=30)
    assert (done.returncode, done.stdout) == (0, want.stdout)
    assert f"cache entry not written: {entry} is not a regular file" \
        in done.stderr
    assert os.listdir(cache) == [os.path.basename(entry)]
    if kind == "fifo":
        assert stat.S_ISFIFO(os.stat(entry).st_mode)
    elif kind == "directory":
        assert os.listdir(entry) == []
    else:
        assert os.readlink(entry) == os.devnull
    free = _lowest_free_fd()
    code, out, _ = run(args + ["--cache-dir", str(cache)], capsys)
    assert (code, out) == (0, want.stdout)
    assert _lowest_free_fd() == free


_REFERENCES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "references.json")
with open(_REFERENCES, encoding="utf-8") as _handle:
    _PINNED = json.load(_handle)


@pytest.mark.parametrize("report", sorted(_PINNED["reports"]))
def test_report_bytes_match_pinned_references(report, capsys):
    """Every benchmark reference, run in-process at the pinned seed, keeps
    its exit code and its stdout bytes."""
    ref = _PINNED["reports"][report]
    seed = str(_PINNED["pinned_seed"])
    code, out, _ = run(report.split() + ["--seed", seed], capsys)
    assert code == ref["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref["sha256"]


@pytest.mark.parametrize("report", sorted(_PINNED["reports"]))
def test_pinned_references_through_the_console_script(report):
    """The same pins through the console script, the path users and the
    benchmark run, which ends the process without interpreter teardown."""
    ref = _PINNED["reports"][report]
    done = _python(_ENTRY, *report.split(), "--seed",
                   str(_PINNED["pinned_seed"]), timeout=60)
    assert done.returncode == ref["exit"], done.stderr
    assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == \
        ref["sha256"]


def test_frontier_reports_through_the_console_script():
    """verify and conductor at (3, 5), q = 177,147: the line echelon
    runs at n = 11, which no pinned report reaches."""
    params = ff.Params(3, 5)
    q0, q = params.q0, params.q
    reports = {}
    for command in ("verify", "conductor"):
        done = _python(_ENTRY, command, "--p", "3", "--s", "5", timeout=60)
        assert done.returncode == 0, done.stderr
        reports[command] = json.loads(done.stdout)
    assert reports["verify"]["group_order"] == q ** 6
    classes = reports["conductor"]["classes"]
    assert {c["label"]: c["conductor"] for c in classes} == \
        genus.conductor_ladder(params)
    assert reports["conductor"]["two_floor_genus"] == \
        3 * q0 * (q - 1) * (q + q0 + 1) // 2


# Exit code and stdout sha256 of all six commands at (101, 1) and (7, 3),
# q = 1,030,301 and 823,543, the largest fields within the budget, and at
# (13, 2) and (3, 5), q = 371,293 and 177,147: the tower's packed fields
# are W = 42, 42, 40 and 38 bits wide there.  The middle of the grid,
# (7, 1), (3, 3) and (5, 2), q = 343, 2,187 and 3,125, is pinned too, and
# so is `--format md` of the 18 benchmark `paper` reports, at (3, 1),
# (5, 1) and (3, 2), which the JSON pins never send through `_render_md`.
# CI's installed-wheel step reads this file as well.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "frontier_pins.json"), encoding="utf-8") as _handle:
    _FRONTIER = json.load(_handle)

# The console script behind a hook that writes the process's peak RSS
# since exec (VmHWM) to $PEAK_FILE at exit, as the benchmark's report
# processes do.
_PEAK_ENTRY = """import atexit, os, sys
def peak():
    with open("/proc/self/status") as status, \\
            open(os.environ["PEAK_FILE"], "w") as out:
        out.write(next(x for x in status if x.startswith("VmHWM:")))
atexit.register(peak)
from astower.cli import main
sys.exit(main())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc")
@pytest.mark.parametrize("report", sorted(_FRONTIER["reports"]))
def test_frontier_pins_through_the_console_script(report, tmp_path):
    """Each report at the frontier keeps its pinned exit code and stdout
    bytes, in under 10 s and under 48 MiB of peak RSS."""
    ref = _FRONTIER["reports"][report]
    peak = tmp_path / "peak"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_ENTRY, *report.split(), "--seed",
         str(_FRONTIER["pinned_seed"])],
        capture_output=True, env=dict(_env(), PEAK_FILE=str(peak)),
        timeout=30)
    wall = time.perf_counter() - started
    assert done.returncode == ref["exit"], done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == ref["sha256"]
    assert wall < 10.0
    assert int(peak.read_text(encoding="ascii").split()[1]) < 48 * 1024


@pytest.mark.parametrize("report", sorted(
    report.removesuffix(" --format md") for report in _FRONTIER["reports"]
    if report.endswith(" --format md")))
def test_markdown_report_bytes_match_pinned_references(report, capsys):
    """The `--format md` pins of frontier_pins.json, through `main(argv)`,
    which returns where the console script ends the process."""
    ref = _FRONTIER["reports"][report + " --format md"]
    code, out, _ = run(report.split() + ["--format", "md"], capsys)
    assert code == ref["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref["sha256"]


# The console script behind an atexit hook registered before the CLI is
# imported; each time it runs, the hook appends the sizes of stdout and
# stderr, both files, to hook.log.
_HOOKED = """import atexit, os
def hook():
    with open("hook.log", "a") as log:
        log.write(f"{os.fstat(1).st_size} {os.fstat(2).st_size}\\n")
atexit.register(hook)
""" + _ENTRY


@pytest.mark.parametrize("argv, code", [
    (["verify", "--p", "3", "--s", "1"], 0),
    (["verify", "--p", "3", "--s", "1", "--out", "report.json"], 0),
    (["--version"], 0),
    (["verify", "--p", "3"], 2),
    (["verify", "--p", "4", "--s", "1"], 2),
    (["audit", "--p", "3", "--s", "1"], 3),
], ids=["report", "out", "version", "usage", "p4", "audit"])
def test_console_script_runs_atexit_hooks_once_after_output(argv, code,
                                                            tmp_path,
                                                            capsys):
    with open(tmp_path / "out", "wb") as out, \
            open(tmp_path / "err", "wb") as err:
        done = subprocess.run([sys.executable, "-c", _HOOKED, *argv],
                              stdout=out, stderr=err, cwd=tmp_path,
                              env=_env(), timeout=60)
    assert done.returncode == code
    out_size, err_size = (os.path.getsize(tmp_path / name)
                          for name in ("out", "err"))
    assert (tmp_path / "hook.log").read_text().splitlines() == \
        [f"{out_size} {err_size}"]
    if "--out" in argv:
        assert out_size == 0
        assert (tmp_path / "report.json").read_text() == \
            run(argv[:-2], capsys)[1]
    else:
        assert (out_size > 0) == (code != 2)


@pytest.fixture
def exits(monkeypatch):
    """The calls to os._exit and atexit._run_exitfuncs, recorded in
    place of making them."""
    calls = []
    monkeypatch.setattr(os, "_exit",
                        lambda code: calls.append(("_exit", code)))
    monkeypatch.setattr(atexit, "_run_exitfuncs",
                        lambda: calls.append(("atexit",)))
    return calls


class _RefusingStdout(io.StringIO):
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def flush(self):
        raise self.exc


@pytest.mark.parametrize("stdout, calls", [
    (_RefusingStdout(BrokenPipeError(32, "Broken pipe")), []),
    (_RefusingStdout(ValueError("I/O operation on closed file")), []),
    (None, [("atexit",), ("_exit", 0)]),
], ids=["broken_pipe", "closed", "none"])
def test_console_script_ends_only_when_its_output_flushes(stdout, calls,
                                                          exits, monkeypatch):
    """A flush that raises leaves the exit to the interpreter, as before;
    an absent stdout has nothing to flush."""
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "argv", ["astower", "verify", "--p", "3",
                                      "--s", "1"])
    assert main() == 0
    assert exits == calls
    monkeypatch.setattr(sys, "argv", ["astower", "--version"])
    exits.clear()
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert exits == calls


@pytest.mark.parametrize("argv, code", [
    *(([command, "--p", "3", "--s", "1"], 3 if command == "audit" else 0)
      for command in cli._COMMANDS),
    (["--version"], SystemExit(0)),
    (["--help"], SystemExit(0)),
    (["verify", "--p", "3"], SystemExit(2)),
])
def test_main_with_argv_never_ends_the_process(argv, code, exits, capsys):
    if isinstance(code, SystemExit):
        assert _exits(argv, capsys)[0] == code.code
    else:
        assert run(argv, capsys)[0] == code
    assert exits == []
