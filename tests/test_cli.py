"""Command-line surface: exit codes, report shapes, determinism."""

import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from astower import ff, genus, tower
from astower.cli import main
from astower.ff import make_field


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
    # q = 13^7 ~ 62.7 M is over the field table budget: exit 2 at once
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


@pytest.mark.parametrize("command", ["verify", "prolong"])
def test_negative_samples_is_usage_error(command, capsys):
    code, out, err = run([command, "--p", "3", "--s", "1", "--samples", "-1"],
                         capsys)
    assert code == 2
    assert out == "" and "samples" in err


def test_bad_format_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--p", "3", "--s", "1", "--format", "yaml"])
    assert exc.value.code == 2


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


# Prints the modules that importing astower.cli, then running main on
# the arguments, adds to those the interpreter had already loaded.
_LOADS = """
import contextlib, io, sys
before = set(sys.modules)
from astower.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _modules_loaded(*argv):
    src = os.path.dirname(os.path.dirname(ff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LOADS, *argv],
                          capture_output=True, text=True, check=True, env=env)
    return set(done.stdout.split())


def test_cli_import_leaves_thread_pool_out():
    """Importing the CLI loads no thread pool and none of the layers."""
    loaded = _modules_loaded()
    assert "astower.cli" in loaded
    assert not loaded & {"concurrent.futures", "logging", "astower.genus",
                         "astower.local", "astower.laurent", "astower.tower",
                         "astower.rng", "dataclasses", "fractions", "hashlib"}


_CLASS_LAYERS = {"astower.genus", "astower.local", "astower.laurent"}


@pytest.mark.parametrize("command, used, unused", [
    ("verify", _CLASS_LAYERS, {"astower.tower"}),
    ("conductor", _CLASS_LAYERS, {"astower.tower"}),
    ("genus", _CLASS_LAYERS, {"astower.tower"}),
    ("audit", _CLASS_LAYERS, {"astower.tower"}),
    ("commutators", {"astower.tower"}, _CLASS_LAYERS),
    ("prolong", {"astower.tower"}, _CLASS_LAYERS),
])
def test_each_command_loads_only_its_layers(command, used, unused):
    loaded = _modules_loaded(command, "--p", "3", "--s", "1")
    assert used <= loaded
    assert not loaded & (unused | {"dataclasses"})


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
    # the right report, but not in its canonical form
    return json.dumps(json.loads(good)).encode("utf-8")


@pytest.mark.parametrize("kind", ["truncated", "not_json", "hand_edited",
                                  "other_command", "reformatted"])
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


def test_markdown_format(capsys):
    code, out, _ = run(["audit", "--p", "3", "--s", "1", "--format", "md"],
                       capsys)
    assert code == 3  # format does not change the exit code
    assert out.startswith("# astower audit")
    assert "| label |" in out or "| closed |" in out


def test_timings_go_to_stderr_not_stdout(capsys):
    _, out, err = run(["verify", "--p", "3", "--s", "1"], capsys)
    assert "elapsed" not in out
    assert "elapsed" in err


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
    _count_calls(monkeypatch, genus, "_certified_classes", counts)
    code, _, _ = run([command, "--p", "3", "--s", "1"], capsys)
    assert code in (0, 3)
    assert counts == {"conductor_of_cover": 1, "_certified_classes": 1}


@pytest.mark.parametrize("command", ["commutators", "prolong"])
def test_shift_reports_skip_orbit_representatives(command, monkeypatch,
                                                  capsys):
    counts = {}
    _count_calls(monkeypatch, ff, "basis_and_reps", counts)
    code, _, _ = run([command, "--p", "3", "--s", "1"], capsys)
    assert code == 0
    assert counts == {}


@pytest.mark.parametrize("p, q", [(3, 27), (5, 125)])
def test_prolong_builds_each_lift_once(p, q, monkeypatch, capsys):
    counts = {}
    _count_calls(monkeypatch, tower, "prolong_translation", counts)
    code, _, _ = run(["prolong", "--p", str(p), "--s", "1"], capsys)
    assert code == 0
    assert counts == {"prolong_translation": q}
