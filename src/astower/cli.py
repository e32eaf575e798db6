"""Command-line reports over the exact tower pipeline.

Every subcommand produces one canonical JSON document (sorted keys,
two-space indent, integers and fraction strings only, never floats) so
that repeated runs and cached runs are byte identical.  Each command
builds its report's body, and `_obtain` adds the header: `command`, and
`params` printed as p, s, q0, q, n.  `verify` and `genus` print the
fields of their `genus` record.  `_canonical` writes the report without
the `json` package and refuses a float, None, a tuple or a string that
needs an escape; `json` is loaded only to decode a cache entry.  Timing
chatter goes to stderr.
Exit codes: 0 success, 1 integrity failure, 2 usage or parameter error,
3 audit found mismatching rows.  The console script (`main()` with no
argv) flushes stdout and stderr, runs the `atexit` handlers and ends
with `os._exit`, skipping interpreter teardown; `main(argv)` returns.
"""

import os
import stat  # already loaded by os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import Params, prime_basis

# Each command imports the layers it uses when it runs: conductor, genus
# and audit never load `tower`, which verify loads to certify |G|, and
# commutators/prolong never load `genus`, `local` or `laurent`.


def _params_payload(params: Params) -> dict:
    return {"p": params.p, "s": params.s, "q0": params.q0,
            "q": params.q, "n": params.n}


# ------------------------------------------------------------ commands


def cmd_verify(params: Params, args) -> dict:
    from .genus import verify_big_action

    return verify_big_action(params)._asdict()


def cmd_genus(params: Params, args) -> dict:
    from .genus import genus_of_F

    rep = genus_of_F(params)
    return {**rep._asdict(), "classes": [c._asdict() for c in rep.classes]}


def cmd_conductor(params: Params, args) -> dict:
    from .genus import cover_classes, ree_aggregate, ree_line_groups

    base, classes = cover_classes(params)
    payload = {"base_floor": base._asdict(),
               "classes": [c._asdict() for c in classes]}
    if params.p == 3:
        groups = ree_line_groups(params)
        payload["two_floor_groups"] = {str(m): c
                                       for m, c in sorted(groups.items())}
        payload["two_floor_genus"] = ree_aggregate(params, groups)
    return payload


def cmd_audit(params: Params, args) -> dict:
    from .genus import audit_closed_forms

    rows = audit_closed_forms(params)
    return {"rows": [r._asdict() for r in rows],
            "mismatches": sum(1 for r in rows if not r.match)}


def cmd_commutators(params: Params, args) -> dict:
    from .tower import (certify_automorphism, compose_endo, presentation,
                        sigma_shift, tau_shift, vertical_shift_families)

    pres = presentation(params)
    ctx = params.field()
    basis = prime_basis(ctx)
    n = params.n
    two = 2 % ctx.p
    sigma = [certify_automorphism(sigma_shift(pres, g), 0,
                                  f"sigma shift by {g}") for g in basis]
    tau = [certify_automorphism(tau_shift(pres, g), 0, f"tau shift by {g}")
           for g in basis]
    w_shift = vertical_shift_families(pres)["w"]

    # Soundness: the shifts are automorphisms (`certify_automorphism`), and
    # so is the w-shift W_c, since c^q = c for c in F_q.  For automorphisms
    # a b = c b a proves [a, b] = c, and then [b, a] = c^-1 in any group.
    def pair_job(i: int, j: int) -> dict:
        gi, gj = basis[i], basis[j]
        expected = ctx.neg(ctx.mul(two, ctx.mul(gi, gj)))
        if (compose_endo(sigma[i], tau[j])
                != compose_endo(w_shift(expected),
                                compose_endo(tau[j], sigma[i]))):
            raise IntegrityError(
                f"commutator at basis pair ({i}, {j}) is not the expected "
                "central shift")
        return {"i": i, "j": j, "gamma_i": gi, "gamma_j": gj,
                "w_shift": expected, "reverse_w_shift": ctx.neg(expected)}

    pairs = [pair_job(i, j) for i in range(n) for j in range(n)]

    if not all(compose_endo(f[i], f[j]) == compose_endo(f[j], f[i])
               for f in (sigma, tau) for i in range(n)
               for j in range(i + 1, n)):
        raise IntegrityError("two same-kind shifts do not commute")
    return {"pairs": pairs, "sigma_pairs_commute": True}


def cmd_prolong(params: Params, args) -> dict:
    """Soundness: `certify_group` certifies each lift s_i of b_i.  A listed
    a whose digits d_i replay to sum d_i b_i = a is reached by the composite
    of the s_i^d_i.  s_i s_j and s_j s_i both restrict to x -> x + b_i + b_j,
    so each of the n^2 cocycles s_i s_j (s_j s_i)^-1 fixes x and is
    vertical by the finite-extension lemma."""
    from .tower import certify_group, presentation

    ctx = params.field()
    q, n = params.q, params.n
    exhaustive = q <= 128
    if exhaustive:
        avals = list(range(q))
    else:
        from .rng import SplitMix64

        gen = SplitMix64(args.seed)
        avals = sorted({0, 1, gen.randbelow(q), gen.randbelow(q)})
    basis = prime_basis(ctx)

    total_order = certify_group(presentation(params))
    for a in avals:
        total = 0
        for d, b in zip(ctx.to_coeffs(a), basis):
            total = ctx.add(total, ctx.mul(d, b))
        if total != a:
            raise IntegrityError(f"translation {a} is not its basis sum")

    return {
        "translations_certified": len(avals),
        "exhaustive": exhaustive,
        "restriction_ok": True,
        "inverses_ok": True,
        "cocycle_pairs": n ** 2,
        "cocycles_vertical": True,
        "multiplicity": total_order // q,
        "total_order": total_order,
    }


# Each command's report builder and help line.
_COMMANDS = {
    "verify": (cmd_verify,
               "evaluate the big-action inequality under both readings"),
    "conductor": (cmd_conductor,
                  "certified conductors for floors and cover classes"),
    "genus": (cmd_genus, "full genus pipeline report"),
    "commutators": (cmd_commutators,
                    "shift commutators acting on the last generator"),
    "prolong": (cmd_prolong, "certify prolongations of the x-translations"),
    "audit": (cmd_audit, "compare pipeline genera with closed forms "
                         "(exit 3 on mismatch)"),
}


# ------------------------------------------------------------ plumbing


def _atomic_write(path: str, text: str) -> None:
    """Write text where open(path, "w") would: through any symlinks, so
    a link stays a link and a dangling one creates its target.  A regular
    or missing file is replaced by renaming a temp file; a FIFO or device
    is written in place, which a rename would replace.  The file keeps
    its mode, and a new one gets open()'s: 0o666 less the umask."""
    import tempfile

    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, stat.S_IMODE(mode))  # mkstemp's file is 0o600
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_path(args) -> str:
    # tagged ints and fixed strings: injective without a digest (hashlib)
    return os.path.join(args.cache_dir, (
        f"{args.command}-p{args.p}-s{args.s}-seed{args.seed}"
        f"-v{__version__}.json"))


def _write(value, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) at indent pad, for what
    reports print: bools, ints, strings json need not escape, lists and
    dicts with such string keys.  Any other value, such as a float, None,
    a tuple or a string that needs an escape, raises TypeError."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()
                and '"' not in value and "\\" not in value):
            raise TypeError(f"{value!r} needs a JSON escape")
        return f'"{value}"'
    inner = pad + "  "
    if isinstance(value, list):
        brackets = "[]"
        items = [_write(v, inner) for v in value]
    elif isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("canonical JSON keys must be str")
        brackets = "{}"
        items = [f"{_write(k, inner)}: {_write(value[k], inner)}"
                 for k in sorted(value)]
    else:
        raise TypeError(f"{type(value).__name__} is not canonical JSON")
    if not items:
        return brackets
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + pad + brackets[1])


def _canonical(payload) -> str:
    return _write(payload, "") + "\n"


def _read_cached(path: str, args) -> tuple:
    """(text, payload) of the cache entry at path, None for a miss, or
    False for an entry that is not a regular file.

    An entry that is missing, unreadable, not the canonical text of its
    own payload (a float has none), or a report of another command or
    (p, s) is a miss, so the report is recomputed and the entry
    rewritten, never served.  The entry is opened without blocking, so a
    FIFO with no writer is not a hang; such an entry, like a directory or
    a device, is neither read nor written.
    """
    try:
        with open(path, encoding="utf-8",
                  opener=lambda p, f: os.open(p, f | os.O_NONBLOCK)) as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                return False
            text = handle.read()
        import json  # reports are written by _canonical; only a read decodes

        payload = json.loads(text)
        if not isinstance(payload, dict) or _canonical(payload) != text:
            return None
    except IsADirectoryError:
        return False
    except (OSError, ValueError, RecursionError, TypeError):
        return None
    params = payload.get("params")
    if (payload.get("command") != args.command
            or not isinstance(params, dict)
            or params.get("p") != args.p or params.get("s") != args.s):
        return None
    return text, payload


def _obtain(args, params: Params) -> tuple:
    cache_file = _cache_path(args) if args.cache_dir else None
    cached = _read_cached(cache_file, args) if cache_file else None
    if cached:
        return cached
    payload = {**_COMMANDS[args.command][0](params, args),
               "command": args.command, "params": _params_payload(params)}
    text = _canonical(payload)
    if cached is False:
        print(f"cache entry not written: {cache_file} is not a regular file",
              file=sys.stderr)
    elif cache_file:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
            _atomic_write(cache_file, text)
        except OSError as exc:  # e.g. a name over the file system's limit
            print(f"cache entry not written: {exc}", file=sys.stderr)
    return text, payload


def _exit_code(command: str, payload: dict) -> int:
    if command == "audit" and payload.get("mismatches"):
        return 3
    return 0


def _render_md(payload: dict) -> str:
    lines = [f"# astower {payload['command']}", ""]
    for k, v in sorted(payload.items()):
        if k != "command" and not isinstance(v, (list, dict)):
            lines.append(f"- {k}: {v}")
    for k, v in sorted(payload.items()):
        if isinstance(v, list) and v and isinstance(v[0], dict):
            cols = sorted(v[0])
            lines += ["", f"## {k}", "",
                      "| " + " | ".join(cols) + " |",
                      "| " + " | ".join("---" for _ in cols) + " |"]
            lines += ["| " + " | ".join(str(row.get(c, "")) for c in cols)
                      + " |" for row in v]
        elif isinstance(v, dict):
            lines += ["", f"## {k}", ""]
            lines += [f"- {kk}: {vv}" for kk, vv in sorted(v.items())]
    return "\n".join(lines) + "\n"


def _report_format(value: str) -> str:
    if value not in ("json", "md"):
        raise ValueError(value)
    return value


def _path(value: str) -> str:
    if not value:  # "" would read as not given
        raise ValueError(value)
    return value


_REQUIRED = object()
# The flags every command takes: converter, default and help line.
_FLAGS = {
    "--p": (int, _REQUIRED, "odd prime characteristic"),
    "--s": (int, _REQUIRED, "tower parameter: q0 = p^s, q = p^(2s+1)"),
    "--seed": (int, 0, "seed choosing the two translations prolong "
                       "draws when q > 128"),
    "--cache-dir": (_path, None, "directory for keyed report caching"),
    "--out": (_path, None, "write the report here instead of stdout"),
    "--format": (_report_format, "json", "json (the default) or md"),
}
_USAGE = "usage: astower COMMAND --p P --s S [FLAGS]"


def _help() -> str:
    row = "  {:<23} {}".format
    return "\n".join([
        _USAGE, "", "exact conductor, genus, and automorphism reports for "
        "the five-step tower", "", "commands:",
        *(row(name, text) for name, (_, text) in _COMMANDS.items()),
        "", "flags, as --flag VALUE or --flag=VALUE:",
        *(row(f"{flag} {flag[2:].upper()}", text)
          for flag, (_, _, text) in _FLAGS.items()),
        row("-h, --help", "print this help and exit"),
        row("--version", "print the version and exit")])


def _print_and_exit(text: str) -> None:
    print(text)
    raise SystemExit(0)


def _usage_error(message: str) -> None:
    print(f"{_USAGE}\nastower: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list) -> SimpleNamespace:
    """The command and its flags, named as the commands read them.

    --help and --version print to stdout and exit 0; a usage error exits 2.
    """
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        _print_and_exit(_help())
    if command == "--version":
        _print_and_exit(f"astower {__version__}")
    if command not in _COMMANDS:
        _usage_error(f"unknown command {command!r}" if command
                     else "no command given")
    values = {flag: default for flag, (_, default, _) in _FLAGS.items()}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _print_and_exit(_help())
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS:
            _usage_error(f"unrecognized argument {token!r}")
        if not eq:  # the next token is the value, even one like -1
            value = next(tokens, None)
            if value is None:
                _usage_error(f"argument {flag}: expected a value")
        try:
            values[flag] = _FLAGS[flag][0](value)
        except ValueError:
            _usage_error(f"argument {flag}: invalid value {value!r}")
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        _usage_error(f"missing {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _flushed() -> bool:
    """Flush stdout and stderr; False when either refuses, such as a
    pipe whose reader has gone."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when Python started without it
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def _fast_exit(code: int) -> None:
    """End the process with `code`, skipping interpreter teardown.

    Teardown frees every object one by one, a few ms of each report.
    Skipping it loses nothing.
    Every file the CLI writes (`--out`, a cache entry) is closed before
    `main` returns, and the CLI starts no thread.  What is left is the
    buffered output, flushed here, and the `atexit` handlers, run here
    once.  Returns only when a flush raises, so that the caller ends as
    it did without this and the interpreter reports the failure.
    """
    if _flushed():
        import atexit

        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)


def main(argv=None) -> int:
    """Run the report argv asks for and return its exit code.

    With no argv (the console script, `python -m astower.cli`) it reads
    sys.argv and ends the process through `_fast_exit` instead.
    """
    if argv is not None:
        return _run(argv)
    try:
        code = _run(sys.argv[1:])
    except SystemExit as exc:  # --help, --version or a usage error
        _fast_exit(exc.code)
        raise
    _fast_exit(code)
    return code


def _run(argv: list) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    try:
        text, payload = _obtain(args, Params(args.p, args.s))
        code = _exit_code(args.command, payload)
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, UnsupportedError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    rendered = text if args.format == "json" else _render_md(payload)
    if args.out:
        try:
            _atomic_write(args.out, rendered)
        except OSError as exc:
            print(f"parameter error: cannot write --out {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(rendered, end="")
    elapsed = time.perf_counter() - started
    print(f"{args.command} elapsed {elapsed:.6f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
