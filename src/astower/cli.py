"""Command-line reports over the exact tower pipeline.

Every subcommand produces one canonical JSON document (sorted keys,
two-space indent, integers and fraction strings only, never floats) so
that repeated runs and cached runs are byte identical.  Timing chatter
goes to stderr.  Exit codes: 0 success, 1 integrity failure, 2 usage or
parameter error, 3 audit found mismatching rows.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import IntegrityError, ParameterError, UnsupportedError
from .ff import MAX_FIELD_Q, Params, _within_budget, prime_basis

# Each command imports the layers it uses when it runs, so a report
# loads only those: the class reports never load `tower`, and
# commutators/prolong never load `genus`, `local` or `laurent`.


def _enc(v):
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    from fractions import Fraction

    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    raise ParameterError(f"cannot encode {type(v).__name__} into a report")


def _params_payload(params: Params) -> dict:
    return {"p": params.p, "s": params.s, "q0": params.q0,
            "q": params.q, "n": params.n}


def _class_rows(classes) -> list:
    return [{"label": c.label, "count": c.count, "conductor": c.conductor,
             "genus": c.genus} for c in classes]


# ------------------------------------------------------------ commands


def cmd_verify(params: Params, args) -> dict:
    from .genus import verify_big_action

    rep = verify_big_action(params)
    return {
        "command": "verify",
        "params": _params_payload(params),
        "group_order": rep.group_order,
        "genus": rep.genus,
        "genus_printed": rep.genus_printed,
        "bound": _enc(rep.bound),
        "bound_printed": _enc(rep.bound_printed),
        "is_big": rep.is_big,
        "is_big_printed": rep.is_big_printed,
        "readings_agree": rep.readings_agree,
    }


def cmd_genus(params: Params, args) -> dict:
    from .genus import genus_of_F

    rep = genus_of_F(params)
    return {
        "command": "genus",
        "params": _params_payload(params),
        "base_genus": rep.base_genus,
        "classes": _class_rows(rep.classes),
        "weighted_sum": rep.weighted_sum,
        "gs_subtraction": rep.gs_subtraction,
        "genus": rep.genus,
        "printed_subtraction": rep.printed_subtraction,
        "genus_printed": rep.genus_printed,
    }


def cmd_conductor(params: Params, args) -> dict:
    from .genus import cover_classes, ree_aggregate, ree_line_groups, rh_genus
    from .local import conductor_of_cover

    first = conductor_of_cover(params, "y1", base="rational")
    lines = (params.q - 1) // (params.p - 1)
    line_genus = rh_genus(params.p, 0, first.m)
    classes = cover_classes(params, base_genus=lines * line_genus)
    payload = {
        "command": "conductor",
        "params": _params_payload(params),
        "base_floor": {
            "conductor": first.m,
            "line_genus": line_genus,
            "lines": lines,
            "genus": classes[0].base_genus,
        },
        "classes": _class_rows(classes),
    }
    if params.p == 3:
        groups = ree_line_groups(params)
        payload["two_floor_groups"] = {str(m): c
                                       for m, c in sorted(groups.items())}
        payload["two_floor_genus"] = ree_aggregate(params, groups=groups)
    return payload


def cmd_audit(params: Params, args) -> dict:
    from .genus import audit_closed_forms

    rows = audit_closed_forms(params)
    encoded = [{
        "label": r.label,
        "closed": _enc(r.closed),
        "pipeline": r.pipeline,
        "match": r.match,
        "difference": _enc(r.difference),
    } for r in rows]
    return {
        "command": "audit",
        "params": _params_payload(params),
        "rows": encoded,
        "mismatches": sum(1 for r in rows if not r.match),
    }


def cmd_commutators(params: Params, args) -> dict:
    from .tower import (commutator, identity_endo, presentation, sigma_shift,
                        tau_shift)

    pres = presentation(params, "mixed")
    ctx = params.field()
    basis = prime_basis(ctx)
    n = params.n
    two = 2 % ctx.p

    def pair_job(i: int, j: int) -> dict:
        gi, gj = basis[i], basis[j]
        com = commutator(sigma_shift(pres, gi), tau_shift(pres, gj))
        shift = (com.images["w"] - pres.gen("w")).constant_term()
        expected = ctx.neg(ctx.mul(two, ctx.mul(gi, gj)))
        want = identity_endo(pres).replace(
            w=pres.gen("w") + pres.const(expected))
        if com != want:
            raise IntegrityError(
                f"commutator at basis pair ({i}, {j}) is not the expected "
                "central shift")
        rev = commutator(tau_shift(pres, gj), sigma_shift(pres, gi))
        rev_shift = (rev.images["w"] - pres.gen("w")).constant_term()
        if rev_shift != ctx.neg(expected):
            raise IntegrityError(
                f"reverse commutator at ({i}, {j}) has the wrong sign")
        return {"i": i, "j": j, "gamma_i": gi, "gamma_j": gj,
                "w_shift": shift, "reverse_w_shift": rev_shift}

    pairs = [pair_job(i, j) for i in range(n) for j in range(n)]

    ident = identity_endo(pres)
    same_kind = all(
        commutator(sigma_shift(pres, basis[i]), sigma_shift(pres, basis[j]))
        == ident
        and commutator(tau_shift(pres, basis[i]), tau_shift(pres, basis[j]))
        == ident
        for i in range(n) for j in range(i + 1, n))
    return {
        "command": "commutators",
        "params": _params_payload(params),
        "pairs": pairs,
        "sigma_pairs_commute": same_kind,
    }


def cmd_prolong(params: Params, args) -> dict:
    from .tower import (check_endo, compose_endo, extension_multiplicity,
                        identity_endo, invert_endo, presentation,
                        prolong_translation)

    pres = presentation(params, "mixed")
    ctx = params.field()
    q = params.q
    ident = identity_endo(pres)
    exhaustive = q <= 128
    if exhaustive:
        avals = list(range(q))
    else:
        from .rng import SplitMix64

        gen = SplitMix64(args.seed)
        avals = sorted({0, 1} | {gen.randbelow(q)
                                 for _ in range(max(args.samples, 2))})
    basis = prime_basis(ctx)
    lifts = {}

    def lift(a: int) -> tuple:
        """The prolongation of x -> x + a and its inverse, built once."""
        pair = lifts.get(a)
        if pair is None:
            endo = prolong_translation(pres, a)
            pair = lifts[a] = (endo, invert_endo(endo))
        return pair

    # Soundness: a basis lift s_i passing check_endo is an endomorphism of
    # the tower's function field fixing F_q, so injective, and s_i o t_i =
    # id makes it an automorphism with inverse t_i.  Each s_i sends x to
    # x + b_i, so for a listed a whose base-p digits d_i replay below to
    # sum d_i b_i = a, the composite of the s_i^d_i is an automorphism
    # sending x to x + a, inverted by the reverse composite of the t_i:
    # n certified lifts certify every listed translation.
    for b in basis:
        endo, inverse = lift(b)
        if not check_endo(pres, endo).ok:
            raise IntegrityError("a prolongation failed its relation check")
        if (endo.images["x"] != pres.x() + pres.const(b)
                or compose_endo(endo, inverse) != ident):
            raise IntegrityError(f"lift of {b}: wrong restriction or inverse")
    for a in avals:
        total = 0
        for d, b in zip(ctx.to_coeffs(a), basis):
            total = ctx.add(total, ctx.mul(d, b))
        if total != a:
            raise IntegrityError(f"translation {a} is not its basis sum")

    def cocycle(a: int, b: int) -> bool:
        delta = compose_endo(compose_endo(lift(a)[0], lift(b)[0]),
                             lift(ctx.add(a, b))[1])
        return (delta.images["x"] == pres.x()
                and check_endo(pres, delta).ok)

    if not all(cocycle(a, b) for a in basis for b in basis):
        raise IntegrityError("a prolongation cocycle left the vertical group")

    return {
        "command": "prolong",
        "params": _params_payload(params),
        "translations_certified": len(avals),
        "exhaustive": exhaustive,
        "restriction_ok": True,
        "inverses_ok": True,
        "cocycle_pairs": len(basis) ** 2,
        "cocycles_vertical": True,
        "multiplicity": extension_multiplicity(pres),
        "total_order": q ** 6,
    }


_COMMANDS = {
    "verify": cmd_verify,
    "conductor": cmd_conductor,
    "genus": cmd_genus,
    "commutators": cmd_commutators,
    "prolong": cmd_prolong,
    "audit": cmd_audit,
}


# ------------------------------------------------------------ plumbing


def _atomic_write(path: str, text: str) -> None:
    """Replace a regular or missing file by renaming a temp file; write
    a FIFO or device in place, which a rename would replace."""
    import stat
    import tempfile

    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
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
        f"{args.command}-p{args.p}-s{args.s}-n{args.samples}"
        f"-seed{args.seed}-v{__version__}.json"))


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _read_cached(path: str, args) -> tuple:
    """(text, payload) of the cache entry at path, or None for a miss.

    An entry that is missing, unreadable, not the canonical text of its
    own payload, or a report of another command or (p, s) is a miss, so
    the report is recomputed and the entry rewritten, never served.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(payload, dict) or _canonical(payload) != text:
        return None
    params = payload.get("params")
    if (payload.get("command") != args.command
            or not isinstance(params, dict)
            or params.get("p") != args.p or params.get("s") != args.s):
        return None
    return text, payload


def _obtain(args) -> tuple:
    cache_file = _cache_path(args) if args.cache_dir else None
    if cache_file:
        cached = _read_cached(cache_file, args)
        if cached is not None:
            return cached
    params = Params(args.p, args.s)
    payload = _COMMANDS[args.command](params, args)
    text = _canonical(payload)
    if cache_file:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astower",
        description="exact conductor, genus, and automorphism reports for "
                    "the five-step tower")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--p", type=int, required=True,
                        help="odd prime characteristic")
    shared.add_argument("--s", type=int, required=True,
                        help="tower parameter: q0 = p^s, q = p^(2s+1)")
    shared.add_argument("--samples", type=int, default=2,
                        help="translations prolong lists when q > 128 "
                             "(all are certified through the basis lifts)")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for the translations prolong lists when "
                             "q > 128 (reports are reproducible bit for "
                             "bit)")
    shared.add_argument("--cache-dir", default=None,
                        help="directory for keyed report caching")
    shared.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    shared.add_argument("--format", choices=("json", "md"), default="json")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    helps = {
        "verify": "evaluate the big-action inequality under both readings",
        "conductor": "certified conductors for floors and cover classes",
        "genus": "full genus pipeline report",
        "commutators": "shift commutators acting on the last generator",
        "prolong": "certify prolongations of the x-translations",
        "audit": "compare pipeline genera with closed forms (exit 3 on "
                 "mismatch)",
    }
    for name, help_text in helps.items():
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def _check_args(args) -> None:
    """Exit 2 before Params, whose primality test and powers hang on an
    absurd --p or --s."""
    if args.samples < 0:
        raise ParameterError("--samples must be nonnegative")
    if args.p < 3:
        raise ParameterError(f"p must be an odd prime, got {args.p}")
    if args.s < 1:
        raise ParameterError(f"s must be a positive integer, got {args.s}")
    if not _within_budget(args.p, 2 * args.s + 1):
        raise UnsupportedError(
            f"q = {args.p}^{2 * args.s + 1} has more than {MAX_FIELD_Q} "
            "elements, above the field table budget")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _check_args(args)
        text, payload = _obtain(args)
        code = _exit_code(args.command, payload)
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, UnsupportedError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    rendered = text if args.format == "json" else _render_md(payload)
    if args.out:
        _atomic_write(args.out, rendered)
    else:
        print(rendered, end="")
    elapsed = time.perf_counter() - started
    print(f"{args.command} elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
