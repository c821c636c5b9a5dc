"""Command-line interface.

Every subcommand takes --type (e.g. A5, D4, e6; case-insensitive) and emits
a single JSON document on stdout, except census, which streams JSON lines
(records, then a summary, then a cross-check report if a battery was given).
The cross-check reads each record as it is written, so a failed check ends
the stream at that record, with no summary.  Diagnostics go to stderr only.
--pretty switches to a human-readable rendering.

Words and node subsets are whitespace- or comma-separated 1-based indices
("3 2 3 4 2 1 2" or "2,3"); weights are coordinate vectors in the
fundamental-weight basis, written the same way.  Each field is an ASCII
decimal integer with an optional sign; anything else, such as an empty
field ("2,,3"), an underscore ("1_0") or a non-ASCII digit, is an error.

Exit codes: 0 success, 1 domain error (bad type, letter out of range, levi
set not inside the descent set, non-dominant weight, an --out file that
cannot be opened, ...) or stdout closed by its reader (census | head, with
nothing on stderr), 2 usage error, 3 budget exhaustion (enumeration cap,
character term ceiling, or a witness search that ends without a verdict).
decompose, mf-check and witness expand only the character at w0(I)(w(lam)),
never that of w, so the term ceiling bounds that character.

There is one character budget: the term ceiling and the lambda budget of
the characters module.  The library reads them when it runs, so every
command obeys the same pair, the census cross-check's witness search
included.  --cap on census and witness is the only budget override.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from functools import partial
from typing import Optional, Sequence

from . import census as census_mod
from . import characters as chars_mod
from .characters import (
    CharacterBudgetExceeded,
    DEFAULT_WITNESS_CAP,
    decompose_demazure,
    decomposition_to_json,
    demazure_char,
    is_multiplicity_free,
    witness_search,
)
from .rootsys import RootSystemSpec, build_root_system
from .sphericality import classify, classify_toric
from .weyl import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    from_word,
    left_descents,
    reduced_word,
)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    fields = re.split(r"\s*,\s*|\s+", text)
    # int() alone would also read "1_0" as 10 and non-ASCII digits.
    if not all(map(_INTEGER.fullmatch, fields)):
        raise ValueError(f"cannot parse index list from {text!r}")
    return tuple(map(int, fields))


def _parse_weight(spec: RootSystemSpec, text: str) -> tuple[int, ...]:
    vec = _parse_indices(text)
    if len(vec) != spec.rank:
        raise ValueError(
            f"weight {text!r} has {len(vec)} coordinates, expected {spec.rank}"
        )
    return vec


def _parse_battery(spec: RootSystemSpec, text: str) -> list[tuple[int, ...]]:
    """Semicolon-separated weights; 'fundamentals' and 'rho' are shorthands."""
    out: list[tuple[int, ...]] = []
    for part in text.split(";"):
        token = part.strip().lower()
        if not token:
            continue
        if token == "fundamentals":
            for i in range(spec.rank):
                out.append(tuple(int(j == i) for j in range(spec.rank)))
        elif token == "rho":
            out.append((1,) * spec.rank)
        else:
            out.append(_parse_weight(spec, part))
    return census_mod.check_battery(spec, out)


def _parse_levi(spec: RootSystemSpec, text: str, w) -> tuple[int, ...]:
    if text.strip().lower() == "descents":
        return tuple(sorted(left_descents(spec, w)))
    return _parse_indices(text)


def _emit(obj, pretty: bool) -> None:
    if pretty:
        _pretty_print(obj)
    else:
        print(json.dumps(obj))


def _pretty_print(obj) -> None:
    """A dict as aligned key/value lines; a list of dicts as one line each."""
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k, v in obj.items():
            print(f"{str(k):<{width}}  {json.dumps(v)}")
    else:
        for item in obj:
            print("  ".join(f"{k}={json.dumps(v)}" for k, v in item.items()))


def _run_word_command(cmd, args) -> int:
    """Parse --type and --word, then --weight and --levi where declared; run cmd."""
    spec = build_root_system(args.type)
    w = from_word(spec, _parse_indices(args.word))
    inputs = {}
    if "weight" in args:
        inputs["lam"] = _parse_weight(spec, args.weight)
    if "levi" in args:
        inputs["levi"] = _parse_levi(spec, args.levi, w)
    return cmd(args, spec, w, **inputs)


def _cmd_classify(args, spec, w, levi) -> int:
    _emit(classify(spec, w, levi).to_json_dict(), args.pretty)
    return 0


def _emit_about_w(args, spec, w, key, value) -> int:
    word = list(reduced_word(spec, w))
    _emit({"type": str(spec.cartan_type), "w_word": word, key: value}, args.pretty)
    return 0


def _cmd_toric(args, spec, w) -> int:
    return _emit_about_w(args, spec, w, "toric", classify_toric(spec, w))


def _cmd_descents(args, spec, w) -> int:
    return _emit_about_w(args, spec, w, "descents", sorted(left_descents(spec, w)))


def _cmd_demazure(args, spec, w, lam) -> int:
    char = demazure_char(spec, lam, w)
    if args.pretty:
        for entry in char.to_json_obj():
            print(f"{entry['weight']}  {entry['coeff']}")
        print(f"mass {char.mass()}  terms {len(char)}")
    else:
        print(json.dumps(char.to_json_obj()))
    return 0


def _cmd_decompose(args, spec, w, lam, levi) -> int:
    entries = decompose_demazure(spec, lam, w, levi)
    _emit(decomposition_to_json(entries), args.pretty)
    return 0


def _cmd_mf_check(args, spec, w, lam, levi) -> int:
    chk = is_multiplicity_free(spec, lam, w, levi)
    _emit(
        {
            "type": str(spec.cartan_type),
            "weight": list(lam),
            "w_word": list(reduced_word(spec, w)),
            "levi": list(levi),
            "multiplicity_free": chk.multiplicity_free,
            "witness_mu": None if chk.witness is None else list(chk.witness),
            "multiplicity": chk.multiplicity,
        },
        args.pretty,
    )
    return 0


def _cmd_witness(args, spec, w, levi) -> int:
    found = witness_search(spec, w, levi, args.cap)
    if found is None:
        budget = chars_mod.DEFAULT_LAMBDA_BUDGET
        _emit(
            {"found": False, "coeff_cap": args.cap, "lambda_budget": budget},
            args.pretty,
        )
        print(
            f"no witness with coordinates <= {args.cap}; inconclusive",
            file=sys.stderr,
        )
        return 3
    _emit(
        {
            "found": True,
            "lambda": list(found.lam),
            "mu": list(found.mu),
            "multiplicity": found.multiplicity,
        },
        args.pretty,
    )
    return 0


def _cmd_census(args) -> int:
    spec = build_root_system(args.type)
    mode_token = args.levi.strip().lower()
    try:
        levi_mode = {"all": "all-subsets", "descents": "full-descent-only"}[
            mode_token
        ]
    except KeyError:
        raise ValueError(f"census --levi must be 'all' or 'descents', got {args.levi!r}")
    battery = None if args.battery is None else _parse_battery(spec, args.battery)
    if args.sample is not None:
        if battery is None:
            raise ValueError("census --sample needs --battery: nothing to cross-check")
        census_mod.check_sample_rate(args.sample)
    # Every refusal comes before open() truncates a file the run would not fill.
    summary = census_mod.start_census(spec, levi_mode, args.cap)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as sink:
        if battery is None:
            census_mod.fill_census(spec, summary, sink)
        else:
            records = census_mod.census_records(spec, summary, sink)
            report = census_mod.cross_check(spec, records, battery, sample=args.sample)
    _emit(summary.to_json_dict(), args.pretty)
    if battery is not None:
        _emit(report.to_json_dict(), args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levispherical",
        description="Levi-sphericality of Schubert varieties, Demazure "
        "characters, and Weyl-group censuses (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_command(name, help, cmd, weight=False, levi_help=None):
        """A subcommand on --type and --word, with --weight and --levi if asked."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--type", required=True, help="Cartan type, e.g. D4")
        p.add_argument("--word", required=True, help="word in the generators")
        p.add_argument("--pretty", action="store_true", help="human output")
        if weight:
            p.add_argument("--weight", required=True, help="dominant weight")
        if levi_help:
            p.add_argument("--levi", default="", help=levi_help)
        p.set_defaults(func=partial(_run_word_command, cmd))
        return p

    nodes_help = "node subset or 'descents'"
    word_command(
        "classify",
        "decide Levi-sphericality of X_w",
        _cmd_classify,
        levi_help="node subset; 'descents' uses the full left descent set; "
        "empty means the torus case",
    )
    word_command("toric", "does X_w contain a dense torus orbit", _cmd_toric)
    word_command("descents", "left descent set of w", _cmd_descents)
    word_command(
        "demazure", "Demazure character of (lambda, w)", _cmd_demazure, weight=True
    )
    word_command(
        "decompose",
        "Levi decomposition of the Demazure character",
        _cmd_decompose,
        weight=True,
        levi_help=nodes_help,
    )
    word_command(
        "mf-check",
        "is the Demazure module multiplicity-free over L_I",
        _cmd_mf_check,
        weight=True,
        levi_help=nodes_help,
    )
    p = word_command(
        "witness",
        "search for a non-multiplicity-free highest weight",
        _cmd_witness,
        levi_help=nodes_help,
    )
    p.add_argument(
        "--cap", type=int, default=DEFAULT_WITNESS_CAP, help="weight coordinate cap"
    )

    p = sub.add_parser("census", help="classify every element of the group")
    p.add_argument("--type", required=True, help="Cartan type, e.g. D4")
    p.add_argument("--pretty", action="store_true", help="human output")
    p.add_argument(
        "--levi",
        default="all",
        help="'all' for every descent subset, 'descents' for I = D_L(w) only",
    )
    p.add_argument(
        "--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap"
    )
    p.add_argument("--out", default=None, help="write records to this file")
    p.add_argument(
        "--battery",
        default=None,
        help="cross-check weights: 'fundamentals;rho' or vectors 'a b; c d'",
    )
    p.add_argument(
        "--sample", type=float, default=None, help="cross-check sampling rate"
    )
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  As the SIGPIPE note of the signal
        # module advises, point stdout at devnull so that the flush at exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CapExceeded, CharacterBudgetExceeded) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except census_mod.InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
