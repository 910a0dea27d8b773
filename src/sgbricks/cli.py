"""Command-line front end.

Commands: analyze, dual, brick, classify, family, lift, search.  Commands
taking a semigroup and an ideal separate the two integer lists with `--`;
dual and brick read the dual, the sum and their mu values off one
brick_check.
family and search share one option parser; search's flags other than
--format, --out and --perfect-only map onto SearchConfig fields, so the
search defaults live only in SearchConfig.  --perfect-only keeps the
perfect records, and the summary counts only those.
Exit status: 0 success, 2 usage error, 3 domain validation error, 4 I/O
failure; errors go to stderr as one machine-readable line.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

from .balanced import (
    canonical_brick,
    classify,
    frobenius_of_quad,
    frobenius_of_triple,
    unitary_family,
)
from .brickhunt import (REPORT_FORMATS, SearchConfig, lift, search,
                        summarize, write_reports)
from .errors import DomainError
from .ideal import BrickCheck, RelativeIdeal, brick_check
from .sgcore import NumericalSemigroup

USAGE = """usage: sgbricks <command> [arguments]

commands:
  analyze <gens...>                      semigroup invariants and apery set
  dual <gens...> -- <ideal gens...>      dual ideal, sum and mu values
  brick <gens...> -- <ideal gens...>     brick test for the pair
  classify <a1> <a2> <a3> <a4>           balanced/unitary classification
  family --z-max <Z>                     one-parameter unitary family members
  lift <gens...> -- <ideal gens...>      rebuild the candidate perfect brick
  search --gen-max <N> [--t-min <N>] [--t-max <N>] [--mu-cap <N>]
         [--perfect-only] [--workers <N>] [--format line|table] [--out PATH]
                                         exhaustive brick search
"""


class UsageError(Exception):
    pass


def main() -> None:
    sys.exit(run())


def run(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args:
        print(USAGE, file=sys.stderr, end="")
        return 2
    if args[0] in ("-h", "--help", "help"):
        print(USAGE, end="")
        return 0
    command, rest = args[0], args[1:]
    handlers = {
        "analyze": _cmd_analyze,
        "dual": _cmd_dual,
        "brick": _cmd_brick,
        "classify": _cmd_classify,
        "family": _cmd_family,
        "lift": _cmd_lift,
        "search": _cmd_search,
    }
    handler = handlers.get(command)
    if handler is None:
        print(f"error: usage: unknown command {command!r}", file=sys.stderr)
        print(USAGE, file=sys.stderr, end="")
        return 2
    try:
        handler(rest)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    return 0


# ------------------------------------------------------------ small parsers

def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"expected an integer, got {token!r}") from None


def _int_list(tokens: list[str], what: str) -> list[int]:
    if not tokens:
        raise UsageError(f"missing {what}")
    return [_int(t) for t in tokens]


def _split_pair(tokens: list[str]) -> tuple[NumericalSemigroup, RelativeIdeal]:
    # both integer lists are parsed before the semigroup is built, so a
    # usage error comes before any domain error
    if "--" not in tokens:
        raise UsageError("expected `--` between semigroup and ideal generators")
    cut = tokens.index("--")
    sgens = _int_list(tokens[:cut], "semigroup generators")
    igens = _int_list(tokens[cut + 1:], "ideal generators")
    S = NumericalSemigroup(sgens)
    return S, RelativeIdeal(S, igens)


def _options(args: list[str], flags: dict[str, str],
             switches: tuple[str, ...] = (), text: tuple[str, ...] = ()) -> dict:
    # options keyed by the names flags maps them to: True for a flag in
    # switches, else the next token, an integer unless the flag is in text
    options: dict = {}
    tokens = iter(args)
    for token in tokens:
        if token not in flags:
            raise UsageError(f"unknown option {token!r}")
        name = flags[token]
        if token in switches:
            options[name] = True
            continue
        value = next(tokens, None)
        if value is None:
            raise UsageError(f"{token} needs a value")
        options[name] = value if token in text else _int(value)
    return options


def _fmt_sg(gens) -> str:
    return "<" + ", ".join(map(str, gens)) + ">"


def _fmt_ideal(gens) -> str:
    return "(" + ", ".join(map(str, gens)) + ")"


def _print_pair(S: NumericalSemigroup, I: RelativeIdeal,
                chk: BrickCheck) -> None:
    print(f"S = {_fmt_sg(S.min_gens)}")
    print(f"I = {_fmt_ideal(I.min_gens)}")
    print(f"S - I = {_fmt_ideal(chk.dual_ideal.min_gens)}")
    print(f"I + (S - I) = {_fmt_ideal(chk.sum_ideal.min_gens)}")


def _print_verdict(chk: BrickCheck) -> None:
    print(f"dimensions: {chk.mu_ideal} x {chk.mu_dual}")
    print(f"brick: {'yes' if chk.is_brick else 'no'}")
    print(f"perfect: {'yes' if chk.is_perfect else 'no'}")


# ---------------------------------------------------------------- commands

def _cmd_analyze(args: list[str]) -> None:
    S = NumericalSemigroup(_int_list(args, "semigroup generators"))
    print(f"S = {_fmt_sg(S.min_gens)}")
    print(f"multiplicity: {S.multiplicity}")
    print(f"frobenius: {S.frobenius}")
    print(f"n_count: {S.n_count}")
    print(f"symmetric: {'yes' if S.is_symmetric() else 'no'}")
    print("apery set:", " ".join(map(str, S.apery_set())))


def _cmd_dual(args: list[str]) -> None:
    S, I = _split_pair(args)
    chk = brick_check(S, I)
    _print_pair(S, I, chk)
    print(f"mu(I) = {chk.mu_ideal}, mu(S - I) = {chk.mu_dual}, "
          f"mu(I + (S - I)) = {chk.mu_sum}")


def _cmd_brick(args: list[str]) -> None:
    S, I = _split_pair(args)
    chk = brick_check(S, I)
    _print_pair(S, I, chk)
    _print_verdict(chk)


def _cmd_classify(args: list[str]) -> None:
    vals = _int_list(args, "quadruple")
    if len(vals) != 4:
        raise UsageError("classify takes exactly four integers")
    result = classify(vals)
    if not result.is_balanced:
        print(f"quadruple: {_fmt_sg(sorted(vals))}")
        print("classification: not balanced")
        print(f"reason: {result.reason}")
        return
    p = result.profile
    print(f"quadruple: {_fmt_sg(p.gens)}")
    print(f"classification: {result.kind}")
    print(f"gcd(a1, a4) = {p.outer_gcd}, gcd(a2, a3) = {p.inner_gcd}")
    print(f"quotients: q1 = {p.q1}, q2 = {p.q2}, q3 = {p.q3}, q4 = {p.q4}")
    print(f"common sum = {p.common_sum}, common quotient = {p.common_quotient}")
    print(f"shift n = {p.shift}")
    if result.is_unitary:
        igens, dual_gens = canonical_brick(p)
        print(f"frobenius of {_fmt_sg(p.gens[:3])} = {frobenius_of_triple(p)}")
        print(f"frobenius of {_fmt_sg(p.gens)} = {frobenius_of_quad(p)}")
        print(f"canonical ideal: {_fmt_ideal(igens)}")
        print(f"predicted dual: {_fmt_ideal(dual_gens)}")


def _cmd_family(args: list[str]) -> None:
    z_max = _options(args, {"--z-max": "z_max"}).get("z_max")
    if z_max is None:
        raise UsageError("family requires --z-max")
    for z in range(3, z_max + 1):
        quad = unitary_family(z)
        if quad is None:
            continue
        S = NumericalSemigroup(quad)
        igens, dual_gens = canonical_brick(classify(quad).profile)
        chk = brick_check(S, RelativeIdeal(S, igens))
        perfect = "yes" if chk.is_perfect and (chk.mu_ideal, chk.mu_dual) == (2, 2) else "no"
        print(f"z = {z}: {_fmt_sg(quad)}  I = {_fmt_ideal(igens)}  "
              f"dual = {_fmt_ideal(dual_gens)}  perfect 2x2: {perfect}")


def _cmd_lift(args: list[str]) -> None:
    S, I = _split_pair(args)
    res = lift(S, I)
    print(f"S = {_fmt_sg(S.min_gens)}")
    print(f"I = {_fmt_ideal(I.min_gens)}")
    print(f"lifted S = {_fmt_sg(res.quad)}")
    print(f"lifted I = {_fmt_ideal(res.ideal_gens)}")
    _print_verdict(res.check)


def _cmd_search(args: list[str]) -> None:
    # fmt, out and perfect_only pick the report; every other name is a
    # SearchConfig field, whose defaults apply to the flags not given
    options = _options(
        args, {"--t-min": "t_min", "--t-max": "t_max", "--gen-max": "gen_max",
               "--mu-cap": "mu_cap", "--workers": "worker_count",
               "--perfect-only": "perfect_only", "--format": "fmt",
               "--out": "out"},
        switches=("--perfect-only",), text=("--format", "--out"))
    fmt = options.pop("fmt", "line")
    if fmt not in REPORT_FORMATS:
        raise UsageError("--format needs "
                         + " or ".join(f"`{f}`" for f in REPORT_FORMATS))
    out = options.pop("out", None)
    perfect_only = options.pop("perfect_only", False)
    if "gen_max" not in options:
        raise UsageError("search requires --gen-max")
    config = SearchConfig(**options)
    # --out is opened, and truncated, before the search, so an unwritable
    # path fails at once rather than after the whole search
    with open(out, "w") if out is not None else nullcontext(sys.stdout) as dest:
        reports = search(config)
        if perfect_only:
            reports = [r for r in reports if r.perfect]
        write_reports(reports, dest, fmt)
    print(summarize(reports), file=sys.stderr)


if __name__ == "__main__":
    main()
