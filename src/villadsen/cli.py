"""Command-line entry point.

Four subcommands drive the verifiers: `chern` computes characteristic
classes of a bundle description, `vi` runs the type-I stage diagnostics
and witnesses, `v2` the type-II traces, comparability triple and radius of
comparison, and `cfp` the witness-sequence construction and both halves of
its verification.  Machine-readable JSON goes to stdout; human diagnostics
go to stderr.  Exit code 0 means every requested verification succeeded,
2 means a verification failed or was refused (including an internal
cross-check whose two routes disagree, a report that fails its schema or
is cut after its first byte, and a call out of memory), 1 means a usage
or parse error.

One option table, `_COMMANDS`, gives each subcommand's runner, help line
and options, and drives argv parsing (`_parse`), the usage line and
`-h`/`--help`.  The subcommand comes first; its options follow in any
order as `--opt value`, `-k value` or a bare flag.  Prefix abbreviations,
`--opt=value`, attached short values (`-n3`) and `--` are usage errors.

Every report is checked against the packaged report schema
(`reports.validate_report`, standard-library code) before it is printed;
one that fails is not printed, and one `error:` line names the JSON path
and the offending value.  All of a report's text, the input documents it
echoes included, is written, as pieces, by `reports.canonical_pieces`
before its first byte is printed, but for its Chern components, whose runs
are made as they are printed, and its `wall_time_ms`, read after them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import partial
from types import SimpleNamespace

from . import cfp as cfp_mod
from . import reports
from .bundles import chern_series, euler, euler_nonzero, parse_bundle
from .cohomology import line_series_texts
from .errors import ConfigError, CrossCheckDisagreement, GeneratorBudgetExceeded
from .growth import family_parameter_label, parse_family_parameter
from .spaces import SpaceDescriptor, read_int
from .type_one import (
    SystemConfig,
    composed_projection_multiplicities,
    ratio_contradiction_check,
    running_stats,
    top_chern_witness,
)
from .type_two import comparability_triple, radius_of_comparison, trace_table


def _load_json(path: str):
    """The JSON document at `path`, which the report echoes under `inputs`
    as it is.  A float literal (1e400, 2.9, NaN) is a ConfigError, since
    every number the engine reads is an exact integer, and so are an
    integer literal past Python's int<->str digit limit and nesting past
    the interpreter's recursion limit."""
    def reject(literal):
        raise ConfigError(f"{path} holds the non-integer number {literal}; "
                          "write integers or decimal strings")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=reject, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not JSON: {exc}") from None
        except ConfigError:
            raise
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{path} nests too deeply to be read") from None
        except ValueError:  # the decoder's int() refused a literal past the digit limit
            raise ConfigError(f"{path} holds an integer literal of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None


def _check_index(label: str, value: int | None) -> None:
    """A stage or term count past sys.maxsize is a usage error that names its
    option (`label`): the engine walks stages with islice, which stops
    there.  A `cfp --override-l` stage is walked to, not passed to
    math.factorial, and a `cfp --terms` count is one witness stage per
    term, so both stop there too."""
    if value is not None and value > sys.maxsize:
        raise ConfigError(f"{label} {value} exceeds {sys.maxsize}")


def _parse_document(what: str, path: str, build, doc):
    """`build(doc)`, with any malformed-input error turned into one
    ConfigError that names the document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document {path} must be a JSON object")
    try:
        return build(doc)
    except KeyError as exc:
        raise ConfigError(f"{what} document {path} lacks the key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"{what} document {path}: {exc}") from None


# Python's int->str digit limit is lifted for a call's checks, and for the
# assembly and the write of its report: ranks such as (n+1)! pass the
# default 4300 digits near stage 1700, and a correct result must not turn
# into an error.  Input documents are read under the default limit.  An
# interpreter without the limit has none to lift.
_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _emit(report: dict) -> int:
    """Validate and print `report`, which only this call holds.  Its text
    is walked first, by `reports.canonical_pieces`, so an error there prints
    no part of it: an input document that `json.load` read but that nests,
    under the report, deeper than the writer's stack allows is one
    ConfigError.  Then the report is freed, and one `writelines` prints the
    pieces, making each lazy fragment's as it goes; an error there cuts the
    report: its line is ended, and one `error:` line follows (exit 2)."""
    try:
        reports.validate_report(report)
    except ValueError as exc:
        # the engine built a report it cannot stand behind: a failure, not a usage error
        print(f"error: report fails its schema {exc}", file=sys.stderr)
        return 2
    try:
        pieces = reports.canonical_pieces(report)
    except RecursionError:
        # the writer keeps no record of the containers it is inside, so a
        # value that holds itself ends here too
        raise ConfigError("the report nests too deeply to be written: an input "
                          "document too deep, or a value that holds itself") from None
    ok = report["ok"]
    del report
    try:
        sys.stdout.writelines(pieces)
    except OSError:
        raise
    except Exception as exc:  # the report is cut: its line still ends
        print(f"error: the report was cut short by {exc!r}", file=sys.stderr)
        ok = False
    sys.stdout.write("\n")
    return 0 if ok else 2


def _check(name: str, compute) -> dict:
    """The report check `name` from `compute()`, which returns the arguments
    of `reports.check` that follow the name: (passed, certificate) or
    (passed, None, message).  A computation past the expansion budget is
    refused; one whose two internal routes disagree fails with their
    disagreement as its message."""
    try:
        return reports.check(name, *compute())
    except GeneratorBudgetExceeded as exc:
        required = ({"required": str(exc.required)} if exc.required is not None
                    else {"required_log2": str(exc.required_log2)})
        return reports.refused(name, str(exc), {**required, "budget": str(exc.budget)})
    except CrossCheckDisagreement as exc:
        return reports.check(name, False, message=str(exc))


def _certified(certificate: dict) -> tuple[bool, dict]:
    """The check arguments of an engine certificate that holds its own verdict."""
    return certificate["passed"], certificate


# Each runner reads its documents and argv and returns the report inputs and
# the list of (check name, computation); `main` runs the computations.

def _run_chern(args):
    space_doc, bundle_doc = _load_json(args.space), _load_json(args.bundle)
    base = _parse_document("space", args.space, SpaceDescriptor.from_json, space_doc)
    bundle = _parse_document("bundle", args.bundle,
                             lambda doc: parse_bundle(base, doc), bundle_doc)

    def components():
        return True, {
            "rank": str(bundle.rank),
            "components": {str(degree): component for degree, component
                           in line_series_texts(bundle.base, chern_series(bundle)).items()},
        }

    def euler_class():
        # `euler_nonzero` checks the factorized class against `chern_component`
        nonzero, _ = euler_nonzero(bundle)
        terms = [{"coefficient": str(c), "exponents": list(e)}
                 for e, c in sorted(euler(bundle).terms.items())]
        return True, {"degree": str(2 * bundle.rank), "nonzero": nonzero,
                      "class": {"terms": terms}}

    return ({"space": space_doc, "bundle": bundle_doc},
            [("chern_components", components), ("euler_class", euler_class)])


def _run_vi(args):
    if args.witness is not None and args.witness < 2:
        raise ConfigError(f"--witness must be >= 2, not {args.witness}")
    config_doc = _load_json(args.config)
    config = _parse_document("config", args.config, SystemConfig.from_json, config_doc)
    steps = list(config.steps)
    start = args.start
    stop = args.stage if args.stage is not None else len(steps)
    if not 0 <= start <= stop <= len(steps):
        raise ConfigError(f"stage range [{start}, {stop}] out of bounds")
    composed = running_stats(steps, start, stop)
    stats = composed[-1]

    def stage_stats():
        return True, {
            "from_stage": start, "to_stage": stop,
            "distinct_projections": str(stats.distinct_projections),
            "projection_multiplicity": str(stats.projection_multiplicity),
            "total_multiplicity": str(stats.total_multiplicity),
            "distinct_ratio": reports.Encoded(reports.fraction_json(
                stats.distinct_projections, stats.total_multiplicity)),
            "projection_ratio": reports.Encoded(reports.fraction_json(
                stats.projection_multiplicity, stats.total_multiplicity)),
        }

    def trajectory():
        # each prefix's distinct ratio a/b, nonincreasing when a*d >= c*b for
        # every next ratio c/d
        values = [(prefix.distinct_projections, prefix.total_multiplicity)
                  for prefix in composed[1:]]
        nonincreasing = all(a * d >= c * b for (a, b), (c, d) in zip(values, values[1:]))
        return nonincreasing, {"values": reports.encoded_rows(
            [reports.fraction_json(*v) for v in values])}

    def estimate():
        return True, {"value": reports.Encoded(reports.fraction_json(
                          stats.projection_multiplicity, stats.total_multiplicity)),
                      "finite_stage": True, "from_stage": start, "to_stage": stop}

    def witness():
        mults = composed_projection_multiplicities(steps, start, stop)
        if not mults:
            return False, None, "no composed coordinate projections in this range"
        return True, top_chern_witness(args.witness, mults)

    def contradiction():
        found = ratio_contradiction_check(args.witness, stats)
        return (not found["hypothesis_holds"]) or found["contradiction"], found

    checks = [("stage_stats", stage_stats), ("ratio_trajectory", trajectory),
              ("projection_ratio_estimate", estimate)]
    if args.witness is not None:
        checks += [("top_chern_witness", witness), ("ratio_contradiction", contradiction)]
    return ({"config": config_doc, "from": start, "stage": stop, "witness": args.witness},
            checks)


def _run_v2(args):
    if args.stage is not None and not args.comparability:
        raise ConfigError("--stage is the verification stage of --comparability "
                          "and needs it")
    _check_index("-n stage", args.n)
    _check_index("--stage stage", args.stage)
    k = parse_family_parameter(args.k)
    if args.comparability and args.n < 1:
        raise ConfigError("comparability needs a stage >= 1")
    n = args.n
    want_trace = args.trace or not (args.rc or args.comparability)
    verify_stage = args.stage if args.stage is not None else n

    checks = []
    if want_trace:
        # trace_table returns only once the unit rank has certified the unit trace 1
        checks.append(("trace_table", lambda: (True, trace_table(k, n))))
    if args.comparability:
        checks.append(("comparability_triple",
                       lambda: _certified(comparability_triple(k, n, verify_stage))))
    if args.rc:
        checks.append(("radius_of_comparison",
                       lambda: _certified(radius_of_comparison(k, n))))
    return ({"k": family_parameter_label(k), "n": n, "stage": args.stage, "rc": args.rc,
             "comparability": args.comparability, "trace": want_trace},
            checks)


def _run_cfp(args):
    overrides = None
    if args.override_l:
        overrides = [read_int(x.strip(), "--override-l entry")
                     for x in args.override_l.split(",")]
        _check_index("--override-l stage", max(overrides, default=None))
    _check_index("--stage stage", args.stage)
    _check_index("--terms", args.terms)
    witness = cfp_mod.build_witness(args.terms, overrides)
    last = witness.terms[-1].n
    if args.stage is not None and args.stage < last:
        raise ConfigError(f"--stage {args.stage} is below the last witness stage; "
                          f"it must reach stage {last}")
    stage = last if args.stage is None else args.stage

    def upper(term):
        certificate = cfp_mod.verify_upper(term)
        return certificate["outcome"] == "dominates", certificate

    checks = [("witness_stages", lambda: (True, cfp_mod.witness_stages(witness)))]
    checks += [(f"upper_term_{i}", partial(upper, term))
               for i, term in enumerate(witness.terms, start=1)]
    checks.append(("lower_bound", lambda: _certified(cfp_mod.verify_lower(witness, stage))))
    return ({"terms": args.terms, "stage": stage, "override_l": args.override_l},
            checks)


_DESCRIPTION = ("Exact verification of comparison obstructions in Villadsen-type "
                "inductive systems")
_HELP = ("-h", "--help")

# Per subcommand: its runner, its help line and its options.  Each option
# word maps to (dest, kind, required, default, help); the kind is "flag"
# (stores True), "int" (read by `spaces.read_int`) or "text".
_COMMANDS = {
    "chern": (_run_chern, "Chern and Euler classes of a bundle spec", {
        "--space": ("space", "text", True, None, "space descriptor JSON file"),
        "--bundle": ("bundle", "text", True, None, "bundle JSON file"),
    }),
    "vi": (_run_vi, "type-I stage diagnostics and witnesses", {
        "--config": ("config", "text", True, None, "system config JSON file"),
        "--from": ("start", "int", False, 0,
                   "first stage of the composed range (default 0)"),
        "--stage": ("stage", "int", False, None,
                    "last stage of the composed range (default: all)"),
        "--witness": ("witness", "int", False, None,
                      "witness size n for the top-Chern and contradiction checks"),
    }),
    "v2": (_run_v2, "type-II traces, comparability, radius", {
        "-k": ("k", "text", True, None, "family parameter (integer or 'inf')"),
        "-n": ("n", "int", True, None, "stage"),
        "--stage": ("stage", "int", False, None,
                    "verification stage for --comparability (default n)"),
        "--trace": ("trace", "flag", False, False, "emit the trace table"),
        "--comparability": ("comparability", "flag", False, False,
                            "verify the comparability triple"),
        "--rc": ("rc", "flag", False, False,
                 "verify the radius of comparison up to stage n"),
    }),
    "cfp": (_run_cfp, "witness sequences and both verification halves", {
        "--terms": ("terms", "int", False, 2, "number of witness terms"),
        "--stage": ("stage", "int", False, None, "verification stage for the lower bound"),
        "--override-l": ("override_l", "text", False, "",
                         "comma-separated witness stages overriding the minimal choice"),
    }),
}


def _spelling(word: str, dest: str, kind: str) -> str:
    return word if kind == "flag" else f"{word} {dest.upper()}"


def _usage(name: str | None) -> str:
    """The usage line of subcommand `name`, or of the program for None."""
    if name is None:
        return f"usage: villadsen [-h] {{{','.join(_COMMANDS)}}} ..."
    parts = []
    for word, (dest, kind, required, _, _) in _COMMANDS[name][2].items():
        part = _spelling(word, dest, kind)
        parts.append(part if required else f"[{part}]")
    return f"usage: villadsen {name} [-h] {' '.join(parts)}"


def _help_exit(name: str | None):
    """Print the `--help` text of subcommand `name`, or of the program for
    None, and exit 0."""
    if name is None:
        about = _DESCRIPTION
        rows = [(command, line) for command, (_, line, _) in _COMMANDS.items()]
    else:
        about = _COMMANDS[name][1]
        rows = [(_spelling(word, dest, kind), line)
                for word, (dest, kind, _, _, line) in _COMMANDS[name][2].items()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    print("\n".join([_usage(name), "", about, "",
                     *(f"  {left:<{width}}  {line}" for left, line in rows)]))
    raise SystemExit(0)


def _usage_error(name: str | None, message: str):
    print(_usage(name), file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand `argv` names, its runner (`func`) and its option values.

    The subcommand comes first; its options follow in any order, as
    `--opt value`, `-k value` or a bare flag, and a repeated option keeps
    its last value.  A word that names one of the subcommand's options, or
    `-h`/`--help`, is never taken as a value.  `-h`/`--help` prints help
    and exits 0; any other misuse prints the usage line and one `error:`
    line, and exits 1.
    """
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            _help_exit(None)
        _usage_error(None, f"choose a subcommand ({', '.join(_COMMANDS)})"
                           + (f", not {argv[0]!r}" if argv else ""))
    name = argv[0]
    func, _, options = _COMMANDS[name]
    values = {dest: default for dest, _, _, default, _ in options.values()}
    words = iter(argv[1:])
    for word in words:
        if word in _HELP:
            _help_exit(name)
        if word not in options:
            _usage_error(name, f"unrecognized argument {word!r}")
        dest, kind, _, _, _ = options[word]
        if kind == "flag":
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value in options or value in _HELP:
            _usage_error(name, f"{word} needs a value")
        if kind == "int":
            try:
                value = read_int(value, word)
            except ValueError as exc:
                _usage_error(name, str(exc))
        values[dest] = value
    missing = [word for word, (dest, _, required, _, _) in options.items()
               if required and values[dest] is None]
    if missing:
        _usage_error(name, f"missing required {' and '.join(missing)}")
    return SimpleNamespace(subcommand=name, func=func, **values)


def _report(args: SimpleNamespace, started: float) -> dict:
    """The report of the call `args`: its runner reads the inputs under the
    default digit limit, which this then lifts for the checks and leaves
    lifted for the caller to restore.  The runner's computations, and the
    values they hold, are released when this returns, before the report is
    validated and written."""
    inputs, computations = args.func(args)
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    checks = [_check(name, compute) for name, compute in computations]
    return reports.assemble(args.subcommand, inputs, checks, started)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    limit = sys.get_int_max_str_digits() if _DIGIT_LIMIT else None
    try:
        return _emit(_report(args, started))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # what stdout still buffers would fail again, and be reported, at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # a call too large for this process is sound, and refused as a budget refuses
        return 2 if isinstance(exc, MemoryError) else 1
    finally:
        if _DIGIT_LIMIT:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
