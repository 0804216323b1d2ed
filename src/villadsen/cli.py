"""Command-line entry point.

Four subcommands drive the verifiers: `chern` computes characteristic
classes of a bundle description, `vi` runs the type-I stage diagnostics
and witnesses, `v2` the type-II traces, comparability triple and radius of
comparison, and `cfp` the witness-sequence construction and both halves of
its verification.  Machine-readable JSON goes to stdout; human diagnostics
go to stderr.  Exit code 0 means every requested verification succeeded,
2 means a verification failed or was refused (including an internal
cross-check whose two routes disagree, and a report that fails its own
schema), 1 means a usage or parse error.

Every report is checked against the packaged report schema
(`reports.validate_report`, standard-library code) before it is printed;
one that fails is not printed, and one `error:` line names the JSON path
and the offending value.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from functools import partial

from . import cfp as cfp_mod
from . import reports
from .bundles import chern_series, euler, parse_bundle
from .cohomology import line_series_texts
from .errors import ConfigError, CrossCheckDisagreement, GeneratorBudgetExceeded
from .growth import parse_family_parameter
from .spaces import SpaceDescriptor, read_int
from .type_one import (
    SystemConfig,
    composed_projection_multiplicities,
    ratio_contradiction_check,
    ratio_trajectory,
    stats_over_range,
    top_chern_witness,
)
from .type_two import SystemParams, comparability_triple, radius_of_comparison, trace_table


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path: str) -> dict:
    """The JSON document at `path`; a float literal (1e400, 2.9, NaN) is a
    ConfigError, since every number the engine reads is an exact integer,
    and so are an integer literal past Python's int<->str digit limit and
    nesting past the interpreter's recursion limit."""
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


def _int_option(text: str) -> int:
    """An integer option, read like the integers of input documents."""
    try:
        return read_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_index(label: str, value: int | None) -> None:
    """A stage or term count past sys.maxsize is a usage error that names its
    option (`label`): the engine indexes stages (islice, math.factorial),
    and those stop there.  A `cfp --terms` count is one witness stage per
    term, so it stops there too."""
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


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int->str digit limit while the engine builds its output.

    Ranks such as (n+1)! pass the default 4300 digits near stage 1700, and a
    correct result must not turn into an error.  Input documents are parsed
    before this, under the default limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _emit(report: dict) -> int:
    try:
        reports.validate_report(report)
    except ValueError as exc:
        # the engine built a report it cannot stand behind: a failure, not a usage error
        print(f"error: report fails its schema {exc}", file=sys.stderr)
        return 2
    try:
        text = reports.canonical_json(report)
    except RecursionError:
        # json.load reads a document a few levels deeper than the report,
        # which holds it under `inputs`, can echo it
        raise ConfigError("an input document nests too deeply to be echoed "
                          "in the report") from None
    print(text)
    return 0 if report["ok"] else 2


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
    space_doc = _load_json(args.space)
    bundle_doc = _load_json(args.bundle)
    base = _parse_document("space", args.space, SpaceDescriptor.from_json, space_doc)
    bundle = _parse_document("bundle", args.bundle,
                             lambda doc: parse_bundle(base, doc), bundle_doc)

    def components():
        return True, {
            "rank": str(bundle.rank),
            "components": {str(degree): reports.Encoded(text) for degree, text
                           in line_series_texts(bundle.base, chern_series(bundle)).items()},
        }

    def euler_class():
        top = euler(bundle)
        return True, {"degree": str(2 * bundle.rank), "nonzero": not top.is_zero(),
                      "class": reports.Encoded(top.json_text())}

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
    stats = stats_over_range(steps, start, stop)

    def stage_stats():
        return True, {
            "from_stage": start, "to_stage": stop,
            **stats.to_json(),
            "distinct_ratio": reports.fraction_json(stats.distinct_ratio),
            "projection_ratio": reports.fraction_json(stats.projection_ratio),
        }

    def trajectory():
        values = ratio_trajectory(steps[:stop], start)
        nonincreasing = all(a >= b for a, b in zip(values, values[1:]))
        return nonincreasing, {"values": [reports.fraction_json(v) for v in values]}

    def estimate():
        return True, {"value": reports.fraction_json(stats.projection_ratio),
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
    params = SystemParams(parse_family_parameter(args.k))
    if args.comparability and args.n < 1:
        raise ConfigError("comparability needs a stage >= 1")
    n = args.n
    want_trace = args.trace or not (args.rc or args.comparability)
    verify_stage = args.stage if args.stage is not None else n

    checks = []
    if want_trace:
        # trace_table returns only once the unit rank has certified the unit trace 1
        checks.append(("trace_table", lambda: (True, trace_table(params, n))))
    if args.comparability:
        checks.append(("comparability_triple",
                       lambda: _certified(comparability_triple(params, n, verify_stage))))
    if args.rc:
        checks.append(("radius_of_comparison",
                       lambda: _certified(radius_of_comparison(params, n))))
    return ({"k": args.k, "n": n, "stage": args.stage, "rc": args.rc,
             "comparability": args.comparability, "trace": want_trace},
            checks)


def _run_cfp(args):
    overrides = None
    if args.override_l:
        overrides = [read_int(x.strip(), "--override-l entry")
                     for x in args.override_l.split(",") if x.strip()]
        _check_index("--override-l stage", max(overrides, default=None))
    _check_index("--stage stage", args.stage)
    _check_index("--terms", args.terms)
    witness = cfp_mod.build_witness(args.terms, overrides)
    stage = args.stage if args.stage is not None else witness.terms[-1].stage

    def construction():
        cert = {"witness": witness.to_json()}
        if not witness.overridden:
            cert["first_stage"] = witness.first_stage
        return True, cert

    def upper(term):
        certificate = cfp_mod.verify_upper(term)
        return certificate["outcome"] == "dominates", certificate

    checks = [("witness_stages", construction)]
    checks += [(f"upper_term_{term.index}", partial(upper, term)) for term in witness.terms]
    checks.append(("lower_bound", lambda: _certified(cfp_mod.verify_lower(witness, stage))))
    return ({"terms": args.terms, "stage": stage, "override_l": args.override_l},
            checks)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="villadsen",
                     description="Exact verification of comparison obstructions "
                                 "in Villadsen-type inductive systems")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_chern = sub.add_parser("chern", help="Chern and Euler classes of a bundle spec")
    p_chern.add_argument("--space", required=True, help="space descriptor JSON file")
    p_chern.add_argument("--bundle", required=True, help="bundle JSON file")
    p_chern.set_defaults(func=_run_chern)

    p_vi = sub.add_parser("vi", help="type-I stage diagnostics and witnesses")
    p_vi.add_argument("--config", required=True, help="system config JSON file")
    p_vi.add_argument("--from", dest="start", type=_int_option, default=0,
                      help="first stage of the composed range (default 0)")
    p_vi.add_argument("--stage", type=_int_option, default=None,
                      help="last stage of the composed range (default: all)")
    p_vi.add_argument("--witness", type=_int_option, default=None,
                      help="witness size n for the top-Chern and contradiction checks")
    p_vi.set_defaults(func=_run_vi)

    p_v2 = sub.add_parser("v2", help="type-II traces, comparability, radius")
    p_v2.add_argument("-k", required=True, help="family parameter (integer or 'inf')")
    p_v2.add_argument("-n", type=_int_option, required=True, help="stage")
    p_v2.add_argument("--stage", type=_int_option, default=None,
                      help="verification stage for --comparability (default n)")
    p_v2.add_argument("--trace", action="store_true", help="emit the trace table")
    p_v2.add_argument("--comparability", action="store_true",
                      help="verify the comparability triple")
    p_v2.add_argument("--rc", action="store_true",
                      help="verify the radius of comparison up to stage n")
    p_v2.set_defaults(func=_run_v2)

    p_cfp = sub.add_parser("cfp", help="witness sequences and both verification halves")
    p_cfp.add_argument("--terms", type=_int_option, default=2,
                       help="number of witness terms")
    p_cfp.add_argument("--stage", type=_int_option, default=None,
                       help="verification stage for the lower bound")
    p_cfp.add_argument("--override-l", default="",
                       help="comma-separated witness stages overriding the minimal choice")
    p_cfp.set_defaults(func=_run_cfp)
    return parser


# argv-independent, so built once per process; parse_args keeps no state
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, computations = args.func(args)
        with _unlimited_int_digits():
            checks = [_check(name, compute) for name, compute in computations]
            return _emit(reports.assemble(args.subcommand, inputs, checks, started))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
