"""Command-line front end.

Subcommands: ``verify`` (certify a fragment against a target gate),
``run`` (execute a pattern), ``compile`` (circuit text to brickwork
pattern), ``table`` (derive the certified brick settings table) and
``depth`` (feed-forward rounds). Exit codes: 0 success, 1 verification
failure, 2 usage error or a stdout whose reader has gone. With ``--json``
stdout is machine-readable JSON on every path, including errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .compiler import compile_to_bricks, export, layout_brickwork, parse_circuit
from .errors import PpmError
from .executor import (
    OutcomeSource,
    enumerate_fragment,
    feed_forward_depth,
    run_fragment,
)
from .fragments import builtin_fragment
from .pattern import PatternFragment, fragment_from_json
from .statevec import plus_state
from .verifier import brick_table_to_json, derive_brick_table, verify_fragment


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise UsageError(message)


def _ascii(parse, kind: str):
    """An argument type that applies ``parse`` to ASCII text only.

    ``int`` and ``float`` would also read the digits of other scripts.
    """

    def read(text: str):
        try:
            if text.isascii():
                return parse(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {kind} in ASCII digits, got {text!r}")

    return read


_seed = _ascii(lambda text: int(text, 0), "an integer")  # such as 0xC0FFEE or 12_345
_tol = _ascii(float, "a number")


def _build_parser() -> _Parser:
    p = _Parser(prog="ppmbqc", description=__doc__)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="certify a fragment against a target gate")
    v.add_argument("fragment", help="fragment JSON path or builtin:NAME")
    v.add_argument("--target", help="target gate label (defaults for builtins)")
    v.add_argument("--tol", type=_tol, default=1e-9)
    v.add_argument("--branches", default="all", help="all or sample:K")
    v.add_argument("--seed", type=_seed, default=0xC0FFEE)

    r = sub.add_parser("run", help="execute a pattern")
    r.add_argument("pattern", help="pattern JSON path")
    r.add_argument("--seed", type=_seed, default=0xC0FFEE)
    outcomes = r.add_mutually_exclusive_group()
    outcomes.add_argument("--tape", help="forced outcome bits, one per measurement, e.g. 0110")
    outcomes.add_argument("--branches", help="all or sample:K")
    r.add_argument("--amplitudes", action="store_true")

    c = sub.add_parser("compile", help="compile circuit text to a pattern")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", dest="outfile", required=True)
    c.add_argument("--format", choices=("json", "dot"))

    t = sub.add_parser("table", help="derive the certified brick table")
    t.add_argument("--out", dest="outfile")
    t.add_argument("--tol", type=_tol, default=1e-9)

    d = sub.add_parser("depth", help="feed-forward depth of a pattern")
    d.add_argument("pattern", help="pattern JSON path")
    return p


def _emit(payload: dict, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text if text is not None else json.dumps(payload, indent=2, sort_keys=True))


def _load_fragment(ref: str) -> tuple[PatternFragment, str | None]:
    if ref.startswith("builtin:"):
        return builtin_fragment(ref[len("builtin:"):])
    return fragment_from_json(Path(ref).read_text()), None


def _parse_branches(text: str) -> str | tuple[str, int]:
    if text == "all":
        return "all"
    count = text.split(":", 1)[1] if text.startswith("sample:") else ""
    if count.isascii() and count.isdecimal() and int(count) >= 1:
        return ("sample", int(count))
    raise UsageError(f"--branches must be 'all' or 'sample:K' with K >= 1, got {text!r}")


def _cmd_verify(args) -> int:
    frag, default_label = _load_fragment(args.fragment)
    label = args.target or default_label
    if label is None:
        raise UsageError("--target is required for file-loaded fragments")
    report = verify_fragment(
        frag,
        label,
        tol=args.tol,
        branches=_parse_branches(args.branches),
        seed=args.seed,
    )
    _emit(
        report.to_dict(),
        args.json,
        f"{'PASS' if report.passed else 'FAIL'} {args.fragment} vs {label}: "
        f"worst infidelity {report.worst_infidelity:.3e} over "
        f"{report.branch_count} branches",
    )
    return 0 if report.passed else 1


def _cmd_run(args) -> int:
    frag, _ = _load_fragment(args.pattern)
    if frag.inputs:
        raise UsageError("pattern has input wires; use 'verify' for fragments")
    if args.branches:
        mode = _parse_branches(args.branches)
        if mode == "all":
            traces = enumerate_fragment(frag).traces(frag)
            payload = {
                "probability_total": float(sum(t.probability for t in traces)),
                "traces": [t.to_dict(args.amplitudes) for t in traces],
            }
            _emit(payload, args.json)
            return 0
        _, k = mode
        traces = [
            run_fragment(frag, plus_state(0), src=OutcomeSource.seeded(args.seed + i))
            for i in range(k)
        ]
        _emit({"traces": [t.to_dict(args.amplitudes) for t in traces]}, args.json)
        return 0
    if args.tape is not None:
        if set(args.tape) - set("01"):
            raise UsageError(f"--tape takes only the digits 0 and 1, got {args.tape!r}")
        k = len(frag.pattern.measurements)
        if len(args.tape) != k:
            raise UsageError(f"--tape has {len(args.tape)} bits for {k} measurements")
        src = OutcomeSource.fixed([int(ch) for ch in args.tape])
    else:
        src = OutcomeSource.seeded(args.seed)
    _emit(run_fragment(frag, plus_state(0), src=src).to_dict(args.amplitudes), args.json)
    return 0


def _cmd_compile(args) -> int:
    text = Path(args.infile).read_text()
    circuit = parse_circuit(text)
    layers = compile_to_bricks(circuit)
    fragment = layout_brickwork(layers)
    fmt = args.format or ("dot" if args.outfile.endswith(".dot") else "json")
    Path(args.outfile).write_bytes(export(fragment, fmt))
    payload = {
        "qubits": circuit.qubit_count,
        "gates": len(circuit.gates),
        "bricks": len(layers),
        "vertices": fragment.pattern.graph.vertex_count,
        "feed_forward_depth": feed_forward_depth(fragment),
        "out": args.outfile,
        "format": fmt,
    }
    _emit(payload, args.json, f"wrote {args.outfile} ({payload['bricks']} bricks)")
    return 0


def _cmd_table(args) -> int:
    entries = derive_brick_table(tol=args.tol)
    text = brick_table_to_json(entries)
    if args.outfile:
        Path(args.outfile).write_text(text + "\n")
        _emit({"entries": len(entries), "out": args.outfile}, args.json,
              f"wrote {args.outfile} ({len(entries)} entries)")
    else:
        print(text)
    return 0


def _cmd_depth(args) -> int:
    frag, _ = _load_fragment(args.pattern)
    depth = feed_forward_depth(frag)
    _emit({"feed_forward_depth": depth}, args.json, str(depth))
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "run": _cmd_run,
    "compile": _cmd_compile,
    "table": _cmd_table,
    "depth": _cmd_depth,
}


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(list(sys.argv[1:]) if argv is None else list(argv))
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # nothing more can reach stdout's reader
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _main(argv: list[str]) -> int:
    as_json = "--json" in argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as err:
        if as_json:
            print(json.dumps({"error": str(err), "usage": parser.format_usage().strip()}))
        else:
            print(parser.format_usage().strip(), file=sys.stderr)
            print(f"error: {err}", file=sys.stderr)
        return 2
    except (PpmError, OSError, ValueError) as err:
        if as_json:
            print(json.dumps({"error": str(err)}))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
