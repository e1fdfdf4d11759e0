"""Command line front end.

Two families of commands:

    sccckit verify {sccc|wproj|prep-state|ortho|born|equivalence} [flags]
    sccckit protocol teleport [flags]

Every suite runs on every model, the phase quotient ``wproj:<base>``
included; teleport needs a complex one.  Reports print as text on stdout;
``--json PATH`` also writes the canonical JSON form, one line (PATH ``-``
prints it instead of the text).  The exit code is 0 exactly when no check
failed (expected failures do not fail a run), 1 when a check failed or the
library raised an error, and 2 when an input was refused before anything ran.

Each command loads only its own layer: ``verify`` imports the suite tables
and ``protocol teleport`` the protocol, when it runs, so neither process
compiles the other's code.  Each is also parsed by its own parser alone,
not by the tree's two routing levels above it; an argv that names no
command goes to the whole tree, which prints usage or help.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .errors import SccckitError
from .models import resolve_model
from .morphisms import Morphism
from .objects import Oplus, UNIT
from .report import VerificationReport
from .semirings import COMPLEX

# suites.SUITE_NAMES, spelled out so that parsing imports no suite table
_SUITES = ("sccc", "wproj", "prep-state", "ortho", "born", "equivalence")
_FLOAT = np.finfo(np.float64)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="fdhilb",
                   help="fdhilb, rel, weights, or wproj:<base> (default fdhilb)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed; defaults to $SCCCKIT_SEED or 0")
    p.add_argument("--json", nargs="?", const="-", default=None, dest="json_path",
                   metavar="PATH", help="write the JSON report to PATH (- for stdout)")


@lru_cache(maxsize=1)
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The parser tree and each command's own parser in it, keyed by the
    words that route to it; built once per process: parsing never changes
    them, and each ``parse_args`` call returns a fresh ``Namespace``."""
    parser = argparse.ArgumentParser(
        prog="sccckit",
        description="Verify compact closed structure, phase quotients, "
                    "ortho-structure and Born-rule axioms on matrix models.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a law suite against a model")
    verify.add_argument("suite", choices=list(_SUITES))
    _common_flags(verify)
    verify.add_argument("--trials", type=int, default=100,
                        help="random trials per check (default 100)")
    verify.add_argument("--tolerance", type=float, default=None,
                        help="relative tolerance for approximate equality")
    verify.add_argument("--max-dim", type=int, default=4, dest="max_dim",
                        help="largest generator dimension swept (default 4)")
    verify.add_argument("--nu", choices=["1", "1/2", "2"], default=None,
                        help="valuation exponent for the born suite (default 1)")

    protocol = sub.add_parser("protocol", help="run an end-to-end protocol")
    psub = protocol.add_subparsers(dest="protocol", required=True)
    teleport = psub.add_parser("teleport", help="teleport a qubit state")
    _common_flags(teleport)
    teleport.add_argument("--state", default=None, metavar="PAIRS",
                          help='input state as row-major [re, im] pairs, '
                               'e.g. "[[1,0],[0,0]]"')
    return parser, {("verify",): verify, ("protocol", "teleport"): teleport}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: usage and help for every command."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read by the named command's own
    parser alone: the levels above it only route, yet each re-scans every word."""
    for words, parser in _parsers()[1].items():
        if tuple(argv[:len(words)]) == words:
            # the routing levels' dests, as the tree would set them
            routed = argparse.Namespace(**dict(zip(("command", "protocol"), words)))
            return parser.parse_args(argv[len(words):], routed)
    return build_parser().parse_args(argv)


def _parse_state(text: str) -> Morphism:
    try:
        pairs = json.loads(text)
        column = np.array([[complex(re, im)] for re, im in pairs])
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"bad --state literal: {exc}")
    if column.shape != (2, 1):
        raise ValueError("--state: teleportation takes a two-level state, "
                         f"got {column.shape[0]} amplitude pairs")
    if not np.all(np.isfinite(column)):
        raise ValueError("--state: amplitudes must be finite")
    # Teleportation compares the branch weights with this weight: one that
    # overflows makes every comparison fail, one that underflows (like the
    # zero vector's) makes every comparison hold vacuously.
    with np.errstate(over="ignore", under="ignore"):
        weight = float(np.vdot(column, column).real)
    if not _FLOAT.tiny <= weight <= _FLOAT.max:
        raise ValueError("--state: the weight |a|^2 + |b|^2 must be a normal "
                         f"positive float in [{_FLOAT.tiny:.4g}, {_FLOAT.max:.4g}], "
                         f"got {weight:.4g}")
    return Morphism(UNIT, Oplus(UNIT, UNIT), column, COMPLEX)


def _check_json_path(path: str | None) -> None:
    """Refuse a ``--json`` PATH the report could not be written to."""
    if path is None or path == "-":
        return
    if not path:
        raise ValueError("--json: PATH is empty")
    if os.path.isdir(path):
        raise ValueError(f"--json {path}: is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"--json {path}: directory {parent} does not exist")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ValueError(f"--json {path}: not writable")


def _checked_inputs(args):
    """The seed, input state and model, or ValueError naming the bad input."""
    verify = args.command == "verify"
    if verify:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        if args.max_dim < 1:
            raise ValueError(f"--max-dim must be at least 1, got {args.max_dim}")
        if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
            raise ValueError("--tolerance must be a finite number >= 0, "
                             f"got {args.tolerance}")
        if args.nu is not None and args.suite != "born":
            raise ValueError(f"--nu is read only by the born suite, not {args.suite}")
    seed, source = args.seed, "--seed"
    if seed is None:
        raw, source = os.environ.get("SCCCKIT_SEED", "0"), "SCCCKIT_SEED"
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"SCCCKIT_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    _check_json_path(args.json_path)
    state = getattr(args, "state", None)
    psi = _parse_state(state) if state is not None else None
    try:
        model = resolve_model(args.model)
    except ValueError as exc:
        raise ValueError(f"--model: {exc}") from None
    if not verify and model.semiring is not COMPLEX:
        raise ValueError(f"--model {args.model}: teleportation runs over the "
                         "complex model (fdhilb or wproj:fdhilb)")
    return seed, psi, model


def _emit(report: VerificationReport, json_path: str | None) -> int:
    """Print the report, write its ``--json`` file, and return the verdict's
    exit code, also when the reader of stdout has gone."""
    try:
        sys.stdout.write(report.to_json() if json_path == "-" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # what stdout still buffers goes to devnull, so the interpreter's
        # last flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if json_path not in (None, "-"):
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        seed, psi, model = _checked_inputs(args)
    except ValueError as exc:
        print(f"sccckit: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            from .suites import run_suite
            report = run_suite(args.suite, model, trials=args.trials,
                               seed=seed, tolerance=args.tolerance,
                               max_dim=args.max_dim, nu=args.nu or "1")
        else:
            from .protocols import run_teleportation
            report = run_teleportation(psi, model, seed=seed)
    except (SccckitError, ValueError) as exc:
        # the inputs were checked above, so this is a defect, not bad arguments
        print(f"sccckit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    return _emit(report, args.json_path)


if __name__ == "__main__":
    raise SystemExit(main())
