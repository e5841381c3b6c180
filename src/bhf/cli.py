"""Command line interface.

Exit codes: 0 success / verified, 1 invalid input or failed verification,
2 usage error, 3 inconclusive verdict.  "-" reads stdin or writes stdout;
bimodule arguments accept builtin:tau-mu, builtin:tau-lambda, builtin:H
and builtin:identity.  reduce takes --seed or --script, not both.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import cfk, io_formats, ktd, type_d, type_da

BUILTINS = {
    "builtin:tau-mu": type_da.builtin_tau_mu,
    "builtin:tau-lambda": type_da.builtin_tau_lambda,
    "builtin:H": type_da.builtin_H,
    "builtin:identity": type_da.builtin_identity,
}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _load_any(path: str, *kinds: str):
    """Load a document of one of ``kinds``, or of any kind when none is
    named, unchecked (tau, cfd and verify leave that to the library);
    returns (kind, object)."""
    if path in BUILTINS:
        kind, obj = "type_da", BUILTINS[path]()
    else:
        try:
            kind, obj = io_formats.parse_any(_read(path), kinds[0] if len(kinds) == 1 else None)
        except io_formats.ParseError as e:
            raise ValueError(f"{path}: {e}") from None
    if kinds and kind not in kinds:
        raise ValueError(f"{path}: expected {' or '.join(kinds)}, found {kind}")
    return kind, obj


_VALIDATORS = {
    "cfk": cfk.validate,
    "type_d": type_d.validate_d,
    "type_da": type_da.validate_da,
    "script": lambda _obj: [],
}


def _load(path: str, *kinds: str):
    """Load a document of one of ``kinds`` and validate it; returns
    (kind, object)."""
    kind, obj = _load_any(path, *kinds)
    bad = _VALIDATORS[kind](obj)
    if bad:
        raise ValueError(f"{path}: invalid {kind}: {bad[0]}")
    return kind, obj


@functools.cache  # building the parser costs more than most commands
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bhf", description=__doc__)
    framing = ("basis: the complement's framing, by default 2*tau - 3; basefree: "
               "n for framing -n, at least 4*max|A| + 3, its default")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate any document")
    sp.set_defaults(run=_cmd_validate)
    sp.add_argument("path")

    sp = sub.add_parser("flip", help="exchange basepoints of a knot complex")
    sp.set_defaults(run=_cmd_flip)
    sp.add_argument("path")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("simplify", help="reduce and simplify a knot complex")
    sp.set_defaults(run=_cmd_simplify)
    sp.add_argument("path")
    sp.add_argument("--mode", choices=["v", "h", "both"], default="both")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("tau", help="print tau of a knot complex")
    sp.set_defaults(run=_cmd_tau)
    sp.add_argument("path")

    sp = sub.add_parser("cfd", help="type D module of the complement")
    sp.set_defaults(run=_cmd_cfd)
    sp.add_argument("path")
    sp.add_argument("--framing", type=int, default=None, help=framing)
    sp.add_argument("--algo", choices=["basis", "basefree"], default="basis")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("tensor", help="box tensor a bimodule with a module")
    sp.set_defaults(run=_cmd_tensor)
    sp.add_argument("--bimodule", required=True,
                    help="builtin:{tau-mu,tau-lambda,H,identity} or a file")
    sp.add_argument("path")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("build-h",
                        help="assemble the involution bimodule from six twists")
    sp.set_defaults(run=_cmd_build_h)
    sp.add_argument("--script", default=None,
                    help="replay an explicit cancellation script")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("reduce", help="cancel idempotent arrows or actions")
    sp.set_defaults(run=_cmd_reduce)
    sp.add_argument("path")
    order = sp.add_mutually_exclusive_group()
    order.add_argument("--seed", type=int, default=None)
    order.add_argument("--script", default=None)
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("iso", help="search for a permutation isomorphism")
    sp.set_defaults(run=_cmd_iso)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("verify",
                        help="check invariance under the elliptic involution")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("path")
    sp.add_argument("--framing", type=int, default=None, help=framing)
    sp.add_argument("--algo", choices=["basis", "basefree"], default="basefree")

    sp = sub.add_parser("dot", help="Graphviz rendering of a type D module")
    sp.set_defaults(run=_cmd_dot)
    sp.add_argument("path")
    sp.add_argument("-o", "--output", default=None)
    return p


def _cmd_validate(args) -> int:
    kind, obj = _load_any(args.path)
    bad = _VALIDATORS[kind](obj)
    if bad:
        for b in bad:
            print(b, file=sys.stderr)
        return 1
    print(f"valid {kind}")
    return 0


def _cmd_flip(args) -> int:
    C = _load(args.path, "cfk")[1]
    _write(args.output, io_formats.write_cfk(cfk.flip(C)))
    return 0


def _cmd_simplify(args) -> int:
    C = _load(args.path, "cfk")[1]
    simplify = {"v": cfk.vertical_simplify, "h": cfk.horizontal_simplify,
                "both": cfk.simultaneous_simplify}[args.mode]
    if (S := simplify(C)) is None:
        cfk._rank_one(C)  # a complex that is no knot complex is refused as such
        raise ValueError("simultaneous simplification did not converge")
    _write(args.output, io_formats.write_cfk(S))
    return 0


def _cmd_tau(args) -> int:
    print(cfk.tau(_load_any(args.path, "cfk")[1]))
    return 0


def _cmd_cfd(args) -> int:
    build = ktd.ktd_basis if args.algo == "basis" else ktd.ktd_basefree
    D = build(_load_any(args.path, "cfk")[1], args.framing)
    _write(args.output, io_formats.write_typed(D))
    return 0


def _cmd_tensor(args) -> int:
    _, B = _load(args.bimodule, "type_da")
    _, M = _load(args.path, "type_d")
    _write(args.output, io_formats.write_typed(type_da.box_da_d(B, M)))
    return 0


def _cmd_build_h(args) -> int:
    order = None
    if args.script:
        _, order = _load(args.script, "script")
    twists = (type_da.builtin_tau_mu(), type_da.builtin_tau_lambda())
    prod = functools.reduce(type_da.box_da_da, twists * 3)  # ((τ_μ ⊠ τ_λ) ⊠ τ_μ) ⊠ …
    _write(args.output, io_formats.write_typeda(type_da.reduce_da(prod, order)[0]))
    return 0


def _cmd_reduce(args) -> int:
    kind, obj = _load(args.path, "type_d", "type_da")
    order = _load(args.script, "script")[1] if args.script else args.seed
    if kind == "type_d":
        out, _ = type_d.reduce_d(obj, order)
        _write(args.output, io_formats.write_typed(out))
    else:
        out, _ = type_da.reduce_da(obj, order)
        _write(args.output, io_formats.write_typeda(out))
    return 0


def _cmd_iso(args) -> int:
    kl, left = _load(args.left, "type_d", "type_da")
    kr, right = _load(args.right, "type_d", "type_da")
    if kl != kr:
        raise ValueError(f"cannot compare a {kl} with a {kr}")
    iso = type_d.isomorphic_d if kl == "type_d" else type_da.isomorphic_da
    mapping = iso(left, right)
    if mapping is None:
        print("no permutation isomorphism found", file=sys.stderr)
        return 3
    for k in sorted(mapping):
        print(f"{k} -> {mapping[k]}")
    return 0


def _cmd_verify(args) -> int:
    C = _load_any(args.path, "cfk")[1]
    res = ktd.verify_elliptic_invariance(C, args.algo, args.framing)
    print(f"{res.verdict}: {res.detail}")
    if res.verdict == "verified":
        return 0
    if res.verdict == "failed":
        return 1
    return 3


def _cmd_dot(args) -> int:
    _, M = _load(args.path, "type_d")
    _write(args.output, type_d.to_dot(M))
    return 0


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.run(args)
    except ValueError as e:  # the CLI or the library rejects input it cannot take
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
