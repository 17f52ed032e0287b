"""Command line interface.

Every command prints exactly one JSON report to stdout:

    {"schema": 1, "version": ..., "command": ..., "inputs": ..., "result": ...}

``inputs`` echoes the semantic parameters (and a sha256 digest for each
input file); the operational ``--json`` path is deliberately not echoed,
so reports are byte-identical across runs.  Counts that can exceed a
machine word (products, closed-form sizes) are rendered as decimal
strings.

Exit codes: 0 success (verify: satisfied), 1 verify: violated,
2 verify: vacuous, 3 search stopped by its node budget, 64 bad usage,
70 internal error.  Exit 64 covers argparse's own errors, among them an
integer option that breaks :func:`weakcross.families.integer`'s rule,
and any ``ValueError`` a command raises: an argument out of range, or an
unreadable or unparsable file (``error: <message>`` on stderr).  Exit 70
is any other exception (``internal error: <type>: <message>``).  The
library checks its arguments with ``ValueError``, so the commands leave
all error handling to ``main``.  A command that fails leaves stdout
empty and none of its ``--out`` or ``--json`` files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

# The builtin SHA-256 gives the same digests as hashlib's without loading
# OpenSSL's libcrypto into every process (about 3.6 MB of RSS).
try:
    from _sha256 import sha256 as _sha256  # Python 3.11 and older
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # Python 3.12 and newer
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from .analysis import (
    SATISFIED,
    VACUOUS,
    VIOLATED,
    WeakCrossParams,
    check_weak_cross,
    check_weak_single,
)
from .constructions import (
    StarSpec,
    TightPairSpec,
    checked_block,
    make_covering,
    make_star,
    make_sunflower,
    make_tight_pair,
    random_family,
)
from .families import (
    Family,
    FamilyPair,
    FamilyParseError,
    GroundSet,
    binomial,
    elements_from_mask,
    integer,
    mask_from_elements,
    parse_family,
    serialize_family,
)
from .refutation import cover_by_cores, refute_with_sunflower
from .search import search_max_product
from .structures import erdos_bound, find_sunflower, matching_number, max_family_no_matching

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_VACUOUS = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

_VERDICT_EXITS = {SATISFIED: EXIT_OK, VIOLATED: EXIT_VIOLATED, VACUOUS: EXIT_VACUOUS}


def _read_family(path: str) -> tuple[Family, dict]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        family = parse_family(data)
    except FamilyParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    digest = _sha256(data).hexdigest()
    return family, {"path": path, "sha256": digest}


def _read_pair(args) -> tuple[Family, Family, dict]:
    """Read ``--left`` and ``--right``; return both and their ``inputs`` echo."""
    left, left_info = _read_family(args.left)
    right, right_info = _read_family(args.right)
    return left, right, {"left": left_info, "right": right_info}


def _parse_elements(text: str) -> tuple[int, ...]:
    try:
        return tuple(integer(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _pair_paths(prefix: str) -> tuple[str, str]:
    """PREFIX.left.fam and PREFIX.right.fam; an empty prefix is a usage error."""
    if not prefix:
        raise ValueError("--out needs a nonempty prefix")
    return prefix + ".left.fam", prefix + ".right.fam"


def _emit(args, command: str, inputs: dict, result: dict,
          families: tuple[tuple[str, Family], ...] = ()) -> None:
    """Write each (path, family) of ``families``, then the ``--json`` copy, then stdout.

    Every text is rendered before the first write.  If a write fails, the
    files this call already wrote are removed again and the error is a
    usage error, so a failed command leaves no output file and an empty
    stdout.
    """
    report = {
        "schema": 1,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    outputs = [(path, serialize_family(family)) for path, family in families]
    if args.json is not None:
        outputs.append((args.json, text))
    written: list[str] = []
    for path, body in outputs:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(body)
        except OSError as exc:
            for done in written:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise ValueError(f"cannot write {path}: {exc}") from exc
    sys.stdout.write(text)


def _cmd_verify_cross(args) -> int:
    left, right, inputs = _read_pair(args)
    params = WeakCrossParams(args.ell, args.t)
    verdict = check_weak_cross(FamilyPair(left, right), params)
    inputs.update(ell=args.ell, t=args.t)
    _emit(args, "verify-cross", inputs, verdict.to_json_dict())
    return _VERDICT_EXITS[verdict.verdict]


def _cmd_verify_single(args) -> int:
    family, info = _read_family(args.family)
    verdict = check_weak_single(family, args.ell)
    inputs = {"family": info, "ell": args.ell}
    _emit(args, "verify-single", inputs, verdict.to_json_dict())
    return _VERDICT_EXITS[verdict.verdict]


# The --kind choices, each with the options it needs besides --n, in the
# order its usage error names them; they also open its ``inputs`` echo.
_CONSTRUCT_NEEDS = {
    "star": ("k", "t"),
    "tight-pair": ("k", "kprime", "t"),
    "sunflower": ("k", "t", "petals"),
    "covering": ("k", "ell"),
    "random": ("k", "size", "seed"),
}


def _cmd_construct(args) -> int:
    kind, n = args.kind, args.n
    ground = GroundSet(n)
    needs = _CONSTRUCT_NEEDS[kind]
    if any(getattr(args, opt) is None for opt in needs):
        raise ValueError(f"{kind} needs --n, " + ", ".join(f"--{opt}" for opt in needs))
    inputs = {"kind": kind, "n": n, **{opt: getattr(args, opt) for opt in needs}}
    if kind == "tight-pair":
        result, families = _construct_tight_pair(args, ground, inputs)
        _emit(args, "construct", inputs, result, families)
        return EXIT_OK
    result = {}
    if kind == "star":
        core = _parse_elements(args.core) if args.core is not None else tuple(range(1, args.t + 1))
        if len(core) != args.t:
            raise ValueError(f"core {list(core)} does not have t = {args.t} elements")
        inputs["core"] = list(core)
        family = make_star(StarSpec(ground, args.k, mask_from_elements(n, core)))
        result["closed_form"] = str(binomial(n - args.t, args.k - args.t))
    elif kind == "sunflower":
        family = make_sunflower(ground, args.k, args.t, args.petals)
    elif kind == "covering":
        family = make_covering(ground, args.k, args.ell)
        result["closed_form"] = str(erdos_bound(n, args.k, args.ell))
    else:
        family = random_family(ground, args.k, args.size, random.Random(args.seed))
    result.update(out=args.out, size=len(family))
    _emit(args, "construct", inputs, result, ((args.out, family),))
    return EXIT_OK


def _construct_tight_pair(args, ground: GroundSet, inputs: dict) -> tuple[dict, tuple]:
    """The tight pair's result and its families for ``--out`` + .left.fam/.right.fam."""
    n, t = args.n, args.t
    if args.core is not None or args.extra is not None:
        core = _parse_elements(args.core) if args.core is not None else tuple(range(1, t + 1))
        if args.extra is None:
            raise ValueError("an explicit --core also needs --extra")
        extra = _parse_elements(args.extra)
        # An empty core is reported before any error in the extra block's elements.
        spec = TightPairSpec(ground, args.k, args.kprime,
                             checked_block(ground, mask_from_elements(n, core)),
                             mask_from_elements(n, extra))
    else:
        spec = TightPairSpec.default(n, args.k, args.kprime, t)
    if spec.core.bit_count() != t:
        raise ValueError(f"core does not have t = {t} elements")
    pair = make_tight_pair(spec, ell=args.ell)
    left_path, right_path = _pair_paths(args.out)
    inputs.update(core=list(elements_from_mask(spec.core)),
                  extra=list(elements_from_mask(spec.extra)))
    if args.ell is not None:
        inputs["ell"] = args.ell
    result = {
        "left_out": left_path, "right_out": right_path,
        "left_size": len(pair.left), "right_size": len(pair.right),
        "product": str(len(pair.left) * len(pair.right)),
        "closed_form_product": str(
            binomial(n - t, args.k - t) * (binomial(n - t, args.kprime - t) + 1)),
    }
    return result, ((left_path, pair.left), (right_path, pair.right))


def _cmd_sunflower(args) -> int:
    family, info = _read_family(args.family)
    flower = find_sunflower(family, args.t, args.petals)
    inputs = {"family": info, "t": args.t, "petals": args.petals}
    if flower is None:
        result = {"found": False, "sunflower": None}
    else:
        result = {"found": True, "sunflower": flower.to_json_dict()}
    _emit(args, "sunflower", inputs, result)
    return EXIT_OK


def _cmd_matching(args) -> int:
    family, info = _read_family(args.family)
    nu, cert = matching_number(family)
    inputs = {"family": info}
    result = {"nu": nu, "certificate": list(cert.indices)}
    _emit(args, "matching", inputs, result)
    return EXIT_OK


def _cmd_erdos(args) -> int:
    bound = erdos_bound(args.n, args.k, args.ell)
    inputs = {"n": args.n, "k": args.k, "ell": args.ell}
    result: dict = {"bound": str(bound)}
    if args.exhaustive:
        inputs["exhaustive"] = True
        size, witness = max_family_no_matching(args.n, args.k, args.ell, force=args.force)
        result["max_size"] = size
        result["witness"] = [list(elements_from_mask(m)) for m in witness.masks]
        result["matches_bound"] = (size == bound)
    _emit(args, "erdos", inputs, result)
    return EXIT_OK


def _cmd_search(args) -> int:
    paths = () if args.out is None else _pair_paths(args.out)
    outcome = search_max_product(args.n, args.k, args.kprime,
                                 WeakCrossParams(args.ell, args.t), node_budget=args.budget)
    families = tuple(zip(paths, (outcome.best_pair.left, outcome.best_pair.right)))
    inputs = {"n": args.n, "k": args.k, "kprime": args.kprime,
              "ell": args.ell, "t": args.t}
    if args.budget is not None:
        inputs["budget"] = args.budget
    _emit(args, "search", inputs, outcome.to_json_dict(), families)
    return EXIT_OK if outcome.exhaustive else EXIT_BUDGET


def _cmd_refute(args) -> int:
    left, right, inputs = _read_pair(args)
    params = WeakCrossParams(args.ell, args.t)
    petals = args.petals if args.petals is not None else (1 + right.k) * params.ell
    pair = FamilyPair(left, right)
    flower = find_sunflower(left, params.t, petals)
    if flower is None:
        raise ValueError(f"no sunflower with kernel size {params.t} and {petals} "
                         "petals exists in the left family")
    trace = refute_with_sunflower(pair, flower, params)
    inputs.update(ell=args.ell, t=args.t, petals=petals)
    _emit(args, "refute", inputs, trace.to_json_dict())
    return EXIT_OK


def _cmd_cover(args) -> int:
    left, right, inputs = _read_pair(args)
    indices = _parse_elements(args.indices)
    decomposition = cover_by_cores(FamilyPair(left, right), indices, args.t)
    inputs.update(t=args.t, indices=list(indices))
    _emit(args, "cover", inputs, decomposition.to_json_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcross",
        description="Verification and search for weakly cross-intersecting set families.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH",
                        help="also write the report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-cross", parents=[common],
                       help="decide the ell-weak cross t-intersection condition")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--t", type=integer, required=True)
    p.set_defaults(fn=_cmd_verify_cross)

    p = sub.add_parser("verify-single", parents=[common],
                       help="decide the single-family condition")
    p.add_argument("--family", required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.set_defaults(fn=_cmd_verify_single)

    p = sub.add_parser("construct", parents=[common],
                       help="write a reference construction as .fam file(s)")
    p.add_argument("--kind", required=True, choices=list(_CONSTRUCT_NEEDS))
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--k", type=integer)
    p.add_argument("--kprime", type=integer)
    p.add_argument("--t", type=integer)
    p.add_argument("--ell", type=integer)
    p.add_argument("--petals", type=integer)
    p.add_argument("--size", type=integer)
    p.add_argument("--seed", type=integer)
    p.add_argument("--core", metavar="ELEMS",
                   help="explicit core elements, comma separated")
    p.add_argument("--extra", metavar="ELEMS",
                   help="explicit extra-block elements (tight-pair only)")
    p.add_argument("--out", required=True,
                   help="output path (tight-pair: prefix for .left.fam/.right.fam)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("sunflower", parents=[common],
                       help="find a sunflower with a given kernel size and petal count")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=integer, required=True)
    p.add_argument("--petals", type=integer, required=True)
    p.set_defaults(fn=_cmd_sunflower)

    p = sub.add_parser("matching", parents=[common],
                       help="matching number with a certificate")
    p.add_argument("--family", required=True)
    p.set_defaults(fn=_cmd_matching)

    p = sub.add_parser("erdos", parents=[common],
                       help="matching-free family size bound C(n,k) - C(n-ell+1,k)")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="also recompute the maximum exhaustively")
    p.add_argument("--force", action="store_true",
                   help="lift the desk-scale guard for --exhaustive")
    p.set_defaults(fn=_cmd_erdos)

    p = sub.add_parser("search", parents=[common],
                       help="exhaustive max-product search over feasible pairs")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--kprime", type=integer, required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--t", type=integer, required=True)
    p.add_argument("--budget", type=integer,
                   help="node budget for best-effort search")
    p.add_argument("--out", metavar="PREFIX",
                   help="write the best pair to PREFIX.left.fam / PREFIX.right.fam")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("refute", parents=[common],
                       help="violation witness from a sunflower in the left family")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--t", type=integer, required=True)
    p.add_argument("--petals", type=integer,
                   help="required petal count (default: (1 + k') * ell)")
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("cover", parents=[common],
                       help="cover the right family by cores of chosen left blocks")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--t", type=integer, required=True)
    p.add_argument("--indices", required=True,
                   help="chosen left block indices, comma separated")
    p.set_defaults(fn=_cmd_cover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalise to the documented code.
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_USAGE if code else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        # Every argument check, in the library or here, raises ValueError.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        # Exit 1 means "violated"; a crash must never read as a verdict.
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
