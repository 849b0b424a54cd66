"""Command-line surface over the five computational backends.

Every subcommand prints exactly one JSON document with sorted keys, so the
output is byte-identical across runs for the same inputs and seed.  Exit
status: 0 when the command succeeds (and any checked relation holds), 1 when
a checked relation or equality fails or an orbit hits a pole, 2 on usage or
domain errors (unknown suite or backend, malformed words or rationals, a
zero denominator, a sampling flag the command does not read, composition
cap, recursion depth, sampling that cannot avoid the poles).

Subcommands
-----------
relations   run a named relation suite in a backend
equal       compare two words in a backend
eval        evaluate a word and print its backend representation
trop        compose rational factors symbolically and print the PL shadow
convert     move a circle-model element between pl, tree and dyadic forms
mutate      apply a lattice mutation to a Picard vector (bases be, p, wq)
quantum     probe a word on random clock/shift matrix pairs
orbit       exact rational orbit of a point under a word
"""

from __future__ import annotations

import argparse
import json
import sys

from . import plcore, words

TROP_CAP = 8


# ---------------------------------------------------------------------------
# plumbing

def _emit(payload, args) -> None:
    if getattr(args, "json", False):
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_vec(text: str):
    try:
        a, b = (int(t) for t in text.split(","))
    except Exception:
        raise ValueError("expected a lattice vector as 'a,b'; got %r" % text)
    return (a, b)


def _params(args, backend: str, samples: bool = True) -> dict:
    """Backend params for the sampling flags the user set; each backend's
    own functions supply the defaults for the rest.  A flag the backend
    does not read is refused, so an exact backend, which samples nothing,
    refuses every one.  samples is false for a command that samples nothing
    in this backend (eval in bir and picard), which refuses every flag."""
    entry = words.BACKENDS[backend]
    given = [flag for flag, value in (
        ("--trials", args.trials), ("--prime", args.prime),
        ("--N", args.N), ("--seed", args.seed)) if value not in (None, [])]
    refused = [flag for flag in given if flag not in entry.takes]
    if refused and entry.identity_test is None:
        raise ValueError("backend %s is exact and takes no sampling "
                         "flag; got %s" % (backend, ", ".join(refused)))
    if refused:
        raise ValueError("backend %s takes no %s flag"
                         % (backend, " or ".join(refused)))
    if given and not samples:
        raise ValueError("backend %s samples nothing in eval and takes no "
                         "sampling flag; got %s" % (backend, ", ".join(given)))
    if entry.identity_test is None or not samples:
        return {}
    named = entry.flags(args.trials, args.prime, args.N)
    return {"seed": 0 if args.seed is None else args.seed,
            **{k: v for k, v in named.items() if v not in (None, [])}}


def _sample_params(args, backend: str) -> dict:
    """_params for a command that checks a relation, where a sampled
    backend must be asked for at least one sample."""
    if (args.trials is not None and args.trials < 1
            and words.BACKENDS[backend].identity_test is not None):
        raise ValueError("trials must be at least 1, got %d" % args.trials)
    return _params(args, backend)


# ---------------------------------------------------------------------------
# subcommands

def cmd_relations(args):
    run = words.check_suite(args.suite, backend=args.backend,
                            params=_sample_params(args, args.backend))
    return run, 0 if run["ok"] else 1


def cmd_equal(args):
    equal, evidence = words.check_relation(args.lhs, args.rhs, args.backend,
                                           _sample_params(args, args.backend))
    payload = {"backend": args.backend, "lhs": args.lhs, "rhs": args.rhs,
               "equal": equal}
    if evidence is not None:
        payload["evidence"] = evidence
    return payload, 0 if equal else 1


def cmd_eval(args):
    value = words.evaluate(args.word, args.backend, _params(
        args, args.backend, words.BACKENDS[args.backend].eval_samples))
    # quantum values are plain JSON data already
    rep = value.to_json() if hasattr(value, "to_json") else value
    return {"backend": args.backend, "word": args.word, "value": rep}, 0


def _trop_factors(text: str):
    """Parse the trop grammar: generator tokens over {P,C,I,U} plus
    'lambda:r1,r2' torus scalings and 'mono:a,b,c,d' monomial maps."""
    from . import birational

    factors = []
    for chunk in text.split():
        if chunk.startswith("lambda:"):
            parts = chunk[len("lambda:"):].split(",")
            if len(parts) != 2:
                raise ValueError("lambda token needs two rationals: %r" % chunk)
            factors.append(birational.scaling_bir(
                *(birational.parse_rational(t) for t in parts)))
            continue
        if chunk.startswith("mono:"):
            parts = chunk[len("mono:"):].split(",")
            if len(parts) != 4:
                raise ValueError("mono token needs four integers: %r" % chunk)
            factors.append(birational.monomial_bir(*(int(t) for t in parts)))
            continue
        parsed = words.parse_word(chunk)
        for sym, exp in parsed:
            if sym not in ("P", "C", "I", "U"):
                raise ValueError(
                    "trop words are spelled over P, C, I, U plus lambda:/mono:"
                    " tokens; got %r" % sym)
            gen = (birational.generator_bir if exp > 0
                   else birational.generator_bir_inverse)(sym)
            factors.extend([gen] * abs(exp))
    return factors


def cmd_trop(args):
    from . import birational

    factors = _trop_factors(args.word)
    if len(factors) > TROP_CAP:
        raise ValueError(
            "symbolic composition capped at %d factors; got %d "
            "(tropicalize shorter pieces and compose the PL results instead)"
            % (TROP_CAP, len(factors)))
    total = plcore.product(factors, birational.compose_bir,
                           birational.identity_bir())
    return birational.tropicalize(total).to_json(), 0


# circle model -> the name of its form in the thompson converters
_FORMS = {"pl": "plaut", "tree": "treepair", "dyadic": "dyadic"}


def cmd_convert(args):
    from . import thompson

    src = args.via
    dst = args.to
    value = words.evaluate(args.word, src)
    if src != dst:
        value = getattr(thompson, "%s_to_%s" % (_FORMS[src], _FORMS[dst]))(
            value)
    return {"word": args.word, "from": src, "to": dst,
            "element": value.to_json()}, 0


def cmd_mutate(args):
    from . import picard

    if args.vector is not None:
        raw = args.vector
    elif args.input:
        with open(args.input) as fh:
            raw = fh.read()
    else:
        raise ValueError("mutate needs --vector JSON or --input FILE")
    try:
        x = picard.PicVec.from_json(json.loads(raw))
    except KeyError as exc:
        raise ValueError("malformed PicVec JSON (missing %s)" % exc)
    except TypeError as exc:
        raise ValueError("malformed PicVec JSON (%s)" % exc)
    v = _parse_vec(args.at)
    out = {"be": picard.mu_be_action, "p": picard.mu_p_vector,
           "wq": picard.mu_Wq_at}[args.basis](x, v)
    return {"basis": args.basis, "at": list(v),
            "input": x.to_json(), "output": out.to_json()}, 0


def cmd_quantum(args):
    identity, report = words.check_relation(args.word, "1", "quantum",
                                            _sample_params(args, "quantum"))
    report["word"] = args.word
    return report, 0 if identity else 1


def cmd_orbit(args):
    from . import birational

    f = words.evaluate(args.word, "bir")
    start = tuple(birational.parse_rational(t)
                  for t in args.start.split(","))
    if len(start) != 2:
        raise ValueError("expected a start point as 'x,y'; got %r" % args.start)
    points = birational.orbit_exact(f, start, args.steps)
    return {"word": args.word, "start": [str(c) for c in start],
            "steps": args.steps,
            "points": [[str(x), str(y)] for x, y in points]}, 0


# ---------------------------------------------------------------------------
# parser

def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=words.BACKENDS, default="pl",
                        help="computational model (default pl)")
    common.add_argument("--prime", action="append", type=int, default=[],
                        help="prime modulus; repeatable (bir needs > 2^61)")
    common.add_argument("--trials", type=int,
                        help="sample count for randomized verdicts")
    common.add_argument("--seed", type=int,
                        help="RNG seed (default 0)")
    common.add_argument("--N", type=int, help="quantum order of q")
    common.add_argument("--json", action="store_true",
                        help="compact single-line JSON output")
    common.add_argument("--output", metavar="FILE",
                        help="write the JSON report to FILE instead of stdout")

    top = argparse.ArgumentParser(
        prog="sympt",
        description="exact models of the group generated by the lattice "
                    "pentagon map and the unimodular matrices")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", parents=[common],
                       help="run a relation suite")
    p.add_argument("--suite", required=True,
                   help="one of: %s" % ", ".join(words.list_suites()))
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("equal", parents=[common],
                       help="compare two words in a backend")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a word and print its representation")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trop", parents=[common],
                       help="tropicalize a symbolic composition")
    p.add_argument("--word", required=True,
                   help="tokens over P,C,I,U plus lambda:r1,r2 and mono:a,b,c,d")
    p.set_defaults(func=cmd_trop)

    p = sub.add_parser("convert", parents=[common],
                       help="convert between circle models")
    p.add_argument("--word", required=True)
    p.add_argument("--to", required=True, choices=("pl", "tree", "dyadic"))
    p.add_argument("--via", default="pl", choices=("pl", "tree", "dyadic"),
                   help="model in which the word is evaluated first")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("mutate", parents=[common],
                       help="apply a lattice mutation to a Picard vector")
    p.add_argument("--basis", required=True, choices=("be", "p", "wq"))
    p.add_argument("--at", required=True, help="mutation direction 'a,b'")
    p.add_argument("--vector", help="PicVec JSON")
    p.add_argument("--input", metavar="FILE", help="read PicVec JSON from FILE")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("quantum", parents=[common],
                       help="probe a word on clock/shift matrix pairs")
    p.add_argument("--word", required=True)
    p.add_argument("--p", dest="prime", action="append", type=int,
                   help="prime with p = 1 mod N (alias of --prime)")
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("orbit", parents=[common],
                       help="exact rational orbit of a point under a word")
    p.add_argument("--word", default="P")
    p.add_argument("--start", default="2,3", help="start point 'x,y'")
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(func=cmd_orbit)

    return top


def main(argv=None) -> int:
    # results are exact, so an integer of any length is printed in full
    sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    # ValueError: word syntax and domain errors; RuntimeError: recursion
    # depth, sampling that cannot get off the pole locus and a failed
    # midpoint certification in thompson.plaut_to_dyadic
    except (ValueError, RuntimeError) as exc:
        _emit({"error": str(exc)}, args)
        return 2
    except ZeroDivisionError as exc:
        _emit({"error": str(exc)}, args)
        return 1
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
