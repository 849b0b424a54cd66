"""Command-line surface over the five computational backends.

Every subcommand prints exactly one JSON document with sorted keys, so the
output is byte-identical across runs for the same inputs and seed.  Exit
status: 0 when the command succeeds (and any checked relation holds), 1 when
a checked relation or equality fails or an orbit hits a pole, 2 on usage or
domain errors (unknown suite or backend, malformed words or rationals, a
zero denominator, a sampling flag the command does not read, composition
cap, recursion depth, sampling that cannot avoid the poles) and when a file
cannot be read or written.  Every error is one {"error": ...} document; if
the --output file cannot be written, that document goes to stdout.

Subcommands
-----------
Each line under a subcommand lists the flags it takes; every subcommand
also takes --json and --output, and any other flag is a usage error.
Flags are taken only as spelled, never from a prefix such as --tri, and
--p is an alias of --prime on quantum only.  A point given to --at or
--start may start with a minus sign, spaced as --at -1,0 or joined as
--at=-1,0.  SAMPLING stands for --trials,
--prime (repeatable), --seed and --N, of which a backend refuses those it
does not read; words.BACKENDS maps each one it reads to the param it sets.

relations   run a named relation suite in a backend
            --suite NAME [--backend B] [SAMPLING]
equal       compare two words in a backend
            --lhs W --rhs W [--backend B] [SAMPLING]
eval        evaluate a word and print its backend representation
            --word W [--backend B] [SAMPLING]
trop        compose rational factors symbolically and print the PL shadow
            --word W
convert     move a circle-model element between pl, tree and dyadic forms
            --word W --to MODEL [--via MODEL]
mutate      apply a lattice mutation to a Picard vector (bases be, p, wq)
            --basis BASIS --at a,b (--vector JSON | --input FILE)
quantum     probe a word on random clock/shift matrix pairs
            --word W [SAMPLING], with --p an alias of --prime
orbit       exact rational orbit of a point under a word
            [--word W] [--start x,y] [--steps K]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import words

# ---------------------------------------------------------------------------
# plumbing

def _emit(payload, args) -> None:
    if getattr(args, "json", False):
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_vec(text: str):
    try:
        a, b = (int(t) for t in text.split(","))
    except Exception:
        raise ValueError("expected a lattice vector as 'a,b'; got %r" % text)
    return (a, b)


def _params(args, backend: str, reads=None) -> dict:
    """Backend params for the sampling flags the user set, named by the
    backend's sampling map; each backend's own functions supply the
    defaults for the rest.  reads: the flags the command reads in this
    backend, by default all that the backend takes.  A flag outside it is
    refused, so an exact backend, which samples nothing, refuses every
    one, and so does eval where it samples nothing (bir and picard).  A
    command that reads --trials must be asked for at least one sample."""
    takes = words.BACKENDS[backend].sampling
    reads = takes if reads is None else reads
    if args.trials is not None and args.trials < 1 and "--trials" in reads:
        raise ValueError("trials must be at least 1, got %d" % args.trials)
    given = {flag: v for flag in ("--trials", "--prime", "--N", "--seed")
             if (v := getattr(args, flag[2:])) not in (None, [])}
    refused = [flag for flag in given if flag not in takes]
    if refused and not takes:
        raise ValueError("backend %s is exact and takes no sampling "
                         "flag; got %s" % (backend, ", ".join(refused)))
    if given and not refused and not reads:
        raise ValueError("backend %s samples nothing in eval and takes no "
                         "sampling flag; got %s" % (backend, ", ".join(given)))
    refused = refused or [flag for flag in given if flag not in reads]
    if refused:
        raise ValueError("backend %s takes no %s flag"
                         % (backend, " or ".join(refused)))
    # --prime is repeatable; a model whose param is one prime, p, reads
    # the last one given
    return {takes[flag]: v[-1] if takes[flag] == "p" else v
            for flag, v in given.items()}


# ---------------------------------------------------------------------------
# subcommands

def cmd_relations(args):
    run = words.check_suite(args.suite, backend=args.backend,
                            params=_params(args, args.backend))
    return run, 0 if run["ok"] else 1


def cmd_equal(args):
    equal, evidence = words.check_relation(args.lhs, args.rhs, args.backend,
                                           _params(args, args.backend))
    payload = {"backend": args.backend, "lhs": args.lhs, "rhs": args.rhs,
               "equal": equal}
    if evidence is not None:
        payload["evidence"] = evidence
    return payload, 0 if equal else 1


def cmd_eval(args):
    value = words.evaluate(args.word, args.backend, _params(
        args, args.backend, words.BACKENDS[args.backend].eval_takes))
    # quantum values are plain JSON data already
    rep = value.to_json() if hasattr(value, "to_json") else value
    return {"backend": args.backend, "word": args.word, "value": rep}, 0


def _trop_factors(text: str):
    """Parse the trop grammar: generator tokens over {P,C,I,U} plus
    'lambda:r1,r2' torus scalings and 'mono:a,b,c,d' monomial maps; a word
    of more than COMPOSE_CAP factors is refused before any is built."""
    from . import birational

    tokens = []  # (factor count, builder, its arguments)
    for chunk in text.split():
        if chunk.startswith("lambda:"):
            parts = chunk[len("lambda:"):].split(",")
            if len(parts) != 2:
                raise ValueError("lambda token needs two rationals: %r" % chunk)
            tokens.append((1, birational.scaling_bir,
                           [birational.parse_rational(t) for t in parts]))
            continue
        if chunk.startswith("mono:"):
            parts = chunk[len("mono:"):].split(",")
            if len(parts) != 4:
                raise ValueError("mono token needs four integers: %r" % chunk)
            tokens.append((1, birational.monomial_bir,
                           [int(t) for t in parts]))
            continue
        for sym, exp in words.parse_word(chunk):
            if sym not in ("P", "C", "I", "U"):
                raise ValueError(
                    "trop words are spelled over P, C, I, U plus lambda:/mono:"
                    " tokens; got %r" % sym)
            tokens.append((abs(exp), words.evaluate,
                           [((sym, 1 if exp > 0 else -1),), "bir"]))
    count = sum(n for n, _, _ in tokens)
    if count > birational.COMPOSE_CAP:
        raise ValueError(
            "symbolic composition capped at %d factors; got %d "
            "(tropicalize shorter pieces and compose the PL results instead)"
            % (birational.COMPOSE_CAP, count))
    return [f for n, build, args in tokens for f in [build(*args)] * n]


def cmd_trop(args):
    from . import birational

    total = birational.compose_letters(_trop_factors(args.word))
    return birational.tropicalize(total).to_json(), 0


def cmd_convert(args):
    from . import thompson

    src, dst = args.via, args.to
    value = words.evaluate(args.word, src)
    if src != dst:
        forms = words.FORMS
        value = getattr(thompson, "%s_to_%s" % (forms[src], forms[dst]))(value)
    return {"word": args.word, "from": src, "to": dst,
            "element": value.to_json()}, 0


def cmd_mutate(args):
    from . import picard

    if args.vector is not None:
        raw = args.vector
    elif args.input:
        with open(args.input, encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raise ValueError("mutate needs --vector JSON or --input FILE")
    x = picard.PicVec.from_json(json.loads(raw))
    v = _parse_vec(args.at)
    out = {"be": picard.mu_be_action, "p": picard.mu_p_vector,
           "wq": picard.mu_Wq_at}[args.basis](x, v)
    return {"basis": args.basis, "at": list(v),
            "input": x.to_json(), "output": out.to_json()}, 0


def cmd_quantum(args):
    identity, report = words.check_relation(args.word, "1", "quantum",
                                            _params(args, "quantum"))
    report["word"] = args.word
    return report, 0 if identity else 1


def cmd_orbit(args):
    from . import birational

    if args.steps < 0:
        raise ValueError("steps must be at least 0, got %d" % args.steps)
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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="compact single-line JSON output")
    output.add_argument("--output", metavar="FILE",
                        help="write the JSON report to FILE instead of stdout")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--prime", action="append", type=int, default=[],
                          help="prime modulus; repeatable (bir needs > 2^61)")
    sampling.add_argument("--trials", type=int,
                          help="sample count for randomized verdicts")
    sampling.add_argument("--seed", type=int,
                          help="RNG seed (default 0)")
    sampling.add_argument("--N", type=int, help="quantum order of q")
    # relations, equal and eval; the other subcommands fix their model
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=words.BACKENDS, default="pl",
                         help="computational model (default pl)")
    in_backend = [backend, sampling, output]

    # allow_abbrev=False on every parser that parses: a flag is taken only
    # as spelled, never from a prefix of it
    top = argparse.ArgumentParser(
        prog="sympt", allow_abbrev=False,
        description="exact models of the group generated by the lattice "
                    "pentagon map and the unimodular matrices")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", allow_abbrev=False, parents=in_backend,
                       help="run a relation suite")
    p.add_argument("--suite", required=True,
                   help="one of: %s" % ", ".join(words.list_suites()))
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("equal", allow_abbrev=False, parents=in_backend,
                       help="compare two words in a backend")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("eval", allow_abbrev=False, parents=in_backend,
                       help="evaluate a word and print its representation")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trop", allow_abbrev=False, parents=[output],
                       help="tropicalize a symbolic composition")
    p.add_argument("--word", required=True,
                   help="tokens over P,C,I,U plus lambda:r1,r2 and mono:a,b,c,d")
    p.set_defaults(func=cmd_trop)

    p = sub.add_parser("convert", allow_abbrev=False, parents=[output],
                       help="convert between circle models")
    p.add_argument("--word", required=True)
    p.add_argument("--to", required=True, choices=("pl", "tree", "dyadic"))
    p.add_argument("--via", default="pl", choices=("pl", "tree", "dyadic"),
                   help="model in which the word is evaluated first")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("mutate", allow_abbrev=False, parents=[output],
                       help="apply a lattice mutation to a Picard vector")
    p.add_argument("--basis", required=True, choices=("be", "p", "wq"))
    p.add_argument("--at", required=True, help="mutation direction 'a,b'")
    p.add_argument("--vector", help="PicVec JSON")
    p.add_argument("--input", metavar="FILE", help="read PicVec JSON from FILE")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("quantum", allow_abbrev=False,
                       parents=[sampling, output],
                       help="probe a word on clock/shift matrix pairs")
    p.add_argument("--word", required=True)
    p.add_argument("--p", dest="prime", action="append", type=int,
                   help="prime with p = 1 mod N (alias of --prime)")
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("orbit", allow_abbrev=False, parents=[output],
                       help="exact rational orbit of a point under a word")
    p.add_argument("--word", default="P")
    p.add_argument("--start", default="2,3", help="start point 'x,y'")
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(func=cmd_orbit)

    return top


def _joined_points(argv):
    """argv with each "--at P" and "--start P" whose point P starts with a
    minus sign joined into "--at=P": argparse reads such a P as a flag
    unless it is one number, as -1 is and -1,0 is not."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--at", "--start") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    # results are exact, so an integer of any length is printed in full
    sys.set_int_max_str_digits(0)
    args = _parser().parse_args(
        _joined_points(sys.argv[1:] if argv is None else argv))
    try:
        payload, code = args.func(args)
    # ValueError: word syntax and domain errors; RuntimeError: recursion
    # depth, sampling that cannot get off the pole locus and a failed
    # midpoint certification in thompson.plaut_to_dyadic; OSError: --input
    except (ValueError, RuntimeError, OSError) as exc:
        payload, code = {"error": str(exc)}, 2
    except ZeroDivisionError as exc:
        payload, code = {"error": str(exc)}, 1
    try:
        _emit(payload, args)
    except OSError as exc:
        args.output = None
        _emit({"error": str(exc)}, args)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
