"""Command-line front end for parameter sweeps and figure presets.

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import NumericalError, SweepSpecError
from .params import CONFIG_KEYS, ONE_WAY, REGIME_PINS, Regime, load_config
from .spec import GridSpec, SweepSpec, load_preset, preset_description, preset_names

#: Flags that build a sweep, by argparse destination: a preset fixes all of them.
_SWEEP_FLAGS = ("sweep", "set", "config", "regime", "observable", "spectrum_points")


def _parse_sweep_arg(text: str) -> tuple[str, GridSpec]:
    parts = text.split(":")
    if len(parts) != 5:
        raise SweepSpecError(
            f"--sweep expects NAME:MIN:MAX:COUNT:SCALE, got {text!r}"
        )
    name, lo, hi, count, scale = parts
    try:
        return name, GridSpec(min=float(lo), max=float(hi), count=int(count), scale=scale)
    except ValueError as exc:
        raise SweepSpecError(f"bad --sweep value {text!r}: {exc}") from None


def _parse_set_arg(text: str) -> tuple[str, float]:
    key, sep, val = text.partition("=")
    if not sep:
        raise SweepSpecError(f"--set expects key=value, got {text!r}")
    key = key.strip()
    if key not in CONFIG_KEYS:
        raise SweepSpecError(f"unknown parameter {key!r} (valid: {', '.join(CONFIG_KEYS)})")
    try:
        return key, float(val)
    except ValueError:
        raise SweepSpecError(f"{val!r} is not a number") from None


def _apply_regime(fixed: dict[str, float], regime: str, swept: str,
                  given: set[str]) -> dict[str, float]:
    """Constrain fixed parameters to a named coupling regime.

    The regime must leave swept free and may not override a parameter of
    given (the --set keys).  It overrides a --config value, since a config
    file lists every key.
    """
    read = {"gamma": fixed.get("gamma", 1.0), "phi": fixed.get("phi", 0.0)}
    own = REGIME_PINS[Regime(regime)](read)  # the values the regime sets rather than reads
    # A one-way regime's g and theta follow gamma and phi, so it fixes those too.
    pinned = {**(read if Regime(regime) in ONE_WAY else {}), **own}
    if swept in pinned:
        raise SweepSpecError(f"--regime {regime} fixes {swept}, so {swept} cannot be swept")
    clash = sorted(given & own.keys())
    if clash:
        raise SweepSpecError(f"--regime {regime} fixes {clash[0]}, "
                             f"so --set {clash[0]} conflicts with it")
    return {**fixed, **pinned}


def _reject(args: argparse.Namespace, dests: list[str] | tuple[str, ...], by: str) -> None:
    """Fail naming each flag of dests (argparse destinations) that the command line gave."""
    given = ["--" + d.replace("_", "-") for d in dests if getattr(args, d) not in (None, [])]
    if given:
        raise SweepSpecError(f"{by} cannot be combined with {', '.join(given)}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="mollowpair",
        description="Sweep observables of a driven pair of coupled two-level systems "
                    "(populations, cross-correlations, emission spectra).",
    )
    parser.add_argument("--preset", metavar="NAME",
                        help="run a named figure-reproduction preset")
    parser.add_argument("--list-presets", action="store_true",
                        help="list available presets and exit")
    parser.add_argument("--regime", choices=[r.value for r in REGIME_PINS],
                        help="constrain fixed parameters to a coupling regime")
    parser.add_argument("--sweep", metavar="NAME:MIN:MAX:COUNT:SCALE",
                        help="swept parameter and grid (SCALE is linear or log)")
    parser.add_argument("--observable", action="append", metavar="NAME",
                        help="observable to record (repeat or comma-separate): "
                             "populations, g2, spectrum, decomposition, eigenvalues")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="fix one parameter (gamma0 units)")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key-value parameter file (keys: %s)" % ", ".join(CONFIG_KEYS))
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--no-fastpath", action="store_true", default=None,
                        help="disable closed-form fast paths (force the moment solver)")
    parser.add_argument("--spectrum-points", type=int, metavar="N",
                        help="frequency-grid size for spectrum observables (default 2001)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.list_presets:
            # It runs no sweep, so it takes no other flag.
            _reject(args, [d for d in vars(args) if d != "list_presets"], "--list-presets")
            for name in preset_names():
                sys.stdout.write(f"{name}: {preset_description(name)}\n")
            return 0

        if args.preset:
            _reject(args, _SWEEP_FLAGS, "--preset")
            spec = load_preset(args.preset)
        else:
            if not args.sweep:
                parser.error("either --preset or --sweep is required")
            name, grid = _parse_sweep_arg(args.sweep)
            fixed: dict[str, float] = {}
            if args.config:
                fixed = load_config(args.config).as_dict()
                fixed.pop(name, None)  # a config file lists every key, the swept one too
            given: set[str] = set()
            for assignment in args.set:
                key, val = _parse_set_arg(assignment)
                if key in given:
                    raise SweepSpecError(f"--set {key} given twice")
                if key == name:
                    raise SweepSpecError(f"--set {key} conflicts with --sweep {name}")
                fixed[key] = val
                given.add(key)
            if args.regime:
                fixed = _apply_regime(fixed, args.regime, name, given)
            observables: list[str] = []
            for entry in args.observable or ["populations"]:
                observables += [x.strip() for x in entry.split(",") if x.strip()]
            spec = SweepSpec(
                param=name,
                grid=grid,
                fixed=fixed,
                observables=tuple(observables),
            )
            if args.spectrum_points is not None:
                spec = dataclasses.replace(spec, spectrum_points=args.spectrum_points)
        if args.no_fastpath:
            spec = dataclasses.replace(spec, fastpath=False)

        # numpy and the numerical modules load here, once a sweep is to run.
        from .sweep import emit, run_sweep

        result = run_sweep(spec)
        payload = emit(result, args.format or "csv")
        if args.out and args.out != "-":
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as exc:
                sys.stderr.write(f"error: cannot write {args.out}: {exc}\n")
                return 4
        elif hasattr(sys.stdout, "buffer"):
            # The bytes of emit() as they are: the text layer would re-encode
            # them and translate newlines.
            sys.stdout.flush()
            sys.stdout.buffer.write(payload)
        else:  # a text-only stream, such as io.StringIO
            sys.stdout.write(payload.decode())
        return 0

    except ValueError as exc:
        # ParameterError, SweepSpecError, UnsupportedConfigurationError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
