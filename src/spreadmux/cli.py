"""Command line front end.

Subcommands: codes, validate, simulate, tables, traces. All outputs carry a
header block with the package version, the seed and a hash of the resolved
configuration, and contain no timestamps, so identical invocations produce
byte-identical files. The density table of ``traces --density`` is streamed
to its file in blocks of rows, each block formatted by one ``%`` operation
at the same 10 significant digits as ``np.savetxt(fmt="%.10g")``, so the
whole table never sits in memory as one string.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or configuration.
Output paths are checked before any cell runs: a missing directory is bad
usage, and an error while writing is a runtime failure. Errors print to
stderr as "spreadmux: error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .codes import DEFAULT_TAPS, LfsrSpec, lfsr_sequence, msequence_code, shift_code
from .experiments import (
    MetricsReport,
    ScenarioConfig,
    TraceResult,
    reproduction_config,
    run_experiment,
)

__all__ = ["main"]

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1


class CliError(Exception):
    def __init__(self, category: str, message: str, exit_code: int = _USAGE_EXIT):
        super().__init__(message)
        self.category = category
        self.exit_code = exit_code


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliError("usage", f"expected comma-separated integers, got {text!r}")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON file with scenario fields; flags override it")
    parser.add_argument("--seed", type=int, default=None, dest="rng_seed")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--n-registers", type=str, default=None, metavar="LIST",
                        help="comma-separated register counts, e.g. 8,10,12")
    parser.add_argument("--users", type=str, default=None, metavar="LIST")
    parser.add_argument("--bits-per-user", type=int, default=None)
    parser.add_argument("--samples-per-chip", type=int, default=None)
    parser.add_argument("--sigma-filt", type=float, default=None,
                        help="grating width in units of 1/T")
    parser.add_argument("--transition-time", type=float, default=None)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """Explicit flag values; each flag's dest is its ScenarioConfig field."""
    out = {}
    for field in sorted(_CONFIG_FIELDS - {"kind"}):
        value = getattr(args, field, None)
        if value is None:
            continue
        if field in ("n_registers", "users"):
            value = _parse_int_list(value)
        out[field] = value
    return out


def _load_config_file(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise CliError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError("config", f"{path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise CliError("config", f"{path} must hold a JSON object")
    unknown = set(payload) - _CONFIG_FIELDS - {"kind"}
    if unknown:
        raise CliError("config", f"unknown fields in {path}: {sorted(unknown)}")
    return payload


def _resolve_config(kind: str, args: argparse.Namespace, defaults: dict | None = None) -> ScenarioConfig:
    params = dict(defaults or {})
    if args.config is not None:
        file_params = _load_config_file(args.config)
        file_kind = file_params.pop("kind", None)
        if file_kind is not None and file_kind != kind:
            raise CliError("config", f"config file is for kind {file_kind!r}, command expects {kind!r}")
        params.update(file_params)
    params.update(_scenario_overrides(args))
    try:
        return ScenarioConfig(kind=kind, **params)
    except (TypeError, ValueError) as exc:
        raise CliError("config", str(exc))


def _check_output(path: Path | None, flag: str) -> None:
    """Reject an output path that is a directory, or lies in a missing one,
    before any work is done."""
    if path is None:
        return
    # os.path.isdir is False for a name too long to stat; Path.is_dir raises
    if os.path.isdir(path):
        raise CliError("usage", f"{flag} {path}: is a directory")
    if not os.path.isdir(path.parent):
        raise CliError(
            "usage", f"{flag} {path}: directory {path.parent} does not exist"
        )


@contextlib.contextmanager
def _writing(path: Path):
    """An output file opened for writing; an OS error while writing it is a
    runtime failure."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise CliError(
            "runtime", f"cannot write {path}: {exc}", exit_code=_RUNTIME_EXIT
        )


def _write_text(out: Path | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with _writing(out) as fh:
        fh.write(text)


def _emit_report(report: MetricsReport, fmt: str, out: Path | None) -> None:
    text = report.to_json_text() if fmt == "json" else report.to_csv_text()
    _write_text(out, text)


# ---------------------------------------------------------------- codes


def _cmd_codes(args: argparse.Namespace) -> int:
    _check_output(args.out, "--out")
    taps = None if args.taps is None else _parse_int_list(args.taps)
    try:
        spec = LfsrSpec(args.n_registers, taps=taps, seed=args.seed_state)
        code = msequence_code(spec)
        if args.shift:
            code = shift_code(code, args.shift)
    except ValueError as exc:
        raise CliError("config", str(exc))
    chips = code.chips
    balance = int(chips.sum())
    if args.format == "json":
        payload = {
            "artifact": {"name": "spreadmux", "version": __version__},
            "n_registers": spec.n_registers,
            "taps": list(spec.resolved_taps),
            "length": len(code),
            "shift": code.family_shift,
            "balance": balance,
            "chips": [int(c) for c in chips],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"# spreadmux {__version__}",
            f"# n_registers: {spec.n_registers}",
            f"# taps: {','.join(str(t) for t in spec.resolved_taps)}",
            f"# length: {len(code)}",
            f"# shift: {code.family_shift}",
            f"# balance: {balance}",
            "index,chip",
        ]
        lines += [f"{i},{int(c)}" for i, c in enumerate(chips)]
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0


# ------------------------------------------------------------- validate


def _circular_autocorrelation(chips: np.ndarray) -> np.ndarray:
    spectrum = np.fft.fft(chips.astype(np.float64))
    acf = np.fft.ifft(spectrum * np.conj(spectrum)).real
    return np.rint(acf).astype(np.int64)


def _validate_family(n: int) -> list[str]:
    """Recompute the family properties independently of generation."""
    problems = []
    spec = LfsrSpec(n)
    bits = lfsr_sequence(spec)
    length = 2**n - 1
    if bits.size != length:
        problems.append(f"period {bits.size} != {length}")
    chips = 1 - 2 * bits.astype(np.int64)
    if chips.sum() != -1:
        problems.append(f"balance {chips.sum()} != -1")
    acf = _circular_autocorrelation(chips)
    if acf[0] != length or np.any(acf[1:] != -1):
        bad = np.nonzero(acf[1:] != -1)[0]
        problems.append(f"autocorrelation not two-valued at lags {bad[:5] + 1}")
    # shift-and-add: chip product of a shifted pair is another family member
    rng = np.random.default_rng(n)
    for shift in rng.integers(1, length, size=min(4, length - 1)):
        product = chips * np.roll(chips, int(shift))
        hits = [m for m in range(length) if np.array_equal(product, np.roll(chips, m))]
        if len(hits) != 1:
            problems.append(f"shift-and-add failed at shift {int(shift)}")
    return problems


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.min_registers > args.max_registers:
        raise CliError(
            "config",
            f"--min-registers {args.min_registers} exceeds --max-registers "
            f"{args.max_registers}, so there is nothing to validate",
        )
    counts = range(args.min_registers, args.max_registers + 1)
    unsupported = [n for n in counts if n not in DEFAULT_TAPS]
    if unsupported:
        raise CliError(
            "config",
            f"no built-in taps for register counts {unsupported}, supported "
            f"{min(DEFAULT_TAPS)}..{max(DEFAULT_TAPS)}",
        )
    failures = 0
    for n in counts:
        problems = _validate_family(n)
        if problems:
            failures += 1
            print(f"fail n={n}: {'; '.join(problems)}")
        else:
            print(f"ok n={n} length={2**n - 1}")
    if failures:
        raise CliError("runtime", f"{failures} register count(s) failed validation",
                       exit_code=_RUNTIME_EXIT)
    return 0


# ------------------------------------------------------------- simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args.kind, args)
    _check_output(args.out, "--out")
    report = run_experiment(config)
    _emit_report(report, args.format, args.out)
    return 0


# --------------------------------------------------------------- tables


def _cmd_tables(args: argparse.Namespace) -> int:
    kinds = ("loss", "crosstalk", "fidelity") if args.which == "all" else (args.which,)
    out_dir = args.out_dir
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("usage", f"--out-dir {out_dir}: cannot create: {exc}")
    for kind in kinds:
        defaults = dataclasses.asdict(reproduction_config(kind, full=args.full))
        defaults.pop("kind")
        config = _resolve_config(kind, args, defaults)
        report = run_experiment(config)
        if out_dir is None:
            _emit_report(report, args.format, None)
        else:
            suffix = "json" if args.format == "json" else "csv"
            _emit_report(report, args.format, out_dir / f"{kind}.{suffix}")
    return 0


# --------------------------------------------------------------- traces


def _trace_csv(result: TraceResult) -> str:
    lines = result.config.header_lines(kind="trace") + [
        f"# spreading: {result.grid.chips_per_bin}",
        f"# users: {len(result.users)}",
    ]
    for uid in result.users:
        word = "".join(str(b) for b in result.bits[uid])
        lines.append(f"# word user={uid}: {word}")
    lines.append("receiver,bin,sent_bit,detected")
    for receiver in result.users:
        detections = result.detections[receiver]
        for idx, value in enumerate(detections):
            sent = result.bits[receiver][idx]
            lines.append(f"{receiver},{idx},{sent},{value:.10g}")
    return "\n".join(lines) + "\n"


# Rows per formatted block of the density file: enough rows that the
# per-block Python work vanishes, few enough that one block's text stays a
# few hundred kB (1024 to 8192 rows format equally fast).
_DENSITY_BLOCK_ROWS = 4096


def _write_density(path: Path, result: TraceResult) -> None:
    """Write the density table: the time column, then one per receiver.

    Bytes are those of ``np.savetxt(fmt="%.10g", delimiter=",")`` with the
    header lines above the table, but each block of rows is formatted by one
    ``%`` operation on its Python floats instead of one per row.
    """
    header = result.config.header_lines(kind="trace_density") + [
        ",".join(["time"] + [f"receiver_{uid}" for uid in result.users]),
    ]
    columns = [result.grid.times] + [result.densities[uid] for uid in result.users]
    row_fmt = ",".join(["%.10g"] * len(columns)) + "\n"
    with _writing(path) as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, result.grid.n_samples, _DENSITY_BLOCK_ROWS):
            block = np.column_stack(
                [column[start:start + _DENSITY_BLOCK_ROWS] for column in columns]
            )
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _cmd_traces(args: argparse.Namespace) -> int:
    config = _resolve_config("trace", args)
    _check_output(args.out, "--out")
    _check_output(args.density, "--density")
    result = run_experiment(config)
    _write_text(args.out, _trace_csv(result))
    if args.density is not None:
        _write_density(args.density, result)
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadmux",
        description="Spread-spectrum add-drop multiplexing simulator",
    )
    parser.add_argument("--version", action="version", version=f"spreadmux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="emit one spreading code and its family data")
    p_codes.add_argument("--n-registers", type=int, required=True)
    p_codes.add_argument("--taps", type=str, default=None, metavar="LIST")
    p_codes.add_argument("--seed-state", type=int, default=None,
                         help="initial register contents, default all ones")
    p_codes.add_argument("--shift", type=int, default=0)
    p_codes.add_argument("--format", choices=("csv", "json"), default="csv")
    p_codes.add_argument("--out", type=Path, default=None)
    p_codes.set_defaults(func=_cmd_codes)

    p_val = sub.add_parser("validate", help="recheck code family properties")
    p_val.add_argument("--min-registers", type=int, default=2)
    p_val.add_argument("--max-registers", type=int, default=12)
    p_val.set_defaults(func=_cmd_validate)

    p_sim = sub.add_parser("simulate", help="run one Monte Carlo scenario")
    p_sim.add_argument("--kind", choices=("loss", "crosstalk", "fidelity"), required=True)
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", type=Path, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tab = sub.add_parser("tables", help="reproduce the benchmark grids")
    p_tab.add_argument("--which", choices=("loss", "crosstalk", "fidelity", "all"),
                       default="all")
    p_tab.add_argument("--full", action="store_true",
                       help="include the slowest crosstalk column")
    _add_scenario_flags(p_tab)
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tab.add_argument("--out-dir", type=Path, default=None)
    p_tab.set_defaults(func=_cmd_tables)

    p_tr = sub.add_parser("traces", help="bit words through the default chain")
    _add_scenario_flags(p_tr)
    p_tr.add_argument("--out", type=Path, default=None)
    p_tr.add_argument("--density", type=Path, default=None,
                      help="also write the full time series here")
    p_tr.set_defaults(func=_cmd_traces)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"spreadmux: error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"spreadmux: error: runtime: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
