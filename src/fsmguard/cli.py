"""Command-line front end: harden, inject, simulate."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import faults as fe
from . import fsm as fsm_mod
from . import netlist as nl_mod
from .coding import CodeBook, CodingError
from .faults import CampaignSpec, run_campaign
from .fsm import FsmError, parse_fsm
from .hardening import HardenedDesign, HardeningConfig, HardeningError, harden

log = logging.getLogger("fsmguard")

EXIT_OK = 0
EXIT_FAIL = 1  # parse/solve failures, hijack found
EXIT_IO = 2

_SCOPES = {"all": "all", "diffusion": "diffusion_only", "inputs": "inputs_only"}


class InputError(Exception):
    """A malformed input file; the message names the file and the line and
    column or the entry at fault."""


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _guess_format(path: str, explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    return "kiss2" if path.endswith((".kiss2", ".kiss")) else "json"


def _load_fsm(path: str, fmt: Optional[str]):
    source = Path(path).read_text(encoding="utf-8")
    return parse_fsm(source, format=_guess_format(path, fmt))


def cmd_harden(args: argparse.Namespace) -> int:
    try:
        fsm = _load_fsm(args.fsm, args.format)
    except OSError as exc:
        log.error("cannot read %s: %s", args.fsm, exc)
        return EXIT_IO
    except FsmError as exc:
        log.error("FSM error: %s", exc)
        return EXIT_FAIL
    try:
        design = harden(fsm, HardeningConfig(protection_level=args.level, seed=args.seed))
    except HardeningError as exc:
        log.error("hardening failed: %s", exc)
        return EXIT_FAIL
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(out / "netlist.json", nl_mod.to_json_dict(design.netlist))
        (out / "netlist.v").write_text(nl_mod.emit_verilog(design.netlist), encoding="utf-8")
        _dump_json(
            out / "codebook.json",
            {
                "state": design.state_codes.to_json_dict(),
                "control": design.ctrl_codes.to_json_dict(),
            },
        )
        _dump_json(out / "hardening_report.json", design.report())
    except OSError as exc:
        log.error("cannot write %s: %s", out, exc)
        return EXIT_IO
    print(f"wrote netlist.json, netlist.v, codebook.json, hardening_report.json to {out}")
    return EXIT_OK


def _parse_json(source: str, path: str):
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def _read_json(path: str):
    return _parse_json(Path(path).read_text(encoding="utf-8"), path)


def _netlist_from_json(doc, path: str) -> nl_mod.Netlist:
    try:
        return nl_mod.from_json_dict(doc)
    except nl_mod.NetlistError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_codebook(args: argparse.Namespace, netlist_path: str) -> CodeBook:
    cb_path = args.codebook or str(Path(netlist_path).parent / "codebook.json")
    doc = _read_json(cb_path)
    try:
        return CodeBook.from_json_dict(doc["state"])
    except KeyError as exc:
        raise InputError(f"{cb_path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, CodingError) as exc:
        raise InputError(f"{cb_path}: malformed codebook: {exc}") from None


def _parse_words(items, where: str) -> List[int]:
    if not isinstance(items, list):
        raise InputError(f"{where}: trace is not a list of words")
    words = []
    for i, w in enumerate(items):
        # only a string takes a base, so a float or a bool is rejected here
        # rather than read as int(1.7) == 1 or int(True) == 1
        try:
            words.append(w if type(w) is int else int(w, 16))
        except (TypeError, ValueError):
            raise InputError(f"{where}: trace word {i} ({w!r}) is not a hex word") from None
    return words


def _trace_words(args: argparse.Namespace, netlist: nl_mod.Netlist, netlist_path: str) -> List[int]:
    if args.trace == "auto-cover":
        words = netlist.meta.get("autocover_trace")
        if not words:
            raise fe.CampaignError("netlist carries no auto-cover trace metadata")
        return _parse_words(words, f"{netlist_path}: meta.autocover_trace")
    return _parse_words(_read_json(args.trace), args.trace)


def cmd_inject(args: argparse.Namespace) -> int:
    try:
        netlist = _netlist_from_json(_read_json(args.netlist), args.netlist)
        codes = _load_codebook(args, args.netlist)
        if not any(g.tag for g in netlist.gates):
            raise InputError("netlist carries no stage tags; run 'harden' first")
        words = _trace_words(args, netlist, args.netlist)
    except OSError as exc:
        log.error("cannot read inputs: %s", exc)
        return EXIT_IO
    except (InputError, fe.CampaignError) as exc:
        log.error("%s", exc)
        return EXIT_FAIL
    try:
        spec = CampaignSpec(
            scope=_SCOPES[args.scope],
            max_simultaneous_faults=args.max_faults,
            effects=tuple(args.effects.split(",")),
            mode="exhaustive" if args.sample is None else "sampled",
            sample_count=10_000 if args.sample is None else args.sample,
            seed=args.seed,
        )
        report = run_campaign(netlist, words, spec, codes)
    except (fe.CampaignError, nl_mod.NetlistError) as exc:
        log.error("campaign failed: %s", exc)
        return EXIT_FAIL
    try:
        _dump_json(Path(args.out), report.to_json_dict())
    except OSError as exc:
        log.error("cannot write %s: %s", args.out, exc)
        return EXIT_IO
    print(report.summary_table())
    print(f"report written to {args.out}")
    return EXIT_FAIL if report.hijack else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        source = Path(args.target).read_text(encoding="utf-8")
    except OSError as exc:
        log.error("cannot read %s: %s", args.target, exc)
        return EXIT_IO
    try:
        doc = _parse_json(source, args.target) if args.target.endswith(".json") else None
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_FAIL
    try:
        if isinstance(doc, dict) and "gates" in doc:
            netlist = _netlist_from_json(doc, args.target)
            codes = _load_codebook(args, args.target)
            words = _trace_words(args, netlist, args.target)
            states, alerts = fe.golden_run(netlist, words, codes)
            for i, (s, a) in enumerate(zip(states, alerts)):
                print(f"{i:4d}  {s or '<invalid>'}  alert={a}")
            return EXIT_OK
        fsm = parse_fsm(source, format=_guess_format(args.target, args.format))
        trace = fsm_mod.edge_cover_walk(fsm)[1] if args.trace == "auto-cover" else _read_json(args.trace)
        trajectory = fsm_mod.simulate_spec(fsm, trace)
        for i, s in enumerate(trajectory):
            print(f"{i:4d}  {s}")
        return EXIT_OK
    except (FsmError, fe.CampaignError, nl_mod.NetlistError, InputError) as exc:
        log.error("simulation failed: %s", exc)
        return EXIT_FAIL
    except OSError as exc:
        log.error("cannot read inputs: %s", exc)
        return EXIT_IO


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fsmguard",
        description="Harden FSMs against fault attacks and verify the result by fault injection.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("harden", help="transform an FSM into a hardened netlist")
    h.add_argument("--fsm", required=True, help="FSM description (JSON or KISS2)")
    h.add_argument("--format", choices=["json", "kiss2"], default=None)
    h.add_argument("--level", type=int, required=True, help="protection level N (>= 2)")
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--out", required=True, help="output directory")
    h.set_defaults(func=cmd_harden)

    i = sub.add_parser("inject", help="run a fault-injection campaign on a hardened netlist")
    i.add_argument("--netlist", required=True, help="netlist.json from 'harden'")
    i.add_argument("--codebook", default=None, help="codebook.json (default: beside the netlist)")
    i.add_argument("--scope", choices=list(_SCOPES), default="all")
    i.add_argument("--effects", default="flip", help="comma list of flip,stuck0,stuck1")
    i.add_argument("--max-faults", type=int, default=1, dest="max_faults")
    i.add_argument("--sample", type=_positive_int, default=None, help="sampled mode with COUNT experiments")
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--trace", default="auto-cover", help="'auto-cover' or a JSON word-trace file")
    i.add_argument("--out", default="report.json")
    i.set_defaults(func=cmd_inject)

    s = sub.add_parser("simulate", help="golden simulation of an FSM or hardened netlist")
    s.add_argument("--target", required=True, help="FSM file or netlist.json")
    s.add_argument("--format", choices=["json", "kiss2"], default=None)
    s.add_argument("--trace", default="auto-cover", help="trace file (assignments or hex words)")
    s.add_argument("--codebook", default=None)
    s.set_defaults(func=cmd_simulate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FSMGUARD_LOG", "INFO").upper(),
        format="%(levelname)s %(message)s",
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
