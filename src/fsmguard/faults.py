"""Fault-injection campaigns against hardened netlists and outcome classification."""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coding import CodeBook, ERROR_SYMBOL, decode_exact
from .netlist import FaultSite, Netlist, SimResult, enumerate_fault_sites, simulate_batch

DEFAULT_EXHAUSTIVE_BOUND = 10_000_000
_BATCH_LANES = 64


class CampaignError(Exception):
    pass


@dataclass(frozen=True)
class CampaignSpec:
    scope: str = "all"
    max_simultaneous_faults: int = 1
    effects: Tuple[str, ...] = ("flip",)
    cycles: Optional[Tuple[int, ...]] = None  # default: every input cycle
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    sample_count: int = 10_000
    seed: int = 0
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND

    def __post_init__(self):
        if self.max_simultaneous_faults < 1:
            raise CampaignError("max_simultaneous_faults must be >= 1")
        if self.mode not in ("exhaustive", "sampled"):
            raise CampaignError(f"unknown mode {self.mode!r}")
        for e in self.effects:
            if e not in ("flip", "stuck0", "stuck1"):
                raise CampaignError(f"unknown effect {e!r}")


@dataclass(frozen=True)
class HijackWitness:
    faults: Tuple[FaultSite, ...]
    cycle: int
    reached_state: str
    golden_state: str

    def to_json_dict(self) -> dict:
        return {
            "faults": [
                {"location": f.location, "effect": f.effect, "cycle": f.cycle}
                for f in self.faults
            ],
            "cycle": self.cycle,
            "reached_state": self.reached_state,
            "golden_state": self.golden_state,
        }


@dataclass
class FaultCampaignReport:
    total: int
    masked: int
    detected: int
    hijack: int
    masked_corrupt: int  # diagnostic subset of masked: silently wrong non-codeword runs
    witnesses: List[HijackWitness]
    theoretical_p: float
    metadata: Dict[str, object] = field(default_factory=dict)
    confidence_interval: Optional[Tuple[float, float]] = None

    @property
    def hijack_rate(self) -> float:
        return self.hijack / self.total if self.total else 0.0

    def to_json_dict(self) -> dict:
        doc = {
            "totals": {
                "total": self.total,
                "masked": self.masked,
                "detected": self.detected,
                "hijack": self.hijack,
                "masked_corrupt": self.masked_corrupt,
            },
            "rates": {
                "masked": self.masked / self.total if self.total else 0.0,
                "detected": self.detected / self.total if self.total else 0.0,
                "hijack": self.hijack_rate,
            },
            "theoretical_p": self.theoretical_p,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "metadata": self.metadata,
        }
        if self.confidence_interval is not None:
            doc["hijack_rate_ci95"] = list(self.confidence_interval)
        return doc

    def summary_table(self) -> str:
        lines = [
            f"{'class':<16}{'count':>10}{'rate':>12}",
            f"{'masked':<16}{self.masked:>10}{self.masked / max(self.total, 1):>12.4%}",
            f"{'detected':<16}{self.detected:>10}{self.detected / max(self.total, 1):>12.4%}",
            f"{'hijack':<16}{self.hijack:>10}{self.hijack_rate:>12.4%}",
            f"{'(corrupt)':<16}{self.masked_corrupt:>10}",
            f"{'total':<16}{self.total:>10}",
            f"theoretical P = {self.theoretical_p:.3e}",
        ]
        if self.confidence_interval:
            lo, hi = self.confidence_interval
            lines.append(f"hijack rate 95% CI: [{lo:.4%}, {hi:.4%}]")
        return "\n".join(lines)


def theoretical_success_probability(state_bits: int, error_bits: int, k: int) -> float:
    """Closed-form attacker success estimate for the diffusion construction."""
    total = state_bits + error_bits
    if total > 32 * k:
        raise CampaignError("state_bits + error_bits exceed the diffusion output space")
    exponent = 32 - total
    if exponent <= 0:
        warnings.warn(
            "success-probability formula degenerates when state+error bits fill a "
            "whole block; value reported as-is",
            stacklevel=2,
        )
    return total / (k * (2.0 ** exponent))


def wilson_interval(hits: int, total: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for ``hits`` of ``total`` (95% for z=1.96).

    Unlike the Wald interval it stays honest at 0 hits: 0 of 500 gives an
    upper bound of about 0.0076, close to the rule of three.
    """
    p = hits / total
    zz = z * z
    centre = p + zz / (2 * total)
    spread = z * math.sqrt(p * (1 - p) / total + zz / (4 * total * total))
    scale = 1 + zz / total
    # at the edges the bound is exactly 0 or 1; computing it could round past p
    lo = 0.0 if hits == 0 else (centre - spread) / scale
    hi = 1.0 if hits == total else (centre + spread) / scale
    return lo, hi


def _word_trace(words: Sequence[int]) -> List[Dict[str, int]]:
    # one extra settle cycle so the final register state and alert are observable
    return [{"x_e": w} for w in words] + [{"x_e": 0}]


def _observe(res: SimResult, lane: int) -> Tuple[List[int], List[int]]:
    """State words and alerts of one lane, one per simulated cycle."""
    cycles = range(res.cycles)
    return (
        [res.port_value("state_e", c, lane) for c in cycles],
        [res.port_value("fsm_alert", c, lane) for c in cycles],
    )


def golden_run(netlist: Netlist, words: Sequence[int], codes: CodeBook) -> Tuple[List[str], List[int]]:
    """Decoded fault-free trajectory (len(words)+1 states) and per-cycle alert."""
    state_words, alerts = _observe(simulate_batch(netlist, [_word_trace(words)]), 0)
    return [decode_exact(codes, w) for w in state_words], alerts


def _classify(
    golden: Sequence[str],
    state_words: Sequence[int],
    alerts: Sequence[int],
    codes: CodeBook,
) -> Tuple[str, Optional[Tuple[int, str]]]:
    """Returns (class, hijack info). Classes: masked, masked_corrupt, detected, hijack."""
    clean = True
    for c, (word, alert) in enumerate(zip(state_words, alerts)):
        sym = decode_exact(codes, word)
        if sym != golden[c]:
            clean = False
        if sym is not None and sym != ERROR_SYMBOL and sym != golden[c] and not alert:
            return "hijack", (c, sym)
        if alert or sym == ERROR_SYMBOL:
            return "detected", None
    return ("masked" if clean else "masked_corrupt"), None


def _enumerate_experiments(n_atoms: int, spec: CampaignSpec) -> Iterator[Tuple[int, ...]]:
    """Stream of experiments, each a tuple of fault-atom indices.

    ``random.sample`` indexes a range exactly as it indexes a list of the same
    length, so sampled draws do not depend on the atoms being materialised.
    """
    j = spec.max_simultaneous_faults
    if spec.mode == "exhaustive":
        n_combos = math.comb(n_atoms, j)
        if n_combos > spec.exhaustive_bound:
            raise CampaignError(
                f"{n_combos} experiments exceed the exhaustive bound "
                f"{spec.exhaustive_bound}; use sampled mode"
            )
        return combinations(range(n_atoms), j)
    rng = random.Random(spec.seed)
    return (tuple(rng.sample(range(n_atoms), j)) for _ in range(spec.sample_count))


def run_campaign(
    netlist: Netlist,
    golden_words: Sequence[int],
    spec: CampaignSpec,
    codes: CodeBook,
) -> FaultCampaignReport:
    """Inject every experiment from ``spec``, classify against the golden run.

    Experiments are independent; lanes are batched and merged in enumeration
    order, so reports are deterministic regardless of batching.
    """
    golden_states, golden_alerts = golden_run(netlist, golden_words, codes)
    if any(golden_alerts):
        raise CampaignError("golden run already raises the alert; configuration bug")
    if any(s is None for s in golden_states):
        raise CampaignError("golden run leaves the valid codeword space")

    sites = enumerate_fault_sites(netlist, spec.scope)
    cycles = tuple(spec.cycles) if spec.cycles is not None else tuple(range(len(golden_words)))
    outside = [c for c in cycles if not 0 <= c < len(golden_words)]
    if outside:
        raise CampaignError(
            f"campaign cycle {outside[0]} is outside the trace (0..{len(golden_words) - 1})"
        )
    # atom index = (site, effect, cycle) in site-major order
    per_site = len(spec.effects) * len(cycles)
    n_atoms = len(sites) * per_site
    if n_atoms < spec.max_simultaneous_faults:
        raise CampaignError("fewer fault atoms than simultaneous faults requested")
    experiments = _enumerate_experiments(n_atoms, spec)

    def atom(i: int) -> FaultSite:
        site, rest = divmod(i, per_site)
        effect, cycle = divmod(rest, len(cycles))
        return FaultSite(sites[site], spec.effects[effect], cycles[cycle])

    trace = _word_trace(golden_words)
    counts = {"masked": 0, "detected": 0, "hijack": 0, "masked_corrupt": 0}
    witnesses: List[HijackWitness] = []
    while batch := [tuple(map(atom, e)) for e in islice(experiments, _BATCH_LANES)]:
        res = simulate_batch(netlist, [trace] * len(batch), [list(b) for b in batch])
        for lane, faults in enumerate(batch):
            cls, info = _classify(golden_states, *_observe(res, lane), codes)
            counts[cls] += 1
            if cls == "hijack":
                cyc, sym = info
                witnesses.append(HijackWitness(faults, cyc, sym, golden_states[cyc]))

    meta = dict(netlist.meta)
    k = int(meta.get("k", 1))
    state_bits = int(meta.get("state_width", len(netlist.port("state_e").bits)))
    err_total = int(meta.get("error_bits_per_block", 0)) * k
    theo = theoretical_success_probability(state_bits, err_total, k)

    total = sum(counts.values())
    hijack = counts["hijack"]
    ci = None
    if spec.mode == "sampled" and total:
        ci = wilson_interval(hijack, total)
    report = FaultCampaignReport(
        total=total,
        masked=counts["masked"] + counts["masked_corrupt"],
        detected=counts["detected"],
        hijack=hijack,
        masked_corrupt=counts["masked_corrupt"],
        witnesses=witnesses,
        theoretical_p=theo,
        metadata={
            "scope": spec.scope,
            "effects": list(spec.effects),
            "mode": spec.mode,
            "seed": spec.seed,
            "max_simultaneous_faults": spec.max_simultaneous_faults,
            "sites": len(sites),
            "cycles": len(cycles),
            "trace_length": len(golden_words),
        },
        confidence_interval=ci,
    )
    return report


def replay_witness(
    netlist: Netlist,
    golden_words: Sequence[int],
    witness: HijackWitness,
    codes: CodeBook,
) -> bool:
    """Re-inject a recorded hijack fault set and confirm the same wrong state."""
    golden_states, _ = golden_run(netlist, golden_words, codes)
    res = simulate_batch(netlist, [_word_trace(golden_words)], [list(witness.faults)])
    cls, info = _classify(golden_states, *_observe(res, 0), codes)
    return cls == "hijack" and info == (witness.cycle, witness.reached_state)
