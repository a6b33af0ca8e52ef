"""Command-line orchestrator: scenarios, reports, and the N = C check.

Subcommands
-----------
``spectrum``  sweep a scenario and export the window eigenvalue table plus
              the closed-form branch table of the named models;
``flow``      compute the spectral flow through the scenario's gap window;
``chern``     compute per-band Chern indices by one or all methods;
``verify``    run flow and Chern together and assert that they agree.

Every subcommand takes ``--preset <name>`` or ``--scenario <file.json>``,
``--out <path>`` and ``--format json|csv``; reports are written atomically
(temp file + rename) and JSON output is byte-deterministic apart from the
``timings`` block.

Exit codes: 0 success / verdict PASS; 1 configuration or model error;
2 usage error; 3 flow computation failure; 4 Chern computation failure;
5 verify verdict FAIL.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .errors import ChernError, FlowError, IndexLabError, ModelError
from .flow import FlowResult, SpectralWindow, check_mu_grid, sector_index, sweep
from .hermite import AffineMatrixSymbol, Record, TruncatedBasis, sampled_gap_certificate
from .models import (
    constant_symbol,
    matsuno_branch_table,
    matsuno_symbol,
    normal_form_eigenvalue,
    normal_form_symbol,
    ts2_symbol,
    BranchLabel,
)

__all__ = ["Scenario", "VerificationReport", "PRESETS", "load_preset",
           "run_spectrum", "run_flow", "run_chern", "run_verify", "main", "entry"]

SCHEMA = "indexlab.scenario/1"


def _topology():
    """The Chern layer, imported on first use: ``flow`` and ``spectrum`` never load it."""
    from . import topology
    return topology


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_FLOW = 3
EXIT_CHERN = 4
EXIT_VERDICT = 5

_INT_FIELDS = ("max_level", "guard_levels", "steps", "grid_n", "equator_samples",
               "branch_table_levels")


def _is_number(value) -> bool:
    """An int or float that fits a finite float: not JSON's NaN and +-Infinity, nor 10**400."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return type(value) is int


#: Type checks of the documented ``model_params`` keys.
_PARAM_CHECKS: dict[str, Callable] = {
    "epsilon": _is_number,
    "value": _is_number,
    "reflected": lambda v: isinstance(v, bool),
    "gap_band": _is_int,
    "dim": _is_int,
    "gap_band_override": lambda v: v is None or _is_int(v),  # null: no override
}

@dataclass(frozen=True)
class Scenario:
    """Fully serializable description of one laboratory run."""

    name: str
    model: str
    model_params: dict = field(default_factory=dict)
    max_level: int = 24
    guard_levels: int = 5
    window: tuple[float, float, float] = (-0.9, 0.9, 0.0)
    mu_min: float = -2.0
    mu_max: float = 2.0
    steps: int = 32
    grid_n: int = 64
    equator_samples: int = 512
    chern_bands: tuple[int, ...] = ()
    zero_refs: dict = field(default_factory=dict)
    clutch_refs: dict = field(default_factory=dict)
    branch_table_levels: int = 8
    schema: str = SCHEMA

    def __post_init__(self):
        if self.schema != SCHEMA:
            raise ModelError(f"unsupported scenario schema {self.schema!r}")
        if not isinstance(self.name, str):
            raise ModelError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.model, str) or self.model not in _MODELS:
            raise ModelError(f"unknown model {self.model!r}")
        if len(self.window) != 3 or not all(map(_is_number, self.window)):
            raise ModelError(f"window must be three finite numbers, got {list(self.window)!r}")
        for name in ("mu_min", "mu_max"):
            if not _is_number(getattr(self, name)):
                raise ModelError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ModelError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("model_params", "zero_refs", "clutch_refs"):
            if not isinstance(getattr(self, name), dict):
                raise ModelError(f"{name} must be an object, got {getattr(self, name)!r}")
        for key, value in self.model_params.items():
            if key not in (*_MODELS[self.model].keys, "gap_band_override"):
                raise ModelError(f"model_params[{key!r}] is not read by the {self.model} model")
            if not _PARAM_CHECKS[key](value):
                raise ModelError(f"model_params[{key!r}] has the wrong type or value: {value!r}")
        for name, least in (("branch_table_levels", 0), ("grid_n", 16), ("equator_samples", 16)):
            if getattr(self, name) < least:
                raise ModelError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        self.basis()
        self.spectral_window()
        check_mu_grid(self.mu_min, self.mu_max, self.steps)
        dim = self.symbol().dim
        for name in ("zero_refs", "clutch_refs"):
            if stray := sorted(set(getattr(self, name)) - {str(b) for b in range(1, dim + 1)}):
                raise ModelError(f"{name} keys must be bands '1'..'{dim}', got {stray!r}")
        for band, pairs in self.zero_refs.items():
            if not isinstance(pairs, (list, tuple)) or len(pairs) != dim or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_number, p))
                for p in pairs
            ) or not any(map(any, pairs)):
                raise ModelError(f"zero_refs[{band!r}] must be a list of {dim} "
                                 "[re, im] finite number pairs, not all zero")
        if not all(_is_int(b) and 1 <= b <= dim for b in self.chern_bands):
            raise ModelError(f"chern_bands must be integers in 1..{dim}, "
                             f"got {list(self.chern_bands)!r}")
        for band, strategy in self.clutch_refs.items():
            if strategy not in ("poles", "global-section"):
                raise ModelError(f"unknown clutching reference strategy {strategy!r} "
                                 f"for band {band!r}")
            if strategy == "global-section" and int(band) not in _MODELS[self.model].sections:
                raise ModelError(f"no registered global section for {self.model} band {band}")

    # -- construction of live objects -------------------------------------
    def symbol(self) -> AffineMatrixSymbol:
        model = _MODELS[self.model]
        sym = model.make(**{k: v for k, v in self.model_params.items() if k in model.keys})
        override = self.model_params.get("gap_band_override")
        if override is not None:
            sym = dataclasses.replace(sym, gap_band=int(override))
        return sym

    def basis(self) -> TruncatedBasis:
        return TruncatedBasis(
            max_level=self.max_level, epsilon=float(self.model_params.get("epsilon", 1.0)),
            guard_levels=self.guard_levels,
        )

    def spectral_window(self) -> SpectralWindow:
        lo, hi, ref = self.window
        return SpectralWindow(omega_min=lo, omega_max=hi, omega_ref=ref)

    def zero_ref_for(self, band: int) -> np.ndarray:
        stored = self.zero_refs.get(str(band))
        if stored is not None:
            return np.array([complex(re, im) for re, im in stored])
        return _MODELS[self.model].zero_ref(band, self.symbol().dim)

    def clutch_refs_for(self, band: int):
        strategy = self.clutch_refs.get(str(band), "poles")
        if strategy == "poles":
            return None, None
        fn = _MODELS[self.model].sections[band]  # checked in __post_init__
        return fn, fn

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["window"] = list(self.window)
        d["chern_bands"] = list(self.chern_bands)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ModelError("scenario must be a JSON object")
        # the lists of a file as tuples; a key left out takes the field's default
        data = {k: tuple(v) if k in ("window", "chern_bands") else v for k, v in data.items()}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)


def _batched(section: Callable) -> Callable:
    """Mark a section that takes rows of points (n, 3) as well as one point (3,), so that
    clutching evaluates it once per sample set instead of once per point."""
    section.batched = True
    return section


@_batched
def _matsuno_band2_section(p: np.ndarray) -> np.ndarray:
    """Tautological nonvanishing section of the flat middle band."""
    mu, x, xi = np.moveaxis(p, -1, 0)
    return np.stack((-x, 1j * xi, -1j * mu), axis=-1)


@_batched
def _ts2_band2_section(p: np.ndarray) -> np.ndarray:
    """The rotation generator's kernel at p is spanned by p itself."""
    return np.asarray(p, dtype=complex)


def _matsuno_rows(scenario: Scenario, mus: np.ndarray) -> list[tuple[float, str, int, float]]:
    return [(float(mu), label.family, label.level, omega) for mu in mus
            for label, omega in matsuno_branch_table(float(mu), scenario.branch_table_levels)]


def _normal_form_rows(scenario: Scenario, mus: np.ndarray) -> list[tuple[float, str, int, float]]:
    eps = float(scenario.model_params.get("epsilon", 1.0))
    sign = -1.0 if scenario.model_params.get("reflected") else 1.0
    rows = []
    for mu in mus:
        m = sign * float(mu)
        rows.append((float(mu), "normal_zero", 0, normal_form_eigenvalue(BranchLabel("normal_zero"), m, eps)))
        for n in range(1, scenario.branch_table_levels + 1):
            for fam in ("normal_minus", "normal_plus"):
                rows.append((float(mu), fam, n, normal_form_eigenvalue(BranchLabel(fam, n), m, eps)))
    return rows


class _Model(Record):
    """What the CLI knows of one model."""

    make: Callable  # the symbol constructor
    keys: tuple[str, ...]  # the model_params keys (keyword arguments) make reads
    zero_ref: Callable  # (band, dim) -> default section-zero reference
    sections: dict  # band -> registered global section, for clutching
    branch_rows: Callable | None  # (scenario, mus) -> closed-form branch rows, or None


_MODELS: dict[str, _Model] = {
    "normal-form": _Model(
        normal_form_symbol, ("epsilon", "reflected"),
        lambda band, dim: np.array([0.0, 1.0] if band == 1 else [1.0, 0.0], dtype=complex),
        {}, _normal_form_rows),
    "matsuno": _Model(
        matsuno_symbol, ("gap_band",),
        lambda band, dim: (np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0) if band == 2
                           else np.array([0.0, 0.0, 1.0], dtype=complex)),
        {2: _matsuno_band2_section}, _matsuno_rows),
    "ts2": _Model(ts2_symbol, ("gap_band",),
                  lambda band, dim: (np.array([1.0, 1j, 0.0]) / np.sqrt(2.0) if band == 2
                                     else np.array([0.0, 0.0, 1.0], dtype=complex)),
                  {2: _ts2_band2_section}, None),
    "constant": _Model(constant_symbol, ("value", "dim"),
                       lambda band, dim: np.eye(dim, dtype=complex)[0], {}, None),
}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _matsuno_preset(name: str, gap_band: int, window, mu, steps) -> Scenario:
    return Scenario(
        name=name,
        model="matsuno",
        model_params={"gap_band": gap_band},
        max_level=60,
        window=window,
        mu_min=mu[0],
        mu_max=mu[1],
        steps=steps,
        chern_bands=(1, 2, 3),
        clutch_refs={"2": "global-section"},
    )


#: Built-in scenarios; fields left out take the :class:`Scenario` defaults.
PRESETS: dict[str, Callable[[], Scenario]] = {
    "normal-form": lambda: Scenario(
        name="normal-form",
        model="normal-form",
        model_params={"epsilon": 1.0},
        chern_bands=(1, 2),
        branch_table_levels=10,
    ),
    "matsuno": lambda: _matsuno_preset(
        "matsuno", 2, (1.1, 1.5, 1.3), (-4.0, 4.0), 161
    ),
    "matsuno-upper-gap": lambda: _matsuno_preset(
        "matsuno-upper-gap", 2, (1.1, 1.5, 1.3), (-6.0, 6.0), 48
    ),
    "matsuno-lower-gap": lambda: _matsuno_preset(
        "matsuno-lower-gap", 1, (-1.5, -1.1, -1.3), (-6.0, 6.0), 48
    ),
    "ts2": lambda: Scenario(
        name="ts2",
        model="ts2",
        model_params={"gap_band": 2},
        window=(0.3, 0.7, 0.5),
        chern_bands=(3,),
    ),
    "constant": lambda: Scenario(
        name="constant", model="constant", model_params={"value": 5.0, "dim": 1}
    ),
}


def load_preset(name: str) -> Scenario:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ModelError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_spectrum(scenario: Scenario) -> dict:
    """Sweep and export (mu, ordinal, omega, spurious_weight) records."""
    t0 = time.monotonic()
    sw = sweep(scenario.symbol(), scenario.basis(), scenario.spectral_window(),
               scenario.mu_min, scenario.mu_max, scenario.steps)
    branch_rows = _MODELS[scenario.model].branch_rows
    mus = np.linspace(scenario.mu_min, scenario.mu_max, scenario.steps + 1)
    return {
        "schema": "indexlab.spectrum/1",
        "scenario": scenario.to_dict(),
        "rows": [list(r) for r in sw.table_rows()],
        "closed_form_rows": [list(r) for r in branch_rows(scenario, mus)] if branch_rows else [],
        "timings": {"seconds": time.monotonic() - t0},
    }


def _flow(scenario: Scenario, symbol: AffineMatrixSymbol) -> tuple[FlowResult, dict]:
    """Certify the gap and count the flow from the charge blocks at the two ends of the
    mu range (:func:`~indexlab.flow.sector_index`): the result and its report fields.

    Every model builds a symbol with a charge operator; one without raises
    :class:`~indexlab.errors.ModelError`.
    """
    sampled_gap_certificate(symbol)
    result = sector_index(symbol, scenario.basis(), scenario.spectral_window(),
                          scenario.mu_min, scenario.mu_max)
    fields = {
        "N": result.N,
        "method_counts": result.method_counts,
        "crossings": [
            {"mu_lo": c.mu_lo, "mu_hi": c.mu_hi, "direction": c.direction, "sector": c.sector}
            for c in result.crossings
        ],
    }
    return result, fields


def run_flow(scenario: Scenario) -> dict:
    """Spectral flow of the scenario through its gap window."""
    t0 = time.monotonic()
    _, fields = _flow(scenario, scenario.symbol())
    return {
        "schema": "indexlab.flow/2",
        "scenario": scenario.to_dict(),
        **fields,
        "samples": 2,
        "timings": {"seconds": time.monotonic() - t0},
    }


def _chern_report_dict(report) -> dict:
    out = {
        "method": report.method,
        "C": report.C,
        "raw_value": report.raw_value,
        "residual": report.residual,
        "diagnostics": report.diagnostics,
    }
    if report.zeros:
        out["zeros"] = [
            {"point": list(z.point), "index": z.index} for z in report.zeros
        ]
    return out


#: Each Chern method by name, in report order: (scenario, field, band) -> report.  The
#: entries look the ``topology.chern_*`` functions up when called, so a rebinding of one
#: on that module reaches them.
_CHERN_METHODS: dict[str, Callable] = {
    "curvature": lambda scenario, fld, band: _topology().chern_curvature(fld),
    "clutching": lambda scenario, fld, band: _topology().chern_clutching(
        fld, scenario.equator_samples, *scenario.clutch_refs_for(band)),
    "zeros": lambda scenario, fld, band: _topology().chern_section_zeros(
        fld, scenario.zero_ref_for(band)),
}


def _band_reports(
    scenario: Scenario, spectrum, bands: Sequence[int], method: str
) -> tuple[list[int], list[dict], bool]:
    """Per-band C (first method), report entries and agreement, from one spectrum."""
    per_band = []
    c_values = []
    agreement = True
    names = _CHERN_METHODS if method == "all" else (method,)
    for band in bands:
        fld = spectrum.field([band])
        reports = {name: _CHERN_METHODS[name](scenario, fld, band) for name in names}
        values = {r.C for r in reports.values()}
        agreement = agreement and len(values) == 1
        c_values.append(next(iter(reports.values())).C)
        per_band.append(
            {"band": band, "reports": {k: _chern_report_dict(v) for k, v in reports.items()}}
        )
    return c_values, per_band, agreement


def run_chern(scenario: Scenario, method: str = "all") -> dict:
    """Per-band Chern indices by the requested method(s)."""
    if method not in (*_CHERN_METHODS, "all"):
        raise ModelError(f"unknown chern method {method!r}")
    topology = _topology()
    t0 = time.monotonic()
    symbol = scenario.symbol()
    bands = scenario.chern_bands or tuple(range(1, symbol.dim + 1))
    spectrum = topology.SphereSpectrum.build(symbol, topology.SphereGrid.build(scenario.grid_n))
    c_values, per_band, agreement = _band_reports(scenario, spectrum, bands, method)
    out = {
        "schema": "indexlab.chern/1",
        "scenario": scenario.to_dict(),
        "method": method,
        "C": c_values,
        "bands": per_band,
        "timings": {"seconds": time.monotonic() - t0},
    }
    if method == "all":
        out["agreement"] = agreement
    return out


class VerificationReport(Record):
    """Outcome of the flow-equals-Chern check for one scenario."""

    scenario: Scenario
    flow: FlowResult
    subgap_chern: int
    subgap_raw: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def run_verify(scenario: Scenario) -> tuple[VerificationReport, dict]:
    """Compute the flow and the sub-gap bundle index; PASS iff they agree.

    The bundle below the tracked gap is bands ``1..gap_band``; its index is
    computed with the determinant-overlap curvature method (rank >= 2 safe)
    on whichever of bands ``1..gap_band`` and ``gap_band+1..d`` has fewer
    bands, the sub-gap group on a tie.  The two bundles sum to the trivial
    ``C^d``, so the complement's index is minus the sub-gap one, and so is
    each of its cell phases modulo 2 pi: the d x d frame overlap of a link
    is unitary, so the determinant of its sub-gap block is its own
    determinant times the conjugate of the complement block's, and the
    full determinants multiply to 1 around every cell.  A scenario with no
    band below the gap has index 0 by convention.  The sub-gap group and the
    ``chern_bands`` reports share one grid eigensolve, made only if one of
    them needs it; a group of one band listed in ``chern_bands`` takes that
    band's curvature report instead of computing it again.
    """
    topology = _topology()
    t0 = time.monotonic()
    symbol = scenario.symbol()
    flow_result, flow_fields = _flow(scenario, symbol)
    t_flow = time.monotonic()

    subgap_bands = list(range(1, symbol.gap_band + 1))
    if subgap_bands or scenario.chern_bands:
        spectrum = topology.SphereSpectrum.build(symbol, topology.SphereGrid.build(scenario.grid_n))
    per_band, agreement = [], None
    if scenario.chern_bands:
        _, per_band, agreement = _band_reports(
            scenario, spectrum, scenario.chern_bands, "all"
        )
    curvature = {(entry["band"],): entry["reports"]["curvature"] for entry in per_band}
    upper_bands = list(range(symbol.gap_band + 1, symbol.dim + 1))
    complement = 0 < len(upper_bands) < len(subgap_bands)
    group = tuple(upper_bands if complement else subgap_bands)
    subgap_c, subgap_raw = 0, 0.0
    if group:
        group_report = curvature.get(group)
        if group_report is None:
            group_report = _chern_report_dict(topology.chern_curvature(spectrum.field(list(group))))
        subgap_c, subgap_raw = group_report["C"], group_report["raw_value"]
    if complement:
        # 0.0 - keeps a zero raw value +0.0
        subgap_c, subgap_raw = -subgap_c, 0.0 - subgap_raw

    verdict = "PASS" if flow_result.N == subgap_c else "FAIL"
    report = VerificationReport(
        scenario=scenario,
        flow=flow_result,
        subgap_chern=subgap_c,
        subgap_raw=subgap_raw,
        verdict=verdict,
    )
    payload = {
        "schema": "indexlab.verify/2",
        "scenario": scenario.to_dict(),
        "flow": flow_fields,
        "chern": {
            "subgap_bands": subgap_bands,
            "C": subgap_c,
            "raw_value": subgap_raw,
            "per_band": per_band,
            "agreement": agreement,
        },
        "verdict": verdict,
        "timings": {
            "flow_seconds": t_flow - t0,
            "chern_seconds": time.monotonic() - t_flow,
        },
    }
    return report, payload


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _spectrum_csv(report: dict) -> str:
    lines = ["mu,branch,omega,spurious_weight"]
    for mu, ordinal, omega, wt in report["rows"]:
        lines.append(f"{_fmt17(mu)},{int(ordinal)},{_fmt17(omega)},{_fmt17(wt)}")
    return "\n".join(lines) + "\n"


def _branches_csv(report: dict) -> str:
    lines = ["mu,family,level,omega"]
    for mu, family, level, omega in report["closed_form_rows"]:
        lines.append(f"{_fmt17(mu)},{family},{int(level)},{_fmt17(omega)}")
    return "\n".join(lines) + "\n"


def _flow_csv(report: dict) -> str:
    lines = ["key,value", f"N,{report['N']}"]
    for k, v in report["method_counts"].items():
        lines.append(f"{k},{v}")
    for c in report["crossings"]:
        lines.append(f"crossing,{_fmt17(c['mu_lo'])}:{_fmt17(c['mu_hi'])}:{c['direction']}")
    return "\n".join(lines) + "\n"


def _chern_csv(report: dict) -> str:
    lines = ["band,method,C,raw_value,residual"]
    for entry in report["bands"]:
        for name, rep in entry["reports"].items():
            lines.append(
                f"{entry['band']},{name},{rep['C']},{_fmt17(rep['raw_value'])},"
                f"{_fmt17(rep['residual'])}"
            )
    return "\n".join(lines) + "\n"


def _verify_csv(payload: dict) -> str:
    lines = [
        "key,value",
        f"N,{payload['flow']['N']}",
        f"C,{payload['chern']['C']}",
        f"verdict,{payload['verdict']}",
    ]
    return "\n".join(lines) + "\n"


#: Each command's CSV table of its report.
_CSV: dict[str, Callable[[dict], str]] = {
    "spectrum": _spectrum_csv, "flow": _flow_csv, "chern": _chern_csv, "verify": _verify_csv,
}


def _to_json(payload: dict) -> str:
    """RFC 8259 JSON: a NaN or infinite value raises ValueError instead of being written."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str):
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".indexlab-{os.urandom(8).hex()}.tmp")
    # the kernel takes the umask off 0666, as for open(path, "w"): reading it would set it
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            with contextlib.suppress(FileNotFoundError):  # a replaced report keeps its mode
                os.fchmod(fh.fileno(), os.stat(path).st_mode & 0o7777)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.scenario:
        with open(args.scenario) as fh:
            scenario = Scenario.from_dict(json.load(fh))
    else:
        scenario = load_preset(args.preset)
    overrides = {}
    if args.grid is not None:
        overrides["grid_n"] = args.grid
    if args.levels is not None:
        overrides["max_level"] = args.levels
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexlab",
        description="Spectral-flow vs Chern-index laboratory for matrix wave operators",
    )
    parser.add_argument("--version", action="version", version=f"indexlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("spectrum", "export window eigenvalue branches over the mu sweep"),
        ("flow", "count the spectral flow through the gap window"),
        ("chern", "compute per-band Chern indices"),
        ("verify", "check that spectral flow equals the sub-gap Chern index"),
    ):
        p = sub.add_parser(name, help=help_)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
        src.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--grid", type=int, help="override sphere grid size N")
        p.add_argument("--levels", type=int, help="override Hermite cutoff M")
        if name == "chern":
            p.add_argument("--method", choices=(*_CHERN_METHODS, "all"), default="all")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return int(exc.code or 0)

    try:
        scenario = _load_scenario(args)
    except (OSError, ValueError, RecursionError, IndexLabError, TypeError) as exc:
        print(f"indexlab: scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = {
            "spectrum": lambda: run_spectrum(scenario),
            "flow": lambda: run_flow(scenario),
            "chern": lambda: run_chern(scenario, args.method),
            "verify": lambda: run_verify(scenario)[1],
        }[args.command]()
        _emit(_CSV[args.command](report) if args.format == "csv" else _to_json(report), args.out)
        if args.format == "csv" and args.out and report.get("closed_form_rows"):
            stem, ext = os.path.splitext(args.out)
            _atomic_write(stem + "_branches" + ext, _branches_csv(report))
    except FlowError as exc:
        print(f"indexlab: flow error: {exc}", file=sys.stderr)
        return EXIT_FLOW
    except ChernError as exc:
        print(f"indexlab: chern error: {exc}", file=sys.stderr)
        return EXIT_CHERN
    except (IndexLabError, np.linalg.LinAlgError) as exc:
        print(f"indexlab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"indexlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if report.get("agreement") is False or report.get("chern", {}).get("agreement") is False:
        print("indexlab: chern methods disagree", file=sys.stderr)
        return EXIT_CHERN
    if report.get("verdict") == "FAIL":
        print(f"indexlab: FAIL: spectral flow {report['flow']['N']} != "
              f"Chern index {report['chern']['C']}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
