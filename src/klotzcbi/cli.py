"""Command-line front end.

Scenarios are single JSON documents (assessments need six to nine coupled
parameters; a flag per parameter is unusable).  Unknown fields are
rejected with the offending path named, so typos fail loudly instead of
silently running a different study.

Exit codes are stable: 0 ok, 2 parse error, 3 validation error,
4 unsupported regime, 5 no bound.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .analysis import (
    FitError,
    Method,
    NoBoundError,
    SweepAxis,
    SweepSpec,
    confidence_bound,
    curve,
    method_confidence,
)
from .klotz import (
    DomainError,
    KlotzPoint,
    ObservationSummary,
    Outcome,
    ValidationError,
)
from .oracle import GridSpec, infimum
from .priors import IndependenceBelief, PriorKnowledge
from .simulate import GENERATOR_NAME, CampaignTrace, simulate, summarize
from .worstcase import UnsupportedRegimeError, conservative_confidence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4
EXIT_NO_BOUND = 5


class ScenarioError(ValueError):
    """Malformed scenario document; carries the failing path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, float):
        return float(format(obj, ".17g"))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _require_keys(obj: dict, path: str, allowed: dict[str, bool]) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(path, f"expected an object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}", "unknown field")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ScenarioError(f"{path}.{key}", "missing required field")


def _number(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(path, f"expected a finite number, got {value!r}")
    return value


def _as_number(obj: dict, path: str, key: str, default=None):
    if key not in obj:
        return default
    return _number(obj[key], f"{path}.{key}")


def _integer(value, path: str) -> int:
    value = _number(value, path)
    if value != int(value):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_int(obj: dict, path: str, key: str, default=None):
    if key not in obj:
        return default
    return _integer(obj[key], f"{path}.{key}")


class Scenario:
    def __init__(self, doc: dict, source: str = "<scenario>") -> None:
        if not isinstance(doc, dict):
            raise ScenarioError("$", "scenario document must be a JSON object")
        _require_keys(
            doc,
            "$",
            {
                "metadata": False,
                "pk": True,
                "observation": True,
                "claim": True,
                "sweep": False,
                "oracle": False,
            },
        )
        self.source = source
        meta = doc.get("metadata", {})
        _require_keys(meta, "metadata", {"id": False, "description": False})
        self.scenario_id = str(meta.get("id", "unnamed"))
        self.description = str(meta.get("description", ""))

        pk_doc = doc["pk"]
        _require_keys(
            pk_doc,
            "pk",
            {
                "p_l": False,
                "epsilon": False,
                "theta": True,
                "phi1": False,
                "phi2": False,
                "independence_belief": False,
            },
        )
        belief_raw = pk_doc.get("independence_belief", "none")
        try:
            belief = IndependenceBelief(belief_raw)
        except ValueError:
            raise ScenarioError(
                "pk.independence_belief",
                f"expected one of none/strong/weak, got {belief_raw!r}",
            ) from None
        try:
            self.pk = PriorKnowledge(
                p_l=float(_as_number(pk_doc, "pk", "p_l", 0.0)),
                epsilon=float(_as_number(pk_doc, "pk", "epsilon", 0.0)),
                theta=float(_as_number(pk_doc, "pk", "theta")),
                phi1=float(_as_number(pk_doc, "pk", "phi1", 0.0)),
                phi2=float(_as_number(pk_doc, "pk", "phi2", 0.0)),
                independence_belief=belief,
            )
        except ValidationError as exc:
            raise ScenarioError("pk", str(exc)) from None

        obs_doc = doc["observation"]
        _require_keys(
            obs_doc, "observation", {"n": True, "s": False, "r": False, "first": False, "last": False}
        )
        first = obs_doc.get("first")
        last = obs_doc.get("last")
        for key, value in (("first", first), ("last", last)):
            if value is not None and value not in (Outcome.SUCCESS.value, Outcome.FAILURE.value):
                raise ScenarioError(f"observation.{key}", f"expected success/failure, got {value!r}")
        try:
            self.obs = ObservationSummary.from_counts(
                n=_as_int(obs_doc, "observation", "n"),
                s=_as_int(obs_doc, "observation", "s", 0),
                r=_as_int(obs_doc, "observation", "r", 0),
                first=Outcome(first) if first else None,
                last=Outcome(last) if last else None,
            )
        except ValidationError as exc:
            raise ScenarioError("observation", str(exc)) from None

        claim = doc["claim"]
        _require_keys(claim, "claim", {"b": True, "target_confidence": False, "method": False})
        self.b = float(_as_number(claim, "claim", "b"))
        self.target_confidence = _as_number(claim, "claim", "target_confidence", None)
        method_raw = claim.get("method", Method.KLOTZ_CBI.value)
        try:
            self.method = Method(method_raw)
        except ValueError:
            raise ScenarioError("claim.method", f"unknown method {method_raw!r}") from None

        self.sweep_doc = doc.get("sweep")
        if self.sweep_doc is not None:
            _require_keys(
                self.sweep_doc,
                "sweep",
                {"axis": True, "values": True, "methods": True, "beta_alpha": False},
            )

        oracle_doc = doc.get("oracle", {})
        _require_keys(oracle_doc, "oracle", {"resolution": False, "refine_rounds": False})
        try:
            self.grid = GridSpec(
                resolution=_as_int(oracle_doc, "oracle", "resolution", 201),
                refine_rounds=_as_int(oracle_doc, "oracle", "refine_rounds", 2),
            )
        except ValidationError as exc:
            raise ScenarioError("oracle", str(exc)) from None

    def sweep_spec(self) -> SweepSpec:
        if self.sweep_doc is None:
            raise ScenarioError("sweep", "scenario has no sweep block")
        doc = self.sweep_doc
        try:
            axis = SweepAxis(doc["axis"])
        except ValueError:
            raise ScenarioError("sweep.axis", f"unknown axis {doc['axis']!r}") from None
        if not isinstance(doc["methods"], list):
            raise ScenarioError("sweep.methods", "expected a list")
        methods = []
        for i, name in enumerate(doc["methods"]):
            try:
                methods.append(Method(name))
            except ValueError:
                raise ScenarioError(f"sweep.methods[{i}]", f"unknown method {name!r}") from None
        values = doc["values"]
        if not isinstance(values, list):
            raise ScenarioError("sweep.values", "expected a list")
        for i, value in enumerate(values):
            _number(value, f"sweep.values[{i}]")
        try:
            return SweepSpec(
                pk=self.pk,
                obs=self.obs,
                b=self.b,
                axis=axis,
                values=tuple(values),
                methods=tuple(methods),
                beta_alpha=float(_as_number(doc, "sweep", "beta_alpha", 0.03)),
            )
        except ValidationError as exc:
            raise ScenarioError("sweep", str(exc)) from None


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError("$", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON in {path}: {exc}")
    return Scenario(doc, source=path)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prior_rows(prior) -> list[dict]:
    return [
        {
            "x": sp.point.x,
            "lambda": sp.point.lam,
            "mass": sp.mass,
            "x_side": sp.x_side.value,
            "lambda_side": sp.lambda_side.value,
        }
        for sp in prior.support
    ]


def _report_header(scenario: Scenario) -> dict:
    return {
        "scenario_id": scenario.scenario_id,
        "library_version": __version__,
        "observation": {
            "n": scenario.obs.n,
            "s": scenario.obs.s,
            "r": scenario.obs.r,
            "first": scenario.obs.first.value,
            "last": scenario.obs.last.value,
        },
    }


def cmd_assess(args) -> int:
    scenario = load_scenario(args.scenario)
    result = conservative_confidence(scenario.pk, scenario.obs, scenario.b)
    payload = _report_header(scenario)
    payload.update(
        {
            "b": scenario.b,
            "confidence": result.confidence,
            "regime": result.regime,
            "worst_case_prior": _prior_rows(result.prior),
            "log_numerator": result.log_numerator,
            "log_denominator": result.log_denominator,
            "degenerate": result.degenerate,
        }
    )
    _emit(payload, args.out)
    return EXIT_OK


def _one_row(payload):
    spec, method, value = payload
    sub = SweepSpec(
        pk=spec.pk, obs=spec.obs, b=spec.b, axis=spec.axis,
        values=(value,), methods=(method,), beta_alpha=spec.beta_alpha,
    )
    return curve(sub)[0]


def _run_sweep(spec: SweepSpec, jobs: int):
    if jobs <= 1:
        return curve(spec)
    # rows are independent; order is preserved by executor.map
    import concurrent.futures

    tasks = [(spec, m, v) for m in spec.methods for v in spec.values]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_one_row, tasks))


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = _run_sweep(scenario.sweep_spec(), args.jobs)
    if args.format == "json":
        payload = _report_header(scenario)
        payload["rows"] = [
            {**asdict(row), "method": row.method.value, "axis": row.axis.value}
            for row in rows
        ]
        _emit(payload, args.out)
        return EXIT_OK
    header = "scenario_id,method,axis,value,n,s,r,b,confidence,regime,first,last"
    lines = [header]
    for row in rows:
        conf = "" if row.confidence is None else _fmt(row.confidence)
        regime = row.regime if row.error is None else f"error: {row.error}"
        lines.append(
            ",".join(
                [
                    scenario.scenario_id,
                    row.method.value,
                    row.axis.value,
                    _fmt(row.value),
                    str(row.n),
                    str(row.s),
                    str(row.r),
                    _fmt(row.b),
                    conf,
                    '"' + regime.replace('"', '""') + '"',
                    row.first,
                    row.last,
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bound(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.target_confidence is None:
        raise ScenarioError("claim.target_confidence", "missing required field")
    method = Method(args.method) if args.method else scenario.method
    b = confidence_bound(scenario.pk, scenario.obs, scenario.target_confidence, method)
    achieved, regime = method_confidence(method, scenario.pk, scenario.obs, b)
    payload = _report_header(scenario)
    payload.update(
        {
            "method": method.value,
            "target_confidence": scenario.target_confidence,
            "bound": b,
            "achieved_confidence": achieved,
            "regime": regime,
        }
    )
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    grid = scenario.grid
    if args.resolution or args.refine is not None:
        grid = GridSpec(
            resolution=args.resolution or grid.resolution,
            refine_rounds=grid.refine_rounds if args.refine is None else args.refine,
        )
    closed = conservative_confidence(scenario.pk, scenario.obs, scenario.b)
    closed_value = closed.confidence
    if args.corrupt_test_hook:
        closed_value = min(closed_value + 0.1, 1.0)
    oracle = infimum(scenario.pk, scenario.obs, scenario.b, grid)
    gap = closed_value - oracle.confidence
    ok = abs(gap) <= oracle.resolution_bound
    payload = _report_header(scenario)
    payload.update(
        {
            "b": scenario.b,
            "closed_form": closed_value,
            "closed_form_regime": closed.regime,
            "oracle": oracle.confidence,
            "oracle_prior": _prior_rows(oracle.prior),
            "gap": gap,
            "resolution_bound": oracle.resolution_bound,
            "within_bound": ok,
            "grid": {"resolution": grid.resolution, "refine_rounds": grid.refine_rounds},
            "oracle_cost": {
                "grid_sizes": oracle.grid_sizes,
                "likelihood_evals": oracle.likelihood_evals,
            },
        }
    )
    _emit(payload, args.out)
    return EXIT_OK if ok else 1


def _rle_encode(outcomes) -> str:
    parts = []
    run_char = None
    run_len = 0
    for o in outcomes:
        ch = "F" if o is Outcome.FAILURE else "S"
        if ch == run_char:
            run_len += 1
        else:
            if run_char is not None:
                parts.append(f"{run_char}{run_len}")
            run_char, run_len = ch, 1
    if run_char is not None:
        parts.append(f"{run_char}{run_len}")
    return "".join(parts)


def _rle_decode(text: str) -> list[Outcome]:
    out: list[Outcome] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "SF":
            raise ScenarioError("outcomes_rle", f"unexpected symbol {ch!r}")
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise ScenarioError("outcomes_rle", "run without a length")
        count = int(text[i + 1 : j])
        out.extend([Outcome.FAILURE if ch == "F" else Outcome.SUCCESS] * count)
        i = j
    return out


def cmd_simulate(args) -> int:
    point = KlotzPoint(args.x, getattr(args, "lambda"))
    trace = simulate(point, args.n, args.seed, allow_degenerate=args.allow_degenerate)
    payload = {
        "generator": GENERATOR_NAME,
        "seed": trace.seed,
        "ground_truth": {"x": point.x, "lambda": point.lam},
        "n": args.n,
        "library_version": __version__,
        "outcomes_rle": _rle_encode(trace.outcomes),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_summarize(args) -> int:
    try:
        with open(args.campaign, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError("$", f"cannot read {args.campaign}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON in {args.campaign}: {exc}")
    if not isinstance(doc, dict):
        raise ScenarioError("$", "campaign document must be a JSON object")
    for key in ("outcomes_rle", "ground_truth", "seed"):
        if key not in doc:
            raise ScenarioError(key, "missing required field")
    if not isinstance(doc["outcomes_rle"], str):
        raise ScenarioError("outcomes_rle", "expected a string")
    outcomes = _rle_decode(doc["outcomes_rle"])
    if not outcomes:
        raise ScenarioError("outcomes_rle", "empty campaign")
    gt = doc["ground_truth"]
    if not isinstance(gt, dict):
        raise ScenarioError("ground_truth", f"expected an object, got {gt!r}")
    for key in ("x", "lambda"):
        if key not in gt:
            raise ScenarioError(f"ground_truth.{key}", "missing required field")
    trace = CampaignTrace(
        tuple(outcomes),
        KlotzPoint(float(_number(gt["x"], "ground_truth.x")), float(_number(gt["lambda"], "ground_truth.lambda"))),
        _integer(doc["seed"], "seed"),
        generator=doc.get("generator", GENERATOR_NAME),
    )
    obs = summarize(trace)
    payload = {
        "observation": {
            "n": obs.n,
            "s": obs.s,
            "r": obs.r,
            "first": obs.first.value,
            "last": obs.last.value,
        }
    }
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klotzcbi",
        description="Conservative failure-rate confidence bounds for possibly correlated executions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="worst-case posterior confidence for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("sweep", help="confidence curves over a parameter axis")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1, help="parallel row evaluation")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", help="least failure-rate bound reaching the target confidence")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", choices=[m.value for m in Method])
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="cross-check the closed form against the grid oracle")
    p.add_argument("--scenario", required=True)
    p.add_argument("--resolution", type=int)
    p.add_argument("--refine", type=int)
    p.add_argument("--out")
    p.add_argument("--corrupt-test-hook", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="generate a seeded outcome campaign")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True, dest="lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--allow-degenerate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("summarize", help="condense a campaign file into an observation block")
    p.add_argument("--campaign", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        _emit({"error": {"kind": "parse", "path": exc.path, "message": str(exc)}}, None)
        return EXIT_PARSE
    except UnsupportedRegimeError as exc:
        _emit({"error": {"kind": "unsupported_regime", "message": str(exc)}}, None)
        return EXIT_UNSUPPORTED
    except NoBoundError as exc:
        _emit({"error": {"kind": "no_bound", "message": str(exc)}}, None)
        return EXIT_NO_BOUND
    except (ValidationError, DomainError, FitError) as exc:
        _emit({"error": {"kind": "validation", "message": str(exc)}}, None)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
