"""Instance documents: JSON schema validation, model/space construction, and
builders for the two bundled problem families."""
from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema
import numpy as np

from .errors import ValidationError
from .model import RecourseModel
from .spaces import (DEFAULT_POOL_SIZE, DiscreteSpace, GaussianTechnologySpace,
                     UncertaintySpace, UniformRhsSpace)


def _data_text(name: str) -> str:
    return resources.files("adaptpart.data").joinpath(name).read_text(encoding="utf-8")


def instance_schema() -> dict:
    return json.loads(_data_text("instance.schema.json"))


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(instance_schema())


def validate_document(doc: dict) -> None:
    """Schema-validate an instance document; raise ValidationError with a
    field path on the first violation."""
    errors = sorted(_validator().iter_errors(_schema_stand_in(doc)),
                    key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ValidationError(f"instance field {path}: {err.message}")
    _validate_dimensions(doc)


_NUMBER_TYPES = frozenset((int, float))
_SCENARIO_KEYS = frozenset(("weight", "h", "T"))


def _plain_vector(values) -> bool:
    return type(values) is list and _NUMBER_TYPES.issuperset(map(type, values))


def _plain_scenario(sc) -> bool:
    """A conservative check that the schema accepts one discrete scenario:
    plain dicts, lists and int/float numbers only, weight >= 0."""
    if type(sc) is not dict or not {"weight", "h"} <= sc.keys() <= _SCENARIO_KEYS:
        return False
    w = sc["weight"]
    return (type(w) in _NUMBER_TYPES and w >= 0 and _plain_vector(sc["h"])
            and ("T" not in sc or type(sc["T"]) is list and all(map(_plain_vector, sc["T"]))))


def _schema_stand_in(doc):
    """The document with its discrete scenario list cut to the first item
    when the conservative check passes every item, else `doc` itself.

    The schema checks each scenario alone, so when every item is valid the
    cut list yields the same errors (and the same best match) as the full
    one; anything the check is unsure of goes to the schema whole.
    """
    unc = doc.get("uncertainty") if type(doc) is dict else None
    params = unc.get("parameters") if type(unc) is dict and unc.get("kind") == "discrete" else None
    scenarios = params.get("scenarios") if type(params) is dict else None
    if type(scenarios) is not list or len(scenarios) < 2 \
            or not all(map(_plain_scenario, scenarios)):
        return doc
    return {**doc, "uncertainty": {**unc, "parameters": {**params, "scenarios": scenarios[:1]}}}


def _validate_dimensions(doc: dict) -> None:
    fs = doc["first_stage"]
    rc = doc["recourse"]
    n1 = len(fs["c"])
    for i, row in enumerate(fs["A"]):
        if len(row) != n1:
            raise ValidationError(f"instance field first_stage.A.{i}: expected {n1} entries")
    if len(fs["b"]) != len(fs["A"]) or len(fs["senses"]) != len(fs["A"]):
        raise ValidationError("instance field first_stage: A, b, senses row counts disagree")
    for key in ("lb", "ub"):
        if key in fs and len(fs[key]) != n1:
            raise ValidationError(f"instance field first_stage.{key}: expected {n1} entries")
    n2 = len(rc["q"])
    m = len(rc["W"])
    for i, row in enumerate(rc["W"]):
        if len(row) != n2:
            raise ValidationError(f"instance field recourse.W.{i}: expected {n2} entries")
    if len(rc["senses"]) != m:
        raise ValidationError("instance field recourse.senses: row count disagrees with W")
    unc = doc["uncertainty"]
    kind = unc["kind"]
    p = unc["parameters"]
    if kind == "discrete":
        for s, sc in enumerate(p["scenarios"]):
            if len(sc["h"]) != m:
                raise ValidationError(f"instance field uncertainty.parameters.scenarios.{s}.h: "
                                      f"expected {m} entries")
            if "T" in sc and (len(sc["T"]) != m or any(len(r) != n1 for r in sc["T"])):
                raise ValidationError(f"instance field uncertainty.parameters.scenarios.{s}.T: "
                                      f"expected {m}x{n1}")
        if "T_base" in p and (len(p["T_base"]) != m or any(len(r) != n1 for r in p["T_base"])):
            raise ValidationError(f"instance field uncertainty.parameters.T_base: expected {m}x{n1}")
    elif kind == "uniform_rhs":
        if len(p["h_base"]) != m:
            raise ValidationError(f"instance field uncertainty.parameters.h_base: expected {m} entries")
        if len(p["T"]) != m or any(len(r) != n1 for r in p["T"]):
            raise ValidationError(f"instance field uncertainty.parameters.T: expected {m}x{n1}")
        if not p["row"] < m:
            raise ValidationError("instance field uncertainty.parameters.row: out of range")
        if not p["lo"] < p["hi"]:
            raise ValidationError("instance field uncertainty.parameters: lo must be < hi")
    else:
        d = len(p["mu"])
        if len(p["sigma"]) != d or any(len(r) != d for r in p["sigma"]):
            raise ValidationError(f"instance field uncertainty.parameters.sigma: expected {d}x{d}")
        if len(p["h_base"]) != m:
            raise ValidationError(f"instance field uncertainty.parameters.h_base: expected {m} entries")
        if len(p["T_base"]) != m or any(len(r) != n1 for r in p["T_base"]):
            raise ValidationError(f"instance field uncertainty.parameters.T_base: expected {m}x{n1}")
        seen = set()
        for t, e in enumerate(p["entries"]):
            if not (e["row"] < m and e["col"] < n1 and e["component"] < d):
                raise ValidationError(f"instance field uncertainty.parameters.entries.{t}: out of range")
            if (e["row"], e["col"]) in seen:
                raise ValidationError(f"instance field uncertainty.parameters.entries.{t}: two "
                                      f"technology entries set T[{e['row']}, {e['col']}]")
            seen.add((e["row"], e["col"]))
        if "cvar" in p and not p["cvar"]["tau_col"] < n1:
            raise ValidationError("instance field uncertainty.parameters.cvar.tau_col: out of range")


def _bounds_from(doc_fs: dict, n1: int):
    lb = doc_fs.get("lb")
    ub = doc_fs.get("ub")
    lower = np.zeros(n1) if lb is None else np.array(
        [-np.inf if v is None else float(v) for v in lb])
    upper = np.full(n1, np.inf) if ub is None else np.array(
        [np.inf if v is None else float(v) for v in ub])
    return lower, upper


def document_to_model(doc: dict) -> RecourseModel:
    """Build the fixed-recourse program from the document's first_stage and
    recourse blocks (validating the whole document and that the first-stage
    polyhedron is nonempty)."""
    validate_document(doc)
    fs, rc = doc["first_stage"], doc["recourse"]
    lower, upper = _bounds_from(fs, len(fs["c"]))
    model = RecourseModel(
        c=np.array(fs["c"], dtype=float), A=np.array(fs["A"], dtype=float),
        b=np.array(fs["b"], dtype=float), senses=tuple(fs["senses"]),
        W=np.array(rc["W"], dtype=float), q=np.array(rc["q"], dtype=float),
        recourse_senses=tuple(rc["senses"]), x_lower=lower, x_upper=upper)
    model.assert_first_stage_feasible()
    return model


def document_to_space(doc: dict, model: RecourseModel, seed: int | None = None,
                      pool_size: int | None = None) -> UncertaintySpace:
    """Build the uncertainty space from the document's uncertainty block;
    seed/pool_size override a Gaussian document's sample pool (no other kind
    has one, so it refuses them).  A Gaussian block's optional `cvar` entry
    must declare the model's own recourse (_check_tail_loss)."""
    unc = doc["uncertainty"]
    p = unc["parameters"]
    kind = unc["kind"]
    for name, value in (("seed (--seed)", seed), ("pool_size (--mc-pool)", pool_size)):
        if value is not None and kind != "gaussian_technology":
            raise ValidationError(f"the {name} override sets the sample pool of "
                                  f"gaussian_technology uncertainty; this document's is {kind}")
    if kind == "discrete":
        scenarios = p["scenarios"]
        t_base = p.get("T_base", np.zeros((model.m, model.n_first)))
        return DiscreteSpace(model, [s["weight"] for s in scenarios],
                             [s["h"] for s in scenarios],
                             [s.get("T", t_base) for s in scenarios])
    if kind == "uniform_rhs":
        return UniformRhsSpace(model, p["h_base"], p["T"], int(p["row"]),
                               float(p["lo"]), float(p["hi"]))
    # an override reaches the space as given, so a bool or a float is refused there
    if seed is None:
        if "seed" not in p:
            raise ValidationError("gaussian uncertainty needs a seed (document or --seed)")
        seed = int(p["seed"])
    pool_size = int(p.get("pool_size", DEFAULT_POOL_SIZE)) if pool_size is None else pool_size
    if "cvar" in p:
        _check_tail_loss(model.W, model.q, model.recourse_senses, float(p["cvar"]["delta"]))
    # each entry T[row, col] = scale * xi[component] replaces its base value
    T0 = np.array(p["T_base"], dtype=float)
    Tk = np.zeros(T0.shape + (len(p["mu"]),))
    for e in p["entries"]:
        row, col = int(e["row"]), int(e["col"])
        T0[row, col] = 0.0
        Tk[row, col, int(e["component"])] = float(e.get("scale", 1.0))
    return GaussianTechnologySpace(model, p["h_base"], T0, Tk, p["mu"], p["sigma"],
                                   seed, pool_size)


def _check_tail_loss(W, q, senses, delta: float) -> None:
    """Reject a document's cvar block on any recourse but the tail loss
    z >= h - T x priced at 1/delta that it declares; the schema keeps delta
    in (0, 1)."""
    if senses != (">=",):
        raise ValidationError(f"cvar marker needs recourse.senses = ['>='], got {list(senses)}")
    if W.shape != (1, 1) or W[0, 0] != 1.0:
        raise ValidationError(f"cvar marker needs recourse.W = [[1]], got {W.tolist()}")
    if abs(q[0] * delta - 1.0) > 1e-12:
        raise ValidationError(f"cvar marker needs recourse.q = [1/delta] = [{1.0 / delta!r}], "
                              f"got {q.tolist()}")


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def write_document(doc: dict, path) -> None:
    """Write `doc` as JSON, once it builds the model and space that `run` would."""
    document_to_space(doc, document_to_model(doc))
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"instance document has a non-finite number: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ------------------------------------------------------- bundled: energy plan

def lands_data() -> dict:
    return json.loads(_data_text("lands.json"))


def lands_document(d1_lo: float = 3.0, d1_hi: float = 7.0,
                   d1_fixed: float | None = None) -> dict:
    """Capacity-expansion instance: choose plant capacities, then dispatch
    them across demand modes; the first mode's demand is uniform on
    [d1_lo, d1_hi] (or fixed, giving a deterministic single-scenario model)."""
    data = lands_data()
    invest = data["investment_cost"]
    f = data["operating_cost"]
    n_plants = len(invest)
    n_modes = len(f[0])
    demand = list(data["demand"])
    mode = int(data["random_demand_mode"])

    W = np.zeros((n_plants + n_modes, n_plants * n_modes))
    T = np.zeros((n_plants + n_modes, n_plants))
    h = np.zeros(n_plants + n_modes)
    q = np.zeros(n_plants * n_modes)
    senses = ["<="] * n_plants + [">="] * n_modes
    for i in range(n_plants):
        for j in range(n_modes):
            col = i * n_modes + j
            W[i, col] = 1.0            # plant i ships at most its capacity
            W[n_plants + j, col] = 1.0  # mode j demand must be covered
            q[col] = f[i][j]
        T[i, i] = -1.0
    for j in range(n_modes):
        h[n_plants + j] = demand[j]

    doc = {
        "metadata": {"name": data["name"],
                     "description": "capacity expansion with uncertain first-mode demand"},
        "first_stage": {
            "c": [float(v) for v in invest],
            "A": [[1.0] * n_plants, [float(v) for v in invest]],
            "b": [float(data["min_total_capacity"]), float(data["budget"])],
            "senses": [">=", "<="],
        },
        "recourse": {"W": W.tolist(), "q": q.tolist(), "senses": senses},
    }
    row = n_plants + mode
    if d1_fixed is not None:
        h_fixed = h.copy()
        h_fixed[row] = float(d1_fixed)
        doc["uncertainty"] = {
            "kind": "discrete",
            "parameters": {"T_base": T.tolist(),
                           "scenarios": [{"weight": 1.0, "h": h_fixed.tolist(),
                                          "T": T.tolist()}]},
        }
    else:
        if not d1_lo < d1_hi:
            raise ValidationError("demand interval needs lo < hi")
        doc["uncertainty"] = {
            "kind": "uniform_rhs",
            "parameters": {"row": row, "lo": float(d1_lo), "hi": float(d1_hi),
                           "h_base": h.tolist(), "T": T.tolist()},
        }
    return doc


# -------------------------------------------------- bundled: tail-risk folio

DEFAULT_CVAR_MU = (0.05, 0.07)
DEFAULT_CVAR_SIGMA = ((0.14, 0.053), (0.053, 0.23))
DEFAULT_CVAR_DELTA = 0.1
DEFAULT_CVAR_SEED = 20240501


def cvar_document(mu=DEFAULT_CVAR_MU, sigma=DEFAULT_CVAR_SIGMA,
                  delta: float = DEFAULT_CVAR_DELTA,
                  seed: int = DEFAULT_CVAR_SEED,
                  pool_size: int = DEFAULT_POOL_SIZE) -> dict:
    """Minimum-tail-loss portfolio: weights x on the simplex plus a free
    threshold variable; one recourse variable pays (1/delta) per unit of loss
    beyond the threshold; returns are jointly normal."""
    mu = [float(v) for v in mu]
    sigma = [[float(v) for v in row] for row in sigma]
    d = len(mu)
    if not 0.0 < delta < 1.0:
        raise ValidationError("tail probability must lie strictly in (0, 1)")
    # first stage: (x_1..x_d, tau); objective tau + E[Q]
    c = [0.0] * d + [1.0]
    A = [[1.0] * d + [0.0]]
    # recourse: z >= -x.r - tau  encoded as  1*z >= h - T(x, tau)
    # with h = 0,  T[0, j] = r_j (random),  T[0, d] = 1.
    T_base = [[0.0] * d + [1.0]]
    return {
        "metadata": {"name": "tail-risk-portfolio",
                     "description": f"normal returns, tail probability {delta}"},
        "first_stage": {"c": c, "A": A, "b": [1.0], "senses": ["="],
                        "lb": [0.0] * d + [None], "ub": [None] * d + [None]},
        "recourse": {"W": [[1.0]], "q": [1.0 / delta], "senses": [">="]},
        "uncertainty": {
            "kind": "gaussian_technology",
            "parameters": {
                "mu": mu, "sigma": sigma,
                "h_base": [0.0], "T_base": T_base,
                "seed": int(seed), "pool_size": int(pool_size),
                "entries": [{"row": 0, "col": j, "component": j, "scale": 1.0}
                            for j in range(d)],
                "cvar": {"delta": float(delta), "tau_col": d},
            },
        },
    }
