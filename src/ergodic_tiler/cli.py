"""Command-line interface.

Exit codes: 0 on success, 2 when a run misses its acceptance threshold or an
audit finds violations, 1 on errors.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import __version__
from .averages import VertexFunction
from .cuts import edge_price, vertex_price
from .errors import ErgodicTilerError, StallDiagnostic
from .flows import disbalance_report, read_flow_file, validate_flow
from .graph import RhoMeasure, read_graph_file
from .models import ModelSpec, generate_model
from .packing import (
    CentralFamily,
    ConnectedFamily,
    audit_packed,
    audit_saturated,
    packed_and_saturated,
)
from .partition import Prepartition
from .reports import emit_report
from .tiling import ratio_experiment, run_tiling
from .visibility import block_decomposition


def _parse_config(path):
    cfg = {}
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.ClickException(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


# the run's tolerance and stage count, for options and config keys alike
EPS = click.FloatRange(0, 1, min_open=True, max_open=True)
STAGES = click.IntRange(min=1)


def _cfg(cfg, key, default, cast):
    """The config value under key, through cast, or default when absent.

    cast is a builtin such as int or a click parameter type; a value it
    rejects is a usage error naming the key."""
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (ValueError, click.BadParameter) as exc:
        raise click.ClickException(f"config {key}: {exc}") from None


class _Ctx:
    def __init__(self, config, seed, out):
        self.config = config
        self.seed = seed
        self.out = out


@click.group()
@click.version_option(version=__version__)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="key=value config file")
@click.option("--seed", type=int, default=None, help="seed override (u64)")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output directory for reports and dumps")
@click.pass_context
def main(ctx, config_path, seed, out_dir):
    """Finite-model tiling experiments on weighted graphs."""
    cfg = _parse_config(config_path)
    if seed is None:
        seed = _cfg(cfg, "run.seed", 0, int)
    ctx.obj = _Ctx(cfg, seed, out_dir)


def _load_instance(graph_path):
    graph, cocycle, values = read_graph_file(graph_path)
    measure = RhoMeasure.from_cocycle(graph, cocycle)
    return graph, cocycle, measure, values


def _model_from_config(ctx):
    cfg = ctx.config
    return ModelSpec(
        kind=_cfg(cfg, "model.kind", "rotation", str),
        n=_cfg(cfg, "model.n", 4096, int),
        p=_cfg(cfg, "model.p", 0.5, float),
        q=_cfg(cfg, "model.q", 0.5, float),
        seed=ctx.seed,
        degree=_cfg(cfg, "model.degree", 4, int),
    )


def _finish_run(ctx_obj, state, report, eps):
    for row in report.rows:
        click.echo(
            f"stage {row.stage}: mass_within_eps={row.mass_within_eps:.6f} "
            f"max_tile={row.max_tile} mean_tile={row.mean_tile:.2f}"
        )
    click.echo(f"status: {state.status}")
    if ctx_obj.out:
        paths = emit_report(report, ctx_obj.out)
        for i, part in enumerate(state.prepartitions):
            dump = f"{ctx_obj.out}/prepartition_stage{i + 1}.txt"
            part.dump(dump)
            paths.append(dump)
        click.echo("wrote: " + ", ".join(paths))
    if report.final_mass < 1.0 - eps:
        sys.exit(2)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--eps", type=EPS, default=None, help="tolerance (default from config run.eps)")
@click.option("--max-stages", type=STAGES, default=None)
@click.pass_obj
def tile(obj, graph_path, eps, max_stages):
    """Run the tiling loop on a graph file (logw and f per vertex)."""
    graph, cocycle, measure, values = _load_instance(graph_path)
    eps = eps if eps is not None else _cfg(obj.config, "run.eps", 0.05, EPS)
    max_stages = max_stages if max_stages is not None else _cfg(obj.config, "run.max_stages", 12, STAGES)
    from .models import ModelBundle

    bundle = ModelBundle(
        spec=ModelSpec(kind="file", n=graph.vertex_count, seed=obj.seed),
        graph=graph,
        cocycle=cocycle,
        measure=measure,
        values=VertexFunction(values - measure.integrate(values)),
        frontier=np.empty(0, dtype=np.int64),
        raw_mean=measure.integrate(values),
    )
    state, report = run_tiling(bundle, eps, max_stages, raise_on_stall=False)
    _finish_run(obj, state, report, eps)


@main.command("flow-check")
@click.argument("graph_path", type=click.Path(exists=True))
@click.argument("flow_path", type=click.Path(exists=True))
@click.pass_obj
def flow_check(obj, graph_path, flow_path):
    """Validate a dumped flow (lines 'x y value') against a graph."""
    graph, cocycle, measure, _values = _load_instance(graph_path)
    flow = read_flow_file(flow_path)
    report = validate_flow(flow, graph, cocycle, mu=measure)
    click.echo(f"entries: {len(flow.entries)}")
    click.echo(f"sources: {report.sources.tolist()}")
    click.echo(f"sinks: {report.sinks.tolist()}")
    click.echo(f"net integral: {report.global_integral!r}")
    tags = disbalance_report(flow, graph, cocycle) if not report.violations else {}
    for comp, tag in sorted(tags.items()):
        click.echo(f"component {comp}: {tag}")
    if report.violations:
        for vert, kind, val in report.violations:
            click.echo(f"violation: vertex {vert} {kind}-flow {val!r} exceeds 1")
        sys.exit(2)


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--family", "family_kind", type=click.Choice(["connected", "central"]), default="connected")
@click.option("--lam", type=float, default=0.1, help="centrality window for --family central")
@click.option("--min-ratio", type=float, default=1.0, help="mass-ratio floor for --family central")
@click.option("--p", "pack_p", type=click.FloatRange(min=0, min_open=True), default=1.0, help="pack threshold")
@click.option("--saturated/--no-saturated", default=True, help="also saturate")
@click.option("--audit", "audit_path", type=click.Path(exists=True), default=None, help="audit a dumped prepartition instead of building one")
@click.pass_obj
def pack(obj, graph_path, family_kind, lam, min_ratio, pack_p, saturated, audit_path):
    """Build (or audit) a packed and saturated prepartition."""
    graph, cocycle, _measure, values = _load_instance(graph_path)
    if family_kind == "central":
        family = CentralFamily(values, lam, min_ratio)
    else:
        family = ConnectedFamily()
    if audit_path is not None:
        part = Prepartition.load(audit_path, graph.vertex_count)
        pack_cert = audit_packed(graph, cocycle, family, part, pack_p)
        sat_cert = audit_saturated(graph, cocycle, family, part)
        ok = True
        if pack_cert is not None:
            click.echo(f"pack violation: {pack_cert.vertices.tolist()}")
            ok = False
        if saturated and sat_cert is not None:
            click.echo(f"saturation violation: {sat_cert.vertices.tolist()}")
            ok = False
        click.echo("audit: " + ("clean" if ok else "violations found"))
        if not ok:
            sys.exit(2)
        return
    if saturated:
        part = packed_and_saturated(graph, cocycle, family, pack_p)
    else:
        from .packing import packed as packed_fn

        part = packed_fn(graph, cocycle, family, pack_p)
    click.echo(f"cells: {part.cell_count}, covered vertices: {len(part.domain())}/{graph.vertex_count}")
    if obj.out:
        import os

        os.makedirs(obj.out, exist_ok=True)
        dump = f"{obj.out}/prepartition.txt"
        part.dump(dump)
        click.echo(f"wrote: {dump}")
    else:
        for cell in part.cells:
            click.echo(" ".join(str(int(v)) for v in cell))


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--alpha", type=float, default=1.0)
@click.pass_obj
def blocks(obj, graph_path, alpha):
    """Print the block decomposition at one magnification as a nested listing."""
    graph, cocycle, _measure, _values = _load_instance(graph_path)
    for blk, depth in block_decomposition(graph, cocycle, alpha):
        indent = "  " * depth
        click.echo(f"{indent}[{' '.join(str(int(v)) for v in blk.vertices)}] dominus={blk.dominus}")


@main.command()
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["vertex", "edge"]), default="vertex")
@click.option("--k", "threshold", type=click.IntRange(min=1), required=True, help="component-size threshold")
@click.option("--method", type=click.Choice(["exact", "greedy", "local"]), default="exact")
@click.pass_obj
def price(obj, graph_path, mode, threshold, method):
    """Cheapest cut leaving only components of at most K vertices."""
    graph, cocycle, measure, _values = _load_instance(graph_path)
    if mode == "vertex":
        rep = vertex_price(graph, measure, threshold, method=method, cocycle=cocycle)
    else:
        rep = edge_price(graph, K=threshold, method=method)
    click.echo(f"mode: {rep.mode}")
    click.echo(f"method: {rep.method}")
    click.echo(f"K: {rep.K}")
    click.echo(f"price: {rep.price!r}")
    click.echo(f"cut: {list(rep.cut)}")
    click.echo(f"largest_component: {rep.largest_component}")
    click.echo(f"largest_ratio: {rep.largest_ratio!r}")
    click.echo(f"exact: {rep.exact}")


@main.command("ergodic-run")
@click.pass_obj
def ergodic_run(obj):
    """Tiling convergence experiment on a model from the config."""
    spec = _model_from_config(obj)
    eps = _cfg(obj.config, "run.eps", 0.05, EPS)
    max_stages = _cfg(obj.config, "run.max_stages", 12, STAGES)
    model = generate_model(spec)
    click.echo(f"model: {spec.kind} n={spec.n} p={spec.p} q={spec.q} seed={spec.seed}")
    state, report = run_tiling(model, eps, max_stages, raise_on_stall=False)
    _finish_run(obj, state, report, eps)


@main.command("ratio-run")
@click.option("--g-kind", type=click.Choice(["ones", "shifted"]), default="shifted",
              help="denominator observable: all ones, or 1.5 + the model observable")
@click.pass_obj
def ratio_run(obj, g_kind):
    """Two-function ratio experiment on a model from the config."""
    spec = _model_from_config(obj)
    eps = _cfg(obj.config, "run.eps", 0.05, EPS)
    max_stages = _cfg(obj.config, "run.max_stages", 12, STAGES)
    model = generate_model(spec)
    n = model.graph.vertex_count
    if g_kind == "ones":
        g = np.ones(n)
    else:
        g = 1.5 + model.values.values
        if np.any(g <= 0):
            g = 1.0 + np.abs(model.values.values)
    click.echo(f"model: {spec.kind} n={spec.n} ratio target vs g={g_kind}")
    state, report = ratio_experiment(model, g, eps, max_stages, raise_on_stall=False)
    _finish_run(obj, state, report, eps)


def entry():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except StallDiagnostic as exc:
        click.echo(f"stalled: {exc}", err=True)
        sys.exit(2)
    except ErgodicTilerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entry()
