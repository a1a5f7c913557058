"""Command-line front end: analyze Z4-codes, compute frame reports, run
automorphism searches, list the built-in catalog.

Inputs are catalog ids or paths to matrix text files. Long searches report
progress on stderr; results go to stdout, as text or JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import autsearch, catalog, frames, gf2, permgrp, z4
from .errors import BudgetExceeded, FramestabError, ParseError
from .matrixio import parse_z4_matrix


def _progress(label):
    def report(nodes):
        print(f"{label}: {nodes} nodes explored", file=sys.stderr, flush=True)

    return report


def _budget_error(err: BudgetExceeded) -> click.ClickException:
    """A budget stop, with the order of the group that the generators found
    so far generate as a lower bound."""
    gens = err.partial
    partial = permgrp.PermGroup(len(gens[0]), gens).order() if gens else 1
    if err.kernel_order is None:
        found = f"partial group order {partial}"
    else:
        found = (f"sign kernel {err.kernel_order} times partial image order {partial} "
                 f"= {err.kernel_order * partial}")
    return click.ClickException(f"search budget exceeded; {found} is a lower bound only")


def _read_matrix(ref: str, parse):
    """(file name, parse(text)) for the matrix file at ref, or None when no
    such path exists and ref is taken as a catalog id."""
    path = Path(ref)
    if not path.exists():
        return None
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise click.ClickException(f"cannot read {ref}: {err}") from err
    try:
        return path.name, parse(text)
    except ParseError as err:
        raise click.ClickException(f"{ref}: {err}") from err


def _catalog_entry(ref: str) -> catalog.CatalogEntry:
    try:
        return catalog.get(ref)
    except KeyError as err:
        # str() of a KeyError quotes its message
        raise click.ClickException(err.args[0]) from err


def _parse_any(text: str):
    """A binary code, or a Z4-code when a matrix row holds a 2 or a 3; the
    digits of comments do not count."""
    _, rows = parse_z4_matrix(text)
    if any(d > 1 for row in rows for d in row):
        return z4.from_text(text)
    return gf2.from_text(text)


def _load_z4(ref: str) -> tuple[str, z4.Z4Code]:
    loaded = _read_matrix(ref, z4.from_text)
    if loaded is not None:
        return loaded
    entry = _catalog_entry(ref)
    if entry.kind != "z4":
        raise click.ClickException(f"catalog entry {ref} is binary, expected a Z4 matrix")
    return entry.id, entry.code()


def _load_any(ref: str, force_binary: bool):
    loaded = _read_matrix(ref, gf2.from_text if force_binary else _parse_any)
    if loaded is not None:
        return loaded
    entry = _catalog_entry(ref)
    code = entry.code()
    if force_binary and isinstance(code, z4.Z4Code):
        raise click.ClickException(f"catalog entry {ref} is a Z4 code")
    return entry.id, code


class _Main(click.Group):
    """The one error boundary: a library error reaches the user as one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BudgetExceeded as err:
            raise _budget_error(err) from err
        except FramestabError as err:
            raise click.ClickException(str(err)) from err


_aut_budget = click.option("--aut-budget", type=click.IntRange(min=1), help="search node budget",
                           envvar="FRAMESTAB_AUT_BUDGET", show_envvar=True)


@click.group(cls=_Main)
def main():
    """Structure codes and Virasoro frame stabilizers from Z4-codes."""


@main.command()
@click.option("--input", "ref", required=True, help="catalog id or matrix file")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def analyze(ref, as_json):
    """Basic invariants of a Z4-code: size, shape, residue/torsion, flags."""
    name, code = _load_z4(ref)
    c0, c1 = z4.torsion(code), z4.residue(code)
    self_orth = z4.is_self_orthogonal(code)
    self_dual = z4.is_self_dual(code)
    type_ii = z4.is_type_ii(code)
    # the zero code has no nonzero word, hence no minimum weight
    min_w = z4.min_euclidean_weight(code) if code.size() > 1 else None
    info = {
        "id": name,
        "length": code.length,
        "size": str(code.size()),
        "shape": z4.group_shape(code),
        "c0": {"dim": c0.dim, "min_weight": gf2.min_weight(c0) if c0.dim else None},
        "c1": {"dim": c1.dim, "min_weight": gf2.min_weight(c1) if c1.dim else None},
        "self_orthogonal": self_orth,
        "self_dual": self_dual,
        "type_ii": type_ii,
        "min_euclidean_weight": min_w,
        "extremal": z4.is_extremal(code),
    }
    if as_json:
        click.echo(json.dumps(info, indent=2))
        return
    click.echo(f"code {name}: length {info['length']}, |C| = {info['size']}, shape {info['shape']}")
    click.echo(
        f"C0: [{code.length},{c0.dim}] min weight {info['c0']['min_weight']}; "
        f"C1: [{code.length},{c1.dim}] min weight {info['c1']['min_weight']}"
    )
    click.echo(
        f"self-orthogonal: {self_orth}; self-dual: {self_dual}; "
        f"type II: {type_ii}; min Euclidean weight: {min_w}; extremal: {info['extremal']}"
    )


@main.command()
@click.option("--input", "ref", required=True, help="catalog id or matrix file")
@click.option("--variant", type=click.Choice(["lattice", "orbifold"]), required=True)
@_aut_budget
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def frame(ref, variant, aut_budget, as_json):
    """Full frame-stabilizer report for one code and frame variant."""
    name, code = _load_z4(ref)
    report = frames.frame_report(
        code,
        variant,
        code_id=name,
        budget=aut_budget,
        progress=_progress(f"frame {name}"),
    )
    if as_json:
        click.echo(json.dumps(report.to_json(), indent=2))
        return
    click.echo(f"frame report for {name} ({variant} variant), r = {report.r}")
    click.echo(
        f"dims: C {report.dim_c}, D {report.dim_d}, P {report.dim_p}; "
        f"holomorphic: {report.holomorphic}"
    )
    a, b = report.pointwise
    click.echo(f"pointwise stabilizer: 2^({a}+{b}) = {1 << (a + b)}")
    click.echo(
        f"|Aut(code)| = {report.aut_z4_total}, image in Sym_n = {report.aut_z4_bar}, "
        f"|Aut(C0)| = {report.aut_c0}"
    )
    extra = "" if report.h_count_by_index is None else (
        f" (index formula agrees: {report.h_count_by_index})"
    )
    click.echo(f"|H| = {report.h_count}{extra}")
    click.echo(f"|K| = {report.k_order}; |Aut(C):K| = {report.index_aut_c_k}")
    click.echo(f"stabilizer order = {report.stab_order} = {report.stab_factored}")


@main.command()
@click.option("--input", "ref", required=True, help="catalog id or matrix file")
@click.option("--binary", is_flag=True, help="treat the input as a binary code")
@_aut_budget
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def aut(ref, binary, aut_budget, as_json):
    """Automorphism group (binary code in Sym_n, or Z4-code as kernel/image)."""
    name, code = _load_any(ref, binary)
    if isinstance(code, z4.Z4Code):
        kernel, group = autsearch.aut_z4(
            code, budget=aut_budget, progress=_progress(f"aut {name}")
        )
        total = kernel * group.order()
        payload = {
            "id": name,
            "kind": "z4",
            "kernel_order": str(kernel),
            "image_order": str(group.order()),
            "total_order": str(total),
            "image_generators": [permgrp.images_1indexed(g) for g in group.generators],
        }
        text = (
            f"|Aut({name})| = {total} "
            f"(sign kernel {kernel}, image in Sym_{code.length} of order {group.order()})"
        )
    else:
        group = autsearch.aut_binary(
            code, budget=aut_budget, progress=_progress(f"aut {name}")
        )
        payload = {
            "id": name,
            "kind": "binary",
            "order": str(group.order()),
            "generators": [permgrp.images_1indexed(g) for g in group.generators],
        }
        text = f"|Aut({name})| = {group.order()}"
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(text)
    for g in group.generators:
        click.echo(f"  {permgrp.cycle_string(g)}")


@main.group("catalog")
def catalog_cmd():
    """Built-in generator matrices."""


@catalog_cmd.command("list")
def catalog_list():
    """List the catalog ids. The even-weight codes bin-even-N, for any
    N >= 2, are not listed."""
    for entry_id in catalog.list_ids():
        click.echo(entry_id)


@catalog_cmd.command("show")
@click.argument("entry_id")
def catalog_show(entry_id):
    entry = _catalog_entry(entry_id)
    click.echo(f"# {entry.id} ({entry.kind}): {entry.provenance}")
    for line in entry.matrix.strip().splitlines():
        click.echo(line.strip())


if __name__ == "__main__":
    main()
