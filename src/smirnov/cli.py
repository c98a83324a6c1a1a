"""Command-line front end: enumeration, statistics, verification suites, tables."""

from __future__ import annotations

import json
import sys

import click

from . import paths, qengine, stats, verify, words


def _parse_mu(text: str) -> tuple:
    if text.strip() == "":
        return ()
    try:
        mu = tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        raise click.UsageError("malformed content %r; expected comma-separated integers" % text)
    if any(part < 0 for part in mu):
        raise click.UsageError("content parts must be nonnegative, got %r" % text)
    return mu


@click.group()
def main():
    """Segmented Smirnov words: enumeration, q-statistics, and verification."""


@main.command("enumerate")
@click.option("--mu", required=True, help="Content as comma-separated multiplicities, e.g. 2,1.")
@click.option("--k", type=click.IntRange(min=0), default=None,
              help="Exact ascent count filter.")
@click.option("--l", type=click.IntRange(min=0), default=None,
              help="Exact descent count filter.")
@click.option("--kind", type=click.Choice(["words", "paths"]), default="words",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def cmd_enumerate(mu, k, l, kind, fmt):
    """List the words (or area-0 paths) of a given content."""
    mu = _parse_mu(mu)
    if (k is None) != (l is None):
        raise click.UsageError("--k and --l must be given together")
    if kind == "words":
        stream = (words.enumerate_words(mu) if k is None
                  else words.enumerate_words_by_stat(mu, k, l))
        for w in stream:
            click.echo(json.dumps(w.to_json()) if fmt == "json" else (w.text() or "(empty)"))
    else:
        for D in paths.enumerate_area0(mu):
            if k is not None and (D.rise_count(), D.valley_count()) != (k, l):
                continue
            click.echo(json.dumps(D.to_json()) if fmt == "json" else D.text())


@main.command("stat")
@click.option("--word", "word_text", required=True, help='Word in bar notation, e.g. "231|3212|12".')
@click.option("--stat", "stat_name", type=click.Choice(["sminv", "sdinv"]), required=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def cmd_stat(word_text, stat_name, as_json):
    """Compute a statistic of one word, with its inversion pairs and case tags."""
    try:
        w = words.parse_word(word_text)
    except ValueError as exc:
        raise click.ClickException("cannot parse word: %s" % exc)
    report = stats.sminv(w) if stat_name == "sminv" else stats.sdinv(w)
    if as_json:
        click.echo(json.dumps(report.to_json()))
        return
    click.echo("%s(%s) = %d" % (stat_name, w.text(), report.count))
    for i, j, tags in report.pairs:
        click.echo("  (%d,%d) case %s" % (i, j, "+".join(tags)))


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(list(verify.SUITES) + ["all"]))
@click.option("--n-max", type=int, default=None, help="Override the suite's size bound.")
@click.option("--instances", type=int, default=200, show_default=True,
              help="Random instances per kind (insertion-lemmas only).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def cmd_verify(suite, n_max, instances, seed, as_json):
    """Run a verification suite; exit status 0 iff every case passes."""
    names = list(verify.SUITES) if suite == "all" else [suite]
    try:
        for name in names:
            verify.suite_bound(name, n_max, instances)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    reports = [verify.run_suite(name, n_max, instances, seed) for name in names]
    if as_json:
        click.echo(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            for c in r.cases:
                status = "pass" if c.ok else "FAIL"
                line = "[%s] %s" % (status, c.key)
                if c.witness:
                    line += " -- %s" % c.witness
                click.echo(line)
            click.echo("suite %s: %d passed, %d failed (%.2fs)"
                       % (r.suite, r.passed, r.failed, r.elapsed))
    if any(not r.ok for r in reports):
        sys.exit(1)


@main.command("table")
@click.option("--kind", type=click.Choice(["h-coeff", "hilbert"]), required=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
def cmd_table(kind, n, fmt):
    """Print the coefficient table (h-coeff) or the Hilbert-series table."""
    hilbert = None
    if kind == "hilbert":
        hilbert = qengine.hilbert_table(n)
        rows = [(n, k, l, "1^%d" % n, str(poly)) for (k, l), poly in hilbert.items()]
    else:
        rows = [(n, k, l, ",".join(map(str, mu)) or "-",
                 str(qengine.sf_h_coefficient(n, k, l, mu)))
                for mu in words.partitions_of(n) for k, l in qengine.cells(n)]
    if fmt == "csv":
        click.echo("n,k,l,mu,poly")
        for row in rows:
            click.echo('%d,%d,%d,"%s","%s"' % row)
    else:
        click.echo("%3s %3s %3s %-10s %s" % ("n", "k", "l", "mu", "poly"))
        for row in rows:
            click.echo("%3d %3d %3d %-10s %s" % row)
        if hilbert is not None:
            click.echo("trivariate: %s" % qengine.trivariate(hilbert))


if __name__ == "__main__":
    main()
