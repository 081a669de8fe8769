#!/usr/bin/env python3
"""Plot `mia sweep` / `mia-bench sweep` / `mia-bench dse` reports.

Stdlib-only. Sweep reports (BENCH_sweep.json, a `points` list) become
the runtime-vs-size trajectory curves of the paper's Figure 3; DSE
reports (BENCH_dse.json, a `runs` list from `mia optimize` or
`mia-bench --bin dse`) become seed-vs-optimized makespan bars. The
format is auto-detected.

* by default, an ASCII chart straight to the terminal (log-log curves
  for sweeps, paired bars for DSE reports),
* with `--gnuplot DIR`, a gnuplot data file + script pair ready for
  `gnuplot <script>` -> an SVG,
* with `--csv`, the flat table of the matching `--csv` CLI output.

Examples:

    scripts/plot_sweep.py                      # chart BENCH_sweep.json
    scripts/plot_sweep.py BENCH_dse.json       # seed vs optimized bars
    scripts/plot_sweep.py results/sweep.json --gnuplot out/
    mia sweep --sizes 1000,8000 -o r.json && scripts/plot_sweep.py r.json
"""

import argparse
import json
import math
import os
import sys


def load_report(path):
    with open(path) as handle:
        return json.load(handle)


def series_of(report):
    """{(family, arbiter, algorithm): [(n, seconds)]}, completed points
    only, sorted by n."""
    series = {}
    for point in report["points"]:
        outcome = point["outcome"]
        if "Completed" not in outcome:
            continue
        key = (point["family"], point["arbiter"], point["algorithm"])
        series.setdefault(key, []).append((point["n"], outcome["Completed"]["seconds"]))
    for points in series.values():
        points.sort()
    return series


def label_of(key):
    return "/".join(key)


def render_ascii(series, width=72, height=20):
    """One shared log-log canvas, one marker letter per series."""
    points = [(n, s) for pts in series.values() for (n, s) in pts if s > 0]
    if not points:
        return "no completed points to plot\n"
    xs = [math.log10(n) for n, _ in points]
    ys = [math.log10(s) for _, s in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "abcdefghijklmnopqrstuvwxyz"
    legend = []
    for index, (key, pts) in enumerate(sorted(series.items())):
        marker = markers[index % len(markers)]
        legend.append(f"  {marker} = {label_of(key)}")
        for n, seconds in pts:
            if seconds <= 0:
                continue
            col = round((math.log10(n) - x_lo) / x_span * (width - 1))
            row = round((math.log10(seconds) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = [f"log10(seconds) vs log10(n)   [{10 ** y_lo:.2g}s .. {10 ** y_hi:.2g}s]"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width)
    lines.append(f"   n: {int(round(10 ** x_lo))} .. {int(round(10 ** x_hi))}")
    lines.extend(legend)
    return "\n".join(lines) + "\n"


def write_gnuplot(series, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, "sweep.dat")
    gp_path = os.path.join(out_dir, "sweep.gp")
    keys = sorted(series)
    with open(dat_path, "w") as dat:
        for key in keys:
            dat.write(f"# {label_of(key)}\n")
            for n, seconds in series[key]:
                dat.write(f"{n} {seconds}\n")
            dat.write("\n\n")  # gnuplot index separator
    plots = ", \\\n    ".join(
        f"'sweep.dat' index {i} with linespoints title '{label_of(key)}'"
        for i, key in enumerate(keys)
    )
    with open(gp_path, "w") as gp:
        gp.write(
            "set terminal svg size 900,600\n"
            "set output 'sweep.svg'\n"
            "set logscale xy\n"
            "set xlabel 'tasks (n)'\n"
            "set ylabel 'analysis runtime (s)'\n"
            "set key left top\n"
            f"plot {plots}\n"
        )
    return dat_path, gp_path


def write_csv(report, out):
    out.write("family,arbiter,n,algorithm,status,seconds,makespan,error\n")
    for p in report["points"]:
        outcome = p["outcome"]
        if "Completed" in outcome:
            c = outcome["Completed"]
            row = ["completed", f"{c['seconds']:.6f}", str(c["makespan"]), ""]
        elif "TimedOut" in outcome:
            row = ["timeout", f"{outcome['TimedOut']['budget']:.6f}", "", ""]
        else:
            error = outcome["Failed"]["error"].replace(",", ";").replace("\n", " ")
            row = ["failed", "", "", error]
        family = p["family"].replace(",", ";")
        out.write(
            f"{family},{p['arbiter']},{p['n']},{p['algorithm']},"
            + ",".join(row)
            + "\n"
        )


def dse_label(run):
    return f"{run['workload']}/{run['arbiter']}/n={run['n']}"


def render_dse_ascii(report, width=44):
    """Paired seed/optimized bars per run, annotated with the
    improvement and the memo-cache hit rate."""
    runs = report["runs"]
    if not runs:
        return "no runs to plot\n"
    peak = max(r["seed_makespan"] for r in runs) or 1
    label_width = max(len(dse_label(r)) for r in runs)
    lines = [
        f"analyzed makespan: seed (s) vs optimized (o), budget "
        f"{report.get('budget_evals', '?')} evals, strategy "
        f"{report.get('strategy', '?')}"
    ]
    for run in runs:
        bar = lambda v: "#" * max(1, round(v / peak * width))  # noqa: E731
        gain = run["improvement_pct"]
        hits = run["cache_hit_rate"] * 100
        lines.append(
            f"{dse_label(run):>{label_width}} s {bar(run['seed_makespan']):<{width}} "
            f"{run['seed_makespan']}"
        )
        lines.append(
            f"{'':>{label_width}} o {bar(run['optimized_makespan']):<{width}} "
            f"{run['optimized_makespan']} (-{gain:.2f}%, cache hits {hits:.0f}%)"
        )
    return "\n".join(lines) + "\n"


def write_dse_gnuplot(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, "dse.dat")
    gp_path = os.path.join(out_dir, "dse.gp")
    with open(dat_path, "w") as dat:
        dat.write("# label seed optimized\n")
        for run in report["runs"]:
            label = dse_label(run).replace(" ", "_")
            dat.write(
                f"{label} {run['seed_makespan']} {run['optimized_makespan']}\n"
            )
    with open(gp_path, "w") as gp:
        gp.write(
            "set terminal svg size 900,600\n"
            "set output 'dse.svg'\n"
            "set style data histogram\n"
            "set style histogram cluster gap 1\n"
            "set style fill solid 0.8\n"
            "set xtics rotate by -35\n"
            "set ylabel 'analyzed makespan (cycles)'\n"
            "plot 'dse.dat' using 2:xtic(1) title 'seed', \\\n"
            "     '' using 3 title 'optimized'\n"
        )
    return dat_path, gp_path


def write_dse_csv(report, out):
    out.write(
        "workload,arbiter,strategy,n,chains,seed_makespan,optimized_makespan,"
        "improvement_pct,evaluations,cache_hits,feasible_hits,infeasible_hits,"
        "delta_resumes,front_size,hypervolume,cache_hit_rate,seconds\n"
    )
    for r in report["runs"]:
        workload = r["workload"].replace(",", ";")
        out.write(
            f"{workload},{r['arbiter']},{r['strategy']},{r['n']},{r['chains']},"
            f"{r['seed_makespan']},{r['optimized_makespan']},"
            f"{r['improvement_pct']:.3f},{r['evaluations']},{r['cache_hits']},"
            # Reports from before the delta re-analysis / Pareto fronts
            # lack the newer fields; default them so old artefacts still
            # plot.
            f"{r.get('feasible_hits', 0)},{r.get('infeasible_hits', 0)},"
            f"{r.get('delta_resumes', 0)},"
            f"{r.get('front_size', 0)},{r.get('hypervolume', 0.0):.4f},"
            f"{r['cache_hit_rate']:.4f},{r['seconds']:.6f}\n"
        )


def has_front(report):
    """True for multi-objective reports (any run carries a Pareto front).
    Pre-Pareto artefacts simply lack the field and plot as before."""
    return any(r.get("front") for r in report.get("runs", []))


def scatter_ascii(points, title, width=58, height=12):
    """One 2-D scatter canvas; `points` is [(x, y)], marker `*`."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = round((x - x_lo) / x_span * (width - 1))
        row = round((y - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = [f"{title}   [y: {y_lo} .. {y_hi}]"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width)
    lines.append(f"   x: {x_lo} .. {x_hi}")
    return "\n".join(lines)


# The 2-D projections of the 3-objective front worth looking at.
FRONT_PROJECTIONS = (
    ("bank_peak", "peak bank load (words) vs makespan (cycles)"),
    ("min_slack", "min slack (cycles) vs makespan (cycles)"),
)


def render_front_ascii(report):
    """Per run: the front size + hypervolume, then the 2-D projections
    of the Pareto front as ASCII scatters."""
    lines = []
    for run in report["runs"]:
        front = run.get("front") or []
        if not front:
            continue
        lines.append(
            f"{dse_label(run)}: {len(front)} Pareto point(s), "
            f"hypervolume {run.get('hypervolume', 0.0):.4f}"
        )
        for field, title in FRONT_PROJECTIONS:
            points = [(p["makespan"], p[field]) for p in front]
            lines.append(scatter_ascii(points, title))
    return "\n".join(lines) + "\n"


def write_front_gnuplot(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, "dse_front.dat")
    gp_path = os.path.join(out_dir, "dse_front.gp")
    indexed = []
    with open(dat_path, "w") as dat:
        dat.write("# makespan min_slack bank_peak active_cores arbiter\n")
        for run in report["runs"]:
            front = run.get("front") or []
            if not front:
                continue
            dat.write(f"# {dse_label(run)}\n")
            for p in front:
                dat.write(
                    f"{p['makespan']} {p['min_slack']} {p['bank_peak']} "
                    f"{p.get('active_cores', 0)} {p.get('arbiter', 0)}\n"
                )
            dat.write("\n\n")  # gnuplot index separator
            indexed.append(dse_label(run))
    bank = ", \\\n    ".join(
        f"'dse_front.dat' index {i} using 1:3 with points pt 7 title '{label}'"
        for i, label in enumerate(indexed)
    )
    slack = ", \\\n    ".join(
        f"'dse_front.dat' index {i} using 1:2 with points pt 7 title '{label}'"
        for i, label in enumerate(indexed)
    )
    with open(gp_path, "w") as gp:
        gp.write(
            "set terminal svg size 1200,500\n"
            "set output 'dse_front.svg'\n"
            "set multiplot layout 1,2\n"
            "set xlabel 'analyzed makespan (cycles)'\n"
            "set ylabel 'peak bank load (words)'\n"
            "set key right top\n"
            f"plot {bank}\n"
            "set ylabel 'min slack (cycles)'\n"
            f"plot {slack}\n"
            "unset multiplot\n"
        )
    return dat_path, gp_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", nargs="?", default="BENCH_sweep.json",
                        help="sweep or DSE JSON report (default: BENCH_sweep.json)")
    parser.add_argument("--gnuplot", metavar="DIR",
                        help="write a gnuplot data + script pair into DIR")
    parser.add_argument("--csv", action="store_true",
                        help="emit the flat CSV table instead of a chart")
    args = parser.parse_args()

    report = load_report(args.report)
    if "runs" in report and "points" not in report:
        # A DSE report (mia optimize / mia-bench dse). Multi-objective
        # runs (any run with a `front`) additionally get the Pareto
        # front projections.
        if args.csv:
            write_dse_csv(report, sys.stdout)
        elif args.gnuplot:
            dat, gp = write_dse_gnuplot(report, args.gnuplot)
            print(f"wrote {dat} and {gp} (run: gnuplot {gp})")
            if has_front(report):
                dat, gp = write_front_gnuplot(report, args.gnuplot)
                print(f"wrote {dat} and {gp} (run: gnuplot {gp})")
        else:
            sys.stdout.write(render_dse_ascii(report))
            if has_front(report):
                sys.stdout.write(render_front_ascii(report))
        return
    if args.csv:
        write_csv(report, sys.stdout)
        return
    series = series_of(report)
    if args.gnuplot:
        dat, gp = write_gnuplot(series, args.gnuplot)
        print(f"wrote {dat} and {gp} (run: gnuplot {gp})")
        return
    sys.stdout.write(render_ascii(series))


if __name__ == "__main__":
    main()
