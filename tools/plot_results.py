#!/usr/bin/env python3
"""Plot the paper's figures from the CSV files written by bench/pz_sweep
(Figs. 9-11) and bench/fig12_heatmap (Fig. 12).

Usage:
    python3 tools/plot_results.py [results_dir] [output_dir]

Requires matplotlib. Produces:
    fig9.png  - normalized factorization time (T_scu + T_comm stacked bars)
    fig10.png - per-process communication volume (W_fact + W_red stacked)
    fig11.png - relative memory overhead vs Pz
    fig12.png - GFLOP/s heatmaps over the P_XY x P_z plane
"""
import csv
import sys
from collections import defaultdict
from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is required: pip install matplotlib")


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def fig9(rows, out):
    mats = sorted({r["matrix"] for r in rows})
    fig, axes = plt.subplots(2, (len(mats) + 1) // 2,
                             figsize=(3.2 * ((len(mats) + 1) // 2), 7),
                             squeeze=False)
    for i, mat in enumerate(mats):
        ax = axes[i % 2][i // 2]
        sel = [r for r in rows if r["matrix"] == mat and r["P"] == "64"]
        base = next(float(r["time_s"]) for r in sel if r["Pz"] == "1")
        xs = [int(r["Pz"]) for r in sel]
        scu = [float(r["t_scu_s"]) / base for r in sel]
        comm = [float(r["t_comm_s"]) / base for r in sel]
        rest = [float(r["time_s"]) / base - s - c
                for r, s, c in zip(sel, scu, comm)]
        pos = range(len(xs))
        ax.bar(pos, scu, label="T_scu")
        ax.bar(pos, comm, bottom=scu, label="T_comm")
        ax.bar(pos, rest, bottom=[a + b for a, b in zip(scu, comm)],
               label="other")
        ax.set_xticks(list(pos), [str(x) for x in xs])
        ax.set_title(mat, fontsize=9)
        ax.set_xlabel("Pz")
        if i == 0:
            ax.set_ylabel("T / T_2D(P=64)")
            ax.legend(fontsize=7)
    fig.suptitle("Fig. 9 — normalized factorization time (P = 64)")
    fig.tight_layout()
    fig.savefig(out / "fig9.png", dpi=150)


def fig10(rows, out):
    mats = sorted({r["matrix"] for r in rows
                   if r["matrix"] in ("K2D5pt", "nlpkkt3d")})
    fig, axes = plt.subplots(1, len(mats), figsize=(5 * len(mats), 4),
                             squeeze=False)
    for i, mat in enumerate(mats):
        ax = axes[0][i]
        sel = [r for r in rows if r["matrix"] == mat and r["P"] == "64"]
        xs = [int(r["Pz"]) for r in sel]
        wf = [int(r["w_fact_bytes"]) / 1e6 for r in sel]
        wr = [int(r["w_red_bytes"]) / 1e6 for r in sel]
        pos = range(len(xs))
        ax.bar(pos, wf, label="W_fact")
        ax.bar(pos, wr, bottom=wf, label="W_red")
        ax.set_xticks(list(pos), [str(x) for x in xs])
        ax.set_title(mat)
        ax.set_xlabel("Pz")
        ax.set_ylabel("MB / process")
        ax.legend()
    fig.suptitle("Fig. 10 — per-process communication volume (P = 64)")
    fig.tight_layout()
    fig.savefig(out / "fig10.png", dpi=150)


def fig11(rows, out):
    fig, ax = plt.subplots(figsize=(7, 4.5))
    by_mat = defaultdict(list)
    for r in rows:
        if r["P"] == "64":
            by_mat[(r["matrix"], r["class"])].append(
                (int(r["Pz"]), int(r["mem_total_bytes"]),
                 int(r["mem_2d_total_bytes"])))
    for (mat, cls), pts in sorted(by_mat.items()):
        pts.sort()
        # Each point over the 2D run at its own leaf: replication alone.
        xs = [pz for pz, _, _ in pts if pz > 1]
        ys = [100.0 * (m / base - 1.0) for pz, m, base in pts if pz > 1]
        ax.plot(xs, ys, marker="o" if cls == "planar" else "s",
                linestyle="-" if cls == "planar" else "--", label=mat)
    ax.set_xscale("log", base=2)
    ax.set_xlabel("Pz")
    ax.set_ylabel("memory overhead vs 2D (%)")
    ax.legend(fontsize=7, ncol=2)
    ax.set_title("Fig. 11 — memory overhead of the 3D algorithm (P = 64)")
    fig.tight_layout()
    fig.savefig(out / "fig11.png", dpi=150)


def fig12(rows, out):
    mats = sorted({r["matrix"] for r in rows})
    fig, axes = plt.subplots(1, len(mats), figsize=(5.5 * len(mats), 4),
                             squeeze=False)
    for i, mat in enumerate(mats):
        ax = axes[0][i]
        sel = [r for r in rows if r["matrix"] == mat]
        pxys = sorted({int(r["Pxy"]) for r in sel})
        pzs = sorted({int(r["Pz"]) for r in sel})
        grid = [[0.0] * len(pxys) for _ in pzs]
        for r in sel:
            grid[pzs.index(int(r["Pz"]))][pxys.index(int(r["Pxy"]))] = \
                float(r["gflops"])
        im = ax.imshow(grid, origin="lower", aspect="auto", cmap="viridis")
        ax.set_xticks(range(len(pxys)), [str(p) for p in pxys])
        ax.set_yticks(range(len(pzs)), [str(p) for p in pzs])
        ax.set_xlabel("P_XY")
        ax.set_ylabel("P_z")
        ax.set_title(f"{mat} (GFLOP/s)")
        fig.colorbar(im, ax=ax)
    fig.suptitle("Fig. 12 — performance heatmap")
    fig.tight_layout()
    fig.savefig(out / "fig12.png", dpi=150)


def main():
    results = Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    out = Path(sys.argv[2] if len(sys.argv) > 2 else results)
    out.mkdir(parents=True, exist_ok=True)
    fig9(read_csv(results / "fig9_normalized_time.csv"), out)
    fig10(read_csv(results / "fig10_comm_volume.csv"), out)
    fig11(read_csv(results / "fig11_memory.csv"), out)
    fig12(read_csv(results / "fig12_edison.csv"), out)
    print(f"figures written to {out}")


if __name__ == "__main__":
    main()
